//===- tests/regression_test.cpp - Whole-pipeline properties -------------===//
//
// Cross-cutting properties over the generated benchmark suite:
//  - determinism: repeated runs produce identical issue sets;
//  - budget monotonicity: flows found under a call-graph budget are a
//    subset of the unbounded flows (the truncated call graph is a
//    subgraph, and the analysis is monotone in it);
//  - bound monotonicity: loosening the §6.2 bounds never loses flows;
//  - pinned output: every suite app's full issue list (lengths and paths
//    included) matches a recorded digest under four configurations.
//
//===----------------------------------------------------------------------===//

#include "benchgen/Generator.h"
#include "core/TaintAnalysis.h"

#include <gtest/gtest.h>

#include <iterator>
#include <ostream>
#include <string>

using namespace taj;

namespace {

std::set<std::tuple<StmtId, StmtId, RuleMask>>
issueSet(const AnalysisResult &R) {
  std::set<std::tuple<StmtId, StmtId, RuleMask>> Out;
  for (const Issue &I : R.Issues)
    Out.insert({I.Source, I.Sink, I.Rule});
  return Out;
}

class RegressionTest : public ::testing::TestWithParam<const char *> {
protected:
  const AppSpec &spec() {
    static std::vector<AppSpec> Suite = benchmarkSuite();
    for (const AppSpec &S : Suite)
      if (S.Name == GetParam())
        return S;
    return Suite[0];
  }
};

TEST_P(RegressionTest, AnalysisIsDeterministic) {
  for (const char *Cfg : {"hybrid", "ci"}) {
    GeneratedApp A1 = generateApp(spec());
    GeneratedApp A2 = generateApp(spec());
    AnalysisConfig C1 = Cfg == std::string("hybrid")
                            ? AnalysisConfig::hybridUnbounded()
                            : AnalysisConfig::ci();
    AnalysisConfig C2 = C1;
    TaintAnalysis T1(*A1.P, std::move(C1));
    TaintAnalysis T2(*A2.P, std::move(C2));
    AnalysisResult R1 = T1.run({A1.Root});
    AnalysisResult R2 = T2.run({A2.Root});
    EXPECT_EQ(issueSet(R1), issueSet(R2))
        << spec().Name << "/" << Cfg << ": nondeterministic issue set";
  }
}

TEST_P(RegressionTest, BudgetedFlowsAreSubsetOfUnbounded) {
  GeneratedApp Full = generateApp(spec());
  TaintAnalysis TF(*Full.P, AnalysisConfig::hybridUnbounded());
  auto Unbounded = issueSet(TF.run({Full.Root}));
  for (uint32_t Budget : {50u, 200u, 800u}) {
    GeneratedApp App = generateApp(spec());
    AnalysisConfig C = AnalysisConfig::hybridPrioritized(Budget);
    TaintAnalysis TA(*App.P, std::move(C));
    AnalysisResult R = TA.run({App.Root});
    for (const auto &T : issueSet(R))
      EXPECT_TRUE(Unbounded.count(T))
          << spec().Name << " budget=" << Budget
          << ": budgeted run invented a flow";
  }
}

TEST_P(RegressionTest, LooserBoundsNeverLoseFlows) {
  GeneratedApp App = generateApp(spec());
  auto RunWith = [&](uint32_t Len, uint32_t Depth, uint32_t Hops) {
    GeneratedApp A = generateApp(spec());
    AnalysisConfig C = AnalysisConfig::hybridUnbounded();
    C.MaxFlowLength = Len;
    C.NestedTaintDepth = Depth;
    C.MaxHeapTransitions = Hops;
    TaintAnalysis TA(*A.P, std::move(C));
    return issueSet(TA.run({A.Root}));
  };
  auto Tight = RunWith(8, 1, 4);
  auto Loose = RunWith(0, 32, 0);
  for (const auto &T : Tight)
    EXPECT_TRUE(Loose.count(T))
        << spec().Name << ": tightening a bound added a flow";
}

INSTANTIATE_TEST_SUITE_P(Apps, RegressionTest,
                         ::testing::Values("A", "BlueBlog", "I", "SBM",
                                           "Webgoat"));

//===----------------------------------------------------------------------===//
// Full slicer output pinned per suite app
//===----------------------------------------------------------------------===//
//
// The tests above compare issue sets only. Dedup keeps the first
// (source, sink, rule) a slicer records, and the context-expanded SDG has
// several nodes per statement, so the discovery order also decides each
// issue's length and path, and paths drive the report's LCP grouping. The
// digest below covers all of it, and the table pins it for every suite app
// under the four slicer configurations of Table 3 at bench bounds, on one
// slicing thread. A slicer change that moves any digest changes the
// reported output.

/// FNV-1a over everything a run reports: per issue its source, sink,
/// rule, length and full statement path, then the completion flag.
uint64_t outputDigest(const AnalysisResult &R) {
  uint64_t H = 0xcbf29ce484222325ull;
  auto Mix = [&H](uint64_t V) {
    for (int B = 0; B < 8; ++B) {
      H ^= (V >> (8 * B)) & 0xff;
      H *= 0x100000001b3ull;
    }
  };
  Mix(R.Issues.size());
  for (const Issue &I : R.Issues) {
    Mix(I.Source);
    Mix(I.Sink);
    Mix(I.Rule);
    Mix(I.Length);
    Mix(I.Path.size());
    for (StmtId S : I.Path)
      Mix(S);
  }
  Mix(R.Completed ? 1 : 0);
  return H;
}

const char *const DigestConfigs[] = {"hybrid-unbounded", "hybrid-optimized",
                                     "cs", "ci"};

AnalysisConfig digestConfig(const std::string &Name) {
  AnalysisConfig C;
  if (Name == "hybrid-unbounded")
    C = AnalysisConfig::hybridUnbounded();
  else if (Name == "hybrid-optimized")
    C = AnalysisConfig::hybridOptimized(/*CgBudget=*/400,
                                        /*HeapTransitions=*/20000,
                                        /*FlowLength=*/14,
                                        /*NestedDepth=*/2);
  else if (Name == "cs")
    C = AnalysisConfig::cs();
  else
    C = AnalysisConfig::ci();
  C.Threads = 1;
  return C;
}

struct DigestRow {
  const char *App;
  uint64_t Digest[4]; ///< in DigestConfigs order
};

// clang-format off
const DigestRow RecordedDigests[] = {
    {"A",
     {0xe6fafec5c487817aull, 0xe6fafec5c487817aull,
      0x3c80ae05a2d71ea0ull, 0x246a69530fb20b8full}},
    {"B",
     {0x956c72a0f25a1b0bull, 0xb4d93831cf6920e9ull,
      0x88201fb960ff6465ull, 0x17d8804202ddaed1ull}},
    {"Blojsom",
     {0xf2d070f4e748fd99ull, 0xe4fb5e5d300f601bull,
      0x88201fb960ff6465ull, 0x96c136922c1a5d4dull}},
    {"BlueBlog",
     {0x5373d7a97386e669ull, 0xdc9502b2a6102962ull,
      0xb0acb9349cd87f51ull, 0x3e69d2c5d822f50eull}},
    {"Dlog",
     {0xb4d93831cf6920e9ull, 0xb4d93831cf6920e9ull,
      0x88201fb960ff6465ull, 0x47b2a45926b33ac3ull}},
    {"Friki",
     {0x29608a37c40d86adull, 0x5c3db594665c16fbull,
      0x9b5b56c2d8c66612ull, 0xb74fe1bd50878e10ull}},
    {"GestCV",
     {0xb4d93831cf6920e9ull, 0xb4d93831cf6920e9ull,
      0x88201fb960ff6465ull, 0xefd867847cab808aull}},
    {"Ginp",
     {0x227efaa1283170ebull, 0x26cd8a6fa3be8c5cull,
      0xa7ecab04a389a379ull, 0xfbe4ac09bf9c4fbfull}},
    {"GridSphere",
     {0x3531680e1345e8b5ull, 0x8880365dc0f835bfull,
      0x88201fb960ff6465ull, 0x92296260c6687d49ull}},
    {"I",
     {0x17a7200ea550e632ull, 0x17a7200ea550e632ull,
      0x26c6d0cf3c7816efull, 0x2143c785df5424bdull}},
    {"JSPWiki",
     {0x62fe4aac91082221ull, 0x9a9d70c5192ae14bull,
      0x88201fb960ff6465ull, 0x3aedd8ee6cc27d3full}},
    {"Lutece",
     {0x747bf979b0ade58full, 0x747bf979b0ade58full,
      0x88201fb960ff6465ull, 0x6ae9b83388045a65ull}},
    {"MVNForum",
     {0x91609678b1e8adfeull, 0xc5426df6948f922full,
      0x88201fb960ff6465ull, 0xc77023c6e09c468bull}},
    {"PersonalBlog",
     {0xce1ea224f6dec286ull, 0x36c19c2f93f3545aull,
      0x88201fb960ff6465ull, 0x8e09fb316e3c4d1eull}},
    {"Roller",
     {0x1c85286b04c4b6afull, 0x7926e5d7d82554b1ull,
      0x88201fb960ff6465ull, 0xd836d77e5c8ba24cull}},
    {"S",
     {0xf826eb26cc83109full, 0x9771fcc98ceea84bull,
      0x88201fb960ff6465ull, 0x885c16cddb4d00f2ull}},
    {"SBM",
     {0x6d3c63114cc074e6ull, 0xa7d7ed5c8f2bce29ull,
      0x16756a0ca4b300e1ull, 0x244237bf6696490eull}},
    {"SnipSnap",
     {0x715f9af4a662aac9ull, 0x88c0220f1f891d70ull,
      0x88201fb960ff6465ull, 0x3880925ce2aed08ull}},
    {"SPLC",
     {0xc847e159d8a2e64aull, 0xc4cd0808443490fbull,
      0x88201fb960ff6465ull, 0xa6f128b59cca7c5cull}},
    {"ST",
     {0x25ccabdb5ca54eedull, 0xfb396359eb1beb83ull,
      0x88201fb960ff6465ull, 0xc8472f446aa751a8ull}},
    {"VQWiki",
     {0xf588cbead9bf40a8ull, 0x7b31ea8af4a1ebc3ull,
      0x88201fb960ff6465ull, 0x8e6779a3dabec582ull}},
    {"Webgoat",
     {0xdb2ce7abf5431384ull, 0x2862205cb9682796ull,
      0x88201fb960ff6465ull, 0x77d6f6e4f51814d4ull}},
};
// clang-format on

void PrintTo(const DigestRow &Row, std::ostream *OS) { *OS << Row.App; }

class SlicerDigestTest : public ::testing::TestWithParam<DigestRow> {};

TEST_P(SlicerDigestTest, FullOutputMatchesRecordedDigest) {
  const DigestRow &Row = GetParam();
  const AppSpec *Spec = nullptr;
  static std::vector<AppSpec> Suite = benchmarkSuite();
  for (const AppSpec &S : Suite)
    if (S.Name == Row.App)
      Spec = &S;
  ASSERT_NE(Spec, nullptr) << Row.App;
  for (size_t K = 0; K < std::size(DigestConfigs); ++K) {
    GeneratedApp App = generateApp(*Spec);
    TaintAnalysis TA(*App.P, digestConfig(DigestConfigs[K]));
    AnalysisResult R = TA.run({App.Root});
    EXPECT_EQ(outputDigest(R), Row.Digest[K])
        << Row.App << "/" << DigestConfigs[K] << ": got 0x" << std::hex
        << outputDigest(R) << std::dec << " (" << R.Issues.size()
        << " issues)";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Suite, SlicerDigestTest, ::testing::ValuesIn(RecordedDigests),
    [](const ::testing::TestParamInfo<DigestRow> &Info) {
      return std::string(Info.param.App);
    });

} // namespace
