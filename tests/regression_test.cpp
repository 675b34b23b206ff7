//===- tests/regression_test.cpp - Whole-pipeline properties -------------===//
//
// Cross-cutting properties over the generated benchmark suite:
//  - determinism: repeated runs produce identical issue sets;
//  - budget monotonicity: flows found under a call-graph budget are a
//    subset of the unbounded flows (the truncated call graph is a
//    subgraph, and the analysis is monotone in it);
//  - bound monotonicity: loosening the §6.2 bounds never loses flows;
//  - pinned output: every suite app's full issue list (lengths and paths
//    included) matches a recorded digest under four configurations;
//  - pinned string facts: every suite app's string-constant facts, the
//    pool symbols they interned and their counters match a recorded
//    digest in local and ipa mode.
//
//===----------------------------------------------------------------------===//

#include "benchgen/Generator.h"
#include "core/TaintAnalysis.h"
#include "dataflow/ConstString.h"

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

/// FNV-1a, fed 64-bit words.
struct Fnv {
  uint64_t H = 0xcbf29ce484222325ull;
  void mix(uint64_t V) {
    for (int B = 0; B < 8; ++B) {
      H ^= (V >> (8 * B)) & 0xff;
      H *= 0x100000001b3ull;
    }
  }
  void mix(std::string_view S) {
    mix(S.size());
    for (char C : S)
      mix(static_cast<unsigned char>(C));
  }
};

/// FNV-1a over everything a run reports: per issue its source, sink,
/// rule, length and full statement path, then the completion flag.
uint64_t outputDigest(const AnalysisResult &R) {
  Fnv F;
  F.mix(R.Issues.size());
  for (const Issue &I : R.Issues) {
    F.mix(I.Source);
    F.mix(I.Sink);
    F.mix(I.Rule);
    F.mix(I.Length);
    F.mix(I.Path.size());
    for (StmtId S : I.Path)
      F.mix(S);
  }
  F.mix(R.Completed ? 1 : 0);
  return F.H;
}

const AppSpec *suiteApp(const char *Name) {
  static std::vector<AppSpec> Suite = benchmarkSuite();
  for (const AppSpec &S : Suite)
    if (S.Name == Name)
      return &S;
  return nullptr;
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
  const AppSpec *Spec = suiteApp(Row.App);
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

//===----------------------------------------------------------------------===//
// String-constant facts pinned per suite app
//===----------------------------------------------------------------------===//
//
// The string facts name dictionary channels and resolve reflection, and
// the concatenations the analysis folds are interned into the pool in fold
// order, so the pool symbols the solver sees depend on the propagation
// order too. The digest covers every value's fact, the pool strings the
// analysis interned (in symbol order) and its conststr.* counters. The
// suite apps as generated hold no fact that ipa mode adds over local mode,
// so each app also runs with the helper-routed dictionary keys and the
// StringBuilder-computed reflective targets of bench/ablation_strings
// planted: those exercise interprocedural edges, concatenation folds and
// meets to bottom.

/// FNV-1a over one analyzeConstStrings result.
uint64_t constStringDigest(const Program &P, const ConstStringResult &R) {
  Fnv F;
  for (const Method &M : P.Methods)
    for (uint32_t V = 0; V < M.NumValues; ++V)
      F.mix(R.valueOf(M.Id, static_cast<ValueId>(V)));
  F.mix(P.Pool.size() - R.poolBase());
  for (Symbol S = R.poolBase(); S < P.Pool.size(); ++S)
    F.mix(P.Pool.str(S));
  F.mix(R.stats().toString());
  return F.H;
}

struct ConstStringCase {
  StringAnalysisMode Mode;
  bool StringPlants;
};

const ConstStringCase ConstStringCases[] = {
    {StringAnalysisMode::Local, false},
    {StringAnalysisMode::Ipa, false},
    {StringAnalysisMode::Local, true},
    {StringAnalysisMode::Ipa, true}};

struct ConstStringRow {
  const char *App;
  uint64_t Digest[4]; ///< in ConstStringCases order
};

// clang-format off
const ConstStringRow RecordedConstStrings[] = {
    {"A",
     {0x47a193ff24606813ull, 0x47a193ff24606813ull,
      0xba8797186a181474ull, 0xed97e6a909c39493ull}},
    {"B",
     {0x2f8047bf4f50cc73ull, 0x2f8047bf4f50cc73ull,
      0x506f155782c750d0ull, 0x6eebd035f8d6a27ull}},
    {"Blojsom",
     {0x242c904f20a572f3ull, 0x242c904f20a572f3ull,
      0x604dc268df9af9c4ull, 0x8845d036e08ee6c8ull}},
    {"BlueBlog",
     {0xe20cb075ee2c5ccdull, 0xe20cb075ee2c5ccdull,
      0x22d2ac3817a92d2ull, 0x9e33781aa6e08133ull}},
    {"Dlog",
     {0x6c5474687d9eddaaull, 0x6c5474687d9eddaaull,
      0x8d938e44c40990d0ull, 0x23e9bde8d4ca8a29ull}},
    {"Friki",
     {0x3751172cc8a7b9d3ull, 0x3751172cc8a7b9d3ull,
      0xb268c6aa2aa82661ull, 0x44185bf8bcb36d36ull}},
    {"GestCV",
     {0x802e1d34837a6e90ull, 0x802e1d34837a6e90ull,
      0x79bcc33aabc3d73aull, 0x47af23b5c7d66aadull}},
    {"Ginp",
     {0xda40c7a0e1e1ed8full, 0xda40c7a0e1e1ed8full,
      0x240b069955c15f37ull, 0x90f18e9b8f2477e0ull}},
    {"GridSphere",
     {0x3ea37b91cbbaa3d9ull, 0x3ea37b91cbbaa3d9ull,
      0xb6285fa4fa1ea87dull, 0xfa5b991c5af28d68ull}},
    {"I",
     {0xee3132f37d5d5d8ull, 0xee3132f37d5d5d8ull,
      0x29b5ecadc33702beull, 0x6f991ed438b1b929ull}},
    {"JSPWiki",
     {0x9302810328891399ull, 0x9302810328891399ull,
      0x1e77f9aaa46584c0ull, 0x2bff4e3767188417ull}},
    {"Lutece",
     {0xd30c74adc174c553ull, 0xd30c74adc174c553ull,
      0x14e855080e8df438ull, 0x17cf5845a37daf89ull}},
    {"MVNForum",
     {0x9e115f0c31e61bd7ull, 0x9e115f0c31e61bd7ull,
      0xc733d0ead361e9e1ull, 0x176f0fe2642b2856ull}},
    {"PersonalBlog",
     {0x4422f9d2678ae6cbull, 0x4422f9d2678ae6cbull,
      0x3c72a27c9484c4fbull, 0x994e6c821876b544ull}},
    {"Roller",
     {0xabfa8ded5f220606ull, 0xabfa8ded5f220606ull,
      0xb97b888f8c60800bull, 0xf8e4d50942afc0bcull}},
    {"S",
     {0xd7c3e108c857504cull, 0xd7c3e108c857504cull,
      0x70d23300da11d85full, 0x8119bd04b33bf68aull}},
    {"SBM",
     {0x4edbd48e077c9ac0ull, 0x4edbd48e077c9ac0ull,
      0xb475ca2c9a33ed3cull, 0x685670e3b174f67dull}},
    {"SnipSnap",
     {0x7db6da5dc66c22ccull, 0x7db6da5dc66c22ccull,
      0x33126eac54c65212ull, 0xfccc9a98a245012full}},
    {"SPLC",
     {0xf06e62f8383925b3ull, 0xf06e62f8383925b3ull,
      0xefc9c2d8cd1df24ull, 0xad8bd0e25a977771ull}},
    {"ST",
     {0x3ece8360e4bba2eull, 0x3ece8360e4bba2eull,
      0xcb1ff6f2fb3c35dull, 0x3d9a15f9282832eaull}},
    {"VQWiki",
     {0x84bfcb356ae6a608ull, 0x84bfcb356ae6a608ull,
      0xd3c3250cd1de9bf4ull, 0x180df99e99d47d24ull}},
    {"Webgoat",
     {0xaea8b24fac9aaf14ull, 0xaea8b24fac9aaf14ull,
      0x8f9ba17e3c691469ull, 0xffe0f6dbbd7ec1b8ull}},
};
// clang-format on

void PrintTo(const ConstStringRow &Row, std::ostream *OS) { *OS << Row.App; }

class ConstStringDigestTest : public ::testing::TestWithParam<ConstStringRow> {
};

TEST_P(ConstStringDigestTest, FactsMatchRecordedDigest) {
  const ConstStringRow &Row = GetParam();
  const AppSpec *Spec = suiteApp(Row.App);
  ASSERT_NE(Spec, nullptr) << Row.App;
  for (size_t K = 0; K < std::size(ConstStringCases); ++K) {
    const ConstStringCase &Case = ConstStringCases[K];
    AppSpec S = *Spec;
    if (Case.StringPlants) {
      S.Plants.TpHelperKeyMap = 2;
      S.Plants.TpComputedReflective = 2;
    }
    GeneratedApp App = generateApp(S);
    App.P->indexStatements();
    ClassHierarchy CHA(*App.P);
    ConstStringOptions O;
    O.Mode = Case.Mode;
    ConstStringResult R = analyzeConstStrings(*App.P, CHA, O);
    const uint64_t D = constStringDigest(*App.P, R);
    EXPECT_EQ(D, Row.Digest[K])
        << Row.App << "/" << stringAnalysisModeName(Case.Mode)
        << (Case.StringPlants ? "+plants" : "") << ": got 0x" << std::hex << D
        << std::dec << "\n"
        << R.stats().toString();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Suite, ConstStringDigestTest, ::testing::ValuesIn(RecordedConstStrings),
    [](const ::testing::TestParamInfo<ConstStringRow> &Info) {
      return std::string(Info.param.App);
    });

} // namespace
