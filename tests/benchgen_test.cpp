//===- tests/benchgen_test.cpp - Benchmark generator tests ---------------===//
//
// The generated suite must reproduce the evaluation's qualitative shape:
// hybrid and CI find every planted real flow, CS misses exactly the
// inter-thread flows and fails on chan-heavy apps, CI reports at least as
// many issues as hybrid, sanitized flows stay silent, and the optimized
// bounds prune overlong flows.
//
//===----------------------------------------------------------------------===//

#include "benchgen/Generator.h"
#include "core/TaintAnalysis.h"
#include "ir/Verifier.h"

#include <gtest/gtest.h>

using namespace taj;

namespace {

AnalysisResult runCfg(GeneratedApp &App, AnalysisConfig C) {
  TaintAnalysis TA(*App.P, std::move(C));
  return TA.run({App.Root});
}

/// Small apps with CS coverage (fast enough to run all configs).
std::vector<AppSpec> smallSuite() {
  std::vector<AppSpec> Out;
  for (const AppSpec &S : benchmarkSuite())
    if (S.Name == "BlueBlog" || S.Name == "I" || S.Name == "Friki" ||
        S.Name == "A")
      Out.push_back(S);
  return Out;
}

TEST(BenchGen, GeneratedAppsVerify) {
  for (const AppSpec &S : smallSuite()) {
    GeneratedApp App = generateApp(S);
    std::vector<std::string> Errors = verifyProgram(*App.P);
    EXPECT_TRUE(Errors.empty())
        << S.Name << ": " << (Errors.empty() ? "" : Errors.front());
    EXPECT_GT(App.Truth.numReal(), 0u) << S.Name;
  }
}

TEST(BenchGen, HybridAndCiFindAllRealFlows) {
  for (const AppSpec &S : smallSuite()) {
    GeneratedApp App = generateApp(S);
    AnalysisResult H = runCfg(App, AnalysisConfig::hybridUnbounded());
    Classification CH = classify(*App.P, App.Truth, H.Issues);
    EXPECT_EQ(CH.RealFound, App.Truth.numReal()) << S.Name << " (hybrid)";
    AnalysisResult CI = runCfg(App, AnalysisConfig::ci());
    Classification CC = classify(*App.P, App.Truth, CI.Issues);
    EXPECT_EQ(CC.RealFound, App.Truth.numReal()) << S.Name << " (CI)";
    EXPECT_GE(distinctIssueCount(CI.Issues), distinctIssueCount(H.Issues))
        << S.Name << ": CI must report at least as much as hybrid";
  }
}

TEST(BenchGen, CsMissesExactlyThreadFlows) {
  for (const AppSpec &S : smallSuite()) {
    GeneratedApp App = generateApp(S);
    AnalysisResult CS = runCfg(App, AnalysisConfig::cs());
    ASSERT_TRUE(CS.Completed) << S.Name << " should complete under CS";
    Classification C = classify(*App.P, App.Truth, CS.Issues);
    EXPECT_EQ(App.Truth.numReal() - C.RealFound, S.Plants.TpThread)
        << S.Name << ": CS false negatives must equal planted thread flows";
  }
}

TEST(BenchGen, CsExhaustsMemoryOnChanHeavyApps) {
  for (const AppSpec &S : benchmarkSuite()) {
    if (S.Name != "Lutece")
      continue; // one representative chan-heavy app (keeps the test fast)
    GeneratedApp App = generateApp(S);
    AnalysisResult CS = runCfg(App, AnalysisConfig::cs());
    EXPECT_FALSE(CS.Completed) << S.Name << " must OOM under CS";
    // The overflow is reported as a degraded run: the status is how a
    // driver learns of it.
    EXPECT_TRUE(CS.degraded()) << S.Name;
    const std::string Status = CS.Status.toString();
    EXPECT_NE(Status.find("sdg-build: truncated (memory)"), std::string::npos)
        << Status;
    EXPECT_NE(Status.find("slicing: skipped (memory)"), std::string::npos)
        << Status;
  }
}

TEST(BenchGen, SanitizedFlowsStaySilent) {
  for (const AppSpec &S : smallSuite()) {
    GeneratedApp App = generateApp(S);
    AnalysisResult H = runCfg(App, AnalysisConfig::hybridUnbounded());
    // No reported sink line may be a sanitized decoy: sanitized flows use
    // decoy lines but have no matching pattern that should fire at all.
    // It suffices that hybrid reports exactly TP + expected FP kinds:
    Classification C = classify(*App.P, App.Truth, H.Issues);
    uint32_t ExpectedFp = S.Plants.FpAlias + S.Plants.FpHeap +
                          S.Plants.FpHeapLong;
    EXPECT_EQ(C.FalsePositives, ExpectedFp) << S.Name;
  }
}

TEST(BenchGen, OptimizedDropsLongFlows) {
  for (const AppSpec &S : benchmarkSuite()) {
    if (S.Name != "BlueBlog")
      continue;
    GeneratedApp App = generateApp(S);
    AnalysisConfig Opt = AnalysisConfig::hybridOptimized(
        /*CgBudget=*/0, /*HeapTransitions=*/20000, /*FlowLength=*/14,
        /*NestedDepth=*/2);
    Opt.Prioritized = false;
    AnalysisResult R = runCfg(App, Opt);
    Classification C = classify(*App.P, App.Truth, R.Issues);
    // The one planted long real flow becomes a false negative (§7.2) and
    // the long heap decoys disappear.
    EXPECT_EQ(App.Truth.numReal() - C.RealFound, S.Plants.TpLong)
        << "long real flow must be filtered";
    AnalysisResult U = runCfg(App, AnalysisConfig::hybridUnbounded());
    Classification CU = classify(*App.P, App.Truth, U.Issues);
    EXPECT_LT(C.FalsePositives, CU.FalsePositives + S.Plants.FpHeapLong + 1);
  }
}

TEST(BenchGen, TableTwoStatsScaleWithSpec) {
  auto Suite = benchmarkSuite();
  GeneratedApp Small = generateApp(Suite[3]); // BlueBlog
  GeneratedApp Large = generateApp(Suite[20]); // VQWiki
  EXPECT_GT(Large.GenMethods, Small.GenMethods);
  EXPECT_GT(Large.GenStmts, Small.GenStmts);
}

} // namespace
