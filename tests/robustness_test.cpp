//===- tests/robustness_test.cpp - Governed-run & degradation tests ------===//
//
// Exercises the run-governance layer: deterministic fault injection at every
// checkpoint, deadline expiry, memory ceilings, cooperative cancellation,
// node-budget truncation, guard statistics, a malformed-input parser
// corpus, and cyclic class hierarchies. The invariant throughout: a
// governed run never crashes or hangs, and every issue it reports is one
// the unbounded run also reports (truncation only shrinks the result, per
// TAJ §6). A cutoff inside slicing keeps exactly the items that completed,
// so the same taj-cli command prints the same output every time.
//
//===----------------------------------------------------------------------===//

#include "benchgen/Generator.h"
#include "core/TaintAnalysis.h"
#include "frontend/Parser.h"
#include "ir/Verifier.h"
#include "model/BuiltinLibrary.h"
#include "model/Entrypoints.h"
#include "support/Number.h"
#include "support/RunGuard.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

using namespace taj;

namespace {

/// A small application with several distinct flows so truncation has
/// something to cut: two XSS flows, one SQLi flow, one sanitized flow.
const char *AppSource = R"(
class App extends Servlet {
  method doGet(this: App, req: Request, resp: Response, db: Database): void [entry] {
    t1 = req.getParameter("name");
    t2 = req.getParameter("query");
    t3 = req.getParameter("safe");
    w = resp.getWriter();
    w.println(t1);
    s = this.shuffle(t2);
    db.executeQuery(s);
    e = Encoder.encode(t3);
    w.println(e);
  }
  method shuffle(this: App, x: String): String {
    return x;
  }
}
)";

/// Heap-mediated flows, a taint carrier, a sanitizer and several sources,
/// so a slicing cutoff can fall between items that record direct sinks,
/// carrier sinks and flows another item also found.
const char *HeapAppSource = R"(
class Holder extends Object {
  field v: String;
  method set(this: Holder, s: String): void { this.v = s; }
}
class App extends Servlet {
  method doGet(this: App, req: Request, resp: Response, db: Database): void [entry] {
    t1 = req.getParameter("name");
    t2 = req.getParameter("query");
    t3 = req.getParameter("safe");
    h = new Holder;
    h.set(t1);
    u = h.v;
    w = resp.getWriter();
    w.println(u);
    w.println(t1);
    db.executeQuery(t2);
    e = Encoder.encode(t3);
    w.println(e);
  }
}
)";

struct Pipeline {
  Program P;
  MethodId Root = InvalidId;

  explicit Pipeline(const std::string &Src) {
    installBuiltinLibrary(P);
    std::vector<std::string> Errors;
    bool Ok = parseTaj(P, Src, &Errors);
    EXPECT_TRUE(Ok) << (Errors.empty() ? "?" : Errors.front());
    std::vector<std::string> VErrors = verifyProgram(P);
    EXPECT_TRUE(VErrors.empty()) << (VErrors.empty() ? "" : VErrors.front());
    Root = synthesizeEntrypointDriver(P);
  }

  AnalysisResult run(AnalysisConfig C) {
    TaintAnalysis TA(P, std::move(C));
    return TA.run({Root});
  }
};

using FlowKey = std::tuple<StmtId, StmtId, RuleMask>;

std::set<FlowKey> flowSet(const AnalysisResult &R) {
  std::set<FlowKey> S;
  for (const Issue &I : R.Issues)
    S.insert({I.Source, I.Sink, I.Rule});
  return S;
}

/// A generated app large enough that the guard's amortized deadline/memory
/// poll (every 128 checkpoints) is guaranteed to run many times.
GeneratedApp largeApp() {
  AppSpec Spec;
  Spec.Name = "robustness-large";
  Spec.Seed = 7;
  Spec.Plants.TpDirect = 20;
  Spec.Plants.TpWrapped = 10;
  Spec.Plants.TpMap = 10;
  Spec.Plants.Sanitized = 10;
  Spec.Plants.FillerMethods = 400;
  Spec.Plants.LibFillerMethods = 100;
  return generateApp(Spec);
}

//===----------------------------------------------------------------------===//
// Fault injection
//===----------------------------------------------------------------------===//

TEST(Robustness, FaultInjectionSweepNeverCrashesAndStaysUnderapproximate) {
  Pipeline PL(AppSource);
  AnalysisResult Base = PL.run(AnalysisConfig::hybridUnbounded());
  ASSERT_FALSE(Base.degraded());
  uint64_t Total = Base.RunStats.get("guard.checkpoints");
  ASSERT_GT(Total, 0u);
  std::set<FlowKey> BaseFlows = flowSet(Base);
  ASSERT_GE(BaseFlows.size(), 2u);

  for (uint64_t N = 1; N <= Total + 2; ++N) {
    AnalysisConfig C = AnalysisConfig::hybridUnbounded();
    C.FailAtCheckpoint = N;
    AnalysisResult R = PL.run(std::move(C));
    SCOPED_TRACE("fail-at=" + std::to_string(N));
    if (N <= Total) {
      EXPECT_TRUE(R.degraded());
      const PhaseReport *PR = R.Status.firstDegraded();
      ASSERT_NE(PR, nullptr);
      EXPECT_EQ(PR->Reason, CutoffReason::FaultInjected);
      EXPECT_EQ(R.RunStats.get("guard.cutoff.fault-injected"), 1u);
    } else {
      // Injection point past the run's natural end: no degradation and
      // bit-identical results.
      EXPECT_FALSE(R.degraded());
      EXPECT_EQ(flowSet(R), BaseFlows);
    }
    // Monotonicity: truncation only removes flows, never invents them.
    for (const FlowKey &K : flowSet(R))
      EXPECT_TRUE(BaseFlows.count(K));
  }
}

TEST(Robustness, MidSlicingFaultKeepsOnlyCompletedItems) {
  // A cutoff at every checkpoint of the slicing phase drops the item in
  // flight, so every reported issue comes from an item that finished, the
  // issue vector stays sorted and deduplicated, and a later cutoff keeps
  // every flow an earlier one kept (the items complete in a fixed order).
  Pipeline PL(HeapAppSource);
  AnalysisResult Base = PL.run(AnalysisConfig::hybridUnbounded());
  ASSERT_FALSE(Base.degraded());
  const std::set<FlowKey> BaseFlows = flowSet(Base);
  const uint64_t Total = Base.RunStats.get("guard.checkpoints");
  uint64_t SliceWork = 0;
  for (const PhaseReport &PR : Base.Status.Phases)
    if (PR.Phase == RunPhase::Slicing)
      SliceWork = PR.WorkDone;
  ASSERT_GT(SliceWork, 1u);
  ASSERT_LT(SliceWork, Total);

  std::set<FlowKey> Earlier;
  for (uint64_t N = Total - SliceWork + 1; N <= Total; ++N) {
    SCOPED_TRACE("fail-at=" + std::to_string(N));
    AnalysisConfig C = AnalysisConfig::hybridUnbounded();
    C.FailAtCheckpoint = N;
    AnalysisResult R = PL.run(std::move(C));
    const PhaseReport *PR = R.Status.firstDegraded();
    ASSERT_NE(PR, nullptr);
    EXPECT_EQ(PR->Phase, RunPhase::Slicing);
    const std::set<FlowKey> Flows = flowSet(R);
    for (const FlowKey &K : Flows)
      EXPECT_TRUE(BaseFlows.count(K));
    EXPECT_EQ(Flows.size(), R.Issues.size()) << "duplicate issues survived";
    EXPECT_TRUE(std::is_sorted(R.Issues.begin(), R.Issues.end()));
    EXPECT_TRUE(std::includes(Flows.begin(), Flows.end(), Earlier.begin(),
                              Earlier.end()));
    Earlier = Flows;
  }
}

TEST(Robustness, CutoffInsideTheLastItemDropsItsFlows) {
  // One source and one sink that is both an XSS and an InfoLeak sink. The
  // items run rule-major, so the InfoLeak item is the last and the only
  // one that finds the InfoLeak flow. The run's last checkpoint falls
  // inside it: a cutoff there keeps the XSS flow and drops that item's.
  Pipeline PL(R"(
class App extends Servlet {
  method doGet(this: App, req: Request, resp: Response): void [entry] {
    t = req.getParameter("name");
    w = resp.getWriter();
    w.println(t);
  }
}
)");
  AnalysisResult Base = PL.run(AnalysisConfig::hybridUnbounded());
  ASSERT_FALSE(Base.degraded());
  ASSERT_EQ(Base.Issues.size(), 2u);
  AnalysisConfig C = AnalysisConfig::hybridUnbounded();
  C.FailAtCheckpoint = Base.RunStats.get("guard.checkpoints");
  AnalysisResult R = PL.run(std::move(C));
  const PhaseReport *PR = R.Status.firstDegraded();
  ASSERT_NE(PR, nullptr);
  EXPECT_EQ(PR->Phase, RunPhase::Slicing);
  ASSERT_EQ(R.Issues.size(), 1u);
  EXPECT_EQ(R.Issues[0].Rule, rules::XSS);
}

TEST(Robustness, FailAtTripsAtExactlyTheNthCheckpoint) {
  // Limits on both sides of multiples of the poll interval (128): the
  // checkpoint before the limit passes, the one at it stops the run, and
  // the count stays there once stopped.
  for (const uint64_t K : {1, 2, 127, 128, 129, 256, 257, 1000}) {
    for (const uint64_t Replayed : {0, 300}) {
      SCOPED_TRACE("fail-at=" + std::to_string(K) + " after " +
                   std::to_string(Replayed) + " replayed");
      RunGuard::Limits L;
      L.FailAtCheckpoint = K + Replayed;
      RunGuard G(L);
      G.replayWork(Replayed);
      for (uint64_t C = 1; C < K; ++C)
        ASSERT_TRUE(G.checkpoint()) << "checkpoint " << C;
      EXPECT_FALSE(G.checkpoint());
      EXPECT_EQ(G.reason(), CutoffReason::FaultInjected);
      EXPECT_EQ(G.checkpointCount(), K + Replayed);
      EXPECT_FALSE(G.checkpoint());
      EXPECT_EQ(G.checkpointCount(), K + Replayed);
    }
    if (K == 1)
      continue;
    // Work replayed mid-run that jumps past the limit trips it at the
    // next checkpoint.
    SCOPED_TRACE("fail-at=" + std::to_string(K) + " jumped by a replay");
    RunGuard::Limits L;
    L.FailAtCheckpoint = K;
    RunGuard G(L);
    ASSERT_TRUE(G.checkpoint());
    G.replayWork(300);
    const uint64_t TripsAt = std::max<uint64_t>(K, 302);
    for (uint64_t C = 302; C < TripsAt; ++C)
      ASSERT_TRUE(G.checkpoint()) << "checkpoint " << C;
    EXPECT_FALSE(G.checkpoint());
    EXPECT_EQ(G.checkpointCount(), TripsAt);
  }
}

TEST(Robustness, CancelFromAnotherThreadStopsTheNextCheckpoint) {
  RunGuard G;
  for (int I = 0; I < 5; ++I)
    ASSERT_TRUE(G.checkpoint());
  std::thread Canceller([&G] { G.cancel(); });
  Canceller.join();
  EXPECT_FALSE(G.checkpoint());
  EXPECT_EQ(G.reason(), CutoffReason::Cancelled);
  EXPECT_EQ(G.checkpointCount(), 6u);
}

TEST(Robustness, FaultAtFirstCheckpointSkipsDownstreamPhases) {
  Pipeline PL(AppSource);
  AnalysisConfig C = AnalysisConfig::hybridUnbounded();
  C.FailAtCheckpoint = 1;
  AnalysisResult R = PL.run(std::move(C));
  EXPECT_TRUE(R.degraded());
  EXPECT_EQ(R.Status.outcomeOf(RunPhase::PointerAnalysis),
            PhaseOutcome::Truncated);
  EXPECT_EQ(R.Status.outcomeOf(RunPhase::SdgBuild), PhaseOutcome::Skipped);
  EXPECT_EQ(R.Status.outcomeOf(RunPhase::Slicing), PhaseOutcome::Skipped);
  EXPECT_TRUE(R.Issues.empty());
  // The banner names the truncated phase and the reason.
  std::string S = R.Status.toString();
  EXPECT_NE(S.find("pointer-analysis"), std::string::npos);
  EXPECT_NE(S.find("fault-injected"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Deadline and memory limits
//===----------------------------------------------------------------------===//

TEST(Robustness, TinyDeadlineTruncatesLargeRunWithoutHanging) {
  GeneratedApp App = largeApp();
  AnalysisConfig C = AnalysisConfig::hybridUnbounded();
  C.DeadlineMs = 0.001; // expired by the guard's first poll
  TaintAnalysis TA(*App.P, std::move(C));
  AnalysisResult R = TA.run({App.Root});
  ASSERT_TRUE(R.degraded());
  const PhaseReport *PR = R.Status.firstDegraded();
  ASSERT_NE(PR, nullptr);
  EXPECT_EQ(PR->Reason, CutoffReason::Deadline);
  EXPECT_EQ(R.RunStats.get("guard.cutoff.deadline"), 1u);
}

TEST(Robustness, DeadlineCutoffStaysUnderapproximate) {
  // A run cut off by its deadline reports only flows the clean run finds.
  GeneratedApp App = largeApp();
  TaintAnalysis TB(*App.P, AnalysisConfig::hybridUnbounded());
  AnalysisResult Base = TB.run({App.Root});
  ASSERT_FALSE(Base.degraded());
  const std::set<FlowKey> BaseFlows = flowSet(Base);

  AnalysisConfig C = AnalysisConfig::hybridUnbounded();
  C.DeadlineMs = 0.001; // expired by the guard's first poll
  TaintAnalysis TA(*App.P, std::move(C));
  AnalysisResult R = TA.run({App.Root});
  ASSERT_TRUE(R.degraded());
  const PhaseReport *PR = R.Status.firstDegraded();
  ASSERT_NE(PR, nullptr);
  EXPECT_EQ(PR->Reason, CutoffReason::Deadline);
  for (const FlowKey &K : flowSet(R))
    EXPECT_TRUE(BaseFlows.count(K));
}

TEST(Robustness, GenerousDeadlineDoesNotDegrade) {
  Pipeline PL(AppSource);
  AnalysisConfig C = AnalysisConfig::hybridUnbounded();
  C.DeadlineMs = 1e9;
  AnalysisResult R = PL.run(std::move(C));
  EXPECT_FALSE(R.degraded());
  EXPECT_GE(flowSet(R).size(), 2u);
}

TEST(Robustness, MemoryCeilingTruncatesLargeRun) {
  if (RunGuard::currentRssBytes() == 0)
    GTEST_SKIP() << "RSS measurement unavailable on this platform";
  GeneratedApp App = largeApp();
  AnalysisConfig C = AnalysisConfig::hybridUnbounded();
  C.MaxMemoryMb = 1; // any real process exceeds 1 MiB resident
  TaintAnalysis TA(*App.P, std::move(C));
  AnalysisResult R = TA.run({App.Root});
  ASSERT_TRUE(R.degraded());
  const PhaseReport *PR = R.Status.firstDegraded();
  ASSERT_NE(PR, nullptr);
  EXPECT_EQ(PR->Reason, CutoffReason::Memory);
}

TEST(Robustness, ForkedChildSamplesItsOwnRss) {
  // Sample in the parent first, so the child inherits the parent's cached
  // sampler state and must notice that it is another process. The child
  // compares against its own first sample, not the parent's: fork copies
  // no page-table entries of file-backed mappings, so a child starts out
  // below its parent by the resident size of the binary and its libraries
  // (under the sanitizers, more than the margin below).
  if (RunGuard::currentRssBytes() == 0)
    GTEST_SKIP() << "RSS measurement unavailable on this platform";
  int Fds[2];
  ASSERT_EQ(::pipe(Fds), 0);
  const pid_t Pid = ::fork();
  ASSERT_GE(Pid, 0);
  if (Pid == 0) {
    uint64_t Rss[2] = {RunGuard::currentRssBytes(), 0};
    constexpr size_t Bytes = size_t(64) << 20;
    char *Mem = static_cast<char *>(std::malloc(Bytes));
    for (size_t I = 0; Mem && I < Bytes; I += 4096)
      static_cast<volatile char *>(Mem)[I] = 1; // make every page resident
    Rss[1] = Mem ? RunGuard::currentRssBytes() : 0;
    const ssize_t W = ::write(Fds[1], Rss, sizeof(Rss));
    std::free(Mem);
    ::_exit(W == sizeof(Rss) ? 0 : 1);
  }
  ::close(Fds[1]);
  uint64_t Rss[2] = {0, 0};
  const ssize_t R = ::read(Fds[0], Rss, sizeof(Rss));
  ::close(Fds[0]);
  int St = 0;
  ASSERT_EQ(::waitpid(Pid, &St, 0), Pid);
  ASSERT_EQ(R, static_cast<ssize_t>(sizeof(Rss)));
  EXPECT_GE(Rss[1], Rss[0] + (uint64_t(48) << 20))
      << "child before " << Rss[0] << " after touching 64 MiB " << Rss[1];
}

//===----------------------------------------------------------------------===//
// Cancellation and node budget
//===----------------------------------------------------------------------===//

TEST(Robustness, ExternalCancellationStopsTheRun) {
  Pipeline PL(AppSource);
  RunGuard G;
  G.cancel(); // as if another thread requested cancellation up front
  AnalysisConfig C = AnalysisConfig::hybridUnbounded();
  C.ExternalGuard = &G;
  AnalysisResult R = PL.run(std::move(C));
  ASSERT_TRUE(R.degraded());
  const PhaseReport *PR = R.Status.firstDegraded();
  ASSERT_NE(PR, nullptr);
  EXPECT_EQ(PR->Reason, CutoffReason::Cancelled);
  EXPECT_TRUE(R.Issues.empty());
}

TEST(Robustness, NodeBudgetIsPhaseLocalSlicingStillRuns) {
  Pipeline PL(AppSource);
  AnalysisConfig C = AnalysisConfig::hybridUnbounded();
  C.MaxCallGraphNodes = 2;
  AnalysisResult R = PL.run(std::move(C));
  EXPECT_TRUE(R.BudgetExhausted);
  EXPECT_TRUE(R.degraded());
  EXPECT_EQ(R.Status.outcomeOf(RunPhase::PointerAnalysis),
            PhaseOutcome::Truncated);
  const PhaseReport *PR = R.Status.firstDegraded();
  ASSERT_NE(PR, nullptr);
  EXPECT_EQ(PR->Reason, CutoffReason::NodeBudget);
  // Unlike a guard stop, the node budget does not exhaust the run: slicing
  // proceeds over the partial call graph (§6.1).
  EXPECT_EQ(R.Status.outcomeOf(RunPhase::SdgBuild), PhaseOutcome::Completed);
  EXPECT_EQ(R.Status.outcomeOf(RunPhase::Slicing), PhaseOutcome::Completed);
}

//===----------------------------------------------------------------------===//
// Guard statistics and environment knobs
//===----------------------------------------------------------------------===//

TEST(Robustness, GuardStatsExported) {
  Pipeline PL(AppSource);
  AnalysisResult R = PL.run(AnalysisConfig::hybridUnbounded());
  EXPECT_GT(R.RunStats.get("guard.checkpoints"), 0u);
  EXPECT_EQ(R.RunStats.get("guard.cutoff.deadline"), 0u);

  AnalysisConfig C = AnalysisConfig::hybridUnbounded();
  C.FailAtCheckpoint = 5;
  AnalysisResult R2 = PL.run(std::move(C));
  EXPECT_EQ(R2.RunStats.get("guard.cutoff.fault-injected"), 1u);
  EXPECT_EQ(R2.RunStats.get("guard.cutoff_phase.pointer-analysis"), 1u);
}

TEST(Robustness, LimitsFromEnvOverlay) {
  setenv("TAJ_DEADLINE_MS", "250", 1);
  setenv("TAJ_MAX_MEMORY_MB", "64", 1);
  setenv("TAJ_FAIL_AT", "9", 1);
  RunGuard::Limits L = RunGuard::limitsFromEnv();
  EXPECT_DOUBLE_EQ(L.DeadlineMs, 250.0);
  EXPECT_EQ(L.MaxMemoryBytes, 64ull * 1024 * 1024);
  EXPECT_EQ(L.FailAtCheckpoint, 9u);
  // Explicit configuration beats the environment.
  RunGuard::Limits Explicit;
  Explicit.FailAtCheckpoint = 1000;
  EXPECT_EQ(RunGuard::limitsFromEnv(Explicit).FailAtCheckpoint, 1000u);
  unsetenv("TAJ_DEADLINE_MS");
  unsetenv("TAJ_MAX_MEMORY_MB");
  unsetenv("TAJ_FAIL_AT");
  // Base limits survive when the environment is silent.
  RunGuard::Limits Base;
  Base.DeadlineMs = 7;
  RunGuard::Limits L2 = RunGuard::limitsFromEnv(Base);
  EXPECT_DOUBLE_EQ(L2.DeadlineMs, 7.0);
  EXPECT_EQ(L2.FailAtCheckpoint, 0u);
}

TEST(Robustness, MalformedEnvLimitsCountAsUnset) {
  // Each variable is read as strictly as its flag: --max-memory-mb=4abc and
  // --deadline-ms=0.001s are usage errors, and --fail-at=-1 is out of
  // range. The environment cannot report an error, so such values are
  // ignored rather than read as a prefix (4 MiB, 0.001 ms) or a wrap.
  setenv("TAJ_MAX_MEMORY_MB", "4abc", 1);
  setenv("TAJ_DEADLINE_MS", "0.001s", 1);
  setenv("TAJ_FAIL_AT", "-1", 1);
  setenv("TAJ_CRASH_AT", "2.5", 1);
  setenv("TAJ_HANG_AT", "", 1);
  RunGuard::Limits L = RunGuard::limitsFromEnv();
  unsetenv("TAJ_MAX_MEMORY_MB");
  unsetenv("TAJ_DEADLINE_MS");
  unsetenv("TAJ_FAIL_AT");
  unsetenv("TAJ_CRASH_AT");
  unsetenv("TAJ_HANG_AT");
  EXPECT_EQ(L.MaxMemoryBytes, 0u);
  EXPECT_DOUBLE_EQ(L.DeadlineMs, 0.0);
  EXPECT_EQ(L.FailAtCheckpoint, 0u);
  EXPECT_EQ(L.CrashAtCheckpoint, 0u);
  EXPECT_EQ(L.HangAtCheckpoint, 0u);

  // Well-formed values still apply, fractional deadlines included.
  setenv("TAJ_DEADLINE_MS", "0.5", 1);
  setenv("TAJ_FAIL_AT", "12", 1);
  RunGuard::Limits L2 = RunGuard::limitsFromEnv();
  unsetenv("TAJ_DEADLINE_MS");
  unsetenv("TAJ_FAIL_AT");
  EXPECT_DOUBLE_EQ(L2.DeadlineMs, 0.5);
  EXPECT_EQ(L2.FailAtCheckpoint, 12u);

  // A MiB count whose byte count would wrap (2^44 + 1 MiB is 1 MiB past
  // 2^64 bytes) is past the bound, as --max-memory-mb refuses it; the
  // largest count within the bound still applies.
  setenv("TAJ_MAX_MEMORY_MB", "17592186044417", 1);
  EXPECT_EQ(RunGuard::limitsFromEnv().MaxMemoryBytes, 0u);
  setenv("TAJ_MAX_MEMORY_MB", "8796093022207", 1);
  EXPECT_EQ(RunGuard::limitsFromEnv().MaxMemoryBytes, 8796093022207ull << 20);
  unsetenv("TAJ_MAX_MEMORY_MB");
}

// "inf", "infinity" and "nan" are strtod syntax, but no setting means
// them: a flag refuses them as malformed, and a variable counts as unset.
TEST(Number, NonFiniteTextIsRefused) {
  for (const char *Bad :
       {"inf", "INF", "infinity", "nan", "NAN(1)", "1e999"}) {
    double V = 7;
    EXPECT_EQ(parseNumber(Bad, V), NumberParse::Malformed) << Bad;
    EXPECT_DOUBLE_EQ(V, 7) << Bad;
    uint64_t U = 7;
    EXPECT_EQ(parseInteger(Bad, MaxExactU64, U), NumberParse::Malformed)
        << Bad;
    EXPECT_EQ(U, 7u) << Bad;
  }
  double V = 0;
  EXPECT_EQ(parseNumber("1e300", V), NumberParse::Ok);
  EXPECT_DOUBLE_EQ(V, 1e300);

  setenv("TAJ_DEADLINE_MS", "nan", 1);
  setenv("TAJ_FAIL_AT", "inf", 1);
  RunGuard::Limits L = RunGuard::limitsFromEnv();
  unsetenv("TAJ_DEADLINE_MS");
  unsetenv("TAJ_FAIL_AT");
  EXPECT_DOUBLE_EQ(L.DeadlineMs, 0.0);
  EXPECT_EQ(L.FailAtCheckpoint, 0u);
}

TEST(Robustness, RunStatusToStringNamesEveryPhase) {
  Pipeline PL(AppSource);
  AnalysisResult R = PL.run(AnalysisConfig::hybridUnbounded());
  ASSERT_FALSE(R.degraded());
  ASSERT_EQ(R.Status.Phases.size(), 3u);
  std::string S = R.Status.toString();
  EXPECT_NE(S.find("pointer-analysis"), std::string::npos);
  EXPECT_NE(S.find("sdg-build"), std::string::npos);
  EXPECT_NE(S.find("slicing"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Malformed-input parser corpus
//===----------------------------------------------------------------------===//

/// Parsing bad input must fail with diagnostics, never crash or assert.
void expectParseFails(const std::string &Src) {
  Program P;
  installBuiltinLibrary(P);
  std::vector<std::string> Errors;
  bool Ok = parseTaj(P, Src, &Errors);
  EXPECT_FALSE(Ok) << "accepted: " << Src.substr(0, 60);
  EXPECT_FALSE(Errors.empty());
}

TEST(Robustness, ParserRejectsMalformedInputsWithoutCrashing) {
  expectParseFails("class");
  expectParseFails("class {");
  expectParseFails("class A extends {}");
  expectParseFails("class A { method }");
  expectParseFails("class A { field x }");
  expectParseFails("class A { method m(: A): void { } }");
  expectParseFails("class A { method m(this: A): { x = } }");
  expectParseFails("class A [123] { }");
  expectParseFails("class A { method m(, ,): void { } }");
  expectParseFails("%%$$ @@!! not a program");
  expectParseFails(std::string(2000, '{'));
  expectParseFails("class A { method m(this: A): void { " +
                   std::string(500, '(') + " } }");
}

TEST(Robustness, ParserSurvivesTruncatedSources) {
  std::string Full = AppSource;
  for (size_t Len = 0; Len < Full.size(); Len += 7) {
    Program P;
    installBuiltinLibrary(P);
    std::vector<std::string> Errors;
    // Any outcome is fine; the invariant is "no crash, no assert".
    parseTaj(P, Full.substr(0, Len), &Errors);
  }
}

TEST(Robustness, ClassWithUnregisteredNameRecovers) {
  // "class" followed by a non-identifier token: the parser must emit a
  // diagnostic and resynchronize instead of tripping an assertion.
  Program P;
  installBuiltinLibrary(P);
  std::vector<std::string> Errors;
  bool Ok = parseTaj(P, "class 123 { }\nclass Good { }", &Errors);
  EXPECT_FALSE(Ok);
  EXPECT_FALSE(Errors.empty());
}

//===----------------------------------------------------------------------===//
// taj-cli runs
//===----------------------------------------------------------------------===//

/// A scratch directory, removed with its contents.
struct ScratchDir {
  std::string Path;
  ScratchDir() {
    char Buf[] = "/tmp/taj-robust-XXXXXX";
    const char *D = ::mkdtemp(Buf);
    EXPECT_NE(D, nullptr);
    if (D)
      Path = D;
  }
  ~ScratchDir() {
    std::error_code Ec;
    if (!Path.empty())
      std::filesystem::remove_all(Path, Ec);
  }
};

std::string readFile(const std::string &Path) {
  std::ifstream In(Path);
  return std::string(std::istreambuf_iterator<char>(In), {});
}

/// One taj-cli run: its stdout, stderr and exit code (124 if it hung).
struct CliRun {
  std::string Out, Err;
  int Exit = -1;
};

/// Runs taj-cli with \p Args under a 20 s timeout; stderr passes through
/// a file in \p Dir.
CliRun runCli(const std::string &Args, const ScratchDir &Dir) {
  const std::string ErrPath = Dir.Path + "/stderr";
  const std::string Cmd = std::string("timeout 20 ") + TAJ_CLI_PATH + " " +
                          Args + " 2>\"" + ErrPath + "\"";
  CliRun R;
  FILE *P = ::popen(Cmd.c_str(), "r");
  EXPECT_NE(P, nullptr);
  char Chunk[4096];
  size_t N;
  while (P && (N = std::fread(Chunk, 1, sizeof(Chunk), P)) > 0)
    R.Out.append(Chunk, N);
  const int St = P ? ::pclose(P) : -1;
  R.Exit = WIFEXITED(St) ? WEXITSTATUS(St) : -1;
  R.Err = readFile(ErrPath);
  return R;
}

//===----------------------------------------------------------------------===//
// Slicing cutoffs through taj-cli
//===----------------------------------------------------------------------===//

const std::string ExampleApp = std::string("\"") + TAJ_EXAMPLE_TAJ + "\"";

TEST(Robustness, SlicingCutoffsPrintTheSameOutputEveryRun) {
  // Every --fail-at that cuts slicing on the example app, with default
  // flags, three times: a cut-off report is a lower bound of the clean
  // one only if the same command prints it every time.
  ScratchDir D;
  const std::string StatsPath = D.Path + "/stats.json";
  ASSERT_EQ(runCli("--stats-json=\"" + StatsPath + "\" " + ExampleApp, D).Exit,
            0);
  const std::string Stats = readFile(StatsPath);
  const std::string Key = "\"guard.checkpoints\":";
  const size_t KeyAt = Stats.find(Key);
  ASSERT_NE(KeyAt, std::string::npos) << Stats;
  const uint64_t Total = std::stoull(Stats.substr(KeyAt + Key.size()));
  auto FailAt = [&D](uint64_t K) {
    return runCli("--fail-at=" + std::to_string(K) + " " + ExampleApp, D);
  };

  // Slicing is the last phase that checkpoints, so a cutoff at the run's
  // last checkpoint reports all of its work; the checkpoints before it
  // belong to the pointer analysis and the SDG build.
  const CliRun Last = FailAt(Total);
  const std::string Marker = "slicing: truncated (fault-injected) after ";
  const size_t MarkerAt = Last.Err.find(Marker);
  ASSERT_NE(MarkerAt, std::string::npos) << Last.Err;
  const uint64_t SliceWork =
      std::stoull(Last.Err.substr(MarkerAt + Marker.size()));
  ASSERT_GT(SliceWork, 1u);
  ASSERT_LT(SliceWork, Total);
  const uint64_t FirstK = Total - SliceWork + 1;
  const CliRun InSdg = FailAt(FirstK - 1);
  EXPECT_NE(InSdg.Err.find("sdg-build: truncated (fault-injected)"),
            std::string::npos)
      << InSdg.Err;

  for (uint64_t K = FirstK; K <= Total; ++K) {
    SCOPED_TRACE("fail-at=" + std::to_string(K));
    const CliRun First = FailAt(K);
    EXPECT_EQ(First.Exit, 2);
    EXPECT_NE(First.Err.find("slicing: truncated (fault-injected)"),
              std::string::npos)
        << First.Err;
    for (int Again = 0; Again < 2; ++Again) {
      const CliRun R = FailAt(K);
      EXPECT_EQ(R.Out, First.Out);
      EXPECT_EQ(R.Err, First.Err);
      EXPECT_EQ(R.Exit, First.Exit);
    }
  }
}

/// The names of a --trace file's events in file order; timestamps,
/// durations, pids and tids are left out.
std::vector<std::string> traceEventNames(const std::string &Json) {
  std::vector<std::string> Names;
  const std::string Open = "{\"name\":\"", Close = "\",\"cat\":\"";
  for (size_t At = Json.find(Open); At != std::string::npos;
       At = Json.find(Open, At + 1)) {
    const size_t Begin = At + Open.size();
    const size_t End = Json.find(Close, Begin);
    if (End == std::string::npos)
      break;
    Names.push_back(Json.substr(Begin, End - Begin));
  }
  return Names;
}

TEST(Robustness, TraceListsTheSameEventsEveryRun) {
  ScratchDir D;
  std::vector<std::string> Names[2];
  for (int I = 0; I < 2; ++I) {
    const std::string Path = D.Path + "/trace" + std::to_string(I) + ".json";
    ASSERT_EQ(runCli("--trace=\"" + Path + "\" " + ExampleApp, D).Exit, 0);
    Names[I] = traceEventNames(readFile(Path));
  }
  EXPECT_NE(std::find(Names[0].begin(), Names[0].end(), "slicing"),
            Names[0].end());
  EXPECT_EQ(Names[0], Names[1]);
}

//===----------------------------------------------------------------------===//
// Cyclic class hierarchies
//===----------------------------------------------------------------------===//

/// Runs taj-cli on \p Source, written to a scratch file, under a 20 s
/// timeout. Returns stdout and stderr; \p ExitCode is 124 if it hung.
std::string runCliOn(const std::string &Source, int &ExitCode) {
  ScratchDir D;
  const std::string Path = D.Path + "/app.taj";
  std::ofstream(Path) << Source;
  const CliRun R = runCli("\"" + Path + "\"", D);
  ExitCode = R.Exit;
  return R.Out + R.Err;
}

TEST(Robustness, CyclicExtendsIsAVerifierErrorNotAHang) {
  // The class hierarchy walks every superclass chain to the root, so a
  // cyclic chain has to stop at the verifier: exit 1 with a diagnostic in
  // every build type, never a hang or an assertion.
  for (const char *Src : {"class A extends B {}\nclass B extends A {}\n",
                          "class A extends A {}\n"}) {
    SCOPED_TRACE(Src);
    Program P;
    installBuiltinLibrary(P);
    std::vector<std::string> Errors;
    ASSERT_TRUE(parseTaj(P, Src, &Errors));
    const std::vector<std::string> Expected = {
        "class A has a cyclic superclass chain"};
    EXPECT_EQ(verifyProgram(P), Expected);
    int Exit = -1;
    const std::string Out = runCliOn(Src, Exit);
    EXPECT_EQ(Exit, 1) << Out;
    EXPECT_NE(Out.find("verifier: class A has a cyclic superclass chain"),
              std::string::npos)
        << Out;
  }
}

} // namespace
