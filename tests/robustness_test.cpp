//===- tests/robustness_test.cpp - Governed-run & degradation tests ------===//
//
// Exercises the run-governance layer: deterministic fault injection at every
// checkpoint, deadline expiry, memory ceilings, cooperative cancellation,
// node-budget truncation, guard statistics, a malformed-input parser
// corpus, and cyclic class hierarchies. The invariant throughout: a
// governed run never crashes or hangs, and every issue it reports is one
// the unbounded run also reports (truncation only shrinks the result, per
// TAJ §6).
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
#include <set>
#include <thread>
#include <tuple>

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
// Cyclic class hierarchies
//===----------------------------------------------------------------------===//

/// Runs taj-cli on \p Source, written to a scratch file, under a 20 s
/// timeout. Returns stdout and stderr; \p ExitCode is 124 if it hung.
std::string runCliOn(const std::string &Source, int &ExitCode) {
  char Buf[] = "/tmp/taj-robust-XXXXXX";
  const char *Dir = ::mkdtemp(Buf);
  EXPECT_NE(Dir, nullptr);
  const std::string Path = std::string(Dir ? Dir : "/tmp") + "/app.taj";
  std::ofstream(Path) << Source;
  const std::string Cmd =
      std::string("timeout 20 ") + TAJ_CLI_PATH + " \"" + Path + "\" 2>&1";
  FILE *P = ::popen(Cmd.c_str(), "r");
  EXPECT_NE(P, nullptr);
  std::string Out;
  char Chunk[4096];
  size_t N;
  while (P && (N = std::fread(Chunk, 1, sizeof(Chunk), P)) > 0)
    Out.append(Chunk, N);
  const int St = P ? ::pclose(P) : -1;
  ExitCode = WIFEXITED(St) ? WEXITSTATUS(St) : -1;
  std::error_code Ec;
  std::filesystem::remove_all(Dir ? Dir : "", Ec);
  return Out;
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
