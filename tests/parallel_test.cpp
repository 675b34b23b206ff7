//===- tests/parallel_test.cpp - Parallel slicing determinism ------------===//
//
// The parallel per-source slicing engine promises byte-identical output at
// every thread count: the Issues vector (every field, including paths) and
// the rendered report must not depend on how the per-source loops were
// scheduled. This suite pins that contract for all three slicers, for
// clean runs and for governed runs (fault injection, deadlines), where the
// worker-completion merge keeps partial results strictly underapproximate.
// It also covers the Parallel primitives and the CI slicer's §6.2.1 heap
// budget.
//
//===----------------------------------------------------------------------===//

#include "benchgen/Generator.h"
#include "core/TaintAnalysis.h"
#include "frontend/Parser.h"
#include "ir/Verifier.h"
#include "model/BuiltinLibrary.h"
#include "model/Entrypoints.h"
#include "report/ReportGenerator.h"
#include "support/Parallel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <set>
#include <thread>
#include <tuple>
#include <vector>

using namespace taj;

namespace {

const unsigned ThreadCounts[] = {1, 2, 8};

/// A workload with heap-mediated flows, taint carriers, a sanitizer and
/// several sources, so every merge path (direct sinks, carrier sinks,
/// cross-source duplicates) is exercised.
const char *AppSource = R"(
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

  std::string render(const AnalysisResult &R) {
    return renderReports(P, generateReports(P, R.Issues), &R.Status);
  }
};

using FlowKey = std::tuple<StmtId, StmtId, RuleMask>;

std::set<FlowKey> flowSet(const AnalysisResult &R) {
  std::set<FlowKey> S;
  for (const Issue &I : R.Issues)
    S.insert({I.Source, I.Sink, I.Rule});
  return S;
}

/// Full structural equality, not just the (source, sink, rule) key:
/// lengths and reconstructed paths must also be schedule-independent.
void expectIdenticalIssues(const std::vector<Issue> &A,
                           const std::vector<Issue> &B) {
  ASSERT_EQ(A.size(), B.size());
  for (size_t I = 0; I < A.size(); ++I) {
    SCOPED_TRACE("issue " + std::to_string(I));
    EXPECT_EQ(A[I].Source, B[I].Source);
    EXPECT_EQ(A[I].Sink, B[I].Sink);
    EXPECT_EQ(A[I].Rule, B[I].Rule);
    EXPECT_EQ(A[I].Length, B[I].Length);
    EXPECT_EQ(A[I].Path, B[I].Path);
  }
}

AnalysisConfig configFor(SlicerKind K) {
  switch (K) {
  case SlicerKind::Hybrid:
    return AnalysisConfig::hybridUnbounded();
  case SlicerKind::CS:
    return AnalysisConfig::cs();
  case SlicerKind::CI:
    return AnalysisConfig::ci();
  }
  return AnalysisConfig::hybridUnbounded();
}

const char *kindName(SlicerKind K) {
  switch (K) {
  case SlicerKind::Hybrid:
    return "hybrid";
  case SlicerKind::CS:
    return "cs";
  case SlicerKind::CI:
    return "ci";
  }
  return "?";
}

GeneratedApp generatedApp() {
  AppSpec Spec;
  Spec.Name = "parallel-medium";
  Spec.Seed = 11;
  Spec.Plants.TpDirect = 12;
  Spec.Plants.TpWrapped = 8;
  Spec.Plants.TpMap = 6;
  Spec.Plants.Sanitized = 6;
  Spec.Plants.FillerMethods = 60;
  return generateApp(Spec);
}

//===----------------------------------------------------------------------===//
// Parallel primitives
//===----------------------------------------------------------------------===//

TEST(Parallel, ResolveThreadCountHonorsEnvAndClamps) {
  EXPECT_EQ(resolveThreadCount(1), 1u);
  EXPECT_EQ(resolveThreadCount(6), 6u);
  EXPECT_EQ(resolveThreadCount(100000), 256u); // hard upper clamp

  setenv("TAJ_THREADS", "3", 1);
  EXPECT_EQ(resolveThreadCount(0), 3u);
  setenv("TAJ_THREADS", "0", 1); // invalid: fall through to hardware
  EXPECT_GE(resolveThreadCount(0), 1u);
  setenv("TAJ_THREADS", "junk", 1);
  EXPECT_GE(resolveThreadCount(0), 1u);
  // Malformed values fall back to hardware concurrency too, rather than
  // wrapping ("-2") or reading a prefix ("4abc").
  const unsigned Hw =
      std::clamp(std::max(1u, std::thread::hardware_concurrency()), 1u, 256u);
  setenv("TAJ_THREADS", "-2", 1);
  EXPECT_EQ(resolveThreadCount(0), Hw);
  setenv("TAJ_THREADS", "4abc", 1);
  EXPECT_EQ(resolveThreadCount(0), Hw);
  unsetenv("TAJ_THREADS");
  EXPECT_GE(resolveThreadCount(0), 1u);
}

TEST(Parallel, InterleavedForVisitsEveryItemExactlyOnce) {
  for (unsigned W : {1u, 2u, 3u, 8u}) {
    const size_t N = 101;
    std::vector<std::atomic<uint32_t>> Hits(N);
    std::vector<int> OwnerOk(N, 0);
    parallelForInterleaved(W, N, [&](unsigned Worker, size_t I) {
      Hits[I].fetch_add(1);
      OwnerOk[I] = (I % std::min<size_t>(W, N)) == Worker;
    });
    for (size_t I = 0; I < N; ++I) {
      EXPECT_EQ(Hits[I].load(), 1u) << "item " << I << " W=" << W;
      EXPECT_TRUE(OwnerOk[I]) << "item " << I << " W=" << W;
    }
  }
}

TEST(Parallel, InterleavedForPropagatesWorkerExceptions) {
  EXPECT_THROW(parallelForInterleaved(4, 64,
                                      [&](unsigned, size_t I) {
                                        if (I == 37)
                                          throw std::runtime_error("boom");
                                      }),
               std::runtime_error);
}

TEST(Parallel, SharedGuardCountsEveryCheckpointOfAFanOut) {
  RunGuard G;
  {
    const RunGuard::SharedScope Share(&G);
    parallelForInterleaved(4, 40000, [&](unsigned, size_t) {
      EXPECT_TRUE(G.checkpoint());
    });
  }
  EXPECT_EQ(G.checkpointCount(), 40000u);
  // The coordinator's own checkpoints carry on from the shared total.
  EXPECT_TRUE(G.checkpoint());
  EXPECT_EQ(G.checkpointCount(), 40001u);
}

//===----------------------------------------------------------------------===//
// Clean-run determinism: byte-identical at every thread count
//===----------------------------------------------------------------------===//

TEST(ParallelSlicing, AllSlicersByteIdenticalAcrossThreadCounts) {
  Pipeline PL(AppSource);
  for (SlicerKind K : {SlicerKind::Hybrid, SlicerKind::CS, SlicerKind::CI}) {
    SCOPED_TRACE(kindName(K));
    AnalysisConfig C1 = configFor(K);
    C1.Threads = 1;
    AnalysisResult Base = PL.run(std::move(C1));
    ASSERT_FALSE(Base.degraded());
    ASSERT_GE(Base.Issues.size(), 3u);
    std::string BaseReport = PL.render(Base);

    for (unsigned T : ThreadCounts) {
      SCOPED_TRACE("threads=" + std::to_string(T));
      AnalysisConfig C = configFor(K);
      C.Threads = T;
      AnalysisResult R = PL.run(std::move(C));
      ASSERT_FALSE(R.degraded());
      expectIdenticalIssues(Base.Issues, R.Issues);
      EXPECT_EQ(BaseReport, PL.render(R));
    }
  }
}

TEST(ParallelSlicing, GeneratedAppByteIdenticalAcrossThreadCounts) {
  GeneratedApp App = generatedApp();
  for (SlicerKind K : {SlicerKind::Hybrid, SlicerKind::CI}) {
    SCOPED_TRACE(kindName(K));
    std::vector<Issue> BaseIssues;
    std::string BaseReport;
    for (unsigned T : ThreadCounts) {
      SCOPED_TRACE("threads=" + std::to_string(T));
      AnalysisConfig C = configFor(K);
      C.Threads = T;
      TaintAnalysis TA(*App.P, std::move(C));
      AnalysisResult R = TA.run({App.Root});
      ASSERT_FALSE(R.degraded());
      std::string Report =
          renderReports(*App.P, generateReports(*App.P, R.Issues), &R.Status);
      if (T == 1) {
        BaseIssues = R.Issues;
        BaseReport = Report;
        ASSERT_GE(BaseIssues.size(), 10u);
      } else {
        expectIdenticalIssues(BaseIssues, R.Issues);
        EXPECT_EQ(BaseReport, Report);
      }
    }
  }
}

TEST(ParallelSlicing, AutoThreadResolutionMatchesSequentialOutput) {
  Pipeline PL(AppSource);
  AnalysisConfig C1 = AnalysisConfig::hybridUnbounded();
  C1.Threads = 1;
  AnalysisResult Base = PL.run(std::move(C1));

  setenv("TAJ_THREADS", "5", 1);
  AnalysisConfig C = AnalysisConfig::hybridUnbounded();
  C.Threads = 0; // auto: resolves through TAJ_THREADS
  AnalysisResult R = PL.run(std::move(C));
  unsetenv("TAJ_THREADS");
  expectIdenticalIssues(Base.Issues, R.Issues);
}

TEST(ParallelSlicing, BoundedHybridConfigIsThreadCountInvariant) {
  // The §6.2 bounds (heap budget, flow length, nested depth) are applied
  // per source, so they must not interact with scheduling.
  Pipeline PL(AppSource);
  std::vector<Issue> BaseIssues;
  for (unsigned T : ThreadCounts) {
    SCOPED_TRACE("threads=" + std::to_string(T));
    AnalysisConfig C = AnalysisConfig::hybridOptimized(20000, 3, 9, 2);
    C.Threads = T;
    AnalysisResult R = PL.run(std::move(C));
    if (T == 1)
      BaseIssues = R.Issues;
    else
      expectIdenticalIssues(BaseIssues, R.Issues);
  }
}

//===----------------------------------------------------------------------===//
// Governed runs: fault injection and deadlines
//===----------------------------------------------------------------------===//

TEST(ParallelSlicing, FaultInjectionSweepIsDeterministicPreSlicing) {
  Pipeline PL(AppSource);
  AnalysisConfig C0 = AnalysisConfig::hybridUnbounded();
  C0.Threads = 1;
  AnalysisResult Base = PL.run(std::move(C0));
  ASSERT_FALSE(Base.degraded());
  uint64_t Total = Base.RunStats.get("guard.checkpoints");
  ASSERT_GT(Total, 0u);
  std::set<FlowKey> BaseFlows = flowSet(Base);

  for (uint64_t N = 1; N <= Total + 2; ++N) {
    SCOPED_TRACE("fail-at=" + std::to_string(N));
    AnalysisConfig C1 = AnalysisConfig::hybridUnbounded();
    C1.Threads = 1;
    C1.FailAtCheckpoint = N;
    AnalysisResult R1 = PL.run(std::move(C1));

    AnalysisConfig C8 = AnalysisConfig::hybridUnbounded();
    C8.Threads = 8;
    C8.FailAtCheckpoint = N;
    AnalysisResult R8 = PL.run(std::move(C8));

    // Worker-completion merge: a cutoff at any thread count only drops
    // flows relative to the unbounded baseline, never invents them.
    for (const FlowKey &K : flowSet(R1))
      EXPECT_TRUE(BaseFlows.count(K));
    for (const FlowKey &K : flowSet(R8))
      EXPECT_TRUE(BaseFlows.count(K));
    EXPECT_EQ(R1.degraded(), R8.degraded());

    // Up to the slicing fan-out the pipeline is single-threaded, so a
    // cutoff tripping before slicing is byte-identical at every thread
    // count (the rendered banner included).
    const PhaseReport *PR = R1.Status.firstDegraded();
    bool PreSlicing = PR && PR->Phase != RunPhase::Slicing;
    if (PreSlicing || !R1.degraded()) {
      expectIdenticalIssues(R1.Issues, R8.Issues);
      EXPECT_EQ(PL.render(R1), PL.render(R8));
      if (PR) {
        const PhaseReport *PR8 = R8.Status.firstDegraded();
        ASSERT_NE(PR8, nullptr);
        EXPECT_EQ(PR->Phase, PR8->Phase);
        EXPECT_EQ(PR->Reason, PR8->Reason);
      }
    }
  }
}

TEST(ParallelSlicing, MidSlicingFaultKeepsOnlyCompletedSources) {
  // Trip the guard just after slicing begins: with the worker-completion
  // merge every reported issue comes from a source whose slice finished,
  // so the partial result is a subset of the clean run at any thread
  // count — and issue vectors stay internally consistent (sorted, deduped).
  Pipeline PL(AppSource);
  AnalysisConfig C0 = AnalysisConfig::hybridUnbounded();
  AnalysisResult Base = PL.run(std::move(C0));
  std::set<FlowKey> BaseFlows = flowSet(Base);
  uint64_t Total = Base.RunStats.get("guard.checkpoints");

  for (unsigned T : ThreadCounts) {
    SCOPED_TRACE("threads=" + std::to_string(T));
    for (uint64_t N = Total / 2; N <= Total; N += 3) {
      AnalysisConfig C = AnalysisConfig::hybridUnbounded();
      C.Threads = T;
      C.FailAtCheckpoint = N;
      AnalysisResult R = PL.run(std::move(C));
      std::set<FlowKey> Flows = flowSet(R);
      for (const FlowKey &K : Flows)
        EXPECT_TRUE(BaseFlows.count(K)) << "fail-at=" << N;
      EXPECT_EQ(Flows.size(), R.Issues.size()) << "duplicate issues survived";
      EXPECT_TRUE(std::is_sorted(R.Issues.begin(), R.Issues.end()));
    }
  }
}

TEST(ParallelSlicing, DeadlineCutoffUnderThreadsStaysUnderapproximate) {
  GeneratedApp App = generatedApp();
  AnalysisConfig C0 = AnalysisConfig::hybridUnbounded();
  TaintAnalysis TB(*App.P, std::move(C0));
  AnalysisResult Base = TB.run({App.Root});
  ASSERT_FALSE(Base.degraded());
  std::set<FlowKey> BaseFlows = flowSet(Base);

  for (unsigned T : ThreadCounts) {
    SCOPED_TRACE("threads=" + std::to_string(T));
    AnalysisConfig C = AnalysisConfig::hybridUnbounded();
    C.Threads = T;
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
}

//===----------------------------------------------------------------------===//
// CI heap budget (§6.2.1)
//===----------------------------------------------------------------------===//

TEST(ParallelSlicing, CiSlicerHonorsHeapTransitionBudget) {
  // Two chained heap hops: src -> a.v -> load -> b.v -> load -> sink.
  // An unbounded CI run follows both; MaxHeapTransitions=1 spends its one
  // expansion on the first store and never reaches the sink.
  Pipeline PL(R"(
class Holder extends Object {
  field v: String;
}
class App extends Servlet {
  method doGet(this: App, req: Request, resp: Response): void [entry] {
    t = req.getParameter("name");
    a = new Holder;
    b = new Holder;
    a.v = t;
    x = a.v;
    b.v = x;
    y = b.v;
    w = resp.getWriter();
    w.println(y);
  }
}
)");
  AnalysisConfig Unbounded = AnalysisConfig::ci();
  AnalysisResult RU = PL.run(std::move(Unbounded));
  // println is both an XSS and an InfoLeak sink: one flow, two issues.
  EXPECT_EQ(RU.Issues.size(), 2u) << "two-hop heap flow should be found";

  AnalysisConfig Tight = AnalysisConfig::ci();
  Tight.MaxHeapTransitions = 1;
  AnalysisResult RT = PL.run(std::move(Tight));
  EXPECT_TRUE(RT.Issues.empty())
      << "budget of one store expansion cannot cross two heap hops";

  // And the budget is per source, so it is thread-count invariant.
  std::vector<Issue> BaseIssues;
  for (unsigned T : ThreadCounts) {
    AnalysisConfig C = AnalysisConfig::ci();
    C.MaxHeapTransitions = 1;
    C.Threads = T;
    AnalysisResult R = PL.run(std::move(C));
    if (T == 1)
      BaseIssues = R.Issues;
    else
      expectIdenticalIssues(BaseIssues, R.Issues);
  }
}

TEST(ParallelSlicing, CiBudgetIsSubsetOfUnboundedOnGeneratedApp) {
  GeneratedApp App = generatedApp();
  AnalysisConfig C0 = AnalysisConfig::ci();
  TaintAnalysis TB(*App.P, std::move(C0));
  AnalysisResult Base = TB.run({App.Root});
  std::set<FlowKey> BaseFlows = flowSet(Base);

  for (uint32_t Budget : {1u, 2u, 8u, 64u}) {
    SCOPED_TRACE("budget=" + std::to_string(Budget));
    AnalysisConfig C = AnalysisConfig::ci();
    C.MaxHeapTransitions = Budget;
    TaintAnalysis TA(*App.P, std::move(C));
    AnalysisResult R = TA.run({App.Root});
    for (const FlowKey &K : flowSet(R))
      EXPECT_TRUE(BaseFlows.count(K));
  }
}

} // namespace
