//===- suitebench/LibraryWorkloads.cpp - In-process suite workloads -------===//
//
// Part of the TAJ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The three library workloads. Each pass runs every (app, config) pair of
/// the 22-app suite through the public pipeline — TaintAnalysis::run, then
/// generateReports / renderReports — on one thread, and checks the verdict
/// against the oracle outside the timed region.
///
/// A traced run alternates those untraced passes with traced ones that
/// compose the same pipeline from the layers' public entry points, in
/// run()'s order, with a span around each call.
///
//===----------------------------------------------------------------------===//

#include "suitebench/Bench.h"
#include "suitebench/Oracle.h"

#include "benchgen/Generator.h"
#include "core/TaintAnalysis.h"
#include "persist/Cache.h"
#include "persist/Serialize.h"
#include "report/ReportGenerator.h"
#include "sdg/SDG.h"
#include "slicer/HeapEdges.h"
#include "slicer/Slicer.h"

#include <cstdio>
#include <filesystem>
#include <memory>

using namespace taj;
using namespace suitebench;
namespace fs = std::filesystem;

namespace {

struct WorkloadSpec {
  const char *Name;
  std::vector<std::string> Configs;
  /// Runs against a disk ArtifactCache filled during set-up.
  bool Warm;
};

const WorkloadSpec Workloads[] = {
    {"unbounded-cold", {"hybrid-unbounded"}, false},
    {"optimized-warm", {"hybrid-optimized"}, true},
    {"baselines-cold", {"cs", "ci"}, false},
};

/// The Table 1 configurations at bench scale — the call-graph budget of
/// 400 nodes stands in for the paper's 20,000, scaled with the suite — on
/// one slicing thread and without self-verification.
AnalysisConfig configFor(const std::string &Name) {
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
  C.Verify = verify::VerifyMode::Off;
  return C;
}

struct App {
  AppSpec Spec;
  GeneratedApp G;
  std::string Fingerprint;
  /// Flows the concrete Interpreter observed.
  std::set<DynamicFlow> Dynamic;
  /// Reference verdicts computed during set-up.
  IssueSet CiRef, UnboundedRef;
};

/// Everything one set-up produces.
struct State {
  std::vector<App> Apps;
  fs::path CacheDir;
  std::unique_ptr<persist::ArtifactCache> Cache;
  double GenerateMs = 0, OracleMs = 0, PrefillMs = 0;
  std::vector<std::string> Problems;

  State() = default;
  State(const State &) = delete;
  State &operator=(const State &) = delete;
  ~State() {
    Cache.reset();
    std::error_code Ec;
    if (!CacheDir.empty())
      fs::remove_all(CacheDir, Ec);
  }
};

struct Verdict {
  AnalysisResult R;
  std::string Report;
  double Ms = 0;
};

/// One time to verdict: run() plus the LCP report.
Verdict runVerdict(const App &A, const std::string &Cfg,
                   persist::ArtifactCache *Cache) {
  AnalysisConfig C = configFor(Cfg);
  if (Cache) {
    C.Cache = Cache;
    C.InputFingerprint = A.Fingerprint;
  }
  Verdict V;
  Clock::time_point T0 = Clock::now();
  {
    TaintAnalysis TA(*A.G.P, std::move(C));
    V.R = TA.run({A.G.Root});
  }
  V.Report = renderReports(*A.G.P, generateReports(*A.G.P, V.R.Issues),
                           &V.R.Status);
  V.Ms = msSince(T0);
  return V;
}

/// One set-up. \p Cal ticks before each app's step of every part, and
/// each step counts in reference ms.
std::unique_ptr<State> setUp(const WorkloadSpec &W, const Options &O, int Rep,
                             Calibrator &Cal) {
  auto S = std::make_unique<State>();

  // Generation: suite app I gets seed O.Seed + I.
  std::vector<AppSpec> Suite = benchmarkSuite();
  S->Apps.resize(Suite.size());
  for (size_t I = 0; I < Suite.size(); ++I) {
    const double F = Cal.tick();
    Clock::time_point T0 = Clock::now();
    App &A = S->Apps[I];
    A.Spec = Suite[I];
    A.Spec.Seed = O.Seed + I;
    A.G = generateApp(A.Spec);
    A.Fingerprint = A.Spec.Name + "-" + std::to_string(A.Spec.Seed);
    S->GenerateMs += msSince(T0) * F;
  }

  // Oracle: interpreter runs and the reference verdicts.
  for (App &A : S->Apps) {
    const double F = Cal.tick();
    Clock::time_point T0 = Clock::now();
    const Program &P = *A.G.P;
    ClassHierarchy CHA(P);
    Interpreter Interp(P, CHA);
    Interp.run({A.G.Root});
    A.Dynamic = Interp.flows();
    auto Reference = [&](const char *Cfg) {
      TaintAnalysis TA(P, configFor(Cfg));
      AnalysisResult R = TA.run({A.G.Root});
      IssueSet Set = issueSet(R.Issues);
      if (!R.Completed || !coversFlows(Set, A.Dynamic) ||
          classify(P, A.G.Truth, R.Issues).RealFound != A.G.Truth.numReal())
        S->Problems.push_back(A.Spec.Name + "/" + Cfg +
                              ": reference misses an observed or real flow");
      return Set;
    };
    A.CiRef = Reference("ci");
    if (W.Warm) {
      A.UnboundedRef = Reference("hybrid-unbounded");
      if (!isSubset(A.UnboundedRef, A.CiRef))
        S->Problems.push_back(A.Spec.Name +
                              ": hybrid-unbounded reports beyond CI");
    }
    S->OracleMs += msSince(T0) * F;
  }

  // Prefill: one cached pass stores every artifact run() will store.
  if (W.Warm) {
    double F = Cal.tick();
    Clock::time_point T0 = Clock::now();
    S->CacheDir = fs::path(O.WorkDir) / ("cache-" + std::to_string(Rep));
    std::error_code Ec;
    fs::remove_all(S->CacheDir, Ec);
    S->Cache = std::make_unique<persist::ArtifactCache>(S->CacheDir.string());
    S->PrefillMs += msSince(T0) * F;
    for (const App &A : S->Apps)
      for (const std::string &Cfg : W.Configs) {
        F = Cal.tick();
        T0 = Clock::now();
        runVerdict(A, Cfg, S->Cache.get());
        S->PrefillMs += msSince(T0) * F;
      }
  }
  return S;
}

/// Oracle check of one verdict; empty when it holds, else the reason.
std::string checkVerdict(const App &A, const std::string &Cfg,
                         const AnalysisResult &R, const IssueSet &Set,
                         bool PinCounts) {
  const bool Cs = Cfg == "cs", Ci = Cfg == "ci";
  const bool Unbounded = Cfg == "hybrid-unbounded";
  if (!R.Completed && !Cs)
    return "did not complete";
  if (Unbounded || Ci) {
    if (!coversFlows(Set, A.Dynamic))
      return "misses a flow the interpreter observed";
    if (classify(*A.G.P, A.G.Truth, R.Issues).RealFound !=
        A.G.Truth.numReal())
      return "misses a planted real flow";
  }
  if ((Unbounded || (Cs && R.Completed)) && !isSubset(Set, A.CiRef))
    return "reports a flow CI does not";
  if (Ci && Set != A.CiRef)
    return "differs from the reference CI verdict";
  if (Cfg == "hybrid-optimized" && !isSubset(Set, A.UnboundedRef))
    return "reports a flow hybrid-unbounded does not";
  if (PinCounts) {
    std::optional<int> Want = expectedDistinct(A.Spec.Name, Cfg);
    int Got = R.Completed ? static_cast<int>(distinctIssueCount(R.Issues))
                          : -1;
    if (!Want || *Want != Got)
      return "distinct issue count " + std::to_string(Got) +
             " is not the pinned " + (Want ? std::to_string(*Want) : "?");
  }
  return "";
}

/// Per-layer sums of one traced pass.
struct Layers {
  double Wall = 0, Dataflow = 0, PtsLoad = 0, Pointsto = 0, Sdg = 0,
         SlicerSpan = 0, Report = 0;
  uint64_t ValuesConst = 0, CgNodes = 0, BudgetExhausted = 0, SdgNodes = 0,
           Stores = 0, Sinks = 0, ChanNodes = 0, Items = 0, PathEdges = 0,
           Issues = 0, Groups = 0;
};

/// The pipeline of TaintAnalysis::run composed from the layers' public
/// entry points, with a span around each call. Layer times add up in
/// reference ms, at factor \p F. run*Slicer rebuilds
/// (or reloads) its own SDG, so the separate SDG span runs the same
/// construction on the same inputs and slicing time is the slicer span
/// minus it.
IssueSet tracedVerdict(const App &A, const std::string &Cfg,
                       persist::ArtifactCache *Cache, SpanLog &Log,
                       uint32_t Op, double F, Layers &L, bool &Completed) {
  const AnalysisConfig C = configFor(Cfg);
  const Program &P = *A.G.P;
  const int32_t Root = Log.open("verdict", Op, -1);
  ClassHierarchy CHA(P);

  ConstStringOptions CSO;
  CSO.Mode = C.StringAnalysis;
  int32_t S = Log.open("dataflow", Op, Root);
  ConstStringResult Strings = analyzeConstStrings(P, CHA, CSO);
  L.Dataflow += Log.close(S) * F;
  L.ValuesConst += Strings.stats().get("conststr.values_const");

  PointsToOptions PO = C.pointsToOptions();
  PO.ConstStrings = &Strings;
  auto Solver = std::make_unique<PointsToSolver>(P, CHA, PO);
  bool Restored = false;
  if (Cache) {
    S = Log.open("persist.load", Op, Root);
    std::string Key = persist::ArtifactCache::makeKey(
        "pts", A.Fingerprint, C.pointsToFingerprint());
    if (std::optional<persist::LoadedPayload> Payload =
            Cache->load(Key, persist::ArtifactKind::PointsTo)) {
      persist::Reader R(Payload->data(), Payload->size());
      Restored = persist::Access::restoreSolver(*Solver, R);
      if (!Restored)
        Solver = std::make_unique<PointsToSolver>(P, CHA, PO);
    }
    L.PtsLoad += Log.close(S) * F;
  }
  if (!Restored) {
    S = Log.open("pointsto", Op, Root);
    Solver->solve({A.G.Root});
    L.Pointsto += Log.close(S) * F;
  }
  L.CgNodes += Solver->callGraph().numNodes();
  L.BudgetExhausted += Solver->budgetExhausted();

  SlicerOptions SLO = C.slicerOptions();
  if (Cache) {
    SLO.Cache = Cache;
    SLO.CacheKey = persist::ArtifactCache::makeKey("sdg", A.Fingerprint,
                                                   C.sdgFingerprint());
  }
  SDGOptions SO;
  SO.ContextExpanded = C.Slicer != SlicerKind::CI;
  SO.WithChanParams = C.Slicer == SlicerKind::CS;
  SO.ModelExceptionSources = SLO.ModelExceptionSources;
  if (C.Slicer == SlicerKind::CS)
    SO.ChanNodeBudget = SLO.CsChanBudget;
  S = Log.open("sdg", Op, Root);
  {
    persist::SdgArtifacts Art = persist::loadOrBuildSdg(
        P, CHA, *Solver, SO, SLO.NestedTaintDepth, SLO.Cache, SLO.CacheKey);
    L.Sdg += Log.close(S) * F;
    const SDG &G = *Art.G;
    L.SdgNodes += G.numNodes();
    L.Stores += G.storeNodes().size();
    L.Sinks += G.sinkNodes().size();
    L.ChanNodes += G.numChanNodes();
    if (Art.HE)
      for (int RB = 0; RB < rules::NumRules; ++RB)
        L.Items += G.sourceNodes(static_cast<RuleMask>(1u << RB)).size();
  }

  S = Log.open("slicer", Op, Root);
  SliceRunResult SR;
  switch (C.Slicer) {
  case SlicerKind::Hybrid:
    SR = runHybridSlicer(P, CHA, *Solver, SLO);
    break;
  case SlicerKind::CS:
    SR = runCsSlicer(P, CHA, *Solver, SLO);
    break;
  case SlicerKind::CI:
    SR = runCiSlicer(P, CHA, *Solver, SLO);
    break;
  }
  L.SlicerSpan += Log.close(S) * F;
  L.PathEdges += SR.PathEdges;
  L.Issues += SR.Issues.size();

  S = Log.open("report", Op, Root);
  std::vector<Report> Reps = generateReports(P, SR.Issues);
  std::string Text = renderReports(P, Reps);
  L.Report += Log.close(S) * F;
  L.Groups += Reps.size();

  L.Wall += Log.close(Root) * F;
  Completed = SR.Completed;
  return issueSet(SR.Issues);
}

/// First verdict of each (app, config) pair: later passes must repeat it.
struct PairRecord {
  bool Seen = false;
  bool Completed = false;
  IssueSet Issues;
  std::string Report;
};

} // namespace

bool suitebench::isLibraryWorkload(const std::string &Name) {
  for (const WorkloadSpec &W : Workloads)
    if (Name == W.Name)
      return true;
  return false;
}

Result suitebench::runLibraryWorkload(const Options &O) {
  const WorkloadSpec *WP = nullptr;
  for (const WorkloadSpec &W : Workloads)
    if (O.Workload == W.Name)
      WP = &W;
  const WorkloadSpec &W = *WP;
  Result Res;

  // Every time below is in reference ms (see Calibrator): wall ms times
  // the factor of the tick just before.
  Calibrator Cal(Calibrator::Kernel::Compute);

  // Set-up repeats run in two groups, before and after the timed passes,
  // so setup_s takes its median over two moments of the run.
  SetupTimes Setup;
  auto SetUpOnce = [&](int Rep) {
    std::unique_ptr<State> T = setUp(W, O, Rep, Cal);
    Setup.add(T->GenerateMs, T->OracleMs, T->PrefillMs, 0);
    for (const std::string &P : T->Problems)
      std::fprintf(stderr, "oracle: %s\n", P.c_str());
    if (!T->Problems.empty())
      Res.Correct = false;
    return T;
  };
  const int SetupsBefore = SetupRepeats / 2 + 1;
  std::unique_ptr<State> S;
  for (int Rep = 0; Rep < SetupsBefore; ++Rep) {
    S.reset(); // the previous set-up's memory and cache go first
    S = SetUpOnce(Rep);
  }
  // The oracle's reference runs (CI among them) must not set the peak.
  resetPeakRss();

  const size_t NC = W.Configs.size();
  size_t Largest = 0;
  for (size_t I = 0; I < S->Apps.size(); ++I)
    if (S->Apps[I].G.GenStmts > S->Apps[Largest].G.GenStmts)
      Largest = I;
  const bool PinCounts = O.Seed == DefaultSeed;
  persist::ArtifactCache *Cache = S->Cache.get();

  std::vector<PairRecord> Pairs(S->Apps.size() * NC);
  std::vector<double> PassMs, LargestMs, RunMs, PersistMs, VerdictMs;
  std::vector<Layers> Traced;
  // Time of the untraced verdicts and their oracle checks.
  double LoopMs = 0;
  uint64_t TP = 0, FP = 0, PersistHits = 0, PersistLookups = 0;
  SpanLog Log;

  auto Fail = [&](const App &A, const std::string &Cfg,
                  const std::string &Why) {
    ++Res.Failed;
    if (Res.Failed <= 10)
      std::fprintf(stderr, "oracle: %s/%s: %s\n", A.Spec.Name.c_str(),
                   Cfg.c_str(), Why.c_str());
  };

  // Untraced pass: the end-to-end numbers.
  auto UntracedPass = [&](bool First) {
    double Sum = 0, OnLargest = 0, Run = 0, Persist = 0;
    for (size_t I = 0; I < S->Apps.size(); ++I) {
      const App &A = S->Apps[I];
      for (size_t C = 0; C < NC; ++C) {
        const std::string &Cfg = W.Configs[C];
        const double F = Cal.tick();
        Clock::time_point T0 = Clock::now();
        Verdict V = runVerdict(A, Cfg, Cache);
        V.Ms *= F;
        PairRecord &PR = Pairs[I * NC + C];
        Sum += V.Ms;
        Run += V.R.Millis * F;
        Persist += V.R.PersistLoadMillis * F;
        if (I == Largest)
          OnLargest += V.Ms;
        PersistHits += V.R.RunStats.get("persist.hit");
        PersistLookups += V.R.RunStats.get("persist.hit") +
                          V.R.RunStats.get("persist.miss");
        ++Res.Attempted;

        IssueSet Set = issueSet(V.R.Issues);
        std::string Why = checkVerdict(A, Cfg, V.R, Set, PinCounts);
        if (!PR.Seen) {
          PR.Seen = true;
          PR.Completed = V.R.Completed;
          PR.Issues = Set;
          PR.Report = V.Report;
        } else if (Why.empty() &&
                   (Set != PR.Issues || V.Report != PR.Report)) {
          Why = "verdict differs from the first pass";
        }
        if (!Why.empty())
          Fail(A, Cfg, Why);
        if (First && V.R.Completed) {
          Classification K = classify(*A.G.P, A.G.Truth, V.R.Issues);
          TP += K.TruePositives;
          FP += K.FalsePositives;
        }
        // Ends after the oracle check, so verdicts_per_s counts the loop's
        // whole wall time, the calibration ticks apart.
        VerdictMs.push_back(V.Ms);
        LoopMs += msSince(T0) * F;
      }
    }
    PassMs.push_back(Sum);
    LargestMs.push_back(OnLargest);
    RunMs.push_back(Run);
    PersistMs.push_back(Persist);
  };

  // Traced pass: the per-layer numbers.
  auto TracedPass = [&](int Pass) {
    Layers L;
    for (size_t I = 0; I < S->Apps.size(); ++I) {
      const App &A = S->Apps[I];
      for (size_t C = 0; C < NC; ++C) {
        const std::string &Cfg = W.Configs[C];
        uint32_t Op =
            Log.newOp(A.Spec.Name + "/" + Cfg + "/" + std::to_string(Pass));
        bool Completed = false;
        const double F = Cal.tick();
        IssueSet Set =
            tracedVerdict(A, Cfg, Cache, Log, Op, F, L, Completed);
        ++Res.Attempted;
        const PairRecord &PR = Pairs[I * NC + C];
        if (Set != PR.Issues || Completed != PR.Completed)
          Fail(A, Cfg, "composed pipeline differs from run()");
      }
    }
    Traced.push_back(L);
  };

  const Clock::time_point LoopT0 = Clock::now();
  for (int Pass = 0; Pass < 4 || msSince(LoopT0) < O.Seconds * 1000; ++Pass) {
    if (O.Trace && Pass % 2 == 1)
      TracedPass(Pass);
    else
      UntracedPass(Pass == 0);
  }
  const double PeakMb = peakRssMb();
  for (int Rep = SetupsBefore; Rep < SetupRepeats; ++Rep)
    SetUpOnce(Rep);

  if (!O.Trace) {
    Res.add("pass_ms", mean(PassMs), "ms");
    addLatencies(Res, VerdictMs);
    Res.add("largest_app_ms", mean(LargestMs), "ms");
    Res.add("verdicts_per_s", VerdictMs.size() / (LoopMs / 1000), "1/s");
    Res.add("true_positives", static_cast<double>(TP), "count");
    Res.add("false_positives", static_cast<double>(FP), "count");
    Res.add("peak_rss_mb", PeakMb, "MiB");
    Res.add("setup_s", median(Setup.Total) / 1000, "s");
    Res.Notes.push_back(std::to_string(Res.Attempted) + " verdicts in " +
                        std::to_string(PassMs.size()) + " passes");
    Res.Notes.push_back(describe(Cal));
    Res.Notes.push_back(Setup.describe());
    return Res;
  }

  // Layer times: means over the traced passes.
  auto Ms = [&](auto Field) {
    std::vector<double> V;
    for (const Layers &L : Traced)
      V.push_back(Field(L));
    return mean(V);
  };
  const Layers &L0 = Traced.front();
  const double Spans = Ms([](const Layers &L) {
    return L.Dataflow + L.PtsLoad + L.Pointsto + L.SlicerSpan;
  });
  Res.add("slicer.ms", Ms([](const Layers &L) { return L.SlicerSpan - L.Sdg; }),
          "ms");
  Res.add("slicer.items", static_cast<double>(L0.Items), "count");
  Res.add("slicer.path_edges", static_cast<double>(L0.PathEdges), "count");
  Res.add("slicer.issues", static_cast<double>(L0.Issues), "count");
  Res.add("slicer.issue_yield",
          L0.Items ? static_cast<double>(L0.Issues) / L0.Items : 0, "ratio");
  Res.add("dataflow.ms", Ms([](const Layers &L) { return L.Dataflow; }),
          "ms");
  Res.add("dataflow.values_const", static_cast<double>(L0.ValuesConst),
          "count");
  Res.add("pointsto.ms", Ms([](const Layers &L) { return L.Pointsto; }),
          "ms");
  Res.add("pointsto.cg_nodes", static_cast<double>(L0.CgNodes), "count");
  Res.add("pointsto.budget_exhausted",
          static_cast<double>(L0.BudgetExhausted), "count");
  Res.add("sdg.ms", Ms([](const Layers &L) { return L.Sdg; }), "ms");
  Res.add("sdg.nodes", static_cast<double>(L0.SdgNodes), "count");
  Res.add("sdg.stores", static_cast<double>(L0.Stores), "count");
  Res.add("sdg.sinks", static_cast<double>(L0.Sinks), "count");
  Res.add("sdg.chan_nodes", static_cast<double>(L0.ChanNodes), "count");
  Res.add("report.ms", Ms([](const Layers &L) { return L.Report; }), "ms");
  Res.add("report.groups", static_cast<double>(L0.Groups), "count");
  double PassSum = 0, PersistSum = 0;
  for (size_t I = 0; I < PassMs.size(); ++I) {
    PassSum += PassMs[I];
    PersistSum += PersistMs[I];
  }
  Res.add("persist.load_share", PersistSum / PassSum, "ratio");
  Res.add("persist.hit_ratio",
          PersistLookups ? static_cast<double>(PersistHits) / PersistLookups
                         : 0,
          "ratio");
  Res.add("core.residue_ms", mean(RunMs) - Spans, "ms");
  Res.add("frontend.parse_share", 0, "ratio");
  Res.add("server.overhead_share", 0, "ratio");
  Res.add("server.hot_hit_ratio", 0, "ratio");
  Setup.addPerLayer(Res);
  Res.add("trace.overhead_ms",
          Ms([](const Layers &L) { return L.Wall; }) - mean(PassMs), "ms");
  fs::path TraceFile =
      fs::path(O.WorkDir) /
      ("trace-" + O.Workload + "-" + std::to_string(O.Seed) + ".json");
  if (!Log.write(TraceFile.string()))
    std::fprintf(stderr, "warning: cannot write %s\n", TraceFile.c_str());
  return Res;
}

int suitebench::dumpExpectedCounts() {
  for (const AppSpec &Spec : benchmarkSuite()) {
    GeneratedApp G = generateApp(Spec);
    std::printf("    {\"%s\"", Spec.Name.c_str());
    for (const char *Cfg : {"hybrid-unbounded", "hybrid-optimized", "cs", "ci"}) {
      TaintAnalysis TA(*G.P, configFor(Cfg));
      AnalysisResult R = TA.run({G.Root});
      std::printf(", %d",
                  R.Completed ? static_cast<int>(distinctIssueCount(R.Issues))
                              : -1);
    }
    std::printf("},\n");
  }
  return 0;
}
