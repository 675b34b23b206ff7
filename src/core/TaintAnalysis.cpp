//===- core/TaintAnalysis.cpp ----------------------------------*- C++ -*-===//

#include "core/TaintAnalysis.h"

#include "persist/Cache.h"
#include "support/Trace.h"
#include "verify/Verify.h"

#include <cmath>

using namespace taj;

TaintAnalysis::TaintAnalysis(const Program &P, AnalysisConfig Config)
    : P(P), Config(std::move(Config)), CHA(P) {}

TaintAnalysis::~TaintAnalysis() = default;

const ConstStringResult &TaintAnalysis::constStrings() const {
  return Solver->constStrings();
}

AnalysisResult TaintAnalysis::run(const std::vector<MethodId> &Roots) {
  AnalysisResult Out;
  Timer T;

  // One guard governs the whole run: config limits overlaid with the
  // TAJ_DEADLINE_MS / TAJ_MAX_MEMORY_MB / TAJ_FAIL_AT environment knobs,
  // unless the caller supplied an external guard (e.g. for cancellation).
  RunGuard OwnGuard(RunGuard::limitsFromEnv(Config.guardLimits()));
  RunGuard &G = Config.ExternalGuard ? *Config.ExternalGuard : OwnGuard;

  // Per-phase profile: the caller's (taj-cli passes one that also covers
  // parse/report outside run()) or a private one exported into RunStats at
  // the end. The "analysis" scope below brackets the whole body, so with
  // the profile's exclusive accounting the run-internal phases (conststr,
  // pointsto, persist_*, sdg, slicing) plus the "analysis" residue tile
  // Millis exactly.
  PhaseProfile OwnProf;
  PhaseProfile &Prof = Config.ExternalProfile ? *Config.ExternalProfile
                                              : OwnProf;
  // Delta base: an external profile may already carry persist_load time
  // (taj-cli's IR cache load); this run only owns what it adds.
  const double PersistLoadBaseUs = Prof.wallUsOf("persist_load");

  // Self-verification sink: the caller's (so a driver folds frontend and
  // analysis violations into one exit decision) or a private one. Checkers
  // run only over completed phases, so degraded runs never spuriously
  // fail.
  verify::Violations OwnViolations;
  verify::Violations &Vio =
      Config.Violations ? *Config.Violations : OwnViolations;
  const uint64_t Vio0 = Vio.total();
  const verify::VerifyMode VMode = Config.Verify;

  auto report = [&](RunPhase Ph, PhaseOutcome O, CutoffReason R) {
    PhaseReport PR;
    PR.Phase = Ph;
    PR.Outcome = O;
    PR.Reason = R;
    PR.WorkDone = G.workOf(Ph);
    Out.Status.Phases.push_back(PR);
  };

  PhaseScope AnalysisScope(&Prof, "analysis");

  // Phase 1: pointer analysis and call-graph construction (§3.1).
  const_cast<Program &>(P).indexStatements();

  // Artifact cache wiring: active only with a usable cache, a non-empty
  // input fingerprint, and no fault injection (an injected cutoff is a
  // test scenario whose truncation point must not be masked by a warm
  // start). Keys cover the input bytes, the phase-relevant config fields
  // and the format version, so any of those changing misses cleanly.
  persist::ArtifactCache *Cache = Config.Cache;
  const bool CacheOn = Cache && Cache->enabled() &&
                       !Config.InputFingerprint.empty() &&
                       G.limits().FailAtCheckpoint == 0 &&
                       G.limits().CrashAtCheckpoint == 0 &&
                       G.limits().HangAtCheckpoint == 0;
  std::string PtsKey, SdgKey;
  // Counter window, so this run's RunStats carries per-run deltas (a
  // shared batch cache accumulates across runs; summing the deltas of N
  // runs then reproduces the lifetime totals).
  const persist::ArtifactCache::Counters Since =
      Cache ? Cache->counters() : persist::ArtifactCache::Counters();
  if (CacheOn) {
    PtsKey = persist::ArtifactCache::makeKey("pts", Config.InputFingerprint,
                                             Config.pointsToFingerprint());
    SdgKey = persist::ArtifactCache::makeKey("sdg", Config.InputFingerprint,
                                             Config.sdgFingerprint());
  }

  G.beginPhase(RunPhase::PointerAnalysis);

  // The pointer-analysis phase is string-constant propagation
  // (dataflow/ConstString.h), whose facts drive the dictionary-channel and
  // reflection models, then the solver. The pts record carries the whole
  // phase — the pool symbols it interned, the string facts, its guard work
  // units and the solution — so a warm hit runs neither, and its solver
  // answers from the restored facts.
  PointsToOptions PO = Config.pointsToOptions();
  PO.Guard = &G;
  bool PtsWarm = false;
  if (CacheOn) {
    PhaseScope S(&Prof, "persist_load");
    if (std::optional<persist::LoadedPayload> Payload =
            Cache->load(PtsKey, persist::ArtifactKind::PointsTo)) {
      Solver = std::make_unique<PointsToSolver>(P, CHA, PO);
      persist::Reader R(Payload->data(), Payload->size());
      {
        trace::Span RS("restore: pts", "persist");
        PtsWarm = persist::Access::restoreSolver(*Solver, R);
      }
      if (!PtsWarm)
        Cache->noteRestoreFailure(PtsKey);
    }
  }
  if (PtsWarm) {
    // The truncation banner reports the phase's work; replaying the
    // recorded count keeps it identical to the cold run's.
    G.replayWork(Solver->phaseWork());
  } else {
    ConstStringOptions CSO;
    CSO.Mode = Config.StringAnalysis;
    CSO.Guard = &G;
    {
      PhaseScope S(&Prof, "conststr");
      ConstStrings = analyzeConstStrings(P, CHA, CSO);
    }
    PO.ConstStrings = &ConstStrings;
    Solver = std::make_unique<PointsToSolver>(P, CHA, PO);
    {
      PhaseScope S(&Prof, "pointsto");
      try {
        Solver->solve(Roots);
      } catch (...) {
        // Unexpected failure (e.g. bad_alloc): degrade instead of
        // crashing.
        G.markInternalError();
      }
    }
    // Store every solution no governance stop cut short. A node-budget
    // truncation is deterministic and its banner replays from the recorded
    // work; a deadline, memory, cancellation or internal-error stop is not
    // and must never be replayed.
    if (CacheOn && !G.stopped()) {
      PhaseScope S(&Prof, "persist_store");
      persist::Writer W;
      persist::Access::serializeSolver(*Solver, W);
      Cache->store(PtsKey, persist::ArtifactKind::PointsTo, W.bytes());
    }
  }
  Out.BudgetExhausted = Solver->budgetExhausted();
  Out.CgNodesProcessed = Solver->callGraph().numProcessed();
  if (G.stopped())
    report(RunPhase::PointerAnalysis, PhaseOutcome::Truncated, G.reason());
  else if (Solver->budgetExhausted())
    report(RunPhase::PointerAnalysis, PhaseOutcome::Truncated,
           CutoffReason::NodeBudget);
  else
    report(RunPhase::PointerAnalysis, PhaseOutcome::Completed,
           CutoffReason::None);

  // GraphVerifier (--verify=full): the string facts must agree with the
  // IR, and a complete, unbudgeted solve must also be a fixpoint with a
  // fully justified call graph (a budgeted solution is not a fixpoint).
  // On a warm restore this is the structural defense behind the record
  // checksum — a hot-tier hit skips checksum re-verification entirely —
  // so a violating restored record is additionally counted as
  // persist.verify_rejected and the poisoned cache entry dropped for
  // later runs.
  if (VMode == verify::VerifyMode::Full && !G.stopped()) {
    PhaseScope S(&Prof, "verify");
    const uint64_t Before = Vio.total();
    if (!Solver->budgetExhausted())
      verify::verifyGraphs(P, CHA, *Solver, nullptr, Vio);
    verify::verifyConstStrings(P, Solver->constStrings(), Vio);
    if (PtsWarm && Vio.total() != Before) {
      Vio.noteRestoreRejected();
      Cache->noteRestoreFailure(PtsKey);
    }
  }

  // Phase 2: thin slicing from sources (§3.2). Once the run is stopped
  // there is no envelope left, so the remaining phases are skipped; a
  // node-budget truncation (above) is phase-local and slicing proceeds
  // over the partial call graph, exactly as in the paper's §6.1.
  if (G.stopped()) {
    report(RunPhase::SdgBuild, PhaseOutcome::Skipped, G.reason());
    report(RunPhase::Slicing, PhaseOutcome::Skipped, G.reason());
  } else {
    SlicerOptions SLO = Config.slicerOptions();
    SLO.Guard = &G;
    SLO.Profile = &Prof;
    SLO.Violations = &Vio;
    if (CacheOn) {
      SLO.Cache = Cache;
      SLO.CacheKey = SdgKey;
    }
    SliceRunResult SR;
    try {
      switch (Config.Slicer) {
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
    } catch (...) {
      G.markInternalError();
      SR.Issues.clear(); // a half-built issue list is not trustworthy
    }
    Out.Completed = SR.Completed;
    Out.Issues = std::move(SR.Issues);
    Out.SliceWork = SR.PathEdges;

    if (!SR.Completed) {
      // CS channel extension exceeded its memory budget before slicing.
      report(RunPhase::SdgBuild, PhaseOutcome::Truncated,
             CutoffReason::Memory);
      report(RunPhase::Slicing, PhaseOutcome::Skipped, CutoffReason::Memory);
    } else if (G.stopped() && G.cutoffPhase() == RunPhase::SdgBuild) {
      report(RunPhase::SdgBuild, PhaseOutcome::Truncated, G.reason());
      report(RunPhase::Slicing, PhaseOutcome::Skipped, G.reason());
    } else if (G.stopped()) {
      report(RunPhase::SdgBuild, PhaseOutcome::Completed,
             CutoffReason::None);
      report(RunPhase::Slicing, PhaseOutcome::Truncated, G.reason());
    } else {
      report(RunPhase::SdgBuild, PhaseOutcome::Completed,
             CutoffReason::None);
      report(RunPhase::Slicing, PhaseOutcome::Completed, CutoffReason::None);
    }
  }

  Out.VerifyViolations = Vio.total() - Vio0;
  // Exported totals include frontend violations an external sink already
  // carries: this run's RunStats is the one stats outlet either way.
  Vio.exportStats(Out.RunStats);

  G.exportStats(Out.RunStats);
  Out.RunStats.merge(Solver->constStrings().stats());
  Out.RunStats.merge(Solver->stats());
  if (Cache)
    Cache->exportSince(Since, Out.RunStats);
  Out.PersistLoadMillis =
      (Prof.wallUsOf("persist_load") - PersistLoadBaseUs) / 1000.0;
  Out.RunStats.add(
      "phase.persist_load_ms",
      static_cast<uint64_t>(std::llround(Out.PersistLoadMillis)));
  // An external profile is exported by its owner (covering phases outside
  // this run too); a private one is this run's only outlet.
  if (!Config.ExternalProfile)
    Prof.exportStats(Out.RunStats);
  Out.Millis = T.elapsedMs();
  return Out;
}
