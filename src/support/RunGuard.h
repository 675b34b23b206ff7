//===- support/RunGuard.h - Run governance & degradation ------*- C++ -*-===//
//
// Part of the TAJ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The cross-cutting run-governance layer behind TAJ's bounded-analysis
/// discipline (§6): a RunGuard combines a wall-clock deadline, a memory
/// ceiling, cooperative cancellation and a deterministic fault-injection
/// hook behind one cheap checkpoint() call that every long-running loop of
/// the pipeline polls. When a limit trips, the guard latches the phase and
/// reason of the cutoff; phases observe the stop at their next checkpoint
/// and unwind with whatever partial (underapproximate) results they hold.
///
/// The structured outcome of a governed run is a RunStatus: one PhaseReport
/// per pipeline phase stating whether it completed, was truncated (its
/// results are an underapproximation), or was skipped entirely.
///
//===----------------------------------------------------------------------===//

#ifndef TAJ_SUPPORT_RUNGUARD_H
#define TAJ_SUPPORT_RUNGUARD_H

#include "support/Stats.h"

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace taj {

/// The pipeline phases a guard can attribute work (and a cutoff) to.
enum class RunPhase : uint8_t {
  PointerAnalysis, ///< Andersen solver + on-the-fly call graph (§3.1)
  SdgBuild,        ///< SDG / heap-edge construction (§3.2 prep)
  Slicing,         ///< thin slicing / RHS tabulation (§3.2)
};

/// Why a run was cut off.
enum class CutoffReason : uint8_t {
  None,          ///< not cut off
  Deadline,      ///< wall-clock deadline expired
  Memory,        ///< memory ceiling exceeded
  NodeBudget,    ///< call-graph node budget exhausted (§6.1)
  Cancelled,     ///< external cancellation request
  FaultInjected, ///< deterministic test-only fault injection
  InternalError, ///< unexpected internal failure
};

/// Outcome of one phase under governance.
enum class PhaseOutcome : uint8_t {
  Completed, ///< ran to its natural fixpoint
  Truncated, ///< cut off mid-way; results are underapproximate
  Skipped,   ///< never ran (an earlier phase exhausted the run)
};

const char *phaseName(RunPhase P);
const char *cutoffReasonName(CutoffReason R);
const char *phaseOutcomeName(PhaseOutcome O);

/// Emits a thread-scoped instant event ("guard-stop: <reason> in
/// <phase>") into the global trace sink, so a truncated phase is visible
/// on the --trace timeline. No-op while tracing is disabled. Defined in
/// RunGuard.cpp to keep Trace.h out of this header.
void traceGuardStop(CutoffReason R, RunPhase P);

/// Structured diagnostic for one phase of a governed run.
struct PhaseReport {
  RunPhase Phase = RunPhase::PointerAnalysis;
  PhaseOutcome Outcome = PhaseOutcome::Completed;
  CutoffReason Reason = CutoffReason::None;
  /// Work units (checkpoints) the phase performed before finishing or
  /// being cut off.
  uint64_t WorkDone = 0;
};

/// Structured outcome of a whole governed run, carried on AnalysisResult.
struct RunStatus {
  std::vector<PhaseReport> Phases;

  /// True when any phase did not complete (results underapproximate).
  bool degraded() const {
    for (const PhaseReport &PR : Phases)
      if (PR.Outcome != PhaseOutcome::Completed)
        return true;
    return false;
  }

  /// First non-completed phase report, or nullptr when the run was clean.
  const PhaseReport *firstDegraded() const {
    for (const PhaseReport &PR : Phases)
      if (PR.Outcome != PhaseOutcome::Completed)
        return &PR;
    return nullptr;
  }

  PhaseOutcome outcomeOf(RunPhase P) const {
    for (const PhaseReport &PR : Phases)
      if (PR.Phase == P)
        return PR.Outcome;
    return PhaseOutcome::Skipped;
  }

  /// "pointer-analysis: truncated (deadline) after 123 units; ..."
  std::string toString() const;
};

/// Governs one analysis run. Long-running loops call checkpoint(); once a
/// limit trips, checkpoint() latches the cutoff and returns false forever,
/// and every phase unwinds cooperatively. All limits are optional (zero
/// disables). cancel() may be called from another thread.
///
/// Concurrency contract:
///  - stopped(), cancel(), checkpointCount() and the cutoff accessors are
///    safe from any thread at any time; a thread that sees stopped() also
///    sees reason() and cutoffPhase().
///  - Everything else belongs to the one thread that runs the analysis:
///    checkpoint() bumps the count with a plain load and store, and the
///    phase bookkeeping (beginPhase(), workOf(), replayWork()) reads and
///    writes plain fields.
class RunGuard {
public:
  struct Limits {
    /// Wall-clock deadline in milliseconds (0 = none).
    double DeadlineMs = 0;
    /// Resident-set ceiling in bytes (0 = none).
    uint64_t MaxMemoryBytes = 0;
    /// Fault injection: trip at the Nth checkpoint (1-based; 0 = off).
    uint64_t FailAtCheckpoint = 0;
    /// Hard fault injection: die at the Nth checkpoint (1-based; 0 = off)
    /// via abort(), or raise(CrashSignal) when that is set. Unlike
    /// FailAtCheckpoint this is NOT cooperative — the process terminates
    /// on the spot, exercising the supervisor's crash classification.
    uint64_t CrashAtCheckpoint = 0;
    /// Signal CrashAtCheckpoint raises instead of abort() (0 = abort()).
    /// TAJ_CRASH_SIGNAL=9 simulates a kernel OOM kill deterministically.
    int CrashSignal = 0;
    /// Hard fault injection: block forever at the Nth checkpoint
    /// (1-based; 0 = off), exercising the supervisor's watchdog.
    uint64_t HangAtCheckpoint = 0;
  };

  RunGuard() = default;
  explicit RunGuard(const Limits &L) : Lim(L) {}

  /// Overlays TAJ_DEADLINE_MS / TAJ_MAX_MEMORY_MB / TAJ_FAIL_AT environment
  /// variables onto \p Base, filling only limits \p Base leaves unset —
  /// explicit configuration always beats the environment. A value is read
  /// as strictly as its command-line flag: a fully consumed non-negative
  /// number, and an integer for the memory ceiling and the checkpoint
  /// counts. Any other value counts as unset.
  static Limits limitsFromEnv(Limits Base);
  static Limits limitsFromEnv() { return limitsFromEnv(Limits()); }

  /// Marks the start of pipeline phase \p Ph; subsequent work (and a
  /// cutoff, if one happens) is attributed to it.
  void beginPhase(RunPhase Ph) {
    uint64_t C = Checkpoints.load(std::memory_order_relaxed);
    PhaseWorkAcc[static_cast<size_t>(CurPhase)] += C - PhaseStartWork;
    CurPhase = Ph;
    PhaseStartWork = C;
  }

  /// Total checkpoints attributed to phase \p Ph so far.
  uint64_t workOf(RunPhase Ph) const {
    uint64_t W = PhaseWorkAcc[static_cast<size_t>(Ph)];
    if (Ph == CurPhase)
      W += Checkpoints.load(std::memory_order_relaxed) - PhaseStartWork;
    return W;
  }

  /// One unit of work. Returns true to continue, false once the run is
  /// stopped; cheap enough for per-iteration use in hot loops. Every
  /// check a checkpoint can trip — a crash, hang or fail-at limit reached,
  /// a pending cancel, and the deadline and memory poll at every
  /// PollInterval-th checkpoint — is due only once the count reaches
  /// NextSlow, so the inline path is the stop test, the bump and one
  /// compare, and the rest runs out of line.
  bool checkpoint() {
    if (StopFlag.load(std::memory_order_acquire))
      return false;
    const uint64_t C = Checkpoints.load(std::memory_order_relaxed) + 1;
    Checkpoints.store(C, std::memory_order_relaxed);
    if (C < NextSlow.load(std::memory_order_relaxed))
      return true;
    return slowCheckpoint(C);
  }

  /// Credits \p Units of work that an earlier run recorded for the current
  /// phase (a warm start restoring that phase's result) without polling
  /// any limit, so the phase reports the work of the run that computed it.
  /// A limit the credit jumps past trips at the next checkpoint.
  void replayWork(uint64_t Units) {
    Checkpoints.fetch_add(Units, std::memory_order_relaxed);
  }

  /// True once any limit has tripped (sticky).
  bool stopped() const { return StopFlag.load(std::memory_order_acquire); }

  /// Requests cooperative cancellation; safe from any thread. Takes effect
  /// at the next checkpoint: clearing NextSlow sends it down the slow
  /// path, which reads the flag (see slowCheckpoint for the other half of
  /// the handshake).
  void cancel() {
    CancelFlag.store(true);
    NextSlow.store(0);
  }

  /// Records an unexpected internal failure as the cutoff.
  void markInternalError() { stop(CutoffReason::InternalError); }

  /// The limits this guard enforces (after any environment overlay the
  /// creator applied). Lets callers detect fault-injection runs, which
  /// must bypass the artifact cache.
  const Limits &limits() const { return Lim; }

  CutoffReason reason() const { return Reason; }
  /// Phase the cutoff happened in (meaningful only when stopped()).
  RunPhase cutoffPhase() const { return CutPhase; }
  /// Total checkpoints passed so far.
  uint64_t checkpointCount() const {
    return Checkpoints.load(std::memory_order_relaxed);
  }
  /// Milliseconds since the guard was constructed.
  double elapsedMs() const { return T.elapsedMs(); }

  /// Exports guard.checkpoints / guard.cutoff.<reason> counters (§ stats).
  void exportStats(Stats &S) const;

  /// Current resident set size in bytes (0 when unknown on this platform).
  static uint64_t currentRssBytes();

private:
  /// Deadline/memory checks are amortized over this many checkpoints
  /// (must be a power of two).
  static constexpr uint64_t PollInterval = 128;

  /// checkpoint() once the count reaches NextSlow: the checks of
  /// checkpoint \p C, in order: crash-at, hang-at, fail-at, cancel, then
  /// the deadline and memory poll when \p C is a multiple of PollInterval.
  /// False once one of them stops the run; otherwise re-arms NextSlow to
  /// the first checkpoint after \p C at which a check is due: the next
  /// multiple of PollInterval, lowered to the nearest crash-at, hang-at or
  /// fail-at limit above \p C.
  bool slowCheckpoint(uint64_t C);

  /// Terminates the process abnormally (abort() or raise(CrashSignal)).
  [[noreturn]] void crashNow() const;
  /// Blocks this thread forever (interruptible only by signals).
  [[noreturn]] static void hangForever();

  bool stop(CutoffReason R) {
    // The first stop wins. It records the cutoff details and only then
    // publishes StopFlag with release order, so any thread observing
    // stopped() also observes Reason and CutPhase.
    if (!StopFlag.load(std::memory_order_relaxed)) {
      Reason = R;
      CutPhase = CurPhase;
      StopFlag.store(true, std::memory_order_release);
      traceGuardStop(R, CurPhase); // one-shot, off the hot path
    }
    return false;
  }

  bool poll() {
    if (Lim.DeadlineMs > 0 && T.elapsedMs() > Lim.DeadlineMs)
      return stop(CutoffReason::Deadline);
    if (Lim.MaxMemoryBytes != 0) {
      uint64_t Rss = currentRssBytes();
      if (Rss != 0 && Rss > Lim.MaxMemoryBytes)
        return stop(CutoffReason::Memory);
    }
    return true;
  }

  Limits Lim;
  Timer T;
  std::atomic<uint64_t> Checkpoints{0};
  /// The count at which checkpoint() next takes the slow path. Zero until
  /// the first checkpoint arms it, and again after cancel().
  std::atomic<uint64_t> NextSlow{0};
  uint64_t PhaseStartWork = 0;
  uint64_t PhaseWorkAcc[3] = {0, 0, 0};
  RunPhase CurPhase = RunPhase::PointerAnalysis;
  RunPhase CutPhase = RunPhase::PointerAnalysis;
  CutoffReason Reason = CutoffReason::None;
  std::atomic<bool> StopFlag{false};
  std::atomic<bool> CancelFlag{false};
};

} // namespace taj

#endif // TAJ_SUPPORT_RUNGUARD_H
