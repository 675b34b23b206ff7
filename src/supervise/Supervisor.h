//===- supervise/Supervisor.h - Worker supervision helpers -----*- C++ -*-===//
//
// Part of the TAJ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The pure pieces of the non-cooperative half of TAJ's bounded-analysis
/// discipline (§6). RunGuard degrades a run gracefully, but only at
/// checkpoints the run reaches; a segfault, an OOM kill or a hard hang
/// between checkpoints is outside its reach. The supervised worker pool
/// (server/Server.h) contains those failures in worker processes, one
/// pool serving both the `--serve` daemon and `--batch --jobs=N`, and
/// builds on these helpers:
///
///  - deriveHardLimits: the backstops — a wall-clock watchdog deadline
///    (SIGTERM, then SIGKILL after a grace period) and the RLIMIT_AS /
///    RLIMIT_CPU ceilings batch workers run under — derived from the
///    cooperative memory/deadline limits;
///  - classifyWaitStatus: a dead worker's wait status as clean /
///    truncated / error / crashed(signal) / timeout / oom;
///  - recoverWorkerStats: a finished worker's --stats-json counters,
///    merged even when torn;
///  - installWorkerOomHandler: the worker-side arming that turns an
///    allocation failure under RLIMIT_AS into a deterministic exit code.
///
/// The append-only attempt journal behind `--resume` is supervise/
/// Journal.h.
///
//===----------------------------------------------------------------------===//

#ifndef TAJ_SUPERVISE_SUPERVISOR_H
#define TAJ_SUPERVISE_SUPERVISOR_H

#include "supervise/Journal.h"
#include "support/RunGuard.h"
#include "support/Stats.h"

#include <cstdint>
#include <string>

namespace taj {
namespace supervise {

/// Reserved worker exit code announcing an allocation failure while
/// running under a RLIMIT_AS ceiling (the worker installs a new-handler
/// that dies with this code; see installWorkerOomHandler). Outside the
/// 0/1/2 CLI exit contract, so it cannot be confused with a real analysis
/// outcome.
constexpr int WorkerOomExitCode = 17;

/// Exit code of a one-shot worker that ended without receiving its
/// request (its coordinator closed the pair first); classified as error.
constexpr int WorkerSpawnFailExitCode = 127;

/// Pure classification of a worker's waitpid status. \p WatchdogKilled
/// tells whether the supervisor's watchdog delivered the fatal signal.
/// SIGXCPU is a timeout (the RLIMIT_CPU backstop); an un-asked-for
/// SIGKILL is the kernel OOM killer's signature; WorkerOomExitCode is the
/// worker self-reporting allocation failure under RLIMIT_AS.
ExitClass classifyWaitStatus(int WaitStatus, bool WatchdogKilled);

/// The non-cooperative backstops of one worker attempt.
struct SupervisorConfig {
  /// Watchdog wall-clock limit per attempt in ms (0 = no watchdog).
  double HardDeadlineMs = 0;
  /// SIGTERM -> SIGKILL escalation grace in ms.
  double GraceMs = 2000;
  /// RLIMIT_AS ceiling in bytes (0 = none).
  uint64_t HardMemoryBytes = 0;
  /// RLIMIT_CPU ceiling in seconds (0 = none).
  uint64_t CpuLimitSec = 0;
};

/// Fills the non-cooperative backstop limits of \p C from the cooperative
/// ones: hard deadline = 2x cooperative + 1s, RLIMIT_AS = 2x cooperative
/// memory ceiling, RLIMIT_CPU from the hard deadline. The
/// TAJ_HARD_DEADLINE_MS / TAJ_HARD_MAX_MEMORY_MB / TAJ_WATCHDOG_GRACE_MS
/// environment knobs override (0 disables), letting operators arm the
/// watchdog even for runs with no cooperative limits.
void deriveHardLimits(const RunGuard::Limits &Coop, SupervisorConfig &C);

/// Recovers a finished worker's --stats-json counters: merges everything
/// that parsed into \p Merged (when non-null) and returns the worker's
/// cli.issues count. An empty \p StatsText is normal (a crashed worker
/// never sent its counters) and not an error. Malformed JSON increments
/// \p ParseFailures and emits a stderr diagnostic naming \p App — the
/// counters that did parse are still merged, so a torn write surfaces
/// instead of silently dropping the worker's data.
uint64_t recoverWorkerStats(const std::string &StatsText,
                            const std::string &App, Stats *Merged,
                            uint64_t &ParseFailures);

/// Worker-side arming, called first thing in every forked pool worker:
/// installs a new-handler that turns an allocation failure under
/// RLIMIT_AS into a deterministic _exit(WorkerOomExitCode) instead of an
/// uncatchable bad_alloc abort.
void installWorkerOomHandler();

} // namespace supervise
} // namespace taj

#endif // TAJ_SUPERVISE_SUPERVISOR_H
