//===- server/Server.h - Supervised worker pool -----------------*- C++ -*-===//
//
// Part of the TAJ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one supervised worker pool behind both multi-process modes of
/// taj-cli: the analysis daemon (`--serve=SOCKET`) and the supervised
/// batch (`--batch=LIST --jobs=N`). It is the non-cooperative half of
/// TAJ's bounded-analysis discipline (§6): RunGuard degrades a run only at
/// checkpoints the run reaches, while a segfault, an OOM kill or a hang
/// between checkpoints takes down only the worker process it happened in.
///
/// Architecture (single-threaded coordinator, process-isolated workers):
///
///   clients --UNIX socket--> daemon --socketpair--> worker[0..N)
///   batch list -------------> coordinator --socketpair--> worker[0..N)
///
/// One poll() loop drives both. Requests queue FIFO and are dispatched
/// to idle workers as one framed request each; the config is re-encoded
/// through the canonical encodeRunOptions() form, so a served request and
/// a batch attempt are bit-for-bit the same run. Shared supervision:
///
///  - a per-attempt watchdog: the hard deadline is derived from the
///    request's cooperative limits via deriveHardLimits (2x + 1s;
///    TAJ_HARD_DEADLINE_MS / TAJ_WATCHDOG_GRACE_MS overridable), with
///    SIGTERM -> SIGKILL escalation;
///  - six-way classification of dead workers (classifyWaitStatus: clean /
///    truncated / error / crashed / timeout / oom). Workers install an
///    allocation-failure new-handler, so bad_alloc dies as
///    WorkerOomExitCode -> oom;
///  - one degraded-config retry path (degradeForRetry) before a crash,
///    timeout or OOM becomes the terminal outcome;
///  - one JSONL journal writer (server/Journal.h), one stats merge
///    (recoverWorkerStats) and one merged trace timeline, each attempt a
///    span on its worker slot's synthetic lane (tid 1000+slot).
///
/// What differs between the modes:
///
///  - serve: PoolSize workers are pre-forked and persistent. Each keeps
///    one ArtifactCache warm across requests: the shared on-disk tier plus
///    a private in-memory hot tier (ArtifactCache::enableHotTier), so a
///    repeat request skips process start, disk reads and checksum
///    re-verification. A bounded admission queue (QueueDepth) answers
///    `busy` when full; a crashed worker is respawned; SIGTERM/SIGINT
///    drains (socket closed and unlinked, queued requests answered
///    `shutting-down`, in-flight ones finished, artifacts flushed, exit
///    0). Counters: server.*. No rlimits: one persistent worker serves
///    requests with different budgets, and a lowered rlimit cannot be
///    raised again.
///  - batch: no listen socket. The list is the queue, each output framed
///    `=== name` / report / `--- name: exit=E issues=N` in list order,
///    each app's diagnostics on stderr after its `=== name` line, in the
///    same order, and the exit code is the worst of all apps (error >
///    truncated > clean). `--resume` skips apps the journal already holds
///    a terminal record for. Counters: supervise.*; spans: `worker: <app>
///    (attempt N)`. Workers are one-shot: every attempt forks a fresh child
///    that sets RLIMIT_AS / RLIMIT_CPU and PR_SET_PDEATHSIG, drops the
///    fault-injection environment on retries, and opens the disk cache
///    only under --cache-dir, with no hot tier. One-shot because
///    RLIMIT_CPU caps a process's cumulative CPU time: a worker that
///    outlived its attempt would turn the per-app limit into a per-batch
///    one.
///
//===----------------------------------------------------------------------===//

#ifndef TAJ_SERVER_SERVER_H
#define TAJ_SERVER_SERVER_H

#include "server/Protocol.h"
#include "server/Service.h"
#include "support/RunGuard.h"

#include <cstdint>
#include <string>
#include <vector>

namespace taj {
namespace server {

/// Everything the pool needs: pool shape, retry budget, the base analysis
/// options, cache configuration and artifact destinations. SocketPath,
/// QueueDepth and HotMaxMb apply to the daemon only.
struct ServerOptions {
  std::string SocketPath;
  unsigned PoolSize = 2;
  unsigned QueueDepth = 16;
  unsigned MaxRetries = 1;
  RunOptions Base;
  std::string CacheDir; ///< "" = no disk tier (workers run memory-only)
  uint64_t CacheMaxMb = 0;
  uint64_t HotMaxMb = 256; ///< per-worker hot-tier byte cap (0 = uncapped)
  std::string JournalPath;
  std::string StatsJsonPath;
  std::string TracePath;
};

/// Runs the daemon until a drain signal, serving requests on
/// O.SocketPath. Returns the process exit code: 0 after a clean drain,
/// ExitError when the socket cannot be set up.
int runServer(const ServerOptions &O);

/// One batch list entry: the .taj files forming one app.
struct BatchApp {
  std::string Name; ///< display name: files joined by spaces
  std::vector<std::string> Files;
};

/// Runs every app of \p Apps to a terminal outcome on O.PoolSize one-shot
/// workers, printing the batch framing in list order, and writes the
/// stats/trace artifacts. \p Resume skips apps with a terminal record in
/// O.JournalPath. Returns the worst-of exit code.
int runBatch(const ServerOptions &O, const std::vector<BatchApp> &Apps,
             bool Resume);

/// Reserved worker exit code announcing an allocation failure while
/// running under a RLIMIT_AS ceiling (every worker installs a new-handler
/// that dies with it). Outside the 0/1/2 CLI exit contract, so it cannot
/// be confused with a real analysis outcome.
constexpr int WorkerOomExitCode = 17;

/// Exit code of a one-shot worker that ended without receiving its
/// request (its coordinator closed the pair first); classified as error.
constexpr int WorkerSpawnFailExitCode = 127;

/// Pure classification of a worker's waitpid status. \p WatchdogKilled
/// tells whether the coordinator's watchdog delivered the fatal signal.
/// An exit code classifies like a worker's answer (0 clean, 2 truncated,
/// WorkerOomExitCode oom, anything else error); SIGXCPU is a timeout (the
/// RLIMIT_CPU backstop); an un-asked-for SIGKILL is the kernel OOM
/// killer's signature.
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
/// memory ceiling, RLIMIT_CPU from the hard deadline (none when the hard
/// deadline is past uint64_t's range). The
/// TAJ_HARD_DEADLINE_MS / TAJ_HARD_MAX_MEMORY_MB / TAJ_WATCHDOG_GRACE_MS
/// environment knobs override (0 disables), letting operators arm the
/// watchdog even for runs with no cooperative limits. They are read like
/// their neighbours (support/Number.h): a value a flag would reject counts
/// as unset.
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

} // namespace server
} // namespace taj

#endif // TAJ_SERVER_SERVER_H
