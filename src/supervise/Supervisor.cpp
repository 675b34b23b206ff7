//===- supervise/Supervisor.cpp - Worker supervision helpers --------------===//

#include "supervise/Supervisor.h"

#include "support/Stats.h"

#include <cstdio>
#include <cstdlib>
#include <new>

#include <csignal>
#include <sys/wait.h>
#include <unistd.h>

using namespace taj;
using namespace taj::supervise;

ExitClass supervise::classifyWaitStatus(int WaitStatus, bool WatchdogKilled) {
  if (WIFEXITED(WaitStatus)) {
    switch (WEXITSTATUS(WaitStatus)) {
    case 0:
      return ExitClass::Clean;
    case 2:
      return ExitClass::Truncated;
    case WorkerOomExitCode:
      return ExitClass::Oom;
    default:
      return ExitClass::Error;
    }
  }
  if (WIFSIGNALED(WaitStatus)) {
    int Sig = WTERMSIG(WaitStatus);
    // The watchdog owns every signal it delivered, whatever it was; the
    // CPU rlimit's SIGXCPU is morally the same cutoff.
    if (WatchdogKilled || Sig == SIGXCPU)
      return ExitClass::Timeout;
    // An unsolicited SIGKILL is the kernel OOM killer's signature (no
    // user-space party in this design sends it).
    if (Sig == SIGKILL)
      return ExitClass::Oom;
    return ExitClass::Crashed;
  }
  return ExitClass::Error;
}

void supervise::deriveHardLimits(const RunGuard::Limits &Coop,
                                 SupervisorConfig &C) {
  // Backstops sit well above the cooperative limits: RunGuard should win
  // the race in a healthy worker, the watchdog only in a wedged one.
  C.HardDeadlineMs = Coop.DeadlineMs > 0 ? Coop.DeadlineMs * 2 + 1000 : 0;
  C.HardMemoryBytes = Coop.MaxMemoryBytes != 0 ? Coop.MaxMemoryBytes * 2 : 0;
  const char *E;
  if ((E = std::getenv("TAJ_HARD_DEADLINE_MS")))
    C.HardDeadlineMs = std::atof(E);
  if ((E = std::getenv("TAJ_HARD_MAX_MEMORY_MB")))
    C.HardMemoryBytes = static_cast<uint64_t>(std::atoll(E)) * 1024 * 1024;
  if ((E = std::getenv("TAJ_WATCHDOG_GRACE_MS")))
    C.GraceMs = std::atof(E);
  // CPU backstop: generous (slicing may run many threads), but finite
  // whenever a wall-clock watchdog is armed.
  C.CpuLimitSec = C.HardDeadlineMs > 0
                      ? (static_cast<uint64_t>(C.HardDeadlineMs) / 1000 + 1) *
                            16
                      : 0;
}

uint64_t supervise::recoverWorkerStats(const std::string &StatsText,
                                       const std::string &App, Stats *Merged,
                                       uint64_t &ParseFailures) {
  if (StatsText.empty())
    return 0; // a crashed worker never sent its counters
  // Parse straight into the merge target: a pool coordinator recovers
  // every request's counters, and a private copy per request costs as
  // much as the parse. The worker's cli.issues is what the parse added.
  Stats Scratch;
  Stats &Into = Merged ? *Merged : Scratch;
  const uint64_t Issues0 = Into.get("cli.issues");
  if (!Into.mergeJson(StatsText)) {
    // mergeJson applies every counter up to the malformed line, so a torn
    // write (e.g. a worker killed mid-flush) still contributes what it
    // managed to say — but the loss is surfaced, not silent.
    ParseFailures += 1;
    std::fprintf(stderr,
                 "taj-supervise: malformed --stats-json from worker '%s'; "
                 "merging only the counters that parsed\n",
                 App.c_str());
  }
  return Into.get("cli.issues") - Issues0;
}

void supervise::installWorkerOomHandler() {
  // Under RLIMIT_AS a failed allocation raises bad_alloc wherever the
  // worker happens to be; the default unwind ends in std::terminate ->
  // SIGABRT, indistinguishable from a genuine crash. Dying with the
  // reserved exit code instead lets the supervisor classify it as oom.
  std::set_new_handler([] { ::_exit(WorkerOomExitCode); });
}
