//===- support/RunGuard.cpp ------------------------------------*- C++ -*-===//

#include "support/RunGuard.h"

#include "support/Number.h"
#include "support/Trace.h"

#include <chrono>
#include <climits>
#include <csignal>
#include <cstdlib>
#include <thread>

#if defined(__linux__)
#include <fcntl.h>
#include <pthread.h>
#include <unistd.h>
#endif

using namespace taj;

const char *taj::phaseName(RunPhase P) {
  switch (P) {
  case RunPhase::PointerAnalysis:
    return "pointer-analysis";
  case RunPhase::SdgBuild:
    return "sdg-build";
  case RunPhase::Slicing:
    return "slicing";
  }
  return "unknown";
}

const char *taj::cutoffReasonName(CutoffReason R) {
  switch (R) {
  case CutoffReason::None:
    return "none";
  case CutoffReason::Deadline:
    return "deadline";
  case CutoffReason::Memory:
    return "memory";
  case CutoffReason::NodeBudget:
    return "node-budget";
  case CutoffReason::Cancelled:
    return "cancelled";
  case CutoffReason::FaultInjected:
    return "fault-injected";
  case CutoffReason::InternalError:
    return "internal-error";
  }
  return "unknown";
}

const char *taj::phaseOutcomeName(PhaseOutcome O) {
  switch (O) {
  case PhaseOutcome::Completed:
    return "completed";
  case PhaseOutcome::Truncated:
    return "truncated";
  case PhaseOutcome::Skipped:
    return "skipped";
  }
  return "unknown";
}

std::string RunStatus::toString() const {
  std::string Out;
  for (const PhaseReport &PR : Phases) {
    if (!Out.empty())
      Out += "; ";
    Out += phaseName(PR.Phase);
    Out += ": ";
    Out += phaseOutcomeName(PR.Outcome);
    if (PR.Outcome != PhaseOutcome::Completed &&
        PR.Reason != CutoffReason::None) {
      Out += " (";
      Out += cutoffReasonName(PR.Reason);
      Out += ')';
    }
    if (PR.Outcome == PhaseOutcome::Truncated) {
      Out += " after ";
      Out += std::to_string(PR.WorkDone);
      Out += " units";
    }
  }
  return Out;
}

void taj::traceGuardStop(CutoffReason R, RunPhase P) {
  trace::addInstant(std::string("guard-stop: ") + cutoffReasonName(R) +
                        " in " + phaseName(P),
                    "guard");
}

RunGuard::Limits RunGuard::limitsFromEnv(Limits Base) {
  // The environment only fills limits the caller left unset, so explicit
  // configuration (e.g. CLI flags) always wins over TAJ_* variables.
  // Each variable is read as strictly as its flag (support/Number.h), and
  // a refused value leaves its limit untouched.
  uint64_t U;
  if (Base.DeadlineMs <= 0)
    parseNumber(std::getenv("TAJ_DEADLINE_MS"), Base.DeadlineMs);
  if (Base.MaxMemoryBytes == 0 &&
      parseInteger(std::getenv("TAJ_MAX_MEMORY_MB"), MaxMebibytes, U) ==
          NumberParse::Ok)
    Base.MaxMemoryBytes = mebibytes(U);
  if (Base.FailAtCheckpoint == 0)
    parseInteger(std::getenv("TAJ_FAIL_AT"), MaxExactU64,
                 Base.FailAtCheckpoint);
  if (Base.CrashAtCheckpoint == 0)
    parseInteger(std::getenv("TAJ_CRASH_AT"), MaxExactU64,
                 Base.CrashAtCheckpoint);
  if (Base.CrashSignal == 0 &&
      parseInteger(std::getenv("TAJ_CRASH_SIGNAL"), INT_MAX, U) ==
          NumberParse::Ok)
    Base.CrashSignal = static_cast<int>(U);
  if (Base.HangAtCheckpoint == 0)
    parseInteger(std::getenv("TAJ_HANG_AT"), MaxExactU64,
                 Base.HangAtCheckpoint);
  return Base;
}

bool RunGuard::slowCheckpoint(uint64_t C) {
  if (Lim.CrashAtCheckpoint != 0 && C >= Lim.CrashAtCheckpoint)
    crashNow(); // does not return
  if (Lim.HangAtCheckpoint != 0 && C >= Lim.HangAtCheckpoint)
    hangForever(); // does not return
  if (Lim.FailAtCheckpoint != 0 && C >= Lim.FailAtCheckpoint)
    return stop(CutoffReason::FaultInjected);
  if (CancelFlag.load())
    return stop(CutoffReason::Cancelled);
  if ((C & (PollInterval - 1)) == 0 && !poll())
    return false;
  uint64_t Next = (C | (PollInterval - 1)) + 1;
  for (const uint64_t L :
       {Lim.CrashAtCheckpoint, Lim.HangAtCheckpoint, Lim.FailAtCheckpoint})
    if (L > C && L < Next)
      Next = L;
  // Store-then-load against cancel()'s store-then-store, all sequentially
  // consistent: if this load misses the cancel flag, the cancel's zero
  // lands after the store here, so either way the next checkpoint takes
  // the slow path and sees the flag.
  NextSlow.store(Next);
  if (CancelFlag.load())
    NextSlow.store(0);
  return true;
}

void RunGuard::crashNow() const {
  if (Lim.CrashSignal != 0) {
    ::raise(Lim.CrashSignal);
    // A caught/ignored signal must still kill the process: the whole
    // point of the injection is an abnormal death.
  }
  std::abort();
}

void RunGuard::hangForever() {
  for (;;)
    std::this_thread::sleep_for(std::chrono::seconds(1));
}

void RunGuard::exportStats(Stats &S) const {
  S.add("guard.checkpoints", checkpointCount());
  if (stopped()) {
    S.add(std::string("guard.cutoff.") + cutoffReasonName(Reason));
    S.add(std::string("guard.cutoff_phase.") + phaseName(CutPhase));
  }
}

#if defined(__linux__)
namespace {

/// The calling thread's descriptor on /proc/self/statm. /proc/self binds
/// to the process that opened it, so a forked child (a pool worker) must
/// not read the copy it inherits from the forking thread: the fork handler
/// below closes it in the child, which then opens its own.
struct StatmFd {
  int Fd = -1;
  StatmFd() = default;
  StatmFd(const StatmFd &) = delete;
  StatmFd &operator=(const StatmFd &) = delete;
  ~StatmFd() {
    if (Fd >= 0)
      ::close(Fd);
  }
};

thread_local StatmFd Statm;

/// Runs in a forked child, on the only thread it has: the one that called
/// fork(), whose descriptor is the only one the child can reach.
void closeInheritedStatm() {
  if (Statm.Fd >= 0) {
    ::close(Statm.Fd);
    Statm.Fd = -1;
  }
}

} // namespace
#endif

uint64_t RunGuard::currentRssBytes() {
#if defined(__linux__)
  // /proc/self/statm field 2 is the resident set in pages. Each thread
  // opens the file once per process and re-reads it with pread: a
  // fopen/scan/fclose per sample cost 4x as much, and PhaseProfile samples
  // on every phase push and pop. The fork handler is registered before the
  // first descriptor is opened, so no process can inherit one unnoticed.
  static const bool ForkHandler =
      ::pthread_atfork(nullptr, nullptr, closeInheritedStatm) == 0;
  static const uint64_t Page = [] {
    const long P = sysconf(_SC_PAGESIZE);
    return static_cast<uint64_t>(P > 0 ? P : 4096);
  }();
  if (!ForkHandler)
    return 0;
  if (Statm.Fd < 0) {
    Statm.Fd = ::open("/proc/self/statm", O_RDONLY | O_CLOEXEC);
    if (Statm.Fd < 0)
      return 0;
  }
  char Buf[128];
  const ssize_t N = ::pread(Statm.Fd, Buf, sizeof(Buf) - 1, 0);
  if (N <= 0)
    return 0;
  Buf[N] = '\0';
  char *End = nullptr;
  std::strtoull(Buf, &End, 10); // total program size
  const char *ResidentAt = End;
  const unsigned long long Resident = std::strtoull(ResidentAt, &End, 10);
  if (End == ResidentAt)
    return 0;
  return Resident * Page;
#else
  return 0;
#endif
}
