//===- tests/supervise_test.cpp - Process-level supervision --------------===//
//
// The supervisor is the non-cooperative backstop to RunGuard: a batch must
// survive workers that crash, hang, or are OOM-killed between checkpoints.
// These tests pin down that contract:
//  - wait-status classification (clean / truncated / error / crashed /
//    timeout / oom) over crafted statuses and real worker deaths;
//  - the retry ladder: a crashed or hung app re-runs once, degraded, and
//    recovers; with the budget spent it is a terminal error;
//  - the JSONL journal round-trips, tolerates torn tails, and drives
//    --resume (including after the supervisor itself is SIGKILLed);
//  - --jobs=1 and --jobs=N stdout is byte-identical to the in-process
//    --jobs=0 batch loop, and so is stderr: each app's diagnostics come
//    out in list order;
//  - workers die with the supervisor (no orphans);
//  - a batch whose workers cannot start still finishes;
//  - one-shot batch workers run under the RLIMIT_AS / RLIMIT_CPU
//    backstops, persistent --serve pool workers do not;
//  - numeric CLI flags range-check instead of silently wrapping.
//
//===----------------------------------------------------------------------===//

#include "server/Journal.h"
#include "server/Server.h"

#include <gtest/gtest.h>

#include <cctype>
#include <cerrno>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <csignal>
#include <fcntl.h>
#include <linux/audit.h>
#include <linux/filter.h>
#include <linux/seccomp.h>
#include <sched.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace taj;
using namespace taj::server;
namespace fs = std::filesystem;

namespace {

/// Self-cleaning scratch directory for one test.
struct TempDir {
  std::string Path;
  TempDir() {
    char Buf[] = "/tmp/taj-supervise-XXXXXX";
    const char *D = ::mkdtemp(Buf);
    EXPECT_NE(D, nullptr);
    Path = D ? D : "";
  }
  ~TempDir() {
    if (!Path.empty()) {
      std::error_code Ec;
      fs::remove_all(Path, Ec);
    }
  }
};

/// Reads a file through stdio: a /proc file whose process exits mid-scan
/// fails its read (ESRCH), which a filebuf reports by throwing; here it
/// just ends the text.
std::string readWhole(const std::string &Path) {
  std::string Text;
  if (std::FILE *F = std::fopen(Path.c_str(), "rb")) {
    char Buf[4096];
    size_t N;
    while ((N = std::fread(Buf, 1, sizeof(Buf), F)) > 0)
      Text.append(Buf, N);
    std::fclose(F);
  }
  return Text;
}

void writeWhole(const std::string &Path, const std::string &Text) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out << Text;
}

/// Runs taj-cli through a shell (so env-var prefixes work), capturing
/// stdout+stderr merged.
std::string runCli(const std::string &Args, int &ExitCode) {
  // Args may carry leading "VAR=x" env prefixes; splice the binary in
  // after any such assignments.
  size_t Split = 0;
  while (true) {
    size_t SpaceAt = Args.find(' ', Split);
    std::string Tok = Args.substr(Split, SpaceAt - Split);
    if (Tok.find('=') == std::string::npos || Tok.compare(0, 2, "--") == 0)
      break;
    if (SpaceAt == std::string::npos) {
      Split = Args.size();
      break;
    }
    Split = SpaceAt + 1;
  }
  std::string Cmd = Args.substr(0, Split) + std::string(TAJ_CLI_PATH) + " " +
                    Args.substr(Split) + " 2>&1";
  FILE *P = ::popen(Cmd.c_str(), "r");
  EXPECT_NE(P, nullptr);
  std::string Out;
  char Buf[4096];
  size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), P)) > 0)
    Out.append(Buf, N);
  int St = ::pclose(P);
  ExitCode = WIFEXITED(St) ? WEXITSTATUS(St) : -1;
  return Out;
}

/// Writes a batch list of \p Copies lines naming the example app.
std::string writeList(const TempDir &T, int Copies) {
  std::string Path = T.Path + "/list.txt";
  std::string Text;
  for (int I = 0; I < Copies; ++I)
    Text += std::string(TAJ_EXAMPLE_TAJ) + "\n";
  writeWhole(Path, Text);
  return Path;
}

/// Extracts an integer counter from a --stats-json file ("missing" = -1).
long long statOf(const std::string &JsonPath, const std::string &Name) {
  std::string J = readWhole(JsonPath);
  std::string Needle = "\"" + Name + "\":";
  size_t At = J.find(Needle);
  if (At == std::string::npos)
    return -1;
  return std::atoll(J.c_str() + At + Needle.size());
}

/// Pid of a live process other than \p Exclude whose command line carries
/// \p Marker, or -1. Forked pool workers inherit their coordinator's
/// command line, so a unique --cache-dir path identifies them.
pid_t findMarkedProcess(const std::string &Marker, pid_t Exclude) {
  for (const auto &DE : fs::directory_iterator("/proc")) {
    std::string Name = DE.path().filename().string();
    if (Name.empty() || !std::isdigit(static_cast<unsigned char>(Name[0])))
      continue;
    if (std::to_string(Exclude) == Name)
      continue;
    if (readWhole((DE.path() / "cmdline").string()).find(Marker) !=
        std::string::npos)
      return static_cast<pid_t>(std::atol(Name.c_str()));
  }
  return -1;
}

/// Polls for a marked process (see findMarkedProcess) for up to 10 s.
pid_t awaitMarkedProcess(const std::string &Marker, pid_t Exclude) {
  for (int I = 0; I < 2000; ++I) {
    pid_t Pid = findMarkedProcess(Marker, Exclude);
    if (Pid >= 0)
      return Pid;
    ::usleep(5 * 1000);
  }
  return -1;
}

/// The soft value of one /proc/<pid>/limits row, e.g. "976" for
/// "Max cpu time  976  981  seconds" ("" when unreadable).
std::string softLimit(pid_t Pid, const std::string &Row) {
  std::istringstream In(readWhole("/proc/" + std::to_string(Pid) + "/limits"));
  std::string Line;
  while (std::getline(In, Line))
    if (Line.compare(0, Row.size(), Row) == 0) {
      std::istringstream Fields(Line.substr(Row.size()));
      std::string Soft;
      Fields >> Soft;
      return Soft;
    }
  return "";
}

/// Starts taj-cli with \p Args through /bin/sh under the hard-limit
/// environment knobs; the returned pid is taj-cli itself (exec).
pid_t startUnderHardLimits(const std::string &Args) {
  pid_t Pid = ::fork();
  if (Pid == 0) {
    ::setenv("TAJ_HARD_MAX_MEMORY_MB", "4096", 1);
    ::setenv("TAJ_HARD_DEADLINE_MS", "60000", 1);
    std::string Cmd = "exec " + std::string(TAJ_CLI_PATH) + " " + Args +
                      " > /dev/null 2>&1";
    ::execl("/bin/sh", "sh", "-c", Cmd.c_str(), (char *)nullptr);
    ::_exit(127);
  }
  return Pid;
}

// ASan and TSan reserve terabytes of shadow address space, which cannot
// live under RLIMIT_AS; the rlimit tests skip under them.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool ShadowSanitizer = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr bool ShadowSanitizer = true;
#else
constexpr bool ShadowSanitizer = false;
#endif
#else
constexpr bool ShadowSanitizer = false;
#endif

#if defined(__x86_64__)
constexpr uint32_t AuditArch = AUDIT_ARCH_X86_64;
#elif defined(__aarch64__)
constexpr uint32_t AuditArch = AUDIT_ARCH_AARCH64;
#else
constexpr uint32_t AuditArch = 0;
#endif

/// Makes every later fork() of this process fail with EAGAIN, as under an
/// exhausted process limit, while threads (clone with CLONE_VM, which the
/// sanitizer runtimes also use) still start. clone3 answers ENOSYS, so
/// glibc falls back to clone, whose flags a filter can read. False when
/// the kernel refuses the filter.
bool forbidFork() {
  struct sock_filter F[] = {
      BPF_STMT(BPF_LD | BPF_W | BPF_ABS, offsetof(struct seccomp_data, arch)),
      BPF_JUMP(BPF_JMP | BPF_JEQ | BPF_K, AuditArch, 1, 0),
      BPF_STMT(BPF_RET | BPF_K, SECCOMP_RET_ALLOW),
      BPF_STMT(BPF_LD | BPF_W | BPF_ABS, offsetof(struct seccomp_data, nr)),
      BPF_JUMP(BPF_JMP | BPF_JEQ | BPF_K, __NR_clone3, 0, 1),
      BPF_STMT(BPF_RET | BPF_K, SECCOMP_RET_ERRNO | ENOSYS),
      BPF_JUMP(BPF_JMP | BPF_JEQ | BPF_K, __NR_clone, 1, 0),
      BPF_STMT(BPF_RET | BPF_K, SECCOMP_RET_ALLOW),
      // The low word of clone's flags (little-endian targets only).
      BPF_STMT(BPF_LD | BPF_W | BPF_ABS,
               offsetof(struct seccomp_data, args[0])),
      BPF_JUMP(BPF_JMP | BPF_JSET | BPF_K, CLONE_VM, 0, 1),
      BPF_STMT(BPF_RET | BPF_K, SECCOMP_RET_ALLOW),
      BPF_STMT(BPF_RET | BPF_K, SECCOMP_RET_ERRNO | EAGAIN),
  };
  struct sock_fprog Prog;
  Prog.len = sizeof(F) / sizeof(F[0]);
  Prog.filter = F;
  return ::prctl(PR_SET_NO_NEW_PRIVS, 1, 0, 0, 0) == 0 &&
         ::prctl(PR_SET_SECCOMP, SECCOMP_MODE_FILTER, &Prog) == 0;
}

int exitedStatus(int Code) { return Code << 8; } // WIFEXITED encoding
int signaledStatus(int Sig) { return Sig; }      // WIFSIGNALED encoding

//===----------------------------------------------------------------------===//
// Wait-status classification
//===----------------------------------------------------------------------===//

TEST(Classify, ExitCodesMapToClasses) {
  EXPECT_EQ(classifyWaitStatus(exitedStatus(0), false), ExitClass::Clean);
  EXPECT_EQ(classifyWaitStatus(exitedStatus(2), false), ExitClass::Truncated);
  EXPECT_EQ(classifyWaitStatus(exitedStatus(1), false), ExitClass::Error);
  EXPECT_EQ(classifyWaitStatus(exitedStatus(WorkerOomExitCode), false),
            ExitClass::Oom);
  EXPECT_EQ(classifyWaitStatus(exitedStatus(WorkerSpawnFailExitCode), false),
            ExitClass::Error);
  // A normal exit is never attributed to the watchdog.
  EXPECT_EQ(classifyWaitStatus(exitedStatus(0), true), ExitClass::Clean);
}

TEST(Classify, SignalsMapToClasses) {
  EXPECT_EQ(classifyWaitStatus(signaledStatus(SIGSEGV), false),
            ExitClass::Crashed);
  EXPECT_EQ(classifyWaitStatus(signaledStatus(SIGABRT), false),
            ExitClass::Crashed);
  // An unsolicited SIGKILL is the kernel OOM killer's signature...
  EXPECT_EQ(classifyWaitStatus(signaledStatus(SIGKILL), false), ExitClass::Oom);
  // ...but the watchdog owns every signal it delivered itself.
  EXPECT_EQ(classifyWaitStatus(signaledStatus(SIGKILL), true),
            ExitClass::Timeout);
  EXPECT_EQ(classifyWaitStatus(signaledStatus(SIGTERM), true),
            ExitClass::Timeout);
  EXPECT_EQ(classifyWaitStatus(signaledStatus(SIGTERM), false),
            ExitClass::Crashed);
  // RLIMIT_CPU's SIGXCPU is morally a timeout either way.
  EXPECT_EQ(classifyWaitStatus(signaledStatus(SIGXCPU), false),
            ExitClass::Timeout);
}

TEST(Classify, NamesRoundTripAndContributionsRank) {
  for (ExitClass C :
       {ExitClass::Clean, ExitClass::Truncated, ExitClass::Error,
        ExitClass::Crashed, ExitClass::Timeout, ExitClass::Oom}) {
    ExitClass Back;
    ASSERT_TRUE(exitClassFromName(exitClassName(C), Back));
    EXPECT_EQ(Back, C);
  }
  ExitClass Junk;
  EXPECT_FALSE(exitClassFromName("melted", Junk));
  EXPECT_EQ(exitCodeForStatus(statusFromExitClass(ExitClass::Clean)), 0);
  EXPECT_EQ(exitCodeForStatus(statusFromExitClass(ExitClass::Truncated)), 2);
  EXPECT_EQ(exitCodeForStatus(statusFromExitClass(ExitClass::Error)), 1);
  EXPECT_EQ(exitCodeForStatus(statusFromExitClass(ExitClass::Crashed)), 1);
  EXPECT_EQ(exitCodeForStatus(statusFromExitClass(ExitClass::Timeout)), 1);
  EXPECT_EQ(exitCodeForStatus(statusFromExitClass(ExitClass::Oom)), 1);
}

//===----------------------------------------------------------------------===//
// Journal
//===----------------------------------------------------------------------===//

TEST(JournalTest, LineRoundTripsIncludingEscapes) {
  Attempt A;
  A.Line = 7;
  A.App = "web \"quoted\" \\backslash.taj other.taj";
  A.ConfigFp = "deadbeefdeadbeef";
  A.AttemptNo = 2;
  A.Class = ExitClass::Crashed;
  A.Signal = SIGSEGV;
  A.Exit = -1;
  A.Issues = 42;
  A.Terminal = true;

  Attempt B;
  ASSERT_TRUE(Journal::fromLine(Journal::toLine(A), B));
  EXPECT_EQ(B.Line, A.Line);
  EXPECT_EQ(B.App, A.App);
  EXPECT_EQ(B.ConfigFp, A.ConfigFp);
  EXPECT_EQ(B.AttemptNo, A.AttemptNo);
  EXPECT_EQ(B.Class, A.Class);
  EXPECT_EQ(B.Signal, A.Signal);
  EXPECT_EQ(B.Exit, A.Exit);
  EXPECT_EQ(B.Issues, A.Issues);
  EXPECT_EQ(B.Terminal, A.Terminal);
}

TEST(JournalTest, LoadSkipsTornAndForeignLines) {
  TempDir T;
  std::string Path = T.Path + "/j.jsonl";
  Attempt A;
  A.Line = 0;
  A.App = "a.taj";
  A.ConfigFp = "00";
  A.Class = ExitClass::Clean;
  A.Exit = 0;
  A.Terminal = true;
  Attempt B = A;
  B.Line = 1;
  B.App = "b.taj";
  // Good, foreign, good, torn tail (the supervisor died mid-write).
  writeWhole(Path, Journal::toLine(A) + "\nnot json at all\n" +
                       Journal::toLine(B) + "\n{\"line\":2,\"app\":\"c.t");
  std::vector<Attempt> Got = Journal::load(Path);
  ASSERT_EQ(Got.size(), 2u);
  EXPECT_EQ(Got[0].App, "a.taj");
  EXPECT_EQ(Got[1].App, "b.taj");
}

TEST(JournalTest, MissingFileLoadsEmpty) {
  EXPECT_TRUE(Journal::load("/nonexistent/taj/journal.jsonl").empty());
}

TEST(JournalTest, AppendedRecordsLoadBack) {
  TempDir T;
  std::string Path = T.Path + "/j.jsonl";
  {
    Journal J(Path);
    for (unsigned I = 0; I < 3; ++I) {
      Attempt A;
      A.Line = I;
      A.App = "app" + std::to_string(I) + ".taj";
      A.ConfigFp = "fp";
      A.AttemptNo = I + 1;
      A.Class = ExitClass::Timeout;
      A.Signal = SIGKILL;
      A.Terminal = (I == 2);
      J.append(A);
    }
  }
  std::vector<Attempt> Got = Journal::load(Path);
  ASSERT_EQ(Got.size(), 3u);
  EXPECT_EQ(Got[2].App, "app2.taj");
  EXPECT_EQ(Got[2].Class, ExitClass::Timeout);
  EXPECT_TRUE(Got[2].Terminal);
  EXPECT_FALSE(Got[0].Terminal);
}

// The journal outlives the binary that wrote it (--resume reads it back),
// so its line format is pinned byte for byte, not only round-tripped.
TEST(JournalTest, LineFormatIsPinned) {
  Attempt A;
  A.Line = 3;
  A.App = "a.taj \"b\".taj";
  A.ConfigFp = "00ff00ff00ff00ff";
  A.AttemptNo = 2;
  A.Class = ExitClass::Crashed;
  A.Signal = 11;
  A.Exit = -1;
  A.Issues = 5;
  A.Terminal = false;
  EXPECT_EQ(Journal::toLine(A),
            "{\"line\":3,\"app\":\"a.taj \\\"b\\\".taj\","
            "\"config\":\"00ff00ff00ff00ff\",\"attempt\":2,"
            "\"class\":\"crashed\",\"signal\":11,\"exit\":-1,\"issues\":5,"
            "\"terminal\":false}");

  const ExitClass Classes[] = {ExitClass::Clean,   ExitClass::Truncated,
                               ExitClass::Error,   ExitClass::Crashed,
                               ExitClass::Timeout, ExitClass::Oom};
  const char *const Names[] = {"clean",   "truncated", "error",
                               "crashed", "timeout",   "oom"};
  for (size_t I = 0; I < 6; ++I)
    EXPECT_STREQ(exitClassName(Classes[I]), Names[I]);

  // A line in the format every earlier build wrote loads as it reads.
  TempDir T;
  const std::string Path = T.Path + "/j.jsonl";
  writeWhole(Path, "{\"line\":1,\"app\":\"examples/webapp.taj\","
                   "\"config\":\"0123456789abcdef\",\"attempt\":1,"
                   "\"class\":\"truncated\",\"signal\":0,\"exit\":2,"
                   "\"issues\":3,\"terminal\":true}\n");
  std::vector<Attempt> Got = Journal::load(Path);
  ASSERT_EQ(Got.size(), 1u);
  EXPECT_EQ(Got[0].Line, 1u);
  EXPECT_EQ(Got[0].App, "examples/webapp.taj");
  EXPECT_EQ(Got[0].ConfigFp, "0123456789abcdef");
  EXPECT_EQ(Got[0].AttemptNo, 1u);
  EXPECT_EQ(Got[0].Class, ExitClass::Truncated);
  EXPECT_EQ(Got[0].Signal, 0);
  EXPECT_EQ(Got[0].Exit, 2);
  EXPECT_EQ(Got[0].Issues, 3u);
  EXPECT_TRUE(Got[0].Terminal);
}

//===----------------------------------------------------------------------===//
// Hard-limit derivation
//===----------------------------------------------------------------------===//

TEST(HardLimits, DerivedFromCooperativeLimits) {
  RunGuard::Limits Coop;
  Coop.DeadlineMs = 1000;
  Coop.MaxMemoryBytes = 100ull * 1024 * 1024;
  SupervisorConfig C;
  deriveHardLimits(Coop, C);
  EXPECT_DOUBLE_EQ(C.HardDeadlineMs, 3000);
  EXPECT_EQ(C.HardMemoryBytes, 200ull * 1024 * 1024);
  EXPECT_EQ(C.CpuLimitSec, (3000 / 1000 + 1) * 16u);
}

TEST(HardLimits, UnlimitedStaysUnlimited) {
  SupervisorConfig C;
  deriveHardLimits(RunGuard::Limits(), C);
  EXPECT_DOUBLE_EQ(C.HardDeadlineMs, 0);
  EXPECT_EQ(C.HardMemoryBytes, 0u);
  EXPECT_EQ(C.CpuLimitSec, 0u);
}

TEST(HardLimits, EnvironmentOverrides) {
  ::setenv("TAJ_HARD_DEADLINE_MS", "500", 1);
  ::setenv("TAJ_HARD_MAX_MEMORY_MB", "64", 1);
  ::setenv("TAJ_WATCHDOG_GRACE_MS", "100", 1);
  RunGuard::Limits Coop;
  Coop.DeadlineMs = 1000;
  SupervisorConfig C;
  deriveHardLimits(Coop, C);
  ::unsetenv("TAJ_HARD_DEADLINE_MS");
  ::unsetenv("TAJ_HARD_MAX_MEMORY_MB");
  ::unsetenv("TAJ_WATCHDOG_GRACE_MS");
  EXPECT_DOUBLE_EQ(C.HardDeadlineMs, 500);
  EXPECT_EQ(C.HardMemoryBytes, 64ull * 1024 * 1024);
  EXPECT_DOUBLE_EQ(C.GraceMs, 100);
}

// The backstop variables are read like every other TAJ_* knob and like
// their flags: a value the flag parser would reject counts as unset (the
// derived limit stands), and a well-formed 0 still disables.
TEST(HardLimits, MalformedEnvironmentCountsAsUnset) {
  RunGuard::Limits Coop;
  Coop.DeadlineMs = 100;
  Coop.MaxMemoryBytes = 512ull * 1024 * 1024;
  auto Derive = [&](const char *Var, const char *Value) {
    ::setenv(Var, Value, 1);
    SupervisorConfig C;
    deriveHardLimits(Coop, C);
    ::unsetenv(Var);
    return C;
  };
  const uint64_t GiB = 1024ull * 1024 * 1024;
  for (const char *Bad : {"junk", "-5", "", "12ms"}) {
    SupervisorConfig C = Derive("TAJ_HARD_DEADLINE_MS", Bad);
    EXPECT_DOUBLE_EQ(C.HardDeadlineMs, 1200) << Bad;
    EXPECT_EQ(C.CpuLimitSec, (1200 / 1000 + 1) * 16u) << Bad;
  }
  // 17592186044417 MiB is past the MiB bound: its byte count would wrap
  // to 1 MiB.
  for (const char *Bad : {"64abc", "-1", "1.5", "junk", "17592186044417"})
    EXPECT_EQ(Derive("TAJ_HARD_MAX_MEMORY_MB", Bad).HardMemoryBytes, GiB)
        << Bad;
  for (const char *Bad : {"-100", "soon"})
    EXPECT_DOUBLE_EQ(Derive("TAJ_WATCHDOG_GRACE_MS", Bad).GraceMs, 2000)
        << Bad;

  // Well-formed values, exponent notation included, still apply.
  EXPECT_EQ(Derive("TAJ_HARD_MAX_MEMORY_MB", "1e3").HardMemoryBytes,
            1000ull * 1024 * 1024);
  EXPECT_EQ(Derive("TAJ_HARD_MAX_MEMORY_MB", "8796093022207").HardMemoryBytes,
            8796093022207ull << 20);
  EXPECT_DOUBLE_EQ(Derive("TAJ_WATCHDOG_GRACE_MS", "250").GraceMs, 250);
  SupervisorConfig Off = Derive("TAJ_HARD_DEADLINE_MS", "0");
  EXPECT_DOUBLE_EQ(Off.HardDeadlineMs, 0);
  EXPECT_EQ(Off.CpuLimitSec, 0u);
  EXPECT_EQ(Derive("TAJ_HARD_MAX_MEMORY_MB", "0").HardMemoryBytes, 0u);
}

// A wall-clock backstop too large for uint64_t milliseconds gets no CPU
// backstop, like an unbounded run, instead of an out-of-range cast's
// (16 s on x86-64). Below that range the backstop keeps its formula.
TEST(HardLimits, HugeDeadlineNeverShrinksTheCpuBackstop) {
  for (double Ms : {1e3, 1e9, 1e15, 1e18, 1e19, 1e300, 1.7e308}) {
    RunGuard::Limits Coop;
    Coop.DeadlineMs = Ms;
    SupervisorConfig C;
    deriveHardLimits(Coop, C);
    ASSERT_GT(C.HardDeadlineMs, 0) << Ms;
    if (C.CpuLimitSec != 0) {
      EXPECT_GE(static_cast<double>(C.CpuLimitSec), C.HardDeadlineMs / 1000)
          << Ms;
    }
  }
  RunGuard::Limits Coop;
  Coop.DeadlineMs = 1e18;
  SupervisorConfig Fits;
  deriveHardLimits(Coop, Fits);
  EXPECT_EQ(Fits.CpuLimitSec,
            (static_cast<uint64_t>(Fits.HardDeadlineMs) / 1000 + 1) * 16);
  Coop.DeadlineMs = 1e300;
  SupervisorConfig Huge;
  deriveHardLimits(Coop, Huge);
  EXPECT_EQ(Huge.CpuLimitSec, 0u);

  // The same through the environment; a non-finite value counts as unset.
  Coop.DeadlineMs = 100;
  ::setenv("TAJ_HARD_DEADLINE_MS", "1e300", 1);
  SupervisorConfig Env;
  deriveHardLimits(Coop, Env);
  ::setenv("TAJ_HARD_DEADLINE_MS", "inf", 1);
  SupervisorConfig Inf;
  deriveHardLimits(Coop, Inf);
  ::unsetenv("TAJ_HARD_DEADLINE_MS");
  EXPECT_DOUBLE_EQ(Env.HardDeadlineMs, 1e300);
  EXPECT_EQ(Env.CpuLimitSec, 0u);
  EXPECT_DOUBLE_EQ(Inf.HardDeadlineMs, 1200);
  EXPECT_EQ(Inf.CpuLimitSec, (1200 / 1000 + 1) * 16u);
}

//===----------------------------------------------------------------------===//
// CLI flag hygiene (range checks, dependent flags)
//===----------------------------------------------------------------------===//

TEST(CliFlags, OutOfRangeValuesAreUsageErrorsNotWraps) {
  int Exit = 0;
  // 5e9 > UINT32_MAX: must refuse, not wrap to a tiny budget.
  std::string Out = runCli("--budget=5e9 x.taj", Exit);
  EXPECT_EQ(Exit, 1);
  EXPECT_NE(Out.find("out of range"), std::string::npos) << Out;
  Out = runCli("--budget=1.5 x.taj", Exit);
  EXPECT_EQ(Exit, 1);
  EXPECT_NE(Out.find("out of range"), std::string::npos) << Out;
  Out = runCli("--jobs=2000 --batch=x", Exit);
  EXPECT_EQ(Exit, 1);
  EXPECT_NE(Out.find("out of range"), std::string::npos) << Out;
  Out = runCli("--max-memory-mb=1e17 x.taj", Exit);
  EXPECT_EQ(Exit, 1);
  EXPECT_NE(Out.find("out of range"), std::string::npos) << Out;
  // 2^44 + 1 MiB is 2^64 + 2^20 bytes: refused, not wrapped to 1 MiB.
  for (const char *Flag : {"--max-memory-mb=17592186044417 x.taj",
                           "--cache-max-mb=17592186044417 x.taj",
                           "--hot-max-mb=17592186044417 x.taj"}) {
    Out = runCli(Flag, Exit);
    EXPECT_EQ(Exit, 1) << Flag;
    EXPECT_NE(Out.find("out of range"), std::string::npos) << Out;
  }
  // Malformed input keeps the long-standing message; a non-finite number
  // is malformed.
  Out = runCli("--budget=abc x.taj", Exit);
  EXPECT_EQ(Exit, 1);
  EXPECT_NE(Out.find("non-negative number"), std::string::npos) << Out;
  Out = runCli("--deadline-ms=inf x.taj", Exit);
  EXPECT_EQ(Exit, 1);
  EXPECT_NE(Out.find("non-negative number"), std::string::npos) << Out;
}

TEST(CliFlags, SupervisionFlagsRequireTheirContext) {
  int Exit = 0;
  std::string Out = runCli("--jobs=1 x.taj", Exit);
  EXPECT_EQ(Exit, 1);
  EXPECT_NE(Out.find("--jobs requires --batch"), std::string::npos) << Out;
  Out = runCli("--batch=x --retry=2", Exit);
  EXPECT_EQ(Exit, 1);
  EXPECT_NE(Out.find("require --jobs>=1"), std::string::npos) << Out;
  Out = runCli("--batch=x --jobs=1 --resume", Exit);
  EXPECT_EQ(Exit, 1);
  EXPECT_NE(Out.find("--resume requires --journal"), std::string::npos) << Out;
}

//===----------------------------------------------------------------------===//
// Supervised batch end-to-end
//===----------------------------------------------------------------------===//

TEST(Supervised, JobsOneIsByteIdenticalToInProcess) {
  TempDir T;
  std::string List = writeList(T, 3);
  int E0 = 0, E1 = 0, E2 = 0;
  std::string Ref = runCli("--batch=" + List + " --jobs=0", E0);
  std::string J1 = runCli("--batch=" + List + " --jobs=1 --cache-dir=" +
                              T.Path + "/cc",
                          E1);
  std::string J2 = runCli("--batch=" + List + " --jobs=2 --cache-dir=" +
                              T.Path + "/cc",
                          E2);
  EXPECT_EQ(E0, 0);
  EXPECT_EQ(E1, 0);
  EXPECT_EQ(E2, 0);
  EXPECT_EQ(Ref, J1);
  EXPECT_EQ(Ref, J2);
}

TEST(Supervised, CooperativeTruncationPassesThrough) {
  TempDir T;
  std::string List = writeList(T, 1);
  // --fail-at and --deadline-ms trip RunGuard cooperatively: the worker
  // exits 2 on its own and the supervisor must not retry or reclassify
  // it. A worker reads the deadline from its command line, where a
  // deadline printed with six decimals reads 1e-7 ms as 0, no deadline.
  for (const char *Limit : {" --fail-at=5", " --deadline-ms=0.0000001"}) {
    int E0 = 0, E1 = 0;
    std::string Ref = runCli("--batch=" + List + Limit, E0);
    std::string Got = runCli("--batch=" + List + Limit + " --jobs=1", E1);
    EXPECT_EQ(E0, 2) << Limit;
    EXPECT_EQ(E1, 2) << Limit;
    EXPECT_EQ(Ref, Got) << Limit;
  }
}

/// A valid app of \p Servlets entry servlets, each passing a request
/// parameter through a helper to an XSS and a SQL sink: large enough that
/// its run takes several times as long as examples/webapp.taj's.
std::string manyServlets(int Servlets) {
  std::string Src;
  for (int I = 0; I < Servlets; ++I) {
    const std::string C = "S" + std::to_string(I);
    Src += "class " + C + " extends Servlet {\n";
    Src += "  method doGet(this: " + C + ", req: Request, resp: Response,\n";
    Src += "               db: Database): void [entry] {\n";
    Src += "    a = req.getParameter(\"p\");\n";
    Src += "    b = this.h(a);\n";
    Src += "    w = resp.getWriter();\n";
    Src += "    w.println(b);\n";
    Src += "    q = db.executeQuery(b);\n";
    Src += "  }\n";
    Src += "  method h(this: " + C + ", x: String): String {\n";
    Src += "    y = Encoder.encodeSql(x);\n";
    Src += "    return x;\n";
    Src += "  }\n";
    Src += "}\n";
  }
  return Src;
}

/// Runs taj-cli with stdout and stderr captured apart; returns stderr.
std::string runCliStderr(const TempDir &T, const std::string &Args,
                         std::string &Stdout, int &ExitCode) {
  const std::string Out = T.Path + "/run.out", Err = T.Path + "/run.err";
  const std::string Cmd =
      std::string(TAJ_CLI_PATH) + " " + Args + " > " + Out + " 2> " + Err;
  const int St = std::system(Cmd.c_str());
  ExitCode = WIFEXITED(St) ? WEXITSTATUS(St) : -1;
  Stdout = readWhole(Out);
  return readWhole(Err);
}

TEST(Supervised, BatchStderrFollowsTheListOrder) {
  // Both apps are truncated by the node budget, so each writes a
  // run-status line to stderr. The slow app is listed first: under
  // --jobs=2 the fast one finishes first, and its line must still come
  // second, as in the in-process loop.
  TempDir T;
  const std::string Slow = T.Path + "/slow.taj";
  writeWhole(Slow, manyServlets(300));
  const std::string List = T.Path + "/list.txt";
  writeWhole(List, Slow + "\n" + TAJ_EXAMPLE_TAJ + "\n");
  const std::string Args =
      "--config=hybrid-optimized --budget=1 --batch=" + List;
  std::string RefOut, Out;
  int E0 = 0, E2 = 0;
  const std::string RefErr = runCliStderr(T, Args + " --jobs=0", RefOut, E0);
  ASSERT_EQ(E0, 2) << RefErr;
  const size_t First = RefErr.find("run-status: ");
  ASSERT_NE(First, std::string::npos) << RefErr;
  ASSERT_NE(RefErr.find("run-status: ", First + 1), std::string::npos)
      << RefErr;
  for (int Run = 0; Run < 20; ++Run) {
    SCOPED_TRACE("run " + std::to_string(Run));
    const std::string Err = runCliStderr(T, Args + " --jobs=2", Out, E2);
    EXPECT_EQ(E2, 2);
    EXPECT_EQ(Err, RefErr);
    EXPECT_EQ(Out, RefOut);
  }
}

TEST(Supervised, CrashedWorkerRetriesAndRecovers) {
  TempDir T;
  std::string List = writeList(T, 1);
  std::string Journal = T.Path + "/j.jsonl";
  std::string StatsPath = T.Path + "/s.json";
  int Exit = 0;
  std::string Out =
      runCli("--batch=" + List + " --jobs=1 --crash-at=1 --retry=1 --journal=" +
                 Journal + " --stats-json=" + StatsPath,
             Exit);
  EXPECT_EQ(Exit, 0) << Out;
  EXPECT_NE(Out.find("exit=0 issues=3"), std::string::npos) << Out;
  EXPECT_EQ(statOf(StatsPath, "supervise.spawned"), 2);
  EXPECT_EQ(statOf(StatsPath, "supervise.crashed"), 1);
  EXPECT_EQ(statOf(StatsPath, "supervise.retried"), 1);
  EXPECT_EQ(statOf(StatsPath, "supervise.recovered"), 1);
  EXPECT_EQ(statOf(StatsPath, "cli.issues"), 3);

  std::vector<Attempt> Recs = Journal::load(Journal);
  ASSERT_EQ(Recs.size(), 2u);
  EXPECT_EQ(Recs[0].Class, ExitClass::Crashed);
  EXPECT_EQ(Recs[0].Signal, SIGABRT);
  EXPECT_FALSE(Recs[0].Terminal);
  EXPECT_EQ(Recs[1].Class, ExitClass::Clean);
  EXPECT_EQ(Recs[1].AttemptNo, 2u);
  EXPECT_EQ(Recs[1].Issues, 3u);
  EXPECT_TRUE(Recs[1].Terminal);
}

TEST(Supervised, ExhaustedRetriesAreTerminalErrors) {
  TempDir T;
  std::string List = writeList(T, 1);
  int Exit = 0;
  std::string Out =
      runCli("--batch=" + List + " --jobs=1 --crash-at=1 --retry=0", Exit);
  EXPECT_EQ(Exit, 1) << Out;
  EXPECT_NE(Out.find("(crashed: signal 6)"), std::string::npos) << Out;
}

TEST(Supervised, UnsolicitedSigkillClassifiesAsOom) {
  TempDir T;
  std::string List = writeList(T, 1);
  std::string StatsPath = T.Path + "/s.json";
  int Exit = 0;
  // TAJ_CRASH_SIGNAL=9 makes --crash-at raise SIGKILL: the deterministic
  // stand-in for the kernel OOM killer.
  std::string Out = runCli("TAJ_CRASH_SIGNAL=9 --batch=" + List +
                               " --jobs=1 --crash-at=1 --retry=0" +
                               " --stats-json=" + StatsPath,
                           Exit);
  EXPECT_EQ(Exit, 1) << Out;
  EXPECT_NE(Out.find("(oom)"), std::string::npos) << Out;
  EXPECT_EQ(statOf(StatsPath, "supervise.oom_killed"), 1);
}

TEST(Supervised, HungWorkerHitsWatchdogTimeout) {
  TempDir T;
  std::string List = writeList(T, 1);
  std::string StatsPath = T.Path + "/s.json";
  int Exit = 0;
  std::string Out =
      runCli("TAJ_HARD_DEADLINE_MS=300 TAJ_WATCHDOG_GRACE_MS=200 --batch=" +
                 List + " --jobs=1 --hang-at=1 --retry=0 --stats-json=" +
                 StatsPath,
             Exit);
  EXPECT_EQ(Exit, 1) << Out;
  EXPECT_NE(Out.find("(timeout)"), std::string::npos) << Out;
  EXPECT_EQ(statOf(StatsPath, "supervise.timed_out"), 1);
}

TEST(Supervised, HungWorkerRecoversOnRetry) {
  TempDir T;
  std::string List = writeList(T, 1);
  int Exit = 0;
  // The retry strips --hang-at (fault injection is a first-attempt
  // scenario), so attempt 2 completes under the degraded config.
  std::string Out =
      runCli("TAJ_HARD_DEADLINE_MS=300 TAJ_WATCHDOG_GRACE_MS=200 --batch=" +
                 List + " --jobs=1 --hang-at=1 --retry=1",
             Exit);
  EXPECT_EQ(Exit, 0) << Out;
  EXPECT_NE(Out.find("exit=0 issues=3"), std::string::npos) << Out;
}

TEST(Supervised, RetryDropsFaultInjectionEnvironment) {
  TempDir T;
  std::string List = writeList(T, 1);
  std::string StatsPath = T.Path + "/s.json";
  int Exit = 0;
  // The fault comes through the environment, which every worker inherits;
  // the retry's fresh worker must unset it or it crashes again.
  std::string Out = runCli("TAJ_CRASH_AT=1 --batch=" + List +
                               " --jobs=1 --retry=1 --stats-json=" + StatsPath,
                           Exit);
  EXPECT_EQ(Exit, 0) << Out;
  EXPECT_NE(Out.find("exit=0 issues=3"), std::string::npos) << Out;
  EXPECT_EQ(statOf(StatsPath, "supervise.crashed"), 1);
  EXPECT_EQ(statOf(StatsPath, "supervise.recovered"), 1);
}

TEST(Supervised, ResumeSkipsJournaledTerminalOutcomes) {
  TempDir T;
  std::string List = writeList(T, 2);
  std::string Journal = T.Path + "/j.jsonl";
  std::string StatsPath = T.Path + "/s.json";
  int Exit = 0;
  runCli("--batch=" + List + " --jobs=1 --journal=" + Journal, Exit);
  ASSERT_EQ(Exit, 0);
  std::string Out = runCli("--batch=" + List + " --jobs=1 --journal=" +
                               Journal + " --resume --stats-json=" + StatsPath,
                           Exit);
  EXPECT_EQ(Exit, 0) << Out;
  EXPECT_EQ(statOf(StatsPath, "supervise.resumed_skips"), 2);
  EXPECT_EQ(statOf(StatsPath, "supervise.spawned"), 0);
  // The skipped apps still print their framing, flagged as resumed, and
  // their recorded outcome still feeds the exit code.
  EXPECT_NE(Out.find("exit=0 issues=3 (resumed)"), std::string::npos) << Out;
}

TEST(Supervised, ResumeDistrustsOtherConfigsJournals) {
  TempDir T;
  std::string List = writeList(T, 1);
  std::string Journal = T.Path + "/j.jsonl";
  std::string StatsPath = T.Path + "/s.json";
  int Exit = 0;
  runCli("--batch=" + List + " --jobs=1 --journal=" + Journal, Exit);
  ASSERT_EQ(Exit, 0);
  // Same list, different budget: the fingerprint differs, so the journal
  // must not satisfy --resume.
  runCli("--batch=" + List + " --jobs=1 --budget=1000 --journal=" + Journal +
             " --resume --stats-json=" + StatsPath,
         Exit);
  EXPECT_EQ(Exit, 0);
  EXPECT_EQ(statOf(StatsPath, "supervise.resumed_skips"), 0);
  EXPECT_EQ(statOf(StatsPath, "supervise.spawned"), 1);
}

TEST(Supervised, ResumeAfterSupervisorKilledMidBatch) {
  TempDir T;
  std::string List = writeList(T, 2);
  std::string Journal = T.Path + "/j.jsonl";
  std::string StatsPath = T.Path + "/s.json";

  // Start a supervisor in its own process group and SIGKILL the whole
  // group as soon as the journal holds the first terminal record.
  pid_t Sup = ::fork();
  ASSERT_GE(Sup, 0);
  if (Sup == 0) {
    ::setpgid(0, 0);
    std::string Cmd = std::string(TAJ_CLI_PATH) + " --batch=" + List +
                      " --jobs=1 --journal=" + Journal + " > " + T.Path +
                      "/run1.out 2>&1";
    ::execl("/bin/sh", "sh", "-c", Cmd.c_str(), (char *)nullptr);
    ::_exit(127);
  }
  ::setpgid(Sup, Sup); // both sides set it: no fork/exec race
  bool SawTerminal = false;
  for (int I = 0; I < 2000 && !SawTerminal; ++I) {
    SawTerminal =
        readWhole(Journal).find("\"terminal\":true") != std::string::npos;
    if (!SawTerminal)
      ::usleep(5 * 1000);
  }
  EXPECT_TRUE(SawTerminal);
  ::kill(-Sup, SIGKILL);
  int St = 0;
  ::waitpid(Sup, &St, 0);

  // The journal survives the kill (possibly with a torn tail) and --resume
  // finishes only the remaining work.
  int Exit = 0;
  std::string Out = runCli("--batch=" + List + " --jobs=1 --journal=" +
                               Journal + " --resume --stats-json=" + StatsPath,
                           Exit);
  EXPECT_EQ(Exit, 0) << Out;
  long long Skips = statOf(StatsPath, "supervise.resumed_skips");
  long long Spawned = statOf(StatsPath, "supervise.spawned");
  EXPECT_GE(Skips, 1);
  EXPECT_EQ(Skips + Spawned, 2);
  // Both apps end clean with the full issue set either way.
  size_t First = Out.find("exit=0 issues=3");
  ASSERT_NE(First, std::string::npos) << Out;
  EXPECT_NE(Out.find("exit=0 issues=3", First + 1), std::string::npos) << Out;
}

TEST(Supervised, WorkersDieWithTheSupervisor) {
  TempDir T;
  std::string List = writeList(T, 1);
  // The unique cache path marks our worker's cmdline in /proc.
  std::string Marker = T.Path + "/orphan-cc";

  pid_t Sup = ::fork();
  ASSERT_GE(Sup, 0);
  if (Sup == 0) {
    std::string Cmd = "exec " + std::string(TAJ_CLI_PATH) + " --batch=" +
                      List + " --jobs=1 --hang-at=1 --retry=0 --cache-dir=" +
                      Marker + " > /dev/null 2>&1";
    ::execl("/bin/sh", "sh", "-c", Cmd.c_str(), (char *)nullptr);
    ::_exit(127);
  }

  auto WorkerAlive = [&] {
    for (const auto &DE : fs::directory_iterator("/proc")) {
      std::string Name = DE.path().filename().string();
      if (Name.empty() || !std::isdigit(static_cast<unsigned char>(Name[0])))
        continue;
      if (std::to_string(Sup) == Name)
        continue; // the supervisor itself also carries the marker
      std::string CmdLine = readWhole((DE.path() / "cmdline").string());
      if (CmdLine.find(Marker) != std::string::npos)
        return true;
    }
    return false;
  };

  // Wait for the (hung) worker to appear, kill ONLY the supervisor, and
  // expect PR_SET_PDEATHSIG to reap the worker — no orphan survives.
  bool Appeared = false;
  for (int I = 0; I < 2000 && !Appeared; ++I) {
    Appeared = WorkerAlive();
    if (!Appeared)
      ::usleep(5 * 1000);
  }
  ASSERT_TRUE(Appeared);
  ::kill(Sup, SIGKILL);
  int St = 0;
  ::waitpid(Sup, &St, 0);
  bool Gone = false;
  for (int I = 0; I < 600 && !Gone; ++I) {
    Gone = !WorkerAlive();
    if (!Gone)
      ::usleep(5 * 1000);
  }
  EXPECT_TRUE(Gone);
}

TEST(Supervised, BatchWorkerRunsUnderItsHardLimits) {
  if (ShadowSanitizer)
    GTEST_SKIP() << "sanitizer shadow memory cannot live under RLIMIT_AS";
  TempDir T;
  std::string List = writeList(T, 1);
  std::string Marker = T.Path + "/limits-cc";
  pid_t Sup = startUnderHardLimits("--batch=" + List +
                                   " --jobs=1 --hang-at=1 --retry=0" +
                                   " --cache-dir=" + Marker);
  ASSERT_GE(Sup, 0);
  // The worker arms its rlimits right after fork; poll until they land.
  // RLIMIT_AS is the hard memory ceiling; RLIMIT_CPU follows
  // deriveHardLimits: (60000 / 1000 + 1) * 16 = 976 s.
  pid_t Worker = awaitMarkedProcess(Marker, Sup);
  std::string As, Cpu;
  for (int I = 0; Worker >= 0 && I < 2000; ++I) {
    As = softLimit(Worker, "Max address space");
    Cpu = softLimit(Worker, "Max cpu time");
    if (As == "4294967296" && Cpu == "976")
      break;
    ::usleep(5 * 1000);
  }
  ::kill(Sup, SIGKILL); // the hung worker dies with it
  int St = 0;
  ::waitpid(Sup, &St, 0);
  ASSERT_GE(Worker, 0);
  EXPECT_EQ(As, "4294967296");
  EXPECT_EQ(Cpu, "976");
}

TEST(Supervised, ServePoolWorkerStaysUnlimited) {
  if (ShadowSanitizer)
    GTEST_SKIP() << "sanitizer shadow memory cannot live under RLIMIT_AS";
  TempDir T;
  std::string Marker = T.Path + "/serve-cc";
  pid_t Daemon = startUnderHardLimits("--serve=" + T.Path + "/srv.sock" +
                                      " --pool-size=1 --cache-dir=" + Marker);
  ASSERT_GE(Daemon, 0);
  // A persistent worker serves requests with different budgets, so it
  // keeps the daemon's own ceilings: the hard-limit knobs arm nothing on
  // it.
  pid_t Worker = awaitMarkedProcess(Marker, Daemon);
  std::string As, Cpu;
  if (Worker >= 0) {
    As = softLimit(Worker, "Max address space");
    Cpu = softLimit(Worker, "Max cpu time");
  }
  const std::string DaemonAs = softLimit(Daemon, "Max address space");
  const std::string DaemonCpu = softLimit(Daemon, "Max cpu time");
  ::kill(Daemon, SIGTERM);
  int St = 0;
  ::waitpid(Daemon, &St, 0);
  EXPECT_TRUE(WIFEXITED(St) && WEXITSTATUS(St) == 0);
  ASSERT_GE(Worker, 0);
  EXPECT_EQ(As, DaemonAs);
  EXPECT_EQ(Cpu, DaemonCpu);
}

TEST(Supervised, BatchFinishesWhenNoWorkerCanStart) {
  if (AuditArch == 0)
    GTEST_SKIP() << "no seccomp architecture constant for this target";
  TempDir T;
  std::string BatchArg = "--batch=" + writeList(T, 2);
  std::string OutPath = T.Path + "/out.txt";
  pid_t Sup = ::fork();
  ASSERT_GE(Sup, 0);
  if (Sup == 0) {
    int Out = ::open(OutPath.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (Out < 0 || ::dup2(Out, 1) < 0 || ::dup2(Out, 2) < 0)
      ::_exit(127);
    if (!forbidFork())
      ::_exit(125);
    ::execl(TAJ_CLI_PATH, TAJ_CLI_PATH, BatchArg.c_str(), "--jobs=1",
            (char *)nullptr);
    ::_exit(127);
  }
  // The second app is still queued when the only slot's spawn fails; the
  // batch must move on to it rather than wait on a pool with no worker.
  int St = 0;
  bool Exited = false;
  for (int I = 0; I < 6000 && !Exited; ++I) {
    Exited = ::waitpid(Sup, &St, WNOHANG) == Sup;
    if (!Exited)
      ::usleep(5 * 1000);
  }
  if (!Exited) {
    ::kill(Sup, SIGKILL);
    ::waitpid(Sup, &St, 0);
  }
  std::string Out = readWhole(OutPath);
  ASSERT_TRUE(Exited) << "batch hung with no worker able to start\n" << Out;
  if (WIFEXITED(St) && WEXITSTATUS(St) == 125)
    GTEST_SKIP() << "the kernel refused the seccomp filter";
  EXPECT_TRUE(WIFEXITED(St) && WEXITSTATUS(St) == 1) << Out;
  size_t Errors = 0;
  for (size_t At = Out.find("exit=1 issues=0"); At != std::string::npos;
       At = Out.find("exit=1 issues=0", At + 1))
    ++Errors;
  EXPECT_EQ(Errors, 2u) << Out;
}

} // namespace
