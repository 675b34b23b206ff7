//===- server/Server.cpp - Supervised worker pool -------------------------===//

#include "server/Server.h"

#include "persist/Cache.h"
#include "support/Number.h"
#include "support/Stats.h"
#include "support/Trace.h"

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <memory>
#include <new>
#include <unordered_map>
#include <vector>

#include <fcntl.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>
#if defined(__linux__)
#include <sys/prctl.h>
#endif
#if defined(__GLIBC__)
#include <malloc.h>
#endif

using namespace taj;
using namespace taj::server;

namespace {

/// How a worker's exit code classifies, whether the worker answered with
/// it or died with it: the taj-cli contract's 0 and 2, the reserved OOM
/// code (only a death carries it), and an error for anything else.
ExitClass classifyExitCode(int Code) {
  switch (Code) {
  case ExitClean:
    return ExitClass::Clean;
  case ExitTruncated:
    return ExitClass::Truncated;
  case WorkerOomExitCode:
    return ExitClass::Oom;
  default:
    return ExitClass::Error;
  }
}

} // namespace

ExitClass server::classifyWaitStatus(int WaitStatus, bool WatchdogKilled) {
  if (WIFEXITED(WaitStatus))
    return classifyExitCode(WEXITSTATUS(WaitStatus));
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

void server::deriveHardLimits(const RunGuard::Limits &Coop,
                              SupervisorConfig &C) {
  // Backstops sit well above the cooperative limits: RunGuard should win
  // the race in a healthy worker, the watchdog only in a wedged one.
  C.HardDeadlineMs = Coop.DeadlineMs > 0 ? Coop.DeadlineMs * 2 + 1000 : 0;
  C.HardMemoryBytes = Coop.MaxMemoryBytes != 0 ? Coop.MaxMemoryBytes * 2 : 0;
  // A refused value leaves the derived limit in place.
  parseNumber(std::getenv("TAJ_HARD_DEADLINE_MS"), C.HardDeadlineMs);
  uint64_t Mb;
  if (parseInteger(std::getenv("TAJ_HARD_MAX_MEMORY_MB"), MaxExactU64, Mb) ==
      NumberParse::Ok)
    C.HardMemoryBytes = Mb * 1024 * 1024;
  parseNumber(std::getenv("TAJ_WATCHDOG_GRACE_MS"), C.GraceMs);
  // CPU backstop: it only has to stop a worker the wall-clock watchdog
  // did not (a stalled supervisor), so it sits far above the hard
  // deadline; a one-thread worker's CPU time cannot outrun its wall time,
  // so the watchdog's SIGTERM comes first. It is finite whenever a
  // wall-clock watchdog is armed. A deadline past uint64_t's range (e.g.
  // twice a cooperative 1e300 ms) gets none, as an unbounded run does:
  // the cast would be undefined.
  C.CpuLimitSec = C.HardDeadlineMs > 0 && C.HardDeadlineMs < 0x1p64
                      ? (static_cast<uint64_t>(C.HardDeadlineMs) / 1000 + 1) *
                            16
                      : 0;
}

uint64_t server::recoverWorkerStats(const std::string &StatsText,
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

namespace {

volatile sig_atomic_t GDrain = 0;

/// Self-pipe: the drain handler writes a byte here and the daemon polls
/// the read end, so a signal landing *between* the GDrain check and
/// poll() still wakes the loop (EINTR alone only covers signals that
/// land while poll() is blocked).
int GWakeFds[2] = {-1, -1};

void drainHandler(int) {
  GDrain = 1;
  if (GWakeFds[1] >= 0) {
    const char B = 1;
    // A full pipe means a wake is already pending; both write() and the
    // EAGAIN it may return are async-signal-safe.
    ssize_t N = ::write(GWakeFds[1], &B, 1);
    (void)N;
  }
}

/// Installs the drain handlers without SA_RESTART, so a signal interrupts
/// poll() with EINTR and the loop notices immediately.
void installDrainHandlers() {
  struct sigaction SA;
  std::memset(&SA, 0, sizeof(SA));
  SA.sa_handler = drainHandler;
  ::sigemptyset(&SA.sa_mask);
  SA.sa_flags = 0;
  ::sigaction(SIGTERM, &SA, nullptr);
  ::sigaction(SIGINT, &SA, nullptr);
}

/// One request, from admission (serve) or its list line (batch) through
/// its possibly retried completion.
struct PendingReq {
  int ClientFd = -1; ///< -1 once the client vanished, and always in batch
  std::vector<AppSource> Sources;
  RunOptions Opt; ///< base + overrides, degraded further per retry
  std::string AppName;
  unsigned AttemptNo = 1;
  uint64_t Line = 0; ///< journal line key: request serial / list position
  uint64_t BeginUs = 0;
};

/// One worker slot. Fd is the coordinator side of the socketpair; worker
/// death is detected as EOF on it, then reaped with a blocking waitpid. A
/// batch slot is empty (Pid < 0) between its one-shot workers.
struct PoolWorker {
  pid_t Pid = -1;
  int Fd = -1;
  bool Busy = false;
  PendingReq Cur;
  double DeadlineAt = 0; ///< coordinator-clock ms of the SIGTERM (0=off)
  double GraceMs = 2000;
  double KillAt = 0; ///< armed after SIGTERM: ms of the SIGKILL escalation
  bool TermSent = false;
  std::string InBuf;
};

/// One connected client that has not been admitted yet (reading its
/// request frame) or is waiting for its response.
struct ClientConn {
  int Fd = -1;
  std::string Buf;
  bool Admitted = false;
};

/// One response in flight to a client, owned by the send buffer: the fd
/// is non-blocking and whatever write() cannot push immediately drains
/// under POLLOUT, so a client that stops reading (hung, SIGSTOP'd) can
/// never stall the daemon's event loop. DeadlineAt bounds how long a
/// non-reading client may hold the buffered bytes.
struct Outgoing {
  int Fd = -1;
  std::string Buf;
  size_t Off = 0;
  double DeadlineAt = 0; ///< daemon-clock ms after which the client is dropped
};

/// Pushes buffered response bytes. True while the entry still has bytes
/// to drain (keep polling POLLOUT); false once it is finished — fully
/// written, peer gone, or hard error — with the fd closed.
bool flushOutgoing(Outgoing &Wr) {
  while (Wr.Off < Wr.Buf.size()) {
    ssize_t N = ::write(Wr.Fd, Wr.Buf.data() + Wr.Off, Wr.Buf.size() - Wr.Off);
    if (N > 0) {
      Wr.Off += static_cast<size_t>(N);
      continue;
    }
    if (N < 0 && errno == EINTR)
      continue;
    if (N < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
      return true;
    break; // EPIPE and friends: the response is undeliverable
  }
  ::close(Wr.Fd);
  Wr.Fd = -1;
  return false;
}

/// Terminal outcome of one batch app, held until it prints in list order.
struct AppResult {
  bool Done = false;
  ExitClass Class = ExitClass::Error;
  int Exit = 1;
  uint64_t Issues = 0;
  std::string Output;
  std::string Diag;
  std::string Suffix;
};

/// Arms a one-shot batch worker before it runs anything: the rlimit
/// backstops, and on retries the removal of the fault-injection
/// environment (the degraded flags already dropped the injected fault; the
/// environment channel must not resurrect it).
void armOneShotWorker(const SupervisorConfig &Lim, unsigned AttemptNo) {
  if (Lim.HardMemoryBytes != 0) {
    struct rlimit RL;
    RL.rlim_cur = RL.rlim_max = Lim.HardMemoryBytes;
    ::setrlimit(RLIMIT_AS, &RL);
  }
  if (Lim.CpuLimitSec != 0) {
    struct rlimit RL;
    RL.rlim_cur = Lim.CpuLimitSec;
    RL.rlim_max = Lim.CpuLimitSec + 5;
    ::setrlimit(RLIMIT_CPU, &RL);
  }
  // A retry runs without injected faults, like degradeForRetry's flags.
  // The child is single-threaded right after fork, so unsetenv's global
  // environment update races with nothing.
  if (AttemptNo > 1) {
    ::unsetenv("TAJ_FAIL_AT");      // NOLINT(concurrency-mt-unsafe)
    ::unsetenv("TAJ_CRASH_AT");     // NOLINT(concurrency-mt-unsafe)
    ::unsetenv("TAJ_CRASH_SIGNAL"); // NOLINT(concurrency-mt-unsafe)
    ::unsetenv("TAJ_HANG_AT");      // NOLINT(concurrency-mt-unsafe)
  }
}

/// The worker's request loop, one analysis per request frame, each
/// response carrying the report bytes analyzeApp() returned. A daemon
/// worker keeps its cache warm across requests: the disk tier (shared with
/// every other worker through the filesystem; memory-only without a cache
/// dir) and a private hot tier. A one-shot batch worker serves one attempt
/// and opens the disk cache only when --cache-dir names one, exactly like
/// a local run.
[[noreturn]] void workerMain(const ServerOptions &O, int Fd, bool OneShot) {
  // The daemon's drain handlers were inherited across fork; a watchdog
  // SIGTERM must kill this process, not set a flag in it.
  std::signal(SIGTERM, SIG_DFL);
  std::signal(SIGINT, SIG_DFL);
  // Under RLIMIT_AS a failed allocation raises bad_alloc wherever the
  // worker happens to be, and the default unwind ends in std::terminate ->
  // SIGABRT, indistinguishable from a genuine crash. Dying with the
  // reserved exit code instead lets the coordinator classify it as oom.
  std::set_new_handler([] { ::_exit(WorkerOomExitCode); });

  // Workers sharing a cache dir evict with a 60 s grace: a fresh mtime is
  // the only sign that another worker may be mid-read on an entry.
  std::unique_ptr<persist::ArtifactCache> Cache;
  if (!OneShot || !O.CacheDir.empty())
    Cache = std::make_unique<persist::ArtifactCache>(
        O.CacheDir, O.CacheMaxMb * 1024 * 1024,
        O.CacheDir.empty() ? 0 : 60000);
  if (!OneShot)
    Cache->enableHotTier(O.HotMaxMb * 1024 * 1024);

  bool GotRequest = false;
  std::vector<uint8_t> Payload;
  while (readFrame(Fd, Payload)) {
    GotRequest = true;
    Request Req;
    Response Resp;
    if (!deserializeRequest(Payload.data(), Payload.size(), Req)) {
      Resp.St = Status::ProtocolError;
      Resp.Message = "undecodable request";
      if (!writeFrame(Fd, serializeResponse(Resp)))
        break;
      continue;
    }
    // The coordinator sends the request's complete canonical option set,
    // so it is parsed onto defaults: a zero the encoding omits (fault
    // injection a retry stripped) must not fall back to the base config.
    RunOptions Opt;
    bool OptOk = !Req.Sources.empty();
    for (const std::string &Ov : Req.Overrides)
      if (parseRunOption(Ov.c_str(), Opt) != OptionParse::Matched) {
        OptOk = false;
        break;
      }
    if (!OptOk) {
      // The coordinator validated the options; reaching this means the two
      // sides disagree — answer rather than die, but call it out.
      Resp.St = Status::BadRequest;
      Resp.Message = "invalid request options";
      if (!writeFrame(Fd, serializeResponse(Resp)))
        break;
      continue;
    }

    // Fresh ring per request: the response carries only this request's
    // events, on this worker's pid.
    const bool Tracing = !O.TracePath.empty();
    if (Tracing)
      trace::enable();

    // The request's persist.* rows, hot tier included, come from the
    // counter windows analyzeApp() takes around its frontend and analysis.
    Stats ReqStats;
    RunOutcome Out = analyzeApp(Req.Sources, Opt, Cache.get(), &ReqStats);

    Resp.St = statusFromExitClass(classifyExitCode(Out.Exit));
    Resp.Exit = Out.Exit;
    Resp.Issues = Out.NumIssues;
    Resp.Report = std::move(Out.Report);
    Resp.Diag = std::move(Out.Diag);
    Resp.StatsJson = ReqStats.toJson();
    if (Tracing)
      Resp.TraceBlob = trace::renderEvents();
    if (!writeFrame(Fd, serializeResponse(Resp)))
      break;
  }
  // The coordinator closed the pair (drain, one-shot retirement) or died.
  // A one-shot worker that never received its request says so.
  std::_Exit(OneShot && !GotRequest ? WorkerSpawnFailExitCode : 0);
}

/// The coordinator of both pool shapes: one single-threaded poll() loop
/// over the workers and, when serving, the listen socket and its clients.
/// Reads stay blocking (one read per readiness event) and worker-bound
/// writes may block (a dispatched worker is always draining its pair);
/// client-bound writes go through the non-blocking Outgoing buffers above,
/// because a client is under no obligation to read its response promptly.
class Pool {
public:
  /// A non-null \p Apps selects batch mode: the list is the queue and the
  /// workers are one-shot; otherwise the pool is the daemon's.
  Pool(const ServerOptions &O, const std::vector<BatchApp> *Apps)
      : O(O), Apps(Apps), OneShot(Apps != nullptr),
        Cat(OneShot ? "supervise" : "server"),
        Tag(OneShot ? "taj-supervise" : "taj-serve"), Log(O.JournalPath),
        ConfigFp(optionsFingerprint(O.Base)) {}

  int serve();
  int batch(bool Resume);

private:
  bool setupSocket();
  bool spawnWorker(PoolWorker &W, const SupervisorConfig *Lim);
  void retire(PoolWorker &W);
  void loop();
  void dispatch();
  void admit(ClientConn &C, std::vector<uint8_t> &Payload);
  void refuse(int Fd, Status St, const std::string &Msg);
  void queueResponse(int Fd, const Response &R);
  void complete(PendingReq &R, Response &Resp, ExitClass Class, int Signal,
                int Exit);
  void onWorkerFrame(size_t Idx, std::vector<uint8_t> &Payload);
  void onWorkerDeath(size_t Idx);
  void traceAttempt(size_t Idx, const PendingReq &R, bool Died);
  void journalAttempt(const PendingReq &R, ExitClass Class, int Signal,
                      int Exit, uint64_t Issues, bool Terminal);
  void stampServerCounters(Stats &S) const;
  void beginDrain();
  void flushReady();
  bool writeArtifacts();
  double nowMs() const { return Clock.elapsedMs(); }

  ServerOptions O;
  const std::vector<BatchApp> *Apps;
  const bool OneShot;
  const char *const Cat; ///< trace category of coordinator-side events
  const char *const Tag; ///< stderr diagnostic prefix
  Journal Log; ///< the --journal attempt record
  std::string ConfigFp;
  Timer Clock;
  int ListenFd = -1;
  std::vector<PoolWorker> Workers;
  std::vector<ClientConn> Clients;
  std::vector<Outgoing> Writes; ///< responses still draining to clients
  std::deque<PendingReq> Queue;
  /// How long a client gets to read its response before it is dropped.
  static constexpr double ClientWriteTimeoutMs = 30000;
  uint64_t NextLine = 0;
  bool Draining = false;
  /// Batch only: per-app outcomes, the next list line to print, and the
  /// number of apps without a terminal outcome yet.
  std::vector<AppResult> Results;
  size_t NextPrint = 0;
  size_t Remaining = 0;
  Stats Merged; ///< every finished attempt's counters, for --stats-json
  std::vector<std::string> TraceBlobs;
  struct Counters {
    // server.*
    uint64_t Accepted = 0, RejectedBusy = 0, Served = 0, Retried = 0,
             HotHits = 0, Drained = 0, Respawned = 0;
    // supervise.*
    uint64_t Spawned = 0, Crashed = 0, TimedOut = 0, OomKilled = 0,
             Recovered = 0, ResumedSkips = 0, StatsParseFailed = 0;
  } N;
};

bool Pool::setupSocket() {
  struct sockaddr_un Addr;
  if (O.SocketPath.size() >= sizeof(Addr.sun_path)) {
    std::fprintf(stderr, "error: socket path too long: '%s'\n",
                 O.SocketPath.c_str());
    return false;
  }
  ListenFd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (ListenFd < 0) {
    std::fprintf(stderr, "error: socket: %s\n", std::strerror(errno));
    return false;
  }
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sun_family = AF_UNIX;
  std::memcpy(Addr.sun_path, O.SocketPath.c_str(), O.SocketPath.size() + 1);
  if (::bind(ListenFd, reinterpret_cast<struct sockaddr *>(&Addr),
             sizeof(Addr)) < 0) {
    if (errno == EADDRINUSE) {
      // A live server owns the path, or a crashed one left it behind.
      // Probe: if nobody answers, reclaim the stale file.
      int Probe = ::socket(AF_UNIX, SOCK_STREAM, 0);
      bool Live = Probe >= 0 &&
                  ::connect(Probe, reinterpret_cast<struct sockaddr *>(&Addr),
                            sizeof(Addr)) == 0;
      if (Probe >= 0)
        ::close(Probe);
      if (Live) {
        std::fprintf(stderr, "error: a server is already listening on '%s'\n",
                     O.SocketPath.c_str());
        ::close(ListenFd);
        ListenFd = -1;
        return false;
      }
      ::unlink(O.SocketPath.c_str());
      if (::bind(ListenFd, reinterpret_cast<struct sockaddr *>(&Addr),
                 sizeof(Addr)) == 0)
        goto Bound;
    }
    std::fprintf(stderr, "error: bind '%s': %s\n", O.SocketPath.c_str(),
                 std::strerror(errno));
    ::close(ListenFd);
    ListenFd = -1;
    return false;
  }
Bound:
  if (::listen(ListenFd, 64) < 0) {
    std::fprintf(stderr, "error: listen '%s': %s\n", O.SocketPath.c_str(),
                 std::strerror(errno));
    ::close(ListenFd);
    ::unlink(O.SocketPath.c_str());
    ListenFd = -1;
    return false;
  }
  return true;
}

/// Forks a worker into slot \p W. \p Lim (one-shot workers only) carries
/// the rlimit backstops the child arms before anything else.
bool Pool::spawnWorker(PoolWorker &W, const SupervisorConfig *Lim) {
  int SP[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, SP) < 0) {
    std::fprintf(stderr, "error: socketpair: %s\n", std::strerror(errno));
    return false;
  }
  // Whatever stdout still buffers would otherwise be written twice, once
  // by each process (the batch framing is printed by this process).
  std::fflush(stdout);
  const pid_t Coordinator = ::getpid();
  pid_t Pid = ::fork();
  if (Pid < 0) {
    std::fprintf(stderr, "error: fork: %s\n", std::strerror(errno));
    ::close(SP[0]);
    ::close(SP[1]);
    return false;
  }
  if (Pid == 0) {
#if defined(__linux__)
    // No orphans: if the coordinator dies, its pool dies with it. One that
    // died before the prctl took effect sends no signal, and the child has
    // already been reparented, so it must not run on.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != Coordinator)
      ::_exit(1);
#endif
    // Child: drop every coordinator-side fd; only its own pair end
    // survives.
    ::close(SP[0]);
    if (ListenFd >= 0)
      ::close(ListenFd);
    for (const PoolWorker &Other : Workers)
      if (Other.Fd >= 0)
        ::close(Other.Fd);
    for (const ClientConn &C : Clients)
      if (C.Fd >= 0)
        ::close(C.Fd);
    for (const PendingReq &R : Queue)
      if (R.ClientFd >= 0)
        ::close(R.ClientFd);
    for (const PoolWorker &Other : Workers)
      if (Other.Busy && Other.Cur.ClientFd >= 0)
        ::close(Other.Cur.ClientFd);
    for (const Outgoing &Wr : Writes)
      if (Wr.Fd >= 0)
        ::close(Wr.Fd);
    if (GWakeFds[0] >= 0)
      ::close(GWakeFds[0]);
    if (GWakeFds[1] >= 0)
      ::close(GWakeFds[1]);
    if (Lim) {
      // The coordinator's batch state (reports waiting for their turn to
      // print, every finished attempt's trace) is not the worker's. Hand
      // it back so a one-shot worker's memory baseline, which RLIMIT_AS
      // and --max-memory-mb both see, does not grow with its place in the
      // list.
      std::vector<std::string>().swap(TraceBlobs);
      std::vector<AppResult>().swap(Results);
      std::deque<PendingReq>().swap(Queue);
#if defined(__GLIBC__)
      ::malloc_trim(0);
#endif
      armOneShotWorker(*Lim, W.Cur.AttemptNo);
    }
    workerMain(O, SP[1], OneShot);
  }
  ::close(SP[1]);
  W.Pid = Pid;
  W.Fd = SP[0];
  W.Busy = false;
  W.DeadlineAt = W.KillAt = 0;
  W.TermSent = false;
  W.InBuf.clear();
  return true;
}

/// Closes a worker's pair and reaps it: a one-shot worker after its
/// answer, any worker a drain no longer needs. EOF on the pair is the
/// worker's cue to exit.
void Pool::retire(PoolWorker &W) {
  ::close(W.Fd);
  W.Fd = -1;
  int Status;
  while (::waitpid(W.Pid, &Status, 0) < 0 && errno == EINTR) {
  }
  W.Pid = -1;
}

/// Takes ownership of \p Fd and sends one response frame without ever
/// blocking the daemon: the fd is switched non-blocking, as much as the
/// socket buffer takes is written immediately, and the remainder (if
/// any) drains under POLLOUT with a drop deadline.
void Pool::queueResponse(int Fd, const Response &R) {
  Outgoing Wr;
  if (!appendFrame(Wr.Buf, serializeResponse(R))) {
    ::close(Fd); // oversized payload: the peer would reject it anyway
    return;
  }
  int Flags = ::fcntl(Fd, F_GETFL, 0);
  if (Flags >= 0)
    ::fcntl(Fd, F_SETFL, Flags | O_NONBLOCK);
  Wr.Fd = Fd;
  Wr.DeadlineAt = nowMs() + ClientWriteTimeoutMs;
  if (flushOutgoing(Wr))
    Writes.push_back(std::move(Wr));
}

void Pool::refuse(int Fd, Status St, const std::string &Msg) {
  Response R;
  R.St = St;
  R.Exit = exitCodeForStatus(St);
  R.Message = Msg;
  queueResponse(Fd, R); // best effort: peer may be gone
}

void Pool::admit(ClientConn &C, std::vector<uint8_t> &Payload) {
  Request Req;
  if (!deserializeRequest(Payload.data(), Payload.size(), Req)) {
    refuse(C.Fd, Status::ProtocolError, "undecodable request");
    C.Fd = -1;
    return;
  }
  if (Draining) {
    refuse(C.Fd, Status::ShuttingDown, "server is draining");
    C.Fd = -1;
    return;
  }
  // Validate before admission: a request the worker would refuse must
  // not occupy queue depth or a worker slot.
  PendingReq P;
  P.Opt = O.Base;
  bool OptOk = !Req.Sources.empty();
  std::string BadOpt;
  for (const std::string &Ov : Req.Overrides)
    if (parseRunOption(Ov.c_str(), P.Opt) != OptionParse::Matched) {
      OptOk = false;
      BadOpt = Ov;
      break;
    }
  if (!OptOk) {
    refuse(C.Fd, Status::BadRequest,
           Req.Sources.empty() ? "request names no sources"
                               : "bad override '" + BadOpt + "'");
    C.Fd = -1;
    return;
  }
  if (Queue.size() >= O.QueueDepth &&
      std::none_of(Workers.begin(), Workers.end(),
                   [](const PoolWorker &W) { return !W.Busy; })) {
    ++N.RejectedBusy;
    refuse(C.Fd, Status::Busy, "admission queue full");
    C.Fd = -1;
    return;
  }
  for (const AppSource &S : Req.Sources) {
    if (!P.AppName.empty())
      P.AppName += " ";
    P.AppName += S.Name;
  }
  P.ClientFd = C.Fd;
  P.Sources = std::move(Req.Sources);
  P.Line = NextLine++;
  ++N.Accepted;
  Queue.push_back(std::move(P));
  // Fd ownership moved to the request: clear the slot so compaction can
  // reclaim it and forked children never close a recycled fd number.
  C.Admitted = true;
  C.Fd = -1;
}

void Pool::dispatch() {
  for (size_t I = 0; I < Workers.size() && !Queue.empty(); ++I) {
    PoolWorker &W = Workers[I];
    // The daemon hands work to an idle live worker; a batch forks a fresh
    // worker into an empty slot.
    if (W.Busy || (OneShot ? W.Pid >= 0 : W.Fd < 0))
      continue;
    W.Cur = std::move(Queue.front());
    Queue.pop_front();
    // Per-attempt backstops, derived from the request's cooperative
    // limits after the environment overlay the worker itself applies.
    RunGuard::Limits Coop;
    Coop.DeadlineMs = W.Cur.Opt.DeadlineMs;
    Coop.MaxMemoryBytes = W.Cur.Opt.MaxMemoryMb * 1024 * 1024;
    SupervisorConfig Lim;
    deriveHardLimits(RunGuard::limitsFromEnv(Coop), Lim);
    if (OneShot) {
      if (!spawnWorker(W, &Lim)) {
        // socketpair or fork failed: a terminal error for this app, not
        // for the batch. The slot is still empty, so it takes the next
        // queued app; each failure consumes one, so the queue drains even
        // when no worker can start (a pool with no live worker and apps
        // still queued would wait in poll() forever).
        Response Resp;
        Resp.St = Status::Error;
        Resp.Exit = ExitError;
        complete(W.Cur, Resp, ExitClass::Error, 0, ExitError);
        --I; // size_t wrap-around at 0 is undone by the loop's ++I
        continue;
      }
      ++N.Spawned;
    }
    Request WireReq;
    WireReq.Sources = W.Cur.Sources;
    WireReq.Overrides = encodeRunOptions(W.Cur.Opt);
    if (!writeFrame(W.Fd, serializeRequest(WireReq)) && !OneShot) {
      // The worker's end is dead; its EOF handler reaps and respawns it.
      Queue.push_front(std::move(W.Cur));
      continue;
    }
    // A one-shot worker that died before reading its request stays busy:
    // the EOF path classifies it like any other death.
    W.Busy = true;
    W.DeadlineAt = Lim.HardDeadlineMs > 0 ? nowMs() + Lim.HardDeadlineMs : 0;
    W.GraceMs = Lim.GraceMs;
    W.KillAt = 0;
    W.TermSent = false;
    W.Cur.BeginUs = trace::enabled() ? trace::nowUs() : 0;
  }
}

void Pool::journalAttempt(const PendingReq &R, ExitClass Class, int Signal,
                          int Exit, uint64_t Issues, bool Terminal) {
  if (!Log.configured())
    return;
  Attempt A;
  A.Line = R.Line;
  A.App = R.AppName;
  A.ConfigFp = ConfigFp;
  A.AttemptNo = R.AttemptNo;
  A.Class = Class;
  A.Signal = Signal;
  A.Exit = Exit;
  A.Issues = Issues;
  A.Terminal = Terminal;
  Log.append(A);
}

void Pool::stampServerCounters(Stats &S) const {
  S.add("server.accepted", N.Accepted);
  S.add("server.rejected_busy", N.RejectedBusy);
  S.add("server.served", N.Served);
  S.add("server.retried", N.Retried);
  S.add("server.hot_hits", N.HotHits);
  S.add("server.drained", N.Drained);
}

/// Delivers the terminal outcome of \p R: journaled and its counters
/// merged, then answered to the client (serve) or recorded for in-order
/// printing (batch).
void Pool::complete(PendingReq &R, Response &Resp, ExitClass Class,
                    int Signal, int Exit) {
  journalAttempt(R, Class, Signal, Exit, Resp.Issues, /*Terminal=*/true);
  Stats ReqStats;
  recoverWorkerStats(Resp.StatsJson, R.AppName, &ReqStats,
                     N.StatsParseFailed);
  Merged.merge(ReqStats);
  if (OneShot) {
    AppResult &Res = Results[R.Line];
    Res.Done = true;
    Res.Class = Class;
    Res.Exit = Exit >= 0 ? Exit : exitCodeForStatus(statusFromExitClass(Class));
    Res.Issues = Resp.Issues;
    Res.Output = std::move(Resp.Report);
    Res.Diag = std::move(Resp.Diag);
    if (Class == ExitClass::Crashed)
      Res.Suffix = " (crashed: signal " + std::to_string(Signal) + ")";
    else if (Class == ExitClass::Timeout)
      Res.Suffix = " (timeout)";
    else if (Class == ExitClass::Oom)
      Res.Suffix = " (oom)";
    else if (R.AttemptNo > 1 && Class != ExitClass::Error)
      ++N.Recovered;
    --Remaining;
    return;
  }
  ++N.Served;
  if (Draining)
    ++N.Drained;
  N.HotHits += ReqStats.get("persist.mem_hit");
  // Stamp the server's counters into the response so a client's
  // --stats-json shows the daemon-side picture too.
  stampServerCounters(ReqStats);
  Resp.StatsJson = ReqStats.toJson();
  if (R.ClientFd >= 0) {
    queueResponse(R.ClientFd, Resp);
    R.ClientFd = -1;
  }
}

/// The coordinator-side span of one attempt, on its worker slot's lane:
/// concurrent workers would overlap on the coordinator's own track, while
/// the attempts one slot runs follow each other.
void Pool::traceAttempt(size_t Idx, const PendingReq &R, bool Died) {
  if (!R.BeginUs)
    return;
  std::string Name;
  if (OneShot)
    Name = "worker: " + R.AppName + " (attempt " +
           std::to_string(R.AttemptNo) + ")";
  else
    Name = "serve " + R.AppName + (Died ? " (died)" : "");
  trace::addComplete(std::move(Name), Cat, R.BeginUs, trace::nowUs(),
                     static_cast<uint32_t>(1000 + Idx));
}

void Pool::onWorkerFrame(size_t Idx, std::vector<uint8_t> &Payload) {
  PoolWorker &W = Workers[Idx];
  Response Resp;
  if (!deserializeResponse(Payload.data(), Payload.size(), Resp)) {
    // A worker speaking garbage is as good as dead: kill and let the
    // death path classify it.
    std::fprintf(stderr, "%s: undecodable worker response\n", Tag);
    ::kill(W.Pid, SIGKILL);
    return;
  }
  if (!W.Busy)
    return; // response for a request we already gave up on
  traceAttempt(Idx, W.Cur, /*Died=*/false);
  const ExitClass Class = classifyExitCode(Resp.Exit);
  // Keep a copy of the worker's events for the merged timeline; a client
  // still gets the blob for its own --trace.
  if (!Resp.TraceBlob.empty())
    TraceBlobs.push_back(Resp.TraceBlob);
  complete(W.Cur, Resp, Class, 0, Resp.Exit);
  W.Busy = false;
  W.DeadlineAt = W.KillAt = 0;
  W.TermSent = false;
  // A one-shot worker has served its attempt; during a drain the
  // in-flight request this worker was kept alive for is done.
  if (OneShot || Draining)
    retire(W);
}

void Pool::onWorkerDeath(size_t Idx) {
  PoolWorker &W = Workers[Idx];
  ::close(W.Fd);
  W.Fd = -1;
  int Status = 1 << 8; // an unreapable worker counts as an error exit
  while (::waitpid(W.Pid, &Status, 0) < 0 && errno == EINTR) {
  }
  const bool WatchdogKilled = W.TermSent;
  W.Pid = -1;
  if (W.Busy) {
    W.Busy = false;
    PendingReq R = std::move(W.Cur);
    const ExitClass Class = classifyWaitStatus(Status, WatchdogKilled);
    const int Sig = WIFSIGNALED(Status) ? WTERMSIG(Status) : 0;
    const int Exit = WIFEXITED(Status) ? WEXITSTATUS(Status) : -1;
    traceAttempt(Idx, R, /*Died=*/true);
    if (Class == ExitClass::Crashed)
      ++N.Crashed;
    else if (Class == ExitClass::Timeout)
      ++N.TimedOut;
    else if (Class == ExitClass::Oom)
      ++N.OomKilled;
    const bool Retryable = Class == ExitClass::Crashed ||
                           Class == ExitClass::Timeout ||
                           Class == ExitClass::Oom;
    if (Retryable && R.AttemptNo <= O.MaxRetries && !Draining) {
      // Retry path: a degraded re-run at the front of the queue, so the
      // app resolves before new work starts.
      journalAttempt(R, Class, Sig, Exit, 0, /*Terminal=*/false);
      ++R.AttemptNo;
      R.Opt = degradeForRetry(R.Opt);
      ++N.Retried;
      trace::addInstant("retry " + R.AppName, Cat);
      Queue.push_front(std::move(R));
    } else {
      Response Resp;
      Resp.St = statusFromExitClass(Class);
      Resp.Exit = exitCodeForStatus(Resp.St);
      Resp.Message = std::string("worker ") + exitClassName(Class);
      complete(R, Resp, Class, Sig, Exit);
    }
  }
  W.DeadlineAt = W.KillAt = 0;
  W.TermSent = false;
  W.InBuf.clear();
  if (!Draining && !OneShot) {
    if (spawnWorker(W, nullptr))
      ++N.Respawned;
    else
      std::fprintf(stderr, "%s: worker respawn failed\n", Tag);
  }
}

void Pool::beginDrain() {
  Draining = true;
  trace::addInstant("drain", Cat);
  if (ListenFd >= 0) {
    ::close(ListenFd);
    ListenFd = -1;
    ::unlink(O.SocketPath.c_str());
  }
  // Everything not yet running gets a clean refusal.
  for (PendingReq &R : Queue)
    if (R.ClientFd >= 0) {
      refuse(R.ClientFd, Status::ShuttingDown, "server is draining");
      R.ClientFd = -1;
    }
  Queue.clear();
  for (ClientConn &C : Clients)
    if (!C.Admitted && C.Fd >= 0) {
      refuse(C.Fd, Status::ShuttingDown, "server is draining");
      C.Fd = -1;
    }
  // Idle workers see EOF on their pair and exit; busy workers keep
  // running until their in-flight response lands.
  for (PoolWorker &W : Workers)
    if (!W.Busy && W.Fd >= 0)
      retire(W);
}

/// Prints every finished batch app whose predecessors have all printed,
/// so stdout and each app's diagnostics on stderr follow the list order
/// whatever order workers finish in.
void Pool::flushReady() {
  while (NextPrint < Results.size() && Results[NextPrint].Done) {
    AppResult &R = Results[NextPrint];
    const char *Name = (*Apps)[NextPrint].Name.c_str();
    std::printf("=== %s\n", Name);
    std::fwrite(R.Diag.data(), 1, R.Diag.size(), stderr);
    std::fwrite(R.Output.data(), 1, R.Output.size(), stdout);
    std::printf("--- %s: exit=%d issues=%llu%s\n", Name, R.Exit,
                static_cast<unsigned long long>(R.Issues), R.Suffix.c_str());
    std::fflush(stdout);
    std::string().swap(R.Output); // later workers fork from this heap
    std::string().swap(R.Diag);
    ++NextPrint;
  }
}

/// Stamps the pool's own counters into the merged stats, then writes the
/// --stats-json and merged --trace artifacts.
bool Pool::writeArtifacts() {
  if (OneShot) {
    Merged.add("supervise.spawned", N.Spawned);
    Merged.add("supervise.crashed", N.Crashed);
    Merged.add("supervise.timed_out", N.TimedOut);
    Merged.add("supervise.oom_killed", N.OomKilled);
    Merged.add("supervise.retried", N.Retried);
    Merged.add("supervise.recovered", N.Recovered);
    Merged.add("supervise.resumed_skips", N.ResumedSkips);
    Merged.add("supervise.stats_parse_failed", N.StatsParseFailed);
  } else {
    stampServerCounters(Merged);
    Merged.add("server.respawned", N.Respawned);
  }
  return server::writeArtifacts(O.StatsJsonPath, Merged.toJson(), O.TracePath,
                                TraceBlobs);
}

/// The event loop both modes share. A daemon leaves it once a drain has
/// resolved every in-flight request and flushed every response; a batch
/// once every app has a terminal outcome.
void Pool::loop() {
  std::vector<struct pollfd> Pfds;
  // Pfds[i] corresponds to Kind[i]/Which[i].
  enum PollKind { Listen, Client, Worker, Wake, Write };
  std::vector<PollKind> Kind;
  std::vector<size_t> Which;
  std::vector<uint8_t> Payload;
  char RdBuf[65536];
  for (;;) {
    if (GDrain && !Draining)
      beginDrain();
    if (Draining) {
      bool AnyAlive = std::any_of(Workers.begin(), Workers.end(),
                                  [](const PoolWorker &W) {
                                    return W.Pid >= 0;
                                  });
      bool AnyWrite = std::any_of(Writes.begin(), Writes.end(),
                                  [](const Outgoing &Wr) {
                                    return Wr.Fd >= 0;
                                  });
      if (!AnyAlive && !AnyWrite)
        break;
    } else {
      dispatch();
    }
    if (OneShot) {
      flushReady();
      if (Remaining == 0)
        break;
    }

    // Watchdog pass: SIGTERM at the hard deadline, SIGKILL after grace.
    double Now = nowMs();
    double NextWake = -1;
    for (PoolWorker &W : Workers) {
      if (!W.Busy || W.Pid < 0)
        continue;
      if (W.TermSent) {
        if (Now >= W.KillAt) {
          trace::addInstant("watchdog SIGKILL " + W.Cur.AppName, Cat);
          ::kill(W.Pid, SIGKILL);
          W.KillAt = Now + 1000; // re-nudge if the zombie lingers
        }
        if (NextWake < 0 || W.KillAt - Now < NextWake)
          NextWake = W.KillAt - Now;
      } else if (W.DeadlineAt > 0) {
        if (Now >= W.DeadlineAt) {
          trace::addInstant("watchdog SIGTERM " + W.Cur.AppName, Cat);
          ::kill(W.Pid, SIGTERM);
          W.TermSent = true;
          W.KillAt = Now + W.GraceMs;
          if (NextWake < 0 || W.GraceMs < NextWake)
            NextWake = W.GraceMs;
        } else if (NextWake < 0 || W.DeadlineAt - Now < NextWake) {
          NextWake = W.DeadlineAt - Now;
        }
      }
    }
    // Buffered-response deadlines: a client that has not drained its
    // response by DeadlineAt is dropped.
    for (Outgoing &Wr : Writes) {
      if (Wr.Fd < 0)
        continue;
      if (Now >= Wr.DeadlineAt) {
        ::close(Wr.Fd);
        Wr.Fd = -1;
        continue;
      }
      if (NextWake < 0 || Wr.DeadlineAt - Now < NextWake)
        NextWake = Wr.DeadlineAt - Now;
    }

    Pfds.clear();
    Kind.clear();
    Which.clear();
    auto Watch = [&](int Fd, short Events, PollKind K, size_t I) {
      Pfds.push_back({Fd, Events, 0});
      Kind.push_back(K);
      Which.push_back(I);
    };
    if (ListenFd >= 0)
      Watch(ListenFd, POLLIN, Listen, 0);
    for (size_t I = 0; I < Clients.size(); ++I)
      if (Clients[I].Fd >= 0 && !Clients[I].Admitted)
        Watch(Clients[I].Fd, POLLIN, Client, I);
    for (size_t I = 0; I < Workers.size(); ++I)
      if (Workers[I].Fd >= 0)
        Watch(Workers[I].Fd, POLLIN, Worker, I);
    if (GWakeFds[0] >= 0)
      Watch(GWakeFds[0], POLLIN, Wake, 0);
    for (size_t I = 0; I < Writes.size(); ++I)
      if (Writes[I].Fd >= 0)
        Watch(Writes[I].Fd, POLLOUT, Write, I);

    // Clamp before the int cast: a deadline far in the future (poll's
    // timeout caps near INT_MAX ms, ~24.8 days) must not overflow into
    // UB or a negative (infinite) timeout; the loop simply re-arms after
    // an early wake.
    int Timeout =
        NextWake < 0 ? -1 : static_cast<int>(std::min(NextWake, 6.0e7)) + 1;
    int RC = ::poll(Pfds.data(), Pfds.size(), Timeout);
    if (RC < 0) {
      if (errno == EINTR)
        continue; // drain signal or reaped child; loop re-evaluates
      std::fprintf(stderr, "error: poll: %s\n", std::strerror(errno));
      break;
    }

    for (size_t I = 0; I < Pfds.size(); ++I) {
      if (Pfds[I].revents == 0)
        continue;
      switch (Kind[I]) {
      case Listen: {
        int CFd = ::accept(ListenFd, nullptr, nullptr);
        if (CFd < 0)
          break;
        ClientConn C;
        C.Fd = CFd;
        // Reuse a dead slot to keep the vector bounded.
        auto It = std::find_if(Clients.begin(), Clients.end(),
                               [](const ClientConn &X) { return X.Fd < 0; });
        if (It != Clients.end())
          *It = std::move(C);
        else
          Clients.push_back(std::move(C));
        break;
      }
      case Client: {
        ClientConn &C = Clients[Which[I]];
        ssize_t Got = ::read(C.Fd, RdBuf, sizeof(RdBuf));
        if (Got <= 0) {
          if (Got < 0 && errno == EINTR)
            break;
          ::close(C.Fd); // EOF before a full request: client gave up
          C.Fd = -1;
          C.Buf.clear();
          break;
        }
        C.Buf.append(RdBuf, static_cast<size_t>(Got));
        bool Bad = false;
        if (takeFrame(C.Buf, Payload, Bad)) {
          // One request per connection: whatever trails the frame is
          // noise. admit() takes the fd on every path — admitted or
          // refused, C.Fd comes back cleared.
          admit(C, Payload);
          C.Buf.clear();
        } else if (Bad) {
          refuse(C.Fd, Status::ProtocolError, "bad frame");
          C.Fd = -1;
          C.Buf.clear();
        }
        break;
      }
      case Wake:
        // Self-pipe tick: drain it; the wake itself is the payload.
        while (::read(GWakeFds[0], RdBuf, sizeof(RdBuf)) > 0) {
        }
        break;
      case Write:
        flushOutgoing(Writes[Which[I]]);
        break;
      case Worker: {
        PoolWorker &W = Workers[Which[I]];
        ssize_t Got = ::read(W.Fd, RdBuf, sizeof(RdBuf));
        if (Got <= 0) {
          if (Got < 0 && errno == EINTR)
            break;
          onWorkerDeath(Which[I]);
          break;
        }
        W.InBuf.append(RdBuf, static_cast<size_t>(Got));
        bool Bad = false;
        while (W.Pid > 0 && takeFrame(W.InBuf, Payload, Bad))
          onWorkerFrame(Which[I], Payload);
        if (Bad && W.Pid > 0) {
          std::fprintf(stderr, "%s: corrupt worker stream\n", Tag);
          ::kill(W.Pid, SIGKILL);
        }
        break;
      }
      }
    }
    // Compact dead client slots and finished writes opportunistically.
    Clients.erase(std::remove_if(Clients.begin(), Clients.end(),
                                 [](const ClientConn &C) {
                                   return C.Fd < 0;
                                 }),
                  Clients.end());
    Writes.erase(std::remove_if(Writes.begin(), Writes.end(),
                                [](const Outgoing &Wr) { return Wr.Fd < 0; }),
                 Writes.end());
  }
}

int Pool::serve() {
  // Handlers before the socket goes live: a client that sees the socket
  // may SIGTERM us immediately, and with the default disposition still in
  // place that kills the daemon instead of starting a drain. The handler
  // tolerates the wake pipe not existing yet (GDrain alone suffices — the
  // loop checks it before its first poll()).
  installDrainHandlers();
  if (!setupSocket())
    return ExitError;
  // Wake pipe before the pool: forked children must know both ends to
  // close them. Non-blocking on both ends — the handler must never
  // block, and draining reads until EAGAIN.
  if (::pipe(GWakeFds) == 0) {
    for (int End = 0; End < 2; ++End) {
      int Flags = ::fcntl(GWakeFds[End], F_GETFL, 0);
      if (Flags >= 0)
        ::fcntl(GWakeFds[End], F_SETFL, Flags | O_NONBLOCK);
    }
  } else {
    GWakeFds[0] = GWakeFds[1] = -1; // EINTR-on-poll remains the fallback
  }
  Workers.resize(O.PoolSize);
  for (PoolWorker &W : Workers)
    if (!spawnWorker(W, nullptr)) {
      // A partial pool still serves; no pool at all cannot.
      bool Any = std::any_of(Workers.begin(), Workers.end(),
                             [](const PoolWorker &X) { return X.Fd >= 0; });
      if (!Any) {
        ::close(ListenFd);
        ::unlink(O.SocketPath.c_str());
        return ExitError;
      }
    }
  std::fprintf(stderr, "taj-serve: listening on %s (pool=%u queue=%u)\n",
               O.SocketPath.c_str(), O.PoolSize, O.QueueDepth);

  loop();

  // Detach the self-pipe from the handler before closing it, so a late
  // signal sees -1 and skips the write instead of hitting a closed fd.
  const int WakeR = GWakeFds[0], WakeW = GWakeFds[1];
  GWakeFds[0] = GWakeFds[1] = -1;
  if (WakeR >= 0)
    ::close(WakeR);
  if (WakeW >= 0)
    ::close(WakeW);

  const bool Ok = writeArtifacts();
  std::fprintf(stderr, "taj-serve: drained (%llu served, %llu busy-rejected, "
                       "%llu retried, %llu hot hits)\n",
               static_cast<unsigned long long>(N.Served),
               static_cast<unsigned long long>(N.RejectedBusy),
               static_cast<unsigned long long>(N.Retried),
               static_cast<unsigned long long>(N.HotHits));
  return Ok ? ExitClean : ExitError;
}

int Pool::batch(bool Resume) {
  Results.resize(Apps->size());
  // Resume pre-pass: a terminal journal record for (line, app, config)
  // means the work is already done — contribute its recorded outcome to
  // the worst-of exit and skip the worker entirely.
  if (Resume) {
    std::unordered_map<uint64_t, Attempt> Terminal;
    for (Attempt &A : Journal::load(O.JournalPath))
      if (A.Terminal && A.ConfigFp == ConfigFp && A.Line < Apps->size() &&
          A.App == (*Apps)[A.Line].Name)
        Terminal[A.Line] = std::move(A);
    for (auto &[Line, A] : Terminal) {
      AppResult &R = Results[Line];
      R.Done = true;
      R.Class = A.Class;
      R.Exit = A.Exit >= 0 ? A.Exit
                           : exitCodeForStatus(statusFromExitClass(A.Class));
      R.Issues = A.Issues;
      R.Suffix = " (resumed)";
      ++N.ResumedSkips;
    }
  }
  for (size_t I = 0; I < Apps->size(); ++I) {
    if (Results[I].Done)
      continue;
    PendingReq P;
    P.Opt = O.Base;
    P.AppName = (*Apps)[I].Name;
    P.Line = I;
    for (const std::string &F : (*Apps)[I].Files)
      P.Sources.push_back({F, false, ""});
    Queue.push_back(std::move(P));
    ++Remaining;
  }
  Workers.resize(std::max(1u, O.PoolSize));

  loop();

  int Exit = ExitClean;
  for (const AppResult &R : Results)
    Exit = worstExit(Exit, exitCodeForStatus(statusFromExitClass(R.Class)));
  return writeArtifacts() ? Exit : ExitError;
}

} // namespace

int server::runServer(const ServerOptions &O) {
  Pool P(O, nullptr);
  return P.serve();
}

int server::runBatch(const ServerOptions &O, const std::vector<BatchApp> &Apps,
                     bool Resume) {
  Pool P(O, &Apps);
  return P.batch(Resume);
}
