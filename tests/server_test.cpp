//===- tests/server_test.cpp - Analysis server ----------------------------===//
//
// The analysis server must be a transparent accelerator: a request served
// by a warm pool worker returns byte-for-byte the report a local run would
// print, under the same exit contract, while the daemon enforces admission
// control, per-request watchdogs, the degraded-config retry ladder and a
// clean SIGTERM drain. These tests pin that contract down:
//  - the framed wire protocol round-trips and rejects malformed frames;
//  - the artifact cache's in-memory hot tier LRU-evicts by bytes, rejects
//    oversized entries, and layers over the disk tier (promotion on disk
//    hits, memory-only operation without a cache dir);
//  - the shared option set round-trips through its canonical encoding and
//    the retry degradation strips fault injection;
//  - the new flags obey the dependency matrix (usage errors, not silent
//    acceptance);
//  - server responses are byte-identical to local runs, including eight
//    concurrent clients checked against a `--batch` baseline;
//  - admission control answers `busy` when the queue is full, the
//    watchdog turns a hung worker into a `timeout` answer plus a
//    respawned worker, and a crashed request recovers through the retry
//    ladder with a journaled non-terminal attempt;
//  - SIGTERM drains: in-flight work resolved, artifacts written, exit 0,
//    later connections cleanly refused;
//  - SIGPIPE on a reader-less stdout is an error exit, not a signal death.
//
//===----------------------------------------------------------------------===//

#include "persist/Cache.h"
#include "server/Client.h"
#include "server/Journal.h"
#include "server/Protocol.h"
#include "server/Service.h"
#include "support/Stats.h"

#include <gtest/gtest.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <csignal>
#include <fcntl.h>
#include <sys/socket.h>
#include <sys/un.h>
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
    char Buf[] = "/tmp/taj-server-XXXXXX";
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

std::string readWhole(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(In)),
                     std::istreambuf_iterator<char>());
}

void writeWhole(const std::string &Path, const std::string &Text) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out << Text;
}

/// Runs taj-cli through a shell, capturing stdout+stderr merged.
std::string runCli(const std::string &Args, int &ExitCode) {
  std::string Cmd = std::string(TAJ_CLI_PATH) + " " + Args + " 2>&1";
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

/// Extracts an integer counter from a --stats-json file (missing = -1).
long long statOf(const std::string &JsonPath, const std::string &Name) {
  std::string J = readWhole(JsonPath);
  std::string Needle = "\"" + Name + "\":";
  size_t At = J.find(Needle);
  if (At == std::string::npos)
    return -1;
  return std::atoll(J.c_str() + At + Needle.size());
}

/// Forks and execs taj-cli with \p Args, stdout/stderr redirected to files
/// ("" keeps the test's own), with optional extra environment. Returns the
/// child pid.
pid_t spawnCli(const std::vector<std::string> &Args,
               const std::string &OutPath, const std::string &ErrPath,
               const std::vector<std::pair<std::string, std::string>> &Env =
                   {}) {
  pid_t Pid = ::fork();
  if (Pid != 0)
    return Pid;
  if (!OutPath.empty()) {
    int Fd = ::open(OutPath.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (Fd < 0 || ::dup2(Fd, STDOUT_FILENO) < 0)
      ::_exit(126);
    ::close(Fd);
  }
  if (!ErrPath.empty()) {
    int Fd = ::open(ErrPath.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (Fd < 0 || ::dup2(Fd, STDERR_FILENO) < 0)
      ::_exit(126);
    ::close(Fd);
  }
  for (const auto &E : Env)
    ::setenv(E.first.c_str(), E.second.c_str(), 1);
  std::vector<std::string> Store;
  Store.push_back(TAJ_CLI_PATH);
  for (const std::string &A : Args)
    Store.push_back(A);
  std::vector<char *> Argv;
  for (std::string &S : Store)
    Argv.push_back(S.data());
  Argv.push_back(nullptr);
  ::execv(TAJ_CLI_PATH, Argv.data());
  ::_exit(127);
}

/// Blocks for \p Pid; exited children return their code, signaled ones
/// -100-signo (so assertions can tell the two apart).
int waitExit(pid_t Pid) {
  int St = 0;
  pid_t R;
  do {
    R = ::waitpid(Pid, &St, 0);
  } while (R < 0 && errno == EINTR);
  if (R < 0)
    return -1;
  if (WIFEXITED(St))
    return WEXITSTATUS(St);
  return WIFSIGNALED(St) ? -100 - WTERMSIG(St) : -1;
}

/// Polls until something accepts connections on \p Path (sanitized CI
/// builds start slowly).
bool waitForSocket(const std::string &Path, int TimeoutMs = 20000) {
  struct sockaddr_un Addr;
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sun_family = AF_UNIX;
  if (Path.size() >= sizeof(Addr.sun_path))
    return false;
  std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);
  for (int Waited = 0; Waited < TimeoutMs; Waited += 20) {
    int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (Fd >= 0) {
      bool Up = ::connect(Fd, reinterpret_cast<struct sockaddr *>(&Addr),
                          sizeof(Addr)) == 0;
      ::close(Fd);
      if (Up)
        return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return false;
}

/// One daemon instance for a test: started via fork+exec, drained with
/// SIGTERM, SIGKILLed as a last resort on teardown.
struct ServerHandle {
  pid_t Pid = -1;
  std::string Sock;

  bool start(const TempDir &T, std::vector<std::string> ExtraArgs,
             const std::vector<std::pair<std::string, std::string>> &Env =
                 {}) {
    Sock = T.Path + "/srv.sock";
    std::vector<std::string> Args = {"--serve=" + Sock};
    Args.insert(Args.end(), ExtraArgs.begin(), ExtraArgs.end());
    Pid = spawnCli(Args, "", T.Path + "/server.err", Env);
    return Pid > 0 && waitForSocket(Sock);
  }

  /// SIGTERM drain; returns the daemon's exit code.
  int stop() {
    if (Pid <= 0)
      return -1;
    ::kill(Pid, SIGTERM);
    int Code = waitExit(Pid);
    Pid = -1;
    return Code;
  }

  ~ServerHandle() {
    if (Pid > 0) {
      ::kill(Pid, SIGKILL);
      waitExit(Pid);
    }
  }
};

/// Bare connected socket to \p Path, for clients that misbehave on
/// purpose (-1 on failure).
int rawConnect(const std::string &Path) {
  struct sockaddr_un Addr;
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sun_family = AF_UNIX;
  if (Path.size() >= sizeof(Addr.sun_path))
    return -1;
  std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0)
    return -1;
  if (::connect(Fd, reinterpret_cast<struct sockaddr *>(&Addr),
                sizeof(Addr)) != 0) {
    ::close(Fd);
    return -1;
  }
  return Fd;
}

/// One wire-ready request frame shipping \p AppPath inline, the way a
/// real client sends it.
std::string requestFrameFor(const std::string &AppPath) {
  Request Req;
  AppSource S;
  S.Name = AppPath;
  S.Inline = true;
  S.Content = readWhole(AppPath);
  Req.Sources.push_back(std::move(S));
  std::string Frame;
  EXPECT_TRUE(appendFrame(Frame, serializeRequest(Req)));
  return Frame;
}

//===----------------------------------------------------------------------===//
// Wire protocol
//===----------------------------------------------------------------------===//

TEST(Protocol, RequestRoundTrips) {
  Request R;
  R.Sources.push_back({"a.taj", true, "class A extends Object {}\n"});
  R.Sources.push_back({"b.taj", false, ""});
  R.Overrides = {"--config=cs", "--budget=100"};
  std::vector<uint8_t> Wire = serializeRequest(R);
  Request Back;
  ASSERT_TRUE(deserializeRequest(Wire.data(), Wire.size(), Back));
  ASSERT_EQ(Back.Sources.size(), 2u);
  EXPECT_EQ(Back.Sources[0].Name, "a.taj");
  EXPECT_TRUE(Back.Sources[0].Inline);
  EXPECT_EQ(Back.Sources[0].Content, R.Sources[0].Content);
  EXPECT_FALSE(Back.Sources[1].Inline);
  EXPECT_EQ(Back.Overrides, R.Overrides);
}

TEST(Protocol, ResponseRoundTrips) {
  Response R;
  R.St = Status::Truncated;
  R.Exit = 2;
  R.Issues = 7;
  R.Report = "report bytes\nwith \"quotes\" and \x01 binary\n";
  R.Diag = "run-status: pointer-analysis: truncated\n";
  R.StatsJson = "{\"cli.issues\":7}";
  R.TraceBlob = "{\"name\":\"x\"}";
  R.Message = "msg";
  std::vector<uint8_t> Wire = serializeResponse(R);
  Response Back;
  ASSERT_TRUE(deserializeResponse(Wire.data(), Wire.size(), Back));
  EXPECT_EQ(Back.St, Status::Truncated);
  EXPECT_EQ(Back.Exit, 2);
  EXPECT_EQ(Back.Issues, 7u);
  EXPECT_EQ(Back.Report, R.Report);
  EXPECT_EQ(Back.Diag, R.Diag);
  EXPECT_EQ(Back.StatsJson, R.StatsJson);
  EXPECT_EQ(Back.TraceBlob, R.TraceBlob);
  EXPECT_EQ(Back.Message, R.Message);
}

TEST(Protocol, RejectsMalformedPayloads) {
  Request R;
  R.Sources.push_back({"a.taj", true, "text"});
  std::vector<uint8_t> Wire = serializeRequest(R);
  Request Back;
  // Every truncation of a valid payload must be rejected, not crash.
  for (size_t Len = 0; Len < Wire.size(); ++Len)
    EXPECT_FALSE(deserializeRequest(Wire.data(), Len, Back)) << Len;
  // Trailing garbage is a protocol error too.
  Wire.push_back(0);
  EXPECT_FALSE(deserializeRequest(Wire.data(), Wire.size(), Back));

  Response Resp;
  Resp.Report = "r";
  std::vector<uint8_t> RW = serializeResponse(Resp);
  Response RBack;
  for (size_t Len = 0; Len < RW.size(); ++Len)
    EXPECT_FALSE(deserializeResponse(RW.data(), Len, RBack)) << Len;
  // An out-of-range status byte is rejected.
  RW[0] = 200;
  EXPECT_FALSE(deserializeResponse(RW.data(), RW.size(), RBack));
}

TEST(Protocol, FramesRoundTripAndRejectCorruption) {
  int P[2];
  ASSERT_EQ(::pipe(P), 0);
  std::vector<uint8_t> Payload = {1, 2, 3, 4, 5};
  ASSERT_TRUE(writeFrame(P[1], Payload));
  std::vector<uint8_t> Back;
  ASSERT_TRUE(readFrame(P[0], Back));
  EXPECT_EQ(Back, Payload);

  // Bad magic: rejected.
  const uint8_t BadHdr[8] = {'X', 'X', 'X', 'X', 1, 0, 0, 0};
  ASSERT_TRUE(writeFull(P[1], BadHdr, sizeof(BadHdr)));
  EXPECT_FALSE(readFrame(P[0], Back));

  // Oversized announced length: rejected before any allocation attempt.
  uint8_t Huge[8];
  const uint32_t Magic = FrameMagic;
  std::memcpy(Huge, &Magic, 4);
  const uint32_t TooBig = MaxFrameBytes + 1;
  std::memcpy(Huge + 4, &TooBig, 4);
  ASSERT_TRUE(writeFull(P[1], Huge, sizeof(Huge)));
  EXPECT_FALSE(readFrame(P[0], Back));

  // EOF mid-frame: rejected, not blocked on.
  const uint8_t Short[8] = {'T', 'A', 'J', '1', 100, 0, 0, 0};
  ASSERT_TRUE(writeFull(P[1], Short, sizeof(Short)));
  ::close(P[1]);
  EXPECT_FALSE(readFrame(P[0], Back));
  ::close(P[0]);
}

TEST(Protocol, AppendFrameMatchesTheWireFormat) {
  // The daemon's buffered sender builds frames in memory; the bytes must
  // be exactly what writeFrame puts on the wire.
  int P[2];
  ASSERT_EQ(::pipe(P), 0);
  std::vector<uint8_t> Payload = {42, 0, 7};
  std::string Buf = "pre"; // appended, not overwritten
  ASSERT_TRUE(appendFrame(Buf, Payload));
  ASSERT_TRUE(writeFull(P[1], Buf.data() + 3, Buf.size() - 3));
  std::vector<uint8_t> Back;
  ASSERT_TRUE(readFrame(P[0], Back));
  EXPECT_EQ(Back, Payload);

  // Empty payloads frame as a bare header.
  std::string Empty;
  ASSERT_TRUE(appendFrame(Empty, {}));
  EXPECT_EQ(Empty.size(), 8u);
  ASSERT_TRUE(writeFull(P[1], Empty.data(), Empty.size()));
  ASSERT_TRUE(readFrame(P[0], Back));
  EXPECT_TRUE(Back.empty());
  ::close(P[0]);
  ::close(P[1]);

  // Oversized payloads are refused with the buffer untouched.
  std::vector<uint8_t> Huge(MaxFrameBytes + 1);
  std::string Out = "x";
  EXPECT_FALSE(appendFrame(Out, Huge));
  EXPECT_EQ(Out, "x");
}

// Client and daemon may come from different builds, so the bytes each
// side puts on the wire are pinned here, not only round-tripped: a codec
// that changed both directions at once would pass every round trip.
TEST(Protocol, WireBytesArePinned) {
  Request Req;
  Req.Sources.push_back({"a.taj", true, "xy"});
  Req.Sources.push_back({"b", false, ""});
  Req.Overrides = {"--raw"};
  const std::vector<uint8_t> ReqWire = {
      2,   0,   0,   0,                     // two sources
      5,   0,   0,   0,   'a', '.', 't', 'a', 'j', // name
      1,                                    // inline
      2,   0,   0,   0,   'x', 'y',         // content
      1,   0,   0,   0,   'b',              // name
      0,                                    // a path, not inline
      0,   0,   0,   0,                     // no content
      1,   0,   0,   0,                     // one override
      5,   0,   0,   0,   '-', '-', 'r', 'a', 'w'};
  EXPECT_EQ(serializeRequest(Req), ReqWire);
  Request ReqBack;
  ASSERT_TRUE(deserializeRequest(ReqWire.data(), ReqWire.size(), ReqBack));
  ASSERT_EQ(ReqBack.Sources.size(), 2u);
  EXPECT_EQ(ReqBack.Sources[0].Name, "a.taj");
  EXPECT_TRUE(ReqBack.Sources[0].Inline);
  EXPECT_EQ(ReqBack.Sources[0].Content, "xy");
  EXPECT_EQ(ReqBack.Sources[1].Name, "b");
  EXPECT_FALSE(ReqBack.Sources[1].Inline);
  EXPECT_EQ(ReqBack.Overrides, Req.Overrides);

  Response Resp;
  Resp.St = Status::Crashed;
  Resp.Exit = -1;
  Resp.Issues = 0x0102030405060708ull;
  Resp.Report = "R";
  Resp.Diag = "D";
  Resp.StatsJson = "{}";
  Resp.TraceBlob = "";
  Resp.Message = "m";
  const std::vector<uint8_t> RespWire = {
      3,                                              // crashed
      0xff, 0xff, 0xff, 0xff,                         // exit -1
      8,    7,    6,    5,    4,   3,   2,   1,       // issues
      1,    0,    0,    0,    'R',                    // report
      1,    0,    0,    0,    'D',                    // diag
      2,    0,    0,    0,    '{', '}',               // stats
      0,    0,    0,    0,                            // no trace
      1,    0,    0,    0,    'm'};                   // message
  EXPECT_EQ(serializeResponse(Resp), RespWire);
  Response RespBack;
  ASSERT_TRUE(
      deserializeResponse(RespWire.data(), RespWire.size(), RespBack));
  EXPECT_EQ(RespBack.St, Status::Crashed);
  EXPECT_EQ(RespBack.Exit, -1);
  EXPECT_EQ(RespBack.Issues, 0x0102030405060708ull);
  EXPECT_EQ(RespBack.Report, "R");
  EXPECT_EQ(RespBack.Diag, "D");
  EXPECT_EQ(RespBack.StatsJson, "{}");
  EXPECT_EQ(RespBack.TraceBlob, "");
  EXPECT_EQ(RespBack.Message, "m");

  // The frame header: "TAJ1", then the payload length as u32 LE.
  std::string Frame;
  ASSERT_TRUE(appendFrame(Frame, std::vector<uint8_t>(258, 0xab)));
  ASSERT_EQ(Frame.size(), 8u + 258u);
  EXPECT_EQ(Frame.substr(0, 8), std::string("TAJ1\x02\x01\x00\x00", 8));
  EXPECT_EQ(static_cast<uint8_t>(Frame[8]), 0xab);
}

//===----------------------------------------------------------------------===//
// The artifact cache's in-memory hot tier and its layering over the disk
//===----------------------------------------------------------------------===//

constexpr persist::ArtifactKind IrKind = persist::ArtifactKind::Ir;

bool loads(persist::ArtifactCache &Cache, const std::string &Key) {
  return Cache.load(Key, IrKind).has_value();
}

TEST(MemCache, LruEvictsByBytes) {
  persist::ArtifactCache Cache(""); // memory-only
  Cache.enableHotTier(100);
  const std::vector<uint8_t> Forty(40, 1);
  Cache.store("a", IrKind, Forty);
  Cache.store("b", IrKind, Forty);
  EXPECT_EQ(Cache.counters().MemEvictions, 0u); // 80 bytes fit
  // Touch "a" so "b" is the LRU victim.
  EXPECT_TRUE(loads(Cache, "a"));
  Cache.store("c", IrKind, Forty);
  EXPECT_EQ(Cache.counters().MemEvictions, 1u);
  EXPECT_TRUE(loads(Cache, "a"));
  EXPECT_FALSE(loads(Cache, "b"));
  EXPECT_TRUE(loads(Cache, "c"));
}

TEST(MemCache, OversizedEntryIsRejectedOutright) {
  persist::ArtifactCache Cache("");
  Cache.enableHotTier(10);
  Cache.store("big", IrKind, std::vector<uint8_t>(11, 1));
  // Memory-only, so a rejected entry was stored nowhere and counts as
  // no store at all.
  EXPECT_EQ(Cache.counters().MemStores, 0u);
  EXPECT_EQ(Cache.counters().Stores, 0u);
  EXPECT_FALSE(loads(Cache, "big"));
  // A fitting entry is unaffected by the earlier rejection.
  Cache.store("ok", IrKind, std::vector<uint8_t>(10, 1));
  EXPECT_TRUE(loads(Cache, "ok"));
  EXPECT_EQ(Cache.counters().Stores, 1u);
}

TEST(MemCache, CountersEraseAndReplace) {
  // At a 6-byte cap the byte accounting is visible as eviction counts:
  // a stale size left behind by a replace or an erase would evict.
  persist::ArtifactCache Cache("");
  Cache.enableHotTier(6);
  const std::vector<uint8_t> Four = {1, 2, 3, 4}, Two = {1, 2};
  EXPECT_FALSE(loads(Cache, "k"));
  Cache.store("k", IrKind, Four);
  Cache.store("k", IrKind, Two); // replace shrinks k to 2 bytes
  auto K = Cache.load("k", IrKind);
  ASSERT_TRUE(K.has_value());
  EXPECT_EQ(K->size(), 2u);
  Cache.store("j", IrKind, Four); // 2 + 4 = 6 bytes: exactly the cap
  EXPECT_EQ(Cache.counters().MemEvictions, 0u);
  Cache.noteRestoreFailure("k"); // erase releases k's 2 bytes
  EXPECT_FALSE(loads(Cache, "k"));
  Cache.store("i", IrKind, Two); // 4 + 2 = 6 bytes: still no eviction
  EXPECT_EQ(Cache.counters().MemEvictions, 0u);
  Cache.store("h", IrKind, Two); // 8 bytes: j, the LRU entry, goes
  EXPECT_EQ(Cache.counters().MemEvictions, 1u);
  EXPECT_FALSE(loads(Cache, "j"));
  EXPECT_TRUE(loads(Cache, "i"));

  const persist::ArtifactCache::Counters C = Cache.counters();
  EXPECT_EQ(C.MemStores, 5u);
  EXPECT_EQ(C.MemMisses, 3u);
  EXPECT_EQ(C.MemHits, 2u);
  Stats S;
  Cache.exportSince(persist::ArtifactCache::Counters(), S);
  EXPECT_EQ(S.get("persist.mem_store"), 5u);
  EXPECT_EQ(S.get("persist.mem_miss"), 3u);
  EXPECT_EQ(S.get("persist.mem_evict"), 1u);
  EXPECT_EQ(S.get("persist.hit"), 2u); // a mem hit is a cache hit
  // Without a hot tier the mem_* rows are not written at all.
  persist::ArtifactCache Cold("");
  Stats Plain;
  Cold.exportSince(persist::ArtifactCache::Counters(), Plain);
  EXPECT_NE(Plain.toJson().find("\"persist.hit\":0"), std::string::npos);
  EXPECT_EQ(Plain.toJson().find("mem_"), std::string::npos);
}

TEST(ArtifactCache, MemOnlyModeServesLoadsWithoutADirectory) {
  persist::ArtifactCache Cache(""); // no disk tier
  EXPECT_FALSE(Cache.enabled());
  Cache.enableHotTier(0);
  EXPECT_TRUE(Cache.enabled());
  std::vector<uint8_t> Payload = {9, 8, 7};
  Cache.store("ir-abc", IrKind, Payload);
  auto Loaded = Cache.load("ir-abc", IrKind);
  ASSERT_TRUE(Loaded.has_value());
  EXPECT_EQ(std::vector<uint8_t>(Loaded->data(),
                                 Loaded->data() + Loaded->size()),
            Payload);
  const persist::ArtifactCache::Counters C = Cache.counters();
  EXPECT_EQ(C.MemHits, 1u);
  EXPECT_EQ(C.Hits, 1u); // a mem hit counts as a cache hit
  EXPECT_EQ(C.Stores, 1u);
}

TEST(ArtifactCache, DiskHitsPromoteIntoTheHotTier) {
  TempDir T;
  std::vector<uint8_t> Payload = {1, 2, 3, 4};
  {
    persist::ArtifactCache Cold(T.Path);
    Cold.store("ir-k", IrKind, Payload);
  }
  persist::ArtifactCache Cache(T.Path);
  Cache.enableHotTier(0);
  ASSERT_TRUE(loads(Cache, "ir-k"));
  EXPECT_EQ(Cache.counters().MemHits, 0u);   // first load came from disk...
  EXPECT_EQ(Cache.counters().MemStores, 1u); // ...and was promoted
  ASSERT_TRUE(loads(Cache, "ir-k"));
  EXPECT_EQ(Cache.counters().MemHits, 1u); // second load skips the disk
  // Invalidation drops both tiers.
  Cache.noteRestoreFailure("ir-k");
  EXPECT_FALSE(fs::exists(T.Path + "/ir-k.tajc"));
  EXPECT_FALSE(loads(Cache, "ir-k"));
  EXPECT_EQ(Cache.counters().MemHits, 1u);
}

TEST(ArtifactCache, HotHitsShareOnePayload) {
  persist::ArtifactCache Cache("");
  Cache.enableHotTier(0);
  Cache.store("ir-k", IrKind, std::vector<uint8_t>{1, 2, 3});
  auto A = Cache.load("ir-k", IrKind);
  auto B = Cache.load("ir-k", IrKind);
  ASSERT_TRUE(A.has_value() && B.has_value());
  // Both hits read the tier's one immutable copy.
  EXPECT_EQ(A->data(), B->data());
  EXPECT_EQ(Cache.counters().MemHits, 2u);
}

/// The bytes of a loaded payload, read through it.
std::vector<uint8_t> bytesOf(const persist::LoadedPayload &L) {
  return std::vector<uint8_t>(L.data(), L.data() + L.size());
}

TEST(ArtifactCache, HeldPayloadSurvivesRestoreFailure) {
  persist::ArtifactCache Cache("");
  Cache.enableHotTier(0);
  const std::vector<uint8_t> Payload(64, 7);
  Cache.store("ir-k", IrKind, Payload);
  auto Held = Cache.load("ir-k", IrKind);
  ASSERT_TRUE(Held.has_value());
  // Dropping the key frees the tier's reference, not the held one.
  Cache.noteRestoreFailure("ir-k");
  EXPECT_FALSE(loads(Cache, "ir-k"));
  Cache.store("ir-j", IrKind, std::vector<uint8_t>(64, 9));
  EXPECT_EQ(bytesOf(*Held), Payload);
}

TEST(ArtifactCache, HeldPayloadSurvivesCapEviction) {
  persist::ArtifactCache Cache("");
  Cache.enableHotTier(100);
  const std::vector<uint8_t> Payload(60, 3);
  Cache.store("ir-a", IrKind, Payload);
  auto Held = Cache.load("ir-a", IrKind);
  ASSERT_TRUE(Held.has_value());
  // 60 + 60 bytes exceed the cap: ir-a, the LRU entry, is evicted while
  // held, and a replace of the same key does not touch the held bytes.
  Cache.store("ir-b", IrKind, std::vector<uint8_t>(60, 4));
  EXPECT_EQ(Cache.counters().MemEvictions, 1u);
  EXPECT_FALSE(loads(Cache, "ir-a"));
  Cache.store("ir-a", IrKind, std::vector<uint8_t>(60, 5));
  EXPECT_EQ(bytesOf(*Held), Payload);
}

//===----------------------------------------------------------------------===//
// Shared option set
//===----------------------------------------------------------------------===//

TEST(Service, OptionsRoundTripThroughCanonicalEncoding) {
  RunOptions O;
  O.ConfigName = "hybrid-prioritized";
  O.Budget = 1234;
  O.MaxLen = 9;
  O.NestedDepth = 5;
  O.DeadlineMs = 250.5;
  O.MaxMemoryMb = 512;
  O.Raw = true;
  RunOptions Back;
  for (const std::string &A : encodeRunOptions(O))
    ASSERT_EQ(parseRunOption(A.c_str(), Back), OptionParse::Matched) << A;
  EXPECT_EQ(optionsFingerprint(Back), optionsFingerprint(O));
  // The fingerprint is sensitive to result-relevant fields.
  RunOptions Changed = O;
  Changed.Budget = 1235;
  EXPECT_NE(optionsFingerprint(Changed), optionsFingerprint(O));
}

TEST(Service, RetryDegradationStripsFaultInjection) {
  RunOptions O;
  O.CrashAt = 5;
  O.HangAt = 6;
  O.FailAt = 7;
  RunOptions D = degradeForRetry(O);
  EXPECT_EQ(D.CrashAt, 0u);
  EXPECT_EQ(D.HangAt, 0u);
  EXPECT_EQ(D.FailAt, 0u);
  EXPECT_EQ(D.StringAnalysis, StringAnalysisMode::Local);
}

TEST(Service, ThreadsFlagAcceptsOnlyOne) {
  // Slicing runs on one thread. --threads=1 stays accepted, and ignored,
  // for callers that still pass it (a daemon started with it among them);
  // any other value is a usage error.
  RunOptions O;
  EXPECT_EQ(parseRunOption("--threads=1", O), OptionParse::Matched);
  int Exit = -1;
  for (const char *Bad : {"--threads=0", "--threads=2"}) {
    EXPECT_EQ(parseRunOption(Bad, O), OptionParse::Bad) << Bad;
    const std::string Out =
        runCli(std::string(Bad) + " " + TAJ_EXAMPLE_TAJ, Exit);
    EXPECT_EQ(Exit, 1) << Bad;
    EXPECT_NE(Out.find("--threads accepts only 1"), std::string::npos) << Out;
  }
  const std::string Plain = runCli(TAJ_EXAMPLE_TAJ, Exit);
  ASSERT_EQ(Exit, 0);
  EXPECT_EQ(runCli(std::string("--threads=1 ") + TAJ_EXAMPLE_TAJ, Exit),
            Plain);
  EXPECT_EQ(Exit, 0);

  TempDir T;
  ServerHandle S;
  ASSERT_TRUE(S.start(T, {"--pool-size=1", "--threads=1"}));
  EXPECT_EQ(runCli("--connect=" + S.Sock + " " + TAJ_EXAMPLE_TAJ, Exit), Plain);
  EXPECT_EQ(Exit, 0);
  EXPECT_EQ(S.stop(), 0);
}

//===----------------------------------------------------------------------===//
// Flag-dependency matrix
//===----------------------------------------------------------------------===//

TEST(CliUsage, ServerFlagMatrix) {
  int Exit;
  std::string Out;

  Out = runCli("--connect=/tmp/nowhere.sock", Exit);
  EXPECT_EQ(Exit, 1);
  EXPECT_NE(Out.find("--connect requires input files"), std::string::npos);

  Out = runCli("--serve=/tmp/x.sock --batch=list.txt", Exit);
  EXPECT_EQ(Exit, 1);
  EXPECT_NE(Out.find("--serve is exclusive"), std::string::npos);

  Out = runCli(std::string("--serve=/tmp/x.sock ") + TAJ_EXAMPLE_TAJ, Exit);
  EXPECT_EQ(Exit, 1);
  EXPECT_NE(Out.find("--serve is exclusive"), std::string::npos);

  Out = runCli("--serve=/tmp/x.sock --connect=/tmp/y.sock", Exit);
  EXPECT_EQ(Exit, 1);
  EXPECT_NE(Out.find("exclusive"), std::string::npos);

  Out = runCli("--serve=/tmp/x.sock --jobs=2", Exit);
  EXPECT_EQ(Exit, 1);
  EXPECT_NE(Out.find("--jobs/--resume do not apply"), std::string::npos);

  Out = runCli(std::string("--pool-size=2 ") + TAJ_EXAMPLE_TAJ, Exit);
  EXPECT_EQ(Exit, 1);
  EXPECT_NE(Out.find("require --serve"), std::string::npos);

  Out = runCli(std::string("--queue-depth=4 ") + TAJ_EXAMPLE_TAJ, Exit);
  EXPECT_EQ(Exit, 1);
  EXPECT_NE(Out.find("require --serve"), std::string::npos);

  Out = runCli("--serve=/tmp/x.sock --pool-size=0", Exit);
  EXPECT_EQ(Exit, 1);
  EXPECT_NE(Out.find("--pool-size must be >= 1"), std::string::npos);

  Out = runCli("--serve=/tmp/x.sock --pool-size=abc", Exit);
  EXPECT_EQ(Exit, 1);
  EXPECT_NE(Out.find("non-negative number"), std::string::npos);

  Out = runCli("--serve=/tmp/x.sock --queue-depth=1e9", Exit);
  EXPECT_EQ(Exit, 1);
  EXPECT_NE(Out.find("out of range"), std::string::npos);

  Out = runCli(std::string("--connect=/tmp/x.sock --cache-dir=/tmp/c ") +
                   TAJ_EXAMPLE_TAJ,
               Exit);
  EXPECT_EQ(Exit, 1);
  EXPECT_NE(Out.find("do not apply to --connect"), std::string::npos);
}

TEST(CliUsage, ConnectToMissingServerIsAnError) {
  TempDir T;
  int Exit;
  std::string Out = runCli("--connect=" + T.Path + "/absent.sock " +
                               TAJ_EXAMPLE_TAJ,
                           Exit);
  EXPECT_EQ(Exit, 1);
  EXPECT_NE(Out.find("connect"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Serve: identity, hot tier, admission, retries, drain
//===----------------------------------------------------------------------===//

TEST(Serve, ResponseIsByteIdenticalToLocalRunAndWarmsTheHotTier) {
  TempDir T;

  // Local baseline.
  std::string LocalOut = T.Path + "/local.out";
  pid_t P = spawnCli({TAJ_EXAMPLE_TAJ}, LocalOut, T.Path + "/local.err");
  ASSERT_EQ(waitExit(P), 0);

  // One worker, so the second request must land on the warmed tier.
  ServerHandle S;
  ASSERT_TRUE(S.start(T, {"--pool-size=1", "--cache-dir=" + T.Path + "/cache",
                          "--stats-json=" + T.Path + "/server-stats.json"}));

  for (int I = 0; I < 2; ++I) {
    std::string Out = T.Path + "/c" + std::to_string(I) + ".out";
    std::string StatsPath = T.Path + "/c" + std::to_string(I) + ".json";
    pid_t C = spawnCli({"--connect=" + S.Sock, "--stats-json=" + StatsPath,
                        TAJ_EXAMPLE_TAJ},
                       Out, T.Path + "/client.err");
    ASSERT_EQ(waitExit(C), 0) << readWhole(T.Path + "/client.err");
    EXPECT_EQ(readWhole(Out), readWhole(LocalOut)) << "request " << I;
  }
  // Request 0 filled the tier, request 1 was served from it.
  EXPECT_EQ(statOf(T.Path + "/c0.json", "persist.mem_hit"), 0);
  EXPECT_GT(statOf(T.Path + "/c0.json", "persist.mem_store"), 0);
  EXPECT_GT(statOf(T.Path + "/c1.json", "persist.mem_hit"), 0);
  EXPECT_EQ(statOf(T.Path + "/c1.json", "persist.miss"), 0);
  EXPECT_GT(statOf(T.Path + "/c1.json", "server.hot_hits"), 0);
  EXPECT_EQ(statOf(T.Path + "/c1.json", "server.served"), 2);

  EXPECT_EQ(S.stop(), 0);
  EXPECT_EQ(statOf(T.Path + "/server-stats.json", "server.served"), 2);
  EXPECT_GT(statOf(T.Path + "/server-stats.json", "server.hot_hits"), 0);
}

TEST(Serve, ClientStderrCarriesTheRunDiagnostics) {
  // A budget-truncated run writes its run-status line to stderr; served,
  // the line travels in the response and the client writes it, as a
  // local run would.
  TempDir T;
  const std::string Config = "--config=hybrid-optimized";
  const std::vector<std::string> Args = {Config, "--budget=1", TAJ_EXAMPLE_TAJ};
  pid_t P = spawnCli(Args, T.Path + "/local.out", T.Path + "/local.err");
  ASSERT_EQ(waitExit(P), 2);
  const std::string LocalErr = readWhole(T.Path + "/local.err");
  ASSERT_EQ(LocalErr.rfind("run-status: ", 0), 0u) << LocalErr;

  ServerHandle S;
  ASSERT_TRUE(S.start(T, {"--pool-size=1"}));
  std::vector<std::string> Client = {"--connect=" + S.Sock};
  Client.insert(Client.end(), Args.begin(), Args.end());
  pid_t C = spawnCli(Client, T.Path + "/client.out", T.Path + "/client.err");
  EXPECT_EQ(waitExit(C), 2);
  EXPECT_EQ(readWhole(T.Path + "/client.err"), LocalErr);
  EXPECT_EQ(readWhole(T.Path + "/client.out"),
            readWhole(T.Path + "/local.out"));
  EXPECT_EQ(S.stop(), 0);
}

TEST(Serve, EightConcurrentClientsMatchTheBatchBaseline) {
  TempDir T;
  const std::string Base = readWhole(TAJ_EXAMPLE_TAJ);
  ASSERT_FALSE(Base.empty());

  // Eight app variants with two distinct report shapes: even variants
  // keep the SQLi flow, odd ones drop it, so a cross-wired response
  // (client A receiving client B's report) cannot go unnoticed.
  std::vector<std::string> Apps;
  std::string List;
  for (int I = 0; I < 8; ++I) {
    std::string Text = Base + "\n// variant " + std::to_string(I) + "\n";
    if (I % 2 == 1) {
      size_t At = Text.find("q = db.executeQuery(bio);");
      ASSERT_NE(At, std::string::npos);
      size_t LineStart = Text.rfind('\n', At) + 1;
      size_t LineEnd = Text.find('\n', At) + 1;
      Text.erase(LineStart, LineEnd - LineStart);
    }
    std::string Path = T.Path + "/app" + std::to_string(I) + ".taj";
    writeWhole(Path, Text);
    Apps.push_back(Path);
    List += Path + "\n";
  }
  writeWhole(T.Path + "/list.txt", List);

  // Baseline: a cold supervised batch over the same eight variants
  // (supervised batch stdout is itself pinned byte-identical to the
  // in-process loop by the supervise suite).
  std::string BatchOut = T.Path + "/batch.out";
  pid_t B = spawnCli({"--batch=" + T.Path + "/list.txt", "--jobs=2"},
                     BatchOut, T.Path + "/batch.err");
  ASSERT_EQ(waitExit(B), 0);
  const std::string Batch = readWhole(BatchOut);

  ServerHandle S;
  ASSERT_TRUE(S.start(T, {"--pool-size=4",
                          "--cache-dir=" + T.Path + "/cache"}));

  std::vector<pid_t> Clients;
  for (int I = 0; I < 8; ++I)
    Clients.push_back(spawnCli({"--connect=" + S.Sock, Apps[I]},
                               T.Path + "/out" + std::to_string(I),
                               T.Path + "/err" + std::to_string(I)));
  for (int I = 0; I < 8; ++I)
    EXPECT_EQ(waitExit(Clients[I]), 0)
        << readWhole(T.Path + "/err" + std::to_string(I));

  for (int I = 0; I < 8; ++I) {
    // The batch segment for app I sits between "=== <name>\n" and
    // "--- <name>: exit=".
    const std::string Head = "=== " + Apps[I] + "\n";
    const std::string Tail = "--- " + Apps[I] + ": exit=";
    size_t From = Batch.find(Head);
    ASSERT_NE(From, std::string::npos) << Apps[I];
    From += Head.size();
    size_t To = Batch.find(Tail, From);
    ASSERT_NE(To, std::string::npos) << Apps[I];
    EXPECT_EQ(readWhole(T.Path + "/out" + std::to_string(I)),
              Batch.substr(From, To - From))
        << Apps[I];
  }
  EXPECT_EQ(S.stop(), 0);
}

TEST(Serve, QueueFullAnswersBusyAndWatchdogTimesOutTheHang) {
  TempDir T;
  // One worker, no queue: a second request during the hang must be
  // refused immediately. The watchdog backstop is armed through the same
  // environment knobs the batch supervisor honors.
  ServerHandle S;
  ASSERT_TRUE(S.start(T,
                      {"--pool-size=1", "--queue-depth=0", "--retry=0",
                       "--stats-json=" + T.Path + "/server-stats.json"},
                      {{"TAJ_HARD_DEADLINE_MS", "2500"},
                       {"TAJ_WATCHDOG_GRACE_MS", "300"}}));

  // Request 1 hangs at a checkpoint; the watchdog must turn it into a
  // `timeout` answer (retries disabled) and respawn the worker.
  pid_t Hung = spawnCli({"--connect=" + S.Sock, "--hang-at=3",
                         TAJ_EXAMPLE_TAJ},
                        T.Path + "/hung.out", T.Path + "/hung.err");
  // Give the hang time to occupy the only worker, then hit admission.
  std::this_thread::sleep_for(std::chrono::milliseconds(1000));
  int BusyExit;
  std::string BusyOut =
      runCli("--connect=" + S.Sock + " " + TAJ_EXAMPLE_TAJ, BusyExit);
  EXPECT_EQ(BusyExit, 1);
  EXPECT_NE(BusyOut.find("busy"), std::string::npos) << BusyOut;

  EXPECT_EQ(waitExit(Hung), 1);
  EXPECT_NE(readWhole(T.Path + "/hung.err").find("timeout"),
            std::string::npos);

  // The respawned worker serves the next request normally.
  int OkExit;
  runCli("--connect=" + S.Sock + " " + TAJ_EXAMPLE_TAJ, OkExit);
  EXPECT_EQ(OkExit, 0);

  EXPECT_EQ(S.stop(), 0);
  EXPECT_GE(statOf(T.Path + "/server-stats.json", "server.rejected_busy"), 1);
  EXPECT_GE(statOf(T.Path + "/server-stats.json", "server.respawned"), 1);
}

TEST(Serve, CrashedRequestRecoversThroughTheRetryLadder) {
  TempDir T;
  ServerHandle S;
  ASSERT_TRUE(S.start(T, {"--pool-size=1", "--retry=1",
                          "--journal=" + T.Path + "/journal.jsonl",
                          "--stats-json=" + T.Path + "/server-stats.json"}));

  // The injected crash kills attempt 1; the degraded retry strips fault
  // injection, so attempt 2 completes and the client sees a clean run.
  std::string Out = T.Path + "/crash.out";
  pid_t C = spawnCli({"--connect=" + S.Sock, "--crash-at=3", TAJ_EXAMPLE_TAJ},
                     Out, T.Path + "/crash.err");
  EXPECT_EQ(waitExit(C), 0) << readWhole(T.Path + "/crash.err");
  EXPECT_FALSE(readWhole(Out).empty());

  EXPECT_EQ(S.stop(), 0);
  EXPECT_GE(statOf(T.Path + "/server-stats.json", "server.retried"), 1);

  // The journal shows the non-terminal crash and the terminal recovery.
  std::vector<server::Attempt> Recs =
      server::Journal::load(T.Path + "/journal.jsonl");
  ASSERT_GE(Recs.size(), 2u);
  bool SawCrash = false, SawRecovery = false;
  for (const server::Attempt &A : Recs) {
    if (A.Class == server::ExitClass::Crashed && !A.Terminal)
      SawCrash = true;
    if (A.Class == server::ExitClass::Clean && A.Terminal &&
        A.AttemptNo == 2)
      SawRecovery = true;
  }
  EXPECT_TRUE(SawCrash);
  EXPECT_TRUE(SawRecovery);
}

TEST(Serve, ServedRequestsBeforeARespawnDoNotPoisonTheNewWorker) {
  // Regression: admitted requests used to leak their ClientConn slot
  // with a stale fd number; a respawned worker's child closed those
  // numbers, which could hit its own freshly-allocated socketpair end
  // and turn one crash into an endless respawn storm.
  TempDir T;
  ServerHandle S;
  ASSERT_TRUE(S.start(T, {"--pool-size=1", "--retry=0",
                          "--stats-json=" + T.Path + "/server-stats.json"}));

  int Exit;
  for (int I = 0; I < 3; ++I) {
    runCli("--connect=" + S.Sock + " " + TAJ_EXAMPLE_TAJ, Exit);
    ASSERT_EQ(Exit, 0) << "warm-up request " << I;
  }
  // A terminal crash (retries off) kills the worker; the daemon respawns.
  std::string Out = runCli("--connect=" + S.Sock + " --crash-at=3 " +
                               TAJ_EXAMPLE_TAJ,
                           Exit);
  EXPECT_EQ(Exit, 1);
  EXPECT_NE(Out.find("crashed"), std::string::npos) << Out;
  // The respawned worker serves normally...
  for (int I = 0; I < 3; ++I) {
    runCli("--connect=" + S.Sock + " " + TAJ_EXAMPLE_TAJ, Exit);
    ASSERT_EQ(Exit, 0) << "post-respawn request " << I;
  }
  ASSERT_EQ(S.stop(), 0);
  // ...and exactly one respawn happened: a storm shows up right here.
  EXPECT_EQ(statOf(T.Path + "/server-stats.json", "server.respawned"), 1);
  EXPECT_EQ(statOf(T.Path + "/server-stats.json", "server.served"), 7);
}

TEST(Serve, UncooperativeClientsDoNotStallTheDaemon) {
  // Responses to clients are buffered non-blocking writes: a client that
  // vanishes before reading (EPIPE) or never reads at all must not stall
  // the event loop or the drain.
  TempDir T;
  ServerHandle S;
  ASSERT_TRUE(S.start(T, {"--pool-size=1",
                          "--stats-json=" + T.Path + "/server-stats.json"}));

  const std::string Frame = requestFrameFor(TAJ_EXAMPLE_TAJ);

  // Client 1 sends a request and vanishes before its response exists.
  int Gone = rawConnect(S.Sock);
  ASSERT_GE(Gone, 0);
  ASSERT_TRUE(writeFull(Gone, Frame.data(), Frame.size()));
  ::close(Gone);

  // Client 2 sends a request and then just sits on the open socket.
  int Mute = rawConnect(S.Sock);
  ASSERT_GE(Mute, 0);
  ASSERT_TRUE(writeFull(Mute, Frame.data(), Frame.size()));

  // Well-behaved clients keep being served past both of them.
  int Exit;
  for (int I = 0; I < 2; ++I) {
    runCli("--connect=" + S.Sock + " " + TAJ_EXAMPLE_TAJ, Exit);
    EXPECT_EQ(Exit, 0) << "request " << I;
  }
  EXPECT_EQ(S.stop(), 0);
  ::close(Mute);
  EXPECT_EQ(statOf(T.Path + "/server-stats.json", "server.served"), 4);
}

TEST(Serve, UnusableTmpdirStillAnswersLikeALocalRun) {
  // The report travels as bytes from analyzeApp() into the response, so a
  // worker needs no temporary file to capture it: a daemon whose TMPDIR
  // points into the void still answers Ok, byte-identical to a local run.
  TempDir T;
  pid_t L = spawnCli({TAJ_EXAMPLE_TAJ}, T.Path + "/local.out",
                     T.Path + "/local.err");
  ASSERT_EQ(waitExit(L), 0);
  ServerHandle S;
  ASSERT_TRUE(S.start(T, {"--pool-size=1"},
                      {{"TMPDIR", T.Path + "/does-not-exist"}}));
  std::string Out = T.Path + "/c.out";
  pid_t C = spawnCli({"--connect=" + S.Sock, TAJ_EXAMPLE_TAJ}, Out,
                     T.Path + "/c.err");
  EXPECT_EQ(waitExit(C), 0) << readWhole(T.Path + "/c.err");
  EXPECT_FALSE(readWhole(T.Path + "/local.out").empty());
  EXPECT_EQ(readWhole(Out), readWhole(T.Path + "/local.out"));
  EXPECT_EQ(S.stop(), 0);
}

TEST(Serve, IdleServerDrainsPromptlyOnSigterm) {
  // An entirely idle daemon waits in poll() with an infinite timeout, so
  // this drain hinges on the signal actually waking the loop (self-pipe)
  // rather than on fd traffic happening to arrive.
  TempDir T;
  ServerHandle S;
  ASSERT_TRUE(S.start(T, {"--pool-size=2"}));
  EXPECT_EQ(S.stop(), 0);
}

TEST(Serve, CooperativeDeadlineTruncatesWithExitTwo) {
  TempDir T;
  ServerHandle S;
  ASSERT_TRUE(S.start(T, {"--pool-size=1"}));
  int Exit;
  runCli("--connect=" + S.Sock + " --deadline-ms=0.001 " + TAJ_EXAMPLE_TAJ,
         Exit);
  EXPECT_EQ(Exit, 2);
  EXPECT_EQ(S.stop(), 0);
}

TEST(Serve, CyclicHierarchyIsAnErrorAndTheDaemonServesOn) {
  TempDir T;
  ServerHandle S;
  // The hard deadline turns a regression back into a hang into a bounded
  // `timeout` answer rather than a stuck test.
  ASSERT_TRUE(
      S.start(T, {"--pool-size=1"}, {{"TAJ_HARD_DEADLINE_MS", "10000"}}));
  Request Req;
  AppSource Src;
  Src.Name = "cyclic.taj";
  Src.Inline = true;
  Src.Content = "class A extends B {}\nclass B extends A {}\n";
  Req.Sources.push_back(std::move(Src));
  Response Resp;
  std::string Err;
  ASSERT_TRUE(requestAnalysis(S.Sock, Req, Resp, Err)) << Err;
  EXPECT_EQ(Resp.St, Status::Error) << Resp.Message;
  EXPECT_EQ(Resp.Exit, 1);

  // The same worker then serves the next request.
  int Exit;
  runCli("--connect=" + S.Sock + " " + TAJ_EXAMPLE_TAJ, Exit);
  EXPECT_EQ(Exit, 0);
  EXPECT_EQ(S.stop(), 0);
}

TEST(Serve, SigtermDrainsInFlightWorkAndRefusesNewConnections) {
  TempDir T;
  ServerHandle S;
  ASSERT_TRUE(S.start(T,
                      {"--pool-size=1", "--retry=0",
                       "--stats-json=" + T.Path + "/server-stats.json"},
                      {{"TAJ_HARD_DEADLINE_MS", "2000"},
                       {"TAJ_WATCHDOG_GRACE_MS", "300"}}));

  // A served request before the drain.
  int Exit;
  runCli("--connect=" + S.Sock + " " + TAJ_EXAMPLE_TAJ, Exit);
  ASSERT_EQ(Exit, 0);

  // Occupy the worker with a hang, then ask for the drain: the daemon
  // must keep running until the watchdog resolves the in-flight request
  // (to a terminal `timeout` answer here), then exit 0.
  pid_t Hung = spawnCli({"--connect=" + S.Sock, "--hang-at=3",
                         TAJ_EXAMPLE_TAJ},
                        T.Path + "/hung.out", T.Path + "/hung.err");
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  EXPECT_EQ(S.stop(), 0);
  EXPECT_EQ(waitExit(Hung), 1);
  EXPECT_NE(readWhole(T.Path + "/hung.err").find("timeout"),
            std::string::npos);

  // The socket is gone: connecting again is a clean client-side error.
  std::string Out = runCli("--connect=" + S.Sock + " " + TAJ_EXAMPLE_TAJ,
                           Exit);
  EXPECT_EQ(Exit, 1);
  EXPECT_NE(Out.find("error:"), std::string::npos);

  EXPECT_GE(statOf(T.Path + "/server-stats.json", "server.served"), 1);
}

TEST(Serve, SecondServerOnTheSameSocketIsRefused) {
  TempDir T;
  ServerHandle S;
  ASSERT_TRUE(S.start(T, {"--pool-size=1"}));
  int Exit;
  std::string Out = runCli("--serve=" + S.Sock, Exit);
  EXPECT_EQ(Exit, 1);
  EXPECT_NE(Out.find("already listening"), std::string::npos);
  EXPECT_EQ(S.stop(), 0);
}

//===----------------------------------------------------------------------===//
// SIGPIPE / short-write discipline
//===----------------------------------------------------------------------===//

TEST(Sigpipe, ClosedStdoutIsAnErrorExitNotASignalDeath) {
  TempDir T;
  int P[2];
  ASSERT_EQ(::pipe(P), 0);
  pid_t Pid = ::fork();
  ASSERT_GE(Pid, 0);
  if (Pid == 0) {
    // Child: stdout is a pipe nobody will ever read.
    ::dup2(P[1], STDOUT_FILENO);
    ::close(P[0]);
    ::close(P[1]);
    int Fd = ::open((T.Path + "/err").c_str(), O_WRONLY | O_CREAT | O_TRUNC,
                    0644);
    if (Fd >= 0) {
      ::dup2(Fd, STDERR_FILENO);
      ::close(Fd);
    }
    ::execl(TAJ_CLI_PATH, TAJ_CLI_PATH, TAJ_EXAMPLE_TAJ,
            static_cast<char *>(nullptr));
    ::_exit(127);
  }
  // Close both ends: every write in the child now raises EPIPE, which
  // must surface as exit 1 ("stdout write failed"), not a SIGPIPE death.
  ::close(P[0]);
  ::close(P[1]);
  EXPECT_EQ(waitExit(Pid), 1);
  EXPECT_NE(readWhole(T.Path + "/err").find("stdout write failed"),
            std::string::npos);
}

} // namespace
