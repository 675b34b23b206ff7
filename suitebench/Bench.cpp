//===- suitebench/Bench.cpp ------------------------------------*- C++ -*-===//

#include "suitebench/Bench.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <malloc.h>
#include <numeric>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>
#include <unordered_map>

using namespace suitebench;

double suitebench::quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = Q * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  if (Lo + 1 >= V.size())
    return V.back();
  return V[Lo] + (Pos - static_cast<double>(Lo)) * (V[Lo + 1] - V[Lo]);
}

double suitebench::mean(const std::vector<double> &V) {
  return V.empty() ? 0 : std::accumulate(V.begin(), V.end(), 0.0) / V.size();
}

namespace {
/// Keeps the compute kernel's results alive.
volatile uint64_t CalSink;
constexpr size_t IpcMessage = 4096;
constexpr int IpcRoundTrips = 100;
} // namespace

Calibrator::Calibrator(Kernel K) : K(K) {
  if (K != Kernel::Ipc)
    return;
  int Pair[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, Pair) != 0) {
    std::perror("suitebench: socketpair");
    std::exit(2);
  }
  const pid_t Pid = ::fork();
  if (Pid < 0) {
    std::perror("suitebench: fork");
    std::exit(2);
  }
  if (Pid == 0) {
    // The echo process: returns every message until EOF.
    ::close(Pair[0]);
    char Buf[IpcMessage];
    for (;;) {
      size_t Got = 0;
      while (Got < IpcMessage) {
        ssize_t N = ::read(Pair[1], Buf + Got, IpcMessage - Got);
        if (N <= 0)
          ::_exit(0);
        Got += N;
      }
      if (::write(Pair[1], Buf, IpcMessage) != static_cast<ssize_t>(IpcMessage))
        ::_exit(0);
    }
  }
  ::close(Pair[1]);
  Fd = Pair[0];
  Echo = Pid;
}

Calibrator::~Calibrator() {
  if (Echo <= 0)
    return;
  ::close(Fd); // EOF ends the echo process
  ::waitpid(Echo, nullptr, 0);
}

double Calibrator::nominalMs() const {
  // Each kernel's wall time on a quiet host, so a reference ms is about a
  // wall ms there.
  return K == Kernel::Compute ? 2.5 : 0.65;
}

double Calibrator::exponent() const {
  // Fitted on 4-vCPU Xeon VMs over runs spanning fast and slow spells: a
  // spell that slows the compute kernel by x slows the in-process
  // analysis by about x^1.5 (pass time across runs then spread 1-3%
  // against 7-10% at x^1); daemon requests slow about as much as the
  // IPC kernel.
  return K == Kernel::Compute ? 1.5 : 1.0;
}

double Calibrator::tick() {
  const double Ms = K == Kernel::Compute ? compute() : ipc();
  SumMs += Ms;
  Recent[Ticks++ % Recent.size()] = Ms;
  // The median of the last few ticks: one tick the host interrupted does
  // not skew the operation after it, and a spell of seconds still shows.
  const size_t Kept = std::min<size_t>(Ticks, Recent.size());
  std::vector<double> Last(Recent.begin(), Recent.begin() + Kept);
  return std::pow(nominalMs() / median(std::move(Last)), exponent());
}

double Calibrator::compute() {
  Clock::time_point T0 = Clock::now();
  uint64_t X = 0x9e3779b97f4a7c15ull;
  auto Next = [&] {
    X ^= X << 13;
    X ^= X >> 7;
    X ^= X << 17;
    return X;
  };
  std::unordered_map<uint64_t, uint32_t> Map;
  for (uint32_t I = 0; I < 8000; ++I)
    Map[Next() % 12000] += I;
  std::vector<uint32_t> Perm(1u << 16);
  std::iota(Perm.begin(), Perm.end(), 0u);
  for (size_t I = Perm.size() - 1; I > 0; --I)
    std::swap(Perm[I], Perm[Next() % (I + 1)]);
  uint32_t At = 0;
  for (int I = 0; I < 60000; ++I)
    At = Perm[At];
  std::vector<std::vector<uint32_t>> Small(4000);
  for (uint32_t I = 0; I < 20000; ++I)
    Small[Next() % Small.size()].push_back(I);
  std::vector<uint64_t> Keys(12000);
  for (uint64_t &Key : Keys)
    Key = Next();
  std::sort(Keys.begin(), Keys.end());
  CalSink = At + Map.size() + Keys[Keys.size() / 2] + Small[7].size();
  return msSince(T0);
}

double Calibrator::ipc() {
  Clock::time_point T0 = Clock::now();
  char Buf[IpcMessage] = {1};
  for (int I = 0; I < IpcRoundTrips; ++I) {
    bool Ok =
        ::write(Fd, Buf, IpcMessage) == static_cast<ssize_t>(IpcMessage);
    for (size_t Got = 0; Ok && Got < IpcMessage;) {
      ssize_t N = ::read(Fd, Buf + Got, IpcMessage - Got);
      Ok = N > 0;
      Got += Ok ? N : 0;
    }
    if (!Ok) {
      std::fprintf(stderr, "suitebench: the calibration echo process died\n");
      std::exit(2);
    }
  }
  return msSince(T0);
}

std::string suitebench::describe(const Calibrator &Cal) {
  char Buf[128];
  std::snprintf(Buf, sizeof(Buf),
                "calibration kernel: mean %.3f ms per tick, nominal %.2f ms",
                Cal.meanMs(), Cal.nominalMs());
  return Buf;
}

void suitebench::addLatencies(Result &R, std::vector<double> Ms) {
  // Every pass times each app once, so the verdict times come in 22
  // equal clusters and the plain median sits on the gap between the 11th
  // and 12th app's; the mean of the middle tenth spans that gap.
  std::sort(Ms.begin(), Ms.end());
  const size_t Lo = Ms.size() * 45 / 100;
  const size_t Hi = std::max(Lo + 1, Ms.size() * 55 / 100);
  const std::vector<double> Middle(Ms.begin() + Lo, Ms.begin() + Hi);
  R.add("app_ms_p50", Ms.empty() ? 0 : mean(Middle), "ms");
  R.add("app_ms_p95", quantile(Ms, 0.95), "ms");
  R.add("app_ms_p99", quantile(Ms, 0.99), "ms");
  R.Notes.push_back("app_ms_*: percentiles of " + std::to_string(Ms.size()) +
                    " operations, " +
                    std::to_string(static_cast<size_t>(Ms.size() * 0.01)) +
                    " beyond p99");
}

void SetupTimes::add(double GenerateMs, double OracleMs, double PrefillMs,
                     double StartMs) {
  Total.push_back(GenerateMs + OracleMs + PrefillMs + StartMs);
  Generate += GenerateMs;
  Oracle += OracleMs;
  Prefill += PrefillMs;
  Start += StartMs;
  OracleEach.push_back(OracleMs);
}

void SetupTimes::addPerLayer(Result &R) const {
  const double Sum = Generate + Oracle + Prefill + Start;
  R.add("interp.oracle_ms", median(OracleEach), "ms");
  R.add("setup.generate_share", Generate / Sum, "ratio");
  R.add("setup.oracle_share", Oracle / Sum, "ratio");
  R.add("setup.prefill_share", Prefill / Sum, "ratio");
  R.add("setup.start_share", Start / Sum, "ratio");
}

std::string SetupTimes::describe() const {
  const double N = static_cast<double>(Total.size());
  char Buf[256];
  std::snprintf(Buf, sizeof(Buf),
                "set-up, mean of %zu: generate %.1f ms, oracle %.1f ms, "
                "prefill %.1f ms, daemon start %.1f ms",
                Total.size(), Generate / N, Oracle / N, Prefill / N,
                Start / N);
  return Buf;
}

namespace {

/// VmHWM (MiB) and parent pid from one /proc/<pid>/status file.
std::pair<double, long> hwmAndParent(const std::filesystem::path &Status) {
  std::ifstream In(Status);
  std::string Line;
  double Mb = 0;
  long Parent = -1;
  while (std::getline(In, Line)) {
    if (Line.rfind("VmHWM:", 0) == 0)
      Mb = std::strtod(Line.c_str() + 6, nullptr) / 1024.0; // in kB
    else if (Line.rfind("PPid:", 0) == 0)
      Parent = std::strtol(Line.c_str() + 5, nullptr, 10);
  }
  return {Mb, Parent};
}

} // namespace

double suitebench::peakRssMb(int Pid) {
  // VmHWM rather than ru_maxrss: it honours resetPeakRss(), and a child
  // spawned with vfork semantics inherits the parent's ru_maxrss.
  namespace fs = std::filesystem;
  if (Pid == 0)
    return hwmAndParent("/proc/self/status").first;
  double Peak = hwmAndParent("/proc/" + std::to_string(Pid) + "/status").first;
  std::error_code Ec;
  for (const fs::directory_entry &E : fs::directory_iterator("/proc", Ec)) {
    auto [Mb, Parent] = hwmAndParent(E.path() / "status");
    if (Parent == Pid)
      Peak = std::max(Peak, Mb);
  }
  return Peak;
}

void suitebench::resetPeakRss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

int32_t SpanLog::open(const char *Name, uint32_t Op, int32_t Parent) {
  double Now =
      std::chrono::duration<double, std::micro>(Clock::now() - T0).count();
  Spans.push_back({Name, Now, Now, Parent, Op});
  return static_cast<int32_t>(Spans.size() - 1);
}

double SpanLog::close(int32_t Id) {
  Span &S = Spans[Id];
  S.EndUs =
      std::chrono::duration<double, std::micro>(Clock::now() - T0).count();
  return (S.EndUs - S.StartUs) / 1000.0;
}

bool SpanLog::write(const std::string &Path) const {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::fprintf(F, "{\"traceEvents\":[");
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    std::fprintf(F,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%d,\"op\":\"%s\"}}",
                 I ? "," : "", S.Name, S.StartUs, S.EndUs - S.StartUs, I,
                 S.Parent, Ops[S.Op].c_str());
  }
  std::fprintf(F, "\n]}\n");
  return std::fclose(F) == 0;
}
