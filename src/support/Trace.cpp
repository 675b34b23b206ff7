//===- support/Trace.cpp - Phase-scoped tracing & profiling ----*- C++ -*-===//

#include "support/Trace.h"

#include "support/RunGuard.h"
#include "support/Stats.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <mutex>

#include <unistd.h>

using namespace taj;

//===----------------------------------------------------------------------===//
// Trace sink
//===----------------------------------------------------------------------===//

std::atomic<bool> trace::detail::Enabled{false};

namespace {

struct TraceEvent {
  std::string Name;
  const char *Cat;
  char Ph; // 'X' complete, 'i' instant
  uint64_t TsUs;
  uint64_t DurUs;
  uint32_t Tid;
};

/// The process-global sink. A mutex suffices: events are recorded at
/// phase granularity, never per work item, so contention is not a factor.
struct TraceSink {
  std::mutex Mu;
  std::vector<TraceEvent> Buf;
  size_t Cap = 0;
  size_t Next = 0; // overwrite cursor once the ring is full
  bool Wrapped = false;
  uint64_t Dropped = 0;
};

TraceSink &sink() {
  static TraceSink S;
  return S;
}

void pushEvent(TraceEvent E) {
  TraceSink &S = sink();
  std::lock_guard<std::mutex> Lock(S.Mu);
  if (S.Cap == 0)
    return;
  if (S.Buf.size() < S.Cap) {
    S.Buf.push_back(std::move(E));
    return;
  }
  // Ring wrap: the oldest event makes room for the newest.
  S.Buf[S.Next] = std::move(E);
  S.Next = (S.Next + 1) % S.Cap;
  S.Wrapped = true;
  ++S.Dropped;
}

void appendJsonEscaped(std::string &Out, const std::string &S) {
  for (char C : S) {
    unsigned char U = static_cast<unsigned char>(C);
    if (C == '"' || C == '\\') {
      Out += '\\';
      Out += C;
    } else if (U < 0x20) {
      char Hex[8];
      std::snprintf(Hex, sizeof(Hex), "\\u%04x", U);
      Out += Hex;
    } else {
      Out += C;
    }
  }
}

void renderEvent(std::string &Out, const TraceEvent &E, long Pid) {
  Out += "{\"name\":\"";
  appendJsonEscaped(Out, E.Name);
  Out += "\",\"cat\":\"";
  Out += E.Cat;
  Out += "\",\"ph\":\"";
  Out += E.Ph;
  Out += "\",\"ts\":";
  Out += std::to_string(E.TsUs);
  if (E.Ph == 'X') {
    Out += ",\"dur\":";
    Out += std::to_string(E.DurUs);
  } else {
    Out += ",\"s\":\"t\""; // thread-scoped instant
  }
  Out += ",\"pid\":";
  Out += std::to_string(Pid);
  Out += ",\"tid\":";
  Out += std::to_string(E.Tid);
  Out += '}';
}

} // namespace

void trace::enable(size_t Capacity) {
  TraceSink &S = sink();
  std::lock_guard<std::mutex> Lock(S.Mu);
  S.Buf.clear();
  S.Cap = Capacity ? Capacity : 1;
  S.Next = 0;
  S.Wrapped = false;
  S.Dropped = 0;
  detail::Enabled.store(true, std::memory_order_relaxed);
}

void trace::disable() {
  detail::Enabled.store(false, std::memory_order_relaxed);
}

uint64_t trace::nowUs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

uint32_t trace::currentTid() {
  static std::atomic<uint32_t> NextTid{1};
  thread_local uint32_t Tid = NextTid.fetch_add(1, std::memory_order_relaxed);
  return Tid;
}

void trace::addComplete(std::string Name, const char *Cat, uint64_t BeginUs,
                        uint64_t EndUs, uint32_t Tid) {
  if (!enabled())
    return;
  pushEvent({std::move(Name), Cat, 'X', BeginUs,
             EndUs >= BeginUs ? EndUs - BeginUs : 0,
             Tid ? Tid : currentTid()});
}

void trace::addInstant(std::string Name, const char *Cat) {
  if (!enabled())
    return;
  pushEvent({std::move(Name), Cat, 'i', nowUs(), 0, currentTid()});
}

uint64_t trace::droppedEvents() {
  TraceSink &S = sink();
  std::lock_guard<std::mutex> Lock(S.Mu);
  return S.Dropped;
}

std::string trace::renderEvents() {
  TraceSink &S = sink();
  std::lock_guard<std::mutex> Lock(S.Mu);
  const long Pid = static_cast<long>(::getpid());
  std::string Out;
  bool First = true;
  auto Emit = [&](const TraceEvent &E) {
    if (!First)
      Out += ",\n";
    First = false;
    renderEvent(Out, E, Pid);
  };
  // Ring order: oldest first once wrapped.
  if (S.Wrapped)
    for (size_t I = S.Next; I < S.Buf.size(); ++I)
      Emit(S.Buf[I]);
  for (size_t I = 0; I < (S.Wrapped ? S.Next : S.Buf.size()); ++I)
    Emit(S.Buf[I]);
  return Out;
}

std::string trace::renderJson(const std::vector<std::string> &ExtraEventBlobs) {
  std::string All = renderEvents();
  for (const std::string &Blob : ExtraEventBlobs) {
    if (Blob.empty())
      continue;
    if (!All.empty())
      All += ",\n";
    All += Blob;
  }
  return "{\"traceEvents\":[\n" + All + "\n],\"displayTimeUnit\":\"ms\"}\n";
}

bool trace::writeJsonMerged(const std::string &Path,
                            const std::vector<std::string> &ExtraEventBlobs) {
  std::ofstream Out(Path, std::ios::trunc);
  if (!Out)
    return false;
  Out << renderJson(ExtraEventBlobs);
  Out.close(); // a failed closing flush is a failed write too
  return !Out.fail();
}

std::string trace::extractEvents(const std::string &TraceFileContent) {
  size_t Key = TraceFileContent.find("\"traceEvents\"");
  if (Key == std::string::npos)
    return "";
  size_t Open = TraceFileContent.find('[', Key);
  size_t Close = TraceFileContent.rfind(']');
  if (Open == std::string::npos || Close == std::string::npos || Close <= Open)
    return "";
  std::string Inner = TraceFileContent.substr(Open + 1, Close - Open - 1);
  // All-whitespace means "no events": collapse to "" so the merge emits
  // no stray comma.
  if (Inner.find_first_not_of(" \t\r\n") == std::string::npos)
    return "";
  return Inner;
}

//===----------------------------------------------------------------------===//
// PhaseProfile
//===----------------------------------------------------------------------===//

namespace {

double cpuNowUs() {
#if defined(CLOCK_PROCESS_CPUTIME_ID)
  struct timespec Ts;
  if (clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &Ts) == 0)
    return static_cast<double>(Ts.tv_sec) * 1e6 +
           static_cast<double>(Ts.tv_nsec) / 1e3;
#endif
  return 0;
}

} // namespace

PhaseProfile::PhaseProfile() {
  Phases.push_back({"other"});
  Stack.push_back(0);
  MarkWallUs = static_cast<double>(trace::nowUs());
  MarkCpuUs = cpuNowUs();
}

size_t PhaseProfile::find(const char *Name) const {
  for (size_t I = 0; I < Phases.size(); ++I)
    if (Phases[I].Name == Name)
      return I;
  for (size_t I = 0; I < Phases.size(); ++I)
    if (std::strcmp(Phases[I].Name, Name) == 0)
      return I;
  return Phases.size();
}

void PhaseProfile::accrueToTop() {
  const double W = static_cast<double>(trace::nowUs());
  const double C = cpuNowUs();
  Acc &A = Phases[Stack.back()];
  A.WallUs += W - MarkWallUs;
  A.CpuUs += C - MarkCpuUs;
  A.PeakRssKb = std::max(A.PeakRssKb, RunGuard::currentRssBytes() / 1024);
  MarkWallUs = W;
  MarkCpuUs = C;
}

void PhaseProfile::push(const char *Name) {
  accrueToTop();
  const size_t Row = find(Name);
  if (Row == Phases.size())
    Phases.push_back({Name});
  Stack.push_back(Row);
}

void PhaseProfile::pop() {
  accrueToTop();
  if (Stack.size() > 1)
    Stack.pop_back();
}

double PhaseProfile::wallUsOf(const char *Name) {
  accrueToTop();
  const size_t Row = find(Name);
  return Row == Phases.size() ? 0 : Phases[Row].WallUs;
}

void PhaseProfile::exportStats(Stats &S) {
  accrueToTop();
  for (const Acc &A : Phases) {
    const std::string Prefix = std::string("phase.") + A.Name;
    S.add(Prefix + "_us",
          static_cast<uint64_t>(std::llround(std::max(0.0, A.WallUs))));
    S.add(Prefix + "_cpu_us",
          static_cast<uint64_t>(std::llround(std::max(0.0, A.CpuUs))));
    S.add(Prefix + "_rss_kb", A.PeakRssKb);
  }
}
