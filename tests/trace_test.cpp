//===- tests/trace_test.cpp - Tracing & per-phase profiling --------------===//
//
// The observability layer (support/Trace.h) must observe without
// participating, and these tests pin down that contract:
//  - the trace sink renders well-formed Chrome trace-event JSON whose
//    spans nest properly per thread, and drops oldest-first when the
//    ring buffer wraps;
//  - the PhaseProfile's exclusive accounting tiles its lifetime: nested
//    phases subtract from their parents, and the exported phase.*_us
//    counters sum to the run's wall clock within tolerance;
//  - taj-cli --trace emits spans for every major phase, its stdout is
//    byte-identical to an untraced run, warm starts attribute their time
//    to persist_load and split it into the disk read, the record check
//    and each restore, a supervised --jobs=2 batch merges every worker's
//    events onto one timeline, and a guard stop appears as an instant;
//  - stats/trace artifacts are written on failure exits too (but not on
//    usage errors), and a worker's malformed --stats-json surfaces
//    through recoverWorkerStats instead of silently dropping counters.
//
//===----------------------------------------------------------------------===//

#include "benchgen/Generator.h"
#include "core/TaintAnalysis.h"
#include "server/Server.h"
#include "support/Stats.h"
#include "support/Trace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

using namespace taj;
namespace fs = std::filesystem;

namespace {

/// Self-cleaning scratch directory for one test.
struct TempDir {
  std::string Path;
  TempDir() {
    char Buf[] = "/tmp/taj-trace-XXXXXX";
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

/// Runs taj-cli through a shell, capturing stdout only (stderr dropped, so
/// byte-identity checks compare the report stream alone).
std::string runCli(const std::string &Args, int &ExitCode) {
  std::string Cmd =
      std::string(TAJ_CLI_PATH) + " " + Args + " 2>/dev/null";
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

/// Extracts an integer counter from a --stats-json file ("missing" = -1).
long long statOf(const std::string &JsonPath, const std::string &Name) {
  std::string J = readWhole(JsonPath);
  std::string Needle = "\"" + Name + "\":";
  size_t At = J.find(Needle);
  if (At == std::string::npos)
    return -1;
  return std::atoll(J.c_str() + At + Needle.size());
}

//===----------------------------------------------------------------------===//
// Minimal JSON validator (well-formedness only, no value model)
//===----------------------------------------------------------------------===//

struct JsonChecker {
  const std::string &S;
  size_t I = 0;
  explicit JsonChecker(const std::string &S) : S(S) {}

  void ws() {
    while (I < S.size() && std::isspace(static_cast<unsigned char>(S[I])))
      ++I;
  }
  bool lit(const char *L) {
    size_t N = std::strlen(L);
    if (S.compare(I, N, L) != 0)
      return false;
    I += N;
    return true;
  }
  bool string() {
    if (I >= S.size() || S[I] != '"')
      return false;
    ++I;
    while (I < S.size() && S[I] != '"') {
      if (S[I] == '\\') {
        ++I;
        if (I >= S.size())
          return false;
      }
      ++I;
    }
    if (I >= S.size())
      return false;
    ++I;
    return true;
  }
  bool number() {
    size_t Start = I;
    if (I < S.size() && S[I] == '-')
      ++I;
    while (I < S.size() &&
           (std::isdigit(static_cast<unsigned char>(S[I])) || S[I] == '.' ||
            S[I] == 'e' || S[I] == 'E' || S[I] == '+' || S[I] == '-'))
      ++I;
    return I > Start;
  }
  bool value() {
    ws();
    if (I >= S.size())
      return false;
    switch (S[I]) {
    case '{':
      return object();
    case '[':
      return array();
    case '"':
      return string();
    case 't':
      return lit("true");
    case 'f':
      return lit("false");
    case 'n':
      return lit("null");
    default:
      return number();
    }
  }
  bool object() {
    ++I; // '{'
    ws();
    if (I < S.size() && S[I] == '}') {
      ++I;
      return true;
    }
    for (;;) {
      ws();
      if (!string())
        return false;
      ws();
      if (I >= S.size() || S[I] != ':')
        return false;
      ++I;
      if (!value())
        return false;
      ws();
      if (I < S.size() && S[I] == ',') {
        ++I;
        continue;
      }
      if (I < S.size() && S[I] == '}') {
        ++I;
        return true;
      }
      return false;
    }
  }
  bool array() {
    ++I; // '['
    ws();
    if (I < S.size() && S[I] == ']') {
      ++I;
      return true;
    }
    for (;;) {
      if (!value())
        return false;
      ws();
      if (I < S.size() && S[I] == ',') {
        ++I;
        continue;
      }
      if (I < S.size() && S[I] == ']') {
        ++I;
        return true;
      }
      return false;
    }
  }
  bool document() {
    if (!value())
      return false;
    ws();
    return I == S.size();
  }
};

bool isValidJson(const std::string &S) { return JsonChecker(S).document(); }

//===----------------------------------------------------------------------===//
// Trace-event decoding (field scan over the rendered objects)
//===----------------------------------------------------------------------===//

struct Event {
  std::string Name;
  char Ph = 0;
  uint64_t Ts = 0;
  uint64_t Dur = 0;
  long Pid = 0;
  long Tid = 0;
};

uint64_t fieldNum(const std::string &Obj, const char *Key) {
  std::string Needle = std::string("\"") + Key + "\":";
  size_t At = Obj.find(Needle);
  if (At == std::string::npos)
    return 0;
  return std::strtoull(Obj.c_str() + At + Needle.size(), nullptr, 10);
}

std::string fieldStr(const std::string &Obj, const char *Key) {
  std::string Needle = std::string("\"") + Key + "\":\"";
  size_t At = Obj.find(Needle);
  if (At == std::string::npos)
    return "";
  size_t Start = At + Needle.size();
  std::string Out;
  for (size_t I = Start; I < Obj.size() && Obj[I] != '"'; ++I) {
    if (Obj[I] == '\\' && I + 1 < Obj.size()) {
      ++I;
      if (Obj[I] == 'u' && I + 4 < Obj.size()) {
        // The renderer only emits \uXXXX for control bytes (< 0x20).
        Out += static_cast<char>(
            std::strtoul(Obj.substr(I + 1, 4).c_str(), nullptr, 16));
        I += 4;
        continue;
      }
    }
    Out += Obj[I];
  }
  return Out;
}

/// Splits a trace document into its events. Brace matching tracks string
/// state so names containing braces cannot derail it.
std::vector<Event> decodeEvents(const std::string &Doc) {
  std::vector<Event> Out;
  std::string Inner = trace::extractEvents(Doc);
  size_t I = 0;
  while (I < Inner.size()) {
    if (Inner[I] != '{') {
      ++I;
      continue;
    }
    size_t Depth = 0;
    bool InStr = false;
    size_t Start = I;
    for (; I < Inner.size(); ++I) {
      char C = Inner[I];
      if (InStr) {
        if (C == '\\')
          ++I;
        else if (C == '"')
          InStr = false;
      } else if (C == '"') {
        InStr = true;
      } else if (C == '{') {
        ++Depth;
      } else if (C == '}') {
        if (--Depth == 0) {
          ++I;
          break;
        }
      }
    }
    std::string Obj = Inner.substr(Start, I - Start);
    Event E;
    E.Name = fieldStr(Obj, "name");
    std::string Ph = fieldStr(Obj, "ph");
    E.Ph = Ph.empty() ? 0 : Ph[0];
    E.Ts = fieldNum(Obj, "ts");
    E.Dur = fieldNum(Obj, "dur");
    E.Pid = static_cast<long>(fieldNum(Obj, "pid"));
    E.Tid = static_cast<long>(fieldNum(Obj, "tid"));
    Out.push_back(std::move(E));
  }
  return Out;
}

bool hasSpan(const std::vector<Event> &Es, const std::string &Name) {
  return std::any_of(Es.begin(), Es.end(), [&](const Event &E) {
    return E.Ph == 'X' && E.Name.compare(0, Name.size(), Name) == 0;
  });
}

/// Verifies that the complete spans of every (pid, tid) track properly
/// nest: two spans on one track either disjoint or one contains the other.
void expectSpansNest(const std::vector<Event> &Es) {
  std::map<std::pair<long, long>, std::vector<const Event *>> Tracks;
  for (const Event &E : Es)
    if (E.Ph == 'X')
      Tracks[{E.Pid, E.Tid}].push_back(&E);
  for (auto &[Track, Spans] : Tracks) {
    for (size_t A = 0; A < Spans.size(); ++A)
      for (size_t B = A + 1; B < Spans.size(); ++B) {
        uint64_t AB = Spans[A]->Ts, AE = AB + Spans[A]->Dur;
        uint64_t BB = Spans[B]->Ts, BE = BB + Spans[B]->Dur;
        bool Disjoint = AE <= BB || BE <= AB;
        bool AinB = BB <= AB && AE <= BE;
        bool BinA = AB <= BB && BE <= AE;
        EXPECT_TRUE(Disjoint || AinB || BinA)
            << "partial overlap on pid=" << Track.first
            << " tid=" << Track.second << ": '" << Spans[A]->Name << "' ["
            << AB << "," << AE << ") vs '" << Spans[B]->Name << "' [" << BB
            << "," << BE << ")";
      }
  }
}

/// RAII sink arming so a failing test cannot leak an enabled sink into
/// the next one.
struct SinkGuard {
  explicit SinkGuard(size_t Cap = 1 << 12) { trace::enable(Cap); }
  ~SinkGuard() { trace::disable(); }
};

//===----------------------------------------------------------------------===//
// Trace sink unit tests
//===----------------------------------------------------------------------===//

TEST(TraceSink, DisabledRecordsNothing) {
  trace::disable();
  trace::addInstant("ignored", "test");
  trace::addComplete("ignored", "test", 0, 1);
  { trace::Span S("ignored", "test"); }
  SinkGuard G; // enable() clears the buffer; nothing recorded before it
  EXPECT_EQ(trace::renderEvents(), "");
  std::string Doc = trace::renderJson();
  EXPECT_TRUE(isValidJson(Doc)) << Doc;
  EXPECT_TRUE(decodeEvents(Doc).empty());
}

TEST(TraceSink, RendersValidJsonAndEscapes) {
  SinkGuard G;
  trace::addInstant("quote \" backslash \\ ctrl \n done", "test");
  {
    trace::Span S("outer", "test");
    trace::Span T("inner", "test");
  }
  std::string Doc = trace::renderJson();
  EXPECT_TRUE(isValidJson(Doc)) << Doc;
  std::vector<Event> Es = decodeEvents(Doc);
  ASSERT_EQ(Es.size(), 3u);
  EXPECT_EQ(Es[0].Name, "quote \" backslash \\ ctrl \n done");
  expectSpansNest(Es);
}

TEST(TraceSink, SpansNestPerThreadAcrossThreads) {
  SinkGuard G;
  auto Work = [] {
    trace::Span Outer("outer", "test");
    for (int I = 0; I < 3; ++I)
      trace::Span Inner("inner " + std::to_string(I), "test");
  };
  std::thread T1(Work), T2(Work);
  Work();
  T1.join();
  T2.join();
  std::vector<Event> Es = decodeEvents(trace::renderJson());
  EXPECT_EQ(Es.size(), 12u);
  std::set<long> Tids;
  for (const Event &E : Es)
    Tids.insert(E.Tid);
  EXPECT_EQ(Tids.size(), 3u);
  expectSpansNest(Es);
}

TEST(TraceSink, RingBufferOverwritesOldest) {
  SinkGuard G(4);
  for (int I = 0; I < 10; ++I)
    trace::addInstant("ev " + std::to_string(I), "test");
  EXPECT_EQ(trace::droppedEvents(), 6u);
  std::vector<Event> Es = decodeEvents(trace::renderJson());
  ASSERT_EQ(Es.size(), 4u);
  // Oldest-first order of the survivors.
  EXPECT_EQ(Es[0].Name, "ev 6");
  EXPECT_EQ(Es[3].Name, "ev 9");
}

TEST(TraceSink, ExtractEventsRoundTripsAndRejectsGarbage) {
  SinkGuard G;
  trace::addInstant("only", "test");
  std::string Doc = trace::renderJson();
  std::string Inner = trace::extractEvents(Doc);
  EXPECT_NE(Inner.find("\"only\""), std::string::npos);
  // Round trip: a merged document carrying the extracted blob twice holds
  // two copies of the event.
  TempDir D;
  std::string Merged = D.Path + "/merged.json";
  ASSERT_TRUE(trace::writeJsonMerged(Merged, {Inner}));
  std::string MergedDoc = readWhole(Merged);
  EXPECT_TRUE(isValidJson(MergedDoc)) << MergedDoc;
  EXPECT_EQ(decodeEvents(MergedDoc).size(), 2u);
  // Non-trace content (a crashed worker's empty or torn file).
  EXPECT_EQ(trace::extractEvents(""), "");
  EXPECT_EQ(trace::extractEvents("not json at all"), "");
  EXPECT_EQ(trace::extractEvents("{\"traceEvents\":"), "");
  EXPECT_EQ(trace::extractEvents("{\"traceEvents\":[\n\n]}"), "");
}

//===----------------------------------------------------------------------===//
// PhaseProfile unit tests
//===----------------------------------------------------------------------===//

/// Spins the CPU for \p Ms wall milliseconds.
void spinFor(double Ms) {
  Timer T;
  while (T.elapsedMs() < Ms) {
  }
}

TEST(PhaseProfile, ExclusiveAccountingSubtractsNestedPhases) {
  Timer T;
  PhaseProfile P;
  P.push("a");
  spinFor(20);
  P.push("b"); // nested: b's time must not count toward a
  spinFor(20);
  P.pop();
  spinFor(5);
  P.pop();
  const double TotalUs = T.elapsedMs() * 1000.0;
  double AUs = P.wallUsOf("a");
  double BUs = P.wallUsOf("b");
  EXPECT_GE(AUs, 20 * 1000.0);
  EXPECT_GE(BUs, 18 * 1000.0);
  // Exclusive accounting keeps a at (total - b - other); inclusive
  // accounting would put a at ~total. The bound derives from the measured
  // times so scheduler preemption cannot trip it.
  EXPECT_LT(AUs, TotalUs - BUs + 0.1 * TotalUs);
}

TEST(PhaseProfile, ExportEmitsWallCpuAndRssPerPhase) {
  PhaseProfile P;
  P.push("work");
  spinFor(5);
  P.pop();
  Stats S;
  P.exportStats(S);
  EXPECT_GE(S.get("phase.work_us"), 4000u);
  EXPECT_GT(S.get("phase.work_cpu_us"), 0u); // spin burns CPU, not sleep
  EXPECT_GT(S.get("phase.work_rss_kb"), 0u);
  // The root phase is always present, so the counters tile the lifetime.
  EXPECT_NE(S.toJson().find("phase.other_us"), std::string::npos);
}

TEST(PhaseProfile, CountersTileTheProfileLifetime) {
  Timer T;
  PhaseProfile P;
  P.push("a");
  spinFor(15);
  P.push("b");
  spinFor(15);
  P.pop();
  P.pop();
  spinFor(10);
  Stats S;
  P.exportStats(S);
  const double TotalUs = T.elapsedMs() * 1000.0;
  const double SumUs = static_cast<double>(S.get("phase.a_us")) +
                       static_cast<double>(S.get("phase.b_us")) +
                       static_cast<double>(S.get("phase.other_us"));
  EXPECT_NEAR(SumUs, TotalUs, 0.05 * TotalUs);
}

//===----------------------------------------------------------------------===//
// In-process run: phase counters tile AnalysisResult::Millis
//===----------------------------------------------------------------------===//

TEST(PhaseStats, RunPhaseSumMatchesMillisWithinTolerance) {
  std::vector<AppSpec> Suite = benchmarkSuite();
  GeneratedApp A = generateApp(Suite[0]);
  TaintAnalysis TA(*A.P, AnalysisConfig::hybridUnbounded());
  AnalysisResult R = TA.run({A.Root});
  ASSERT_TRUE(R.Completed);
  // Sum every phase.*_us counter (skipping the _cpu_us/_rss_kb variants):
  // exclusive accounting makes them tile the profiled run exactly.
  double SumUs = 0;
  for (const char *Phase : {"analysis", "conststr", "pointsto", "persist_load",
                            "persist_store", "sdg", "slicing", "other"})
    SumUs += static_cast<double>(R.RunStats.get(std::string("phase.") + Phase +
                                                "_us"));
  const double TotalUs = R.Millis * 1000.0;
  EXPECT_GT(SumUs, 0);
  EXPECT_NEAR(SumUs, TotalUs, 0.05 * TotalUs)
      << "phase sum " << SumUs << "us vs run total " << TotalUs << "us";
  // Cold uncached run: no persist time to attribute.
  EXPECT_EQ(R.PersistLoadMillis, 0.0);
}

//===----------------------------------------------------------------------===//
// Worker stats recovery (supervise)
//===----------------------------------------------------------------------===//

TEST(RecoverWorkerStats, EmptyFileIsNormalNotAFailure) {
  Stats Merged;
  uint64_t Failures = 0;
  EXPECT_EQ(server::recoverWorkerStats("", "app", &Merged, Failures), 0u);
  EXPECT_EQ(Failures, 0u);
}

TEST(RecoverWorkerStats, ValidJsonMergesAndReturnsIssues) {
  Stats Merged;
  uint64_t Failures = 0;
  uint64_t Issues = server::recoverWorkerStats(
      "{\"cli.issues\":3,\"persist.hit\":2}", "app", &Merged, Failures);
  EXPECT_EQ(Issues, 3u);
  EXPECT_EQ(Failures, 0u);
  EXPECT_EQ(Merged.get("persist.hit"), 2u);
}

TEST(RecoverWorkerStats, MalformedJsonSurfacesButKeepsParsedCounters) {
  Stats Merged;
  uint64_t Failures = 0;
  // Torn write: the tail is cut mid-pair. The counters before the tear
  // must still merge — surfacing beats silently dropping the worker.
  uint64_t Issues = server::recoverWorkerStats(
      "{\"cli.issues\":5,\"persist.hit\":4,\"torn", "app", &Merged, Failures);
  EXPECT_EQ(Issues, 5u);
  EXPECT_EQ(Failures, 1u);
  EXPECT_EQ(Merged.get("persist.hit"), 4u);
  // A null merge target only counts the failure.
  uint64_t Failures2 = 0;
  server::recoverWorkerStats("garbage", "app", nullptr, Failures2);
  EXPECT_EQ(Failures2, 1u);
}

//===----------------------------------------------------------------------===//
// taj-cli --trace end to end
//===----------------------------------------------------------------------===//

TEST(CliTrace, ColdRunEmitsEveryMajorPhaseSpan) {
  TempDir D;
  const std::string Trace = D.Path + "/t.json";
  const std::string StatsPath = D.Path + "/s.json";
  int Exit = 0;
  runCli("--cache-dir=" + D.Path + "/cache --trace=" + Trace +
             " --stats-json=" + StatsPath + " " + TAJ_EXAMPLE_TAJ,
         Exit);
  EXPECT_EQ(Exit, 0);
  std::string Doc = readWhole(Trace);
  ASSERT_TRUE(isValidJson(Doc)) << Doc;
  std::vector<Event> Es = decodeEvents(Doc);
  for (const char *Phase : {"parse", "analysis", "conststr", "pointsto", "sdg",
                            "slicing", "report", "cache-store"})
    EXPECT_TRUE(hasSpan(Es, Phase)) << "missing span: " << Phase;
  expectSpansNest(Es);
  // The stats file carries the per-phase counters and the derived
  // persist-load attribution (cold: ~0).
  EXPECT_GT(statOf(StatsPath, "phase.pointsto_us"), 0);
  EXPECT_GT(statOf(StatsPath, "phase.slicing_us"), 0);
  EXPECT_GE(statOf(StatsPath, "phase.persist_load_ms"), 0);
  EXPECT_GE(statOf(StatsPath, "persist.touch_failed"), 0);
}

TEST(CliTrace, TracingDoesNotPerturbReportOutput) {
  TempDir D;
  int E0 = 0, E1 = 0;
  std::string Plain = runCli(std::string(TAJ_EXAMPLE_TAJ), E0);
  std::string Traced =
      runCli("--trace=" + D.Path + "/t.json " + TAJ_EXAMPLE_TAJ, E1);
  EXPECT_EQ(E0, 0);
  EXPECT_EQ(E1, 0);
  EXPECT_EQ(Plain, Traced);
}

TEST(CliTrace, WarmRunAttributesTimeToPersistLoad) {
  TempDir D;
  const std::string Cache = " --cache-dir=" + D.Path + "/cache ";
  int E0 = 0, E1 = 0;
  std::string Cold = runCli(Cache + TAJ_EXAMPLE_TAJ, E0);
  const std::string StatsPath = D.Path + "/warm.json";
  std::string Warm = runCli(Cache + "--stats-json=" + StatsPath + " " +
                                TAJ_EXAMPLE_TAJ,
                            E1);
  EXPECT_EQ(E0, 0);
  EXPECT_EQ(E1, 0);
  EXPECT_EQ(Cold, Warm); // warm starts may only accelerate, never alter
  EXPECT_GT(statOf(StatsPath, "persist.hit"), 0);
  EXPECT_GT(statOf(StatsPath, "phase.persist_load_us"), 0);
}

TEST(CliTrace, WarmRunSplitsPersistLoadIntoReadVerifyAndRestore) {
  TempDir D;
  const std::string Cache = " --cache-dir=" + D.Path + "/cache ";
  int E0 = 0, E1 = 0;
  runCli(Cache + TAJ_EXAMPLE_TAJ, E0);
  const std::string Trace = D.Path + "/warm.json";
  runCli(Cache + "--trace=" + Trace + " " + TAJ_EXAMPLE_TAJ, E1);
  EXPECT_EQ(E0, 0);
  EXPECT_EQ(E1, 0);
  std::string Doc = readWhole(Trace);
  ASSERT_TRUE(isValidJson(Doc)) << Doc;
  std::vector<Event> Es = decodeEvents(Doc);
  // Each sub-span sits inside a persist_load phase span on its track: the
  // disk read and the header check of every hit, and the two restores.
  auto InsidePersistLoad = [&](const std::string &Name) {
    for (const Event &E : Es) {
      if (E.Ph != 'X' || E.Name != Name)
        continue;
      for (const Event &P : Es)
        if (P.Ph == 'X' && P.Name == "persist_load" && P.Pid == E.Pid &&
            P.Tid == E.Tid && P.Ts <= E.Ts && E.Ts + E.Dur <= P.Ts + P.Dur)
          return true;
    }
    return false;
  };
  for (const char *Name :
       {"cache-read", "cache-verify", "restore: pts", "restore: sdg"})
    EXPECT_TRUE(InsidePersistLoad(Name)) << Name;
  expectSpansNest(Es);
}

TEST(CliTrace, SupervisedBatchMergesEveryWorkerTimeline) {
  TempDir D;
  std::string List = D.Path + "/list.txt";
  {
    std::ofstream Out(List);
    Out << TAJ_EXAMPLE_TAJ << "\n" << TAJ_EXAMPLE_TAJ << "\n";
  }
  const std::string Trace = D.Path + "/batch.json";
  int Exit = 0;
  runCli("--batch=" + List + " --jobs=2 --trace=" + Trace, Exit);
  EXPECT_EQ(Exit, 0);
  std::string Doc = readWhole(Trace);
  ASSERT_TRUE(isValidJson(Doc)) << Doc;
  std::vector<Event> Es = decodeEvents(Doc);
  // Supervisor + two workers: three distinct pids on one timeline, and a
  // supervisor-side span bracketing each worker's lifetime.
  std::set<long> Pids;
  size_t WorkerSpans = 0;
  for (const Event &E : Es) {
    Pids.insert(E.Pid);
    if (E.Ph == 'X' && E.Name.compare(0, 8, "worker: ") == 0)
      ++WorkerSpans;
  }
  EXPECT_EQ(Pids.size(), 3u);
  EXPECT_EQ(WorkerSpans, 2u);
  // Each worker's own analysis spans made it into the merge.
  EXPECT_TRUE(hasSpan(Es, "pointsto"));
  expectSpansNest(Es);
}

TEST(CliTrace, GuardStopAppearsAsInstantEvent) {
  TempDir D;
  const std::string Trace = D.Path + "/t.json";
  int Exit = 0;
  runCli("--deadline-ms=0.001 --trace=" + Trace + " " + TAJ_EXAMPLE_TAJ,
         Exit);
  EXPECT_EQ(Exit, 2); // truncated, not failed
  std::string Doc = readWhole(Trace);
  ASSERT_TRUE(isValidJson(Doc)) << Doc;
  std::vector<Event> Es = decodeEvents(Doc);
  auto It = std::find_if(Es.begin(), Es.end(), [](const Event &E) {
    return E.Name.compare(0, 11, "guard-stop:") == 0;
  });
  ASSERT_NE(It, Es.end());
  EXPECT_EQ(It->Ph, 'i');
  EXPECT_NE(It->Name.find("deadline"), std::string::npos) << It->Name;
}

TEST(CliTrace, FailureExitStillWritesArtifacts) {
  TempDir D;
  std::string Bad = D.Path + "/bad.taj";
  {
    std::ofstream Out(Bad);
    Out << "class { this is not a taj program\n";
  }
  const std::string Trace = D.Path + "/t.json";
  const std::string StatsPath = D.Path + "/s.json";
  int Exit = 0;
  runCli("--trace=" + Trace + " --stats-json=" + StatsPath + " " + Bad, Exit);
  EXPECT_EQ(Exit, 1);
  EXPECT_GE(statOf(StatsPath, "cli.input_errors"), 1);
  std::string Doc = readWhole(Trace);
  EXPECT_TRUE(isValidJson(Doc)) << Doc;
}

TEST(CliTrace, UsageErrorWritesNoTrace) {
  TempDir D;
  const std::string Trace = D.Path + "/t.json";
  int Exit = 0;
  runCli("--trace=" + Trace + " --no-such-flag", Exit);
  EXPECT_EQ(Exit, 1);
  EXPECT_FALSE(fs::exists(Trace));
}

} // namespace
