//===- suitebench/ServeWorkload.cpp - The daemon workload -----------------===//
//
// Part of the TAJ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// serve-webapp: a closed loop of one client against
/// `taj-cli --serve --pool-size=2` on examples/webapp.taj. One client,
/// because everything runs on one pinned CPU, where a second one only
/// measures how the scheduler interleaves the two. Nine of ten
/// requests are identical (hot-tier hits); the tenth carries a unique
/// trailing `//` comment, so it misses, parses, analyses and stores. Each
/// response is checked against the flows annotated in the source and the
/// flows the concrete Interpreter observes on an in-process parse.
///
//===----------------------------------------------------------------------===//

#include "suitebench/Bench.h"

#include "frontend/Parser.h"
#include "interp/Interpreter.h"
#include "ir/Verifier.h"
#include "model/BuiltinLibrary.h"
#include "model/Entrypoints.h"
#include "report/ReportGenerator.h"
#include "server/Client.h"

#include <algorithm>
#include <csignal>
#include <fcntl.h>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <spawn.h>
#include <sstream>
#include <sys/wait.h>
#include <unistd.h>

extern char **environ;

using namespace taj;
using namespace suitebench;
namespace fs = std::filesystem;

namespace {

constexpr int PassRequests = 10; ///< one pass: 9 hot requests, then 1 miss
/// Passes between two calibration ticks. The loop pauses for each tick,
/// so the kernel runs alone on the CPU; a chunk of 40 requests takes
/// ~12 ms.
constexpr int ChunkPasses = 4;
/// The daemon set-up takes ~20 ms, a tenth of a library one, so it repeats
/// more often for its median to settle.
constexpr int ServeSetupRepeats = 3 * SetupRepeats;
/// Warm-up requests during set-up: enough that the set-up time averages
/// over many.
constexpr int PrefillRequests = 50;

/// One flow line of a rendered report: "RULE: source -> lcp -> sink".
struct ReportLine {
  std::string Rule, Source, Sink;
  uint32_t SinkLine = 0;
};

std::vector<ReportLine> parseReport(const std::string &Text) {
  std::vector<ReportLine> Out;
  std::istringstream In(Text);
  std::string Line;
  while (std::getline(In, Line)) {
    size_t Colon = Line.find(": ");
    size_t First = Line.find(" -> ");
    size_t Last = Line.rfind(" -> ");
    if (Colon == std::string::npos || First == std::string::npos)
      continue;
    ReportLine R;
    R.Rule = Line.substr(0, Colon);
    R.Source = Line.substr(Colon + 2, First - Colon - 2);
    R.Sink = Line.substr(Last + 4);
    size_t LineAt = R.Sink.rfind(':');
    if (LineAt != std::string::npos)
      R.SinkLine = static_cast<uint32_t>(std::atoi(R.Sink.c_str() + LineAt + 1));
    Out.push_back(R);
  }
  return Out;
}

/// Flows annotated in the source: "// RULE: ..." comments on sink lines
/// (rule, line), and "// fine: ..." lines that must stay unreported.
struct Annotations {
  std::set<std::pair<std::string, uint32_t>> Flows;
  std::set<uint32_t> Clean;
};

Annotations readAnnotations(const std::string &Text) {
  Annotations A;
  std::istringstream In(Text);
  std::string Line;
  for (uint32_t No = 1; std::getline(In, Line); ++No) {
    size_t C = Line.find("// ");
    if (C == std::string::npos || C == Line.find_first_not_of(' '))
      continue; // whole-line comments annotate nothing
    std::string Tag = Line.substr(C + 3, Line.find(':', C) - C - 3);
    if (Tag == "fine")
      A.Clean.insert(No);
    else if (Tag == "XSS" || Tag == "SQLi")
      A.Flows.insert({Tag, No});
  }
  return A;
}

/// Counters of one response's stats object (flat JSON of integers).
std::map<std::string, double> parseFlatJson(const std::string &J) {
  std::map<std::string, double> Out;
  size_t At = 0;
  while ((At = J.find('"', At)) != std::string::npos) {
    size_t End = J.find('"', At + 1);
    if (End == std::string::npos || End + 1 >= J.size() || J[End + 1] != ':')
      break;
    Out[J.substr(At + 1, End - At - 1)] = std::strtod(J.c_str() + End + 2,
                                                      nullptr);
    At = J.find_first_of(",}", End);
  }
  return Out;
}

/// The oracle's in-process view of the payload: every flow the concrete
/// Interpreter observes, rendered as (rule, source, sink) descriptions.
struct InterpFlows {
  std::vector<std::tuple<RuleMask, std::string, std::string>> Flows;
  bool Ok = false;
};

InterpFlows interpretPayload(const std::string &Text) {
  InterpFlows Out;
  Program P;
  installBuiltinLibrary(P);
  if (!parseTaj(P, Text) || !verifyProgram(P).empty())
    return Out;
  MethodId Root = synthesizeEntrypointDriver(P);
  P.indexStatements();
  ClassHierarchy CHA(P);
  Interpreter Interp(P, CHA);
  Out.Ok = Interp.run({Root}) && !Interp.flows().empty();
  for (const DynamicFlow &F : Interp.flows())
    Out.Flows.emplace_back(F.Rule, describeStmt(P, F.Source),
                           describeStmt(P, F.Sink));
  return Out;
}

/// Problems of one report against the annotations and the interpreter;
/// empty when it holds. Counts true and false positives on the way.
std::string checkReport(const std::string &Report, const Annotations &A,
                        const InterpFlows &Dyn, uint64_t &TP, uint64_t &FP) {
  std::vector<ReportLine> Lines = parseReport(Report);
  std::set<std::pair<std::string, uint32_t>> Found;
  for (const ReportLine &L : Lines) {
    if (A.Clean.count(L.SinkLine))
      return "flow reported at endorsed line " + std::to_string(L.SinkLine);
    if (A.Flows.count({L.Rule, L.SinkLine})) {
      Found.insert({L.Rule, L.SinkLine});
      ++TP;
    } else {
      ++FP;
    }
  }
  if (Found != A.Flows)
    return "an annotated flow is missing";
  for (const auto &[Rule, Src, Sink] : Dyn.Flows) {
    bool Hit = false;
    for (const ReportLine &L : Lines)
      for (int B = 0; B < rules::NumRules; ++B)
        Hit |= L.Source == Src && L.Sink == Sink && (Rule & (1u << B)) &&
               L.Rule == rules::ruleName(static_cast<RuleMask>(1u << B));
    if (!Hit)
      return "misses a flow the interpreter observed: " + Src + " -> " + Sink;
  }
  return "";
}

/// The `taj-cli --serve` child; stopped (SIGTERM drain, then reaped) at
/// the latest when the handle goes away.
struct Daemon {
  pid_t Pid = -1;
  Daemon() = default;
  Daemon(const Daemon &) = delete;
  Daemon &operator=(const Daemon &) = delete;
  ~Daemon() { stop(); }
  void stop() {
    if (Pid <= 0)
      return;
    ::kill(Pid, SIGTERM);
    int Status = 0;
    for (int I = 0; I < 5000; ++I) {
      if (::waitpid(Pid, &Status, WNOHANG) == Pid) {
        Pid = -1;
        return;
      }
      ::usleep(2000);
    }
    ::kill(Pid, SIGKILL);
    ::waitpid(Pid, &Status, 0);
    Pid = -1;
  }
};

bool startDaemon(const Options &O, const std::string &Sock, Daemon &D) {
  std::string SockArg = "--serve=" + Sock;
  std::string LogPath = (fs::path(O.WorkDir) / "daemon.log").string();
  // A small hot-tier cap keeps the workers' memory steady: the unique
  // misses evict each other, not the hot entry.
  std::vector<std::string> Args = {O.TajCli, SockArg, "--pool-size=2",
                                   "--threads=1", "--hot-max-mb=4"};
  std::vector<char *> Argv;
  for (std::string &A : Args)
    Argv.push_back(A.data());
  Argv.push_back(nullptr);
  posix_spawn_file_actions_t FA;
  posix_spawn_file_actions_init(&FA);
  posix_spawn_file_actions_addopen(&FA, 1, LogPath.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  posix_spawn_file_actions_adddup2(&FA, 1, 2);
  int RC = posix_spawn(&D.Pid, O.TajCli.c_str(), &FA, nullptr, Argv.data(),
                       environ);
  posix_spawn_file_actions_destroy(&FA);
  if (RC != 0) {
    D.Pid = -1;
    std::fprintf(stderr, "cannot start %s: %s\n", O.TajCli.c_str(),
                 std::strerror(RC));
    return false;
  }
  return true;
}

server::Request makeRequest(const std::string &Text) {
  server::Request R;
  R.Sources.push_back({"webapp.taj", /*Inline=*/true, Text});
  return R;
}

/// One client-side request record.
struct Sample {
  double Ms = 0;
  bool Ok = false;
  bool Miss = false;
  bool HotHit = false;
  /// Worker-reported phase times (reference ms), traced passes only.
  double Parse = 0, Dataflow = 0, Pointsto = 0, Sdg = 0, Slicing = 0,
         Report = 0, PersistLoad = 0, Residue = 0, Worker = 0;
  double ValuesConst = 0, CgNodes = 0, Issues = 0, Groups = 0;
  double PersistHits = 0, PersistLookups = 0;
};

} // namespace

Result suitebench::runServeWorkload(const Options &O) {
  Result Res;
  std::string Text;
  {
    std::ifstream In(O.Webapp, std::ios::binary);
    std::stringstream SS;
    SS << In.rdbuf();
    Text = SS.str();
  }
  const Annotations Ann = readAnnotations(Text);
  const std::string Sock = (fs::path(O.WorkDir) / "serve.sock").string();
  const server::Request Hot = makeRequest(Text);

  // Every time below is in reference ms (see Calibrator): wall ms times the
  // factor of the tick just before. The kernel is the IPC one, since a
  // daemon request is mostly process switches and socket traffic.
  Calibrator Cal(Calibrator::Kernel::Ipc);

  // Set-up, repeated: the oracle's interpreter run, daemon start (spawn
  // until the first answer, which analyses cold) and prefill (warm-up
  // requests), each part after a calibration tick. The repeats run in two
  // groups, before and after the closed loop, so setup_s takes its median
  // over two moments of the run.
  Daemon D;
  InterpFlows Dyn;
  std::string Expected;
  uint64_t ExpectedIssues = 0;
  SetupTimes Setup;
  auto SetUpOnce = [&] {
    D.stop();
    std::error_code Ec;
    fs::remove(Sock, Ec);
    double F = Cal.tick();
    Clock::time_point T0 = Clock::now();
    Dyn = interpretPayload(Text);
    const double OracleMs = msSince(T0) * F;

    F = Cal.tick();
    T0 = Clock::now();
    server::Response Resp;
    std::string Err;
    bool Answered = false;
    if (startDaemon(O, Sock, D))
      while (msSince(T0) < 10000 && !Answered) {
        Answered = server::requestAnalysis(Sock, Hot, Resp, Err);
        if (!Answered)
          ::usleep(200);
      }
    const double StartMs = msSince(T0) * F;
    if (!Answered || Resp.St != server::Status::Ok ||
        (!Expected.empty() && Resp.Report != Expected)) {
      std::fprintf(stderr, "daemon did not answer as before: %s\n",
                   Err.c_str());
      return false;
    }
    Expected = Resp.Report;
    ExpectedIssues = Resp.Issues;

    F = Cal.tick();
    T0 = Clock::now();
    for (int I = 0; I < PrefillRequests; ++I) {
      server::Response R;
      std::string E;
      server::requestAnalysis(Sock, Hot, R, E);
    }
    Setup.add(0, OracleMs, msSince(T0) * F, StartMs);
    return true;
  };
  const int SetupsBefore = ServeSetupRepeats / 2 + 1;
  bool SetupOk = true;
  for (int Rep = 0; Rep < SetupsBefore && SetupOk; ++Rep)
    SetupOk = SetUpOnce();

  uint64_t TP = 0, FP = 0;
  if (SetupOk) {
    std::string Why = Dyn.Ok ? checkReport(Expected, Ann, Dyn, TP, FP)
                             : "the interpreter observed no flow";
    if (!Why.empty()) {
      std::fprintf(stderr, "oracle: webapp.taj: %s\n", Why.c_str());
      SetupOk = false;
    }
  }
  if (!SetupOk) {
    D.stop();
    Res.Correct = false;
    Res.Attempted = 1;
    Res.Failed = 1;
    return Res;
  }

  // Closed loop: the client sends its next request when the previous one
  // is answered, in chunks of ChunkPasses passes with a calibration tick
  // before each; the stop is checked between chunks. Passes of ten
  // requests alternate untraced and traced under --trace 1.
  std::vector<Sample> Samples;
  std::vector<double> UntracedPass, TracedPass;
  SpanLog Log;
  // Time of the chunks, the ticks apart.
  double LoopMs = 0;
  uint64_t N = 0;
  const Clock::time_point LoopT0 = Clock::now();
  do {
    const double F = Cal.tick();
    {
      // An untimed hot request refills the caches the kernel evicted, so
      // the chunk's first timed request is not its slowest.
      server::Response R;
      std::string E;
      server::requestAnalysis(Sock, Hot, R, E);
    }
    const Clock::time_point C0 = Clock::now();
    Clock::time_point PassT0;
    for (const uint64_t End = N + ChunkPasses * PassRequests; N < End; ++N) {
      const bool Traced = O.Trace && (N / PassRequests) % 2 == 1;
      if (N % PassRequests == 0)
        PassT0 = Clock::now();
      const bool Miss = N % PassRequests == PassRequests - 1;
      server::Request Req = Hot;
      if (Miss)
        Req.Sources[0].Content += "// miss " + std::to_string(O.Seed) + "-" +
                                  std::to_string(N) + "\n";
      uint32_t Op = 0;
      int32_t Span = -1;
      if (Traced) {
        Op = Log.newOp("request" + std::to_string(N));
        Span = Log.open(Miss ? "request.miss" : "request.hit", Op, -1);
      }
      server::Response Resp;
      std::string Err;
      Clock::time_point R0 = Clock::now();
      bool Sent = server::requestAnalysis(Sock, Req, Resp, Err);
      Sample S;
      S.Ms = msSince(R0) * F;
      S.Miss = Miss;
      if (Traced)
        Log.close(Span);
      S.Ok = Sent && Resp.St == server::Status::Ok && Resp.Exit == 0 &&
             Resp.Issues == ExpectedIssues && Resp.Report == Expected;
      if (Traced) {
        std::map<std::string, double> St = parseFlatJson(Resp.StatsJson);
        auto Ms = [&](const char *Phase) {
          return St["phase." + std::string(Phase) + "_us"] / 1000 * F;
        };
        S.HotHit = St["persist.mem_hit"] > 0;
        S.PersistHits = St["persist.hit"];
        S.PersistLookups = St["persist.hit"] + St["persist.miss"];
        S.Parse = Ms("parse");
        S.Dataflow = Ms("conststr");
        S.Pointsto = Ms("pointsto");
        S.Sdg = Ms("sdg");
        S.Slicing = Ms("slicing");
        S.Report = Ms("report");
        S.PersistLoad = Ms("persist_load");
        S.Residue = Ms("analysis");
        for (const auto &[K, V] : St)
          if (K.rfind("phase.", 0) == 0 && K.size() > 3 &&
              K.compare(K.size() - 3, 3, "_us") == 0 &&
              K.find("_cpu_us") == std::string::npos)
            S.Worker += V / 1000 * F;
        S.ValuesConst = St["conststr.values_const"];
        S.CgNodes = St["cg.nodes"];
        S.Issues = St["cli.issues"];
        S.Groups = static_cast<double>(parseReport(Resp.Report).size());
      }
      Samples.push_back(S);
      if (Miss)
        (Traced ? TracedPass : UntracedPass)
            .push_back(msSince(PassT0) * F);
    }
    LoopMs += msSince(C0) * F;
  } while (msSince(LoopT0) < O.Seconds * 1000);
  // The daemon and its pool workers, while they still run.
  const double PeakMb = peakRssMb(D.Pid);
  for (int Rep = SetupsBefore; Rep < ServeSetupRepeats && Res.Correct; ++Rep)
    Res.Correct = SetUpOnce();
  D.stop();

  for (const Sample &S : Samples)
    if (!S.Ok && ++Res.Failed <= 10)
      std::fprintf(stderr, "oracle: response %llu is wrong\n",
                   static_cast<unsigned long long>(&S - Samples.data()));
  Res.Attempted = Samples.size();

  if (!O.Trace) {
    std::vector<double> Lat, MissLat;
    for (const Sample &S : Samples) {
      Lat.push_back(S.Ms);
      if (S.Miss)
        MissLat.push_back(S.Ms);
    }
    Res.add("pass_ms", mean(UntracedPass), "ms");
    addLatencies(Res, Lat);
    // The miss is the largest unit of work here.
    Res.add("largest_app_ms", median(MissLat), "ms");
    Res.add("verdicts_per_s", Samples.size() / (LoopMs / 1000), "1/s");
    Res.add("true_positives", static_cast<double>(TP * PassRequests),
            "count");
    Res.add("false_positives", static_cast<double>(FP * PassRequests),
            "count");
    Res.add("peak_rss_mb", PeakMb, "MiB");
    Res.add("setup_s", median(Setup.Total) / 1000, "s");
    Res.Notes.push_back(std::to_string(Samples.size()) + " requests");
    Res.Notes.push_back(describe(Cal));
    Res.Notes.push_back(Setup.describe());
    return Res;
  }

  // Per-layer numbers: per-pass sums over the traced passes' worker-
  // reported phases (the analysis runs in the daemon's workers, out of the
  // benchmark's reach for spans), means across passes.
  std::vector<Sample> PassSums;
  uint64_t Hits = 0, Seen = 0;
  double PersistHits = 0, PersistLookups = 0;
  for (size_t P = PassRequests; P + PassRequests <= Samples.size();
       P += 2 * PassRequests) {
    Sample Sum;
    for (size_t I = P; I < P + PassRequests; ++I) {
      const Sample &S = Samples[I];
      Hits += S.HotHit;
      ++Seen;
      PersistHits += S.PersistHits;
      PersistLookups += S.PersistLookups;
      Sum.Ms += S.Ms;
      Sum.Parse += S.Parse;
      Sum.Dataflow += S.Dataflow;
      Sum.Pointsto += S.Pointsto;
      Sum.Sdg += S.Sdg;
      Sum.Slicing += S.Slicing;
      Sum.Report += S.Report;
      Sum.PersistLoad += S.PersistLoad;
      Sum.Residue += S.Residue;
      Sum.Worker += S.Worker;
      Sum.ValuesConst += S.ValuesConst;
      Sum.CgNodes += S.CgNodes;
      Sum.Issues += S.Issues;
      Sum.Groups += S.Groups;
    }
    PassSums.push_back(Sum);
  }
  // Worker counters are whole microseconds: means across passes keep
  // their resolution where a quantile would snap to one value.
  auto Mean = [&](double Sample::*Field) {
    double Sum = 0;
    for (const Sample &S : PassSums)
      Sum += S.*Field;
    return Sum / PassSums.size();
  };
  auto Share = [&](double Sample::*Field) {
    return Mean(Field) / Mean(&Sample::Ms);
  };
  const Sample &First = PassSums.front();
  Res.add("slicer.ms", Mean(&Sample::Slicing), "ms");
  Res.add("slicer.items", 0, "count");
  Res.add("slicer.path_edges", 0, "count");
  Res.add("slicer.issues", First.Issues, "count");
  Res.add("slicer.issue_yield", 0, "ratio");
  Res.add("dataflow.ms", Mean(&Sample::Dataflow), "ms");
  Res.add("dataflow.values_const", First.ValuesConst, "count");
  Res.add("pointsto.ms", Mean(&Sample::Pointsto), "ms");
  Res.add("pointsto.cg_nodes", First.CgNodes, "count");
  Res.add("pointsto.budget_exhausted", 0, "count");
  Res.add("sdg.ms", Mean(&Sample::Sdg), "ms");
  Res.add("sdg.nodes", 0, "count");
  Res.add("sdg.stores", 0, "count");
  Res.add("sdg.sinks", 0, "count");
  Res.add("sdg.chan_nodes", 0, "count");
  Res.add("report.ms", Mean(&Sample::Report), "ms");
  Res.add("report.groups", First.Groups, "count");
  Res.add("persist.load_share", Share(&Sample::PersistLoad), "ratio");
  Res.add("persist.hit_ratio",
          PersistLookups ? PersistHits / PersistLookups : 0, "ratio");
  Res.add("core.residue_ms", Mean(&Sample::Residue), "ms");
  Res.add("frontend.parse_share", Share(&Sample::Parse), "ratio");
  Res.add("server.overhead_share", 1 - Share(&Sample::Worker), "ratio");
  Res.add("server.hot_hit_ratio", Seen ? static_cast<double>(Hits) / Seen : 0,
          "ratio");
  Setup.addPerLayer(Res);
  Res.add("trace.overhead_ms", mean(TracedPass) - mean(UntracedPass), "ms");
  fs::path TraceFile =
      fs::path(O.WorkDir) /
      ("trace-" + O.Workload + "-" + std::to_string(O.Seed) + ".json");
  if (!Log.write(TraceFile.string()))
    std::fprintf(stderr, "warning: cannot write %s\n", TraceFile.c_str());
  return Res;
}
