//===- bench/micro_perf.cpp - google-benchmark micro suite ---------------===//
//
// Scaling microbenchmarks of the core engines: pointer analysis +
// call-graph construction (alone, and as the pipeline runs it), hybrid
// slicing (RHS tabulation), CI slicing, SDG construction and
// string-constant propagation, over generated applications of
// increasing size; plus the class hierarchy's constructor, whole
// warm/cold runs, the points-to and SDG restores alone, a disk cache hit
// up to the restore and the analysis server's warm request.
//
//===----------------------------------------------------------------------===//

#include "bench/BenchCommon.h"
#include "dataflow/ConstString.h"
#include "persist/Cache.h"
#include "sdg/SDG.h"
#include "server/Client.h"
#include "server/Protocol.h"
#include "slicer/Slicer.h"

#include <benchmark/benchmark.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>

#include <csignal>
#include <fcntl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace taj;

namespace {

/// A/B knob for the --verify overhead acceptance runs: TAJ_BENCH_VERIFY
/// ({off,fast,full}) selects the self-verification mode the governed
/// benchmarks run under, defaulting to off so the headline numbers stay
/// the analysis alone.
verify::VerifyMode benchVerifyMode() {
  verify::VerifyMode M = verify::VerifyMode::Off;
  if (const char *E = std::getenv("TAJ_BENCH_VERIFY"))
    verify::parseVerifyMode(E, M);
  return M;
}

/// Picks suite apps by size class. Roller is the largest: its
/// context-expanded SDG has ~24.5k nodes against SBM's ~4.7k.
const AppSpec &appByIndex(int64_t Idx) {
  static std::vector<AppSpec> Suite = benchmarkSuite();
  static const char *Names[] = {"I",     "BlueBlog", "A",
                                "Friki", "SBM",      "Roller"};
  for (const AppSpec &S : Suite)
    if (S.Name == Names[Idx])
      return S;
  return Suite[0];
}

void BM_PointerAnalysis(benchmark::State &State) {
  const AppSpec &Spec = appByIndex(State.range(0));
  GeneratedApp App = generateApp(Spec);
  ClassHierarchy CHA(*App.P);
  for (auto _ : State) {
    PointsToSolver Solver(*App.P, CHA);
    Solver.solve({App.Root});
    benchmark::DoNotOptimize(Solver.callGraph().numProcessed());
  }
  State.SetLabel(Spec.Name);
}
BENCHMARK(BM_PointerAnalysis)->DenseRange(0, 5);

void BM_HybridSlicing(benchmark::State &State) {
  const AppSpec &Spec = appByIndex(State.range(0));
  GeneratedApp App = generateApp(Spec);
  ClassHierarchy CHA(*App.P);
  PointsToSolver Solver(*App.P, CHA);
  Solver.solve({App.Root});
  for (auto _ : State) {
    SliceRunResult R = runHybridSlicer(*App.P, CHA, Solver, {});
    benchmark::DoNotOptimize(R.Issues.size());
  }
  State.SetLabel(Spec.Name);
}
BENCHMARK(BM_HybridSlicing)->DenseRange(0, 5);

void BM_CiSlicing(benchmark::State &State) {
  const AppSpec &Spec = appByIndex(State.range(0));
  GeneratedApp App = generateApp(Spec);
  ClassHierarchy CHA(*App.P);
  PointsToSolver Solver(*App.P, CHA);
  Solver.solve({App.Root});
  for (auto _ : State) {
    SliceRunResult R = runCiSlicer(*App.P, CHA, Solver, {});
    benchmark::DoNotOptimize(R.Issues.size());
  }
  State.SetLabel(Spec.Name);
}
BENCHMARK(BM_CiSlicing)->DenseRange(0, 5);

void BM_SdgConstruction(benchmark::State &State) {
  const AppSpec &Spec = appByIndex(State.range(0));
  GeneratedApp App = generateApp(Spec);
  ClassHierarchy CHA(*App.P);
  PointsToSolver Solver(*App.P, CHA);
  Solver.solve({App.Root});
  for (auto _ : State) {
    SDGOptions SO;
    SO.ContextExpanded = true;
    SDG G(*App.P, CHA, Solver, SO);
    benchmark::DoNotOptimize(G.numNodes());
  }
  State.SetLabel(Spec.Name);
}
BENCHMARK(BM_SdgConstruction)->DenseRange(0, 5);

/// String-constant propagation in ipa mode, the presets' mode, with the
/// class hierarchy built once outside the loop. Each iteration folds the
/// same concatenations again, which the pool already holds.
void BM_ConstStrings(benchmark::State &State) {
  const AppSpec &Spec = appByIndex(State.range(0));
  GeneratedApp App = generateApp(Spec);
  App.P->indexStatements();
  ClassHierarchy CHA(*App.P);
  ConstStringOptions O;
  O.Mode = StringAnalysisMode::Ipa;
  for (auto _ : State) {
    ConstStringResult R = analyzeConstStrings(*App.P, CHA, O);
    benchmark::DoNotOptimize(R.stats().get("conststr.values_const"));
  }
  State.SetLabel(Spec.Name);
}
BENCHMARK(BM_ConstStrings)->DenseRange(0, 5);

/// The class hierarchy's constructor alone. Every run pays it, warm runs
/// included, whether or not they dispatch a single call.
void BM_ClassHierarchy(benchmark::State &State) {
  const AppSpec &Spec = appByIndex(State.range(0));
  GeneratedApp App = generateApp(Spec);
  for (auto _ : State) {
    ClassHierarchy CHA(*App.P);
    benchmark::DoNotOptimize(CHA.depth(0));
  }
  State.SetLabel(Spec.Name);
}
BENCHMARK(BM_ClassHierarchy)->Arg(5);

/// End-to-end analysis with the persistent artifact cache: a /0/* row runs
/// uncached (cold), a /1/* row against a prefilled cache (warm: the
/// pointer-analysis phase and SDG restore from disk instead of being
/// computed). The second argument picks the configuration: /*/0 is
/// hybrid-unbounded, /*/1 hybrid-optimized at bench bounds, whose node
/// budget truncates Roller's call graph. The warm/cold ratio is the
/// headline number of the warm-start feature.
void BM_ColdVsWarmAnalysis(benchmark::State &State) {
  const AppSpec &Spec = appByIndex(5); // Roller, the largest app
  const bool Warm = State.range(0) != 0;
  const char *Config =
      State.range(1) != 0 ? "hybrid-optimized" : "hybrid-unbounded";
  GeneratedApp App = generateApp(Spec);

  char DirBuf[] = "/tmp/taj-bench-cache-XXXXXX";
  const char *Dir = ::mkdtemp(DirBuf);
  auto MakeConfig = [&](persist::ArtifactCache *Cache) {
    AnalysisConfig C = bench::configByName(Config);
    C.Cache = Cache;
    C.InputFingerprint = std::string("bench:") + Spec.Name;
    return C;
  };
  persist::ArtifactCache Cache(Dir ? Dir : "");
  if (Warm) {
    // Prefill so every timed iteration restores from disk.
    TaintAnalysis TA(*App.P, MakeConfig(&Cache));
    benchmark::DoNotOptimize(TA.run({App.Root}).Issues.size());
  }
  double PersistLoadMs = 0;
  for (auto _ : State) {
    TaintAnalysis TA(*App.P, MakeConfig(Warm ? &Cache : nullptr));
    AnalysisResult R = TA.run({App.Root});
    benchmark::DoNotOptimize(R.Issues.size());
    PersistLoadMs += R.PersistLoadMillis;
  }
  // Attribute the disk-restore share separately, so the warm/cold delta
  // can be split into "time saved computing" vs "time spent loading".
  State.counters["persist_load_ms"] = benchmark::Counter(
      PersistLoadMs, benchmark::Counter::kAvgIterations);
  State.SetLabel(Spec.Name + "/" + Config + (Warm ? "/warm" : "/cold"));
  if (Dir) {
    std::error_code Ec;
    std::filesystem::remove_all(Dir, Ec);
  }
}
BENCHMARK(BM_ColdVsWarmAnalysis)->ArgsProduct({{0, 1}, {0, 1}});

/// One app's pointer phase under a named config, composed as
/// TaintAnalysis::run composes it: the string facts, then the solver
/// options that consume them.
struct PointerPhase {
  GeneratedApp App;
  std::unique_ptr<ClassHierarchy> CHA;
  AnalysisConfig C;
  ConstStringResult Strings;
  PointsToOptions PO;

  PointerPhase(int64_t AppIdx, const char *Config)
      : App(generateApp(appByIndex(AppIdx))),
        C(bench::configByName(Config)) {
    App.P->indexStatements();
    CHA = std::make_unique<ClassHierarchy>(*App.P);
    ConstStringOptions CSO;
    CSO.Mode = C.StringAnalysis;
    Strings = analyzeConstStrings(*App.P, *CHA, CSO);
    PO = C.pointsToOptions();
    PO.ConstStrings = &Strings;
  }
};

/// The solve the pipeline runs: the solver options from
/// pointsToOptions(), the preset's string facts computed once outside the
/// loop, and a fresh RunGuard per solve for the solver to tick. The first
/// argument is the size class, the second the config: /N/0 is
/// hybrid-unbounded, /N/1 hybrid-optimized at bench bounds (a node budget
/// of 400). BM_PointerAnalysis, kept for comparability, instead times a
/// Local-mode string analysis inside solve() and runs unguarded.
void BM_SolverAsRun(benchmark::State &State) {
  const char *Config =
      State.range(1) != 0 ? "hybrid-optimized" : "hybrid-unbounded";
  const PointerPhase Ph(State.range(0), Config);
  for (auto _ : State) {
    RunGuard G;
    PointsToOptions PO = Ph.PO;
    PO.Guard = &G;
    PointsToSolver Solver(*Ph.App.P, *Ph.CHA, std::move(PO));
    Solver.solve({Ph.App.Root});
    benchmark::DoNotOptimize(Solver.callGraph().numProcessed());
  }
  State.SetLabel(appByIndex(State.range(0)).Name + "/" + Config);
}
BENCHMARK(BM_SolverAsRun)->ArgsProduct({benchmark::CreateDenseRange(0, 5, 1),
                                        {0, 1}});

/// The warm path's largest layer alone: Access::restoreSolver from an
/// in-memory copy of Roller's pts record payload. /0 is hybrid-unbounded,
/// /1 hybrid-optimized at bench bounds (the node budget truncates Roller).
/// Solver construction and teardown run with the timer paused; the
/// payload_bytes counter is the size of the payload restored.
void BM_RestoreSolver(benchmark::State &State) {
  const char *Config =
      State.range(0) != 0 ? "hybrid-optimized" : "hybrid-unbounded";
  const PointerPhase Ph(5, Config); // Roller, the largest app
  std::vector<uint8_t> Payload;
  {
    PointsToSolver Solver(*Ph.App.P, *Ph.CHA, Ph.PO);
    Solver.solve({Ph.App.Root});
    persist::Writer W;
    persist::Access::serializeSolver(Solver, W);
    Payload = W.bytes();
  }
  for (auto _ : State) {
    State.PauseTiming();
    auto Solver = std::make_unique<PointsToSolver>(*Ph.App.P, *Ph.CHA, Ph.PO);
    State.ResumeTiming();
    persist::Reader R(Payload.data(), Payload.size());
    if (!persist::Access::restoreSolver(*Solver, R))
      State.SkipWithError("restoreSolver rejected its own record");
    State.PauseTiming();
    Solver.reset();
    State.ResumeTiming();
  }
  State.counters["payload_bytes"] = static_cast<double>(Payload.size());
  State.SetLabel("Roller/" + std::string(Config));
}
BENCHMARK(BM_RestoreSolver)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

/// The sdg record's restore alone: Access::restoreSdg from an in-memory
/// copy of the payload the hybrid slicer stores for Roller (the SDG plus
/// its heap edges). /0 is hybrid-unbounded, /1 hybrid-optimized at bench
/// bounds. Freeing each restored graph runs with the timer paused; the
/// payload_bytes counter is the size of the payload restored.
void BM_RestoreSdg(benchmark::State &State) {
  const char *Config =
      State.range(0) != 0 ? "hybrid-optimized" : "hybrid-unbounded";
  const PointerPhase Ph(5, Config); // Roller, the largest app
  PointsToSolver Solver(*Ph.App.P, *Ph.CHA, Ph.PO);
  Solver.solve({Ph.App.Root});
  SDGOptions SO;
  SO.ContextExpanded = true;
  SO.ModelExceptionSources = Ph.C.ModelExceptionSources;
  std::vector<uint8_t> Payload;
  {
    persist::SdgArtifacts A = persist::loadOrBuildSdg(
        *Ph.App.P, *Ph.CHA, Solver, SO, Ph.C.NestedTaintDepth, nullptr, "");
    persist::Writer W;
    persist::Access::serializeSdg(*A.G, A.HE.get(), W);
    Payload = W.bytes();
  }
  std::unique_ptr<SDG> G;
  std::unique_ptr<HeapEdges> HE;
  for (auto _ : State) {
    persist::Reader R(Payload.data(), Payload.size());
    if (!persist::Access::restoreSdg(G, HE, *Ph.App.P, Solver, SO, R))
      State.SkipWithError("restoreSdg rejected its own record");
    benchmark::DoNotOptimize(G.get());
    State.PauseTiming();
    HE.reset();
    G.reset();
    State.ResumeTiming();
  }
  State.counters["payload_bytes"] = static_cast<double>(Payload.size());
  State.SetLabel("Roller/" + std::string(Config));
}
BENCHMARK(BM_RestoreSdg)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

/// A disk hit up to the restore: ArtifactCache::load of Roller's
/// hybrid-optimized pts (/0) or sdg (/1) record from a disk cache that a
/// set-up run filled, so the page cache is warm and each iteration pays
/// the read, the header checks and the checksum. The payload_bytes
/// counter is the size of the payload loaded.
void BM_CacheLoad(benchmark::State &State) {
  const AppSpec &Spec = appByIndex(5); // Roller, the largest app
  const bool Sdg = State.range(0) != 0;
  const persist::ArtifactKind Kind =
      Sdg ? persist::ArtifactKind::Sdg : persist::ArtifactKind::PointsTo;
  GeneratedApp App = generateApp(Spec);
  char DirBuf[] = "/tmp/taj-bench-cache-XXXXXX";
  const char *Dir = ::mkdtemp(DirBuf);
  if (!Dir) {
    State.SkipWithError("mkdtemp failed");
    return;
  }
  persist::ArtifactCache Cache(Dir);
  AnalysisConfig C = bench::configByName("hybrid-optimized");
  C.Cache = &Cache;
  C.InputFingerprint = std::string("bench:") + Spec.Name;
  const std::string Key = persist::ArtifactCache::makeKey(
      Sdg ? "sdg" : "pts", C.InputFingerprint,
      Sdg ? C.sdgFingerprint() : C.pointsToFingerprint());
  {
    TaintAnalysis TA(*App.P, C);
    benchmark::DoNotOptimize(TA.run({App.Root}).Issues.size());
  }
  size_t Bytes = 0;
  for (auto _ : State) {
    std::optional<persist::LoadedPayload> Payload = Cache.load(Key, Kind);
    if (!Payload) {
      State.SkipWithError("the set-up run stored no record");
      break;
    }
    Bytes = Payload->size();
    benchmark::DoNotOptimize(Payload->data());
  }
  State.counters["payload_bytes"] = static_cast<double>(Bytes);
  State.SetLabel("Roller/hybrid-optimized/" + std::string(Sdg ? "sdg" : "pts"));
  std::error_code Ec;
  std::filesystem::remove_all(Dir, Ec);
}
BENCHMARK(BM_CacheLoad)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

/// The analysis server's reason to exist, quantified: one warm request
/// against a running daemon (a pool worker holding the hot artifact tier)
/// vs the same warm request as a fork-per-request batch run
/// (`--batch --jobs=1`: process start, cache open, disk restore on every
/// request). Arg(0) = fork-per-request baseline, Arg(1) = server request.
/// Both rows run against a prefilled cache, so the delta isolates the
/// per-request dispatch cost, which is exactly what the daemon amortizes.
void BM_ServerWarmRequest(benchmark::State &State) {
  const bool UseServer = State.range(0) != 0;
  char DirBuf[] = "/tmp/taj-bench-serve-XXXXXX";
  const char *DirC = ::mkdtemp(DirBuf);
  const std::string Dir = DirC ? DirC : "/tmp";
  const std::string CacheDir = Dir + "/cache";

  auto Spawn = [](const std::vector<std::string> &Args, bool DropStdout) {
    pid_t Pid = ::fork();
    if (Pid != 0)
      return Pid;
    if (DropStdout) {
      int Null = ::open("/dev/null", O_WRONLY);
      if (Null >= 0) {
        ::dup2(Null, STDOUT_FILENO);
        ::close(Null);
      }
    }
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
  };
  auto Wait = [](pid_t Pid) {
    int St = 0;
    while (::waitpid(Pid, &St, 0) < 0 && errno == EINTR)
      ;
    return WIFEXITED(St) ? WEXITSTATUS(St) : -1;
  };

  if (!UseServer) {
    const std::string ListPath = Dir + "/list.txt";
    {
      std::ofstream List(ListPath);
      List << TAJ_EXAMPLE_TAJ << "\n";
    }
    std::vector<std::string> Args = {"--batch=" + ListPath, "--jobs=1",
                                     "--cache-dir=" + CacheDir};
    if (benchVerifyMode() != verify::VerifyMode::Off)
      Args.push_back(std::string("--verify=") +
                     verify::verifyModeName(benchVerifyMode()));
    if (Wait(Spawn(Args, true)) != 0) // prefill: the timed runs are warm
      State.SkipWithError("batch prefill failed");
    for (auto _ : State) {
      if (Wait(Spawn(Args, true)) != 0) {
        State.SkipWithError("batch request failed");
        break;
      }
    }
    State.SetLabel("fork-per-request");
  } else {
    const std::string Sock = Dir + "/srv.sock";
    std::vector<std::string> ServeArgs = {"--serve=" + Sock, "--pool-size=1",
                                          "--cache-dir=" + CacheDir};
    if (benchVerifyMode() != verify::VerifyMode::Off)
      ServeArgs.push_back(std::string("--verify=") +
                          verify::verifyModeName(benchVerifyMode()));
    pid_t Daemon = Spawn(ServeArgs, true);
    struct sockaddr_un Addr;
    std::memset(&Addr, 0, sizeof(Addr));
    Addr.sun_family = AF_UNIX;
    std::memcpy(Addr.sun_path, Sock.c_str(), Sock.size() + 1);
    bool Up = false;
    for (int I = 0; I < 500 && !Up; ++I) {
      int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
      if (Fd >= 0) {
        Up = ::connect(Fd, reinterpret_cast<struct sockaddr *>(&Addr),
                       sizeof(Addr)) == 0;
        ::close(Fd);
      }
      if (!Up)
        ::usleep(20000);
    }

    server::Request Req;
    server::AppSource Src;
    Src.Name = TAJ_EXAMPLE_TAJ;
    Src.Inline = true;
    {
      std::ifstream In(TAJ_EXAMPLE_TAJ, std::ios::binary);
      Src.Content = std::string((std::istreambuf_iterator<char>(In)),
                                std::istreambuf_iterator<char>());
    }
    Req.Sources.push_back(std::move(Src));

    server::Response Resp;
    std::string Err;
    // Prefill: request 1 warms the worker's hot tier.
    if (!Up || !server::requestAnalysis(Sock, Req, Resp, Err) ||
        Resp.St != server::Status::Ok)
      State.SkipWithError("server prefill failed");
    double HotHits = 0;
    for (auto _ : State) {
      if (!server::requestAnalysis(Sock, Req, Resp, Err) ||
          Resp.St != server::Status::Ok) {
        State.SkipWithError("server request failed");
        break;
      }
      const std::string Needle = "\"persist.mem_hit\":";
      size_t At = Resp.StatsJson.find(Needle);
      if (At != std::string::npos)
        HotHits += std::atof(Resp.StatsJson.c_str() + At + Needle.size());
    }
    State.counters["server_hot_hits"] =
        benchmark::Counter(HotHits, benchmark::Counter::kAvgIterations);
    State.SetLabel("server-warm");
    if (Daemon > 0) {
      ::kill(Daemon, SIGTERM);
      Wait(Daemon);
    }
  }
  if (DirC) {
    std::error_code Ec;
    std::filesystem::remove_all(DirC, Ec);
  }
}
BENCHMARK(BM_ServerWarmRequest)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_Generation(benchmark::State &State) {
  const AppSpec &Spec = appByIndex(State.range(0));
  for (auto _ : State) {
    GeneratedApp App = generateApp(Spec);
    benchmark::DoNotOptimize(App.GenStmts);
  }
  State.SetLabel(Spec.Name);
}
BENCHMARK(BM_Generation)->DenseRange(0, 5);

} // namespace

BENCHMARK_MAIN();
