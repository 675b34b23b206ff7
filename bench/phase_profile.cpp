//===- bench/phase_profile.cpp - Where a suite pass spends its time ------===//
//
// Runs one configuration over the 22 suite apps several times and prints,
// as one JSON object, each app's medians of the run's `phase.<name>_us`
// counters, Millis, SliceWork and issue count, then those medians summed
// over the suite. The suite object also carries MinorFaultsPerPass: the
// process's minor page faults over the timed runs (getrusage), divided by
// the number of passes.
//
//   phase_profile [config] [cold|warm] [runs]
//
// config is one of the five bench configurations (default
// hybrid-optimized). A cold run uses no cache; a warm run hits a fresh
// disk cache that one untimed pass over the suite fills first. runs
// defaults to 11, interleaved over the apps. The tool does not pin
// itself: run it under `taskset -c <cpu>` for numbers worth comparing.
//
//===----------------------------------------------------------------------===//

#include "bench/BenchCommon.h"
#include "persist/Cache.h"

#include <algorithm>
#include <filesystem>
#include <map>
#include <memory>
#include <sstream>

#include <sys/resource.h>
#include <unistd.h>

using namespace taj;

namespace {

using Samples = std::map<std::string, std::vector<double>>;

void sample(const AnalysisResult &R, Samples &S) {
  std::istringstream Lines(R.RunStats.toString());
  for (std::string L; std::getline(Lines, L);) {
    const size_t Eq = L.find('=');
    const std::string Name = L.substr(0, Eq);
    if (Name.starts_with("phase.") && Name.ends_with("_us") &&
        !Name.ends_with("_cpu_us"))
      S[Name].push_back(std::stod(L.substr(Eq + 1)));
  }
  S["Millis"].push_back(R.Millis);
  S["SliceWork"].push_back(static_cast<double>(R.SliceWork));
  S["Issues"].push_back(static_cast<double>(R.Issues.size()));
}

double median(std::vector<double> V) {
  std::sort(V.begin(), V.end());
  const size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

void printRow(const std::map<std::string, double> &Row) {
  const char *Sep = "";
  for (const auto &[Name, V] : Row) {
    std::printf("%s\"%s\":%.10g", Sep, Name.c_str(), V);
    Sep = ",";
  }
}

} // namespace

int main(int Argc, char **Argv) {
  const std::string Cfg = Argc > 1 ? Argv[1] : "hybrid-optimized";
  const std::string Mode = Argc > 2 ? Argv[2] : "cold";
  const int Runs = Argc > 3 ? std::atoi(Argv[3]) : 11;
  if (std::find(std::begin(bench::AllConfigs), std::end(bench::AllConfigs),
                Cfg) == std::end(bench::AllConfigs) ||
      (Mode != "cold" && Mode != "warm") || Runs < 1) {
    std::fprintf(stderr, "usage: %s [config] [cold|warm] [runs]\n", Argv[0]);
    return 2;
  }

  const std::vector<AppSpec> Suite = benchmarkSuite();
  std::vector<GeneratedApp> Apps;
  for (const AppSpec &S : Suite)
    Apps.push_back(generateApp(S));
  namespace fs = std::filesystem;
  const fs::path Dir = fs::temp_directory_path() /
                       ("taj-phase-profile-" + std::to_string(::getpid()));
  std::unique_ptr<persist::ArtifactCache> Cache;
  if (Mode == "warm") {
    fs::remove_all(Dir);
    Cache = std::make_unique<persist::ArtifactCache>(Dir.string());
  }
  auto Run = [&](size_t I) {
    AnalysisConfig C = bench::configByName(Cfg);
    C.Cache = Cache.get();
    C.InputFingerprint = Suite[I].Name;
    TaintAnalysis TA(*Apps[I].P, std::move(C));
    return TA.run({Apps[I].Root});
  };
  if (Cache)
    for (size_t I = 0; I < Apps.size(); ++I)
      Run(I);

  std::vector<Samples> PerApp(Apps.size());
  rusage Before{}, After{};
  ::getrusage(RUSAGE_SELF, &Before);
  for (int K = 0; K < Runs; ++K)
    for (size_t I = 0; I < Apps.size(); ++I)
      sample(Run(I), PerApp[I]);
  ::getrusage(RUSAGE_SELF, &After);
  if (Cache)
    fs::remove_all(Dir);

  std::printf("{\"config\":\"%s\",\"mode\":\"%s\",\"runs\":%d,\"apps\":{",
              Cfg.c_str(), Mode.c_str(), Runs);
  std::map<std::string, double> Sum;
  for (size_t I = 0; I < Apps.size(); ++I) {
    std::map<std::string, double> Row;
    for (const auto &[Name, V] : PerApp[I]) {
      Row[Name] = median(V);
      Sum[Name] += Row[Name];
    }
    std::printf("%s\n\"%s\":{", I ? "," : "", Suite[I].Name.c_str());
    printRow(Row);
    std::printf("}");
  }
  Sum["MinorFaultsPerPass"] =
      static_cast<double>(After.ru_minflt - Before.ru_minflt) / Runs;
  std::printf("},\n\"suite\":{");
  printRow(Sum);
  std::printf("}}\n");
  return 0;
}
