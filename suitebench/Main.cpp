//===- suitebench/Main.cpp - Suite-scale benchmark entry point ------------===//
//
// Part of the TAJ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Usage:
///   suitebench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
///              --taj-cli PATH --webapp PATH --work-dir DIR
///   suitebench --dump-expected
///
/// Runs one workload, prints every metric as "name value unit", then one
/// JSON line {"correct", "attempted", "failed", "metrics"}: the end-to-end
/// metrics with --trace 0, the per-layer ones with --trace 1.
///
//===----------------------------------------------------------------------===//

#include "suitebench/Bench.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>

using namespace suitebench;

namespace {

/// The metric names every run must report, in output order.
const char *const EndToEnd[] = {
    "pass_ms",        "app_ms_p50",     "app_ms_p95",     "app_ms_p99",
    "largest_app_ms", "verdicts_per_s", "true_positives", "false_positives",
    "peak_rss_mb",    "setup_s"};

const char *const PerLayer[] = {
    "slicer.ms",          "slicer.items",          "slicer.path_edges",
    "slicer.issues",      "slicer.issue_yield",    "dataflow.ms",
    "dataflow.values_const", "pointsto.ms",        "pointsto.cg_nodes",
    "pointsto.budget_exhausted", "sdg.ms",         "sdg.nodes",
    "sdg.stores",         "sdg.sinks",             "sdg.chan_nodes",
    "report.ms",          "report.groups",         "persist.load_share",
    "persist.hit_ratio",  "core.residue_ms",       "frontend.parse_share",
    "server.overhead_share", "server.hot_hit_ratio", "interp.oracle_ms",
    "setup.generate_share", "setup.oracle_share",  "setup.prefill_share",
    "setup.start_share",  "trace.overhead_ms"};

int usage(const char *Why) {
  std::fprintf(stderr,
               "suitebench: %s\nusage: suitebench --workload NAME [--seed N] "
               "[--seconds S] [--trace 0|1] --taj-cli PATH --webapp PATH "
               "--work-dir DIR\n       suitebench --dump-expected\n",
               Why);
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    if (A == "--dump-expected")
      return dumpExpectedCounts();
    if (I + 1 >= Argc)
      return usage(("missing value for " + A).c_str());
    const char *V = Argv[++I];
    if (A == "--workload")
      O.Workload = V;
    else if (A == "--seed")
      O.Seed = std::strtoull(V, nullptr, 0);
    else if (A == "--seconds")
      O.Seconds = std::atof(V);
    else if (A == "--trace")
      O.Trace = std::strcmp(V, "0") != 0;
    else if (A == "--taj-cli")
      O.TajCli = V;
    else if (A == "--webapp")
      O.Webapp = V;
    else if (A == "--work-dir")
      O.WorkDir = V;
    else
      return usage(("unknown option " + A).c_str());
  }
  const bool Serve = O.Workload == "serve-webapp";
  if (!Serve && !isLibraryWorkload(O.Workload))
    return usage(("unknown workload '" + O.Workload + "'").c_str());
  if (O.WorkDir.empty() || (Serve && (O.TajCli.empty() || O.Webapp.empty())))
    return usage("--work-dir, and for serve-webapp --taj-cli and --webapp, "
                 "are required");
  std::filesystem::create_directories(O.WorkDir);

  Result R = Serve ? runServeWorkload(O) : runLibraryWorkload(O);

  std::vector<std::string> Want;
  if (O.Trace)
    Want.assign(std::begin(PerLayer), std::end(PerLayer));
  else
    Want.assign(std::begin(EndToEnd), std::end(EndToEnd));
  bool Complete = R.Metrics.size() == Want.size();
  for (size_t I = 0; Complete && I < Want.size(); ++I)
    Complete = R.Metrics[I].Name == Want[I];
  if (!Complete && R.Correct) {
    std::fprintf(stderr, "suitebench: %s reports the wrong metric set\n",
                 O.Workload.c_str());
    return 1;
  }

  std::printf("workload %s seed %llu: %llu attempted, %llu failed "
              "(failed_frac %.6f)\n",
              O.Workload.c_str(), static_cast<unsigned long long>(O.Seed),
              static_cast<unsigned long long>(R.Attempted),
              static_cast<unsigned long long>(R.Failed),
              R.Attempted ? static_cast<double>(R.Failed) / R.Attempted : 0);
  for (const std::string &N : R.Notes)
    std::printf("  %s\n", N.c_str());
  for (const Metric &M : R.Metrics)
    std::printf("  %-26s %14.4f %s\n", M.Name.c_str(), M.Value,
                M.Unit.c_str());

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              R.Correct && R.Failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(R.Attempted),
              static_cast<unsigned long long>(R.Failed));
  for (size_t I = 0; I < R.Metrics.size(); ++I) {
    const Metric &M = R.Metrics[I];
    double V = std::isfinite(M.Value) ? M.Value : 0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                I ? ", " : "", M.Name.c_str(), V, M.Unit.c_str());
  }
  std::printf("}}\n");
  return 0;
}
