//===- suitebench/Bench.h - Suite-scale benchmark shared types -*- C++ -*-===//
//
// Part of the TAJ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared pieces of the suite-scale benchmark: command-line options, the
/// result record printed as the final JSON line, order statistics, and the
/// in-memory span log the traced runs fill.
///
//===----------------------------------------------------------------------===//

#ifndef TAJ_SUITEBENCH_BENCH_H
#define TAJ_SUITEBENCH_BENCH_H

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace suitebench {

using Clock = std::chrono::steady_clock;

inline double msSince(Clock::time_point T0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - T0).count();
}

/// The suite's own seed: app i of benchmarkSuite() is generated with
/// DefaultSeed + i, and only at this seed the issue counts of every
/// (app, config) pair are pinned (the Table 3 contract).
inline constexpr uint64_t DefaultSeed = 0x5eed;

/// How many times a run repeats its set-up; setup_s is their median.
inline constexpr int SetupRepeats = 11;

struct Options {
  std::string Workload;
  uint64_t Seed = DefaultSeed;
  double Seconds = 10;
  bool Trace = false;
  /// taj-cli binary, for the daemon workload.
  std::string TajCli;
  /// The daemon workload's payload.
  std::string Webapp;
  /// Scratch directory (artifact cache, daemon socket, span dumps).
  std::string WorkDir;
};

struct Metric {
  std::string Name;
  double Value = 0;
  std::string Unit;
};

/// One run's outcome: the benchmark's final JSON line.
struct Result {
  bool Correct = true;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<Metric> Metrics;
  /// Human-readable lines printed before the metrics.
  std::vector<std::string> Notes;
  void add(std::string Name, double Value, std::string Unit) {
    Metrics.push_back({std::move(Name), Value, std::move(Unit)});
  }
};

/// Host-speed calibration. The benchmark shares its host with other
/// tenants. Their load changes the speed of the CPU it runs on by up to
/// two thirds, in spells lasting seconds to minutes, and CPU time slows
/// with it: the host steals no time, it shares cores and caches. So
/// neither CPU time nor a quiet quantile of wall time is steady from run
/// to run. Instead, a fixed kernel that does not call TAJ runs just before
/// every timed operation, and each operation is reported in reference
/// milliseconds: its wall ms times (nominal ms / kernel ms)^exponent, the
/// kernel's ms being the median of the last five ticks. A change to TAJ
/// moves the timed work and not the kernel; a slower host moves both.
///
/// The kernel matches the kind of work it stands next to, because the
/// spells slow kernel entry and process switches about three times as
/// much as user-space compute. Compute (hashing, pointer chasing, small
/// allocations, a sort) stands next to in-process analysis. Ipc (round
/// trips of 4 KiB through a socket pair to a forked echo process) stands
/// next to daemon requests.
class Calibrator {
public:
  enum class Kernel { Compute, Ipc };
  explicit Calibrator(Kernel K);
  ~Calibrator();
  Calibrator(const Calibrator &) = delete;
  Calibrator &operator=(const Calibrator &) = delete;

  /// Runs the kernel once; returns reference ms per wall ms for the
  /// operation that follows, from the median of the last five ticks.
  double tick();
  double nominalMs() const;
  /// How much harder than the kernel a spell slows the timed work.
  double exponent() const;
  /// The kernel's mean wall ms over the ticks so far.
  double meanMs() const { return Ticks ? SumMs / Ticks : 0; }

private:
  double compute();
  double ipc();
  Kernel K;
  /// Ipc: this end of the socket pair and the echo process.
  int Fd = -1;
  int Echo = -1;
  double SumMs = 0;
  uint64_t Ticks = 0;
  std::array<double, 5> Recent{};
};

/// The four parts of each set-up repetition, in reference ms; a part a
/// workload does not have stays 0. setup_s is the totals' median; the
/// per-layer split is each part's share of the summed totals, so work a
/// change moves into set-up shows both in setup_s and in where it went.
struct SetupTimes {
  std::vector<double> Total;
  double Generate = 0, Oracle = 0, Prefill = 0, Start = 0;
  std::vector<double> OracleEach;
  void add(double GenerateMs, double OracleMs, double PrefillMs,
           double StartMs);
  /// interp.oracle_ms and the setup.*_share metrics.
  void addPerLayer(Result &R) const;
  std::string describe() const;
};

/// Linear-interpolation quantile (numpy's default); 0 for no samples.
double quantile(std::vector<double> V, double Q);
inline double median(std::vector<double> V) {
  return quantile(std::move(V), 0.5);
}
double mean(const std::vector<double> &V);

/// Peak resident set (VmHWM) of process \p Pid, 0 = this process, and
/// of its live children, in MiB. For this process it is the peak since
/// the last resetPeakRss().
double peakRssMb(int Pid = 0);

/// Returns freed heap to the system and restarts this process's peak-RSS
/// count at its current RSS, so set-up work does not set the peak.
void resetPeakRss();

/// app_ms_p50/p95/p99 over every timed operation of a run (reference
/// ms): p50 is the mean of the middle tenth, p95 and p99 are plain
/// quantiles. A 20 s run holds a thousand or more, so p99 has ten or more
/// samples beyond it; the output prints the count.
void addLatencies(Result &R, std::vector<double> Ms);

/// One line of the output on the calibrator.
std::string describe(const Calibrator &Cal);

/// Spans recorded around the calls the benchmark makes into each layer.
/// Kept in memory during the run and written out once, at exit, as a
/// Chrome trace. Every span carries the id of the operation it belongs to
/// (an (app, config, pass) triple, or a daemon request), whose label is
/// kept once per operation.
class SpanLog {
public:
  SpanLog() : T0(Clock::now()) {}
  uint32_t newOp(std::string Label) {
    Ops.push_back(std::move(Label));
    return static_cast<uint32_t>(Ops.size() - 1);
  }
  int32_t open(const char *Name, uint32_t Op, int32_t Parent);
  /// Closes span \p Id and returns its duration in milliseconds.
  double close(int32_t Id);
  /// Writes every span as a Chrome trace; false on I/O failure.
  bool write(const std::string &Path) const;

private:
  struct Span {
    const char *Name;
    double StartUs, EndUs;
    int32_t Parent;
    uint32_t Op;
  };
  Clock::time_point T0;
  std::vector<Span> Spans;
  std::vector<std::string> Ops;
};

Result runLibraryWorkload(const Options &O);
Result runServeWorkload(const Options &O);
bool isLibraryWorkload(const std::string &Name);

/// Prints the distinct issue count of every (app, config) pair at the
/// default seed as the C++ table Oracle.cpp pins.
int dumpExpectedCounts();

} // namespace suitebench

#endif // TAJ_SUITEBENCH_BENCH_H
