//===- support/Trace.h - Phase-scoped tracing & profiling -----*- C++ -*-===//
//
// Part of the TAJ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The observability layer behind the per-phase cost reporting of TAJ's
/// evaluation (Table 2 / Fig. 2): every major pipeline phase — frontend,
/// string propagation, points-to solving, SDG + heap edges, slicing,
/// persist load/store, reporting — is bracketed by a phase scope that
/// feeds two independent consumers:
///
///  - a per-run PhaseProfile accumulating exclusive wall time, process CPU
///    time and peak RSS per phase, exported as `phase.<name>_us` /
///    `phase.<name>_cpu_us` / `phase.<name>_rss_kb` counters in
///    `--stats-json`. Accounting is exclusive at every instant (time
///    accrues to the innermost open scope), so the `_us` counters of one
///    profile tile its lifetime exactly: their sum equals the profiled
///    wall clock with no double counting.
///
///  - a process-global trace sink (`trace::`), off by default and enabled
///    by `taj-cli --trace=PATH`: a mutex-protected fixed-capacity ring
///    buffer of Chrome trace-event records ("X" complete spans, "i"
///    instant events) rendered as `{"traceEvents":[...]}` JSON loadable in
///    chrome://tracing and Perfetto. Timestamps are absolute monotonic
///    microseconds, so traces from concurrently running processes (a
///    supervised batch's workers) merge onto one aligned timeline keyed by
///    pid/tid.
///
/// Overhead contract: with tracing disabled (the default) every
/// instrumentation point costs one relaxed atomic load; the PhaseProfile
/// performs a handful of clock reads per run (per phase transition, never
/// per work item). Neither may perturb analysis results — spans observe,
/// they do not participate.
///
/// Threading: the trace sink is safe from any thread (per-worker spans in
/// the parallel slicing engine record concurrently, tagged with a stable
/// per-thread id). A PhaseProfile is coordinator-thread-only, like
/// RunGuard's phase bookkeeping: push/pop happen at phase boundaries while
/// no worker is running.
///
//===----------------------------------------------------------------------===//

#ifndef TAJ_SUPPORT_TRACE_H
#define TAJ_SUPPORT_TRACE_H

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace taj {

class Stats;

namespace trace {

namespace detail {
/// Global enable flag; relaxed loads keep the disabled fast path free.
extern std::atomic<bool> Enabled;
} // namespace detail

/// True when a trace sink is collecting events.
inline bool enabled() {
  return detail::Enabled.load(std::memory_order_relaxed);
}

/// Arms the global sink with a fresh ring buffer of \p Capacity events.
void enable(size_t Capacity = 1 << 16);

/// Disarms the sink (the buffer is kept until the next enable()).
void disable();

/// Absolute monotonic microseconds (same clock base across processes on
/// one machine, so batch-worker traces align on a shared timeline).
uint64_t nowUs();

/// Stable dense id of the calling thread (1-based, per process).
uint32_t currentTid();

/// Records a complete ("X") span on the calling thread's track, or on the
/// synthetic track \p Tid when non-zero (the worker pool gives each
/// worker slot its own lane, so concurrent worker spans don't overlap on
/// the coordinator's track). No-op while disabled.
void addComplete(std::string Name, const char *Cat, uint64_t BeginUs,
                 uint64_t EndUs, uint32_t Tid = 0);

/// Records a thread-scoped instant ("i") event, e.g. a RunGuard stop or a
/// supervisor watchdog action. No-op while disabled.
void addInstant(std::string Name, const char *Cat);

/// Events overwritten because the ring buffer wrapped.
uint64_t droppedEvents();

/// Renders the buffered events as a comma-joined list of JSON objects
/// (no surrounding brackets) — the merge unit for batch timelines.
std::string renderEvents();

/// Renders the one `{"traceEvents":[...]}` document: this process's
/// events plus every event blob of \p ExtraEventBlobs (as produced by
/// extractEvents() from a worker's trace file).
std::string renderJson(const std::vector<std::string> &ExtraEventBlobs = {});

/// Writes renderJson(\p ExtraEventBlobs) to \p Path. Returns false on I/O
/// failure, the closing flush included.
bool writeJsonMerged(const std::string &Path,
                     const std::vector<std::string> &ExtraEventBlobs);

/// Extracts the inner event list ("..." between the traceEvents
/// brackets) from a trace document, or "" when the content is not a
/// trace file (e.g. a crashed worker never wrote one).
std::string extractEvents(const std::string &TraceFileContent);

/// RAII complete-event span. Construction samples the clock only when
/// tracing is enabled; destruction records the event.
class Span {
public:
  Span(std::string Name, const char *Cat) : Cat(Cat) {
    if (enabled()) {
      this->Name = std::move(Name);
      BeginUs = nowUs();
      Live = true;
    }
  }
  /// A span named \p Prefix followed by \p Suffix. The name is built only
  /// while tracing is enabled, so an untraced hot path allocates nothing.
  Span(const char *Prefix, std::string_view Suffix, const char *Cat)
      : Cat(Cat) {
    if (enabled()) {
      Name.assign(Prefix).append(Suffix);
      BeginUs = nowUs();
      Live = true;
    }
  }
  Span(const char *Name, const char *Cat) : Span(Name, {}, Cat) {}
  ~Span() {
    if (Live)
      addComplete(std::move(Name), Cat, BeginUs, nowUs());
  }
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

private:
  std::string Name;
  const char *Cat;
  uint64_t BeginUs = 0;
  bool Live = false;
};

} // namespace trace

/// Per-run exclusive wall/CPU/peak-RSS accounting, keyed by phase name.
/// A stack of open phases starts at the root phase "other"; at every
/// transition the elapsed wall and process-CPU time since the previous
/// transition accrues to the phase that was on top, and the current RSS
/// updates that phase's peak. Coordinator-thread only.
///
/// The phases live in a flat table of about a dozen rows, found by name
/// pointer, with a strcmp only when no row has the pointer; a transition
/// allocates nothing once its phase has a row.
class PhaseProfile {
public:
  PhaseProfile();

  /// Opens phase \p Name; subsequent time accrues to it until the next
  /// push/pop. \p Name must outlive the profile (every caller passes a
  /// string literal). Prefer PhaseScope over calling this directly.
  void push(const char *Name);
  /// Closes the innermost open phase (the root never pops).
  void pop();

  /// Wall microseconds accrued to \p Name so far (open frames are accrued
  /// up to now first).
  double wallUsOf(const char *Name);

  /// Accrues the open frame and adds `phase.<name>_us`,
  /// `phase.<name>_cpu_us` and `phase.<name>_rss_kb` for every phase seen.
  void exportStats(Stats &S);

private:
  struct Acc {
    const char *Name = nullptr;
    double WallUs = 0;
    double CpuUs = 0;
    uint64_t PeakRssKb = 0;
  };

  /// Row of phase \p Name, or Phases.size() when it has none.
  size_t find(const char *Name) const;
  /// Charges [last mark, now) to the top-of-stack phase.
  void accrueToTop();

  std::vector<Acc> Phases;
  /// Rows of the open phases, innermost last.
  std::vector<size_t> Stack;
  double MarkWallUs = 0;
  double MarkCpuUs = 0;
};

/// RAII phase bracket feeding both consumers: pushes/pops \p Prof (when
/// non-null) and records a trace span (when tracing is enabled). This is
/// the one instrumentation primitive the pipeline uses.
class PhaseScope {
public:
  PhaseScope(PhaseProfile *Prof, const char *Name, const char *Cat = "phase")
      : Prof(Prof), Name(Name), Cat(Cat) {
    if (Prof)
      Prof->push(Name);
    if (trace::enabled()) {
      BeginUs = trace::nowUs();
      Traced = true;
    }
  }
  ~PhaseScope() {
    if (Prof)
      Prof->pop();
    if (Traced)
      trace::addComplete(Name, Cat, BeginUs, trace::nowUs());
  }
  PhaseScope(const PhaseScope &) = delete;
  PhaseScope &operator=(const PhaseScope &) = delete;

private:
  PhaseProfile *Prof;
  const char *Name;
  const char *Cat;
  uint64_t BeginUs = 0;
  bool Traced = false;
};

} // namespace taj

#endif // TAJ_SUPPORT_TRACE_H
