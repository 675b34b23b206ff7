//===- support/Stats.h - Counters, timers, analysis budgets ---*- C++ -*-===//
//
// Part of the TAJ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Lightweight statistics counters, a wall-clock timer, and the Budget
/// object used by the bounded-analysis techniques of TAJ Section 6.
///
/// Counters are handle-based: a name is interned once into a dense handle
/// (a slot index), and an increment through the handle is a plain add.
/// Hot loops pre-resolve their handles up front instead of paying a
/// string-keyed map lookup per increment; the string-keyed add() remains
/// for cold paths.
///
//===----------------------------------------------------------------------===//

#ifndef TAJ_SUPPORT_STATS_H
#define TAJ_SUPPORT_STATS_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace taj {

/// Named counters collected during an analysis run. Not thread-safe: one
/// thread owns a Stats object at a time.
class Stats {
public:
  /// Dense counter handle (slot index).
  using Handle = uint32_t;

  /// Interns \p Name, returning its handle. Idempotent.
  Handle handle(const std::string &Name) {
    auto It = Index.find(Name);
    if (It != Index.end())
      return It->second;
    Handle H = static_cast<Handle>(Slots.size());
    Slots.push_back(0);
    Index.emplace(Name, H);
    return H;
  }

  /// Adds \p Delta to the counter behind \p H.
  void addTo(Handle H, uint64_t Delta = 1) { Slots[H] += Delta; }

  /// Adds \p Delta to counter \p Name (cold-path convenience; interns).
  void add(const std::string &Name, uint64_t Delta = 1) {
    addTo(handle(Name), Delta);
  }

  /// Returns the value of counter \p Name (0 if never touched).
  uint64_t get(const std::string &Name) const {
    auto It = Index.find(Name);
    return It == Index.end() ? 0 : Slots[It->second];
  }

  /// Adds every counter of \p Other into this object (interning any new
  /// names).
  void merge(const Stats &Other);

  /// Parses a toJson()-shaped flat object and adds every counter into
  /// this object. Returns false (leaving any counters already parsed
  /// applied) on malformed input. Used by the worker pool to fold a
  /// worker process's stats blob back into the merged stats.
  bool mergeJson(const std::string &Json);

  /// Renders all counters as "name=value" lines (sorted by name).
  std::string toString() const;

  /// Renders all counters as one JSON object, keys sorted by name, for
  /// machine consumption (taj-cli --stats-json).
  std::string toJson() const;

private:
  /// Name -> slot, ordered so toString() stays deterministic.
  std::map<std::string, Handle> Index;
  std::vector<uint64_t> Slots;
};

/// Wall-clock timer with millisecond resolution.
class Timer {
public:
  Timer() : Start(Clock::now()) {}

  /// Returns elapsed milliseconds since construction.
  double elapsedMs() const {
    return std::chrono::duration<double, std::milli>(Clock::now() - Start)
        .count();
  }

private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point Start;
};

/// A consumable resource budget (call-graph nodes, heap transitions,
/// CS-slicing memory units, ...). A zero limit means "unbounded".
class Budget {
public:
  Budget() = default;
  explicit Budget(uint64_t Limit) : Limit(Limit) {}

  /// Consumes \p N units; returns false (and sets the exhausted flag) once
  /// the limit would be exceeded.
  bool consume(uint64_t N = 1) {
    Used += N;
    if (Limit != 0 && Used > Limit) {
      Exceeded = true;
      return false;
    }
    return true;
  }

  /// True once consume() has failed at least once.
  bool exhausted() const { return Exceeded; }

private:
  uint64_t Limit = 0;
  uint64_t Used = 0;
  bool Exceeded = false;
};

} // namespace taj

#endif // TAJ_SUPPORT_STATS_H
