//===- core/TaintAnalysis.h - End-to-end TAJ pipeline ----------*- C++ -*-===//
//
// Part of the TAJ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The top-level TAJ pipeline (§3): pointer analysis + call-graph
/// construction, followed by thin slicing from taint sources, under one of
/// the Table 1 configurations. This is the main entry point of the
/// library:
///
/// \code
///   Program P;                      // built via Builder or parseTaj
///   installBuiltinLibrary(P);       // model library, done before parsing
///   ...                             // app classes
///   MethodId Root = synthesizeEntrypointDriver(P, Lib);
///   TaintAnalysis TA(P, AnalysisConfig::hybridUnbounded());
///   AnalysisResult R = TA.run({Root});
///   for (const Issue &I : R.Issues) ...
/// \endcode
///
//===----------------------------------------------------------------------===//

#ifndef TAJ_CORE_TAINTANALYSIS_H
#define TAJ_CORE_TAINTANALYSIS_H

#include "cha/ClassHierarchy.h"
#include "core/AnalysisConfig.h"
#include "slicer/Issue.h"
#include "support/RunGuard.h"
#include "support/Stats.h"

#include <memory>

namespace taj {

/// Output of one end-to-end analysis run.
struct AnalysisResult {
  /// False when the configuration failed (CS out of memory).
  bool Completed = true;
  /// True when a budget truncated the call graph (result underapproximate).
  bool BudgetExhausted = false;
  /// Wall-clock time of the whole run.
  double Millis = 0;
  /// Wall-clock time spent loading (and restoring from) persisted
  /// artifacts, included in Millis. On warm-cache runs this is the part of
  /// Millis that is artifact I/O rather than analysis, so warm/cold
  /// comparisons can attribute time correctly. Also exported as the
  /// `phase.persist_load_ms` counter in RunStats.
  double PersistLoadMillis = 0;
  /// Reported tainted flows, deduplicated by (source, sink, rule).
  std::vector<Issue> Issues;
  /// Work metric of the slicing phase.
  uint64_t SliceWork = 0;
  /// Call-graph nodes processed.
  uint32_t CgNodesProcessed = 0;
  /// Structured per-phase outcome of the governed run: which phases
  /// completed, which were truncated (results underapproximate), which
  /// were skipped, and why.
  RunStatus Status;
  /// Governance counters (guard.checkpoints, guard.cutoff.<reason>, ...).
  Stats RunStats;
  /// Self-verification violations detected during the run (taj-cli
  /// --verify). Non-zero means the run's artifacts are inconsistent and
  /// drivers must fail with exit 1; the per-checker breakdown is in
  /// RunStats (verify.*). Covers only this run() — when the caller
  /// supplied AnalysisConfig::Violations it already sees the full total
  /// (frontend violations included) in its own sink.
  uint64_t VerifyViolations = 0;

  /// True when any phase was cut short: issues are still valid flows, but
  /// the list may be incomplete.
  bool degraded() const { return Status.degraded(); }
};

/// Runs the two TAJ phases on a finished program.
class TaintAnalysis {
public:
  TaintAnalysis(const Program &P, AnalysisConfig Config = {});
  ~TaintAnalysis();
  TaintAnalysis(const TaintAnalysis &) = delete;
  TaintAnalysis &operator=(const TaintAnalysis &) = delete;

  /// Runs pointer analysis from \p Roots, then the configured slicer.
  /// Every call first brings the program's statement index up to date
  /// (Program::indexStatements), so callers need not build it; the index
  /// is rebuilt only when a block gained or lost instructions since it
  /// was built.
  AnalysisResult run(const std::vector<MethodId> &Roots);

  /// The solved pointer analysis (valid after run()).
  const PointsToSolver &solver() const { return *Solver; }
  const ClassHierarchy &hierarchy() const { return CHA; }
  const AnalysisConfig &config() const { return Config; }
  /// The string-constant facts of the last run() (valid after run()):
  /// computed on a cold start, restored with the points-to solution on a
  /// warm one.
  const ConstStringResult &constStrings() const;

private:
  const Program &P;
  AnalysisConfig Config;
  ClassHierarchy CHA;
  /// Computed by a cold run() before the solver and handed to it by
  /// pointer; must outlive the solver (SDG/heap-edge queries go through
  /// it). A warm run's solver owns the facts it restored instead.
  ConstStringResult ConstStrings;
  std::unique_ptr<PointsToSolver> Solver;
};

} // namespace taj

#endif // TAJ_CORE_TAINTANALYSIS_H
