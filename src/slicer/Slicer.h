//===- slicer/Slicer.h - The three thin-slicing algorithms -----*- C++ -*-===//
//
// Part of the TAJ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Entry points for the three slicing algorithms evaluated in TAJ §7:
///
///  - hybrid thin slicing (§3.2, the paper's contribution): demand-driven
///    HSDG traversal alternating context-sensitive no-heap slices with
///    flow-insensitive store->load hops and taint-carrier edges;
///  - CS thin slicing: fully context-sensitive, heap dependencies threaded
///    through calls as extra parameters (may exhaust its memory budget);
///  - CI thin slicing: context-insensitive reachability over the SDG plus
///    direct heap edges.
///
//===----------------------------------------------------------------------===//

#ifndef TAJ_SLICER_SLICER_H
#define TAJ_SLICER_SLICER_H

#include "pointsto/Solver.h"
#include "slicer/Issue.h"
#include "verify/Verify.h"

namespace taj {

namespace persist {
class ArtifactCache;
}

class PhaseProfile;

/// Bounds applied during slicing (TAJ §6.2). Zero disables a bound.
struct SlicerOptions {
  /// Optional run-governance guard; polled during SDG construction and
  /// every traversal loop. Not owned.
  RunGuard *Guard = nullptr;
  /// Worker threads for the per-source slicing loops. 1 (default) slices
  /// on the calling thread; 0 resolves to TAJ_THREADS / hardware
  /// concurrency. The SDG and heap edges are always built (or restored)
  /// once, single-threaded, before the fan-out, and per-worker results are
  /// merged deterministically, so the output is byte-identical at every
  /// thread count.
  uint32_t Threads = 1;
  /// Max store->load hop expansions during hybrid slicing (§6.2.1).
  uint32_t MaxHeapTransitions = 0;
  /// Flows longer than this are dropped (§6.2.2).
  uint32_t MaxFlowLength = 0;
  /// Field-dereference bound for taint-carrier detection (§6.2.3).
  uint32_t NestedTaintDepth = 32;
  /// Synthesize LEAK sources at caught-exception statements (§4.1.2).
  bool ModelExceptionSources = true;
  /// Channel-node budget for CS thin slicing (0 = unbounded).
  uint64_t CsChanBudget = 0;
  /// Optional artifact cache for the SDG phase (persist/Cache.h); not
  /// owned. When set together with a non-empty CacheKey, the slicer
  /// restores the SDG + heap edges from cache instead of rebuilding, or
  /// stores them after a clean cold build.
  persist::ArtifactCache *Cache = nullptr;
  /// Content address of the SDG artifact for this (input, config) pair.
  std::string CacheKey;
  /// Optional per-phase profile (support/Trace.h); the slicer brackets its
  /// sdg / slicing phases and the persist load/store paths with it. Not
  /// owned; may be null.
  PhaseProfile *Profile = nullptr;
  /// Self-verification (verify/Verify.h): Fast checks SDG endpoint
  /// liveness and replays every reported issue as an HSDG witness path;
  /// Full additionally justifies heap edges and re-verifies warm SDG
  /// restores structurally. Checks run only when the phase completed
  /// without a governance stop. Requires Violations when not Off.
  verify::VerifyMode Verify = verify::VerifyMode::Off;
  /// Violation sink for the verification above. Not owned; may be null
  /// only when Verify is Off.
  verify::Violations *Violations = nullptr;
};

/// Hybrid thin slicing over the HSDG.
SliceRunResult runHybridSlicer(const Program &P, const ClassHierarchy &CHA,
                               const PointsToSolver &Solver,
                               const SlicerOptions &Opts);

/// Context-sensitive thin slicing (heap deps as parameters).
SliceRunResult runCsSlicer(const Program &P, const ClassHierarchy &CHA,
                           const PointsToSolver &Solver,
                           const SlicerOptions &Opts);

/// Context-insensitive thin slicing.
SliceRunResult runCiSlicer(const Program &P, const ClassHierarchy &CHA,
                           const PointsToSolver &Solver,
                           const SlicerOptions &Opts);

} // namespace taj

#endif // TAJ_SLICER_SLICER_H
