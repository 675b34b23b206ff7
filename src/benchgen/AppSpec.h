//===- benchgen/AppSpec.h - The 22-benchmark suite specs -------*- C++ -*-===//
//
// Part of the TAJ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Per-application parameters of the synthetic benchmark suite standing in
/// for the 22 industrial applications of TAJ Table 2/3. Each spec carries
/// the paper's reported statistics (reprinted by the Table 2 bench) plus
/// generation parameters derived from the paper's per-configuration issue
/// counts, scaled down so the whole suite runs in seconds.
///
//===----------------------------------------------------------------------===//

#ifndef TAJ_BENCHGEN_APPSPEC_H
#define TAJ_BENCHGEN_APPSPEC_H

#include <cstdint>
#include <string>
#include <vector>

namespace taj {

/// Paper-reported numbers for one benchmark application.
struct PaperStats {
  // Table 2.
  uint32_t Files = 0;
  uint32_t Lines = 0;
  uint32_t ClassesApp = 0;
  uint32_t MethodsApp = 0;
  uint32_t ClassesTotal = 0;
  uint32_t MethodsTotal = 0;
  // Table 3: issues (and seconds) per configuration; CS of ~0 issues with
  // CsCompleted=false encodes the out-of-memory rows.
  uint32_t HybridUnbounded = 0, HybridUnboundedSec = 0;
  uint32_t HybridPrioritized = 0, HybridPrioritizedSec = 0;
  uint32_t HybridOptimized = 0, HybridOptimizedSec = 0;
  bool CsCompleted = false;
  uint32_t Cs = 0, CsSec = 0;
  uint32_t Ci = 0, CiSec = 0;
};

/// Generation parameters (flow plant counts), derived from PaperStats.
struct PlantCounts {
  uint32_t TpDirect = 0;    ///< plain source->sink flows
  uint32_t TpWrapped = 0;   ///< taint-carrier flows
  uint32_t TpMap = 0;       ///< constant-key dictionary flows
  uint32_t TpReflective = 0;///< Class.forName / invoke flows
  uint32_t TpHelperKeyMap = 0;   ///< dictionary puts routed via a helper
  uint32_t TpComputedReflective = 0; ///< StringBuilder-computed forName
  uint32_t TpThread = 0;    ///< inter-thread flows (CS false negatives)
  uint32_t TpLong = 0;      ///< real flows longer than the length filter
  uint32_t FpAlias = 0;     ///< alloc-site conflation (all configs report)
  uint32_t FpHeap = 0;      ///< ordering decoys (hybrid+CI only)
  uint32_t FpHeapLong = 0;  ///< same, longer than the length filter
  uint32_t FpCtx = 0;       ///< shared-helper decoys (CI only)
  uint32_t Sanitized = 0;   ///< endorsed flows (no one may report)
  uint32_t BallastMethods = 0; ///< whitelisted benign cluster near taint
  uint32_t FillerMethods = 0;  ///< taint-free app code mass
  uint32_t LibFillerMethods = 0; ///< taint-free library code mass
};

/// One benchmark application.
struct AppSpec {
  std::string Name;
  std::string Version;
  PaperStats Paper;
  PlantCounts Plants;
  /// In the accuracy study of Figure 4?
  bool InAccuracyStudy = false;
  uint64_t Seed = 1;
};

/// The 22-application suite, in Table 2 order. \p Scale divides the paper
/// issue counts when deriving plant counts (default 6).
std::vector<AppSpec> benchmarkSuite(uint32_t Scale = 6);

} // namespace taj

#endif // TAJ_BENCHGEN_APPSPEC_H
