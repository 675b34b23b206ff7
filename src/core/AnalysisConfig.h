//===- core/AnalysisConfig.h - Configurations of Table 1 -------*- C++ -*-===//
//
// Part of the TAJ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// End-to-end analysis configuration, with the five presets evaluated in
/// TAJ §7 (Table 1): three hybrid variants (unbounded, prioritized under a
/// call-graph bound, fully optimized with all §6 bounds and code
/// reduction), CS thin slicing, and CI thin slicing. All configurations
/// use the synthetic models of §4, which "are key to good performance".
///
//===----------------------------------------------------------------------===//

#ifndef TAJ_CORE_ANALYSISCONFIG_H
#define TAJ_CORE_ANALYSISCONFIG_H

#include "dataflow/ConstString.h"
#include "pointsto/Solver.h"
#include "slicer/Slicer.h"
#include "support/RunGuard.h"

#include <string>

namespace taj {

namespace persist {
class ArtifactCache;
}

class PhaseProfile;

/// Which slicing algorithm runs on top of the pointer analysis.
enum class SlicerKind : uint8_t { Hybrid, CS, CI };

/// One analysis configuration.
struct AnalysisConfig {
  std::string Name = "hybrid-unbounded";
  SlicerKind Slicer = SlicerKind::Hybrid;

  /// §6.1 priority-driven call-graph construction.
  bool Prioritized = false;
  /// Call-graph node budget (0 = unbounded). The paper uses 20,000.
  uint32_t MaxCallGraphNodes = 0;
  /// §4.2.1 code reduction: exclude whitelisted benign classes.
  bool ExcludeWhitelisted = false;

  /// §6.2.1: bound on store->load slice expansions (paper: 20,000).
  uint32_t MaxHeapTransitions = 0;
  /// §6.2.2: flows longer than this are filtered (paper: 14).
  uint32_t MaxFlowLength = 0;
  /// §6.2.3: nested-taint field-dereference bound (paper: 2).
  uint32_t NestedTaintDepth = 32;

  /// §4.1.2 exception modeling.
  bool ModelExceptionSources = true;

  /// String-constant inference feeding the dictionary and reflection
  /// models (taj-cli --string-analysis): off / local / ipa (default).
  /// Part of pointsToFingerprint(), so persist artifacts key correctly.
  StringAnalysisMode StringAnalysis = StringAnalysisMode::Ipa;

  /// Self-verification mode (taj-cli --verify). Deliberately excluded
  /// from the artifact fingerprints: verification never changes what is
  /// computed, only whether it is independently re-checked.
  verify::VerifyMode Verify = verify::defaultMode();
  /// Optional externally-owned violation sink. When set, run() reports
  /// into it (so a driver can fold frontend and analysis violations into
  /// one exit decision); when null, run() uses a private sink. Not owned.
  verify::Violations *Violations = nullptr;

  /// Worker threads for the per-source slicing loops (1 = sequential,
  /// 0 = auto: TAJ_THREADS env var, then hardware concurrency). Output is
  /// byte-identical at every thread count.
  uint32_t Threads = 1;

  /// Memory budget (channel nodes) for CS thin slicing.
  uint64_t CsChanBudget = 20000;

  //===--------------------------------------------------------------------===//
  // Run governance (§6 bounded analysis, generalized)
  //===--------------------------------------------------------------------===//

  /// Wall-clock deadline for the whole run in milliseconds (0 = none).
  double DeadlineMs = 0;
  /// Resident-memory ceiling in MiB (0 = none).
  uint64_t MaxMemoryMb = 0;
  /// Deterministic fault injection: trip the run guard at the Nth
  /// checkpoint (1-based; 0 = off). Test-only degradation forcing.
  uint64_t FailAtCheckpoint = 0;
  /// Hard fault injection: die (abort, or raise the signal
  /// TAJ_CRASH_SIGNAL names) at the Nth checkpoint (1-based; 0 = off).
  /// Exercises process-level supervision.
  uint64_t CrashAtCheckpoint = 0;
  /// Hard fault injection: block forever at the Nth checkpoint (1-based;
  /// 0 = off). Exercises the supervisor watchdog.
  uint64_t HangAtCheckpoint = 0;
  /// Optional externally-owned guard, e.g. to cancel() a run from another
  /// thread. When set it governs the run and the three limits above are
  /// ignored. Not owned; must outlive the run.
  RunGuard *ExternalGuard = nullptr;

  /// Optional externally-owned per-phase profile (support/Trace.h). When
  /// set, run() accrues its phase timings here and the owner exports the
  /// `phase.*` counters (taj-cli does this, so its profile also covers
  /// parse and report phases outside run()); when null, run() uses a
  /// private profile and exports it into AnalysisResult::RunStats itself.
  /// Not owned; must outlive the run.
  PhaseProfile *ExternalProfile = nullptr;

  /// The RunGuard limits implied by this configuration.
  RunGuard::Limits guardLimits() const;

  /// Deployment-descriptor bindings (§4.2.2), forwarded to the solver.
  std::unordered_map<std::string, ClassId> JndiBindings;
  std::unordered_map<ClassId, ClassId> EjbHomeToBean;

  //===--------------------------------------------------------------------===//
  // Artifact cache (persist/Cache.h)
  //===--------------------------------------------------------------------===//

  /// Optional artifact cache for warm-starting the points-to and SDG
  /// phases. Not owned; must outlive the run. Ignored unless
  /// InputFingerprint is also set.
  persist::ArtifactCache *Cache = nullptr;
  /// Fingerprint of the analyzed input (e.g. hex FNV of the source bytes),
  /// composed into every cache key. Empty disables caching for the run.
  std::string InputFingerprint;

  /// Canonical encoding of the config fields that shape the points-to
  /// solution (priority order, call-graph budget, whitelist exclusion,
  /// deployment bindings). Part of the pts and sdg cache keys.
  std::string pointsToFingerprint() const;
  /// Canonical encoding of the fields that additionally shape the SDG +
  /// heap-edge bundle (slicer kind, exception modeling, nested-taint
  /// depth, CS channel budget). Pure slicing bounds (flow length, heap
  /// transitions, threads) are deliberately excluded so those runs reuse
  /// the SDG prefix.
  std::string sdgFingerprint() const;

  PointsToOptions pointsToOptions() const;
  SlicerOptions slicerOptions() const;

  //===--------------------------------------------------------------------===//
  // Table 1 presets
  //===--------------------------------------------------------------------===//

  /// Hybrid thin slicing, no bounds.
  static AnalysisConfig hybridUnbounded();
  /// Hybrid + priority-driven call-graph construction under \p CgBudget.
  static AnalysisConfig hybridPrioritized(uint32_t CgBudget = 20000);
  /// Hybrid + priority + every §6 bound + whitelist code reduction.
  static AnalysisConfig hybridOptimized(uint32_t CgBudget = 20000,
                                        uint32_t HeapTransitions = 20000,
                                        uint32_t FlowLength = 14,
                                        uint32_t NestedDepth = 2);
  /// Context-sensitive thin slicing baseline.
  static AnalysisConfig cs();
  /// Context-insensitive thin slicing baseline.
  static AnalysisConfig ci();
};

} // namespace taj

#endif // TAJ_CORE_ANALYSISCONFIG_H
