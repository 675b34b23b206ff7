//===- verify/Verify.h - Analysis self-verification ------------*- C++ -*-===//
//
// Part of the TAJ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A static-analysis pass over the analyzer's own artifacts (taj-cli
/// --verify): independent re-checking of the invariants every downstream
/// consumer assumes, so a bug in the solver, the SDG builder, the slicer,
/// or a checksum-valid-but-structurally-stale cache restore fails
/// loudly instead of silently shipping wrong findings.
///
/// Three checkers sit behind one run() entry point:
///
///  - IRVerifier: TIR/SSA structural invariants (single defs, defs
///    dominate uses, CFG/terminator well-formedness, type/method/field
///    table reference validity) — ir/Verifier.h folded into the violation
///    stream, re-run over warm-restored programs;
///  - GraphVerifier: cross-artifact consistency — every call-graph edge is
///    justified by CHA dispatch over the points-to sets at its site, the
///    points-to solution is a fixpoint of the constraint system (each
///    constraint re-applied once must add no facts), SDG/HeapEdges
///    endpoints resolve to live statements, every heap store->load edge is
///    justified by overlapping base points-to sets, and const-string facts
///    never contradict the IR;
///  - WitnessChecker: every reported issue replays as a connected HSDG
///    path from a rule source to its sink within the claimed flow length
///    (heap hops included; the nested-taint depth bound is already baked
///    into the carrier-sink adjacency being traversed).
///
/// Modes: Off does nothing; Fast runs the cheap checks (SDG/heap endpoint
/// liveness + witness replay) on every run; Full adds the quadratic-ish
/// ones (call-graph justification, fixpoint recheck, heap-edge
/// justification, const-string consistency) and re-verifies every warm
/// ArtifactCache restore structurally, from either tier — the hot tier
/// skips checksum re-verification entirely, so this is the only defense
/// against in-memory corruption there.
///
/// Contract: checkers only run over artifacts of *completed* phases (a
/// guard-stopped or budget-truncated phase is deliberately partial and
/// must never spuriously fail; the string facts behind a budget-truncated
/// solve are complete and still checked). Each violation prints one
/// "verify: <checker>: <detail>" line to stderr and bumps
/// verify.violations (plus a per-checker counter); drivers map a non-zero
/// total to exit 1.
///
//===----------------------------------------------------------------------===//

#ifndef TAJ_VERIFY_VERIFY_H
#define TAJ_VERIFY_VERIFY_H

#include <cstdint>
#include <string>
#include <vector>

namespace taj {

class Program;
class ClassHierarchy;
class PointsToSolver;
class ConstStringResult;
class SDG;
class HeapEdges;
class Stats;
struct Issue;

namespace verify {

/// How much self-verification a run performs.
enum class VerifyMode : uint8_t { Off, Fast, Full };

/// "off" / "fast" / "full".
const char *verifyModeName(VerifyMode M);
/// Parses a --verify= value; false on anything else.
bool parseVerifyMode(const char *Text, VerifyMode &Out);

/// The build-dependent default: Fast in debug/sanitizer builds (CMake
/// defines TAJ_VERIFY_DEFAULT_FAST there), Off in release builds.
inline VerifyMode defaultMode() {
#ifdef TAJ_VERIFY_DEFAULT_FAST
  return VerifyMode::Fast;
#else
  return VerifyMode::Off;
#endif
}

/// Which checker reported a violation (distinct verify.* counters).
enum class Checker : uint8_t {
  Ir,        ///< TIR/SSA structure, table references
  CallGraph, ///< unjustified (phantom) call edge
  PointsTo,  ///< points-to solution is not a constraint fixpoint
  Sdg,       ///< SDG endpoint does not resolve to a live statement
  Heap,      ///< heap store->load edge without points-to justification
  ConstStr,  ///< const-string fact contradicts the IR
  Witness,   ///< reported issue has no HSDG witness path
};
inline constexpr unsigned NumCheckers = 7;

/// "ir" / "callgraph" / "pointsto" / "sdg" / "heap" / "conststr" /
/// "witness" — the <checker> of the diagnostic line and the middle of the
/// verify.<checker>_violations counter name.
const char *checkerName(Checker C);

/// Violation sink for one run: prints each diagnostic as it arrives
/// (capped per checker so a corrupt artifact cannot flood stderr), counts
/// everything, and exports the verify.* / persist.verify_rejected
/// counters. Not thread-safe: every checker runs on the thread that runs
/// the analysis.
class Violations {
public:
  /// Records one violation: prints "verify: <checker>: <detail>" (unless
  /// this checker already hit the print cap) and bumps the counters.
  void report(Checker C, const std::string &Detail);

  uint64_t total() const { return Total; }
  uint64_t count(Checker C) const {
    return Counts[static_cast<unsigned>(C)];
  }

  /// Marks that a warm cache restore passed record checksum verification
  /// but failed structural re-verification (persist.verify_rejected).
  void noteRestoreRejected() { ++RestoreRejected; }

  /// Exports verify.violations, the non-zero per-checker counters and
  /// persist.verify_rejected. Emits nothing on a clean run, so stats
  /// output is identical with and without --verify.
  void exportStats(Stats &S) const;

private:
  static constexpr uint64_t MaxPrinted = 16; // per checker
  uint64_t Counts[NumCheckers] = {};
  uint64_t Total = 0;
  uint64_t RestoreRejected = 0;
};

//===----------------------------------------------------------------------===//
// Individual checkers
//===----------------------------------------------------------------------===//

/// IRVerifier: ir/Verifier.h structural checks (which include the
/// type/method/field table reference validity) routed into \p V.
void verifyIr(const Program &P, Violations &V);

/// GraphVerifier, solver half. Requires a *complete* solve: callers gate
/// on the pointer-analysis phase having Completed without a node-budget
/// truncation (a budgeted or guard-stopped solution is deliberately not a
/// fixpoint). \p ConstStrings may be null (skips the const-string check).
void verifyGraphs(const Program &P, const ClassHierarchy &CHA,
                  const PointsToSolver &Solver,
                  const ConstStringResult *ConstStrings, Violations &V);

/// GraphVerifier, const-string half: no fact contradicts a ConstStr
/// literal or a copy. Valid for any facts a run completed, including
/// those behind a budget-truncated solve; degraded facts (a guard cutoff
/// fell back to local mode) are skipped.
void verifyConstStrings(const Program &P, const ConstStringResult &CS,
                        Violations &V);

/// GraphVerifier, SDG half: every node/endpoint resolves to a live
/// statement of a solver-processed method (always), and — under Full —
/// every heap store->load edge is justified by overlapping base points-to
/// sets. \p HE may be null (CS channel-budget overflow).
void verifySdg(const Program &P, const SDG &G, const HeapEdges *HE,
               const PointsToSolver &Solver, VerifyMode Mode, Violations &V);

/// WitnessChecker: each issue must have a source->sink path in the HSDG
/// union graph (SDG edges + store->load + store->carrier-sink hops, all
/// weight 1) no longer than the issue's claimed flow length. \p HE may be
/// null. Only called after a *completed* slicing phase.
void verifyWitnesses(const SDG &G, const HeapEdges *HE,
                     const std::vector<Issue> &Issues, Violations &V);

} // namespace verify
} // namespace taj

#endif // TAJ_VERIFY_VERIFY_H
