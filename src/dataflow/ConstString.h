//===- dataflow/ConstString.h - String-constant propagation ----*- C++ -*-===//
//
// Part of the TAJ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A sparse SCCP-style constant-string analysis over TIR SSA, the first
/// client-independent dataflow pass of the repository. TAJ's code models
/// (§4.2) hinge on statically inferable string constants: constant-key
/// dictionary channels (§4.2.1) and reflection "with inferable arguments"
/// (§4.2.3). This pass computes, once per run and before the pointer
/// analysis, which SSA values are compile-time string constants.
///
/// The lattice per value is ⊤ (no evidence yet, optimistic) / a known
/// constant Symbol / ⊥ (provably not a single constant). Intraprocedurally
/// the transfer functions cover ConstStr, Copy, phis (meet of equal
/// constants) and modeled string-carrier chains (StringBuilder-style
/// append of constant operands folds to the concatenated constant).
/// In `ipa` mode an interprocedural fixpoint additionally propagates
/// constants through call arguments → parameters and returns → call
/// results over CHA-resolved edges (meeting across all call sites), plus
/// static/instance field constants (meet over all stores; a write-once
/// field keeps its constant). `local` mode reproduces the historical
/// per-method ConstStr+Copy resolution exactly and serves as a regression
/// anchor; `off` disables inference entirely.
///
/// The result is immutable and queried by the pointer solver (dictionary
/// channel naming, Class.forName / getMethod resolution), by
/// SDG::constKeyOf and by the heap-edge builder. It is persisted inside
/// the points-to artifact (persist/Serialize.h), so a warm start restores
/// it with the solution instead of recomputing it. Because an optimistic
/// fixpoint stopped early may still claim constants a later meet would
/// have refuted, a RunGuard cutoff mid-fixpoint discards the
/// interprocedural state and falls back to the sound local-only result,
/// marking the result degraded.
///
//===----------------------------------------------------------------------===//

#ifndef TAJ_DATAFLOW_CONSTSTRING_H
#define TAJ_DATAFLOW_CONSTSTRING_H

#include "cha/ClassHierarchy.h"
#include "ir/Program.h"
#include "support/Stats.h"

#include <string_view>
#include <vector>

namespace taj {

class RunGuard;

namespace persist {
struct Access;
}

/// How much string-constant inference to run (taj-cli --string-analysis).
enum class StringAnalysisMode : uint8_t {
  Off,   ///< No inference: every query answers "unknown".
  Local, ///< Per-method ConstStr + Copy chains (historical behavior).
  Ipa,   ///< Full sparse analysis: phis, carrier concatenation, fields,
         ///< and interprocedural argument/return propagation.
};

/// Canonical flag spelling ("off" / "local" / "ipa").
const char *stringAnalysisModeName(StringAnalysisMode M);

/// Parses a --string-analysis= spelling; returns false on junk.
bool parseStringAnalysisMode(std::string_view S, StringAnalysisMode &Out);

/// Configuration of one analyzeConstStrings run.
struct ConstStringOptions {
  StringAnalysisMode Mode = StringAnalysisMode::Ipa;
  /// Optional run-governance guard, polled inside the fixpoint loop. Not
  /// owned. A cutoff degrades the result to the local-only answer.
  RunGuard *Guard = nullptr;
};

/// Immutable (method, value) → constant-string map. Cheap to query from
/// every consumer; ~0u means "not a known constant" (⊤ and ⊥ are
/// deliberately indistinguishable to clients — neither licenses a model).
class ConstStringResult {
public:
  /// Client-facing "unknown" answer.
  static constexpr Symbol Unknown = ~0u;

  /// Constant string defined by SSA value \p V of method \p M, or Unknown.
  Symbol valueOf(MethodId M, ValueId V) const {
    if (V < 0 || M >= MethodBase.size() - 1)
      return Unknown;
    uint32_t Base = MethodBase[M];
    if (Base + static_cast<uint32_t>(V) >= MethodBase[M + 1])
      return Unknown;
    Symbol S = Values[Base + static_cast<uint32_t>(V)];
    return S >= Top ? Unknown : S;
  }

  StringAnalysisMode mode() const { return Mode; }

  /// True when a RunGuard cutoff forced the fall-back to local-only facts.
  bool degraded() const { return Degraded; }

  /// conststr.* counters (resolved values, meets to bottom, folds, ...).
  const Stats &stats() const { return Counters; }

  /// String-pool size when the analysis began: every symbol at or above it
  /// was interned by this run (folded concatenations) or after it.
  uint32_t poolBase() const { return PoolBase; }

  /// Guard work units (checkpoints) the analysis consumed.
  uint64_t work() const { return Work; }

private:
  friend class ConstStringAnalysis;
  friend ConstStringResult analyzeConstStrings(const Program &,
                                               const ClassHierarchy &,
                                               const ConstStringOptions &);
  /// Serialization (persist/Serialize.cpp) stores the facts inside the
  /// points-to artifact and restores them on a warm start.
  friend struct persist::Access;

  /// Internal lattice sentinels; anything >= Top is not a constant.
  static constexpr Symbol Top = 0xFFFFFFFEu;
  static constexpr Symbol Bottom = 0xFFFFFFFFu;

  StringAnalysisMode Mode = StringAnalysisMode::Off;
  bool Degraded = false;
  /// Per-method base offset into Values (size NumMethods + 1); the slice
  /// [MethodBase[M], MethodBase[M+1]) holds method M's value lattice.
  std::vector<uint32_t> MethodBase = {0};
  std::vector<Symbol> Values;
  Stats Counters;
  uint32_t PoolBase = 0;
  uint64_t Work = 0;
};

/// Runs the analysis over the whole (post-SSA, statement-indexed) program.
/// Deterministic for a given program and options; interns folded
/// concatenations into the program's string pool.
ConstStringResult analyzeConstStrings(const Program &P,
                                      const ClassHierarchy &CHA,
                                      const ConstStringOptions &Opts = {});

} // namespace taj

#endif // TAJ_DATAFLOW_CONSTSTRING_H
