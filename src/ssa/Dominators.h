//===- ssa/Dominators.h - Dominator tree & frontiers -----------*- C++ -*-===//
//
// Part of the TAJ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Dominator tree and dominance frontiers over a method CFG, using the
/// Cooper-Harvey-Kennedy iterative algorithm. Blocks unreachable from the
/// entry have no immediate dominator (-1) and are skipped by SSA renaming.
///
//===----------------------------------------------------------------------===//

#ifndef TAJ_SSA_DOMINATORS_H
#define TAJ_SSA_DOMINATORS_H

#include "ir/Program.h"

#include <vector>

namespace taj {

/// Dominator information for one method.
class Dominators {
public:
  /// Computes dominators for \p M (entry = block 0).
  explicit Dominators(const Method &M);

  /// Immediate dominator of \p B (-1 for the entry and unreachables).
  int32_t idom(int32_t B) const { return Idom[B]; }

  /// True if \p A dominates \p B (reflexive).
  bool dominates(int32_t A, int32_t B) const;

  /// Dominance frontier of \p B.
  const std::vector<int32_t> &frontier(int32_t B) const { return DF[B]; }

  /// Children of \p B in the dominator tree.
  const std::vector<int32_t> &children(int32_t B) const { return Kids[B]; }

  /// True if \p B is reachable from the entry.
  bool reachable(int32_t B) const { return B == 0 || Idom[B] != -1; }

private:
  std::vector<int32_t> Idom;
  std::vector<int32_t> RpoNum; // -1 for unreachable
  std::vector<std::vector<int32_t>> DF;
  std::vector<std::vector<int32_t>> Kids;
};

} // namespace taj

#endif // TAJ_SSA_DOMINATORS_H
