//===- heapgraph/HeapGraph.h - Bipartite heap graph ------------*- C++ -*-===//
//
// Part of the TAJ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The heap graph of TAJ §4.1.1: a bipartite graph of instance keys and
/// pointer keys derived from the pointer-analysis solution. An edge P -> I
/// means P may point to I; an edge I -> P means P is a field/array/channel
/// of I. Bounded-depth reachability over this graph powers taint-carrier
/// detection (nested taint), with the field-dereference bound of §6.2.3.
///
//===----------------------------------------------------------------------===//

#ifndef TAJ_HEAPGRAPH_HEAPGRAPH_H
#define TAJ_HEAPGRAPH_HEAPGRAPH_H

#include "pointsto/Solver.h"

#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace taj {

/// Immutable heap graph snapshot built from a solved PointsToSolver.
class HeapGraph {
public:
  explicit HeapGraph(const PointsToSolver &Solver);

  /// Instance keys directly referenced by fields/arrays/channels of \p IK.
  const std::vector<IKId> &successors(IKId IK) const;

  /// All instance keys reachable from \p Seeds through at most \p MaxDepth
  /// field dereferences (0 = just the seeds; InvalidId-free, sorted).
  /// MaxDepth of ~0u means unbounded.
  std::vector<IKId> reachable(const std::vector<IKId> &Seeds,
                              uint32_t MaxDepth) const;

private:
  std::vector<std::vector<IKId>> Succ;
};

} // namespace taj

#endif // TAJ_HEAPGRAPH_HEAPGRAPH_H
