//===- slicer/HeapEdges.h - Direct store->load & carrier edges -*- C++ -*-===//
//
// Part of the TAJ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The flow-insensitive heap edges of the HSDG (TAJ §3.2 and §4.1.1):
///
///  - direct edges from a store to every load whose base pointer may alias
///    the store's base (per the preliminary pointer analysis), with
///    constant-key filtering for dictionary channels;
///  - taint-carrier edges from a store to every sink one of whose
///    sensitive actuals may reach the stored-into object in the heap graph
///    within the nested-taint depth bound (§6.2.3). The heap graph's
///    instance-key successors (the objects a field, array element or
///    channel of an object may point to) are a CSR local to the build.
///
/// The full store adjacency is materialized at construction time, before
/// slicing begins; afterwards the object is immutable and loadsFor() /
/// carrierSinksFor() are plain const lookups. A governed instance
/// (non-null \p Guard) checkpoints per indexed load/sink and per
/// materialized store; after a cutoff the remaining stores serve empty
/// adjacency, which only removes heap hops from slices (underapproximate).
///
//===----------------------------------------------------------------------===//

#ifndef TAJ_SLICER_HEAPEDGES_H
#define TAJ_SLICER_HEAPEDGES_H

#include "sdg/SDG.h"

#include <span>
#include <vector>

namespace taj {

namespace persist {
struct Access;
}

/// Immutable heap adjacency for one (SDG, solver) pair: two CSR columns
/// indexed by a store's rank in G.storeNodes(), one for its loads and one
/// for its carrier sinks.
class HeapEdges {
public:
  /// Materializes the adjacency.
  HeapEdges(const Program &P, const SDG &G, const PointsToSolver &Solver,
            uint32_t NestedDepth, RunGuard *Guard = nullptr);

  /// Loads that may read what \p Store wrote.
  std::span<const SDGNodeId> loadsFor(SDGNodeId Store) const {
    return adjacency(Store, LoadOff, LoadEdges);
  }

  /// Sinks whose sensitive arguments may reach the object \p Store wrote
  /// into (nested taint, §4.1.1).
  std::span<const SDGNodeId> carrierSinksFor(SDGNodeId Store) const {
    return adjacency(Store, SinkOff, SinkEdges);
  }

private:
  /// Test-only corruption hooks (tests/verify_test.cpp).
  friend class HeapEdgesTestPeer;
  /// Serialization (persist/Serialize.cpp) snapshots and restores the
  /// columns through the tag constructor below.
  friend struct persist::Access;

  /// Restore-path constructor: binds the graph but materializes nothing;
  /// persist::Access fills the columns from a cache record.
  struct RestoreTag {};
  HeapEdges(const SDG &G, RestoreTag) : G(G) {}

  void build(const Program &P, const PointsToSolver &Solver,
             uint32_t NestedDepth, RunGuard *Guard);

  /// Row of \p Store (found by its rank in the ascending store list) in
  /// one CSR column; empty for a node that is not a store.
  std::span<const SDGNodeId> adjacency(SDGNodeId Store,
                                       const std::vector<uint32_t> &Off,
                                       const std::vector<SDGNodeId> &Col) const;

  const SDG &G;
  /// Store rank R's loads are LoadEdges[LoadOff[R] .. LoadOff[R+1]); its
  /// carrier sinks, ascending, SinkEdges[SinkOff[R] .. SinkOff[R+1]).
  std::vector<uint32_t> LoadOff, SinkOff;
  std::vector<SDGNodeId> LoadEdges, SinkEdges;
};

} // namespace taj

#endif // TAJ_SLICER_HEAPEDGES_H
