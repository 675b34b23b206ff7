//===- pointsto/Priority.h - Priority-driven call-graph growth -*- C++ -*-===//
//
// Part of the TAJ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The priority policy of TAJ §6.1. Constraint adding is driven by a
/// priority queue over pending call-graph nodes; the initial-assignment
/// rule gives taint-generating nodes priority 0 and everything else the
/// maximal value, and processing a node relaxes the priorities of its
/// "nearby" nodes (call-graph neighbours plus methods whose loads match its
/// stores) to fixpoint, implementing the locality-of-taint principle.
///
/// Deviation from the paper: TAJ's sources are library methods that become
/// call-graph nodes; our sources are inlined intrinsic models, so "source
/// node" here means "node whose method calls a source" (same locality
/// seed, one hop earlier).
///
//===----------------------------------------------------------------------===//

#ifndef TAJ_POINTSTO_PRIORITY_H
#define TAJ_POINTSTO_PRIORITY_H

#include "callgraph/CallGraph.h"
#include "ir/Program.h"

#include <queue>
#include <unordered_map>
#include <vector>

namespace taj {

/// Pending-node scheduler: chaotic iteration (a scramble of creation
/// order) or priority-driven.
class PriorityManager {
public:
  /// \p Prioritized selects the §6.1 policy; false = chaotic order, a
  /// scramble of creation order.
  PriorityManager(const Program &P, const CallGraph &CG, bool Prioritized);

  /// Registers a freshly created node and queues it (initial-assignment
  /// rule; chaotic order assigns no priority).
  void onNodeCreated(CGNodeId N);

  /// Registers a new call edge \p Caller -> \p Callee, for the nearby
  /// set (prioritized order only).
  void onEdgeAdded(CGNodeId Caller, CGNodeId Callee);

  /// True if no node is pending.
  bool empty() const { return NumPending == 0; }

  /// Pops the next node to process (lowest priority value first; the
  /// node id, which is creation order, breaks ties, and chaotic order
  /// keys on a scramble of it).
  CGNodeId pop();

  /// Steps 2-5 of the §6.1 loop: computes the nearby set of \p N, relaxes
  /// priorities, and propagates changes to fixpoint.
  void onNodeProcessed(CGNodeId N);

private:
  /// Nearby set: N's callees and callers plus nodes whose method contains
  /// a load matching a store in N's method.
  std::vector<CGNodeId> nearby(CGNodeId N) const;

  void relax(CGNodeId N);

  static constexpr uint64_t MaxPrio = ~0ull >> 1;

  const Program &P;
  const CallGraph &CG;
  bool Prioritized;
  // Per node, prioritized order only: its priority, the callee of each
  // of its out-edges and the caller of each of its in-edges, in the order
  // the edges were added.
  std::vector<uint64_t> Prio;
  std::vector<std::vector<CGNodeId>> Callees;
  std::vector<std::vector<CGNodeId>> Callers;
  /// The effective queue key of \p N right now; heap entries carrying a
  /// different key are stale.
  uint64_t keyOf(CGNodeId N) const;
  /// Binary min-heap over (key, node) with lazy decrease-key: a
  /// relaxation pushes a fresh entry and pop() discards entries whose key
  /// no longer matches keyOf(). Keys only decrease, so the first live
  /// entry popped is the same (key, node)-minimum the old ordered-set
  /// implementation produced — at O(log n) push instead of rebalancing an
  /// RB-tree on every erase/insert pair.
  struct HeapEntry {
    uint64_t Key;
    CGNodeId N;
  };
  struct HeapCmp {
    bool operator()(const HeapEntry &A, const HeapEntry &B) const {
      // std::priority_queue surfaces the "largest"; invert for a min-heap.
      if (A.Key != B.Key)
        return A.Key > B.Key;
      return A.N > B.N;
    }
  };
  std::priority_queue<HeapEntry, std::vector<HeapEntry>, HeapCmp> Queue;
  size_t NumPending = 0;
  std::vector<bool> Pending;

  // Static per-method field footprints.
  struct FieldSets {
    std::vector<uint64_t> Stores;
    std::vector<uint64_t> Loads;
    bool CallsSource = false;
  };
  const FieldSets &fieldSets(MethodId M) const;
  mutable std::unordered_map<MethodId, FieldSets> FieldCache;

  /// Cached per-callee-name classification (source? channel store/load?).
  struct NameInfo {
    bool IsSource = false;
    bool ChanStore = false;
    bool ChanLoad = false;
  };
  const NameInfo &nameInfo(Symbol Name) const;
  mutable std::unordered_map<Symbol, NameInfo> NameCache;
  // field signature -> nodes whose method loads it
  mutable std::unordered_map<uint64_t, std::vector<CGNodeId>> Loaders;
};

} // namespace taj

#endif // TAJ_POINTSTO_PRIORITY_H
