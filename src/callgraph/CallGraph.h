//===- callgraph/CallGraph.h - Context-sensitive call graph ----*- C++ -*-===//
//
// Part of the TAJ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The on-the-fly call graph built by the pointer analysis. A node is a
/// (method, context) pair ("a method in some calling context", TAJ §6.1);
/// edges carry the call statement. While solving, every distinct edge is
/// logged once, in insertion order, as a caller column and a (site,
/// callee) column; the log is the graph's only edge store. When solving
/// ends, freeze() derives the dense CSR columns every query reads from
/// it: each node's out-edges, the per-method node lists and the
/// context-merged projection (call statement -> callee methods) the SDG
/// builder reads. Then it drops the log and its index.
///
//===----------------------------------------------------------------------===//

#ifndef TAJ_CALLGRAPH_CALLGRAPH_H
#define TAJ_CALLGRAPH_CALLGRAPH_H

#include "ir/Program.h"
#include "pointsto/Keys.h"
#include "support/InternIndex.h"

#include <span>
#include <vector>

namespace taj {

class RunGuard;

namespace persist {
struct Access;
}

/// One call-graph node.
struct CGNode {
  MethodId M = InvalidId;
  CtxId Ctx = EverywhereCtx;
  /// True once the solver has added this node's constraints.
  bool ConstraintsAdded = false;
};

/// One directed call edge.
struct CGEdge {
  StmtId Site = 0;
  CGNodeId Callee = 0;
  bool operator==(const CGEdge &) const = default;
};

/// The call graph under construction.
class CallGraph {
public:
  /// Attributes expansion work (node/edge creation) to \p G; not owned.
  /// The graph only ticks the guard — enforcement of a stop stays with the
  /// solver loop driving the expansion.
  void setGuard(RunGuard *G) { Guard = G; }

  /// Interns node (\p M, \p Ctx); \p IsNew reports whether it was created.
  CGNodeId ensureNode(MethodId M, CtxId Ctx, bool &IsNew);

  CGNode &node(CGNodeId N) { return Nodes[N]; }
  const CGNode &node(CGNodeId N) const { return Nodes[N]; }
  uint32_t numNodes() const { return static_cast<uint32_t>(Nodes.size()); }

  /// Adds edge \p Caller --site--> \p Callee; returns false if it existed.
  bool addEdge(CGNodeId Caller, StmtId Site, CGNodeId Callee);

  /// Out-edges of \p N, in the order they were added. Empty before
  /// freeze().
  std::span<const CGEdge> edges(CGNodeId N) const {
    if (N + 1 >= OutOff.size())
      return {};
    return {OutEdges.data() + OutOff[N], OutEdges.data() + OutOff[N + 1]};
  }

  /// All nodes of method \p M (one per context), ascending. Empty before
  /// freeze().
  std::span<const CGNodeId> nodesOf(MethodId M) const {
    if (M + 1 >= ByMethodBase.size())
      return {};
    return {ByMethod.data() + ByMethodBase[M],
            ByMethod.data() + ByMethodBase[M + 1]};
  }

  /// Context-merged callee methods of call statement \p Site, in the order
  /// their first edges were added. Empty before freeze().
  std::span<const MethodId> calleesAt(StmtId Site) const {
    if (Site + 1 >= SiteBase.size())
      return {};
    return {SiteCallees.data() + SiteBase[Site],
            SiteCallees.data() + SiteBase[Site + 1]};
  }

  /// Distinct edges added so far. Construction only: freeze() drops the
  /// edge log, after which this reads 0.
  uint32_t numEdges() const {
    return static_cast<uint32_t>(LogCallers.size());
  }

  /// Ends construction: builds the out-edge CSR, the dense per-method node
  /// index over \p NumMethods methods and the per-site callee column over
  /// \p NumStmts statements, and drops the edge log.
  void freeze(uint32_t NumMethods, uint32_t NumStmts);

  /// Number of nodes whose constraints have been added (the paper's |N|
  /// for budget purposes).
  uint32_t numProcessed() const { return Processed; }
  void markProcessed(CGNodeId N) {
    if (!Nodes[N].ConstraintsAdded) {
      Nodes[N].ConstraintsAdded = true;
      ++Processed;
    }
  }

private:
  /// Test-only corruption hooks (tests/verify_test.cpp): the self-
  /// verification tests must be able to plant phantom edges in place.
  friend class CallGraphTestPeer;
  /// Serialization (persist/Serialize.cpp) snapshots and restores the
  /// frozen state, including the per-site callee insertion order.
  friend struct persist::Access;

  static uint64_t hash(MethodId M, CtxId Ctx) { return internHash2(M, Ctx); }
  /// The hash of edge \p Caller --E.Site--> E.Callee, keyed by the exact
  /// triple.
  static uint64_t edgeHash(CGNodeId Caller, const CGEdge &E) {
    return internMix(((static_cast<uint64_t>(Caller) << 32) | E.Site) ^
                     (static_cast<uint64_t>(E.Callee) * 0xc2b2ae3d27d4eb4full));
  }
  /// Indexes every node in one pass after a bulk restore; false if two
  /// nodes share a (method, context) pair.
  bool reindex() {
    return NodeMap.rebuild(
        Nodes.size(),
        [this](CGNodeId N) { return hash(Nodes[N].M, Nodes[N].Ctx); },
        [this](CGNodeId A, CGNodeId B) {
          return Nodes[A].M == Nodes[B].M && Nodes[A].Ctx == Nodes[B].Ctx;
        });
  }
  /// Builds ByMethodBase/ByMethod from the node column.
  void indexByMethod(uint32_t NumMethods);

  std::vector<CGNode> Nodes;
  /// (method, context) -> node.
  InternIndex NodeMap;
  // Construction only: every distinct edge once, in insertion order, as
  // edge I = LogCallers[I] --LogEdges[I].Site--> LogEdges[I].Callee,
  // indexed by its exact triple.
  std::vector<CGNodeId> LogCallers;
  std::vector<CGEdge> LogEdges;
  InternIndex EdgeIndex;
  // Frozen CSR columns: node N's out-edges are OutEdges[OutOff[N] ..
  // OutOff[N+1]), method M's nodes ByMethod[ByMethodBase[M] ..
  // ByMethodBase[M+1]), site S's callees SiteCallees[SiteBase[S] ..
  // SiteBase[S+1]).
  std::vector<uint32_t> OutOff;
  std::vector<CGEdge> OutEdges;
  std::vector<uint32_t> ByMethodBase;
  std::vector<CGNodeId> ByMethod;
  std::vector<uint32_t> SiteBase;
  std::vector<MethodId> SiteCallees;
  uint32_t Processed = 0;
  RunGuard *Guard = nullptr;
};

} // namespace taj

#endif // TAJ_CALLGRAPH_CALLGRAPH_H
