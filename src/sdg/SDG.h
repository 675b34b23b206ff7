//===- sdg/SDG.h - System dependence graph for thin slicing ----*- C++ -*-===//
//
// Part of the TAJ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The data-dependence graph underlying the three thin-slicing algorithms
/// (TAJ §3.2).
///
/// Scope: the graph is built either *context-expanded* — one subgraph per
/// call-graph node (method, context), as in WALA, which is what lets the
/// hybrid algorithm distinguish the three Internal instances of the
/// paper's motivating example — or *context-merged* (one subgraph per
/// method), which is the graph CI thin slicing operates on.
///
/// The no-heap portion (always built) carries SSA def-use flow through
/// locals and parameter/return plumbing; loads have no incoming data edges
/// and stores no outgoing ones, and base-pointer dependencies are excluded
/// (thin slicing). The channel-extended portion (CS thin slicing only)
/// threads heap dependencies through calls as extra parameters, wired in
/// statement order ("partially flow-sensitive" — the property that makes
/// CS unsound for multi-threaded programs); its size is metered against a
/// memory budget, reproducing the CS out-of-memory rows of Table 3.
///
//===----------------------------------------------------------------------===//

#ifndef TAJ_SDG_SDG_H
#define TAJ_SDG_SDG_H

#include "pointsto/Solver.h"
#include "support/Stats.h"

#include <span>
#include <string>
#include <vector>

namespace taj {

namespace persist {
struct Access;
}

class PhaseProfile;

/// SDG node identifiers (dense).
using SDGNodeId = uint32_t;
/// Owner identifiers: one owner per (method, context) subgraph in expanded
/// scope, one per method in merged scope.
using SDGOwnerId = uint32_t;

/// Node kinds.
enum class SDGNodeKind : uint8_t {
  Stmt,          ///< An instruction (also the actual-out of its call).
  ActualIn,      ///< Argument Index of call statement S.
  FormalIn,      ///< Parameter Index of owner Owner.
  FormalOut,     ///< Return value of owner Owner.
  ChanFormalIn,  ///< Channel Index entering owner Owner (CS only).
  ChanFormalOut, ///< Channel Index leaving owner Owner (CS only).
  ChanActualIn,  ///< Channel Index entering call S (CS only).
  ChanActualOut  ///< Channel Index leaving call S (CS only).
};

/// How a statement accesses the heap (drives direct store->load edges).
enum class HeapAccess : uint8_t {
  None,
  FieldStore,
  FieldLoad,
  ArrayStore,
  ArrayLoad,
  StaticStore,
  StaticLoad,
  MapPut,
  MapGet,
  CollAdd,
  CollGet,
  InvokeArgsRead ///< Reflective invoke reads its argument array.
};

/// True for the accesses that write the heap: the stores that start
/// direct store->load edges and taint-carrier edges.
inline bool isStoreAccess(HeapAccess A) {
  switch (A) {
  case HeapAccess::FieldStore:
  case HeapAccess::ArrayStore:
  case HeapAccess::StaticStore:
  case HeapAccess::MapPut:
  case HeapAccess::CollAdd:
    return true;
  default:
    return false;
  }
}

/// One SDG node.
struct SDGNode {
  SDGNodeKind Kind = SDGNodeKind::Stmt;
  SDGOwnerId Owner = InvalidId;
  MethodId M = InvalidId;
  StmtId S = 0;
  uint32_t Index = 0;
  HeapAccess Access = HeapAccess::None;
  /// For ActualIn/ChanActualIn: the owning call statement node.
  SDGNodeId Aux = InvalidId;
  RuleMask SourceMask = rules::None;
  RuleMask SinkMask = rules::None;
  RuleMask SanitizeMask = rules::None;
  bool IsCall = false;
};

/// True if slicing for \p Rule stops at \p N: statements that sanitize
/// the rule, and sinks of it, have no successors (TAJ §3.2).
inline bool isSliceBarrier(const SDGNode &N, RuleMask Rule) {
  return N.Kind == SDGNodeKind::Stmt &&
         ((N.SanitizeMask & Rule) != 0 || (N.SinkMask & Rule) != 0);
}

/// Edge kinds; summary edges are materialized by the tabulation engine.
enum class SDGEdgeKind : uint8_t { Flow, ParamIn, ParamOut };

struct SDGEdge {
  SDGNodeId To = 0;
  SDGEdgeKind Kind = SDGEdgeKind::Flow;
};

/// One call site with body'd targets. Its actual-in nodes are created as
/// one contiguous range, so the range is stored as (first, count); its CS
/// channel plumbing lives in the SDG's per-site channel columns.
struct CallSiteInfo {
  SDGNodeId StmtNode = 0;
  SDGNodeId FirstActualIn = 0;
  uint32_t NumActualIns = 0;
};

/// Build options.
struct SDGOptions {
  /// Optional run-governance guard; construction checkpoints per wired
  /// subgraph owner and stops early (partial graph) when it trips. Not
  /// owned.
  RunGuard *Guard = nullptr;
  /// One subgraph per call-graph node (hybrid/CS) vs per method (CI).
  bool ContextExpanded = true;
  /// Build the channel-extended graph (CS thin slicing).
  bool WithChanParams = false;
  /// Synthesize LEAK sources at caught-exception statements (§4.1.2).
  bool ModelExceptionSources = true;
  /// Memory budget (channel-node units) for the CS extension; 0 = off.
  uint64_t ChanNodeBudget = 0;
  /// Optional per-phase profile (support/Trace.h), used by loadOrBuildSdg
  /// to bracket the persist load/store paths. Not owned; may be null.
  PhaseProfile *Profile = nullptr;
};

/// The system dependence graph.
class SDG {
public:
  SDG(const Program &P, const ClassHierarchy &CHA,
      const PointsToSolver &Solver, SDGOptions Opts = {});

  const SDGNode &node(SDGNodeId N) const { return Nodes[N]; }
  uint32_t numNodes() const { return static_cast<uint32_t>(Nodes.size()); }
  /// Out-edges of \p N, in insertion order.
  std::span<const SDGEdge> succs(SDGNodeId N) const {
    return {SuccEdges.data() + SuccOff[N], SuccOff[N + 1] - SuccOff[N]};
  }

  /// Call-site info for a call statement node; nullptr if not a call with
  /// body'd targets.
  const CallSiteInfo *callSite(SDGNodeId StmtNode) const {
    const uint32_t I = SiteOf[StmtNode];
    return I == InvalidId ? nullptr : &CallSites[I];
  }

  /// Maps a callee formal-out-like node to the corresponding actual-out at
  /// call site \p CS (an entry of this graph). InvalidId if unmapped.
  SDGNodeId actualOutFor(const CallSiteInfo &CS, SDGNodeId CalleeOut) const;

  /// All statement nodes that are sources for \p Rule.
  std::vector<SDGNodeId> sourceNodes(RuleMask Rule) const;

  const std::vector<SDGNodeId> &storeNodes() const { return Stores; }
  const std::vector<SDGNodeId> &loadNodes() const { return Loads; }
  const std::vector<SDGNodeId> &sinkNodes() const { return Sinks; }

  /// Appends to \p Out the points-to set of the base pointer of
  /// store/load-like statement node \p N (context-precise in expanded
  /// scope, merged otherwise). The appended range is sorted and
  /// duplicate-free; nothing is appended for a node without a base.
  void basePointsTo(SDGNodeId N, std::vector<IKId> &Out) const;

  /// Appends to \p Out the points-to set of argument \p ArgIdx of call
  /// statement node \p N, as basePointsTo does.
  void argPointsTo(SDGNodeId N, uint32_t ArgIdx, std::vector<IKId> &Out) const;

  /// Constant map key of a MapPut/MapGet statement node (~0u if unknown).
  /// Answered from the run's ConstStringResult via the solver, so keys
  /// routed through helpers resolve under --string-analysis=ipa.
  Symbol constKeyOf(SDGNodeId N) const;

  /// True if the CS channel extension exceeded its budget.
  bool chanBudgetExceeded() const { return ChanOOM; }
  /// Total channel nodes created (CS cost metric).
  uint64_t numChanNodes() const { return ChanNodes; }

  /// Renders one node for debugging / the Figure 2 bench.
  std::string nodeToString(SDGNodeId N) const;

private:
  friend class SdgBuilder;
  /// Test-only corruption hooks (tests/verify_test.cpp): the self-
  /// verification tests must be able to break a built graph in place.
  friend class SdgTestPeer;
  /// Serialization (persist/Serialize.cpp) snapshots and restores the
  /// post-build state through the tag constructor below.
  friend struct persist::Access;

  /// Restore-path constructor: binds the live references and options but
  /// builds nothing; persist::Access fills the columns from a cache record.
  struct RestoreTag {};
  SDG(const Program &P, const PointsToSolver &Solver, SDGOptions Opts,
      RestoreTag)
      : P(P), Solver(Solver), Opts(std::move(Opts)) {}

  void valuePointsTo(SDGNodeId N, ValueId V, std::vector<IKId> &Out) const;

  const Program &P;
  const PointsToSolver &Solver;
  SDGOptions Opts;

  /// One subgraph owner.
  struct OwnerInfo {
    MethodId M = InvalidId;
    /// Valid CG node in expanded scope; InvalidId in merged scope.
    CGNodeId CgNode = InvalidId;
  };
  std::vector<OwnerInfo> Owners;

  /// Each owner's skeleton is one block of nodes: its formal-ins, its
  /// formal-out, then one node per statement in order. Actual-ins follow
  /// all skeletons, then (CS) each owner's channel formals in (in, out)
  /// pairs and the call sites' channel actuals.
  std::vector<SDGNode> Nodes;
  /// Edges as CSR: node N's out-edges are SuccEdges[SuccOff[N] ..
  /// SuccOff[N+1]), in insertion order.
  std::vector<uint32_t> SuccOff;
  std::vector<SDGEdge> SuccEdges;
  /// Call sites in creation order (ascending statement node), and per node
  /// its index into CallSites (InvalidId for all but call statements).
  std::vector<CallSiteInfo> CallSites;
  std::vector<uint32_t> SiteOf;
  /// CS channel plumbing as CSR over CallSites: site I's channels are
  /// ChanSiteSigs/ChanSiteOuts[ChanSiteOff[I] .. ChanSiteOff[I+1]), in
  /// ascending signature order, with the channel actual-out of each.
  std::vector<uint32_t> ChanSiteOff;
  std::vector<uint64_t> ChanSiteSigs;
  std::vector<SDGNodeId> ChanSiteOuts;
  /// Per-owner sorted channel signatures as CSR over Owners (CS only).
  std::vector<uint32_t> OwnerChanOff;
  std::vector<uint64_t> OwnerChanSigs;
  /// Store, load and sink statement nodes, each list ascending.
  std::vector<SDGNodeId> Stores, Loads, Sinks;
  bool ChanOOM = false;
  uint64_t ChanNodes = 0;
};

/// Channel signatures for the CS extension (sdg/HeapChannels.cpp). Heap
/// dependencies are threaded as parameters keyed by abstract location:
/// (instance key, field) for object fields, (instance key) for array and
/// collection contents, (instance key, constant key) for dictionaries,
/// and the bare field for statics.
namespace chansig {
uint64_t field(FieldId F);
uint64_t staticField(FieldId F);
uint64_t array();
uint64_t map();
uint64_t mapKey(Symbol Key);
uint64_t coll();
/// Location-qualifies a class signature with an instance key.
uint64_t withIK(uint64_t ClassSig, IKId IK);
} // namespace chansig

/// Read/write channel signatures of one statement.
struct ChanAccess {
  std::vector<uint64_t> Reads;
  std::vector<uint64_t> Writes;
};

/// Classifies how instruction \p I (with resolved intrinsic callees for
/// calls) accesses the heap.
HeapAccess classifyAccess(const Program &P, const Instruction &I,
                          std::span<const MethodId> IntrinsicTargets);

/// The base-value SSA id of a store/load-like statement; NoValue if n/a.
ValueId heapBaseValue(const Instruction &I, HeapAccess A);

} // namespace taj

#endif // TAJ_SDG_SDG_H
