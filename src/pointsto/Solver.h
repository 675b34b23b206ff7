//===- pointsto/Solver.h - Andersen-style pointer analysis -----*- C++ -*-===//
//
// Part of the TAJ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The first phase of TAJ (§3.1): a field-sensitive, context-sensitive
/// variant of Andersen's analysis with on-the-fly call-graph construction.
/// The solver alternates constraint adding (one pending (method, context)
/// node at a time, ordered by the §6.1 priority policy or chaotically) with
/// constraint solving to fixpoint, optionally under a call-graph node
/// budget, in which case the result is deliberately underapproximate.
///
/// Synthetic models (§4.2) are applied inline: calls that resolve to
/// intrinsic methods never create call-graph nodes; instead hand-written
/// transfer functions cover string carriers, dictionaries with constant
/// keys, reflection, Thread.start, JNDI/EJB lookups and taint APIs.
///
/// While solving, points-to sets are chunked sparse bitmaps
/// (pointsto/BitSet.h) indexed directly by PKId; when solve() exits they
/// are frozen into one CSR column that every query reads. See DESIGN.md
/// "Solver internals".
///
//===----------------------------------------------------------------------===//

#ifndef TAJ_POINTSTO_SOLVER_H
#define TAJ_POINTSTO_SOLVER_H

#include "callgraph/CallGraph.h"
#include "cha/ClassHierarchy.h"
#include "ir/Program.h"
#include "pointsto/BitSet.h"
#include "pointsto/Context.h"
#include "pointsto/SmallVec.h"
#include "pointsto/ContextPolicy.h"
#include "pointsto/Keys.h"
#include "support/Stats.h"

#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

namespace taj {

class RunGuard;
class ConstStringResult;
class PriorityManager;

namespace persist {
struct Access;
}

/// Configuration of one pointer-analysis run.
struct PointsToOptions {
  /// Optional run-governance guard (deadline/memory/cancellation); the
  /// solver polls it per processed node and per propagation step. Not
  /// owned.
  RunGuard *Guard = nullptr;
  /// Use the §6.1 priority-driven constraint-adding order (vs chaotic).
  bool Prioritized = false;
  /// Call-graph node budget; 0 = unbounded.
  uint32_t MaxCallGraphNodes = 0;
  /// Exclude whitelisted (benign) classes entirely (§4.2.1 code reduction).
  bool ExcludeWhitelisted = false;
  /// JNDI name -> bean class bindings from the deployment descriptor
  /// (§4.2.2); consumed by the JndiLookup intrinsic.
  std::unordered_map<std::string, ClassId> JndiBindings;
  /// EJB home class -> bean implementation class (deployment descriptor).
  std::unordered_map<ClassId, ClassId> EjbHomeToBean;
  /// Precomputed string-constant facts (dataflow/ConstString.h) consumed
  /// by the dictionary and reflection models. Not owned. When null, the
  /// solver owns its facts: solve() computes a local-mode result
  /// (historical behavior for directly constructed solvers), and a warm
  /// restore (persist/Serialize.h) takes the facts stored with the
  /// solution. When set, a restore keeps these facts.
  const ConstStringResult *ConstStrings = nullptr;
};

/// Result-bearing pointer analysis. Construct, then call solve() once.
class PointsToSolver {
public:
  PointsToSolver(const Program &P, const ClassHierarchy &CHA,
                 PointsToOptions Opts = {});
  ~PointsToSolver();
  PointsToSolver(const PointsToSolver &) = delete;
  PointsToSolver &operator=(const PointsToSolver &) = delete;

  /// Runs the analysis from the given entry methods (each analyzed in the
  /// Everywhere context; normally a single synthesized root). The solver
  /// interns nothing into the program's string pool before this call.
  void solve(const std::vector<MethodId> &Entries);

  //===--------------------------------------------------------------------===//
  // Results
  //===--------------------------------------------------------------------===//

  const CallGraph &callGraph() const { return CG; }
  const ContextTable &contexts() const { return Ctxs; }
  const InstanceKeyTable &instanceKeys() const { return IKs; }
  PointerKeyTable &pointerKeys() { return PKs; }
  const PointerKeyTable &pointerKeys() const { return PKs; }

  /// Points-to set of \p PK, read from the column solve() (or a restore)
  /// froze; iteration yields ascending IKIds. Empty before either.
  PtsView pointsTo(PKId PK) const { return Frozen[PK]; }

  /// Appends to \p Out the union of pointsTo over every context of method
  /// \p M for value \p V — the context-merged projection the CI SDG uses
  /// for HSDG direct edges. The appended range is sorted and
  /// duplicate-free; what \p Out held before is left as it was.
  void pointsToMerged(MethodId M, ValueId V, std::vector<IKId> &Out) const;

  /// Points-to set of value \p V in call-graph node \p N (context-precise).
  /// A key never interned during solving reads as the empty set.
  PtsView pointsToOfLocal(CGNodeId N, ValueId V) const {
    return pointsTo(PKs.localLookup(N, V));
  }

  /// True if any context of \p M had its constraints added (statements of
  /// unprocessed methods are invisible to the slicers).
  bool isMethodProcessed(MethodId M) const;

  /// Targets of the intrinsic (model) calls at call statement \p Site, in
  /// the order they were first dispatched. These calls have no call-graph
  /// edges; the SDG needs the callee identity to classify
  /// sources/sinks/sanitizers. Empty before solve() or a restore.
  std::span<const MethodId> intrinsicCalleesAt(StmtId Site) const;

  /// Constant string defined by SSA value \p V of method \p M, or ~0u.
  /// Answers from constStrings().
  Symbol constStringOf(MethodId M, ValueId V) const;

  /// The string-constant facts the solver answers from:
  /// PointsToOptions::ConstStrings when supplied, else its own (computed
  /// by solve() or restored with the solution; empty before either).
  const ConstStringResult &constStrings() const;

  /// Guard work units of the whole pointer-analysis phase — the string
  /// analysis behind constStrings() plus solve() — or, after a restore,
  /// the count recorded with the solution.
  uint64_t phaseWork() const { return PhaseWork; }

  /// True if the node budget was hit (the result is underapproximate).
  bool budgetExhausted() const { return BudgetHit; }

  const Stats &stats() const { return Counters; }

private:
  //===--------------------------------------------------------------------===//
  // Internal machinery
  //===--------------------------------------------------------------------===//

  friend class SolverTestPeer;
  /// Serialization (persist/Serialize.cpp) snapshots and restores the
  /// post-solve query surface.
  friend struct persist::Access;

  // Deferred constraints attached to a pointer key: a field or array
  // load from it, or a store into it. The map and collection models add
  // their channel copy edges directly.
  struct LoadUse {
    enum Kind : uint8_t { Field, Array } K;
    FieldId F; // Field uses only
    PKId Dst;
  };
  struct StoreUse {
    enum Kind : uint8_t { Field, Array } K;
    FieldId F; // Field uses only
    PKId Src;
  };
  struct CallUse {
    CGNodeId Caller;
    StmtId Site;
    const Instruction *I;
    /// Exact target for Special calls; InvalidId = CHA dispatch.
    MethodId Exact;
  };
  /// The deferred uses of one pointer key, each kind in registration
  /// order. Only keys that get a deferred use own a row.
  struct UseRow {
    SmallVec<LoadUse, 2> Loads;
    SmallVec<StoreUse, 2> Stores;
    SmallVec<CallUse, 1> Calls;
  };
  /// The distinct copy edges, keyed by the exact (from, to) pair: an
  /// open-addressed set of From << 32 | To. No copy edge is a self-loop,
  /// so no key is 0, the empty slot.
  class CopyPairSet {
  public:
    /// Adds edge \p From -> \p To; false if it was present.
    bool insert(PKId From, PKId To);
    size_t size() const { return Filled; }

  private:
    /// The slot holding \p Key, or the empty slot where it belongs.
    size_t slotOf(uint64_t Key) const;

    std::vector<uint64_t> Slots;
    size_t Filled = 0;
  };
  /// A counter handle resolved on its first bump, so the counter's row
  /// appears only once it is bumped.
  struct LazyCounter {
    const char *Name;
    Stats::Handle H = ~0u;
  };
  struct InvokeSite {
    CGNodeId Caller = 0;
    StmtId Site = 0;
    const Instruction *I = nullptr;
    std::vector<CGNodeId> Targets;
    std::vector<IKId> ArgArrays;
  };

  /// solve()'s body: the phase's string facts, then the worklist loop.
  void run(const std::vector<MethodId> &Entries);
  /// Freezes the per-key sets into Frozen, the intrinsic-target log into
  /// its columns and the call graph into its query form, then drops
  /// everything only solving reads.
  void freeze();

  CGNodeId ensureNode(MethodId M, CtxId Ctx);
  /// Adds call edge \p Caller --\p Site--> \p Callee and tells the
  /// priority policy about it if it is new.
  void addCallEdge(CGNodeId Caller, StmtId Site, CGNodeId Callee);
  void addConstraints(CGNodeId N);
  void propagate();

  bool insertPointsTo(PKId PK, IKId IK);
  void enqueue(PKId PK);
  void addCopyEdge(PKId From, PKId To);
  /// Bulk-unions Pts[From] into Pts[To], queueing the new members in
  /// ascending order.
  void unionInto(PKId From, PKId To);
  /// Brings every per-PK table up to PKs.size(). Called from the hot loops
  /// after anything that may intern a key; the common no-op case must stay
  /// a two-load inline check.
  void growTables() {
    if (Pts.size() < PKs.size())
      growTablesSlow();
  }
  void growTablesSlow();

  PKId channelKey(IKId Base, Symbol Chan);
  /// All interned channel pointer keys of instance \p IK (map/collection
  /// contents), for the wildcard-read models.
  const std::vector<PKId> &channelsOf(IKId IK) const;
  /// Makes \p Dst read every channel of \p IK, present and future.
  void addWildcardReader(IKId IK, PKId Dst);
  /// The deferred uses of \p PK, made on first use.
  UseRow &useRow(PKId PK);
  /// Fire one deferred use for member \p IK of its base, then grow the
  /// per-key tables.
  void applyLoadUse(IKId IK, const LoadUse &LU);
  void applyStoreUse(IKId IK, const StoreUse &SU);
  void handleNewPointsTo(PKId PK, IKId IK);
  void registerLoadUse(PKId Base, LoadUse LU);
  void registerStoreUse(PKId Base, StoreUse SU);
  void registerCallUse(PKId Recv, CallUse CU);
  void dispatchCall(const CallUse &CU, IKId RecvIK);
  void dispatchResolved(CGNodeId Caller, StmtId Site, const Instruction &I,
                        MethodId Callee, IKId RecvIK);
  void bindCall(CGNodeId Caller, StmtId Site, const Instruction &I,
                MethodId Callee, CtxId CalleeCtx, IKId RecvIK);
  void applyIntrinsic(CGNodeId Caller, StmtId Site, const Instruction &I,
                      const Method &Callee, IKId RecvIK);
  void invokeBind(InvokeSite &IS, CGNodeId Target);
  void invokeBindArray(InvokeSite &IS, CGNodeId Target, IKId ArrIK);

  IKId syntheticIK(StmtId Site, ClassId Cls);
  Symbol mapChannel(CGNodeId Caller, const Instruction &I, size_t KeyArg);
  void noteUnresolvedReflection(CGNodeId Caller, StmtId Site);
  Symbol internSym(std::string_view S) const;
  void bump(LazyCounter &C);

  const Program &P;
  const ClassHierarchy &CHA;
  PointsToOptions Opts;

  ContextTable Ctxs;
  InstanceKeyTable IKs;
  PointerKeyTable PKs;
  CallGraph CG;
  ContextPolicy Policy;
  Stats Counters;
  /// Pre-resolved handles for per-tuple / per-node hot-loop counters, so
  /// the propagation loop never pays a string-keyed map lookup.
  Stats::Handle HPtsEntries = 0;
  Stats::Handle HCgNodes = 0;
  Stats::Handle HCgProcessed = 0;
  Stats::Handle HMapKeysResolved = 0;
  Stats::Handle HReflResolved = 0;
  Stats::Handle HReflUnresolved = 0;
  LazyCounter CallUnresolved{"call.unresolved"};
  LazyCounter CallWhitelistSkipped{"call.whitelist_skipped"};
  LazyCounter CallNativeDefault{"call.native_default_model"};
  LazyCounter ModelThreadStart{"model.thread_start"};
  LazyCounter ModelJndiLookup{"model.jndi_lookup"};
  LazyCounter ModelHomeCreate{"model.home_create"};
  /// Per-site reflection counter handles, built once per (method, stmt)
  /// while solving.
  std::unordered_map<uint64_t, Stats::Handle> ReflSiteHandles;
  /// Work counts, exported by freeze(): member-to-successor pushes in
  /// propagate() and receiver dispatches.
  uint64_t NumTransfers = 0;
  uint64_t NumDispatches = 0;
  bool BudgetHit = false;
  bool Solved = false;

  /// The solved sets of every pointer key, frozen when solve() exits.
  PointsToColumn Frozen;

  /// Intrinsic call targets, frozen when solve() exits: one (site, callee)
  /// column pair sorted by site, each site's callees in first-dispatch
  /// order. While solving, the same two vectors log every dispatch.
  std::vector<StmtId> IntrSites;
  std::vector<MethodId> IntrCallees;

  // Solving state, all dropped by freeze(). Per-PK tables are indexed by
  // PKId and grown lazily: 124 bytes per key.
  std::vector<SparseBitSet> Pts;
  std::vector<SmallVec<PKId, 4>> CopySuccs;
  CopyPairSet CopyEdges;
  /// Each key's row in UseRows, or NoRow.
  static constexpr uint32_t NoRow = ~0u;
  std::vector<uint32_t> UseRowOf;
  std::vector<UseRow> UseRows;
  /// Pending new members per pointer key. Deliberately an arrival-order
  /// list, not a bitmap: the event order downstream (first dispatch of a
  /// call site, SiteCallees order) must match the historical engine so CLI
  /// output stays byte-identical.
  std::vector<SmallVec<IKId, 4>> Delta;
  std::vector<bool> OnWorklist;
  std::vector<PKId> Worklist;
  /// Reused buffers: bulk-union output and register*Use snapshots. Not
  /// re-entrant; see the comments at their uses.
  std::vector<IKId> NewBitsScratch;
  std::vector<IKId> SnapScratch;
  /// propagate()'s pop buffer, swapped with Delta[PK] so buffer capacity
  /// recycles across pops instead of being freed per worklist entry.
  SmallVec<IKId, 4> MovedScratch;

  // Model channel bookkeeping.
  std::unordered_map<IKId, std::vector<PKId>> Channels;
  std::unordered_map<IKId, std::vector<PKId>> WildcardReaders;

  // Reflective invoke state; (PK role) registrations point here.
  std::vector<InvokeSite> Invokes;
  std::unordered_map<uint64_t, uint32_t> InvokeIndex; // (caller,site) -> idx
  std::unordered_map<PKId, std::vector<uint32_t>> InvokeByMethodPK;
  std::unordered_map<PKId, std::vector<uint32_t>> InvokeByArrayPK;

  // Cached program entities.
  ClassId StringClass = InvalidId;
  ClassId ExceptionClass = InvalidId;
  Symbol WildChan = 0;
  Symbol ElemChan = 0;
  Symbol RunSym = 0;

  /// The solver's own string-constant facts when
  /// PointsToOptions::ConstStrings is absent: solve()'s local-mode
  /// fallback, or the facts a restore took from the artifact.
  std::unique_ptr<ConstStringResult> OwnedConstStr;
  /// The pointer-analysis phase's string-pool symbols are
  /// [PoolBase, PoolEnd): what the string analysis and solve() interned.
  uint32_t PoolBase = 0;
  uint32_t PoolEnd = 0;
  uint64_t PhaseWork = 0;

  /// The constraint-adding order: made by solve(), released by freeze().
  std::unique_ptr<PriorityManager> Prio;
};

} // namespace taj

#endif // TAJ_POINTSTO_SOLVER_H
