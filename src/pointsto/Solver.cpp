//===- pointsto/Solver.cpp -------------------------------------*- C++ -*-===//

#include "pointsto/Solver.h"
#include "dataflow/ConstString.h"
#include "pointsto/Priority.h"
#include "support/RunGuard.h"

#include <algorithm>
#include <cassert>

using namespace taj;

//===----------------------------------------------------------------------===//
// Construction
//===----------------------------------------------------------------------===//

PointsToSolver::PointsToSolver(const Program &P, const ClassHierarchy &CHA,
                               PointsToOptions Opts)
    : P(P), CHA(CHA), Opts(std::move(Opts)), Policy(P, Ctxs, IKs) {
  HPtsEntries = Counters.handle("pts.entries");
  HCgNodes = Counters.handle("cg.nodes");
  HCgProcessed = Counters.handle("cg.processed");
  HMapKeysResolved = Counters.handle("conststr.map_keys_resolved");
  HReflResolved = Counters.handle("conststr.reflective_resolved");
  HReflUnresolved = Counters.handle("reflection.unresolved");
  // Pre-size the interning tables from the program size: pointer keys run
  // a small multiple of the statement count across contexts, and seeding
  // the hash maps here avoids the rehash cascade through every power of
  // two on the way up.
  PKs.reserve(size_t(P.numStmts()) * 2 + 256);
  IKs.reserve(size_t(P.numStmts()) / 2 + 64);
  StringClass = P.findClass("String");
  ExceptionClass = P.findClass("Exception");
}

PointsToSolver::~PointsToSolver() = default;

Symbol PointsToSolver::internSym(std::string_view S) const {
  // Interning into the shared pool is the only mutation the solver performs
  // on the program; it is semantically benign (symbols are append-only).
  return const_cast<Program &>(P).Pool.intern(S);
}

void PointsToSolver::bump(LazyCounter &C) {
  if (C.H == ~0u)
    C.H = Counters.handle(C.Name);
  Counters.addTo(C.H);
}

//===----------------------------------------------------------------------===//
// Query surface
//===----------------------------------------------------------------------===//

void PointsToSolver::pointsToMerged(MethodId M, ValueId V,
                                    std::vector<IKId> &Out) const {
  const size_t First = Out.size();
  const std::span<const CGNodeId> Nodes = CG.nodesOf(M);
  for (CGNodeId N : Nodes)
    pointsToOfLocal(N, V).appendTo(Out);
  // One context's view is already sorted and duplicate-free.
  if (Nodes.size() > 1) {
    std::sort(Out.begin() + First, Out.end());
    Out.erase(std::unique(Out.begin() + First, Out.end()), Out.end());
  }
}

std::span<const MethodId>
PointsToSolver::intrinsicCalleesAt(StmtId Site) const {
  const auto [B, E] =
      std::equal_range(IntrSites.begin(), IntrSites.end(), Site);
  return {IntrCallees.data() + (B - IntrSites.begin()),
          static_cast<size_t>(E - B)};
}

//===----------------------------------------------------------------------===//
// Basic lattice operations
//===----------------------------------------------------------------------===//

void PointsToSolver::growTablesSlow() {
  // Keys intern one at a time, so pad the growth: the inline growTables()
  // check stays false until the tables are genuinely outgrown, and this
  // slow path (five vector resizes) runs O(log N) times per solve
  // instead of once per interned key. Slots beyond PKs.size() are empty,
  // which every consumer tolerates.
  size_t N = PKs.size() + PKs.size() / 2 + 64;
  if (Pts.capacity() == 0) {
    // First growth: reserve to the same program-size estimate the key
    // tables use, so the steady intern stream reallocates these tables a
    // couple of times instead of once per doubling.
    size_t Hint = size_t(P.numStmts()) * 2 + 256;
    if (Hint > N) {
      Pts.reserve(Hint);
      CopySuccs.reserve(Hint);
      UseRowOf.reserve(Hint);
      Delta.reserve(Hint);
      OnWorklist.reserve(Hint);
    }
  }
  Pts.resize(N);
  CopySuccs.resize(N);
  UseRowOf.resize(N, NoRow);
  Delta.resize(N);
  OnWorklist.resize(N, false);
}

bool PointsToSolver::CopyPairSet::insert(PKId From, PKId To) {
  if ((Filled + 1) * 3 >= Slots.size() * 2) {
    std::vector<uint64_t> Old = std::move(Slots);
    Slots.assign(Old.empty() ? 1024 : Old.size() * 2, 0);
    for (uint64_t K : Old)
      if (K != 0)
        Slots[slotOf(K)] = K;
  }
  const uint64_t Key = (static_cast<uint64_t>(From) << 32) | To;
  uint64_t &Slot = Slots[slotOf(Key)];
  if (Slot == Key)
    return false;
  Slot = Key;
  ++Filled;
  return true;
}

size_t PointsToSolver::CopyPairSet::slotOf(uint64_t Key) const {
  const size_t Mask = Slots.size() - 1;
  size_t I = internMix(Key) & Mask;
  while (Slots[I] != 0 && Slots[I] != Key)
    I = (I + 1) & Mask;
  return I;
}

void PointsToSolver::enqueue(PKId PK) {
  if (!OnWorklist[PK]) {
    OnWorklist[PK] = true;
    Worklist.push_back(PK);
  }
}

bool PointsToSolver::insertPointsTo(PKId PK, IKId IK) {
  growTables();
  if (!Pts[PK].insert(IK))
    return false;
  Counters.addTo(HPtsEntries);
  Delta[PK].push_back(IK);
  enqueue(PK);
  return true;
}

void PointsToSolver::unionInto(PKId From, PKId To) {
  // NewBitsScratch is exclusively this function's: nothing downstream of
  // the unionWith (counter bump, delta append, enqueue) can re-enter here.
  NewBitsScratch.clear();
  if (!Pts[To].unionWith(Pts[From], NewBitsScratch))
    return;
  Counters.addTo(HPtsEntries, NewBitsScratch.size());
  // Ascending append — the same delta order the old engine produced by
  // copying the sorted source set and inserting element-wise.
  Delta[To].append(NewBitsScratch.data(),
                   NewBitsScratch.data() + NewBitsScratch.size());
  enqueue(To);
}

void PointsToSolver::addCopyEdge(PKId From, PKId To) {
  growTables();
  if (From == To)
    return;
  if (!CopyEdges.insert(From, To))
    return;
  CopySuccs[From].push_back(To);
  // Propagate the current set immediately (in place; the union never
  // touches Pts[From] since From != To).
  unionInto(From, To);
}

PKId PointsToSolver::channelKey(IKId Base, Symbol Chan) {
  size_t Before = PKs.size();
  PKId PK = PKs.channel(Base, Chan);
  if (PKs.size() > Before) {
    growTables();
    Channels[Base].push_back(PK);
    // Wire up any wildcard readers already registered on this instance.
    auto It = WildcardReaders.find(Base);
    if (It != WildcardReaders.end())
      for (PKId Reader : It->second)
        addCopyEdge(PK, Reader);
  }
  return PK;
}

const std::vector<PKId> &PointsToSolver::channelsOf(IKId IK) const {
  static const std::vector<PKId> Empty;
  auto It = Channels.find(IK);
  return It == Channels.end() ? Empty : It->second;
}

void PointsToSolver::addWildcardReader(IKId IK, PKId Dst) {
  auto &Readers = WildcardReaders[IK];
  if (std::find(Readers.begin(), Readers.end(), Dst) != Readers.end())
    return;
  Readers.push_back(Dst);
  for (PKId Chan : channelsOf(IK))
    addCopyEdge(Chan, Dst);
}

IKId PointsToSolver::syntheticIK(StmtId Site, ClassId Cls) {
  InstanceKeyData D;
  D.Kind = IKKind::Synthetic;
  D.Site = Site;
  D.Cls = Cls;
  return IKs.intern(D);
}

//===----------------------------------------------------------------------===//
// Constant-string tracking (for dictionary keys and reflection, §4.2)
//===----------------------------------------------------------------------===//

const ConstStringResult &PointsToSolver::constStrings() const {
  static const ConstStringResult None;
  if (Opts.ConstStrings)
    return *Opts.ConstStrings;
  return OwnedConstStr ? *OwnedConstStr : None;
}

Symbol PointsToSolver::constStringOf(MethodId M, ValueId V) const {
  return constStrings().valueOf(M, V);
}

Symbol PointsToSolver::mapChannel(CGNodeId Caller, const Instruction &I,
                                  size_t KeyArg) {
  if (KeyArg >= I.Args.size())
    return WildChan;
  Symbol Lit = constStringOf(CG.node(Caller).M, I.Args[KeyArg]);
  if (Lit == ~0u)
    return WildChan;
  Counters.addTo(HMapKeysResolved);
  std::string Name = "@map:";
  Name += P.Pool.str(Lit);
  return internSym(Name);
}

/// Records one unresolved reflective call site (§4.2.3) both as the
/// aggregate reflection.unresolved counter and as a per-site key
/// ("reflection.unresolved_site.<Class.method>#<stmt>") surfaced through
/// --stats-json, so users can see which sites the analysis gave up on.
/// The aggregate goes through a pre-resolved handle and the per-site key
/// string is built only once per (method, stmt); repeat hits pay two
/// array increments, not two string-keyed map lookups.
void PointsToSolver::noteUnresolvedReflection(CGNodeId Caller, StmtId Site) {
  Counters.addTo(HReflUnresolved);
  const MethodId M = CG.node(Caller).M;
  const uint64_t Key = (static_cast<uint64_t>(M) << 32) | Site;
  auto It = ReflSiteHandles.find(Key);
  if (It == ReflSiteHandles.end()) {
    Stats::Handle H =
        Counters.handle("reflection.unresolved_site." + P.methodName(M) +
                        "#" + std::to_string(Site));
    It = ReflSiteHandles.emplace(Key, H).first;
  }
  Counters.addTo(It->second);
}

//===----------------------------------------------------------------------===//
// Node management
//===----------------------------------------------------------------------===//

CGNodeId PointsToSolver::ensureNode(MethodId M, CtxId Ctx) {
  bool IsNew = false;
  CGNodeId N = CG.ensureNode(M, Ctx, IsNew);
  if (IsNew) {
    PKs.openNode(N, P.Methods[M].NumValues);
    Counters.addTo(HCgNodes);
    Prio->onNodeCreated(N);
  }
  return N;
}

void PointsToSolver::addCallEdge(CGNodeId Caller, StmtId Site,
                                 CGNodeId Callee) {
  if (CG.addEdge(Caller, Site, Callee))
    Prio->onEdgeAdded(Caller, Callee);
}

bool PointsToSolver::isMethodProcessed(MethodId M) const {
  for (CGNodeId N : CG.nodesOf(M))
    if (CG.node(N).ConstraintsAdded)
      return true;
  return false;
}

//===----------------------------------------------------------------------===//
// Main loop
//===----------------------------------------------------------------------===//

void PointsToSolver::solve(const std::vector<MethodId> &Entries) {
  assert(!Solved && "solve() called twice");
  Solved = true;
  try {
    run(Entries);
  } catch (...) {
    // An unexpected failure (e.g. bad_alloc) still leaves a queryable,
    // underapproximate solution behind.
    freeze();
    throw;
  }
  freeze();
}

void PointsToSolver::run(const std::vector<MethodId> &Entries) {
  const uint64_t Work0 = Opts.Guard ? Opts.Guard->checkpointCount() : 0;
  // The phase's pool symbols begin where its string analysis began: the
  // caller's, or the fallback below.
  PoolBase = Opts.ConstStrings ? Opts.ConstStrings->poolBase()
                               : static_cast<uint32_t>(P.Pool.size());
  WildChan = internSym("@map:*");
  ElemChan = internSym("@elem");
  RunSym = internSym("run");
  if (!Opts.ConstStrings) {
    // No precomputed facts (directly constructed solver): fall back to
    // the historical per-method ConstStr+Copy inference. Computed before
    // solving, which reads them.
    ConstStringOptions CSO;
    CSO.Mode = StringAnalysisMode::Local;
    OwnedConstStr = std::make_unique<ConstStringResult>(
        analyzeConstStrings(P, CHA, CSO));
  }
  CG.setGuard(Opts.Guard);
  Prio = std::make_unique<PriorityManager>(P, CG, Opts.Prioritized);
  for (MethodId E : Entries)
    ensureNode(E, EverywhereCtx);

  while (!Prio->empty()) {
    if (Opts.MaxCallGraphNodes != 0 &&
        CG.numProcessed() >= Opts.MaxCallGraphNodes) {
      BudgetHit = true;
      Counters.add("cg.budget_hit");
      break;
    }
    if (Opts.Guard && !Opts.Guard->checkpoint()) {
      // Deadline/memory/cancellation cutoff: the call graph (and thus the
      // analysis) is deliberately underapproximate, like a node budget.
      BudgetHit = true;
      Counters.add("cg.guard_stop");
      break;
    }
    CGNodeId N = Prio->pop();
    CG.markProcessed(N);
    Counters.addTo(HCgProcessed);
    addConstraints(N);
    // Solve before relaxing priorities: virtual dispatch discovers callee
    // nodes during propagation, and the locality rule must see them.
    propagate();
    Prio->onNodeProcessed(N);
  }
  propagate();
  PoolEnd = static_cast<uint32_t>(P.Pool.size());
  PhaseWork = constStrings().work() +
              (Opts.Guard ? Opts.Guard->checkpointCount() - Work0 : 0);
}

void PointsToSolver::freeze() {
  const uint32_t NumKeys = static_cast<uint32_t>(PKs.size());
  size_t Chunks = 0;
  for (PKId K = 0; K < NumKeys && K < Pts.size(); ++K)
    Chunks += Pts[K].numChunks();
  PointsToColumn Col;
  Col.reserve(NumKeys, Chunks);
  static const SparseBitSet Empty;
  for (PKId K = 0; K < NumKeys; ++K)
    Col.append(K < Pts.size() ? Pts[K] : Empty);
  Frozen = std::move(Col);

  // The intrinsic dispatch log, stably sorted by site so each site keeps
  // its first-dispatch order, is re-appended without repeated callees;
  // the columns ascend by site all along, so intrinsicCalleesAt() answers
  // "seen already?".
  std::vector<std::pair<StmtId, MethodId>> Log;
  Log.reserve(IntrSites.size());
  for (size_t I = 0; I < IntrSites.size(); ++I)
    Log.emplace_back(IntrSites[I], IntrCallees[I]);
  std::stable_sort(Log.begin(), Log.end(), [](const auto &A, const auto &B) {
    return A.first < B.first;
  });
  IntrSites = {};
  IntrCallees = {};
  for (const auto &[Site, Callee] : Log) {
    const std::span<const MethodId> Seen = intrinsicCalleesAt(Site);
    if (std::find(Seen.begin(), Seen.end(), Callee) != Seen.end())
      continue;
    IntrSites.push_back(Site);
    IntrCallees.push_back(Callee);
  }

  Counters.add("pts.copy_edges", CopyEdges.size());
  Counters.add("pts.transfers", NumTransfers);
  Counters.add("pts.dispatches", NumDispatches);
  Counters.add("cg.edges", CG.numEdges());

  // Drop everything only solving reads.
  Pts = {};
  CopySuccs = {};
  CopyEdges = {};
  UseRowOf = {};
  UseRows = {};
  Delta = {};
  OnWorklist = {};
  Worklist = {};
  NewBitsScratch = {};
  SnapScratch = {};
  MovedScratch = {};
  Channels = {};
  WildcardReaders = {};
  Invokes = {};
  InvokeIndex = {};
  InvokeByMethodPK = {};
  InvokeByArrayPK = {};
  ReflSiteHandles = {};
  Prio.reset();
  CG.freeze(static_cast<uint32_t>(P.Methods.size()), P.numStmts());
}

void PointsToSolver::propagate() {
  growTables();
  while (!Worklist.empty()) {
    if (Opts.Guard && !Opts.Guard->checkpoint()) {
      // Leave the remaining frontier unprocessed; points-to sets stay an
      // underapproximation of the fixpoint, which every client tolerates.
      Counters.add("pts.guard_stop");
      break;
    }
    PKId PK = Worklist.back();
    Worklist.pop_back();
    OnWorklist[PK] = false;
    // Swap the pending delta into a recycled buffer: Delta[PK] inherits
    // the scratch's spent capacity, so the pop loop stops allocating once
    // the buffers have warmed up.
    MovedScratch.clear();
    MovedScratch.swap(Delta[PK]);
    for (IKId IK : MovedScratch) {
      // Indexed loop: insertPointsTo may grow the per-PK tables, which
      // would invalidate a reference into CopySuccs.
      for (size_t E = 0; E < CopySuccs[PK].size(); ++E) {
        ++NumTransfers;
        insertPointsTo(CopySuccs[PK][E], IK);
      }
      handleNewPointsTo(PK, IK);
    }
  }
}

void PointsToSolver::handleNewPointsTo(PKId PK, IKId IK) {
  growTables();
  if (UseRowOf[PK] != NoRow) {
    // Only addConstraints registers uses, so no action below moves or
    // grows this row.
    const UseRow &Row = UseRows[UseRowOf[PK]];
    for (const LoadUse &LU : Row.Loads)
      applyLoadUse(IK, LU);
    for (const StoreUse &SU : Row.Stores)
      applyStoreUse(IK, SU);
    for (const CallUse &CU : Row.Calls) {
      dispatchCall(CU, IK);
      growTables();
    }
  }
  // Most programs never register a reflective invoke, so skip the two hash
  // probes this loop would otherwise pay per propagated member.
  if (InvokeByMethodPK.empty() && InvokeByArrayPK.empty())
    return;
  auto InvM = InvokeByMethodPK.find(PK);
  if (InvM != InvokeByMethodPK.end()) {
    const InstanceKeyData &D = IKs.data(IK);
    if (D.Kind == IKKind::MethodObj) {
      for (uint32_t Idx : InvM->second) {
        MethodId Target = D.Extra;
        const Method &TM = P.Methods[Target];
        if (!TM.hasBody())
          continue;
        InvokeSite &IS = Invokes[Idx];
        CGNodeId TN = ensureNode(Target, Ctxs.callSite(IS.Site));
        if (std::find(IS.Targets.begin(), IS.Targets.end(), TN) ==
            IS.Targets.end()) {
          IS.Targets.push_back(TN);
          addCallEdge(IS.Caller, IS.Site, TN);
          invokeBind(IS, TN);
        }
      }
    }
  }
  auto InvA = InvokeByArrayPK.find(PK);
  if (InvA != InvokeByArrayPK.end()) {
    for (uint32_t Idx : InvA->second) {
      InvokeSite &IS = Invokes[Idx];
      if (std::find(IS.ArgArrays.begin(), IS.ArgArrays.end(), IK) !=
          IS.ArgArrays.end())
        continue;
      IS.ArgArrays.push_back(IK);
      for (CGNodeId TN : IS.Targets)
        invokeBindArray(IS, TN, IK);
    }
  }
}

//===----------------------------------------------------------------------===//
// Constraint generation
//===----------------------------------------------------------------------===//

PointsToSolver::UseRow &PointsToSolver::useRow(PKId PK) {
  if (UseRowOf[PK] == NoRow) {
    UseRowOf[PK] = static_cast<uint32_t>(UseRows.size());
    UseRows.emplace_back();
  }
  return UseRows[UseRowOf[PK]];
}

void PointsToSolver::applyLoadUse(IKId IK, const LoadUse &LU) {
  const PKId Src =
      LU.K == LoadUse::Field ? PKs.field(IK, LU.F) : PKs.arrayElem(IK);
  addCopyEdge(Src, LU.Dst);
  growTables();
}

void PointsToSolver::applyStoreUse(IKId IK, const StoreUse &SU) {
  const PKId Dst =
      SU.K == StoreUse::Field ? PKs.field(IK, SU.F) : PKs.arrayElem(IK);
  addCopyEdge(SU.Src, Dst);
  growTables();
}

// The register*Use functions snapshot the base set into the shared
// SnapScratch buffer instead of copying it into a fresh vector. The
// actions fired per member (addCopyEdge / dispatch / intrinsic models)
// never re-enter a register*Use — they are called from addConstraints
// only — so one buffer suffices and the hot path performs no allocation
// once the buffer has grown.

void PointsToSolver::registerLoadUse(PKId Base, LoadUse LU) {
  growTables();
  useRow(Base).Loads.push_back(LU);
  SnapScratch.clear();
  Pts[Base].appendTo(SnapScratch);
  for (IKId IK : SnapScratch)
    applyLoadUse(IK, LU);
}

void PointsToSolver::registerStoreUse(PKId Base, StoreUse SU) {
  growTables();
  useRow(Base).Stores.push_back(SU);
  SnapScratch.clear();
  Pts[Base].appendTo(SnapScratch);
  for (IKId IK : SnapScratch)
    applyStoreUse(IK, SU);
}

void PointsToSolver::registerCallUse(PKId Recv, CallUse CU) {
  growTables();
  useRow(Recv).Calls.push_back(CU);
  SnapScratch.clear();
  Pts[Recv].appendTo(SnapScratch);
  for (IKId IK : SnapScratch) {
    dispatchCall(CU, IK);
    growTables();
  }
}

void PointsToSolver::addConstraints(CGNodeId N) {
  // By value: call dispatch below can create new call-graph nodes, and the
  // vector growth would invalidate a reference into CG.Nodes.
  const CGNode Node = CG.node(N);
  const Method &M = P.Methods[Node.M];
  if (!M.hasBody())
    return;
  auto L = [&](ValueId V) { return PKs.local(N, V); };

  StmtId Stmt = P.methodStmtBegin(Node.M);
  for (const BasicBlock &BB : M.Blocks) {
    for (const Instruction &I : BB.Insts) {
      StmtId Site = Stmt++;
      switch (I.Op) {
      case Opcode::ConstStr: {
        if (StringClass != InvalidId) {
          InstanceKeyData D;
          D.Kind = IKKind::Alloc;
          D.Site = Site;
          D.Cls = StringClass;
          insertPointsTo(L(I.Dst), IKs.intern(D));
        }
        break;
      }
      case Opcode::New: {
        InstanceKeyData D;
        D.Kind = IKKind::Alloc;
        D.Site = Site;
        D.Heap = Policy.heapContextForAlloc(M, Node.Ctx);
        D.Cls = I.Cls;
        insertPointsTo(L(I.Dst), IKs.intern(D));
        break;
      }
      case Opcode::NewArray: {
        InstanceKeyData D;
        D.Kind = IKKind::Array;
        D.Site = Site;
        D.Heap = Policy.heapContextForAlloc(M, Node.Ctx);
        D.Cls = I.Cls;
        insertPointsTo(L(I.Dst), IKs.intern(D));
        break;
      }
      case Opcode::Copy:
        addCopyEdge(L(I.Args[0]), L(I.Dst));
        break;
      case Opcode::Phi:
        for (ValueId A : I.Args)
          if (A != NoValue)
            addCopyEdge(L(A), L(I.Dst));
        break;
      case Opcode::Load:
        registerLoadUse(L(I.Args[0]), {LoadUse::Field, I.Field, L(I.Dst)});
        break;
      case Opcode::Store:
        registerStoreUse(L(I.Args[0]), {StoreUse::Field, I.Field,
                                        L(I.Args[1])});
        break;
      case Opcode::ArrayLoad:
        registerLoadUse(L(I.Args[0]), {LoadUse::Array, 0, L(I.Dst)});
        break;
      case Opcode::ArrayStore:
        registerStoreUse(L(I.Args[0]), {StoreUse::Array, 0, L(I.Args[1])});
        break;
      case Opcode::StaticLoad:
        addCopyEdge(PKs.staticField(I.Field), L(I.Dst));
        break;
      case Opcode::StaticStore:
        addCopyEdge(L(I.Args[0]), PKs.staticField(I.Field));
        break;
      case Opcode::Return:
        if (!I.Args.empty())
          addCopyEdge(L(I.Args[0]), PKs.ret(N));
        break;
      case Opcode::Caught:
        if (ExceptionClass != InvalidId)
          insertPointsTo(L(I.Dst), syntheticIK(Site, ExceptionClass));
        break;
      case Opcode::Call: {
        if (I.CKind == CallKind::Static) {
          MethodId Callee = CHA.resolveVirtual(I.Cls, I.CalleeName);
          if (Callee == InvalidId) {
            bump(CallUnresolved);
            break;
          }
          dispatchResolved(N, Site, I, Callee, InvalidId);
          break;
        }
        MethodId Exact = InvalidId;
        if (I.CKind == CallKind::Special) {
          Exact = CHA.resolveVirtual(I.Cls, I.CalleeName);
          if (Exact == InvalidId) {
            bump(CallUnresolved);
            break;
          }
        }
        registerCallUse(L(I.Args[0]), {N, Site, &I, Exact});
        break;
      }
      default:
        break;
      }
    }
  }
}

void PointsToSolver::dispatchCall(const CallUse &CU, IKId RecvIK) {
  ++NumDispatches;
  const Instruction &I = *CU.I;
  MethodId Callee = CU.Exact;
  if (Callee == InvalidId) {
    Callee = CHA.resolveVirtual(IKs.data(RecvIK).Cls, I.CalleeName);
    if (Callee == InvalidId) {
      bump(CallUnresolved);
      return;
    }
  }
  dispatchResolved(CU.Caller, CU.Site, I, Callee, RecvIK);
}

void PointsToSolver::dispatchResolved(CGNodeId Caller, StmtId Site,
                                      const Instruction &I, MethodId Callee,
                                      IKId RecvIK) {
  const Method &CalM = P.Methods[Callee];
  if (Opts.ExcludeWhitelisted &&
      P.Classes[CalM.Owner].is(classflags::Whitelisted)) {
    bump(CallWhitelistSkipped);
    return;
  }
  if (CalM.Intr != Intrinsic::None || !CalM.hasBody()) {
    IntrSites.push_back(Site);
    IntrCallees.push_back(Callee);
    applyIntrinsic(Caller, Site, I, CalM, RecvIK);
    return;
  }
  CtxId Ctx = Policy.selectCalleeContext(CalM, Site, RecvIK);
  bindCall(Caller, Site, I, Callee, Ctx, RecvIK);
}

void PointsToSolver::bindCall(CGNodeId Caller, StmtId Site,
                              const Instruction &I, MethodId Callee,
                              CtxId CalleeCtx, IKId RecvIK) {
  CGNodeId CalleeNode = ensureNode(Callee, CalleeCtx);
  addCallEdge(Caller, Site, CalleeNode);
  const Method &CalM = P.Methods[Callee];
  uint32_t Start = 0;
  if (RecvIK != InvalidId) {
    // Dispatch-filtered receiver binding: only the instance key that
    // resolved here flows into the formal receiver.
    if (CalM.NumParams > 0)
      insertPointsTo(PKs.local(CalleeNode, 0), RecvIK);
    Start = 1;
  }
  for (uint32_t K = Start; K < CalM.NumParams && K < I.Args.size(); ++K)
    addCopyEdge(PKs.local(Caller, I.Args[K]),
                PKs.local(CalleeNode, static_cast<ValueId>(K)));
  if (I.Dst != NoValue)
    addCopyEdge(PKs.ret(CalleeNode), PKs.local(Caller, I.Dst));
}

//===----------------------------------------------------------------------===//
// Synthetic models (§4.2)
//===----------------------------------------------------------------------===//

void PointsToSolver::invokeBind(InvokeSite &IS, CGNodeId Target) {
  const Instruction &I = *IS.I;
  const Method &TM = P.Methods[CG.node(Target).M];
  // invoke(methodObj, recv, argsArray)
  if (!TM.IsStatic && TM.NumParams > 0 && I.Args.size() > 1)
    addCopyEdge(PKs.local(IS.Caller, I.Args[1]), PKs.local(Target, 0));
  if (I.Dst != NoValue)
    addCopyEdge(PKs.ret(Target), PKs.local(IS.Caller, I.Dst));
  for (IKId Arr : IS.ArgArrays)
    invokeBindArray(IS, Target, Arr);
}

void PointsToSolver::invokeBindArray(InvokeSite &IS, CGNodeId Target,
                                     IKId ArrIK) {
  (void)IS;
  const Method &TM = P.Methods[CG.node(Target).M];
  uint32_t Start = TM.IsStatic ? 0 : 1;
  for (uint32_t K = Start; K < TM.NumParams; ++K)
    addCopyEdge(PKs.arrayElem(ArrIK),
                PKs.local(Target, static_cast<ValueId>(K)));
}

void PointsToSolver::applyIntrinsic(CGNodeId Caller, StmtId Site,
                                    const Instruction &I, const Method &CalM,
                                    IKId RecvIK) {
  auto L = [&](ValueId V) { return PKs.local(Caller, V); };
  size_t Off = CalM.IsStatic ? 0 : 1; // first real argument index
  ClassId RetCls =
      CalM.RetType.isRefLike() ? CalM.RetType.Cls : StringClass;

  switch (CalM.Intr) {
  case Intrinsic::None:
    // Bodiless non-intrinsic (native/abstract): default model returns a
    // fresh object of the declared return type.
    if (I.Dst != NoValue && CalM.RetType.isRefLike())
      insertPointsTo(L(I.Dst), syntheticIK(Site, CalM.RetType.Cls));
    bump(CallNativeDefault);
    break;
  case Intrinsic::Identity:
    if (I.Dst != NoValue)
      for (ValueId A : I.Args)
        addCopyEdge(L(A), L(I.Dst));
    break;
  case Intrinsic::StringTransfer:
  case Intrinsic::Sanitize:
  case Intrinsic::SourceReturn:
  case Intrinsic::GetMessage:
    if (I.Dst != NoValue && RetCls != InvalidId)
      insertPointsTo(L(I.Dst), syntheticIK(Site, RetCls));
    break;
  case Intrinsic::SinkConsume:
    break;
  case Intrinsic::MapPut: {
    if (RecvIK == InvalidId || I.Args.size() < Off + 2)
      break;
    Symbol Chan = mapChannel(Caller, I, Off);
    addCopyEdge(L(I.Args[Off + 1]), channelKey(RecvIK, Chan));
    break;
  }
  case Intrinsic::MapGet: {
    if (RecvIK == InvalidId || I.Dst == NoValue || I.Args.size() < Off + 1)
      break;
    Symbol Lit = constStringOf(CG.node(Caller).M, I.Args[Off]);
    if (Lit != ~0u) {
      Counters.addTo(HMapKeysResolved);
      std::string Name = "@map:";
      Name += P.Pool.str(Lit);
      Symbol Chan = internSym(Name);
      addCopyEdge(channelKey(RecvIK, Chan), L(I.Dst));
      addCopyEdge(channelKey(RecvIK, WildChan), L(I.Dst));
    } else {
      // Unknown key: reads every channel, present and future.
      addWildcardReader(RecvIK, L(I.Dst));
    }
    break;
  }
  case Intrinsic::CollAdd:
    if (RecvIK != InvalidId && I.Args.size() >= Off + 1)
      addCopyEdge(L(I.Args[Off]), channelKey(RecvIK, ElemChan));
    break;
  case Intrinsic::CollGet:
    if (RecvIK != InvalidId && I.Dst != NoValue)
      addCopyEdge(channelKey(RecvIK, ElemChan), L(I.Dst));
    break;
  case Intrinsic::ClassForName: {
    if (I.Dst == NoValue || I.Args.size() < Off + 1)
      break;
    Symbol Lit = constStringOf(CG.node(Caller).M, I.Args[Off]);
    if (Lit == ~0u) {
      noteUnresolvedReflection(Caller, Site);
      break;
    }
    ClassId Target = P.findClass(P.Pool.str(Lit));
    if (Target == InvalidId) {
      noteUnresolvedReflection(Caller, Site);
      break;
    }
    Counters.addTo(HReflResolved);
    InstanceKeyData D;
    D.Kind = IKKind::ClassObj;
    D.Cls = CalM.RetType.isRefLike() ? CalM.RetType.Cls : InvalidId;
    D.Extra = Target;
    insertPointsTo(L(I.Dst), IKs.intern(D));
    break;
  }
  case Intrinsic::GetMethod: {
    if (RecvIK == InvalidId || I.Dst == NoValue || I.Args.size() < Off + 1)
      break;
    const InstanceKeyData &RD = IKs.data(RecvIK);
    if (RD.Kind != IKKind::ClassObj)
      break;
    Symbol Lit = constStringOf(CG.node(Caller).M, I.Args[Off]);
    if (Lit == ~0u) {
      noteUnresolvedReflection(Caller, Site);
      break;
    }
    MethodId Target = CHA.resolveVirtual(RD.Extra, Lit);
    if (Target == InvalidId) {
      noteUnresolvedReflection(Caller, Site);
      break;
    }
    Counters.addTo(HReflResolved);
    InstanceKeyData D;
    D.Kind = IKKind::MethodObj;
    D.Cls = CalM.RetType.isRefLike() ? CalM.RetType.Cls : InvalidId;
    D.Extra = Target;
    insertPointsTo(L(I.Dst), IKs.intern(D));
    break;
  }
  case Intrinsic::MethodInvoke: {
    if (RecvIK == InvalidId)
      break;
    // Find or create the invoke state for this (caller, site).
    uint64_t Key = (static_cast<uint64_t>(Caller) << 32) | Site;
    auto It = InvokeIndex.find(Key);
    uint32_t Idx;
    if (It == InvokeIndex.end()) {
      Idx = static_cast<uint32_t>(Invokes.size());
      InvokeSite IS;
      IS.Caller = Caller;
      IS.Site = Site;
      IS.I = &I;
      Invokes.push_back(IS);
      InvokeIndex.emplace(Key, Idx);
      // Register interest in the args array (I.Args[2]).
      if (I.Args.size() > 2) {
        PKId ArrPK = L(I.Args[2]);
        InvokeByArrayPK[ArrPK].push_back(Idx);
        // Local snapshot (not SnapScratch — this can run inside a
        // registerCallUse iteration that owns that buffer).
        std::vector<IKId> Cur;
        growTables();
        const SparseBitSet &Set = Pts[ArrPK];
        Cur.reserve(Set.count());
        Set.appendTo(Cur);
        for (IKId AIK : Cur) {
          InvokeSite &IS2 = Invokes[Idx];
          if (std::find(IS2.ArgArrays.begin(), IS2.ArgArrays.end(), AIK) ==
              IS2.ArgArrays.end())
            IS2.ArgArrays.push_back(AIK);
        }
      }
      // Register interest in the Method object (the receiver PK).
      InvokeByMethodPK[L(I.Args[0])].push_back(Idx);
    } else {
      Idx = It->second;
    }
    // Handle the Method object that triggered this dispatch.
    const InstanceKeyData &RD = IKs.data(RecvIK);
    if (RD.Kind != IKKind::MethodObj)
      break;
    MethodId Target = RD.Extra;
    if (!P.Methods[Target].hasBody())
      break;
    InvokeSite &IS = Invokes[Idx];
    CGNodeId TN = ensureNode(Target, Ctxs.callSite(Site));
    if (std::find(IS.Targets.begin(), IS.Targets.end(), TN) ==
        IS.Targets.end()) {
      IS.Targets.push_back(TN);
      addCallEdge(Caller, Site, TN);
      invokeBind(IS, TN);
    }
    break;
  }
  case Intrinsic::ThreadStart: {
    if (RecvIK == InvalidId)
      break;
    MethodId Run = CHA.resolveVirtual(IKs.data(RecvIK).Cls, RunSym);
    if (Run == InvalidId || !P.Methods[Run].hasBody())
      break;
    CtxId Ctx = Policy.selectCalleeContext(P.Methods[Run], Site, RecvIK);
    CGNodeId TN = ensureNode(Run, Ctx);
    addCallEdge(Caller, Site, TN);
    if (P.Methods[Run].NumParams > 0)
      insertPointsTo(PKs.local(TN, 0), RecvIK);
    bump(ModelThreadStart);
    break;
  }
  case Intrinsic::JndiLookup: {
    if (I.Dst == NoValue || I.Args.size() < Off + 1)
      break;
    Symbol Lit = constStringOf(CG.node(Caller).M, I.Args[Off]);
    if (Lit == ~0u)
      break;
    auto It = Opts.JndiBindings.find(std::string(P.Pool.str(Lit)));
    if (It == Opts.JndiBindings.end())
      break;
    InstanceKeyData D;
    D.Kind = IKKind::Singleton;
    D.Cls = It->second;
    D.Extra = It->second;
    insertPointsTo(L(I.Dst), IKs.intern(D));
    bump(ModelJndiLookup);
    break;
  }
  case Intrinsic::HomeCreate: {
    if (I.Dst == NoValue)
      break;
    ClassId Bean = RetCls;
    if (RecvIK != InvalidId) {
      auto It = Opts.EjbHomeToBean.find(IKs.data(RecvIK).Cls);
      if (It != Opts.EjbHomeToBean.end())
        Bean = It->second;
    }
    if (Bean != InvalidId)
      insertPointsTo(L(I.Dst), syntheticIK(Site, Bean));
    bump(ModelHomeCreate);
    break;
  }
  }
}
