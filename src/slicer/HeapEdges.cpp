//===- slicer/HeapEdges.cpp ------------------------------------*- C++ -*-===//

#include "slicer/HeapEdges.h"
#include "support/Csr.h"
#include "support/RunGuard.h"

#include <algorithm>

using namespace taj;

namespace {

bool intersects(std::span<const IKId> A, std::span<const IKId> B) {
  size_t I = 0, J = 0;
  while (I < A.size() && J < B.size()) {
    if (A[I] == B[J])
      return true;
    if (A[I] < B[J])
      ++I;
    else
      ++J;
  }
  return false;
}

/// One indexed load (build-only). Its base points-to set is the
/// BaseSize entries of the build's one buffer from BaseBegin on.
struct LoadInfo {
  SDGNodeId Node;
  FieldId Field;
  Symbol MapKey; ///< ~0u = non-constant key (SDG::constKeyOf): channels
                 ///< with distinct resolved keys never connect
  uint32_t BaseBegin = 0, BaseSize = 0;
};

/// The heap graph of §4.1.1 as instance-key successors: row I of
/// (\p Off, \p Succ) holds, ascending and once each, the keys a field,
/// array element or channel of I may point to.
void heapSuccessors(const PointsToSolver &Solver, std::vector<uint32_t> &Off,
                    std::vector<IKId> &Succ) {
  const PointerKeyTable &PKs = Solver.pointerKeys();
  const size_t NumIKs = Solver.instanceKeys().size();
  std::vector<uint32_t> LogBase;
  std::vector<IKId> LogTarget;
  for (PKId PK = 0; PK < PKs.size(); ++PK) {
    const PointerKeyData &D = PKs.data(PK);
    if ((D.Kind != PKKind::Field && D.Kind != PKKind::ArrayElem &&
         D.Kind != PKKind::Channel) ||
        D.A >= NumIKs)
      continue;
    for (IKId Target : Solver.pointsTo(PK)) {
      LogBase.push_back(D.A);
      LogTarget.push_back(Target);
    }
  }
  csrFromLog(LogBase, LogTarget, NumIKs, Off, Succ);
  // Sort and deduplicate each row, compacting the column in place.
  uint32_t Kept = 0;
  for (size_t R = 0; R < NumIKs; ++R) {
    const auto Begin = Succ.begin() + Off[R], End = Succ.begin() + Off[R + 1];
    std::sort(Begin, End);
    Off[R] = Kept;
    Kept = static_cast<uint32_t>(
        std::move(Begin, std::unique(Begin, End), Succ.begin() + Kept) -
        Succ.begin());
  }
  Off[NumIKs] = Kept;
  Succ.resize(Kept);
}

} // namespace

HeapEdges::HeapEdges(const Program &P, const SDG &G,
                     const PointsToSolver &Solver, uint32_t NestedDepth,
                     RunGuard *Guard)
    : G(G) {
  const size_t NumStores = G.storeNodes().size();
  LoadOff.reserve(NumStores + 1);
  SinkOff.reserve(NumStores + 1);
  LoadOff.push_back(0);
  SinkOff.push_back(0);
  build(P, Solver, NestedDepth, Guard);
  // A cutoff leaves the remaining stores with empty adjacency.
  LoadOff.resize(NumStores + 1, static_cast<uint32_t>(LoadEdges.size()));
  SinkOff.resize(NumStores + 1, static_cast<uint32_t>(SinkEdges.size()));
}

void HeapEdges::build(const Program &P, const PointsToSolver &Solver,
                      uint32_t NestedDepth, RunGuard *Guard) {
  // Index all loads by access class, their base sets in one buffer.
  std::vector<LoadInfo> FieldLoads, StaticLoads, ArrayLoads, MapGets,
      CollGets;
  std::vector<IKId> Bases;
  for (SDGNodeId L : G.loadNodes()) {
    if (Guard && !Guard->checkpoint())
      return; // cutoff: unindexed loads simply lose their heap hops
    const SDGNode &N = G.node(L);
    LoadInfo LI{L, P.stmt(N.S).Field, ~0u};
    LI.BaseBegin = static_cast<uint32_t>(Bases.size());
    G.basePointsTo(L, Bases); // statics have no base: nothing appended
    LI.BaseSize = static_cast<uint32_t>(Bases.size()) - LI.BaseBegin;
    switch (N.Access) {
    case HeapAccess::FieldLoad:
      FieldLoads.push_back(LI);
      break;
    case HeapAccess::StaticLoad:
      StaticLoads.push_back(LI);
      break;
    case HeapAccess::ArrayLoad:
    case HeapAccess::InvokeArgsRead:
      ArrayLoads.push_back(LI);
      break;
    case HeapAccess::MapGet:
      LI.MapKey = G.constKeyOf(L);
      MapGets.push_back(LI);
      break;
    case HeapAccess::CollGet:
      CollGets.push_back(LI);
      break;
    default:
      break;
    }
  }
  // Invert sink-argument heap reachability: ik -> sinks whose sensitive
  // actuals reach it within the nested-taint depth (§4.1.1 steps 1-2),
  // logged per sink and sorted into a CSR over instance keys. A store
  // whose base sits at heap depth d puts the data at dereference depth
  // d+1, so the base must lie within NestedDepth-1 (§6.2.3).
  const size_t NumIKs = Solver.instanceKeys().size();
  std::vector<uint32_t> SuccOff;
  std::vector<IKId> Succ;
  if (NestedDepth != 0)
    heapSuccessors(Solver, SuccOff, Succ);
  // Seen[ik] is the stamp of the last sink whose walk met ik.
  std::vector<uint32_t> Seen(NumIKs, 0);
  uint32_t Stamp = 0;
  std::vector<uint32_t> LogIK;
  std::vector<SDGNodeId> LogSink;
  std::vector<IKId> ArgIKs;
  auto Visit = [&](IKId IK) {
    if (Seen[IK] != Stamp) {
      Seen[IK] = Stamp;
      LogIK.push_back(IK);
    }
  };
  for (SDGNodeId SkNode : G.sinkNodes()) {
    if (Guard && !Guard->checkpoint())
      return; // cutoff: remaining sinks get no carrier edges
    if (NestedDepth == 0)
      continue;
    const SDGNode &N = G.node(SkNode);
    const Instruction &I = P.stmt(N.S);
    uint32_t Mask = 0;
    for (MethodId T : Solver.intrinsicCalleesAt(N.S))
      if (P.Methods[T].SinkRules)
        Mask |= P.Methods[T].SinkParamMask;
    for (MethodId T : Solver.callGraph().calleesAt(N.S))
      if (P.Methods[T].SinkRules)
        Mask |= P.Methods[T].SinkParamMask;
    ArgIKs.clear();
    for (uint32_t K = 0; K < I.Args.size(); ++K)
      if (Mask & (1u << K))
        G.argPointsTo(SkNode, K, ArgIKs);
    // The walk appends the keys it meets to LogIK level by level, so each
    // key is met first at its least depth, and a key first reached
    // through a longer path is still expanded within the bound.
    ++Stamp;
    size_t Head = LogIK.size();
    for (IKId IK : ArgIKs)
      Visit(IK);
    for (uint32_t Depth = 0; Depth + 1 < NestedDepth && Head < LogIK.size();
         ++Depth)
      for (const size_t LevelEnd = LogIK.size(); Head < LevelEnd; ++Head) {
        const IKId IK = LogIK[Head];
        for (uint32_t E = SuccOff[IK]; E < SuccOff[IK + 1]; ++E)
          Visit(Succ[E]);
      }
    LogSink.resize(LogIK.size(), SkNode);
  }
  std::vector<uint32_t> IkSinkOff;
  std::vector<SDGNodeId> IkSinks;
  csrFromLog(LogIK, LogSink, NumIKs, IkSinkOff, IkSinks);

  // Materialize every store's adjacency now: slicing only reads it.
  const std::span<const IKId> LoadBases(Bases);
  std::vector<IKId> Base;
  for (SDGNodeId Store : G.storeNodes()) {
    if (Guard && !Guard->checkpoint()) {
      // Cutoff: this store contributes no heap edges.
      LoadOff.push_back(static_cast<uint32_t>(LoadEdges.size()));
      SinkOff.push_back(static_cast<uint32_t>(SinkEdges.size()));
      continue;
    }
    const SDGNode &N = G.node(Store);
    const Instruction &I = P.stmt(N.S);
    Base.clear();
    G.basePointsTo(Store, Base);
    auto AddLoads = [&](const std::vector<LoadInfo> &Loads, auto Match) {
      for (const LoadInfo &L : Loads)
        if (Match(L))
          LoadEdges.push_back(L.Node);
    };
    auto Aliases = [&](const LoadInfo &L) {
      return intersects(Base, LoadBases.subspan(L.BaseBegin, L.BaseSize));
    };
    switch (N.Access) {
    case HeapAccess::StaticStore:
      AddLoads(StaticLoads,
               [&](const LoadInfo &L) { return L.Field == I.Field; });
      break;
    case HeapAccess::FieldStore:
      AddLoads(FieldLoads, [&](const LoadInfo &L) {
        return L.Field == I.Field && Aliases(L);
      });
      break;
    case HeapAccess::ArrayStore:
      AddLoads(ArrayLoads, Aliases);
      break;
    case HeapAccess::MapPut: {
      const Symbol PutKey = G.constKeyOf(Store);
      AddLoads(MapGets, [&](const LoadInfo &L) {
        return (PutKey == ~0u || L.MapKey == ~0u || PutKey == L.MapKey) &&
               Aliases(L);
      });
      break;
    }
    case HeapAccess::CollAdd:
      AddLoads(CollGets, Aliases);
      break;
    default:
      break;
    }
    // Statics have no base object, so no carrier edges.
    const size_t First = SinkEdges.size();
    for (IKId IK : Base)
      SinkEdges.insert(SinkEdges.end(), IkSinks.begin() + IkSinkOff[IK],
                       IkSinks.begin() + IkSinkOff[IK + 1]);
    std::sort(SinkEdges.begin() + First, SinkEdges.end());
    SinkEdges.erase(std::unique(SinkEdges.begin() + First, SinkEdges.end()),
                    SinkEdges.end());
    LoadOff.push_back(static_cast<uint32_t>(LoadEdges.size()));
    SinkOff.push_back(static_cast<uint32_t>(SinkEdges.size()));
  }
}

std::span<const SDGNodeId>
HeapEdges::adjacency(SDGNodeId Store, const std::vector<uint32_t> &Off,
                     const std::vector<SDGNodeId> &Col) const {
  const std::vector<SDGNodeId> &Stores = G.storeNodes();
  auto It = std::lower_bound(Stores.begin(), Stores.end(), Store);
  if (It == Stores.end() || *It != Store)
    return {};
  const size_t R = It - Stores.begin();
  return {Col.data() + Off[R], Off[R + 1] - Off[R]};
}
