//===- sdg/SDG.cpp - SDG construction --------------------------*- C++ -*-===//

#include "sdg/SDG.h"
#include "support/Csr.h"
#include "support/RunGuard.h"

#include <algorithm>
#include <cassert>

using namespace taj;

ValueId taj::heapBaseValue(const Instruction &I, HeapAccess A) {
  switch (A) {
  case HeapAccess::FieldStore:
  case HeapAccess::FieldLoad:
  case HeapAccess::ArrayStore:
  case HeapAccess::ArrayLoad:
  case HeapAccess::MapPut:
  case HeapAccess::MapGet:
  case HeapAccess::CollAdd:
  case HeapAccess::CollGet:
    return I.Args.empty() ? NoValue : I.Args[0];
  case HeapAccess::InvokeArgsRead:
    return I.Args.size() > 2 ? I.Args[2] : NoValue;
  case HeapAccess::StaticStore:
  case HeapAccess::StaticLoad:
  case HeapAccess::None:
    break;
  }
  return NoValue;
}

namespace taj {

/// Builds an SDG in place. Node lookup is arithmetic over each owner's
/// skeleton block; edges go to one log that finish() sorts into the CSR.
class SdgBuilder {
public:
  SdgBuilder(SDG &G, const Program &P, const ClassHierarchy &CHA,
             const PointsToSolver &Solver, const SDGOptions &Opts)
      : G(G), P(P), CHA(CHA), Solver(Solver), Opts(Opts) {}

  /// Builds the graph; every exit, cutoffs and a channel-budget overflow
  /// included, ends in finish().
  void build() {
    buildParts();
    finish();
  }

private:
  SDGNodeId addNode(const SDGNode &N) {
    G.Nodes.push_back(N);
    return static_cast<SDGNodeId>(G.Nodes.size() - 1);
  }
  void addEdge(SDGNodeId From, SDGNodeId To, SDGEdgeKind K) {
    EdgeFrom.push_back(From);
    EdgeLog.push_back({To, K});
  }

  SDGNodeId formalIn(SDGOwnerId O, uint32_t K) const {
    return OwnerBase[O] + K;
  }
  SDGNodeId formalOut(SDGOwnerId O) const {
    return OwnerBase[O] + P.Methods[G.Owners[O].M].NumParams;
  }
  SDGNodeId stmtNode(SDGOwnerId O, StmtId S) const {
    return formalOut(O) + 1 + (S - P.methodStmtBegin(G.Owners[O].M));
  }
  /// Channel formals are created in (in, out) pairs per owner.
  SDGNodeId chanFormalIn(SDGOwnerId O, uint32_t Idx) const {
    return ChanBase[O] + 2 * Idx;
  }
  SDGNodeId chanFormalOut(SDGOwnerId O, uint32_t Idx) const {
    return ChanBase[O] + 2 * Idx + 1;
  }

  /// Owners of the body'd callees at call statement \p Site of owner \p O,
  /// in call-graph edge order (a buffer reused across calls).
  const std::vector<SDGOwnerId> &calleeOwners(SDGOwnerId O, StmtId Site);

  void buildParts();
  void createSkeleton();
  void wireOwner(SDGOwnerId O);
  void wireCall(SDGOwnerId O, StmtId Site, const Instruction &I);
  void buildChannels();
  void computeOwnerChannels();
  ChanAccess chanAccessOf(SDGNodeId N);
  void finish();

  SDG &G;
  const Program &P;
  const ClassHierarchy &CHA;
  const PointsToSolver &Solver;
  const SDGOptions &Opts;
  /// cg node -> owner (expanded scope); method -> owner (merged scope).
  std::vector<SDGOwnerId> OwnerIndex;
  /// Owner -> its first skeleton node (formal-in 0) / first channel formal.
  std::vector<SDGNodeId> OwnerBase, ChanBase;
  /// The edge log: edge I runs from EdgeFrom[I].
  std::vector<SDGNodeId> EdgeFrom;
  std::vector<SDGEdge> EdgeLog;
  /// Reused per owner: SSA value -> defining node.
  std::vector<SDGNodeId> DefNode;
  std::vector<SDGOwnerId> Callees;
  /// Call site -> its target owners (CSR, appended as sites are created);
  /// read only while the CS channels are built.
  std::vector<uint32_t> SiteTargetOff{0};
  std::vector<SDGOwnerId> SiteTargets;
  /// CS only: per-owner channel signatures while they are computed, each
  /// skeleton node's channel accesses, and the channel-plumbing log.
  std::vector<std::vector<uint64_t>> OwnerChans;
  std::vector<ChanAccess> StmtChans;
  /// chanAccessOf's buffer for one statement's base points-to set.
  std::vector<IKId> Bases;
  struct ChanPlumb {
    uint64_t Sig;
    SDGNodeId Out;
  };
  std::vector<uint32_t> PlumbSite;
  std::vector<ChanPlumb> PlumbLog;
};

} // namespace taj

//===----------------------------------------------------------------------===//
// SDG public interface
//===----------------------------------------------------------------------===//

SDG::SDG(const Program &P, const ClassHierarchy &CHA,
         const PointsToSolver &Solver, SDGOptions Opts)
    : P(P), Solver(Solver), Opts(Opts) {
  SdgBuilder B(*this, P, CHA, Solver, this->Opts);
  B.build();
}

SDGNodeId SDG::actualOutFor(const CallSiteInfo &CS,
                            SDGNodeId CalleeOut) const {
  const SDGNode &N = Nodes[CalleeOut];
  if (N.Kind == SDGNodeKind::FormalOut)
    return CS.StmtNode;
  if (N.Kind == SDGNodeKind::ChanFormalOut) {
    const uint32_t First = OwnerChanOff[N.Owner];
    if (N.Index >= OwnerChanOff[N.Owner + 1] - First)
      return InvalidId;
    const uint64_t Sig = OwnerChanSigs[First + N.Index];
    const size_t Site = &CS - CallSites.data();
    for (uint32_t K = ChanSiteOff[Site]; K < ChanSiteOff[Site + 1]; ++K)
      if (ChanSiteSigs[K] == Sig)
        return ChanSiteOuts[K];
  }
  return InvalidId;
}

std::vector<SDGNodeId> SDG::sourceNodes(RuleMask Rule) const {
  std::vector<SDGNodeId> Out;
  for (SDGNodeId N = 0; N < Nodes.size(); ++N)
    if ((Nodes[N].SourceMask & Rule) && Nodes[N].Kind == SDGNodeKind::Stmt)
      Out.push_back(N);
  return Out;
}

void SDG::valuePointsTo(SDGNodeId N, ValueId V, std::vector<IKId> &Out) const {
  const OwnerInfo &OI = Owners[Nodes[N].Owner];
  if (OI.CgNode != InvalidId)
    Solver.pointsToOfLocal(OI.CgNode, V).appendTo(Out);
  else
    Solver.pointsToMerged(OI.M, V, Out);
}

void SDG::basePointsTo(SDGNodeId N, std::vector<IKId> &Out) const {
  const SDGNode &Node = Nodes[N];
  const ValueId Base = heapBaseValue(P.stmt(Node.S), Node.Access);
  if (Base != NoValue)
    valuePointsTo(N, Base, Out);
}

void SDG::argPointsTo(SDGNodeId N, uint32_t ArgIdx,
                      std::vector<IKId> &Out) const {
  const Instruction &I = P.stmt(Nodes[N].S);
  if (ArgIdx < I.Args.size())
    valuePointsTo(N, I.Args[ArgIdx], Out);
}

Symbol SDG::constKeyOf(SDGNodeId N) const {
  const SDGNode &Node = Nodes[N];
  const Instruction &I = P.stmt(Node.S);
  size_t Off = 1; // map intrinsics are instance methods in the model
  for (MethodId T : Solver.intrinsicCalleesAt(Node.S))
    if (P.Methods[T].Intr == Intrinsic::MapPut ||
        P.Methods[T].Intr == Intrinsic::MapGet)
      Off = P.Methods[T].IsStatic ? 0 : 1;
  if (I.Args.size() <= Off)
    return ~0u;
  return Solver.constStringOf(Node.M, I.Args[Off]);
}

std::string SDG::nodeToString(SDGNodeId NId) const {
  const SDGNode &N = Nodes[NId];
  std::string Out;
  switch (N.Kind) {
  case SDGNodeKind::Stmt: {
    Out = "stmt " + P.methodName(N.M) + "#" + std::to_string(N.S);
    if (N.SourceMask)
      Out += " [source]";
    if (N.SinkMask)
      Out += " [sink]";
    if (N.SanitizeMask)
      Out += " [sanitizer]";
    if (N.Access != HeapAccess::None) {
      static const char *Names[] = {"",           "fieldstore", "fieldload",
                                    "arraystore", "arrayload", "staticstore",
                                    "staticload", "mapput",     "mapget",
                                    "colladd",    "collget",    "invokeargs"};
      Out += std::string(" [") + Names[static_cast<int>(N.Access)] + "]";
    }
    break;
  }
  case SDGNodeKind::ActualIn:
    Out = "actual-in(" + std::to_string(N.Index) + ") @" +
          std::to_string(N.S);
    break;
  case SDGNodeKind::FormalIn:
    Out = "formal-in(" + std::to_string(N.Index) + ") " + P.methodName(N.M);
    break;
  case SDGNodeKind::FormalOut:
    Out = "formal-out " + P.methodName(N.M);
    break;
  case SDGNodeKind::ChanFormalIn:
    Out = "chan-formal-in " + P.methodName(N.M);
    break;
  case SDGNodeKind::ChanFormalOut:
    Out = "chan-formal-out " + P.methodName(N.M);
    break;
  case SDGNodeKind::ChanActualIn:
    Out = "chan-actual-in @" + std::to_string(N.S);
    break;
  case SDGNodeKind::ChanActualOut:
    Out = "chan-actual-out @" + std::to_string(N.S);
    break;
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Builder
//===----------------------------------------------------------------------===//

const std::vector<SDGOwnerId> &SdgBuilder::calleeOwners(SDGOwnerId O,
                                                        StmtId Site) {
  Callees.clear();
  auto Add = [&](uint32_t Key) {
    const SDGOwnerId T = OwnerIndex[Key];
    if (T != InvalidId &&
        std::find(Callees.begin(), Callees.end(), T) == Callees.end())
      Callees.push_back(T);
  };
  const SDG::OwnerInfo &OI = G.Owners[O];
  if (OI.CgNode != InvalidId) {
    for (const CGEdge &E : Solver.callGraph().edges(OI.CgNode))
      if (E.Site == Site)
        Add(E.Callee);
    return Callees;
  }
  for (MethodId T : Solver.callGraph().calleesAt(Site))
    Add(T);
  return Callees;
}

void SdgBuilder::buildParts() {
  // Enumerate owners.
  if (Opts.ContextExpanded) {
    const CallGraph &CG = Solver.callGraph();
    OwnerIndex.assign(CG.numNodes(), InvalidId);
    for (CGNodeId N = 0; N < CG.numNodes(); ++N) {
      const CGNode &Node = CG.node(N);
      if (!Node.ConstraintsAdded || !P.Methods[Node.M].hasBody())
        continue;
      OwnerIndex[N] = static_cast<SDGOwnerId>(G.Owners.size());
      G.Owners.push_back({Node.M, N});
    }
  } else {
    OwnerIndex.assign(P.Methods.size(), InvalidId);
    for (MethodId M = 0; M < P.Methods.size(); ++M) {
      if (!P.Methods[M].hasBody() || !Solver.isMethodProcessed(M))
        continue;
      OwnerIndex[M] = static_cast<SDGOwnerId>(G.Owners.size());
      G.Owners.push_back({M, InvalidId});
    }
  }
  createSkeleton();
  G.SiteOf.assign(G.Nodes.size(), InvalidId);
  EdgeFrom.reserve(2 * G.Nodes.size());
  EdgeLog.reserve(2 * G.Nodes.size());
  for (SDGOwnerId O = 0; O < G.Owners.size(); ++O) {
    if (Opts.Guard && !Opts.Guard->checkpoint())
      return; // cutoff: remaining owners stay unwired (partial graph)
    wireOwner(O);
  }
  if (Opts.WithChanParams)
    buildChannels();
}

void SdgBuilder::createSkeleton() {
  size_t Total = 0;
  for (const SDG::OwnerInfo &OI : G.Owners)
    Total += P.Methods[OI.M].NumParams + 1 + P.methodStmtEnd(OI.M) -
             P.methodStmtBegin(OI.M);
  G.Nodes.reserve(Total);
  OwnerBase.resize(G.Owners.size());
  for (SDGOwnerId O = 0; O < G.Owners.size(); ++O) {
    const MethodId M = G.Owners[O].M;
    OwnerBase[O] = static_cast<SDGNodeId>(G.Nodes.size());
    SDGNode N;
    N.Owner = O;
    N.M = M;
    N.Kind = SDGNodeKind::FormalIn;
    for (uint32_t K = 0; K < P.Methods[M].NumParams; ++K) {
      N.Index = K;
      addNode(N);
    }
    N.Kind = SDGNodeKind::FormalOut;
    N.Index = 0;
    addNode(N);
    N.Kind = SDGNodeKind::Stmt;
    for (StmtId S = P.methodStmtBegin(M); S < P.methodStmtEnd(M); ++S) {
      N.S = S;
      addNode(N);
    }
  }
}

void SdgBuilder::wireOwner(SDGOwnerId O) {
  MethodId M = G.Owners[O].M;
  const Method &Meth = P.Methods[M];
  DefNode.assign(Meth.NumValues, InvalidId);
  for (uint32_t K = 0; K < Meth.NumParams; ++K)
    DefNode[K] = formalIn(O, K);
  {
    SDGNodeId N = stmtNode(O, P.methodStmtBegin(M));
    for (const BasicBlock &BB : Meth.Blocks)
      for (const Instruction &I : BB.Insts) {
        if (I.Dst != NoValue)
          DefNode[I.Dst] = N;
        ++N;
      }
  }

  auto Use = [&](ValueId V, SDGNodeId To) {
    if (V == NoValue)
      return;
    SDGNodeId D = DefNode[V];
    if (D != InvalidId)
      addEdge(D, To, SDGEdgeKind::Flow);
  };

  StmtId S = P.methodStmtBegin(M);
  SDGNodeId C = stmtNode(O, S);
  for (const BasicBlock &BB : Meth.Blocks) {
    for (const Instruction &I : BB.Insts) {
      StmtId Site = S++;
      switch (I.Op) {
      case Opcode::Copy:
      case Opcode::Phi:
      case Opcode::Binop:
        for (ValueId A : I.Args)
          Use(A, C);
        break;
      case Opcode::Store:
        G.Nodes[C].Access = HeapAccess::FieldStore;
        Use(I.Args[1], C); // value only; base-pointer dep excluded
        break;
      case Opcode::ArrayStore:
        G.Nodes[C].Access = HeapAccess::ArrayStore;
        Use(I.Args[1], C);
        break;
      case Opcode::StaticStore:
        G.Nodes[C].Access = HeapAccess::StaticStore;
        Use(I.Args[0], C);
        break;
      case Opcode::Load:
        G.Nodes[C].Access = HeapAccess::FieldLoad;
        break; // no incoming data edges in the no-heap SDG
      case Opcode::ArrayLoad:
        G.Nodes[C].Access = HeapAccess::ArrayLoad;
        break;
      case Opcode::StaticLoad:
        G.Nodes[C].Access = HeapAccess::StaticLoad;
        break;
      case Opcode::Return:
        if (!I.Args.empty())
          Use(I.Args[0], formalOut(O));
        break;
      case Opcode::Caught:
        if (Opts.ModelExceptionSources)
          G.Nodes[C].SourceMask |= rules::LEAK;
        break;
      case Opcode::Call:
        wireCall(O, Site, I);
        break;
      default:
        break;
      }
      switch (G.Nodes[C].Access) {
      case HeapAccess::FieldStore:
      case HeapAccess::ArrayStore:
      case HeapAccess::StaticStore:
      case HeapAccess::MapPut:
      case HeapAccess::CollAdd:
        G.Stores.push_back(C);
        break;
      case HeapAccess::FieldLoad:
      case HeapAccess::ArrayLoad:
      case HeapAccess::StaticLoad:
      case HeapAccess::MapGet:
      case HeapAccess::CollGet:
      case HeapAccess::InvokeArgsRead:
        G.Loads.push_back(C);
        break;
      default:
        break;
      }
      if (G.Nodes[C].SinkMask != rules::None)
        G.Sinks.push_back(C);
      ++C;
    }
  }
}

void SdgBuilder::wireCall(SDGOwnerId O, StmtId Site, const Instruction &I) {
  SDGNodeId C = stmtNode(O, Site);
  auto Use = [&](ValueId V, SDGNodeId To) {
    if (V == NoValue)
      return;
    SDGNodeId D = DefNode[V];
    if (D != InvalidId)
      addEdge(D, To, SDGEdgeKind::Flow);
  };

  const std::span<const MethodId> Intr = Solver.intrinsicCalleesAt(Site);
  const std::vector<SDGOwnerId> &Targets = calleeOwners(O, Site);
  G.Nodes[C].Access = classifyAccess(P, I, Intr);

  bool IsInvoke = false;
  uint32_t SinkArgMask = 0;
  RuleMask SrcMask = rules::None, SinkMask = rules::None,
           SanMask = rules::None;
  for (MethodId T : Intr) {
    const Method &TM = P.Methods[T];
    SrcMask |= TM.SourceRules;
    SanMask |= TM.SanitizerRules;
    if (TM.SinkRules) {
      SinkMask |= TM.SinkRules;
      SinkArgMask |= TM.SinkParamMask;
    }
    size_t Off = TM.IsStatic ? 0 : 1;
    switch (TM.Intr) {
    case Intrinsic::Identity:
    case Intrinsic::StringTransfer:
    case Intrinsic::Sanitize:
    case Intrinsic::None: // default native model: result derives from args
      for (ValueId A : I.Args)
        Use(A, C);
      break;
    case Intrinsic::MapPut:
      if (I.Args.size() > Off + 1)
        Use(I.Args[Off + 1], C);
      break;
    case Intrinsic::CollAdd:
      if (I.Args.size() > Off)
        Use(I.Args[Off], C);
      break;
    case Intrinsic::ClassForName:
    case Intrinsic::GetMethod:
    case Intrinsic::JndiLookup:
    case Intrinsic::HomeCreate:
      for (size_t K = Off; K < I.Args.size(); ++K)
        Use(I.Args[K], C);
      break;
    case Intrinsic::MethodInvoke:
      IsInvoke = true;
      break;
    default:
      break;
    }
  }
  for (SDGOwnerId T : Targets) {
    const Method &TM = P.Methods[G.Owners[T].M];
    SrcMask |= TM.SourceRules;
    SanMask |= TM.SanitizerRules;
    if (TM.SinkRules) {
      SinkMask |= TM.SinkRules;
      SinkArgMask |= TM.SinkParamMask;
    }
  }
  G.Nodes[C].SourceMask |= SrcMask;
  G.Nodes[C].SinkMask |= SinkMask;
  G.Nodes[C].SanitizeMask |= SanMask;
  if (G.Nodes[C].SinkMask != rules::None)
    for (uint32_t K = 0; K < I.Args.size(); ++K)
      if (SinkArgMask & (1u << K))
        Use(I.Args[K], C);

  if (Targets.empty())
    return;

  CallSiteInfo CS;
  CS.StmtNode = C;
  CS.FirstActualIn = static_cast<SDGNodeId>(G.Nodes.size());
  G.Nodes[C].IsCall = true;
  G.SiteOf[C] = static_cast<uint32_t>(G.CallSites.size());
  SiteTargets.insert(SiteTargets.end(), Targets.begin(), Targets.end());
  SiteTargetOff.push_back(static_cast<uint32_t>(SiteTargets.size()));

  SDGNode AN;
  AN.Kind = SDGNodeKind::ActualIn;
  AN.Owner = O;
  AN.M = G.Owners[O].M;
  AN.S = Site;
  AN.Aux = C;
  if (IsInvoke) {
    // invoke(methodObj, recv, argsArray): the receiver flows via an
    // actual-in; the argument array flows via the heap (this node is an
    // InvokeArgsRead load) into every formal of every target.
    if (I.Args.size() > 1) {
      AN.Index = 1;
      SDGNodeId AIn = addNode(AN);
      ++CS.NumActualIns;
      Use(I.Args[1], AIn);
      for (SDGOwnerId T : Targets) {
        const Method &TM = P.Methods[G.Owners[T].M];
        if (TM.IsStatic || TM.NumParams == 0)
          continue;
        addEdge(AIn, formalIn(T, 0), SDGEdgeKind::ParamIn);
      }
    }
    for (SDGOwnerId T : Targets) {
      const Method &TM = P.Methods[G.Owners[T].M];
      for (uint32_t K = TM.IsStatic ? 0 : 1; K < TM.NumParams; ++K)
        addEdge(C, formalIn(T, K), SDGEdgeKind::ParamIn);
      addEdge(formalOut(T), C, SDGEdgeKind::ParamOut);
    }
    G.CallSites.push_back(CS);
    return;
  }

  for (uint32_t K = 0; K < I.Args.size(); ++K) {
    AN.Index = K;
    SDGNodeId AIn = addNode(AN);
    ++CS.NumActualIns;
    Use(I.Args[K], AIn);
    for (SDGOwnerId T : Targets) {
      if (K >= P.Methods[G.Owners[T].M].NumParams)
        continue;
      addEdge(AIn, formalIn(T, K), SDGEdgeKind::ParamIn);
    }
  }
  for (SDGOwnerId T : Targets)
    addEdge(formalOut(T), C, SDGEdgeKind::ParamOut);
  G.CallSites.push_back(CS);
}

void SdgBuilder::finish() {
  const size_t NumNodes = G.Nodes.size();
  csrFromLog(EdgeFrom, EdgeLog, NumNodes, G.SuccOff, G.SuccEdges);
  G.SiteOf.resize(NumNodes, InvalidId);

  std::vector<ChanPlumb> Plumbs;
  csrFromLog(PlumbSite, PlumbLog, G.CallSites.size(), G.ChanSiteOff, Plumbs);
  G.ChanSiteSigs.resize(Plumbs.size());
  G.ChanSiteOuts.resize(Plumbs.size());
  for (size_t K = 0; K < Plumbs.size(); ++K) {
    G.ChanSiteSigs[K] = Plumbs[K].Sig;
    G.ChanSiteOuts[K] = Plumbs[K].Out;
  }

  G.OwnerChanOff.assign(1, 0);
  G.OwnerChanOff.reserve(G.Owners.size() + 1);
  for (SDGOwnerId O = 0; O < G.Owners.size(); ++O) {
    if (O < OwnerChans.size())
      G.OwnerChanSigs.insert(G.OwnerChanSigs.end(), OwnerChans[O].begin(),
                             OwnerChans[O].end());
    G.OwnerChanOff.push_back(static_cast<uint32_t>(G.OwnerChanSigs.size()));
  }
}

//===----------------------------------------------------------------------===//
// CS channel extension
//===----------------------------------------------------------------------===//

ChanAccess SdgBuilder::chanAccessOf(SDGNodeId N) {
  ChanAccess CA;
  const SDGNode &Node = G.Nodes[N];
  const Instruction &I = P.stmt(Node.S);
  Bases.clear();
  G.basePointsTo(N, Bases); // statics have no base: nothing appended
  switch (Node.Access) {
  case HeapAccess::FieldStore:
    for (IKId IK : Bases)
      CA.Writes.push_back(chansig::withIK(chansig::field(I.Field), IK));
    break;
  case HeapAccess::FieldLoad:
    for (IKId IK : Bases)
      CA.Reads.push_back(chansig::withIK(chansig::field(I.Field), IK));
    break;
  case HeapAccess::ArrayStore:
    for (IKId IK : Bases)
      CA.Writes.push_back(chansig::withIK(chansig::array(), IK));
    break;
  case HeapAccess::ArrayLoad:
  case HeapAccess::InvokeArgsRead:
    for (IKId IK : Bases)
      CA.Reads.push_back(chansig::withIK(chansig::array(), IK));
    break;
  case HeapAccess::MapPut: {
    Symbol Key = G.constKeyOf(N);
    for (IKId IK : Bases)
      CA.Writes.push_back(chansig::withIK(
          Key != ~0u ? chansig::mapKey(Key) : chansig::map(), IK));
    break;
  }
  case HeapAccess::MapGet: {
    Symbol Key = G.constKeyOf(N);
    for (IKId IK : Bases) {
      if (Key != ~0u)
        CA.Reads.push_back(chansig::withIK(chansig::mapKey(Key), IK));
      CA.Reads.push_back(chansig::withIK(chansig::map(), IK));
    }
    break;
  }
  case HeapAccess::CollAdd:
    for (IKId IK : Bases)
      CA.Writes.push_back(chansig::withIK(chansig::coll(), IK));
    break;
  case HeapAccess::CollGet:
    for (IKId IK : Bases)
      CA.Reads.push_back(chansig::withIK(chansig::coll(), IK));
    break;
  case HeapAccess::StaticStore:
    CA.Writes.push_back(chansig::staticField(I.Field));
    break;
  case HeapAccess::StaticLoad:
    CA.Reads.push_back(chansig::staticField(I.Field));
    break;
  case HeapAccess::None:
    break;
  }
  std::sort(CA.Reads.begin(), CA.Reads.end());
  CA.Reads.erase(std::unique(CA.Reads.begin(), CA.Reads.end()),
                 CA.Reads.end());
  std::sort(CA.Writes.begin(), CA.Writes.end());
  CA.Writes.erase(std::unique(CA.Writes.begin(), CA.Writes.end()),
                  CA.Writes.end());
  return CA;
}

void SdgBuilder::computeOwnerChannels() {
  // Direct accesses per owner (kept sorted throughout); each statement's
  // accesses are kept for the wiring below.
  uint64_t Total = 0;
  OwnerChans.resize(G.Owners.size());
  StmtChans.resize(G.Nodes.size());
  for (SDGOwnerId O = 0; O < G.Owners.size(); ++O) {
    MethodId M = G.Owners[O].M;
    auto &Set = OwnerChans[O];
    for (StmtId S = P.methodStmtBegin(M); S < P.methodStmtEnd(M); ++S) {
      SDGNodeId N = stmtNode(O, S);
      StmtChans[N] = chanAccessOf(N);
      const ChanAccess &CA = StmtChans[N];
      for (const auto *V : {&CA.Reads, &CA.Writes}) {
        for (uint64_t Sig : *V) {
          auto It = std::lower_bound(Set.begin(), Set.end(), Sig);
          if (It == Set.end() || *It != Sig) {
            Set.insert(It, Sig);
            ++Total;
          }
        }
      }
    }
  }
  // Transitive closure over call edges. Owners are iterated in reverse
  // creation order (callees are typically created after callers), which
  // converges in few sweeps for call DAGs; the channel-node budget aborts
  // the closure for heap-heavy programs — CS thin slicing running out of
  // memory, as on TAJ's larger benchmarks.
  bool Changed = true;
  std::vector<uint64_t> Merged;
  while (Changed) {
    Changed = false;
    for (SDGOwnerId OR = G.Owners.size(); OR-- > 0;) {
      SDGOwnerId O = OR;
      auto &Set = OwnerChans[O];
      MethodId M = G.Owners[O].M;
      StmtId S = P.methodStmtBegin(M);
      for (const BasicBlock &BB : P.Methods[M].Blocks) {
        for (const Instruction &I : BB.Insts) {
          StmtId Site = S++;
          if (I.Op != Opcode::Call)
            continue;
          for (SDGOwnerId T : calleeOwners(O, Site)) {
            const auto &TSet = OwnerChans[T];
            Merged.clear();
            std::set_union(Set.begin(), Set.end(), TSet.begin(), TSet.end(),
                           std::back_inserter(Merged));
            if (Merged.size() != Set.size()) {
              Total += Merged.size() - Set.size();
              Set.swap(Merged);
              Changed = true;
            }
          }
        }
      }
      if (Opts.ChanNodeBudget != 0 && Total * 2 > Opts.ChanNodeBudget) {
        G.ChanNodes = Total * 2;
        G.ChanOOM = true;
        return;
      }
    }
  }
}

void SdgBuilder::buildChannels() {
  computeOwnerChannels();
  if (G.ChanOOM)
    return;

  auto ChanIdx = [&](SDGOwnerId O, uint64_t Sig) -> int64_t {
    const std::vector<uint64_t> &V = OwnerChans[O];
    auto It = std::lower_bound(V.begin(), V.end(), Sig);
    if (It == V.end() || *It != Sig)
      return -1;
    return It - V.begin();
  };

  auto Budget = [&](uint64_t N) {
    G.ChanNodes += N;
    if (Opts.ChanNodeBudget != 0 && G.ChanNodes > Opts.ChanNodeBudget) {
      G.ChanOOM = true;
      return false;
    }
    return true;
  };

  ChanBase.resize(G.Owners.size());
  for (SDGOwnerId O = 0; O < G.Owners.size(); ++O) {
    if (Opts.Guard && !Opts.Guard->checkpoint())
      return; // cutoff mid channel extension: partial graph
    ChanBase[O] = static_cast<SDGNodeId>(G.Nodes.size());
    SDGNode N;
    N.Owner = O;
    N.M = G.Owners[O].M;
    for (uint32_t Idx = 0; Idx < OwnerChans[O].size(); ++Idx) {
      if (!Budget(2))
        return;
      N.Index = Idx;
      N.Kind = SDGNodeKind::ChanFormalIn;
      addNode(N);
      N.Kind = SDGNodeKind::ChanFormalOut;
      addNode(N);
    }
  }

  // Wire each owner per channel in statement order ("partially
  // flow-sensitive": a load only sees stores that precede it).
  std::vector<SDGNodeId> Carriers;
  for (SDGOwnerId O = 0; O < G.Owners.size(); ++O) {
    MethodId M = G.Owners[O].M;
    const SDGNodeId First = stmtNode(O, P.methodStmtBegin(M));
    const SDGNodeId End = First + (P.methodStmtEnd(M) - P.methodStmtBegin(M));
    for (uint32_t Idx = 0; Idx < OwnerChans[O].size(); ++Idx) {
      uint64_t Sig = OwnerChans[O][Idx];
      Carriers.assign(1, chanFormalIn(O, Idx));
      for (SDGNodeId C = First; C < End; ++C) {
        const ChanAccess &CA = StmtChans[C];
        if (std::binary_search(CA.Reads.begin(), CA.Reads.end(), Sig))
          for (SDGNodeId Cr : Carriers)
            addEdge(Cr, C, SDGEdgeKind::Flow);
        if (std::binary_search(CA.Writes.begin(), CA.Writes.end(), Sig))
          Carriers.push_back(C);
        const uint32_t SiteIdx = G.SiteOf[C];
        if (SiteIdx == InvalidId)
          continue;
        std::span<const SDGOwnerId> Targets(
            SiteTargets.data() + SiteTargetOff[SiteIdx],
            SiteTargetOff[SiteIdx + 1] - SiteTargetOff[SiteIdx]);
        bool Touches = false;
        for (SDGOwnerId T : Targets)
          if (ChanIdx(T, Sig) >= 0)
            Touches = true;
        if (!Touches)
          continue;
        if (!Budget(2))
          return;
        SDGNode AInN;
        AInN.Kind = SDGNodeKind::ChanActualIn;
        AInN.Owner = O;
        AInN.M = M;
        AInN.S = G.Nodes[C].S;
        AInN.Aux = C;
        SDGNodeId CAI = addNode(AInN);
        SDGNode AOutN;
        AOutN.Kind = SDGNodeKind::ChanActualOut;
        AOutN.Owner = O;
        AOutN.M = M;
        AOutN.S = AInN.S;
        SDGNodeId CAO = addNode(AOutN);
        PlumbSite.push_back(SiteIdx);
        PlumbLog.push_back({Sig, CAO});
        for (SDGNodeId Cr : Carriers)
          addEdge(Cr, CAI, SDGEdgeKind::Flow);
        for (SDGOwnerId T : Targets) {
          int64_t TIdx = ChanIdx(T, Sig);
          if (TIdx < 0)
            continue;
          addEdge(CAI, chanFormalIn(T, static_cast<uint32_t>(TIdx)),
                  SDGEdgeKind::ParamIn);
          addEdge(chanFormalOut(T, static_cast<uint32_t>(TIdx)), CAO,
                  SDGEdgeKind::ParamOut);
        }
        Carriers.push_back(CAO);
      }
      for (SDGNodeId Cr : Carriers)
        addEdge(Cr, chanFormalOut(O, Idx), SDGEdgeKind::Flow);
    }
  }
}
