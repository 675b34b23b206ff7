//===- verify/Verify.cpp - Analysis self-verification ----------*- C++ -*-===//
//
// The checkers re-derive each invariant from the primary artifacts (the
// IR, the class hierarchy, the solved points-to tables) instead of
// trusting any cached intermediate, so a corrupted or stale artifact
// disagrees with the re-derivation even when its checksum is intact.
//
//===----------------------------------------------------------------------===//

#include "verify/Verify.h"

#include "cha/ClassHierarchy.h"
#include "dataflow/ConstString.h"
#include "ir/Verifier.h"
#include "pointsto/Solver.h"
#include "sdg/SDG.h"
#include "slicer/HeapEdges.h"
#include "slicer/Issue.h"
#include "support/Stats.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <deque>
#include <span>
#include <unordered_map>

using namespace taj;
using namespace taj::verify;

const char *verify::verifyModeName(VerifyMode M) {
  switch (M) {
  case VerifyMode::Off:
    return "off";
  case VerifyMode::Fast:
    return "fast";
  case VerifyMode::Full:
    return "full";
  }
  return "off";
}

bool verify::parseVerifyMode(const char *Text, VerifyMode &Out) {
  if (std::strcmp(Text, "off") == 0)
    Out = VerifyMode::Off;
  else if (std::strcmp(Text, "fast") == 0)
    Out = VerifyMode::Fast;
  else if (std::strcmp(Text, "full") == 0)
    Out = VerifyMode::Full;
  else
    return false;
  return true;
}

const char *verify::checkerName(Checker C) {
  switch (C) {
  case Checker::Ir:
    return "ir";
  case Checker::CallGraph:
    return "callgraph";
  case Checker::PointsTo:
    return "pointsto";
  case Checker::Sdg:
    return "sdg";
  case Checker::Heap:
    return "heap";
  case Checker::ConstStr:
    return "conststr";
  case Checker::Witness:
    return "witness";
  }
  return "?";
}

void Violations::report(Checker C, const std::string &Detail) {
  uint64_t &N = Counts[static_cast<unsigned>(C)];
  ++N;
  ++Total;
  if (N <= MaxPrinted)
    std::fprintf(stderr, "verify: %s: %s\n", checkerName(C), Detail.c_str());
  else if (N == MaxPrinted + 1)
    std::fprintf(stderr, "verify: %s: (further violations suppressed)\n",
                 checkerName(C));
}

void Violations::exportStats(Stats &S) const {
  if (Total == 0 && RestoreRejected == 0)
    return; // clean runs leave the stats stream untouched
  S.add("verify.violations", Total);
  for (unsigned C = 0; C < NumCheckers; ++C)
    if (Counts[C])
      S.add(std::string("verify.") + checkerName(static_cast<Checker>(C)) +
                "_violations",
            Counts[C]);
  if (RestoreRejected)
    S.add("persist.verify_rejected", RestoreRejected);
}

//===----------------------------------------------------------------------===//
// IRVerifier
//===----------------------------------------------------------------------===//

void verify::verifyIr(const Program &P, Violations &V) {
  for (const std::string &E : verifyProgram(P))
    V.report(Checker::Ir, E);
}

//===----------------------------------------------------------------------===//
// GraphVerifier: call graph + points-to fixpoint + const strings
//===----------------------------------------------------------------------===//

namespace {

/// One re-applied constraint: Sub must already be folded into Super. The
/// subset test runs word-parallel over the solver's frozen column; a
/// pointer key that was never interned (InvalidId) reads as the empty set
/// on either side — exactly the solver's own semantics for an untouched
/// key.
void checkSubset(const PointsToSolver &S, PKId Sub, PKId Super,
                 const Program &P, MethodId M, const char *What,
                 Violations &V) {
  const PtsView A = S.pointsTo(Sub);
  if (A.empty())
    return;
  if (!S.pointsTo(Super).containsAll(A))
    V.report(Checker::PointsTo,
             "not a fixpoint: " + std::string(What) + " constraint in " +
                 P.methodName(M) + " would add points-to facts");
}

/// Re-applies every constraint the solver derives from the body of
/// processed call-graph node \p N; at a true fixpoint none adds a fact.
void recheckNodeConstraints(const Program &P, const PointsToSolver &S,
                            CGNodeId N, Violations &V) {
  const CGNode &Node = S.callGraph().node(N);
  const Method &M = P.Methods[Node.M];
  const PointerKeyTable &PKs = S.pointerKeys();
  auto L = [&](ValueId Val) { return PKs.localLookup(N, Val); };

  StmtId Stmt = P.methodStmtBegin(Node.M);
  for (const BasicBlock &BB : M.Blocks) {
    for (const Instruction &I : BB.Insts) {
      StmtId Site = Stmt++;
      switch (I.Op) {
      case Opcode::New:
      case Opcode::NewArray: {
        // The allocation fact itself must be present (heap context elided:
        // only the policy knows it, but (kind, site, class) is unique
        // enough to witness the insertion happened).
        const IKKind Want =
            I.Op == Opcode::New ? IKKind::Alloc : IKKind::Array;
        bool Found = false;
        for (IKId IK : S.pointsTo(L(I.Dst))) {
          const InstanceKeyData &D = S.instanceKeys().data(IK);
          if (D.Kind == Want && D.Site == Site && D.Cls == I.Cls) {
            Found = true;
            break;
          }
        }
        if (!Found)
          V.report(Checker::PointsTo,
                   "not a fixpoint: allocation fact missing in " +
                       P.methodName(Node.M));
        break;
      }
      case Opcode::Copy:
        checkSubset(S, L(I.Args[0]), L(I.Dst), P, Node.M, "copy", V);
        break;
      case Opcode::Phi:
        for (ValueId A : I.Args)
          if (A != NoValue)
            checkSubset(S, L(A), L(I.Dst), P, Node.M, "phi", V);
        break;
      case Opcode::Load:
        for (IKId IK : S.pointsTo(L(I.Args[0])))
          checkSubset(S, PKs.lookup({PKKind::Field, IK, I.Field}), L(I.Dst),
                      P, Node.M, "field load", V);
        break;
      case Opcode::Store:
        for (IKId IK : S.pointsTo(L(I.Args[0])))
          checkSubset(S, L(I.Args[1]), PKs.lookup({PKKind::Field, IK, I.Field}),
                      P, Node.M, "field store", V);
        break;
      case Opcode::ArrayLoad:
        for (IKId IK : S.pointsTo(L(I.Args[0])))
          checkSubset(S, PKs.lookup({PKKind::ArrayElem, IK, 0}), L(I.Dst), P,
                      Node.M, "array load", V);
        break;
      case Opcode::ArrayStore:
        for (IKId IK : S.pointsTo(L(I.Args[0])))
          checkSubset(S, L(I.Args[1]), PKs.lookup({PKKind::ArrayElem, IK, 0}),
                      P, Node.M, "array store", V);
        break;
      case Opcode::StaticLoad:
        checkSubset(S, PKs.lookup({PKKind::Static, I.Field, 0}), L(I.Dst), P,
                    Node.M, "static load", V);
        break;
      case Opcode::StaticStore:
        checkSubset(S, L(I.Args[0]), PKs.lookup({PKKind::Static, I.Field, 0}),
                    P, Node.M, "static store", V);
        break;
      case Opcode::Return:
        if (!I.Args.empty())
          checkSubset(S, L(I.Args[0]), PKs.lookup({PKKind::Ret, N, 0}), P,
                      Node.M, "return", V);
        break;
      default:
        break;
      }
    }
  }
}

/// One call-graph edge must be justified by CHA dispatch over the receiver
/// points-to set at its site (or by the reflective-invoke / Thread.start
/// models). Returns true when the edge additionally carries the normal
/// parameter-binding contract (checked by the caller).
bool justifyCallEdge(const Program &P, const ClassHierarchy &CHA,
                     const PointsToSolver &S, CGNodeId Caller,
                     const CGEdge &E, Violations &V) {
  const CallGraph &CG = S.callGraph();
  const MethodId CalleeM = CG.node(E.Callee).M;
  const MethodId CallerM = CG.node(Caller).M;
  auto Flag = [&](const char *Why) {
    V.report(Checker::CallGraph,
             std::string("phantom call edge ") + P.methodName(CallerM) +
                 " -> " + P.methodName(CalleeM) + ": " + Why);
    return false;
  };

  if (E.Site >= P.numStmts() ||
      !(E.Site >= P.methodStmtBegin(CallerM) &&
        E.Site < P.methodStmtEnd(CallerM)))
    return Flag("call site is not a statement of the caller");
  const Instruction &I = P.stmt(E.Site);
  if (I.Op != Opcode::Call)
    return Flag("call site is not a call instruction");
  if (!P.Methods[CalleeM].hasBody() ||
      P.Methods[CalleeM].Intr != Intrinsic::None)
    return Flag("callee has no analyzable body");

  if (I.CKind == CallKind::Static) {
    if (CHA.resolveVirtual(I.Cls, I.CalleeName) != CalleeM)
      return Flag("outside the CHA cone of a static call");
    return true;
  }

  if (I.Args.empty())
    return Flag("virtual call without a receiver");
  const PtsView Recv = S.pointsToOfLocal(Caller, I.Args[0]);
  const Symbol RunSym = P.Pool.lookup("run");
  const MethodId Exact = I.CKind == CallKind::Special
                             ? CHA.resolveVirtual(I.Cls, I.CalleeName)
                             : InvalidId;
  for (IKId IK : Recv) {
    const InstanceKeyData &D = S.instanceKeys().data(IK);
    // Normal dispatch: some receiver instance resolves here.
    if (I.CKind == CallKind::Special ? Exact == CalleeM
                                     : CHA.resolveVirtual(D.Cls,
                                                          I.CalleeName) ==
                                           CalleeM)
      return true;
    // Reflective invoke: a Method object naming the callee.
    if (D.Kind == IKKind::MethodObj && D.Extra == CalleeM)
      return false; // justified; custom arg binding, skip param checks
    // Thread.start -> run() model.
    if (RunSym != ~0u && CHA.resolveVirtual(D.Cls, RunSym) == CalleeM)
      return false; // justified; no argument binding to check
  }
  Flag("no receiver instance dispatches to the callee");
  return false;
}

/// The parameter/return copy edges bindCall() installs for one justified
/// dispatch edge must already be folded into the solution.
void recheckCallBinding(const Program &P, const PointsToSolver &S,
                        CGNodeId Caller, const CGEdge &E, Violations &V) {
  const CallGraph &CG = S.callGraph();
  const Instruction &I = P.stmt(E.Site);
  const Method &CalM = P.Methods[CG.node(E.Callee).M];
  const PointerKeyTable &PKs = S.pointerKeys();
  const uint32_t Start = I.CKind == CallKind::Static ? 0 : 1;
  for (uint32_t K = Start; K < CalM.NumParams && K < I.Args.size(); ++K)
    checkSubset(S, PKs.localLookup(Caller, I.Args[K]),
                PKs.localLookup(E.Callee, static_cast<ValueId>(K)), P,
                CG.node(Caller).M, "argument", V);
  if (I.Dst != NoValue)
    checkSubset(S, PKs.lookup({PKKind::Ret, E.Callee, 0}),
                PKs.localLookup(Caller, I.Dst), P, CG.node(Caller).M,
                "return binding", V);
}

} // namespace

void verify::verifyConstStrings(const Program &P, const ConstStringResult &CS,
                                Violations &V) {
  if (CS.degraded())
    return; // a truncated lattice may legitimately disagree
  for (MethodId M = 0; M < P.Methods.size(); ++M) {
    const Method &Mth = P.Methods[M];
    if (!Mth.hasBody())
      continue;
    for (const BasicBlock &BB : Mth.Blocks) {
      for (const Instruction &I : BB.Insts) {
        if (I.Op == Opcode::ConstStr) {
          Symbol Val = CS.valueOf(M, I.Dst);
          if (Val != ~0u && Val != I.StrLit)
            V.report(Checker::ConstStr,
                     "constant-string fact for a ConstStr definition in " +
                         P.methodName(M) + " contradicts its literal");
        } else if (I.Op == Opcode::Copy) {
          Symbol Src = CS.valueOf(M, I.Args[0]);
          Symbol Dst = CS.valueOf(M, I.Dst);
          if (Src != ~0u && Dst != ~0u && Src != Dst)
            V.report(Checker::ConstStr,
                     "constant-string fact not preserved by a copy in " +
                         P.methodName(M));
        }
      }
    }
  }
}

void verify::verifyGraphs(const Program &P, const ClassHierarchy &CHA,
                          const PointsToSolver &Solver,
                          const ConstStringResult *ConstStrings,
                          Violations &V) {
  const CallGraph &CG = Solver.callGraph();
  for (CGNodeId N = 0; N < CG.numNodes(); ++N) {
    const CGNode &Node = CG.node(N);
    if (Node.M >= P.Methods.size()) {
      V.report(Checker::CallGraph, "call-graph node names no method");
      continue;
    }
    for (const CGEdge &E : CG.edges(N)) {
      if (E.Callee >= CG.numNodes()) {
        V.report(Checker::CallGraph, "call edge to a nonexistent node");
        continue;
      }
      if (justifyCallEdge(P, CHA, Solver, N, E, V))
        recheckCallBinding(P, Solver, N, E, V);
    }
    if (Node.ConstraintsAdded && P.Methods[Node.M].hasBody())
      recheckNodeConstraints(P, Solver, N, V);
  }
  if (ConstStrings)
    verifyConstStrings(P, *ConstStrings, V);
}

//===----------------------------------------------------------------------===//
// GraphVerifier: SDG liveness + heap-edge justification
//===----------------------------------------------------------------------===//

namespace {

bool ikIntersects(std::span<const IKId> A, std::span<const IKId> B) {
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

/// Re-derives whether a materialized store->load heap edge is justified:
/// compatible access classes, matching field for field/static accesses,
/// compatible constant keys for dictionaries, and overlapping base
/// points-to sets (TAJ §4.1.1). Mirrors HeapEdges::build. \p Buf is
/// scratch for the two base sets.
bool heapEdgeJustified(const Program &P, const SDG &G, SDGNodeId Store,
                       SDGNodeId Load, std::vector<IKId> &Buf) {
  const SDGNode &St = G.node(Store);
  const SDGNode &Ld = G.node(Load);
  const Instruction &SI = P.stmt(St.S);
  const Instruction &LI = P.stmt(Ld.S);
  auto basesOverlap = [&] {
    Buf.clear();
    G.basePointsTo(Store, Buf);
    const size_t Mid = Buf.size();
    G.basePointsTo(Load, Buf);
    const std::span<const IKId> Both(Buf);
    return ikIntersects(Both.first(Mid), Both.subspan(Mid));
  };
  switch (St.Access) {
  case HeapAccess::StaticStore:
    return Ld.Access == HeapAccess::StaticLoad && SI.Field == LI.Field;
  case HeapAccess::FieldStore:
    return Ld.Access == HeapAccess::FieldLoad && SI.Field == LI.Field &&
           basesOverlap();
  case HeapAccess::ArrayStore:
    return (Ld.Access == HeapAccess::ArrayLoad ||
            Ld.Access == HeapAccess::InvokeArgsRead) &&
           basesOverlap();
  case HeapAccess::MapPut: {
    if (Ld.Access != HeapAccess::MapGet)
      return false;
    Symbol PutKey = G.constKeyOf(Store), GetKey = G.constKeyOf(Load);
    bool KeyCompat = PutKey == ~0u || GetKey == ~0u || PutKey == GetKey;
    return KeyCompat && basesOverlap();
  }
  case HeapAccess::CollAdd:
    return Ld.Access == HeapAccess::CollGet && basesOverlap();
  default:
    return false;
  }
}

} // namespace

void verify::verifySdg(const Program &P, const SDG &G, const HeapEdges *HE,
                       const PointsToSolver &Solver, VerifyMode Mode,
                       Violations &V) {
  if (Mode == VerifyMode::Off)
    return;
  const uint32_t NumNodes = G.numNodes();
  // Liveness verdict per node, reused below so the Full-mode justification
  // never dereferences a statement the liveness pass already rejected.
  // Fast mode skips the allocation: it has no downstream consumer, and
  // this pass runs on every slicer invocation.
  std::vector<char> NodeOk(Mode == VerifyMode::Full ? NumNodes : 0, 1);
  auto markBad = [&](SDGNodeId N) {
    if (N < NodeOk.size())
      NodeOk[N] = 0;
  };
  for (SDGNodeId N = 0; N < NumNodes; ++N) {
    const SDGNode &Nd = G.node(N);
    if (Nd.M >= P.Methods.size()) {
      markBad(N);
      V.report(Checker::Sdg, "node " + std::to_string(N) +
                                 " names no method");
      continue;
    }
    if (Nd.Kind == SDGNodeKind::Stmt &&
        !(Nd.S >= P.methodStmtBegin(Nd.M) && Nd.S < P.methodStmtEnd(Nd.M))) {
      markBad(N);
      V.report(Checker::Sdg,
               "node " + std::to_string(N) +
                   " does not resolve to a live statement of " +
                   P.methodName(Nd.M));
    }
    for (const SDGEdge &E : G.succs(N))
      if (E.To >= NumNodes)
        V.report(Checker::Sdg, "edge from node " + std::to_string(N) +
                                   " to a nonexistent node");
  }
  for (SDGNodeId St : G.storeNodes())
    if (St >= NumNodes || !isStoreAccess(G.node(St).Access))
      V.report(Checker::Sdg, "store index entry is not a store node");
  for (SDGNodeId Ld : G.loadNodes())
    if (Ld >= NumNodes)
      V.report(Checker::Sdg, "load index entry is not a node");
  for (SDGNodeId Sk : G.sinkNodes())
    if (Sk >= NumNodes || G.node(Sk).SinkMask == rules::None)
      V.report(Checker::Sdg, "sink index entry is not a sink node");

  if (Mode != VerifyMode::Full || !HE)
    return;
  (void)Solver; // base points-to queries route through the SDG
  std::vector<IKId> Buf;
  for (SDGNodeId St : G.storeNodes()) {
    if (St >= NumNodes || !NodeOk[St])
      continue; // already reported above
    for (SDGNodeId Ld : HE->loadsFor(St)) {
      if (Ld >= NumNodes) {
        V.report(Checker::Heap, "heap edge to a nonexistent node");
        continue;
      }
      if (!NodeOk[Ld])
        continue; // already reported above
      if (!heapEdgeJustified(P, G, St, Ld, Buf))
        V.report(Checker::Heap,
                 "store->load edge " + G.nodeToString(St) + " -> " +
                     G.nodeToString(Ld) +
                     " has no overlapping points-to justification");
    }
    for (SDGNodeId Sk : HE->carrierSinksFor(St))
      if (Sk >= NumNodes || G.node(Sk).SinkMask == rules::None)
        V.report(Checker::Heap,
                 "carrier edge from " + G.nodeToString(St) +
                     " targets a non-sink node");
  }
}

//===----------------------------------------------------------------------===//
// WitnessChecker
//===----------------------------------------------------------------------===//

void verify::verifyWitnesses(const SDG &G, const HeapEdges *HE,
                             const std::vector<Issue> &Issues,
                             Violations &V) {
  if (Issues.empty())
    return;
  const uint32_t NumNodes = G.numNodes();
  // Statement -> SDG nodes, for the statements the issues actually name (a
  // statement appears once per context in expanded scope; any occurrence
  // may anchor the witness). Indexing only those keeps this pass cheap
  // enough for the per-run fast mode.
  std::unordered_map<StmtId, std::vector<SDGNodeId>> StmtNodes;
  StmtId MaxStmt = 0;
  for (const Issue &I : Issues) {
    StmtNodes.emplace(I.Source, std::vector<SDGNodeId>());
    StmtNodes.emplace(I.Sink, std::vector<SDGNodeId>());
    MaxStmt = std::max({MaxStmt, I.Source, I.Sink});
  }
  // Dense membership mask: the node scan below runs per slicer invocation
  // in fast mode, so it tests an array slot instead of probing the map.
  std::vector<char> Wanted(static_cast<size_t>(MaxStmt) + 1, 0);
  for (const auto &[S, Nodes] : StmtNodes)
    Wanted[S] = 1;
  for (SDGNodeId N = 0; N < NumNodes; ++N) {
    const SDGNode &Nd = G.node(N);
    if (Nd.Kind == SDGNodeKind::Stmt && Nd.S <= MaxStmt && Wanted[Nd.S])
      StmtNodes[Nd.S].push_back(N);
  }

  // One BFS per (source, rule) answers every issue sharing them. Distances
  // are over the union graph — SDG edges plus flow-insensitive heap hops,
  // each weight 1 — a lower bound on any slicer's claimed flow length
  // (tabulation counts summary interiors, BFS shortcuts them). The BFS is
  // depth-bounded by the group's largest claimed length: a witness found
  // within the bound settles the issue, and only a suspicious issue (none
  // found) pays for the unbounded search that tells "no witness at all"
  // apart from "witness longer than claimed".
  struct Group {
    std::vector<size_t> Members; ///< indices into Issues
    uint32_t MaxLen = 0;
  };
  std::unordered_map<uint64_t, Group> Groups;
  std::vector<uint64_t> GroupOrder; // deterministic processing order
  for (size_t Idx = 0; Idx < Issues.size(); ++Idx) {
    const Issue &I = Issues[Idx];
    uint64_t Key = (static_cast<uint64_t>(I.Source) << 32) ^ I.Rule;
    Group &Gp = Groups[Key];
    if (Gp.Members.empty())
      GroupOrder.push_back(Key);
    Gp.Members.push_back(Idx);
    Gp.MaxLen = std::max(Gp.MaxLen, I.Length);
  }

  constexpr uint32_t Unreached = ~0u;
  std::vector<uint32_t> Dist(NumNodes, Unreached);
  std::vector<SDGNodeId> Visited; // for O(reached) reset between searches
  std::deque<SDGNodeId> Q;
  // BFS targets (the group's candidate sink nodes): first visit is the
  // shortest distance, so the search may stop once all are reached.
  std::vector<char> TargetMark(NumNodes, 0);
  std::vector<SDGNodeId> Targets; // marked nodes, for reset + count
  auto bfsFrom = [&](StmtId Source, RuleMask Rule, uint32_t Bound) {
    for (SDGNodeId N : Visited)
      Dist[N] = Unreached;
    Visited.clear();
    Q.clear();
    size_t Pending = Targets.size();
    auto SN = StmtNodes.find(Source);
    if (SN != StmtNodes.end())
      for (SDGNodeId N : SN->second)
        if (G.node(N).SourceMask & Rule) {
          Dist[N] = 0;
          Visited.push_back(N);
          Q.push_back(N);
          if (TargetMark[N])
            --Pending;
        }
    while (!Q.empty() && Pending > 0) {
      SDGNodeId N = Q.front();
      Q.pop_front();
      if (Dist[N] >= Bound)
        continue; // frontier at the bound: record, never expand
      uint32_t D = Dist[N] + 1;
      auto Visit = [&](SDGNodeId To) {
        if (To < NumNodes && Dist[To] == Unreached) {
          Dist[To] = D;
          Visited.push_back(To);
          Q.push_back(To);
          if (TargetMark[To])
            --Pending;
        }
      };
      for (const SDGEdge &E : G.succs(N))
        Visit(E.To);
      if (HE && isStoreAccess(G.node(N).Access)) {
        for (SDGNodeId To : HE->loadsFor(N))
          Visit(To);
        for (SDGNodeId To : HE->carrierSinksFor(N))
          Visit(To);
      }
    }
  };
  auto bestTo = [&](StmtId Sink, RuleMask Rule) {
    uint32_t Best = Unreached;
    auto SN = StmtNodes.find(Sink);
    if (SN != StmtNodes.end())
      for (SDGNodeId N : SN->second)
        if ((G.node(N).SinkMask & Rule) && Dist[N] < Best)
          Best = Dist[N];
    return Best;
  };

  // Verdicts gathered per group, reported in original issue order below so
  // the diagnostic stream is deterministic.
  enum : uint8_t { Ok, NoWitness, TooLong };
  std::vector<std::pair<uint8_t, uint32_t>> Verdicts(Issues.size(), {Ok, 0});
  for (uint64_t Key : GroupOrder) {
    const Group &Gp = Groups[Key];
    const Issue &First = Issues[Gp.Members.front()];
    for (SDGNodeId N : Targets)
      TargetMark[N] = 0;
    Targets.clear();
    for (size_t Idx : Gp.Members) {
      auto SN = StmtNodes.find(Issues[Idx].Sink);
      if (SN != StmtNodes.end())
        for (SDGNodeId N : SN->second)
          if ((G.node(N).SinkMask & Issues[Idx].Rule) && !TargetMark[N]) {
            TargetMark[N] = 1;
            Targets.push_back(N);
          }
    }
    bfsFrom(First.Source, First.Rule, Gp.MaxLen);
    bool Suspicious = false;
    for (size_t Idx : Gp.Members) {
      uint32_t Best = bestTo(Issues[Idx].Sink, Issues[Idx].Rule);
      Suspicious |= Best == Unreached || Best > Issues[Idx].Length;
    }
    if (!Suspicious)
      continue;
    bfsFrom(First.Source, First.Rule, Unreached);
    for (size_t Idx : Gp.Members) {
      uint32_t Best = bestTo(Issues[Idx].Sink, Issues[Idx].Rule);
      if (Best == Unreached)
        Verdicts[Idx] = {NoWitness, 0};
      else if (Best > Issues[Idx].Length)
        Verdicts[Idx] = {TooLong, Best};
    }
  }

  for (size_t Idx = 0; Idx < Issues.size(); ++Idx) {
    const Issue &I = Issues[Idx];
    if (Verdicts[Idx].first == NoWitness)
      V.report(Checker::Witness,
               std::string(rules::ruleName(I.Rule)) +
                   " flow (stmt " + std::to_string(I.Source) + " -> stmt " +
                   std::to_string(I.Sink) +
                   ") has no connected HSDG witness path");
    else if (Verdicts[Idx].first == TooLong)
      V.report(Checker::Witness,
               std::string(rules::ruleName(I.Rule)) + " flow (stmt " +
                   std::to_string(I.Source) + " -> stmt " +
                   std::to_string(I.Sink) + ") claims length " +
                   std::to_string(I.Length) +
                   " but the shortest witness needs " +
                   std::to_string(Verdicts[Idx].second));
  }
}
