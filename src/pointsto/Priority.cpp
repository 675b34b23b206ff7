//===- pointsto/Priority.cpp -----------------------------------*- C++ -*-===//

#include "pointsto/Priority.h"

#include <cassert>

using namespace taj;

namespace {
constexpr uint64_t ArraySig = 1ull << 40;
constexpr uint64_t ChannelSig = 1ull << 41;
} // namespace

PriorityManager::PriorityManager(const Program &P, const CallGraph &CG,
                                 bool Prioritized)
    : P(P), CG(CG), Prioritized(Prioritized) {}

const PriorityManager::NameInfo &
PriorityManager::nameInfo(Symbol Name) const {
  if (NameCache.empty()) {
    for (const Method &M : P.Methods) {
      NameInfo &NI = NameCache[M.Name];
      NI.IsSource |= M.SourceRules != rules::None;
      NI.ChanStore |=
          M.Intr == Intrinsic::MapPut || M.Intr == Intrinsic::CollAdd;
      NI.ChanLoad |=
          M.Intr == Intrinsic::MapGet || M.Intr == Intrinsic::CollGet;
    }
  }
  static const NameInfo Empty;
  auto It = NameCache.find(Name);
  return It == NameCache.end() ? Empty : It->second;
}

const PriorityManager::FieldSets &
PriorityManager::fieldSets(MethodId M) const {
  auto It = FieldCache.find(M);
  if (It != FieldCache.end())
    return It->second;
  FieldSets FS;
  const Method &Meth = P.Methods[M];
  auto Add = [](std::vector<uint64_t> &V, uint64_t S) {
    for (uint64_t X : V)
      if (X == S)
        return;
    V.push_back(S);
  };
  for (const BasicBlock &BB : Meth.Blocks) {
    for (const Instruction &I : BB.Insts) {
      switch (I.Op) {
      case Opcode::Store:
      case Opcode::StaticStore:
        Add(FS.Stores, I.Field);
        break;
      case Opcode::Load:
      case Opcode::StaticLoad:
        Add(FS.Loads, I.Field);
        break;
      case Opcode::ArrayStore:
        Add(FS.Stores, ArraySig);
        break;
      case Opcode::ArrayLoad:
        Add(FS.Loads, ArraySig);
        break;
      case Opcode::Call: {
        // Match by callee name against the program's intrinsic models; a
        // precise receiver type is unnecessary for a priority heuristic.
        const NameInfo &NI = nameInfo(I.CalleeName);
        FS.CallsSource |= NI.IsSource;
        if (NI.ChanStore)
          Add(FS.Stores, ChannelSig);
        if (NI.ChanLoad)
          Add(FS.Loads, ChannelSig);
        break;
      }
      default:
        break;
      }
    }
  }
  return FieldCache.emplace(M, std::move(FS)).first->second;
}

uint64_t PriorityManager::keyOf(CGNodeId N) const {
  // Chaotic iteration processes pending nodes in no particular order;
  // a deterministic scramble of the creation order models that.
  if (Prioritized)
    return Prio[N];
  return (N * 0x9e3779b97f4a7c15ull) >> 32;
}

void PriorityManager::onNodeCreated(CGNodeId N) {
  assert(N == Pending.size() && "nodes must be registered in creation order");
  Pending.push_back(true);
  ++NumPending;
  // Chaotic order keys on the node id alone and never relaxes, so it
  // reads no priority, adjacency, field footprint or loader list.
  if (Prioritized) {
    const FieldSets &FS = fieldSets(CG.node(N).M);
    Prio.push_back(FS.CallsSource ? 0 : MaxPrio);
    Callees.emplace_back();
    Callers.emplace_back();
    for (uint64_t Sig : FS.Loads)
      Loaders[Sig].push_back(N);
  }
  Queue.push({keyOf(N), N});
}

void PriorityManager::onEdgeAdded(CGNodeId Caller, CGNodeId Callee) {
  if (!Prioritized)
    return;
  Callees[Caller].push_back(Callee);
  Callers[Callee].push_back(Caller);
}

CGNodeId PriorityManager::pop() {
  assert(NumPending > 0 && "pop on empty queue");
  while (true) {
    assert(!Queue.empty() && "pending node missing from heap");
    HeapEntry E = Queue.top();
    Queue.pop();
    // Live entry: the node is still pending and this entry carries its
    // current key (not one superseded by a relaxation).
    if (Pending[E.N] && E.Key == keyOf(E.N)) {
      Pending[E.N] = false;
      --NumPending;
      return E.N;
    }
  }
}

std::vector<CGNodeId> PriorityManager::nearby(CGNodeId N) const {
  std::vector<CGNodeId> Out;
  auto Add = [&](CGNodeId T) {
    if (T == N)
      return;
    for (CGNodeId X : Out)
      if (X == T)
        return;
    Out.push_back(T);
  };
  for (CGNodeId T : Callees[N])
    Add(T);
  for (CGNodeId T : Callers[N])
    Add(T);
  // Nodes whose method loads a field this node's method stores (possible
  // heap flow: there will be a direct store->load HSDG edge).
  const FieldSets &FS = fieldSets(CG.node(N).M);
  for (uint64_t Sig : FS.Stores) {
    auto It = Loaders.find(Sig);
    if (It == Loaders.end())
      continue;
    for (CGNodeId T : It->second)
      Add(T);
  }
  return Out;
}

void PriorityManager::relax(CGNodeId N) {
  // Dijkstra-style propagation of the update rule
  // pi(t) := min(pi(t), pi(n) + 1) over the nearby relation, to fixpoint.
  std::vector<CGNodeId> Work = {N};
  size_t Steps = 0;
  while (!Work.empty() && Steps < 100000) {
    ++Steps;
    CGNodeId X = Work.back();
    Work.pop_back();
    uint64_t Cand = Prio[X] == MaxPrio ? MaxPrio : Prio[X] + 1;
    for (CGNodeId T : nearby(X)) {
      if (Prio[T] <= Cand)
        continue;
      Prio[T] = Cand;
      // Lazy decrease-key: the old entry stays in the heap and is
      // discarded at pop() because its key no longer matches.
      if (Pending[T])
        Queue.push({keyOf(T), T});
      Work.push_back(T);
    }
  }
}

void PriorityManager::onNodeProcessed(CGNodeId N) {
  if (!Prioritized)
    return;
  relax(N);
}
