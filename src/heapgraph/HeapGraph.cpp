//===- heapgraph/HeapGraph.cpp ---------------------------------*- C++ -*-===//

#include "heapgraph/HeapGraph.h"

#include <algorithm>

using namespace taj;

HeapGraph::HeapGraph(const PointsToSolver &Solver) {
  const PointerKeyTable &PKs = Solver.pointerKeys();
  Succ.assign(Solver.instanceKeys().size(), {});
  for (PKId PK = 0; PK < PKs.size(); ++PK) {
    const PointerKeyData &D = PKs.data(PK);
    IKId Base = InvalidId;
    switch (D.Kind) {
    case PKKind::Field:
    case PKKind::ArrayElem:
    case PKKind::Channel:
      Base = D.A;
      break;
    default:
      continue;
    }
    if (Base >= Succ.size())
      continue;
    for (IKId Target : Solver.pointsTo(PK))
      if (std::find(Succ[Base].begin(), Succ[Base].end(), Target) ==
          Succ[Base].end())
        Succ[Base].push_back(Target);
  }
  for (auto &V : Succ)
    std::sort(V.begin(), V.end());
}

const std::vector<IKId> &HeapGraph::successors(IKId IK) const {
  static const std::vector<IKId> Empty;
  return IK < Succ.size() ? Succ[IK] : Empty;
}

std::vector<IKId> HeapGraph::reachable(const std::vector<IKId> &Seeds,
                                       uint32_t MaxDepth) const {
  std::vector<IKId> Out;
  std::unordered_set<IKId> Seen;
  // Level order, the work vector read as a FIFO queue: each key is met
  // first at its least depth, so a key first reached through a longer
  // path is still expanded within the bound.
  std::vector<std::pair<IKId, uint32_t>> Work;
  for (IKId S : Seeds)
    if (Seen.insert(S).second)
      Work.emplace_back(S, 0);
  for (size_t Head = 0; Head < Work.size(); ++Head) {
    const auto [IK, D] = Work[Head];
    Out.push_back(IK);
    if (D >= MaxDepth)
      continue;
    for (IKId N : successors(IK))
      if (Seen.insert(N).second)
        Work.emplace_back(N, D + 1);
  }
  std::sort(Out.begin(), Out.end());
  return Out;
}
