//===- callgraph/CallGraph.cpp ---------------------------------*- C++ -*-===//

#include "callgraph/CallGraph.h"
#include "support/RunGuard.h"

#include <algorithm>

using namespace taj;

CGNodeId CallGraph::ensureNode(MethodId M, CtxId Ctx, bool &IsNew) {
  auto HashOf = [this](CGNodeId N) { return hash(Nodes[N].M, Nodes[N].Ctx); };
  if (NodeMap.needsGrow())
    NodeMap.grow(Nodes.size() + 1, HashOf);
  size_t Slot;
  CGNodeId Found = NodeMap.find(
      hash(M, Ctx),
      [&](CGNodeId N) { return Nodes[N].M == M && Nodes[N].Ctx == Ctx; },
      Slot);
  if (Found != InvalidId) {
    IsNew = false;
    return Found;
  }
  IsNew = true;
  if (Guard)
    Guard->checkpoint(); // expansion work tick; the solver enforces stops
  CGNode N;
  N.M = M;
  N.Ctx = Ctx;
  CGNodeId Id = static_cast<CGNodeId>(Nodes.size());
  NodeMap.insertAt(Slot, Id);
  Nodes.push_back(N);
  Out.emplace_back();
  In.emplace_back();
  return Id;
}

bool CallGraph::addEdge(CGNodeId Caller, StmtId Site, CGNodeId Callee) {
  uint64_t Key = (static_cast<uint64_t>(Caller) * 0x9e3779b97f4a7c15ull) ^
                 (static_cast<uint64_t>(Site) * 0xc2b2ae3d27d4eb4full) ^
                 Callee;
  if (!EdgeSet.insert(Key).second)
    return false;
  if (Guard)
    Guard->checkpoint();
  Out[Caller].push_back({Site, Callee});
  In[Callee].push_back(Caller);
  MethodId CalleeM = Nodes[Callee].M;
  auto &Merged = SiteLists[Site];
  if (std::find(Merged.begin(), Merged.end(), CalleeM) == Merged.end())
    Merged.push_back(CalleeM);
  return true;
}

void CallGraph::indexByMethod(uint32_t NumMethods) {
  ByMethodBase.assign(NumMethods + 1, 0);
  for (const CGNode &N : Nodes)
    ++ByMethodBase[N.M + 1];
  for (uint32_t M = 0; M < NumMethods; ++M)
    ByMethodBase[M + 1] += ByMethodBase[M];
  ByMethod.resize(Nodes.size());
  std::vector<uint32_t> Fill(ByMethodBase.begin(), ByMethodBase.end() - 1);
  for (CGNodeId N = 0; N < Nodes.size(); ++N)
    ByMethod[Fill[Nodes[N].M]++] = N;
}

void CallGraph::freeze(uint32_t NumMethods, uint32_t NumStmts) {
  indexByMethod(NumMethods);
  SiteBase.assign(NumStmts + 1, 0);
  size_t Total = 0;
  for (const auto &[Site, Callees] : SiteLists) {
    SiteBase[Site + 1] = static_cast<uint32_t>(Callees.size());
    Total += Callees.size();
  }
  for (uint32_t S = 0; S < NumStmts; ++S)
    SiteBase[S + 1] += SiteBase[S];
  SiteCallees.resize(Total);
  for (const auto &[Site, Callees] : SiteLists)
    std::copy(Callees.begin(), Callees.end(),
              SiteCallees.begin() + SiteBase[Site]);
  SiteLists = {};
  EdgeSet = {};
  In = {};
}
