//===- callgraph/CallGraph.cpp ---------------------------------*- C++ -*-===//

#include "callgraph/CallGraph.h"
#include "support/Csr.h"
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
  return Id;
}

bool CallGraph::addEdge(CGNodeId Caller, StmtId Site, CGNodeId Callee) {
  const CGEdge Edge{Site, Callee};
  if (EdgeIndex.needsGrow())
    EdgeIndex.grow(LogCallers.size() + 1, [this](uint32_t E) {
      return edgeHash(LogCallers[E], LogEdges[E]);
    });
  size_t Slot;
  const uint32_t Found =
      EdgeIndex.find(edgeHash(Caller, Edge),
                     [&](uint32_t E) {
                       return LogCallers[E] == Caller && LogEdges[E] == Edge;
                     },
                     Slot);
  if (Found != ~0u)
    return false;
  if (Guard)
    Guard->checkpoint();
  EdgeIndex.insertAt(Slot, static_cast<uint32_t>(LogCallers.size()));
  LogCallers.push_back(Caller);
  LogEdges.push_back(Edge);
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
  // A stable counting sort of the edge log by caller keeps each node's
  // out-edges in insertion order.
  csrFromLog(LogCallers, LogEdges, Nodes.size(), OutOff, OutEdges);
  // A second one, by site, lays each site's callee methods out in edge
  // order; compacting each site's run to its first edge per method then
  // leaves the methods in first-edge order.
  SiteBase.assign(NumStmts + 1, 0);
  for (const CGEdge &E : LogEdges)
    ++SiteBase[E.Site + 1];
  for (uint32_t S = 0; S < NumStmts; ++S)
    SiteBase[S + 1] += SiteBase[S];
  SiteCallees.resize(LogEdges.size());
  std::vector<uint32_t> Fill(SiteBase.begin(), SiteBase.end() - 1);
  for (const CGEdge &E : LogEdges)
    SiteCallees[Fill[E.Site]++] = Nodes[E.Callee].M;
  uint32_t Kept = 0;
  for (uint32_t S = 0; S < NumStmts; ++S) {
    const uint32_t Begin = SiteBase[S], End = SiteBase[S + 1];
    SiteBase[S] = Kept;
    for (uint32_t I = Begin; I < End; ++I) {
      const MethodId M = SiteCallees[I];
      if (std::find(SiteCallees.begin() + SiteBase[S],
                    SiteCallees.begin() + Kept, M) ==
          SiteCallees.begin() + Kept)
        SiteCallees[Kept++] = M;
    }
  }
  SiteBase[NumStmts] = Kept;
  SiteCallees.resize(Kept);
  LogCallers = {};
  LogEdges = {};
  EdgeIndex = {};
}
