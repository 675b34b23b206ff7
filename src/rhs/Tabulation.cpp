//===- rhs/Tabulation.cpp --------------------------------------*- C++ -*-===//

#include "rhs/Tabulation.h"
#include "support/RunGuard.h"

#include <algorithm>

using namespace taj;

Tabulation::Tabulation(const SDG &G, RuleMask Rule, RunGuard *Guard)
    : G(G), Rule(Rule), Guard(Guard), PoppedIn(G.numNodes(), 0) {}

const CallSiteInfo *Tabulation::siteOf(SDGNodeId N) const {
  const SDGNode &Node = G.node(N);
  switch (Node.Kind) {
  case SDGNodeKind::Stmt:
    return G.callSite(N);
  case SDGNodeKind::ActualIn:
  case SDGNodeKind::ChanActualIn:
    return Node.Aux == InvalidId ? nullptr : G.callSite(Node.Aux);
  default:
    return nullptr;
  }
}

//===----------------------------------------------------------------------===//
// Summary engine
//===----------------------------------------------------------------------===//

void Tabulation::seedSummary(SDGNodeId FIn) {
  if (!SummarySeeded.insert(FIn).second)
    return;
  SummaryWork.emplace_back(FIn, FIn, 0);
}

void Tabulation::propagateSame(SDGNodeId FIn, SDGNodeId N, uint32_t D) {
  uint64_t Key = (static_cast<uint64_t>(FIn) << 32) | N;
  auto It = PathDist.find(Key);
  if (It != PathDist.end() && It->second <= D)
    return;
  PathDist[Key] = D;
  SummaryWork.emplace_back(FIn, N, D);
}

void Tabulation::recordSummaryOut(SDGNodeId FIn, SDGNodeId FOut, uint32_t D) {
  auto &Outs = SummaryOuts[FIn];
  for (auto &[O, DD] : Outs)
    if (O == FOut) {
      if (D < DD)
        DD = D;
      return;
    }
  Outs.emplace_back(FOut, D);
  // Re-propagate at every call site waiting on this summary.
  auto It = Subscribers.find(FIn);
  if (It == Subscribers.end())
    return;
  for (const Sub &S : It->second) {
    const CallSiteInfo *CS = siteOf(S.At);
    if (!CS)
      continue;
    SDGNodeId AOut = G.actualOutFor(*CS, FOut);
    if (AOut == InvalidId)
      continue;
    uint64_t Key = (static_cast<uint64_t>(S.Ctx) << 32) | S.At;
    auto DI = PathDist.find(Key);
    uint32_t Base = DI == PathDist.end() ? 0 : DI->second;
    propagateSame(S.Ctx, AOut, Base + D + 2);
  }
}

void Tabulation::drainSummaries() {
  while (!SummaryWork.empty()) {
    if (Guard && !Guard->checkpoint()) {
      // Cutoff: drop pending summary work; partially drained summaries
      // only shrink the slice (underapproximate), never grow it.
      SummaryWork.clear();
      return;
    }
    auto [FIn, N, D] = SummaryWork.front();
    SummaryWork.pop_front();
    ++PathEdgeCount;
    const SDGNode &Node = G.node(N);
    const SDGNode &FNode = G.node(FIn);

    // Reaching a formal-out of the same method completes a summary.
    if ((Node.Kind == SDGNodeKind::FormalOut ||
         Node.Kind == SDGNodeKind::ChanFormalOut) &&
        Node.Owner == FNode.Owner) {
      recordSummaryOut(FIn, N, D);
      continue;
    }
    if (isSliceBarrier(Node, Rule))
      continue;
    for (const SDGEdge &E : G.succs(N)) {
      switch (E.Kind) {
      case SDGEdgeKind::Flow:
        propagateSame(FIn, E.To, D + 1);
        break;
      case SDGEdgeKind::ParamIn: {
        // Step over the call via callee summaries.
        SDGNodeId CalleeFIn = E.To;
        seedSummary(CalleeFIn);
        Subscribers[CalleeFIn].push_back({FIn, N});
        auto SIt = SummaryOuts.find(CalleeFIn);
        if (SIt != SummaryOuts.end()) {
          const CallSiteInfo *CS = siteOf(N);
          if (CS)
            for (auto &[FOut, DD] : SIt->second) {
              SDGNodeId AOut = G.actualOutFor(*CS, FOut);
              if (AOut != InvalidId)
                propagateSame(FIn, AOut, D + DD + 2);
            }
        }
        break;
      }
      case SDGEdgeKind::ParamOut:
        break; // never exits the same level
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// Two-phase slicing
//===----------------------------------------------------------------------===//

void Tabulation::beginPhase() {
  Queue.clear();
  if (++Phase == 0) { // stamp wrap-around: forget every old stamp
    std::fill(PoppedIn.begin(), PoppedIn.end(), 0);
    Phase = 1;
  }
}

bool Tabulation::firstPop(SDGNodeId N) {
  if (PoppedIn[N] == Phase)
    return false;
  PoppedIn[N] = Phase;
  return true;
}

void Tabulation::stepOverCall(SDGNodeId FIn, SDGNodeId N, uint32_t D) {
  seedSummary(FIn);
  drainSummaries();
  auto SIt = SummaryOuts.find(FIn);
  if (SIt == SummaryOuts.end())
    return;
  const CallSiteInfo *CS = siteOf(N);
  if (!CS)
    return;
  for (auto &[FOut, DD] : SIt->second) {
    SDGNodeId AOut = G.actualOutFor(*CS, FOut);
    if (AOut != InvalidId)
      Queue.push_back({AOut, D + DD + 2, N});
  }
}

void Tabulation::forwardSlice(
    const std::vector<std::pair<SDGNodeId, uint32_t>> &Seeds,
    SliceResult &R) {
  const size_t FirstNew = R.Reached.size();

  // Phase 1: ascend (Flow + ParamOut + summaries). The nodes it reaches
  // first seed phase 2.
  beginPhase();
  for (auto [S, D] : Seeds)
    Queue.push_back({S, D, InvalidId});
  for (size_t Head = 0; Head < Queue.size(); ++Head) {
    if (Guard && !Guard->checkpoint())
      break; // cutoff: keep what phase 1 reached so far
    const auto [N, D, Par] = Queue[Head];
    if (!firstPop(N))
      continue;
    ++PathEdgeCount;
    if (!R.reached(N)) {
      R.reach(N, D, Par);
    } else if (R.Dist[N] > D) {
      R.Dist[N] = D;
      R.Parent[N] = Par;
    }
    if (isSliceBarrier(G.node(N), Rule))
      continue;
    for (const SDGEdge &E : G.succs(N)) {
      if (E.Kind == SDGEdgeKind::Flow || E.Kind == SDGEdgeKind::ParamOut)
        Queue.push_back({E.To, D + 1, N});
      else if (E.Kind == SDGEdgeKind::ParamIn)
        stepOverCall(E.To, N, D);
    }
  }

  // Phase 2: descend (Flow + ParamIn + summaries) from everything phase 1
  // reached first. A better distance keeps the old parent unless the new
  // one is a real predecessor.
  const size_t Phase1End = R.Reached.size();
  beginPhase();
  for (size_t I = FirstNew; I < Phase1End; ++I)
    Queue.push_back({R.Reached[I], R.Dist[R.Reached[I]], InvalidId});
  for (size_t Head = 0; Head < Queue.size(); ++Head) {
    if (Guard && !Guard->checkpoint())
      break; // cutoff: return the partial slice
    const auto [N, D, Par] = Queue[Head];
    if (!firstPop(N))
      continue;
    ++PathEdgeCount;
    if (!R.reached(N)) {
      R.reach(N, D, Par);
    } else if (R.Dist[N] > D) {
      R.Dist[N] = D;
      if (Par != InvalidId)
        R.Parent[N] = Par;
    }
    if (isSliceBarrier(G.node(N), Rule))
      continue;
    bool HasParamIn = false;
    for (const SDGEdge &E : G.succs(N)) {
      if (E.Kind == SDGEdgeKind::Flow || E.Kind == SDGEdgeKind::ParamIn)
        Queue.push_back({E.To, D + 1, N});
      HasParamIn |= E.Kind == SDGEdgeKind::ParamIn;
    }
    // Step over calls with summaries as well, so flow continuing after a
    // call inside a descended-into method is found.
    if (HasParamIn && siteOf(N))
      for (const SDGEdge &E : G.succs(N))
        if (E.Kind == SDGEdgeKind::ParamIn)
          stepOverCall(E.To, N, D);
  }
}
