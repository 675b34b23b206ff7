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

namespace {
/// Appends \p E to the list from \p First to \p Last that is linked
/// through the Next fields of \p Pool (~0u: end, and an empty list).
template <typename T>
void append(std::vector<T> &Pool, uint32_t &First, uint32_t &Last, T E) {
  const uint32_t I = static_cast<uint32_t>(Pool.size());
  Pool.push_back(E);
  (Last == ~0u ? First : Pool[Last].Next) = I;
  Last = I;
}
} // namespace

uint32_t Tabulation::summaryRow(SDGNodeId FIn) {
  if (RowIndex.needsGrow())
    RowIndex.grow(Rows.size() + 1,
                  [this](uint32_t R) { return internMix(Rows[R].FIn); });
  size_t Slot;
  const uint32_t Found = RowIndex.find(
      internMix(FIn), [&](uint32_t R) { return Rows[R].FIn == FIn; }, Slot);
  if (Found != ~0u)
    return Found;
  const uint32_t Row = static_cast<uint32_t>(Rows.size());
  RowIndex.insertAt(Slot, Row);
  Rows.push_back({FIn});
  SummaryWork.push_back({FIn, FIn, 0});
  return Row;
}

uint32_t Tabulation::findPathEdge(uint64_t Key, size_t &Slot) const {
  return PathIndex.find(
      internMix(Key), [&](uint32_t E) { return PathEdges[E].Key == Key; },
      Slot);
}

void Tabulation::propagateSame(SDGNodeId FIn, SDGNodeId N, uint32_t D) {
  if (PathIndex.needsGrow())
    PathIndex.grow(PathEdges.size() + 1, [this](uint32_t E) {
      return internMix(PathEdges[E].Key);
    });
  const uint64_t Key = (static_cast<uint64_t>(FIn) << 32) | N;
  size_t Slot;
  const uint32_t E = findPathEdge(Key, Slot);
  if (E == ~0u) {
    PathIndex.insertAt(Slot, static_cast<uint32_t>(PathEdges.size()));
    PathEdges.push_back({Key, D});
  } else if (PathEdges[E].D <= D) {
    return;
  } else {
    PathEdges[E].D = D;
  }
  SummaryWork.push_back({FIn, N, D});
}

void Tabulation::recordSummaryOut(SDGNodeId FIn, SDGNodeId FOut, uint32_t D) {
  // FIn heads a work item, so it is seeded and this adds no row.
  SummaryRow &Row = Rows[summaryRow(FIn)];
  for (uint32_t I = Row.FirstOut; I != End; I = Outs[I].Next)
    if (Outs[I].Out == FOut) {
      Outs[I].D = std::min(Outs[I].D, D); // lowered without re-propagating
      return;
    }
  append(Outs, Row.FirstOut, Row.LastOut, {FOut, D, End});
  // Re-propagate at every call site waiting on this summary. A
  // formal-in's own seed records no path edge: its base distance is 0.
  for (uint32_t K = Row.FirstSub; K != End; K = Subs[K].Next) {
    const Sub S = Subs[K];
    const CallSiteInfo *CS = siteOf(S.At);
    if (!CS)
      continue;
    SDGNodeId AOut = G.actualOutFor(*CS, FOut);
    if (AOut == InvalidId)
      continue;
    size_t Slot;
    const uint32_t E =
        findPathEdge((static_cast<uint64_t>(S.Ctx) << 32) | S.At, Slot);
    propagateSame(S.Ctx, AOut, (E == ~0u ? 0 : PathEdges[E].D) + D + 2);
  }
}

void Tabulation::drainSummaries() {
  for (size_t Head = 0; Head < SummaryWork.size(); ++Head) {
    // Cutoff: drop pending summary work; partially drained summaries only
    // shrink the slice (underapproximate), never grow it.
    if (Guard && !Guard->checkpoint())
      break;
    const auto [FIn, N, D] = SummaryWork[Head];
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
        SummaryRow &Callee = Rows[summaryRow(E.To)];
        append(Subs, Callee.FirstSub, Callee.LastSub, {FIn, N, End});
        if (Callee.FirstOut == End)
          break;
        if (const CallSiteInfo *CS = siteOf(N))
          for (uint32_t I = Callee.FirstOut; I != End; I = Outs[I].Next) {
            SDGNodeId AOut = G.actualOutFor(*CS, Outs[I].Out);
            if (AOut != InvalidId)
              propagateSame(FIn, AOut, D + Outs[I].D + 2);
          }
        break;
      }
      case SDGEdgeKind::ParamOut:
        break; // never exits the same level
      }
    }
  }
  SummaryWork.clear();
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
  const uint32_t Row = summaryRow(FIn);
  drainSummaries();
  const CallSiteInfo *CS = siteOf(N);
  if (!CS)
    return;
  for (uint32_t I = Rows[Row].FirstOut; I != End; I = Outs[I].Next) {
    SDGNodeId AOut = G.actualOutFor(*CS, Outs[I].Out);
    if (AOut != InvalidId)
      Queue.push_back({AOut, D + Outs[I].D + 2, N});
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
