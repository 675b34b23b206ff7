//===- slicer/Slicer.cpp - One slice kernel for three slicers ---*- C++ -*-===//
//
// Part of the TAJ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One routine, runSlicer, runs the hybrid, CS and CI thin slicers
/// (Slicer.h). It builds or restores the SDG and heap edges, then slices
/// every (rule, source) item over a dense, worker-private state. The
/// algorithms differ only in their reach step:
///
///  - hybrid: tabulation, then store->load hops from the stores that
///    tabulation reached first, then tabulation from the loads the hops
///    seeded, and so on until no hop seeds a load;
///  - CS: one tabulation over the channel-extended SDG;
///  - CI: breadth-first search over the context-merged SDG, hopping from
///    stores inline.
///
/// Each step reads the delta of nodes its traversal reached first, never
/// the SDG's full store or sink list, so an item costs what its slice
/// reaches. One recording step then turns reached sinks and taint-carrier
/// flows into issues, in ascending sink node id.
///
/// Parallel engine: the (rule, source) items are collected rule-major
/// (rule bit outer, ascending source node id inner), the sequential order.
/// Worker w statically takes items w, w+T, w+2T, ... and appends each
/// item's flows, in discovery order, to a buffer private to that item. The
/// merge walks items in sequential order through one dedup set (first
/// occurrence wins) and finally sorts, so the output is byte-identical at
/// every thread count. Under a guard cutoff an item contributes only if it
/// completed before the stop: a worker observing the stop mid-item
/// discards that item's buffer, so partial runs stay underapproximate and
/// the output is a pure function of the set of completed items.
///
//===----------------------------------------------------------------------===//

#include "slicer/Slicer.h"

#include "persist/Cache.h"
#include "rhs/Tabulation.h"
#include "slicer/HeapEdges.h"
#include "support/Parallel.h"
#include "support/RunGuard.h"
#include "support/Stats.h"
#include "support/Trace.h"

#include <algorithm>
#include <array>
#include <memory>
#include <optional>
#include <set>
#include <vector>

using namespace taj;

namespace {

enum class Algo { Hybrid, Cs, Ci };

/// One unit of slicing work: one taint source under one security rule.
struct SliceItem {
  int RuleBit = 0;
  SDGNodeId Src = InvalidId;
};

constexpr uint32_t Unreached = Tabulation::SliceResult::Unreached;

/// Worker-private slicing state. The node-indexed arrays are sized to the
/// SDG once and reset between items in O(reached). The per-rule
/// Tabulations are created on the worker's first item of that rule and
/// keep their summary memos across the worker's items.
class SliceWorker {
public:
  SliceWorker(Algo Alg, const SDG &G, const HeapEdges &HE,
              const SlicerOptions &Opts)
      : Alg(Alg), G(G), HE(HE), Opts(Opts), R(G.numNodes()),
        HopParent(G.numNodes(), InvalidId), Carrier(G.numNodes()) {}

  /// Slices one item, appending every flow that survives the flow-length
  /// filter to \p Buf in discovery order (the merge dedups).
  void slice(const SliceItem &It, std::vector<Issue> &Buf);

  /// Traversal work so far: tabulation path edges, or CI BFS pops.
  uint64_t Work = 0;

private:
  void reset();
  void reachHybrid(Tabulation &Tab);
  void reachCi();
  /// Reached stores from R.Reached[From] on, in ascending node id.
  const std::vector<SDGNodeId> &storesSince(size_t From);
  /// Taint-carrier edges (§4.1.1) from store \p St reached at \p D: keeps
  /// the shortest carrier flow per sink.
  void noteCarriers(SDGNodeId St, uint32_t D);
  void recordFlows(std::vector<Issue> &Buf);
  void record(SDGNodeId Sk, uint32_t Len, SDGNodeId PathFrom,
              std::vector<Issue> &Buf) const;
  std::vector<StmtId> pathTo(SDGNodeId From, SDGNodeId Sink) const;

  const Algo Alg;
  const SDG &G;
  const HeapEdges &HE;
  const SlicerOptions &Opts;
  std::array<std::unique_ptr<Tabulation>, rules::NumRules> Tabs;

  // The current item.
  SDGNodeId Src = InvalidId;
  RuleMask Rule = rules::None;

  Tabulation::SliceResult R;
  /// load -> the store whose hop seeded it (hybrid).
  std::vector<SDGNodeId> HopParent;
  struct CarrierFlow {
    uint32_t Len = Unreached;
    SDGNodeId From = InvalidId; ///< the store
  };
  /// sink -> its shortest carrier flow (hybrid, CI).
  std::vector<CarrierFlow> Carrier;
  /// Nodes holding a HopParent / Carrier entry, for the reset.
  std::vector<SDGNodeId> Hopped, Carried;
  std::vector<std::pair<SDGNodeId, uint32_t>> Seeds;
  std::vector<SDGNodeId> Sorted; ///< reused for ascending-order visits
};

void SliceWorker::reset() {
  R.reset();
  for (SDGNodeId L : Hopped)
    HopParent[L] = InvalidId;
  for (SDGNodeId Sk : Carried)
    Carrier[Sk] = {};
  Hopped.clear();
  Carried.clear();
}

void SliceWorker::slice(const SliceItem &It, std::vector<Issue> &Buf) {
  reset();
  Src = It.Src;
  Rule = static_cast<RuleMask>(1u << It.RuleBit);
  if (Alg == Algo::Ci) {
    reachCi();
  } else {
    std::unique_ptr<Tabulation> &Tab = Tabs[It.RuleBit];
    if (!Tab)
      Tab = std::make_unique<Tabulation>(G, Rule, Opts.Guard);
    const uint64_t Before = Tab->pathEdgeCount();
    Seeds.assign(1, {Src, 0});
    if (Alg == Algo::Hybrid)
      reachHybrid(*Tab);
    else
      Tab->forwardSlice(Seeds, R);
    Work += Tab->pathEdgeCount() - Before;
  }
  recordFlows(Buf);
}

void SliceWorker::reachHybrid(Tabulation &Tab) {
  Budget HeapBudget(Opts.MaxHeapTransitions); // §6.2.1
  while (!Seeds.empty()) {
    const size_t FirstNew = R.Reached.size();
    Tab.forwardSlice(Seeds, R);
    Seeds.clear();
    for (SDGNodeId St : storesSince(FirstNew)) {
      const uint32_t D = R.Dist[St];
      noteCarriers(St, D);
      if (!HeapBudget.consume())
        continue;
      for (SDGNodeId L : HE.loadsFor(St)) {
        if (R.reached(L) && R.Dist[L] <= D + 1)
          continue;
        Seeds.emplace_back(L, D + 1);
        if (HopParent[L] == InvalidId)
          Hopped.push_back(L);
        HopParent[L] = St; // a load several stores seed keeps the last
      }
    }
  }
}

void SliceWorker::reachCi() {
  // Every SDG edge is followed with no call/return matching. The BFS queue
  // is R.Reached itself: a node is reached when it is queued.
  Budget HeapBudget(Opts.MaxHeapTransitions); // §6.2.1, as in hybrid
  auto Visit = [this](SDGNodeId N, uint32_t D, SDGNodeId Par) {
    if (!R.reached(N))
      R.reach(N, D, Par);
  };
  R.reach(Src, 0, InvalidId);
  for (size_t Head = 0; Head < R.Reached.size(); ++Head) {
    if (Opts.Guard && !Opts.Guard->checkpoint())
      break; // cutoff: sliceItems discards this in-flight item
    const SDGNodeId N = R.Reached[Head];
    const uint32_t D = R.Dist[N];
    ++Work;
    const SDGNode &Node = G.node(N);
    if (isSliceBarrier(Node, Rule))
      continue;
    for (const SDGEdge &E : G.succs(N))
      Visit(E.To, D + 1, N);
    if (!isStoreAccess(Node.Access))
      continue;
    noteCarriers(N, D);
    if (!HeapBudget.consume())
      continue;
    for (SDGNodeId L : HE.loadsFor(N))
      Visit(L, D + 1, N);
  }
}

const std::vector<SDGNodeId> &SliceWorker::storesSince(size_t From) {
  Sorted.clear();
  for (size_t I = From; I < R.Reached.size(); ++I)
    if (isStoreAccess(G.node(R.Reached[I]).Access))
      Sorted.push_back(R.Reached[I]);
  std::sort(Sorted.begin(), Sorted.end());
  return Sorted;
}

void SliceWorker::noteCarriers(SDGNodeId St, uint32_t D) {
  for (SDGNodeId Sk : HE.carrierSinksFor(St)) {
    if (!(G.node(Sk).SinkMask & Rule) || Carrier[Sk].Len <= D + 1)
      continue;
    if (Carrier[Sk].Len == Unreached)
      Carried.push_back(Sk);
    Carrier[Sk] = {D + 1, St};
  }
}

void SliceWorker::recordFlows(std::vector<Issue> &Buf) {
  // Every sink of the rule, in ascending node id: the direct hit, then
  // the shortest carrier flow.
  Sorted.clear();
  for (SDGNodeId N : R.Reached)
    if (G.node(N).SinkMask & Rule)
      Sorted.push_back(N);
  for (SDGNodeId Sk : Carried)
    if (!R.reached(Sk))
      Sorted.push_back(Sk);
  std::sort(Sorted.begin(), Sorted.end());
  for (SDGNodeId Sk : Sorted) {
    if (R.reached(Sk))
      record(Sk, R.Dist[Sk], Sk, Buf);
    if (Carrier[Sk].Len != Unreached)
      record(Sk, Carrier[Sk].Len, Carrier[Sk].From, Buf);
  }
  if (Alg != Algo::Cs)
    return;
  // CS: a carrier flow at every reached store, after all direct sinks.
  for (SDGNodeId St : storesSince(0))
    for (SDGNodeId Sk : HE.carrierSinksFor(St))
      if (G.node(Sk).SinkMask & Rule)
        record(Sk, R.Dist[St] + 1, St, Buf);
}

void SliceWorker::record(SDGNodeId Sk, uint32_t Len, SDGNodeId PathFrom,
                         std::vector<Issue> &Buf) const {
  if (Opts.MaxFlowLength != 0 && Len > Opts.MaxFlowLength)
    return; // flow-length filter (§6.2.2)
  Issue Iss;
  Iss.Source = G.node(Src).S;
  Iss.Sink = G.node(Sk).S;
  Iss.Rule = Rule;
  Iss.Length = Len;
  Iss.Path = pathTo(PathFrom, Sk);
  Buf.push_back(std::move(Iss));
}

/// Walks discovery parents, then hop parents, from \p From back to a seed,
/// collecting the statement path in source-to-sink order; \p Sink is
/// appended when the walk starts elsewhere (taint-carrier flows end at the
/// sink directly).
std::vector<StmtId> SliceWorker::pathTo(SDGNodeId From, SDGNodeId Sink) const {
  std::vector<StmtId> Rev;
  if (Sink != From && G.node(Sink).Kind == SDGNodeKind::Stmt)
    Rev.push_back(G.node(Sink).S);
  SDGNodeId Cur = From;
  for (size_t Steps = 0; Cur != InvalidId && Steps < 4096; ++Steps) {
    const SDGNode &N = G.node(Cur);
    StmtId S = ~0u;
    if (N.Kind == SDGNodeKind::Stmt)
      S = N.S;
    else if ((N.Kind == SDGNodeKind::ActualIn ||
              N.Kind == SDGNodeKind::ChanActualIn) &&
             N.Aux != InvalidId)
      S = G.node(N.Aux).S; // record the call site the flow entered through
    if (S != ~0u && (Rev.empty() || Rev.back() != S))
      Rev.push_back(S);
    Cur = R.Parent[Cur] != InvalidId ? R.Parent[Cur] : HopParent[Cur];
  }
  std::reverse(Rev.begin(), Rev.end());
  return Rev;
}

/// Fans the (rule, source) items across the workers and merges their
/// flows deterministically into \p Out (see the file comment).
void sliceItems(Algo Alg, const SDG &G, const HeapEdges &HE,
                const SlicerOptions &Opts, SliceRunResult &Out) {
  // One scan for the sources of every rule, bucketed under their rules in
  // ascending node id; the buckets joined are the rule-major item list.
  std::array<std::vector<SDGNodeId>, rules::NumRules> ByRule;
  for (SDGNodeId Src : G.sourceNodes(rules::All))
    for (int RB = 0; RB < rules::NumRules; ++RB)
      if (G.node(Src).SourceMask & (1u << RB))
        ByRule[RB].push_back(Src);
  std::vector<SliceItem> Items;
  for (int RB = 0; RB < rules::NumRules; ++RB)
    for (SDGNodeId Src : ByRule[RB])
      Items.push_back({RB, Src});

  const unsigned W = static_cast<unsigned>(std::max<size_t>(
      1, std::min<size_t>(resolveThreadCount(Opts.Threads), Items.size())));
  std::vector<SliceWorker> Workers;
  Workers.reserve(W);
  for (unsigned K = 0; K < W; ++K)
    Workers.emplace_back(Alg, G, HE, Opts);
  std::vector<std::vector<Issue>> Buffers(Items.size());
  std::vector<char> Completed(Items.size(), 0);
  RunGuard *Guard = Opts.Guard;

  // Workers of a fan-out checkpoint the one guard concurrently.
  const RunGuard::SharedScope Share(W > 1 ? Guard : nullptr);
  parallelForInterleaved(W, Items.size(), [&](unsigned Worker, size_t I) {
    // One checkpoint per item; a failing checkpoint (or an already-stopped
    // guard) skips the item.
    if (Guard && !Guard->checkpoint())
      return;
    Workers[Worker].slice(Items[I], Buffers[I]);
    if (Guard && Guard->stopped()) {
      Buffers[I].clear(); // discard the in-flight partial: underapproximate
      return;
    }
    Completed[I] = 1;
  });

  std::set<Issue> Dedup;
  for (size_t I = 0; I < Items.size(); ++I) {
    if (!Completed[I])
      continue;
    for (Issue &Iss : Buffers[I])
      if (Dedup.insert(Iss).second)
        Out.Issues.push_back(std::move(Iss));
  }
  for (const SliceWorker &Wk : Workers)
    Out.PathEdges += Wk.Work;
  std::sort(Out.Issues.begin(), Out.Issues.end());
}

/// Runs the SDG/heap checkers right after the graph bundle is ready (cold
/// build or warm restore). No-op unless verification is on and the build
/// completed without a governance stop — a truncated graph is deliberately
/// partial, not inconsistent. Under --verify=full a violating warm restore
/// additionally counts as a rejected persisted artifact (the cache's hot
/// tier skips the record checksum, so this is the only guard it has) and
/// the poisoned cache entry is dropped for later runs.
void verifySdgPhase(const Program &P, const SDG &G, const HeapEdges *HE,
                    const PointsToSolver &Solver, const SlicerOptions &Opts,
                    bool FromCache) {
  if (Opts.Verify == verify::VerifyMode::Off || !Opts.Violations)
    return;
  if (Opts.Guard && Opts.Guard->stopped())
    return;
  const uint64_t Before = Opts.Violations->total();
  verify::verifySdg(P, G, HE, Solver, Opts.Verify, *Opts.Violations);
  if (FromCache && Opts.Verify == verify::VerifyMode::Full &&
      Opts.Violations->total() != Before) {
    Opts.Violations->noteRestoreRejected();
    if (Opts.Cache)
      Opts.Cache->noteRestoreFailure(Opts.CacheKey);
  }
}

/// Replays every reported issue as a connected HSDG witness path after the
/// slicing loops finish. Skipped when slicing was cut short: the issue
/// list is then a pure function of the completed items, but the distances
/// a fresh replay finds need not match what a truncated traversal saw.
void verifyWitnessPhase(const SDG &G, const HeapEdges *HE,
                        const SliceRunResult &Out, const SlicerOptions &Opts) {
  if (Opts.Verify == verify::VerifyMode::Off || !Opts.Violations)
    return;
  if (Opts.Guard && Opts.Guard->stopped())
    return;
  verify::verifyWitnesses(G, HE, Out.Issues, *Opts.Violations);
}

SliceRunResult runSlicer(Algo Alg, const Program &P, const ClassHierarchy &CHA,
                         const PointsToSolver &Solver,
                         const SlicerOptions &Opts) {
  RunGuard *Guard = Opts.Guard;
  if (Guard)
    Guard->beginPhase(RunPhase::SdgBuild);
  SDGOptions SO;
  SO.Guard = Guard;
  SO.ContextExpanded = Alg != Algo::Ci;
  SO.WithChanParams = Alg == Algo::Cs;
  SO.ModelExceptionSources = Opts.ModelExceptionSources;
  if (Alg == Algo::Cs)
    SO.ChanNodeBudget = Opts.CsChanBudget;
  SO.Profile = Opts.Profile;
  std::optional<persist::SdgArtifacts> A;
  {
    PhaseScope PS(Opts.Profile, "sdg");
    A.emplace(persist::loadOrBuildSdg(P, CHA, Solver, SO,
                                      Opts.NestedTaintDepth, Opts.Cache,
                                      Opts.CacheKey));
  }
  const SDG &G = *A->G;

  SliceRunResult Out;
  if (G.chanBudgetExceeded()) {
    // The CS channel extension exhausted memory: the configuration fails
    // on this input, as CS thin slicing does on TAJ's larger benchmarks.
    Out.Completed = false;
    return Out;
  }
  const HeapEdges &HE = *A->HE;
  verifySdgPhase(P, G, &HE, Solver, Opts, A->FromCache);

  if (Guard)
    Guard->beginPhase(RunPhase::Slicing);
  PhaseScope PS(Opts.Profile, "slicing");
  sliceItems(Alg, G, HE, Opts, Out);
  verifyWitnessPhase(G, &HE, Out, Opts);
  return Out;
}

} // namespace

SliceRunResult taj::runHybridSlicer(const Program &P,
                                    const ClassHierarchy &CHA,
                                    const PointsToSolver &Solver,
                                    const SlicerOptions &Opts) {
  return runSlicer(Algo::Hybrid, P, CHA, Solver, Opts);
}

SliceRunResult taj::runCsSlicer(const Program &P, const ClassHierarchy &CHA,
                                const PointsToSolver &Solver,
                                const SlicerOptions &Opts) {
  return runSlicer(Algo::Cs, P, CHA, Solver, Opts);
}

SliceRunResult taj::runCiSlicer(const Program &P, const ClassHierarchy &CHA,
                                const PointsToSolver &Solver,
                                const SlicerOptions &Opts) {
  return runSlicer(Algo::Ci, P, CHA, Solver, Opts);
}
