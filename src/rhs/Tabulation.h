//===- rhs/Tabulation.h - RHS summary-based reachability -------*- C++ -*-===//
//
// Part of the TAJ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Context-sensitive (realizable-path) forward reachability over an SDG,
/// after Reps-Horwitz-Sagiv tabulation [POPL'95] as used by TAJ §3.2:
/// same-level summaries from formal-ins to formal-outs are computed on
/// demand and applied at call sites, and slices are taken in the classic
/// two-phase Horwitz-Reps-Binkley style (phase 1 ascends to callers using
/// summaries to step over calls; phase 2 descends into callees).
///
/// Traversal is per security rule: statements that sanitize the rule — and
/// sink statements — have no successors (paper §3.2).
///
//===----------------------------------------------------------------------===//

#ifndef TAJ_RHS_TABULATION_H
#define TAJ_RHS_TABULATION_H

#include "sdg/SDG.h"
#include "support/InternIndex.h"

#include <vector>

namespace taj {

class RunGuard;

/// Demand-driven tabulation over one SDG for one security rule. Summaries
/// are memoized across slice requests, so reuse one instance per
/// (SDG, rule) pair.
///
/// When a RunGuard is supplied, every worklist pop checkpoints it; on a
/// cutoff the pending work is dropped and the slice computed so far is
/// returned as-is (an underapproximation of realizable reachability).
class Tabulation {
public:
  Tabulation(const SDG &G, RuleMask Rule, RunGuard *Guard = nullptr);

  /// Dense slice state over the SDG's node ids, meant to be reused across
  /// slices: pass the same object to forwardSlice to grow a slice
  /// incrementally (the hybrid slicer adds store->load hop seeds), and
  /// reset() it between slices, which costs O(reached), not O(nodes).
  struct SliceResult {
    static constexpr uint32_t Unreached = ~0u;

    explicit SliceResult(uint32_t NumNodes)
        : Dist(NumNodes, Unreached), Parent(NumNodes, InvalidId) {}

    /// node -> BFS distance from the nearest seed (Unreached if none).
    std::vector<uint32_t> Dist;
    /// node -> discovery predecessor (InvalidId for seeds and unreached
    /// nodes).
    std::vector<SDGNodeId> Parent;
    /// Every reached node, in first-reach order. The entries one
    /// traversal appends are the nodes it reached first (its delta).
    std::vector<SDGNodeId> Reached;

    bool reached(SDGNodeId N) const { return Dist[N] != Unreached; }
    /// First reach of \p N at distance \p D from \p Par.
    void reach(SDGNodeId N, uint32_t D, SDGNodeId Par) {
      Dist[N] = D;
      Parent[N] = Par;
      Reached.push_back(N);
    }
    void reset() {
      for (SDGNodeId N : Reached) {
        Dist[N] = Unreached;
        Parent[N] = InvalidId;
      }
      Reached.clear();
    }
  };

  /// Extends \p R with everything forward-reachable along realizable paths
  /// from \p Seeds (pairs of node and initial distance). \p R must be
  /// sized to the SDG.
  void forwardSlice(const std::vector<std::pair<SDGNodeId, uint32_t>> &Seeds,
                    SliceResult &R);

  /// Number of path edges processed (scalability metric).
  uint64_t pathEdgeCount() const { return PathEdgeCount; }

private:
  /// Call-site info owning an ActualIn/ChanActualIn/Invoke-stmt node.
  const CallSiteInfo *siteOf(SDGNodeId N) const;

  // --- Summary engine -----------------------------------------------------
  /// The row of formal-in \p FIn. The first call seeds \p FIn: it adds
  /// the row and queues the work item (FIn, FIn, 0).
  uint32_t summaryRow(SDGNodeId FIn);
  void drainSummaries();
  void recordSummaryOut(SDGNodeId FIn, SDGNodeId FOut, uint32_t D);
  void propagateSame(SDGNodeId FIn, SDGNodeId N, uint32_t D);

  // --- Two-phase slicing ---------------------------------------------------
  struct QueueEntry {
    SDGNodeId N;
    uint32_t D;
    SDGNodeId Par;
  };
  /// Starts a traversal phase: empties the queue and forgets which nodes
  /// the previous phase popped.
  void beginPhase();
  /// True the first time \p N is popped in the current phase (later pops
  /// of the node are skipped: first pop wins).
  bool firstPop(SDGNodeId N);
  /// Steps over a call: completes the summary of callee formal-in \p FIn,
  /// then queues every actual-out it yields at \p N's call site.
  void stepOverCall(SDGNodeId FIn, SDGNodeId N, uint32_t D);

  const SDG &G;
  RuleMask Rule;
  RunGuard *Guard = nullptr;
  uint64_t PathEdgeCount = 0;

  // Per-phase traversal state, reused across calls.
  std::vector<QueueEntry> Queue;
  std::vector<uint32_t> PoppedIn; ///< node -> phase stamp of its last pop
  uint32_t Phase = 0;

  // --- Summary memos, kept across slices -----------------------------------
  static constexpr uint32_t End = ~0u; ///< end of a row's list
  /// A same-level path edge: (formal-in, node) as FIn << 32 | node, and
  /// the shortest distance found.
  struct PathEdge {
    uint64_t Key;
    uint32_t D;
  };
  struct SummaryOut {
    SDGNodeId Out; ///< a formal-out (or channel formal-out) of the callee
    uint32_t D;    ///< its shortest interior distance from the formal-in
    uint32_t Next;
  };
  struct Sub {
    SDGNodeId Ctx; ///< the FIn whose same-level traversal waits here
    SDGNodeId At;  ///< the actual-in node where the summary applies
    uint32_t Next;
  };
  /// One seeded formal-in: its summary outs in discovery order, and the
  /// call sites waiting on them in subscription order, each a list linked
  /// through one pool shared by every row.
  struct SummaryRow {
    SDGNodeId FIn;
    uint32_t FirstOut = End, LastOut = End;
    uint32_t FirstSub = End, LastSub = End;
  };
  struct SummaryItem {
    SDGNodeId FIn, N;
    uint32_t D;
  };

  /// The index of the path edge with \p Key, or ~0u with \p Slot set to
  /// where it belongs.
  uint32_t findPathEdge(uint64_t Key, size_t &Slot) const;

  std::vector<PathEdge> PathEdges;
  InternIndex PathIndex; ///< path edge key -> its index in PathEdges
  /// A formal-in is seeded once it has a row.
  std::vector<SummaryRow> Rows;
  InternIndex RowIndex; ///< formal-in -> its index in Rows
  std::vector<SummaryOut> Outs;
  std::vector<Sub> Subs;
  /// Same-level work, drained FIFO; empty between drains.
  std::vector<SummaryItem> SummaryWork;
};

} // namespace taj

#endif // TAJ_RHS_TABULATION_H
