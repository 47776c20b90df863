//===- regalloc/Coloring.cpp - Simplify/select heuristics -----------------===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "regalloc/Coloring.h"

#include "regalloc/DegreeBuckets.h"
#include "regalloc/SpillHeap.h"
#include "support/Budget.h"
#include "support/Trace.h"

#include <cassert>

using namespace ra;

const char *ra::heuristicName(Heuristic H) {
  switch (H) {
  case Heuristic::Chaitin:    return "chaitin";
  case Heuristic::Briggs:     return "briggs";
  case Heuristic::MatulaBeck: return "matula-beck";
  }
  return "<bad>";
}

namespace {

/// Removes \p N from the working graph, decrementing live neighbors.
/// Pure bucket operations: the spill heap re-keys a node only when it
/// pops a stale entry, so decrements cost it nothing.
void removeNode(const InterferenceGraph &G, DegreeBuckets &Buckets,
                uint32_t N) {
  Buckets.remove(N);
  for (uint32_t M : G.neighbors(N))
    if (!Buckets.isRemoved(M))
      Buckets.decrementDegree(M);
}

} // namespace

ColoringResult ra::colorGraph(const InterferenceGraph &G, unsigned K,
                              Heuristic H, const SelectOptions &SO) {
  assert(K >= 1 && "need at least one color");
  ColoringResult R;
  unsigned N = G.numNodes();
  R.ColorOf.assign(N, -1);
  if (N == 0)
    return R;

  // Simplify/select read only the packed rows.
  assert(G.finalized() && "color a finalized graph");

  // Counter tracking is gated on an active trace session: when off, the
  // only residue is dead local integers (and no StuckPushed allocation).
  const bool Tracing = trace::enabled();
  uint64_t StuckEntries = 0, StuckPicks = 0, OptimisticSaves = 0;
  std::vector<bool> StuckPushed;
  if (Tracing && H == Heuristic::Briggs)
    StuckPushed.assign(N, false);

  //===------------------------------------------------------------===//
  // Phase 2: simplify.
  //===------------------------------------------------------------===//
  Budget *Gov = SO.Governor;
  {
    RA_TRACE_PHASE(R.SimplifySeconds, "Simplify", "regalloc", [&] {
      return "nodes=" + std::to_string(N) + ";k=" + std::to_string(K) +
             ";heuristic=" + heuristicName(H);
    });
    DegreeBuckets Buckets;
    {
      std::vector<uint32_t> Degrees(N);
      for (uint32_t I = 0; I < N; ++I)
        Degrees[I] = G.degree(I);
      Buckets.init(Degrees);
    }

    R.RemovalOrder.reserve(N);
    SpillCandidateHeap SpillHeap; // built on the first stuck step

    uint32_t Hint = 0;
    bool InStuckRegion = false;
    while (Buckets.numLive() != 0) {
      if (Gov && !Gov->checkpoint())
        break; // over budget: abandon simplify, skip select entirely
      uint32_t D = Buckets.lowestNonEmpty(Hint);
      assert(D != DegreeBuckets::None && "live nodes but empty buckets");

      uint32_t Chosen;
      bool Push = true;
      if (D < K || H == Heuristic::MatulaBeck) {
        // Unconstrained node (or smallest-last regardless of K): remove
        // the head of the lowest bucket.
        Chosen = Buckets.head(D);
        InStuckRegion = false;
      } else {
        StuckEntries += !InStuckRegion;
        InStuckRegion = true;
        ++StuckPicks;
        // Stuck: every remaining node has K or more neighbors. Fall back
        // on Chaitin's estimator (Section 2.3) to choose the node, then
        // either mark it spilled (Chaitin) or push it optimistically
        // (Briggs). The heap keeps one entry per live node and re-keys
        // an entry only when it pops with a stale degree; keys only get
        // worse, so an entry that pops current is the exact minimum
        // (SpillHeap.h). Until the first stuck step it costs nothing.
        if (!SpillHeap.active())
          SpillHeap.build(G, Buckets);
        Chosen = SpillHeap.pick(G, Buckets);
        if (!StuckPushed.empty())
          StuckPushed[Chosen] = true; // Briggs: optimistic push, tracked
        if (H == Heuristic::Chaitin) {
          R.Spilled.push_back(Chosen);
          R.SpilledCost += G.node(Chosen).SpillCost;
          Push = false;
        }
      }

      removeNode(G, Buckets, Chosen);
      if (Push)
        R.RemovalOrder.push_back(Chosen);
      // Matula-Beck's search refinement: removing a node from bucket D
      // can create degree D-1 but nothing lower.
      Hint = D == 0 ? 0 : D - 1;
    }
  }

  //===------------------------------------------------------------===//
  // Phase 3: select. Rebuild the graph in reverse removal order,
  // assigning each node the first color unused by its already-inserted
  // neighbors. Uncolorable nodes are left uncolored (Briggs) — spill
  // decisions deferred to this phase.
  //===------------------------------------------------------------===//
  {
    RA_TRACE_PHASE(R.SelectSeconds, "Select", "regalloc");
    // A budget trip leaves the removal stack partial; select over it
    // would miscount spills (and trip the Chaitin colorability assert),
    // so the phase is skipped outright — the governed caller discards
    // the result anyway.
    if (!Gov || !Gov->exhausted()) {
      std::vector<bool> Used(K);
      std::vector<bool> Inserted(N, false);
      for (auto It = R.RemovalOrder.rbegin(), E = R.RemovalOrder.rend();
           It != E; ++It) {
        if (Gov && !Gov->checkpoint())
          break; // partial coloring; governed caller discards it
        uint32_t Node = *It;
        std::fill(Used.begin(), Used.end(), false);
        for (uint32_t M : G.neighbors(Node))
          if (Inserted[M] && R.ColorOf[M] >= 0)
            Used[R.ColorOf[M]] = true;
        int32_t Color = -1;
        for (unsigned C = 0; C < K; ++C)
          if (!Used[C]) {
            Color = int32_t(C);
            break;
          }
        if (Color < 0) {
          assert(H != Heuristic::Chaitin &&
                 "Chaitin's stack nodes are always colorable");
          R.Spilled.push_back(Node);
          R.SpilledCost += G.node(Node).SpillCost;
        } else {
          R.ColorOf[Node] = Color;
          R.NumColorsUsed = std::max(R.NumColorsUsed, unsigned(Color) + 1);
          if (!StuckPushed.empty() && StuckPushed[Node])
            ++OptimisticSaves; // a stuck-pushed node still found a color
        }
        Inserted[Node] = true;
      }
    }
  }

  if (Tracing) {
    RA_TRACE_COUNTER("coloring.stuck_entries", double(StuckEntries));
    RA_TRACE_COUNTER("coloring.stuck_picks", double(StuckPicks));
    if (H == Heuristic::Briggs)
      RA_TRACE_COUNTER("coloring.optimistic_saves", double(OptimisticSaves));
    RA_TRACE_COUNTER("coloring.spilled", double(R.Spilled.size()));
  }

  return R;
}

bool ra::isValidColoring(const InterferenceGraph &G, unsigned K,
                         const ColoringResult &R) {
  if (R.ColorOf.size() != G.numNodes())
    return false;
  for (uint32_t N = 0, E = G.numNodes(); N != E; ++N) {
    int32_t C = R.ColorOf[N];
    if (C >= int32_t(K))
      return false;
    if (C < 0)
      continue;
    for (uint32_t M : G.neighbors(N))
      if (M > N && R.ColorOf[M] == C)
        return false;
  }
  return true;
}
