//===- regalloc/Coloring.h - Simplify/select heuristics --------*- C++ -*-===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The three coloring heuristics the paper discusses, over an abstract
/// interference graph:
///
///  * Chaitin  — pessimistic: when every remaining node has degree >= k,
///    the minimum cost/degree node is removed and *marked spilled*; it
///    never reaches the select phase [Chai 82].
///  * Briggs   — optimistic (the paper's contribution): the stuck node is
///    chosen exactly as Chaitin would (Section 2.3's refinement) but is
///    pushed on the stack anyway; the spill decision is deferred to
///    select, which may still find it a color because neighbors were
///    given duplicate colors or were themselves spilled (Section 2.2).
///  * MatulaBeck — pure smallest-last ordering [MaBe 81]: always remove
///    a lowest-degree node, never consult spill costs. Included as the
///    ablation the paper argues against in Section 2.3 ("arbitrary
///    allocations — possibly terrible allocations").
///
/// Chaitin and Briggs share one simplify implementation, so their
/// removal sequences are identical — which is what makes the paper's
/// guarantee hold: Briggs spills a subset of the nodes Chaitin spills.
///
//===----------------------------------------------------------------------===//

#ifndef RA_REGALLOC_COLORING_H
#define RA_REGALLOC_COLORING_H

#include "regalloc/InterferenceGraph.h"

#include <cstdint>
#include <vector>

namespace ra {

class Budget;

/// Which simplify/select policy to run.
enum class Heuristic : uint8_t { Chaitin, Briggs, MatulaBeck };

/// Printable heuristic name ("chaitin", "briggs", "matula-beck").
const char *heuristicName(Heuristic H);

/// Controls for the speculate-and-repair parallel Select phase
/// (ParallelSelect.cpp). The parallel path reproduces the sequential
/// greedy coloring *byte-identically* at any thread count — sequential
/// Select is the unique fixpoint of "every node holds the lowest color
/// unused by its earlier-ranked colored neighbors", and the repair
/// rounds converge to exactly that fixpoint — so these knobs only move
/// wall-clock time and scheduling-dependent round counts, never results.
struct SelectOptions {
  /// Off by default: the sequential loop in colorGraph stays the oracle.
  bool Parallel = false;

  /// Worker threads for the speculative rounds; 0 = one per hardware
  /// thread (ThreadPool::resolveJobs).
  unsigned Threads = 0;

  /// Graphs whose select stack is smaller than this many nodes keep the
  /// sequential path even when Parallel is set — below it, thread spawn
  /// outweighs the work.
  unsigned MinNodes = 2048;

  /// Safety valve on the repair loop. Convergence is guaranteed in at
  /// most stack-size rounds (the minimum-rank wrong node is fixed every
  /// round); in practice a handful suffice. If this cap is ever hit, one
  /// sequential sweep in rank order finishes the job exactly.
  unsigned MaxRounds = 32;

  /// Test hook: speculation chunk size in nodes. 0 (the default) carves
  /// one contiguous chunk per thread; tests set small sizes to force
  /// many cross-chunk boundaries (and thus conflicts) on small graphs.
  unsigned ChunkSize = 0;

  /// Resource-governance token (support/Budget.h), or null for the
  /// ungoverned default. Simplify polls it per node removal, sequential
  /// select per node, and the parallel engine per repair round; a trip
  /// abandons the phase mid-flight, leaving the ColoringResult partial —
  /// callers that govern must check the token before trusting a result.
  Budget *Governor = nullptr;
};

/// What one speculate/detect/repair round of the parallel Select did.
/// Counts are scheduling-dependent (they vary with thread count and
/// interleaving, like wall time) — only the resulting coloring is
/// deterministic. Observability surfaces them under the trace
/// "sched" category, which normalizedLog drops by design.
struct SelectRound {
  uint32_t Colored = 0;   ///< Nodes (re)colored this round.
  uint32_t Checked = 0;   ///< Candidate nodes examined by detection.
  uint32_t Conflicts = 0; ///< Nodes found wrong, to repair next round.
};

/// Outcome of one simplify+select run over a graph.
struct ColoringResult {
  /// Color per node in [0, K), or -1 for spilled/uncolored nodes.
  std::vector<int32_t> ColorOf;

  /// Nodes that must be spilled, in decision order (simplify order for
  /// Chaitin, select order for Briggs/MatulaBeck).
  std::vector<uint32_t> Spilled;

  /// Simplify removal order, bottom of the coloring stack first. For
  /// Chaitin, spilled nodes do not appear here.
  std::vector<uint32_t> RemovalOrder;

  /// Sum of SpillCost over Spilled (the paper's "spill cost" metric).
  double SpilledCost = 0;

  /// Number of distinct colors actually used.
  unsigned NumColorsUsed = 0;

  /// Wall-clock seconds in the two phases (for Figure 7), filled by the
  /// phase scopes that record the "Simplify" and "Select" spans.
  double SimplifySeconds = 0, SelectSeconds = 0;

  /// True when select ran the parallel speculate-and-repair engine
  /// (coloring is still byte-identical to the sequential path).
  bool ParallelSelect = false;

  /// Per-round telemetry when ParallelSelect; empty otherwise. The first
  /// entry is the speculation round, the rest are repair rounds.
  std::vector<SelectRound> SelectRounds;

  bool success() const { return Spilled.empty(); }
};

/// Runs heuristic \p H on \p G with \p K colors. Requires K >= 1 and a
/// finalized \p G.
/// Ties in the cost/degree spill metric break toward the lowest node id
/// (the paper's footnote 4: "often something as trivial as a symbol
/// table index"), consistently across heuristics.
/// \p SO selects the Select-phase engine; the default keeps the
/// sequential path, and the parallel engine produces the same result.
ColoringResult colorGraph(const InterferenceGraph &G, unsigned K,
                          Heuristic H, const SelectOptions &SO = {});

/// Checks that \p R is a valid (partial) coloring of \p G: no two
/// adjacent nodes share a color and all colors are < \p K.
bool isValidColoring(const InterferenceGraph &G, unsigned K,
                     const ColoringResult &R);

} // namespace ra

#endif // RA_REGALLOC_COLORING_H
