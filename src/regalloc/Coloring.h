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

/// Controls for colorGraph. Select is always the paper's one sequential
/// pass over the coloring stack.
struct SelectOptions {
  /// Inert: read only by perfbench; deleted by ROADMAP item 7.
  bool Parallel = false;
  /// Inert: read only by perfbench; deleted by ROADMAP item 7.
  unsigned Threads = 0;
  /// Inert: read only by perfbench; deleted by ROADMAP item 7.
  unsigned MinNodes = 2048;

  /// Resource-governance token (support/Budget.h), or null for the
  /// ungoverned default. Simplify and select poll it per node; a trip
  /// abandons the phase mid-flight, leaving the ColoringResult partial —
  /// callers that govern must check the token before trusting a result.
  Budget *Governor = nullptr;
};

/// Inert: read only by perfbench; deleted by ROADMAP item 7.
struct SelectRound {
  uint32_t Conflicts = 0;
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

  /// Inert, always empty: read only by perfbench; deleted by ROADMAP item 7.
  std::vector<SelectRound> SelectRounds;

  bool success() const { return Spilled.empty(); }
};

/// Runs heuristic \p H on \p G with \p K colors. Requires K >= 1 and a
/// finalized \p G.
/// Ties in the cost/degree spill metric break toward the lowest node id
/// (the paper's footnote 4: "often something as trivial as a symbol
/// table index"), consistently across heuristics.
/// \p SO carries the optional resource governor.
ColoringResult colorGraph(const InterferenceGraph &G, unsigned K,
                          Heuristic H, const SelectOptions &SO = {});

/// Checks that \p R is a valid (partial) coloring of \p G: no two
/// adjacent nodes share a color and all colors are < \p K.
bool isValidColoring(const InterferenceGraph &G, unsigned K,
                     const ColoringResult &R);

} // namespace ra

#endif // RA_REGALLOC_COLORING_H
