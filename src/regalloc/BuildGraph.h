//===- regalloc/BuildGraph.h - Interference graph construction -*- C++ -*-===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Builds interference graphs from liveness. Each block is walked
/// backward from its live-out set; a definition interferes with every
/// live range live at that point — except, for a Copy, the copy source
/// (Chaitin's rule, which is what makes coalescing possible).
///
/// Integer and floating-point registers live in disjoint files on the
/// target, so one graph is built per register class, each with a dense
/// node numbering and a mapping back to vreg ids.
///
//===----------------------------------------------------------------------===//

#ifndef RA_REGALLOC_BUILDGRAPH_H
#define RA_REGALLOC_BUILDGRAPH_H

#include "analysis/Liveness.h"
#include "regalloc/InterferenceGraph.h"

#include <array>

namespace ra {

class Budget;

/// The interference graph of one register class plus the node<->vreg
/// correspondence.
struct ClassGraph {
  RegClass Class = RegClass::Int;
  InterferenceGraph Graph;
  std::vector<VRegId> NodeToVReg;   ///< dense node id -> vreg id
  std::vector<uint32_t> VRegToNode; ///< vreg id -> node id or ~0u
};

/// Builds per-class interference graphs for \p F. Spill costs on the
/// nodes are left zero; callers fill them via \c setNodeCosts.
///
/// \p Gov, when non-null, is polled once per block during the
/// interference walk; a tripped budget stops the build early (the
/// graphs are then partial — callers must check the token and discard
/// them before coloring).
std::array<ClassGraph, NumRegClasses>
buildInterferenceGraphs(const Function &F, const Liveness &LV,
                        Budget *Gov = nullptr);

/// Copies \p Costs (per vreg) onto the graph nodes and marks spill
/// temporaries NoSpill.
void setNodeCosts(const Function &F, const std::vector<double> &Costs,
                  ClassGraph &CG);

} // namespace ra

#endif // RA_REGALLOC_BUILDGRAPH_H
