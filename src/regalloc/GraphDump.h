//===- regalloc/GraphDump.h - Graphviz output ------------------*- C++ -*-===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Renders interference graphs in Graphviz DOT format for inspection
/// (`dot -Tsvg graph.dot`). Colored nodes are filled with a palette
/// color per register; spilled nodes are drawn as grey boxes.
///
//===----------------------------------------------------------------------===//

#ifndef RA_REGALLOC_GRAPHDUMP_H
#define RA_REGALLOC_GRAPHDUMP_H

#include "regalloc/BuildGraph.h"
#include "regalloc/Coloring.h"

#include <string>
#include <vector>

namespace ra {

/// Renders \p G as an undirected DOT graph. With a non-null \p Result,
/// nodes are annotated with their assigned color (fill color chosen
/// from a small palette, cycling) or marked spilled. Node N is labeled
/// \p Labels[N]; a missing or empty label falls back to "n<N>".
std::string dumpGraphviz(const InterferenceGraph &G,
                         const ColoringResult *Result = nullptr,
                         const std::string &Name = "interference",
                         const std::vector<std::string> &Labels = {});

/// The live-range names of \p CG's nodes, for dumpGraphviz's labels.
std::vector<std::string> nodeLabels(const Function &F, const ClassGraph &CG);

} // namespace ra

#endif // RA_REGALLOC_GRAPHDUMP_H
