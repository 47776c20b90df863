//===- examples/graph_coloring_demo.cpp - Figures 2 and 3 ----------------===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// The coloring heuristics on the paper's own example graphs, using the
// standalone graph-coloring API (no IR needed):
//
//  * Figure 2 — a five-node graph that needs three colors; every
//    heuristic colors it.
//  * Figure 3 — the four-cycle w-x-z-y. It is 2-colorable, but every
//    node has degree two, so Chaitin's simplification gets stuck at
//    k = 2 and spills; the optimistic heuristic colors it.
//
//===----------------------------------------------------------------------===//

#include "regalloc/Coloring.h"

#include <cstdio>

using namespace ra;

namespace {

void show(const char *Title, const InterferenceGraph &G, unsigned K,
          const char *const *Names) {
  std::printf("%s (k = %u)\n", Title, K);
  for (Heuristic H :
       {Heuristic::Chaitin, Heuristic::Briggs, Heuristic::MatulaBeck}) {
    ColoringResult R = colorGraph(G, K, H);
    std::printf("  %-12s:", heuristicName(H));
    if (R.success()) {
      std::printf(" colored with %u colors —", R.NumColorsUsed);
      for (unsigned N = 0; N < G.numNodes(); ++N)
        std::printf(" %s:%d", Names[N], R.ColorOf[N]);
    } else {
      std::printf(" SPILLS");
      for (uint32_t N : R.Spilled)
        std::printf(" %s", Names[N]);
      std::printf(" (then colors the rest)");
    }
    std::printf("\n");
  }
  std::printf("\n");
}

} // namespace

int main() {
  std::printf("The paper's example graphs under all three heuristics.\n\n");

  // Figure 2: a-b-c triangle, b-d, c-d, d-e.
  {
    InterferenceGraph G(5);
    G.addEdge(0, 1);
    G.addEdge(0, 2);
    G.addEdge(1, 2);
    G.addEdge(1, 3);
    G.addEdge(2, 3);
    G.addEdge(3, 4);
    G.finalize();
    for (unsigned N = 0; N < 5; ++N)
      G.node(N).SpillCost = 100;
    const char *Names[] = {"a", "b", "c", "d", "e"};
    show("Figure 2 — three colors suffice", G, 3, Names);
  }

  // Figure 3: the 4-cycle w-x-z-y-w.
  {
    InterferenceGraph G(4);
    G.addEdge(0, 1); // w-x
    G.addEdge(1, 2); // x-z
    G.addEdge(2, 3); // z-y
    G.addEdge(3, 0); // y-w
    G.finalize();
    for (unsigned N = 0; N < 4; ++N)
      G.node(N).SpillCost = 100;
    const char *Names[] = {"w", "x", "z", "y"};
    show("Figure 3 — 2-colorable, but every degree is 2", G, 2, Names);
  }

  std::printf("Chaitin's heuristic spills on Figure 3 even though a "
              "2-coloring exists;\ndeferring the spill decision to the "
              "select phase (the paper's change) finds it.\n");
  return 0;
}
