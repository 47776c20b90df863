//===- regalloc/GraphDump.cpp - Graphviz output ---------------------------===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "regalloc/GraphDump.h"

#include <cstdio>

using namespace ra;

std::vector<std::string> ra::nodeLabels(const Function &F,
                                        const ClassGraph &CG) {
  std::vector<std::string> Labels;
  for (VRegId R : CG.NodeToVReg)
    Labels.push_back(F.vreg(R).Name);
  return Labels;
}

std::string ra::dumpGraphviz(const InterferenceGraph &G,
                             const ColoringResult *Result,
                             const std::string &Name,
                             const std::vector<std::string> &Labels) {
  // A small qualitative palette; colors repeat past eight registers.
  static const char *const Palette[] = {
      "#66c2a5", "#fc8d62", "#8da0cb", "#e78ac3",
      "#a6d854", "#ffd92f", "#e5c494", "#b3b3b3",
  };
  constexpr unsigned PaletteSize = sizeof(Palette) / sizeof(Palette[0]);

  std::string Out = "graph \"" + Name + "\" {\n";
  Out += "  node [style=filled, fontname=\"monospace\"];\n";
  for (unsigned N = 0; N < G.numNodes(); ++N) {
    const IGNode &Node = G.node(N);
    std::string Label = N < Labels.size() && !Labels[N].empty()
                            ? Labels[N]
                            : "n" + std::to_string(N);
    char Buf[256];
    if (Result && N < Result->ColorOf.size()) {
      int32_t C = Result->ColorOf[N];
      if (C >= 0) {
        std::snprintf(Buf, sizeof(Buf),
                      "  n%u [label=\"%s\\nr%d\", fillcolor=\"%s\"];\n",
                      N, Label.c_str(), C,
                      Palette[unsigned(C) % PaletteSize]);
      } else {
        std::snprintf(Buf, sizeof(Buf),
                      "  n%u [label=\"%s\\nspilled\", shape=box, "
                      "fillcolor=\"#dddddd\"];\n",
                      N, Label.c_str());
      }
    } else {
      std::snprintf(Buf, sizeof(Buf),
                    "  n%u [label=\"%s\\ncost %.0f\", "
                    "fillcolor=\"white\"];\n",
                    N, Label.c_str(), Node.SpillCost);
    }
    Out += Buf;
  }
  for (unsigned N = 0; N < G.numNodes(); ++N)
    for (uint32_t M : G.neighbors(N))
      if (M > N)
        Out += "  n" + std::to_string(N) + " -- n" + std::to_string(M) +
               ";\n";
  Out += "}\n";
  return Out;
}
