//===- examples/alloc_inspect.cpp - allocation decision probe -------------===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Developer tool: prints per-pass allocator decisions (live ranges,
// interferences, spill choices with names) for one workload routine
// under each heuristic. Usage:
//
//   alloc_inspect [ROUTINE] [--no-opt] [--int K] [--flt K]
//                 [--dump-graph | --dot]
//
// --dump-graph lists every interference-graph node with its degree,
// spill cost and cost/degree ratio; --dot emits Graphviz instead.
//
//===----------------------------------------------------------------------===//

#include "analysis/Liveness.h"
#include "analysis/LoopInfo.h"
#include "analysis/Renumber.h"
#include "opt/Optimizer.h"
#include "regalloc/Allocator.h"
#include "regalloc/BuildGraph.h"
#include "regalloc/Coalesce.h"
#include "regalloc/GraphDump.h"
#include "regalloc/SpillCost.h"
#include "sim/Simulator.h"
#include "workloads/Workloads.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <cstdlib>

namespace {

/// Prints every node of the first-pass interference graphs: class,
/// name, degree, spill cost, cost/degree ratio. With \p Dot, emits
/// Graphviz instead (pipe through `dot -Tsvg`).
void dumpGraph(const ra::Workload &W, bool Optimize, bool Dot) {
  using namespace ra;
  Module M;
  Function &F = W.Build(M);
  if (Optimize)
    optimizeFunction(F);
  CFG G = CFG::compute(F);
  Dominators Doms = Dominators::compute(F, G);
  LoopInfo Loops = LoopInfo::compute(F, G, Doms);
  renumberLiveRanges(F, G);
  coalesceAll(F, G);
  renumberLiveRanges(F, G);
  Liveness LV = Liveness::compute(F, G);
  auto Graphs = buildInterferenceGraphs(F, LV);
  std::vector<double> Costs =
      computeSpillCosts(F, Loops, CostModel::rtpc());
  for (ClassGraph &CG : Graphs) {
    setNodeCosts(F, Costs, CG);
    if (Dot) {
      std::string Out = dumpGraphviz(
          CG.Graph, nullptr, W.Routine + "." + regClassName(CG.Class),
          nodeLabels(F, CG));
      std::fwrite(Out.data(), 1, Out.size(), stdout);
      continue;
    }
    std::printf("-- class %s: %u nodes %u edges --\n",
                regClassName(CG.Class), CG.Graph.numNodes(),
                CG.Graph.numEdges());
    std::vector<uint32_t> Order(CG.Graph.numNodes());
    for (uint32_t N = 0; N < Order.size(); ++N)
      Order[N] = N;
    std::sort(Order.begin(), Order.end(), [&](uint32_t A, uint32_t B) {
      return CG.Graph.degree(A) > CG.Graph.degree(B);
    });
    for (uint32_t N : Order) {
      const IGNode &Node = CG.Graph.node(N);
      unsigned Deg = CG.Graph.degree(N);
      std::printf("  %-16s deg %3u cost %10.0f ratio %8.1f\n",
                  F.vreg(CG.NodeToVReg[N]).Name.c_str(), Deg, Node.SpillCost,
                  Deg ? Node.SpillCost / Deg : 0.0);
    }
  }
}

} // namespace

using namespace ra;

int main(int Argc, char **Argv) {
  std::string Routine = "SVD";
  bool Optimize = true;
  bool DumpGraph = false;
  bool Dot = false;
  unsigned IntK = 16, FltK = 8;
  for (int I = 1; I < Argc; ++I) {
    if (!std::strcmp(Argv[I], "--no-opt"))
      Optimize = false;
    else if (!std::strcmp(Argv[I], "--dump-graph"))
      DumpGraph = true;
    else if (!std::strcmp(Argv[I], "--dot")) {
      DumpGraph = true;
      Dot = true;
    }
    else if (!std::strcmp(Argv[I], "--int") && I + 1 < Argc)
      IntK = unsigned(std::atoi(Argv[++I]));
    else if (!std::strcmp(Argv[I], "--flt") && I + 1 < Argc)
      FltK = unsigned(std::atoi(Argv[++I]));
    else
      Routine = Argv[I];
  }

  const Workload *W = findWorkload(Routine);
  if (!W) {
    std::fprintf(stderr, "unknown routine '%s'\n", Routine.c_str());
    return 1;
  }

  if (DumpGraph) {
    dumpGraph(*W, Optimize, Dot);
    return 0;
  }

  for (Heuristic H :
       {Heuristic::Chaitin, Heuristic::Briggs, Heuristic::MatulaBeck}) {
    Module M;
    Function &F = W->Build(M);
    if (Optimize)
      optimizeFunction(F);
    AllocatorConfig C;
    C.H = H;
    C.Machine = MachineInfo(IntK, FltK);
    AllocationResult A = allocateRegisters(F, C);

    std::printf("=== %s on %s (k=%u int / %u flt)%s ===\n",
                heuristicName(H), Routine.c_str(), IntK, FltK,
                A.Success ? "" : "  [DID NOT CONVERGE]");
    for (unsigned P = 0; P < A.Stats.numPasses(); ++P) {
      const PassRecord &R = A.Stats.Passes[P];
      std::printf("pass %u: %u ranges, %u edges, %u spilled, cost %.0f\n",
                  P + 1, R.LiveRanges, R.Interferences,
                  R.SpilledLiveRanges, R.SpilledCost);
      if (!R.SpilledNames.empty()) {
        std::printf("  spilled:");
        for (const std::string &Name : R.SpilledNames)
          std::printf(" %s", Name.c_str());
        std::printf("\n");
      }
    }
    std::printf("total spilled ranges: %u, spill loads %u stores %u\n\n",
                A.Stats.totalSpills(), A.Stats.SpillCode.Loads,
                A.Stats.SpillCode.Stores);
  }
  return 0;
}
