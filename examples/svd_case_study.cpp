//===- examples/svd_case_study.cpp - the paper's motivating example -------===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Walks through Section 1.2 / Section 3 of the paper on the
// reconstructed SVD routine: allocates it with Chaitin's heuristic and
// with the optimistic heuristic, showing per-pass spill decisions (which
// live ranges each pass gave up on), the resulting spill counts and
// estimated costs, and the simulated cycle counts.
//
//===----------------------------------------------------------------------===//

#include "opt/Optimizer.h"
#include "regalloc/Allocator.h"
#include "sim/Simulator.h"
#include "workloads/Workloads.h"

#include <cstdio>

using namespace ra;

namespace {

/// Prints one heuristic's allocation; false when the allocation failed
/// or its simulated run trapped.
bool report(Heuristic H) {
  const Workload *W = findWorkload("SVD");
  Module M;
  Function &F = W->Build(M);
  optimizeFunction(F);

  AllocatorConfig C;
  C.H = H;
  AllocationResult A = allocateRegisters(F, C);
  if (!A.Success) {
    std::fprintf(stderr, "%s: allocation failed: %s\n", heuristicName(H),
                 A.Diag.toString().c_str());
    return false;
  }

  std::printf("=== %s ===\n", heuristicName(H));
  std::printf("passes: %u, coalesced copies: %u\n", A.Stats.numPasses(),
              A.Stats.CopiesCoalesced);
  for (unsigned P = 0; P < A.Stats.numPasses(); ++P) {
    const PassRecord &R = A.Stats.Passes[P];
    std::printf("pass %u: %u live ranges, %u interferences, "
                "%u spilled (cost %.0f)\n",
                P + 1, R.LiveRanges, R.Interferences,
                R.SpilledLiveRanges, R.SpilledCost);
    if (!R.SpilledNames.empty()) {
      std::printf("  spilled:");
      for (const std::string &Name : R.SpilledNames)
        std::printf(" %s", Name.c_str());
      std::printf("\n");
    }
  }

  Simulator Sim(M);
  MemoryImage Mem(M);
  W->Init(M, Mem);
  ExecutionResult Run = Sim.runAllocated(F, A, Mem);
  if (!Run.Ok) {
    std::fprintf(stderr, "%s: simulation trapped: %s\n", heuristicName(H),
                 Run.Error.c_str());
    return false;
  }
  std::printf("simulated: %llu cycles (%llu in spill code, %llu spill "
              "ops), result %.6f\n\n",
              (unsigned long long)Run.Cycles,
              (unsigned long long)Run.SpillCycles,
              (unsigned long long)Run.SpillOps, Run.FloatReturn);
  return true;
}

} // namespace

int main() {
  std::printf("SVD case study (Figure 1 structure): how deferring the\n"
              "spill decision cleans up the simplification phase's bad "
              "choices.\n\n");
  return report(Heuristic::Chaitin) && report(Heuristic::Briggs) ? 0 : 1;
}
