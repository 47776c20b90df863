//===- bench/fig6_quicksort.cpp - Figure 6 reproduction -------------------===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// The quicksort study: compile Wirth's non-recursive quicksort with the
// integer register file shrunk from 16 down to 8 registers, under both
// heuristics. For each configuration: live ranges spilled, estimated
// spill cost, object size, and simulated running time sorting 200,000
// integers. The paper's findings to reproduce: both methods agree at 16
// registers, the optimistic method wins increasingly as the file
// shrinks, and an inadequate register set costs real time (27% slower
// and 17% more code at 8 registers, old method). Every allocated run is
// checked against the virtual-register run with compareRuns; any
// difference exits 1.
//
//===----------------------------------------------------------------------===//

#include "opt/Optimizer.h"
#include "regalloc/Allocator.h"
#include "sim/Simulator.h"
#include "support/Table.h"
#include "workloads/Workloads.h"

#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>

using namespace ra;

namespace {

constexpr uint32_t SortN = 200000;
/// Model clock for converting simulated cycles into seconds (the paper
/// sorted 200,000 integers in ~8 seconds on the RT/PC).
constexpr double ClockHz = 11.0e6;

struct Config {
  unsigned Spilled = 0;
  double SpillCost = 0;
  unsigned ObjectBytes = 0;
  double Seconds = 0;
};

/// One simulated sort's instruction ceiling: the sort runs past the
/// default 2^32 instructions.
const SimOptions SortRun{.MaxInstructions = 1ull << 33};

/// The virtual-register run of the optimized sort; every allocation's
/// run must reproduce it.
struct Reference {
  Module M;
  std::optional<MemoryImage> Mem;
  ExecutionResult Run;

  Reference() {
    Function &F = buildQuicksort(M, SortN);
    optimizeFunction(F);
    Mem.emplace(M);
    initQuicksortMemory(M, *Mem);
    Run = Simulator(M).runVirtual(F, *Mem, SortRun);
  }
};

Config measure(unsigned K, Heuristic H, const Reference &Ref) {
  Config R;
  Module M;
  Function &F = buildQuicksort(M, SortN);
  optimizeFunction(F);

  AllocatorConfig C;
  C.H = H;
  C.Machine = MachineInfo(K, 8);
  C.Audit = true; // every reported number comes from a proven coloring
  AllocationResult A = allocateRegisters(F, C);
  if (!A.Success || A.Outcome != AllocOutcome::Converged) {
    std::fprintf(stderr, "allocation failed at k=%u: %s\n", K,
                 A.Diag.toString().c_str());
    std::exit(1);
  }
  R.Spilled = A.Stats.totalSpills();
  for (const PassRecord &P : A.Stats.Passes)
    R.SpillCost += P.SpilledCost;
  R.ObjectBytes = F.numInstructions() * CostModel::rtpc().bytesPerInstruction();

  MemoryImage Mem(M);
  initQuicksortMemory(M, Mem);
  Simulator Sim(M);
  ExecutionResult Run = Sim.runAllocated(F, A, Mem, SortRun);
  std::string Diff = compareRuns(Ref.M, Ref.Run, *Ref.Mem, Run, Mem);
  if (!Diff.empty()) {
    std::fprintf(stderr, "%s at k=%u: %s\n", heuristicName(H), K,
                 Diff.c_str());
    std::exit(1);
  }
  R.Seconds = double(Run.Cycles) / ClockHz;
  return R;
}

} // namespace

int main() {
  std::printf("Figure 6 — quicksort study (Wirth's non-recursive "
              "algorithm, %u integers)\n\n",
              SortN);

  Table T({"Registers", "Spilled Old", "New", "Pct.", "Cost Old", "New",
           "Pct.", "Object Old", "New", "Pct.", "Time Old", "New",
           "Pct."});

  const Reference Ref;
  for (unsigned K : {16u, 14u, 12u, 10u, 8u}) {
    Config Old = measure(K, Heuristic::Chaitin, Ref);
    Config New = measure(K, Heuristic::Briggs, Ref);
    T.addRow({std::to_string(K), Table::withCommas(Old.Spilled),
              Table::withCommas(New.Spilled),
              Table::pctImprovement(Old.Spilled, New.Spilled),
              Table::withCommas(int64_t(Old.SpillCost)),
              Table::withCommas(int64_t(New.SpillCost)),
              Table::pctImprovement(Old.SpillCost, New.SpillCost),
              Table::withCommas(Old.ObjectBytes),
              Table::withCommas(New.ObjectBytes),
              Table::pctImprovement(Old.ObjectBytes, New.ObjectBytes),
              Table::fixed(Old.Seconds, 1), Table::fixed(New.Seconds, 1),
              Table::pctImprovement(Old.Seconds, New.Seconds)});
  }
  T.print();

  std::printf("\nSpill counts/costs are totals across all allocation "
              "passes; time is simulated cycles at %.0f MHz.\n",
              ClockHz / 1e6);
  return 0;
}
