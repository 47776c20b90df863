//===- bench/fig5_allocation.cpp - Figure 5 reproduction ------------------===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Regenerates the paper's Figure 5: for every routine of the five
// benchmark programs, object size, live ranges, registers spilled and
// estimated spill cost under Chaitin's heuristic (Old) and the
// optimistic heuristic (New), with percentage improvements, plus the
// whole-program dynamic improvement measured by the cycle-counting
// simulator. Sixteen integer registers, eight floating-point — the
// IBM RT/PC configuration. Every allocated run is checked against the
// routine's virtual-register run with compareRuns; any difference exits
// 1.
//
//===----------------------------------------------------------------------===//

#include "ir/Verifier.h"
#include "opt/Optimizer.h"
#include "regalloc/Allocator.h"
#include "sim/Simulator.h"
#include "support/Table.h"
#include "workloads/Workloads.h"

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>

using namespace ra;

namespace {

struct RoutineResult {
  unsigned ObjectBytes = 0;
  unsigned LiveRanges = 0;
  unsigned SpilledOld = 0, SpilledNew = 0;
  double CostOld = 0, CostNew = 0;
  uint64_t CyclesOld = 0, CyclesNew = 0;
  bool Timed = true;
};

RoutineResult measure(const Workload &W) {
  RoutineResult R;
  R.Timed = W.Timed;
  CostModel CM = CostModel::rtpc();

  // The virtual-register run of the optimized routine: both
  // heuristics' allocated runs must reproduce it.
  Module RefM;
  Function &RefF = W.Build(RefM);
  optimizeFunction(RefF);
  MemoryImage RefMem(RefM);
  W.Init(RefM, RefMem);
  ExecutionResult Ref = Simulator(RefM, CM).runVirtual(RefF, RefMem);

  for (Heuristic H : {Heuristic::Chaitin, Heuristic::Briggs}) {
    Module M;
    Function &F = W.Build(M);
    // The paper's compiler ran its optimizer before allocation; LICM
    // and strength reduction recreate the long live ranges it saw.
    optimizeFunction(F);
    AllocatorConfig C;
    C.H = H;
    C.Audit = true; // every reported number comes from a proven coloring
    AllocationResult A = allocateRegisters(F, C);
    if (!A.Success || A.Outcome != AllocOutcome::Converged) {
      std::fprintf(stderr, "allocation failed for %s: %s\n",
                   W.Routine.c_str(), A.Diag.toString().c_str());
      std::exit(1);
    }
    Simulator Sim(M, CM);
    MemoryImage Mem(M);
    W.Init(M, Mem);
    ExecutionResult Run = Sim.runAllocated(F, A, Mem);
    std::string Diff = compareRuns(RefM, Ref, RefMem, Run, Mem);
    if (!Diff.empty()) {
      std::fprintf(stderr, "%s (%s): %s\n", W.Routine.c_str(),
                   heuristicName(H), Diff.c_str());
      std::exit(1);
    }

    if (H == Heuristic::Chaitin) {
      R.SpilledOld = A.Stats.firstPassSpills();
      R.CostOld = A.Stats.firstPassSpillCost();
      R.CyclesOld = Run.Cycles;
    } else {
      R.SpilledNew = A.Stats.firstPassSpills();
      R.CostNew = A.Stats.firstPassSpillCost();
      R.CyclesNew = Run.Cycles;
      // Sizes reported for the New allocator, as in the paper.
      R.ObjectBytes = F.numInstructions() * CM.bytesPerInstruction();
      R.LiveRanges = A.Stats.initialLiveRanges();
    }
  }
  return R;
}

} // namespace

int main() {
  std::printf("Figure 5 — register allocation improvements\n");
  std::printf("(16 integer + 8 floating-point registers, RT/PC model)\n\n");

  Table T({"Program", "Routine", "Object Size", "Live Ranges",
           "Spilled Old", "New", "Pct.", "Cost Old", "New", "Pct.",
           "Dynamic Pct."});

  std::map<std::string, std::pair<uint64_t, uint64_t>> ProgramCycles;
  std::string LastProgram;

  // First pass over routines to collect per-program dynamic totals.
  std::vector<std::pair<const Workload *, RoutineResult>> Rows;
  for (const Workload &W : allWorkloads()) {
    RoutineResult R = measure(W);
    if (R.Timed) {
      ProgramCycles[W.Program].first += R.CyclesOld;
      ProgramCycles[W.Program].second += R.CyclesNew;
    }
    Rows.push_back({&W, R});
  }

  for (const auto &[W, R] : Rows) {
    bool NewProgram = W->Program != LastProgram;
    if (NewProgram && !LastProgram.empty())
      T.addSeparator();
    std::string Dynamic;
    if (NewProgram) {
      if (ProgramCycles.count(W->Program) &&
          ProgramCycles[W->Program].first != 0) {
        auto [Old, New] = ProgramCycles[W->Program];
        Dynamic = Table::fixed(100.0 * (double(Old) - double(New)) /
                                   double(Old),
                               2);
      } else {
        Dynamic = "n/a";
      }
    }
    T.addRow({NewProgram ? W->Program : "", W->Routine,
              Table::withCommas(R.ObjectBytes),
              Table::withCommas(R.LiveRanges),
              Table::withCommas(R.SpilledOld),
              Table::withCommas(R.SpilledNew),
              Table::pctImprovement(R.SpilledOld, R.SpilledNew),
              Table::withCommas(int64_t(R.CostOld)),
              Table::withCommas(int64_t(R.CostNew)),
              Table::pctImprovement(R.CostOld, R.CostNew), Dynamic});
    LastProgram = W->Program;
  }
  T.print();

  std::printf("\n'Pct.' columns show the reduction from Chaitin's "
              "heuristic (Old) to the optimistic heuristic (New).\n");
  std::printf("Dynamic Pct. is the whole-program cycle reduction; the "
              "paper reports CEDETA as n/a.\n");

  return 0;
}
