//===- bench/ablation_ordering.cpp - design-choice ablations --------------===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Ablations of the design choices the paper argues for:
//
//  1. Cost-guided ordering (Section 2.3): the optimistic allocator with
//     Chaitin's cost/degree choice in the stuck region, versus the pure
//     Matula-Beck smallest-last ordering of Section 2.2, which "would
//     produce arbitrary allocations — possibly terrible allocations".
//  2. Aggressive coalescing on/off: how much the build phase's copy
//     elimination matters to the final spill counts.
//  3. The optimizer in front of the allocator on/off: how much pressure
//     the 1989-era scalar optimizations add.
//
// Each ablation reports total spilled live ranges and estimated spill
// cost summed over every routine in the Figure 5 suite.
//
//===----------------------------------------------------------------------===//

#include "opt/Optimizer.h"
#include "regalloc/Allocator.h"
#include "support/Table.h"
#include "workloads/Workloads.h"

#include <cstdio>

using namespace ra;

namespace {

struct SuiteTotals {
  unsigned Spilled = 0;
  double Cost = 0;
  unsigned SpillOps = 0;
  unsigned Failures = 0;
};

SuiteTotals runSuite(Heuristic H, bool Coalesce, bool Optimize,
                     bool Remat = false,
                     CoalescePolicy Policy = CoalescePolicy::Aggressive) {
  SuiteTotals T;
  for (const Workload &W : allWorkloads()) {
    Module M;
    Function &F = W.Build(M);
    if (Optimize)
      optimizeFunction(F);
    AllocatorConfig C;
    C.H = H;
    C.Coalesce = Coalesce;
    C.Coalescing = Policy;
    C.Rematerialize = Remat;
    C.Audit = true; // every reported number comes from a proven coloring
    AllocationResult A = allocateRegisters(F, C);
    if (!A.Success || A.Outcome != AllocOutcome::Converged) {
      ++T.Failures;
      continue;
    }
    T.Spilled += A.Stats.totalSpills();
    for (const PassRecord &P : A.Stats.Passes)
      T.Cost += P.SpilledCost;
    T.SpillOps += A.Stats.SpillCode.Loads + A.Stats.SpillCode.Stores;
  }
  return T;
}

} // namespace

int main() {
  std::printf("Ablations over the full Figure 5 suite "
              "(totals across all 28 routines)\n\n");

  Table T({"Configuration", "Spilled Ranges", "Spill Cost",
           "Spill Instrs"});

  struct Row {
    const char *Name;
    Heuristic H;
    bool Coalesce, Optimize, Remat;
    CoalescePolicy Policy = CoalescePolicy::Aggressive;
  };
  const Row Rows[] = {
      {"Chaitin (pessimistic)", Heuristic::Chaitin, true, true, false},
      {"Briggs (optimistic, Sec. 2.3)", Heuristic::Briggs, true, true,
       false},
      {"Matula-Beck (no costs, Sec. 2.2)", Heuristic::MatulaBeck, true,
       true, false},
      {"Briggs + rematerialization", Heuristic::Briggs, true, true, true},
      {"Briggs, conservative coalescing", Heuristic::Briggs, true, true,
       false, CoalescePolicy::Conservative},
      {"Briggs, no coalescing", Heuristic::Briggs, false, true, false},
      {"Briggs, no optimizer", Heuristic::Briggs, true, false, false},
      {"Chaitin, no optimizer", Heuristic::Chaitin, true, false, false},
  };
  for (const Row &R : Rows) {
    SuiteTotals S =
        runSuite(R.H, R.Coalesce, R.Optimize, R.Remat, R.Policy);
    std::string Name = R.Name;
    if (S.Failures)
      Name += " [" + std::to_string(S.Failures) + " failed]";
    // A cost-blind ordering can spill protected spill temporaries,
    // whose estimate is "infinite"; render that honestly.
    std::string Cost = S.Cost > 1e27
                           ? "inf (spilled spill temps)"
                           : Table::withCommas(int64_t(S.Cost));
    T.addRow({Name, Table::withCommas(S.Spilled), Cost,
              Table::withCommas(S.SpillOps)});
  }
  T.print();

  std::printf("\nThe cost-blind smallest-last ordering spills far more "
              "than either cost-guided method — the paper's Section 2.3 "
              "argument.\n");
  return 0;
}
