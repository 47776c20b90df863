//===- bench/fig7_phases.cpp - Figure 7 reproduction ----------------------===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// CPU time for the allocator phases (build / simplify / color / spill)
// across Build-Simplify-Color passes, for the paper's four largest
// routines: DQRDC, SVD, GRADNT, HSSIAN, under both heuristics.
// Properties to reproduce: build dominates; simplify and color are
// cheap; the optimistic method's extra color phase costs almost
// nothing; spill counts collapse after the first pass; neither method
// needs more than about three passes.
//
//===----------------------------------------------------------------------===//

#include "opt/Optimizer.h"
#include "regalloc/Allocator.h"
#include "support/Table.h"
#include "workloads/Workloads.h"

#include <cstdio>
#include <cstdlib>

using namespace ra;

namespace {

AllocationStats allocate(const std::string &Routine, Heuristic H) {
  const Workload *W = findWorkload(Routine);
  Module M;
  Function &F = W->Build(M);
  optimizeFunction(F);
  AllocatorConfig C;
  C.H = H;
  C.Audit = true; // every reported number comes from a proven coloring
  AllocationResult A = allocateRegisters(F, C);
  if (!A.Success || A.Outcome != AllocOutcome::Converged) {
    std::fprintf(stderr, "allocation failed for %s: %s\n", Routine.c_str(),
                 A.Diag.toString().c_str());
    std::exit(1);
  }
  return A.Stats;
}

std::string ms(double Seconds) { return Table::fixed(Seconds * 1e3, 2); }

} // namespace

int main() {
  const char *Routines[] = {"DQRDC", "SVD", "GRADNT", "HSSIAN"};

  std::printf("Figure 7 — CPU time for allocator phases "
              "(milliseconds; the paper used a 60 Hz clock)\n");
  std::printf("Parenthesized numbers: live ranges spilled by that "
              "pass.\n\n");

  std::vector<std::string> Headers = {"Phase"};
  for (const char *R : Routines) {
    Headers.push_back(std::string(R) + " Old");
    Headers.push_back("New");
  }
  Table T(Headers);

  std::vector<AllocationStats> Old, New;
  unsigned MaxPasses = 0;
  for (const char *R : Routines) {
    Old.push_back(allocate(R, Heuristic::Chaitin));
    New.push_back(allocate(R, Heuristic::Briggs));
    MaxPasses = std::max(MaxPasses, Old.back().numPasses());
    MaxPasses = std::max(MaxPasses, New.back().numPasses());
  }

  auto Cell = [](const AllocationStats &S, unsigned Pass,
                 auto Extract) -> std::string {
    if (Pass >= S.numPasses())
      return "";
    return Extract(S.Passes[Pass]);
  };

  for (unsigned Pass = 0; Pass < MaxPasses; ++Pass) {
    if (Pass > 0)
      T.addSeparator();
    struct PhaseRow {
      const char *Name;
      std::string (*Get)(const PassRecord &);
    };
    const PhaseRow Rows[] = {
        {"Build",
         [](const PassRecord &P) { return ms(P.BuildSeconds); }},
        {"Simplify",
         [](const PassRecord &P) { return ms(P.SimplifySeconds); }},
        {"Color",
         [](const PassRecord &P) { return ms(P.SelectSeconds); }},
        {"Spill",
         [](const PassRecord &P) {
           if (P.SpilledLiveRanges == 0)
             return std::string();
           return "(" + std::to_string(P.SpilledLiveRanges) + ") " +
                  ms(P.SpillSeconds);
         }},
    };
    for (const PhaseRow &Row : Rows) {
      std::vector<std::string> Cells = {Row.Name};
      for (unsigned R = 0; R < 4; ++R) {
        Cells.push_back(Cell(Old[R], Pass, Row.Get));
        Cells.push_back(Cell(New[R], Pass, Row.Get));
      }
      T.addRow(Cells);
    }
  }

  T.addSeparator();
  std::vector<std::string> Totals = {"Total"};
  for (unsigned R = 0; R < 4; ++R) {
    Totals.push_back(ms(Old[R].totalSeconds()));
    Totals.push_back(ms(New[R].totalSeconds()));
  }
  T.addRow(Totals);
  T.print();

  std::printf("\nPasses used:");
  for (unsigned R = 0; R < 4; ++R)
    std::printf(" %s old=%u new=%u", Routines[R], Old[R].numPasses(),
                New[R].numPasses());
  std::printf("\n");

  return 0;
}
