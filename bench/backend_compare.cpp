//===- bench/backend_compare.cpp - coloring vs linear scan ----------------===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Cross-backend comparison over the workload suite: the Briggs coloring
// backend against the linear-scan backend, one row per routine, with
// first-pass spills, estimated spill cost, simulated dynamic cycles and
// allocation wall time per backend. Every allocation is audited, and
// compareRuns holds both runs to the virtual-register reference run and
// to each other — the bench doubles as a differential check. Feeds the
// "Allocation backends" comparison table in EXPERIMENTS.md.
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
#include <vector>

using namespace ra;

namespace {

struct BackendRun {
  unsigned Spills = 0;
  double SpillCost = 0;
  uint64_t Cycles = 0;
  double AllocSeconds = 0;
  ExecutionResult Run;
  std::optional<MemoryImage> Mem;
};

double allocSeconds(const AllocationStats &S) {
  double T = 0;
  for (const PassRecord &P : S.Passes)
    T += P.BuildSeconds + P.SimplifySeconds + P.SelectSeconds +
         P.SpillSeconds;
  return T;
}

BackendRun runBackend(const Workload &W, Backend B, const char *Label) {
  Module M;
  Function &F = W.Build(M);
  optimizeFunction(F);
  AllocatorConfig C;
  C.B = B;
  C.H = Heuristic::Briggs;
  C.Audit = true; // published numbers come from proven allocations only
  AllocationResult A = allocateRegisters(F, C);
  if (!A.Success || A.Outcome != AllocOutcome::Converged) {
    std::fprintf(stderr, "%s: %s allocation failed: %s\n",
                 W.Routine.c_str(), Label, A.Diag.toString().c_str());
    std::exit(1);
  }

  BackendRun Out;
  Out.Mem.emplace(M);
  W.Init(M, *Out.Mem);
  Out.Run = Simulator(M).runAllocated(F, A, *Out.Mem);
  Out.Spills = A.Stats.firstPassSpills();
  Out.SpillCost = A.Stats.firstPassSpillCost();
  Out.Cycles = Out.Run.Cycles;
  Out.AllocSeconds = allocSeconds(A.Stats);
  return Out;
}

/// Exits 1 when \p Got differs from \p Ref, naming both runs.
void check(const Module &M, const Workload &W, const char *RefLabel,
           const ExecutionResult &Ref, const MemoryImage &RefMem,
           const char *Label, const BackendRun &Got) {
  std::string Diff = compareRuns(M, Ref, RefMem, Got.Run, *Got.Mem);
  if (!Diff.empty()) {
    std::fprintf(stderr, "%s: %s against %s: %s\n", W.Routine.c_str(),
                 Label, RefLabel, Diff.c_str());
    std::exit(1);
  }
}

} // namespace

int main() {
  std::printf("Allocation backends — Briggs coloring vs linear scan\n");
  std::printf("(16 integer + 8 floating-point registers, RT/PC model;\n"
              " LS = linear scan with interval splitting)\n\n");

  Table T({"Routine", "Spilled GC", "LS", "Cost GC", "LS", "Cycles GC",
           "LS", "Cycle Pct.", "Alloc s GC", "LS"});

  BackendRun TotalGC, TotalLS;
  for (const Workload &W : allWorkloads()) {
    // The virtual-register run of the same optimized function is the
    // reference both backends must reproduce.
    Module M;
    Function &F = W.Build(M);
    optimizeFunction(F);
    MemoryImage RefMem(M);
    W.Init(M, RefMem);
    ExecutionResult Ref = Simulator(M).runVirtual(F, RefMem);

    BackendRun GC = runBackend(W, Backend::GraphColoring, "graph-coloring");
    BackendRun LS = runBackend(W, Backend::LinearScan, "linear-scan");
    check(M, W, "virtual", Ref, RefMem, "graph-coloring", GC);
    check(M, W, "virtual", Ref, RefMem, "linear-scan", LS);
    check(M, W, "graph-coloring", GC.Run, *GC.Mem, "linear-scan", LS);

    T.addRow({W.Routine, Table::withCommas(GC.Spills),
              Table::withCommas(LS.Spills),
              Table::withCommas(int64_t(GC.SpillCost)),
              Table::withCommas(int64_t(LS.SpillCost)),
              Table::withCommas(GC.Cycles), Table::withCommas(LS.Cycles),
              Table::pctImprovement(double(LS.Cycles), double(GC.Cycles)),
              Table::fixed(GC.AllocSeconds, 4),
              Table::fixed(LS.AllocSeconds, 4)});

    auto Accumulate = [](BackendRun &Total, const BackendRun &R) {
      Total.Spills += R.Spills;
      Total.SpillCost += R.SpillCost;
      Total.Cycles += R.Cycles;
      Total.AllocSeconds += R.AllocSeconds;
    };
    Accumulate(TotalGC, GC);
    Accumulate(TotalLS, LS);
  }

  T.addSeparator();
  T.addRow({"Total", Table::withCommas(TotalGC.Spills),
            Table::withCommas(TotalLS.Spills),
            Table::withCommas(int64_t(TotalGC.SpillCost)),
            Table::withCommas(int64_t(TotalLS.SpillCost)),
            Table::withCommas(TotalGC.Cycles),
            Table::withCommas(TotalLS.Cycles),
            Table::pctImprovement(double(TotalLS.Cycles),
                                  double(TotalGC.Cycles)),
            Table::fixed(TotalGC.AllocSeconds, 4),
            Table::fixed(TotalLS.AllocSeconds, 4)});
  T.print();

  std::printf("\n'Cycle Pct.' is positive when graph coloring beats "
              "linear scan on dynamic cycles; the Alloc columns show "
              "linear scan's compile-time edge.\n");
  return 0;
}
