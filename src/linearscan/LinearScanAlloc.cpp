//===- linearscan/LinearScanAlloc.cpp - Linear-scan decide step -----------===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Linear scan's decide step in the shared Figure 4 loop: one
// start-ordered walk over the pass's live intervals. Because spill
// temporaries carry an infinite cost estimate, the walk never evicts
// them, and — as in the coloring backends — the worst-case pressure
// after spilling everything is the operand count of one instruction, so
// the cycle converges for every register file the tools accept.
//
//===----------------------------------------------------------------------===//

#include "linearscan/LinearScanAlloc.h"

#include "linearscan/LinearScan.h"
#include "support/Budget.h"

using namespace ra;

namespace {

/// Copies a register across the first pair of overlapping same-class
/// colored intervals (or, when no interval overlaps another, pushes one
/// assignment outside the register file). The audit must catch either —
/// the linear-scan twin of the coloring backends' fault injection.
void injectMiscoloring(const LiveIntervals &LI, const MachineInfo &Machine,
                       AllocationResult &Result) {
  const std::vector<LiveInterval> &All = LI.intervals();
  for (uint32_t A = 0; A < All.size(); ++A) {
    if (All[A].empty() || Result.ColorOf[All[A].Reg] < 0)
      continue;
    for (uint32_t B = A + 1; B < All.size(); ++B) {
      if (All[B].Class != All[A].Class || All[B].empty() ||
          Result.ColorOf[All[B].Reg] < 0)
        continue;
      if (All[A].overlaps(All[B])) {
        Result.ColorOf[All[A].Reg] = Result.ColorOf[All[B].Reg];
        return;
      }
    }
  }
  for (const LiveInterval &I : All)
    if (!I.empty() && Result.ColorOf[I.Reg] >= 0) {
      Result.ColorOf[I.Reg] = int32_t(Machine.numRegs(I.Class));
      return;
    }
}

/// One metrics row for interval \p I. Linear scan never builds the
/// interference graph, so Degree is 0 and CostPerDegree follows the
/// table's degree-0 convention (== Cost).
RangeMetrics intervalRow(const Function &F, const LiveInterval &I,
                         const PassInputs &In, RangeMetrics::Decision D,
                         int32_t Color) {
  RangeMetrics RM;
  RM.Name = F.vreg(I.Reg).Name;
  RM.Pass = In.Pass;
  RM.Class = I.Class;
  RM.Degree = 0;
  RM.Area = In.Area[I.Reg];
  RM.Cost = I.Cost;
  RM.CostPerDegree = I.Cost;
  RM.LoopDepth = In.DepthOf[I.Reg];
  RM.D = D;
  RM.Color = Color;
  return RM;
}

} // namespace

bool ra::decideLinearScan(const Function &F, const AllocatorConfig &C,
                          LiveIntervals &LI, const PassInputs &In,
                          PassRecord &Rec, AllocationResult &Result,
                          std::vector<SpillRequest> &Spills) {
  // The walk time lands in the record's select column (the decision
  // phase); linear scan has no simplify analogue.
  LI.setCosts(In.Costs);
  ScanResult Scan = scanIntervals(LI, C.Machine, In.Gov);
  if (In.Gov && In.Gov->expired())
    return false; // the walk was abandoned mid-queue
  Rec.LiveRanges = Scan.LiveRanges;
  Rec.SelectSeconds = Scan.WalkSeconds;
  Rec.SpilledCost = Scan.SpilledCost;
  Rec.SplitLiveRanges = Scan.SplitRanges;
  // Suffix-aware spills: a range whose head already won registers only
  // spills the losing tail.
  for (size_t I = 0; I < Scan.Spilled.size(); ++I) {
    Spills.push_back({Scan.Spilled[I], Scan.SpillFromSlot[I]});
    if (C.CollectMetrics)
      Result.Metrics.push_back(
          intervalRow(F, LI.interval(Scan.Spilled[I]), In,
                      RangeMetrics::Decision::Spilled, /*Color=*/-1));
  }
  if (!Scan.success())
    return true;

  Result.ColorOf = std::move(Scan.ColorOf);
  Result.Pieces = std::move(Scan.Pieces);
  if (C.CollectMetrics) {
    // Which vregs committed to several registers (Split rows).
    std::vector<bool> IsSplit(F.numVRegs(), false);
    for (const PieceAssignment &P : Result.Pieces)
      IsSplit[P.Reg] = true;
    for (const LiveInterval &I : LI.intervals())
      if (!I.empty())
        Result.Metrics.push_back(intervalRow(
            F, I, In,
            IsSplit[I.Reg] ? RangeMetrics::Decision::Split
                           : RangeMetrics::Decision::Colored,
            Result.ColorOf[I.Reg]));
  }
  if (C.FaultInject.Miscolor)
    injectMiscoloring(LI, C.Machine, Result);
  return true;
}
