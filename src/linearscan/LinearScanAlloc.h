//===- linearscan/LinearScanAlloc.h - Linear-scan backend ------*- C++ -*-===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The linear-scan backend's share of the Figure 4 pass loop. The loop
/// itself — renumber, coalesce, liveness, spill costs, spill-code
/// insertion, the budget exits — exists once, in regalloc/Allocator.cpp,
/// for both backends. Each pass it builds the live intervals and hands
/// them to decideLinearScan, which walks them and either commits
/// registers or names the (suffix) spills; graph coloring's decide step
/// colors the two class graphs instead. Everything around the decide
/// step is shared, which is what keeps AllocationResult, the
/// post-allocation audit, and the degradation ladder backend-agnostic.
///
/// Callers go through allocateRegisters (regalloc/Allocator.h) with
/// AllocatorConfig::B == Backend::LinearScan; runLinearScanPasses exists
/// for phase-by-phase replays and focused tests.
///
//===----------------------------------------------------------------------===//

#ifndef RA_LINEARSCAN_LINEARSCANALLOC_H
#define RA_LINEARSCAN_LINEARSCANALLOC_H

#include "regalloc/Allocator.h"

namespace ra {

class Budget;
class CFG;
class LiveIntervals;
class LoopInfo;

/// One pass's Build products, as the shared pass loop hands them to a
/// backend's decide step.
struct PassInputs {
  unsigned Pass;
  const std::vector<double> &Costs;     ///< spill-cost estimate per vreg
  const std::vector<double> &Area;      ///< metrics features per vreg;
  const std::vector<unsigned> &DepthOf; ///< empty unless CollectMetrics
  Budget *Gov;                          ///< null when ungoverned
};

/// Linear scan's decide step: walks \p LI (costs attached from \p In)
/// and appends the pass's spill decisions, with their suffix start
/// slots, to \p Spills. When nothing spills it commits Result.ColorOf
/// and Result.Pieces instead. Returns false when \p In.Gov tripped
/// mid-walk, leaving the spill set partial.
bool decideLinearScan(const Function &F, const AllocatorConfig &C,
                      LiveIntervals &LI, const PassInputs &In,
                      PassRecord &Rec, AllocationResult &Result,
                      std::vector<SpillRequest> &Spills);

/// Runs the Figure 4 pass loop with linear scan as the decide step,
/// whatever C.B says. Performs no auditing and no fallback —
/// allocateRegisters layers the ladder on top. \p Gov (may be null) is
/// the function's resource-governance token; a trip returns a Failed
/// result carrying the budget status. Defined next to the shared loop
/// in regalloc/Allocator.cpp.
AllocationResult runLinearScanPasses(Function &F, const AllocatorConfig &C,
                                     const CFG &G, const LoopInfo &Loops,
                                     Budget *Gov = nullptr);

} // namespace ra

#endif // RA_LINEARSCAN_LINEARSCANALLOC_H
