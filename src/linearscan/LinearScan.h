//===- linearscan/LinearScan.h - Interval register walk --------*- C++ -*-===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One pass of linear-scan allocation over live intervals: interval
/// *pieces* are drawn from a start-ordered priority queue; each is
/// given a free register when one exists, and otherwise the walk
/// chooses between three escapes, cheapest damage first:
///
///  * second-chance split — if some register's conflicts all begin
///    strictly after the piece's start, take that register for the head
///    (maximizing the conflict-free prefix) and re-enqueue the tail as
///    a new piece carrying the parent's vreg and cost;
///  * eviction — when the current piece's cost beats the cheapest
///    register's holders, the holders are *truncated* at the current
///    position (their already-scanned heads keep their registers) and
///    their tails re-enqueued, instead of spilling their whole
///    lifetimes;
///  * spill — the losing piece's slot range goes to memory. Because a
///    piece is always a suffix of its parent's unassigned remainder,
///    spills are "from slot X to the end": the head that already won
///    registers keeps them, and only the part that still loses spills.
///
/// Re-enqueued tails (stage >= 1) may take free registers or split
/// further but never evict — each requeue strictly advances the start
/// position and per-range splits are bounded, so the walk terminates.
///
/// Intervals with holes are tracked through an *inactive* set: a piece
/// whose lifetime has started but that does not cover the current
/// position blocks a register only for pieces it actually overlaps, so
/// lifetime-disjoint intervals share registers across holes.
///
/// A pass never inserts spill code; the driver (LinearScanAlloc.cpp)
/// inserts it for the reported spill set and re-runs, exactly like the
/// coloring backends' Build-Simplify-Color cycle.
///
//===----------------------------------------------------------------------===//

#ifndef RA_LINEARSCAN_LINEARSCAN_H
#define RA_LINEARSCAN_LINEARSCAN_H

#include "linearscan/LiveInterval.h"
#include "regalloc/Allocator.h"
#include "target/MachineInfo.h"

#include <vector>

namespace ra {

class Budget;

/// Outcome of one interval walk over both register classes.
struct ScanResult {
  /// Physical register per vreg, or -1 (spilled this pass / empty
  /// interval). Split vregs report their first piece's register here;
  /// Pieces carries the full per-slot assignment.
  std::vector<int32_t> ColorOf;

  /// Per-slot assignments of vregs committed to more than one register,
  /// sorted by (Reg, From). Adjacent same-register pieces are merged,
  /// so every listed vreg genuinely changes register mid-lifetime.
  std::vector<PieceAssignment> Pieces;

  /// Vregs chosen for spilling, in decision order.
  std::vector<VRegId> Spilled;

  /// Parallel to Spilled: first InstrNumbering slot of the spilled
  /// region. 0 means the whole lifetime; a nonzero slot spills only
  /// accesses from that slot on — the head already holds registers and
  /// keeps them.
  std::vector<SlotIndex> SpillFromSlot;

  /// Sum of LiveInterval::Cost over Spilled.
  double SpilledCost = 0;

  /// Intervals with at least one segment (live ranges seen).
  unsigned LiveRanges = 0;

  /// Split decisions taken (second-chance splits + eviction
  /// truncations).
  unsigned Splits = 0;

  /// Vregs that ended the walk holding more than one register
  /// (== number of distinct Reg values in Pieces).
  unsigned SplitRanges = 0;

  /// Wall-clock seconds spent walking intervals (the backend's analogue
  /// of the coloring select phase), filled by the "IntervalWalk" span.
  double WalkSeconds = 0;

  bool success() const { return Spilled.empty(); }
};

/// Runs one linear-scan pass over \p LI for the register files of
/// \p Machine. Interval costs must already be set (LiveIntervals::
/// setCosts). Deterministic: pieces are visited in (start, vreg) order
/// and ties in eviction weight break toward the lowest register index.
/// \p Governor (support/Budget.h), when non-null, is polled per dequeued
/// piece; a trip abandons the walk mid-queue, leaving the ScanResult
/// partial, so governed callers must check it before trusting a result.
ScanResult scanIntervals(const LiveIntervals &LI, const MachineInfo &Machine,
                         Budget *Governor = nullptr);

} // namespace ra

#endif // RA_LINEARSCAN_LINEARSCAN_H
