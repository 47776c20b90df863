//===- linearscan/LiveIntervals.cpp - Interval construction ---------------===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// One backward walk per block, seeded from the dataflow live-out list.
// Blocks are processed in reverse layout order and every new segment
// starts at or before all segments already recorded, so segments are
// appended in descending order and reversed once at the end — the whole
// construction is O(instructions + segments).
//
//===----------------------------------------------------------------------===//

#include "linearscan/LiveInterval.h"

#include "support/Trace.h"

#include <algorithm>

using namespace ra;

namespace {

/// Per-vreg segment list under construction, ordered by descending From.
class SegmentBuilder {
public:
  explicit SegmentBuilder(unsigned NumVRegs) : Segs(NumVRegs) {}

  /// Records [From, To) as live. Merges with the most recently added
  /// (lowest) segment when they touch or overlap.
  void addRange(VRegId R, SlotIndex From, SlotIndex To) {
    if (From >= To)
      return;
    std::vector<IntervalSegment> &S = Segs[R];
    if (!S.empty() && To >= S.back().From) {
      S.back().From = std::min(S.back().From, From);
      S.back().To = std::max(S.back().To, To);
    } else {
      S.push_back({From, To});
    }
  }

  /// A definition at write slot \p Pos: trims the currently-live-through
  /// segment to start at the definition, or — when the value is dead
  /// after the definition — records the one-slot segment [Pos, Pos + 1).
  void setFrom(VRegId R, SlotIndex Pos) {
    std::vector<IntervalSegment> &S = Segs[R];
    if (!S.empty() && S.back().contains(Pos)) {
      S.back().From = Pos;
    } else if (!S.empty() && S.back().From == Pos + 1) {
      S.back().From = Pos; // touching: extend instead of splitting
    } else {
      S.push_back({Pos, Pos + 1});
    }
  }

  /// Finalizes vreg \p R: segments in ascending order.
  std::vector<IntervalSegment> take(VRegId R) {
    std::vector<IntervalSegment> S = std::move(Segs[R]);
    std::reverse(S.begin(), S.end());
    return S;
  }

private:
  std::vector<std::vector<IntervalSegment>> Segs;
};

} // namespace

LiveIntervals LiveIntervals::compute(const Function &F, const Liveness &LV,
                                     const InstrNumbering &Num) {
  RA_TRACE_SPAN("BuildIntervals", "linearscan",
                [&] { return "vregs=" + std::to_string(F.numVRegs()); });
  SegmentBuilder B(F.numVRegs());

  for (uint32_t BId = F.numBlocks(); BId-- > 0;) {
    const BasicBlock &BB = F.block(BId);
    SlotIndex From = Num.blockFrom(BId), To = Num.blockTo(BId);
    for (VRegId R : LV.liveOut(BId))
      B.addRange(R, From, To);
    for (unsigned Idx = BB.Insts.size(); Idx-- > 0;) {
      const Instruction &I = BB.Insts[Idx];
      if (I.hasDef())
        B.setFrom(I.defReg(), Num.writeSlot(BId, Idx));
      SlotIndex ReadEnd = Num.readSlot(BId, Idx) + 1;
      I.forEachUse([&](VRegId R) { B.addRange(R, From, ReadEnd); });
    }
  }

  LiveIntervals LI;
  LI.Intervals.resize(F.numVRegs());
  for (VRegId R = 0; R < F.numVRegs(); ++R) {
    LiveInterval &I = LI.Intervals[R];
    I.Reg = R;
    I.Class = F.regClass(R);
    I.Segments = B.take(R);
#ifndef NDEBUG
    for (size_t S = 1; S < I.Segments.size(); ++S)
      assert(I.Segments[S - 1].To < I.Segments[S].From &&
             "segments must be sorted, disjoint, and non-touching");
#endif
  }
  return LI;
}
