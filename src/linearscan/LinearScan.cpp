//===- linearscan/LinearScan.cpp - Interval register walk -----------------===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Second-chance binpacking over live-interval pieces. The walk state is
// a start-ordered priority queue of pieces; a piece that cannot be
// placed is split at the conflict point and its tail re-enqueued, so a
// live range may end up holding several registers over disjoint slot
// ranges (emitted as PieceAssignment rows) or holding registers over a
// head and memory over a suffix (emitted as a nonzero SpillFromSlot).
//
// Two invariants keep the materialization simple and correct:
//
//  * suffix memory — a spilled region is always a suffix of its range's
//    lifetime. The walk maintains this because a range has at most one
//    pending (unassigned) piece at any time: truncating a holder whose
//    parent already has a pending tail merges the two pending pieces,
//    and fully spilling a holder cancels the pending tail into the
//    spill. A committed later piece can never be stranded behind a
//    spill: eviction requires overlap with the current position, and
//    every later piece starts after it — still pending, so cancelable.
//
//  * instruction-aligned cuts — split points are rounded down to even
//    slots, so an instruction's read and write slots always land in the
//    same piece and inter-piece moves happen only between instructions.
//
// Termination: each re-enqueued tail starts strictly later than the cut
// that produced it, and split decisions per range are bounded by
// MaxRangeSplits (the bound falls back to suffix spilling), so the
// queue drains.
//
//===----------------------------------------------------------------------===//

#include "linearscan/LinearScan.h"

#include "regalloc/InterferenceGraph.h"
#include "support/Budget.h"
#include "support/Trace.h"

#include <algorithm>
#include <deque>
#include <queue>

using namespace ra;

namespace {

/// Safety bound on split decisions per live range; a range at the bound
/// falls back to suffix spilling. Keeps the piece count, and with it
/// termination, trivially bounded.
constexpr unsigned MaxRangeSplits = 4;

/// Concatenates two interval fragments of the same live range, \p A
/// entirely before \p B, preserving the sorted/disjoint/non-touching
/// segment invariant (touching boundary segments fuse).
LiveInterval concatFragments(LiveInterval A, const LiveInterval &B) {
  if (A.empty())
    return B;
  for (const IntervalSegment &Seg : B.Segments) {
    assert(A.Segments.back().To <= Seg.From && "fragments out of order");
    if (A.Segments.back().To == Seg.From)
      A.Segments.back().To = Seg.To;
    else
      A.Segments.push_back(Seg);
  }
  return A;
}

/// Walks the pieces of one register class over a file of K registers.
class ClassWalker {
public:
  ClassWalker(const std::vector<LiveInterval> &All, unsigned K,
              Budget *Governor, ScanResult &Out)
      : All(All), K(K), Governor(Governor), Out(Out) {
    PendingOf.assign(All.size(), -1);
    SpillIdxOf.assign(All.size(), -1);
    SplitCount.assign(All.size(), 0);
  }

  void run(RegClass RC) {
    unsigned Seeded = 0;
    for (uint32_t I = 0; I < All.size(); ++I)
      if (All[I].Class == RC && !All[I].empty()) {
        uint32_t Idx = uint32_t(Pieces.size());
        Pieces.push_back({&All[I], All[I].Reg, /*Stage=*/0,
                          /*Dead=*/false, /*AssignedReg=*/-1});
        Queue.push({All[I].start(), All[I].Reg, Idx});
        ++Seeded;
      }
    Out.LiveRanges += Seeded;

    while (!Queue.empty()) {
      if (Governor && !Governor->checkpoint())
        return; // over budget: abandon the walk, caller discards Out
      QueueEnt Q = Queue.top();
      Queue.pop();
      uint32_t Cur = Q.PieceIdx;
      if (Pieces[Cur].Dead)
        continue; // canceled by a merge or a holder spill
      if (PendingOf[Pieces[Cur].Parent] == int32_t(Cur))
        PendingOf[Pieces[Cur].Parent] = -1;

      SlotIndex Pos = Pieces[Cur].LI->start();
      retire(Pos);
      int32_t Reg = pickFree(Cur);
      if (Reg < 0)
        Reg = trySecondChance(Cur);
      if (Reg < 0) {
        // Re-enqueued tails never evict — that is what bounds eviction
        // cascades — unless protected (infinite cost), where the
        // deadlock-break logic inside evictOrSpill is the convergence
        // safety valve exactly as for original intervals.
        if (Pieces[Cur].Stage == 0 ||
            Pieces[Cur].LI->Cost >= InterferenceGraph::InfiniteCost)
          Reg = evictOrSpill(Cur);
        else
          spillCurPiece(Cur);
      }
      if (Reg >= 0) {
        Pieces[Cur].AssignedReg = Reg;
        Active.push_back({Cur, uint32_t(Reg)});
      }
    }
    emit();
  }

private:
  struct Piece {
    const LiveInterval *LI; ///< This piece's slots (into All or Arena).
    VRegId Parent;          ///< The live range the piece belongs to.
    uint8_t Stage;          ///< 0 = original interval, n = split n deep.
    bool Dead;              ///< Canceled / replaced / spilled.
    int32_t AssignedReg;    ///< Committed register, or -1.
  };

  struct Assigned {
    uint32_t PieceIdx;
    uint32_t Reg;
  };

  struct QueueEnt {
    SlotIndex Start;
    VRegId Parent;
    uint32_t PieceIdx;
  };
  /// Min-heap on (Start, Parent, PieceIdx) — the paper's footnote-4
  /// start-order tiebreak, extended with the piece index so requeued
  /// tails stay deterministic.
  struct QueueCmp {
    bool operator()(const QueueEnt &A, const QueueEnt &B) const {
      if (A.Start != B.Start)
        return A.Start > B.Start;
      if (A.Parent != B.Parent)
        return A.Parent > B.Parent;
      return A.PieceIdx > B.PieceIdx;
    }
  };

  const LiveInterval &li(uint32_t PieceIdx) const {
    return *Pieces[PieceIdx].LI;
  }

  /// Drops assignments whose piece ended before \p Pos and re-partitions
  /// the rest between the active (covers Pos) and inactive (in a hole
  /// at Pos) sets. Single merged sweep: every entry is classified
  /// exactly once per position.
  void retire(SlotIndex Pos) {
    Scratch.clear();
    Scratch.reserve(Active.size() + Inactive.size());
    Scratch.insert(Scratch.end(), Active.begin(), Active.end());
    Scratch.insert(Scratch.end(), Inactive.begin(), Inactive.end());
    Active.clear();
    Inactive.clear();
    for (const Assigned &A : Scratch) {
      const LiveInterval &LI = li(A.PieceIdx);
      if (LI.stop() <= Pos)
        continue; // retired for good; its record is already on the piece
      (LI.covers(Pos) ? Active : Inactive).push_back(A);
    }
  }

  /// Lowest-numbered register not blocked for \p Cur: not held by any
  /// active piece, nor by an inactive piece \p Cur overlaps.
  int32_t pickFree(uint32_t Cur) {
    Blocked.assign(K, false);
    for (const Assigned &A : Active)
      Blocked[A.Reg] = true;
    for (const Assigned &A : Inactive)
      if (!Blocked[A.Reg] && li(A.PieceIdx).overlaps(li(Cur)))
        Blocked[A.Reg] = true;
    for (unsigned R = 0; R < K; ++R)
      if (!Blocked[R])
        return int32_t(R);
    return -1;
  }

  /// Second chance: a register whose conflicts with \p Cur all begin
  /// strictly after Cur's start can hold Cur's head up to the first
  /// conflict. Picks the register maximizing that conflict-free prefix
  /// (ties toward the lowest index), splits Cur there, and re-enqueues
  /// the tail. Returns the register for the (shrunk) head, or -1.
  int32_t trySecondChance(uint32_t Cur) {
    if (SplitCount[Pieces[Cur].Parent] >= MaxRangeSplits)
      return -1;
    const SlotIndex Pos = li(Cur).start();
    constexpr SlotIndex NoHolder = ~SlotIndex(0);
    FirstConflict.assign(K, NoHolder);
    for (const Assigned &A : Active)
      FirstConflict[A.Reg] = Pos; // covers Pos, so conflicts immediately
    for (const Assigned &A : Inactive)
      if (li(A.PieceIdx).overlaps(li(Cur)))
        FirstConflict[A.Reg] = std::min(
            FirstConflict[A.Reg], li(A.PieceIdx).firstOverlapSlot(li(Cur)));

    int32_t BestReg = -1;
    SlotIndex BestCut = Pos;
    for (unsigned R = 0; R < K; ++R) {
      if (FirstConflict[R] == NoHolder)
        continue; // free register: pickFree would have taken it
      SlotIndex Cut = FirstConflict[R] & ~SlotIndex(1); // instruction-align
      if (Cut > BestCut) {
        BestReg = int32_t(R);
        BestCut = Cut;
      }
    }
    if (BestReg < 0)
      return -1;

    auto [Head, Tail] = li(Cur).splitAt(BestCut);
    if (Head.empty() || Tail.empty())
      return -1;
    Arena.push_back(std::move(Head));
    Pieces[Cur].LI = &Arena.back();
    ++SplitCount[Pieces[Cur].Parent];
    ++Out.Splits;
    makeTailPiece(Pieces[Cur].Parent, std::move(Tail),
                  unsigned(Pieces[Cur].Stage) + 1);
    return BestReg;
  }

  /// Spill-cost density of the piece's live range: estimated spill cost
  /// per covered slot. Raw cost makes one long expensive holder defeat
  /// an arbitrary stream of short cheap intervals one comparison at a
  /// time — each spilling whole — while a density comparison lets a
  /// short hot interval displace a long cold one, which splitting then
  /// truncates instead of destroying. Density is a property of the
  /// parent range (cost and coverage both live there), so every piece
  /// of a range carries the same density.
  double density(uint32_t PieceIdx) const {
    const LiveInterval &Parent = All[Pieces[PieceIdx].Parent];
    return Parent.Cost / double(std::max(1u, Parent.coveredSlots()));
  }

  /// No register is free for \p Cur even with a second chance: either
  /// spill \p Cur, or take the register whose conflicting holders are
  /// cheapest, truncating them at the conflict instead of spilling their
  /// whole lifetimes. Returns the register granted to \p Cur, or -1 when
  /// \p Cur spills.
  ///
  /// Because eviction only truncates, the price of a register is the
  /// spill-cost *density* of its most valuable conflicting holder: the
  /// current piece wins the register iff its range generates more spill
  /// cost per slot than anything it displaces.
  int32_t evictOrSpill(uint32_t Cur) {
    Weight.assign(K, 0);
    for (const Assigned &A : Active)
      Weight[A.Reg] = std::max(Weight[A.Reg], density(A.PieceIdx));
    for (const Assigned &A : Inactive)
      if (li(A.PieceIdx).overlaps(li(Cur)))
        Weight[A.Reg] = std::max(Weight[A.Reg], density(A.PieceIdx));

    unsigned Best = 0;
    for (unsigned R = 1; R < K; ++R)
      if (Weight[R] < Weight[Best])
        Best = R;

    if (density(Cur) <= Weight[Best]) {
      if (li(Cur).Cost >= InterferenceGraph::InfiniteCost)
        return breakProtectedDeadlock(Cur);
      spillCurPiece(Cur);
      return -1;
    }
    evictRegister(Best, Cur, /*AllowSplit=*/true);
    return int32_t(Best);
  }

  /// Displaces every holder of \p Reg that conflicts with \p Cur. With
  /// \p AllowSplit, a holder is truncated at its first conflict with Cur
  /// — the head keeps the register over the slots it already won — and
  /// the tail re-enqueued; otherwise (or at the split bound) the
  /// holder's piece spills outright.
  void evictRegister(unsigned Reg, uint32_t Cur, bool AllowSplit) {
    auto EvictFrom = [&](std::vector<Assigned> &Set) {
      for (size_t I = 0; I < Set.size();) {
        uint32_t H = Set[I].PieceIdx;
        if (Set[I].Reg != Reg || !li(H).overlaps(li(Cur))) {
          ++I;
          continue;
        }
        bool KeepInSet = false;
        if (AllowSplit && SpillIdxOf[Pieces[H].Parent] < 0 &&
            SplitCount[Pieces[H].Parent] < MaxRangeSplits)
          KeepInSet = truncateHolder(H, Cur);
        else
          fullSpillHolder(H);
        if (KeepInSet) {
          ++I;
        } else {
          Set[I] = Set.back();
          Set.pop_back();
        }
      }
    };
    EvictFrom(Active);
    EvictFrom(Inactive);
  }

  /// Cuts evicted holder \p H at its first conflict with \p Cur. The
  /// head keeps H's register (it never overlaps Cur); the tail merges
  /// with any pending piece of the same range and re-enqueues. Returns
  /// true when a non-empty head remains — it stays in its set, still
  /// blocking the register over its slots for later pieces.
  bool truncateHolder(uint32_t H, uint32_t Cur) {
    SlotIndex Cut = li(H).firstOverlapSlot(li(Cur)) & ~SlotIndex(1);
    auto [Head, Tail] = li(H).splitAt(Cut);
    assert(!Tail.empty() && "eviction cut past the holder's end");
    VRegId Par = Pieces[H].Parent;
    unsigned Stage = unsigned(Pieces[H].Stage) + 1;
    ++SplitCount[Par];
    ++Out.Splits;
    if (Head.empty()) {
      Pieces[H].Dead = true; // whole piece re-enqueues
      makeTailPiece(Par, std::move(Tail), Stage);
      return false;
    }
    Arena.push_back(std::move(Head));
    Pieces[H].LI = &Arena.back();
    makeTailPiece(Par, std::move(Tail), Stage);
    return true;
  }

  /// Spills holder piece \p H outright: its slot range goes to memory
  /// from its start, and any pending tail of the same range folds into
  /// the spill (the tail's slots are inside the spilled suffix).
  void fullSpillHolder(uint32_t H) {
    VRegId Par = Pieces[H].Parent;
    SlotIndex From = Pieces[H].Stage == 0 ? 0 : li(H).start();
    double Cost = li(H).Cost;
    Pieces[H].Dead = true;
    if (PendingOf[Par] >= 0) {
      Pieces[PendingOf[Par]].Dead = true;
      PendingOf[Par] = -1;
    }
    spillParent(Par, From, Cost);
  }

  /// \p Cur is protected (infinite cost — a spill temporary or a range
  /// coalescing merged with one) and so is some holder of every
  /// register. Something protected has to be re-spilled, and the choice
  /// decides convergence: re-spilling a minimal temporary regenerates
  /// byte-identical load/store code and the conflict forever, while
  /// re-spilling a *wide* protected interval — a coalesce-merged range
  /// whose occurrences span many instructions — rewrites it into
  /// minimal per-occurrence temporaries and frees its register across
  /// the whole span. Evict the register holding the widest conflicting
  /// piece, unless \p Cur itself is at least as wide (then spilling
  /// \p Cur is the productive move). Deadlock eviction always spills
  /// outright — re-enqueueing a protected tail could regenerate the
  /// conflict — and the decision depends only on piece content (widest
  /// extent, then lowest register index), not on the sets' internal
  /// ordering, so results stay deterministic.
  int32_t breakProtectedDeadlock(uint32_t Cur) {
    const SlotIndex CurExtent = li(Cur).stop() - li(Cur).start();
    bool Found = false;
    unsigned BestReg = 0;
    SlotIndex BestExtent = 0;
    auto Consider = [&](const Assigned &A) {
      if (!li(A.PieceIdx).overlaps(li(Cur)))
        return;
      SlotIndex E = li(A.PieceIdx).stop() - li(A.PieceIdx).start();
      if (!Found || E > BestExtent || (E == BestExtent && A.Reg < BestReg)) {
        Found = true;
        BestExtent = E;
        BestReg = A.Reg;
      }
    };
    for (const Assigned &A : Active)
      Consider(A);
    for (const Assigned &A : Inactive)
      Consider(A);

    if (!Found || BestExtent <= CurExtent) {
      spillCurPiece(Cur);
      return -1;
    }
    evictRegister(BestReg, Cur, /*AllowSplit=*/false);
    return int32_t(BestReg);
  }

  /// The current piece loses its register fight: its slots spill. An
  /// original interval (stage 0) spills its whole lifetime; a split
  /// tail spills only from its own start — the committed head pieces
  /// keep their registers.
  void spillCurPiece(uint32_t Cur) {
    SlotIndex From = Pieces[Cur].Stage == 0 ? 0 : li(Cur).start();
    double Cost = li(Cur).Cost;
    Pieces[Cur].Dead = true;
    spillParent(Pieces[Cur].Parent, From, Cost);
  }

  /// Records (or widens) the spill decision for live range \p V. Each
  /// range appears once in Out.Spilled, in first-decision order; a
  /// later spill of an earlier piece only moves the suffix start down.
  void spillParent(VRegId V, SlotIndex From, double Cost) {
    if (SpillIdxOf[V] < 0) {
      SpillIdxOf[V] = int32_t(Out.Spilled.size());
      Out.Spilled.push_back(V);
      Out.SpillFromSlot.push_back(From);
      Out.SpilledCost += Cost;
    } else if (From < Out.SpillFromSlot[SpillIdxOf[V]]) {
      Out.SpillFromSlot[SpillIdxOf[V]] = From;
    }
  }

  /// Creates the pending piece for range \p Par from fragment \p Tail,
  /// merging with an already-pending piece (a range has at most one —
  /// the suffix-memory invariant depends on it) and enqueueing it.
  void makeTailPiece(VRegId Par, LiveInterval Tail, unsigned Stage) {
    if (PendingOf[Par] >= 0) {
      Piece &Pend = Pieces[PendingOf[Par]];
      Tail = concatFragments(std::move(Tail), *Pend.LI);
      Stage = std::max(Stage, unsigned(Pend.Stage));
      Pend.Dead = true;
      PendingOf[Par] = -1;
    }
    Arena.push_back(std::move(Tail));
    uint32_t Idx = uint32_t(Pieces.size());
    Pieces.push_back({&Arena.back(), Par,
                      uint8_t(std::min(Stage, 255u)), /*Dead=*/false,
                      /*AssignedReg=*/-1});
    Queue.push({Arena.back().start(), Par, Idx});
    PendingOf[Par] = int32_t(Idx);
  }

  /// Publishes the walk's results: per-range colors, and for ranges
  /// whose pieces landed on different registers, the per-slot
  /// assignment table (instruction-aligned, adjacent same-register
  /// pieces merged away).
  void emit() {
    std::vector<uint32_t> Order;
    for (uint32_t I = 0; I < Pieces.size(); ++I)
      if (!Pieces[I].Dead && Pieces[I].AssignedReg >= 0 &&
          SpillIdxOf[Pieces[I].Parent] < 0)
        Order.push_back(I);
    std::sort(Order.begin(), Order.end(), [&](uint32_t A, uint32_t B) {
      if (Pieces[A].Parent != Pieces[B].Parent)
        return Pieces[A].Parent < Pieces[B].Parent;
      return li(A).start() < li(B).start();
    });

    std::vector<PieceAssignment> Merged;
    for (size_t I = 0; I < Order.size();) {
      VRegId Par = Pieces[Order[I]].Parent;
      Merged.clear();
      for (; I < Order.size() && Pieces[Order[I]].Parent == Par; ++I) {
        const LiveInterval &LI = li(Order[I]);
        SlotIndex From = LI.start() & ~SlotIndex(1);
        SlotIndex To = (LI.stop() + 1) & ~SlotIndex(1);
        uint32_t Phys = uint32_t(Pieces[Order[I]].AssignedReg);
        if (!Merged.empty() && Merged.back().PhysReg == Phys)
          Merged.back().To = To;
        else
          Merged.push_back({Par, From, To, Phys});
      }
      Out.ColorOf[Par] = int32_t(Merged.front().PhysReg);
      if (Merged.size() > 1) {
        ++Out.SplitRanges;
        for (const PieceAssignment &P : Merged)
          Out.Pieces.push_back(P);
      }
    }
  }

  const std::vector<LiveInterval> &All;
  unsigned K;
  Budget *Governor;
  ScanResult &Out;

  std::deque<LiveInterval> Arena; ///< Split fragments (stable addresses).
  std::vector<Piece> Pieces;
  std::priority_queue<QueueEnt, std::vector<QueueEnt>, QueueCmp> Queue;
  std::vector<Assigned> Active, Inactive;

  std::vector<int32_t> PendingOf;  ///< Pending piece per range, or -1.
  std::vector<int32_t> SpillIdxOf; ///< Index into Out.Spilled, or -1.
  std::vector<unsigned> SplitCount;

  // Hot-loop scratch, hoisted out of pickFree/evictOrSpill/retire so
  // the walk allocates nothing per piece.
  std::vector<bool> Blocked;
  std::vector<double> Weight;
  std::vector<SlotIndex> FirstConflict;
  std::vector<Assigned> Scratch;
};

} // namespace

ScanResult ra::scanIntervals(const LiveIntervals &LI,
                             const MachineInfo &Machine,
                             Budget *Governor) {
  ScanResult Out;
  Out.ColorOf.assign(LI.numIntervals(), -1);
  {
    RA_TRACE_PHASE(Out.WalkSeconds, "IntervalWalk", "linearscan", [&] {
      return "intervals=" + std::to_string(LI.numIntervals());
    });
    for (unsigned Cls = 0; Cls < NumRegClasses; ++Cls) {
      RegClass RC = RegClass(Cls);
      ClassWalker W(LI.intervals(), Machine.numRegs(RC), Governor, Out);
      W.run(RC);
    }
    // The classes interleave vreg ids; consumers (audit, simulator) want
    // the table sorted by (Reg, From).
    std::sort(Out.Pieces.begin(), Out.Pieces.end(),
              [](const PieceAssignment &A, const PieceAssignment &B) {
                if (A.Reg != B.Reg)
                  return A.Reg < B.Reg;
                return A.From < B.From;
              });
  }
  return Out;
}
