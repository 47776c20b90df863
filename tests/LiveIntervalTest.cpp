//===- tests/LiveIntervalTest.cpp - interval construction tests -----------===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Proves the LiveIntervals contract at slot granularity: an interval
// covers a read slot iff the range is live before that instruction, and
// covers a write slot iff the range is live after it or defined by it.
// The check replays the dataflow solution instruction by instruction —
// an independent oracle, since LiveIntervals only consumes the solver's
// block-boundary sets — and runs over the whole regression corpus and
// the workload suite, plus handwritten hole/loop/two-class cases.
//
//===----------------------------------------------------------------------===//

#include "analysis/CFG.h"
#include "analysis/InstrNumbering.h"
#include "analysis/Liveness.h"
#include "ir/IRBuilder.h"
#include "ir/IRParser.h"
#include "linearscan/LiveInterval.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

using namespace ra;

namespace {

std::string readFile(const std::string &Path) {
  std::ifstream In(Path);
  std::ostringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

/// Replays liveness backward through every instruction of \p F and
/// asserts the slot-level equivalence with the computed intervals.
void expectIntervalsMatchDataflow(const Function &F,
                                  const std::string &Context) {
  CFG G = CFG::compute(F);
  Liveness LV = Liveness::compute(F, G);
  InstrNumbering Num = InstrNumbering::compute(F);
  LiveIntervals LI = LiveIntervals::compute(F, LV, Num);

  for (uint32_t B = 0; B < F.numBlocks(); ++B) {
    const BasicBlock &BB = F.block(B);
    // LiveAfter of the block's last instruction is the dataflow LiveOut.
    std::vector<bool> LiveAfter(F.numVRegs(), false);
    for (VRegId R : LV.liveOut(B))
      LiveAfter[R] = true;

    for (unsigned Idx = BB.Insts.size(); Idx-- > 0;) {
      const Instruction &I = BB.Insts[Idx];
      const SlotIndex Read = Num.readSlot(B, Idx);
      const SlotIndex Write = Num.writeSlot(B, Idx);

      // LiveBefore = uses(I) ∪ (LiveAfter − defs(I)).
      std::vector<bool> LiveBefore = LiveAfter;
      if (I.hasDef())
        LiveBefore[I.defReg()] = false;
      I.forEachUse([&](VRegId R) { LiveBefore[R] = true; });

      for (VRegId R = 0; R < F.numVRegs(); ++R) {
        const bool Defined = I.hasDef() && I.defReg() == R;
        EXPECT_EQ(LI.interval(R).covers(Write), LiveAfter[R] || Defined)
            << Context << ": vreg " << F.vreg(R).Name << " at write slot "
            << Write << " (block " << B << " inst " << Idx << ")";
        EXPECT_EQ(LI.interval(R).covers(Read), LiveBefore[R])
            << Context << ": vreg " << F.vreg(R).Name << " at read slot "
            << Read << " (block " << B << " inst " << Idx << ")";
      }
      LiveAfter = std::move(LiveBefore);
    }
    // The replayed entry state must close the loop with the solver.
    for (VRegId R = 0; R < F.numVRegs(); ++R)
      EXPECT_EQ(LiveAfter[R], LV.isLiveIn(B, R))
          << Context << ": block " << B << " live-in disagrees for "
          << F.vreg(R).Name;
  }
}

//===--------------------------------------------------------------------===//
// Corpus and workload sweeps.
//===--------------------------------------------------------------------===//

TEST(LiveIntervalTest, MatchesDataflowOnCorpus) {
  for (int Seed = 0; Seed < 8; ++Seed) {
    char Name[32];
    std::snprintf(Name, sizeof(Name), "seed%04d.ral", Seed);
    std::string Path = std::string(RA_TESTS_DIR) + "/corpus/" + Name;
    std::string Text = readFile(Path);
    ASSERT_FALSE(Text.empty()) << Path;
    Module M;
    std::string Error;
    ASSERT_TRUE(parseModule(Text, M, Error)) << Path << ": " << Error;
    for (unsigned I = 0; I < M.numFunctions(); ++I)
      expectIntervalsMatchDataflow(M.function(I), Name);
  }
}

TEST(LiveIntervalTest, MatchesDataflowOnWorkloads) {
  for (const Workload &W : allWorkloads()) {
    Module M;
    Function &F = W.Build(M);
    expectIntervalsMatchDataflow(F, W.Routine);
  }
}

//===--------------------------------------------------------------------===//
// Handwritten shapes.
//===--------------------------------------------------------------------===//

TEST(LiveIntervalTest, DiamondDefInBothArmsHasHole) {
  // x is defined in both arms of a diamond and used at the join: dead
  // over the second arm's prefix, so its interval must carry a hole.
  Module M;
  Function &F = M.newFunction("f");
  IRBuilder B(M, F);
  uint32_t Entry = B.newBlock("entry");
  uint32_t Then = B.newBlock("then");
  uint32_t Else = B.newBlock("else");
  uint32_t Join = B.newBlock("join");
  B.setInsertPoint(Entry);
  VRegId C = B.movI(1);
  VRegId Z = B.movI(0);
  B.br(CmpKind::LT, C, Z, Then, Else);
  VRegId X = B.iReg("x");
  B.setInsertPoint(Then);
  B.movI(10, X);
  B.jmp(Join);
  B.setInsertPoint(Else);
  VRegId Pad = B.movI(3); // genuine prefix before the redefinition
  B.movI(20, X);
  B.jmp(Join);
  B.setInsertPoint(Join);
  B.ret(X);
  (void)Pad;

  expectIntervalsMatchDataflow(F, "diamond");

  CFG G = CFG::compute(F);
  Liveness LV = Liveness::compute(F, G);
  InstrNumbering Num = InstrNumbering::compute(F);
  LiveIntervals LI = LiveIntervals::compute(F, LV, Num);
  const LiveInterval &IX = LI.interval(X);
  ASSERT_EQ(IX.Segments.size(), 2u)
      << "x must be dead over the else prefix";
  EXPECT_TRUE(IX.covers(Num.writeSlot(Then, 0)));
  EXPECT_FALSE(IX.covers(Num.readSlot(Else, 0)))
      << "hole: x is dead at the else block's first instruction";
  EXPECT_TRUE(IX.covers(Num.writeSlot(Else, 1)));
  EXPECT_TRUE(IX.covers(Num.readSlot(Join, 0)));
}

TEST(LiveIntervalTest, LoopKeepsValueLiveThroughBackEdge) {
  // x defined before the loop, used only in the body: the back edge
  // keeps it live through the whole head/body region in one segment.
  Module M;
  uint32_t Arr = M.newArray("a", 8, RegClass::Int);
  Function &F = M.newFunction("f");
  IRBuilder B(M, F);
  uint32_t Entry = B.newBlock("entry");
  uint32_t Head = B.newBlock("head");
  uint32_t Body = B.newBlock("body");
  uint32_t Exit = B.newBlock("exit");
  B.setInsertPoint(Entry);
  VRegId X = B.movI(9);
  VRegId I = B.iReg("i");
  VRegId N = B.movI(4);
  B.movI(0, I);
  B.jmp(Head);
  B.setInsertPoint(Head);
  B.br(CmpKind::LT, I, N, Body, Exit);
  B.setInsertPoint(Body);
  B.store(Arr, I, X);
  B.addI(I, 1, I);
  B.jmp(Head);
  B.setInsertPoint(Exit);
  B.ret();

  expectIntervalsMatchDataflow(F, "loop");

  CFG G = CFG::compute(F);
  Liveness LV = Liveness::compute(F, G);
  InstrNumbering Num = InstrNumbering::compute(F);
  LiveIntervals LI = LiveIntervals::compute(F, LV, Num);
  const LiveInterval &IX = LI.interval(X);
  ASSERT_EQ(IX.Segments.size(), 1u);
  // Live from its definition through the body's last use of it — in
  // particular across the head, where it is merely passing through.
  for (SlotIndex S = Num.writeSlot(Entry, 0); S <= Num.readSlot(Body, 0);
       ++S)
    EXPECT_TRUE(IX.covers(S)) << "slot " << S;
  EXPECT_FALSE(IX.covers(Num.blockFrom(Exit)))
      << "x is dead once the loop exits";
}

TEST(LiveIntervalTest, TwoClassesGetIndependentIntervals) {
  Module M;
  Function &F = M.newFunction("f");
  IRBuilder B(M, F);
  B.setInsertPoint(B.newBlock("entry"));
  VRegId IV = B.movI(1);
  VRegId FV = B.movF(2.0);
  VRegId I2 = B.addI(IV, 1);
  VRegId F2 = B.fadd(FV, FV);
  B.emit({Opcode::Ret, {Operand::reg(I2)}});
  (void)F2;

  expectIntervalsMatchDataflow(F, "two-class");

  CFG G = CFG::compute(F);
  Liveness LV = Liveness::compute(F, G);
  InstrNumbering Num = InstrNumbering::compute(F);
  LiveIntervals LI = LiveIntervals::compute(F, LV, Num);
  EXPECT_EQ(LI.interval(IV).Class, RegClass::Int);
  EXPECT_EQ(LI.interval(FV).Class, RegClass::Float);
  // Slot math is class-blind: the int and float values are live at the
  // same time and their intervals overlap; the walker keeps them apart
  // by walking each class against its own register file.
  EXPECT_TRUE(LI.interval(IV).overlaps(LI.interval(FV)));
}

TEST(LiveIntervalTest, DeadDefCoversOnlyItsWriteSlot) {
  Module M;
  Function &F = M.newFunction("f");
  IRBuilder B(M, F);
  B.setInsertPoint(B.newBlock("entry"));
  VRegId X = B.movI(5); // never used
  B.ret();

  expectIntervalsMatchDataflow(F, "dead-def");

  CFG G = CFG::compute(F);
  Liveness LV = Liveness::compute(F, G);
  InstrNumbering Num = InstrNumbering::compute(F);
  LiveIntervals LI = LiveIntervals::compute(F, LV, Num);
  const LiveInterval &IX = LI.interval(X);
  ASSERT_EQ(IX.Segments.size(), 1u);
  EXPECT_EQ(IX.start(), Num.writeSlot(0, 0));
  EXPECT_EQ(IX.stop(), Num.writeSlot(0, 0) + 1);
  EXPECT_FALSE(IX.covers(Num.readSlot(0, 0)))
      << "a dead def is not live at its own read slot";
}

TEST(LiveIntervalTest, DyingUseDoesNotConflictWithSameSlotDef) {
  // c = a + b: a and b die at the read slot, c is born at the write
  // slot — the half-open segments must not overlap, which is exactly
  // what lets the walker reuse a's register for c.
  Module M;
  Function &F = M.newFunction("f");
  IRBuilder B(M, F);
  B.setInsertPoint(B.newBlock("entry"));
  VRegId A = B.movI(1);
  VRegId Bv = B.movI(2);
  VRegId C = B.add(A, Bv);
  B.ret(C);

  CFG G = CFG::compute(F);
  Liveness LV = Liveness::compute(F, G);
  InstrNumbering Num = InstrNumbering::compute(F);
  LiveIntervals LI = LiveIntervals::compute(F, LV, Num);
  EXPECT_FALSE(LI.interval(A).overlaps(LI.interval(C)));
  EXPECT_FALSE(LI.interval(Bv).overlaps(LI.interval(C)));
  EXPECT_TRUE(LI.interval(A).overlaps(LI.interval(Bv)));
}

//===--------------------------------------------------------------------===//
// splitAt — the cut primitive second-chance splitting is built on.
//===--------------------------------------------------------------------===//

LiveInterval makeInterval(std::vector<IntervalSegment> Segs) {
  LiveInterval I;
  I.Reg = 7;
  I.Class = RegClass::Float;
  I.Cost = 42.5;
  I.Segments = std::move(Segs);
  return I;
}

TEST(LiveIntervalTest, SplitAtInsideSegmentCarvesIt) {
  LiveInterval I = makeInterval({{10, 20}, {30, 40}});
  auto [Head, Tail] = I.splitAt(14);
  ASSERT_EQ(Head.Segments.size(), 1u);
  EXPECT_EQ(Head.start(), 10u);
  EXPECT_EQ(Head.stop(), 14u);
  ASSERT_EQ(Tail.Segments.size(), 2u);
  EXPECT_EQ(Tail.start(), 14u);
  EXPECT_EQ(Tail.stop(), 40u);
  // Both halves keep the range identity the walker depends on.
  EXPECT_EQ(Head.Reg, I.Reg);
  EXPECT_EQ(Tail.Reg, I.Reg);
  EXPECT_EQ(Head.Class, I.Class);
  EXPECT_EQ(Tail.Class, I.Class);
  EXPECT_DOUBLE_EQ(Head.Cost, I.Cost);
  EXPECT_DOUBLE_EQ(Tail.Cost, I.Cost);
  EXPECT_EQ(Head.coveredSlots() + Tail.coveredSlots(), I.coveredSlots());
}

TEST(LiveIntervalTest, SplitAtHoleBoundaryPartitionsCleanly) {
  LiveInterval I = makeInterval({{10, 20}, {30, 40}});
  // Cut exactly where the first segment ends: no segment is carved.
  auto [HeadA, TailA] = I.splitAt(20);
  ASSERT_EQ(HeadA.Segments.size(), 1u);
  EXPECT_EQ(HeadA.stop(), 20u);
  ASSERT_EQ(TailA.Segments.size(), 1u);
  EXPECT_EQ(TailA.start(), 30u);
  // Cut inside the hole: same partition — the hole belongs to neither.
  auto [HeadB, TailB] = I.splitAt(25);
  EXPECT_EQ(HeadB.Segments, HeadA.Segments);
  EXPECT_EQ(TailB.Segments, TailA.Segments);
  // Cut where the second segment begins: the whole segment moves to
  // the tail.
  auto [HeadC, TailC] = I.splitAt(30);
  ASSERT_EQ(HeadC.Segments.size(), 1u);
  ASSERT_EQ(TailC.Segments.size(), 1u);
  EXPECT_EQ(TailC.start(), 30u);
  EXPECT_EQ(TailC.stop(), 40u);
}

TEST(LiveIntervalTest, SplitAtExtremesYieldsEmptyPiece) {
  LiveInterval I = makeInterval({{10, 20}, {30, 40}});
  // At or before start: everything is tail.
  auto [HeadA, TailA] = I.splitAt(10);
  EXPECT_TRUE(HeadA.empty());
  EXPECT_EQ(TailA.Segments, I.Segments);
  auto [HeadB, TailB] = I.splitAt(0);
  EXPECT_TRUE(HeadB.empty());
  EXPECT_EQ(TailB.Segments, I.Segments);
  // At or past stop: everything is head.
  auto [HeadC, TailC] = I.splitAt(40);
  EXPECT_EQ(HeadC.Segments, I.Segments);
  EXPECT_TRUE(TailC.empty());
  auto [HeadD, TailD] = I.splitAt(99);
  EXPECT_EQ(HeadD.Segments, I.Segments);
  EXPECT_TRUE(TailD.empty());
}

TEST(LiveIntervalTest, SplitAtSingleSegmentInterval) {
  LiveInterval I = makeInterval({{4, 12}});
  auto [Head, Tail] = I.splitAt(8);
  ASSERT_EQ(Head.Segments.size(), 1u);
  EXPECT_EQ(Head.start(), 4u);
  EXPECT_EQ(Head.stop(), 8u);
  ASSERT_EQ(Tail.Segments.size(), 1u);
  EXPECT_EQ(Tail.start(), 8u);
  EXPECT_EQ(Tail.stop(), 12u);
  EXPECT_FALSE(Head.overlaps(Tail));
}

} // namespace
