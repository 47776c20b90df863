//===- tests/AnalysisTest.cpp - CFG/dominator/loop/liveness tests ---------===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "analysis/CFG.h"
#include "analysis/Dominators.h"
#include "analysis/Liveness.h"
#include "analysis/LoopInfo.h"
#include "analysis/Renumber.h"
#include "ir/IRBuilder.h"
#include "ir/IRPrinter.h"
#include "ir/Verifier.h"
#include "sim/Simulator.h"
#include "workloads/RandomProgram.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

using namespace ra;

namespace {

/// entry -> (then | else) -> join -> [loop head -> body -> head] -> exit
struct DiamondLoop {
  Module M;
  Function *F;
  uint32_t Entry, Then, Else, Join, Head, Body, Exit;
  VRegId X, Y, I, N;

  DiamondLoop() {
    F = &M.newFunction("shape");
    IRBuilder B(M, *F);
    Entry = B.newBlock("entry");
    Then = B.newBlock("then");
    Else = B.newBlock("else");
    Join = B.newBlock("join");
    Head = B.newBlock("head");
    Body = B.newBlock("body");
    Exit = B.newBlock("exit");

    B.setInsertPoint(Entry);
    X = B.iReg("x");
    Y = B.iReg("y");
    I = B.iReg("i");
    N = B.iReg("n");
    B.movI(1, X);
    B.movI(2, Y);
    B.movI(0, I);
    B.movI(5, N);
    B.br(CmpKind::LT, X, Y, Then, Else);

    B.setInsertPoint(Then);
    B.addI(X, 10, X);
    B.jmp(Join);
    B.setInsertPoint(Else);
    B.addI(Y, 10, Y);
    B.jmp(Join);

    B.setInsertPoint(Join);
    B.jmp(Head);
    B.setInsertPoint(Head);
    B.br(CmpKind::LT, I, N, Body, Exit);
    B.setInsertPoint(Body);
    B.add(X, Y, X);
    B.addI(I, 1, I);
    B.jmp(Head);
    B.setInsertPoint(Exit);
    B.ret(X);
  }
};

TEST(CFGTest, PredsSuccsAndRPO) {
  DiamondLoop D;
  CFG G = CFG::compute(*D.F);
  EXPECT_EQ(G.succs(D.Entry),
            (std::vector<uint32_t>{D.Then, D.Else}));
  EXPECT_EQ(G.preds(D.Join), (std::vector<uint32_t>{D.Then, D.Else}));
  EXPECT_EQ(G.preds(D.Head), (std::vector<uint32_t>{D.Join, D.Body}));
  // RPO starts at the entry and visits every reachable block once.
  ASSERT_EQ(G.rpo().size(), 7u);
  EXPECT_EQ(G.rpo().front(), D.Entry);
  EXPECT_EQ(G.rpoIndex(D.Entry), 0u);
  // RPO property: for non-back edges, source precedes target.
  EXPECT_LT(G.rpoIndex(D.Entry), G.rpoIndex(D.Join));
  EXPECT_LT(G.rpoIndex(D.Head), G.rpoIndex(D.Exit));
}

TEST(CFGTest, UnreachableBlocksAreMarked) {
  Module M;
  Function &F = M.newFunction("f");
  IRBuilder B(M, F);
  uint32_t Entry = B.newBlock("entry");
  uint32_t Dead = B.newBlock("dead");
  B.setInsertPoint(Entry);
  B.ret();
  B.setInsertPoint(Dead);
  B.ret();
  CFG G = CFG::compute(F);
  EXPECT_TRUE(G.isReachable(Entry));
  EXPECT_FALSE(G.isReachable(Dead));
}

TEST(DominatorTest, DiamondAndLoop) {
  DiamondLoop D;
  CFG G = CFG::compute(*D.F);
  Dominators Dom = Dominators::compute(*D.F, G);
  EXPECT_EQ(Dom.idom(D.Then), D.Entry);
  EXPECT_EQ(Dom.idom(D.Else), D.Entry);
  EXPECT_EQ(Dom.idom(D.Join), D.Entry) << "join is not dominated by "
                                          "either branch arm";
  EXPECT_EQ(Dom.idom(D.Head), D.Join);
  EXPECT_EQ(Dom.idom(D.Body), D.Head);
  EXPECT_EQ(Dom.idom(D.Exit), D.Head);
  EXPECT_TRUE(Dom.dominates(D.Entry, D.Exit));
  EXPECT_TRUE(Dom.dominates(D.Head, D.Body));
  EXPECT_FALSE(Dom.dominates(D.Then, D.Join));
  EXPECT_TRUE(Dom.dominates(D.Join, D.Join)) << "dominance is reflexive";
}

TEST(LoopInfoTest, SingleLoopDepths) {
  DiamondLoop D;
  CFG G = CFG::compute(*D.F);
  Dominators Dom = Dominators::compute(*D.F, G);
  LoopInfo LI = LoopInfo::compute(*D.F, G, Dom);
  ASSERT_EQ(LI.loops().size(), 1u);
  EXPECT_EQ(LI.loops()[0].Header, D.Head);
  EXPECT_EQ(LI.depth(D.Head), 1u);
  EXPECT_EQ(LI.depth(D.Body), 1u);
  EXPECT_EQ(LI.depth(D.Entry), 0u);
  EXPECT_EQ(LI.depth(D.Exit), 0u);
  EXPECT_EQ(LI.maxDepth(), 1u);
}

TEST(LoopInfoTest, NestedLoopsFromWorkload) {
  // MATGEN has a classic doubly-nested loop; its inner body must be at
  // depth 2.
  Module M;
  Function &F = buildMATGEN(M);
  CFG G = CFG::compute(F);
  Dominators Dom = Dominators::compute(F, G);
  LoopInfo LI = LoopInfo::compute(F, G, Dom);
  EXPECT_GE(LI.loops().size(), 4u);
  EXPECT_EQ(LI.maxDepth(), 2u);
}

TEST(LivenessTest, StraightLineAndBranch) {
  DiamondLoop D;
  CFG G = CFG::compute(*D.F);
  Liveness LV = Liveness::compute(*D.F, G);
  // x and y are live into the loop head (used in the body), as is i/n.
  EXPECT_TRUE(LV.isLiveIn(D.Head, D.X));
  EXPECT_TRUE(LV.isLiveIn(D.Head, D.Y));
  EXPECT_TRUE(LV.isLiveIn(D.Head, D.I));
  EXPECT_TRUE(LV.isLiveIn(D.Head, D.N));
  // x is live out of the loop (returned); y is not used after the loop.
  std::span<const VRegId> Out = LV.liveOut(D.Head);
  EXPECT_TRUE(std::binary_search(Out.begin(), Out.end(), D.X));
  // Nothing is live into the entry.
  for (VRegId R = 0; R < D.F->numVRegs(); ++R)
    EXPECT_FALSE(LV.isLiveIn(D.Entry, R)) << "vreg " << R;
}

TEST(LivenessTest, LiveInNeverContainsEntryDeadRegs) {
  for (uint64_t Seed = 10; Seed < 16; ++Seed) {
    Module M;
    Function &F = buildRandomProgram(M, Seed);
    CFG G = CFG::compute(F);
    Liveness LV = Liveness::compute(F, G);
    // Verified programs define everything before use, so nothing can be
    // live into the entry block.
    for (VRegId R = 0; R < F.numVRegs(); ++R)
      EXPECT_FALSE(LV.isLiveIn(F.entry(), R)) << "seed " << Seed;
  }
}

//===--------------------------------------------------------------------===//
// Renumbering (webs).
//===--------------------------------------------------------------------===//

TEST(RenumberTest, SplitsIndependentWebs) {
  // x is defined and consumed twice, independently: two live ranges.
  Module M;
  uint32_t A = M.newArray("a", 8, RegClass::Int);
  Function &F = M.newFunction("webs");
  IRBuilder B(M, F);
  B.setInsertPoint(B.newBlock("entry"));
  VRegId X = B.iReg("x");
  VRegId C0 = B.movI(0);
  B.movI(1, X);
  B.store(A, C0, X); // first web ends here
  B.movI(2, X);
  B.store(A, C0, X); // second web
  B.ret();

  unsigned Before = F.numVRegs();
  CFG G = CFG::compute(F);
  RenumberStats S = renumberLiveRanges(F, G);
  EXPECT_EQ(S.VRegsBefore, Before);
  EXPECT_EQ(S.VRegsAfter, Before + 1) << "x splits into two webs";
  EXPECT_TRUE(verifyFunction(M, F).empty());
}

TEST(RenumberTest, KeepsConnectedWebsTogether) {
  // A value merged at a join must stay one live range.
  Module M;
  Function &F = M.newFunction("join");
  IRBuilder B(M, F);
  uint32_t Entry = B.newBlock("entry");
  uint32_t Then = B.newBlock("then");
  uint32_t Else = B.newBlock("else");
  uint32_t Join = B.newBlock("join");
  B.setInsertPoint(Entry);
  VRegId X = B.iReg("x");
  VRegId C = B.movI(3);
  VRegId Z = B.movI(0);
  B.br(CmpKind::LT, C, Z, Then, Else);
  B.setInsertPoint(Then);
  B.movI(1, X);
  B.jmp(Join);
  B.setInsertPoint(Else);
  B.movI(2, X);
  B.jmp(Join);
  B.setInsertPoint(Join);
  B.ret(X);

  unsigned Before = F.numVRegs();
  CFG G = CFG::compute(F);
  RenumberStats S = renumberLiveRanges(F, G);
  EXPECT_EQ(S.VRegsAfter, Before)
      << "both defs reach the same use: one web";
}

TEST(RenumberTest, IsIdempotent) {
  Module M;
  Function &F = buildSVD(M);
  CFG G = CFG::compute(F);
  RenumberStats First = renumberLiveRanges(F, G);
  std::string Once = printFunction(M, F);
  RenumberStats Second = renumberLiveRanges(F, G);
  EXPECT_EQ(Second.VRegsBefore, First.VRegsAfter);
  EXPECT_EQ(Second.VRegsAfter, First.VRegsAfter)
      << "a second renumbering must not split further";
  EXPECT_EQ(printFunction(M, F), Once)
      << "a second renumbering must not rename or reorder anything";
}

TEST(RenumberTest, PreservesSemanticsOnWorkloads) {
  for (const char *Name : {"DAXPY", "DGEFA", "SVD", "SIMPLEX"}) {
    const Workload *W = findWorkload(Name);
    Module M;
    Function &F = W->Build(M);
    Simulator Sim(M);
    MemoryImage Golden(M);
    W->Init(M, Golden);
    ExecutionResult G1 = Sim.runVirtual(F, Golden);

    CFG G = CFG::compute(F);
    renumberLiveRanges(F, G);
    ASSERT_TRUE(verifyFunction(M, F).empty()) << Name;

    MemoryImage Mem(M);
    W->Init(M, Mem);
    ExecutionResult R = Sim.runVirtual(F, Mem);
    EXPECT_EQ(compareRuns(M, G1, Golden, R, Mem), "") << Name;
  }
}

} // namespace
