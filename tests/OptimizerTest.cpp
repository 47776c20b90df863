//===- tests/OptimizerTest.cpp - LICM / strength reduction tests ----------===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// The optimizer models the paper's compilation pipeline in front of the
// allocator. It must preserve semantics exactly: every workload is run
// before and after optimization and compared bit-for-bit, and the
// optimized code must still verify and allocate.
//
//===----------------------------------------------------------------------===//

#include "ir/IRBuilder.h"
#include "ir/Verifier.h"
#include "opt/Optimizer.h"
#include "regalloc/Allocator.h"
#include "regalloc/Coalesce.h"
#include "sim/Simulator.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

using namespace ra;

namespace {

class OptimizerWorkload : public ::testing::TestWithParam<std::string> {};

TEST_P(OptimizerWorkload, PreservesSemanticsAndVerifies) {
  const Workload *W = findWorkload(GetParam());
  ASSERT_NE(W, nullptr);

  Module M;
  Function &F = W->Build(M);
  Simulator Sim(M);
  MemoryImage Golden(M);
  W->Init(M, Golden);
  ExecutionResult GoldenRun = Sim.runVirtual(F, Golden);

  OptStats S = optimizeFunction(F);
  (void)S;
  auto Errors = verifyFunction(M, F);
  ASSERT_TRUE(Errors.empty()) << Errors.front();

  MemoryImage Mem(M);
  W->Init(M, Mem);
  ExecutionResult Run = Sim.runVirtual(F, Mem);
  EXPECT_EQ(compareRuns(M, GoldenRun, Golden, Run, Mem), "")
      << "optimization changed program results";

  // Optimized code must still allocate and still compute the same
  // results through physical registers.
  AllocatorConfig C;
  C.H = Heuristic::Briggs;
  AllocationResult A = allocateRegisters(F, C);
  ASSERT_TRUE(A.Success);
  MemoryImage Mem2(M);
  W->Init(M, Mem2);
  ExecutionResult Run2 = Sim.runAllocated(F, A, Mem2);
  EXPECT_EQ(compareRuns(M, GoldenRun, Golden, Run2, Mem2), "");
}

INSTANTIATE_TEST_SUITE_P(AllRoutines, OptimizerWorkload, [] {
  std::vector<std::string> Names;
  for (const Workload &W : allWorkloads())
    Names.push_back(W.Routine);
  return ::testing::ValuesIn(Names);
}());

TEST(OptimizerUnits, HoistsInvariantOutOfLoop) {
  // for (i = 0; i < 10; ++i) { t = n * 4; a[i] = t }  — t must move out.
  Module M;
  uint32_t A = M.newArray("a", 16, RegClass::Int);
  Function &F = M.newFunction("hoist");
  IRBuilder B(M, F);
  uint32_t Entry = B.newBlock("entry");
  uint32_t Head = B.newBlock("head");
  uint32_t Body = B.newBlock("body");
  uint32_t Exit = B.newBlock("exit");
  B.setInsertPoint(Entry);
  VRegId I = B.iReg("i"), N = B.iReg("n"), Lim = B.iReg("lim");
  B.movI(0, I);
  B.movI(7, N);
  B.movI(10, Lim);
  B.jmp(Head);
  B.setInsertPoint(Head);
  B.br(CmpKind::LT, I, Lim, Body, Exit);
  B.setInsertPoint(Body);
  VRegId T = B.mulI(N, 4); // invariant
  B.store(A, I, T);
  B.addI(I, 1, I);
  B.jmp(Head);
  B.setInsertPoint(Exit);
  B.ret();

  unsigned BodySizeBefore = F.block(Body).Insts.size();
  unsigned Hoisted = hoistLoopInvariants(F);
  EXPECT_GE(Hoisted, 1u);
  EXPECT_LT(F.block(Body).Insts.size(), BodySizeBefore);
  EXPECT_TRUE(verifyFunction(M, F).empty());

  // The hoisted computation sits in a preheader, not in the old entry.
  bool FoundInLoop = false;
  for (const Instruction &I2 : F.block(Body).Insts)
    if (I2.Op == Opcode::MulI)
      FoundInLoop = true;
  EXPECT_FALSE(FoundInLoop);
}

TEST(OptimizerUnits, StrengthReducesAddressComputation) {
  // for (i = 0; i < 8; ++i) { x = i * 24; a[...] uses x } — the mulI
  // becomes an induction variable updated by 24.
  Module M;
  uint32_t A = M.newArray("a", 256, RegClass::Int);
  Function &F = M.newFunction("sr");
  IRBuilder B(M, F);
  uint32_t Entry = B.newBlock("entry");
  uint32_t Head = B.newBlock("head");
  uint32_t Body = B.newBlock("body");
  uint32_t Exit = B.newBlock("exit");
  B.setInsertPoint(Entry);
  VRegId I = B.iReg("i"), Lim = B.iReg("lim");
  B.movI(0, I);
  B.movI(8, Lim);
  B.jmp(Head);
  B.setInsertPoint(Head);
  B.br(CmpKind::LT, I, Lim, Body, Exit);
  B.setInsertPoint(Body);
  VRegId X = B.mulI(I, 24);
  B.store(A, X, I);
  B.addI(I, 1, I);
  B.jmp(Head);
  B.setInsertPoint(Exit);
  B.ret();

  // Golden semantics before.
  Simulator Sim(M);
  MemoryImage Golden(M);
  ExecutionResult G = Sim.runVirtual(F, Golden);

  unsigned Created = reduceStrength(F);
  EXPECT_EQ(Created, 1u);
  EXPECT_TRUE(verifyFunction(M, F).empty());

  // No multiply remains in the loop body.
  for (const Instruction &I2 : F.block(Body).Insts)
    EXPECT_NE(I2.Op, Opcode::MulI);

  MemoryImage Mem(M);
  ExecutionResult R = Sim.runVirtual(F, Mem);
  EXPECT_EQ(compareRuns(M, G, Golden, R, Mem), "");
}

TEST(OptimizerUnits, StructuredLoopsAlreadyHavePreheaders) {
  // KernelBuilder's forLoop emits "jmp head" from the initializing
  // block, which already acts as a preheader — so insertion is a no-op
  // on the structured workloads.
  const Workload *W = findWorkload("DGEFA");
  Module M;
  Function &F = W->Build(M);
  EXPECT_EQ(insertPreheaders(F), 0u);
  EXPECT_TRUE(verifyFunction(M, F).empty());
}

TEST(OptimizerUnits, ConditionalEntryLoopGetsAPreheader) {
  // entry: br (a < b) head, exit — the loop header is entered by a
  // conditional edge, so a preheader block must be synthesized; a
  // second run must then be a no-op.
  Module M;
  Function &F = M.newFunction("condloop");
  IRBuilder B(M, F);
  uint32_t Entry = B.newBlock("entry");
  uint32_t Head = B.newBlock("head");
  uint32_t Exit = B.newBlock("exit");
  B.setInsertPoint(Entry);
  VRegId I = B.iReg("i"), Lim = B.iReg("lim");
  B.movI(0, I);
  B.movI(4, Lim);
  B.br(CmpKind::LT, I, Lim, Head, Exit);
  B.setInsertPoint(Head);
  B.addI(I, 1, I);
  B.br(CmpKind::LT, I, Lim, Head, Exit);
  B.setInsertPoint(Exit);
  B.ret();

  unsigned First = insertPreheaders(F);
  EXPECT_EQ(First, 1u);
  EXPECT_EQ(insertPreheaders(F), 0u) << "second run must be a no-op";
  EXPECT_TRUE(verifyFunction(M, F).empty());

  // Semantics: i counts to 4 either way.
  Simulator Sim(M);
  MemoryImage Mem(M);
  ExecutionResult R = Sim.runVirtual(F, Mem);
  EXPECT_TRUE(R.Ok);
}

} // namespace

//===--------------------------------------------------------------------===//
// Negative cases: what the optimizer must NOT touch.
//===--------------------------------------------------------------------===//

namespace {

struct LoopFixture {
  ra::Module M;
  ra::Function *F;
  uint32_t Entry, Head, Body, Exit;
  ra::VRegId I, Lim;

  LoopFixture() {
    using namespace ra;
    F = &M.newFunction("fix");
    IRBuilder B(M, *F);
    Entry = B.newBlock("entry");
    Head = B.newBlock("head");
    Body = B.newBlock("body");
    Exit = B.newBlock("exit");
    B.setInsertPoint(Entry);
    I = B.iReg("i");
    Lim = B.iReg("lim");
    B.movI(0, I);
    B.movI(4, Lim);
    B.jmp(Head);
    B.setInsertPoint(Head);
    B.br(CmpKind::LT, I, Lim, Body, Exit);
  }

  /// Fills the body with \p Fill, closes the loop, and returns.
  template <typename CallableT> void finish(CallableT Fill) {
    using namespace ra;
    IRBuilder B(M, *F);
    B.setInsertPoint(Body);
    Fill(B);
    B.addI(I, 1, I);
    B.jmp(Head);
    B.setInsertPoint(Exit);
    B.ret();
  }
};

TEST(OptimizerNegative, DoesNotHoistLoads) {
  using namespace ra;
  LoopFixture T;
  uint32_t Arr = T.M.newArray("a", 8, RegClass::Int);
  T.finish([&](IRBuilder &B) {
    VRegId Zero = B.movI(0); // hoistable constant
    VRegId V = B.load(Arr, Zero); // NOT hoistable: memory may change
    B.store(Arr, Zero, B.addI(V, 1));
  });
  hoistLoopInvariants(*T.F);
  bool LoadInLoop = false;
  for (const Instruction &I : T.F->block(T.Body).Insts)
    if (I.Op == Opcode::Load)
      LoadInLoop = true;
  EXPECT_TRUE(LoadInLoop) << "loads must stay in the loop";
  EXPECT_TRUE(verifyFunction(T.M, *T.F).empty());
}

TEST(OptimizerNegative, DoesNotHoistTrappingOps) {
  using namespace ra;
  LoopFixture T;
  T.finish([&](IRBuilder &B) {
    VRegId X = B.movF(4.0);    // hoistable
    B.fsqrt(X);                // must NOT be speculated
    VRegId A = B.movI(10);
    VRegId Bv = B.movI(2);
    B.div(A, Bv);              // must NOT be speculated
  });
  hoistLoopInvariants(*T.F);
  bool SqrtInLoop = false, DivInLoop = false;
  for (const Instruction &I : T.F->block(T.Body).Insts) {
    if (I.Op == Opcode::FSqrt)
      SqrtInLoop = true;
    if (I.Op == Opcode::Div)
      DivInLoop = true;
  }
  EXPECT_TRUE(SqrtInLoop);
  EXPECT_TRUE(DivInLoop);
}

TEST(OptimizerNegative, DoesNotHoistMultiDefValues) {
  using namespace ra;
  LoopFixture T;
  ra::VRegId Acc = ra::InvalidVReg;
  {
    IRBuilder B(T.M, *T.F);
    B.setInsertPoint(T.Entry);
    // (rebuild entry additions is awkward; define acc in body twice)
  }
  T.finish([&](IRBuilder &B) {
    Acc = B.iReg("acc");
    B.movI(1, Acc);   // two defs of acc inside the loop:
    B.addI(Acc, 2, Acc);
  });
  unsigned Hoisted = hoistLoopInvariants(*T.F);
  (void)Hoisted;
  unsigned DefsInBody = 0;
  for (const Instruction &I : T.F->block(T.Body).Insts)
    if (I.hasDef() && I.defReg() == Acc)
      ++DefsInBody;
  EXPECT_EQ(DefsInBody, 2u) << "multi-def values must not move";
}

TEST(OptimizerNegative, StrengthReductionSkipsNonIVMultiplies) {
  using namespace ra;
  LoopFixture T;
  uint32_t Arr = T.M.newArray("a", 64, RegClass::Int);
  ra::VRegId X = ra::InvalidVReg;
  T.finish([&](IRBuilder &B) {
    X = B.load(Arr, B.movI(0));
    B.store(Arr, B.movI(1), B.mulI(X, 3)); // x is not an IV
  });
  unsigned Created = reduceStrength(*T.F);
  EXPECT_EQ(Created, 0u);
}

TEST(OptimizerStats, ReportsWorkOnWorkloads) {
  using namespace ra;
  Module M;
  Function &F = buildDGEFA(M);
  OptStats S = optimizeFunction(F);
  EXPECT_GT(S.InstructionsHoisted, 0u);
  EXPECT_GT(S.IVsCreated, 0u);
}

} // namespace

//===--------------------------------------------------------------------===//
// Dead-code elimination.
//===--------------------------------------------------------------------===//

namespace {

TEST(DeadCodeTest, RemovesUnusedChains) {
  using namespace ra;
  Module M;
  Function &F = M.newFunction("dce");
  IRBuilder B(M, F);
  B.setInsertPoint(B.newBlock("entry"));
  VRegId Live = B.movI(1);
  VRegId DeadA = B.movI(2);
  VRegId DeadB = B.addI(DeadA, 3); // uses DeadA, itself unused
  (void)DeadB;
  B.ret(Live);

  unsigned Removed = eliminateDeadCode(F);
  EXPECT_EQ(Removed, 2u) << "the whole dead chain must go";
  EXPECT_EQ(F.numInstructions(), 2u);
  EXPECT_TRUE(verifyFunction(M, F).empty());
}

TEST(DeadCodeTest, KeepsEffectsAndTraps) {
  using namespace ra;
  Module M;
  uint32_t Arr = M.newArray("a", 4, RegClass::Int);
  Function &F = M.newFunction("dce2");
  IRBuilder B(M, F);
  B.setInsertPoint(B.newBlock("entry"));
  VRegId Zero = B.movI(0);
  VRegId One = B.movI(1);
  B.store(Arr, Zero, One);     // effect: must stay
  VRegId DeadDiv = B.div(One, One); // could trap: must stay
  (void)DeadDiv;
  B.ret();

  unsigned Before = F.numInstructions();
  eliminateDeadCode(F);
  EXPECT_EQ(F.numInstructions(), Before)
      << "stores and trapping ops are never dead-code-eliminated";
}

} // namespace

//===--------------------------------------------------------------------===//
// Conservative coalescing.
//===--------------------------------------------------------------------===//

namespace {

TEST(ConservativeCoalesceTest, StillMergesEasyCopies) {
  using namespace ra;
  Module M;
  uint32_t Arr = M.newArray("arr", 4, RegClass::Int);
  Function &F = M.newFunction("cc");
  IRBuilder B(M, F);
  B.setInsertPoint(B.newBlock("entry"));
  VRegId Zero = B.movI(0);
  VRegId A = B.movI(7);
  VRegId Bv = B.copy(A);
  B.store(Arr, Zero, Bv);
  B.ret();

  CFG G = CFG::compute(F);
  CoalesceStats S = coalesceAll(F, G, CoalescePolicy::Conservative,
                                MachineInfo::rtpc());
  EXPECT_EQ(S.CopiesRemoved, 1u);
  EXPECT_TRUE(verifyFunction(M, F).empty());
}

TEST(ConservativeCoalesceTest, EndToEndEquivalentToAggressive) {
  using namespace ra;
  for (const char *Name : {"SVD", "DISSIP"}) {
    const Workload *W = findWorkload(Name);
    Module M1, M2;
    Function &F1 = W->Build(M1);
    Function &F2 = W->Build(M2);
    AllocatorConfig C1, C2;
    C1.H = C2.H = Heuristic::Briggs;
    C2.Coalescing = CoalescePolicy::Conservative;
    AllocationResult A1 = allocateRegisters(F1, C1);
    AllocationResult A2 = allocateRegisters(F2, C2);
    ASSERT_TRUE(A1.Success && A2.Success) << Name;

    Simulator S1(M1), S2(M2);
    MemoryImage Mem1(M1), Mem2(M2);
    W->Init(M1, Mem1);
    W->Init(M2, Mem2);
    ExecutionResult R1 = S1.runAllocated(F1, A1, Mem1);
    ExecutionResult R2 = S2.runAllocated(F2, A2, Mem2);
    EXPECT_EQ(compareRuns(M1, R1, Mem1, R2, Mem2), "")
        << Name << ": policies must agree on results";
  }
}

} // namespace
