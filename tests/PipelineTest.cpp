//===- tests/PipelineTest.cpp - End-to-end allocator smoke tests ----------===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Builds a small program, allocates it with every heuristic, and checks
// that the allocated code computes the same results as the virtual run.
//
//===----------------------------------------------------------------------===//

#include "Printers.h"

#include "ir/IRBuilder.h"
#include "ir/Verifier.h"
#include "regalloc/Allocator.h"
#include "sim/Simulator.h"

#include <gtest/gtest.h>

using namespace ra;

namespace {

/// sum = 0; for (i = 0; i < n; ++i) { a[i] = i * 3; sum += a[i]; }
/// returns sum.
struct SumProgram {
  Module M;
  Function *F = nullptr;
  uint32_t Arr = 0;

  explicit SumProgram(int64_t N) {
    Arr = M.newArray("a", 64, RegClass::Int);
    F = &M.newFunction("sum");
    IRBuilder B(M, *F);
    uint32_t Entry = B.newBlock("entry");
    uint32_t Loop = B.newBlock("loop");
    uint32_t Body = B.newBlock("body");
    uint32_t Exit = B.newBlock("exit");

    B.setInsertPoint(Entry);
    VRegId I = B.iReg("i");
    VRegId NR = B.iReg("n");
    VRegId Sum = B.iReg("sum");
    B.movI(0, I);
    B.movI(N, NR);
    B.movI(0, Sum);
    B.jmp(Loop);

    B.setInsertPoint(Loop);
    B.br(CmpKind::LT, I, NR, Body, Exit);

    B.setInsertPoint(Body);
    VRegId V = B.mulI(I, 3);
    B.store(Arr, I, V);
    VRegId L = B.load(Arr, I);
    B.add(Sum, L, Sum);
    B.addI(I, 1, I);
    B.jmp(Loop);

    B.setInsertPoint(Exit);
    B.ret(Sum);
  }
};

class PipelineTest : public ::testing::TestWithParam<Heuristic> {};

TEST_P(PipelineTest, SumLoopMatchesVirtualRun) {
  SumProgram P(10);
  ASSERT_TRUE(verifyFunction(P.M, *P.F).empty());

  Simulator Sim(P.M);
  MemoryImage GoldenMem(P.M);
  ExecutionResult Golden = Sim.runVirtual(*P.F, GoldenMem);
  ASSERT_TRUE(Golden.Ok) << Golden.Error;
  EXPECT_EQ(Golden.IntReturn, 3 * (0 + 1 + 2 + 3 + 4 + 5 + 6 + 7 + 8 + 9));

  AllocatorConfig C;
  C.H = GetParam();
  C.Machine = MachineInfo(4, 3);
  AllocationResult A = allocateRegisters(*P.F, C);
  ASSERT_TRUE(A.Success);
  ASSERT_TRUE(verifyFunction(P.M, *P.F).empty());

  MemoryImage Mem(P.M);
  ExecutionResult Run = Sim.runAllocated(*P.F, A, Mem);
  EXPECT_EQ(compareRuns(P.M, Golden, GoldenMem, Run, Mem), "");
}

TEST_P(PipelineTest, TightRegisterFileForcesSpillsButStaysCorrect) {
  SumProgram P(17);
  Simulator Sim(P.M);
  MemoryImage GoldenMem(P.M);
  ExecutionResult Golden = Sim.runVirtual(*P.F, GoldenMem);

  AllocatorConfig C;
  C.H = GetParam();
  C.Machine = MachineInfo(3, 3); // minimum legal file
  AllocationResult A = allocateRegisters(*P.F, C);
  ASSERT_TRUE(A.Success);

  MemoryImage Mem(P.M);
  ExecutionResult Run = Sim.runAllocated(*P.F, A, Mem);
  EXPECT_EQ(compareRuns(P.M, Golden, GoldenMem, Run, Mem), "");
}

INSTANTIATE_TEST_SUITE_P(AllHeuristics, PipelineTest,
                         ::testing::Values(Heuristic::Chaitin,
                                           Heuristic::Briggs,
                                           Heuristic::MatulaBeck),
                         [](const auto &Info) {
                           return std::string(heuristicName(Info.param)) ==
                                          "matula-beck"
                                      ? "MatulaBeck"
                                      : heuristicName(Info.param);
                         });

} // namespace
