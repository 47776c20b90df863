//===- tests/PropertyTest.cpp - randomized end-to-end properties ----------===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Randomized whole-pipeline invariants, seeded and deterministic:
// generated structured programs must verify, survive optimization, and
// compute bit-identical results virtually, after each heuristic's
// allocation, and across shrinking register files.
//
//===----------------------------------------------------------------------===//

#include "ir/Verifier.h"
#include "opt/Optimizer.h"
#include "regalloc/Allocator.h"
#include "sim/Simulator.h"
#include "workloads/RandomProgram.h"

#include <gtest/gtest.h>

using namespace ra;

namespace {

/// One seed's program and its virtual-register reference run, which
/// every transformed run of the program must match.
class RandomPrograms : public ::testing::TestWithParam<uint64_t> {
protected:
  void SetUp() override {
    Function &F = buildRandomProgram(RefM, GetParam(), C);
    EXPECT_TRUE(verifyFunction(RefM, F).empty()) << "seed " << GetParam();
    RefMem.emplace(RefM);
    Ref = Simulator(RefM).runVirtual(F, *RefMem);
  }

  RandomProgramConfig C;
  Module RefM;
  std::optional<MemoryImage> RefMem;
  ExecutionResult Ref;
};

TEST_P(RandomPrograms, AllocationIsTransparentAtEveryFileSize) {
  uint64_t Seed = GetParam();

  for (Heuristic H :
       {Heuristic::Chaitin, Heuristic::Briggs, Heuristic::MatulaBeck}) {
    for (unsigned K : {16u, 6u, 4u}) {
      Module M;
      Function &F = buildRandomProgram(M, Seed, C);
      AllocatorConfig AC;
      AC.H = H;
      AC.Machine = MachineInfo(K, K);
      AC.MaxPasses = 64; // Matula-Beck can need more rounds
      AllocationResult A = allocateRegisters(F, AC);
      ASSERT_TRUE(A.Success)
          << "seed " << Seed << " " << heuristicName(H) << " k=" << K;
      ASSERT_TRUE(verifyFunction(M, F).empty());

      Simulator Sim(M);
      MemoryImage Mem(M);
      ExecutionResult R = Sim.runAllocated(F, A, Mem);
      EXPECT_EQ(compareRuns(M, Ref, *RefMem, R, Mem), "")
          << "seed " << Seed << " " << heuristicName(H) << " k=" << K;
    }
  }
}

TEST_P(RandomPrograms, OptimizerIsTransparent) {
  uint64_t Seed = GetParam();

  Module M;
  Function &F = buildRandomProgram(M, Seed, C);
  OptStats S = optimizeFunction(F);
  (void)S;
  ASSERT_TRUE(verifyFunction(M, F).empty()) << "seed " << Seed;
  Simulator Sim(M);
  MemoryImage Mem(M);
  ExecutionResult R = Sim.runVirtual(F, Mem);
  EXPECT_EQ(compareRuns(M, Ref, *RefMem, R, Mem), "") << "seed " << Seed;
}

TEST_P(RandomPrograms, BriggsFirstPassSpillsSubsetOfChaitin) {
  uint64_t Seed = GetParam();

  Module M1, M2;
  Function &F1 = buildRandomProgram(M1, Seed, C);
  Function &F2 = buildRandomProgram(M2, Seed, C);
  AllocatorConfig A1, A2;
  A1.H = Heuristic::Chaitin;
  A2.H = Heuristic::Briggs;
  A1.Machine = A2.Machine = MachineInfo(5, 4); // tight: force spills
  AllocationResult R1 = allocateRegisters(F1, A1);
  AllocationResult R2 = allocateRegisters(F2, A2);
  ASSERT_TRUE(R1.Success && R2.Success);
  ASSERT_FALSE(R1.Stats.Passes.empty());

  // Subset property on first-pass decisions (identical input graphs).
  const auto &Chaitin = R1.Stats.Passes[0].SpilledNames;
  const auto &Briggs = R2.Stats.Passes[0].SpilledNames;
  EXPECT_LE(Briggs.size(), Chaitin.size()) << "seed " << Seed;
  std::set<std::string> ChaitinSet(Chaitin.begin(), Chaitin.end());
  for (const std::string &Name : Briggs)
    EXPECT_TRUE(ChaitinSet.count(Name))
        << "seed " << Seed << ": Briggs spilled " << Name
        << " which Chaitin kept";
}

TEST_P(RandomPrograms, OptimizedProgramsAllocateAndMatch) {
  uint64_t Seed = GetParam();

  Module M;
  Function &F = buildRandomProgram(M, Seed, C);
  optimizeFunction(F);
  AllocatorConfig AC;
  AC.H = Heuristic::Briggs;
  AC.Machine = MachineInfo(6, 5);
  AllocationResult A = allocateRegisters(F, AC);
  ASSERT_TRUE(A.Success) << "seed " << Seed;
  Simulator Sim(M);
  MemoryImage Mem(M);
  ExecutionResult R = Sim.runAllocated(F, A, Mem);
  EXPECT_EQ(compareRuns(M, Ref, *RefMem, R, Mem), "") << "seed " << Seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomPrograms,
                         ::testing::Range(uint64_t(1), uint64_t(21)));

TEST(RandomProgramTest, GeneratorIsDeterministic) {
  Module M1, M2;
  Function &F1 = buildRandomProgram(M1, 99);
  Function &F2 = buildRandomProgram(M2, 99);
  EXPECT_EQ(F1.numInstructions(), F2.numInstructions());
  EXPECT_EQ(F1.numVRegs(), F2.numVRegs());
  EXPECT_EQ(F1.numBlocks(), F2.numBlocks());
}

TEST(RandomProgramTest, BiggerConfigMakesBiggerPrograms) {
  RandomProgramConfig Small;
  Small.Regions = 2;
  Small.StatementsPerBlock = 3;
  RandomProgramConfig Big;
  Big.Regions = 12;
  Big.StatementsPerBlock = 12;
  Module M1, M2;
  Function &F1 = buildRandomProgram(M1, 5, Small);
  Function &F2 = buildRandomProgram(M2, 5, Big);
  EXPECT_LT(F1.numInstructions(), F2.numInstructions());
}

} // namespace
