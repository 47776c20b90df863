//===- tests/MegaKernelTest.cpp - generated giant-function family ---------===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// The mega-kernel contract: every generated shape is verifier-clean,
// reaches its advertised live-range scale, allocates with a clean audit,
// and computes the same answers before and after allocation.
//
//===----------------------------------------------------------------------===//

#include "ir/Verifier.h"
#include "regalloc/Allocator.h"
#include "sim/Simulator.h"
#include "workloads/MegaKernel.h"

#include <gtest/gtest.h>

#include <set>

using namespace ra;

namespace {

/// Total interference-graph nodes across both register classes.
unsigned totalNodes(std::array<ClassGraph, NumRegClasses> &Graphs) {
  unsigned N = 0;
  for (ClassGraph &CG : Graphs)
    N += CG.Graph.numNodes();
  return N;
}

TEST(MegaKernelTest, FamiliesAreWellFormedAndUniquelyNamed) {
  std::set<std::string> Names;
  for (const auto *Family : {&megaKernelFamily(), &megaKernelTestFamily()})
    for (const MegaKernel &MK : *Family) {
      EXPECT_TRUE(Names.insert(MK.Name).second)
          << "duplicate name " << MK.Name;
      EXPECT_TRUE(MK.Kind == "ramp" || MK.Kind == "wide" ||
                  MK.Kind == "random")
          << MK.Name;
      EXPECT_TRUE(MK.Build != nullptr) << MK.Name;
    }
}

TEST(MegaKernelTest, TestFamilyVerifiesAndReachesScale) {
  for (const MegaKernel &MK : megaKernelTestFamily()) {
    Module M;
    Function &F = MK.Build(M);
    EXPECT_TRUE(verifyFunction(M, F).empty()) << MK.Name;
    auto Graphs = buildColoringGraphs(F);
    // "A few thousand ranges": past the per-class helper thread's
    // threshold, small enough for millisecond tests.
    EXPECT_GE(totalNodes(Graphs), 1000u) << MK.Name;
  }
}

TEST(MegaKernelTest, BenchFamilyHitsTenThousandRanges) {
  // Only the smallest bench member is built here — the 50k ramp's
  // triangular bit matrix alone costs ~150 MB and belongs in the bench
  // binary, not the test suite.
  Module M;
  Function &F = megaKernelFamily()[0].Build(M);
  EXPECT_TRUE(verifyFunction(M, F).empty());
  auto Graphs = buildColoringGraphs(F);
  EXPECT_GE(totalNodes(Graphs), 10000u)
      << "mega.ramp.10k must reach its advertised scale";
}

TEST(MegaKernelTest, AllocatesAuditCleanAndComputesSameAnswers) {
  for (const MegaKernel &MK : megaKernelTestFamily()) {
    Module M;
    Function &F = MK.Build(M);

    // Golden answer from the virtual-register program.
    double Golden;
    {
      Simulator Sim(M);
      MemoryImage Mem(M);
      ExecutionResult R = Sim.runVirtual(F, Mem);
      ASSERT_TRUE(R.Ok) << MK.Name << ": " << R.Error;
      Golden = R.FloatReturn;
      EXPECT_TRUE(std::isfinite(Golden))
          << MK.Name << ": bounded-combine construction violated";
    }

    AllocatorConfig C;
    C.Audit = true;
    AllocationResult A = allocateRegisters(F, C);
    ASSERT_TRUE(A.Success) << MK.Name;
    EXPECT_EQ(A.Outcome, AllocOutcome::Converged)
        << MK.Name << ": failed the audit";

    Simulator Sim(M);
    MemoryImage Mem(M);
    ExecutionResult R = Sim.runAllocated(F, A, Mem);
    ASSERT_TRUE(R.Ok) << MK.Name << ": " << R.Error;
    EXPECT_EQ(R.FloatReturn, Golden) << MK.Name;
  }
}

} // namespace
