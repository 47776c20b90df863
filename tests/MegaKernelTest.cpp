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

#include "analysis/Renumber.h"
#include "ir/Verifier.h"
#include "regalloc/Allocator.h"
#include "sim/Simulator.h"
#include "workloads/MegaKernel.h"

#include <gtest/gtest.h>

#include <set>

using namespace ra;

namespace {

/// Live ranges after renumbering: each one is a node of its class's
/// interference graph.
unsigned liveRanges(Function &F) {
  return renumberLiveRanges(F, CFG::compute(F)).VRegsAfter;
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
    // "A few thousand ranges": small enough for millisecond tests.
    EXPECT_GE(liveRanges(F), 1000u) << MK.Name;
  }
}

TEST(MegaKernelTest, BenchFamilyHitsTenThousandRanges) {
  // Only the smallest bench member is built here: the larger ones
  // belong in the benchmarks, not the test suite.
  Module M;
  Function &F = megaKernelFamily()[0].Build(M);
  EXPECT_TRUE(verifyFunction(M, F).empty());
  EXPECT_GE(liveRanges(F), 10000u)
      << "mega.ramp.10k must reach its advertised scale";
}

TEST(MegaKernelTest, AllocatesAuditCleanAndComputesSameAnswers) {
  for (const MegaKernel &MK : megaKernelTestFamily()) {
    Module M;
    Function &F = MK.Build(M);

    // Golden answer from the virtual-register program.
    Simulator Sim(M);
    MemoryImage GoldenMem(M);
    ExecutionResult Golden = Sim.runVirtual(F, GoldenMem);
    EXPECT_TRUE(std::isfinite(Golden.FloatReturn))
        << MK.Name << ": bounded-combine construction violated";

    AllocatorConfig C;
    C.Audit = true;
    AllocationResult A = allocateRegisters(F, C);
    ASSERT_TRUE(A.Success) << MK.Name;
    EXPECT_EQ(A.Outcome, AllocOutcome::Converged)
        << MK.Name << ": failed the audit";

    MemoryImage Mem(M);
    ExecutionResult R = Sim.runAllocated(F, A, Mem);
    EXPECT_EQ(compareRuns(M, Golden, GoldenMem, R, Mem), "") << MK.Name;
  }
}

} // namespace
