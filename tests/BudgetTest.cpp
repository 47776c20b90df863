//===- tests/BudgetTest.cpp - resource governance and the ladder ----------===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// The resource-governance contract, from the token up through the
// allocator's degradation ladder:
//
//  * the Budget token itself: latched trips, charge/refuse accounting,
//    rearm semantics, cumulative telemetry;
//  * a deadline trip mid-coloring retries under linear scan and then
//    spill-everything — the function always comes back usable
//    (Degraded), audited, with a Status naming the exhausted resource;
//  * a memory budget refuses the interference graphs *before* the
//    bytes exist: their node arrays up front, their edge pairs slab by
//    slab as the build reserves them;
//  * governance off (the default) and governance with generous limits
//    are byte-identical to each other.
//
//===----------------------------------------------------------------------===//

#include "ir/IRPrinter.h"
#include "regalloc/AllocationAudit.h"
#include "regalloc/Allocator.h"
#include "regalloc/BuildGraph.h"
#include "sim/Simulator.h"
#include "support/Budget.h"
#include "support/ThreadPool.h"
#include "workloads/MegaKernel.h"
#include "workloads/RandomProgram.h"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

using namespace ra;

namespace {

//===--------------------------------------------------------------------===//
// The token.
//===--------------------------------------------------------------------===//

TEST(BudgetTest, UngovernedNeverTrips) {
  Budget B;
  EXPECT_FALSE(B.governed());
  for (int I = 0; I < 200; ++I)
    EXPECT_TRUE(B.checkpoint());
  EXPECT_FALSE(B.expired());
  EXPECT_FALSE(B.exhausted());
  // Charges are always granted, but the peak is still tracked so
  // ungoverned runs report memory telemetry too.
  EXPECT_TRUE(B.tryCharge(1234));
  EXPECT_EQ(B.peakBytes(), 1234u);
  B.release(1234);
  EXPECT_EQ(B.currentBytes(), 0u);
  EXPECT_TRUE(B.status().ok());
}

TEST(BudgetTest, DeadlineTripsAndLatches) {
  Budget B;
  B.arm(/*DeadlineSeconds=*/1e-9, /*MemoryBytes=*/0);
  EXPECT_TRUE(B.governed());
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  // The amortized poll reads the clock at most every 64 calls, so
  // within 65 checkpoints the trip must be noticed — and once latched,
  // every later poll answers false without touching the clock.
  bool Tripped = false;
  for (int I = 0; I < 65 && !Tripped; ++I)
    Tripped = !B.checkpoint();
  EXPECT_TRUE(Tripped);
  EXPECT_TRUE(B.exhausted());
  EXPECT_FALSE(B.checkpoint());
  EXPECT_TRUE(B.expired());
  Status S = B.status();
  EXPECT_EQ(S.code(), StatusCode::DeadlineExceeded);
  EXPECT_NE(S.toString().find("deadline"), std::string::npos);
}

TEST(BudgetTest, ExpiredNoticesTripWithoutCounterWrap) {
  Budget B;
  B.arm(1e-9, 0);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  // Phase boundaries use the forced check: one call suffices even
  // though the amortized counter has not wrapped.
  EXPECT_TRUE(B.expired());
  EXPECT_TRUE(B.exhausted());
}

TEST(BudgetTest, MemoryChargeRefuseAndPeak) {
  Budget B;
  B.arm(0, /*MemoryBytes=*/1000);
  EXPECT_TRUE(B.tryCharge(600));
  EXPECT_EQ(B.currentBytes(), 600u);
  EXPECT_EQ(B.peakBytes(), 600u);
  // A refusal charges nothing and latches the token.
  EXPECT_FALSE(B.tryCharge(600));
  EXPECT_EQ(B.currentBytes(), 600u);
  EXPECT_TRUE(B.exhausted());
  EXPECT_FALSE(B.checkpoint());
  Status S = B.status();
  EXPECT_EQ(S.code(), StatusCode::MemoryBudgetExceeded);
  EXPECT_NE(S.toString().find("memory budget"), std::string::npos);
  B.release(600);
  EXPECT_EQ(B.currentBytes(), 0u);
  EXPECT_EQ(B.peakBytes(), 600u); // high-water mark survives release
}

TEST(BudgetTest, RearmClearsLatchKeepsTelemetry) {
  Budget B;
  B.arm(1e-9, 0);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  EXPECT_TRUE(B.expired());
  uint64_t Served = B.checkpoints();
  EXPECT_GT(Served, 0u);
  B.rearm();
  EXPECT_FALSE(B.exhausted());
  // Telemetry is cumulative across rungs: a rearm must not zero it.
  EXPECT_GE(B.checkpoints(), Served);
}

TEST(BudgetTest, ScopedChargeReleasesOnScopeExit) {
  Budget B;
  B.arm(0, 1 << 20);
  {
    ScopedCharge C(&B, 4096);
    EXPECT_TRUE(C.granted());
    EXPECT_EQ(B.currentBytes(), 4096u);
  }
  EXPECT_EQ(B.currentBytes(), 0u);
  // A null governor always grants and never dereferences anything.
  ScopedCharge Free(nullptr, 1ull << 40);
  EXPECT_TRUE(Free.granted());
}

//===--------------------------------------------------------------------===//
// The ladder: every budget trip degrades, never fails.
//===--------------------------------------------------------------------===//

/// One random function, generous enough shape to have real pressure.
Function &buildSubject(Module &M) { return buildRandomProgram(M, 42); }

TEST(AllocatorBudgetTest, SlowPhaseDeadlineDegradesNeverFails) {
  Module M;
  Function &F = buildSubject(M);
  AllocatorConfig C;
  C.Audit = true;
  C.DeadlineSeconds = 0.001;
  C.FaultInject.SlowPhaseMicros = 5000; // every pass top blows the 1ms
  AllocationResult A = allocateRegisters(F, C);
  ASSERT_TRUE(A.Success) << A.Diag.toString();
  EXPECT_EQ(A.Outcome, AllocOutcome::Degraded);
  EXPECT_EQ(A.Diag.code(), StatusCode::DeadlineExceeded)
      << A.Diag.toString();
  EXPECT_TRUE(auditAllocation(F, A).empty());
  EXPECT_GT(A.BudgetCheckpoints, 0u);
}

TEST(AllocatorBudgetTest, GraphMemorySpikeRetriesUnderLinearScan) {
  Module M;
  Function &F = buildSubject(M);
  AllocatorConfig C;
  C.Audit = true;
  C.MemoryBudgetBytes = 64ull << 20; // plenty — until the spike
  C.FaultInject.GraphMemorySpike = true;
  AllocationResult A = allocateRegisters(F, C);
  ASSERT_TRUE(A.Success) << A.Diag.toString();
  EXPECT_EQ(A.Outcome, AllocOutcome::Degraded);
  EXPECT_EQ(A.Diag.code(), StatusCode::MemoryBudgetExceeded)
      << A.Diag.toString();
  // The spike only inflates the coloring estimate; linear scan builds
  // no interference graph, so the first retry rung absorbs the trip.
  EXPECT_NE(A.Diag.toString().find("linear-scan"), std::string::npos)
      << A.Diag.toString();
  EXPECT_TRUE(auditAllocation(F, A).empty());
}

TEST(AllocatorBudgetTest, TinyMemoryBudgetRefusesGraphUpFront) {
  // mini.ramp's ~3000 ranges need ~82 KB of graph node arrays; a 32 KB
  // budget must refuse the build *before* allocating them and still
  // hand back a usable allocation from a cheaper rung.
  Module M;
  const MegaKernel &MK = megaKernelTestFamily()[0];
  Function &F = MK.Build(M);
  AllocatorConfig C;
  C.Audit = true;
  C.MemoryBudgetBytes = 32 << 10;
  ASSERT_GT(InterferenceGraph::estimateBytes(MK.ApproxRanges),
            C.MemoryBudgetBytes);
  AllocationResult A = allocateRegisters(F, C);
  ASSERT_TRUE(A.Success) << A.Diag.toString();
  EXPECT_EQ(A.Outcome, AllocOutcome::Degraded);
  EXPECT_EQ(A.Diag.code(), StatusCode::MemoryBudgetExceeded)
      << A.Diag.toString();
  EXPECT_TRUE(auditAllocation(F, A).empty());
}

TEST(AllocatorBudgetTest, SmallMemoryBudgetRefusesEdgePairsMidBuild) {
  // 256 KB admits mini.ramp's node arrays, but not its edge pairs:
  // each range meets ~16-32 others, so the walk records ~48k pairs at
  // 16 bytes each. The build must ask for each
  // pair slab before reserving it, and the refusal must take the same
  // ladder as an up-front one.
  Module M;
  const MegaKernel &MK = megaKernelTestFamily()[0];
  Function &F = MK.Build(M);
  AllocatorConfig C;
  C.Audit = true;
  C.MemoryBudgetBytes = 256 << 10;
  ASSERT_LT(2 * InterferenceGraph::estimateBytes(MK.ApproxRanges),
            C.MemoryBudgetBytes);
  AllocationResult A = allocateRegisters(F, C);
  ASSERT_TRUE(A.Success) << A.Diag.toString();
  EXPECT_EQ(A.Outcome, AllocOutcome::Degraded);
  EXPECT_EQ(A.Diag.code(), StatusCode::MemoryBudgetExceeded)
      << A.Diag.toString();
  EXPECT_NE(A.Diag.toString().find("linear-scan"), std::string::npos)
      << A.Diag.toString();
  EXPECT_TRUE(auditAllocation(F, A).empty());
}

TEST(AllocatorBudgetTest, GovernedBuildChargesEdgePairsAndReleasesThem) {
  // A token without limits still records the peak: the build charges
  // at least PairBytes per recorded pair (there are at least as many
  // pairs as edges) and releases all of it when it returns.
  Module M;
  Function &F = megaKernelTestFamily()[0].Build(M);
  CFG G = CFG::compute(F);
  Liveness LV = Liveness::compute(F, G);
  Budget Gov;
  auto Graphs = buildInterferenceGraphs(F, LV, &Gov);
  uint64_t Pairs = 0;
  for (const ClassGraph &CG : Graphs)
    Pairs += CG.Graph.numEdges();
  EXPECT_GE(Gov.peakBytes(), Pairs * InterferenceGraph::PairBytes);
  EXPECT_EQ(Gov.currentBytes(), 0u);
  EXPECT_FALSE(Gov.exhausted());
}

TEST(AllocatorBudgetTest, LinearScanDeadlineFallsToSpillEverything) {
  Module M;
  Function &F = buildSubject(M);
  AllocatorConfig C;
  C.Audit = true;
  C.B = Backend::LinearScan;
  C.DeadlineSeconds = 0.001;
  C.FaultInject.SlowPhaseMicros = 5000;
  AllocationResult A = allocateRegisters(F, C);
  ASSERT_TRUE(A.Success) << A.Diag.toString();
  EXPECT_EQ(A.Outcome, AllocOutcome::Degraded);
  EXPECT_EQ(A.Diag.code(), StatusCode::DeadlineExceeded)
      << A.Diag.toString();
  // Linear scan was already the primary, so the only rung left is the
  // audited spill-everything bottom.
  EXPECT_NE(A.Diag.toString().find("spill-everything"), std::string::npos)
      << A.Diag.toString();
  EXPECT_TRUE(auditAllocation(F, A).empty());
}

TEST(AllocatorBudgetTest, GenerousBudgetsAreByteIdenticalToUngoverned) {
  Module M1, M2;
  Function &F1 = buildSubject(M1);
  Function &F2 = buildSubject(M2);

  AllocatorConfig Plain;
  AllocationResult A1 = allocateRegisters(F1, Plain);

  AllocatorConfig Governed = Plain;
  Governed.DeadlineSeconds = 3600;
  Governed.MemoryBudgetBytes = 1ull << 40;
  AllocationResult A2 = allocateRegisters(F2, Governed);

  ASSERT_TRUE(A1.Success && A2.Success);
  EXPECT_EQ(A1.Outcome, AllocOutcome::Converged);
  EXPECT_EQ(A2.Outcome, AllocOutcome::Converged);
  EXPECT_EQ(A1.ColorOf, A2.ColorOf);
  EXPECT_EQ(printFunction(M1, F1), printFunction(M2, F2));
  // Telemetry is the one permitted difference: absent when ungoverned,
  // populated when governed.
  EXPECT_EQ(A1.BudgetCheckpoints, 0u);
  EXPECT_GT(A2.BudgetCheckpoints, 0u);
  EXPECT_GT(A2.BudgetPeakBytes, 0u);
}

TEST(AllocatorBudgetTest, DegradedRunStillMatchesGoldenSimulation) {
  // A budget-degraded allocation is still a *correct* allocation: the
  // allocated run must reproduce the pre-allocation golden run.
  Module M;
  Function &F = buildSubject(M);
  Simulator Sim(M);
  MemoryImage GoldenMem(M);
  ExecutionResult Golden = Sim.runVirtual(F, GoldenMem);

  AllocatorConfig C;
  C.Audit = true;
  C.DeadlineSeconds = 0.001;
  C.FaultInject.SlowPhaseMicros = 5000;
  AllocationResult A = allocateRegisters(F, C);
  ASSERT_TRUE(A.Success) << A.Diag.toString();
  ASSERT_EQ(A.Outcome, AllocOutcome::Degraded);

  MemoryImage Mem(M);
  ExecutionResult R = Sim.runAllocated(F, A, Mem);
  EXPECT_EQ(compareRuns(M, Golden, GoldenMem, R, Mem), "");
}

TEST(AllocatorBudgetTest, ModuleUnderTinyBudgetsNeverFails) {
  // The acceptance bar: tiny budgets over a whole module produce only
  // Converged or Degraded functions — zero Failed — with every
  // Degraded diagnostic naming the exhausted resource.
  Module M;
  for (uint64_t S = 0; S < 6; ++S)
    buildRandomProgram(M, 9000 + S);
  AllocatorConfig C;
  C.Audit = true;
  C.DeadlineSeconds = 1e-5;
  ThreadPool Pool(2);
  ModuleAllocationResult R = allocateModule(M, C, &Pool);
  ASSERT_EQ(R.Functions.size(), M.numFunctions());
  for (unsigned I = 0; I < M.numFunctions(); ++I) {
    const AllocationResult &A = R.Functions[I];
    ASSERT_TRUE(A.Success)
        << "@" << M.function(I).name() << ": " << A.Diag.toString();
    EXPECT_NE(A.Outcome, AllocOutcome::Failed);
    if (A.Outcome == AllocOutcome::Degraded) {
      EXPECT_TRUE(A.Diag.code() == StatusCode::DeadlineExceeded ||
                  A.Diag.code() == StatusCode::MemoryBudgetExceeded)
          << A.Diag.toString();
    }
    EXPECT_TRUE(auditAllocation(M.function(I), A).empty());
  }
}

//===--------------------------------------------------------------------===//
// Capacity estimation.
//===--------------------------------------------------------------------===//

TEST(CapacityTest, EstimateBytesScalesLinearly) {
  EXPECT_EQ(InterferenceGraph::estimateBytes(0), 0u);
  // Node arrays only: metadata, row offsets, finalize's row starts and
  // stamps. 50k nodes take ~1.3 MB; edge pairs are charged by the build.
  const uint64_t PerNode = InterferenceGraph::estimateBytes(1);
  EXPECT_EQ(PerNode, sizeof(IGNode) + 3 * sizeof(uint32_t));
  EXPECT_EQ(InterferenceGraph::estimateBytes(50000), 50000 * PerNode);
  EXPECT_GT(InterferenceGraph::estimateBytes(50000), 1ull << 20);
  EXPECT_LT(InterferenceGraph::estimateBytes(50000), 2ull << 20);
  EXPECT_EQ(InterferenceGraph::estimateBytes(2000),
            2 * InterferenceGraph::estimateBytes(1000));
}

} // namespace
