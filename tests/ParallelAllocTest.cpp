//===- tests/ParallelAllocTest.cpp - pool, heap picker, CSR, module -------===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// The parallel-allocation contract: any worker count produces output
// bit-identical to serial allocation, and the O(log n) heap-based spill
// candidate selection picks the exact node sequence the old O(n) linear
// rescan picked.
//
//===----------------------------------------------------------------------===//

#include "analysis/CFG.h"
#include "analysis/Dominators.h"
#include "analysis/Liveness.h"
#include "analysis/LoopInfo.h"
#include "analysis/Renumber.h"
#include "ir/IRPrinter.h"
#include "opt/Optimizer.h"
#include "regalloc/Allocator.h"
#include "regalloc/BuildGraph.h"
#include "regalloc/Coalesce.h"
#include "regalloc/Coloring.h"
#include "regalloc/DegreeBuckets.h"
#include "regalloc/SpillCost.h"
#include "regalloc/SpillHeap.h"
#include "support/Rng.h"
#include "support/ThreadPool.h"
#include "support/Trace.h"
#include "workloads/MegaKernel.h"
#include "workloads/RandomProgram.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <string>

using namespace ra;

namespace {

//===--------------------------------------------------------------------===//
// ThreadPool.
//===--------------------------------------------------------------------===//

TEST(ThreadPoolTest, RunsEveryTaskAndReturnsResults) {
  ThreadPool Pool(4);
  EXPECT_EQ(Pool.numThreads(), 4u);
  std::vector<std::future<int>> Futures;
  for (int I = 0; I < 100; ++I)
    Futures.push_back(Pool.submit([I] { return I * I; }));
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(Futures[I].get(), I * I);
}

TEST(ThreadPoolTest, DrainsQueueOnDestruction) {
  std::atomic<int> Ran{0};
  {
    ThreadPool Pool(2);
    for (int I = 0; I < 64; ++I)
      Pool.submit([&Ran] { ++Ran; });
  } // destructor must run all 64 before joining
  EXPECT_EQ(Ran.load(), 64);
}

TEST(ThreadPoolTest, ResolveJobs) {
  EXPECT_EQ(ThreadPool::resolveJobs(3), 3u);
  EXPECT_GE(ThreadPool::resolveJobs(0), 1u); // hardware, at least one
}

TEST(ThreadPoolTest, TaskExceptionReachesFutureNotWorker) {
  ThreadPool Pool(2);
  auto Boom = Pool.submit([]() -> int {
    throw std::runtime_error("task exploded");
  });
  // The exception must surface from get() on the collecting thread...
  EXPECT_THROW(
      {
        try {
          Boom.get();
        } catch (const std::runtime_error &E) {
          EXPECT_STREQ(E.what(), "task exploded");
          throw;
        }
      },
      std::runtime_error);
  // ...and the worker that ran it must still be alive for later tasks.
  std::vector<std::future<int>> After;
  for (int I = 0; I < 16; ++I)
    After.push_back(Pool.submit([I] { return I + 1; }));
  for (int I = 0; I < 16; ++I)
    EXPECT_EQ(After[I].get(), I + 1);
}

//===--------------------------------------------------------------------===//
// CSR adjacency layout.
//===--------------------------------------------------------------------===//

TEST(InterferenceGraphCSRTest, NeighborsFollowInsertionOrder) {
  InterferenceGraph G(5);
  G.addEdge(0, 3);
  G.addEdge(0, 1);
  G.addEdge(2, 0);
  G.addEdge(4, 2);
  G.finalize();
  ASSERT_EQ(G.degree(0), 3u);
  std::vector<uint32_t> N0(G.neighbors(0).begin(), G.neighbors(0).end());
  // Exactly the order the old per-node vectors produced.
  EXPECT_EQ(N0, (std::vector<uint32_t>{3, 1, 2}));
  std::vector<uint32_t> N2(G.neighbors(2).begin(), G.neighbors(2).end());
  EXPECT_EQ(N2, (std::vector<uint32_t>{0, 4}));
  EXPECT_EQ(G.numEdges(), 4u);
}

TEST(InterferenceGraphCSRTest, AddEdgeAfterFinalizeRebuilds) {
  InterferenceGraph G(4);
  G.addEdge(0, 1);
  G.finalize();
  EXPECT_EQ(G.neighbors(0).size(), 1u);
  G.addEdge(0, 2);
  G.addEdge(1, 0); // duplicate of a packed edge, the other orientation
  G.addEdge(3, 3); // self edge
  G.finalize();
  EXPECT_EQ(G.numEdges(), 2u);
  EXPECT_EQ(G.degree(0), 2u);
  EXPECT_EQ(G.degree(1), 1u);
  EXPECT_EQ(G.degree(3), 0u);
  std::vector<uint32_t> N0(G.neighbors(0).begin(), G.neighbors(0).end());
  EXPECT_EQ(N0, (std::vector<uint32_t>{1, 2}));
  std::vector<uint32_t> N1(G.neighbors(1).begin(), G.neighbors(1).end());
  EXPECT_EQ(N1, (std::vector<uint32_t>{0}));
}

//===--------------------------------------------------------------------===//
// Heap-based spill candidate selection vs the linear rescan.
//===--------------------------------------------------------------------===//

InterferenceGraph makeRandomGraph(unsigned NumNodes, double AvgDegree,
                                  uint64_t Seed, double NoSpillP = 0.0) {
  InterferenceGraph G(NumNodes);
  Rng R(Seed);
  uint64_t Edges = uint64_t(NumNodes * AvgDegree / 2);
  for (uint64_t E = 0; E < Edges; ++E)
    G.addEdge(R.nextBelow(NumNodes), R.nextBelow(NumNodes));
  for (unsigned N = 0; N < NumNodes; ++N) {
    // Coarse costs make ratio ties common, exercising the id tie-break.
    G.node(N).SpillCost = double(1 + R.nextBelow(8));
    G.node(N).NoSpill = R.nextBool(NoSpillP);
  }
  G.finalize();
  return G;
}

/// The original O(n) rescan, kept verbatim as the reference oracle.
uint32_t pickSpillCandidateLinear(const InterferenceGraph &G,
                                  const DegreeBuckets &Buckets) {
  uint32_t Best = DegreeBuckets::None;
  double BestRatio = 0;
  bool BestNoSpill = true;
  for (uint32_t N = 0, E = G.numNodes(); N != E; ++N) {
    if (Buckets.isRemoved(N))
      continue;
    const IGNode &Node = G.node(N);
    uint32_t Deg = Buckets.degree(N);
    double Ratio = Node.NoSpill ? InterferenceGraph::InfiniteCost
                                : Node.SpillCost / double(Deg);
    bool Better;
    if (Best == DegreeBuckets::None)
      Better = true;
    else if (Node.NoSpill != BestNoSpill)
      Better = !Node.NoSpill;
    else
      Better = Ratio < BestRatio;
    if (Better) {
      Best = N;
      BestRatio = Ratio;
      BestNoSpill = Node.NoSpill;
    }
  }
  return Best;
}

/// Runs the simplify loop with both pickers in lockstep and returns the
/// stuck-step node sequence chosen by the heap (asserting each choice
/// equals the linear oracle's).
std::vector<uint32_t> runLockstep(const InterferenceGraph &G, unsigned K) {
  DegreeBuckets Buckets;
  {
    std::vector<uint32_t> Degrees(G.numNodes());
    for (uint32_t I = 0; I < G.numNodes(); ++I)
      Degrees[I] = G.degree(I);
    Buckets.init(Degrees);
  }
  SpillCandidateHeap Heap;
  std::vector<uint32_t> Picks;

  uint32_t Hint = 0;
  while (Buckets.numLive() != 0) {
    uint32_t D = Buckets.lowestNonEmpty(Hint);
    uint32_t Chosen;
    if (D < K) {
      Chosen = Buckets.head(D);
    } else {
      if (!Heap.active())
        Heap.build(G, Buckets);
      uint32_t FromHeap = Heap.pick(G, Buckets);
      uint32_t FromScan = pickSpillCandidateLinear(G, Buckets);
      EXPECT_EQ(FromHeap, FromScan)
          << "divergence after " << Picks.size() << " stuck steps";
      Chosen = FromHeap;
      Picks.push_back(Chosen);
    }
    Buckets.remove(Chosen);
    for (uint32_t M : G.neighbors(Chosen))
      if (!Buckets.isRemoved(M))
        Buckets.decrementDegree(M);
    Hint = D == 0 ? 0 : D - 1;
  }
  return Picks;
}

TEST(SpillHeapTest, MatchesLinearScanOnRandomGraphs) {
  for (uint64_t Seed : {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u}) {
    InterferenceGraph G =
        makeRandomGraph(400, 10.0 + double(Seed), 90 + Seed);
    std::vector<uint32_t> Picks = runLockstep(G, 4);
    EXPECT_FALSE(Picks.empty()) << "seed " << Seed
                                << ": graph never got stuck; weak test";
  }
}

TEST(SpillHeapTest, MatchesLinearScanWithNoSpillNodes) {
  for (uint64_t Seed : {11u, 12u, 13u, 14u}) {
    // Enough NoSpill nodes that the stuck region must rank them last.
    InterferenceGraph G =
        makeRandomGraph(300, 12.0, 700 + Seed, /*NoSpillP=*/0.3);
    runLockstep(G, 3);
  }
}

/// Pass 1's class graphs for \p F, built the way runPasses builds them:
/// renumber, coalesce, renumber again when a copy merged, liveness,
/// Build, loop-weighted spill costs.
std::array<ClassGraph, NumRegClasses> passOneGraphs(Function &F) {
  CFG G = CFG::compute(F);
  renumberLiveRanges(F, G);
  if (coalesceAll(F, G).CopiesRemoved != 0)
    renumberLiveRanges(F, G);
  Liveness LV = Liveness::compute(F, G);
  auto Graphs = buildInterferenceGraphs(F, LV);
  Dominators Doms = Dominators::compute(F, G);
  LoopInfo Loops = LoopInfo::compute(F, G, Doms);
  std::vector<double> Costs = computeSpillCosts(F, Loops, CostModel::rtpc());
  for (ClassGraph &CG : Graphs)
    setNodeCosts(F, Costs, CG);
  return Graphs;
}

TEST(SpillHeapTest, MatchesLinearScanOnFig5Graphs) {
  // Pass-1 graphs of real routines, with loop-weighted costs.
  size_t StuckPicks = 0;
  for (const Workload &W : allWorkloads())
    for (unsigned K : {6u, 4u}) {
      Module M;
      Function &F = W.Build(M);
      optimizeFunction(F);
      for (const ClassGraph &CG : passOneGraphs(F)) {
        SCOPED_TRACE(W.Routine + " k=" + std::to_string(K));
        StuckPicks += runLockstep(CG.Graph, K).size();
      }
    }
  EXPECT_GT(StuckPicks, 100u) << "fig5 barely got stuck; weak test";
}

TEST(SpillHeapTest, MatchesLinearScanOnMegaWide) {
  // The largest stuck region of the mega family.
  const MegaKernel *Wide = nullptr;
  for (const MegaKernel &MK : megaKernelFamily())
    if (MK.Name == "mega.wide.12k")
      Wide = &MK;
  ASSERT_NE(Wide, nullptr);
  Module M;
  Function &F = Wide->Build(M);
  optimizeFunction(F);
  size_t StuckPicks = 0;
  for (const ClassGraph &CG : passOneGraphs(F))
    StuckPicks += runLockstep(CG.Graph, 16).size();
  EXPECT_GT(StuckPicks, 100u) << "mega.wide.12k barely got stuck";
}

/// A graph from an explicit edge list; node I costs \p Costs[I], and a
/// negative cost marks it NoSpill.
InterferenceGraph makeGraph(const std::vector<double> &Costs,
                            const std::vector<std::pair<int, int>> &Edges) {
  InterferenceGraph G(Costs.size());
  for (auto [A, B] : Edges)
    G.addEdge(A, B);
  for (size_t N = 0; N < Costs.size(); ++N) {
    G.node(N).NoSpill = Costs[N] < 0;
    G.node(N).SpillCost = Costs[N] < 0 ? 0 : Costs[N];
  }
  G.finalize();
  return G;
}

TEST(SpillHeapTest, KeysTieAcrossDegrees) {
  // X costs 2 at build degree 5, Y costs 1 at degree 2, Z costs 0; two
  // NoSpill nodes close a triangle with X and Z, and fillers cost 100.
  // At k=2 every node is stuck from the start. Z goes first (ratio 0).
  // That leaves X at degree 4, so X's true key 2/4 ties Y's 1/2 and the
  // lower id must win; a heap that kept X's stale 2/5 would pick X
  // regardless of the ids.
  enum { Z = 2, N1, N2, F5, F6, F7, F8, F9 };
  for (bool XFirst : {true, false}) {
    const int X = XFirst ? 0 : 1, Y = XFirst ? 1 : 0;
    std::vector<double> Costs(10, 100);
    Costs[X] = 2;
    Costs[Y] = 1;
    Costs[Z] = 0;
    Costs[N1] = Costs[N2] = -1; // NoSpill
    InterferenceGraph G = makeGraph(
        Costs, {{X, Z}, {X, N1}, {X, N2}, {X, F5}, {X, F8}, {Z, N1},
                {Z, N2}, {N1, N2}, {F5, F6}, {F5, F9}, {Y, F6}, {Y, F7},
                {F6, F7}, {F8, F9}});
    std::vector<uint32_t> Picks = runLockstep(G, 2);
    std::vector<uint32_t> Expected =
        XFirst ? std::vector<uint32_t>{Z, uint32_t(X), uint32_t(Y)}
               : std::vector<uint32_t>{Z, uint32_t(Y), uint32_t(X)};
    EXPECT_EQ(Picks, Expected) << (XFirst ? "X" : "Y") << " has id 0";
  }
}

TEST(SpillHeapTest, StaleTopIsNotTheMinimum) {
  // X (id 0) costs 2 at build degree 4 and Y (id 1) costs 1 at degree
  // 2: their build keys tie at 1/2 and X wins on id. Removing the
  // zero-cost Z first leaves X at degree 3, so Y is the true minimum;
  // returning X's stale entry would pick X.
  enum { X, Y, Z, N1, N2, F5, F6, F7 };
  std::vector<double> Costs = {2, 1, 0, -1, -1, 100, 100, 100};
  InterferenceGraph G = makeGraph(
      Costs, {{X, Z}, {X, N1}, {X, N2}, {X, F5}, {Z, N1}, {Z, N2},
              {N1, N2}, {F5, F6}, {Y, F6}, {Y, F7}, {F6, F7}});
  EXPECT_EQ(runLockstep(G, 2), (std::vector<uint32_t>{Z, Y, X}));
}

TEST(SpillHeapTest, ColorGraphUnchangedByHeapPicker) {
  // End-to-end: Chaitin and Briggs over the same stuck-heavy graph
  // still satisfy the paper's subset guarantee, and colorings validate.
  InterferenceGraph G = makeRandomGraph(600, 14.0, 42);
  ColoringResult Chaitin = colorGraph(G, 6, Heuristic::Chaitin);
  ColoringResult Briggs = colorGraph(G, 6, Heuristic::Briggs);
  EXPECT_TRUE(isValidColoring(G, 6, Chaitin));
  EXPECT_TRUE(isValidColoring(G, 6, Briggs));
  EXPECT_LE(Briggs.Spilled.size(), Chaitin.Spilled.size());
  std::set<uint32_t> ChaitinSet(Chaitin.Spilled.begin(),
                                Chaitin.Spilled.end());
  for (uint32_t N : Briggs.Spilled)
    EXPECT_TRUE(ChaitinSet.count(N)) << "node " << N;
}

//===--------------------------------------------------------------------===//
// allocateModule: parallel output is bit-identical to serial.
//===--------------------------------------------------------------------===//

/// Builds the determinism workload: a module of random functions plus
/// real routines, deterministic for a fixed \p Salt.
void buildWorkloadModule(Module &M, uint64_t Salt) {
  for (uint64_t I = 0; I < 6; ++I)
    buildRandomProgram(M, Salt + I);
  buildDAXPY(M);
  buildDDOT(M);
  buildQuicksort(M, 1000);
}

struct ModuleSnapshot {
  std::vector<std::string> Printed;
  std::vector<std::vector<int32_t>> Colors;
  std::vector<std::vector<std::string>> SpilledNames;
  bool Success = true;

  bool operator==(const ModuleSnapshot &O) const {
    return Printed == O.Printed && Colors == O.Colors &&
           SpilledNames == O.SpilledNames && Success == O.Success;
  }
};

ModuleSnapshot allocateSnapshot(uint64_t Salt, const AllocatorConfig &C) {
  Module M;
  buildWorkloadModule(M, Salt);
  ModuleAllocationResult R = allocateModule(M, C);
  ModuleSnapshot S;
  S.Success = R.allSucceeded();
  for (unsigned I = 0; I < M.numFunctions(); ++I) {
    S.Printed.push_back(printFunction(M, M.function(I)));
    S.Colors.push_back(R.Functions[I].ColorOf);
    std::vector<std::string> Names;
    for (const PassRecord &P : R.Functions[I].Stats.Passes)
      Names.insert(Names.end(), P.SpilledNames.begin(),
                   P.SpilledNames.end());
    S.SpilledNames.push_back(std::move(Names));
  }
  return S;
}

TEST(AllocateModuleTest, ParallelIsBitIdenticalToSerial) {
  AllocatorConfig C;
  C.Machine = MachineInfo(8, 6); // tight enough to force spills
  C.Jobs = 1;
  ModuleSnapshot Serial = allocateSnapshot(5000, C);
  ASSERT_TRUE(Serial.Success);
  bool SawSpill = false;
  for (const auto &Names : Serial.SpilledNames)
    SawSpill |= !Names.empty();
  EXPECT_TRUE(SawSpill) << "workload spilled nothing; weak test";

  for (unsigned Jobs : {2u, 4u, 7u}) {
    C.Jobs = Jobs;
    ModuleSnapshot Parallel = allocateSnapshot(5000, C);
    EXPECT_TRUE(Serial == Parallel) << "jobs=" << Jobs;
  }
}

TEST(AllocateModuleTest, MatchesPerFunctionAllocateRegisters) {
  AllocatorConfig C;
  C.Machine = MachineInfo(7, 5);
  C.Jobs = 3;
  ModuleSnapshot Pooled = allocateSnapshot(9000, C);

  Module M;
  buildWorkloadModule(M, 9000);
  for (unsigned I = 0; I < M.numFunctions(); ++I) {
    AllocationResult A = allocateRegisters(M.function(I), C);
    EXPECT_EQ(A.Success, true) << "function " << I;
    EXPECT_EQ(Pooled.Colors[I], A.ColorOf) << "function " << I;
    EXPECT_EQ(Pooled.Printed[I], printFunction(M, M.function(I)))
        << "function " << I;
  }
}

TEST(AllocateModuleTest, ParallelClassColoringIsIdentical) {
  // mini.rand's Int and Float graphs both cross the class-helper
  // threshold, so Float colors on the helper thread every pass (the run
  // TSan watches; no fig5 routine is big enough in both classes). Its
  // phases trace under "/flt-helper", and pass 1 must spill exactly
  // what the two classes spill when colored one after the other here.
  const MegaKernel &Rand = megaKernelTestFamily()[2];
  ASSERT_EQ(Rand.Name, "mini.rand");
  Module M1, M2;
  Function &F1 = Rand.Build(M1);
  Function &F2 = Rand.Build(M2);
  AllocatorConfig C;
  C.Audit = true;
  trace::beginSession();
  AllocationResult A = allocateRegisters(F1, C);
  trace::SessionLog Log = trace::endSession();
  ASSERT_EQ(A.Outcome, AllocOutcome::Converged) << A.Diag.toString();

  unsigned HelperSelects = 0;
  for (const trace::Event &E : Log.Events)
    HelperSelects += E.Ctx == "@" + F1.name() + "/flt-helper" &&
                     std::string(E.Name) == "Select";
  EXPECT_EQ(HelperSelects, A.Stats.numPasses())
      << "the Float class did not color on the helper thread every pass";

  std::vector<std::string> Serial;
  for (const ClassGraph &CG : passOneGraphs(F2)) {
    ColoringResult R =
        colorGraph(CG.Graph, C.Machine.numRegs(CG.Class), C.H);
    for (uint32_t Node : R.Spilled)
      Serial.push_back(F2.vreg(CG.NodeToVReg[Node]).Name);
  }
  ASSERT_FALSE(Serial.empty()) << "mini.rand must spill in pass 1";
  EXPECT_EQ(A.Stats.Passes[0].SpilledNames, Serial);
}

TEST(AllocateModuleTest, WorkerExceptionFailsOnlyThatFunction) {
  // A function whose allocation throws must come back as one Failed
  // result with a worker-error diagnostic; every other function of the
  // module still allocates, under both the serial and the pooled path.
  for (unsigned Jobs : {1u, 4u}) {
    Module M;
    buildWorkloadModule(M, 5000);
    ASSERT_GE(M.numFunctions(), 2u);
    const std::string Victim = M.function(1).name();

    AllocatorConfig C;
    C.Jobs = Jobs;
    C.FaultInject.ThrowInFunction = Victim;
    ModuleAllocationResult R = allocateModule(M, C);
    ASSERT_EQ(R.Functions.size(), M.numFunctions());
    EXPECT_FALSE(R.allSucceeded());

    for (unsigned I = 0; I < M.numFunctions(); ++I) {
      const AllocationResult &A = R.Functions[I];
      if (M.function(I).name() == Victim) {
        EXPECT_FALSE(A.Success) << "jobs=" << Jobs;
        EXPECT_EQ(A.Outcome, AllocOutcome::Failed);
        EXPECT_EQ(A.Diag.code(), StatusCode::WorkerError);
        EXPECT_NE(A.Diag.toString().find(Victim), std::string::npos)
            << A.Diag.toString();
      } else {
        EXPECT_TRUE(A.Success)
            << "jobs=" << Jobs << " @" << M.function(I).name() << ": "
            << A.Diag.toString();
      }
    }
  }
}

TEST(AllocateModuleTest, WorkerExceptionDoesNotPoisonSiblingBudgets) {
  // The hardest combination: pool workers, per-function budgets, and one function that throws mid-allocation.
  // The thrown function must come back Failed/WorkerError; every
  // sibling must still produce a usable (Converged or Degraded)
  // allocation with its *own* budget telemetry — a worker's death must
  // not leak pool threads or latch a sibling's budget token. Running
  // the whole thing twice in one process proves the pool survives.
  for (int Round = 0; Round < 2; ++Round) {
    Module M;
    buildWorkloadModule(M, 7000);
    ASSERT_GE(M.numFunctions(), 3u);
    const std::string Victim = M.function(2).name();

    AllocatorConfig C;
    C.Jobs = 4;
    C.DeadlineSeconds = 30;                 // generous: must not trip
    C.MemoryBudgetBytes = 1ull << 30;
    C.FaultInject.ThrowInFunction = Victim;
    ModuleAllocationResult R = allocateModule(M, C);
    ASSERT_EQ(R.Functions.size(), M.numFunctions());

    for (unsigned I = 0; I < M.numFunctions(); ++I) {
      const AllocationResult &A = R.Functions[I];
      if (M.function(I).name() == Victim) {
        EXPECT_FALSE(A.Success) << "round " << Round;
        EXPECT_EQ(A.Outcome, AllocOutcome::Failed);
        EXPECT_EQ(A.Diag.code(), StatusCode::WorkerError);
      } else {
        EXPECT_TRUE(A.Success)
            << "round " << Round << " @" << M.function(I).name() << ": "
            << A.Diag.toString();
        EXPECT_EQ(A.Outcome, AllocOutcome::Converged)
            << "round " << Round << " @" << M.function(I).name()
            << ": a sibling's budget latched: " << A.Diag.toString();
        // Each sibling carries its own token's telemetry: the
        // governed pipeline polled it at least once.
        EXPECT_GT(A.BudgetCheckpoints, 0u)
            << "round " << Round << " @" << M.function(I).name();
      }
    }
  }
}

} // namespace
