//===- tests/LinearScanTest.cpp - linear-scan backend tests ---------------===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// End-to-end and unit coverage for the linear-scan backend: the walker's
// eviction decisions, the full driver over the workload suite and the
// regression corpus (audited and differentially simulated against the
// virtual golden run), cross-backend agreement with graph coloring,
// determinism, the fault-injection/degradation ladder, and the backend
// naming/parsing helpers the tools build on.
//
//===----------------------------------------------------------------------===//

#include "Printers.h"

#include "analysis/CFG.h"
#include "analysis/InstrNumbering.h"
#include "analysis/Liveness.h"
#include "ir/IRBuilder.h"
#include "ir/IRParser.h"
#include "ir/Verifier.h"
#include "linearscan/LinearScan.h"
#include "linearscan/LiveInterval.h"
#include "opt/Optimizer.h"
#include "regalloc/AllocationAudit.h"
#include "regalloc/Allocator.h"
#include "regalloc/InterferenceGraph.h"
#include "sim/Simulator.h"
#include "workloads/RandomProgram.h"
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

AllocatorConfig linearScanConfig(unsigned IntK = 16, unsigned FltK = 8) {
  AllocatorConfig C;
  C.B = Backend::LinearScan;
  C.Machine = MachineInfo(IntK, FltK);
  C.MaxPasses = 64; // small files need headroom, as in the fuzzer
  return C;
}

//===--------------------------------------------------------------------===//
// Walker unit tests (scanIntervals directly).
//===--------------------------------------------------------------------===//

/// Builds a = 1; b = 2; c = a + b; ret c and returns the scan result for
/// a one-register integer file with the given costs for a and b. With
/// K = 1 the walker must keep exactly one of a/b in the register, so the
/// decision exposes the eviction heuristic directly.
ScanResult scanStraightLine(double CostA, double CostB, VRegId &A,
                            VRegId &B2, VRegId &C) {
  Module M;
  Function &F = M.newFunction("f");
  IRBuilder B(M, F);
  B.setInsertPoint(B.newBlock("entry"));
  A = B.movI(1);
  B2 = B.movI(2);
  C = B.add(A, B2);
  B.ret(C);

  CFG G = CFG::compute(F);
  Liveness LV = Liveness::compute(F, G);
  InstrNumbering Num = InstrNumbering::compute(F);
  LiveIntervals LI = LiveIntervals::compute(F, LV, Num);
  std::vector<double> Costs(F.numVRegs(), 0);
  Costs[A] = CostA;
  Costs[B2] = CostB;
  LI.setCosts(Costs);
  return scanIntervals(LI, MachineInfo(1, 1));
}

TEST(LinearScanWalkerTest, EvictsTheCheaperInterval) {
  VRegId A, B, C;
  // a is cheap: when b arrives, a is evicted (spilled) in its favor.
  ScanResult S1 = scanStraightLine(1.0, 100.0, A, B, C);
  ASSERT_EQ(S1.Spilled.size(), 1u);
  EXPECT_EQ(S1.Spilled[0], A);
  EXPECT_EQ(S1.ColorOf[B], 0);
  EXPECT_EQ(S1.ColorOf[C], 0) << "c starts after b ends and reuses r0";

  // Costs reversed: now b is the cheap one and spills instead.
  ScanResult S2 = scanStraightLine(100.0, 1.0, A, B, C);
  ASSERT_EQ(S2.Spilled.size(), 1u);
  EXPECT_EQ(S2.Spilled[0], B);
  EXPECT_EQ(S2.ColorOf[A], 0);
}

TEST(LinearScanWalkerTest, DisjointLifetimesShareOneRegister) {
  // a dies as c is born (dying use vs same-instruction def): K = 1
  // suffices for c even though three values exist.
  VRegId A, B, C;
  ScanResult S = scanStraightLine(1.0, 100.0, A, B, C);
  EXPECT_EQ(S.LiveRanges, 3u);
  EXPECT_GE(S.WalkSeconds, 0.0);
  EXPECT_FALSE(S.success()) << "K=1 cannot hold a and b together";
}

/// Straight-line function where protected (infinite-cost) h0 and h1
/// hold both registers of a K=2 file with a lifetime hole in the
/// middle, and protected c arrives inside the hole-free region
/// overlapping both. \p CLastStore picks how long c lives: 3 stores
/// keep c narrower than the holders, 4 make its extent exactly match
/// theirs. Every register is then held by a protected interval when c
/// is processed, so the walk must go through breakProtectedDeadlock.
ScanResult scanProtectedDeadlock(unsigned CStores, VRegId &H0, VRegId &H1,
                                 VRegId &C) {
  Module M;
  uint32_t Arr = M.newArray("a", 64, RegClass::Int);
  Function &F = M.newFunction("f");
  IRBuilder B(M, F);
  B.setInsertPoint(B.newBlock("entry"));
  H0 = B.movI(1);            // h0 segment 1: [1, 7)
  H1 = B.movI(2);            // h1 segment 1: [3, 9)
  C = B.movI(3);             // c: [5, 19) or [5, 25)
  B.store(Arr, H0, H0);      // read slot 6 — h0's hole begins
  B.store(Arr, H1, H1);      // read slot 8 — h1's hole begins
  B.store(Arr, C, C);
  B.store(Arr, C, C);
  B.movI(4, H0);             // h0 segment 2: [15, 21)
  B.movI(5, H1);             // h1 segment 2: [17, 23)
  B.store(Arr, C, C);        // read slot 18
  B.store(Arr, H0, H0);      // read slot 20
  B.store(Arr, H1, H1);      // read slot 22
  if (CStores == 4)
    B.store(Arr, C, C);      // read slot 24 — c extent grows to 20
  B.ret();

  CFG G = CFG::compute(F);
  Liveness LV = Liveness::compute(F, G);
  InstrNumbering Num = InstrNumbering::compute(F);
  LiveIntervals LI = LiveIntervals::compute(F, LV, Num);
  // All three are protected; the holders' holes give them a lower
  // spill-cost density than solid c, so c loses the eviction
  // comparison and lands in the deadlock breaker.
  std::vector<double> Costs(F.numVRegs(),
                            InterferenceGraph::InfiniteCost);
  LI.setCosts(Costs);

  // The scenario the helper promises: both holders span the same
  // 20-slot extent with a hole, c is live across both.
  EXPECT_EQ(LI.interval(H0).Segments.size(), 2u);
  EXPECT_EQ(LI.interval(H1).Segments.size(), 2u);
  EXPECT_EQ(LI.interval(H0).stop() - LI.interval(H0).start(), 20u);
  EXPECT_EQ(LI.interval(H1).stop() - LI.interval(H1).start(), 20u);
  EXPECT_TRUE(LI.interval(C).overlaps(LI.interval(H0)));
  EXPECT_TRUE(LI.interval(C).overlaps(LI.interval(H1)));
  return scanIntervals(LI, MachineInfo(2, 1));
}

TEST(LinearScanWalkerTest, ProtectedDeadlockTieEvictsLowestRegister) {
  // h0 (r0) and h1 (r1) have equal 20-slot extents; c is narrower
  // (extent 14). The deadlock break must evict the *widest* holder and
  // break the extent tie toward the lowest register index: h0 spills
  // whole, c inherits r0, h1 keeps r1.
  VRegId H0, H1, C;
  ScanResult S = scanProtectedDeadlock(/*CStores=*/3, H0, H1, C);
  ASSERT_EQ(S.Spilled.size(), 1u);
  EXPECT_EQ(S.Spilled[0], H0);
  EXPECT_EQ(S.SpillFromSlot[0], 0u)
      << "deadlock eviction spills the whole lifetime";
  EXPECT_EQ(S.ColorOf[C], 0);
  EXPECT_EQ(S.ColorOf[H1], 1);
}

TEST(LinearScanWalkerTest, ProtectedDeadlockSpillsCurAtEqualWidth) {
  // With one more store c's extent equals the widest holder's (20).
  // Evicting a holder no wider than c cannot make progress, so the
  // deadlock break spills c itself; both holders keep their registers.
  VRegId H0, H1, C;
  ScanResult S = scanProtectedDeadlock(/*CStores=*/4, H0, H1, C);
  ASSERT_EQ(S.Spilled.size(), 1u);
  EXPECT_EQ(S.Spilled[0], C);
  EXPECT_EQ(S.SpillFromSlot[0], 0u);
  EXPECT_EQ(S.ColorOf[H0], 0);
  EXPECT_EQ(S.ColorOf[H1], 1);
}

//===--------------------------------------------------------------------===//
// Full driver: workloads, corpus, cross-backend agreement.
//===--------------------------------------------------------------------===//

TEST(LinearScanAllocTest, WorkloadsAllocateAuditAndMatchGolden) {
  for (const Workload &W : allWorkloads()) {
    Module M;
    Function &F = W.Build(M);
    optimizeFunction(F);

    Simulator Sim(M);
    MemoryImage Golden(M);
    W.Init(M, Golden);
    ExecutionResult G = Sim.runVirtual(F, Golden);
    ASSERT_TRUE(G.Ok) << W.Routine;

    AllocatorConfig C = linearScanConfig();
    AllocationResult A = allocateRegisters(F, C);
    ASSERT_TRUE(A.Success) << W.Routine << ": " << A.Diag.toString();
    EXPECT_EQ(A.Outcome, AllocOutcome::Converged) << W.Routine;
    EXPECT_TRUE(auditAllocation(F, A).empty()) << W.Routine;
    EXPECT_TRUE(verifyFunction(M, F).empty()) << W.Routine;

    MemoryImage Mem(M);
    W.Init(M, Mem);
    ExecutionResult R = Sim.runAllocated(F, A, Mem);
    ASSERT_TRUE(R.Ok) << W.Routine << ": " << R.Error;
    EXPECT_TRUE(Mem == Golden) << W.Routine;
  }
}

TEST(LinearScanAllocTest, CorpusAllocatesUnderSmallFiles) {
  // The whole regression corpus under a deliberately tight 4/3 file —
  // the configuration that exposed the protected-interval deadlock.
  for (int Seed = 0; Seed < 8; ++Seed) {
    char Name[32];
    std::snprintf(Name, sizeof(Name), "seed%04d.ral", Seed);
    std::string Text =
        readFile(std::string(RA_TESTS_DIR) + "/corpus/" + Name);
    ASSERT_FALSE(Text.empty()) << Name;
    Module M;
    std::string Error;
    ASSERT_TRUE(parseModule(Text, M, Error)) << Name << ": " << Error;
    for (unsigned I = 0; I < M.numFunctions(); ++I) {
      Function &F = M.function(I);
      Simulator Sim(M);
      MemoryImage Golden(M);
      ExecutionResult G = Sim.runVirtual(F, Golden);
      ASSERT_TRUE(G.Ok) << Name;

      AllocatorConfig C = linearScanConfig(4, 3);
      AllocationResult A = allocateRegisters(F, C);
      ASSERT_TRUE(A.Success) << Name << ": " << A.Diag.toString();
      EXPECT_TRUE(auditAllocation(F, A).empty()) << Name;

      MemoryImage Mem(M);
      ExecutionResult R = Sim.runAllocated(F, A, Mem);
      ASSERT_TRUE(R.Ok) << Name << ": " << R.Error;
      EXPECT_TRUE(Mem == Golden) << Name;
      EXPECT_EQ(R.IntReturn, G.IntReturn) << Name;
    }
  }
}

TEST(LinearScanAllocTest, ProtectedDeadlockRegressionConverges) {
  // seed0005 under a 4/3 file once drove the walker into re-spilling
  // minimal spill temporaries forever (exponential temp growth). The
  // widest-interval deadlock break must keep the pass count sane.
  std::string Text =
      readFile(std::string(RA_TESTS_DIR) + "/corpus/seed0005.ral");
  ASSERT_FALSE(Text.empty());
  Module M;
  std::string Error;
  ASSERT_TRUE(parseModule(Text, M, Error)) << Error;
  AllocatorConfig C = linearScanConfig(4, 3);
  AllocationResult A = allocateRegisters(M.function(0), C);
  ASSERT_TRUE(A.Success) << A.Diag.toString();
  EXPECT_EQ(A.Outcome, AllocOutcome::Converged);
  EXPECT_LE(A.Stats.numPasses(), 32u)
      << "deadlock breaking must make real progress each pass";
}

TEST(LinearScanAllocTest, AgreesWithGraphColoringOnWorkloads) {
  // Cross-backend differential in unit-test form: both backends must
  // produce the same memory image and returns on every workload.
  for (const Workload &W : allWorkloads()) {
    Module M1, M2;
    Function &F1 = W.Build(M1);
    Function &F2 = W.Build(M2);
    optimizeFunction(F1);
    optimizeFunction(F2);

    AllocatorConfig C1;
    C1.H = Heuristic::Briggs;
    AllocatorConfig C2 = linearScanConfig();
    AllocationResult A1 = allocateRegisters(F1, C1);
    AllocationResult A2 = allocateRegisters(F2, C2);
    ASSERT_TRUE(A1.Success && A2.Success) << W.Routine;

    Simulator S1(M1), S2(M2);
    MemoryImage Mem1(M1), Mem2(M2);
    W.Init(M1, Mem1);
    W.Init(M2, Mem2);
    ExecutionResult R1 = S1.runAllocated(F1, A1, Mem1);
    ExecutionResult R2 = S2.runAllocated(F2, A2, Mem2);
    ASSERT_TRUE(R1.Ok && R2.Ok) << W.Routine;
    EXPECT_TRUE(Mem1 == Mem2) << W.Routine << ": backends diverged";
    EXPECT_EQ(R1.IntReturn, R2.IntReturn) << W.Routine;
  }
}

TEST(LinearScanAllocTest, DeterministicAcrossRuns) {
  for (int Round = 0; Round < 2; ++Round) {
    Module M1, M2;
    Function &F1 = buildSVD(M1);
    Function &F2 = buildSVD(M2);
    optimizeFunction(F1);
    optimizeFunction(F2);
    AllocatorConfig C = linearScanConfig();
    AllocationResult A1 = allocateRegisters(F1, C);
    AllocationResult A2 = allocateRegisters(F2, C);
    ASSERT_TRUE(A1.Success && A2.Success);
    EXPECT_EQ(A1.ColorOf, A2.ColorOf);
    EXPECT_EQ(A1.Pieces, A2.Pieces)
        << "per-slot piece assignments must be deterministic too";
    EXPECT_EQ(A1.Stats.totalSpills(), A2.Stats.totalSpills());
    EXPECT_EQ(A1.Stats.numPasses(), A2.Stats.numPasses());
  }
}

//===--------------------------------------------------------------------===//
// Second-chance splitting: spill reduction and the structure of the
// published piece table.
//===--------------------------------------------------------------------===//

TEST(LinearScanAllocTest, SplittingNeverSpillsMoreThanNoSplit) {
  // Splitting exists to spill less. The whole-lifetime walker it
  // replaced spilled 3,681 ranges in the first pass over the suite
  // (EXPERIMENTS.md, "Allocation backends"); the split walk must cut
  // that substantially (the acceptance bar was a >=50% drop; assert a
  // conservative 40% so the test tracks the property, not the exact
  // corpus).
  constexpr unsigned WholeLifetimeFirstPassSpills = 3681;
  unsigned SplitTotal = 0;
  for (const Workload &W : allWorkloads()) {
    Module M;
    Function &F = W.Build(M);
    optimizeFunction(F);
    AllocationResult A = allocateRegisters(F, linearScanConfig());
    ASSERT_TRUE(A.Success) << W.Routine;
    SplitTotal += A.Stats.firstPassSpills();
  }
  EXPECT_LE(SplitTotal * 10, WholeLifetimeFirstPassSpills * 6)
      << "second-chance splitting should cut first-pass spills by well "
         "over 40% across the suite";
}

TEST(LinearScanWalkerTest, SecondChancePlacesHeadAndTailOnTwoRegisters) {
  // h0 holds r0 over [1, 9); h1 holds r1 but is in a lifetime hole when
  // v arrives, with its second segment starting at slot 13. Neither
  // register is free for v, but r1's conflict starts later, so the
  // second chance splits v at 12: the head rides r1, and when the
  // re-enqueued tail is processed h0 has retired, handing it r0 — one
  // range, two registers, zero spills.
  Module M;
  uint32_t Arr = M.newArray("a", 64, RegClass::Int);
  Function &F = M.newFunction("f");
  IRBuilder B(M, F);
  B.setInsertPoint(B.newBlock("entry"));
  VRegId H0 = B.movI(1);  // [1, 9)
  VRegId H1 = B.movI(2);  // [3, 5) then [13, 19)
  B.store(Arr, H1, H1);   // read slot 4 — h1's hole begins
  VRegId V = B.movI(3);   // [7, 21)
  B.store(Arr, H0, H0);   // read slot 8 — h0 retires after this
  B.store(Arr, V, V);
  B.movI(4, H1);          // write slot 13 — h1's second segment
  B.store(Arr, H1, H1);
  B.store(Arr, V, V);
  B.store(Arr, H1, H1);   // read slot 18
  B.store(Arr, V, V);     // read slot 20
  B.ret();

  CFG G = CFG::compute(F);
  Liveness LV = Liveness::compute(F, G);
  InstrNumbering Num = InstrNumbering::compute(F);
  LiveIntervals LI = LiveIntervals::compute(F, LV, Num);
  LI.setCosts(std::vector<double>(F.numVRegs(), 1.0));
  ScanResult S = scanIntervals(LI, MachineInfo(2, 1));

  ASSERT_TRUE(S.success());
  EXPECT_EQ(S.Splits, 1u);
  EXPECT_EQ(S.SplitRanges, 1u);
  ASSERT_EQ(S.Pieces.size(), 2u);
  EXPECT_EQ(S.Pieces[0].Reg, V);
  EXPECT_EQ(S.Pieces[1].Reg, V);
  // Head [7, 12) on r1, normalized to instruction-aligned [6, 12).
  EXPECT_EQ(S.Pieces[0].From, 6u);
  EXPECT_EQ(S.Pieces[0].To, 12u);
  EXPECT_EQ(S.Pieces[0].PhysReg, 1u);
  // Tail [12, 21) on the register h0 vacated, normalized to [12, 22).
  EXPECT_EQ(S.Pieces[1].From, 12u);
  EXPECT_EQ(S.Pieces[1].To, 22u);
  EXPECT_EQ(S.Pieces[1].PhysReg, 0u);
  EXPECT_EQ(S.ColorOf[V], 1) << "ColorOf is the first piece's register";
  EXPECT_EQ(S.ColorOf[H0], 0);
  EXPECT_EQ(S.ColorOf[H1], 1);
}

TEST(LinearScanAllocTest, PieceTableIsWellFormedOnRandomPrograms) {
  // Random programs under a tight 4/4 file occasionally converge with
  // genuine multi-register ranges; whenever they do, the published
  // piece table must be sorted by (Reg, From), instruction aligned,
  // non-overlapping within a range, agree with ColorOf on each range's
  // first piece — and the allocation must still audit clean and
  // reproduce the virtual run's memory image through the simulator's
  // inter-piece moves.
  unsigned PiecedAllocations = 0;
  for (uint64_t Seed = 0; Seed < 100; ++Seed) {
    Module M;
    Function &F = buildRandomProgram(M, Seed);
    optimizeFunction(F);

    Simulator Sim(M);
    MemoryImage Golden(M);
    ExecutionResult G = Sim.runVirtual(F, Golden);
    ASSERT_TRUE(G.Ok) << "seed " << Seed;

    AllocatorConfig C = linearScanConfig(4, 4);
    AllocationResult A = allocateRegisters(F, C);
    ASSERT_TRUE(A.Success) << "seed " << Seed << ": "
                           << A.Diag.toString();
    if (A.Outcome != AllocOutcome::Converged || A.Pieces.empty())
      continue;
    ++PiecedAllocations;

    for (size_t P = 0; P < A.Pieces.size(); ++P) {
      const PieceAssignment &PA = A.Pieces[P];
      EXPECT_LT(PA.From, PA.To) << "seed " << Seed;
      EXPECT_EQ(PA.From % 2, 0u) << "seed " << Seed;
      EXPECT_EQ(PA.To % 2, 0u) << "seed " << Seed;
      EXPECT_LT(PA.PhysReg, A.Machine.numRegs(F.regClass(PA.Reg)))
          << "seed " << Seed;
      if (P > 0 && A.Pieces[P - 1].Reg == PA.Reg) {
        EXPECT_LE(A.Pieces[P - 1].To, PA.From)
            << "seed " << Seed << ": pieces of one range overlap";
        EXPECT_NE(A.Pieces[P - 1].PhysReg, PA.PhysReg)
            << "seed " << Seed
            << ": adjacent same-register pieces must merge";
      } else {
        EXPECT_EQ(int32_t(PA.PhysReg), A.ColorOf[PA.Reg])
            << "seed " << Seed
            << ": ColorOf must be the first piece's register";
      }
      if (P > 0 && A.Pieces[P - 1].Reg != PA.Reg) {
        EXPECT_LT(A.Pieces[P - 1].Reg, PA.Reg)
            << "seed " << Seed << ": table must be sorted by vreg";
      }
    }

    EXPECT_TRUE(auditAllocation(F, A).empty()) << "seed " << Seed;
    MemoryImage Mem(M);
    ExecutionResult R = Sim.runAllocated(F, A, Mem);
    ASSERT_TRUE(R.Ok) << "seed " << Seed << ": " << R.Error;
    // The differential is the real oracle: a missing inter-piece move
    // leaves the value in the old register and diverges the image. A
    // cut inside a lifetime hole legitimately executes zero moves, so
    // SplitMoves itself carries no lower bound here.
    EXPECT_TRUE(Mem == Golden) << "seed " << Seed;
  }
  EXPECT_GT(PiecedAllocations, 0u)
      << "expected at least one converged piece-publishing allocation "
         "in the seed sweep";
}

TEST(LinearScanAllocTest, StatsShapeMatchesTheBackend) {
  Module M;
  Function &F = buildDMXPY(M);
  optimizeFunction(F);
  AllocatorConfig C = linearScanConfig();
  AllocationResult A = allocateRegisters(F, C);
  ASSERT_TRUE(A.Success);
  ASSERT_FALSE(A.Stats.Passes.empty());
  for (const PassRecord &P : A.Stats.Passes) {
    EXPECT_EQ(P.Interferences, 0u)
        << "linear scan never builds the interference graph";
    EXPECT_EQ(P.SpilledNames.size(), P.SpilledLiveRanges);
    EXPECT_GT(P.LiveRanges, 0u);
  }
  EXPECT_EQ(A.Stats.Passes.back().SpilledLiveRanges, 0u)
      << "the final pass must be spill-free";
}

TEST(LinearScanAllocTest, InjectedMiscoloringDegradesButStaysCorrect) {
  // The degradation ladder is backend-agnostic: a miscolored linear-scan
  // result must be caught by the audit and replaced by the
  // spill-everything fallback, which itself passes the audit.
  Module M;
  Function &F = buildDDOT(M);
  AllocatorConfig C = linearScanConfig();
  C.Audit = true;
  C.FaultInject.Miscolor = true;
  AllocationResult A = allocateRegisters(F, C);
  ASSERT_TRUE(A.Success) << A.Diag.toString();
  EXPECT_EQ(A.Outcome, AllocOutcome::Degraded);
  EXPECT_TRUE(auditAllocation(F, A).empty());
}

//===--------------------------------------------------------------------===//
// Naming and parsing helpers shared by the tools.
//===--------------------------------------------------------------------===//

TEST(BackendNamesTest, RoundTripThroughParse) {
  EXPECT_STREQ(backendName(Backend::GraphColoring), "graph-coloring");
  EXPECT_STREQ(backendName(Backend::LinearScan), "linear-scan");
  EXPECT_STREQ(allocatorName(Backend::LinearScan, Heuristic::Briggs),
               "linear-scan");
  EXPECT_STREQ(allocatorName(Backend::GraphColoring, Heuristic::Chaitin),
               "chaitin");

  Backend B;
  Heuristic H;
  ASSERT_TRUE(parseAllocatorName("briggs", B, H));
  EXPECT_EQ(B, Backend::GraphColoring);
  EXPECT_EQ(H, Heuristic::Briggs);
  ASSERT_TRUE(parseAllocatorName("matula-beck", B, H));
  EXPECT_EQ(H, Heuristic::MatulaBeck);
  ASSERT_TRUE(parseAllocatorName("linear-scan", B, H));
  EXPECT_EQ(B, Backend::LinearScan);
  EXPECT_FALSE(parseAllocatorName("bogus", B, H));
  EXPECT_FALSE(parseAllocatorName("", B, H));
}

} // namespace
