//===- tests/RegallocTest.cpp - graph build/coalesce/spill/driver tests ---===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "analysis/Liveness.h"
#include "analysis/LoopInfo.h"
#include "ir/IRBuilder.h"
#include "ir/Verifier.h"
#include "opt/Optimizer.h"
#include "regalloc/Allocator.h"
#include "regalloc/BuildGraph.h"
#include "regalloc/Coalesce.h"
#include "regalloc/GraphDump.h"
#include "regalloc/SpillCost.h"
#include "regalloc/SpillInserter.h"
#include "sim/Simulator.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

using namespace ra;

namespace {

//===--------------------------------------------------------------------===//
// Interference graph construction.
//===--------------------------------------------------------------------===//

TEST(BuildGraphTest, StraightLineInterferences) {
  // a = 1; b = 2; c = a + b; d = a + c; ret d
  // a interferes with b and c; b with a (dies at c); c with a.
  Module M;
  Function &F = M.newFunction("f");
  IRBuilder B(M, F);
  B.setInsertPoint(B.newBlock("entry"));
  VRegId A = B.movI(1);
  VRegId Bv = B.movI(2);
  VRegId C = B.add(A, Bv);
  VRegId D = B.add(A, C);
  B.ret(D);

  CFG G = CFG::compute(F);
  Liveness LV = Liveness::compute(F, G);
  auto Graphs = buildInterferenceGraphs(F, LV);
  const ClassGraph &IG = Graphs[unsigned(RegClass::Int)];
  auto Interferes = [&](VRegId X, VRegId Y) {
    return IG.Graph.interferes(IG.VRegToNode[X], IG.VRegToNode[Y]);
  };
  EXPECT_TRUE(Interferes(A, Bv));
  EXPECT_TRUE(Interferes(A, C));
  EXPECT_FALSE(Interferes(Bv, C)) << "b dies as c is defined";
  EXPECT_FALSE(Interferes(A, D)) << "a dies as d is defined";
  EXPECT_EQ(IG.Graph.numEdges(), 2u);
}

TEST(BuildGraphTest, CopySourceDoesNotInterfere) {
  // b = copy a; both used later -> they do interfere only if a is used
  // after the copy. Here a dies at the copy: no edge (Chaitin's rule).
  Module M;
  uint32_t Arr = M.newArray("arr", 4, RegClass::Int);
  Function &F = M.newFunction("f");
  IRBuilder B(M, F);
  B.setInsertPoint(B.newBlock("entry"));
  VRegId Zero = B.movI(0);
  VRegId A = B.movI(7);
  VRegId Bv = B.copy(A);
  B.store(Arr, Zero, Bv);
  B.ret();

  CFG G = CFG::compute(F);
  Liveness LV = Liveness::compute(F, G);
  auto Graphs = buildInterferenceGraphs(F, LV);
  const ClassGraph &IG = Graphs[unsigned(RegClass::Int)];
  EXPECT_FALSE(
      IG.Graph.interferes(IG.VRegToNode[A], IG.VRegToNode[Bv]));
}

TEST(BuildGraphTest, ClassesNeverInterfere) {
  Module M;
  Function &F = M.newFunction("f");
  IRBuilder B(M, F);
  B.setInsertPoint(B.newBlock("entry"));
  VRegId I1 = B.movI(1);
  VRegId F1 = B.movF(1.0);
  VRegId I2 = B.addI(I1, 1);
  VRegId F2 = B.fadd(F1, F1);
  B.emit({Opcode::Ret, {Operand::reg(I2)}});
  (void)F2;

  CFG G = CFG::compute(F);
  Liveness LV = Liveness::compute(F, G);
  auto Graphs = buildInterferenceGraphs(F, LV);
  // Each class graph only contains its own registers.
  EXPECT_EQ(Graphs[0].NodeToVReg.size() + Graphs[1].NodeToVReg.size(),
            F.numVRegs());
  for (VRegId R = 0; R < F.numVRegs(); ++R) {
    unsigned Cls = unsigned(F.regClass(R));
    EXPECT_NE(Graphs[Cls].VRegToNode[R], ~0u);
    EXPECT_EQ(Graphs[1 - Cls].VRegToNode[R], ~0u);
  }
}

//===--------------------------------------------------------------------===//
// Spill costs.
//===--------------------------------------------------------------------===//

TEST(SpillCostTest, LoopDepthWeighting) {
  EXPECT_EQ(loopDepthWeight(0), 1.0);
  EXPECT_EQ(loopDepthWeight(1), 10.0);
  EXPECT_EQ(loopDepthWeight(3), 1000.0);

  // x defined outside a loop (1 store) and used once inside (1 load at
  // depth 1): cost = storeCost*1 + loadCost*10.
  Module M;
  uint32_t Arr = M.newArray("a", 8, RegClass::Int);
  Function &F = M.newFunction("f");
  IRBuilder B(M, F);
  uint32_t Entry = B.newBlock("entry");
  uint32_t Head = B.newBlock("head");
  uint32_t Body = B.newBlock("body");
  uint32_t Exit = B.newBlock("exit");
  B.setInsertPoint(Entry);
  VRegId X = B.movI(9);
  VRegId I = B.iReg("i");
  VRegId N = B.movI(4);
  B.movI(0, I);
  B.jmp(Head);
  B.setInsertPoint(Head);
  B.br(CmpKind::LT, I, N, Body, Exit);
  B.setInsertPoint(Body);
  B.store(Arr, I, X);
  B.addI(I, 1, I);
  B.jmp(Head);
  B.setInsertPoint(Exit);
  B.ret();

  CFG G = CFG::compute(F);
  Dominators D = Dominators::compute(F, G);
  LoopInfo LI = LoopInfo::compute(F, G, D);
  CostModel CM = CostModel::rtpc();
  std::vector<double> Costs = computeSpillCosts(F, LI, CM);
  EXPECT_EQ(Costs[X], CM.spillStoreCost() * 1.0 + CM.spillLoadCost() * 10.0);
}

TEST(SpillCostTest, SpillTempsAreInfinite) {
  Module M;
  Function &F = M.newFunction("f");
  IRBuilder B(M, F);
  B.setInsertPoint(B.newBlock("entry"));
  VRegId T = F.newVReg(RegClass::Int, "t", /*IsSpillTemp=*/true);
  B.movI(0, T);
  B.ret(T);
  CFG G = CFG::compute(F);
  Dominators D = Dominators::compute(F, G);
  LoopInfo LI = LoopInfo::compute(F, G, D);
  std::vector<double> Costs =
      computeSpillCosts(F, LI, CostModel::rtpc());
  EXPECT_EQ(Costs[T], InterferenceGraph::InfiniteCost);
}

//===--------------------------------------------------------------------===//
// Coalescing.
//===--------------------------------------------------------------------===//

TEST(CoalesceTest, MergesNonInterferingCopy) {
  Module M;
  uint32_t Arr = M.newArray("arr", 4, RegClass::Int);
  Function &F = M.newFunction("f");
  IRBuilder B(M, F);
  B.setInsertPoint(B.newBlock("entry"));
  VRegId Zero = B.movI(0);
  VRegId A = B.movI(7);
  VRegId Bv = B.copy(A); // a dies here: coalescable
  B.store(Arr, Zero, Bv);
  B.ret();

  unsigned InstsBefore = F.numInstructions();
  CFG G = CFG::compute(F);
  CoalesceStats S = coalesceAll(F, G);
  EXPECT_EQ(S.CopiesRemoved, 1u);
  EXPECT_EQ(F.numInstructions(), InstsBefore - 1);
  EXPECT_TRUE(verifyFunction(M, F).empty());
}

TEST(CoalesceTest, KeepsInterferingCopy) {
  Module M;
  uint32_t Arr = M.newArray("arr", 4, RegClass::Int);
  Function &F = M.newFunction("f");
  IRBuilder B(M, F);
  B.setInsertPoint(B.newBlock("entry"));
  VRegId Zero = B.movI(0);
  VRegId A = B.movI(7);
  VRegId Bv = B.copy(A);
  B.addI(Bv, 1, Bv);      // b changes while a still live
  B.store(Arr, Zero, A);  // a used after the copy -> interference
  B.store(Arr, Zero, Bv);
  B.ret();

  CFG G = CFG::compute(F);
  CoalesceStats S = coalesceAll(F, G);
  EXPECT_EQ(S.CopiesRemoved, 0u)
      << "interfering copy must not be merged";
  EXPECT_TRUE(verifyFunction(M, F).empty());
}

TEST(CoalesceTest, ChainsConvergeAcrossRounds) {
  // c = copy b = copy a, all dead after their single use: both merge,
  // possibly across rounds.
  Module M;
  uint32_t Arr = M.newArray("arr", 4, RegClass::Int);
  Function &F = M.newFunction("f");
  IRBuilder B(M, F);
  B.setInsertPoint(B.newBlock("entry"));
  VRegId Zero = B.movI(0);
  VRegId A = B.movI(7);
  VRegId Bv = B.copy(A);
  VRegId C = B.copy(Bv);
  B.store(Arr, Zero, C);
  B.ret();

  CFG G = CFG::compute(F);
  CoalesceStats S = coalesceAll(F, G);
  EXPECT_EQ(S.CopiesRemoved, 2u);
  EXPECT_TRUE(verifyFunction(M, F).empty());
}

TEST(CoalesceTest, PreservesSemanticsOnWorkloads) {
  for (const char *Name : {"SVD", "DMXPY", "SIMPLEX", "QUICKSORT"}) {
    Module M;
    Function *F;
    const Workload *W = findWorkload(Name);
    if (W) {
      F = &W->Build(M);
    } else {
      F = &buildQuicksort(M, 500);
    }
    Simulator Sim(M);
    MemoryImage Golden(M);
    if (W)
      W->Init(M, Golden);
    else
      initQuicksortMemory(M, Golden);
    ExecutionResult G1 = Sim.runVirtual(*F, Golden);

    CFG G = CFG::compute(*F);
    coalesceAll(*F, G);
    ASSERT_TRUE(verifyFunction(M, *F).empty()) << Name;

    MemoryImage Mem(M);
    if (W)
      W->Init(M, Mem);
    else
      initQuicksortMemory(M, Mem);
    ExecutionResult R = Sim.runVirtual(*F, Mem);
    EXPECT_EQ(compareRuns(M, G1, Golden, R, Mem), "") << Name;
  }
}

//===--------------------------------------------------------------------===//
// Spill-code insertion.
//===--------------------------------------------------------------------===//

TEST(SpillInserterTest, InsertsStoresAfterDefsAndLoadsBeforeUses) {
  Module M;
  uint32_t Arr = M.newArray("arr", 4, RegClass::Int);
  Function &F = M.newFunction("f");
  IRBuilder B(M, F);
  B.setInsertPoint(B.newBlock("entry"));
  VRegId Zero = B.movI(0);
  VRegId X = B.movI(7);     // def of x -> store after
  VRegId Y = B.addI(X, 1);  // use of x -> load before
  B.store(Arr, Zero, Y);
  B.store(Arr, Zero, X);    // second use -> second load
  B.ret();

  SpillCodeStats S = insertSpillCode(F, std::vector<VRegId>{X});
  EXPECT_EQ(S.Stores, 1u);
  EXPECT_EQ(S.Loads, 2u);
  EXPECT_EQ(F.numSpillSlots(), 1u);
  EXPECT_TRUE(verifyFunction(M, F).empty());

  // Every new temp is flagged as a spill temp.
  unsigned Temps = 0;
  for (VRegId R = 0; R < F.numVRegs(); ++R)
    if (F.vreg(R).IsSpillTemp)
      ++Temps;
  EXPECT_EQ(Temps, 3u);

  // Semantics preserved: arr[0] must end as 7.
  Simulator Sim(M);
  MemoryImage Mem(M);
  ExecutionResult R = Sim.runVirtual(F, Mem);
  ASSERT_TRUE(R.Ok);
  EXPECT_EQ(Mem.intArray(Arr)[0], 7);
}

TEST(SpillInserterTest, SharedRestoreForRepeatedUseInOneInstruction) {
  Module M;
  Function &F = M.newFunction("f");
  IRBuilder B(M, F);
  B.setInsertPoint(B.newBlock("entry"));
  VRegId X = B.movI(21);
  VRegId Y = B.add(X, X); // two uses of x in one instruction
  B.ret(Y);

  SpillCodeStats S = insertSpillCode(F, std::vector<VRegId>{X});
  EXPECT_EQ(S.Loads, 1u) << "one restore serves both operands";
  EXPECT_EQ(S.Stores, 1u);

  Simulator Sim(M);
  MemoryImage Mem(M);
  ExecutionResult R = Sim.runVirtual(F, Mem);
  ASSERT_TRUE(R.Ok);
  EXPECT_EQ(R.IntReturn, 42);
}

TEST(SpillInserterTest, SuffixRequestWithNoUsesInRegionIsDemoted) {
  // A suffix region past the last textual use would get a store-only
  // rewrite that changes nothing the allocator sees — the classic
  // back-edge livelock. The inserter must demote such requests to
  // whole-lifetime spills so the vreg actually retires.
  auto Build = [](Module &M, uint32_t &Arr, VRegId &X) -> Function & {
    Arr = M.newArray("arr", 4, RegClass::Int);
    Function &F = M.newFunction("f");
    IRBuilder B(M, F);
    B.setInsertPoint(B.newBlock("entry"));
    VRegId Zero = B.movI(0);
    X = B.movI(7);           // write slot 3
    VRegId Y = B.addI(X, 1); // read slot 4 — X's last use
    B.store(Arr, Zero, Y);
    B.ret();
    return F;
  };

  // Region [6, end) holds no uses of X: demoted, and the rewrite is
  // exactly the whole-lifetime one (store after the def, load at the
  // pre-region use).
  {
    Module M;
    uint32_t Arr;
    VRegId X;
    Function &F = Build(M, Arr, X);
    SpillCodeStats S =
        insertSpillCode(F, std::vector<SpillRequest>{{X, 6}});
    EXPECT_EQ(S.Demoted, 1u);
    EXPECT_EQ(S.Stores, 1u);
    EXPECT_EQ(S.Loads, 1u);
    EXPECT_TRUE(verifyFunction(M, F).empty());

    Simulator Sim(M);
    MemoryImage Mem(M);
    ExecutionResult R = Sim.runVirtual(F, Mem);
    ASSERT_TRUE(R.Ok);
    EXPECT_EQ(Mem.intArray(Arr)[0], 8);
  }

  // Region [4, end) covers the use: a genuine suffix spill, no
  // demotion.
  {
    Module M;
    uint32_t Arr;
    VRegId X;
    Function &F = Build(M, Arr, X);
    SpillCodeStats S =
        insertSpillCode(F, std::vector<SpillRequest>{{X, 4}});
    EXPECT_EQ(S.Demoted, 0u);
    EXPECT_EQ(S.Stores, 1u);
    EXPECT_EQ(S.Loads, 1u);
    EXPECT_TRUE(verifyFunction(M, F).empty());

    Simulator Sim(M);
    MemoryImage Mem(M);
    ExecutionResult R = Sim.runVirtual(F, Mem);
    ASSERT_TRUE(R.Ok);
    EXPECT_EQ(Mem.intArray(Arr)[0], 8);
  }
}

//===--------------------------------------------------------------------===//
// The full driver.
//===--------------------------------------------------------------------===//

TEST(AllocatorTest, BriggsNeverSpillsMoreAcrossTheSuite) {
  for (const Workload &W : allWorkloads()) {
    Module M1, M2;
    Function &F1 = W.Build(M1);
    Function &F2 = W.Build(M2);
    optimizeFunction(F1);
    optimizeFunction(F2);
    AllocatorConfig C1, C2;
    C1.H = Heuristic::Chaitin;
    C2.H = Heuristic::Briggs;
    AllocationResult A1 = allocateRegisters(F1, C1);
    AllocationResult A2 = allocateRegisters(F2, C2);
    ASSERT_TRUE(A1.Success && A2.Success) << W.Routine;
    EXPECT_LE(A2.Stats.firstPassSpills(), A1.Stats.firstPassSpills())
        << W.Routine;
    EXPECT_LE(A2.Stats.firstPassSpillCost() + 1e-9,
              A1.Stats.firstPassSpillCost() + 1e-9)
        << W.Routine;
  }
}

TEST(AllocatorTest, AssignmentRespectsInterference) {
  Module M;
  Function &F = buildSVD(M);
  AllocatorConfig C;
  C.H = Heuristic::Briggs;
  AllocationResult A = allocateRegisters(F, C);
  ASSERT_TRUE(A.Success);

  // Rebuild liveness on the final function and check no two
  // simultaneously-live same-class registers share a physical register.
  CFG G = CFG::compute(F);
  Liveness LV = Liveness::compute(F, G);
  auto Graphs = buildInterferenceGraphs(F, LV);
  for (const ClassGraph &CG : Graphs) {
    for (unsigned N = 0; N < CG.Graph.numNodes(); ++N)
      for (uint32_t Nb : CG.Graph.neighbors(N))
        if (Nb > N) {
          EXPECT_NE(A.ColorOf[CG.NodeToVReg[N]],
                    A.ColorOf[CG.NodeToVReg[Nb]]);
        }
  }
  // Every color fits its register file.
  for (VRegId R = 0; R < F.numVRegs(); ++R) {
    ASSERT_GE(A.ColorOf[R], 0);
    EXPECT_LT(unsigned(A.ColorOf[R]), A.Machine.numRegs(F.regClass(R)));
  }
}

TEST(AllocatorTest, PassCountsStaySmall) {
  // The paper: "We have never observed either method needing more than
  // three passes." Allow a little slack for the reconstructions.
  for (const char *Name : {"SVD", "DISSIP", "DMXPY", "GRADNT"}) {
    const Workload *W = findWorkload(Name);
    Module M;
    Function &F = W->Build(M);
    optimizeFunction(F);
    AllocatorConfig C;
    C.H = Heuristic::Briggs;
    AllocationResult A = allocateRegisters(F, C);
    ASSERT_TRUE(A.Success);
    EXPECT_LE(A.Stats.numPasses(), 4u) << Name;
  }
}

TEST(AllocatorTest, StatsAreInternallyConsistent) {
  Module M;
  Function &F = buildDMXPY(M);
  optimizeFunction(F);
  AllocatorConfig C;
  C.H = Heuristic::Chaitin;
  AllocationResult A = allocateRegisters(F, C);
  ASSERT_TRUE(A.Success);
  ASSERT_GE(A.Stats.numPasses(), 2u) << "DMXPY must spill";
  unsigned Sum = 0;
  for (const PassRecord &P : A.Stats.Passes) {
    EXPECT_EQ(P.SpilledNames.size(), P.SpilledLiveRanges);
    Sum += P.SpilledLiveRanges;
  }
  EXPECT_EQ(Sum, A.Stats.totalSpills());
  EXPECT_EQ(A.Stats.Passes.back().SpilledLiveRanges, 0u)
      << "the final pass must be spill-free";
  EXPECT_GT(A.Stats.SpillCode.Loads, 0u);
  EXPECT_GT(A.Stats.SpillCode.Stores, 0u);
}

TEST(AllocatorTest, SmallFileStillConverges) {
  Module M;
  Function &F = buildDDOT(M);
  AllocatorConfig C;
  C.H = Heuristic::Briggs;
  C.Machine = MachineInfo(3, 3);
  AllocationResult A = allocateRegisters(F, C);
  EXPECT_TRUE(A.Success) << "minimum legal file must still allocate";
}

// 66,001 int live ranges: past 65,537 nodes, where a 32-bit index into
// a triangular interference matrix would overflow (2.2e9 bits).
// c is live across every add; each v dies at the next one's def.
TEST(AllocatorTest, ColorsPastSixtyFiveThousandLiveRanges) {
  Module M;
  Function &F = M.newFunction("big");
  IRBuilder B(M, F);
  B.setInsertPoint(B.newBlock("entry"));
  VRegId C = B.movI(1), V = B.movI(0);
  for (unsigned I = 1; I < 66000; ++I)
    V = B.add(C, V);
  B.ret(V);
  ASSERT_EQ(F.numVRegs(), 66001u);
  AllocatorConfig Cfg;
  Cfg.Audit = true;
  AllocationResult A = allocateRegisters(F, Cfg);
  ASSERT_TRUE(A.Success) << A.Diag.toString();
  EXPECT_EQ(A.Outcome, AllocOutcome::Converged);
  EXPECT_EQ(A.Stats.initialLiveRanges(), 66001u);
  EXPECT_EQ(A.Stats.totalSpills(), 0u);
}

} // namespace

//===--------------------------------------------------------------------===//
// Rematerialization (constant spills recomputed, not stored).
//===--------------------------------------------------------------------===//

namespace {

TEST(RematTest, ConstantRangeIsRecomputedNotStored) {
  Module M;
  Function &F = M.newFunction("f");
  IRBuilder B(M, F);
  B.setInsertPoint(B.newBlock("entry"));
  VRegId C = B.movI(77); // the spilled constant
  VRegId A = B.addI(C, 1);
  VRegId Sum = B.add(A, C);
  B.ret(Sum);

  SpillCodeStats S = insertSpillCode(F, std::vector<VRegId>{C}, /*Rematerialize=*/true);
  EXPECT_EQ(S.Remats, 1u);
  EXPECT_EQ(S.Loads, 0u);
  EXPECT_EQ(S.Stores, 0u);
  EXPECT_EQ(F.numSpillSlots(), 0u) << "no stack slot for a constant";
  EXPECT_TRUE(verifyFunction(M, F).empty());

  Simulator Sim(M);
  MemoryImage Mem(M);
  ExecutionResult R = Sim.runVirtual(F, Mem);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.IntReturn, 155);
}

TEST(RematTest, MixedDefinitionsFallBackToMemory) {
  Module M;
  Function &F = M.newFunction("f");
  IRBuilder B(M, F);
  B.setInsertPoint(B.newBlock("entry"));
  VRegId X = B.movI(1);
  B.addI(X, 1, X); // second def is not a constant mov
  VRegId Y = B.addI(X, 0);
  B.ret(Y);

  SpillCodeStats S = insertSpillCode(F, std::vector<VRegId>{X}, /*Rematerialize=*/true);
  EXPECT_EQ(S.Remats, 0u);
  EXPECT_GT(S.Stores, 0u);
  EXPECT_TRUE(verifyFunction(M, F).empty());
}

TEST(RematTest, DifferentConstantsFallBackToMemory) {
  Module M;
  Function &F = M.newFunction("f");
  IRBuilder B(M, F);
  uint32_t Entry = B.newBlock("entry");
  uint32_t Then = B.newBlock("then");
  uint32_t Else = B.newBlock("else");
  uint32_t Join = B.newBlock("join");
  B.setInsertPoint(Entry);
  VRegId A = B.movI(1);
  VRegId Z = B.movI(0);
  B.br(CmpKind::LT, A, Z, Then, Else);
  VRegId X = B.iReg("x");
  B.setInsertPoint(Then);
  B.movI(10, X);
  B.jmp(Join);
  B.setInsertPoint(Else);
  B.movI(20, X); // different constant on the other path
  B.jmp(Join);
  B.setInsertPoint(Join);
  B.ret(X);

  SpillCodeStats S = insertSpillCode(F, std::vector<VRegId>{X}, /*Rematerialize=*/true);
  EXPECT_EQ(S.Remats, 0u)
      << "defs with different constants cannot rematerialize";
  EXPECT_TRUE(verifyFunction(M, F).empty());
}

TEST(RematTest, AllocatorEndToEndWithRemat) {
  // The whole driver with rematerialization on: results must match the
  // plain run, with fewer spill instructions executed.
  const Workload *W = findWorkload("DISSIP");
  Module M1, M2;
  Function &F1 = W->Build(M1);
  Function &F2 = W->Build(M2);
  optimizeFunction(F1);
  optimizeFunction(F2);

  AllocatorConfig CPlain, CRemat;
  CPlain.H = CRemat.H = Heuristic::Briggs;
  CRemat.Rematerialize = true;
  AllocationResult A1 = allocateRegisters(F1, CPlain);
  AllocationResult A2 = allocateRegisters(F2, CRemat);
  ASSERT_TRUE(A1.Success && A2.Success);
  EXPECT_GT(A2.Stats.SpillCode.Remats, 0u)
      << "DISSIP spills constant coefficients";

  Simulator S1(M1), S2(M2);
  MemoryImage Mem1(M1), Mem2(M2);
  W->Init(M1, Mem1);
  W->Init(M2, Mem2);
  ExecutionResult R1 = S1.runAllocated(F1, A1, Mem1);
  ExecutionResult R2 = S2.runAllocated(F2, A2, Mem2);
  EXPECT_EQ(compareRuns(M1, R1, Mem1, R2, Mem2), "")
      << "rematerialization changed results";
  EXPECT_LT(R2.SpillCycles, R1.SpillCycles)
      << "recomputing constants must beat memory round trips";
}

//===--------------------------------------------------------------------===//
// Local value numbering.
//===--------------------------------------------------------------------===//

TEST(ValueNumberingTest, RemovesRedundantComputation) {
  Module M;
  uint32_t Arr = M.newArray("a", 8, RegClass::Int);
  Function &F = M.newFunction("f");
  IRBuilder B(M, F);
  B.setInsertPoint(B.newBlock("entry"));
  VRegId X = B.movI(3);
  VRegId Y = B.movI(4);
  VRegId P1 = B.add(X, Y);
  VRegId P2 = B.add(Y, X); // commutative duplicate
  B.store(Arr, B.movI(0), P1);
  B.store(Arr, B.movI(1), P2);
  B.ret();

  unsigned Replaced = localValueNumbering(F);
  EXPECT_GE(Replaced, 1u);
  EXPECT_TRUE(verifyFunction(M, F).empty());

  Simulator Sim(M);
  MemoryImage Mem(M);
  ExecutionResult R = Sim.runVirtual(F, Mem);
  ASSERT_TRUE(R.Ok);
  EXPECT_EQ(Mem.intArray(Arr)[0], 7);
  EXPECT_EQ(Mem.intArray(Arr)[1], 7);
}

TEST(ValueNumberingTest, RespectsRedefinitions) {
  Module M;
  uint32_t Arr = M.newArray("a", 8, RegClass::Int);
  Function &F = M.newFunction("f");
  IRBuilder B(M, F);
  B.setInsertPoint(B.newBlock("entry"));
  VRegId X = B.iReg("x");
  B.movI(3, X);
  VRegId One = B.movI(1);
  VRegId P1 = B.add(X, One);
  B.movI(10, X); // x changes
  VRegId P2 = B.add(X, One); // NOT redundant
  B.store(Arr, B.movI(0), P1);
  B.store(Arr, B.movI(1), P2);
  B.ret();

  localValueNumbering(F);
  Simulator Sim(M);
  MemoryImage Mem(M);
  ExecutionResult R = Sim.runVirtual(F, Mem);
  ASSERT_TRUE(R.Ok);
  EXPECT_EQ(Mem.intArray(Arr)[0], 4);
  EXPECT_EQ(Mem.intArray(Arr)[1], 11);
}

TEST(ValueNumberingTest, NeverReusesLoadsAcrossStores) {
  Module M;
  uint32_t Arr = M.newArray("a", 8, RegClass::Int);
  Function &F = M.newFunction("f");
  IRBuilder B(M, F);
  B.setInsertPoint(B.newBlock("entry"));
  VRegId Zero = B.movI(0);
  VRegId L1 = B.load(Arr, Zero);
  B.store(Arr, Zero, B.addI(L1, 5));
  VRegId L2 = B.load(Arr, Zero); // must observe the store
  B.ret(L2);

  localValueNumbering(F);
  Simulator Sim(M);
  MemoryImage Mem(M);
  Mem.intArray(Arr)[0] = 1;
  ExecutionResult R = Sim.runVirtual(F, Mem);
  ASSERT_TRUE(R.Ok);
  EXPECT_EQ(R.IntReturn, 6);
}

} // namespace

//===--------------------------------------------------------------------===//
// Graphviz dump.
//===--------------------------------------------------------------------===//

namespace {

TEST(GraphDumpTest, RendersNodesEdgesAndColors) {
  InterferenceGraph G(3);
  G.addEdge(0, 1);
  G.addEdge(1, 2);
  G.finalize();
  ColoringResult R = colorGraph(G, 2, Heuristic::Briggs);
  std::string Dot = dumpGraphviz(G, &R, "demo", {"w", "x", "z"});
  EXPECT_NE(Dot.find("graph \"demo\""), std::string::npos);
  EXPECT_NE(Dot.find("n0 -- n1;"), std::string::npos);
  EXPECT_NE(Dot.find("n1 -- n2;"), std::string::npos);
  EXPECT_EQ(Dot.find("n0 -- n2;"), std::string::npos);
  EXPECT_NE(Dot.find("w\\nr"), std::string::npos) << Dot;

  // Without a result: costs shown instead of registers.
  std::string Plain = dumpGraphviz(G);
  EXPECT_NE(Plain.find("cost"), std::string::npos);
}

TEST(GraphDumpTest, MarksSpilledNodes) {
  // 4-clique at k=2: two nodes spill and must render as boxes.
  InterferenceGraph G(4);
  for (unsigned A = 0; A < 4; ++A)
    for (unsigned B = A + 1; B < 4; ++B)
      G.addEdge(A, B);
  G.finalize();
  for (unsigned N = 0; N < 4; ++N)
    G.node(N).SpillCost = 1 + N;
  ColoringResult R = colorGraph(G, 2, Heuristic::Briggs);
  std::string Dot = dumpGraphviz(G, &R);
  EXPECT_NE(Dot.find("spilled"), std::string::npos);
  EXPECT_NE(Dot.find("shape=box"), std::string::npos);
}

} // namespace
