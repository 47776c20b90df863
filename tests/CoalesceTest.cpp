//===- tests/CoalesceTest.cpp - coalescing correctness contracts ----------===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Focused contracts for the Chaitin-style coalescer beyond the smoke
// cases in RegallocTest.cpp: copy subsumption must preserve program
// semantics exactly, a merge must preserve every interference the two
// ranges had (mapped onto the surviving root), copies whose operands
// interfere must never be merged, and the Briggs conservative test must
// refuse merges that would create a significant-degree node.
//
//===----------------------------------------------------------------------===//

#include "BuildGraphReference.h"

#include "analysis/Liveness.h"
#include "ir/IRBuilder.h"
#include "ir/Verifier.h"
#include "regalloc/Coalesce.h"
#include "sim/Simulator.h"

#include <gtest/gtest.h>

#include <map>

using namespace ra;

namespace {

unsigned countCopies(const Function &F) {
  unsigned N = 0;
  for (const BasicBlock &B : F.blocks())
    for (const Instruction &I : B.Insts)
      N += I.isCopy();
  return N;
}

//===--------------------------------------------------------------------===//
// Copy subsumption correctness.
//===--------------------------------------------------------------------===//

TEST(CoalesceTest, SubsumptionPreservesSemanticsAndRemovesEveryCopy) {
  // A copy chain feeding arithmetic whose result is returned: after
  // coalescing no copy remains and the returned value is unchanged.
  Module M;
  Function &F = M.newFunction("f");
  IRBuilder B(M, F);
  B.setInsertPoint(B.newBlock("entry"));
  VRegId A = B.movI(21);
  VRegId C1 = B.copy(A);  // a dies here
  VRegId C2 = B.copy(C1); // chain: converges across rounds
  VRegId R = B.add(C2, C2);
  B.ret(R);

  Simulator Sim(M);
  MemoryImage GoldenMem(M);
  ExecutionResult Golden = Sim.runVirtual(F, GoldenMem);
  ASSERT_TRUE(Golden.Ok) << Golden.Error;
  ASSERT_TRUE(Golden.HasIntReturn);
  ASSERT_EQ(Golden.IntReturn, 42);

  CFG G = CFG::compute(F);
  CoalesceStats S = coalesceAll(F, G);
  EXPECT_EQ(S.CopiesRemoved, 2u);
  EXPECT_EQ(countCopies(F), 0u);
  ASSERT_TRUE(verifyFunction(M, F).empty());

  MemoryImage Mem(M);
  ExecutionResult After = Sim.runVirtual(F, Mem);
  ASSERT_TRUE(After.Ok) << After.Error;
  EXPECT_EQ(After.IntReturn, Golden.IntReturn);
  EXPECT_TRUE(Mem == GoldenMem);
}

TEST(CoalesceTest, RecordsMergeProvenance) {
  Module M;
  Function &F = M.newFunction("f");
  IRBuilder B(M, F);
  B.setInsertPoint(B.newBlock("entry"));
  VRegId A = F.newVReg(RegClass::Int, "a");
  B.movI(9, A);
  VRegId C = F.newVReg(RegClass::Int, "b");
  B.copy(A, C);
  B.ret(C);

  CFG G = CFG::compute(F);
  CoalesceStats S = coalesceAll(F, G);
  ASSERT_EQ(S.CopiesRemoved, 1u);
  ASSERT_EQ(S.Merges.size(), 1u);
  const CoalescedCopy &CC = S.Merges[0];
  EXPECT_EQ(CC.Class, RegClass::Int);
  // One of the two names survived as the root; the other was merged
  // into it.
  EXPECT_TRUE((CC.Merged == "a" && CC.Into == "b") ||
              (CC.Merged == "b" && CC.Into == "a"))
      << CC.Merged << " into " << CC.Into;
  EXPECT_NE(CC.Merged, CC.Into);
}

//===--------------------------------------------------------------------===//
// Interference-preserving merges.
//===--------------------------------------------------------------------===//

TEST(CoalesceTest, MergePreservesEveryInterferenceOfBothRanges) {
  // A diamond with copies on both arms: whatever interfered with either
  // side of a merged copy must interfere with the surviving root.
  Module M;
  uint32_t Arr = M.newArray("arr", 8, RegClass::Int);
  Function &F = M.newFunction("f");
  IRBuilder B(M, F);
  uint32_t Entry = B.newBlock("entry");
  uint32_t Left = B.newBlock("left");
  uint32_t Right = B.newBlock("right");
  uint32_t Join = B.newBlock("join");

  B.setInsertPoint(Entry);
  VRegId Zero = F.newVReg(RegClass::Int, "zero");
  B.movI(0, Zero);
  VRegId N = F.newVReg(RegClass::Int, "n");
  B.movI(5, N);
  VRegId Keep = F.newVReg(RegClass::Int, "keep");
  B.movI(7, Keep);
  B.br(CmpKind::LT, Zero, N, Left, Right);

  B.setInsertPoint(Left);
  VRegId T = F.newVReg(RegClass::Int, "t");
  B.add(N, Keep, T);
  VRegId U = F.newVReg(RegClass::Int, "u");
  B.copy(T, U); // t dies: coalescable, but t interfered with keep/zero
  B.store(Arr, Zero, U);
  B.jmp(Join);

  B.setInsertPoint(Right);
  B.store(Arr, Zero, Keep);
  B.jmp(Join);

  B.setInsertPoint(Join);
  B.store(Arr, Zero, Keep);
  B.ret();

  // Interference before, keyed by name so the check survives the merge.
  CFG G = CFG::compute(F);
  Liveness Before = Liveness::compute(F, G);
  TriangularBitMatrix MBefore = buildInterferenceMatrix(F, Before);
  std::map<std::string, VRegId> IdOf;
  for (VRegId R = 0; R < F.numVRegs(); ++R)
    IdOf[F.vreg(R).Name] = R;

  CoalesceStats S = coalesceAll(F, G);
  ASSERT_GE(S.CopiesRemoved, 1u);
  ASSERT_TRUE(verifyFunction(M, F).empty());

  // Map every merged-away name onto its surviving root (merges can
  // chain across rounds, so resolve transitively).
  std::map<std::string, std::string> RootOf;
  for (const CoalescedCopy &CC : S.Merges)
    RootOf[CC.Merged] = CC.Into;
  auto Root = [&](std::string Name) {
    while (RootOf.count(Name))
      Name = RootOf[Name];
    return Name;
  };

  Liveness After = Liveness::compute(F, G);
  TriangularBitMatrix MAfter = buildInterferenceMatrix(F, After);
  for (VRegId X = 0; X < MBefore.numNodes(); ++X)
    for (VRegId Y = X + 1; Y < MBefore.numNodes(); ++Y) {
      if (!MBefore.test(X, Y))
        continue;
      VRegId RX = IdOf.at(Root(F.vreg(X).Name));
      VRegId RY = IdOf.at(Root(F.vreg(Y).Name));
      ASSERT_NE(RX, RY) << "interfering ranges " << F.vreg(X).Name
                        << " and " << F.vreg(Y).Name << " were merged";
      EXPECT_TRUE(MAfter.test(RX, RY))
          << "interference " << F.vreg(X).Name << " -- " << F.vreg(Y).Name
          << " lost by coalescing";
    }
}

//===--------------------------------------------------------------------===//
// No coalescing across interference.
//===--------------------------------------------------------------------===//

TEST(CoalesceTest, RefusesCopyWhoseOperandsInterfere) {
  // d = copy s, then both s and d are live (s used after the copy and d
  // modified): merging would conflate two simultaneously-live values.
  Module M;
  uint32_t Arr = M.newArray("arr", 4, RegClass::Int);
  Function &F = M.newFunction("f");
  IRBuilder B(M, F);
  B.setInsertPoint(B.newBlock("entry"));
  VRegId Zero = B.movI(0);
  VRegId S = F.newVReg(RegClass::Int, "s");
  B.movI(3, S);
  VRegId D = F.newVReg(RegClass::Int, "d");
  B.copy(S, D);
  B.addI(D, 1, D);       // d diverges from s
  B.store(Arr, Zero, S); // s still live: s -- d interference
  B.store(Arr, Zero, D);
  B.ret();

  Simulator Sim(M);
  MemoryImage GoldenMem(M);
  ExecutionResult Golden = Sim.runVirtual(F, GoldenMem);
  ASSERT_TRUE(Golden.Ok) << Golden.Error;

  CFG G = CFG::compute(F);
  CoalesceStats St = coalesceAll(F, G);
  EXPECT_EQ(St.CopiesRemoved, 0u);
  EXPECT_TRUE(St.Merges.empty());
  EXPECT_EQ(countCopies(F), 1u) << "interfering copy must survive";

  MemoryImage Mem(M);
  ExecutionResult After = Sim.runVirtual(F, Mem);
  ASSERT_TRUE(After.Ok) << After.Error;
  EXPECT_TRUE(Mem == GoldenMem);
}

TEST(CoalesceTest, ConservativeRefusesSignificantDegreeMerge) {
  // s and d do not interfere, but their union would have two neighbors
  // of degree >= k (k = 2): Briggs' conservative test must refuse what
  // Chaitin's aggressive rule merges.
  auto BuildCase = [](Module &M) -> Function & {
    Function &F = M.newFunction("f");
    IRBuilder B(M, F);
    B.setInsertPoint(B.newBlock("entry"));
    VRegId N1 = F.newVReg(RegClass::Int, "n1");
    B.movI(1, N1);
    VRegId N2 = F.newVReg(RegClass::Int, "n2");
    B.movI(2, N2);
    VRegId S = F.newVReg(RegClass::Int, "s");
    B.movI(3, S);
    VRegId D = F.newVReg(RegClass::Int, "d");
    B.copy(S, D); // s's last use: no s -- d edge
    VRegId X = B.add(N1, D);
    VRegId Y = B.add(N2, X);
    B.ret(Y);
    return F;
  };

  Module MA;
  Function &FA = BuildCase(MA);
  CFG GA = CFG::compute(FA);
  CoalesceStats Aggressive = coalesceAll(FA, GA);
  EXPECT_EQ(Aggressive.CopiesRemoved, 1u)
      << "aggressive baseline: non-interfering copy merges";

  Module MC;
  Function &FC = BuildCase(MC);
  CFG GC = CFG::compute(FC);
  CoalesceStats Conservative = coalesceAll(
      FC, GC, CoalescePolicy::Conservative, MachineInfo(2, 2));
  EXPECT_EQ(Conservative.CopiesRemoved, 0u)
      << "merge would create a node with k significant neighbors";
  EXPECT_EQ(countCopies(FC), 1u);
}

} // namespace
