//===- tests/CoalesceDiffTest.cpp - Coalescing vs the matrix reference ----===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Differential test for copy coalescing: every input is coalesced to a
// fixpoint twice, once by coalesceAll and once by driving the matrix
// reference round in CoalesceReference.cpp, which solves liveness and
// builds the all-vreg interference matrix afresh every round. The two
// must agree exactly: the merges (names, classes, order), the round and
// copy counts, the printed function and the register table.
//
// Each input is checked under the aggressive policy and under the
// conservative one at two register-file sizes, as built, after
// renumbering, and after spill code on a seeded subset of live ranges.
// Two hand-built cases target the shortcuts that keeping liveness
// across rounds invites: ORing a merged register's bits into its root,
// and re-solving only the merge roots. Each changes a merge decision
// when its shortcut is taken. The others cover a copy fan that merges
// one copy per round, copies in an unreachable block and a cross-class
// copy.
//
//===----------------------------------------------------------------------===//

#include "CoalesceReference.h"
#include "Corpus.h"
#include "LivenessReference.h"

#include "analysis/Liveness.h"
#include "analysis/Renumber.h"
#include "ir/IRBuilder.h"
#include "ir/IRPrinter.h"
#include "opt/Optimizer.h"
#include "regalloc/SpillInserter.h"
#include "support/Rng.h"
#include "workloads/MegaKernel.h"
#include "workloads/RandomProgram.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>

using namespace ra;

namespace {

struct PolicyCase {
  const char *Name;
  CoalescePolicy Policy;
  std::optional<MachineInfo> Machine;
};

const PolicyCase Policies[] = {
    {"aggressive", CoalescePolicy::Aggressive, std::nullopt},
    {"conservative rt/pc", CoalescePolicy::Conservative, MachineInfo::rtpc()},
    {"conservative 4/3", CoalescePolicy::Conservative, MachineInfo(4, 3)},
};

/// Coalesces copies of \p F with both implementations under \p P and
/// requires identical results. Returns coalesceAll's stats.
CoalesceStats sameCoalescing(const Module &M, const Function &F,
                             const PolicyCase &P, const std::string &What) {
  std::string Where = What + " (" + P.Name + ")";
  CFG G = CFG::compute(F);
  Function Ref = F, New = F;
  CoalesceStats RS;
  while (true) {
    unsigned Merged =
        coalesceOnePassReference(Ref, G, P.Policy, P.Machine, &RS.Merges);
    ++RS.Rounds;
    if (Merged == 0)
      break;
    RS.CopiesRemoved += Merged;
  }
  CoalesceStats NS = coalesceAll(New, G, P.Policy, P.Machine);

  EXPECT_EQ(RS.Rounds, NS.Rounds) << Where;
  EXPECT_EQ(RS.CopiesRemoved, NS.CopiesRemoved) << Where;
  if (RS.Merges.size() != NS.Merges.size()) {
    ADD_FAILURE() << Where << ": " << RS.Merges.size() << " vs "
                  << NS.Merges.size() << " merges";
    return NS;
  }
  for (size_t I = 0; I < RS.Merges.size(); ++I) {
    const CoalescedCopy &A = RS.Merges[I], &B = NS.Merges[I];
    if (A.Merged != B.Merged || A.Into != B.Into || A.Class != B.Class) {
      ADD_FAILURE() << Where << ": merge " << I << " is " << A.Merged
                    << " into " << A.Into << " vs " << B.Merged << " into "
                    << B.Into;
      return NS;
    }
  }
  std::string RefText = printFunction(M, Ref);
  std::string NewText = printFunction(M, New);
  if (RefText != NewText) {
    ADD_FAILURE() << Where << ": printed functions differ\n--- reference\n"
                  << RefText << "--- coalesceAll\n"
                  << NewText;
    return NS;
  }
  EXPECT_EQ(Ref.numVRegs(), New.numVRegs()) << Where;
  for (VRegId R = 0; R < std::min(Ref.numVRegs(), New.numVRegs()); ++R) {
    const VRegInfo &A = Ref.vreg(R), &B = New.vreg(R);
    if (A.Name != B.Name || A.Class != B.Class ||
        A.IsSpillTemp != B.IsSpillTemp) {
      ADD_FAILURE() << Where << ": register " << R << " is " << A.Name
                    << (A.IsSpillTemp ? " (spill temp)" : "") << " vs "
                    << B.Name << (B.IsSpillTemp ? " (spill temp)" : "");
      break;
    }
  }
  return NS;
}

/// Checks \p F under every policy as built, after renumbering, and after
/// renumbering plus spill code on a subset of live ranges chosen by
/// \p Seed (renumbered again, as the allocator does each pass).
void checkAllStages(const Module &M, const Function &F, uint64_t Seed,
                    const std::string &What) {
  Function Renumbered = F;
  renumberLiveRanges(Renumbered, CFG::compute(Renumbered));
  Function Spilled = Renumbered;
  Rng R(Seed);
  std::vector<VRegId> ToSpill;
  for (VRegId V = 0; V < Spilled.numVRegs(); ++V)
    if (R.nextBelow(8) == 0)
      ToSpill.push_back(V);
  insertSpillCode(Spilled, ToSpill, /*Rematerialize=*/Seed % 2 == 1);
  renumberLiveRanges(Spilled, CFG::compute(Spilled));

  for (const PolicyCase &P : Policies) {
    sameCoalescing(M, F, P, What + " as built");
    sameCoalescing(M, Renumbered, P, What + " renumbered");
    sameCoalescing(M, Spilled, P, What + " spilled");
  }
}

TEST(CoalesceDiffTest, Figure5Routines) {
  uint64_t Seed = 1;
  for (const Workload &W : allWorkloads()) {
    Module M;
    Function &F = W.Build(M);
    checkAllStages(M, F, Seed++, W.Routine);
    optimizeFunction(F);
    checkAllStages(M, F, Seed++, W.Routine + " optimized");
  }
}

TEST(CoalesceDiffTest, Corpus) {
  uint64_t Seed = 100;
  forEachCorpusFunction(
      [&](Module &M, Function &F, const std::string &File) {
        checkAllStages(M, F, Seed++, File);
      });
}

TEST(CoalesceDiffTest, RandomPrograms) {
  for (uint64_t Seed = 0; Seed < 200; ++Seed) {
    Module M;
    Function &F = buildRandomProgram(M, Seed);
    checkAllStages(M, F, Seed, "random seed " + std::to_string(Seed));
  }
}

TEST(CoalesceDiffTest, RandomStress75Regions) {
  Module M;
  Function &F = buildRandomStress(M, 20260808, 75, "stress75");
  checkAllStages(M, F, 75, "stress75");
}

/// Hand-built functions, each with the merge count and round count the
/// exact coalescer reaches on it.
struct HandCase {
  const char *Name;
  std::function<void(IRBuilder &)> Build;
  unsigned Merges;
  unsigned Rounds;
};

const HandCase HandCases[] = {
    // Round 1 merges r = x (r is dead) and skips x = b (x is touched).
    // Deleting r = x leaves the first def of x dead, so x is no longer
    // live out of entry and b's def there does not interfere with it.
    // ORing x's old bits into the root keeps it live there and refuses
    // x = b in round 2.
    {"dead-destination copy shrinks the root",
     [](IRBuilder &B) {
       uint32_t Entry = B.newBlock("entry"), Tail = B.newBlock("tail");
       VRegId X = B.iReg("x"), R = B.iReg("r"), Bv = B.iReg("b");
       B.setInsertPoint(Entry);
       B.movI(1, X);
       B.movI(7, Bv);
       B.jmp(Tail);
       B.setInsertPoint(Tail);
       B.copy(X, R);
       B.copy(Bv, X);
       B.ret(X);
     },
     2, 3},
    // The input's own x = x keeps x live around the loop. Round 1
    // merges p = m and skips x = p (p is touched); its rewrite deletes
    // x = x, although x merged with nothing. Then x is dead where m is
    // defined, and round 2 merges x = p. Re-solving only the merge
    // roots leaves x live there and refuses it.
    {"pre-existing self-copy in a loop",
     [](IRBuilder &B) {
       uint32_t Entry = B.newBlock("entry"), Loop = B.newBlock("loop");
       uint32_t Exit = B.newBlock("exit");
       VRegId X = B.iReg("x"), Mv = B.iReg("m"), P = B.iReg("p");
       VRegId I = B.iReg("i"), N = B.iReg("n");
       B.setInsertPoint(Entry);
       B.movI(1, X);
       B.movI(2, Mv);
       B.movI(10, N);
       B.movI(0, I);
       B.jmp(Loop);
       B.setInsertPoint(Loop);
       B.copy(X, X);
       B.copy(Mv, P);
       B.addI(I, 1, I);
       B.br(CmpKind::LT, I, N, Loop, Exit);
       B.setInsertPoint(Exit);
       B.copy(P, X);
       B.ret(X);
     },
     2, 3},
    // Every copy reads x, so each merge touches the copies left: one
    // merge per round.
    {"copies of one register merge one per round",
     [](IRBuilder &B) {
       B.setInsertPoint(B.newBlock("entry"));
       VRegId X = B.movI(3);
       VRegId Y1 = B.copy(X), Y2 = B.copy(X), Y3 = B.copy(X),
              Y4 = B.copy(X);
       B.ret(B.add(B.add(Y1, Y2), B.add(Y3, Y4)));
     },
     4, 5},
    {"copies in an unreachable block",
     [](IRBuilder &B) {
       uint32_t Entry = B.newBlock("entry"), Dead = B.newBlock("dead");
       uint32_t Exit = B.newBlock("exit");
       B.setInsertPoint(Entry);
       VRegId A = B.movI(1);
       B.jmp(Exit);
       B.setInsertPoint(Dead); // no predecessors
       B.add(B.copy(B.copy(A)), A);
       B.jmp(Exit);
       B.setInsertPoint(Exit);
       B.ret(A);
     },
     2, 3},
    {"cross-class copy is never merged",
     [](IRBuilder &B) {
       B.setInsertPoint(B.newBlock("entry"));
       VRegId I = B.movI(1);
       VRegId Fv = B.fReg("f");
       B.emit({Opcode::Copy, {Operand::reg(Fv), Operand::reg(I)}});
       B.ret(B.ftoi(Fv));
     },
     0, 1},
};

TEST(CoalesceDiffTest, HandBuiltFunctions) {
  uint64_t Seed = 500;
  for (const HandCase &C : HandCases) {
    Module M;
    Function &F = M.newFunction("f");
    IRBuilder B(M, F);
    C.Build(B);
    CoalesceStats S = sameCoalescing(M, F, Policies[0], C.Name);
    EXPECT_EQ(S.CopiesRemoved, C.Merges) << C.Name;
    EXPECT_EQ(S.Rounds, C.Rounds) << C.Name;
    checkAllStages(M, F, Seed++, C.Name);
  }
}

/// Liveness::update against a fresh solve on \p F, renumbered: as a
/// coalescing round does, merge up to 32 disjoint same-class register
/// pairs by renaming, drop the self-copies that leaves (and those the
/// input already had), and re-solve only the registers whose occurrences
/// changed, given each block they occur in before or after the edit.
void updateMatchesFreshSolve(Function &F, uint64_t Seed,
                             const std::string &What) {
  renumberLiveRanges(F, CFG::compute(F));
  CFG G = CFG::compute(F);
  Liveness LV = Liveness::compute(F, G);
  Rng R(Seed + 1000);
  unsigned NR = F.numVRegs();
  for (unsigned Step = 0; Step < 4; ++Step) {
    std::vector<VRegId> Into(NR);
    std::vector<bool> Changed(NR, false);
    for (VRegId V = 0; V < NR; ++V)
      Into[V] = V;
    for (unsigned Pair = 0; Pair < 32; ++Pair) {
      VRegId From = R.nextBelow(NR);
      VRegId To = R.nextBelow(NR);
      if (From == To || Changed[From] || Changed[To] ||
          F.regClass(From) != F.regClass(To))
        continue;
      Into[From] = To;
      Changed[From] = Changed[To] = true;
    }
    // Copies that the renaming turns into self-copies are dropped.
    for (const BasicBlock &B : F.blocks())
      for (const Instruction &I : B.Insts)
        if (I.isCopy() && Into[I.Ops[0].Reg] == Into[I.Ops[1].Reg])
          Changed[I.Ops[0].Reg] = Changed[I.Ops[1].Reg] = true;
    std::vector<Liveness::RegBlock> Occurs;
    for (const BasicBlock &B : F.blocks())
      for (const Instruction &I : B.Insts)
        for (const Operand &O : I.Ops)
          if (O.isReg() && Changed[O.Reg]) {
            Occurs.push_back({O.Reg, B.Id});
            Occurs.push_back({Into[O.Reg], B.Id});
          }

    for (BasicBlock &B : F.blocks()) {
      for (Instruction &I : B.Insts)
        for (Operand &O : I.Ops)
          if (O.isReg())
            O.Reg = Into[O.Reg];
      std::erase_if(B.Insts, [&](const Instruction &I) {
        return I.isCopy() && I.Ops[0].Reg == I.Ops[1].Reg;
      });
    }
    LV.update(F, G, Occurs);
    ASSERT_EQ(livenessMismatch(F, LV, computeLivenessReference(F, G)), "")
        << What << " step " << Step;
  }
}

TEST(CoalesceDiffTest, LivenessUpdateMatchesFreshSolve) {
  for (uint64_t Seed = 0; Seed < 60; ++Seed) {
    Module M;
    ASSERT_NO_FATAL_FAILURE(updateMatchesFreshSolve(
        buildRandomProgram(M, Seed), Seed, "seed " + std::to_string(Seed)));
  }
  Module M;
  updateMatchesFreshSolve(buildRandomStress(M, 20260808, 75, "stress75"), 75,
                          "stress75");
}

} // namespace
