//===- tests/RenumberDiffTest.cpp - Renumbering vs the dense reference ----===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Differential test for live-range renumbering: every input is renumbered
// twice, once by renumberLiveRanges and once by the dense
// reaching-definitions reference in RenumberReference.cpp, and the two
// results must agree byte for byte: the printed function and the whole
// register table (names, classes, IsSpillTemp flags).
//
// Each input is checked in the states the allocator hands to the
// renumberer: as built, after a first renumbering plus spill code on a
// seeded subset of live ranges, and after coalescing (the post-coalesce
// renumbering that compacts ids merged away). The hand-built cases are
// not verifier-clean on purpose: undefined uses, partially defined
// joins, defs in unreachable blocks, self-loops and dead defs.
//
//===----------------------------------------------------------------------===//

#include "Corpus.h"
#include "RenumberReference.h"

#include "ir/IRBuilder.h"
#include "ir/IRPrinter.h"
#include "opt/Optimizer.h"
#include "regalloc/Coalesce.h"
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

/// Renumbers copies of \p F with both solvers and requires identical
/// output. Returns false (after reporting) on the first difference.
bool sameRenumbering(const Module &M, const Function &F,
                     const std::string &What) {
  CFG G = CFG::compute(F);
  Function Dense = F, Sparse = F;
  RenumberStats DS = renumberLiveRangesReference(Dense, G);
  RenumberStats SS = renumberLiveRanges(Sparse, G);
  EXPECT_EQ(DS.VRegsBefore, SS.VRegsBefore) << What;
  EXPECT_EQ(DS.VRegsAfter, SS.VRegsAfter) << What;
  std::string DenseText = printFunction(M, Dense);
  std::string SparseText = printFunction(M, Sparse);
  if (DenseText != SparseText) {
    ADD_FAILURE() << What << ": printed functions differ\n--- dense\n"
                  << DenseText << "--- renumberLiveRanges\n"
                  << SparseText;
    return false;
  }
  if (Dense.numVRegs() != Sparse.numVRegs()) {
    ADD_FAILURE() << What << ": " << Dense.numVRegs() << " vs "
                  << Sparse.numVRegs() << " registers";
    return false;
  }
  for (VRegId R = 0; R < Dense.numVRegs(); ++R) {
    const VRegInfo &A = Dense.vreg(R), &B = Sparse.vreg(R);
    if (A.Name != B.Name || A.Class != B.Class ||
        A.IsSpillTemp != B.IsSpillTemp) {
      ADD_FAILURE() << What << ": register " << R << " is " << A.Name
                    << (A.IsSpillTemp ? " (spill temp)" : "") << " vs "
                    << B.Name << (B.IsSpillTemp ? " (spill temp)" : "");
      return false;
    }
  }
  return true;
}

/// Coalesces \p F to a fixpoint, as the allocator's build phase does.
void coalesce(Function &F) {
  coalesceAll(F, CFG::compute(F));
}

/// Checks \p F as given, after renumbering plus spill code on a subset
/// of live ranges chosen by \p Seed, and after coalescing (with and
/// without that spill code).
void checkAllStages(const Module &M, const Function &F, uint64_t Seed,
                    const std::string &What) {
  if (!sameRenumbering(M, F, What + " (as built)"))
    return;
  Function Renumbered = F;
  renumberLiveRanges(Renumbered, CFG::compute(Renumbered));

  Function Spilled = Renumbered;
  Rng R(Seed);
  std::vector<VRegId> ToSpill;
  for (VRegId V = 0; V < Spilled.numVRegs(); ++V)
    if (R.nextBelow(8) == 0)
      ToSpill.push_back(V);
  insertSpillCode(Spilled, ToSpill, /*Rematerialize=*/Seed % 2 == 1);
  if (!sameRenumbering(M, Spilled, What + " (spilled)"))
    return;

  Function Coalesced = Renumbered;
  coalesce(Coalesced);
  if (!sameRenumbering(M, Coalesced, What + " (coalesced)"))
    return;

  Function SpilledCoalesced = Spilled;
  renumberLiveRanges(SpilledCoalesced, CFG::compute(SpilledCoalesced));
  coalesce(SpilledCoalesced);
  sameRenumbering(M, SpilledCoalesced, What + " (spilled, coalesced)");
}

TEST(RenumberDiffTest, Figure5Routines) {
  uint64_t Seed = 1;
  for (const Workload &W : allWorkloads()) {
    Module M;
    Function &F = W.Build(M);
    checkAllStages(M, F, Seed++, W.Routine);
    optimizeFunction(F);
    checkAllStages(M, F, Seed++, W.Routine + " optimized");
  }
}

TEST(RenumberDiffTest, Corpus) {
  uint64_t Seed = 100;
  forEachCorpusFunction(
      [&](Module &M, Function &F, const std::string &File) {
        checkAllStages(M, F, Seed++, File);
      });
}

TEST(RenumberDiffTest, RandomPrograms) {
  for (uint64_t Seed = 0; Seed < 240; ++Seed) {
    Module M;
    Function &F = buildRandomProgram(M, Seed);
    checkAllStages(M, F, Seed, "random seed " + std::to_string(Seed));
  }
}

TEST(RenumberDiffTest, MegaRamp10k) {
  const auto &Family = megaKernelFamily();
  auto It = std::find_if(Family.begin(), Family.end(),
                         [](const MegaKernel &MK) {
                           return MK.Name == "mega.ramp.10k";
                         });
  ASSERT_NE(It, Family.end());
  Module M;
  Function &F = It->Build(M);
  checkAllStages(M, F, 7, It->Name);
}

/// Why the allocator renumbers again after coalescing instead of only
/// compacting ids: merging copies can leave one register holding webs
/// that no longer meet, and renumbering splits them (with a ".1"-style
/// name) where a first-appearance id remap would keep them together.
TEST(RenumberDiffTest, PostCoalesceRenumberingSplitsWebs) {
  Module M;
  Function &F = buildRandomProgram(M, 2);
  renumberLiveRanges(F, CFG::compute(F));
  coalesce(F);
  std::vector<bool> Used(F.numVRegs(), false);
  for (const BasicBlock &B : F.blocks())
    for (const Instruction &I : B.Insts)
      for (const Operand &O : I.Ops)
        if (O.isReg())
          Used[O.Reg] = true;
  unsigned InUse = std::count(Used.begin(), Used.end(), true);
  RenumberStats S = renumberLiveRanges(F, CFG::compute(F));
  EXPECT_GT(S.VRegsAfter, InUse);
}

/// Hand-built functions the verifier would reject (the parser refuses
/// a use it has not seen defined, so they are built directly): the
/// renumberer must still agree with the reference on every one.
struct UnverifiedCase {
  const char *Name;
  std::function<void(IRBuilder &)> Build;
};

const UnverifiedCase UnverifiedCases[] = {
    {"never-defined register",
     [](IRBuilder &B) {
       B.setInsertPoint(B.newBlock("entry"));
       VRegId U = B.iReg("u");
       VRegId S = B.add(B.movI(1), U);
       B.ret(B.add(S, U));
     }},
    {"defined on one arm of a join",
     [](IRBuilder &B) {
       uint32_t Entry = B.newBlock("entry"), Then = B.newBlock("then");
       uint32_t Else = B.newBlock("else"), Join = B.newBlock("join");
       VRegId X = B.iReg("x");
       B.setInsertPoint(Entry);
       VRegId C = B.movI(1);
       B.br(CmpKind::LT, C, B.movI(0), Then, Else);
       B.setInsertPoint(Then);
       B.movI(5, X);
       B.jmp(Join);
       B.setInsertPoint(Else);
       B.jmp(Join);
       B.setInsertPoint(Join);
       B.ret(X);
     }},
    {"unreachable def feeds a reachable join",
     [](IRBuilder &B) {
       uint32_t Entry = B.newBlock("entry"), Dead = B.newBlock("dead");
       uint32_t Join = B.newBlock("join");
       VRegId X = B.iReg("x"), Y = B.iReg("y");
       B.setInsertPoint(Entry);
       B.movI(1, X);
       B.jmp(Join);
       B.setInsertPoint(Dead); // no predecessors
       B.movI(2, X);
       B.movI(3, Y);
       B.add(Y, X);
       B.jmp(Join);
       B.setInsertPoint(Join);
       B.ret(B.add(X, Y)); // Y is defined only in the dead block
     }},
    {"self-loop block redefines its input",
     [](IRBuilder &B) {
       uint32_t Entry = B.newBlock("entry"), Loop = B.newBlock("loop");
       uint32_t Exit = B.newBlock("exit");
       VRegId I = B.iReg("i"), V = B.iReg("v"), T = B.iReg("t");
       B.setInsertPoint(Entry);
       B.movI(0, I);
       VRegId N = B.movI(10);
       B.jmp(Loop);
       B.setInsertPoint(Loop);
       B.add(V, I, T); // V is undefined on the first iteration
       B.movI(3, V);
       B.addI(I, 1, I);
       B.br(CmpKind::LT, I, N, Loop, Exit);
       B.setInsertPoint(Exit);
       B.ret(T);
     }},
    {"dead defs",
     [](IRBuilder &B) {
       uint32_t Entry = B.newBlock("entry"), A = B.newBlock("a");
       uint32_t Join = B.newBlock("join");
       VRegId X = B.iReg("x"), Y = B.iReg("y");
       B.setInsertPoint(Entry);
       B.movI(1, X); // dead: overwritten before any use
       B.movI(2, X);
       B.movI(4, Y); // dead: never used
       B.br(CmpKind::LT, B.movI(0), X, A, Join);
       B.setInsertPoint(A);
       B.movI(5, Y);
       B.movI(6, X);
       B.jmp(Join);
       B.setInsertPoint(Join);
       B.ret(X);
     }},
    {"undefined register copied into a join",
     [](IRBuilder &B) {
       uint32_t Entry = B.newBlock("entry"), Then = B.newBlock("then");
       uint32_t Else = B.newBlock("else"), Join = B.newBlock("join");
       VRegId U = B.iReg("u"), X = B.iReg("x");
       B.setInsertPoint(Entry);
       VRegId C = B.movI(1);
       B.br(CmpKind::LT, C, B.add(C, U), Then, Else);
       B.setInsertPoint(Then);
       B.copy(U, X);
       B.jmp(Join);
       B.setInsertPoint(Else);
       B.movI(5, X);
       B.jmp(Join);
       B.setInsertPoint(Join);
       B.ret(X);
     }},
};

TEST(RenumberDiffTest, UnverifiedFunctions) {
  uint64_t Seed = 500;
  for (const UnverifiedCase &C : UnverifiedCases) {
    Module M;
    Function &F = M.newFunction("f");
    IRBuilder B(M, F);
    C.Build(B);
    checkAllStages(M, F, Seed++, C.Name);
  }
}

} // namespace
