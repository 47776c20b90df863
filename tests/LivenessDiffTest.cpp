//===- tests/LivenessDiffTest.cpp - Liveness vs the round-robin reference -===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Differential test for liveness: Liveness::compute, which searches
// backward from each upward-exposed use one register at a time, must
// produce exactly the per-block live-in and live-out sets of the
// round-robin fixpoint in LivenessReference.cpp. Inputs: the Figure 5
// routines raw and optimized, the fuzz corpus, random programs, a
// 75-region stress function, the largest mega kernel's CFG after
// renumbering, and hand-built shapes where a search could stop too
// early or run too far.
//
//===----------------------------------------------------------------------===//

#include "Corpus.h"
#include "LivenessReference.h"

#include "analysis/Renumber.h"
#include "ir/IRBuilder.h"
#include "opt/Optimizer.h"
#include "workloads/MegaKernel.h"
#include "workloads/RandomProgram.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>

using namespace ra;

namespace {

/// Solves \p F both ways and requires identical sets. Returns the
/// search's solution for further checks.
Liveness sameLiveness(const Function &F, const std::string &What) {
  CFG G = CFG::compute(F);
  Liveness LV = Liveness::compute(F, G);
  std::string Diff =
      livenessMismatch(F, LV, computeLivenessReference(F, G));
  EXPECT_EQ(Diff, "") << What;
  return LV;
}

TEST(LivenessDiffTest, Figure5Routines) {
  for (const Workload &W : allWorkloads()) {
    Module M;
    Function &F = W.Build(M);
    sameLiveness(F, W.Routine);
    optimizeFunction(F);
    sameLiveness(F, W.Routine + " optimized");
  }
}

TEST(LivenessDiffTest, Corpus) {
  forEachCorpusFunction(
      [](Module &, Function &F, const std::string &File) {
        sameLiveness(F, File);
      });
}

TEST(LivenessDiffTest, RandomPrograms) {
  for (uint64_t Seed = 0; Seed < 240; ++Seed) {
    Module M;
    Function &F = buildRandomProgram(M, Seed);
    sameLiveness(F, "random seed " + std::to_string(Seed));
  }
}

TEST(LivenessDiffTest, RandomStress75Regions) {
  Module M;
  Function &F = buildRandomStress(M, 20260808, 75, "stress75");
  sameLiveness(F, "stress75");
}

TEST(LivenessDiffTest, RenumberedMegaRandom) {
  const std::vector<MegaKernel> &Family = megaKernelFamily();
  auto It = std::find_if(Family.begin(), Family.end(), [](const MegaKernel &K) {
    return K.Name == "mega.rand.16k";
  });
  ASSERT_NE(It, Family.end());
  Module M;
  Function &F = It->Build(M);
  renumberLiveRanges(F, CFG::compute(F));
  sameLiveness(F, It->Name);
}

/// A hand-built function and one bit the solution must hold.
struct HandCase {
  const char *Name;
  /// Builds the function; returns the register and block of the bit.
  std::function<std::pair<VRegId, uint32_t>(IRBuilder &)> Build;
};

const HandCase HandCases[] = {
    // The dead block has no predecessors but still flows into the
    // join, so x is live through it.
    {"unreachable block feeding a join",
     [](IRBuilder &B) {
       uint32_t Entry = B.newBlock("entry"), Dead = B.newBlock("dead");
       uint32_t Join = B.newBlock("join");
       VRegId X = B.iReg("x");
       B.setInsertPoint(Entry);
       B.movI(1, X);
       B.jmp(Join);
       B.setInsertPoint(Dead);
       B.addI(B.iReg("y"), 1);
       B.jmp(Join);
       B.setInsertPoint(Join);
       B.ret(B.add(X, X));
       return std::pair{X, Dead};
     }},
    // u is read before any def on every path: live into the entry.
    {"use no def reaches",
     [](IRBuilder &B) {
       uint32_t Entry = B.newBlock("entry"), Exit = B.newBlock("exit");
       VRegId U = B.iReg("u");
       B.setInsertPoint(Entry);
       VRegId N = B.movI(3);
       B.jmp(Exit);
       B.setInsertPoint(Exit);
       B.ret(B.add(U, N));
       return std::pair{U, Entry};
     }},
    // i is read then redefined in its own block: live in and out of it.
    {"self-loop redefinition",
     [](IRBuilder &B) {
       uint32_t Entry = B.newBlock("entry"), Loop = B.newBlock("loop");
       uint32_t Exit = B.newBlock("exit");
       VRegId I = B.iReg("i"), N = B.iReg("n");
       B.setInsertPoint(Entry);
       B.movI(0, I);
       B.movI(10, N);
       B.jmp(Loop);
       B.setInsertPoint(Loop);
       B.addI(I, 1, I);
       B.br(CmpKind::LT, I, N, Loop, Exit);
       B.setInsertPoint(Exit);
       B.ret(I);
       return std::pair{I, Loop};
     }},
    // d is defined twice and never read; only a stays live.
    {"dead defs",
     [](IRBuilder &B) {
       uint32_t Entry = B.newBlock("entry"), Exit = B.newBlock("exit");
       VRegId A = B.iReg("a"), D = B.iReg("d");
       B.setInsertPoint(Entry);
       B.movI(1, A);
       B.movI(2, D);
       B.jmp(Exit);
       B.setInsertPoint(Exit);
       B.addI(A, 5, D);
       B.ret(A);
       return std::pair{A, Exit};
     }},
    // Entry branches into both halves of a loop, so neither half
    // dominates the other; s, read in the second half, is live around
    // the whole cycle.
    {"irreducible two-entry loop",
     [](IRBuilder &B) {
       uint32_t Entry = B.newBlock("entry"), H1 = B.newBlock("h1");
       uint32_t H2 = B.newBlock("h2"), Exit = B.newBlock("exit");
       VRegId S = B.iReg("s"), I = B.iReg("i"), N = B.iReg("n");
       B.setInsertPoint(Entry);
       B.movI(0, I);
       B.movI(4, S);
       B.movI(9, N);
       B.br(CmpKind::LT, I, S, H1, H2);
       B.setInsertPoint(H1);
       B.addI(I, 1, I);
       B.jmp(H2);
       B.setInsertPoint(H2);
       B.add(I, S, I);
       B.br(CmpKind::LT, I, N, H1, Exit);
       B.setInsertPoint(Exit);
       B.ret(I);
       return std::pair{S, H1};
     }},
};

TEST(LivenessDiffTest, HandBuiltFunctions) {
  for (const HandCase &C : HandCases) {
    Module M;
    Function &F = M.newFunction("f");
    IRBuilder B(M, F);
    auto [Reg, Block] = C.Build(B);
    Liveness LV = sameLiveness(F, C.Name);
    EXPECT_TRUE(LV.isLiveIn(Block, Reg)) << C.Name;
  }
}

} // namespace
