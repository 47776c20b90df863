//===- tests/AnalysisPropertyTest.cpp - analyses vs brute force -----------===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Randomized cross-checks of the dataflow machinery against independent
// brute-force implementations: dominance by reachability-after-removal,
// liveness by per-instruction backward propagation. The generated CFGs
// are arbitrary digraphs (including irreducible shapes), which the
// structured workloads never produce.
//
//===----------------------------------------------------------------------===//

#include "analysis/CFG.h"
#include "analysis/Dominators.h"
#include "LivenessReference.h"
#include "analysis/Liveness.h"
#include "analysis/LoopInfo.h"
#include "ir/IRBuilder.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

using namespace ra;

namespace {

/// Builds a random CFG with \p NumBlocks blocks whose bodies use a
/// small pool of integer registers (liveness does not require
/// definite assignment, so defs and uses are placed freely).
struct RandomCfg {
  Module M;
  Function *F;
  std::vector<VRegId> Pool;

  RandomCfg(uint64_t Seed, unsigned NumBlocks, unsigned PoolSize = 6) {
    Rng R(Seed);
    F = &M.newFunction("rand");
    IRBuilder B(M, *F);
    for (unsigned I = 0; I < NumBlocks; ++I)
      B.newBlock("b" + std::to_string(I));
    for (unsigned I = 0; I < PoolSize; ++I)
      Pool.push_back(F->newVReg(RegClass::Int, "p" + std::to_string(I)));

    for (unsigned I = 0; I < NumBlocks; ++I) {
      B.setInsertPoint(I);
      // A few random def/use instructions.
      unsigned N = 1 + unsigned(R.nextBelow(4));
      for (unsigned S = 0; S < N; ++S) {
        VRegId D = Pool[R.nextBelow(Pool.size())];
        VRegId U1 = Pool[R.nextBelow(Pool.size())];
        VRegId U2 = Pool[R.nextBelow(Pool.size())];
        switch (R.nextBelow(3)) {
        case 0:
          B.movI(int64_t(R.nextBelow(100)), D);
          break;
        case 1:
          B.add(U1, U2, D);
          break;
        case 2:
          B.addI(U1, 1, D);
          break;
        }
      }
      // Random terminator.
      switch (R.nextBelow(4)) {
      case 0:
        B.ret(Pool[R.nextBelow(Pool.size())]);
        break;
      case 1:
        B.jmp(uint32_t(R.nextBelow(NumBlocks)));
        break;
      default:
        B.br(CmpKind::LT, Pool[R.nextBelow(Pool.size())],
             Pool[R.nextBelow(Pool.size())],
             uint32_t(R.nextBelow(NumBlocks)),
             uint32_t(R.nextBelow(NumBlocks)));
        break;
      }
    }
  }
};

/// Reachability from \p From, optionally treating \p Removed as absent.
std::vector<bool> reachable(const Function &F, uint32_t From,
                            int32_t Removed) {
  std::vector<bool> Seen(F.numBlocks(), false);
  if (int32_t(From) == Removed)
    return Seen;
  std::vector<uint32_t> Work{From};
  Seen[From] = true;
  while (!Work.empty()) {
    uint32_t B = Work.back();
    Work.pop_back();
    for (uint32_t S : F.block(B).successors())
      if (int32_t(S) != Removed && !Seen[S]) {
        Seen[S] = true;
        Work.push_back(S);
      }
  }
  return Seen;
}

class AnalysisSeeds : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AnalysisSeeds, DominatorsMatchRemovalReachability) {
  RandomCfg T(GetParam(), 12);
  CFG G = CFG::compute(*T.F);
  Dominators D = Dominators::compute(*T.F, G);

  std::vector<bool> FromEntry = reachable(*T.F, T.F->entry(), -1);
  for (uint32_t A = 0; A < T.F->numBlocks(); ++A) {
    if (!FromEntry[A])
      continue;
    // Ground truth: A dominates B iff removing A cuts B off from entry.
    std::vector<bool> Without = reachable(*T.F, T.F->entry(), int32_t(A));
    for (uint32_t B = 0; B < T.F->numBlocks(); ++B) {
      if (!FromEntry[B])
        continue;
      bool Truth = (A == B) || !Without[B];
      EXPECT_EQ(D.dominates(A, B), Truth)
          << "seed " << GetParam() << ": dom(" << A << ", " << B << ")";
    }
  }
}

TEST_P(AnalysisSeeds, LivenessMatchesInstructionLevelFixpoint) {
  RandomCfg T(GetParam(), 10);
  const Function &F = *T.F;
  CFG G = CFG::compute(F);
  Liveness LV = Liveness::compute(F, G);

  // Brute force: one live set per instruction position, iterated to a
  // fixpoint with no block-level summaries.
  unsigned NR = F.numVRegs();
  std::vector<std::vector<BitVector>> LiveBefore(F.numBlocks());
  for (uint32_t B = 0; B < F.numBlocks(); ++B)
    LiveBefore[B].assign(F.block(B).Insts.size() + 1, BitVector(NR));

  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (uint32_t B = 0; B < F.numBlocks(); ++B) {
      const auto &Insts = F.block(B).Insts;
      // After the last instruction: union of successors' entry sets.
      BitVector Out(NR);
      for (uint32_t S : F.block(B).successors())
        Out.unionWith(LiveBefore[S][0]);
      if (!(Out == LiveBefore[B][Insts.size()])) {
        LiveBefore[B][Insts.size()] = Out;
        Changed = true;
      }
      for (unsigned I = Insts.size(); I-- > 0;) {
        BitVector Cur = LiveBefore[B][I + 1];
        if (Insts[I].hasDef())
          Cur.reset(Insts[I].defReg());
        Insts[I].forEachUse([&](VRegId R) { Cur.set(R); });
        if (!(Cur == LiveBefore[B][I])) {
          LiveBefore[B][I] = Cur;
          Changed = true;
        }
      }
    }
  }

  LivenessSets Sets = denseSets(F, LV);
  for (uint32_t B = 0; B < F.numBlocks(); ++B) {
    EXPECT_TRUE(Sets.LiveIn[B] == LiveBefore[B][0])
        << "seed " << GetParam() << " live-in of block " << B;
    EXPECT_TRUE(Sets.LiveOut[B] ==
                LiveBefore[B][F.block(B).Insts.size()])
        << "seed " << GetParam() << " live-out of block " << B;
  }
}

TEST_P(AnalysisSeeds, LoopDepthsAreConsistentWithBackEdges) {
  RandomCfg T(GetParam(), 12);
  CFG G = CFG::compute(*T.F);
  Dominators D = Dominators::compute(*T.F, G);
  LoopInfo LI = LoopInfo::compute(*T.F, G, D);

  // Every loop header must be the target of a back edge from inside
  // its own body, and depth(header) >= 1.
  for (const Loop &L : LI.loops()) {
    EXPECT_GE(LI.depth(L.Header), 1u);
    bool HasLatch = false;
    for (uint32_t B : L.Blocks)
      for (uint32_t S : T.F->block(B).successors())
        if (S == L.Header)
          HasLatch = true;
    EXPECT_TRUE(HasLatch) << "header " << L.Header;
    // The header dominates every block of its natural loop.
    for (uint32_t B : L.Blocks)
      if (G.isReachable(B)) {
        EXPECT_TRUE(D.dominates(L.Header, B));
      }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AnalysisSeeds,
                         ::testing::Range(uint64_t(100), uint64_t(120)));

} // namespace
