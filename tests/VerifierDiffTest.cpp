//===- tests/VerifierDiffTest.cpp - Definite assignment vs the reference --===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Differential test for the verifier's definite-assignment check: every
// input is verified by verifyFunction, which asks Liveness whether a
// register is live into the entry block, and by the forward dataflow in
// VerifierReference.cpp, and the two must report the same messages in
// the same order. Every input passes the structural checks, so the
// reference's messages are verifyFunction's whole output.
//
// Inputs: the Figure 5 routines raw and optimized, the fuzz corpus,
// random programs, the mega test family and a few hand-built shapes.
// Verified inputs draw no message, so each is checked again after
// seeded deletions of defining instructions, which leave uses that some
// path from the entry reaches unassigned: through loops, joins and
// blocks that define the register only after reading it.
//
//===----------------------------------------------------------------------===//

#include "Corpus.h"
#include "VerifierReference.h"

#include "ir/IRBuilder.h"
#include "ir/Verifier.h"
#include "opt/Optimizer.h"
#include "support/Rng.h"
#include "workloads/MegaKernel.h"
#include "workloads/RandomProgram.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <functional>

using namespace ra;

namespace {

/// How many functions a test verified, and how many drew messages.
struct Tally {
  unsigned Functions = 0, Rejected = 0;
};

/// Verifies \p F both ways and requires the same messages in order.
void sameMessages(const Module &M, const Function &F, const std::string &What,
                  Tally &T) {
  std::vector<std::string> Got = verifyFunction(M, F);
  EXPECT_EQ(Got, definiteAssignmentReference(M, F)) << What;
  ++T.Functions;
  T.Rejected += !Got.empty();
}

/// Deletes \p N defining instructions of \p F, each picked by \p Seed
/// among those left.
void deleteDefs(Function &F, uint64_t Seed, unsigned N) {
  Rng R(Seed);
  for (unsigned K = 0; K < N; ++K) {
    std::vector<std::pair<uint32_t, uint32_t>> Defs;
    for (const BasicBlock &B : F.blocks())
      for (uint32_t I = 0; I < B.Insts.size(); ++I)
        if (B.Insts[I].hasDef())
          Defs.emplace_back(B.Id, I);
    if (Defs.empty())
      return;
    auto [Block, I] = Defs[R.nextBelow(Defs.size())];
    std::vector<Instruction> &Insts = F.block(Block).Insts;
    Insts.erase(Insts.begin() + I);
  }
}

/// Checks \p F as it stands, then three copies of it with 1, 3 and 5
/// defs deleted, seeded from \p Seed.
void checkWithDeletions(const Module &M, const Function &F, uint64_t Seed,
                        const std::string &What, Tally &T) {
  sameMessages(M, F, What, T);
  for (unsigned V = 0; V < 3; ++V) {
    Function Copy = F;
    deleteDefs(Copy, Seed * 3 + V, 1 + 2 * V);
    sameMessages(M, Copy, What + " deletion " + std::to_string(V), T);
  }
}

TEST(VerifierDiffTest, Figure5Routines) {
  Tally T;
  uint64_t Seed = 0;
  for (const Workload &W : allWorkloads()) {
    Module M;
    Function &F = W.Build(M);
    checkWithDeletions(M, F, Seed++, W.Routine, T);
    optimizeFunction(F);
    checkWithDeletions(M, F, Seed++, W.Routine + " optimized", T);
  }
  EXPECT_GT(T.Rejected, T.Functions / 4);
}

TEST(VerifierDiffTest, Corpus) {
  Tally T;
  uint64_t Seed = 100;
  forEachCorpusFunction([&](Module &M, Function &F, const std::string &File) {
    checkWithDeletions(M, F, Seed++, File, T);
  });
  EXPECT_GT(T.Rejected, 0u);
}

TEST(VerifierDiffTest, RandomPrograms) {
  Tally T;
  for (uint64_t Seed = 0; Seed < 2000; ++Seed) {
    Module M;
    checkWithDeletions(M, buildRandomProgram(M, Seed), Seed,
                       "random seed " + std::to_string(Seed), T);
  }
  EXPECT_GT(T.Rejected, T.Functions / 4);
}

TEST(VerifierDiffTest, MegaKernels) {
  Tally T;
  uint64_t Seed = 0;
  for (const MegaKernel &K : megaKernelTestFamily()) {
    Module M;
    checkWithDeletions(M, K.Build(M), Seed++, K.Name, T);
  }
  EXPECT_GT(T.Rejected, 0u);
}

/// A hand-built function where a walk could stop too early or run too
/// far.
struct HandCase {
  const char *Name;
  std::function<void(IRBuilder &)> Build;
};

const HandCase HandCases[] = {
    // The entry is its own loop: x is read before the def that the back
    // edge carries around, and y only after its def.
    {"entry self-loop",
     [](IRBuilder &B) {
       uint32_t Entry = B.newBlock("entry"), Exit = B.newBlock("exit");
       VRegId X = B.iReg("x"), Y = B.iReg("y");
       B.setInsertPoint(Entry);
       B.movI(1, Y);
       B.addI(X, 1, Y);
       B.movI(2, X);
       B.br(CmpKind::LT, X, Y, Entry, Exit);
       B.setInsertPoint(Exit);
       B.ret(Y);
     }},
    // Entry branches into both halves of a loop; h1 assigns s, h2 reads
    // it, and the path into h2 straight from the entry has no def.
    {"irreducible two-entry loop",
     [](IRBuilder &B) {
       uint32_t Entry = B.newBlock("entry"), H1 = B.newBlock("h1");
       uint32_t H2 = B.newBlock("h2"), Exit = B.newBlock("exit");
       VRegId S = B.iReg("s"), I = B.iReg("i");
       B.setInsertPoint(Entry);
       B.movI(0, I);
       B.br(CmpKind::LT, I, I, H1, H2);
       B.setInsertPoint(H1);
       B.movI(4, S);
       B.jmp(H2);
       B.setInsertPoint(H2);
       B.add(I, S, I);
       B.br(CmpKind::LT, I, S, H1, Exit);
       B.setInsertPoint(Exit);
       B.ret(I);
     }},
    // d reads x, then defines it, and flows into s, which reads x
    // again: only d's read is reported, for no path into s skips d.
    {"read after a block that reads, then defines",
     [](IRBuilder &B) {
       uint32_t Entry = B.newBlock("entry"), D = B.newBlock("d");
       uint32_t S = B.newBlock("s"), Exit = B.newBlock("exit");
       VRegId X = B.iReg("x");
       B.setInsertPoint(Entry);
       VRegId C = B.movI(0);
       B.br(CmpKind::EQ, C, C, D, Exit);
       B.setInsertPoint(D);
       B.addI(X, 1);
       B.movI(2, X);
       B.jmp(S);
       B.setInsertPoint(S);
       B.ret(B.addI(X, 1));
       B.setInsertPoint(Exit);
       B.ret();
     }},
    // u is read in a block that both the entry and an unreachable block
    // lead to; only the entry's path matters, and it assigns u.
    {"unreachable predecessor of a read",
     [](IRBuilder &B) {
       uint32_t Entry = B.newBlock("entry"), Dead = B.newBlock("dead");
       uint32_t Join = B.newBlock("join");
       VRegId U = B.iReg("u");
       B.setInsertPoint(Entry);
       B.movI(1, U);
       B.jmp(Join);
       B.setInsertPoint(Dead);
       B.jmp(Join);
       B.setInsertPoint(Join);
       B.ret(B.addI(U, 1));
     }},
};

TEST(VerifierDiffTest, HandBuiltFunctions) {
  Tally T;
  for (const HandCase &C : HandCases) {
    Module M;
    Function &F = M.newFunction("f");
    IRBuilder B(M, F);
    C.Build(B);
    sameMessages(M, F, C.Name, T);
  }
  EXPECT_EQ(T.Rejected, 3u);
}

} // namespace
