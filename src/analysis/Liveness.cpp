//===- analysis/Liveness.cpp - Backward live-variable analysis ------------===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "analysis/Liveness.h"

using namespace ra;

namespace {

/// Adds \p B's defs of the registers \p Tracked accepts to \p Kill.
/// Each of them with an upward-exposed use is live into \p B: its bit
/// is set in \p In and the pair is noted once in \p Exposed.
template <typename TrackedT>
void scanLocal(const BasicBlock &B, BitVector &In, BitVector &Kill,
               TrackedT Tracked,
               std::vector<Liveness::RegBlock> &Exposed) {
  for (const Instruction &I : B.Insts) {
    I.forEachUse([&](VRegId R) {
      if (Tracked(R) && !Kill.test(R) && In.testAndSet(R))
        Exposed.push_back({R, B.Id});
    });
    if (I.hasDef() && Tracked(I.defReg()))
      Kill.set(I.defReg());
  }
}

} // namespace

Liveness Liveness::compute(const Function &F, const CFG &G) {
  Liveness L;
  unsigned NB = F.numBlocks(), NR = F.numVRegs();
  L.LiveIn.assign(NB, BitVector(NR));
  L.LiveOut.assign(NB, BitVector(NR));
  L.VarKill.assign(NB, BitVector(NR));

  std::vector<RegBlock> Exposed;
  for (const BasicBlock &B : F.blocks())
    scanLocal(B, L.LiveIn[B.Id], L.VarKill[B.Id],
              [](VRegId) { return true; }, Exposed);
  L.search(G, Exposed);
  return L;
}

void Liveness::search(const CFG &G, const std::vector<RegBlock> &Exposed) {
  std::vector<uint32_t> Work;
  for (auto [R, Use] : Exposed) {
    Work.push_back(Use);
    while (!Work.empty()) {
      uint32_t B = Work.back();
      Work.pop_back();
      for (uint32_t P : G.preds(B))
        if (LiveOut[P].testAndSet(R) && !VarKill[P].test(R) &&
            LiveIn[P].testAndSet(R))
          Work.push_back(P);
    }
  }
}

void Liveness::update(const Function &F, const CFG &G,
                      const std::vector<RegBlock> &Occurs) {
  // Clear the old bits. Every live-in bit was set by a walk back from
  // an upward-exposed use, which is an occurrence, through blocks where
  // the register is live; retracing those walks from every occurrence
  // finds each bit the register has.
  BitVector Changed(F.numVRegs()), Blocks(F.numBlocks());
  std::vector<uint32_t> Work;
  for (auto [R, Occ] : Occurs) {
    Changed.set(R);
    Blocks.set(Occ);
    VarKill[Occ].reset(R);
    if (!LiveIn[Occ].testAndReset(R))
      continue;
    Work.push_back(Occ);
    while (!Work.empty()) {
      uint32_t B = Work.back();
      Work.pop_back();
      for (uint32_t P : G.preds(B))
        if (LiveOut[P].testAndReset(R) && LiveIn[P].testAndReset(R))
          Work.push_back(P);
    }
  }

  // Only the named blocks hold occurrences of the changed registers.
  std::vector<RegBlock> Exposed;
  Blocks.forEachSetBit([&](unsigned B) {
    scanLocal(F.block(B), LiveIn[B], VarKill[B],
              [&](VRegId R) { return Changed.test(R); }, Exposed);
  });
  search(G, Exposed);
}
