//===- tests/LivenessReference.cpp - Round-robin liveness reference -------===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "LivenessReference.h"

#include <algorithm>
#include <functional>
#include <utility>

using namespace ra;

LivenessSets ra::computeLivenessReference(const Function &F, const CFG &G) {
  LivenessSets L;
  unsigned NB = F.numBlocks(), NR = F.numVRegs();
  L.LiveIn.assign(NB, BitVector(NR));
  L.LiveOut.assign(NB, BitVector(NR));
  std::vector<BitVector> UpwardExposed(NB, BitVector(NR)),
      Defs(NB, BitVector(NR));

  // Local sets: UpwardExposed collects uses not preceded by a local def.
  for (const BasicBlock &B : F.blocks()) {
    BitVector &UE = UpwardExposed[B.Id], &Kill = Defs[B.Id];
    for (const Instruction &I : B.Insts) {
      I.forEachUse([&](VRegId R) {
        if (!Kill.test(R))
          UE.set(R);
      });
      if (I.hasDef())
        Kill.set(I.defReg());
    }
  }

  // Backward fixpoint. Reverse RPO first for fast convergence on
  // reducible graphs; unreachable blocks (never in the RPO) are
  // appended so the equations hold on the whole graph.
  std::vector<uint32_t> Order(G.rpo().rbegin(), G.rpo().rend());
  for (uint32_t B = 0; B < NB; ++B)
    if (!G.isReachable(B))
      Order.push_back(B);

  BitVector Out(NR), In(NR);
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (uint32_t B : Order) {
      Out.clearAll();
      for (uint32_t S : G.succs(B))
        Out.unionWith(L.LiveIn[S]);
      In = Out;
      In.subtract(Defs[B]);
      In.unionWith(UpwardExposed[B]);
      if (!(Out == L.LiveOut[B]) || !(In == L.LiveIn[B])) {
        std::swap(L.LiveOut[B], Out);
        std::swap(L.LiveIn[B], In);
        Changed = true;
      }
    }
  }
  return L;
}

LivenessSets ra::denseSets(const Function &F, const Liveness &LV) {
  LivenessSets L;
  unsigned NB = F.numBlocks(), NR = F.numVRegs();
  L.LiveIn.assign(NB, BitVector(NR));
  L.LiveOut.assign(NB, BitVector(NR));
  for (VRegId R = 0; R < NR; ++R)
    for (uint32_t B : LV.liveInBlocks(R))
      L.LiveIn[B].set(R);
  for (uint32_t B = 0; B < NB; ++B)
    for (VRegId R : LV.liveOut(B))
      L.LiveOut[B].set(R);
  return L;
}

std::string ra::livenessMismatch(const Function &F, const Liveness &LV,
                                 const LivenessSets &Ref) {
  auto Ascending = [](auto List) {
    return std::adjacent_find(List.begin(), List.end(),
                              std::greater_equal<>()) == List.end();
  };
  for (VRegId R = 0; R < F.numVRegs(); ++R)
    if (!Ascending(LV.liveInBlocks(R)))
      return "live-in blocks of vreg " + std::to_string(R) +
             " not ascending";
  for (uint32_t B = 0; B < F.numBlocks(); ++B)
    if (!Ascending(LV.liveOut(B)))
      return "liveOut of block " + std::to_string(B) + " not ascending";
  LivenessSets Sets = denseSets(F, LV);
  for (uint32_t B = 0; B < Ref.LiveIn.size(); ++B) {
    if (!(Sets.LiveIn[B] == Ref.LiveIn[B]))
      return "liveIn of block " + std::to_string(B);
    if (!(Sets.LiveOut[B] == Ref.LiveOut[B]))
      return "liveOut of block " + std::to_string(B);
  }
  return "";
}
