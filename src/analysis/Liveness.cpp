//===- analysis/Liveness.cpp - Backward live-variable analysis ------------===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "analysis/Liveness.h"

#include <utility>

using namespace ra;

Liveness Liveness::compute(const Function &F, const CFG &G) {
  Liveness L;
  unsigned NB = F.numBlocks(), NR = F.numVRegs();
  L.LiveIn.assign(NB, BitVector(NR));
  L.LiveOut.assign(NB, BitVector(NR));
  L.UEVar.assign(NB, BitVector(NR));
  L.VarKill.assign(NB, BitVector(NR));

  // Local sets: UEVar collects uses not preceded by a local kill.
  for (const BasicBlock &B : F.blocks()) {
    BitVector &UE = L.UEVar[B.Id], &Kill = L.VarKill[B.Id];
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

  // Two sets reused across visits; a changed block swaps them with
  // its stored sets, so the fixpoint allocates nothing per visit.
  BitVector Out(NR), In(NR);
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (uint32_t B : Order) {
      Out.clearAll();
      for (uint32_t S : G.succs(B))
        Out.unionWith(L.LiveIn[S]);
      In = Out;
      In.subtract(L.VarKill[B]);
      In.unionWith(L.UEVar[B]);
      if (!(Out == L.LiveOut[B]) || !(In == L.LiveIn[B])) {
        std::swap(L.LiveOut[B], Out);
        std::swap(L.LiveIn[B], In);
        Changed = true;
      }
    }
  }
  return L;
}

void Liveness::update(const Function &F, const CFG &G,
                      const std::vector<VRegId> &Regs) {
  BitVector Changed(F.numVRegs());
  for (VRegId R : Regs)
    Changed.set(R);
  // Drop the old bits: bit by bit for a few registers, a word at a time
  // once there are about as many registers as words per set.
  bool ByWord = Regs.size() * 64 >= F.numVRegs();
  for (std::vector<BitVector> *Sets : {&LiveIn, &LiveOut, &UEVar, &VarKill})
    for (BitVector &Set : *Sets) {
      if (ByWord) {
        Set.subtract(Changed);
        continue;
      }
      for (VRegId R : Regs)
        Set.reset(R);
    }

  // Local sets of the changed registers, noting each upward-exposed use.
  std::vector<std::pair<VRegId, uint32_t>> Exposed;
  for (const BasicBlock &B : F.blocks()) {
    BitVector &UE = UEVar[B.Id], &Kill = VarKill[B.Id];
    for (const Instruction &I : B.Insts) {
      I.forEachUse([&](VRegId R) {
        if (Changed.test(R) && !Kill.test(R) && UE.testAndSet(R))
          Exposed.push_back({R, B.Id});
      });
      if (I.hasDef() && Changed.test(I.defReg()))
        Kill.set(I.defReg());
    }
  }

  // A register is live into a block iff an upward-exposed use is
  // reachable from it without passing a def: the least fixpoint that
  // compute's iteration reaches, one register at a time.
  std::vector<uint32_t> Work;
  for (auto [R, Use] : Exposed) {
    if (!LiveIn[Use].testAndSet(R))
      continue; // already reached from another use
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
