//===- tests/CoalesceReference.cpp - Matrix coalescing reference ----------===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "CoalesceReference.h"
#include "BuildGraphReference.h"

#include "support/UnionFind.h"

#include <algorithm>

using namespace ra;

unsigned ra::coalesceOnePassReference(Function &F, const CFG &G,
                                      CoalescePolicy Policy,
                                      const std::optional<MachineInfo> &Machine,
                                      std::vector<CoalescedCopy> *Merges) {
  TriangularBitMatrix Matrix =
      buildInterferenceMatrix(F, computeLivenessReference(F, G));
  unsigned NR = F.numVRegs();

  // Degrees per vreg, needed by the conservative test.
  std::vector<uint32_t> Degree;
  if (Policy == CoalescePolicy::Conservative) {
    assert(Machine && "conservative coalescing needs register counts");
    Degree.assign(NR, 0);
    for (VRegId A = 0; A < NR; ++A)
      for (VRegId B = A + 1; B < NR; ++B)
        if (Matrix.test(A, B)) {
          ++Degree[A];
          ++Degree[B];
        }
  }

  // Briggs' test: the merged node is safe if it has fewer than k
  // neighbors whose own degree is >= k (low-degree neighbors can always
  // be simplified away first).
  auto ConservativelySafe = [&](VRegId D, VRegId S) {
    unsigned K = Machine->numRegs(F.regClass(D));
    unsigned Significant = 0;
    for (VRegId N = 0; N < NR; ++N) {
      if (N == D || N == S)
        continue;
      if (!Matrix.test(N, D) && !Matrix.test(N, S))
        continue;
      // Merging may drop this neighbor's degree by one (it loses a
      // double edge); use the pre-merge degree as the safe upper bound.
      if (Degree[N] >= K)
        ++Significant;
    }
    return Significant < K;
  };

  UnionFind UF(F.numVRegs());
  // Interference info goes stale for registers already merged this pass;
  // copies touching them wait for the next round's rebuilt matrix.
  std::vector<bool> Touched(F.numVRegs(), false);
  unsigned Merged = 0;

  for (BasicBlock &B : F.blocks()) {
    for (Instruction &I : B.Insts) {
      if (!I.isCopy())
        continue;
      VRegId D = I.Ops[0].Reg, S = I.Ops[1].Reg;
      if (D == S || Touched[D] || Touched[S])
        continue;
      if (F.regClass(D) != F.regClass(S))
        continue;
      if (Matrix.test(D, S))
        continue;
      if (Policy == CoalescePolicy::Conservative &&
          !ConservativelySafe(D, S))
        continue;
      unsigned Root = UF.unite(D, S);
      if (Merges) {
        VRegId Gone = Root == D ? S : D;
        Merges->push_back(
            {F.vreg(Gone).Name, F.vreg(Root).Name, F.regClass(D)});
      }
      // A merge with a spill temporary stays protected from re-spilling.
      F.vreg(Root).IsSpillTemp =
          F.vreg(D).IsSpillTemp || F.vreg(S).IsSpillTemp;
      Touched[D] = Touched[S] = true;
      ++Merged;
    }
  }
  if (Merged == 0)
    return 0;

  // Rewrite all operands through the union-find, then drop copies that
  // became self-copies.
  for (BasicBlock &B : F.blocks()) {
    for (Instruction &I : B.Insts) {
      if (I.hasDef())
        I.setDefReg(UF.find(I.defReg()));
      I.forEachUseOperand(
          [&UF](Operand &O) { O = Operand::reg(UF.find(O.Reg)); });
    }
    std::erase_if(B.Insts, [](const Instruction &I) {
      return I.isCopy() && I.Ops[0].Reg == I.Ops[1].Reg;
    });
  }
  return Merged;
}
