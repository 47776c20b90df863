//===- tests/BuildGraphReference.cpp - Matrix-based graph build -----------===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "BuildGraphReference.h"

using namespace ra;

namespace {

/// Walks every block backward from live-out, invoking
/// \p AddInterference(Def, Live) for each def against each live range
/// live just after it (excluding a Copy's source).
template <typename CallableT>
void forEachInterference(const Function &F, const LivenessSets &LV,
                         CallableT AddInterference) {
  BitVector LiveNow;
  for (const BasicBlock &B : F.blocks()) {
    LiveNow = LV.LiveOut[B.Id];
    for (auto It = B.Insts.rbegin(), E = B.Insts.rend(); It != E; ++It) {
      const Instruction &I = *It;
      if (I.hasDef()) {
        VRegId D = I.defReg();
        // For a copy "d = s", d and s may share a register: exclude s.
        VRegId CopySrc = I.isCopy() ? I.Ops[1].Reg : InvalidVReg;
        LiveNow.forEachSetBit([&](unsigned L) {
          if (L != D && L != CopySrc)
            AddInterference(D, VRegId(L));
        });
        LiveNow.reset(D);
      }
      I.forEachUse([&](VRegId U) { LiveNow.set(U); });
    }
  }
}

} // namespace

std::array<MatrixClassGraph, NumRegClasses>
ra::buildInterferenceGraphsReference(const Function &F,
                                     const LivenessSets &LV) {
  std::array<MatrixClassGraph, NumRegClasses> Out;

  // Dense node numbering per class, in ascending vreg order so node ids
  // follow live-range creation order (deterministic tie-breaking).
  for (unsigned C = 0; C < NumRegClasses; ++C) {
    Out[C].Class = static_cast<RegClass>(C);
    Out[C].VRegToNode.assign(F.numVRegs(), ~0u);
  }
  for (VRegId R = 0; R < F.numVRegs(); ++R) {
    MatrixClassGraph &CG = Out[static_cast<unsigned>(F.regClass(R))];
    CG.VRegToNode[R] = CG.NodeToVReg.size();
    CG.NodeToVReg.push_back(R);
  }
  for (unsigned C = 0; C < NumRegClasses; ++C) {
    MatrixClassGraph &CG = Out[C];
    CG.Graph.reset(CG.NodeToVReg.size());
    for (unsigned N = 0; N < CG.NodeToVReg.size(); ++N) {
      const VRegInfo &Info = F.vreg(CG.NodeToVReg[N]);
      CG.Graph.node(N).ExternalId = CG.NodeToVReg[N];
      CG.Graph.node(N).NoSpill = Info.IsSpillTemp;
    }
  }

  forEachInterference(F, LV, [&](VRegId D, VRegId L) {
    if (F.regClass(D) != F.regClass(L))
      return; // disjoint files never compete for a register
    MatrixClassGraph &CG = Out[static_cast<unsigned>(F.regClass(D))];
    CG.Graph.addEdge(CG.VRegToNode[D], CG.VRegToNode[L]);
  });
  return Out;
}

TriangularBitMatrix ra::buildInterferenceMatrix(const Function &F,
                                                const LivenessSets &LV) {
  TriangularBitMatrix M(F.numVRegs());
  forEachInterference(F, LV, [&](VRegId D, VRegId L) {
    if (F.regClass(D) == F.regClass(L))
      M.set(D, L);
  });
  return M;
}
