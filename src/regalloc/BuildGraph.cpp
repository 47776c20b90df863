//===- regalloc/BuildGraph.cpp - Interference graph construction ----------===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "regalloc/BuildGraph.h"

#include "support/Budget.h"
#include "support/Trace.h"
#include "support/TwoLevelBitSet.h"

#include <algorithm>

using namespace ra;

namespace {

/// Walks every block backward from live-out, invoking
/// \p AddInterference(Def, Live) for each def against each live range
/// live just after it (excluding a Copy's source), in ascending order of
/// the live range. Polls \p Gov once per block and stops the walk when
/// the budget trips. The live set visits and clears only its non-zero
/// words, so a def costs its live ranges and a block its live-out list,
/// not the register count.
template <typename CallableT>
void forEachInterference(const Function &F, const Liveness &LV,
                         CallableT AddInterference, Budget *Gov = nullptr) {
  TwoLevelBitSet LiveNow(F.numVRegs());
  for (const BasicBlock &B : F.blocks()) {
    if (Gov && !Gov->checkpoint())
      return;
    LiveNow.assign(LV.liveOut(B.Id));
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

/// Smallest pair slab the build reserves (and charges) at a time.
constexpr size_t MinPairSlab = 1024;

} // namespace

std::array<ClassGraph, NumRegClasses>
ra::buildInterferenceGraphs(const Function &F, const Liveness &LV,
                            Budget *Gov) {
  RA_TRACE_SPAN("BuildGraph", "regalloc");
  std::array<ClassGraph, NumRegClasses> Out;

  // Dense node numbering per class, in ascending vreg order so node ids
  // follow live-range creation order (deterministic tie-breaking).
  for (unsigned C = 0; C < NumRegClasses; ++C) {
    Out[C].Class = static_cast<RegClass>(C);
    Out[C].VRegToNode.assign(F.numVRegs(), ~0u);
  }
  for (VRegId R = 0; R < F.numVRegs(); ++R) {
    ClassGraph &CG = Out[static_cast<unsigned>(F.regClass(R))];
    CG.VRegToNode[R] = CG.NodeToVReg.size();
    CG.NodeToVReg.push_back(R);
  }
  for (unsigned C = 0; C < NumRegClasses; ++C) {
    ClassGraph &CG = Out[C];
    CG.Graph.reset(CG.NodeToVReg.size());
    for (unsigned N = 0; N < CG.NodeToVReg.size(); ++N) {
      const VRegInfo &Info = F.vreg(CG.NodeToVReg[N]);
      CG.Graph.node(N).ExternalId = CG.NodeToVReg[N];
      CG.Graph.node(N).NoSpill = Info.IsSpillTemp;
    }
  }

  // The raw pairs are the build's one allocation that grows with the
  // walk: reserve them in doubling slabs and charge each slab before it
  // exists. A refused charge latches the token, drops the rest of this
  // block's pairs (every later request is refused too: nothing is
  // released mid-build) and ends the walk at the next checkpoint.
  ScopedCharge PairCharge(Gov, 0);
  forEachInterference(
      F, LV,
      [&](VRegId D, VRegId L) {
        if (F.regClass(D) != F.regClass(L))
          return; // disjoint files never compete for a register
        ClassGraph &CG = Out[static_cast<unsigned>(F.regClass(D))];
        InterferenceGraph &G = CG.Graph;
        if (G.numPairs() == G.pairCapacity()) {
          size_t More = std::max<size_t>(G.pairCapacity(), MinPairSlab);
          if (!PairCharge.grow(More * InterferenceGraph::PairBytes))
            return;
          G.reservePairs(G.pairCapacity() + More);
        }
        G.addEdge(CG.VRegToNode[D], CG.VRegToNode[L]);
      },
      Gov);
  // Pack adjacency into CSR here, once, before coloring reads the rows.
  for (ClassGraph &CG : Out)
    CG.Graph.finalize();
  return Out;
}

void ra::setNodeCosts(const Function &F, const std::vector<double> &Costs,
                      ClassGraph &CG) {
  assert(Costs.size() == F.numVRegs() && "cost table size mismatch");
  (void)F;
  for (unsigned N = 0; N < CG.Graph.numNodes(); ++N)
    CG.Graph.node(N).SpillCost = Costs[CG.NodeToVReg[N]];
}
