//===- regalloc/Coalesce.cpp - Aggressive copy coalescing -----------------===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "regalloc/Coalesce.h"

#include "analysis/Liveness.h"
#include "regalloc/BuildGraph.h"
#include "support/Budget.h"
#include "support/Trace.h"
#include "support/UnionFind.h"

#include <algorithm>

using namespace ra;

namespace {

using VRegPair = std::pair<VRegId, VRegId>;

/// The copy pairs {A, B} (A < B, same class) that interfere: one is
/// defined while the other is live just after the def, the def's own
/// copy source excepted. This is exactly the interference matrix's
/// answer on every copy pair, found by testing each def only against
/// its register's copy partners instead of against every live range.
std::vector<VRegPair> interferingCopyPairs(const Function &F,
                                           const Liveness &LV) {
  // Same-class copy partners of each vreg, in CSR form. Self-copies add
  // none, so a register is never its own partner.
  unsigned NR = F.numVRegs();
  std::vector<VRegPair> Copies;
  for (const BasicBlock &B : F.blocks())
    for (const Instruction &I : B.Insts)
      if (I.isCopy()) {
        VRegId D = I.Ops[0].Reg, S = I.Ops[1].Reg;
        if (D != S && F.regClass(D) == F.regClass(S)) {
          Copies.push_back({D, S});
          Copies.push_back({S, D});
        }
      }
  std::sort(Copies.begin(), Copies.end());
  Copies.erase(std::unique(Copies.begin(), Copies.end()), Copies.end());
  std::vector<uint32_t> Offset(NR + 1, 0);
  for (const VRegPair &C : Copies)
    ++Offset[C.first + 1];
  for (unsigned R = 0; R < NR; ++R)
    Offset[R + 1] += Offset[R];

  std::vector<VRegPair> Interfering;
  BitVector LiveNow;
  for (const BasicBlock &B : F.blocks()) {
    LiveNow = LV.liveOut(B.Id);
    for (auto It = B.Insts.rbegin(), E = B.Insts.rend(); It != E; ++It) {
      const Instruction &I = *It;
      if (I.hasDef()) {
        VRegId D = I.defReg();
        VRegId CopySrc = I.isCopy() ? I.Ops[1].Reg : InvalidVReg;
        for (uint32_t K = Offset[D]; K != Offset[D + 1]; ++K) {
          VRegId P = Copies[K].second;
          if (P != CopySrc && LiveNow.test(P))
            Interfering.push_back({std::min(D, P), std::max(D, P)});
        }
        LiveNow.reset(D);
      }
      I.forEachUse([&](VRegId U) { LiveNow.set(U); });
    }
  }
  std::sort(Interfering.begin(), Interfering.end());
  Interfering.erase(std::unique(Interfering.begin(), Interfering.end()),
                    Interfering.end());
  return Interfering;
}

/// One build+merge round over the maintained liveness \p LV: merges
/// every coalescable copy whose operands were not already touched by a
/// merge this round, rewrites operands, deletes the dead copies, and
/// re-solves \p LV for the registers whose occurrences changed. Returns
/// the number of copies removed.
unsigned coalesceRound(Function &F, const CFG &G, Liveness &LV,
                       CoalescePolicy Policy,
                       const std::optional<MachineInfo> &Machine,
                       std::vector<CoalescedCopy> &Merges) {
  RA_TRACE_SPAN("CoalesceRound", "regalloc");
  unsigned NR = F.numVRegs();

  // Both policies read D--S interference from the copy pairs alone.
  std::vector<VRegPair> Interfering = interferingCopyPairs(F, LV);
  auto Interferes = [&](VRegId D, VRegId S) {
    return std::binary_search(Interfering.begin(), Interfering.end(),
                              VRegPair{std::min(D, S), std::max(D, S)});
  };

  // The conservative test also reads degrees and neighbors, from the
  // class graphs of the same liveness.
  std::array<ClassGraph, NumRegClasses> Graphs;
  std::vector<unsigned> Seen;
  unsigned Stamp = 0;
  if (Policy == CoalescePolicy::Conservative) {
    assert(Machine && "conservative coalescing needs register counts");
    Graphs = buildInterferenceGraphs(F, LV);
    Seen.assign(NR, 0);
  }

  // Briggs' test: the merged node is safe if it has fewer than k
  // neighbors whose own degree is >= k (low-degree neighbors can always
  // be simplified away first). A neighbor of both D and S counts once.
  auto ConservativelySafe = [&](VRegId D, VRegId S) {
    const ClassGraph &CG = Graphs[static_cast<unsigned>(F.regClass(D))];
    unsigned K = Machine->numRegs(CG.Class);
    uint32_t ND = CG.VRegToNode[D], NS = CG.VRegToNode[S];
    ++Stamp;
    Seen[ND] = Seen[NS] = Stamp;
    unsigned Significant = 0;
    for (uint32_t Node : {ND, NS})
      for (uint32_t N : CG.Graph.neighbors(Node)) {
        if (Seen[N] == Stamp)
          continue;
        Seen[N] = Stamp;
        // Merging may drop this neighbor's degree by one (it loses a
        // double edge); use the pre-merge degree as the safe upper bound.
        if (CG.Graph.degree(N) >= K)
          ++Significant;
      }
    return Significant < K;
  };

  UnionFind UF(NR);
  // Interference info goes stale for registers already merged this
  // round; copies touching them wait for the next round.
  std::vector<bool> Touched(NR, false);
  std::vector<VRegId> SelfCopied;
  unsigned Merged = 0;

  for (BasicBlock &B : F.blocks()) {
    for (Instruction &I : B.Insts) {
      if (!I.isCopy())
        continue;
      VRegId D = I.Ops[0].Reg, S = I.Ops[1].Reg;
      if (D == S) {
        SelfCopied.push_back(D);
        continue;
      }
      if (Touched[D] || Touched[S])
        continue;
      if (F.regClass(D) != F.regClass(S))
        continue;
      if (Interferes(D, S))
        continue;
      if (Policy == CoalescePolicy::Conservative &&
          !ConservativelySafe(D, S))
        continue;
      unsigned Root = UF.unite(D, S);
      VRegId Gone = Root == D ? S : D;
      Merges.push_back(
          {F.vreg(Gone).Name, F.vreg(Root).Name, F.regClass(D)});
      // A merge with a spill temporary stays protected from re-spilling.
      F.vreg(Root).IsSpillTemp =
          F.vreg(D).IsSpillTemp || F.vreg(S).IsSpillTemp;
      Touched[D] = Touched[S] = true;
      ++Merged;
    }
  }
  if (Merged == 0)
    return 0;
  // The input's self-copies are dropped below with the new ones, so
  // their registers lose occurrences without having merged.
  for (VRegId R : SelfCopied)
    Touched[R] = true;

  // Rewrite all operands through the union-find, noting each block a
  // touched register occurs in before or after the rewrite, then drop
  // copies that became self-copies. Only the touched registers gained
  // or lost occurrences; every other bit of LV is still exact.
  std::vector<Liveness::RegBlock> Occurs;
  for (BasicBlock &B : F.blocks()) {
    auto Rename = [&](VRegId R) {
      if (!Touched[R])
        return R;
      VRegId Root = UF.find(R);
      Occurs.push_back({R, B.Id});
      Occurs.push_back({Root, B.Id});
      return Root;
    };
    for (Instruction &I : B.Insts) {
      if (I.hasDef())
        I.setDefReg(Rename(I.defReg()));
      I.forEachUseOperand(
          [&](Operand &O) { O = Operand::reg(Rename(O.Reg)); });
    }
    std::erase_if(B.Insts, [](const Instruction &I) {
      return I.isCopy() && I.Ops[0].Reg == I.Ops[1].Reg;
    });
  }
  LV.update(F, G, Occurs);
  return Merged;
}

} // namespace

CoalesceStats ra::coalesceAll(Function &F, const CFG &G,
                              CoalescePolicy Policy,
                              const std::optional<MachineInfo> &Machine,
                              Budget *Gov) {
  RA_TRACE_SPAN("Coalesce", "regalloc");
  CoalesceStats Stats;
  Liveness LV;
  while (true) {
    if (Gov && !Gov->checkpoint())
      break; // over budget: stop merging; the IR is valid as-is
    if (Stats.Rounds == 0) // after the first poll: a spent budget skips it
      LV = Liveness::compute(F, G);
    unsigned Merged =
        coalesceRound(F, G, LV, Policy, Machine, Stats.Merges);
    ++Stats.Rounds;
    if (Merged == 0)
      break;
    Stats.CopiesRemoved += Merged;
  }
  RA_TRACE_COUNTER("coalesce.copies_removed", Stats.CopiesRemoved);
  RA_TRACE_COUNTER("coalesce.rounds", Stats.Rounds);
  return Stats;
}
