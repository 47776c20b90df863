//===- analysis/Renumber.cpp - Live-range renumbering ---------------------===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "analysis/Renumber.h"

#include "analysis/Liveness.h"
#include "support/UnionFind.h"

#include <algorithm>
#include <utility>

using namespace ra;

namespace {

/// Liveness-pruned web construction plus the rewrite for one function.
class Renumberer {
public:
  Renumberer(Function &F, const CFG &G)
      : F(F), G(G), LV(Liveness::compute(F, G)) {}

  RenumberStats run() {
    RenumberStats Stats;
    Stats.VRegsBefore = F.numVRegs();
    enumerateDefs();
    propagateDefs();
    rewrite();
    Stats.VRegsAfter = F.numVRegs();
    return Stats;
  }

private:
  /// The last definition of a vreg in one block.
  struct BlockDef {
    VRegId V;
    uint32_t Block;
    uint32_t Def;
  };

  /// Numbers every def in block order and lists, grouped by vreg, the
  /// last def of that vreg in each block that defines it.
  void enumerateDefs() {
    unsigned NR = F.numVRegs();
    std::vector<uint32_t> SlotOf(NR), SlotBlock(NR, ~0u);
    uint32_t NumDefs = 0;
    for (const BasicBlock &B : F.blocks())
      for (const Instruction &I : B.Insts) {
        if (!I.hasDef())
          continue;
        VRegId V = I.defReg();
        if (SlotBlock[V] != B.Id) {
          SlotBlock[V] = B.Id;
          SlotOf[V] = LastDefs.size();
          LastDefs.push_back({V, B.Id, 0});
        }
        LastDefs[SlotOf[V]].Def = NumDefs++;
      }
    Webs.reset(NumDefs);
    std::sort(LastDefs.begin(), LastDefs.end(),
              [](const BlockDef &A, const BlockDef &B) { return A.V < B.V; });
  }

  /// For each vreg V, pushes the last def of V in every reachable
  /// defining block forward into successors where V is live-in, stopping
  /// at blocks that redefine V. All defs that arrive at one block reach
  /// a common use, so they are united into one web; the first to arrive
  /// represents them in that block's entry list.
  void propagateDefs() {
    unsigned NB = F.numBlocks();
    EntryDefs.assign(NB, {});
    std::vector<uint32_t> ArrivedFor(NB, InvalidVReg), Rep(NB);
    // Stamped per vreg: the blocks that define it, and those it is live
    // into.
    std::vector<uint32_t> DefinedBy(NB, InvalidVReg), LiveInOf(NB, InvalidVReg);
    std::vector<uint32_t> Work;

    for (size_t K = 0; K < LastDefs.size();) {
      const VRegId V = LastDefs[K].V;
      size_t End = K;
      for (; End < LastDefs.size() && LastDefs[End].V == V; ++End)
        DefinedBy[LastDefs[End].Block] = V;
      for (uint32_t B : LV.liveInBlocks(V))
        LiveInOf[B] = V;
      auto Arrive = [&](uint32_t S, uint32_t D) {
        if (LiveInOf[S] != V)
          return;
        if (ArrivedFor[S] == V) {
          Webs.unite(Rep[S], D);
          return;
        }
        ArrivedFor[S] = V;
        Rep[S] = D;
        EntryDefs[S].push_back({V, D});
        if (DefinedBy[S] != V)
          Work.push_back(S);
      };
      for (; K < End; ++K) {
        const BlockDef &BD = LastDefs[K];
        if (!G.isReachable(BD.Block))
          continue; // unreachable blocks propagate nothing
        for (uint32_t S : G.succs(BD.Block))
          Arrive(S, BD.Def);
      }
      while (!Work.empty()) {
        uint32_t B = Work.back();
        Work.pop_back();
        for (uint32_t S : G.succs(B))
          Arrive(S, Rep[B]);
      }
    }
  }

  /// Walks every block forward from its entry list, assigning dense new
  /// register ids per web in order of first appearance and rewriting
  /// all operands.
  void rewrite() {
    unsigned NR = F.numVRegs();
    std::vector<VRegInfo> NewTable;
    std::vector<VRegId> WebToNew(Webs.size(), InvalidVReg); // root -> id
    std::vector<unsigned> SplitCount(NR, 0);
    // Lazily created webs for uses no def reaches (kept so that a
    // malformed function stays structurally intact).
    std::vector<VRegId> UndefWeb(NR, InvalidVReg);

    auto NewRegForWeb = [&](uint32_t Root, VRegId OldV) -> VRegId {
      if (WebToNew[Root] != InvalidVReg)
        return WebToNew[Root];
      const VRegInfo &Old = F.vreg(OldV);
      VRegInfo Info = Old;
      unsigned Seq = SplitCount[OldV]++;
      if (Seq > 0)
        Info.Name = Old.Name + "." + std::to_string(Seq);
      VRegId Id = NewTable.size();
      NewTable.push_back(std::move(Info));
      WebToNew[Root] = Id;
      return Id;
    };

    auto UndefRegFor = [&](VRegId OldV) -> VRegId {
      if (UndefWeb[OldV] != InvalidVReg)
        return UndefWeb[OldV];
      VRegId Id = NewTable.size();
      NewTable.push_back(F.vreg(OldV));
      UndefWeb[OldV] = Id;
      return Id;
    };

    // The def currently reaching each vreg, valid only while
    // CurBlock[V] names the block being walked.
    std::vector<uint32_t> CurBlock(NR, ~0u), CurDef(NR);
    uint32_t NextDef = 0;
    for (BasicBlock &B : F.blocks()) {
      for (auto [V, D] : EntryDefs[B.Id]) {
        CurBlock[V] = B.Id;
        CurDef[V] = D;
      }
      for (Instruction &I : B.Insts) {
        I.forEachUseOperand([&](Operand &O) {
          VRegId V = O.Reg;
          O = Operand::reg(CurBlock[V] == B.Id
                               ? NewRegForWeb(Webs.find(CurDef[V]), V)
                               : UndefRegFor(V));
        });
        if (I.hasDef()) {
          uint32_t D = NextDef++;
          VRegId V = I.defReg();
          I.setDefReg(NewRegForWeb(Webs.find(D), V));
          CurBlock[V] = B.Id;
          CurDef[V] = D;
        }
      }
    }

    F.setVRegTable(std::move(NewTable));
  }

  Function &F;
  const CFG &G;
  const Liveness LV;

  std::vector<BlockDef> LastDefs; ///< last def per (vreg, block), by vreg
  /// Block -> (vreg, representative def) for each vreg live into the
  /// block that some reachable def reaches.
  std::vector<std::vector<std::pair<VRegId, uint32_t>>> EntryDefs;
  UnionFind Webs; ///< over def ids
};

} // namespace

RenumberStats ra::renumberLiveRanges(Function &F, const CFG &G) {
  return Renumberer(F, G).run();
}
