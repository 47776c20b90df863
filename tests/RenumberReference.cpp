//===- tests/RenumberReference.cpp - Dense renumbering reference ----------===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "RenumberReference.h"

#include "support/BitVector.h"
#include "support/UnionFind.h"

#include <cassert>
#include <map>

using namespace ra;

namespace {

/// Reaching-definitions solver plus web construction for one function.
class Renumberer {
public:
  Renumberer(Function &F, const CFG &G) : F(F), G(G) {}

  RenumberStats run() {
    RenumberStats Stats;
    Stats.VRegsBefore = F.numVRegs();
    enumerateDefs();
    solveReachingDefs();
    buildWebs();
    rewrite();
    Stats.VRegsAfter = F.numVRegs();
    return Stats;
  }

private:
  void enumerateDefs() {
    DefsOf.assign(F.numVRegs(), {});
    for (const BasicBlock &B : F.blocks())
      for (const Instruction &I : B.Insts)
        if (I.hasDef()) {
          uint32_t D = DefVReg.size();
          DefVReg.push_back(I.defReg());
          DefsOf[I.defReg()].push_back(D);
        }
  }

  void solveReachingDefs() {
    unsigned NB = F.numBlocks(), ND = DefVReg.size();
    Gen.assign(NB, BitVector(ND));
    Kill.assign(NB, BitVector(ND));
    In.assign(NB, BitVector(ND));
    Out.assign(NB, BitVector(ND));

    // Local Gen/Kill: the last def of a vreg in the block survives.
    uint32_t NextDef = 0;
    for (const BasicBlock &B : F.blocks()) {
      BitVector &G_ = Gen[B.Id], &K = Kill[B.Id];
      for (const Instruction &I : B.Insts) {
        if (!I.hasDef())
          continue;
        uint32_t D = NextDef++;
        VRegId V = I.defReg();
        for (uint32_t Other : DefsOf[V]) {
          K.set(Other);
          G_.reset(Other);
        }
        G_.set(D);
        K.reset(D);
      }
    }

    // Forward fixpoint over the RPO.
    bool Changed = true;
    while (Changed) {
      Changed = false;
      for (uint32_t B : G.rpo()) {
        BitVector NewIn(ND);
        for (uint32_t P : G.preds(B))
          NewIn.unionWith(Out[P]);
        BitVector NewOut = NewIn;
        NewOut.subtract(Kill[B]);
        NewOut.unionWith(Gen[B]);
        if (!(NewIn == In[B]) || !(NewOut == Out[B])) {
          In[B] = std::move(NewIn);
          Out[B] = std::move(NewOut);
          Changed = true;
        }
      }
    }
  }

  /// Walks every block forward, uniting all definitions that reach a
  /// common use into one web.
  void buildWebs() {
    Webs.reset(DefVReg.size());
    unsigned NR = F.numVRegs();

    // Per-vreg list of currently reaching def ids, rebuilt per block.
    std::vector<std::vector<uint32_t>> Reaching(NR);

    uint32_t NextDef = 0;
    for (const BasicBlock &B : F.blocks()) {
      for (auto &L : Reaching)
        L.clear();
      In[B.Id].forEachSetBit(
          [&](unsigned D) { Reaching[DefVReg[D]].push_back(D); });

      for (const Instruction &I : B.Insts) {
        I.forEachUse([&](VRegId V) {
          const std::vector<uint32_t> &Ds = Reaching[V];
          for (unsigned K = 1; K < Ds.size(); ++K)
            Webs.unite(Ds[0], Ds[K]);
        });
        if (I.hasDef()) {
          uint32_t D = NextDef++;
          Reaching[I.defReg()] = {D};
        }
      }
    }
  }

  /// Second walk: assign dense new register ids per web and rewrite all
  /// operands.
  void rewrite() {
    unsigned NR = F.numVRegs();
    std::vector<VRegInfo> NewTable;
    std::map<uint32_t, VRegId> WebToNew; // UF root -> new id
    std::vector<unsigned> SplitCount(NR, 0);
    // Lazily created webs for never-defined registers (kept so that a
    // malformed function stays structurally intact).
    std::vector<VRegId> UndefWeb(NR, InvalidVReg);

    auto NewRegForWeb = [&](uint32_t Root, VRegId OldV) -> VRegId {
      auto It = WebToNew.find(Root);
      if (It != WebToNew.end())
        return It->second;
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

    std::vector<std::vector<uint32_t>> Reaching(NR);
    uint32_t NextDef = 0;
    for (BasicBlock &B : F.blocks()) {
      for (auto &L : Reaching)
        L.clear();
      In[B.Id].forEachSetBit(
          [&](unsigned D) { Reaching[DefVReg[D]].push_back(D); });

      for (Instruction &I : B.Insts) {
        I.forEachUseOperand([&](Operand &O) {
          VRegId V = O.Reg;
          if (Reaching[V].empty()) {
            O = Operand::reg(UndefRegFor(V));
            return;
          }
          O = Operand::reg(NewRegForWeb(Webs.find(Reaching[V][0]), V));
        });
        if (I.hasDef()) {
          uint32_t D = NextDef++;
          VRegId V = I.defReg();
          I.setDefReg(NewRegForWeb(Webs.find(D), V));
          Reaching[V] = {D};
        }
      }
    }

    F.setVRegTable(std::move(NewTable));
  }

  Function &F;
  const CFG &G;

  std::vector<VRegId> DefVReg;                ///< def id -> defined vreg
  std::vector<std::vector<uint32_t>> DefsOf;  ///< vreg -> def ids
  std::vector<BitVector> Gen, Kill, In, Out;  ///< reaching defs, per block
  UnionFind Webs;
};

} // namespace

RenumberStats ra::renumberLiveRangesReference(Function &F,
                                             const CFG &G) {
  return Renumberer(F, G).run();
}
