//===- opt/Optimizer.cpp - Classic loop optimizations ---------------------===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "opt/Optimizer.h"

#include "analysis/CFG.h"
#include "analysis/Dominators.h"
#include "analysis/LoopInfo.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <map>

using namespace ra;

namespace {

/// Redirects every block operand equal to \p From in \p I to \p To.
void retargetTerminator(Instruction &I, uint32_t From, uint32_t To) {
  for (Operand &O : I.Ops)
    if (O.isBlock() && O.Block == From)
      O = Operand::block(To);
}

/// True iff \p P already acts as a preheader for \p Header: its only
/// instruction is an unconditional jump to the header.
bool isPreheader(const Function &F, uint32_t P, uint32_t Header) {
  const BasicBlock &B = F.block(P);
  return B.Insts.size() >= 1 && B.Insts.back().Op == Opcode::Jmp &&
         B.Insts.back().Ops[0].Block == Header;
}

/// Per-function bookkeeping shared by LICM and strength reduction.
struct DefInfo {
  std::vector<uint32_t> DefCount; ///< total defs per vreg

  explicit DefInfo(const Function &F) {
    DefCount.assign(F.numVRegs(), 0);
    for (const BasicBlock &B : F.blocks())
      for (const Instruction &I : B.Insts)
        if (I.hasDef())
          ++DefCount[I.defReg()];
  }
};

/// Opcodes that may move or be replicated speculatively: pure and
/// trap-free. FSqrt traps on negative input, Div/Rem on zero, and loads
/// observe memory, so none of those belong here.
bool isSpeculatable(Opcode Op) {
  switch (Op) {
  case Opcode::MovI:
  case Opcode::MovF:
  case Opcode::Copy:
  case Opcode::Add:
  case Opcode::Sub:
  case Opcode::Mul:
  case Opcode::AddI:
  case Opcode::MulI:
  case Opcode::FAdd:
  case Opcode::FSub:
  case Opcode::FMul:
  case Opcode::FDiv:
  case Opcode::FNeg:
  case Opcode::FAbs:
  case Opcode::IToF:
  case Opcode::FToI:
    return true;
  default:
    return false;
  }
}

/// Loops sorted innermost-first (body size ascending), with preheader
/// and membership lookups.
struct LoopWork {
  Loop L;
  uint32_t Preheader = ~0u;
  std::vector<bool> InLoop; // indexed by block id
};

std::vector<LoopWork> collectLoops(Function &F) {
  CFG G = CFG::compute(F);
  Dominators D = Dominators::compute(F, G);
  LoopInfo LI = LoopInfo::compute(F, G, D);

  std::vector<LoopWork> Work;
  for (const Loop &L : LI.loops()) {
    if (L.Header == F.entry())
      continue; // cannot place a preheader before the entry
    LoopWork W;
    W.L = L;
    W.InLoop.assign(F.numBlocks(), false);
    for (uint32_t B : L.Blocks)
      W.InLoop[B] = true;
    // The preheader is the unique outside predecessor ending in an
    // unconditional jump (insertPreheaders guarantees it exists).
    for (uint32_t P : G.preds(L.Header))
      if (!W.InLoop[P] && isPreheader(F, P, L.Header)) {
        W.Preheader = P;
        break;
      }
    Work.push_back(std::move(W));
  }
  std::sort(Work.begin(), Work.end(),
            [](const LoopWork &A, const LoopWork &B) {
              return A.L.Blocks.size() < B.L.Blocks.size();
            });
  return Work;
}

} // namespace

unsigned ra::insertPreheaders(Function &F) {
  CFG G = CFG::compute(F);
  Dominators D = Dominators::compute(F, G);
  LoopInfo LI = LoopInfo::compute(F, G, D);

  unsigned Inserted = 0;
  for (const Loop &L : LI.loops()) {
    if (L.Header == F.entry())
      continue;
    std::vector<bool> InLoop(F.numBlocks(), false);
    for (uint32_t B : L.Blocks)
      InLoop[B] = true;

    std::vector<uint32_t> Entries;
    for (uint32_t P : G.preds(L.Header))
      if (!InLoop[P])
        Entries.push_back(P);
    if (Entries.size() == 1 && isPreheader(F, Entries[0], L.Header) &&
        F.block(Entries[0]).successors().size() == 1)
      continue; // already has one

    uint32_t Pre = F.newBlock(F.block(L.Header).Name + ".pre");
    for (uint32_t E : Entries)
      retargetTerminator(F.block(E).Insts.back(), L.Header, Pre);
    F.block(Pre).Insts.push_back(
        {Opcode::Jmp, {Operand::block(L.Header)}});
    ++Inserted;
  }
  return Inserted;
}

unsigned ra::hoistLoopInvariants(Function &F) {
  insertPreheaders(F);
  std::vector<LoopWork> Loops = collectLoops(F);
  DefInfo DI(F);
  unsigned Hoisted = 0;

  for (LoopWork &W : Loops) {
    if (W.Preheader == ~0u)
      continue;
    // Defs located inside this loop, per vreg.
    std::vector<uint32_t> DefsInLoop(F.numVRegs(), 0);
    for (uint32_t BId : W.L.Blocks)
      for (const Instruction &I : F.block(BId).Insts)
        if (I.hasDef())
          ++DefsInLoop[I.defReg()];

    BasicBlock &Pre = F.block(W.Preheader);
    bool Changed = true;
    while (Changed) {
      Changed = false;
      for (uint32_t BId : W.L.Blocks) {
        BasicBlock &B = F.block(BId);
        for (unsigned Idx = 0; Idx < B.Insts.size();) {
          Instruction &I = B.Insts[Idx];
          bool CanHoist = isSpeculatable(I.Op) && I.hasDef() &&
                          DI.DefCount[I.defReg()] == 1;
          if (CanHoist)
            I.forEachUse([&](VRegId R) {
              if (DefsInLoop[R] != 0)
                CanHoist = false;
            });
          if (!CanHoist) {
            ++Idx;
            continue;
          }
          // Move before the preheader's terminator.
          DefsInLoop[I.defReg()] = 0;
          Pre.Insts.insert(Pre.Insts.end() - 1, I);
          B.Insts.erase(B.Insts.begin() + Idx);
          ++Hoisted;
          Changed = true;
        }
      }
    }
  }
  return Hoisted;
}

unsigned ra::reduceStrength(Function &F) {
  insertPreheaders(F);
  std::vector<LoopWork> Loops = collectLoops(F);
  DefInfo DI(F);
  unsigned Created = 0;

  for (LoopWork &W : Loops) {
    if (W.Preheader == ~0u)
      continue;
    std::vector<uint32_t> DefsInLoop(F.numVRegs(), 0);
    for (uint32_t BId : W.L.Blocks)
      for (const Instruction &I : F.block(BId).Insts)
        if (I.hasDef())
          ++DefsInLoop[I.defReg()];

    // Basic induction variables: exactly two defs in total, exactly one
    // inside the loop, of the form v = addI(v, step).
    struct BasicIV {
      int64_t Step = 0;
      uint32_t IncBlock = 0;
      unsigned IncIdx = 0;
    };
    std::vector<int32_t> IVIndex(F.numVRegs(), -1);
    std::vector<BasicIV> IVs;
    for (uint32_t BId : W.L.Blocks) {
      BasicBlock &B = F.block(BId);
      for (unsigned Idx = 0; Idx < B.Insts.size(); ++Idx) {
        const Instruction &I = B.Insts[Idx];
        if (I.Op != Opcode::AddI || !I.Ops[1].isReg())
          continue;
        VRegId V = I.defReg();
        if (I.Ops[1].Reg != V || DI.DefCount[V] != 2 ||
            DefsInLoop[V] != 1)
          continue;
        IVIndex[V] = int32_t(IVs.size());
        IVs.push_back({I.Ops[2].Imm, BId, Idx});
      }
    }
    if (IVs.empty())
      continue;

    // Derived-IV candidates: x = mulI(v, m) | addI(v, k) | add(v, w)
    // with v a basic IV, x single-def, and w loop-invariant.
    struct NewIV {
      VRegId Reg;            ///< the fresh induction register
      Instruction Init;      ///< placed in the preheader
      unsigned BasicIdx;     ///< which basic IV drives it
      int64_t Step;          ///< increment per basic-IV step
    };
    std::vector<NewIV> NewIVs;

    for (uint32_t BId : W.L.Blocks) {
      BasicBlock &B = F.block(BId);
      for (Instruction &I : B.Insts) {
        if (!I.hasDef())
          continue;
        VRegId X = I.defReg();
        if (DI.DefCount[X] != 1)
          continue;
        VRegId V = InvalidVReg;
        int64_t Step = 0;
        Instruction Init;
        if (I.Op == Opcode::MulI && IVIndex[I.Ops[1].Reg] >= 0) {
          V = I.Ops[1].Reg;
          Step = IVs[IVIndex[V]].Step * I.Ops[2].Imm;
          Init = I;
        } else if (I.Op == Opcode::AddI && I.Ops[1].isReg() &&
                   IVIndex[I.Ops[1].Reg] >= 0) {
          V = I.Ops[1].Reg;
          Step = IVs[IVIndex[V]].Step;
          Init = I;
        } else if (I.Op == Opcode::Add) {
          VRegId A = I.Ops[1].Reg, Bv = I.Ops[2].Reg;
          if (IVIndex[A] >= 0 && DefsInLoop[Bv] == 0) {
            V = A;
          } else if (IVIndex[Bv] >= 0 && DefsInLoop[A] == 0) {
            V = Bv;
          }
          if (V != InvalidVReg) {
            Step = IVs[IVIndex[V]].Step;
            Init = I;
          }
        }
        if (V == InvalidVReg || X == V)
          continue;

        VRegId Fresh =
            F.newVReg(RegClass::Int, F.vreg(X).Name + ".iv");
        // DefInfo predates the fresh IV; outer loops read its count. It
        // has two defs: the preheader initializer and the increment.
        DI.DefCount.resize(F.numVRegs());
        DI.DefCount[Fresh] = 2;
        Init.setDefReg(Fresh);
        NewIVs.push_back({Fresh, Init, unsigned(IVIndex[V]), Step});
        // The original computation becomes a copy off the new IV
        // (coalescing will fold it away).
        I = Instruction{Opcode::Copy,
                        {Operand::reg(X), Operand::reg(Fresh)}};
        ++Created;
      }
    }

    if (NewIVs.empty())
      continue;

    // Emit initializers in the preheader.
    BasicBlock &Pre = F.block(W.Preheader);
    for (const NewIV &N : NewIVs)
      Pre.Insts.insert(Pre.Insts.end() - 1, N.Init);

    // Emit increments immediately after each basic IV's increment.
    // Group per basic IV so a single rebuild per block suffices.
    for (uint32_t BId : W.L.Blocks) {
      BasicBlock &B = F.block(BId);
      std::vector<Instruction> Rebuilt;
      Rebuilt.reserve(B.Insts.size() + NewIVs.size());
      for (unsigned Idx = 0; Idx < B.Insts.size(); ++Idx) {
        Rebuilt.push_back(B.Insts[Idx]);
        for (const NewIV &N : NewIVs) {
          const BasicIV &IV = IVs[N.BasicIdx];
          if (IV.IncBlock == BId && IV.IncIdx == Idx)
            Rebuilt.push_back(
                {Opcode::AddI,
                 {Operand::reg(N.Reg), Operand::reg(N.Reg),
                  Operand::intImm(N.Step)}});
        }
      }
      B.Insts = std::move(Rebuilt);
    }
  }
  return Created;
}

unsigned ra::localValueNumbering(Function &F) {
  unsigned Replaced = 0;

  // A value number per vreg, strictly per block: numbers must never
  // leak across blocks (a branch may have redefined the register on
  // another path), so entries are invalidated by an epoch stamp at
  // every block boundary.
  std::vector<uint32_t> VN(F.numVRegs(), 0);
  std::vector<uint32_t> Epoch(F.numVRegs(), 0);
  uint32_t CurEpoch = 0;
  uint32_t NextVN = 0;
  auto NumberOf = [&](VRegId R) {
    if (Epoch[R] != CurEpoch) {
      Epoch[R] = CurEpoch;
      VN[R] = NextVN++;
    }
    return VN[R];
  };
  auto SetNumber = [&](VRegId R, uint32_t N) {
    Epoch[R] = CurEpoch;
    VN[R] = N;
  };

  // Expression key: opcode + operand value descriptors, packed into a
  // small vector so it can key a map.
  using Key = std::vector<uint64_t>;
  struct Available {
    VRegId Dst;
    uint32_t DstVN;
  };

  for (BasicBlock &B : F.blocks()) {
    ++CurEpoch;
    std::map<Key, Available> Table;
    for (Instruction &I : B.Insts) {
      if (!I.hasDef()) {
        // Uses still consume value numbers lazily; nothing else to do.
        continue;
      }
      VRegId Dst = I.defReg();

      // Copies propagate the source's number (no new value created).
      if (I.isCopy()) {
        SetNumber(Dst, NumberOf(I.Ops[1].Reg));
        continue;
      }

      if (!isSpeculatable(I.Op)) {
        SetNumber(Dst, NextVN++); // loads, div/rem, sqrt: always fresh
        continue;
      }

      Key K;
      K.push_back(uint64_t(I.Op));
      std::vector<uint64_t> OperandIds;
      for (unsigned Idx = 1; Idx < I.Ops.size(); ++Idx) {
        const Operand &O = I.Ops[Idx];
        switch (O.K) {
        case Operand::Kind::Reg:
          OperandIds.push_back((uint64_t(1) << 60) | NumberOf(O.Reg));
          break;
        case Operand::Kind::IntImm:
          OperandIds.push_back((uint64_t(2) << 60) |
                               (uint64_t(O.Imm) & 0x0FFFFFFFFFFFFFFFull));
          break;
        case Operand::Kind::FloatImm: {
          uint64_t Bits;
          static_assert(sizeof(Bits) == sizeof(O.FImm));
          std::memcpy(&Bits, &O.FImm, sizeof(Bits));
          OperandIds.push_back(Bits);
          break;
        }
        default:
          OperandIds.push_back(0);
        }
      }
      // Commutative operations match in either operand order.
      switch (I.Op) {
      case Opcode::Add:
      case Opcode::Mul:
      case Opcode::FAdd:
      case Opcode::FMul:
        std::sort(OperandIds.begin(), OperandIds.end());
        break;
      default:
        break;
      }
      K.insert(K.end(), OperandIds.begin(), OperandIds.end());

      auto It = Table.find(K);
      if (It != Table.end() && NumberOf(It->second.Dst) == It->second.DstVN &&
          It->second.Dst != Dst) {
        // Same value already available: reuse it through a copy.
        I = Instruction{Opcode::Copy,
                        {Operand::reg(Dst), Operand::reg(It->second.Dst)}};
        SetNumber(Dst, It->second.DstVN);
        ++Replaced;
        continue;
      }
      uint32_t NewVN = NextVN++;
      SetNumber(Dst, NewVN);
      Table[K] = {Dst, NewVN};
    }
  }
  return Replaced;
}

unsigned ra::eliminateDeadCode(Function &F) {
  unsigned Removed = 0;
  bool Changed = true;
  while (Changed) {
    Changed = false;
    std::vector<uint32_t> UseCount(F.numVRegs(), 0);
    for (const BasicBlock &B : F.blocks())
      for (const Instruction &I : B.Insts)
        I.forEachUse([&](VRegId R) { ++UseCount[R]; });
    for (BasicBlock &B : F.blocks()) {
      auto IsDead = [&](const Instruction &I) {
        return I.hasDef() && isSpeculatable(I.Op) &&
               I.Op != Opcode::SpillLd && UseCount[I.defReg()] == 0;
      };
      unsigned Before = B.Insts.size();
      std::erase_if(B.Insts, IsDead);
      unsigned Delta = Before - B.Insts.size();
      Removed += Delta;
      Changed |= Delta != 0;
    }
  }
  return Removed;
}

OptStats ra::optimizeFunction(Function &F) {
  OptStats S;
  S.PreheadersInserted = insertPreheaders(F);
  S.ValuesNumbered = localValueNumbering(F);
  // LICM and strength reduction enable one another (hoisted operands
  // make more IV candidates invariant and vice versa); two rounds reach
  // the fixpoint on everything in the workload suite.
  for (int Round = 0; Round < 2; ++Round) {
    S.InstructionsHoisted += hoistLoopInvariants(F);
    S.IVsCreated += reduceStrength(F);
  }
  eliminateDeadCode(F);
  return S;
}
