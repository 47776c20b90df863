//===- analysis/Verifier.cpp - IR well-formedness checks ------------------===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "ir/Verifier.h"

#include "analysis/Liveness.h"
#include "ir/IRPrinter.h"
#include "support/Trace.h"

#include <algorithm>
#include <tuple>

using namespace ra;

namespace {

/// Collects errors for one function.
class FunctionVerifier {
public:
  FunctionVerifier(const Module &M, const Function &F) : M(M), F(F) {}

  std::vector<std::string> run() {
    if (F.numBlocks() == 0) {
      error("function has no blocks");
      return Errors;
    }
    for (const BasicBlock &B : F.blocks())
      checkBlock(B);
    if (Errors.empty())
      checkDefiniteAssignment();
    return Errors;
  }

private:
  void error(const std::string &Msg) {
    Errors.push_back("@" + F.name() + ": " + Msg);
  }

  void errorAt(const BasicBlock &B, const Instruction &I,
               const std::string &Msg) {
    error("in " + B.Name + ": '" + printInstruction(M, F, I) + "': " + Msg);
  }

  bool checkRegId(const BasicBlock &B, const Instruction &I,
                  const Operand &O) {
    if (!O.isReg()) {
      errorAt(B, I, "expected a register operand");
      return false;
    }
    if (O.Reg >= F.numVRegs()) {
      errorAt(B, I, "register id out of range");
      return false;
    }
    return true;
  }

  bool checkReg(const BasicBlock &B, const Instruction &I, const Operand &O,
                RegClass Expected) {
    if (!checkRegId(B, I, O))
      return false;
    if (F.regClass(O.Reg) != Expected) {
      errorAt(B, I, std::string("operand must be of class ") +
                        regClassName(Expected));
      return false;
    }
    return true;
  }

  bool checkCount(const BasicBlock &B, const Instruction &I, unsigned N) {
    if (I.Ops.size() == N)
      return true;
    errorAt(B, I, "expected " + std::to_string(N) + " operands, found " +
                      std::to_string(I.Ops.size()));
    return false;
  }

  bool checkKind(const BasicBlock &B, const Instruction &I, unsigned Idx,
                 Operand::Kind K, const char *What) {
    if (I.Ops[Idx].K == K)
      return true;
    errorAt(B, I, std::string("operand ") + std::to_string(Idx) +
                      " must be " + What);
    return false;
  }

  void checkBlock(const BasicBlock &B) {
    if (B.Insts.empty()) {
      error("block " + B.Name + " is empty (needs a terminator)");
      return;
    }
    for (unsigned Idx = 0, E = B.Insts.size(); Idx != E; ++Idx) {
      const Instruction &I = B.Insts[Idx];
      bool IsLast = Idx + 1 == E;
      if (I.isTerminator() != IsLast) {
        errorAt(B, I, IsLast ? "block does not end in a terminator"
                             : "terminator in the middle of a block");
        return;
      }
      checkSignature(B, I);
    }
  }

  void checkSignature(const BasicBlock &B, const Instruction &I) {
    using K = Operand::Kind;
    const RegClass IC = RegClass::Int, FC = RegClass::Float;
    switch (I.Op) {
    case Opcode::MovI:
      if (checkCount(B, I, 2) && checkReg(B, I, I.Ops[0], IC))
        checkKind(B, I, 1, K::IntImm, "an integer immediate");
      return;
    case Opcode::MovF:
      if (checkCount(B, I, 2) && checkReg(B, I, I.Ops[0], FC))
        checkKind(B, I, 1, K::FloatImm, "a floating immediate");
      return;
    case Opcode::Copy:
      if (!checkCount(B, I, 2))
        return;
      if (!I.Ops[0].isReg() || !I.Ops[1].isReg() ||
          I.Ops[0].Reg >= F.numVRegs() || I.Ops[1].Reg >= F.numVRegs()) {
        errorAt(B, I, "copy needs two in-range registers");
        return;
      }
      if (F.regClass(I.Ops[0].Reg) != F.regClass(I.Ops[1].Reg))
        errorAt(B, I, "copy between different register classes");
      return;
    case Opcode::Add:
    case Opcode::Sub:
    case Opcode::Mul:
    case Opcode::Div:
    case Opcode::Rem:
      if (checkCount(B, I, 3))
        for (unsigned Idx = 0; Idx < 3; ++Idx)
          checkReg(B, I, I.Ops[Idx], IC);
      return;
    case Opcode::AddI:
    case Opcode::MulI:
      if (checkCount(B, I, 3) && checkReg(B, I, I.Ops[0], IC) &&
          checkReg(B, I, I.Ops[1], IC))
        checkKind(B, I, 2, K::IntImm, "an integer immediate");
      return;
    case Opcode::FAdd:
    case Opcode::FSub:
    case Opcode::FMul:
    case Opcode::FDiv:
      if (checkCount(B, I, 3))
        for (unsigned Idx = 0; Idx < 3; ++Idx)
          checkReg(B, I, I.Ops[Idx], FC);
      return;
    case Opcode::FNeg:
    case Opcode::FAbs:
    case Opcode::FSqrt:
      if (checkCount(B, I, 2)) {
        checkReg(B, I, I.Ops[0], FC);
        checkReg(B, I, I.Ops[1], FC);
      }
      return;
    case Opcode::IToF:
      if (checkCount(B, I, 2)) {
        checkReg(B, I, I.Ops[0], FC);
        checkReg(B, I, I.Ops[1], IC);
      }
      return;
    case Opcode::FToI:
      if (checkCount(B, I, 2)) {
        checkReg(B, I, I.Ops[0], IC);
        checkReg(B, I, I.Ops[1], FC);
      }
      return;
    case Opcode::Load:
    case Opcode::FLoad: {
      if (!checkCount(B, I, 3))
        return;
      RegClass Elem = I.Op == Opcode::Load ? IC : FC;
      checkReg(B, I, I.Ops[0], Elem);
      checkArray(B, I, 1, Elem);
      checkReg(B, I, I.Ops[2], IC);
      return;
    }
    case Opcode::Store:
    case Opcode::FStore: {
      if (!checkCount(B, I, 3))
        return;
      RegClass Elem = I.Op == Opcode::Store ? IC : FC;
      checkReg(B, I, I.Ops[0], Elem);
      checkArray(B, I, 1, Elem);
      checkReg(B, I, I.Ops[2], IC);
      return;
    }
    case Opcode::SpillLd:
    case Opcode::SpillSt:
      if (checkCount(B, I, 2) && checkRegId(B, I, I.Ops[0]))
        checkSlot(B, I, 1, F.regClass(I.Ops[0].Reg));
      return;
    case Opcode::Br: {
      if (!checkCount(B, I, 4))
        return;
      if (!I.Ops[0].isReg() || I.Ops[0].Reg >= F.numVRegs()) {
        errorAt(B, I, "bad comparison operand");
        return;
      }
      RegClass RC = F.regClass(I.Ops[0].Reg);
      checkReg(B, I, I.Ops[1], RC);
      checkBlockRef(B, I, 2);
      checkBlockRef(B, I, 3);
      return;
    }
    case Opcode::Jmp:
      if (checkCount(B, I, 1))
        checkBlockRef(B, I, 0);
      return;
    case Opcode::Ret:
      if (I.Ops.size() > 1) {
        errorAt(B, I, "ret takes at most one register");
        return;
      }
      if (I.Ops.size() == 1 &&
          (!I.Ops[0].isReg() || I.Ops[0].Reg >= F.numVRegs()))
        errorAt(B, I, "bad ret operand");
      return;
    }
  }

  void checkArray(const BasicBlock &B, const Instruction &I, unsigned Idx,
                  RegClass Elem) {
    if (!checkKind(B, I, Idx, Operand::Kind::Array, "an array"))
      return;
    if (I.Ops[Idx].Array >= M.numArrays()) {
      errorAt(B, I, "array id out of range");
      return;
    }
    if (M.array(I.Ops[Idx].Array).Elem != Elem)
      errorAt(B, I, "array element class mismatch");
  }

  void checkSlot(const BasicBlock &B, const Instruction &I, unsigned Idx,
                 RegClass RC) {
    if (!checkKind(B, I, Idx, Operand::Kind::IntImm, "a spill slot"))
      return;
    int64_t Slot = I.Ops[Idx].Imm;
    if (Slot < 0 || unsigned(Slot) >= F.numSpillSlots()) {
      errorAt(B, I, "spill slot out of range");
      return;
    }
    if (F.spillSlotClass(unsigned(Slot)) != RC)
      errorAt(B, I, "spill slot class mismatch");
  }

  void checkBlockRef(const BasicBlock &B, const Instruction &I, unsigned Idx) {
    if (!checkKind(B, I, Idx, Operand::Kind::Block, "a block"))
      return;
    if (I.Ops[Idx].Block >= F.numBlocks())
      errorAt(B, I, "branch to out-of-range block");
  }

  /// A use is not definitely assigned iff a def-free path leads to it
  /// from the entry, that is iff its register is live into the entry
  /// block; such a path crosses only reachable blocks, so unreachable
  /// code changes nothing. From the entry, each such register is
  /// followed into the blocks it is live into, out of the blocks that
  /// do not define it, and its uses are reported in every block reached
  /// up to and including the first instruction that defines it.
  void checkDefiniteAssignment() {
    CFG G = CFG::compute(F);
    Liveness LV = Liveness::compute(F, G);
    // (block, instruction, use) of each report, and its register.
    std::vector<std::tuple<uint32_t, uint32_t, uint32_t, VRegId>> Uses;
    std::vector<VRegId> Reached(F.numBlocks(), InvalidVReg);
    std::vector<uint32_t> Work;
    for (VRegId R = 0; R < F.numVRegs(); ++R) {
      if (!LV.isLiveIn(F.entry(), R))
        continue;
      Reached[F.entry()] = R;
      Work.assign(1, F.entry());
      while (!Work.empty()) {
        uint32_t BId = Work.back();
        Work.pop_back();
        const std::vector<Instruction> &Insts = F.block(BId).Insts;
        bool Defines = false;
        for (uint32_t Idx = 0; Idx < Insts.size() && !Defines; ++Idx) {
          uint32_t Use = 0;
          Insts[Idx].forEachUse([&](VRegId U) {
            if (U == R)
              Uses.emplace_back(BId, Idx, Use, R);
            ++Use;
          });
          Defines = Insts[Idx].hasDef() && Insts[Idx].defReg() == R;
        }
        if (Defines)
          continue;
        for (uint32_t S : G.succs(BId))
          if (Reached[S] != R && LV.isLiveIn(S, R)) {
            Reached[S] = R;
            Work.push_back(S);
          }
      }
    }
    std::sort(Uses.begin(), Uses.end());
    for (const auto &[BId, Idx, Use, R] : Uses)
      errorAt(F.block(BId), F.block(BId).Insts[Idx],
              "register %" + F.vreg(R).Name +
                  " may be used before definition");
  }

  const Module &M;
  const Function &F;
  std::vector<std::string> Errors;
};

} // namespace

std::vector<std::string> ra::verifyFunction(const Module &M,
                                            const Function &F) {
  return FunctionVerifier(M, F).run();
}

std::vector<std::string> ra::verifyModule(const Module &M) {
  RA_TRACE_SPAN("Verify", "ir");
  std::vector<std::string> All;
  for (unsigned I = 0; I < M.numFunctions(); ++I) {
    auto Errs = verifyFunction(M, M.function(I));
    All.insert(All.end(), Errs.begin(), Errs.end());
  }
  return All;
}
