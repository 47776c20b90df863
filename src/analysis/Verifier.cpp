//===- analysis/Verifier.cpp - IR well-formedness checks ------------------===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "ir/Verifier.h"

#include "analysis/Liveness.h"
#include "ir/IRParser.h"
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
    if (!isParsableName(F.name()))
      error("function name must be one or more of [A-Za-z0-9_.]");
    return Errors;
  }

private:
  void error(const std::string &Msg) {
    Errors.push_back("@" + F.name() + ": " + Msg);
  }

  /// Reports \p Msg about \p I; returns false, for the checks below.
  bool errorAt(const BasicBlock &B, const Instruction &I,
               const std::string &Msg) {
    error("in " + B.Name + ": '" + printInstruction(M, F, I) + "': " + Msg);
    return false;
  }

  bool checkCount(const BasicBlock &B, const Instruction &I, unsigned N) {
    if (I.Ops.size() == N)
      return true;
    return errorAt(B, I, "expected " + std::to_string(N) +
                             " operands, found " +
                             std::to_string(I.Ops.size()));
  }

  bool checkKind(const BasicBlock &B, const Instruction &I, unsigned Idx,
                 Operand::Kind K, const char *What) {
    if (I.Ops[Idx].K == K)
      return true;
    return errorAt(B, I, std::string("operand ") + std::to_string(Idx) +
                             " must be " + What);
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

  /// Checks \p I's operands against its opcode's row, in operand order.
  /// Copy, br's first operand and ret keep messages of their own.
  void checkSignature(const BasicBlock &B, const Instruction &I) {
    if (I.Op == Opcode::Ret) {
      if (I.Ops.size() > 1)
        errorAt(B, I, "ret takes at most one register");
      else if (I.Ops.size() == 1 && !inRangeReg(I.Ops[0]))
        errorAt(B, I, "bad ret operand");
      return;
    }
    const OpcodeInfo &Info = opcodeInfo(I.Op);
    if (!checkCount(B, I, Info.NumOps))
      return;
    if (I.Op == Opcode::Copy) {
      if (!inRangeReg(I.Ops[0]) || !inRangeReg(I.Ops[1]))
        errorAt(B, I, "copy needs two in-range registers");
      else if (F.regClass(I.Ops[0].Reg) != F.regClass(I.Ops[1].Reg))
        errorAt(B, I, "copy between different register classes");
      return;
    }
    if (I.Op == Opcode::Br && !inRangeReg(I.Ops[0])) {
      errorAt(B, I, "bad comparison operand");
      return;
    }
    for (unsigned Idx = 0; Idx < Info.NumOps; ++Idx)
      if (!checkOperand(B, I, Info.operand(Idx)) &&
          Info.has(OpcodeInfo::StopAtBad))
        return;
  }

  bool inRangeReg(const Operand &O) const {
    return O.isReg() && O.Reg < F.numVRegs();
  }

  /// Checks the operand \p S describes. A SameAsOp0 rule reads operand
  /// 0's class: the spill rows stop at a bad operand 0, and br checks it
  /// before the walk.
  bool checkOperand(const BasicBlock &B, const Instruction &I,
                    const OperandSpec &S) {
    const Operand &O = I.Ops[S.Index];
    RegClass RC = S.Class == ClassRule::Float ? RegClass::Float
                  : S.Class == ClassRule::SameAsOp0
                      ? F.regClass(I.Ops[0].Reg)
                      : RegClass::Int;
    switch (S.Kind) {
    case SyntaxKind::Reg:
      if (!O.isReg())
        return errorAt(B, I, "expected a register operand");
      if (O.Reg >= F.numVRegs())
        return errorAt(B, I, "register id out of range");
      if (S.Class != ClassRule::Any && F.regClass(O.Reg) != RC)
        return errorAt(B, I, std::string("operand must be of class ") +
                                 regClassName(RC));
      return true;
    case SyntaxKind::IntImm:
      return checkKind(B, I, S.Index, Operand::Kind::IntImm,
                       "an integer immediate");
    case SyntaxKind::FloatImm:
      return checkKind(B, I, S.Index, Operand::Kind::FloatImm,
                       "a floating immediate");
    case SyntaxKind::Array:
      if (!checkKind(B, I, S.Index, Operand::Kind::Array, "an array"))
        return false;
      if (O.Array >= M.numArrays())
        return errorAt(B, I, "array id out of range");
      if (M.array(O.Array).Elem != RC)
        return errorAt(B, I, "array element class mismatch");
      return true;
    case SyntaxKind::Block:
      if (!checkKind(B, I, S.Index, Operand::Kind::Block, "a block"))
        return false;
      if (O.Block >= F.numBlocks())
        return errorAt(B, I, "branch to out-of-range block");
      return true;
    case SyntaxKind::Slot:
      if (!checkKind(B, I, S.Index, Operand::Kind::IntImm, "a spill slot"))
        return false;
      if (O.Imm < 0 || uint64_t(O.Imm) >= F.numSpillSlots())
        return errorAt(B, I, "spill slot out of range");
      if (F.spillSlotClass(unsigned(O.Imm)) != RC)
        return errorAt(B, I, "spill slot class mismatch");
      return true;
    }
    return false;
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
  // The printer writes array and function names as stored, so a name
  // must be one the parser reads back.
  std::vector<std::string> All;
  for (unsigned A = 0; A < M.numArrays(); ++A) {
    const std::string &Name = M.array(A).Name;
    if (!isParsableName(Name))
      All.push_back("array '" + Name +
                    "': name must be one or more of [A-Za-z0-9_.]");
    else if (M.findArray(Name) != A)
      All.push_back("array '" + Name + "': duplicate name");
  }
  for (unsigned I = 0; I < M.numFunctions(); ++I) {
    auto Errs = verifyFunction(M, M.function(I));
    All.insert(All.end(), Errs.begin(), Errs.end());
  }
  return All;
}
