//===- ir/IRPrinter.cpp - Textual IR output -------------------------------===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "ir/IRPrinter.h"

#include <cctype>
#include <cstdio>

using namespace ra;

namespace {

/// Keeps only characters that are legal in identifiers.
std::string sanitize(const std::string &S) {
  std::string Out;
  for (char C : S)
    if (std::isalnum(static_cast<unsigned char>(C)) || C == '_')
      Out += C;
  if (Out.empty())
    Out = "v";
  return Out;
}

// The printer is also used to render verifier diagnostics, so it must
// tolerate out-of-range ids instead of asserting on them.

std::string regName(const Function &F, VRegId R) {
  if (R >= F.numVRegs())
    return "%<bad:" + std::to_string(R) + ">";
  return "%" + sanitize(F.vreg(R).Name) + "." + std::to_string(R);
}

std::string blockName(const Function &F, uint32_t B) {
  if (B >= F.numBlocks())
    return "<bad:" + std::to_string(B) + ">";
  return sanitize(F.block(B).Name) + "." + std::to_string(B);
}

std::string floatLit(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  std::string S = Buf;
  // Guarantee the literal re-parses as a float, not an integer.
  if (S.find_first_of(".eEnN") == std::string::npos)
    S += ".0";
  return S;
}

std::string operandText(const Module &M, const Function &F, const Operand &O) {
  switch (O.K) {
  case Operand::Kind::None:
    return "<none>";
  case Operand::Kind::Reg:
    return regName(F, O.Reg);
  case Operand::Kind::IntImm:
    return std::to_string(O.Imm);
  case Operand::Kind::FloatImm:
    return floatLit(O.FImm);
  case Operand::Kind::Array:
    if (O.Array >= M.numArrays())
      return "@<bad:" + std::to_string(O.Array) + ">";
    return "@" + M.array(O.Array).Name;
  case Operand::Kind::Block:
    return blockName(F, O.Block);
  }
  return "<bad>";
}

} // namespace

std::string ra::printInstruction(const Module &M, const Function &F,
                                 const Instruction &I) {
  std::string Out;
  unsigned FirstSrc = 0;
  if (I.hasDef() && !I.Ops.empty()) {
    const Operand &Def = I.Ops[0];
    Out += operandText(M, F, Def);
    Out += ":";
    Out += Def.isReg() && Def.Reg < F.numVRegs()
               ? regClassName(F.regClass(Def.Reg))
               : "<bad>";
    Out += " = ";
    FirstSrc = 1;
  }
  Out += opcodeName(I.Op);
  if (I.Op == Opcode::Br) {
    Out += " ";
    Out += cmpKindName(I.Cmp);
  }

  // Memory operations print with array-subscript syntax.
  if ((I.Op == Opcode::Load || I.Op == Opcode::FLoad) && I.Ops.size() == 3) {
    Out += " " + operandText(M, F, I.Ops[1]) + "[" +
           operandText(M, F, I.Ops[2]) + "]";
    return Out;
  }
  if ((I.Op == Opcode::Store || I.Op == Opcode::FStore) &&
      I.Ops.size() == 3) {
    Out += " " + operandText(M, F, I.Ops[1]) + "[" +
           operandText(M, F, I.Ops[2]) + "], " + operandText(M, F, I.Ops[0]);
    return Out;
  }

  for (unsigned Idx = FirstSrc, E = I.Ops.size(); Idx != E; ++Idx) {
    Out += Idx == FirstSrc ? " " : ", ";
    Out += operandText(M, F, I.Ops[Idx]);
  }
  return Out;
}

std::string ra::printFunction(const Module &M, const Function &F) {
  std::string Out = "func @" + F.name() + " {\n";
  for (const BasicBlock &B : F.blocks()) {
    Out += "block " + blockName(F, B.Id) + ":\n";
    for (const Instruction &I : B.Insts)
      Out += "  " + printInstruction(M, F, I) + "\n";
  }
  Out += "}\n";
  return Out;
}

std::string ra::printModule(const Module &M) {
  std::string Out = "module {\n";
  for (unsigned A = 0; A < M.numArrays(); ++A) {
    const ArrayInfo &AI = M.array(A);
    Out += "array @" + AI.Name + " : " + regClassName(AI.Elem) + "[" +
           std::to_string(AI.Size) + "]\n";
  }
  for (unsigned FI = 0; FI < M.numFunctions(); ++FI)
    Out += printFunction(M, M.function(FI));
  Out += "}\n";
  return Out;
}
