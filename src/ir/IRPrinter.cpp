//===- ir/IRPrinter.cpp - Textual IR output -------------------------------===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Every piece of text is appended to one output buffer: numbers through
// std::to_chars, names sanitized straight into it, no temporary string
// per operand. The public functions wrap the append* helpers.
//
//===----------------------------------------------------------------------===//

#include "ir/IRPrinter.h"

#include <charconv>
#include <cstdio>
#include <cstring>

using namespace ra;

namespace {

template <typename Int> void appendInt(std::string &Out, Int V) {
  char Buf[24];
  Out.append(Buf, std::to_chars(Buf, Buf + sizeof(Buf), V).ptr);
}

/// Appends the bytes of \p S that are legal in identifiers ([A-Za-z0-9_]),
/// or "v" when none is.
void appendSanitized(std::string &Out, const std::string &S) {
  const size_t Start = Out.size();
  Out.resize(Start + S.size());
  size_t At = Start;
  for (char C : S)
    if ((C >= 'a' && C <= 'z') || (C >= 'A' && C <= 'Z') ||
        (C >= '0' && C <= '9') || C == '_')
      Out[At++] = C;
  Out.resize(At);
  if (At == Start)
    Out += 'v';
}

// The printer is also used to render verifier diagnostics, so it must
// tolerate out-of-range ids instead of asserting on them.

void appendBad(std::string &Out, const char *Prefix, uint64_t Id) {
  Out += Prefix;
  Out += "<bad:";
  appendInt(Out, Id);
  Out += '>';
}

void appendReg(std::string &Out, const Function &F, VRegId R) {
  if (R >= F.numVRegs())
    return appendBad(Out, "%", R);
  Out += '%';
  appendSanitized(Out, F.vreg(R).Name);
  Out += '.';
  appendInt(Out, R);
}

void appendBlock(std::string &Out, const Function &F, uint32_t B) {
  if (B >= F.numBlocks())
    return appendBad(Out, "", B);
  appendSanitized(Out, F.block(B).Name);
  Out += '.';
  appendInt(Out, B);
}

void appendFloat(std::string &Out, double V) {
  char Buf[64];
  int N = std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  Out.append(Buf, N);
  // Guarantee the literal re-parses as a float, not an integer.
  if (!std::strpbrk(Buf, ".eEnN"))
    Out += ".0";
}

void appendOperand(std::string &Out, const Module &M, const Function &F,
                   const Operand &O) {
  switch (O.K) {
  case Operand::Kind::None:
    Out += "<none>";
    return;
  case Operand::Kind::Reg:
    return appendReg(Out, F, O.Reg);
  case Operand::Kind::IntImm:
    return appendInt(Out, O.Imm);
  case Operand::Kind::FloatImm:
    return appendFloat(Out, O.FImm);
  case Operand::Kind::Array:
    if (O.Array >= M.numArrays())
      return appendBad(Out, "@", O.Array);
    Out += '@';
    Out += M.array(O.Array).Name;
    return;
  case Operand::Kind::Block:
    return appendBlock(Out, F, O.Block);
  }
  Out += "<bad>";
}

void appendInstruction(std::string &Out, const Module &M, const Function &F,
                       const Instruction &I) {
  const OpcodeInfo &Info = opcodeInfo(I.Op);
  unsigned First = 0;
  if (Info.has(OpcodeInfo::Def) && !I.Ops.empty()) {
    const Operand &Def = I.Ops[0];
    appendOperand(Out, M, F, Def);
    Out += ':';
    Out += Def.isReg() && Def.Reg < F.numVRegs()
               ? regClassName(F.regClass(Def.Reg))
               : "<bad>";
    Out += " = ";
    First = 1;
  }
  Out += Info.Name;
  if (Info.has(OpcodeInfo::Cmp)) {
    Out += ' ';
    Out += cmpKindName(I.Cmp);
  }

  // Operands are written in the row's text order; an instruction with
  // the wrong operand count (the verifier quotes those) in index order.
  const bool AsRow = I.Ops.size() == Info.NumOps;
  for (unsigned K = First, E = I.Ops.size(); K != E; ++K) {
    bool Subscript =
        AsRow && K > 0 && Info.Ops[K - 1].Kind == SyntaxKind::Array;
    Out += Subscript ? "[" : K == First ? " " : ", ";
    appendOperand(Out, M, F, I.Ops[AsRow ? Info.Ops[K].Index : K]);
    if (Subscript)
      Out += ']';
  }
}

/// A guess at \p F's text size that is rarely short: printed fig5 and
/// mega code averages under 30 bytes an instruction.
size_t sizeHint(const Function &F) { return 32 * F.numInstructions() + 64; }

} // namespace

void ra::appendFunction(std::string &Out, const Module &M, const Function &F) {
  Out += "func @";
  Out += F.name();
  Out += " {\n";
  for (const BasicBlock &B : F.blocks()) {
    Out += "block ";
    appendBlock(Out, F, B.Id);
    Out += ":\n";
    for (const Instruction &I : B.Insts) {
      Out += "  ";
      appendInstruction(Out, M, F, I);
      Out += '\n';
    }
  }
  Out += "}\n";
}

void ra::appendArrayTable(std::string &Out, const Module &M) {
  for (unsigned A = 0; A < M.numArrays(); ++A) {
    const ArrayInfo &AI = M.array(A);
    Out += "array @";
    Out += AI.Name;
    Out += " : ";
    Out += regClassName(AI.Elem);
    Out += '[';
    appendInt(Out, AI.Size);
    Out += "]\n";
  }
}

std::string ra::printInstruction(const Module &M, const Function &F,
                                 const Instruction &I) {
  std::string Out;
  appendInstruction(Out, M, F, I);
  return Out;
}

std::string ra::printFunction(const Module &M, const Function &F) {
  std::string Out;
  Out.reserve(sizeHint(F));
  appendFunction(Out, M, F);
  return Out;
}

std::string ra::printModule(const Module &M) {
  size_t Hint = 16;
  for (unsigned FI = 0; FI < M.numFunctions(); ++FI)
    Hint += sizeHint(M.function(FI));
  std::string Out;
  Out.reserve(Hint);
  Out += "module {\n";
  appendArrayTable(Out, M);
  for (unsigned FI = 0; FI < M.numFunctions(); ++FI)
    appendFunction(Out, M, M.function(FI));
  Out += "}\n";
  return Out;
}
