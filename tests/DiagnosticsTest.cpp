//===- tests/DiagnosticsTest.cpp - Every opcode's diagnostics pinned ------===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Pins the parser's and the verifier's diagnostics for every opcode. One
// well-formed instruction per opcode is mutated operand by operand, and
// each mutant's messages must match a golden file line for line:
//
//  - tests/golden/verify_diagnostics.golden: the instruction is built in
//    memory, so every operand kind can sit at every position. Each
//    operand is dropped or replaced (a register of either class, an
//    out-of-range register, an immediate, a float, an array of either
//    class, an out-of-range array, a block, an out-of-range block), one
//    operand is appended, and all operands are replaced at once. Each
//    line is "<case>: <message>", one per verifier message in order, or
//    "<case>: ok".
//  - tests/golden/parse_diagnostics.golden: the instruction is text on
//    line 8 of a small module. Each token after the mnemonic is dropped
//    or replaced, and the result-register prefix is dropped or added.
//    Each line is "<text> => <diagnostic>", or "<text> => ok".
//
// Regenerate on purpose with
//   RA_UPDATE_GOLDEN=1 build/tests/ra_tests --gtest_filter='Diagnostics*'
//
//===----------------------------------------------------------------------===//

#include "Golden.h"

#include "ir/IRBuilder.h"
#include "ir/IRParser.h"
#include "ir/Verifier.h"

#include <gtest/gtest.h>

#include <cstring>
#include <set>

using namespace ra;

namespace {

//===--------------------------------------------------------------------===//
// Verifier.
//===--------------------------------------------------------------------===//

const VRegId I = 0, X = 1; // the fixture's %i (int) and %x (flt)

Operand reg(VRegId R) { return Operand::reg(R); }
Operand imm(int64_t V) { return Operand::intImm(V); }
Operand fimm(double V) { return Operand::floatImm(V); }
Operand arr(uint32_t A) { return Operand::array(A); }
Operand blk(uint32_t B) { return Operand::block(B); }

struct VerifyLine {
  const char *Name;
  Instruction Inst;
};

/// One well-formed instruction per opcode (two for ret), over the
/// fixture's registers, arrays @ia (0) and @fa (1), spill slots 0 (int)
/// and 1 (flt) and blocks left (1) and right (2).
const std::vector<VerifyLine> &verifyLines() {
  static const std::vector<VerifyLine> Lines = {
      {"movi", {Opcode::MovI, {reg(I), imm(5)}}},
      {"movf", {Opcode::MovF, {reg(X), fimm(1.5)}}},
      {"copy", {Opcode::Copy, {reg(I), reg(I)}}},
      {"add", {Opcode::Add, {reg(I), reg(I), reg(I)}}},
      {"sub", {Opcode::Sub, {reg(I), reg(I), reg(I)}}},
      {"mul", {Opcode::Mul, {reg(I), reg(I), reg(I)}}},
      {"div", {Opcode::Div, {reg(I), reg(I), reg(I)}}},
      {"rem", {Opcode::Rem, {reg(I), reg(I), reg(I)}}},
      {"addi", {Opcode::AddI, {reg(I), reg(I), imm(3)}}},
      {"muli", {Opcode::MulI, {reg(I), reg(I), imm(3)}}},
      {"fadd", {Opcode::FAdd, {reg(X), reg(X), reg(X)}}},
      {"fsub", {Opcode::FSub, {reg(X), reg(X), reg(X)}}},
      {"fmul", {Opcode::FMul, {reg(X), reg(X), reg(X)}}},
      {"fdiv", {Opcode::FDiv, {reg(X), reg(X), reg(X)}}},
      {"fneg", {Opcode::FNeg, {reg(X), reg(X)}}},
      {"fabs", {Opcode::FAbs, {reg(X), reg(X)}}},
      {"fsqrt", {Opcode::FSqrt, {reg(X), reg(X)}}},
      {"itof", {Opcode::IToF, {reg(X), reg(I)}}},
      {"ftoi", {Opcode::FToI, {reg(I), reg(X)}}},
      {"load", {Opcode::Load, {reg(I), arr(0), reg(I)}}},
      {"fload", {Opcode::FLoad, {reg(X), arr(1), reg(I)}}},
      {"store", {Opcode::Store, {reg(I), arr(0), reg(I)}}},
      {"fstore", {Opcode::FStore, {reg(X), arr(1), reg(I)}}},
      {"spill.ld", {Opcode::SpillLd, {reg(I), imm(0)}}},
      {"spill.st", {Opcode::SpillSt, {reg(X), imm(1)}}},
      {"br", {Opcode::Br, CmpKind::LT, {reg(I), reg(I), blk(1), blk(2)}}},
      {"jmp", {Opcode::Jmp, {blk(1)}}},
      {"ret %i", {Opcode::Ret, {reg(I)}}},
      {"ret", {Opcode::Ret, {}}},
  };
  return Lines;
}

/// The operands each position is replaced with, by name.
const std::pair<const char *, Operand> Replacements[] = {
    {"%i", reg(I)},       {"%x", reg(X)},     {"%99", reg(99)},
    {"imm 7", imm(7)},    {"fimm", fimm(0.5)}, {"@ia", arr(0)},
    {"@fa", arr(1)},      {"@9", arr(9)},      {"left", blk(1)},
    {"block 9", blk(9)},
};

bool sameOperand(const Operand &A, const Operand &B) {
  if (A.K != B.K)
    return false;
  switch (A.K) {
  case Operand::Kind::None:
    return true;
  case Operand::Kind::Reg:
    return A.Reg == B.Reg;
  case Operand::Kind::IntImm:
    return A.Imm == B.Imm;
  case Operand::Kind::FloatImm:
    return A.FImm == B.FImm;
  case Operand::Kind::Array:
    return A.Array == B.Array;
  case Operand::Kind::Block:
    return A.Block == B.Block;
  }
  return false;
}

/// The verifier's messages for \p Inst at the end of the fixture's
/// entry block (followed by a ret unless it is a terminator).
std::vector<std::string> verifyInFixture(const Instruction &Inst) {
  Module M;
  M.newArray("ia", 4, RegClass::Int);
  M.newArray("fa", 4, RegClass::Float);
  Function &F = M.newFunction("f");
  F.newSpillSlot(RegClass::Int);
  F.newSpillSlot(RegClass::Float);
  IRBuilder B(M, F);
  uint32_t Entry = B.newBlock("entry");
  for (const char *Name : {"left", "right"}) {
    B.setInsertPoint(B.newBlock(Name));
    B.ret();
  }
  B.setInsertPoint(Entry);
  EXPECT_EQ(B.movI(1, B.iReg("i")), I);
  EXPECT_EQ(B.movF(2.0, B.fReg("x")), X);
  B.emit(Inst);
  if (!Inst.isTerminator())
    B.ret();
  return verifyFunction(M, F);
}

TEST(DiagnosticsTest, EveryVerifierMessageMatchesGolden) {
  std::set<Opcode> Covered;
  std::vector<std::string> Actual;
  auto Record = [&](const std::string &Case, const Instruction &Inst) {
    std::vector<std::string> Errors = verifyInFixture(Inst);
    if (Errors.empty())
      Actual.push_back(Case + ": ok");
    for (const std::string &E : Errors)
      Actual.push_back(Case + ": " + E);
  };
  for (const VerifyLine &L : verifyLines()) {
    Covered.insert(L.Inst.Op);
    const std::string Name = L.Name;
    ASSERT_TRUE(verifyInFixture(L.Inst).empty()) << Name;
    for (size_t K = 0; K < L.Inst.Ops.size(); ++K) {
      const std::string Pos = "op" + std::to_string(K);
      Instruction Dropped = L.Inst;
      Dropped.Ops.erase(Dropped.Ops.begin() + K);
      Record(Name + " drop " + Pos, Dropped);
      for (const auto &[What, With] : Replacements) {
        if (sameOperand(L.Inst.Ops[K], With))
          continue;
        Instruction Replaced = L.Inst;
        Replaced.Ops[K] = With;
        Record(Name + " " + Pos + "=" + What, Replaced);
      }
    }
    Instruction Added = L.Inst;
    Added.Ops.push_back(reg(I));
    Record(Name + " add %i", Added);
    // Every operand bad at once: shows which opcodes stop at the first
    // bad operand and which report each one.
    for (const auto &[What, With] : Replacements) {
      Instruction All = L.Inst;
      for (Operand &O : All.Ops)
        O = With;
      if (!L.Inst.Ops.empty())
        Record(Name + " all=" + What, All);
    }
  }
  EXPECT_EQ(Covered.size(), size_t(Opcode::Ret) + 1) << "an opcode is missing";
  checkGolden("verify_diagnostics.golden", Actual);
}

//===--------------------------------------------------------------------===//
// Parser.
//===--------------------------------------------------------------------===//

/// One well-formed line per opcode (two for ret). Line 8 of the module
/// built by parseFixture, which defines %i (int) and %x (flt), arrays
/// @ia (int) and @fa (flt) and blocks left and right.
const char *const ParseLines[] = {
    "%d:int = movi 5",         "%g:flt = movf 1.5",
    "%d:int = copy %i",        "%d:int = add %i, %i",
    "%d:int = sub %i, %i",     "%d:int = mul %i, %i",
    "%d:int = div %i, %i",     "%d:int = rem %i, %i",
    "%d:int = addi %i, 3",     "%d:int = muli %i, 3",
    "%g:flt = fadd %x, %x",    "%g:flt = fsub %x, %x",
    "%g:flt = fmul %x, %x",    "%g:flt = fdiv %x, %x",
    "%g:flt = fneg %x",        "%g:flt = fabs %x",
    "%g:flt = fsqrt %x",       "%g:flt = itof %i",
    "%d:int = ftoi %x",        "%d:int = load @ia[%i]",
    "%g:flt = fload @fa[%i]",  "store @ia[%i], %i",
    "fstore @fa[%i], %x",      "%d:int = spill.ld 0",
    "spill.st %i, 0",          "br lt %i, %i, left, right",
    "jmp left",
    "ret %i",                  "ret",
};

/// What each operand token is replaced with.
const char *const TokenReplacements[] = {"%x", "%u",  "@u", "nowhere",
                                         "-1", "2.5", ","};

std::string parseFixture(const std::string &Line) {
  return "module {\n"
         "  array @ia : int[4]\n"
         "  array @fa : flt[4]\n"
         "  func @f {\n"
         "  block entry:\n"
         "    %i:int = movi 1\n"
         "    %x:flt = movf 2.0\n"
         "    " + Line + "\n"
         "    ret\n"
         "  block left:\n"
         "    ret\n"
         "  block right:\n"
         "    ret\n"
         "  }\n"
         "}\n";
}

bool isPunct(const std::string &T) {
  return T.size() == 1 && std::strchr(":=,[]", T[0]);
}

/// Splits a line at spaces and around punctuation.
std::vector<std::string> tokens(const std::string &Line) {
  std::vector<std::string> Out;
  std::string Cur;
  for (char C : Line) {
    if (C == ' ' || isPunct(std::string(1, C))) {
      if (!Cur.empty())
        Out.push_back(Cur);
      Cur.clear();
      if (C != ' ')
        Out.push_back(std::string(1, C));
    } else {
      Cur += C;
    }
  }
  if (!Cur.empty())
    Out.push_back(Cur);
  return Out;
}

/// Joins tokens the way the printer spaces them.
std::string join(const std::vector<std::string> &Toks) {
  std::string Out;
  for (size_t K = 0; K < Toks.size(); ++K) {
    bool Glued = K == 0 || (Toks[K] != "=" && isPunct(Toks[K])) ||
                 Toks[K - 1] == ":" || Toks[K - 1] == "[";
    Out += (Glued ? "" : " ") + Toks[K];
  }
  return Out;
}

TEST(DiagnosticsTest, EveryParserDiagnosticMatchesGolden) {
  std::vector<std::string> Actual;
  std::set<std::string> Seen;
  auto Record = [&](const std::vector<std::string> &Toks) {
    std::string Line = join(Toks);
    if (!Seen.insert(Line).second)
      return;
    Module M;
    std::string Error;
    bool Ok = parseModule(parseFixture(Line), M, Error);
    Actual.push_back(Line + " => " + (Ok ? "ok" : Error));
  };
  for (const char *Text : ParseLines) {
    Module M;
    std::string Error;
    ASSERT_TRUE(parseModule(parseFixture(Text), M, Error)) << Error;
    std::vector<std::string> Toks = tokens(Text);
    bool HasDef = Toks.size() > 1 && Toks[1] == ":";
    size_t First = HasDef ? 5 : 1; // the first token after the mnemonic
    Record(Toks);
    for (size_t K = First; K < Toks.size(); ++K) {
      std::vector<std::string> Dropped = Toks;
      Dropped.erase(Dropped.begin() + K);
      Record(Dropped);
      for (const char *With : TokenReplacements) {
        std::vector<std::string> Replaced = Toks;
        Replaced[K] = With;
        Record(Replaced);
      }
    }
    std::vector<std::string> Toggled(Toks.begin() + (HasDef ? 4 : 0),
                                     Toks.end());
    if (!HasDef)
      Toggled.insert(Toggled.begin(), {"%d", ":", "int", "="});
    Record(Toggled);
  }
  checkGolden("parse_diagnostics.golden", Actual);
}

} // namespace
