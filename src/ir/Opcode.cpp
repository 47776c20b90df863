//===- ir/Opcode.cpp - IR opcodes and traits ------------------------------===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "ir/Opcode.h"

#include <algorithm>
#include <cassert>
#include <initializer_list>

using namespace ra;

const char *ra::regClassName(RegClass RC) {
  return RC == RegClass::Int ? "int" : "flt";
}

namespace {

using enum ClassRule;

constexpr OperandSpec reg(uint8_t Index, ClassRule Class) {
  return {Index, SyntaxKind::Reg, Class};
}
constexpr OperandSpec intImm(uint8_t Index) {
  return {Index, SyntaxKind::IntImm, Any};
}
constexpr OperandSpec floatImm(uint8_t Index) {
  return {Index, SyntaxKind::FloatImm, Any};
}
constexpr OperandSpec array(uint8_t Index, ClassRule Elem) {
  return {Index, SyntaxKind::Array, Elem};
}
constexpr OperandSpec block(uint8_t Index) {
  return {Index, SyntaxKind::Block, Any};
}
constexpr OperandSpec slot(uint8_t Index) {
  return {Index, SyntaxKind::Slot, SameAsOp0};
}

constexpr OpcodeInfo row(const char *Name, unsigned Flags,
                         std::initializer_list<OperandSpec> Ops) {
  OpcodeInfo R{Name, uint8_t(Flags), uint8_t(Ops.size()), {}};
  std::copy(Ops.begin(), Ops.end(), R.Ops);
  return R;
}

constexpr unsigned Def = OpcodeInfo::Def, Term = OpcodeInfo::Terminator,
                   Cmp = OpcodeInfo::Cmp, Stop = OpcodeInfo::StopAtBad,
                   Opt = OpcodeInfo::OptionalLast;

// One row per opcode, in enum order.
constexpr OpcodeInfo Table[NumOpcodes] = {
    row("movi", Def | Stop, {reg(0, Int), intImm(1)}),
    row("movf", Def | Stop, {reg(0, Float), floatImm(1)}),
    row("copy", Def, {reg(0, Any), reg(1, SameAsOp0)}),
    row("add", Def, {reg(0, Int), reg(1, Int), reg(2, Int)}),
    row("sub", Def, {reg(0, Int), reg(1, Int), reg(2, Int)}),
    row("mul", Def, {reg(0, Int), reg(1, Int), reg(2, Int)}),
    row("div", Def, {reg(0, Int), reg(1, Int), reg(2, Int)}),
    row("rem", Def, {reg(0, Int), reg(1, Int), reg(2, Int)}),
    row("addi", Def | Stop, {reg(0, Int), reg(1, Int), intImm(2)}),
    row("muli", Def | Stop, {reg(0, Int), reg(1, Int), intImm(2)}),
    row("fadd", Def, {reg(0, Float), reg(1, Float), reg(2, Float)}),
    row("fsub", Def, {reg(0, Float), reg(1, Float), reg(2, Float)}),
    row("fmul", Def, {reg(0, Float), reg(1, Float), reg(2, Float)}),
    row("fdiv", Def, {reg(0, Float), reg(1, Float), reg(2, Float)}),
    row("fneg", Def, {reg(0, Float), reg(1, Float)}),
    row("fabs", Def, {reg(0, Float), reg(1, Float)}),
    row("fsqrt", Def, {reg(0, Float), reg(1, Float)}),
    row("itof", Def, {reg(0, Float), reg(1, Int)}),
    row("ftoi", Def, {reg(0, Int), reg(1, Float)}),
    row("load", Def, {reg(0, Int), array(1, Int), reg(2, Int)}),
    row("fload", Def, {reg(0, Float), array(1, Float), reg(2, Int)}),
    row("store", 0, {array(1, Int), reg(2, Int), reg(0, Int)}),
    row("fstore", 0, {array(1, Float), reg(2, Int), reg(0, Float)}),
    row("spill.ld", Def | Stop, {reg(0, Any), slot(1)}),
    row("spill.st", Stop, {reg(0, Any), slot(1)}),
    row("br", Term | Cmp,
        {reg(0, Any), reg(1, SameAsOp0), block(2), block(3)}),
    row("jmp", Term, {block(0)}),
    row("ret", Term | Opt, {reg(0, Any)}),
};

const char *const CmpNames[NumCmpKinds] = {"eq", "ne", "lt", "le", "gt", "ge"};

} // namespace

const OpcodeInfo &ra::opcodeInfo(Opcode Op) {
  assert(unsigned(Op) < NumOpcodes && "unknown opcode");
  return Table[unsigned(Op)];
}

const char *ra::opcodeName(Opcode Op) { return opcodeInfo(Op).Name; }

const char *ra::cmpKindName(CmpKind K) {
  assert(unsigned(K) < NumCmpKinds && "unknown comparison");
  return CmpNames[unsigned(K)];
}

bool ra::opcodeHasDef(Opcode Op) {
  return opcodeInfo(Op).has(OpcodeInfo::Def);
}

bool ra::opcodeIsTerminator(Opcode Op) {
  return opcodeInfo(Op).has(OpcodeInfo::Terminator);
}

bool ra::evalCmp(CmpKind K, int64_t L, int64_t R) {
  switch (K) {
  case CmpKind::EQ: return L == R;
  case CmpKind::NE: return L != R;
  case CmpKind::LT: return L < R;
  case CmpKind::LE: return L <= R;
  case CmpKind::GT: return L > R;
  case CmpKind::GE: return L >= R;
  }
  assert(false && "unknown comparison");
  return false;
}

bool ra::evalCmp(CmpKind K, double L, double R) {
  switch (K) {
  case CmpKind::EQ: return L == R;
  case CmpKind::NE: return L != R;
  case CmpKind::LT: return L < R;
  case CmpKind::LE: return L <= R;
  case CmpKind::GT: return L > R;
  case CmpKind::GE: return L >= R;
  }
  assert(false && "unknown comparison");
  return false;
}
