//===- ir/IRBuilder.h - Convenience instruction emission -------*- C++ -*-===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// IRBuilder appends instructions to a chosen basic block, one helper per
/// opcode. Helpers that produce a value either write into a caller-chosen
/// register (for multi-def variables like loop indices) or mint a fresh
/// temporary when passed InvalidVReg.
///
//===----------------------------------------------------------------------===//

#ifndef RA_IR_IRBUILDER_H
#define RA_IR_IRBUILDER_H

#include "ir/Module.h"

namespace ra {

/// Appends instructions to basic blocks of one function.
class IRBuilder {
public:
  IRBuilder(Module &M, Function &F) : M(M), F(F) {}

  Module &module() { return M; }
  Function &function() { return F; }

  /// Creates a block and returns its id (does not move the insert point).
  uint32_t newBlock(const std::string &Name = "") { return F.newBlock(Name); }

  /// Subsequent emissions append to block \p B.
  void setInsertPoint(uint32_t B) { Cur = B; }

  /// Fresh named integer register.
  VRegId iReg(const std::string &Name = "") {
    return F.newVReg(RegClass::Int, Name);
  }

  /// Fresh named floating-point register.
  VRegId fReg(const std::string &Name = "") {
    return F.newVReg(RegClass::Float, Name);
  }

  //===--------------------------------------------------------------===//
  // Value-producing instructions. Pass Dst == InvalidVReg to mint a
  // fresh temporary of the correct class; the chosen register is
  // returned either way.
  //===--------------------------------------------------------------===//

  VRegId movI(int64_t V, VRegId Dst = InvalidVReg) {
    Dst = ensure(Dst, RegClass::Int);
    emit({Opcode::MovI, {Operand::reg(Dst), Operand::intImm(V)}});
    return Dst;
  }

  VRegId movF(double V, VRegId Dst = InvalidVReg) {
    Dst = ensure(Dst, RegClass::Float);
    emit({Opcode::MovF, {Operand::reg(Dst), Operand::floatImm(V)}});
    return Dst;
  }

  VRegId copy(VRegId Src, VRegId Dst = InvalidVReg) {
    Dst = ensure(Dst, F.regClass(Src));
    emit({Opcode::Copy, {Operand::reg(Dst), Operand::reg(Src)}});
    return Dst;
  }

  VRegId binop(Opcode Op, VRegId A, VRegId B, VRegId Dst, RegClass RC) {
    Dst = ensure(Dst, RC);
    emit({Op, {Operand::reg(Dst), Operand::reg(A), Operand::reg(B)}});
    return Dst;
  }

  VRegId add(VRegId A, VRegId B, VRegId Dst = InvalidVReg) {
    return binop(Opcode::Add, A, B, Dst, RegClass::Int);
  }
  VRegId sub(VRegId A, VRegId B, VRegId Dst = InvalidVReg) {
    return binop(Opcode::Sub, A, B, Dst, RegClass::Int);
  }
  VRegId mul(VRegId A, VRegId B, VRegId Dst = InvalidVReg) {
    return binop(Opcode::Mul, A, B, Dst, RegClass::Int);
  }
  VRegId div(VRegId A, VRegId B, VRegId Dst = InvalidVReg) {
    return binop(Opcode::Div, A, B, Dst, RegClass::Int);
  }
  VRegId rem(VRegId A, VRegId B, VRegId Dst = InvalidVReg) {
    return binop(Opcode::Rem, A, B, Dst, RegClass::Int);
  }

  VRegId addI(VRegId A, int64_t Imm, VRegId Dst = InvalidVReg) {
    Dst = ensure(Dst, RegClass::Int);
    emit({Opcode::AddI,
          {Operand::reg(Dst), Operand::reg(A), Operand::intImm(Imm)}});
    return Dst;
  }

  VRegId mulI(VRegId A, int64_t Imm, VRegId Dst = InvalidVReg) {
    Dst = ensure(Dst, RegClass::Int);
    emit({Opcode::MulI,
          {Operand::reg(Dst), Operand::reg(A), Operand::intImm(Imm)}});
    return Dst;
  }

  VRegId fadd(VRegId A, VRegId B, VRegId Dst = InvalidVReg) {
    return binop(Opcode::FAdd, A, B, Dst, RegClass::Float);
  }
  VRegId fsub(VRegId A, VRegId B, VRegId Dst = InvalidVReg) {
    return binop(Opcode::FSub, A, B, Dst, RegClass::Float);
  }
  VRegId fmul(VRegId A, VRegId B, VRegId Dst = InvalidVReg) {
    return binop(Opcode::FMul, A, B, Dst, RegClass::Float);
  }
  VRegId fdiv(VRegId A, VRegId B, VRegId Dst = InvalidVReg) {
    return binop(Opcode::FDiv, A, B, Dst, RegClass::Float);
  }

  VRegId unop(Opcode Op, VRegId A, VRegId Dst, RegClass RC) {
    Dst = ensure(Dst, RC);
    emit({Op, {Operand::reg(Dst), Operand::reg(A)}});
    return Dst;
  }

  VRegId fneg(VRegId A, VRegId Dst = InvalidVReg) {
    return unop(Opcode::FNeg, A, Dst, RegClass::Float);
  }
  VRegId fabs(VRegId A, VRegId Dst = InvalidVReg) {
    return unop(Opcode::FAbs, A, Dst, RegClass::Float);
  }
  VRegId fsqrt(VRegId A, VRegId Dst = InvalidVReg) {
    return unop(Opcode::FSqrt, A, Dst, RegClass::Float);
  }
  VRegId itof(VRegId A, VRegId Dst = InvalidVReg) {
    return unop(Opcode::IToF, A, Dst, RegClass::Float);
  }
  VRegId ftoi(VRegId A, VRegId Dst = InvalidVReg) {
    return unop(Opcode::FToI, A, Dst, RegClass::Int);
  }

  VRegId load(uint32_t Array, VRegId Index, VRegId Dst = InvalidVReg) {
    RegClass RC = M.array(Array).Elem;
    Dst = ensure(Dst, RC);
    emit({RC == RegClass::Int ? Opcode::Load : Opcode::FLoad,
          {Operand::reg(Dst), Operand::array(Array), Operand::reg(Index)}});
    return Dst;
  }

  void store(uint32_t Array, VRegId Index, VRegId Value) {
    RegClass RC = M.array(Array).Elem;
    assert(F.regClass(Value) == RC && "stored value class mismatch");
    emit({RC == RegClass::Int ? Opcode::Store : Opcode::FStore,
          {Operand::reg(Value), Operand::array(Array), Operand::reg(Index)}});
  }

  //===--------------------------------------------------------------===//
  // Terminators.
  //===--------------------------------------------------------------===//

  void br(CmpKind K, VRegId A, VRegId B, uint32_t IfTrue, uint32_t IfFalse) {
    assert(F.regClass(A) == F.regClass(B) && "mixed-class comparison");
    emit({Opcode::Br, K,
          {Operand::reg(A), Operand::reg(B), Operand::block(IfTrue),
           Operand::block(IfFalse)}});
  }

  void jmp(uint32_t Target) {
    emit({Opcode::Jmp, {Operand::block(Target)}});
  }

  void ret() { emit({Opcode::Ret, {}}); }

  /// Return yielding \p Value to the harness (keeps the value observably
  /// live so final results are not dead code).
  void ret(VRegId Value) { emit({Opcode::Ret, {Operand::reg(Value)}}); }

  /// Appends an arbitrary prebuilt instruction.
  void emit(Instruction I) {
    assert(Cur < F.numBlocks() && "no insertion point set");
    F.block(Cur).Insts.push_back(std::move(I));
  }

private:
  VRegId ensure(VRegId Dst, RegClass RC) {
    if (Dst == InvalidVReg)
      return F.newVReg(RC);
    assert(F.regClass(Dst) == RC && "destination class mismatch");
    return Dst;
  }

  Module &M;
  Function &F;
  uint32_t Cur = 0;
};

} // namespace ra

#endif // RA_IR_IRBUILDER_H
