//===- ir/Opcode.h - IR opcodes and traits ---------------------*- C++ -*-===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Opcodes of the three-address intermediate representation. The set
/// mirrors what a late-1980s RISC code generator (the paper's IBM RT/PC
/// target) would expose to a Chaitin-style allocator: register-register
/// arithmetic in two register classes, register+immediate forms, array
/// loads/stores, compare-and-branch, and dedicated spill traffic opcodes
/// so spill code inserted by the allocator is visible to the cost model.
///
//===----------------------------------------------------------------------===//

#ifndef RA_IR_OPCODE_H
#define RA_IR_OPCODE_H

#include <cassert>
#include <cstdint>

namespace ra {

/// Register classes. The RT/PC has sixteen general purpose (integer)
/// registers and eight floating-point registers in disjoint files.
enum class RegClass : uint8_t { Int = 0, Float = 1 };

/// Number of distinct register classes.
inline constexpr unsigned NumRegClasses = 2;

/// Printable name of a register class ("int" / "flt").
const char *regClassName(RegClass RC);

/// IR operation codes.
enum class Opcode : uint8_t {
  // Constants and copies.
  MovI,  ///< int reg = integer immediate
  MovF,  ///< float reg = floating immediate
  Copy,  ///< reg = reg (same class; the coalescable copy)

  // Integer arithmetic (three-address, register operands).
  Add, Sub, Mul, Div, Rem,
  // Integer register+immediate forms.
  AddI, ///< int reg = reg + imm
  MulI, ///< int reg = reg * imm

  // Floating-point arithmetic.
  FAdd, FSub, FMul, FDiv,
  FNeg,  ///< float reg = -reg
  FAbs,  ///< float reg = |reg|
  FSqrt, ///< float reg = sqrt(reg)

  // Conversions.
  IToF, ///< float reg = (double) int reg
  FToI, ///< int reg = (int) float reg (truncating)

  // Array memory traffic: base is a module-level array symbol, the
  // index is an integer register.
  Load,   ///< int reg = intarray[idx]
  FLoad,  ///< float reg = fltarray[idx]
  Store,  ///< intarray[idx] = int reg
  FStore, ///< fltarray[idx] = float reg

  // Spill traffic inserted by the register allocator. The slot is an
  // integer immediate naming a per-function spill slot.
  SpillLd, ///< reg = spill-slot
  SpillSt, ///< spill-slot = reg

  // Terminators.
  Br,  ///< compare two registers of one class, branch to one of two blocks
  Jmp, ///< unconditional branch
  Ret, ///< return (optionally yielding one register to the harness)
};

/// Number of opcodes.
inline constexpr unsigned NumOpcodes = unsigned(Opcode::Ret) + 1;

/// Comparison kinds used by \c Opcode::Br.
enum class CmpKind : uint8_t { EQ, NE, LT, LE, GT, GE };

/// Number of comparison kinds.
inline constexpr unsigned NumCmpKinds = unsigned(CmpKind::GE) + 1;

/// How an operand is written, and what the verifier requires of it.
enum class SyntaxKind : uint8_t {
  Reg,      ///< %name
  IntImm,   ///< an integer literal
  FloatImm, ///< a floating literal (an integer literal is read as one)
  Array,    ///< @name; the next operand is its index, written [%i]
  Block,    ///< a block label
  Slot,     ///< a spill slot, written as an integer literal
};

/// The register class an operand must have; for an array, its element
/// class; for a spill slot, its slot class.
enum class ClassRule : uint8_t { Any, Int, Float, SameAsOp0 };

/// One operand of an opcode's syntax.
struct OperandSpec {
  uint8_t Index; ///< Its position in Instruction::Ops.
  SyntaxKind Kind;
  ClassRule Class;
};

/// One opcode's mnemonic, traits and operand syntax. The table of these
/// is the one definition of the text format: the parser, the printer and
/// the verifier's operand checks all walk it.
struct OpcodeInfo {
  enum Flag : uint8_t {
    Def = 1,          ///< Operand 0 is a def, written "%d:C =" first.
    Terminator = 2,   ///< Ends a basic block.
    Cmp = 4,          ///< A comparison mnemonic follows the mnemonic.
    StopAtBad = 8,    ///< The verifier reports only the first bad operand.
    OptionalLast = 16 ///< The last operand, a register, may be left out.
  };

  const char *Name;
  uint8_t Flags;
  uint8_t NumOps;
  OperandSpec Ops[4]; ///< In text order, the def first.

  bool has(Flag F) const { return Flags & F; }

  /// The operand at position \p Index of Instruction::Ops.
  const OperandSpec &operand(unsigned Index) const {
    unsigned K = 0;
    while (K + 1 < NumOps && Ops[K].Index != Index)
      ++K;
    assert(Ops[K].Index == Index && "no such operand");
    return Ops[K];
  }
};

/// The table row of \p Op.
const OpcodeInfo &opcodeInfo(Opcode Op);

/// Printable mnemonic ("movi", "fadd", ...).
const char *opcodeName(Opcode Op);

/// Printable comparison mnemonic ("eq", "lt", ...).
const char *cmpKindName(CmpKind K);

/// True iff the opcode defines a register (which is always operand 0).
bool opcodeHasDef(Opcode Op);

/// True iff the opcode ends a basic block.
bool opcodeIsTerminator(Opcode Op);

/// Evaluates an integer comparison.
bool evalCmp(CmpKind K, int64_t L, int64_t R);

/// Evaluates a floating-point comparison.
bool evalCmp(CmpKind K, double L, double R);

} // namespace ra

#endif // RA_IR_OPCODE_H
