//===- ir/IRPrinter.h - Textual IR output ----------------------*- C++ -*-===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Prints modules, functions and instructions in the textual IR syntax
/// accepted by the parser (round-trippable). Registers print as
/// "%name.id" so debug names never collide; blocks print as "name.id".
///
//===----------------------------------------------------------------------===//

#ifndef RA_IR_IRPRINTER_H
#define RA_IR_IRPRINTER_H

#include "ir/Module.h"

#include <string>

namespace ra {

/// Renders a whole module as parseable text.
std::string printModule(const Module &M);

/// Renders one function (with its enclosing module for array names).
std::string printFunction(const Module &M, const Function &F);

/// Appends \p M's array table to \p Out: one "array @name : class[size]"
/// line per array, in id order, as printModule writes it.
void appendArrayTable(std::string &Out, const Module &M);

/// Appends \p F's text to \p Out, as printFunction returns it.
void appendFunction(std::string &Out, const Module &M, const Function &F);

/// Renders one instruction on a single line (no trailing newline).
std::string printInstruction(const Module &M, const Function &F,
                             const Instruction &I);

} // namespace ra

#endif // RA_IR_IRPRINTER_H
