//===- ir/Verifier.h - IR well-formedness checks ---------------*- C++ -*-===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Structural and type checks over modules: operand signatures per
/// opcode, register-class agreement, terminator placement and in-range
/// register/block/array/slot references. A function that passes them is
/// then checked for definite assignment: no use may be reached from the
/// entry along a path without a def of its register. That is liveness's
/// own question, so the check asks analysis/Liveness whether the
/// register is live into the entry block, and only then walks forward
/// to name the uses. The checks are built in ra_analysis
/// (analysis/Verifier.cpp); this header stays in ir/ with the IR it
/// checks.
///
//===----------------------------------------------------------------------===//

#ifndef RA_IR_VERIFIER_H
#define RA_IR_VERIFIER_H

#include "ir/Module.h"

#include <string>
#include <vector>

namespace ra {

/// Returns all verification errors in \p F (empty means well-formed).
std::vector<std::string> verifyFunction(const Module &M, const Function &F);

/// Verifies every function in \p M.
std::vector<std::string> verifyModule(const Module &M);

} // namespace ra

#endif // RA_IR_VERIFIER_H
