//===- tests/VerifierReference.h - Forward definite assignment --*- C++ -*-===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Test-only reference for the verifier's definite-assignment check: the
/// original forward must-dataflow, one dense "assigned" set per block,
/// intersected over the reached predecessors until no set changes.
/// VerifierDiffTest holds the liveness-based check in
/// analysis/Verifier.cpp to the same messages in the same order.
///
//===----------------------------------------------------------------------===//

#ifndef RA_TESTS_VERIFIERREFERENCE_H
#define RA_TESTS_VERIFIERREFERENCE_H

#include "ir/Module.h"

#include <string>
#include <vector>

namespace ra {

/// verifyFunction's messages for a function that passes its structural
/// checks: one "may be used before definition" per use that some path
/// from the entry reaches without a def of its register, in block,
/// instruction and operand order.
std::vector<std::string> definiteAssignmentReference(const Module &M,
                                                     const Function &F);

} // namespace ra

#endif // RA_TESTS_VERIFIERREFERENCE_H
