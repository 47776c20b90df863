//===- tests/CoalesceReference.h - Matrix coalescing reference --*- C++ -*-===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Test-only reference for copy coalescing: the original round that
/// solves liveness afresh and builds an all-vreg interference matrix
/// every time it runs. CoalesceDiffTest holds the production coalescer
/// in regalloc/Coalesce.cpp to the same merges, rounds and rewritten
/// function as this round driven to a fixpoint.
///
//===----------------------------------------------------------------------===//

#ifndef RA_TESTS_COALESCEREFERENCE_H
#define RA_TESTS_COALESCEREFERENCE_H

#include "regalloc/Coalesce.h"

namespace ra {

/// One build+merge round: solves liveness, builds the interference
/// matrix, merges every coalescable copy whose operands were not already
/// touched by a merge this round, rewrites operands, and deletes the
/// dead copies. Returns the number of copies removed; when \p Merges is
/// non-null, appends one CoalescedCopy per merge. For the Conservative
/// policy, \p Machine supplies the per-class k.
unsigned coalesceOnePassReference(
    Function &F, const CFG &G,
    CoalescePolicy Policy = CoalescePolicy::Aggressive,
    const std::optional<MachineInfo> &Machine = {},
    std::vector<CoalescedCopy> *Merges = nullptr);

} // namespace ra

#endif // RA_TESTS_COALESCEREFERENCE_H
