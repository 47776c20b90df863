//===- tests/LivenessReference.h - Round-robin liveness ---------*- C++ -*-===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Test-only reference for liveness: the original round-robin solver,
/// which iterates the block-level dataflow equations over every block
/// (reverse RPO, then the unreachable blocks) until no set changes.
/// LivenessDiffTest and CoalesceDiffTest hold the per-register search in
/// analysis/Liveness.cpp to the same live-in and live-out sets per block.
///
//===----------------------------------------------------------------------===//

#ifndef RA_TESTS_LIVENESSREFERENCE_H
#define RA_TESTS_LIVENESSREFERENCE_H

#include "analysis/Liveness.h"

#include <string>

namespace ra {

/// The two per-block sets Liveness exposes, indexed by block id.
struct LivenessSets {
  std::vector<BitVector> LiveIn, LiveOut;
};

/// Same sets as Liveness::compute, solved by round-robin iteration.
LivenessSets computeLivenessReference(const Function &F, const CFG &G);

/// Empty when \p LV holds exactly \p Ref's sets; otherwise names the
/// first block and set that differ.
std::string livenessMismatch(const Liveness &LV, const LivenessSets &Ref);

} // namespace ra

#endif // RA_TESTS_LIVENESSREFERENCE_H
