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
#include "support/BitVector.h"

#include <string>

namespace ra {

/// Liveness's two sets, one bit set per block, indexed by block id.
struct LivenessSets {
  std::vector<BitVector> LiveIn, LiveOut;
};

/// Same sets as Liveness::compute, solved by round-robin iteration.
LivenessSets computeLivenessReference(const Function &F, const CFG &G);

/// \p LV's live-in and live-out lists as per-block bit sets over
/// \p F's vregs.
LivenessSets denseSets(const Function &F, const Liveness &LV);

/// Empty when \p LV holds exactly \p Ref's sets, every list ascending
/// without repeats; otherwise names the first list or set that differs.
std::string livenessMismatch(const Function &F, const Liveness &LV,
                             const LivenessSets &Ref);

} // namespace ra

#endif // RA_TESTS_LIVENESSREFERENCE_H
