//===- analysis/Liveness.h - Backward live-variable analysis ---*- C++ -*-===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Classic backward live-variable dataflow over virtual registers. The
/// interference-graph builder walks each block backward from LiveOut,
/// so only the block-boundary sets are stored here. A client that edits
/// the occurrences of a few registers (the coalescer's operand rewrite)
/// can re-solve just those registers with \c update instead of solving
/// the whole function again.
///
//===----------------------------------------------------------------------===//

#ifndef RA_ANALYSIS_LIVENESS_H
#define RA_ANALYSIS_LIVENESS_H

#include "analysis/CFG.h"
#include "support/BitVector.h"

namespace ra {

/// Live-in/live-out sets per basic block, over vreg ids.
class Liveness {
public:
  /// Solves liveness for \p F using \p G.
  static Liveness compute(const Function &F, const CFG &G);

  /// Re-solves the bits of \p Regs after their occurrences in \p F
  /// changed. Each register is searched backward over \p G's
  /// predecessor edges from the blocks where it has an upward-exposed
  /// use, stopping at blocks that define it. Provided no register
  /// outside \p Regs gained or lost an occurrence, the sets equal a
  /// fresh \c compute on \p F. A register that no longer occurs at all
  /// ends up with no bits set.
  void update(const Function &F, const CFG &G,
              const std::vector<VRegId> &Regs);

  const BitVector &liveIn(uint32_t B) const { return LiveIn[B]; }
  const BitVector &liveOut(uint32_t B) const { return LiveOut[B]; }

  /// Upward-exposed uses of block \p B (used before any local def).
  const BitVector &upwardExposed(uint32_t B) const { return UEVar[B]; }

  /// Registers defined anywhere in block \p B.
  const BitVector &defs(uint32_t B) const { return VarKill[B]; }

private:
  std::vector<BitVector> LiveIn, LiveOut, UEVar, VarKill;
};

} // namespace ra

#endif // RA_ANALYSIS_LIVENESS_H
