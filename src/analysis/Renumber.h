//===- analysis/Renumber.h - Live-range renumbering ------------*- C++ -*-===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Chaitin's "renumber" phase: splits every virtual register into its
/// def-use webs (maximal sets of definitions and uses that must share a
/// register) and rewrites the function over a fresh, dense register id
/// space in which one vreg == one live range. The paper's build phase
/// begins with "finding and renumbering distinct live ranges"; this pass
/// is that step.
///
/// Webs come from a liveness-pruned worklist: beyond the liveness solve,
/// the work tracks the blocks where each register is live, not blocks x
/// defs. For each vreg V, the last def of V
/// in each reachable block that defines it is pushed into successors
/// where V is live-in, and on through blocks that do not redefine V.
/// Defs that arrive at the same block are united (union-find over def
/// ids). This is exactly the partition of "defs reaching a common use":
/// a def reaches a use only along a path on which V stays live and is
/// not redefined, and all defs reaching a block where V is live-in reach
/// one use beyond it. Unreachable blocks propagate nothing. The rewrite
/// then walks each block from its arrivals; a use no def reaches gets
/// one shared "undefined" web per original register.
///
//===----------------------------------------------------------------------===//

#ifndef RA_ANALYSIS_RENUMBER_H
#define RA_ANALYSIS_RENUMBER_H

#include "analysis/CFG.h"

namespace ra {

/// Statistics reported by the renumbering pass.
struct RenumberStats {
  unsigned VRegsBefore = 0; ///< Register count before splitting.
  unsigned VRegsAfter = 0;  ///< Live-range count after splitting.
};

/// Splits \p F's virtual registers into def-use webs, rewriting every
/// operand. After this pass each virtual register is one live range.
/// Registers that are never defined (would be verifier errors) keep one
/// web so the function stays well-formed.
RenumberStats renumberLiveRanges(Function &F, const CFG &G);

} // namespace ra

#endif // RA_ANALYSIS_RENUMBER_H
