//===- analysis/Liveness.h - Backward live-variable analysis ---*- C++ -*-===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Live-variable analysis over virtual registers, solved one register
/// at a time by backward search (the path-exploration approach of
/// Brandner et al., "Computing Liveness Sets for SSA-Form Programs",
/// INRIA RR-7503, 2011). From every upward-exposed use the search walks
/// predecessor edges, marking the register live-out of each predecessor
/// and, unless that block defines it, live-in too and walking on. It
/// stops at defining blocks and at blocks already marked.
///
/// A register is live into a block iff some path from the block's entry
/// reaches a use without passing a def. The search walks exactly those
/// paths, so every bit it sets is forced by the dataflow equations
///   LiveOut(B) = U LiveIn(S) over successors S,
///   LiveIn(B)  = UE(B) U (LiveOut(B) - Defs(B)),
/// where UE(B) holds B's upward-exposed uses (used before any local
/// def), and every bit they force is set: the result is their least
/// fixpoint, the one round-robin iteration reaches, on unreachable
/// blocks too. Each live bit costs one visit per predecessor edge, so
/// beyond one pass over the instructions the search grows with the live
/// bits, not with blocks x registers. Only zero-filling the dense sets
/// does.
///
/// Only the block-boundary sets are public: the interference-graph
/// builder walks each block backward from LiveOut. The per-block defs
/// are kept for the search's stop test. An upward-exposed use sets its
/// block's live-in bit during the instruction scan and is not stored
/// apart. A client that edits the occurrences of a few registers (the
/// coalescer's operand rewrite) can re-solve just those registers with
/// \c update instead of solving the whole function again.
///
//===----------------------------------------------------------------------===//

#ifndef RA_ANALYSIS_LIVENESS_H
#define RA_ANALYSIS_LIVENESS_H

#include "analysis/CFG.h"
#include "support/BitVector.h"

#include <utility>

namespace ra {

/// Live-in/live-out sets per basic block, over vreg ids.
class Liveness {
public:
  /// A register and a block it occurs in.
  using RegBlock = std::pair<VRegId, uint32_t>;

  /// Solves liveness for \p F using \p G.
  static Liveness compute(const Function &F, const CFG &G);

  /// Re-solves the registers whose occurrences an edit of \p F changed.
  /// \p Occurs names each such register with every block it occurs in
  /// before or after the edit; pairs may repeat. The register's old bits
  /// are cleared by a walk over \p G's predecessor edges from those
  /// blocks that passes only blocks where it is live. The local sets of
  /// the named blocks are then rescanned and the register is searched
  /// afresh. Provided the sets were exact before the edit and no
  /// register outside \p Occurs gained or lost an occurrence, the sets
  /// equal a fresh \c compute on \p F. A register that no longer occurs
  /// at all ends up with no bits set.
  void update(const Function &F, const CFG &G,
              const std::vector<RegBlock> &Occurs);

  const BitVector &liveIn(uint32_t B) const { return LiveIn[B]; }
  const BitVector &liveOut(uint32_t B) const { return LiveOut[B]; }

private:
  /// Marks each register live from its upward-exposed use in \p Exposed,
  /// whose block already has it live-in, backward to its defining
  /// blocks.
  void search(const CFG &G, const std::vector<RegBlock> &Exposed);

  std::vector<BitVector> LiveIn, LiveOut;
  std::vector<BitVector> VarKill; ///< registers defined in each block
};

} // namespace ra

#endif // RA_ANALYSIS_LIVENESS_H
