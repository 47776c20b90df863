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
/// predecessor edges, marking each predecessor live-in unless it
/// defines the register, and walking on from it. It stops at defining
/// blocks and at blocks already marked. Live-out follows: a block's
/// live-out set is the union of its successors' live-in sets.
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
/// bits, not with blocks x registers.
///
/// The sets are stored sparsely, the per-register view of Bouchez,
/// Darte & Rastello: each register's live-in blocks, as the search
/// finds them, and each block's live-out registers, both ascending, in
/// two flat arrays. No blocks x registers array is ever built, and a
/// solve touches a few words per register; the marks the search and
/// \c update keep are per block. A client that edits the occurrences of
/// a few registers (the coalescer's operand rewrite) can re-solve just
/// those registers with \c update instead of solving the whole
/// function again.
///
//===----------------------------------------------------------------------===//

#ifndef RA_ANALYSIS_LIVENESS_H
#define RA_ANALYSIS_LIVENESS_H

#include "analysis/CFG.h"

#include <algorithm>
#include <span>
#include <utility>

namespace ra {

/// Live-in blocks per vreg and live-out vregs per basic block.
class Liveness {
public:
  /// A register and a block it occurs in.
  using RegBlock = std::pair<VRegId, uint32_t>;

  /// Solves liveness for \p F using \p G.
  static Liveness compute(const Function &F, const CFG &G);

  /// Re-solves the registers whose occurrences an edit of \p F changed.
  /// \p Occurs names each such register with every block it occurs in
  /// before or after the edit; pairs may repeat. Only those registers
  /// are searched afresh, from a rescan of the named blocks, and only
  /// the live-out lists of predecessors of their old or new live-in
  /// blocks are edited. Provided the sets were exact before the edit
  /// and no register outside \p Occurs gained or lost an occurrence,
  /// the sets equal a fresh \c compute on \p F. A register that no
  /// longer occurs at all ends up live nowhere.
  void update(const Function &F, const CFG &G,
              const std::vector<RegBlock> &Occurs);

  /// The blocks \p R is live into, ascending.
  std::span<const uint32_t> liveInBlocks(VRegId R) const {
    return {InFlat.data() + InOf[R].Begin, InOf[R].Size};
  }

  bool isLiveIn(uint32_t B, VRegId R) const {
    std::span<const uint32_t> In = liveInBlocks(R);
    return std::binary_search(In.begin(), In.end(), B);
  }

  /// The registers live out of \p B, ascending.
  std::span<const VRegId> liveOut(uint32_t B) const {
    return {OutFlat.data() + OutOf[B].Begin, OutOf[B].Size};
  }

private:
  /// One register's or one block's list inside a flat array.
  struct Slice {
    uint32_t Begin = 0;
    uint32_t Size = 0;
  };

  /// Searches each register of \p Regs, ascending, from its occurrences
  /// in \p Blocks, which must hold all of them; \c Solving must name
  /// exactly those registers. Empty \p Regs searches every register
  /// over every block, and then needs \c InOf all zero. Appends each
  /// register's live-in blocks to \c InFlat, in the order found, and
  /// points \c InOf at them. Returns the indexes in \p Regs (the
  /// registers, when it is empty) of those live into some block,
  /// ascending.
  std::vector<uint32_t> search(const Function &F, const CFG &G,
                               const std::vector<VRegId> &Regs,
                               const std::vector<uint32_t> &Blocks);

  /// Sorts \p List, distinct block ids. A list with an entry per word
  /// of \c BlockBits or more is sorted through it, in time linear in
  /// the list.
  void sortBlocks(std::span<uint32_t> List);

  std::vector<uint32_t> InFlat; ///< live-in blocks, register by register
  std::vector<Slice> InOf;      ///< register -> its live-in blocks
  std::vector<VRegId> OutFlat;  ///< live-out registers, block by block
  std::vector<Slice> OutOf;     ///< block -> its live-out registers
  /// Entries of the flat arrays no slice points at any more: \c update
  /// appends the lists it rebuilds and packs the arrays when these
  /// outnumber the rest.
  size_t InStale = 0, OutStale = 0;

  std::vector<uint32_t> Marks; ///< block -> last tag that marked it
  // Sized by the first update; all clear outside update.
  std::vector<uint64_t> Solving;    ///< one bit per register
  std::vector<uint64_t> BlockBits;  ///< one bit per block
  std::vector<uint32_t> BlockCount; ///< block -> count, then cursor
  uint32_t SearchTag = 0;
};

} // namespace ra

#endif // RA_ANALYSIS_LIVENESS_H
