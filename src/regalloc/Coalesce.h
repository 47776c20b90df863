//===- regalloc/Coalesce.h - Aggressive copy coalescing --------*- C++ -*-===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Chaitin-style aggressive coalescing: a copy "d = s" whose operands do
/// not interfere is eliminated by merging the two live ranges. The
/// paper's build phase runs "repeatedly building the graph and
/// coalescing registers" until no copy can be merged; \c coalesceAll
/// drives that loop in rounds. A round merges each copy whose operands
/// no earlier merge of the round touched, then rewrites the function.
///
/// Liveness is solved once per \c coalesceAll. After each rewrite only
/// the registers whose occurrences changed are re-solved: the merged
/// registers and those of deleted self-copies. The aggressive test reads
/// interference only between copy operands, so a round tests each def
/// against its register's copy partners and builds no interference
/// matrix. The conservative test also counts significant-degree
/// neighbors; it builds the all-vreg matrix each round from the same
/// maintained liveness.
///
//===----------------------------------------------------------------------===//

#ifndef RA_REGALLOC_COALESCE_H
#define RA_REGALLOC_COALESCE_H

#include "analysis/CFG.h"
#include "target/MachineInfo.h"

#include <optional>

namespace ra {

class Budget;

/// How eagerly copies are merged.
enum class CoalescePolicy : uint8_t {
  /// Chaitin's rule: merge every non-interfering copy. Can create
  /// uncolorable nodes (merging raises degree).
  Aggressive,
  /// The later Briggs-lineage refinement: merge only when the combined
  /// node has fewer than k neighbors of significant degree (>= k), so
  /// coalescing can never turn a colorable graph uncolorable.
  Conservative,
};

/// One live range merged away by coalescing (metrics-table feed).
struct CoalescedCopy {
  std::string Merged; ///< Name of the range that disappeared.
  std::string Into;   ///< Name of the surviving (root) range.
  RegClass Class = RegClass::Int;
};

/// Result of the coalescing fixpoint.
struct CoalesceStats {
  unsigned CopiesRemoved = 0; ///< Copies eliminated by merging.
  unsigned Rounds = 0;        ///< Build+merge rounds until fixpoint.
  /// Every merge in decision order — feeds the per-range metrics
  /// table's Coalesced rows.
  std::vector<CoalescedCopy> Merges;
};

/// Merges copies in rounds until a round merges none. Each round
/// emits a \c CoalesceRound span and appends one CoalescedCopy per
/// merge to the result. For the Conservative policy, \p Machine
/// supplies the per-class k. \p Gov, when non-null, is polled once per
/// round; a tripped budget stops early — safe at any round boundary,
/// since coalescing is an optimization and the IR is valid between
/// rounds.
CoalesceStats coalesceAll(Function &F, const CFG &G,
                          CoalescePolicy Policy = CoalescePolicy::Aggressive,
                          const std::optional<MachineInfo> &Machine = {},
                          Budget *Gov = nullptr);

} // namespace ra

#endif // RA_REGALLOC_COALESCE_H
