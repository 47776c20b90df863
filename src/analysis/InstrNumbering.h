//===- analysis/InstrNumbering.h - Linear instruction numbers --*- C++ -*-===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A linear numbering of every instruction in a function, in block
/// layout order. Each instruction owns two consecutive *slots*: its
/// inputs are read at the even slot and its output is written at the
/// odd slot that follows. Live-interval endpoints (linearscan/) are
/// expressed in these slots, which is what makes a dying use and a
/// same-instruction definition non-overlapping — the read slot ends
/// before the write slot begins, so they may share a register, exactly
/// as the interference-graph build rule (and the post-allocation audit)
/// permit.
///
/// The numbering is a pure index; it is invalidated by any instruction
/// insertion or deletion and must be recomputed per allocation pass.
///
//===----------------------------------------------------------------------===//

#ifndef RA_ANALYSIS_INSTRNUMBERING_H
#define RA_ANALYSIS_INSTRNUMBERING_H

#include "ir/Function.h"

#include <cstdint>
#include <vector>

namespace ra {

/// Slot index into the linearized function; see file comment.
using SlotIndex = uint32_t;

/// Dense instruction slots for one function snapshot.
class InstrNumbering {
public:
  /// Numbers every instruction of \p F in block layout order.
  static InstrNumbering compute(const Function &F);

  /// Read slot (even) of instruction \p InstIdx of block \p B. The
  /// write slot is readSlot() + 1.
  SlotIndex readSlot(uint32_t B, unsigned InstIdx) const {
    return (FirstInst[B] + InstIdx) * 2;
  }

  SlotIndex writeSlot(uint32_t B, unsigned InstIdx) const {
    return readSlot(B, InstIdx) + 1;
  }

  /// First slot belonging to block \p B (the read slot of its first
  /// instruction).
  SlotIndex blockFrom(uint32_t B) const { return FirstInst[B] * 2; }

  /// One past the last slot of block \p B. For adjacent blocks in
  /// layout order, blockTo(B) == blockFrom(B + 1), so a value live
  /// across the boundary gets one contiguous interval segment.
  SlotIndex blockTo(uint32_t B) const {
    return (FirstInst[B] + InstCount[B]) * 2;
  }

  unsigned numBlocks() const { return FirstInst.size(); }

private:
  std::vector<uint32_t> FirstInst; ///< global index of block's first inst
  std::vector<uint32_t> InstCount; ///< instructions per block
};

} // namespace ra

#endif // RA_ANALYSIS_INSTRNUMBERING_H
