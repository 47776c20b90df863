//===- regalloc/DegreeBuckets.h - Matula-Beck degree lists -----*- C++ -*-===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The degree-indexed worklist of Section 2.2: an array N where N[i]
/// heads a doubly-linked list of the nodes that currently have i
/// neighbors in the (shrinking) graph. Removing a node moves each of
/// its neighbors down one cell; the search for the lowest non-empty
/// cell restarts at N[i-1] after removing a node of degree i (the
/// paper's refinement), which bounds total search work by twice the
/// edge count — linear in the size of the interference graph.
///
//===----------------------------------------------------------------------===//

#ifndef RA_REGALLOC_DEGREEBUCKETS_H
#define RA_REGALLOC_DEGREEBUCKETS_H

#include <cassert>
#include <cstdint>
#include <vector>

namespace ra {

/// Intrusive doubly-linked degree buckets over dense node ids.
class DegreeBuckets {
public:
  /// Builds buckets for \p NumNodes nodes with initial degrees
  /// \p Degrees (nodes are inserted in ascending id order, so lists pop
  /// lowest-id-first for deterministic tie-breaking).
  void init(const std::vector<uint32_t> &Degrees);

  /// Current degree of a live (non-removed) node.
  uint32_t degree(uint32_t N) const {
    assert(!Removed[N] && "degree of a removed node");
    return Degree[N];
  }

  bool isRemoved(uint32_t N) const { return Removed[N]; }

  /// Detaches \p N from its bucket and marks it removed. The caller is
  /// responsible for decrementing its still-live neighbors.
  void remove(uint32_t N);

  /// Moves live node \p N down one bucket (a neighbor was removed).
  void decrementDegree(uint32_t N);

  /// Lowest degree with a non-empty bucket, searching upward from
  /// \p StartHint. Returns ~0u when every node has been removed.
  uint32_t lowestNonEmpty(uint32_t StartHint = 0) const;

  /// First node of bucket \p D (lowest id first by construction order).
  uint32_t head(uint32_t D) const { return Heads[D]; }

  unsigned numLive() const { return Live; }

  /// Sentinel id for "no node".
  static constexpr uint32_t None = ~uint32_t(0);

private:
  void detach(uint32_t N);
  void pushFront(uint32_t N, uint32_t D);

  std::vector<uint32_t> Degree;
  std::vector<uint32_t> Next, Prev;
  std::vector<uint32_t> Heads; ///< Heads[d] = first node with degree d.
  std::vector<bool> Removed;
  unsigned Live = 0;
};

} // namespace ra

#endif // RA_REGALLOC_DEGREEBUCKETS_H
