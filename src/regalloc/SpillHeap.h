//===- regalloc/SpillHeap.h - Lazy spill-candidate heap --------*- C++ -*-===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Selection of Chaitin's spill candidate — the live node minimizing
/// SpillCost / current degree (Section 2.3) — without rescanning every
/// live node on every stuck step.
///
/// The heap holds one entry per live node and re-keys it lazily on pop.
/// The first stuck step heapifies all live nodes; simplify's degree
/// decrements never touch the heap. When \c pick pops the top entry:
///   - a removed node's entry is discarded;
///   - an entry whose stored degree differs from the node's current
///     degree is pushed back with the current key;
///   - an entry whose degree still matches is the answer.
///
/// Why that is exact: during simplify degrees only fall and costs are
/// >= 0 (asserted in \c build), and correctly rounded division is
/// monotone, so a node's true key only ever gets worse. A stored entry
/// is therefore never worse than its node's true key. An entry whose
/// degree matches carries its node's true key, which is <= every other
/// entry's stored key and so <= every other node's true key.
///
/// The key is (spillable first, cost/degree, node id): the node-id
/// tie-break (the paper's footnote 4) is part of it, so the pick equals
/// the linear scan's and Chaitin and Briggs still make exactly the same
/// choices. A re-key replaces its entry, so the heap never holds more
/// entries than there were live nodes at build time, and each re-key is
/// paid for by at least one degree decrement since the node was keyed.
///
//===----------------------------------------------------------------------===//

#ifndef RA_REGALLOC_SPILLHEAP_H
#define RA_REGALLOC_SPILLHEAP_H

#include "regalloc/DegreeBuckets.h"
#include "regalloc/InterferenceGraph.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <vector>

namespace ra {

/// Min-heap of (spillability, cost/degree, node id) over live nodes,
/// re-keyed on pop against a DegreeBuckets worklist.
class SpillCandidateHeap {
public:
  /// True once \c build has run; until then the owner pays nothing for
  /// the heap (the common no-spill allocation never builds).
  bool active() const { return Active; }

  /// Heapifies every live node at its current degree. O(live nodes).
  void build(const InterferenceGraph &G, const DegreeBuckets &Buckets) {
    assert(!Active && "heap already built");
    Entries.clear();
    Entries.reserve(Buckets.numLive());
    for (uint32_t N = 0, E = G.numNodes(); N != E; ++N)
      if (!Buckets.isRemoved(N)) {
        const IGNode &Node = G.node(N);
        // Exactness rests on keys that only get worse; this also
        // rejects NaN.
        assert((Node.NoSpill || Node.SpillCost >= 0) &&
               "negative or NaN spill cost");
        Entries.push_back(makeEntry(Node, N, Buckets.degree(N)));
      }
    std::make_heap(Entries.begin(), Entries.end(), HeapLess);
    BuiltSize = Entries.size();
    Active = true;
  }

  /// Pops the best current spill candidate, re-keying stale entries.
  /// The caller must remove the returned node from the graph (its
  /// entry has been consumed).
  uint32_t pick(const InterferenceGraph &G, const DegreeBuckets &Buckets) {
    assert(Active && "pick before build");
    while (!Entries.empty()) {
      std::pop_heap(Entries.begin(), Entries.end(), HeapLess);
      Entry &Top = Entries.back();
      if (Buckets.isRemoved(Top.Node)) {
        Entries.pop_back();
        continue;
      }
      uint32_t Degree = Buckets.degree(Top.Node);
      if (Degree == Top.Degree) {
        uint32_t N = Top.Node;
        Entries.pop_back();
        return N;
      }
      Top = makeEntry(G.node(Top.Node), Top.Node, Degree);
      std::push_heap(Entries.begin(), Entries.end(), HeapLess);
      assert(Entries.size() <= BuiltSize && "heap outgrew its live nodes");
    }
    assert(false && "no live node to spill");
    return DegreeBuckets::None;
  }

private:
  struct Entry {
    double Ratio;    ///< SpillCost / degree-at-key (NoSpill: infinite).
    uint32_t Node;
    uint32_t Degree; ///< Degree when keyed; stale when it disagrees.
    bool NoSpill;
  };

  static Entry makeEntry(const IGNode &Node, uint32_t N, uint32_t Degree) {
    assert(Degree > 0 && "stuck with an isolated node");
    double Ratio = Node.NoSpill ? InterferenceGraph::InfiniteCost
                                : Node.SpillCost / double(Degree);
    return {Ratio, N, Degree, Node.NoSpill};
  }

  /// Strict-weak "A is a better candidate than B". Matches the linear
  /// scan: spillable first, then ratio, then lowest id.
  static bool better(const Entry &A, const Entry &B) {
    if (A.NoSpill != B.NoSpill)
      return !A.NoSpill;
    if (A.Ratio != B.Ratio)
      return A.Ratio < B.Ratio;
    return A.Node < B.Node;
  }

  /// std::*_heap comparator: a max-heap under this predicate is a
  /// min-heap under \c better.
  static bool HeapLess(const Entry &A, const Entry &B) {
    return better(B, A);
  }

  std::vector<Entry> Entries;
  size_t BuiltSize = 0; ///< Live nodes when built; the size never exceeds it.
  bool Active = false;
};

} // namespace ra

#endif // RA_REGALLOC_SPILLHEAP_H
