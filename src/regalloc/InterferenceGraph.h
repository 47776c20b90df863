//===- regalloc/InterferenceGraph.h - Interference graph -------*- C++ -*-===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The interference graph: nodes are live ranges, edges connect live
/// ranges that are simultaneously live. Simplify and select read it,
/// and so does conservative coalescing's safety test, for degrees and
/// neighbors. Both coalescing policies test copy pairs directly.
///
/// Chaitin [CACC 81] keeps the graph in two forms at once, a triangular
/// bit matrix for O(1) membership tests and adjacency lists for
/// iteration. Here the only membership test was the build's duplicate
/// check, so the graph keeps adjacency alone, and its memory is linear
/// in nodes plus edges rather than quadratic in nodes:
///
///  * \c addEdge appends the raw pair, duplicates included. The build
///    walk produces each interfering pair once per def point, so a
///    range live across many defs of another arrives many times.
///  * \c finalize counting-sorts the half-edges by node, in pair order,
///    into CSR (compressed sparse row) form: one offsets array and one
///    flat neighbor array. Each row keeps only the first arrival of
///    each neighbor, found with a per-node stamp. A row in first-arrival
///    order is exactly the edge insertion order a deduplicating matrix
///    gave, so removal sequences and colorings do not depend on the
///    representation.
///  * Degrees and the edge count are read off the packed rows, so they
///    exist only after \c finalize.
///
//===----------------------------------------------------------------------===//

#ifndef RA_REGALLOC_INTERFERENCEGRAPH_H
#define RA_REGALLOC_INTERFERENCEGRAPH_H

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

namespace ra {

/// Per-node allocator metadata.
struct IGNode {
  double SpillCost = 0;    ///< Chaitin's precomputed spill cost estimate.
  bool NoSpill = false;    ///< Spill temporaries: never choose to spill.
  uint32_t ExternalId = 0; ///< Client handle (vreg id for the allocator).
};

/// Undirected interference graph over dense node ids [0, numNodes()).
/// Edges are added with \c addEdge and become visible after \c finalize;
/// degree, neighbor and edge-count queries assert on pending edges.
class InterferenceGraph {
public:
  InterferenceGraph() = default;

  explicit InterferenceGraph(unsigned NumNodes) { reset(NumNodes); }

  /// Discards everything and allocates \p NumNodes isolated nodes.
  void reset(unsigned NumNodes) {
    Nodes.assign(NumNodes, IGNode());
    Offsets.assign(NumNodes + 1, 0);
    std::vector<uint32_t>().swap(Flat);
    std::vector<EdgePair>().swap(Pairs);
  }

  unsigned numNodes() const { return Nodes.size(); }

  /// Number of distinct edges.
  unsigned numEdges() const {
    assert(finalized() && "numEdges before finalize");
    return Flat.size() / 2;
  }

  IGNode &node(unsigned N) {
    assert(N < Nodes.size() && "node out of range");
    return Nodes[N];
  }
  const IGNode &node(unsigned N) const {
    assert(N < Nodes.size() && "node out of range");
    return Nodes[N];
  }

  /// Records the undirected edge {A, B}; a self edge (A == B) is
  /// dropped. Duplicates are kept until \c finalize merges them.
  void addEdge(unsigned A, unsigned B) {
    assert(A < Nodes.size() && B < Nodes.size() && "node out of range");
    if (A != B)
      Pairs.push_back({A, B});
  }

  /// Raw pairs recorded before \c finalize, and the room
  /// reserved for them. The build reserves pair storage itself so it
  /// can charge a memory budget before each allocation.
  size_t numPairs() const { return Pairs.size(); }
  size_t pairCapacity() const { return Pairs.capacity(); }
  void reservePairs(size_t N) { Pairs.reserve(N); }

  /// True when no recorded edge is waiting for \c finalize.
  bool finalized() const { return Pairs.empty(); }

  /// Packs the recorded pairs into rows: each row holds its neighbors
  /// in pair order, each at its first arrival. Frees the pairs. Runs
  /// once per graph, after the last \c addEdge and before any query.
  void finalize() {
    if (Pairs.empty())
      return;
    assert(Flat.empty() && "finalize runs once per graph");
    const unsigned N = Nodes.size();
    // Count each row's half-edges and prefix-sum them into row starts.
    std::vector<uint32_t> Start(N + 1, 0);
    for (const EdgePair &P : Pairs) {
      ++Start[P.A + 1];
      ++Start[P.B + 1];
    }
    for (unsigned I = 0; I < N; ++I)
      Start[I + 1] += Start[I];
    // Fill, using Start[I] as row I's cursor: afterwards Start[I] is
    // the end of row I and the start of row I + 1.
    std::vector<uint32_t> Raw(Start[N]);
    for (const EdgePair &P : Pairs) {
      Raw[Start[P.A]++] = P.B;
      Raw[Start[P.B]++] = P.A;
    }
    std::vector<EdgePair>().swap(Pairs);
    // Keep each neighbor's first arrival per row, compacting in place.
    std::vector<uint32_t> Stamp(N, ~0u); ///< Last row that saw a node.
    uint32_t Out = 0, Begin = 0;
    for (unsigned I = 0; I < N; ++I) {
      for (uint32_t J = Begin, End = Start[I]; J != End; ++J) {
        uint32_t M = Raw[J];
        if (Stamp[M] != I) {
          Stamp[M] = I;
          Raw[Out++] = M;
        }
      }
      Begin = Start[I];
      Offsets[I + 1] = Out;
    }
    Raw.resize(Out);
    Raw.shrink_to_fit();
    Flat = std::move(Raw);
  }

  /// True iff {A, B} is an edge. Scans the shorter of the two rows.
  bool interferes(unsigned A, unsigned B) const {
    if (degree(B) < degree(A))
      std::swap(A, B);
    std::span<const uint32_t> Row = neighbors(A);
    return std::find(Row.begin(), Row.end(), B) != Row.end();
  }

  /// Neighbors of \p N in edge insertion order, as a view into the CSR
  /// array.
  std::span<const uint32_t> neighbors(unsigned N) const {
    assert(N < Nodes.size() && "node out of range");
    assert(finalized() && "neighbors before finalize");
    return {Flat.data() + Offsets[N], Offsets[N + 1] - Offsets[N]};
  }

  /// Degree in the full (unsimplified) graph.
  unsigned degree(unsigned N) const {
    assert(N < Nodes.size() && "node out of range");
    assert(finalized() && "degree before finalize");
    return Offsets[N + 1] - Offsets[N];
  }

  /// Effectively-infinite spill cost for must-keep nodes.
  static constexpr double InfiniteCost = std::numeric_limits<double>::max();

  /// Bytes a recorded pair costs until \c finalize frees it: the pair
  /// itself plus its two half-edges in the fill array.
  static constexpr uint64_t PairBytes = 4 * sizeof(uint32_t);

  /// Estimate of the bytes \c reset(NumNodes) and \c finalize commit per
  /// node: the metadata, the row offsets, and finalize's row starts and
  /// stamps. Linear in \p NumNodes. The edge storage is not included:
  /// its size is the pair count, unknown before the build walks
  /// liveness, so the build charges it at \c PairBytes per pair as it
  /// reserves room. Resource governance charges this estimate *before*
  /// constructing the graph, so a would-be OOM is refused into the
  /// degradation ladder instead of attempted.
  static uint64_t estimateBytes(uint64_t NumNodes) {
    return NumNodes * (sizeof(IGNode) + 3 * sizeof(uint32_t));
  }

private:
  struct EdgePair {
    uint32_t A, B;
  };

  std::vector<IGNode> Nodes;
  std::vector<EdgePair> Pairs;   ///< Recorded, not yet packed.
  std::vector<uint32_t> Offsets; ///< Row starts, size numNodes()+1.
  std::vector<uint32_t> Flat;    ///< Concatenated neighbor rows.
};

} // namespace ra

#endif // RA_REGALLOC_INTERFERENCEGRAPH_H
