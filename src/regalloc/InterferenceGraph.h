//===- regalloc/InterferenceGraph.h - Interference graph -------*- C++ -*-===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The interference graph: nodes are live ranges, edges connect live
/// ranges that are simultaneously live. Following Chaitin [CACC 81] the
/// graph is kept in two forms at once — a triangular bit matrix for O(1)
/// membership tests (used when adding edges, to drop duplicates) and
/// adjacency for iteration (used by simplify and select). Coalescing
/// does not read it: the aggressive policy tests copy pairs directly
/// and the conservative one builds its own all-vreg matrix.
///
/// Adjacency is stored in CSR (compressed sparse row) form: edges are
/// accumulated into a flat edge list during build, then a two-pass
/// count/prefix-sum/fill pass packs every node's neighbors into one
/// contiguous array. Compared to per-node std::vectors this does two
/// allocations instead of 2E amortized ones and keeps simplify/select
/// walking sequential memory. Neighbor order within a node is edge
/// insertion order, exactly as the old per-node vectors produced, so
/// removal sequences and colorings are unchanged.
///
//===----------------------------------------------------------------------===//

#ifndef RA_REGALLOC_INTERFERENCEGRAPH_H
#define RA_REGALLOC_INTERFERENCEGRAPH_H

#include "support/TriangularBitMatrix.h"

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
class InterferenceGraph {
public:
  InterferenceGraph() = default;

  explicit InterferenceGraph(unsigned NumNodes) { reset(NumNodes); }

  /// Discards everything and allocates \p NumNodes isolated nodes.
  void reset(unsigned NumNodes) {
    Nodes.assign(NumNodes, IGNode());
    Degrees.assign(NumNodes, 0);
    EdgeA.clear();
    EdgeB.clear();
    Matrix.reset(NumNodes);
    CSRValid = false;
  }

  unsigned numNodes() const { return Nodes.size(); }
  unsigned numEdges() const { return EdgeA.size(); }

  IGNode &node(unsigned N) {
    assert(N < Nodes.size() && "node out of range");
    return Nodes[N];
  }
  const IGNode &node(unsigned N) const {
    assert(N < Nodes.size() && "node out of range");
    return Nodes[N];
  }

  /// Adds the undirected edge {A, B} unless it exists or A == B.
  /// Returns true iff a new edge was inserted. Invalidates the CSR
  /// layout; it is rebuilt on the next neighbor query.
  bool addEdge(unsigned A, unsigned B) {
    if (A == B)
      return false;
    if (!Matrix.testAndSet(A, B))
      return false;
    EdgeA.push_back(A);
    EdgeB.push_back(B);
    ++Degrees[A];
    ++Degrees[B];
    CSRValid = false;
    return true;
  }

  bool interferes(unsigned A, unsigned B) const { return Matrix.test(A, B); }

  /// Neighbors of \p N in edge insertion order, as a view into the CSR
  /// array. Building the CSR arrays is done lazily on first use (and by
  /// \c finalize); concurrent readers must finalize first.
  std::span<const uint32_t> neighbors(unsigned N) const {
    assert(N < Nodes.size() && "node out of range");
    if (!CSRValid)
      buildCSR();
    return {Flat.data() + Offsets[N], Degrees[N]};
  }

  /// Degree in the full (unsimplified) graph.
  unsigned degree(unsigned N) const { return Degrees[N]; }

  /// Packs the adjacency into CSR form (count / prefix-sum / fill).
  /// Idempotent; call before sharing the graph across threads so the
  /// lazy build in \c neighbors can never race.
  void finalize() const {
    if (!CSRValid)
      buildCSR();
  }

  /// Effectively-infinite spill cost for must-keep nodes.
  static constexpr double InfiniteCost = std::numeric_limits<double>::max();

  /// Estimate of the bytes \c reset(NumNodes) commits up front: the
  /// triangular bit matrix (the dominant term — O(N^2) bits, ~156 MB at
  /// 50k nodes) plus per-node metadata. The CSR edge arrays are
  /// excluded: their size is the edge count, unknown before the build
  /// walks liveness. Resource governance charges this estimate *before*
  /// constructing the graph, so a would-be OOM is refused into the
  /// degradation ladder instead of attempted.
  static uint64_t estimateBytes(uint64_t NumNodes) {
    uint64_t MatrixBytes =
        NumNodes < 2 ? 0 : (NumNodes * (NumNodes - 1) / 2 + 7) / 8;
    return MatrixBytes + NumNodes * (sizeof(IGNode) + 3 * sizeof(uint32_t));
  }

private:
  void buildCSR() const {
    unsigned N = Nodes.size();
    // Pass 1: the degree counts are maintained by addEdge; prefix-sum
    // them into row offsets.
    Offsets.assign(N + 1, 0);
    for (unsigned I = 0; I < N; ++I)
      Offsets[I + 1] = Offsets[I] + Degrees[I];
    // Pass 2: fill. Cursor starts at each row's offset; scanning the
    // edge list in insertion order reproduces the order the old
    // per-node vectors had.
    Flat.resize(Offsets[N]);
    std::vector<uint32_t> Cursor(Offsets.begin(), Offsets.end() - 1);
    for (size_t E = 0, EC = EdgeA.size(); E != EC; ++E) {
      Flat[Cursor[EdgeA[E]]++] = EdgeB[E];
      Flat[Cursor[EdgeB[E]]++] = EdgeA[E];
    }
    CSRValid = true;
  }

  std::vector<IGNode> Nodes;
  std::vector<uint32_t> Degrees;       ///< Full-graph degree per node.
  std::vector<uint32_t> EdgeA, EdgeB;  ///< Flat edge list (build order).
  TriangularBitMatrix Matrix;

  // CSR arrays, derived from the edge list on demand.
  mutable std::vector<uint32_t> Offsets; ///< Row starts, size numNodes()+1.
  mutable std::vector<uint32_t> Flat;    ///< Concatenated neighbor lists.
  mutable bool CSRValid = false;
};

} // namespace ra

#endif // RA_REGALLOC_INTERFERENCEGRAPH_H
