//===- tests/BuildGraphReference.h - Matrix-based graph build ---*- C++ -*-===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Test-only reference for interference graph construction: the original
/// build, which walks each block with a dense live BitVector (a scan of
/// every word per def) and drops duplicate edges with a triangular bit
/// matrix as they arrive, then packs the surviving edge list into CSR
/// rows. BuildGraphDiffTest holds buildInterferenceGraphs in
/// regalloc/BuildGraph.cpp to the same nodes, degrees, edge counts and
/// neighbor sequences. The same walk fills the all-vreg matrix that the
/// coalescing reference and CoalesceTest read. Both read the round-robin
/// solver's sets (LivenessReference.h), not the production Liveness, so
/// they stay independent of it.
///
//===----------------------------------------------------------------------===//

#ifndef RA_TESTS_BUILDGRAPHREFERENCE_H
#define RA_TESTS_BUILDGRAPHREFERENCE_H

#include "LivenessReference.h"
#include "TriangularBitMatrix.h"
#include "regalloc/BuildGraph.h"

namespace ra {

/// The interference graph as Chaitin keeps it: a triangular bit matrix
/// for the duplicate test next to an edge list packed into CSR rows.
class MatrixInterferenceGraph {
public:
  explicit MatrixInterferenceGraph(unsigned NumNodes = 0) { reset(NumNodes); }

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

  IGNode &node(unsigned N) { return Nodes[N]; }
  const IGNode &node(unsigned N) const { return Nodes[N]; }

  /// Adds the undirected edge {A, B} unless it exists or A == B.
  /// Returns true iff a new edge was inserted.
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

  /// Neighbors of \p N in edge insertion order.
  std::span<const uint32_t> neighbors(unsigned N) const {
    if (!CSRValid)
      buildCSR();
    return {Flat.data() + Offsets[N], Degrees[N]};
  }

  unsigned degree(unsigned N) const { return Degrees[N]; }

private:
  void buildCSR() const {
    unsigned N = Nodes.size();
    Offsets.assign(N + 1, 0);
    for (unsigned I = 0; I < N; ++I)
      Offsets[I + 1] = Offsets[I] + Degrees[I];
    Flat.resize(Offsets[N]);
    std::vector<uint32_t> Cursor(Offsets.begin(), Offsets.end() - 1);
    for (size_t E = 0, EC = EdgeA.size(); E != EC; ++E) {
      Flat[Cursor[EdgeA[E]]++] = EdgeB[E];
      Flat[Cursor[EdgeB[E]]++] = EdgeA[E];
    }
    CSRValid = true;
  }

  std::vector<IGNode> Nodes;
  std::vector<uint32_t> Degrees;
  std::vector<uint32_t> EdgeA, EdgeB;
  TriangularBitMatrix Matrix;

  mutable std::vector<uint32_t> Offsets;
  mutable std::vector<uint32_t> Flat;
  mutable bool CSRValid = false;
};

/// ClassGraph over the matrix-based graph.
struct MatrixClassGraph {
  RegClass Class = RegClass::Int;
  MatrixInterferenceGraph Graph;
  std::vector<VRegId> NodeToVReg;
  std::vector<uint32_t> VRegToNode;
};

/// Same contract as buildInterferenceGraphs (ungoverned), built with a
/// dense live set and the triangular matrix.
std::array<MatrixClassGraph, NumRegClasses>
buildInterferenceGraphsReference(const Function &F, const LivenessSets &LV);

/// Builds a whole-function interference matrix over *all* vregs (both
/// classes; only same-class pairs are set), for O(1) interference tests
/// and neighbor counts.
TriangularBitMatrix buildInterferenceMatrix(const Function &F,
                                            const LivenessSets &LV);

} // namespace ra

#endif // RA_TESTS_BUILDGRAPHREFERENCE_H
