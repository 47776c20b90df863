//===- tests/BuildGraphDiffTest.cpp - Graph build vs the matrix build -----===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Differential test for interference graph construction: every input is
// built twice, once by buildInterferenceGraphs (two-level live set, raw
// pairs merged by finalize) over the production Liveness, and once by the
// matrix-based reference in BuildGraphReference.cpp over the round-robin
// liveness reference. The two must agree
// on the node numbering both ways, the NoSpill and ExternalId of every
// node, every degree, the edge count, and every node's neighbor
// *sequence*: simplify's bucket order, and so the colorings, follow it.
//
// Inputs: the Figure 5 routines raw and optimized, the fuzz corpus,
// random programs, a 75-region stress function, the mega test family
// and the renumbered mega.rand.16k. Each is checked renumbered, and
// again after spill code on a seeded subset of its live ranges and a
// second renumbering, which is where spill temporaries (NoSpill nodes)
// and the larger pass-2 graphs appear. Every vreg's degree must also
// match its row count in the all-vreg matrix: Briggs's conservative
// coalescing test reads the degrees and must see the matrix's counts.
//
//===----------------------------------------------------------------------===//

#include "BuildGraphReference.h"
#include "Corpus.h"

#include "analysis/Renumber.h"
#include "opt/Optimizer.h"
#include "regalloc/SpillInserter.h"
#include "support/Rng.h"
#include "workloads/MegaKernel.h"
#include "workloads/RandomProgram.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace ra;

namespace {

/// Builds \p F's graphs both ways, each from its own liveness solver,
/// and requires identical graphs. Returns false (after reporting) on the
/// first difference.
bool sameGraphs(const Function &F, const std::string &What) {
  CFG G = CFG::compute(F);
  LivenessSets RefLV = computeLivenessReference(F, G);
  auto Ref = buildInterferenceGraphsReference(F, RefLV);
  auto New = buildInterferenceGraphs(F, Liveness::compute(F, G));
  for (unsigned C = 0; C < NumRegClasses; ++C) {
    const MatrixClassGraph &R = Ref[C];
    const ClassGraph &N = New[C];
    std::string Where = What + " class " + std::to_string(C);
    if (R.Class != N.Class || R.NodeToVReg != N.NodeToVReg ||
        R.VRegToNode != N.VRegToNode) {
      ADD_FAILURE() << Where << ": node numbering differs";
      return false;
    }
    if (!N.Graph.finalized() || R.Graph.numNodes() != N.Graph.numNodes() ||
        R.Graph.numEdges() != N.Graph.numEdges()) {
      ADD_FAILURE() << Where << ": " << R.Graph.numNodes() << " nodes, "
                    << R.Graph.numEdges() << " edges vs "
                    << N.Graph.numNodes() << " nodes, "
                    << N.Graph.numEdges() << " edges";
      return false;
    }
    for (unsigned Node = 0; Node < R.Graph.numNodes(); ++Node) {
      const IGNode &RN = R.Graph.node(Node), &NN = N.Graph.node(Node);
      if (RN.NoSpill != NN.NoSpill || RN.ExternalId != NN.ExternalId ||
          R.Graph.degree(Node) != N.Graph.degree(Node)) {
        ADD_FAILURE() << Where << ": node " << Node << " differs (degree "
                      << R.Graph.degree(Node) << " vs "
                      << N.Graph.degree(Node) << ")";
        return false;
      }
      std::span<const uint32_t> RRow = R.Graph.neighbors(Node);
      std::span<const uint32_t> NRow = N.Graph.neighbors(Node);
      if (!std::equal(RRow.begin(), RRow.end(), NRow.begin(), NRow.end())) {
        ADD_FAILURE() << Where << ": node " << Node
                      << "'s neighbor sequence differs";
        return false;
      }
    }
  }
  // Conservative coalescing reads each vreg's degree off these rows, so
  // it must equal the vreg's row count in the all-vreg matrix.
  TriangularBitMatrix Matrix = buildInterferenceMatrix(F, RefLV);
  std::vector<unsigned> MatrixDegree(F.numVRegs(), 0);
  for (VRegId B = 0; B < F.numVRegs(); ++B) // row by row: the bits in order
    for (VRegId A = 0; A < B; ++A)
      if (Matrix.test(A, B)) {
        ++MatrixDegree[A];
        ++MatrixDegree[B];
      }
  for (VRegId V = 0; V < F.numVRegs(); ++V) {
    const ClassGraph &CG = New[static_cast<unsigned>(F.regClass(V))];
    if (MatrixDegree[V] != CG.Graph.degree(CG.VRegToNode[V])) {
      ADD_FAILURE() << What << ": vreg " << V << " has matrix degree "
                    << MatrixDegree[V] << ", graph degree "
                    << CG.Graph.degree(CG.VRegToNode[V]);
      return false;
    }
  }
  return true;
}

/// Checks \p F renumbered, and after spill code on a subset of its live
/// ranges chosen by \p Seed plus a second renumbering (the state the
/// allocator's next pass builds from).
void checkBothPasses(Function F, uint64_t Seed, const std::string &What) {
  renumberLiveRanges(F, CFG::compute(F));
  if (!sameGraphs(F, What))
    return;
  Rng R(Seed);
  std::vector<VRegId> ToSpill;
  for (VRegId V = 0; V < F.numVRegs(); ++V)
    if (R.nextBelow(8) == 0)
      ToSpill.push_back(V);
  insertSpillCode(F, ToSpill, /*Rematerialize=*/Seed % 2 == 1);
  renumberLiveRanges(F, CFG::compute(F));
  sameGraphs(F, What + " (spilled)");
}

TEST(BuildGraphDiffTest, Figure5Routines) {
  uint64_t Seed = 1;
  for (const Workload &W : allWorkloads()) {
    Module M;
    Function &F = W.Build(M);
    checkBothPasses(F, Seed++, W.Routine);
    optimizeFunction(F);
    checkBothPasses(F, Seed++, W.Routine + " optimized");
  }
}

TEST(BuildGraphDiffTest, Corpus) {
  uint64_t Seed = 100;
  forEachCorpusFunction(
      [&](Module &, Function &F, const std::string &File) {
        checkBothPasses(F, Seed++, File);
      });
}

TEST(BuildGraphDiffTest, RandomPrograms) {
  for (uint64_t Seed = 0; Seed < 240; ++Seed) {
    Module M;
    Function &F = buildRandomProgram(M, Seed);
    checkBothPasses(F, Seed, "random seed " + std::to_string(Seed));
  }
}

TEST(BuildGraphDiffTest, RandomStress75Regions) {
  Module M;
  Function &F = buildRandomStress(M, 20260808, 75, "stress75");
  checkBothPasses(F, 75, "stress75");
}

TEST(BuildGraphDiffTest, MegaTestFamily) {
  uint64_t Seed = 300;
  for (const MegaKernel &MK : megaKernelTestFamily()) {
    Module M;
    Function &F = MK.Build(M);
    checkBothPasses(F, Seed++, MK.Name);
  }
}

TEST(BuildGraphDiffTest, RenumberedMegaRandom) {
  const std::vector<MegaKernel> &Family = megaKernelFamily();
  auto It = std::find_if(Family.begin(), Family.end(), [](const MegaKernel &K) {
    return K.Name == "mega.rand.16k";
  });
  ASSERT_NE(It, Family.end());
  Module M;
  Function &F = It->Build(M);
  checkBothPasses(F, 16, It->Name);
}

} // namespace
