//===- tests/ColoringTest.cpp - heuristic and graph-structure tests -------===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Tests the three simplify/select heuristics on the paper's own example
// graphs (Figures 2 and 3), on random graphs (coloring validity and the
// Section 2.3 guarantee that the optimistic method spills a subset of
// what Chaitin spills), and the degree-bucket worklist of Section 2.2.
//
//===----------------------------------------------------------------------===//

#include "regalloc/Coloring.h"
#include "regalloc/DegreeBuckets.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <set>

using namespace ra;

namespace {

InterferenceGraph makeGraph(unsigned N,
                            std::initializer_list<std::pair<int, int>> Edges) {
  InterferenceGraph G(N);
  for (auto [A, B] : Edges)
    G.addEdge(unsigned(A), unsigned(B));
  G.finalize();
  for (unsigned I = 0; I < N; ++I)
    G.node(I).SpillCost = 100; // equal costs, as in the paper's example
  return G;
}

/// The paper's Figure 2: five nodes, 3-colorable; both heuristics
/// color it with three colors and no spills.
InterferenceGraph figure2() {
  // a-b, a-c, b-c, b-d, c-d, d-e (a triangle plus a tail).
  return makeGraph(5, {{0, 1}, {0, 2}, {1, 2}, {1, 3}, {2, 3}, {3, 4}});
}

/// The paper's Figure 3: the 4-cycle w-x-z-y-w. 2-colorable, but every
/// node has degree 2, so Chaitin's simplification gets stuck at k = 2.
InterferenceGraph figure3() {
  return makeGraph(4, {{0, 1}, {1, 2}, {2, 3}, {3, 0}});
}

TEST(ColoringTest, Figure2ThreeColorsEveryHeuristic) {
  for (Heuristic H :
       {Heuristic::Chaitin, Heuristic::Briggs, Heuristic::MatulaBeck}) {
    InterferenceGraph G = figure2();
    ColoringResult R = colorGraph(G, 3, H);
    EXPECT_TRUE(R.success()) << heuristicName(H);
    EXPECT_TRUE(isValidColoring(G, 3, R)) << heuristicName(H);
    EXPECT_EQ(R.NumColorsUsed, 3u) << heuristicName(H);
  }
}

TEST(ColoringTest, Figure3DiamondCycle) {
  // The motivating example: Chaitin spills on the 2-colorable 4-cycle;
  // the optimistic heuristic (and smallest-last) 2-color it.
  {
    InterferenceGraph G = figure3();
    ColoringResult R = colorGraph(G, 2, Heuristic::Chaitin);
    EXPECT_FALSE(R.success())
        << "Chaitin's simplification must get stuck on the 4-cycle";
    EXPECT_EQ(R.Spilled.size(), 1u);
    EXPECT_TRUE(isValidColoring(G, 2, R));
  }
  for (Heuristic H : {Heuristic::Briggs, Heuristic::MatulaBeck}) {
    InterferenceGraph G = figure3();
    ColoringResult R = colorGraph(G, 2, H);
    EXPECT_TRUE(R.success()) << heuristicName(H);
    EXPECT_TRUE(isValidColoring(G, 2, R));
    EXPECT_EQ(R.NumColorsUsed, 2u);
  }
}

TEST(ColoringTest, CliqueNeedsExactlyCliqueSizeColors) {
  const unsigned N = 6;
  InterferenceGraph G(N);
  for (unsigned A = 0; A < N; ++A)
    for (unsigned B = A + 1; B < N; ++B)
      G.addEdge(A, B);
  G.finalize();
  for (unsigned I = 0; I < N; ++I)
    G.node(I).SpillCost = 1 + I;

  for (Heuristic H : {Heuristic::Chaitin, Heuristic::Briggs}) {
    ColoringResult Full = colorGraph(G, N, H);
    EXPECT_TRUE(Full.success());
    EXPECT_EQ(Full.NumColorsUsed, N);
    ColoringResult Short = colorGraph(G, N - 2, H);
    EXPECT_EQ(Short.Spilled.size(), 2u)
        << heuristicName(H) << ": a clique forces exactly the excess";
    // With distinct costs and equal degrees, the cheapest nodes spill.
    std::set<uint32_t> Spilled(Short.Spilled.begin(), Short.Spilled.end());
    EXPECT_TRUE(Spilled.count(0));
    EXPECT_TRUE(Spilled.count(1));
  }
}

TEST(ColoringTest, EmptyAndTrivialGraphs) {
  InterferenceGraph Empty(0);
  ColoringResult R = colorGraph(Empty, 4, Heuristic::Briggs);
  EXPECT_TRUE(R.success());

  InterferenceGraph Isolated(3);
  ColoringResult R2 = colorGraph(Isolated, 1, Heuristic::Chaitin);
  EXPECT_TRUE(R2.success());
  EXPECT_EQ(R2.NumColorsUsed, 1u) << "isolated nodes share one color";
}

TEST(ColoringTest, NoSpillNodesAreSpilledLast) {
  // Clique of 4, k=2: two must go. Nodes 0 and 1 are protected
  // (NoSpill); the heuristic must pick 2 and 3 even though they are
  // more expensive.
  InterferenceGraph G(4);
  for (unsigned A = 0; A < 4; ++A)
    for (unsigned B = A + 1; B < 4; ++B)
      G.addEdge(A, B);
  G.finalize();
  G.node(0).SpillCost = 1;
  G.node(0).NoSpill = true;
  G.node(1).SpillCost = 2;
  G.node(1).NoSpill = true;
  G.node(2).SpillCost = 1000;
  G.node(3).SpillCost = 2000;
  ColoringResult R = colorGraph(G, 2, Heuristic::Chaitin);
  std::set<uint32_t> Spilled(R.Spilled.begin(), R.Spilled.end());
  EXPECT_EQ(Spilled, (std::set<uint32_t>{2, 3}));
}

//===--------------------------------------------------------------------===//
// Random-graph properties.
//===--------------------------------------------------------------------===//

InterferenceGraph randomGraph(Rng &R, unsigned N, double Density) {
  InterferenceGraph G(N);
  for (unsigned A = 0; A < N; ++A)
    for (unsigned B = A + 1; B < N; ++B)
      if (R.nextBool(Density))
        G.addEdge(A, B);
  G.finalize();
  for (unsigned I = 0; I < N; ++I)
    G.node(I).SpillCost = double(1 + R.nextBelow(1000));
  return G;
}

struct RandomGraphCase {
  uint64_t Seed;
  unsigned N;
  double Density;
  unsigned K;
};

class RandomGraphs : public ::testing::TestWithParam<RandomGraphCase> {};

TEST_P(RandomGraphs, AllHeuristicsProduceValidColorings) {
  const RandomGraphCase &C = GetParam();
  Rng R(C.Seed);
  InterferenceGraph G = randomGraph(R, C.N, C.Density);
  for (Heuristic H :
       {Heuristic::Chaitin, Heuristic::Briggs, Heuristic::MatulaBeck}) {
    ColoringResult Res = colorGraph(G, C.K, H);
    EXPECT_TRUE(isValidColoring(G, C.K, Res)) << heuristicName(H);
    EXPECT_LE(Res.NumColorsUsed, C.K);
    // Every node is either colored or spilled.
    std::set<uint32_t> Spilled(Res.Spilled.begin(), Res.Spilled.end());
    for (unsigned N2 = 0; N2 < C.N; ++N2)
      EXPECT_TRUE((Res.ColorOf[N2] >= 0) != (Spilled.count(N2) != 0));
  }
}

TEST_P(RandomGraphs, BriggsSpillsASubsetOfChaitin) {
  // The paper's Section 2.3 guarantee: "either we spill a subset of the
  // live ranges that Chaitin would spill or the same set".
  const RandomGraphCase &C = GetParam();
  Rng R(C.Seed);
  InterferenceGraph G = randomGraph(R, C.N, C.Density);
  ColoringResult Chaitin = colorGraph(G, C.K, Heuristic::Chaitin);
  ColoringResult Briggs = colorGraph(G, C.K, Heuristic::Briggs);
  std::set<uint32_t> ChaitinSet(Chaitin.Spilled.begin(),
                                Chaitin.Spilled.end());
  for (uint32_t N2 : Briggs.Spilled)
    EXPECT_TRUE(ChaitinSet.count(N2))
        << "Briggs spilled node " << N2 << " that Chaitin kept";
  EXPECT_LE(Briggs.Spilled.size(), Chaitin.Spilled.size());
  EXPECT_LE(Briggs.SpilledCost, Chaitin.SpilledCost);
}

TEST_P(RandomGraphs, ChaitinSuccessImpliesBriggsIdentical) {
  const RandomGraphCase &C = GetParam();
  Rng R(C.Seed);
  InterferenceGraph G = randomGraph(R, C.N, C.Density);
  ColoringResult Chaitin = colorGraph(G, C.K, Heuristic::Chaitin);
  if (!Chaitin.success())
    GTEST_SKIP() << "graph needs spills at this k";
  ColoringResult Briggs = colorGraph(G, C.K, Heuristic::Briggs);
  EXPECT_TRUE(Briggs.success());
  EXPECT_EQ(Briggs.ColorOf, Chaitin.ColorOf)
      << "identical removal order must give identical colorings";
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RandomGraphs,
    ::testing::Values(RandomGraphCase{1, 30, 0.10, 4},
                      RandomGraphCase{2, 30, 0.30, 4},
                      RandomGraphCase{3, 60, 0.10, 6},
                      RandomGraphCase{4, 60, 0.25, 6},
                      RandomGraphCase{5, 120, 0.05, 8},
                      RandomGraphCase{6, 120, 0.15, 8},
                      RandomGraphCase{7, 200, 0.08, 12},
                      RandomGraphCase{8, 200, 0.02, 3},
                      RandomGraphCase{9, 80, 0.50, 8},
                      RandomGraphCase{10, 45, 0.20, 5}),
    [](const auto &Info) {
      return "Seed" + std::to_string(Info.param.Seed);
    });

//===--------------------------------------------------------------------===//
// Degree buckets (Section 2.2's data structure).
//===--------------------------------------------------------------------===//

TEST(DegreeBucketsTest, TracksDegreesThroughRemovals) {
  // Star: node 0 connected to 1..4.
  InterferenceGraph G = makeGraph(5, {{0, 1}, {0, 2}, {0, 3}, {0, 4}});
  std::vector<uint32_t> Degrees = {4, 1, 1, 1, 1};
  DegreeBuckets B;
  B.init(Degrees);
  EXPECT_EQ(B.numLive(), 5u);
  EXPECT_EQ(B.lowestNonEmpty(), 1u);
  EXPECT_EQ(B.head(1), 1u) << "lowest id first";

  B.remove(1);
  B.decrementDegree(0);
  EXPECT_EQ(B.degree(0), 3u);
  EXPECT_EQ(B.lowestNonEmpty(), 1u);

  B.remove(2);
  B.decrementDegree(0);
  B.remove(3);
  B.decrementDegree(0);
  B.remove(4);
  B.decrementDegree(0);
  EXPECT_EQ(B.degree(0), 0u);
  EXPECT_EQ(B.lowestNonEmpty(), 0u);
  EXPECT_EQ(B.head(0), 0u);
  B.remove(0);
  EXPECT_EQ(B.numLive(), 0u);
  EXPECT_EQ(B.lowestNonEmpty(), DegreeBuckets::None);
}

TEST(DegreeBucketsTest, SearchHintNeverSkipsWork) {
  // Remove nodes smallest-last over a random graph while checking the
  // bucket-reported degree against one recomputed from scratch.
  Rng R(99);
  InterferenceGraph G(64);
  for (unsigned A = 0; A < 64; ++A)
    for (unsigned B2 = A + 1; B2 < 64; ++B2)
      if (R.nextBool(0.2))
        G.addEdge(A, B2);
  G.finalize();

  std::vector<uint32_t> Degrees(64);
  for (unsigned N = 0; N < 64; ++N)
    Degrees[N] = G.degree(N);
  DegreeBuckets B;
  B.init(Degrees);

  std::vector<bool> Removed(64, false);
  uint32_t Hint = 0;
  while (B.numLive() != 0) {
    uint32_t D = B.lowestNonEmpty(Hint);
    ASSERT_NE(D, DegreeBuckets::None);
    // The hinted search must agree with a from-zero search.
    ASSERT_EQ(D, B.lowestNonEmpty(0));
    uint32_t N = B.head(D);
    // Cross-check the tracked degree against the real remaining graph.
    unsigned Real = 0;
    for (uint32_t M : G.neighbors(N))
      if (!Removed[M])
        ++Real;
    ASSERT_EQ(B.degree(N), Real);
    B.remove(N);
    Removed[N] = true;
    for (uint32_t M : G.neighbors(N))
      if (!Removed[M])
        B.decrementDegree(M);
    Hint = D == 0 ? 0 : D - 1;
  }
}

TEST(InterferenceGraphTest, AddEdgeDeduplicates) {
  InterferenceGraph G(3);
  G.addEdge(0, 1);
  G.addEdge(1, 0); // duplicate, the other orientation
  G.addEdge(2, 2); // self edge
  G.addEdge(0, 1); // duplicate, the same orientation
  EXPECT_FALSE(G.finalized());
  G.finalize();
  EXPECT_EQ(G.numEdges(), 1u) << "duplicates merged, self edge dropped";
  EXPECT_EQ(G.degree(0), 1u);
  EXPECT_EQ(G.degree(1), 1u);
  EXPECT_EQ(G.degree(2), 0u) << "self edges dropped";
  EXPECT_EQ(std::vector<uint32_t>(G.neighbors(0).begin(), G.neighbors(0).end()),
            (std::vector<uint32_t>{1}));
  EXPECT_EQ(std::vector<uint32_t>(G.neighbors(1).begin(), G.neighbors(1).end()),
            (std::vector<uint32_t>{0}));
  EXPECT_TRUE(G.interferes(0, 1));
  EXPECT_TRUE(G.interferes(1, 0));
  EXPECT_FALSE(G.interferes(0, 2));
}

} // namespace
