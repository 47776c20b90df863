//===- bench/micro_coloring.cpp - coloring microbenchmarks ----------------===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// google-benchmark microbenchmarks for the paper's complexity claims
// (Section 3.3): simplify+select for all three heuristics on random
// graphs of growing size at constant average degree, and the
// degree-bucket worklist's remove/decrement sweep. The per-item rate
// is not flat: it falls as the graph outgrows the caches, for every
// heuristic alike (EXPERIMENTS.md, Section 3.3).
//
//===----------------------------------------------------------------------===//

#include "regalloc/Coloring.h"
#include "regalloc/DegreeBuckets.h"
#include "support/Rng.h"

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>

using namespace ra;

namespace {

/// Random graph with ~AvgDegree expected degree and loop-weighted
/// random spill costs.
InterferenceGraph makeRandomGraph(unsigned NumNodes, double AvgDegree,
                                  uint64_t Seed) {
  InterferenceGraph G(NumNodes);
  Rng R(Seed);
  uint64_t Edges = uint64_t(NumNodes * AvgDegree / 2);
  for (uint64_t E = 0; E < Edges; ++E) {
    unsigned A = R.nextBelow(NumNodes), B = R.nextBelow(NumNodes);
    G.addEdge(A, B);
  }
  G.finalize();
  for (unsigned N = 0; N < NumNodes; ++N)
    G.node(N).SpillCost = double(1 + R.nextBelow(10000));
  return G;
}

/// Colors once outside the timed region and aborts the whole run if
/// the result is not a provably valid coloring: a benchmark of wrong
/// answers is worse than no benchmark.
void validateOrDie(const InterferenceGraph &G, unsigned K, Heuristic H) {
  ColoringResult R = colorGraph(G, K, H);
  if (!isValidColoring(G, K, R)) {
    std::fprintf(stderr, "invalid %s coloring at K=%u on %u nodes\n",
                 heuristicName(H), K, G.numNodes());
    std::exit(1);
  }
}

void BM_ColorGraph(benchmark::State &State, Heuristic H) {
  unsigned NumNodes = unsigned(State.range(0));
  InterferenceGraph G = makeRandomGraph(NumNodes, 12.0, 42);
  validateOrDie(G, 8, H);
  for (auto _ : State) {
    ColoringResult R = colorGraph(G, 8, H);
    benchmark::DoNotOptimize(R.ColorOf.data());
  }
  State.SetItemsProcessed(int64_t(State.iterations()) * NumNodes);
}

void BM_Chaitin(benchmark::State &S) { BM_ColorGraph(S, Heuristic::Chaitin); }
void BM_Briggs(benchmark::State &S) { BM_ColorGraph(S, Heuristic::Briggs); }
void BM_MatulaBeck(benchmark::State &S) {
  BM_ColorGraph(S, Heuristic::MatulaBeck);
}

BENCHMARK(BM_Chaitin)->Arg(256)->Arg(1024)->Arg(4096)->Arg(16384);
BENCHMARK(BM_Briggs)->Arg(256)->Arg(1024)->Arg(4096)->Arg(16384);
BENCHMARK(BM_MatulaBeck)->Arg(256)->Arg(1024)->Arg(4096)->Arg(16384);

/// High-color configuration: ample colors, so the whole run stays in
/// the linear fast path (no cost scans).
void BM_BriggsNoSpills(benchmark::State &State) {
  unsigned NumNodes = unsigned(State.range(0));
  InterferenceGraph G = makeRandomGraph(NumNodes, 12.0, 42);
  validateOrDie(G, 32, Heuristic::Briggs);
  for (auto _ : State) {
    ColoringResult R = colorGraph(G, 32, Heuristic::Briggs);
    benchmark::DoNotOptimize(R.ColorOf.data());
  }
  State.SetItemsProcessed(int64_t(State.iterations()) * NumNodes);
}
BENCHMARK(BM_BriggsNoSpills)->Arg(256)->Arg(1024)->Arg(4096)->Arg(16384);

/// The Matula-Beck degree-bucket structure: full remove-lowest sweep.
void BM_DegreeBuckets(benchmark::State &State) {
  unsigned NumNodes = unsigned(State.range(0));
  InterferenceGraph G = makeRandomGraph(NumNodes, 12.0, 7);
  std::vector<uint32_t> Degrees(NumNodes);
  for (unsigned N = 0; N < NumNodes; ++N)
    Degrees[N] = G.degree(N);
  for (auto _ : State) {
    DegreeBuckets Buckets;
    Buckets.init(Degrees);
    uint32_t Hint = 0;
    while (Buckets.numLive() != 0) {
      uint32_t D = Buckets.lowestNonEmpty(Hint);
      uint32_t N = Buckets.head(D);
      Buckets.remove(N);
      for (uint32_t M : G.neighbors(N))
        if (!Buckets.isRemoved(M))
          Buckets.decrementDegree(M);
      Hint = D == 0 ? 0 : D - 1;
    }
    benchmark::DoNotOptimize(Buckets.numLive());
  }
  State.SetItemsProcessed(int64_t(State.iterations()) * NumNodes);
}
BENCHMARK(BM_DegreeBuckets)->Arg(1024)->Arg(16384);

} // namespace

BENCHMARK_MAIN();
