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
#include "support/Status.h"
#include "support/ThreadPool.h"
#include "support/Trace.h"

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <future>
#include <string>

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

//===--------------------------------------------------------------------===//
// Random-graph throughput workload: many independent graphs colored
// across a thread pool — the module-allocation shape, minus IR noise.
// Reports graphs/sec per worker count and the speedup over one worker;
// results are checked identical across worker counts.
//===--------------------------------------------------------------------===//

struct ThroughputRun {
  double Seconds = 0;
  double GraphsPerSec = 0;
  std::vector<unsigned> SpillCounts; ///< determinism fingerprint
};

ThroughputRun runThroughput(std::vector<InterferenceGraph> &Graphs,
                            Heuristic H, unsigned Threads) {
  ThroughputRun R;
  validateOrDie(Graphs.front(), 8, H); // sanity before the timed sweep
  R.SpillCounts.resize(Graphs.size());
  std::vector<ColoringResult> Results(Graphs.size());
  {
    RA_TRACE_PHASE(R.Seconds, "Throughput", "bench");
    if (Threads <= 1) {
      for (size_t I = 0; I < Graphs.size(); ++I)
        Results[I] = colorGraph(Graphs[I], 8, H);
    } else {
      ThreadPool Pool(Threads);
      std::vector<std::future<ColoringResult>> Pending;
      Pending.reserve(Graphs.size());
      for (InterferenceGraph &G : Graphs)
        Pending.push_back(
            Pool.submit([&G, H] { return colorGraph(G, 8, H); }));
      for (size_t I = 0; I < Graphs.size(); ++I)
        Results[I] = Pending[I].get();
    }
  }
  R.GraphsPerSec = R.Seconds > 0 ? Graphs.size() / R.Seconds : 0;
  for (size_t I = 0; I < Graphs.size(); ++I)
    R.SpillCounts[I] = Results[I].Spilled.size();
  return R;
}

} // namespace

int main(int Argc, char **Argv) {
  unsigned Jobs = 4;
  unsigned NumGraphs = 48, NodesPerGraph = 3000;
  int W = 1;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    Status Bad;
    if (Arg == "--jobs" && I + 1 < Argc)
      Bad = parseDecimalFlag(Arg, Argv[++I], Jobs, ThreadPool::MaxThreads);
    else if (Arg == "--graphs" && I + 1 < Argc)
      Bad = parseDecimalFlag(Arg, Argv[++I], NumGraphs);
    else
      Argv[W++] = Argv[I];
    if (!Bad.ok()) {
      std::fprintf(stderr, "micro_coloring: %s\n", Bad.toString().c_str());
      return 1;
    }
  }
  Argc = W;
  if (Jobs == 0)
    Jobs = ThreadPool::resolveJobs(0);

  std::vector<InterferenceGraph> Graphs;
  Graphs.reserve(NumGraphs);
  for (unsigned I = 0; I < NumGraphs; ++I)
    Graphs.push_back(makeRandomGraph(NodesPerGraph, 12.0, 1000 + I));

  std::printf("Random-graph throughput (%u graphs x %u nodes, k=8)\n",
              NumGraphs, NodesPerGraph);
  for (Heuristic H : {Heuristic::Chaitin, Heuristic::Briggs}) {
    ThroughputRun Serial = runThroughput(Graphs, H, 1);
    std::printf("  %-12s 1 thread : %8.1f graphs/sec\n",
                heuristicName(H), Serial.GraphsPerSec);
    for (unsigned T = 2; T <= Jobs; T *= 2) {
      ThroughputRun Par = runThroughput(Graphs, H, T);
      if (Par.SpillCounts != Serial.SpillCounts) {
        std::fprintf(stderr,
                     "FATAL: %u-thread coloring differs from serial\n", T);
        return 1;
      }
      double Speedup =
          Par.Seconds > 0 ? Serial.Seconds / Par.Seconds : 0;
      std::printf("  %-12s %u threads: %8.1f graphs/sec (%.2fx, "
                  "results identical)\n",
                  heuristicName(H), T, Par.GraphsPerSec, Speedup);
    }
  }

  benchmark::Initialize(&Argc, Argv);
  if (benchmark::ReportUnrecognizedArguments(Argc, Argv))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
