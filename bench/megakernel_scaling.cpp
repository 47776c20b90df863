//===- bench/megakernel_scaling.cpp - Parallel Select thread scaling ------===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Thread-scaling study of the speculate-and-repair Select engine
// (ParallelSelect.h) on the mega-kernel family (tens of thousands of
// live ranges in one interference graph) plus a raw random-CSR stress
// graph. For each subject: sequential Select is timed as the baseline,
// then the parallel engine runs at 1/2/4/8 threads (capped by --jobs);
// every parallel coloring is compared against the sequential one and
// ANY mismatch — colors, spill set, spill cost — is a hard error, not
// a statistic. Per-round conflict counts demonstrate repair
// convergence, and an audited end-to-end allocation of the 10k ramp
// proves the engine composes with the full Figure 4 loop.
//
//===----------------------------------------------------------------------===//

#include "regalloc/Allocator.h"
#include "regalloc/Coloring.h"
#include "service/Protocol.h"
#include "support/Rng.h"
#include "support/Status.h"
#include "support/ThreadPool.h"
#include "support/Trace.h"
#include "workloads/MegaKernel.h"

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

using namespace ra;

namespace {

/// Raw CSR stress graph: no IR behind it, just a random high-degree
/// interference structure at a scale the generated kernels don't reach.
InterferenceGraph makeRandomGraph(unsigned NumNodes, double AvgDegree,
                                  uint64_t Seed) {
  InterferenceGraph G(NumNodes);
  Rng R(Seed);
  uint64_t Edges = uint64_t(NumNodes * AvgDegree / 2);
  for (uint64_t E = 0; E < Edges; ++E)
    G.addEdge(R.nextBelow(NumNodes), R.nextBelow(NumNodes));
  for (unsigned N = 0; N < NumNodes; ++N)
    G.node(N).SpillCost = double(1 + R.nextBelow(8));
  G.finalize();
  return G;
}

void die(const std::string &Subject, const std::string &What) {
  std::fprintf(stderr, "megakernel_scaling: %s: %s\n", Subject.c_str(),
               What.c_str());
  std::exit(1);
}

/// Requires byte-identical colorings — the whole point of the engine.
void requireIdentical(const std::string &Subject, unsigned Threads,
                      const ColoringResult &Seq, const ColoringResult &Par) {
  if (Seq.ColorOf != Par.ColorOf)
    die(Subject, "ColorOf mismatch at " + std::to_string(Threads) +
                     " threads");
  if (Seq.Spilled != Par.Spilled)
    die(Subject, "spill-set mismatch at " + std::to_string(Threads) +
                     " threads");
  if (Seq.SpilledCost != Par.SpilledCost)
    die(Subject, "spill-cost mismatch at " + std::to_string(Threads) +
                     " threads");
  if (Seq.NumColorsUsed != Par.NumColorsUsed)
    die(Subject, "colors-used mismatch at " + std::to_string(Threads) +
                     " threads");
}

/// One scaling study over a finalized graph.
void runSubject(const std::string &Name, const InterferenceGraph &G,
                unsigned K, unsigned MaxJobs, unsigned Repeats) {
  // Sequential baseline: best of Repeats to damp scheduler noise.
  ColoringResult Seq;
  double SeqBest = 0;
  for (unsigned R = 0; R < Repeats; ++R) {
    ColoringResult C = colorGraph(G, K, Heuristic::Briggs);
    if (R == 0 || C.SelectSeconds < SeqBest)
      SeqBest = C.SelectSeconds;
    Seq = std::move(C);
  }
  std::printf("%-16s %7u nodes, K=%u: sequential select %8.3f ms, "
              "%zu spilled\n",
              Name.c_str(), G.numNodes(), K, SeqBest * 1e3,
              Seq.Spilled.size());

  for (unsigned Threads = 1; Threads <= MaxJobs; Threads *= 2) {
    SelectOptions SO;
    SO.Parallel = true;
    SO.Threads = Threads;
    SO.MinNodes = 0;
    ColoringResult Par;
    double ParBest = 0;
    for (unsigned R = 0; R < Repeats; ++R) {
      ColoringResult C = colorGraph(G, K, Heuristic::Briggs, SO);
      requireIdentical(Name, Threads, Seq, C);
      if (R == 0 || C.SelectSeconds < ParBest)
        ParBest = C.SelectSeconds;
      Par = std::move(C);
    }
    double Speedup = ParBest > 0 ? SeqBest / ParBest : 0;
    std::string Rounds;
    for (const SelectRound &SR : Par.SelectRounds) {
      if (!Rounds.empty())
        Rounds += ",";
      Rounds += std::to_string(SR.Conflicts);
    }
    std::printf("  %2u thread%s: %8.3f ms  (%.2fx)  rounds=%zu  "
                "conflicts/round=[%s]\n",
                Threads, Threads == 1 ? " " : "s", ParBest * 1e3, Speedup,
                Par.SelectRounds.size(), Rounds.c_str());
  }
}

} // namespace

int main(int Argc, char **Argv) {
  unsigned MaxJobs = 8;
  unsigned Repeats = 3;
  uint64_t MemBudgetBytes = 0;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    Status Bad;
    if (Arg == "--jobs" && I + 1 < Argc) {
      Bad = parseDecimalFlag(Arg, Argv[++I], MaxJobs,
                             ThreadPool::MaxThreads);
    } else if (Arg == "--repeats" && I + 1 < Argc) {
      Bad = parseDecimalFlag(Arg, Argv[++I], Repeats);
    } else if (Arg == "--mem-budget-mb" && I + 1 < Argc) {
      uint64_t Mb = 0;
      Bad = parseDecimalFlag(Arg, Argv[++I], Mb,
                             service::WireConfig::MaxMemBudgetMb);
      MemBudgetBytes = Mb << 20;
    } else {
      std::fprintf(stderr,
                   "usage: megakernel_scaling [--jobs N<=%u] [--repeats N] "
                   "[--mem-budget-mb N]\n",
                   ThreadPool::MaxThreads);
      return 2;
    }
    if (!Bad.ok()) {
      std::fprintf(stderr, "megakernel_scaling: %s\n",
                   Bad.toString().c_str());
      return 1;
    }
  }
  if (MaxJobs == 0 || Repeats == 0)
    die("args", "--jobs and --repeats must be >= 1");

  std::printf("Parallel Select scaling on the mega-kernel family "
              "(best of %u runs; identical colorings enforced)\n\n",
              Repeats);

  // Generated kernels: build the IR, replicate the build phase, then
  // race sequential vs. parallel Select on the biggest class graph.
  for (const MegaKernel &MK : megaKernelFamily()) {
    // Capacity guard: refuse a kernel whose interference-graph node
    // arrays would blow the budget *before* building any IR, with the
    // remedy in the message — not a silent attempt that OOMs mid-run.
    if (Status Cap = checkMegaKernelCapacity(MK, MemBudgetBytes); !Cap.ok()) {
      std::fprintf(stderr, "megakernel_scaling: skipping %s\n",
                   Cap.toString().c_str());
      continue;
    }
    Module M;
    Function &F = MK.Build(M);
    auto Graphs = buildColoringGraphs(F);
    ClassGraph *Big = nullptr;
    for (ClassGraph &CG : Graphs)
      if (!Big || CG.Graph.numNodes() > Big->Graph.numNodes())
        Big = &CG;
    if (!Big || Big->Graph.numNodes() == 0)
      die(MK.Name, "empty interference graph");
    runSubject(MK.Name, Big->Graph, 8, MaxJobs, Repeats);
  }

  // Raw CSR stress: high average degree, no structure to exploit.
  {
    InterferenceGraph G = makeRandomGraph(30000, 24.0, 20260808);
    runSubject("csr.rand.30k", G, 16, MaxJobs, Repeats);
  }

  // End-to-end proof: the engine inside the full allocator, audited.
  if (Status Cap = checkMegaKernelCapacity(megaKernelFamily()[0],
                                           MemBudgetBytes);
      !Cap.ok()) {
    std::fprintf(stderr, "megakernel_scaling: skipping end-to-end: %s\n",
                 Cap.toString().c_str());
  } else {
    Module M;
    Function &F = megaKernelFamily()[0].Build(M);
    AllocatorConfig C;
    C.Audit = true;
    C.ParallelGraph = true;
    C.ParallelGraphJobs = MaxJobs;
    C.ParallelGraphMinNodes = 0;
    double Seconds = 0;
    AllocationResult A;
    {
      RA_TRACE_PHASE(Seconds, "EndToEnd", "bench");
      A = allocateRegisters(F, C);
    }
    if (!A.Success || A.Outcome != AllocOutcome::Converged)
      die("end-to-end", "audited allocation of mega.ramp.10k failed: " +
                            A.Diag.toString());
    unsigned Rounds = 0, Conflicts = 0;
    for (const PassRecord &P : A.Stats.Passes) {
      Rounds += P.SelectRounds;
      Conflicts += P.SelectConflicts;
    }
    std::printf("\nend-to-end: mega.ramp.10k audited allocation in "
                "%.3f s (%u passes, %u select rounds, %u conflicts "
                "repaired)\n",
                Seconds, A.Stats.numPasses(), Rounds, Conflicts);
  }

  return 0;
}
