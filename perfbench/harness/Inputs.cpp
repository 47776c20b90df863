//===- perfbench/harness/Inputs.cpp - Workload definitions ----------------===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// The three workloads and the inputs each one sends. Every input is
// generated in memory and printed to .ral text at set-up; requests
// carry that text through the same parse -> verify -> optimize ->
// allocate -> audit -> print path rac and racd use.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "ServiceLoad.h"

#include "ir/IRPrinter.h"
#include "workloads/MegaKernel.h"
#include "workloads/RandomProgram.h"
#include "workloads/Workloads.h"

using namespace ra;
using namespace perfbench;

const WorkloadSpec *perfbench::findWorkload(const std::string &Name) {
  static const WorkloadSpec Specs[] = {
      // The paper's own corpus: allocation time sits in GRADNT and
      // HSSIAN, where Build dominates (Figure 7), and the code-quality
      // totals must equal the committed backend_compare Briggs numbers.
      // Briggs on the RT/PC 16 int + 8 float files, audit on, cache off
      // (the rac path), one client sending the routines in table order.
      {"fig5", WorkloadKind::Fig5, 0,
       "the paper's 28 Figure 5 routines through the rac path; Build "
       "dominates (Figure 7) and the spill totals are pinned to "
       "EXPERIMENTS.md"},
      // Three one-function kernels of 10k-16k live ranges: the Figure 4
      // loop's Build phase (renumber, coalesce, the O(N^2) bit matrix)
      // does most of the work, parallel Select engages (stacks >= 2048
      // nodes) and the matrices set peak memory. The 50k ramp is left out
      // to bound memory and run length.
      {"mega", WorkloadKind::Mega, 0,
       "three 10k-16k live-range kernels: renumber, coalesce and the "
       "O(N^2) graph build dominate, parallel select engages, and memory "
       "matters"},
      // racd traffic: min(4, nproc) clients on one socket, a seeded mix
      // of briggs and linear-scan requests over generated modules at
      // int=6/flt=3. About 3 requests in 4 repeat a recent pair; the
      // distinct pairs outnumber the cache entries, so evictions happen
      // and some repeats miss. The only workload where linear scan and
      // the cache do work. Left out of BENCHMARK.json: on a shared host
      // its medians moved past the 0.25 bound between two sets of runs
      // (README.md), so fig5's traced run stands in for those layers.
      {"service", WorkloadKind::Service, 1989,
       "racd clients on a socket sending mostly repeated briggs and "
       "linear-scan requests; parse, print and the cache dominate hits"},
  };
  for (const WorkloadSpec &S : Specs)
    if (Name == S.Name)
      return &S;
  return nullptr;
}

namespace {

std::vector<Input> fig5Inputs() {
  std::vector<Input> Out;
  for (const Workload &W : allWorkloads()) {
    Module M;
    W.Build(M);
    Input In;
    In.Name = W.Routine;
    In.Source = printModule(M);
    In.Alloc.B = Backend::GraphColoring;
    In.Alloc.H = Heuristic::Briggs;
    In.Alloc.Audit = true;
    In.Allocator = "briggs";
    In.Init = W.Init;
    Out.push_back(std::move(In));
  }
  return Out;
}

std::vector<Input> megaInputs() {
  std::vector<Input> Out;
  for (const MegaKernel &MK : megaKernelFamily()) {
    if (MK.Name == "mega.ramp.50k")
      continue;
    Module M;
    MK.Build(M);
    Input In;
    In.Name = MK.Name;
    In.Source = printModule(M);
    In.Alloc.B = Backend::GraphColoring;
    In.Alloc.H = Heuristic::Briggs;
    In.Alloc.Audit = true;
    In.Alloc.ParallelGraph = true;
    In.Alloc.ParallelGraphJobs = benchThreads();
    In.Allocator = "briggs";
    Out.push_back(std::move(In));
  }
  return Out;
}

std::vector<Input> serviceInputs(uint64_t Seed) {
  std::vector<Input> Out;
  for (unsigned I = 0; I < ServiceModules; ++I) {
    Module M;
    // service_throughput's module shape.
    RandomProgramConfig Shape;
    Shape.MaxDepth = 3;
    Shape.StatementsPerBlock = 10;
    Shape.Regions = 12;
    Shape.IntVars = 10;
    Shape.FloatVars = 10;
    buildRandomProgram(M, Seed + I, Shape);
    std::string Source = printModule(M);
    for (const char *Allocator : {"briggs", "linear-scan"}) {
      Input In;
      In.Name = M.function(0).name() + "/" + Allocator;
      In.Source = Source;
      parseAllocatorName(Allocator, In.Alloc.B, In.Alloc.H);
      In.Alloc.Machine = MachineInfo(ServiceIntRegs, ServiceFltRegs);
      In.Alloc.Audit = true;
      In.Allocator = Allocator;
      Out.push_back(std::move(In));
    }
  }
  return Out;
}

} // namespace

std::vector<Input> perfbench::buildInputs(const WorkloadSpec &Spec) {
  switch (Spec.Kind) {
  case WorkloadKind::Fig5:
    return fig5Inputs();
  case WorkloadKind::Mega:
    return megaInputs();
  case WorkloadKind::Service:
    return serviceInputs(Spec.CorpusSeed);
  }
  return {};
}
