//===- bench/micro_text.cpp - IR text layer microbenchmarks ---------------===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// google-benchmark microbenchmarks for the text layer: parseModule and
// printModule over the 28 Figure 5 routines (the texts perfbench's fig5
// workload sends) and over the R = 1,200 random stress ladder text.
// Each case reports bytes of text per second, so the MB/s column reads
// directly against a parse or print target.
//
//===----------------------------------------------------------------------===//

#include "ir/IRParser.h"
#include "ir/IRPrinter.h"
#include "workloads/MegaKernel.h"
#include "workloads/Workloads.h"

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <memory>

using namespace ra;

namespace {

/// The modules of one input set, built once, and their printed texts.
struct TextSet {
  std::vector<std::unique_ptr<Module>> Modules;
  std::vector<std::string> Texts;
  int64_t Bytes = 0;

  void add(std::unique_ptr<Module> M) {
    Texts.push_back(printModule(*M));
    Bytes += Texts.back().size();
    Modules.push_back(std::move(M));
  }
};

const TextSet &fig5() {
  static const TextSet S = [] {
    TextSet S;
    for (const Workload &W : allWorkloads()) {
      auto M = std::make_unique<Module>();
      W.Build(*M);
      S.add(std::move(M));
    }
    return S;
  }();
  return S;
}

const TextSet &ladder() {
  static const TextSet S = [] {
    TextSet S;
    auto M = std::make_unique<Module>();
    buildRandomStress(*M, 20260808, 1200, "ladder1200");
    S.add(std::move(M));
    return S;
  }();
  return S;
}

void BM_Parse(benchmark::State &State, const TextSet &(*Set)()) {
  const TextSet &S = Set();
  for (auto _ : State)
    for (const std::string &Text : S.Texts) {
      Module M;
      std::string Err;
      if (!parseModule(Text, M, Err)) {
        std::fprintf(stderr, "parse failed: %s\n", Err.c_str());
        std::exit(1);
      }
      benchmark::DoNotOptimize(M);
    }
  State.SetBytesProcessed(State.iterations() * S.Bytes);
}

void BM_Print(benchmark::State &State, const TextSet &(*Set)()) {
  const TextSet &S = Set();
  for (auto _ : State)
    for (const auto &M : S.Modules) {
      std::string Text = printModule(*M);
      benchmark::DoNotOptimize(Text);
    }
  State.SetBytesProcessed(State.iterations() * S.Bytes);
}

BENCHMARK_CAPTURE(BM_Parse, Fig5, fig5)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Print, Fig5, fig5)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Parse, Ladder1200, ladder)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Print, Ladder1200, ladder)
    ->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
