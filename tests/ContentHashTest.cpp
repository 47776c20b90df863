//===- tests/ContentHashTest.cpp - Cache-key coverage of AllocatorConfig --===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// The allocation cache may only serve a result computed under the same
// configuration. These tests pin the config half of the cache key:
//
//  * canonicalConfigText renders the default and one non-default
//    AllocatorConfig as fixed literal lines, so a refactor of the key
//    cannot silently change (and thereby cold-start or alias) it;
//  * every AllocatorConfig field, plus the optimize toggle, is
//    classified keyed, neutral or cache-bypass, and each is flipped: a
//    keyed flip changes the key, a neutral flip changes neither the key
//    nor any fig5 allocation, a bypass flip makes the config uncacheable.
//    A new field fails to compile until it is classified here.
//
//===----------------------------------------------------------------------===//

#include "ir/IRPrinter.h"
#include "ir/Module.h"
#include "service/ContentHash.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <type_traits>

using namespace ra;
using namespace ra::service;

namespace {

TEST(ContentHashTest, ConfigTextIsPinned) {
  // Audit's default follows RA_AUDIT, which CI's sanitizer and backend
  // jobs set; pin the field so the literal holds in every job.
  AllocatorConfig Default;
  Default.Audit = false;
  EXPECT_EQ(canonicalConfigText(Default, true),
            "config backend=graph-coloring heuristic=briggs int=16 flt=8 "
            "maxpasses=32 coalesce=1 aggressive=1 remat=0 audit=0 metrics=0 "
            "opt=1\n");

  AllocatorConfig C;
  C.B = Backend::LinearScan;
  C.H = Heuristic::MatulaBeck;
  C.Machine = MachineInfo(6, 4);
  C.MaxPasses = 7;
  C.Coalesce = false;
  C.Coalescing = CoalescePolicy::Conservative;
  C.Rematerialize = true;
  C.Audit = true;
  C.CollectMetrics = true;
  EXPECT_EQ(canonicalConfigText(C, false),
            "config backend=linear-scan heuristic=matula-beck int=6 flt=4 "
            "maxpasses=7 coalesce=0 aggressive=0 remat=1 audit=1 metrics=1 "
            "opt=0\n");
}

// Every field below is classified in classifiedFields(). Adding a field
// to AllocatorConfig or FaultInjectOptions changes its size and stops
// this file from compiling: classify the new field there, then update
// the size. (A field small enough to fit in existing padding would slip
// past, which is why the list names each field it covers.) The sizes
// are those of 64-bit libstdc++ builds, the CI toolchain. CostModel
// holds no state, so there is no second value to flip Costs to; if it
// gains one, it prices spills and must be keyed.
#if defined(__GLIBCXX__) && UINTPTR_MAX == UINT64_MAX
static_assert(sizeof(AllocatorConfig) == 120,
              "AllocatorConfig changed: classify the new field below");
static_assert(sizeof(FaultInjectOptions) == 48,
              "FaultInjectOptions changed: classify the new field below");
#endif
static_assert(std::is_empty_v<CostModel>,
              "CostModel gained state: key it in canonicalConfigText");

/// How a field relates to the cache key.
enum class KeyClass {
  Keyed,   ///< can change the allocation, so it is part of the key
  Neutral, ///< never changes a converged allocation; left out of the key
  Bypass,  ///< deliberate breakage: the config is never cached
};

struct ClassifiedField {
  const char *Name;
  KeyClass Class;
  /// Sets the field away from the base config. The inert ParallelGraph
  /// fields are flipped together, the way perfbench sets them.
  std::function<void(AllocatorConfig &, bool &Optimize)> Flip;
};

std::vector<ClassifiedField> classifiedFields() {
  using K = KeyClass;
  using C = AllocatorConfig &;
  return {
      {"B", K::Keyed, [](C A, bool &) { A.B = Backend::LinearScan; }},
      {"H", K::Keyed, [](C A, bool &) { A.H = Heuristic::Chaitin; }},
      {"Machine.Int", K::Keyed,
       [](C A, bool &) { A.Machine = A.Machine.withIntRegs(5); }},
      {"Machine.Float", K::Keyed,
       [](C A, bool &) { A.Machine = A.Machine.withFloatRegs(3); }},
      {"MaxPasses", K::Keyed, [](C A, bool &) { A.MaxPasses = 2; }},
      {"Coalesce", K::Keyed, [](C A, bool &) { A.Coalesce = false; }},
      {"Coalescing", K::Keyed,
       [](C A, bool &) { A.Coalescing = CoalescePolicy::Conservative; }},
      {"Rematerialize", K::Keyed,
       [](C A, bool &) { A.Rematerialize = true; }},
      {"Audit", K::Keyed, [](C A, bool &) { A.Audit = !A.Audit; }},
      {"CollectMetrics", K::Keyed,
       [](C A, bool &) { A.CollectMetrics = true; }},
      {"Optimize", K::Keyed, [](C, bool &Opt) { Opt = false; }},
      {"Jobs", K::Neutral, [](C A, bool &) { A.Jobs = 4; }},
      {"ParallelGraph", K::Neutral,
       [](C A, bool &) {
         A.ParallelGraph = true;
         A.ParallelGraphMinNodes = 0;
       }},
      {"ParallelGraphJobs", K::Neutral,
       [](C A, bool &) {
         A.ParallelGraph = true;
         A.ParallelGraphMinNodes = 0;
         A.ParallelGraphJobs = 3;
       }},
      {"ParallelGraphMinNodes", K::Neutral,
       [](C A, bool &) {
         A.ParallelGraph = true;
         A.ParallelGraphMinNodes = 16;
       }},
      {"DeadlineSeconds", K::Neutral,
       [](C A, bool &) { A.DeadlineSeconds = 3600; }},
      {"MemoryBudgetBytes", K::Neutral,
       [](C A, bool &) { A.MemoryBudgetBytes = uint64_t(1) << 32; }},
      {"FaultInject.Miscolor", K::Bypass,
       [](C A, bool &) { A.FaultInject.Miscolor = true; }},
      {"FaultInject.NonConvergence", K::Bypass,
       [](C A, bool &) { A.FaultInject.NonConvergence = true; }},
      {"FaultInject.ThrowInFunction", K::Bypass,
       [](C A, bool &) { A.FaultInject.ThrowInFunction = "f"; }},
      {"FaultInject.SlowPhaseMicros", K::Bypass,
       [](C A, bool &) { A.FaultInject.SlowPhaseMicros = 1; }},
      {"FaultInject.GraphMemorySpike", K::Bypass,
       [](C A, bool &) { A.FaultInject.GraphMemorySpike = true; }},
  };
}

/// The base every flip starts from: the default config at a 6+4 file,
/// with Audit pinned so RA_AUDIT cannot move it.
AllocatorConfig baseConfig() {
  AllocatorConfig C;
  C.Machine = MachineInfo(6, 4);
  C.Audit = false;
  return C;
}

/// printFunction + ColorOf of every fig5 routine allocated under \p C.
std::vector<std::string> fig5Allocations(const AllocatorConfig &C) {
  std::vector<std::string> Out;
  for (const Workload &W : allWorkloads()) {
    Module M;
    Function &F = W.Build(M);
    AllocationResult A = allocateRegisters(F, C);
    std::string Text = printFunction(M, F) + "colors:";
    for (int32_t Color : A.ColorOf)
      Text += " " + std::to_string(Color);
    Out.push_back(W.Routine + "\n" + Text);
  }
  return Out;
}

TEST(ContentHashTest, EveryConfigFieldIsClassified) {
  const AllocatorConfig Base = baseConfig();
  Module M;
  Function &F = allWorkloads().front().Build(M);
  const std::string BaseKey = canonicalFunctionKey(M, F, Base, true);
  const std::vector<std::string> BaseAllocs = fig5Allocations(Base);
  ASSERT_TRUE(cacheableConfig(Base));

  for (const ClassifiedField &Field : classifiedFields()) {
    SCOPED_TRACE(Field.Name);
    AllocatorConfig C = Base;
    bool Optimize = true;
    Field.Flip(C, Optimize);
    const std::string Key = canonicalFunctionKey(M, F, C, Optimize);
    switch (Field.Class) {
    case KeyClass::Keyed:
      EXPECT_NE(Key, BaseKey) << "a result-changing field is not keyed";
      break;
    case KeyClass::Neutral: {
      EXPECT_EQ(Key, BaseKey) << "a neutral field splits the cache";
      std::vector<std::string> Allocs = fig5Allocations(C);
      ASSERT_EQ(Allocs.size(), BaseAllocs.size());
      for (size_t I = 0; I < Allocs.size(); ++I)
        EXPECT_EQ(Allocs[I], BaseAllocs[I])
            << "a neutral field changed an allocation";
      break;
    }
    case KeyClass::Bypass:
      EXPECT_FALSE(cacheableConfig(C)) << "breakage would be cached";
      break;
    }
  }
}

} // namespace
