//===- tests/ContentHashTest.cpp - Cache-key coverage of the settings -----===//
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
//  * every row of the settings table (service/Config.cpp) is flipped
//    and checked against its class: a keyed flip changes the key, a
//    neutral flip changes neither the key nor any fig5 allocation, a
//    bypass flip keeps the request out of the cache. Config.cpp pins the
//    size of each struct the rows cover, so a new field does not compile
//    until it has a row;
//  * tests/golden/config_key.golden pins the bytes the settings write:
//    the key's config line for the default and each keyed row flipped,
//    the FNV-1a hash of every fig5 routine's and corpus function's key,
//    the wire line for the default and each wire row flipped, and the
//    shared flags' usage text. Regenerate on purpose with
//      RA_UPDATE_GOLDEN=1 build/tests/ra_tests --gtest_filter='*Golden*'
//
//===----------------------------------------------------------------------===//

#include "Corpus.h"
#include "Golden.h"

#include "ir/IRPrinter.h"
#include "ir/Module.h"
#include "service/AllocationService.h"
#include "service/ContentHash.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>

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

/// \p Base with \p S moved off its default: a shared flag's Other value
/// parsed into \p W and applied to the request, or the row's Flip.
ServiceRequest flipped(const Setting &S, WireConfig &W,
                       const ServiceRequest &Base) {
  ServiceRequest R = Base;
  if (S.onWire()) {
    const std::string Before = W.render();
    EXPECT_TRUE(S.Other && W.parse(std::string(S.Key) + "=" + S.Other).ok())
        << S.Field << " has no other value";
    EXPECT_NE(W.render(), Before) << S.Field << "'s other value is its default";
    if (S.Apply)
      S.Apply(W, R);
  } else {
    EXPECT_TRUE(S.Flip) << S.Field << " has no flip";
    if (S.Flip)
      S.Flip(R.Alloc);
  }
  return R;
}

bool cached(const ServiceRequest &R) {
  return R.UseCache && cacheableConfig(R.Alloc);
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
  // The base is the default wire line at a 6+4 file, so fig5 spills;
  // applying it sets the audit, so RA_AUDIT cannot move it.
  WireConfig BaseW;
  BaseW.IntK = 6;
  BaseW.FltK = 4;
  ServiceRequest Base;
  ASSERT_TRUE(BaseW.apply(Base).ok());
  Module M;
  Function &F = allWorkloads().front().Build(M);
  const std::string BaseKey =
      canonicalFunctionKey(M, F, Base.Alloc, Base.Optimize);
  const std::vector<std::string> BaseAllocs = fig5Allocations(Base.Alloc);
  ASSERT_TRUE(cached(Base));

  for (const Setting &S : settings()) {
    SCOPED_TRACE(S.Field);
    WireConfig W = BaseW;
    const ServiceRequest R = flipped(S, W, Base);
    const std::string Key = canonicalFunctionKey(M, F, R.Alloc, R.Optimize);
    switch (S.Class) {
    case KeyClass::Keyed:
      EXPECT_NE(Key, BaseKey) << "a result-changing field is not keyed";
      break;
    case KeyClass::Neutral: {
      EXPECT_EQ(Key, BaseKey) << "a neutral field splits the cache";
      std::vector<std::string> Allocs = fig5Allocations(R.Alloc);
      ASSERT_EQ(Allocs.size(), BaseAllocs.size());
      for (size_t I = 0; I < Allocs.size(); ++I)
        EXPECT_EQ(Allocs[I], BaseAllocs[I])
            << "a neutral field changed an allocation";
      break;
    }
    case KeyClass::Bypass:
      EXPECT_FALSE(cached(R)) << "breakage would be cached";
      break;
    }
  }
}

/// "<label> <line>" for a one-line text that ends in a newline.
std::string goldenLine(const std::string &Label, std::string Text) {
  EXPECT_EQ(Text.back(), '\n') << Label;
  Text.pop_back();
  return Label + " " + Text;
}

std::string hexHash(const std::string &Key) {
  char Hash[17];
  std::snprintf(Hash, sizeof(Hash), "%016llx",
                (unsigned long long)contentHash(Key));
  return Hash;
}

TEST(ContentHashTest, ConfigKeyMatchesGolden) {
  // The base is the default wire line applied, so RA_AUDIT cannot move
  // the audit field.
  const WireConfig BaseW;
  ServiceRequest Base;
  ASSERT_TRUE(BaseW.apply(Base).ok());
  const AllocatorConfig &BaseC = Base.Alloc;
  std::vector<std::string> Lines;
  Lines.push_back(goldenLine("key default", canonicalConfigText(BaseC, true)));
  for (const Setting &S : settings()) {
    if (S.Class != KeyClass::Keyed)
      continue;
    WireConfig W = BaseW;
    ServiceRequest R = flipped(S, W, Base);
    Lines.push_back(goldenLine("key " + std::string(S.Field),
                               canonicalConfigText(R.Alloc, R.Optimize)));
  }
  for (const Workload &Wl : allWorkloads()) {
    Module M;
    Function &F = Wl.Build(M);
    Lines.push_back("hash fig5." + Wl.Routine + " " +
                    hexHash(canonicalFunctionKey(M, F, BaseC, true)));
  }
  forEachCorpusFunction([&](Module &M, Function &F, const std::string &File) {
    Lines.push_back("hash corpus." + File + "@" + F.name() + " " +
                    hexHash(canonicalFunctionKey(M, F, BaseC, true)));
  });
  Lines.push_back("wire default " + BaseW.render());
  for (const Setting &S : settings()) {
    if (!S.onWire())
      continue;
    WireConfig W = BaseW;
    flipped(S, W, Base);
    Lines.push_back("wire " + std::string(S.Field) + " " + W.render());
  }
  const std::string Usage = WireConfig::flagUsage();
  for (size_t Pos = 0; Pos < Usage.size();) {
    size_t End = Usage.find('\n', Pos);
    Lines.push_back("usage " + Usage.substr(Pos, End - Pos));
    Pos = End + 1;
  }
  checkGolden("config_key.golden", Lines);
}

} // namespace
