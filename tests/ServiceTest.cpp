//===- tests/ServiceTest.cpp - AllocationService + AllocCache tests -------===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// The allocation-as-a-service contract:
//
//  * a cache hit reproduces the cold run byte for byte, under every
//    allocator backend;
//  * the cache honors both its bounds — LRU entry eviction and the
//    Budget-charged byte ceiling (an entry that cannot fit is refused,
//    never force-fitted);
//  * content keys are deliberately rename-SENSITIVE and exclude pure
//    performance knobs;
//  * concurrent clients hammering one service stay consistent;
//  * a worker exception fails only its own function;
//  * cache counters flow into an active Trace session.
//
//===----------------------------------------------------------------------===//

#include "ir/IRBuilder.h"
#include "ir/IRParser.h"
#include "ir/IRPrinter.h"
#include "opt/Optimizer.h"
#include "service/AllocationService.h"
#include "service/ContentHash.h"
#include "support/Trace.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

using namespace ra;
using namespace ra::service;

namespace {

/// A loop with array traffic and enough pressure to make the allocator
/// work: sum = 0; for (i = 0; i < n; ++i) { a[i] = i*3; sum += a[i]; }
void buildSum(Module &M, uint32_t Arr, const std::string &FnName,
              const char *IVar) {
  Function &F = M.newFunction(FnName);
  IRBuilder B(M, F);
  uint32_t Entry = B.newBlock("entry");
  uint32_t Loop = B.newBlock("loop");
  uint32_t Body = B.newBlock("body");
  uint32_t Exit = B.newBlock("exit");

  B.setInsertPoint(Entry);
  VRegId I = B.iReg(IVar);
  VRegId N = B.iReg("n");
  VRegId Sum = B.iReg("sum");
  B.movI(0, I);
  B.movI(10, N);
  B.movI(0, Sum);
  B.jmp(Loop);

  B.setInsertPoint(Loop);
  B.br(CmpKind::LT, I, N, Body, Exit);

  B.setInsertPoint(Body);
  VRegId V = B.mulI(I, 3);
  B.store(Arr, I, V);
  VRegId L = B.load(Arr, I);
  B.add(Sum, L, Sum);
  B.addI(I, 1, I);
  B.jmp(Loop);

  B.setInsertPoint(Exit);
  B.ret(Sum);
}

std::string sumSource(const char *FnName = "sum", const char *IVar = "i") {
  Module M;
  buildSum(M, M.newArray("a", 64, RegClass::Int), FnName, IVar);
  return printModule(M);
}

AllocatorConfig tightConfig(Backend B, Heuristic H) {
  AllocatorConfig C;
  C.B = B;
  C.H = H;
  C.Machine = MachineInfo(3, 2); // pressure -> spill code on the hit path
  C.Audit = true;
  return C;
}

struct BackendCase {
  Backend B;
  Heuristic H;
};

void PrintTo(const BackendCase &C, std::ostream *OS) {
  *OS << allocatorName(C.B, C.H);
}

class ServiceBackendTest : public ::testing::TestWithParam<BackendCase> {};

// The headline contract: replaying a request through the service must be
// served from the cache and reproduce the cold allocation byte for
// byte — rewritten code, color assignments, and stats — under every
// allocator configuration.
TEST_P(ServiceBackendTest, WarmHitIsByteIdenticalToColdRun) {
  AllocationService Svc;
  ServiceRequest R;
  R.Source = sumSource();
  R.Alloc = tightConfig(GetParam().B, GetParam().H);

  ServiceReply Cold = Svc.run(R);
  ASSERT_TRUE(Cold.S.ok()) << Cold.S.toString();
  ASSERT_EQ(Cold.numHits(), 0u);
  ASSERT_TRUE(Cold.MA.Functions[0].Success)
      << Cold.MA.Functions[0].Diag.toString();
  EXPECT_EQ(Cold.MA.Functions[0].Outcome, AllocOutcome::Converged);

  ServiceReply Warm = Svc.run(R);
  ASSERT_TRUE(Warm.S.ok()) << Warm.S.toString();
  ASSERT_EQ(Warm.numHits(), Warm.M->numFunctions());

  EXPECT_EQ(printModule(*Cold.M), printModule(*Warm.M));
  EXPECT_EQ(Cold.MA.Functions[0].ColorOf, Warm.MA.Functions[0].ColorOf);
  EXPECT_EQ(Cold.MA.Functions[0].Stats.totalSpills(),
            Warm.MA.Functions[0].Stats.totalSpills());
  EXPECT_EQ(Cold.MA.Functions[0].Stats.numPasses(),
            Warm.MA.Functions[0].Stats.numPasses());

  CacheStats CS = Svc.cacheStats();
  EXPECT_EQ(CS.Hits, 1u);
  EXPECT_EQ(CS.Misses, 1u);
  EXPECT_EQ(CS.Insertions, 1u);
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, ServiceBackendTest,
    ::testing::Values(
        BackendCase{Backend::GraphColoring, Heuristic::Chaitin},
        BackendCase{Backend::GraphColoring, Heuristic::Briggs},
        BackendCase{Backend::GraphColoring, Heuristic::MatulaBeck},
        BackendCase{Backend::LinearScan, Heuristic::Briggs}),
    [](const ::testing::TestParamInfo<BackendCase> &Info) {
      std::string Name = allocatorName(Info.param.B, Info.param.H);
      for (char &C : Name)
        if (C == '-')
          C = '_';
      return Name;
    });

TEST(ServiceTest, PerRequestCacheOptOutBypassesTheCache) {
  AllocationService Svc;
  ServiceRequest R;
  R.Source = sumSource();
  R.Alloc = tightConfig(Backend::GraphColoring, Heuristic::Briggs);
  R.UseCache = false;

  ServiceReply A = Svc.run(R);
  ServiceReply B = Svc.run(R);
  ASSERT_TRUE(A.S.ok());
  ASSERT_TRUE(B.S.ok());
  EXPECT_EQ(A.numHits() + B.numHits(), 0u);
  CacheStats CS = Svc.cacheStats();
  EXPECT_EQ(CS.Hits + CS.Misses + CS.Insertions, 0u);
  // Still deterministic, just not memoized.
  EXPECT_EQ(printModule(*A.M), printModule(*B.M));
}

TEST(ServiceTest, FaultInjectedConfigsAreNeverCached) {
  AllocationService Svc;
  ServiceRequest R;
  R.Source = sumSource();
  R.Alloc = tightConfig(Backend::GraphColoring, Heuristic::Briggs);
  R.Alloc.FaultInject.Miscolor = true; // degrades via the audit ladder

  ServiceReply A = Svc.run(R);
  ASSERT_TRUE(A.S.ok());
  ServiceReply B = Svc.run(R);
  ASSERT_TRUE(B.S.ok());
  EXPECT_EQ(A.numHits() + B.numHits(), 0u);
  EXPECT_EQ(Svc.cacheStats().Insertions, 0u);
}

TEST(ServiceTest, ParseFailureIsStructuredAndModuleFree) {
  AllocationService Svc;
  ServiceRequest R;
  R.Source = "this is not a module";
  ServiceReply Reply = Svc.run(R);
  EXPECT_FALSE(Reply.S.ok());
  EXPECT_EQ(Reply.S.code(), StatusCode::ParseError);
  EXPECT_EQ(Reply.M, nullptr);
}

// Concurrent clients hammering one service: half replay one shared
// module (same key), half send distinct modules (distinct keys). Every
// reply must match the single-threaded reference byte for byte.
TEST(ServiceTest, ConcurrentHammerStaysConsistent) {
  const unsigned Threads = 8, Iters = 6;
  AllocatorConfig C = tightConfig(Backend::GraphColoring,
                                  Heuristic::Briggs);

  const std::string Shared = sumSource();
  std::vector<std::string> Distinct(Threads);
  for (unsigned T = 0; T < Threads; ++T)
    Distinct[T] = sumSource(("fn" + std::to_string(T)).c_str());

  // Single-threaded references.
  std::string SharedRef;
  std::vector<std::string> DistinctRef(Threads);
  {
    AllocationService Ref;
    ServiceRequest R;
    R.Alloc = C;
    R.Source = Shared;
    SharedRef = printModule(*Ref.run(R).M);
    for (unsigned T = 0; T < Threads; ++T) {
      R.Source = Distinct[T];
      DistinctRef[T] = printModule(*Ref.run(R).M);
    }
  }

  AllocationService Svc;
  std::vector<std::string> Failures(Threads);
  std::vector<std::thread> Pool;
  for (unsigned T = 0; T < Threads; ++T)
    Pool.emplace_back([&, T] {
      for (unsigned I = 0; I < Iters; ++I) {
        ServiceRequest R;
        R.Alloc = C;
        const bool UseShared = (T % 2) == 0;
        R.Source = UseShared ? Shared : Distinct[T];
        ServiceReply Reply = Svc.run(R);
        if (!Reply.S.ok()) {
          Failures[T] = Reply.S.toString();
          return;
        }
        std::string Got = printModule(*Reply.M);
        const std::string &Want = UseShared ? SharedRef : DistinctRef[T];
        if (Got != Want) {
          Failures[T] = "byte divergence on iteration " +
                        std::to_string(I);
          return;
        }
      }
    });
  for (std::thread &T : Pool)
    T.join();
  for (unsigned T = 0; T < Threads; ++T)
    EXPECT_TRUE(Failures[T].empty()) << "thread " << T << ": "
                                     << Failures[T];

  // Every request either hit or missed; misses inserted at most once
  // per distinct key (benign races may drop duplicate insertions).
  CacheStats CS = Svc.cacheStats();
  EXPECT_EQ(CS.Hits + CS.Misses, uint64_t(Threads) * Iters);
  EXPECT_GE(CS.Hits, 1u);
  EXPECT_LE(CS.Entries, 1u + Threads / 2);
}

TEST(ServiceTest, CacheCountersFlowIntoTraceSessions) {
  trace::beginSession();
  {
    AllocationService Svc;
    ServiceRequest R;
    R.Source = sumSource();
    R.Alloc = tightConfig(Backend::GraphColoring, Heuristic::Briggs);
    (void)Svc.run(R);
    (void)Svc.run(R);
  }
  trace::SessionLog Log = trace::endSession();
  EXPECT_EQ(Log.counter("cache.hits"), 1.0);
  EXPECT_EQ(Log.counter("cache.misses"), 1.0);
  EXPECT_GT(Log.counter("cache.bytes"), 0.0);
}

// A worker that throws must fail only its own function, on the inline
// path (one worker) and on the pooled path alike. Every sibling must
// match the same function allocated by allocateModule outside the
// service byte for byte.
TEST(ServiceTest, WorkerExceptionFailsOnlyThatFunction) {
  Module Src;
  uint32_t Arr = Src.newArray("a", 64, RegClass::Int);
  for (unsigned I = 0; I < 4; ++I)
    buildSum(Src, Arr, "sum" + std::to_string(I), "i");
  const std::string Source = printModule(Src);
  const std::string Victim = "sum2";

  AllocatorConfig C = tightConfig(Backend::GraphColoring, Heuristic::Briggs);
  C.FaultInject.ThrowInFunction = Victim;

  Module Ref;
  std::string Error;
  ASSERT_TRUE(parseModule(Source, Ref, Error)) << Error;
  for (unsigned I = 0; I < Ref.numFunctions(); ++I)
    optimizeFunction(Ref.function(I));
  ModuleAllocationResult RefMA = allocateModule(Ref, C);

  for (unsigned Workers : {1u, 4u}) {
    ServiceConfig SC;
    SC.Workers = Workers;
    AllocationService Svc(SC);
    ServiceRequest R;
    R.Source = Source;
    R.Alloc = C;
    R.Alloc.Jobs = Workers;
    ServiceReply Reply = Svc.run(R);
    ASSERT_TRUE(Reply.S.ok()) << Reply.S.toString();
    ASSERT_EQ(Reply.MA.Functions.size(), Ref.numFunctions());
    for (unsigned I = 0; I < Ref.numFunctions(); ++I) {
      const AllocationResult &A = Reply.MA.Functions[I];
      const std::string Where =
          "workers=" + std::to_string(Workers) + " @" + Ref.function(I).name();
      if (Ref.function(I).name() == Victim) {
        EXPECT_EQ(A.Outcome, AllocOutcome::Failed) << Where;
        EXPECT_EQ(A.Diag.code(), StatusCode::WorkerError) << Where;
        EXPECT_NE(A.Diag.toString().find(Victim), std::string::npos)
            << Where << ": " << A.Diag.toString();
        continue;
      }
      ASSERT_TRUE(A.Success) << Where << ": " << A.Diag.toString();
      EXPECT_EQ(printFunction(*Reply.M, Reply.M->function(I)),
                printFunction(Ref, Ref.function(I)))
          << Where;
      EXPECT_EQ(A.ColorOf, RefMA.Functions[I].ColorOf) << Where;
      EXPECT_EQ(A.Stats.numPasses(), RefMA.Functions[I].Stats.numPasses())
          << Where;
    }
  }
}

//===--------------------------------------------------------------------===//
// AllocCache bounds.
//===--------------------------------------------------------------------===//

TEST(AllocCacheTest, LruEvictionDropsLeastRecentlyUsed) {
  AllocCache C(/*MaxEntries=*/2, /*MaxBytes=*/0);
  AllocCache::Value V;
  EXPECT_TRUE(C.insert("a", V));
  EXPECT_TRUE(C.insert("b", V));
  // Touch "a": "b" becomes the LRU tail.
  AllocCache::Value Out;
  EXPECT_TRUE(C.lookup("a", Out));
  EXPECT_TRUE(C.insert("c", V));

  EXPECT_TRUE(C.lookup("a", Out));
  EXPECT_FALSE(C.lookup("b", Out)) << "LRU entry was not the one evicted";
  EXPECT_TRUE(C.lookup("c", Out));

  CacheStats S = C.stats();
  EXPECT_EQ(S.Evictions, 1u);
  EXPECT_EQ(S.Entries, 2u);
}

TEST(AllocCacheTest, DuplicateInsertKeepsTheFirstEntry) {
  AllocCache C(/*MaxEntries=*/0, /*MaxBytes=*/0);
  AllocCache::Value V;
  EXPECT_TRUE(C.insert("k", V));
  EXPECT_FALSE(C.insert("k", V));
  EXPECT_EQ(C.stats().Insertions, 1u);
  EXPECT_EQ(C.stats().Entries, 1u);
}

TEST(AllocCacheTest, ByteCeilingRefusesOversizeEntries) {
  AllocCache::Value V;
  const uint64_t OneEntry = AllocCache::estimateBytes("k1", V);
  AllocCache C(/*MaxEntries=*/0, /*MaxBytes=*/OneEntry / 2);
  EXPECT_FALSE(C.insert("k1", V))
      << "an entry larger than the whole ceiling must be refused";
  CacheStats S = C.stats();
  EXPECT_EQ(S.Refusals, 1u);
  EXPECT_EQ(S.Insertions, 0u);
  EXPECT_EQ(S.Entries, 0u);
  EXPECT_EQ(S.BytesInUse, 0u);

  // The refusal must not poison the cache for entries that do fit:
  // the Budget token is re-armed, smaller keys still insert.
  AllocCache Fits(/*MaxEntries=*/0, /*MaxBytes=*/OneEntry * 2);
  EXPECT_TRUE(Fits.insert("k1", V));
  EXPECT_EQ(Fits.stats().BytesInUse, OneEntry);
}

TEST(AllocCacheTest, ByteCeilingEvictsUntilTheNewEntryFits) {
  AllocCache::Value V;
  const uint64_t OneEntry = AllocCache::estimateBytes("k1", V);
  // Room for one entry plus change, never two.
  AllocCache C(/*MaxEntries=*/0, /*MaxBytes=*/OneEntry + OneEntry / 2);
  EXPECT_TRUE(C.insert("k1", V));
  EXPECT_TRUE(C.insert("k2", V)) << "eviction should have made room";

  AllocCache::Value Out;
  EXPECT_FALSE(C.lookup("k1", Out));
  EXPECT_TRUE(C.lookup("k2", Out));
  CacheStats S = C.stats();
  EXPECT_EQ(S.Evictions, 1u);
  EXPECT_EQ(S.Entries, 1u);
  EXPECT_LE(S.BytesInUse, OneEntry + OneEntry / 2);
  EXPECT_EQ(S.Refusals, 0u);
}

TEST(AllocCacheTest, ClearReleasesEveryChargedByte) {
  AllocCache::Value V;
  const uint64_t OneEntry = AllocCache::estimateBytes("k1", V);
  AllocCache C(/*MaxEntries=*/0, /*MaxBytes=*/OneEntry * 4);
  EXPECT_TRUE(C.insert("k1", V));
  EXPECT_TRUE(C.insert("k2", V));
  C.clear();
  EXPECT_EQ(C.stats().Entries, 0u);
  EXPECT_EQ(C.stats().BytesInUse, 0u);
  // Freed budget is genuinely reusable.
  EXPECT_TRUE(C.insert("k3", V));
  EXPECT_TRUE(C.insert("k4", V));
  EXPECT_TRUE(C.insert("k5", V));
  EXPECT_TRUE(C.insert("k6", V));
}

//===--------------------------------------------------------------------===//
// Content keys.
//===--------------------------------------------------------------------===//

TEST(ContentHashTest, KeysAreDeliberatelyRenameSensitive) {
  // Alpha-equivalent functions (same shape, different names) must get
  // DIFFERENT keys: the cache stores the rewritten function verbatim,
  // and substituting a clone named @sum into a module expecting @other
  // would corrupt the module. Rename-insensitivity is explicitly NOT
  // assumed or attempted.
  Module A, B, C2;
  std::string EA, EB, EC;
  parseModule(sumSource("sum", "i"), A, EA);
  parseModule(sumSource("other", "i"), B, EB);
  parseModule(sumSource("sum", "j"), C2, EC);
  ASSERT_TRUE(EA.empty() && EB.empty() && EC.empty());

  AllocatorConfig C = tightConfig(Backend::GraphColoring,
                                  Heuristic::Briggs);
  std::string KeyA = canonicalFunctionKey(A, A.function(0), C, true);
  std::string KeyB = canonicalFunctionKey(B, B.function(0), C, true);
  std::string KeyC = canonicalFunctionKey(C2, C2.function(0), C, true);
  EXPECT_NE(KeyA, KeyB) << "function rename must change the key";
  EXPECT_NE(KeyA, KeyC) << "vreg rename must change the key";

  // Same content, parsed twice -> same key (and same short hash).
  Module A2;
  std::string EA2;
  parseModule(sumSource("sum", "i"), A2, EA2);
  ASSERT_TRUE(EA2.empty());
  std::string KeyA2 = canonicalFunctionKey(A2, A2.function(0), C, true);
  EXPECT_EQ(KeyA, KeyA2);
  EXPECT_EQ(contentHash(KeyA), contentHash(KeyA2));
}

TEST(ContentHashTest, ResultChangingConfigFieldsChangeTheKey) {
  Module M;
  std::string E;
  parseModule(sumSource(), M, E);
  ASSERT_TRUE(E.empty());
  AllocatorConfig C = tightConfig(Backend::GraphColoring,
                                  Heuristic::Briggs);
  const std::string Base = canonicalFunctionKey(M, M.function(0), C, true);

  AllocatorConfig C2 = C;
  C2.H = Heuristic::Chaitin;
  EXPECT_NE(Base, canonicalFunctionKey(M, M.function(0), C2, true));
  C2 = C;
  C2.B = Backend::LinearScan;
  EXPECT_NE(Base, canonicalFunctionKey(M, M.function(0), C2, true));
  C2 = C;
  C2.Machine = MachineInfo(4, 2);
  EXPECT_NE(Base, canonicalFunctionKey(M, M.function(0), C2, true));
  C2 = C;
  C2.Rematerialize = true;
  EXPECT_NE(Base, canonicalFunctionKey(M, M.function(0), C2, true));
  EXPECT_NE(Base, canonicalFunctionKey(M, M.function(0), C, false))
      << "the optimize toggle changes what gets allocated";
}

TEST(ContentHashTest, PurePerformanceKnobsDoNotChangeTheKey) {
  Module M;
  std::string E;
  parseModule(sumSource(), M, E);
  ASSERT_TRUE(E.empty());
  AllocatorConfig C = tightConfig(Backend::GraphColoring,
                                  Heuristic::Briggs);
  const std::string Base = canonicalFunctionKey(M, M.function(0), C, true);

  // Jobs is proven byte-identical elsewhere (ParallelAllocTest) and the
  // ParallelGraph fields are inert; including them would shatter the
  // cache across equivalent configurations.
  AllocatorConfig C2 = C;
  C2.Jobs = 16;
  C2.ParallelGraph = true;
  C2.ParallelGraphJobs = 7;
  C2.ParallelGraphMinNodes = 0;
  EXPECT_EQ(Base, canonicalFunctionKey(M, M.function(0), C2, true));

  // Governance limits are excluded too: only Converged results are
  // cached, and a converged run under a deadline is identical to the
  // unbounded run by construction.
  C2 = C;
  C2.DeadlineSeconds = 5;
  C2.MemoryBudgetBytes = 1ull << 30;
  EXPECT_EQ(Base, canonicalFunctionKey(M, M.function(0), C2, true));

  EXPECT_FALSE(cacheableConfig([] {
    AllocatorConfig F;
    F.FaultInject.Miscolor = true;
    return F;
  }()));
  EXPECT_TRUE(cacheableConfig(C));
}

TEST(ContentHashTest, ArrayTableParticipatesInTheKey) {
  // Instructions reference arrays by id; a cached clone substituted
  // into a module with a different array table would silently retarget
  // its loads and stores. The key must therefore pin the table.
  Module A, B;
  std::string EA, EB;
  std::string SrcA = sumSource();
  parseModule(SrcA, A, EA);
  // Same function text, but the module declares a differently-sized
  // array table.
  std::string SrcB = SrcA;
  size_t Pos = SrcB.find("[64]");
  ASSERT_NE(Pos, std::string::npos);
  SrcB.replace(Pos, 4, "[32]");
  parseModule(SrcB, B, EB);
  ASSERT_TRUE(EA.empty() && EB.empty());

  AllocatorConfig C = tightConfig(Backend::GraphColoring,
                                  Heuristic::Briggs);
  EXPECT_NE(canonicalFunctionKey(A, A.function(0), C, true),
            canonicalFunctionKey(B, B.function(0), C, true));
}

TEST(ContentHashTest, Fnv1a64MatchesReferenceVectors) {
  // Published FNV-1a test vectors pin the implementation.
  EXPECT_EQ(fnv1a64("", 0), 0xCBF29CE484222325ull);
  EXPECT_EQ(fnv1a64("a", 1), 0xAF63DC4C8601EC8Cull);
  EXPECT_EQ(fnv1a64("foobar", 6), 0x85944171F73967E8ull);
}

} // namespace
