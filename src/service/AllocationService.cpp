//===- service/AllocationService.cpp - Allocation as a service ------------===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "service/AllocationService.h"

#include "ir/IRParser.h"
#include "ir/Verifier.h"
#include "opt/Optimizer.h"
#include "service/ContentHash.h"
#include "support/Trace.h"

using namespace ra;
using namespace ra::service;

AllocationService::AllocationService(const ServiceConfig &SC)
    : SC(SC), Cache(SC.CacheEnabled ? SC.CacheMaxEntries : 0,
                    SC.CacheEnabled ? SC.CacheMaxBytes : 0),
      Pool(ThreadPool::resolveJobs(SC.Workers)) {}

ServiceReply AllocationService::run(const ServiceRequest &R) {
  Requests.fetch_add(1, std::memory_order_relaxed);
  ServiceReply Reply;
  Reply.M = std::make_unique<Module>();

  std::string Error;
  if (!parseModule(R.Source, *Reply.M, Error)) {
    Reply.S = Status::error(StatusCode::ParseError, Error);
    Reply.M.reset();
    return Reply;
  }

  auto Errors = verifyModule(*Reply.M);
  if (!Errors.empty()) {
    // Shaped exactly as the rac CLI has always reported it.
    Reply.S = Status::error(StatusCode::VerifyError, Errors.front());
    if (Errors.size() > 1)
      Reply.S.addContext(std::to_string(Errors.size()) +
                         " verifier errors, first");
    Reply.M.reset();
    return Reply;
  }

  Module &M = *Reply.M;
  const AllocatorConfig &C = R.Alloc;
  const unsigned N = M.numFunctions();
  Reply.CacheHit.assign(N, 0);

  RA_TRACE_SPAN("ServiceRequest", "service", [&] {
    return "functions=" + std::to_string(N);
  });

  const bool Cacheable =
      SC.CacheEnabled && R.UseCache && cacheableConfig(C);

  // Phase 1: cache probe. Hit = substitute the memoized rewritten
  // function (deep copy) and result; the Build->Select work — ~97% of
  // allocation time — never runs.
  std::vector<std::string> Keys(N);
  std::vector<AllocCache::Value> Hits(N);
  std::vector<unsigned> Misses;
  Misses.reserve(N);
  for (unsigned I = 0; I < N; ++I) {
    if (Cacheable) {
      Keys[I] = canonicalFunctionKey(M, M.function(I), C, R.Optimize);
      if (Cache.lookup(Keys[I], Hits[I])) {
        M.function(I) = std::move(Hits[I].F);
        Reply.CacheHit[I] = 1;
        continue;
      }
    }
    Misses.push_back(I);
  }

  // Phase 2: optimize-then-allocate the misses on the shared pool.
  // Optimization happens inside the work unit (not up front) so a hit
  // skips it too; functions are independent, so the result is identical
  // either way.
  std::function<void(Function &)> PreStep;
  if (R.Optimize)
    PreStep = optimizeFunction;
  Reply.MA = allocateModule(M, C, &Pool, &Misses, PreStep);
  for (unsigned I = 0; I < N; ++I)
    if (Reply.CacheHit[I])
      Reply.MA.Functions[I] = std::move(Hits[I].A);

  // Phase 3: memoize fresh Converged results. Degraded and Failed
  // outcomes are wall-clock-dependent (or broken) and never cached.
  if (Cacheable)
    for (unsigned I : Misses)
      if (Reply.MA.Functions[I].Outcome == AllocOutcome::Converged) {
        AllocCache::Value V;
        V.F = M.function(I);
        V.A = Reply.MA.Functions[I];
        Cache.insert(Keys[I], V);
      }
  return Reply;
}
