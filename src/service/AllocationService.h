//===- service/AllocationService.h - Allocation as a service ---*- C++ -*-===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The library-level allocation driver behind both the rac CLI and the
/// racd daemon: parse -> verify -> (optimize) -> allocate every
/// function, with a content-addressed AllocCache in front of the
/// Build->Select work. One AllocationService instance serves any number
/// of requests, from any number of threads, sharing one ThreadPool and
/// one cache:
///
///  * a cache HIT substitutes the memoized rewritten function (a deep
///    copy) and its AllocationResult into the request's module —
///    byte-identical to the cold run and skipping renumber/build/
///    simplify/select/spill/audit entirely;
///  * the MISSES go to allocateModule — the one module fan-out — on the
///    shared pool, with the optimizer as its per-function pre-step
///    (function order preserved, worker exceptions converted to
///    per-function WorkerError results); each result that Converged
///    under a cacheable config is inserted for the next request.
///
/// Only Converged results are memoized: Degraded outcomes depend on
/// when a deadline tripped, which is wall-clock state, not content.
/// Per-request resource governance (AllocatorConfig::DeadlineSeconds /
/// MemoryBudgetBytes) rides through unchanged — each function arms its
/// own Budget inside allocateRegisters, so one abusive request degrades
/// only itself while its pool-mates proceed.
///
//===----------------------------------------------------------------------===//

#ifndef RA_SERVICE_ALLOCATIONSERVICE_H
#define RA_SERVICE_ALLOCATIONSERVICE_H

#include "ir/Module.h"
#include "regalloc/Allocator.h"
#include "service/AllocCache.h"
#include "support/ThreadPool.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace ra {
namespace service {

/// Construction-time configuration of one service instance.
struct ServiceConfig {
  bool CacheEnabled = true;
  uint64_t CacheMaxEntries = 1u << 16; ///< 0 = unbounded.
  uint64_t CacheMaxBytes = 256ull << 20; ///< 0 = unbounded.
  /// Pool width for miss allocation; 0 = one per hardware thread.
  unsigned Workers = 0;
};

/// One allocation request: a textual IR module plus the per-request
/// allocation configuration.
struct ServiceRequest {
  std::string Source;
  AllocatorConfig Alloc;
  bool Optimize = true;
  /// Per-request cache opt-out (the service-level CacheEnabled switch
  /// still wins).
  bool UseCache = true;
};

/// Everything one request produced. When S is not ok (parse/verify
/// failure) the other fields are empty.
struct ServiceReply {
  Status S;
  /// The allocated (rewritten) module; functions served from the cache
  /// are substituted clones.
  std::unique_ptr<Module> M;
  ModuleAllocationResult MA;
  /// Per-function: 1 when served from the cache.
  std::vector<uint8_t> CacheHit;

  unsigned numHits() const {
    unsigned N = 0;
    for (uint8_t H : CacheHit)
      N += H;
    return N;
  }
};

class AllocationService {
public:
  explicit AllocationService(const ServiceConfig &SC = {});

  /// Processes one textual-IR request end to end. Parse and verifier
  /// failures come back as ParseError / VerifyError statuses shaped
  /// exactly as the rac CLI has always reported them (golden-tested).
  ServiceReply run(const ServiceRequest &R);

  CacheStats cacheStats() const { return Cache.stats(); }
  uint64_t requestsServed() const {
    return Requests.load(std::memory_order_relaxed);
  }
  unsigned poolWidth() const { return Pool.numThreads(); }

private:
  ServiceConfig SC;
  AllocCache Cache;
  ThreadPool Pool;
  std::atomic<uint64_t> Requests{0};
};

} // namespace service
} // namespace ra

#endif // RA_SERVICE_ALLOCATIONSERVICE_H
