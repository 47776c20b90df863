//===- service/AllocCache.h - Content-addressed allocation cache -*- C++ -*-===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A thread-safe, content-addressed memoization cache for whole
/// per-function allocations: key = canonicalFunctionKey (ContentHash.h),
/// value = the rewritten Function plus its AllocationResult, stored as
/// deep copies so a hit replays the cold run byte-for-byte with no
/// aliasing into any caller's module.
///
/// Bounded two ways, both enforced on insert with LRU eviction:
///
///  * entry count (MaxEntries);
///  * resident bytes (MaxBytes), counted in CacheStats::BytesInUse
///    from each entry's estimateBytes. An entry that cannot fit even
///    into an empty cache is *refused* (counted, never inserted) and
///    evicts nothing.
///
/// Hits, misses, insertions, evictions, refusals and byte totals are
/// kept in CacheStats and mirrored to the Trace subsystem via the
/// RA_TRACE_COUNTER macros ("cache.hits", "cache.misses",
/// "cache.evictions", "cache.bytes") — zero overhead when tracing is
/// compiled out (TraceNoopTest) and one relaxed load when no session is
/// active.
///
//===----------------------------------------------------------------------===//

#ifndef RA_SERVICE_ALLOCCACHE_H
#define RA_SERVICE_ALLOCCACHE_H

#include "ir/Function.h"
#include "regalloc/Allocator.h"

#include <cstdint>
#include <list>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>

namespace ra {
namespace service {

/// Point-in-time counters of one AllocCache.
struct CacheStats {
  uint64_t Hits = 0;       ///< Lookups served from the cache.
  uint64_t Misses = 0;     ///< Lookups that found nothing.
  uint64_t Insertions = 0; ///< Entries accepted.
  uint64_t Evictions = 0;  ///< Entries displaced by LRU pressure.
  uint64_t Refusals = 0;   ///< Inserts refused (entry > byte ceiling).
  uint64_t Entries = 0;    ///< Entries resident now.
  uint64_t BytesInUse = 0; ///< Estimated resident bytes now.
  uint64_t PeakBytes = 0;  ///< High-water mark of BytesInUse.
};

/// CSV rendering of CacheStats (one header, one row per sample) — the
/// shape racd's --stats-csv and the service bench export.
std::string cacheStatsCsvHeader();
std::string cacheStatsCsvRow(const CacheStats &S);

class AllocCache {
public:
  /// One memoized allocation: the rewritten function and its result.
  struct Value {
    Function F{""};
    AllocationResult A;
  };

  /// \p MaxEntries and \p MaxBytes bound the cache; 0 disables the
  /// corresponding bound.
  AllocCache(uint64_t MaxEntries, uint64_t MaxBytes);

  /// Copies the entry under \p Key into \p Out and marks it
  /// most-recently-used. Returns false (and counts a miss) when absent.
  bool lookup(const std::string &Key, Value &Out);

  /// Inserts a copy of \p V under \p Key, evicting LRU entries until
  /// both bounds hold. Returns false when the entry alone exceeds the
  /// byte ceiling (counted as a refusal, nothing evicted) — or when the
  /// key is already present (first insertion wins; concurrent misses on
  /// one key race benignly to identical values).
  bool insert(const std::string &Key, const Value &V);

  CacheStats stats() const;

  /// Drops every entry (counters other than Entries/BytesInUse keep
  /// their totals).
  void clear();

  /// The byte estimate insert() charges for one entry: key bytes plus
  /// the dominant owned allocations of the function clone and result.
  /// An estimate, not an exact malloc census.
  static uint64_t estimateBytes(const std::string &Key, const Value &V);

private:
  struct Entry {
    std::string Key;
    Value V;
    uint64_t Bytes = 0;
  };
  using LruList = std::list<Entry>;

  /// Drops the LRU tail entry. Requires the lock held and a non-empty
  /// list.
  void evictTailLocked();

  mutable std::mutex Mu;
  LruList Lru; ///< Front = most recently used.
  /// Views into the list nodes' owned keys — list nodes never move.
  std::unordered_map<std::string_view, LruList::iterator> Index;
  uint64_t MaxEntries;
  uint64_t MaxBytes;
  CacheStats S;
};

} // namespace service
} // namespace ra

#endif // RA_SERVICE_ALLOCCACHE_H
