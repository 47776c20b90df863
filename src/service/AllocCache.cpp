//===- service/AllocCache.cpp - Content-addressed allocation cache --------===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "service/AllocCache.h"

#include "support/Trace.h"

using namespace ra;
using namespace ra::service;

std::string ra::service::cacheStatsCsvHeader() {
  return "hits,misses,insertions,evictions,refusals,entries,bytes_in_use,"
         "peak_bytes\n";
}

std::string ra::service::cacheStatsCsvRow(const CacheStats &S) {
  return std::to_string(S.Hits) + "," + std::to_string(S.Misses) + "," +
         std::to_string(S.Insertions) + "," + std::to_string(S.Evictions) +
         "," + std::to_string(S.Refusals) + "," + std::to_string(S.Entries) +
         "," + std::to_string(S.BytesInUse) + "," +
         std::to_string(S.PeakBytes) + "\n";
}

AllocCache::AllocCache(uint64_t MaxEntries, uint64_t MaxBytes)
    : MaxEntries(MaxEntries), MaxBytes(MaxBytes) {}

uint64_t AllocCache::estimateBytes(const std::string &Key, const Value &V) {
  uint64_t N = Key.size() + sizeof(Entry);
  for (const BasicBlock &B : V.F.blocks()) {
    N += sizeof(BasicBlock) + B.Name.size();
    N += B.Insts.size() * sizeof(Instruction);
  }
  for (unsigned R = 0; R < V.F.numVRegs(); ++R)
    N += sizeof(VRegInfo) + V.F.vreg(R).Name.size();
  N += V.A.ColorOf.size() * sizeof(int32_t);
  N += V.A.Pieces.size() * sizeof(PieceAssignment);
  for (const RangeMetrics &RM : V.A.Metrics)
    N += sizeof(RangeMetrics) + RM.Name.size() + RM.CoalescedInto.size();
  for (const PassRecord &P : V.A.Stats.Passes) {
    N += sizeof(PassRecord);
    for (const std::string &Name : P.SpilledNames)
      N += Name.size() + sizeof(std::string);
  }
  return N;
}

bool AllocCache::lookup(const std::string &Key, Value &Out) {
  std::lock_guard<std::mutex> Lock(Mu);
  auto It = Index.find(std::string_view(Key));
  if (It == Index.end()) {
    ++S.Misses;
    RA_TRACE_COUNTER("cache.misses", 1);
    return false;
  }
  Lru.splice(Lru.begin(), Lru, It->second); // iterator stays valid
  Out = It->second->V;                      // deep copy under the lock
  ++S.Hits;
  RA_TRACE_COUNTER("cache.hits", 1);
  return true;
}

void AllocCache::evictTailLocked() {
  Entry &Victim = Lru.back();
  Index.erase(std::string_view(Victim.Key));
  S.BytesInUse -= Victim.Bytes;
  --S.Entries;
  ++S.Evictions;
  RA_TRACE_COUNTER("cache.evictions", 1);
  RA_TRACE_COUNTER("cache.bytes", -double(Victim.Bytes));
  Lru.pop_back();
}

bool AllocCache::insert(const std::string &Key, const Value &V) {
  uint64_t Need = estimateBytes(Key, V);
  std::lock_guard<std::mutex> Lock(Mu);
  if (Index.count(std::string_view(Key)))
    return false; // first insertion won; values are identical by key

  if (MaxBytes > 0 && Need > MaxBytes) {
    ++S.Refusals;
    RA_TRACE_COUNTER("cache.refusals", 1);
    return false; // the entry alone exceeds the ceiling
  }
  // Make room: entry-count bound first, then the byte ceiling.
  while (MaxEntries > 0 && S.Entries >= MaxEntries && !Lru.empty())
    evictTailLocked();
  while (MaxBytes > 0 && S.BytesInUse + Need > MaxBytes)
    evictTailLocked();

  Lru.push_front(Entry{Key, V, Need});
  Index.emplace(std::string_view(Lru.front().Key), Lru.begin());
  ++S.Insertions;
  ++S.Entries;
  S.BytesInUse += Need;
  if (S.BytesInUse > S.PeakBytes)
    S.PeakBytes = S.BytesInUse;
  RA_TRACE_COUNTER("cache.bytes", double(Need));
  return true;
}

CacheStats AllocCache::stats() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return S;
}

void AllocCache::clear() {
  std::lock_guard<std::mutex> Lock(Mu);
  Index.clear();
  Lru.clear();
  S.Entries = 0;
  S.BytesInUse = 0;
}
