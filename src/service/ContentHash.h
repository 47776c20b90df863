//===- service/ContentHash.h - Canonical allocation cache keys -*- C++ -*-===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Builds the content-addressed key under which one function's
/// allocation is memoized, plus the 64-bit hash used for telemetry and
/// sharding.
///
/// The key is the *canonical printed form* of the allocation input —
/// the module's array table (IRPrinter's `array` lines, so array-id
/// order, names, element classes and sizes all participate) followed by
/// the function's printed body — concatenated with a rendering of every
/// AllocatorConfig field that can change the allocation result.
///
/// Deliberately NOT semantic: two textually different but semantically
/// identical modules (renamed registers, reordered blocks, a renamed
/// function) produce different keys and therefore MISS. Rename
/// insensitivity would require hashing a normal form the pipeline never
/// computes; the build-farm workload this cache serves re-submits
/// byte-identical sources, where the printed form is exactly stable.
/// ServiceTest pins this contract in both directions.
///
/// Config fields that cannot change the result are excluded: the three
/// inert fields only perfbench still sets, which nothing in the
/// allocator reads. Keying on them would only split the cache. Deadline
/// and memory budgets are excluded too: only Converged results are ever
/// inserted (AllocationService), and a governed run that converges is
/// byte-identical to the ungoverned run by construction — budget
/// polling can abort work, never steer it.
///
/// ContentHashTest.EveryConfigFieldIsClassified guards this split: it
/// lists every AllocatorConfig field as keyed, neutral or cache-bypass
/// and flips each one, and a new field does not compile until it is
/// listed there.
///
//===----------------------------------------------------------------------===//

#ifndef RA_SERVICE_CONTENTHASH_H
#define RA_SERVICE_CONTENTHASH_H

#include "regalloc/Allocator.h"

#include <cstdint>
#include <string>

namespace ra {

class Function;
class Module;

namespace service {

/// 64-bit FNV-1a over \p Len bytes starting at \p Data.
uint64_t fnv1a64(const void *Data, size_t Len,
                 uint64_t Seed = 0xCBF29CE484222325ull);

/// Renders every result-affecting AllocatorConfig field (plus the
/// optimizer toggle) as one deterministic "k=v" line.
std::string canonicalConfigText(const AllocatorConfig &C, bool Optimize);

/// The full cache key for allocating \p F inside \p M under \p C:
/// canonical config text + array-table text + printed function.
std::string canonicalFunctionKey(const Module &M, const Function &F,
                                 const AllocatorConfig &C, bool Optimize);

/// fnv1a64 over a canonical key — the short form for telemetry.
uint64_t contentHash(const std::string &CanonicalKey);

/// True when results under \p C may be served from / inserted into the
/// cache at all. Fault injection is test-only deliberate breakage, so
/// it always bypasses the cache.
bool cacheableConfig(const AllocatorConfig &C);

} // namespace service
} // namespace ra

#endif // RA_SERVICE_CONTENTHASH_H
