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
/// the function's printed body — after canonicalConfigText's line of
/// every setting that can change the allocation result.
///
/// Deliberately NOT semantic: two textually different but semantically
/// identical modules (renamed registers, reordered blocks, a renamed
/// function) produce different keys and therefore MISS. Rename
/// insensitivity would require hashing a normal form the pipeline never
/// computes; the build-farm workload this cache serves re-submits
/// byte-identical sources, where the printed form is exactly stable.
/// ServiceTest pins this contract in both directions.
///
/// Which settings the key holds is the Class of each row of the settings
/// table (service/Config.cpp): Keyed rows are in it; Neutral rows (the
/// budgets, printing, the inert fields perfbench still sets) are left
/// out, since keying on them would only split the cache; Bypass rows
/// keep a request out of the cache altogether. The row comments give
/// the reasons, and ContentHashTest.EveryConfigFieldIsClassified flips
/// every row and checks its class.
///
//===----------------------------------------------------------------------===//

#ifndef RA_SERVICE_CONTENTHASH_H
#define RA_SERVICE_CONTENTHASH_H

#include "service/Config.h"

#include <cstdint>
#include <string>

namespace ra {

class Function;
class Module;

namespace service {

/// 64-bit FNV-1a over \p Len bytes starting at \p Data.
uint64_t fnv1a64(const void *Data, size_t Len,
                 uint64_t Seed = 0xCBF29CE484222325ull);

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
