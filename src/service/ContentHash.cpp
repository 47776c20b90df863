//===- service/ContentHash.cpp - Canonical allocation cache keys ----------===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "service/ContentHash.h"

#include "ir/IRPrinter.h"
#include "ir/Module.h"

using namespace ra;

uint64_t ra::service::fnv1a64(const void *Data, size_t Len, uint64_t Seed) {
  const unsigned char *P = static_cast<const unsigned char *>(Data);
  uint64_t H = Seed;
  for (size_t I = 0; I < Len; ++I) {
    H ^= P[I];
    H *= 0x100000001B3ull;
  }
  return H;
}

std::string ra::service::canonicalFunctionKey(const Module &M,
                                              const Function &F,
                                              const AllocatorConfig &C,
                                              bool Optimize) {
  std::string Key = canonicalConfigText(C, Optimize);
  // The array table participates because instructions reference arrays
  // by *id*: substituting a cached function clone into a module whose
  // array table differs in order, element class, or size would silently
  // retarget its memory operations. Rendering the table exactly as
  // IRPrinter's module header does pins the whole id -> symbol mapping.
  appendArrayTable(Key, M);
  appendFunction(Key, M, F);
  return Key;
}

uint64_t ra::service::contentHash(const std::string &CanonicalKey) {
  return fnv1a64(CanonicalKey.data(), CanonicalKey.size());
}

bool ra::service::cacheableConfig(const AllocatorConfig &C) {
  return !C.FaultInject.any();
}
