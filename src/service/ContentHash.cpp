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

std::string ra::service::canonicalConfigText(const AllocatorConfig &C,
                                             bool Optimize) {
  // Every field here changes what allocateRegisters produces; anything
  // not listed is a performance knob proven byte-identical elsewhere
  // (see the header comment for the exclusion argument).
  std::string Out = "config";
  Out += " backend=";
  Out += backendName(C.B);
  Out += " heuristic=";
  Out += heuristicName(C.H);
  Out += " int=" + std::to_string(C.Machine.numRegs(RegClass::Int));
  Out += " flt=" + std::to_string(C.Machine.numRegs(RegClass::Float));
  Out += " maxpasses=" + std::to_string(C.MaxPasses);
  Out += " coalesce=" + std::to_string(C.Coalesce ? 1 : 0);
  Out += " aggressive=";
  Out += C.Coalescing == CoalescePolicy::Aggressive ? "1" : "0";
  Out += " remat=" + std::to_string(C.Rematerialize ? 1 : 0);
  Out += " audit=" + std::to_string(C.Audit ? 1 : 0);
  Out += " metrics=" + std::to_string(C.CollectMetrics ? 1 : 0);
  Out += " opt=" + std::to_string(Optimize ? 1 : 0);
  Out += "\n";
  return Out;
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
  for (unsigned A = 0; A < M.numArrays(); ++A) {
    const ArrayInfo &AI = M.array(A);
    Key += "array @" + AI.Name + " : " + regClassName(AI.Elem) + "[" +
           std::to_string(AI.Size) + "]\n";
  }
  Key += printFunction(M, F);
  return Key;
}

uint64_t ra::service::contentHash(const std::string &CanonicalKey) {
  return fnv1a64(CanonicalKey.data(), CanonicalKey.size());
}

bool ra::service::cacheableConfig(const AllocatorConfig &C) {
  return !C.FaultInject.any();
}
