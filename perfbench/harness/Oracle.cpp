//===- perfbench/harness/Oracle.cpp - Correctness oracle ------------------===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// The reference for every input is its own text, parsed afresh and run
// over virtual registers: independent of the optimizer and of every
// allocator. An allocation is correct when the allocated run leaves the
// same memory image and returns the same value.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "ir/IRParser.h"

using namespace ra;
using namespace perfbench;

std::string perfbench::checkAllocation(const Input &In, const Module &M,
                                       const AllocationResult &A, Totals &T,
                                       SimTimes &ST) {
  if (!A.Success)
    return "allocation unusable: " + A.Diag.toString();
  if (M.numFunctions() != 1)
    return "allocated module holds " + std::to_string(M.numFunctions()) +
           " functions, expected 1";

  Module Ref;
  std::string Error;
  if (!parseModule(In.Source, Ref, Error) || Ref.numFunctions() != 1)
    return "reference parse failed: " + Error;
  MemoryImage RefMem(Ref);
  if (In.Init)
    In.Init(Ref, RefMem);
  Clock::time_point T0 = Clock::now();
  ExecutionResult RR = Simulator(Ref).runVirtual(Ref.function(0), RefMem);
  Clock::time_point T1 = Clock::now();
  ST.ReferenceMs += msBetween(T0, T1);
  if (!RR.Ok)
    return "reference run trapped: " + RR.Error;

  MemoryImage Mem(M);
  if (In.Init)
    In.Init(M, Mem);
  T0 = Clock::now();
  ExecutionResult AR = Simulator(M).runAllocated(M.function(0), A, Mem);
  T1 = Clock::now();
  ST.AllocatedMs += msBetween(T0, T1);
  if (!AR.Ok)
    return "allocated run trapped: " + AR.Error;
  if (!(Mem == RefMem))
    return "allocated run left a different memory image";
  if (AR.HasIntReturn != RR.HasIntReturn || AR.IntReturn != RR.IntReturn ||
      AR.HasFloatReturn != RR.HasFloatReturn ||
      !MemoryImage::doubleSemanticallyEqual(AR.FloatReturn, RR.FloatReturn))
    return "allocated run returned a different value";

  T.Spills += A.Stats.firstPassSpills();
  T.SpillCost += A.Stats.firstPassSpillCost();
  T.SpillInstrs += A.Stats.SpillCode.Loads + A.Stats.SpillCode.Stores;
  T.Cycles += AR.Cycles;
  T.CodeBytes += uint64_t(M.function(0).numInstructions()) *
                 CostModel::rtpc().bytesPerInstruction();
  T.Passes += A.Stats.numPasses();
  return {};
}
