//===- regalloc/ModuleAlloc.cpp - Whole-module parallel allocation --------===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// The paper measures whole FORTRAN modules; this driver allocates every
// function of a module, serially on the caller or across every worker of
// the caller's thread pool. Each function is an independent allocation
// unit (allocateRegisters mutates only its own Function; the Module's
// arrays and function table are read-only during allocation), so any
// worker count produces bit-identical output: futures are collected in
// function order. It is the only module fan-out: AllocationService hands
// it its cache misses, its shared pool and the optimizer as the
// per-function pre-step.
//
//===----------------------------------------------------------------------===//

#include "regalloc/Allocator.h"

#include "ir/Module.h"
#include "support/ThreadPool.h"
#include "support/Trace.h"

#include <future>
#include <vector>

using namespace ra;

namespace {

/// Converts a worker exception into a Failed result for just that
/// function. std::packaged_task stores anything the task throws in its
/// future, so \c Get rethrows here on the collecting thread — one
/// throwing function must not crash or hang the whole module.
template <typename GetT>
AllocationResult collectOne(const Function &F, const AllocatorConfig &C,
                            GetT Get) {
  try {
    return Get();
  } catch (const std::exception &E) {
    AllocationResult R;
    R.Machine = C.Machine;
    R.Diag = Status::error(StatusCode::WorkerError, E.what())
                 .addContext("allocating @" + F.name());
    return R;
  } catch (...) {
    AllocationResult R;
    R.Machine = C.Machine;
    R.Diag = Status::error(StatusCode::WorkerError,
                           "worker threw a non-standard exception")
                 .addContext("allocating @" + F.name());
    return R;
  }
}

} // namespace

ModuleAllocationResult
ra::allocateModule(Module &M, const AllocatorConfig &C, ThreadPool *Pool,
                   const std::vector<unsigned> *Only,
                   const std::function<void(Function &)> &PreStep) {
  ModuleAllocationResult Result;
  Result.Functions.resize(M.numFunctions());

  std::vector<unsigned> All;
  if (!Only) {
    All.resize(M.numFunctions());
    for (unsigned I = 0; I < M.numFunctions(); ++I)
      All[I] = I;
    Only = &All;
  }
  unsigned Jobs = Pool ? Pool->numThreads() : 1;
  // Scheduling events go in the "sched" category: they describe how work
  // landed on workers, which varies with --jobs, so normalizedLog drops
  // them while trace viewers still show the fan-out.
  RA_TRACE_SPAN("ModuleAlloc", "sched", [&] {
    return "functions=" + std::to_string(Only->size()) +
           ";jobs=" + std::to_string(Jobs);
  });
  // One work unit: the pre-step (if any), then allocation, both inside
  // collectOne's exception boundary.
  auto Allocate = [&PreStep](Function &F, const AllocatorConfig &UnitC) {
    if (PreStep)
      PreStep(F);
    return allocateRegisters(F, UnitC);
  };
  if (Jobs <= 1 || Only->size() <= 1) {
    for (unsigned I : *Only) {
      Function &F = M.function(I);
      Result.Functions[I] = collectOne(F, C, [&] { return Allocate(F, C); });
    }
  } else {
    std::vector<std::future<AllocationResult>> Pending;
    Pending.reserve(Only->size());
    for (unsigned I : *Only) {
      Function &F = M.function(I);
      if (trace::enabled())
        RA_TRACE_INSTANT("TaskQueued", "sched", "@" + F.name());
      Pending.push_back(
          Pool->submit([&F, &C, &Allocate] { return Allocate(F, C); }));
    }
    for (size_t J = 0; J < Only->size(); ++J) {
      Function &F = M.function((*Only)[J]);
      RA_TRACE_SPAN("CollectFunction", "sched",
                    [&] { return "@" + F.name(); });
      Result.Functions[(*Only)[J]] =
          collectOne(F, C, [&] { return Pending[J].get(); });
    }
  }
  return Result;
}
