//===- perfbench/harness/Bench.h - Shared benchmark types ------*- C++ -*-===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Types shared by the benchmark's phases: the distinct inputs of a
/// workload, what the timed loop observed for each, the correctness
/// oracle's verdicts and code-quality totals, and the metric sink the
/// result line is printed from.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include "ir/Module.h"
#include "regalloc/Allocator.h"
#include "sim/Simulator.h"

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double msBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double, std::milli>(B - A).count();
}

enum class WorkloadKind { Fig5, Mega, Service };

/// One named workload. The reason and the corpus seed live here so
/// results can cite the workload by name.
struct WorkloadSpec {
  const char *Name;
  WorkloadKind Kind;
  /// Seed of the generated corpus; 0 when the corpus is fixed (the
  /// paper's routines, the mega-kernel family).
  uint64_t CorpusSeed;
  const char *Why;
};

const WorkloadSpec *findWorkload(const std::string &Name);

/// One distinct input: a module as .ral text plus the allocator
/// configuration a request for it carries.
struct Input {
  std::string Name;
  std::string Source;
  ra::AllocatorConfig Alloc;
  /// The --allocator spelling (the wire config's allocator key).
  std::string Allocator;
  /// Fills the module's arrays before a simulated run; empty means the
  /// zero-filled memory every generated module starts from.
  std::function<void(const ra::Module &, ra::MemoryImage &)> Init;
};

/// Generates the distinct inputs of \p Spec (the benchmark's set-up).
std::vector<Input> buildInputs(const WorkloadSpec &Spec);

/// What the timed loop saw for one input. Every reply is compared with
/// the first; the first is later checked by the oracle.
struct Observation {
  uint64_t Requests = 0;
  uint64_t Failed = 0;
  bool Seen = false;
  /// The first reply's printed output (the whole module for in-process
  /// requests, the allocated function for wire replies).
  std::string Printed;
  uint32_t TotalSpills = 0;
  uint32_t Passes = 0;
  /// In-process requests only: the first reply's allocated module and
  /// result, which the oracle simulates.
  std::unique_ptr<ra::Module> M;
  ra::AllocationResult A;
  /// In-process requests only: latency of every timed request for this
  /// input, in ms.
  std::vector<double> LatencyMs;
};

/// Deterministic code-quality totals, each distinct input counted once.
struct Totals {
  uint64_t Spills = 0;      ///< First-pass spilled live ranges.
  double SpillCost = 0;     ///< First-pass spill cost.
  uint64_t SpillInstrs = 0; ///< Inserted spill.ld + spill.st.
  uint64_t Cycles = 0;      ///< Simulated dynamic cycles.
  uint64_t CodeBytes = 0;   ///< Allocated instructions x 4.
  uint64_t Passes = 0;      ///< Build-Simplify-Color passes.
};

/// Simulator time spent by the correctness oracle, off the timed path.
struct SimTimes {
  double ReferenceMs = 0;
  double AllocatedMs = 0;
};

/// Checks one allocation of \p In: \p M / \p A must come from
/// allocating In.Source. Simulates the pre-allocation virtual-register
/// code as the reference and the allocated code under \p A, compares
/// memory images and return values, and adds the allocation's totals.
/// Returns an empty string on success, otherwise what went wrong.
std::string checkAllocation(const Input &In, const ra::Module &M,
                            const ra::AllocationResult &A, Totals &T,
                            SimTimes &ST);

/// Ordered name -> (value, unit) map the result line is printed from.
class MetricSink {
public:
  void set(const std::string &Name, double Value, const std::string &Unit) {
    Values[Name] = {Value, Unit};
  }
  const std::map<std::string, std::pair<double, std::string>> &all() const {
    return Values;
  }

private:
  std::map<std::string, std::pair<double, std::string>> Values;
};

/// Percentile by nearest rank over \p V (sorted in place); 0 if empty.
double percentile(std::vector<double> &V, double P);

/// Median of \p V (copied); 0 if empty.
double median(std::vector<double> V);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
