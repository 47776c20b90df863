//===- perfbench/harness/CpuHopper.h - Spread threads over CPUs -*- C++ -*-===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// On a shared host each CPU runs at its own speed for tens of seconds
/// at a time (other tenants on the sibling hardware threads), and the
/// scheduler keeps a busy thread on whichever CPU it started on. A run
/// then measures its CPU rather than the program. While a CpuHopper is
/// alive, every thread of the process moves to another CPU every
/// HopPeriod, so each run sees the average of all its CPUs.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_CPUHOPPER_H
#define PERFBENCH_CPUHOPPER_H

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>

namespace perfbench {

class CpuHopper {
public:
  static constexpr std::chrono::milliseconds HopPeriod{200};

  CpuHopper();
  ~CpuHopper();
  CpuHopper(const CpuHopper &) = delete;
  CpuHopper &operator=(const CpuHopper &) = delete;

private:
  void run();

  std::mutex Mu;
  std::condition_variable Wake;
  bool Stop = false;        ///< Guarded by Mu.
  std::thread Worker;       ///< Declared last: it uses every member above.
};

} // namespace perfbench

#endif // PERFBENCH_CPUHOPPER_H
