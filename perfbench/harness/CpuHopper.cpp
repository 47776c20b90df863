//===- perfbench/harness/CpuHopper.cpp - Spread threads over CPUs ---------===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "CpuHopper.h"

#include <cstdlib>
#include <dirent.h>
#include <sched.h>
#include <unistd.h>
#include <vector>

using namespace perfbench;

CpuHopper::CpuHopper() : Worker([this] { run(); }) {}

CpuHopper::~CpuHopper() {
  {
    std::lock_guard<std::mutex> Lock(Mu);
    Stop = true;
  }
  Wake.notify_one();
  Worker.join();
}

void CpuHopper::run() {
  cpu_set_t All;
  if (sched_getaffinity(0, sizeof(All), &All) != 0 || CPU_COUNT(&All) < 2)
    return;
  std::vector<int> Cpus;
  for (int C = 0; C < CPU_SETSIZE; ++C)
    if (CPU_ISSET(C, &All))
      Cpus.push_back(C);
  const pid_t Self = gettid();

  std::unique_lock<std::mutex> Lock(Mu);
  for (unsigned Tick = 0; !Wake.wait_for(Lock, HopPeriod, [&] { return Stop; });
       ++Tick) {
    DIR *Tasks = opendir("/proc/self/task");
    if (!Tasks)
      return;
    unsigned I = 0;
    while (dirent *E = readdir(Tasks)) {
      const pid_t Tid = pid_t(std::atoi(E->d_name));
      if (Tid <= 0 || Tid == Self)
        continue;
      // Pinning moves the thread now; widening the mask again leaves it
      // there without confining it or the threads it spawns. A thread
      // that has exited meanwhile just fails both calls.
      cpu_set_t One;
      CPU_ZERO(&One);
      CPU_SET(Cpus[(Tick + I++) % Cpus.size()], &One);
      sched_setaffinity(Tid, sizeof(One), &One);
      sched_setaffinity(Tid, sizeof(All), &All);
    }
    closedir(Tasks);
  }
}
