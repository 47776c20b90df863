//===- tools/racd.cpp - register-allocation daemon ------------------------===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Allocation as a service: one long-lived process holding one
// AllocationService (shared ThreadPool + content-addressed AllocCache)
// and serving the racd wire protocol:
//
//   racd --socket PATH [options]     listen on a Unix-domain socket,
//                                    one thread per connection
//   racd --stdio [options]           serve a single session over
//                                    stdin/stdout (inetd-style; handy
//                                    for tests and pipes)
//
//   --workers N          miss-allocation pool width, at most 256 (0 =
//                        one per hardware thread, the default)
//   --cache-entries N    cache entry bound (default 65536; 0 = unbounded)
//   --cache-mb N         cache byte ceiling in MB (default 256; 0 =
//                        unbounded; at most the wire key mem_mb's bound)
//   --no-cache           disable the allocation cache entirely
//   --stats-csv FILE     append one cache-counter CSV sample at shutdown
//
// Requests carry their own allocator configuration (backend, register
// files, deadline, memory budget), so one daemon serves heterogeneous
// clients; results are byte-identical to running rac on the same input.
// A Shutdown frame stops the daemon cleanly: the listener wakes, every
// connection thread is joined, and the socket file is unlinked.
//
// A numeric flag whose value is not a whole decimal number in range is
// an invalid-input diagnostic naming the flag, and exits 1 before any
// worker thread is started.
//
//===----------------------------------------------------------------------===//

#include "service/AllocationService.h"
#include "service/Protocol.h"
#include "service/Server.h"
#include "support/ThreadPool.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

using namespace ra;
using namespace ra::service;

namespace {

void usage(const char *Prog) {
  std::fprintf(stderr,
               "usage: %s (--socket PATH | --stdio)\n"
               "       [--workers N<=%u] [--cache-entries N] [--cache-mb N]\n"
               "       [--no-cache] [--stats-csv FILE]\n",
               Prog, ThreadPool::MaxThreads);
}

} // namespace

int main(int Argc, char **Argv) {
  std::string SocketPath, StatsCsvPath;
  bool Stdio = false;
  ServiceConfig SC;

  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    Status Bad;
    if (Arg == "--socket" && I + 1 < Argc) {
      SocketPath = Argv[++I];
    } else if (Arg == "--stdio") {
      Stdio = true;
    } else if (Arg == "--workers" && I + 1 < Argc) {
      Bad = parseDecimalFlag(Arg, Argv[++I], SC.Workers,
                             ThreadPool::MaxThreads);
    } else if (Arg == "--cache-entries" && I + 1 < Argc) {
      Bad = parseDecimalFlag(Arg, Argv[++I], SC.CacheMaxEntries);
    } else if (Arg == "--cache-mb" && I + 1 < Argc) {
      uint64_t Mb = 0;
      Bad = parseDecimalFlag(Arg, Argv[++I], Mb, WireConfig::MaxMemBudgetMb);
      SC.CacheMaxBytes = Mb << 20;
    } else if (Arg == "--no-cache") {
      SC.CacheEnabled = false;
    } else if (Arg == "--stats-csv" && I + 1 < Argc) {
      StatsCsvPath = Argv[++I];
    } else if (Arg == "--help" || Arg == "-h") {
      usage(Argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "racd: unknown option '%s'\n", Arg.c_str());
      usage(Argv[0]);
      return 1;
    }
    if (!Bad.ok()) {
      std::fprintf(stderr, "racd: %s\n", Bad.toString().c_str());
      return 1;
    }
  }
  if (Stdio == !SocketPath.empty()) {
    usage(Argv[0]);
    return 1;
  }

  AllocationService Svc(SC);
  RacdServer Server(Svc);
  Status S;
  if (Stdio) {
    S = Server.serveStream(/*InFd=*/0, /*OutFd=*/1);
  } else {
    S = Server.listenUnix(SocketPath);
    if (S.ok()) {
      std::fprintf(stderr, "racd: listening on %s (%u workers)\n",
                   SocketPath.c_str(), Svc.poolWidth());
      S = Server.acceptLoop();
    }
  }
  if (!S.ok())
    std::fprintf(stderr, "racd: %s\n", S.toString().c_str());

  CacheStats CS = Svc.cacheStats();
  std::fprintf(stderr,
               "racd: served %llu requests; cache %llu hits / %llu misses"
               " / %llu evictions, %llu bytes peak\n",
               (unsigned long long)Svc.requestsServed(),
               (unsigned long long)CS.Hits, (unsigned long long)CS.Misses,
               (unsigned long long)CS.Evictions,
               (unsigned long long)CS.PeakBytes);
  if (!StatsCsvPath.empty()) {
    std::ofstream Out(StatsCsvPath);
    if (Out)
      Out << cacheStatsCsvHeader() << cacheStatsCsvRow(CS);
    if (!Out || !Out.flush()) {
      std::fprintf(stderr, "racd: cannot write %s\n", StatsCsvPath.c_str());
      return 1;
    }
  }
  return S.ok() ? 0 : 1;
}
