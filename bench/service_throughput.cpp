//===- bench/service_throughput.cpp - AllocationService throughput --------===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Throughput study of the allocation service with its content-addressed
// cache: N concurrent clients drive a corpus of generated modules
// through one AllocationService, cold (every function allocated) and
// then warm (every function served from the cache).
//
//   service_throughput [--clients N] [--modules M] [--seed S]
//                      [--min-speedup X]
//
// The cold phase shards the corpus across the clients so each module is
// allocated exactly once; the warm phase has every client replay the
// whole corpus. Every warm reply is byte-compared against the cold
// rewritten module — ANY divergence is a hard error, not a statistic —
// and every warm function must actually hit the cache. Modules/sec for
// both phases and the warm/cold speedup are printed. --min-speedup makes
// the speedup an exit-code assertion (used by the acceptance run; 0
// disables for noisy CI boxes).
//
//===----------------------------------------------------------------------===//

#include "ir/IRPrinter.h"
#include "service/AllocationService.h"
#include "support/Status.h"
#include "support/ThreadPool.h"
#include "support/Trace.h"
#include "workloads/RandomProgram.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

using namespace ra;
using namespace ra::service;

namespace {

void die(const std::string &What) {
  std::fprintf(stderr, "service_throughput: %s\n", What.c_str());
  std::exit(1);
}

/// Reads --min-speedup: a finite decimal >= 0 with no trailing bytes.
/// A value that read as 0 would silently turn the gate off.
Status parseSpeedupFlag(const std::string &Flag, const std::string &Val,
                        double &Out) {
  double V = 0;
  auto [Ptr, Err] = std::from_chars(Val.data(), Val.data() + Val.size(), V);
  if (Err == std::errc() && Ptr == Val.data() + Val.size() &&
      std::isfinite(V) && V >= 0) {
    Out = V;
    return Status();
  }
  Status S = Status::error(StatusCode::InvalidInput,
                           "expects a finite decimal >= 0, got '" + Val +
                               "'");
  S.addContext(Flag);
  return S;
}

/// One generated module's source text (what a client would send).
std::string makeModuleSource(uint64_t Seed) {
  Module M;
  RandomProgramConfig Shape;
  Shape.MaxDepth = 3;
  Shape.StatementsPerBlock = 10;
  Shape.Regions = 12;
  Shape.IntVars = 10;
  Shape.FloatVars = 10;
  buildRandomProgram(M, Seed, Shape);
  return printModule(M);
}

ServiceRequest makeRequest(const std::string &Source) {
  ServiceRequest R;
  R.Source = Source;
  R.Alloc.Machine = MachineInfo(6, 3); // pressure -> real spill work
  R.Alloc.Audit = true;
  return R;
}

} // namespace

int main(int Argc, char **Argv) {
  unsigned Clients = 4;
  unsigned Modules = 32;
  uint64_t Seed = 1;
  double MinSpeedup = 0;

  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    Status Bad;
    if (Arg == "--clients" && I + 1 < Argc)
      Bad = parseDecimalFlag(Arg, Argv[++I], Clients,
                             ThreadPool::MaxThreads);
    else if (Arg == "--modules" && I + 1 < Argc)
      Bad = parseDecimalFlag(Arg, Argv[++I], Modules);
    else if (Arg == "--seed" && I + 1 < Argc)
      Bad = parseDecimalFlag(Arg, Argv[++I], Seed);
    else if (Arg == "--min-speedup" && I + 1 < Argc)
      Bad = parseSpeedupFlag(Arg, Argv[++I], MinSpeedup);
    else
      die("unknown option '" + Arg + "'");
    if (!Bad.ok())
      die(Bad.toString());
  }
  if (Clients == 0 || Modules == 0)
    die("--clients and --modules must be positive");

  std::printf("== AllocationService throughput: %u modules, %u clients\n",
              Modules, Clients);

  std::vector<std::string> Corpus(Modules);
  for (unsigned I = 0; I < Modules; ++I)
    Corpus[I] = makeModuleSource(Seed + I);

  AllocationService Svc;

  // Cold: shard the corpus across the clients; every module allocated
  // exactly once, concurrently. The printed rewritten module is the
  // byte-identity reference for the warm phase.
  std::vector<std::string> ColdText(Modules);
  double ColdSeconds = 0;
  {
    RA_TRACE_PHASE(ColdSeconds, "Cold", "bench");
    std::vector<std::thread> Threads;
    for (unsigned C = 0; C < Clients; ++C)
      Threads.emplace_back([&, C] {
        for (unsigned I = C; I < Modules; I += Clients) {
          ServiceReply Reply = Svc.run(makeRequest(Corpus[I]));
          if (!Reply.S.ok())
            die("cold request failed: " + Reply.S.toString());
          for (const AllocationResult &A : Reply.MA.Functions)
            if (!A.Success)
              die("cold allocation failed: " + A.Diag.toString());
          ColdText[I] = printModule(*Reply.M);
        }
      });
    for (std::thread &T : Threads)
      T.join();
  }
  const double ColdRate = Modules / ColdSeconds;

  CacheStats AfterCold = Svc.cacheStats();
  std::printf("   cold: %7.1f modules/sec (%.3fs, %llu cache misses)\n",
              ColdRate, ColdSeconds,
              (unsigned long long)AfterCold.Misses);

  // Warm: every client replays the full corpus; every function must be
  // served from the cache and print byte-identically to the cold run.
  double WarmSeconds = 0;
  {
    RA_TRACE_PHASE(WarmSeconds, "Warm", "bench");
    std::vector<std::thread> Threads;
    for (unsigned C = 0; C < Clients; ++C)
      Threads.emplace_back([&] {
        for (unsigned I = 0; I < Modules; ++I) {
          ServiceReply Reply = Svc.run(makeRequest(Corpus[I]));
          if (!Reply.S.ok())
            die("warm request failed: " + Reply.S.toString());
          if (Reply.numHits() != Reply.M->numFunctions())
            die("warm request missed the cache");
          if (printModule(*Reply.M) != ColdText[I])
            die("warm module diverged from cold run (byte identity "
                "violated)");
        }
      });
    for (std::thread &T : Threads)
      T.join();
  }
  const uint64_t WarmModules = uint64_t(Clients) * Modules;
  const double WarmRate = WarmModules / WarmSeconds;
  const double Speedup = WarmRate / ColdRate;

  CacheStats CS = Svc.cacheStats();
  std::printf("   warm: %7.1f modules/sec (%.3fs, %llu requests, all "
              "byte-identical)\n",
              WarmRate, WarmSeconds, (unsigned long long)WarmModules);
  std::printf("   speedup: %.1fx  (cache: %llu hits, %llu misses, "
              "%llu bytes peak)\n",
              Speedup, (unsigned long long)CS.Hits,
              (unsigned long long)CS.Misses,
              (unsigned long long)CS.PeakBytes);

  if (CS.Hits < WarmModules)
    die("warm phase recorded fewer hits than replies");
  if (MinSpeedup > 0 && Speedup < MinSpeedup)
    die("warm/cold speedup " + std::to_string(Speedup) +
        "x below required " + std::to_string(MinSpeedup) + "x");

  return 0;
}
