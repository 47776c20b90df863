//===- tools/rac.cpp - register-allocating compiler driver ----------------===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Command-line driver over the textual IR:
//
//   rac FILE.ral... [options]      (rac --help lists the options)
//
// The allocation options (allocator, register files, optimizer,
// rematerialization, audit, cache, printing, deadline and memory budget)
// come from the option table in service/Protocol.cpp that racc and the
// racd wire share; rac adds its own scheduling and output flags.
//
// Every input file is processed even after an earlier one fails, so a
// batch run reports one structured diagnostic per broken input instead
// of dying at the first. Exit status: 0 only when every file parsed,
// verified and allocated; 1 otherwise. A flag value outside its kind is
// an invalid-input diagnostic naming the flag, and exits 1.
//
// The driver itself is a thin shell: reading files, rendering tables
// and diagnostics. Parse -> verify -> optimize -> allocate lives in
// service/AllocationService — the same engine the racd daemon serves
// over its socket, so both front ends produce identical results.
//
//===----------------------------------------------------------------------===//

#include "ir/IRPrinter.h"
#include "regalloc/Allocator.h"
#include "service/AllocationService.h"
#include "service/Protocol.h"
#include "sim/Simulator.h"
#include "support/Status.h"
#include "support/Table.h"
#include "support/ThreadPool.h"
#include "support/Trace.h"

#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <vector>

using namespace ra;
using service::AllocationService;
using service::ServiceConfig;
using service::ServiceReply;
using service::ServiceRequest;

namespace {

void usage(const char *Prog) {
  std::fprintf(
      stderr,
      "usage: %s FILE.ral... [options]\n"
      "\n"
      "allocation options (shared with racc):\n"
      "%s"
      "\n"
      "rac options (the output is identical at any thread count):\n"
      "  --jobs N             functions on N pool workers, <= %u (0 = all)\n"
      "  --run                execute each function on zero-filled memory\n"
      "  --quiet              suppress the statistics table\n"
      "  --trace[=]FILE       write a Chrome/Perfetto trace of the run\n"
      "  --metrics[=]FILE     write the per-live-range metrics table (CSV)\n",
      Prog, service::WireConfig::flagUsage().c_str(), ThreadPool::MaxThreads);
}

/// Prints a failure as "rac: <file>: <status rendering>".
void report(const std::string &Path, const Status &S) {
  std::fprintf(stderr, "rac: %s: %s\n", Path.c_str(), S.toString().c_str());
}

/// rac's options: the shared ones in W (applied to C), and its output
/// flags.
struct Options {
  service::WireConfig W;
  AllocatorConfig C;
  bool Run = false, Quiet = false;
  std::string TracePath;   ///< --trace: Chrome trace JSON output.
  std::string MetricsPath; ///< --metrics: per-range CSV output.
};

/// Processes one input file end to end. Returns Ok only when the file
/// parsed, verified, and every function allocated (Degraded counts as
/// usable but is reported on stderr).
Status processFile(AllocationService &Svc, const std::string &Path,
                   const Options &Opt, std::string &MetricsCsv) {
  std::ifstream In(Path);
  if (!In)
    return Status::error(StatusCode::IoError, "cannot open file");
  std::stringstream Buffer;
  Buffer << In.rdbuf();

  ServiceRequest Req;
  Req.Source = Buffer.str();
  Req.Alloc = Opt.C;
  Req.Optimize = Opt.W.Optimize;
  Req.UseCache = Opt.W.UseCache;
  ServiceReply Reply = Svc.run(Req);
  if (!Reply.S.ok())
    return Reply.S;

  Module &M = *Reply.M;
  ModuleAllocationResult &MA = Reply.MA;

  if (uint64_t Elements = MemoryImage::elementCount(M);
      Opt.Run && Elements > MemoryImage::MaxElements) {
    Status S = Status::error(StatusCode::InvalidInput,
                             "--run: the arrays hold " +
                                 std::to_string(Elements) +
                                 " elements, more than the simulator's " +
                                 std::to_string(MemoryImage::MaxElements));
    report(Path, S);
    return S;
  }

  if (Opt.C.CollectMetrics)
    for (unsigned FI = 0; FI < M.numFunctions(); ++FI)
      appendMetricsCsv(MetricsCsv, M.function(FI).name(),
                       MA.Functions[FI].Metrics);

  Table Stats({"Function", "Live Ranges", "Interferences", "Passes",
               "Spilled", "Spill Cost", "Remats", "Object (B)"});
  Status FileStatus;

  for (unsigned FI = 0; FI < M.numFunctions(); ++FI) {
    Function &F = M.function(FI);
    AllocationResult &A = MA.Functions[FI];
    if (!A.Success) {
      // Remember the first failure but keep reporting the rest.
      report(Path, A.Diag);
      if (FileStatus.ok())
        FileStatus = A.Diag;
      continue;
    }
    if (A.Outcome == AllocOutcome::Degraded)
      report(Path, A.Diag); // usable, but the user should know

    double Cost = 0;
    for (const PassRecord &P : A.Stats.Passes)
      Cost += P.SpilledCost;
    Stats.addRow({"@" + F.name(),
                  Table::withCommas(A.Stats.initialLiveRanges()),
                  Table::withCommas(A.Stats.Passes[0].Interferences),
                  Table::withCommas(A.Stats.numPasses()),
                  Table::withCommas(A.Stats.totalSpills()),
                  Table::withCommas(int64_t(Cost)),
                  Table::withCommas(A.Stats.SpillCode.Remats),
                  Table::withCommas(F.numInstructions() * 4)});

    if (Opt.W.Print)
      std::printf("%s", printFunction(M, F).c_str());

    if (Opt.Run) {
      Simulator Sim(M);
      MemoryImage Mem(M);
      ExecutionResult R = Sim.runAllocated(F, A, Mem);
      if (!R.Ok) {
        Status Trap = Status::error(StatusCode::InvalidInput, R.Error)
                          .addContext("trap in @" + F.name());
        report(Path, Trap);
        if (FileStatus.ok())
          FileStatus = Trap;
        continue;
      }
      std::printf("@%s: %llu cycles (%llu spill)", F.name().c_str(),
                  (unsigned long long)R.Cycles,
                  (unsigned long long)R.SpillCycles);
      if (R.HasIntReturn)
        std::printf(", returned %lld", (long long)R.IntReturn);
      if (R.HasFloatReturn)
        std::printf(", returned %g", R.FloatReturn);
      std::printf("\n");
    }
  }

  if (!Opt.Quiet) {
    std::printf("%s: %s allocator, %u int / %u flt registers%s%s%s\n",
                Path.c_str(), allocatorName(Opt.C.B, Opt.C.H),
                Opt.W.IntK, Opt.W.FltK,
                Opt.W.Optimize ? ", optimized" : "",
                Opt.W.Remat ? ", rematerialization" : "",
                Opt.W.Audit ? ", audited" : "");
    Stats.print();
  }

  return FileStatus;
}

} // namespace

int main(int Argc, char **Argv) {
  std::vector<std::string> Paths;
  Options Opt;
  unsigned Jobs = 1; ///< --jobs: the service pool's width.

  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    Status Bad;
    if (std::optional<Status> S = Opt.W.parseArg(Argc, Argv, I)) {
      Bad = *S;
    } else if (Arg == "--jobs" && I + 1 < Argc) {
      Bad = parseDecimalFlag(Arg, Argv[++I], Jobs,
                             ThreadPool::MaxThreads);
    } else if (Arg == "--run") {
      Opt.Run = true;
    } else if (Arg == "--quiet") {
      Opt.Quiet = true;
    } else if (Arg.rfind("--trace=", 0) == 0) {
      Opt.TracePath = Arg.substr(8);
    } else if (Arg == "--trace" && I + 1 < Argc) {
      Opt.TracePath = Argv[++I];
    } else if (Arg.rfind("--metrics=", 0) == 0) {
      Opt.MetricsPath = Arg.substr(10);
    } else if (Arg == "--metrics" && I + 1 < Argc) {
      Opt.MetricsPath = Argv[++I];
    } else if (Arg == "--help" || Arg == "-h") {
      usage(Argv[0]);
      return 0;
    } else if (!Arg.empty() && Arg[0] == '-') {
      std::fprintf(stderr, "unknown option '%s'\n", Arg.c_str());
      usage(Argv[0]);
      return 1;
    } else {
      Paths.push_back(Arg);
    }
    if (!Bad.ok()) {
      std::fprintf(stderr, "rac: %s\n", Bad.toString().c_str());
      return 1;
    }
  }
  if (Paths.empty()) {
    usage(Argv[0]);
    return 1;
  }

  // The shared fields go through WireConfig::apply, as racd builds its
  // config.
  if (Status S = Opt.W.apply(Opt.C); !S.ok()) {
    std::fprintf(stderr, "rac: %s\n", S.toString().c_str());
    return 1;
  }
  Opt.C.CollectMetrics = !Opt.MetricsPath.empty();

  // One service instance spans the whole batch, so a function repeated
  // across input files (or files repeated on the command line) is
  // allocated once and served from the cache after that.
  ServiceConfig SC;
  SC.CacheEnabled = Opt.W.UseCache;
  SC.Workers = Jobs;
  AllocationService Svc(SC);

  std::string MetricsCsv;
  bool Failed = false;
  if (!Opt.TracePath.empty())
    trace::beginSession();
  for (const std::string &Path : Paths) {
    Status S = processFile(Svc, Path, Opt, MetricsCsv);
    if (!S.ok()) {
      // Parse/verify/open failures were not yet printed by processFile;
      // allocation failures were. Printing the headline status twice is
      // avoided by only reporting codes processFile returns directly.
      if (S.code() == StatusCode::IoError ||
          S.code() == StatusCode::ParseError ||
          S.code() == StatusCode::VerifyError)
        report(Path, S);
      Failed = true;
    }
  }

  // Observability outputs. An unwritable path is a hard failure with a
  // structured diagnostic — events must never be dropped silently.
  if (!Opt.TracePath.empty()) {
    trace::SessionLog Log = trace::endSession();
    if (Status S = trace::writeChromeJson(Opt.TracePath, Log); !S.ok()) {
      report(Opt.TracePath, S);
      Failed = true;
    }
  }
  if (!Opt.MetricsPath.empty()) {
    std::ofstream Out(Opt.MetricsPath);
    if (Out)
      Out << metricsCsvHeader() << MetricsCsv;
    if (!Out || !Out.flush()) {
      report(Opt.MetricsPath,
             Status::error(StatusCode::IoError,
                           "cannot write metrics output")
                 .addContext("--metrics"));
      Failed = true;
    }
  }

  return Failed ? 1 : 0;
}
