//===- tools/rac.cpp - register-allocating compiler driver ----------------===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Command-line driver over the textual IR:
//
//   rac FILE.ral... [options]
//
//   --allocator chaitin|briggs|matula-beck|linear-scan
//                        allocation backend (briggs): the three coloring
//                        heuristics, or the linear-scan interval walker
//   --heuristic NAME     deprecated alias for --allocator (coloring
//                        spellings only)
//   --int K / --flt K    register file sizes (16 / 8)
//   --jobs N             allocate functions on N pool workers
//                        (0 = one per hardware thread; output is
//                        bit-identical at any setting)
//   --parallel-graph[=N] speculate-and-repair parallel Select inside
//                        each interference graph on N threads (0 = one
//                        per hardware thread); byte-identical to the
//                        sequential phase at any N
//   --parallel-graph-min N
//                        smallest select stack that engages the
//                        parallel engine (default 2048)
//   --no-opt             skip LICM/strength reduction/value numbering
//   --remat              rematerialize constant spills
//   --deadline-ms N      per-function wall-clock budget; over-budget
//                        functions degrade down the ladder (linear-scan
//                        retry, then audited spill-everything) instead
//                        of failing (0 = unbounded, the default)
//   --mem-budget-mb N    per-function interference-matrix memory budget;
//                        a would-be over-budget graph is refused before
//                        allocation and the function degrades (0 =
//                        unbounded, the default)
//   --audit / --no-audit run the post-allocation audit (default on)
//   --cache / --no-cache memoize per-function allocations in the
//                        content-addressed AllocCache (default on);
//                        repeated functions across a batch are served
//                        from the cache, byte-identical to a cold run
//   --print              print the allocated function(s)
//   --run                execute each function on zero-filled memory
//   --quiet              suppress the statistics table
//   --trace[=]FILE       write a Chrome/Perfetto trace of the run
//   --metrics[=]FILE     write the per-live-range metrics table (CSV)
//
// Every input file is processed even after an earlier one fails, so a
// batch run reports one structured diagnostic per broken input instead
// of dying at the first. Exit status: 0 only when every file parsed,
// verified and allocated; 1 otherwise. A numeric flag whose value is not
// a whole number in range (or, for --deadline-ms, a finite number >= 0)
// is an invalid-input diagnostic naming the flag, and exits 1.
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
#include "support/Trace.h"

#include <cstdio>
#include <fstream>
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
      "usage: %s FILE.ral... "
      "[--allocator chaitin|briggs|matula-beck|linear-scan]\n"
      "       [--int K] [--flt K] [--jobs N] [--no-opt] [--remat]\n"
      "       [--parallel-graph[=N]] [--parallel-graph-min N]\n"
      "       [--deadline-ms N] [--mem-budget-mb N]\n"
      "       [--audit] [--no-audit] [--cache] [--no-cache]\n"
      "       [--print] [--run] [--quiet]\n"
      "       [--trace FILE] [--metrics FILE]\n"
      "\n"
      "  --allocator picks the allocation backend: one of the paper's\n"
      "  coloring heuristics (chaitin, briggs, matula-beck) or the\n"
      "  linear-scan interval allocator (linear-scan).\n"
      "  --heuristic NAME is a deprecated alias for --allocator.\n",
      Prog);
}

/// Prints a failure as "rac: <file>: <status rendering>".
void report(const std::string &Path, const Status &S) {
  std::fprintf(stderr, "rac: %s: %s\n", Path.c_str(), S.toString().c_str());
}

/// Reads \p Val into \p Out as a whole decimal number in range (no
/// sign, no trailing text). Otherwise prints an invalid-input diagnostic
/// naming \p Flag and returns false.
bool parseCount(const std::string &Flag, const std::string &Val,
                unsigned &Out) {
  Status S = parseDecimalFlag(Flag, Val, Out);
  if (!S.ok())
    std::fprintf(stderr, "rac: %s\n", S.toString().c_str());
  return S.ok();
}

/// Reads \p Val as wire key \p Key into \p W (WireConfig::parseFlag).
/// Otherwise prints the diagnostic and returns false.
bool parseWire(service::WireConfig &W, const std::string &Flag,
               const char *Key, const std::string &Val) {
  Status S = W.parseFlag(Flag, Key, Val);
  if (!S.ok())
    std::fprintf(stderr, "rac: %s\n", S.toString().c_str());
  return S.ok();
}

struct Options {
  Backend B = Backend::GraphColoring;
  Heuristic H = Heuristic::Briggs;
  unsigned IntK = 16, FltK = 8, Jobs = 1;
  bool ParallelGraph = false;          ///< --parallel-graph
  unsigned ParallelGraphJobs = 0;      ///< thread count (0 = hardware)
  unsigned ParallelGraphMinNodes = 2048; ///< --parallel-graph-min
  bool Optimize = true, Remat = false, Audit = true;
  bool Cache = true;       ///< --cache / --no-cache
  bool Print = false, Run = false, Quiet = false;
  double DeadlineMs = 0;       ///< --deadline-ms (0 = unbounded)
  uint64_t MemBudgetMb = 0;    ///< --mem-budget-mb (0 = unbounded)
  std::string TracePath;   ///< --trace: Chrome trace JSON output.
  std::string MetricsPath; ///< --metrics: per-range CSV output.

  /// The allocator configuration these options describe.
  AllocatorConfig alloc() const {
    AllocatorConfig C;
    C.B = B;
    C.H = H;
    C.Machine = MachineInfo(IntK, FltK);
    C.Rematerialize = Remat;
    C.Jobs = Jobs;
    C.ParallelGraph = ParallelGraph;
    C.ParallelGraphJobs = ParallelGraphJobs;
    C.ParallelGraphMinNodes = ParallelGraphMinNodes;
    C.Audit = Audit;
    C.DeadlineSeconds = DeadlineMs / 1e3;
    C.MemoryBudgetBytes = MemBudgetMb << 20;
    C.CollectMetrics = !MetricsPath.empty();
    return C;
  }
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
  Req.Alloc = Opt.alloc();
  Req.Optimize = Opt.Optimize;
  Req.UseCache = Opt.Cache;
  ServiceReply Reply = Svc.run(Req);
  if (!Reply.S.ok())
    return Reply.S;

  Module &M = *Reply.M;
  ModuleAllocationResult &MA = Reply.MA;

  if (Req.Alloc.CollectMetrics)
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

    if (Opt.Print)
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
                Path.c_str(), allocatorName(Opt.B, Opt.H), Opt.IntK,
                Opt.FltK,
                Opt.Optimize ? ", optimized" : "",
                Opt.Remat ? ", rematerialization" : "",
                Opt.Audit ? ", audited" : "");
    Stats.print();
  }

  return FileStatus;
}

} // namespace

int main(int Argc, char **Argv) {
  std::vector<std::string> Paths;
  Options Opt;
  // Scratch for the numeric flags that share the wire's strict rules.
  service::WireConfig W;

  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if ((Arg == "--allocator" || Arg == "--heuristic") && I + 1 < Argc) {
      // --heuristic predates the backend split and stays as an alias so
      // existing scripts keep working; --allocator is the spelling the
      // help text advertises.
      std::string Name = Argv[++I];
      if (!parseAllocatorName(Name, Opt.B, Opt.H)) {
        Status S =
            Status::error(StatusCode::InvalidInput,
                          "unknown allocator '" + Name +
                              "' (expected chaitin, briggs, "
                              "matula-beck, or linear-scan)")
                .addContext(Arg);
        std::fprintf(stderr, "rac: %s\n", S.toString().c_str());
        return 1;
      }
    } else if (Arg == "--int" && I + 1 < Argc) {
      if (!parseWire(W, Arg, "int", Argv[++I]))
        return 1;
      Opt.IntK = W.IntK;
    } else if (Arg == "--flt" && I + 1 < Argc) {
      if (!parseWire(W, Arg, "flt", Argv[++I]))
        return 1;
      Opt.FltK = W.FltK;
    } else if (Arg == "--jobs" && I + 1 < Argc) {
      if (!parseCount(Arg, Argv[++I], Opt.Jobs))
        return 1;
    } else if (Arg == "--parallel-graph") {
      Opt.ParallelGraph = true;
    } else if (Arg.rfind("--parallel-graph=", 0) == 0) {
      Opt.ParallelGraph = true;
      if (!parseCount("--parallel-graph", Arg.substr(17),
                      Opt.ParallelGraphJobs))
        return 1;
    } else if (Arg == "--parallel-graph-min" && I + 1 < Argc) {
      if (!parseCount(Arg, Argv[++I], Opt.ParallelGraphMinNodes))
        return 1;
    } else if (Arg == "--deadline-ms" && I + 1 < Argc) {
      if (!parseWire(W, Arg, "deadline_ms", Argv[++I]))
        return 1;
      Opt.DeadlineMs = W.DeadlineMs;
    } else if (Arg == "--mem-budget-mb" && I + 1 < Argc) {
      // A whole decimal whose byte count fits in 64 bits.
      if (!parseWire(W, Arg, "mem_mb", Argv[++I]))
        return 1;
      Opt.MemBudgetMb = W.MemBudgetMb;
    } else if (Arg == "--no-opt") {
      Opt.Optimize = false;
    } else if (Arg == "--remat") {
      Opt.Remat = true;
    } else if (Arg == "--audit") {
      Opt.Audit = true;
    } else if (Arg == "--no-audit") {
      Opt.Audit = false;
    } else if (Arg == "--cache") {
      Opt.Cache = true;
    } else if (Arg == "--no-cache") {
      Opt.Cache = false;
    } else if (Arg == "--print") {
      Opt.Print = true;
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
  }
  if (Paths.empty()) {
    usage(Argv[0]);
    return 1;
  }

  // One service instance spans the whole batch, so a function repeated
  // across input files (or files repeated on the command line) is
  // allocated once and served from the cache after that.
  ServiceConfig SC;
  SC.CacheEnabled = Opt.Cache;
  SC.Workers = Opt.Jobs;
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
