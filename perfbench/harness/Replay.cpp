//===- perfbench/harness/Replay.cpp - Traced layer-by-layer replay --------===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "Replay.h"
#include "ServiceLoad.h"

#include "analysis/CFG.h"
#include "analysis/Dominators.h"
#include "analysis/Liveness.h"
#include "analysis/LoopInfo.h"
#include "analysis/Renumber.h"
#include "ir/IRParser.h"
#include "ir/IRPrinter.h"
#include "ir/Verifier.h"
#include "linearscan/LinearScanAlloc.h"
#include "opt/Optimizer.h"
#include "regalloc/AllocationAudit.h"
#include "regalloc/BuildGraph.h"
#include "regalloc/SpillCost.h"
#include "service/AllocCache.h"
#include "service/ContentHash.h"

#include <algorithm>
#include <fstream>

using namespace ra;
using namespace perfbench;

//===----------------------------------------------------------------------===//
// SpanLog.
//===----------------------------------------------------------------------===//

void SpanLog::close(const char *Name, uint32_t Request, Clock::time_point T0,
                    Clock::time_point T1) {
  Spans.push_back({Name, Request, false, msBetween(Origin, T0) * 1000,
                   msBetween(T0, T1) * 1000});
}

void SpanLog::openRoot(uint32_t Request) {
  RootRequest = Request;
  RootStart = Clock::now();
}

void SpanLog::closeRoot() {
  const Clock::time_point End = Clock::now();
  Spans.push_back({"request", RootRequest, true,
                   msBetween(Origin, RootStart) * 1000,
                   msBetween(RootStart, End) * 1000});
}

std::map<std::string, double> SpanLog::sumsByName(size_t FromSpan) const {
  std::map<std::string, double> Ms;
  for (size_t I = FromSpan; I < Spans.size(); ++I)
    if (!Spans[I].Root)
      Ms[Spans[I].Name] += Spans[I].DurUs / 1000;
  return Ms;
}

void SpanLog::coverage(size_t FromSpan, double &RootMs,
                       double &CoveredMs) const {
  // A root is recorded when it closes, after its children; they are the
  // spans since the previous root that start inside its interval (the
  // probes between two roots start before the next root does).
  RootMs = CoveredMs = 0;
  size_t SincePrevRoot = FromSpan;
  for (size_t I = FromSpan; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    if (!S.Root)
      continue;
    for (size_t J = SincePrevRoot; J < I; ++J)
      if (Spans[J].StartUs >= S.StartUs)
        CoveredMs += Spans[J].DurUs / 1000;
    SincePrevRoot = I + 1;
    RootMs += S.DurUs / 1000;
  }
}

bool SpanLog::writeChromeTrace(const std::string &Path,
                               const std::string &HostStamp) const {
  std::ofstream Out(Path);
  if (!Out)
    return false;
  Out << "{\"otherData\":{\"host\":\"" << HostStamp
      << "\"},\"traceEvents\":[\n";
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    char Buf[256];
    std::snprintf(Buf, sizeof(Buf),
                  "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"request\":%u}}%s\n",
                  S.Name, S.StartUs, S.DurUs, S.Request,
                  I + 1 < Spans.size() ? "," : "");
    Out << Buf;
  }
  Out << "]}\n";
  return bool(Out.flush());
}

//===----------------------------------------------------------------------===//
// The replay.
//===----------------------------------------------------------------------===//

namespace {

/// Counts accumulated over one repetition of the replay.
struct Counts {
  uint64_t IrInstrs = 0, OptRewrites = 0, OptInstrsOut = 0;
  uint64_t LiveRanges = 0, CopiesCoalesced = 0;
  uint64_t GraphNodes = 0, GraphEdges = 0, MaxMatrixBytes = 0;
  uint64_t SelectRounds = 0, SelectConflicts = 0;
  uint64_t SpillLoads = 0, SpillStores = 0, Passes = 0, SplitRanges = 0;
};

/// The Figure 4 loop of runColoringPasses, one public call per phase:
/// renumber -> [coalesce -> liveness -> build -> spill costs -> color
/// -> insert spill code]* until a pass spills nothing.
AllocationResult colorStepwise(Function &F, const AllocatorConfig &C,
                               const CFG &G, const LoopInfo &Loops,
                               uint32_t Req, SpanLog &Log, Counts &N) {
  AllocationResult Result;
  Result.Machine = C.Machine;
  SelectOptions SelOpts;
  SelOpts.Parallel = C.ParallelGraph;
  SelOpts.Threads = C.ParallelGraphJobs;
  SelOpts.MinNodes = C.ParallelGraphMinNodes;

  for (unsigned Pass = 0; Pass < C.MaxPasses; ++Pass) {
    PassRecord Rec;
    RenumberStats RS = Log.time("analysis.renumber", Req,
                                [&] { return renumberLiveRanges(F, G); });
    if (Pass == 0)
      N.LiveRanges += RS.VRegsAfter;
    if (C.Coalesce) {
      CoalesceStats CS = Log.time("regalloc.coalesce", Req, [&] {
        return coalesceAll(F, G, C.Coalescing, C.Machine);
      });
      Result.Stats.CopiesCoalesced += CS.CopiesRemoved;
      if (CS.CopiesRemoved != 0)
        Log.time("analysis.renumber", Req,
                 [&] { return renumberLiveRanges(F, G); });
    }
    Liveness LV = Log.time("analysis.liveness", Req,
                           [&] { return Liveness::compute(F, G); });
    auto Graphs = Log.time("regalloc.build", Req,
                           [&] { return buildInterferenceGraphs(F, LV); });
    std::vector<double> Costs = Log.time("regalloc.spill_cost", Req, [&] {
      std::vector<double> V = computeSpillCosts(F, Loops, C.Costs);
      for (ClassGraph &CG : Graphs)
        setNodeCosts(F, V, CG);
      return V;
    });
    uint64_t MatrixBytes = 0;
    for (const ClassGraph &CG : Graphs) {
      N.GraphNodes += CG.Graph.numNodes();
      N.GraphEdges += CG.Graph.numEdges();
      MatrixBytes += InterferenceGraph::estimateBytes(CG.Graph.numNodes());
    }
    N.MaxMatrixBytes = std::max(N.MaxMatrixBytes, MatrixBytes);

    std::array<ColoringResult, NumRegClasses> Colorings;
    Log.time("regalloc.color", Req, [&] {
      for (unsigned Cls = 0; Cls < NumRegClasses; ++Cls)
        Colorings[Cls] =
            colorGraph(Graphs[Cls].Graph, C.Machine.numRegs(Graphs[Cls].Class),
                       C.H, SelOpts);
    });
    std::vector<VRegId> ToSpill;
    for (unsigned Cls = 0; Cls < NumRegClasses; ++Cls) {
      // A sequential Select counts as one round.
      N.SelectRounds +=
          std::max<size_t>(1, Colorings[Cls].SelectRounds.size());
      for (const SelectRound &SR : Colorings[Cls].SelectRounds)
        N.SelectConflicts += SR.Conflicts;
      for (uint32_t Node : Colorings[Cls].Spilled) {
        VRegId R = Graphs[Cls].NodeToVReg[Node];
        ToSpill.push_back(R);
        Rec.SpilledCost += Costs[R];
      }
    }
    Rec.SpilledLiveRanges = ToSpill.size();
    Result.Stats.Passes.push_back(Rec);

    if (ToSpill.empty()) {
      Result.ColorOf.assign(F.numVRegs(), -1);
      for (unsigned Cls = 0; Cls < NumRegClasses; ++Cls)
        for (uint32_t Node = 0; Node < Graphs[Cls].Graph.numNodes(); ++Node)
          Result.ColorOf[Graphs[Cls].NodeToVReg[Node]] =
              Colorings[Cls].ColorOf[Node];
      Result.Success = true;
      Result.Outcome = AllocOutcome::Converged;
      return Result;
    }
    SpillCodeStats SC = Log.time("regalloc.spill_insert", Req, [&] {
      return insertSpillCode(F, ToSpill, C.Rematerialize);
    });
    Result.Stats.SpillCode.Loads += SC.Loads;
    Result.Stats.SpillCode.Stores += SC.Stores;
  }
  Result.Diag = Status::error(StatusCode::NonConvergence,
                              "stepwise replay did not converge");
  return Result;
}

/// Parses \p Source outside any span (for the calls after the root).
bool prepare(const std::string &Source, Module &M) {
  std::string Error;
  return parseModule(Source, M, Error) && M.numFunctions() == 1;
}

struct Rep {
  Counts N;
  std::vector<double> TracedMs;
  double RootMs = 0, CoveredMs = 0;
  std::map<std::string, double> Ms;
  std::vector<double> HitMs, MissMs;
  service::CacheStats Cache;
};

/// One repetition over every input; counts inconsistencies in \p Report.
Rep replayOnce(const std::vector<Input> &Inputs,
               const std::vector<Expected> &Want, WorkloadKind Kind,
               SpanLog &Log, ReplayReport &Report) {
  Rep Out;
  const size_t FirstSpan = Log.spans().size();
  const bool Service = Kind == WorkloadKind::Service;
  // fig5 has no cache traffic, but it is the workload that stands in
  // for the linearscan and service layers in BENCHMARK.json.
  const bool Stand = Kind == WorkloadKind::Fig5;
  const bool CacheCalls = Service || Stand;
  service::AllocCache Cache(ServiceCacheEntries,
                            service::ServiceConfig().CacheMaxBytes);
  service::ServiceConfig CachedSC;
  CachedSC.Workers = 1;
  service::AllocationService Cached(CachedSC);
  auto Inconsistent = [&](const Input &In, const std::string &Why) {
    ++Report.Inconsistent;
    if (Report.FirstInconsistency.empty())
      Report.FirstInconsistency = In.Name + ": " + Why;
  };

  for (uint32_t I = 0; I < Inputs.size(); ++I) {
    const Input &In = Inputs[I];
    const AllocatorConfig &C = In.Alloc;

    // The request path, one public call per span.
    Log.openRoot(I);
    Module M;
    std::string Error;
    bool Parsed =
        Log.time("ir.parse", I, [&] { return parseModule(In.Source, M, Error); });
    if (!Parsed || M.numFunctions() != 1) {
      Log.closeRoot();
      Inconsistent(In, "replay parse failed: " + Error);
      continue;
    }
    Function &F = M.function(0);
    Out.N.IrInstrs += F.numInstructions();
    auto VerifyErrors = Log.time("ir.verify", I, [&] { return verifyModule(M); });
    OptStats OS = Log.time("opt.optimize", I, [&] { return optimizeFunction(F); });
    Out.N.OptRewrites += OS.PreheadersInserted + OS.InstructionsHoisted +
                         OS.IVsCreated + OS.ValuesNumbered;
    Out.N.OptInstrsOut += F.numInstructions();
    struct Flow {
      CFG G;
      Dominators D;
      LoopInfo L;
    };
    Flow FL = Log.time("analysis.cfg", I, [&] {
      CFG G = CFG::compute(F);
      Dominators D = Dominators::compute(F, G);
      LoopInfo L = LoopInfo::compute(F, G, D);
      return Flow{std::move(G), std::move(D), std::move(L)};
    });
    AllocationResult A;
    if (C.B == Backend::LinearScan)
      A = Log.time("linearscan.allocate", I,
                   [&] { return runLinearScanPasses(F, C, FL.G, FL.L); });
    else
      A = colorStepwise(F, C, FL.G, FL.L, I, Log, Out.N);
    Status Audit = Log.time("regalloc.audit", I,
                            [&] { return auditAllocationStatus(F, A); });
    std::string Printed = Log.time("ir.print", I, [&] {
      return Service ? printFunction(M, F) : printModule(M);
    });
    Log.closeRoot();
    Out.TracedMs.push_back(Log.lastMs());

    if (C.B == Backend::LinearScan)
      for (const PassRecord &P : A.Stats.Passes)
        Out.N.SplitRanges += P.SplitLiveRanges;
    Out.N.SpillLoads += A.Stats.SpillCode.Loads;
    Out.N.SpillStores += A.Stats.SpillCode.Stores;
    Out.N.Passes += A.Stats.numPasses();
    Out.N.CopiesCoalesced += A.Stats.CopiesCoalesced;

    if (!VerifyErrors.empty())
      Inconsistent(In, "verifier: " + VerifyErrors.front());
    if (!A.Success || !Audit.ok())
      Inconsistent(In, "replay allocation failed: " + A.Diag.toString() +
                           " / " + Audit.toString());
    if (Printed != Want[I].Printed)
      Inconsistent(In, "replay printed a different allocation");
    if (A.Stats.firstPassSpills() != Want[I].FirstPassSpills)
      Inconsistent(In, "replay spilled " +
                           std::to_string(A.Stats.firstPassSpills()) +
                           " live ranges in pass 1, end to end spilled " +
                           std::to_string(Want[I].FirstPassSpills));

    // allocateRegisters as one call on a fresh copy, whose output must
    // match the phase-by-phase one. On service and fig5, the cache calls
    // racd makes around it: the key (taken before optimization, as the
    // service does), a missing lookup, the insert and a hitting lookup.
    Module M2;
    if (!prepare(In.Source, M2)) {
      Inconsistent(In, "probe parse failed");
      continue;
    }
    std::string Key;
    if (CacheCalls) {
      Key = Log.time("service.key", I, [&] {
        std::string K = service::canonicalFunctionKey(M2, M2.function(0), C,
                                                      /*Optimize=*/true);
        (void)service::contentHash(K);
        return K;
      });
      service::AllocCache::Value Cold;
      if (Log.time("service.lookup", I,
                   [&] { return Cache.lookup(Key, Cold); }))
        Inconsistent(In, "probe key already cached");
    }
    optimizeFunction(M2.function(0));
    AllocationResult Whole = Log.time("regalloc.allocate", I, [&] {
      return allocateRegisters(M2.function(0), C);
    });
    const std::string WholePrinted =
        Service ? printFunction(M2, M2.function(0)) : printModule(M2);
    if (WholePrinted != Want[I].Printed)
      Inconsistent(In, "allocateRegisters printed a different allocation");
    if (!CacheCalls)
      continue;
    Log.time("service.insert", I, [&] {
      service::AllocCache::Value V;
      V.F = M2.function(0);
      V.A = Whole;
      return Cache.insert(Key, V);
    });
    service::AllocCache::Value Warm;
    if (!Log.time("service.lookup", I, [&] { return Cache.lookup(Key, Warm); }))
      Inconsistent(In, "probe insert did not take");
    if (!Stand)
      continue;

    // Standing in for the service workload: the same input as a cold
    // and then a warm request to an AllocationService with the cache on
    // (request and print, as racd serves it), and the linear-scan
    // backend on it.
    for (bool Hit : {false, true}) {
      service::ServiceRequest Req;
      Req.Source = In.Source;
      Req.Alloc = C;
      const Clock::time_point T0 = Clock::now();
      service::ServiceReply Reply = Cached.run(Req);
      const std::string Text = Reply.S.ok() ? printModule(*Reply.M) : "";
      (Hit ? Out.HitMs : Out.MissMs).push_back(msBetween(T0, Clock::now()));
      if (Text != Want[I].Printed || Reply.CacheHit.size() != 1 ||
          bool(Reply.CacheHit[0]) != Hit)
        Inconsistent(In, std::string("the ") + (Hit ? "warm" : "cold") +
                             " cached request differs from the rac path");
    }
    Module M3;
    if (!prepare(In.Source, M3)) {
      Inconsistent(In, "probe parse failed");
      continue;
    }
    Function &F3 = M3.function(0);
    optimizeFunction(F3);
    CFG G3 = CFG::compute(F3);
    Dominators D3 = Dominators::compute(F3, G3);
    LoopInfo L3 = LoopInfo::compute(F3, G3, D3);
    AllocatorConfig LC = C;
    LC.B = Backend::LinearScan;
    AllocationResult LA = Log.time("linearscan.allocate", I, [&] {
      return runLinearScanPasses(F3, LC, G3, L3);
    });
    for (const PassRecord &P : LA.Stats.Passes)
      Out.N.SplitRanges += P.SplitLiveRanges;
  }

  Log.coverage(FirstSpan, Out.RootMs, Out.CoveredMs);
  Out.Ms = Log.sumsByName(FirstSpan);
  Out.Cache = Cached.cacheStats();
  return Out;
}

} // namespace

ReplayReport perfbench::replayInputs(const std::vector<Input> &Inputs,
                                     const std::vector<Expected> &Want,
                                     WorkloadKind Kind, double BudgetSeconds,
                                     SpanLog &Log) {
  ReplayReport Report;
  std::vector<Rep> Reps;
  const Clock::time_point Start = Clock::now();
  do
    Reps.push_back(replayOnce(Inputs, Want, Kind, Log, Report));
  while (Reps.size() < 3 &&
         msBetween(Start, Clock::now()) < BudgetSeconds * 1000);
  Report.Repetitions = unsigned(Reps.size());

  // Times: the median over repetitions, per layer. The per-input and
  // coverage figures come from the repetition with the median root time.
  std::vector<size_t> Order(Reps.size());
  for (size_t I = 0; I < Order.size(); ++I)
    Order[I] = I;
  std::sort(Order.begin(), Order.end(), [&](size_t A, size_t B) {
    return Reps[A].RootMs < Reps[B].RootMs;
  });
  const Rep &Mid = Reps[Order[Order.size() / 2]];
  Report.TracedMs = Mid.TracedMs;
  Report.RootMs = Mid.RootMs;
  Report.CoveredMs = Mid.CoveredMs;
  Report.HitMs = Mid.HitMs;
  Report.MissMs = Mid.MissMs;
  Report.Cache = Mid.Cache;

  static const char *const Layers[] = {
      "ir.parse",          "ir.verify",          "ir.print",
      "opt.optimize",      "analysis.cfg",       "analysis.liveness",
      "analysis.renumber", "regalloc.coalesce",  "regalloc.build",
      "regalloc.spill_cost", "regalloc.color",   "regalloc.spill_insert",
      "regalloc.allocate", "regalloc.audit",     "linearscan.allocate",
      "service.key",       "service.lookup",     "service.insert"};
  for (const char *L : Layers) {
    std::vector<double> V;
    for (const Rep &R : Reps) {
      auto It = R.Ms.find(L);
      V.push_back(It == R.Ms.end() ? 0 : It->second);
    }
    Report.Layers.set(std::string(L) + "_ms", median(V), "ms");
  }

  const Counts &N = Reps.back().N;
  MetricSink &S = Report.Layers;
  S.set("ir.instrs", double(N.IrInstrs), "count");
  S.set("opt.rewrites", double(N.OptRewrites), "count");
  S.set("opt.instrs_out", double(N.OptInstrsOut), "count");
  S.set("analysis.live_ranges", double(N.LiveRanges), "count");
  S.set("regalloc.copies_coalesced", double(N.CopiesCoalesced), "count");
  S.set("regalloc.graph_nodes", double(N.GraphNodes), "count");
  S.set("regalloc.graph_edges", double(N.GraphEdges), "count");
  S.set("regalloc.matrix_mb", double(N.MaxMatrixBytes) / (1 << 20), "MB");
  S.set("regalloc.select_rounds", double(N.SelectRounds), "count");
  S.set("regalloc.select_conflicts", double(N.SelectConflicts), "count");
  S.set("regalloc.spill_loads", double(N.SpillLoads), "count");
  S.set("regalloc.spill_stores", double(N.SpillStores), "count");
  S.set("regalloc.passes", double(N.Passes), "count");
  S.set("linearscan.split_ranges", double(N.SplitRanges), "count");
  return Report;
}
