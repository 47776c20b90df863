//===- regalloc/Allocator.cpp - Build-Simplify-Color driver ---------------===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// The paper's Figure 4 cycle, wrapped in a self-checking pipeline:
// structurally invalid input is rejected with a diagnostic instead of
// tripping asserts, and (with Audit on) every finished allocation is
// re-proved by the independent AllocationAudit. When the primary
// allocation fails its audit or never converges, the driver degrades to
// a guaranteed-terminating spill-everything allocation — every live
// range lives in memory, so the residual graph only holds
// single-instruction temporaries and colors in one more pass.
//
//===----------------------------------------------------------------------===//

#include "regalloc/Allocator.h"

#include "analysis/Liveness.h"
#include "analysis/LoopInfo.h"
#include "analysis/Renumber.h"
#include "linearscan/LinearScanAlloc.h"
#include "linearscan/LiveInterval.h"
#include "regalloc/AllocationAudit.h"
#include "regalloc/BuildGraph.h"
#include "regalloc/Coalesce.h"
#include "regalloc/SpillCost.h"
#include "support/Budget.h"
#include "support/Trace.h"
#include "support/TwoLevelBitSet.h"

#include <cassert>
#include <chrono>
#include <cstdlib>
#include <optional>
#include <stdexcept>
#include <string_view>
#include <thread>

using namespace ra;

bool ra::auditEnabledByEnv() {
  static const bool Enabled = [] {
    const char *V = std::getenv("RA_AUDIT");
    return V && *V && std::string_view(V) != "0";
  }();
  return Enabled;
}

const char *ra::allocOutcomeName(AllocOutcome O) {
  switch (O) {
  case AllocOutcome::Converged: return "converged";
  case AllocOutcome::Degraded:  return "degraded";
  case AllocOutcome::Failed:    return "failed";
  }
  return "unknown";
}

const char *ra::backendName(Backend B) {
  switch (B) {
  case Backend::GraphColoring: return "graph-coloring";
  case Backend::LinearScan:    return "linear-scan";
  }
  return "unknown";
}

const char *ra::allocatorName(Backend B, Heuristic H) {
  return B == Backend::LinearScan ? "linear-scan" : heuristicName(H);
}

bool ra::parseAllocatorName(const std::string &Name, Backend &B,
                            Heuristic &H) {
  if (Name == "chaitin") {
    B = Backend::GraphColoring;
    H = Heuristic::Chaitin;
  } else if (Name == "briggs") {
    B = Backend::GraphColoring;
    H = Heuristic::Briggs;
  } else if (Name == "matula-beck") {
    B = Backend::GraphColoring;
    H = Heuristic::MatulaBeck;
  } else if (Name == "linear-scan") {
    B = Backend::LinearScan;
  } else {
    return false;
  }
  return true;
}

namespace {

/// Copies a color across the first interference edge whose endpoints are
/// both colored (or, when the graphs have no such edge, pushes one
/// assignment outside the register file). The audit must catch either.
void injectMiscoloring(const std::array<ClassGraph, NumRegClasses> &Graphs,
                       const std::array<ColoringResult, NumRegClasses> &Cols,
                       const MachineInfo &Machine, AllocationResult &Result) {
  for (unsigned Cls = 0; Cls < NumRegClasses; ++Cls) {
    const ClassGraph &CG = Graphs[Cls];
    for (uint32_t N = 0; N < CG.Graph.numNodes(); ++N) {
      if (Cols[Cls].ColorOf[N] < 0)
        continue;
      for (uint32_t M : CG.Graph.neighbors(N)) {
        if (Cols[Cls].ColorOf[M] < 0)
          continue;
        Result.ColorOf[CG.NodeToVReg[N]] = Cols[Cls].ColorOf[M];
        return;
      }
    }
  }
  for (unsigned Cls = 0; Cls < NumRegClasses; ++Cls) {
    const ClassGraph &CG = Graphs[Cls];
    if (CG.Graph.numNodes() != 0) {
      Result.ColorOf[CG.NodeToVReg[0]] =
          int32_t(Machine.numRegs(CG.Class));
      return;
    }
  }
}

/// Loop-weighted area (sum over instructions where the range is live of
/// 10^depth — Chaitin's "area" feature) and deepest-occurrence loop
/// depth, per vreg: the backend-independent feature columns of the
/// metrics table.
void computeAreaAndDepth(const Function &F, const LoopInfo &Loops,
                         const Liveness &LV, std::vector<double> &Area,
                         std::vector<unsigned> &DepthOf) {
  Area.assign(F.numVRegs(), 0);
  DepthOf.assign(F.numVRegs(), 0);
  // Visited once per instruction: the set walks and clears only its
  // non-zero words.
  TwoLevelBitSet Live(F.numVRegs());
  for (const BasicBlock &B : F.blocks()) {
    unsigned Depth = Loops.depth(B.Id);
    double W = loopDepthWeight(Depth);
    Live.assign(LV.liveOut(B.Id));
    for (auto It = B.Insts.rbegin(), E = B.Insts.rend(); It != E; ++It) {
      const Instruction &I = *It;
      if (I.hasDef()) {
        DepthOf[I.defReg()] = std::max(DepthOf[I.defReg()], Depth);
        Live.reset(I.defReg());
      }
      I.forEachUse([&](VRegId R) {
        DepthOf[R] = std::max(DepthOf[R], Depth);
        Live.set(R);
      });
      Live.forEachSetBit([&](unsigned R) { Area[R] += W; });
    }
  }
}

/// One metrics row for graph node \p Node of \p CG.
RangeMetrics rangeRow(const Function &F, const ClassGraph &CG,
                      uint32_t Node, const PassInputs &In,
                      RangeMetrics::Decision D, int32_t Color) {
  VRegId R = CG.NodeToVReg[Node];
  RangeMetrics RM;
  RM.Name = F.vreg(R).Name;
  RM.Pass = In.Pass;
  RM.Class = CG.Class;
  RM.Degree = CG.Graph.degree(Node);
  RM.Area = In.Area[R];
  RM.Cost = In.Costs[R];
  RM.CostPerDegree = RM.Cost == InterferenceGraph::InfiniteCost
                         ? RM.Cost
                         : (RM.Degree ? RM.Cost / RM.Degree : RM.Cost);
  RM.LoopDepth = In.DepthOf[R];
  RM.D = D;
  RM.Color = Color;
  return RM;
}

/// Estimated bytes of both class graphs' node arrays, charged to the
/// budget before they are built. The build charges the edge pairs
/// itself as it reserves them.
uint64_t graphBytes(const Function &F, const AllocatorConfig &C) {
  std::array<uint64_t, NumRegClasses> ClassNodes{};
  for (VRegId R = 0; R < F.numVRegs(); ++R)
    ++ClassNodes[static_cast<unsigned>(F.regClass(R))];
  uint64_t Bytes = 0;
  for (uint64_t N : ClassNodes)
    Bytes += InterferenceGraph::estimateBytes(N);
  if (C.FaultInject.GraphMemorySpike)
    Bytes += uint64_t(1) << 30; // pretend the graph is ~1 GB bigger
  return Bytes;
}

/// Graph coloring's decide step: simplify + select each class graph and
/// append the uncolorable ranges to \p Spills (whole-range requests).
/// When nothing spills it commits Result.ColorOf instead. Returns false
/// when \p In.Gov tripped mid-coloring, leaving a partial coloring that
/// must not feed spill decisions.
bool colorClasses(const Function &F, const AllocatorConfig &C,
                  std::array<ClassGraph, NumRegClasses> &Graphs,
                  const PassInputs &In, PassRecord &Rec,
                  AllocationResult &Result,
                  std::vector<SpillRequest> &Spills) {
  for (ClassGraph &CG : Graphs) {
    setNodeCosts(F, In.Costs, CG);
    Rec.LiveRanges += CG.Graph.numNodes();
    Rec.Interferences += CG.Graph.numEdges();
  }
  std::array<ColoringResult, NumRegClasses> Colorings;
  SelectOptions SelOpts;
  SelOpts.Governor = In.Gov;
  for (unsigned Cls = 0; Cls < NumRegClasses; ++Cls)
    Colorings[Cls] = colorGraph(Graphs[Cls].Graph,
                                C.Machine.numRegs(Graphs[Cls].Class), C.H,
                                SelOpts);
  if (In.Gov && In.Gov->expired())
    return false;

  for (unsigned Cls = 0; Cls < NumRegClasses; ++Cls) {
    const ClassGraph &CG = Graphs[Cls];
    const ColoringResult &Col = Colorings[Cls];
    Rec.SimplifySeconds += Col.SimplifySeconds;
    Rec.SelectSeconds += Col.SelectSeconds;
    for (uint32_t Node : Col.Spilled) {
      VRegId R = CG.NodeToVReg[Node];
      Spills.push_back({R, /*FromSlot=*/0});
      Rec.SpilledCost += In.Costs[R];
      if (C.CollectMetrics)
        Result.Metrics.push_back(
            rangeRow(F, CG, Node, In, RangeMetrics::Decision::Spilled,
                     /*Color=*/-1));
    }
  }
  if (!Spills.empty())
    return true;

  // Done: translate per-class node colors into a per-vreg map.
  Result.ColorOf.assign(F.numVRegs(), -1);
  for (unsigned Cls = 0; Cls < NumRegClasses; ++Cls) {
    const ClassGraph &CG = Graphs[Cls];
    for (uint32_t Node = 0; Node < CG.Graph.numNodes(); ++Node)
      Result.ColorOf[CG.NodeToVReg[Node]] = Colorings[Cls].ColorOf[Node];
  }
  if (C.CollectMetrics)
    for (unsigned Cls = 0; Cls < NumRegClasses; ++Cls) {
      const ClassGraph &CG = Graphs[Cls];
      for (uint32_t Node = 0; Node < CG.Graph.numNodes(); ++Node)
        Result.Metrics.push_back(
            rangeRow(F, CG, Node, In, RangeMetrics::Decision::Colored,
                     Colorings[Cls].ColorOf[Node]));
    }
  if (C.FaultInject.Miscolor)
    injectMiscoloring(Graphs, Colorings, C.Machine, Result);
  return true;
}

/// Renders a tripped budget as this pass loop's Failed result. The
/// partial allocation state (colors, pieces) is wiped — the IR itself
/// is valid (loops only back out at whole-unit boundaries), so the
/// ladder can rerun a cheaper engine on the same function.
AllocationResult overBudget(AllocationResult Result, Budget &Gov,
                            unsigned Pass) {
  Result.Success = false;
  Result.Outcome = AllocOutcome::Failed;
  Status S = Gov.status();
  S.addContext("pass " + std::to_string(Pass));
  Result.Diag = std::move(S);
  Result.ColorOf.clear();
  Result.Pieces.clear();
  return Result;
}

/// The Figure 4 loop, shared by both backends: renumber -> [build ->
/// coalesce -> costs -> decide -> spill]* until a pass spills nothing.
/// Only the decide step is per backend: graph coloring builds and
/// colors the two class graphs (colorClasses), linear scan builds and
/// walks live intervals (decideLinearScan). Sets Success and a
/// NonConvergence diagnostic, but performs no auditing or fallback —
/// allocateRegisters layers those on top.
///
/// With a governed \p Gov: each coloring pass charges the estimated
/// size of its interference matrices before building them (a refusal
/// exits before the bytes exist), every long loop polls the token, and
/// phase boundaries force a deadline check, so a trip surfaces as a
/// Failed over-budget result within one phase of the expiry.
AllocationResult runPasses(Function &F, const AllocatorConfig &C,
                           const CFG &G, const LoopInfo &Loops,
                           Budget *Gov) {
  const bool Scan = C.B == Backend::LinearScan;
  const char *Cat = Scan ? "linearscan" : "regalloc";
  AllocationResult Result;
  Result.Machine = C.Machine;

  for (unsigned Pass = 0; Pass < C.MaxPasses; ++Pass) {
    PassRecord Rec;
    RA_TRACE_SPAN("Pass", Cat, [&] { return "pass=" + std::to_string(Pass); });
    // FaultInjectOptions::SlowPhaseMicros — stall so a tiny test
    // deadline trips deterministically regardless of machine speed.
    if (C.FaultInject.SlowPhaseMicros)
      std::this_thread::sleep_for(
          std::chrono::microseconds(C.FaultInject.SlowPhaseMicros));
    if (Gov && Gov->expired())
      return overBudget(std::move(Result), *Gov, Pass);

    //===----------------------------------------------------------===//
    // Build: renumber, coalesce, the backend's graphs or intervals,
    // spill costs.
    //===----------------------------------------------------------===//
    std::optional<ScopedCharge> GraphCharge;
    std::array<ClassGraph, NumRegClasses> Graphs;
    std::optional<LiveIntervals> Intervals;
    std::vector<double> Costs, Area;
    std::vector<unsigned> DepthOf;
    {
      RA_TRACE_PHASE(Rec.BuildSeconds, "Build", Cat);
      {
        RA_TRACE_SPAN("Renumber", Cat);
        renumberLiveRanges(F, G);
      }
      if (C.Coalesce) {
        CoalesceStats CS = coalesceAll(F, G, C.Coalescing, C.Machine, Gov);
        Result.Stats.CopiesCoalesced += CS.CopiesRemoved;
        if (C.CollectMetrics)
          for (const CoalescedCopy &CC : CS.Merges) {
            RangeMetrics RM;
            RM.Name = CC.Merged;
            RM.Pass = Pass;
            RM.Class = CC.Class;
            RM.D = RangeMetrics::Decision::Coalesced;
            RM.CoalescedInto = CC.Into;
            Result.Metrics.push_back(std::move(RM));
          }
        if (CS.CopiesRemoved != 0) {
          RA_TRACE_SPAN("RenumberCompact", Cat);
          renumberLiveRanges(F, G); // compact ids merged away
        }
      }
      // Charge the graphs' node arrays *before* they exist, and let the
      // build charge its edge pairs as they grow: refusing either turns
      // a would-be OOM into a clean over-budget exit. The node charge is
      // held for the pass (the graphs die with the iteration). Linear
      // scan builds no graph and charges nothing.
      Budget *GraphGov = Scan ? nullptr : Gov;
      GraphCharge.emplace(GraphGov, GraphGov ? graphBytes(F, C) : 0);
      if (!GraphCharge->granted())
        return overBudget(std::move(Result), *Gov, Pass);

      Liveness LV = Liveness::compute(F, G);
      if (Scan)
        Intervals = LiveIntervals::compute(F, LV, InstrNumbering::compute(F));
      else
        Graphs = buildInterferenceGraphs(F, LV, Gov);
      Costs = computeSpillCosts(F, Loops, C.Costs);
      if (C.CollectMetrics)
        computeAreaAndDepth(F, Loops, LV, Area, DepthOf);
    }
    if (Gov && Gov->expired()) {
      Result.Stats.Passes.push_back(std::move(Rec));
      return overBudget(std::move(Result), *Gov, Pass);
    }

    //===----------------------------------------------------------===//
    // Decide: color or walk; either commits registers or names spills.
    //===----------------------------------------------------------===//
    const PassInputs In{Pass, Costs, Area, DepthOf, Gov};
    std::vector<SpillRequest> Spills;
    bool Decided =
        Scan ? decideLinearScan(F, C, *Intervals, In, Rec, Result, Spills)
             : colorClasses(F, C, Graphs, In, Rec, Result, Spills);
    if (!Decided) {
      Result.Stats.Passes.push_back(std::move(Rec));
      return overBudget(std::move(Result), *Gov, Pass);
    }
    Rec.SpilledLiveRanges = Spills.size();
    for (const SpillRequest &S : Spills)
      Rec.SpilledNames.push_back(F.vreg(S.Reg).Name);
    if (Spills.empty()) {
      Result.Stats.Passes.push_back(std::move(Rec));
      Result.Success = true;
      Result.Outcome = AllocOutcome::Converged;
      return Result;
    }

    //===----------------------------------------------------------===//
    // Spill: insert the stores and loads, then go around again.
    //===----------------------------------------------------------===//
    SpillCodeStats SC;
    {
      RA_TRACE_PHASE(Rec.SpillSeconds, "SpillInserter", "regalloc", [&] {
        return "ranges=" + std::to_string(Spills.size());
      });
      SC = insertSpillCode(F, Spills, C.Rematerialize);
    }
    Result.Stats.SpillCode.Loads += SC.Loads;
    Result.Stats.SpillCode.Stores += SC.Stores;
    Result.Stats.SpillCode.Remats += SC.Remats;
    Result.Stats.Passes.push_back(std::move(Rec));
  }

  // Never observed in practice (the paper reports at most three passes);
  // allocateRegisters degrades to spill-everything from here.
  Result.Success = false;
  Result.Outcome = AllocOutcome::Failed;
  Result.Diag = Status::error(
      StatusCode::NonConvergence,
      std::string(Scan ? "no linear-scan allocation" : "no coloring") +
          " after " + std::to_string(C.MaxPasses) + " passes");
  return Result;
}

/// The bottom rung of the degradation ladder: spill every live range to
/// memory, then color the residue. After spilling, every remaining live
/// range is a single-instruction temporary, so at most a handful are
/// ever simultaneously live and the loop converges immediately for any
/// realistic file size.
AllocationResult spillEverything(Function &F, const AllocatorConfig &C,
                                 const CFG &G, const LoopInfo &Loops) {
  RA_TRACE_SPAN("SpillEverything", "regalloc");
  renumberLiveRanges(F, G);
  std::vector<VRegId> All(F.numVRegs());
  for (VRegId R = 0; R < F.numVRegs(); ++R)
    All[R] = R;
  {
    RA_TRACE_SPAN("SpillInserter", "regalloc",
                  [&] { return "ranges=" + std::to_string(All.size()); });
    insertSpillCode(F, All, /*Rematerialize=*/false);
  }

  AllocatorConfig FallbackC = C;
  // The bottom rung always colors, whatever backend just failed: the
  // residual graph is tiny and the coloring cycle is the most
  // battle-tested path through the allocator.
  FallbackC.B = Backend::GraphColoring;
  FallbackC.Coalesce = false; // no copies worth merging among temporaries
  FallbackC.FaultInject = {}; // the fallback must stay unbroken
  FallbackC.MaxPasses = 8;
  // The bottom rung runs ungoverned: it is the guaranteed-progress
  // escape hatch, and its residual graph is tiny by construction.
  return runPasses(F, FallbackC, G, Loops, /*Gov=*/nullptr);
}

} // namespace

AllocationResult ra::runLinearScanPasses(Function &F,
                                         const AllocatorConfig &C,
                                         const CFG &G, const LoopInfo &Loops,
                                         Budget *Gov) {
  AllocatorConfig ScanC = C;
  ScanC.B = Backend::LinearScan;
  return runPasses(F, ScanC, G, Loops, Gov);
}

AllocationResult ra::allocateRegisters(Function &F,
                                       const AllocatorConfig &C) {
  if (!C.FaultInject.ThrowInFunction.empty() &&
      F.name() == C.FaultInject.ThrowInFunction)
    throw std::runtime_error("fault injection: worker throw in @" +
                             F.name());

  RA_TRACE_CONTEXT([&] { return "@" + F.name(); });
  RA_TRACE_SPAN("AllocateFunction", "regalloc", [&] {
    // Keep the historical heuristic=... spelling for graph coloring —
    // trace goldens pin it — and name the backend otherwise.
    return C.B == Backend::GraphColoring
               ? std::string("heuristic=") + heuristicName(C.H)
               : std::string("allocator=") + allocatorName(C.B, C.H);
  });

  AllocationResult Result;
  Result.Machine = C.Machine;
  if (Status S = validateForAllocation(F); !S.ok()) {
    Result.Diag = std::move(S.addContext("@" + F.name()));
    return Result; // Failed: cannot even build a CFG safely.
  }

  // The CFG shape never changes below: coalescing deletes only copies,
  // spilling inserts only non-terminators, renumbering touches only
  // operands. Compute flow structure once.
  CFG G = CFG::compute(F);
  Dominators Doms = Dominators::compute(F, G);
  LoopInfo Loops = LoopInfo::compute(F, G, Doms);

  // Per-function resource-governance token. Each function gets its own
  // (allocateModule shares nothing across workers), so one pathological
  // sibling can never drain another function's budget.
  Budget Token;
  if (C.governed())
    Token.arm(C.DeadlineSeconds, C.MemoryBudgetBytes);
  Budget *Gov = C.governed() ? &Token : nullptr;

  // Stamps the cumulative budget telemetry onto whichever result wins
  // the ladder. Zero when ungoverned — the fields (and trace counters)
  // only exist for governed runs, keeping defaults byte-identical.
  auto Finish = [&](AllocationResult R) {
    if (Gov) {
      R.BudgetCheckpoints = Token.checkpoints();
      R.BudgetPeakBytes = Token.peakBytes();
      RA_TRACE_COUNTER("budget.checkpoints", double(R.BudgetCheckpoints));
      RA_TRACE_COUNTER("budget.peak_bytes", double(R.BudgetPeakBytes));
    }
    return R;
  };

  if (C.FaultInject.NonConvergence) {
    Result.Success = false;
    Result.Outcome = AllocOutcome::Failed;
    Result.Diag = Status::error(StatusCode::NonConvergence,
                                "fault injection: forced non-convergence");
  } else {
    Result = runPasses(F, C, G, Loops, Gov);
  }

  // Rung 1 of the budget ladder: graph coloring ran over its deadline
  // or was refused its graphs — retry under linear scan, which
  // allocates no interference graph and is the measured-cheaper engine,
  // before surrendering registers entirely. The retry keeps the same
  // token (memory charges carry over) with a fresh deadline window, and
  // is audited unconditionally: degraded code must never be wrong code.
  auto BudgetTripped = [](const Status &S) {
    return S.code() == StatusCode::DeadlineExceeded ||
           S.code() == StatusCode::MemoryBudgetExceeded;
  };
  if (!Result.Success && BudgetTripped(Result.Diag) &&
      C.B == Backend::GraphColoring) {
    RA_TRACE_COUNTER("budget.retry.linear_scan", 1);
    Status Why = Result.Diag;
    Token.rearm();
    AllocationResult Retry = runLinearScanPasses(F, C, G, Loops, Gov);
    if (Retry.Success) {
      Status RetryAudit = auditAllocationStatus(F, Retry);
      if (RetryAudit.ok()) {
        Retry.Outcome = AllocOutcome::Degraded;
        Retry.Diag = std::move(
            Why.addContext("degraded to linear-scan retry for @" + F.name()));
        return Finish(std::move(Retry));
      }
      Retry.Success = false;
      Retry.Outcome = AllocOutcome::Failed;
      Retry.Diag = std::move(RetryAudit);
    }
    Result = std::move(Retry); // fall through to spill-everything
  }

  if (Result.Success) {
    if (!C.Audit)
      return Finish(std::move(Result));
    Status AuditS = auditAllocationStatus(F, Result);
    if (AuditS.ok())
      return Finish(std::move(Result));
    Result.Success = false;
    Result.Outcome = AllocOutcome::Failed;
    Result.Diag = std::move(AuditS);
  }

  // Degradation ladder: primary allocation is unusable — spill every
  // live range and re-color. The fallback is always audited, whatever
  // C.Audit says: degraded code must never be wrong code.
  Status Why = Result.Diag;
  if (Gov && BudgetTripped(Why))
    RA_TRACE_COUNTER("budget.fallback.spill_everything", 1);
  AllocationResult Fallback = spillEverything(F, C, G, Loops);
  if (Fallback.Success) {
    Status FallbackAudit = auditAllocationStatus(F, Fallback);
    if (!FallbackAudit.ok()) {
      Fallback.Success = false;
      Fallback.Outcome = AllocOutcome::Failed;
      Fallback.Diag = std::move(FallbackAudit);
    }
  }
  if (Fallback.Success) {
    Fallback.Outcome = AllocOutcome::Degraded;
    Fallback.Diag =
        std::move(Why.addContext("degraded to spill-everything for @" +
                                 F.name()));
    return Finish(std::move(Fallback));
  }

  Result.Success = false;
  Result.Outcome = AllocOutcome::Failed;
  Result.Diag = std::move(Fallback.Diag.addContext(
      "spill-everything fallback also failed for @" + F.name() +
      " (primary failure: " + Why.toString() + ")"));
  return Finish(std::move(Result));
}
