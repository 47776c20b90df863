//===- regalloc/Allocator.h - Build-Simplify-Color driver ------*- C++ -*-===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The complete register allocator of the paper's Figure 4:
///
///     renumber -> [ build -> coalesce -> spill costs
///                   -> simplify -> select -> insert spill code ]*
///
/// The cycle repeats until a pass needs no spill code. Integer and
/// floating-point registers are colored independently (disjoint files).
/// One pass loop serves both backends: only its decide step differs —
/// simplify + select over the class graphs, or the linear-scan interval
/// walk (linearscan/LinearScanAlloc.h). Per-pass phase timings and
/// spill counts are recorded to regenerate the paper's Figure 7;
/// first-pass spill counts and costs feed the Figure 5 table.
///
//===----------------------------------------------------------------------===//

#ifndef RA_REGALLOC_ALLOCATOR_H
#define RA_REGALLOC_ALLOCATOR_H

#include "regalloc/Coalesce.h"
#include "regalloc/Coloring.h"
#include "regalloc/SpillInserter.h"
#include "support/Status.h"
#include "target/CostModel.h"
#include "target/MachineInfo.h"

#include <functional>
#include <string>
#include <vector>

namespace ra {

/// True when the RA_AUDIT environment variable requests audits (set and
/// neither empty nor "0"). Used as the default for AllocatorConfig::Audit
/// so CI can run whole existing suites with auditing forced on.
bool auditEnabledByEnv();

/// Which decide step the Figure 4 pass loop runs. Everything else — the
/// pass loop itself, validation, audit, spill-everything degradation —
/// is shared and backend-agnostic.
enum class Backend : uint8_t {
  /// The paper's Build-Simplify-Color cycle; AllocatorConfig::H picks
  /// the simplify/select heuristic (Chaitin, Briggs, Matula-Beck).
  GraphColoring,
  /// Start-ordered walk over live intervals with holes (linearscan/).
  /// AllocatorConfig::H is ignored.
  LinearScan,
};

/// Printable backend name ("graph-coloring", "linear-scan").
const char *backendName(Backend B);

/// The canonical --allocator spelling of a configuration: the heuristic
/// name for graph coloring ("chaitin", "briggs", "matula-beck"),
/// "linear-scan" otherwise.
const char *allocatorName(Backend B, Heuristic H);

/// Parses an --allocator value into a backend/heuristic pair. Accepts
/// exactly the spellings allocatorName produces; returns false (leaving
/// \p B and \p H untouched) for anything else.
bool parseAllocatorName(const std::string &Name, Backend &B, Heuristic &H);

/// Test-only fault injection: deliberately break the allocator so the
/// audit + spill-everything degradation path is provably exercised.
struct FaultInjectOptions {
  /// After a successful coloring, corrupt one assignment (copy a color
  /// across an interference edge, or push it out of the register file).
  bool Miscolor = false;
  /// Report MaxPasses exhaustion without running any pass.
  bool NonConvergence = false;
  /// Throw std::runtime_error from allocateRegisters for functions with
  /// this exact name (exercises worker-exception propagation).
  std::string ThrowInFunction;
  /// Sleep this many microseconds at the top of every backend pass —
  /// deterministically trips a tiny deadline so every ladder rung is
  /// provable without relying on machine speed.
  unsigned SlowPhaseMicros = 0;
  /// Pretend the interference graphs' up-front estimate is ~1 GB
  /// larger than it is, so a memory budget refuses the graph-coloring
  /// build up front and the ladder retries under linear scan (which
  /// builds no graph and charges nothing extra).
  bool GraphMemorySpike = false;

  bool any() const {
    return Miscolor || NonConvergence || !ThrowInFunction.empty() ||
           SlowPhaseMicros != 0 || GraphMemorySpike;
  }
};

/// Tuning knobs for one allocation run.
struct AllocatorConfig {
  /// Allocation engine for the primary allocation. The spill-everything
  /// fallback always runs graph coloring — the bottom rung of the
  /// degradation ladder stays on the most battle-tested engine.
  Backend B = Backend::GraphColoring;
  /// Simplify/select policy for the GraphColoring backend (and for the
  /// fallback's residual coloring under any backend).
  Heuristic H = Heuristic::Briggs;
  MachineInfo Machine = MachineInfo::rtpc();
  /// The paper's RT/PC cost model. It has one value, so it is not a
  /// setting; ROADMAP item 1 deletes it with perfbench's read of it.
  static constexpr CostModel Costs{};
  /// Safety bound on Build-Simplify-Color cycles (the paper observed at
  /// most three in practice).
  unsigned MaxPasses = 32;
  /// Run copy coalescing during build.
  bool Coalesce = true;
  /// Aggressive (Chaitin, the paper's setting) or the later
  /// conservative test that never creates uncolorable nodes.
  CoalescePolicy Coalescing = CoalescePolicy::Aggressive;
  /// Recompute spilled constants at their uses instead of storing and
  /// reloading them (off by default: the paper's allocator predates
  /// rematerialization; turn on to measure the refinement).
  bool Rematerialize = false;
  /// Inert: read only by perfbench; deleted by ROADMAP item 1.
  bool ParallelGraph = false;
  unsigned ParallelGraphJobs = 0;
  unsigned ParallelGraphMinNodes = 2048;
  /// Run the independent post-allocation audit (AllocationAudit.h) on
  /// every allocation. An audit failure triggers the spill-everything
  /// fallback and a Degraded outcome instead of returning wrong code.
  /// Defaults to off unless the RA_AUDIT environment variable turns it
  /// on process-wide.
  bool Audit = auditEnabledByEnv();
  /// Wall-clock allowance per function, in seconds (0 = unbounded, the
  /// default). Exceeding it never fails an allocation: the graph-
  /// coloring backend retries under linear scan, and any remaining
  /// over-budget run falls to the audited spill-everything rung, so the
  /// result is Degraded with a DeadlineExceeded status rather than
  /// Failed. rac's --deadline-ms.
  double DeadlineSeconds = 0;
  /// Byte ceiling per function for governed allocations — the
  /// interference graphs: their node arrays, charged up front from
  /// InterferenceGraph::estimateBytes, and their raw edge pairs,
  /// charged by the build before each slab is reserved, so a would-be
  /// OOM is refused before the bytes exist (0 = unbounded). Same ladder
  /// as the deadline. rac's --mem-budget-mb.
  uint64_t MemoryBudgetBytes = 0;

  /// True when either resource limit is armed.
  bool governed() const {
    return DeadlineSeconds > 0 || MemoryBudgetBytes > 0;
  }

  /// Fill AllocationResult::Metrics with a per-live-range feature/
  /// decision table (degree, area, cost/degree, loop depth, spill
  /// decision, color, coalesced-into). Off by default: collecting the
  /// table costs an extra liveness walk per pass.
  bool CollectMetrics = false;
  /// Deliberate breakage for tests; see FaultInjectOptions.
  FaultInjectOptions FaultInject;
};

/// Phase timings and spill decisions of one Build-Simplify-Color pass.
/// Each seconds field is filled by the phase scope (RA_TRACE_PHASE) that
/// records the trace span named beside it, so a field equals the sum of
/// its pass's spans. Linear scan reports its interval walk as select.
struct PassRecord {
  double BuildSeconds = 0;    ///< "Build": renumber + coalesce + graph + costs
  double SimplifySeconds = 0; ///< "Simplify", both classes
  double SelectSeconds = 0;   ///< "Select", both classes ("color" in Fig. 7)
  double SpillSeconds = 0;    ///< "SpillInserter": spill-code insertion

  unsigned LiveRanges = 0;      ///< graph nodes this pass (both classes)
  unsigned Interferences = 0;   ///< graph edges this pass
  unsigned SpilledLiveRanges = 0;
  double SpilledCost = 0;       ///< sum of estimates over spilled ranges
  std::vector<std::string> SpilledNames; ///< debug names, decision order
  /// Linear scan with splitting: ranges this pass assigned to more than
  /// one register over disjoint slot ranges (graph coloring: always 0).
  unsigned SplitLiveRanges = 0;
};

/// Aggregate statistics for a full allocation.
struct AllocationStats {
  std::vector<PassRecord> Passes;
  unsigned CopiesCoalesced = 0;
  SpillCodeStats SpillCode;

  unsigned numPasses() const { return Passes.size(); }

  /// First-pass spill count — the paper's Figure 5 "Registers Spilled".
  unsigned firstPassSpills() const {
    return Passes.empty() ? 0 : Passes.front().SpilledLiveRanges;
  }

  /// First-pass spill cost — the Figure 5 "Spill Cost" column.
  double firstPassSpillCost() const {
    return Passes.empty() ? 0 : Passes.front().SpilledCost;
  }

  /// Live ranges seen by the first pass (Figure 5 "Live Ranges").
  unsigned initialLiveRanges() const {
    return Passes.empty() ? 0 : Passes.front().LiveRanges;
  }

  unsigned totalSpills() const {
    unsigned N = 0;
    for (const PassRecord &P : Passes)
      N += P.SpilledLiveRanges;
    return N;
  }

  double totalSeconds() const {
    double S = 0;
    for (const PassRecord &P : Passes)
      S += P.BuildSeconds + P.SimplifySeconds + P.SelectSeconds +
           P.SpillSeconds;
    return S;
  }
};

/// One live range's graph features and allocation decision — the rows
/// of the per-range metrics table (AllocatorConfig::CollectMetrics).
/// Every pass contributes rows for its spilled and coalesced-away
/// ranges; the converging pass additionally contributes one Colored row
/// per surviving range, so the table is a census of where every live
/// range ended up and the features (Chaitin's spill estimator inputs)
/// behind each decision.
struct RangeMetrics {
  /// The decision taken for the range.
  enum class Decision : uint8_t {
    Colored,   ///< Got a register in the converging pass.
    Spilled,   ///< Chosen for spilling this pass.
    Coalesced, ///< Merged into CoalescedInto by copy coalescing.
    Split,     ///< Linear scan: got several registers over disjoint
               ///< slot ranges (Color reports the first piece's).
  };

  std::string Name;          ///< Live-range debug name at decision time.
  unsigned Pass = 0;         ///< Build-Simplify-Color pass (0-based).
  RegClass Class = RegClass::Int;
  unsigned Degree = 0;       ///< Interference-graph degree this pass.
  double Area = 0;           ///< Loop-weighted occupancy: sum over
                             ///< instructions where live of 10^depth.
  double Cost = 0;           ///< Loop-weighted spill cost estimate.
  double CostPerDegree = 0;  ///< Chaitin's spill metric (Cost for
                             ///< degree-0 nodes).
  unsigned LoopDepth = 0;    ///< Deepest loop containing an occurrence.
  Decision D = Decision::Colored;
  int32_t Color = -1;        ///< Physical register, or -1 if not colored.
  std::string CoalescedInto; ///< Surviving range's name (Coalesced only).
};

/// Printable decision name ("colored", "spilled", "coalesced", "split").
const char *rangeDecisionName(RangeMetrics::Decision D);

/// Header line of the metrics CSV dump (matches appendMetricsCsv).
std::string metricsCsvHeader();

/// Appends one CSV line per metrics row of \p A to \p Out, prefixed
/// with \p FunctionName. Numeric formatting is deterministic, so equal
/// allocations dump byte-identical CSV (golden-file tested).
void appendMetricsCsv(std::string &Out, const std::string &FunctionName,
                      const std::vector<RangeMetrics> &Metrics);

/// How an allocation concluded — the degradation ladder's rungs.
enum class AllocOutcome : uint8_t {
  Converged, ///< Build-Simplify-Color converged; audit (if run) passed.
  Degraded,  ///< Primary allocation failed its audit or never converged;
             ///< the guaranteed-terminating spill-everything fallback
             ///< produced the (audited) allocation instead.
  Failed,    ///< No usable allocation; Diag explains why.
};

/// Printable outcome name ("converged", "degraded", "failed").
const char *allocOutcomeName(AllocOutcome O);

/// One committed register piece of a split live range: \p Reg occupies
/// physical register \p PhysReg over InstrNumbering slots [From, To).
/// Both bounds are instruction-aligned (even), so an instruction's read
/// and write slots always land in the same piece; crossing a piece
/// boundary is an implicit register-register move the simulator
/// performs (with parallel-copy semantics) and the audit validates.
struct PieceAssignment {
  VRegId Reg = InvalidVReg;
  uint32_t From = 0; ///< First slot (even) the piece's register holds.
  uint32_t To = 0;   ///< One past the last slot (even).
  uint32_t PhysReg = 0;

  bool operator==(const PieceAssignment &O) const = default;
};

/// Outcome of \c allocateRegisters. The function itself is rewritten in
/// place (renumbered, coalesced, spill code inserted).
struct AllocationResult {
  bool Success = false;        ///< Usable allocation (Converged or Degraded).
  AllocOutcome Outcome = AllocOutcome::Failed;
  /// Ok when Converged; for Degraded, why the primary allocation was
  /// rejected; for Failed, why no allocation could be produced.
  Status Diag;
  AllocationStats Stats;
  /// Per-live-range feature/decision table; filled only when
  /// AllocatorConfig::CollectMetrics is set. For a Degraded outcome the
  /// rows describe the spill-everything fallback that produced the
  /// final allocation.
  std::vector<RangeMetrics> Metrics;
  /// Physical register index per final vreg, within its class's file.
  /// A split vreg (linear scan with second-chance splitting) reports
  /// its *first* piece's register here; Pieces carries the full
  /// per-slot assignment that overrides it.
  std::vector<int32_t> ColorOf;
  /// Per-slot assignments of split live ranges, sorted by (Reg, From);
  /// empty unless linear-scan splitting committed a multi-register
  /// range. Vregs not listed occupy ColorOf over their whole lifetime.
  std::vector<PieceAssignment> Pieces;
  MachineInfo Machine = MachineInfo::rtpc();
  /// Resource-governance telemetry (zero when ungoverned): cooperative
  /// checkpoints served and the high-water mark of governed bytes,
  /// cumulative across every ladder rung this function ran.
  uint64_t BudgetCheckpoints = 0;
  uint64_t BudgetPeakBytes = 0;
};

/// Allocates registers for \p F (mutating it) with configuration \p C.
///
/// Never aborts on recoverable conditions: structurally malformed input
/// returns a Failed result with an InvalidInput status, and when
/// \c C.Audit is set, a miscoloring or MaxPasses exhaustion degrades to
/// the audited spill-everything fallback (Outcome == Degraded) rather
/// than failing. Only \c FaultInjectOptions::ThrowInFunction ever makes
/// this function throw.
AllocationResult allocateRegisters(Function &F, const AllocatorConfig &C);

class Module;
class ThreadPool;

/// Result of allocating every function of a module.
struct ModuleAllocationResult {
  /// Per-function results, in module function order regardless of the
  /// order worker threads finished in.
  std::vector<AllocationResult> Functions;

  bool allSucceeded() const {
    for (const AllocationResult &R : Functions)
      if (!R.Success)
        return false;
    return true;
  }

  /// Functions that fell back to spill-everything.
  unsigned numDegraded() const {
    unsigned N = 0;
    for (const AllocationResult &R : Functions)
      N += R.Outcome == AllocOutcome::Degraded;
    return N;
  }
};

/// Allocates registers for every function in \p M (mutating them).
/// Without \p Pool the functions run serially on the caller; with one
/// they fan out across all of its workers. Each function allocates on
/// one thread, and functions are independent allocation units, so the
/// result — rewritten functions, colors, spill decisions — is
/// bit-identical to running \c allocateRegisters serially in function
/// order.
///
/// A worker that throws fails only that function's AllocationResult
/// (Outcome == Failed, WorkerError status); the exception propagates
/// through the future and is converted here, so one bad function never
/// crashes or hangs the whole module.
///
/// \p Only, when given, lists the function indices to allocate; the
/// other entries of the result stay default (Failed, empty). \p PreStep
/// runs on each function inside its work unit, before allocation — the
/// service passes the optimizer here.
ModuleAllocationResult
allocateModule(Module &M, const AllocatorConfig &C,
               ThreadPool *Pool = nullptr,
               const std::vector<unsigned> *Only = nullptr,
               const std::function<void(Function &)> &PreStep = {});

} // namespace ra

#endif // RA_REGALLOC_ALLOCATOR_H
