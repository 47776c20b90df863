//===- tools/ralfuzz.cpp - randomized allocator fuzzer --------------------===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Seeded fuzzer for the whole allocation pipeline. Each seed derives a
// random-program shape and a register-file size, generates a
// verifier-clean module, records a pre-allocation golden run, then
// allocates under every configured allocator — both of the paper's
// coloring heuristics and the linear-scan backend — and checks each
// result three independent ways:
//
//   1. the post-allocation audit (AllocationAudit.h), run inside every
//      allocation and once more here, re-proves the assignment from
//      scratch;
//   2. the IR verifier accepts the rewritten function;
//   3. the simulator is a differential oracle: the allocated run must
//      reproduce the golden run's memory image and return values.
//
// On top of the per-allocator checks, the allocators are differential
// oracles for *each other*: every pair of allocated runs must agree on
// memory image and return values. A divergence names the disagreeing
// pair in the failure line and the reproducer. When the list holds both
// chaitin and briggs, each seed also checks the paper's two guarantees:
// Briggs's pass-1 spills are a subset of Chaitin's, and when Chaitin's
// pass 1 spills nothing both print the same function and coloring.
//
// On the first failure the program shape is shrunk while the failure
// still reproduces, a parseable .ral reproducer (with the seed and
// config in header comments) is dumped, and the tool exits 1.
//
//   ralfuzz [--seeds N] [--start S] [--allocators A,B,...]
//           [--fault-inject] [--chaos]
//           [--seed-timeout-ms N] [--max-instructions N] [--out FILE]
//           [--emit-corpus DIR] [--quiet]
//
//   --seeds N       number of seeds to run (default 1000)
//   --start S       first seed (default 0)
//   --allocators L  comma-separated allocator list (chaitin, briggs,
//                   matula-beck, linear-scan);
//                   default chaitin,briggs,linear-scan
//   --fault-inject  deliberately miscolor / fail convergence and demand
//                   a Degraded-but-still-correct fallback allocation
//   --chaos         draw a per-seed resource-chaos plan (tiny deadlines,
//                   tiny memory budgets, injected phase stalls, graph
//                   memory spikes) and demand Converged-or-Degraded —
//                   never Failed — with every Degraded result naming the
//                   exhausted resource and still passing every oracle
//   --seed-timeout-ms N  wall-clock watchdog per seed: a seed that does
//                   not finish in N ms is reported and skipped (the
//                   stuck run is abandoned detached) instead of hanging
//                   the whole campaign (0 = off, the default)
//   --max-instructions N  simulator instruction ceiling per run; an
//                   exhausted ceiling is reported as a structured
//                   deadline-exceeded trap, distinguishing an allocator-
//                   induced infinite loop from a wrong-answer trap
//   --service       replay every seed twice per allocator through one
//                   in-process AllocationService: the warm pass must be
//                   served from the content-addressed cache and
//                   reproduce the cold allocation byte for byte
//   --out FILE      reproducer path (default ralfuzz-repro.ral)
//   --emit-corpus DIR  instead of fuzzing, write one reproducer-format
//                   .ral per seed into DIR (seeds the checked-in
//                   tests/corpus/ regression corpus) and exit
//   --quiet         no progress lines
//
// A numeric flag whose value is not a whole decimal number in range is
// an invalid-input diagnostic naming the flag, and exits 1.
//
//===----------------------------------------------------------------------===//

#include "ir/IRPrinter.h"
#include "ir/Verifier.h"
#include "opt/Optimizer.h"
#include "regalloc/AllocationAudit.h"
#include "regalloc/Allocator.h"
#include "service/AllocationService.h"
#include "sim/Simulator.h"
#include "support/Rng.h"
#include "support/Status.h"
#include "workloads/RandomProgram.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

using namespace ra;

namespace {

/// One fuzz input: everything needed to regenerate the exact module and
/// allocation deterministically.
struct FuzzCase {
  uint64_t Seed = 0;
  RandomProgramConfig Shape;
  bool Optimize = false;
  unsigned IntK = 16, FltK = 8;
};

/// One allocator under test: a backend plus (for graph coloring) its
/// simplify/select heuristic.
struct AllocatorChoice {
  Backend B = Backend::GraphColoring;
  Heuristic H = Heuristic::Briggs;
  const char *name() const { return allocatorName(B, H); }
};

/// The allocators every seed runs by default: both of the paper's
/// heuristics and the linear-scan backend, so coloring-vs-coloring and
/// coloring-vs-linear-scan differentials are both always live.
std::vector<AllocatorChoice> defaultAllocators() {
  return {{Backend::GraphColoring, Heuristic::Chaitin},
          {Backend::GraphColoring, Heuristic::Briggs},
          {Backend::LinearScan, Heuristic::Briggs}};
}

/// The observable outcome of one allocated run, kept for cross-allocator
/// comparison.
struct CapturedRun {
  std::optional<MemoryImage> Mem;
  ExecutionResult R;
  // For the paper-guarantee check between chaitin and briggs.
  std::vector<std::string> Pass1Spills;
  std::string Printed;
  std::vector<int32_t> ColorOf;
  std::vector<std::string> RangeNames; ///< vreg id -> name
};

/// Per-seed resource-chaos plan: budgets and injected stalls drawn from
/// a stream independent of the program shape, so --chaos replays the
/// exact same corpus as a plain run, just under randomized governance.
struct ChaosPlan {
  double DeadlineSeconds = 0;    ///< 0, 1ms, 5ms, or 20ms
  uint64_t MemoryBudgetBytes = 0; ///< 0, 256 KB, 1 MB, or 16 MB
  unsigned SlowPhaseMicros = 0;  ///< injected stall per pass top
  bool GraphMemorySpike = false; ///< +1 GB on the graph estimate
};

ChaosPlan deriveChaos(uint64_t Seed) {
  ChaosPlan P;
  Rng R(Seed * 0xD1B54A32D192ED03ull + 0x5851F42D4C957F2Dull);
  static const double Deadlines[] = {0, 0.001, 0.005, 0.020};
  static const uint64_t Budgets[] = {0, 256ull << 10, 1ull << 20,
                                     16ull << 20};
  P.DeadlineSeconds = Deadlines[R.nextBelow(4)];
  P.MemoryBudgetBytes = Budgets[R.nextBelow(4)];
  if (R.nextBool())
    P.SlowPhaseMicros = 2000;
  P.GraphMemorySpike = R.nextBelow(4) == 0;
  return P;
}

/// How each (case, allocator) trial is checked — shared by the fuzz
/// loop, the watchdog thread, and minimization.
struct RunPolicy {
  bool FaultInject = false;
  bool Chaos = false;
  ChaosPlan Plan;
  uint64_t MaxInstructions = 1ull << 32; ///< --max-instructions
};

const unsigned IntSizes[] = {4, 8, 16};
const unsigned FltSizes[] = {2, 4, 8};

/// Derives the whole case from the seed so a reproducer needs only the
/// seed and the (possibly shrunk) shape numbers.
FuzzCase deriveCase(uint64_t Seed) {
  FuzzCase FC;
  FC.Seed = Seed;
  Rng R(Seed * 0x9E3779B97F4A7C15ull + 0xA5A5A5A5ull);
  FC.Shape.MaxDepth = unsigned(R.nextInRange(1, 3));
  FC.Shape.StatementsPerBlock = unsigned(R.nextInRange(2, 10));
  FC.Shape.Regions = unsigned(R.nextInRange(1, 8));
  FC.Shape.IntVars = unsigned(R.nextInRange(2, 8));
  FC.Shape.FloatVars = unsigned(R.nextInRange(2, 8));
  FC.Shape.ArraySize = unsigned(R.nextInRange(4, 32));
  FC.Shape.LoopTrip = R.nextInRange(1, 6);
  FC.Optimize = R.nextBool();
  FC.IntK = IntSizes[R.nextBelow(3)];
  FC.FltK = FltSizes[R.nextBelow(3)];
  return FC;
}

/// Runs one (case, allocator) trial. Returns true when every check
/// passes; otherwise fills \p Failure with a one-line diagnosis. On
/// success, \p Cap (when non-null) receives the allocated run's memory
/// image and return values for cross-allocator comparison.
bool runOne(const FuzzCase &FC, AllocatorChoice AC, const RunPolicy &P,
            std::string &Failure, CapturedRun *Cap = nullptr) {
  const bool FaultInject = P.FaultInject;
  auto Fail = [&](std::string Msg) {
    Failure = std::string(AC.name()) + " int=" +
              std::to_string(FC.IntK) + " flt=" + std::to_string(FC.FltK) +
              ": " + std::move(Msg);
    return false;
  };

  Module M;
  Function &F = buildRandomProgram(M, FC.Seed, FC.Shape);
  auto PreErrors = verifyFunction(M, F);
  if (!PreErrors.empty())
    return Fail("generator produced unverifiable IR: " + PreErrors.front());
  if (FC.Optimize) {
    optimizeFunction(F);
    auto OptErrors = verifyFunction(M, F);
    if (!OptErrors.empty())
      return Fail("optimizer broke the module: " + OptErrors.front());
  }

  // Golden run on the exact function that will be allocated, before the
  // allocator rewrites it.
  Simulator Sim(M);
  SimOptions SO{.MaxInstructions = P.MaxInstructions};
  MemoryImage GoldenMem(M);
  ExecutionResult Golden = Sim.runVirtual(F, GoldenMem, SO);

  AllocatorConfig C;
  C.B = AC.B;
  C.H = AC.H;
  C.Machine = MachineInfo(FC.IntK, FC.FltK);
  C.MaxPasses = 64; // Matula-Beck-style worst cases need headroom
  C.Audit = true; // faults must be caught, and every result re-proved
  if (P.Chaos) {
    C.DeadlineSeconds = P.Plan.DeadlineSeconds;
    C.MemoryBudgetBytes = P.Plan.MemoryBudgetBytes;
    C.FaultInject.SlowPhaseMicros = P.Plan.SlowPhaseMicros;
    C.FaultInject.GraphMemorySpike = P.Plan.GraphMemorySpike;
  }
  if (FaultInject) {
    // Alternate the injected failure mode by seed so both rungs of the
    // degradation ladder see traffic.
    if (FC.Seed & 1)
      C.FaultInject.NonConvergence = true;
    else
      C.FaultInject.Miscolor = true;
  }

  AllocationResult A = allocateRegisters(F, C);
  if (!A.Success)
    return Fail("allocation failed: " + A.Diag.toString());
  if (FaultInject && A.Outcome != AllocOutcome::Degraded)
    return Fail(std::string("injected fault not degraded (outcome ") +
                allocOutcomeName(A.Outcome) + ")");
  if (P.Chaos && !FaultInject && A.Outcome == AllocOutcome::Degraded &&
      A.Diag.code() != StatusCode::DeadlineExceeded &&
      A.Diag.code() != StatusCode::MemoryBudgetExceeded)
    return Fail("chaos degrade does not name the exhausted resource: " +
                A.Diag.toString());
  if (!FaultInject && !P.Chaos && A.Outcome != AllocOutcome::Converged)
    return Fail(std::string("unexpected ") + allocOutcomeName(A.Outcome) +
                ": " + A.Diag.toString());

  // Check 1: independent audit (always, even when the allocator already
  // ran it — this is the oracle the tool vouches for).
  auto AuditErrors = auditAllocation(F, A);
  if (!AuditErrors.empty())
    return Fail("audit: " + AuditErrors.front());

  // Check 2: the rewritten function is still verifier-clean.
  auto PostErrors = verifyFunction(M, F);
  if (!PostErrors.empty())
    return Fail("post-allocation verifier: " + PostErrors.front());

  // Check 3: differential oracle against the golden run.
  MemoryImage Mem(M);
  ExecutionResult R = Sim.runAllocated(F, A, Mem, SO);
  std::string Diff = compareRuns(M, Golden, GoldenMem, R, Mem);
  if (!Diff.empty())
    return Fail("allocated run vs golden: " + Diff);
  if (Cap) {
    Cap->Mem = std::move(Mem);
    Cap->R = R;
    if (!A.Stats.Passes.empty())
      Cap->Pass1Spills = A.Stats.Passes.front().SpilledNames;
    Cap->Printed = printFunction(M, F);
    Cap->ColorOf = A.ColorOf;
    for (VRegId V = 0; V < F.numVRegs(); ++V)
      Cap->RangeNames.push_back(F.vreg(V).Name);
  }
  return true;
}

/// The paper's two guarantees between the plain chaitin and briggs runs
/// of one seed (a no-op unless \p Allocs holds both): Briggs's pass-1
/// spills are a subset of Chaitin's, and when Chaitin's pass 1 spills
/// nothing the two print the same function with the same coloring.
/// A failure names the seed, the register files and the offending range.
bool checkPaperGuarantees(const FuzzCase &FC,
                          const std::vector<AllocatorChoice> &Allocs,
                          const std::vector<CapturedRun> &Runs,
                          std::string &Failure) {
  const CapturedRun *Chaitin = nullptr, *Briggs = nullptr;
  for (size_t I = 0; I < Allocs.size(); ++I) {
    const AllocatorChoice &AC = Allocs[I];
    if (AC.B != Backend::GraphColoring)
      continue;
    if (AC.H == Heuristic::Chaitin)
      Chaitin = &Runs[I];
    else if (AC.H == Heuristic::Briggs)
      Briggs = &Runs[I];
  }
  if (!Chaitin || !Briggs)
    return true;
  auto Fail = [&](std::string Msg) {
    Failure = "seed " + std::to_string(FC.Seed) +
              " chaitin vs briggs int=" + std::to_string(FC.IntK) +
              " flt=" + std::to_string(FC.FltK) + ": " + std::move(Msg);
    return false;
  };
  for (const std::string &Name : Briggs->Pass1Spills)
    if (std::find(Chaitin->Pass1Spills.begin(), Chaitin->Pass1Spills.end(),
                  Name) == Chaitin->Pass1Spills.end())
      return Fail("briggs spilled '" + Name +
                  "' in pass 1 but chaitin did not");
  if (!Chaitin->Pass1Spills.empty())
    return true;
  if (Chaitin->ColorOf.size() != Briggs->ColorOf.size())
    return Fail("chaitin spilled nothing in pass 1, but the colorings "
                "cover different ranges");
  for (size_t V = 0; V < Chaitin->ColorOf.size(); ++V)
    if (Chaitin->ColorOf[V] != Briggs->ColorOf[V])
      return Fail("chaitin spilled nothing in pass 1, but range '" +
                  Chaitin->RangeNames[V] + "' got color " +
                  std::to_string(Chaitin->ColorOf[V]) + " from chaitin and " +
                  std::to_string(Briggs->ColorOf[V]) + " from briggs");
  if (Chaitin->Printed != Briggs->Printed) {
    const std::string &Text = Chaitin->Printed;
    auto Diff = std::mismatch(Text.begin(), Text.end(),
                              Briggs->Printed.begin(), Briggs->Printed.end())
                    .first;
    size_t Pos = Diff - Text.begin();
    size_t At = Pos ? Text.rfind('\n', Pos - 1) : std::string::npos;
    At = At == std::string::npos ? 0 : At + 1; // start of the first bad line
    return Fail("chaitin spilled nothing in pass 1, but the printed "
                "functions differ at '" +
                Text.substr(At, Text.find('\n', At) - At) + "'");
  }
  return true;
}

/// Runs one seed through every allocator in \p Allocs, then compares
/// the allocated runs pairwise — each allocator is a differential
/// oracle for the others. Returns true when everything agrees;
/// otherwise \p Failure names the failing allocator or the disagreeing
/// pair.
bool runSeed(const FuzzCase &FC, const std::vector<AllocatorChoice> &Allocs,
             const RunPolicy &P, std::string &Failure,
             uint64_t *Trials = nullptr) {
  std::vector<CapturedRun> Runs(Allocs.size());
  for (size_t I = 0; I < Allocs.size(); ++I) {
    if (Trials)
      ++*Trials;
    if (!runOne(FC, Allocs[I], P, Failure, &Runs[I]))
      return false;
  }

  // Cross-allocator differential: every pair must agree on memory and
  // return values. (Each run already matched the virtual golden run, so
  // a disagreement here means the goldens diverged too — checking
  // pairwise keeps the oracle independent of that argument and names
  // the exact pair in the failure.) Every run's module has the same
  // arrays, so one rebuilt copy names them.
  Module M;
  buildRandomProgram(M, FC.Seed, FC.Shape);
  for (size_t I = 0; I < Allocs.size(); ++I)
    for (size_t J = I + 1; J < Allocs.size(); ++J) {
      const CapturedRun &A = Runs[I], &B = Runs[J];
      std::string Diff = compareRuns(M, A.R, *A.Mem, B.R, *B.Mem);
      if (!Diff.empty()) {
        Failure = std::string(Allocs[I].name()) + " vs " + Allocs[J].name() +
                  " int=" + std::to_string(FC.IntK) +
                  " flt=" + std::to_string(FC.FltK) +
                  ": backends diverged: " + Diff;
        return false;
      }
    }
  // Chaos and fault injection may leave runs Degraded, outside the
  // guarantees' premise.
  if (P.Chaos || P.FaultInject)
    return true;
  return checkPaperGuarantees(FC, Allocs, Runs, Failure);
}

/// Service-mode oracle: replays one seed twice per allocator through a
/// single shared AllocationService. The first pass allocates cold (and
/// populates the content-addressed cache); the second must be served
/// from the cache and reproduce the cold run byte for byte — printed
/// rewritten module, color assignments, spill counts, everything. Warm
/// passes that miss the cache are themselves failures: a converged
/// allocation that does not memoize would silently disable the service.
bool runSeedService(ra::service::AllocationService &Svc, const FuzzCase &FC,
                    const std::vector<AllocatorChoice> &Allocs,
                    std::string &Failure, uint64_t *Trials = nullptr) {
  Module M;
  buildRandomProgram(M, FC.Seed, FC.Shape);
  const std::string Source = printModule(M);

  for (const AllocatorChoice &AC : Allocs) {
    auto Fail = [&](std::string Msg) {
      Failure = std::string(AC.name()) + " int=" + std::to_string(FC.IntK) +
                " flt=" + std::to_string(FC.FltK) +
                " (service): " + std::move(Msg);
      return false;
    };

    ra::service::ServiceRequest Req;
    Req.Source = Source;
    Req.Optimize = FC.Optimize;
    Req.Alloc.B = AC.B;
    Req.Alloc.H = AC.H;
    Req.Alloc.Machine = MachineInfo(FC.IntK, FC.FltK);
    Req.Alloc.MaxPasses = 64;
    Req.Alloc.Audit = true;

    if (Trials)
      *Trials += 2;
    ra::service::ServiceReply Cold = Svc.run(Req);
    if (!Cold.S.ok())
      return Fail("cold request failed: " + Cold.S.toString());
    ra::service::ServiceReply Warm = Svc.run(Req);
    if (!Warm.S.ok())
      return Fail("warm request failed: " + Warm.S.toString());

    for (unsigned I = 0; I < Cold.M->numFunctions(); ++I) {
      const AllocationResult &CA = Cold.MA.Functions[I];
      const AllocationResult &WA = Warm.MA.Functions[I];
      if (!CA.Success)
        return Fail("cold allocation failed: " + CA.Diag.toString());
      if (CA.Outcome != AllocOutcome::Converged)
        return Fail(std::string("cold allocation ") +
                    allocOutcomeName(CA.Outcome) + ": " +
                    CA.Diag.toString());
      if (!Warm.CacheHit[I])
        return Fail("warm pass missed the cache for @" +
                    Cold.M->function(I).name());
      if (CA.ColorOf != WA.ColorOf)
        return Fail("warm color assignments diverged from cold for @" +
                    Cold.M->function(I).name());
      if (CA.Stats.totalSpills() != WA.Stats.totalSpills() ||
          CA.Stats.numPasses() != WA.Stats.numPasses())
        return Fail("warm allocation stats diverged from cold for @" +
                    Cold.M->function(I).name());
    }
    // The decisive check: the rewritten modules print byte-identically.
    std::string ColdText = printModule(*Cold.M);
    std::string WarmText = printModule(*Warm.M);
    if (ColdText != WarmText)
      return Fail("warm rewritten module diverged from cold");
  }
  return true;
}

/// Greedily shrinks the program shape while the failure reproduces.
/// Each knob is walked down one notch at a time; one sweep that changes
/// nothing ends the loop, so this terminates. Minimization replays the
/// whole allocator matrix, so a cross-backend divergence shrinks just
/// like a single-allocator failure.
FuzzCase minimizeCase(FuzzCase FC,
                      const std::vector<AllocatorChoice> &Allocs,
                      const RunPolicy &P, std::string &Failure) {
  auto StillFails = [&](const FuzzCase &Candidate) {
    std::string Msg;
    if (runSeed(Candidate, Allocs, P, Msg))
      return false;
    Failure = Msg; // keep the message in sync with the shrunk case
    return true;
  };

  bool Shrunk = true;
  while (Shrunk) {
    Shrunk = false;
    auto TryKnob = [&](auto Get, auto Set, uint64_t Floor) {
      while (uint64_t(Get(FC)) > Floor) {
        FuzzCase Candidate = FC;
        Set(Candidate, Get(FC) - 1);
        if (!StillFails(Candidate))
          break;
        FC = Candidate;
        Shrunk = true;
      }
    };
    TryKnob([](const FuzzCase &C) { return C.Shape.Regions; },
            [](FuzzCase &C, uint64_t V) { C.Shape.Regions = unsigned(V); },
            1);
    TryKnob([](const FuzzCase &C) { return C.Shape.MaxDepth; },
            [](FuzzCase &C, uint64_t V) { C.Shape.MaxDepth = unsigned(V); },
            1);
    TryKnob(
        [](const FuzzCase &C) { return C.Shape.StatementsPerBlock; },
        [](FuzzCase &C, uint64_t V) {
          C.Shape.StatementsPerBlock = unsigned(V);
        },
        1);
    TryKnob([](const FuzzCase &C) { return C.Shape.IntVars; },
            [](FuzzCase &C, uint64_t V) { C.Shape.IntVars = unsigned(V); },
            1);
    TryKnob([](const FuzzCase &C) { return C.Shape.FloatVars; },
            [](FuzzCase &C, uint64_t V) { C.Shape.FloatVars = unsigned(V); },
            1);
    TryKnob([](const FuzzCase &C) { return C.Shape.ArraySize; },
            [](FuzzCase &C, uint64_t V) { C.Shape.ArraySize = unsigned(V); },
            2);
    TryKnob([](const FuzzCase &C) { return uint64_t(C.Shape.LoopTrip); },
            [](FuzzCase &C, uint64_t V) { C.Shape.LoopTrip = int64_t(V); },
            1);
  }
  return FC;
}

/// Writes a parseable .ral reproducer with the full recipe in comments.
/// The failure line names the failing allocator (or disagreeing pair),
/// and one replay line per allocator under test re-runs the matrix.
bool dumpReproducer(const std::string &Path, const FuzzCase &FC,
                    const std::vector<AllocatorChoice> &Allocs,
                    const RunPolicy &P, const std::string &Failure) {
  Module M;
  buildRandomProgram(M, FC.Seed, FC.Shape);
  std::ofstream Out(Path);
  if (!Out)
    return false;
  Out << "; ralfuzz reproducer (minimized)\n"
      << "; failure: " << Failure << "\n"
      << "; seed=" << FC.Seed << " int=" << FC.IntK << " flt=" << FC.FltK
      << " optimize=" << (FC.Optimize ? 1 : 0) << "\n";
  if (P.Chaos)
    Out << "; chaos: deadline_s=" << P.Plan.DeadlineSeconds
        << " mem_bytes=" << P.Plan.MemoryBudgetBytes
        << " slow_us=" << P.Plan.SlowPhaseMicros
        << " spike=" << (P.Plan.GraphMemorySpike ? 1 : 0) << "\n";
  Out
      << "; shape: depth=" << FC.Shape.MaxDepth
      << " stmts=" << FC.Shape.StatementsPerBlock
      << " regions=" << FC.Shape.Regions << " ivars=" << FC.Shape.IntVars
      << " fvars=" << FC.Shape.FloatVars
      << " arrays=" << FC.Shape.ArraySize
      << " trip=" << FC.Shape.LoopTrip << "\n";
  for (const AllocatorChoice &AC : Allocs)
    Out << "; replay: rac " << Path << " --allocator " << AC.name()
        << " --int " << FC.IntK << " --flt " << FC.FltK << " --run"
        << (FC.Optimize ? "" : " --no-opt") << "\n";
  Out << printModule(M);
  return bool(Out);
}

/// Writes one corpus case: the same reproducer format dumpReproducer
/// emits (seed + shape + replay line in comments, then the module), so
/// corpus files double as documentation of how to re-derive them.
bool dumpCorpusFile(const std::string &Path, const FuzzCase &FC) {
  Module M;
  buildRandomProgram(M, FC.Seed, FC.Shape);
  std::ofstream Out(Path);
  if (!Out)
    return false;
  Out << "; ralfuzz corpus case\n"
      << "; seed=" << FC.Seed << " int=" << FC.IntK << " flt=" << FC.FltK
      << " optimize=" << (FC.Optimize ? 1 : 0) << "\n"
      << "; shape: depth=" << FC.Shape.MaxDepth
      << " stmts=" << FC.Shape.StatementsPerBlock
      << " regions=" << FC.Shape.Regions << " ivars=" << FC.Shape.IntVars
      << " fvars=" << FC.Shape.FloatVars
      << " arrays=" << FC.Shape.ArraySize
      << " trip=" << FC.Shape.LoopTrip << "\n"
      << "; replay: rac " << Path << " --int " << FC.IntK << " --flt "
      << FC.FltK << " --run --audit"
      << (FC.Optimize ? "" : " --no-opt") << "\n"
      << printModule(M);
  return bool(Out);
}

void usage(const char *Prog) {
  std::fprintf(stderr,
               "usage: %s [--seeds N] [--start S] [--allocators A,B,...]\n"
               "       [--fault-inject] [--chaos]\n"
               "       [--service] [--seed-timeout-ms N]\n"
               "       [--max-instructions N]\n"
               "       [--out FILE] [--emit-corpus DIR] [--quiet]\n"
               "allocators: chaitin, briggs, matula-beck, linear-scan\n"
               "            (default chaitin,briggs,linear-scan)\n",
               Prog);
}

/// Parses a comma-separated allocator list; returns false (after
/// printing a diagnostic) on any unknown name.
bool parseAllocatorList(const std::string &List,
                        std::vector<AllocatorChoice> &Allocs) {
  Allocs.clear();
  size_t Pos = 0;
  while (Pos <= List.size()) {
    size_t Comma = List.find(',', Pos);
    if (Comma == std::string::npos)
      Comma = List.size();
    std::string Name = List.substr(Pos, Comma - Pos);
    AllocatorChoice AC;
    if (!parseAllocatorName(Name, AC.B, AC.H)) {
      std::fprintf(stderr,
                   "ralfuzz: unknown allocator '%s' (expected chaitin, "
                   "briggs, matula-beck, or linear-scan)\n",
                   Name.c_str());
      return false;
    }
    Allocs.push_back(AC);
    Pos = Comma + 1;
  }
  return !Allocs.empty();
}

} // namespace

int main(int Argc, char **Argv) {
  uint64_t Seeds = 1000, Start = 0;
  bool FaultInject = false, Chaos = false, Quiet = false;
  bool Service = false;
  uint64_t SeedTimeoutMs = 0, MaxInstructions = 1ull << 32;
  std::string OutPath = "ralfuzz-repro.ral";
  std::string CorpusDir;
  std::vector<AllocatorChoice> Allocs = defaultAllocators();

  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    Status Bad;
    if (Arg == "--seeds" && I + 1 < Argc) {
      Bad = parseDecimalFlag(Arg, Argv[++I], Seeds);
    } else if (Arg == "--start" && I + 1 < Argc) {
      Bad = parseDecimalFlag(Arg, Argv[++I], Start);
    } else if (Arg == "--allocators" && I + 1 < Argc) {
      if (!parseAllocatorList(Argv[++I], Allocs)) {
        usage(Argv[0]);
        return 1;
      }
    } else if (Arg == "--fault-inject") {
      FaultInject = true;
    } else if (Arg == "--chaos") {
      Chaos = true;
    } else if (Arg == "--service") {
      Service = true;
    } else if (Arg == "--seed-timeout-ms" && I + 1 < Argc) {
      Bad = parseDecimalFlag(Arg, Argv[++I], SeedTimeoutMs);
    } else if (Arg == "--max-instructions" && I + 1 < Argc) {
      Bad = parseDecimalFlag(Arg, Argv[++I], MaxInstructions);
    } else if (Arg == "--out" && I + 1 < Argc) {
      OutPath = Argv[++I];
    } else if (Arg == "--emit-corpus" && I + 1 < Argc) {
      CorpusDir = Argv[++I];
    } else if (Arg == "--quiet") {
      Quiet = true;
    } else if (Arg == "--help" || Arg == "-h") {
      usage(Argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "unknown option '%s'\n", Arg.c_str());
      usage(Argv[0]);
      return 1;
    }
    if (!Bad.ok()) {
      std::fprintf(stderr, "ralfuzz: %s\n", Bad.toString().c_str());
      return 1;
    }
  }

  if (!CorpusDir.empty()) {
    for (uint64_t S = Start; S < Start + Seeds; ++S) {
      FuzzCase FC = deriveCase(S);
      char Name[32];
      std::snprintf(Name, sizeof(Name), "seed%04llu.ral",
                    (unsigned long long)S);
      std::string Path = CorpusDir + "/" + Name;
      if (!dumpCorpusFile(Path, FC)) {
        std::fprintf(stderr, "ralfuzz: %s: io-error: cannot write corpus"
                             " file\n", Path.c_str());
        return 1;
      }
    }
    std::printf("ralfuzz: %llu corpus cases written to %s\n",
                (unsigned long long)Seeds, CorpusDir.c_str());
    return 0;
  }

  if (Service && (FaultInject || Chaos)) {
    std::fprintf(stderr,
                 "ralfuzz: --service cannot combine with --fault-inject "
                 "or --chaos (injected faults and governed outcomes are "
                 "deliberately uncacheable, so the warm-hit oracle would "
                 "always fail)\n");
    return 1;
  }
  // One service (one cache, one pool) across the whole campaign — the
  // same sharing a long-lived racd would exhibit.
  std::optional<ra::service::AllocationService> Svc;
  if (Service)
    Svc.emplace();

  uint64_t Trials = 0, Skipped = 0;

  for (uint64_t S = Start; S < Start + Seeds; ++S) {
    FuzzCase FC = deriveCase(S);
    RunPolicy P;
    P.FaultInject = FaultInject;
    P.Chaos = Chaos;
    if (Chaos)
      P.Plan = deriveChaos(S);
    P.MaxInstructions = MaxInstructions;

    std::string Failure;
    bool Ok;
    if (Service) {
      Ok = runSeedService(*Svc, FC, Allocs, Failure, &Trials);
    } else if (SeedTimeoutMs > 0) {
      // Watchdog: the seed runs on its own thread; a seed that blows
      // the wall-clock budget is reported and skipped — the campaign
      // keeps going instead of hanging. The stuck thread is abandoned
      // detached (it owns its state via shared_ptr, so nothing
      // dangles); a real hang still shows up in the skip report.
      struct SeedState {
        std::string Failure;
        bool Ok = false;
        uint64_t Trials = 0;
        std::promise<void> Done;
      };
      auto State = std::make_shared<SeedState>();
      std::future<void> Fut = State->Done.get_future();
      std::thread([State, FC, Allocs, P] {
        State->Ok = runSeed(FC, Allocs, P, State->Failure, &State->Trials);
        State->Done.set_value();
      }).detach();
      if (Fut.wait_for(std::chrono::milliseconds(SeedTimeoutMs)) !=
          std::future_status::ready) {
        ++Skipped;
        std::fprintf(stderr,
                     "seed %llu SKIPPED: still running after "
                     "--seed-timeout-ms %llu (possible hang; abandoned "
                     "detached)\n",
                     (unsigned long long)S,
                     (unsigned long long)SeedTimeoutMs);
        continue;
      }
      Trials += State->Trials;
      Ok = State->Ok;
      Failure = State->Failure;
    } else {
      Ok = runSeed(FC, Allocs, P, Failure, &Trials);
    }

    if (!Ok) {
      std::fprintf(stderr, "seed %llu FAILED: %s\n",
                   (unsigned long long)S, Failure.c_str());
      if (Service) {
        // Cold-vs-warm divergences depend on shared-cache state, which
        // the shape-shrinking minimizer cannot replay faithfully — the
        // seed and allocator in the failure line are the reproducer.
        return 1;
      }
      std::fprintf(stderr, "minimizing...\n");
      FuzzCase Min = minimizeCase(FC, Allocs, P, Failure);
      if (dumpReproducer(OutPath, Min, Allocs, P, Failure))
        std::fprintf(stderr, "reproducer written to %s\n", OutPath.c_str());
      else
        std::fprintf(stderr, "cannot write reproducer %s\n",
                     OutPath.c_str());
      std::fprintf(stderr,
                   "minimized: seed=%llu shape depth=%u stmts=%u "
                   "regions=%u ivars=%u fvars=%u arrays=%u trip=%lld\n",
                   (unsigned long long)Min.Seed, Min.Shape.MaxDepth,
                   Min.Shape.StatementsPerBlock, Min.Shape.Regions,
                   Min.Shape.IntVars, Min.Shape.FloatVars,
                   Min.Shape.ArraySize, (long long)Min.Shape.LoopTrip);
      std::fprintf(stderr, "failure after minimization: %s\n",
                   Failure.c_str());
      return 1;
    }
    if (!Quiet && (S + 1 - Start) % 500 == 0)
      std::fprintf(stderr, "%llu/%llu seeds clean\n",
                   (unsigned long long)(S + 1 - Start),
                   (unsigned long long)Seeds);
  }

  std::string Names;
  for (const AllocatorChoice &AC : Allocs) {
    if (!Names.empty())
      Names += ",";
    Names += AC.name();
  }
  if (Skipped > 0)
    std::fprintf(stderr,
                 "ralfuzz: %llu seed%s skipped by the --seed-timeout-ms "
                 "watchdog\n",
                 (unsigned long long)Skipped, Skipped == 1 ? "" : "s");
  std::printf("ralfuzz: %llu seeds x %zu allocators, %llu allocations "
              "clean (audited%s%s; %s)\n",
              (unsigned long long)Seeds, Allocs.size(),
              (unsigned long long)Trials,
              FaultInject ? ", fault-injected" : "",
              Chaos ? ", chaos" : "", Names.c_str());
  if (Service) {
    ra::service::CacheStats CS = Svc->cacheStats();
    std::printf("ralfuzz: service cache %llu hits / %llu misses, every "
                "warm replay byte-identical\n",
                (unsigned long long)CS.Hits,
                (unsigned long long)CS.Misses);
  }
  return 0;
}
