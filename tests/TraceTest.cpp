//===- tests/TraceTest.cpp - tracing/metrics subsystem tests --------------===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// The tracing subsystem's contracts: sessions collect spans / counters /
// instants from any thread; with no session active nothing is recorded
// and detail lambdas are never invoked; the normalized event log of an
// allocation is bit-identical at any worker count; and the golden files
// under tests/golden/ pin the normalized trace, the Chrome JSON shape
// (volatile fields masked), and the per-range metrics CSV for a canned
// input. Regenerate goldens with RA_UPDATE_GOLDEN=1.
//
//===----------------------------------------------------------------------===//

#include "ir/IRParser.h"
#include "regalloc/Allocator.h"
#include "support/Status.h"
#include "support/ThreadPool.h"
#include "support/Trace.h"
#include "workloads/MegaKernel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <thread>

using namespace ra;

namespace {

std::string testsDir() { return RA_TESTS_DIR; }

std::string readFile(const std::string &Path, bool &Ok) {
  std::ifstream In(Path);
  Ok = bool(In);
  std::stringstream Buffer;
  Buffer << In.rdbuf();
  return Buffer.str();
}

/// Compares \p Actual against the golden file \p Name; with
/// RA_UPDATE_GOLDEN set, rewrites the golden instead.
void compareGolden(const std::string &Name, const std::string &Actual) {
  std::string Path = testsDir() + "/golden/" + Name;
  if (std::getenv("RA_UPDATE_GOLDEN")) {
    std::ofstream Out(Path);
    ASSERT_TRUE(Out) << "cannot write " << Path;
    Out << Actual;
    return;
  }
  bool Ok = false;
  std::string Expected = readFile(Path, Ok);
  ASSERT_TRUE(Ok) << Path
                  << " missing — regenerate with RA_UPDATE_GOLDEN=1";
  EXPECT_EQ(Expected, Actual) << "golden mismatch for " << Name
                              << " — regenerate with RA_UPDATE_GOLDEN=1 "
                                 "if the change is intended";
}

/// The normalizing comparator for machine-readable dumps: masks the
/// volatile fields (timestamps, durations, thread ids) with '_' so only
/// the deterministic structure is compared.
std::string maskVolatile(std::string S) {
  for (const char *Key : {"\"ts\":", "\"dur\":", "\"tid\":"}) {
    size_t Pos = 0;
    while ((Pos = S.find(Key, Pos)) != std::string::npos) {
      Pos += std::strlen(Key);
      size_t End = Pos;
      while (End < S.size() &&
             (std::isdigit(static_cast<unsigned char>(S[End])) ||
              S[End] == '.'))
        ++End;
      S.replace(Pos, End - Pos, "_");
      ++Pos;
    }
  }
  return S;
}

/// Parses the canned golden input and allocates it under a session,
/// serially when \p Jobs is 1 and on a pool of \p Jobs workers
/// otherwise, returning the collected log (and the metrics CSV when
/// requested).
trace::SessionLog tracedAllocation(unsigned Jobs,
                                   std::string *MetricsCsv = nullptr) {
  bool Ok = false;
  std::string Input = readFile(testsDir() + "/golden/trace_input.ral", Ok);
  EXPECT_TRUE(Ok) << "missing tests/golden/trace_input.ral";

  Module M;
  std::string Error;
  EXPECT_TRUE(parseModule(Input, M, Error)) << Error;

  AllocatorConfig C;
  C.Machine = MachineInfo(4, 2); // tight: the canned loop must spill
  C.Audit = true; // pin the AllocationAudit span independent of RA_AUDIT
  C.CollectMetrics = MetricsCsv != nullptr;

  std::optional<ThreadPool> Pool;
  if (Jobs > 1)
    Pool.emplace(Jobs);
  trace::beginSession();
  ModuleAllocationResult MA = allocateModule(M, C, Pool ? &*Pool : nullptr);
  trace::SessionLog Log = trace::endSession();

  for (const AllocationResult &A : MA.Functions)
    EXPECT_TRUE(A.Success) << A.Diag.toString();
  if (MetricsCsv) {
    *MetricsCsv = metricsCsvHeader();
    for (unsigned I = 0; I < M.numFunctions(); ++I)
      appendMetricsCsv(*MetricsCsv, M.function(I).name(),
                       MA.Functions[I].Metrics);
  }
  return Log;
}

//===--------------------------------------------------------------------===//
// Core collection semantics.
//===--------------------------------------------------------------------===//

TEST(Trace, SessionCollectsSpansCountersAndInstants) {
  trace::beginSession();
  {
    RA_TRACE_SPAN("Phase", "test", [] { return std::string("k=1"); });
    RA_TRACE_COUNTER("test.bumps", 2);
    RA_TRACE_COUNTER("test.bumps", 3);
    RA_TRACE_INSTANT("Marker", "test");
  }
  trace::SessionLog Log = trace::endSession();

  ASSERT_EQ(Log.Events.size(), 4u);
  EXPECT_EQ(Log.counter("test.bumps"), 5.0);
  EXPECT_EQ(Log.counter("never.bumped"), 0.0);

  unsigned Spans = 0, Counters = 0, Instants = 0;
  for (const trace::Event &E : Log.Events) {
    switch (E.Kind) {
    case trace::EventKind::Span:
      ++Spans;
      EXPECT_STREQ(E.Name, "Phase");
      EXPECT_EQ(E.Detail, "k=1");
      break;
    case trace::EventKind::Counter:
      ++Counters;
      break;
    case trace::EventKind::Instant:
      ++Instants;
      break;
    case trace::EventKind::ThreadName:
      break;
    }
  }
  EXPECT_EQ(Spans, 1u);
  EXPECT_EQ(Counters, 2u);
  EXPECT_EQ(Instants, 1u);
}

TEST(Trace, NoSessionRecordsNothingAndSkipsDetailLambdas) {
  ASSERT_FALSE(trace::enabled());
  bool DetailBuilt = false;
  {
    RA_TRACE_SPAN("Phase", "test", [&] {
      DetailBuilt = true;
      return std::string("expensive");
    });
    RA_TRACE_COUNTER("test.off", 1);
  }
  EXPECT_FALSE(DetailBuilt) << "detail lambda ran with tracing off";

  trace::beginSession();
  trace::SessionLog Log = trace::endSession();
  EXPECT_TRUE(Log.Events.empty())
      << "events recorded outside a session leaked into the next one";
}

TEST(Trace, SecondSessionStartsEmpty) {
  trace::beginSession();
  RA_TRACE_COUNTER("test.stale", 7);
  (void)trace::endSession();

  trace::beginSession();
  trace::SessionLog Log = trace::endSession();
  EXPECT_TRUE(Log.Events.empty());
  EXPECT_EQ(Log.counter("test.stale"), 0.0);
}

TEST(Trace, CountersAggregateAcrossThreads) {
  trace::beginSession();
  std::vector<std::thread> Threads;
  for (int T = 0; T < 4; ++T)
    Threads.emplace_back([] {
      for (int I = 0; I < 100; ++I)
        RA_TRACE_COUNTER("test.parallel", 1);
    });
  for (std::thread &T : Threads)
    T.join();
  trace::SessionLog Log = trace::endSession();
  EXPECT_EQ(Log.counter("test.parallel"), 400.0);
  EXPECT_EQ(Log.Events.size(), 400u);
}

TEST(Trace, ScopedContextNestsAndRestores) {
  trace::beginSession();
  RA_TRACE_INSTANT("Before", "test");
  {
    trace::ScopedContext Outer(std::string("@outer"));
    RA_TRACE_INSTANT("Outer", "test");
    {
      trace::ScopedContext Inner(std::string("@outer/inner"));
      RA_TRACE_INSTANT("Inner", "test");
    }
    RA_TRACE_INSTANT("OuterAgain", "test");
  }
  RA_TRACE_INSTANT("After", "test");
  trace::SessionLog Log = trace::endSession();
  std::vector<std::pair<std::string, std::string>> Got;
  for (const trace::Event &E : Log.Events)
    Got.emplace_back(E.Name, E.Ctx);
  EXPECT_EQ(Got, (std::vector<std::pair<std::string, std::string>>{
                     {"Before", ""},
                     {"Outer", "@outer"},
                     {"Inner", "@outer/inner"},
                     {"OuterAgain", "@outer"},
                     {"After", ""}}));
}

/// Spins long enough for a phase to measure more than zero.
void busyWork() {
  volatile unsigned Sink = 0;
  for (unsigned I = 0; I < 100000; ++I)
    Sink = Sink + I;
}

/// A seconds field in whole nanoseconds (exact: a field is a sum of a
/// few durations of at most seconds, far inside double's precision).
uint64_t asNs(double Seconds) { return uint64_t(std::llround(Seconds * 1e9)); }

TEST(Trace, PhaseFillsItsFieldWithItsSpanDuration) {
  double Seconds = 0;
  trace::beginSession();
  {
    RA_TRACE_PHASE(Seconds, "Phase", "test",
                   [] { return std::string("k=1"); });
    busyWork();
  }
  trace::SessionLog Log = trace::endSession();
  ASSERT_EQ(Log.Events.size(), 1u) << "a phase records exactly one span";
  EXPECT_EQ(Log.Events[0].Kind, trace::EventKind::Span);
  EXPECT_EQ(Log.Events[0].Detail, "k=1");
  EXPECT_GT(Seconds, 0.0);
  EXPECT_EQ(asNs(Seconds), Log.Events[0].DurNs);

  // No session: the field still fills and the detail is never built.
  bool DetailBuilt = false;
  double Off = 0;
  {
    RA_TRACE_PHASE(Off, "Phase", "test", [&] {
      DetailBuilt = true;
      return std::string();
    });
    busyWork();
  }
  EXPECT_GT(Off, 0.0);
  EXPECT_FALSE(DetailBuilt) << "detail lambda ran with tracing off";
}

/// Total duration of the spans named \p Name that lie inside \p Pass,
/// on any thread: the class helper's spans count toward their pass.
uint64_t spanNsWithin(const trace::SessionLog &Log, const trace::Event &Pass,
                      const char *Name) {
  uint64_t Ns = 0;
  for (const trace::Event &E : Log.Events)
    if (E.Kind == trace::EventKind::Span && !std::strcmp(E.Name, Name) &&
        E.StartNs >= Pass.StartNs &&
        E.StartNs + E.DurNs <= Pass.StartNs + Pass.DurNs)
      Ns += E.DurNs;
  return Ns;
}

/// Allocates mini.rand under \p B, traced, and checks every PassRecord
/// seconds field against the spans its phase scope recorded in that
/// pass, to the nanosecond. mini.rand spills, and both its class graphs
/// are large; every span comes from the function's own context.
void expectPhaseFieldsMatchSpans(Backend B, const char *Cat,
                                 const char *SelectSpan) {
  Module M;
  Function &F = megaKernelTestFamily()[2].Build(M);
  AllocatorConfig C;
  C.B = B;
  trace::beginSession();
  AllocationResult A = allocateRegisters(F, C);
  trace::SessionLog Log = trace::endSession();
  ASSERT_EQ(A.Outcome, AllocOutcome::Converged) << A.Diag.toString();
  ASSERT_GE(A.Stats.numPasses(), 2u) << "mini.rand must spill";

  std::vector<const trace::Event *> Passes;
  for (const trace::Event &E : Log.Events) {
    if (E.Kind == trace::EventKind::Span && !std::strcmp(E.Name, "Pass") &&
        !std::strcmp(E.Category, Cat))
      Passes.push_back(&E);
    EXPECT_EQ(E.Ctx, "@" + F.name()) << E.Name;
  }
  ASSERT_EQ(Passes.size(), A.Stats.numPasses());
  for (unsigned P = 0; P < Passes.size(); ++P) {
    const PassRecord &Rec = A.Stats.Passes[P];
    const trace::Event &Pass = *Passes[P];
    ASSERT_EQ(Pass.Detail, "pass=" + std::to_string(P));
    EXPECT_GT(Rec.BuildSeconds, 0.0) << "pass " << P;
    EXPECT_EQ(asNs(Rec.BuildSeconds), spanNsWithin(Log, Pass, "Build"))
        << "pass " << P;
    EXPECT_EQ(asNs(Rec.SimplifySeconds), spanNsWithin(Log, Pass, "Simplify"))
        << "pass " << P;
    EXPECT_EQ(asNs(Rec.SelectSeconds), spanNsWithin(Log, Pass, SelectSpan))
        << "pass " << P;
    EXPECT_EQ(asNs(Rec.SpillSeconds),
              spanNsWithin(Log, Pass, "SpillInserter"))
        << "pass " << P;
    EXPECT_EQ(Rec.SpillSeconds > 0, P + 1 < Passes.size()) << "pass " << P;
  }
}

TEST(Trace, ColoringPhaseFieldsAreTheirSpansToTheNanosecond) {
  expectPhaseFieldsMatchSpans(Backend::GraphColoring, "regalloc", "Select");
}

TEST(Trace, LinearScanPhaseFieldsAreTheirSpansToTheNanosecond) {
  expectPhaseFieldsMatchSpans(Backend::LinearScan, "linearscan",
                              "IntervalWalk");
}

//===--------------------------------------------------------------------===//
// Pipeline instrumentation: every phase shows up, and the normalized
// log is invariant under the worker count.
//===--------------------------------------------------------------------===//

TEST(Trace, PipelineEmitsAllPhaseSpans) {
  trace::SessionLog Log = tracedAllocation(/*Jobs=*/1);
  auto HasSpan = [&](const char *Name) {
    for (const trace::Event &E : Log.Events)
      if (E.Kind == trace::EventKind::Span && !std::strcmp(E.Name, Name))
        return true;
    return false;
  };
  for (const char *Phase :
       {"BuildGraph", "Coalesce", "SpillCost", "Simplify", "Select",
        "SpillInserter", "AllocationAudit", "AllocateFunction", "Build",
        "Pass", "Renumber", "ModuleAlloc"})
    EXPECT_TRUE(HasSpan(Phase)) << "missing span " << Phase;
  EXPECT_GT(Log.counter("coloring.spilled"), 0.0)
      << "canned input must spill at int=4";
}

TEST(Trace, NormalizedLogIdenticalAtAnyJobCount) {
  std::string Serial = trace::normalizedLog(tracedAllocation(1));
  std::string Parallel4 = trace::normalizedLog(tracedAllocation(4));
  std::string Parallel7 = trace::normalizedLog(tracedAllocation(7));
  EXPECT_EQ(Serial, Parallel4);
  EXPECT_EQ(Serial, Parallel7);
}

TEST(Trace, EventsCarryFunctionContext) {
  trace::SessionLog Log = tracedAllocation(/*Jobs=*/2);
  bool SawHot = false, SawTiny = false;
  for (const trace::Event &E : Log.Events) {
    if (E.Ctx == "@hot")
      SawHot = true;
    if (E.Ctx == "@tiny")
      SawTiny = true;
  }
  EXPECT_TRUE(SawHot);
  EXPECT_TRUE(SawTiny);
}

//===--------------------------------------------------------------------===//
// Golden files.
//===--------------------------------------------------------------------===//

TEST(TraceGolden, NormalizedLogMatchesGolden) {
  compareGolden("trace_normalized.golden",
                trace::normalizedLog(tracedAllocation(/*Jobs=*/1)));
}

TEST(TraceGolden, ChromeJsonMatchesGoldenModuloVolatileFields) {
  std::string Json = trace::toChromeJson(tracedAllocation(/*Jobs=*/1));
  EXPECT_NE(Json.find("\"traceEvents\":["), std::string::npos);
  compareGolden("trace_chrome.golden", maskVolatile(Json));
}

TEST(TraceGolden, MetricsCsvMatchesGolden) {
  std::string Csv;
  (void)tracedAllocation(/*Jobs=*/1, &Csv);
  compareGolden("metrics.golden", Csv);
}

//===--------------------------------------------------------------------===//
// JSON writer error paths.
//===--------------------------------------------------------------------===//

TEST(Trace, WriteChromeJsonRoundTripsThroughDisk) {
  trace::beginSession();
  RA_TRACE_INSTANT("Only", "test");
  trace::SessionLog Log = trace::endSession();

  std::string Path = ::testing::TempDir() + "trace_roundtrip.json";
  Status S = trace::writeChromeJson(Path, Log);
  ASSERT_TRUE(S.ok()) << S.toString();
  bool Ok = false;
  std::string OnDisk = readFile(Path, Ok);
  ASSERT_TRUE(Ok);
  EXPECT_EQ(OnDisk, trace::toChromeJson(Log));
  std::remove(Path.c_str());
}

} // namespace
