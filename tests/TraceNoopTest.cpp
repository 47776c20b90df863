//===- tests/TraceNoopTest.cpp - compile-time-off tracing guard -----------===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// This translation unit is compiled with RA_NO_TRACING (see
// tests/CMakeLists.txt), the configuration instrumented code ships in
// when tracing is compiled out. The overhead guard: every RA_TRACE_*
// macro must expand to a no-op that does not even evaluate its
// arguments — asserted by bumping a counter from the argument
// expressions and demanding it stays at zero *while a session is
// actively collecting*. RA_TRACE_PHASE still times its scope into its
// stats field, but is held to the same rule for everything else.
//
//===----------------------------------------------------------------------===//

#ifndef RA_NO_TRACING
#error "TraceNoopTest.cpp must be compiled with RA_NO_TRACING"
#endif

#include "support/Trace.h"

#include <gtest/gtest.h>

namespace {

int SideEffects = 0;

// [[maybe_unused]] because compiling this TU proves the point: with
// RA_NO_TRACING the macros never even reference these functions.
[[maybe_unused]] const char *touchName() {
  ++SideEffects;
  return "Phase";
}

[[maybe_unused]] double touchValue() {
  ++SideEffects;
  return 1.0;
}

TEST(TraceNoop, MacrosDoNotEvaluateArguments) {
  // A live session makes the check strict: even the runtime-on path
  // must be unreachable from a TU that compiled tracing out.
  ra::trace::beginSession();
  SideEffects = 0;
  {
    RA_TRACE_SPAN(touchName(), "test",
                  [] { return std::string("built"); });
    RA_TRACE_CONTEXT(std::string(touchName()));
    RA_TRACE_COUNTER(touchName(), touchValue());
    RA_TRACE_INSTANT(touchName(), "test");
  }
  EXPECT_EQ(SideEffects, 0)
      << "RA_NO_TRACING macro expansion evaluated an argument";

  ra::trace::SessionLog Log = ra::trace::endSession();
  EXPECT_TRUE(Log.Events.empty())
      << "RA_NO_TRACING instrumentation recorded an event";
  EXPECT_EQ(Log.counter("Phase"), 0.0);
}

// A timed phase is the one macro that does work with tracing compiled
// out: the allocator's Figure 7 fields (PassRecord::BuildSeconds and
// friends) still need their times. It must fill its field, and still
// evaluate no name or detail argument and record nothing.
TEST(TraceNoop, PhaseFillsItsFieldAndRecordsNothing) {
  ra::trace::beginSession();
  SideEffects = 0;
  double Seconds = 0;
  {
    RA_TRACE_PHASE(Seconds, touchName(), "test", [] {
      ++SideEffects;
      return std::string("built");
    });
    volatile unsigned Sink = 0;
    for (unsigned I = 0; I < 100000; ++I)
      Sink = Sink + I;
  }
  EXPECT_GT(Seconds, 0.0) << "RA_NO_TRACING phase left its field empty";
  EXPECT_EQ(SideEffects, 0)
      << "RA_NO_TRACING phase evaluated its name or detail";

  ra::trace::SessionLog Log = ra::trace::endSession();
  EXPECT_TRUE(Log.Events.empty())
      << "RA_NO_TRACING phase recorded an event";
}

// The allocation cache's hot-path counters are instrumented with the
// same macros (AllocCache.cpp emits cache.hits / cache.misses /
// cache.evictions / cache.bytes / cache.refusals on every lookup and
// insert). This pins the shape those call sites rely on: with tracing
// compiled out, a cache operation's telemetry costs literally nothing —
// not even the delta computation.
TEST(TraceNoop, CacheCounterShapedCallsCostNothing) {
  ra::trace::beginSession();
  SideEffects = 0;
  RA_TRACE_COUNTER("cache.hits", touchValue());
  RA_TRACE_COUNTER("cache.misses", touchValue());
  RA_TRACE_COUNTER("cache.evictions", touchValue());
  RA_TRACE_COUNTER("cache.refusals", touchValue());
  RA_TRACE_COUNTER("cache.bytes", -touchValue()); // eviction's negative delta
  EXPECT_EQ(SideEffects, 0)
      << "RA_NO_TRACING cache counter evaluated its delta";

  ra::trace::SessionLog Log = ra::trace::endSession();
  EXPECT_TRUE(Log.Events.empty());
  EXPECT_EQ(Log.counter("cache.hits"), 0.0);
  EXPECT_EQ(Log.counter("cache.bytes"), 0.0);
}

} // namespace
