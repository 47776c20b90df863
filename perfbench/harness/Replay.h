//===- perfbench/harness/Replay.h - Traced layer replay ------*- C++ -*-===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run's replay: each distinct input goes through the
/// layers' public functions one call at a time (parse, verify,
/// optimize, CFG/loops, the Figure 4 loop phase by phase, audit,
/// print), with a span around every call. Spans are kept in memory and
/// written out as a Chrome trace when the run ends.
///
/// Per input, the spans of the request path sit under one root span.
/// After the root, allocateRegisters runs as one call on a fresh copy
/// and its output must match. On service and fig5 the cache calls racd
/// makes around it are timed too (canonicalFunctionKey + contentHash,
/// AllocCache::lookup miss, insert, lookup hit). BENCHMARK.json leaves
/// the service workload out (the host cannot hold it steady), so fig5
/// also stands in for the linearscan and service layers: each input is
/// sent cold and warm to an AllocationService with the cache on, and
/// allocated by the linear-scan backend. Mega runs neither.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_REPLAY_H
#define PERFBENCH_REPLAY_H

#include "Bench.h"

#include "service/AllocCache.h"

namespace perfbench {

/// In-memory span recorder. A span's request id is the input index.
class SpanLog {
public:
  struct Span {
    const char *Name;
    uint32_t Request;
    bool Root;
    double StartUs, DurUs;
  };

  SpanLog() : Origin(Clock::now()) {}

  /// Runs \p F inside a span named \p Name.
  template <typename Fn>
  decltype(auto) time(const char *Name, uint32_t Request, Fn &&F) {
    const Clock::time_point T0 = Clock::now();
    struct Closer {
      SpanLog &L;
      const char *Name;
      uint32_t Request;
      Clock::time_point T0;
      ~Closer() { L.close(Name, Request, T0, Clock::now()); }
    } C{*this, Name, Request, T0};
    return F();
  }

  /// Opens / closes the root span of one request.
  void openRoot(uint32_t Request);
  void closeRoot();

  const std::vector<Span> &spans() const { return Spans; }

  /// Duration of the span recorded last, in ms.
  double lastMs() const { return Spans.back().DurUs / 1000; }

  /// Writes the spans as a Chrome trace (chrome://tracing, Perfetto).
  bool writeChromeTrace(const std::string &Path,
                        const std::string &HostStamp) const;

  /// Sum of span durations by name since \p FromSpan, in ms.
  std::map<std::string, double> sumsByName(size_t FromSpan) const;

  /// Root-span time and the part of it covered by child spans, in ms,
  /// over spans recorded since \p FromSpan.
  void coverage(size_t FromSpan, double &RootMs, double &CoveredMs) const;

private:
  void close(const char *Name, uint32_t Request, Clock::time_point T0,
             Clock::time_point T1);

  Clock::time_point Origin;
  Clock::time_point RootStart;
  uint32_t RootRequest = 0;
  std::vector<Span> Spans;
};

/// What the replay must reproduce for each input: the end-to-end run's
/// printed output and first-pass spills.
struct Expected {
  std::string Printed;
  unsigned FirstPassSpills = 0;
};

struct ReplayReport {
  /// Per-layer metric values (times are medians over repetitions).
  MetricSink Layers;
  unsigned Repetitions = 0;
  /// Per-input request-path time with tracing (root spans) and the part
  /// of it the layer spans cover; from the median repetition.
  std::vector<double> TracedMs;
  double CoveredMs = 0, RootMs = 0;
  /// fig5 only: per input, the latency of a cold and of a warm request
  /// to an AllocationService with the cache on, and that cache's
  /// counters after them; from the median repetition.
  std::vector<double> HitMs, MissMs;
  ra::service::CacheStats Cache;
  unsigned Inconsistent = 0;
  std::string FirstInconsistency;
};

/// Replays every input of \p Inputs, repeating the whole replay up to
/// three times while under \p BudgetSeconds. On the service workload
/// the request path prints the allocated function (as racd replies)
/// instead of the whole module.
ReplayReport replayInputs(const std::vector<Input> &Inputs,
                          const std::vector<Expected> &Want, WorkloadKind Kind,
                          double BudgetSeconds, SpanLog &Log);

} // namespace perfbench

#endif // PERFBENCH_REPLAY_H
