//===- support/Trace.h - Phase tracing and counters ------------*- C++ -*-===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Zero-overhead-when-off tracing for the allocator pipeline: scoped
/// phase spans, monotonic counters, and instant markers, collected into
/// lock-free per-thread event streams and exported as Chrome
/// `chrome://tracing` / Perfetto trace JSON (TraceJson.cpp).
///
/// Layers of "off":
///
///  * Compile time — a translation unit built with \c RA_NO_TRACING
///    defined sees every RA_TRACE_* macro expand to `((void)0)`; macro
///    arguments are not even evaluated (asserted by TraceNoopTest).
///    RA_TRACE_PHASE is the exception: it still times its scope into
///    its stats field, but evaluates no name or detail and records
///    nothing.
///  * Run time — with no session active the macros cost one relaxed
///    atomic load (a phase adds its two clock reads); no event is
///    allocated or recorded, and span detail lambdas are never invoked.
///
/// A session is begun/ended from a single coordinating thread
/// (\c beginSession / \c endSession); any thread may record while one
/// is active. Each recording thread appends to its own stream, so the
/// only synchronization is a one-time stream registration per thread
/// per session.
///
/// Events carry a *context* label — set with RA_TRACE_CONTEXT, e.g.
/// "@dgefa" while allocating that function — which is what makes the
/// collected log comparable across worker counts: allocation work is
/// grouped per context, and \c normalizedLog renders the volatile-free
/// view golden and determinism tests compare.
///
//===----------------------------------------------------------------------===//

#ifndef RA_SUPPORT_TRACE_H
#define RA_SUPPORT_TRACE_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace ra {
class Status; // support/Status.h; only needed by the JSON writer.
namespace trace {

/// What one recorded event is.
enum class EventKind : uint8_t {
  Span,       ///< Completed phase span ("ph":"X"): start + duration.
  Instant,    ///< Point-in-time marker ("ph":"i").
  Counter,    ///< Monotonic counter sample ("ph":"C").
  ThreadName, ///< Metadata: names the recording thread ("ph":"M").
};

/// One trace event. Name/Category must be string literals (they are
/// stored unowned); Detail and Ctx are owned copies.
struct Event {
  EventKind Kind = EventKind::Instant;
  const char *Name = "";
  const char *Category = "";
  uint64_t StartNs = 0; ///< Nanoseconds since session begin.
  uint64_t DurNs = 0;   ///< Span only.
  double Value = 0;     ///< Counter only.
  uint32_t Tid = 0;     ///< Stream id (stable within a session).
  std::string Detail;   ///< Deterministic key=value extras ("pass=0").
  std::string Ctx;      ///< Context label at record time ("@fn").
};

/// Everything one session collected: events merged stream-by-stream in
/// registration order, plus counter totals aggregated by name.
struct SessionLog {
  std::vector<Event> Events;
  std::map<std::string, double> CounterTotals;

  /// Total of counter \p Name over the session (0 when never bumped).
  double counter(const std::string &Name) const {
    auto It = CounterTotals.find(Name);
    return It == CounterTotals.end() ? 0 : It->second;
  }
};

/// The one clock behind every timestamp, span and phase field.
using Clock = std::chrono::steady_clock;

namespace detail {
extern std::atomic<bool> Enabled;
/// Nanoseconds from the current session's start to \p T.
uint64_t sessionNs(Clock::time_point T);
inline uint64_t nowNs() { return sessionNs(Clock::now()); }
void record(Event E);
const std::string &threadContext();
void setThreadContext(std::string Ctx);
} // namespace detail

/// True while a session is collecting. The macros' fast path.
inline bool enabled() {
  return detail::Enabled.load(std::memory_order_relaxed);
}

/// Starts collecting; discards anything from a previous session.
void beginSession();

/// Stops collecting and returns everything recorded since beginSession.
SessionLog endSession();

/// Bumps monotonic counter \p Name (a literal) by \p Delta. No-op when
/// no session is active.
inline void counter(const char *Name, double Delta) {
  if (!enabled())
    return;
  Event E;
  E.Kind = EventKind::Counter;
  E.Name = Name;
  E.Category = "counter";
  E.StartNs = detail::nowNs();
  E.Value = Delta;
  detail::record(std::move(E));
}

/// Records an instant marker. No-op when no session is active.
inline void instant(const char *Name, const char *Category,
                    std::string Detail = {}) {
  if (!enabled())
    return;
  Event E;
  E.Kind = EventKind::Instant;
  E.Name = Name;
  E.Category = Category;
  E.StartNs = detail::nowNs();
  E.Detail = std::move(Detail);
  detail::record(std::move(E));
}

/// Names the calling thread in trace viewers ("pool-worker-3").
void setCurrentThreadName(const std::string &Name);

/// RAII phase span. It reads the clock once when it opens and once when
/// it closes. While a session is active it records one completed-span
/// event with exactly that start and duration; given a \p Seconds field
/// it also adds the duration to it, session or not, so a stats field and
/// its span are one measurement. The optional detail functor is only
/// invoked while tracing, so building the detail string costs nothing
/// when off; a span with neither a session nor a field reads no clock.
class Span {
public:
  Span(double *Seconds, const char *Name, const char *Category)
      : Span(Seconds, Name, Category, [] { return std::string(); }) {}

  template <typename DetailFn,
            typename = decltype(std::declval<DetailFn>()())>
  Span(double *Seconds, const char *Name, const char *Category,
       DetailFn &&Detail)
      : Seconds(Seconds), Recording(enabled()) {
    if (Recording) {
      E.Kind = EventKind::Span;
      E.Name = Name;
      E.Category = Category;
      E.Detail = Detail();
    }
    if (Recording || Seconds)
      Start = Clock::now();
    if (Recording)
      E.StartNs = detail::sessionNs(Start);
  }

  /// Timing only: fills \p Seconds and never records. What RA_TRACE_PHASE
  /// declares under RA_NO_TRACING, where Figure 7 still needs the times.
  explicit Span(double &Seconds) : Seconds(&Seconds), Start(Clock::now()) {}

  ~Span() {
    if (!Recording && !Seconds)
      return;
    const uint64_t DurNs =
        uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                     Clock::now() - Start)
                     .count());
    if (Seconds)
      *Seconds += double(DurNs) / 1e9;
    if (Recording) {
      E.DurNs = DurNs;
      detail::record(std::move(E));
    }
  }

  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

private:
  double *Seconds = nullptr;
  bool Recording = false;
  Clock::time_point Start;
  Event E;
};

/// RAII context label: events recorded by this thread inside the scope
/// carry \p Ctx (e.g. "@dgefa" while that function allocates). Restores
/// the previous label on exit.
class ScopedContext {
public:
  explicit ScopedContext(std::string Ctx) {
    if (!enabled())
      return;
    Active = true;
    Saved = detail::threadContext();
    detail::setThreadContext(std::move(Ctx));
  }

  /// Lazy variant: the functor building the label only runs while a
  /// session is active.
  template <typename MakeCtxFn,
            typename = decltype(std::declval<MakeCtxFn>()())>
  explicit ScopedContext(MakeCtxFn &&MakeCtx) {
    if (!enabled())
      return;
    Active = true;
    Saved = detail::threadContext();
    detail::setThreadContext(MakeCtx());
  }

  ~ScopedContext() {
    if (Active)
      detail::setThreadContext(std::move(Saved));
  }

  ScopedContext(const ScopedContext &) = delete;
  ScopedContext &operator=(const ScopedContext &) = delete;

private:
  std::string Saved;
  bool Active = false;
};

//===--------------------------------------------------------------------===//
// Export (TraceJson.cpp).
//===--------------------------------------------------------------------===//

/// Renders \p Log as Chrome trace JSON (the "traceEvents" array format
/// chrome://tracing and Perfetto load directly). Timestamps are
/// microseconds with nanosecond fraction.
std::string toChromeJson(const SessionLog &Log);

/// Writes \c toChromeJson(Log) to \p Path. Returns Ok or an IoError
/// status naming the path — callers must surface this, never drop
/// events silently.
Status writeChromeJson(const std::string &Path, const SessionLog &Log);

/// Volatile-free rendering for golden-file and determinism tests:
/// events are grouped by context (sorted by context label), keeping
/// each group's record order, and only deterministic fields are printed
/// (kind, name, category, detail, counter value). Scheduling-category
/// events ("sched") and thread-name metadata are omitted — they vary
/// with worker count; everything else is identical at any --jobs.
std::string normalizedLog(const SessionLog &Log);

} // namespace trace
} // namespace ra

//===--------------------------------------------------------------------===//
// Instrumentation macros. These — not the classes above — are what the
// pipeline uses, so a build (or one translation unit) can compile the
// instrumentation away entirely with RA_NO_TRACING.
//===--------------------------------------------------------------------===//

#define RA_TRACE_CONCAT_IMPL(A, B) A##B
#define RA_TRACE_CONCAT(A, B) RA_TRACE_CONCAT_IMPL(A, B)

#ifndef RA_NO_TRACING

/// Scoped span: RA_TRACE_SPAN("Renumber", "regalloc") or with a lazy
/// detail functor RA_TRACE_SPAN("Pass", "regalloc", [&] { ... }).
#define RA_TRACE_SPAN(...)                                                   \
  ra::trace::Span RA_TRACE_CONCAT(RaTraceSpan, __LINE__)(nullptr, __VA_ARGS__)

/// Scoped timed phase: adds the scope's duration to the double lvalue
/// \p Seconds and records it as a span, RA_TRACE_PHASE(Rec.BuildSeconds,
/// "Build", "regalloc"). Close the scope before returning a struct that
/// holds the field: NRVO is not guaranteed, and a later write is lost.
#define RA_TRACE_PHASE(Seconds, ...)                                         \
  ra::trace::Span RA_TRACE_CONCAT(RaTracePhase, __LINE__)(&(Seconds),       \
                                                          __VA_ARGS__)

/// Scoped context label for everything this thread records inside.
#define RA_TRACE_CONTEXT(Ctx)                                                \
  ra::trace::ScopedContext RA_TRACE_CONCAT(RaTraceCtx, __LINE__)(Ctx)

#define RA_TRACE_COUNTER(Name, Delta) ra::trace::counter((Name), (Delta))
#define RA_TRACE_INSTANT(...) ra::trace::instant(__VA_ARGS__)

#else // RA_NO_TRACING: compile-time no-ops; arguments are not evaluated.
      // A phase still fills its field: the stats need the times.

#define RA_TRACE_SPAN(...) ((void)0)
#define RA_TRACE_PHASE(Seconds, ...)                                         \
  ra::trace::Span RA_TRACE_CONCAT(RaTracePhase, __LINE__)(Seconds)
#define RA_TRACE_CONTEXT(Ctx) ((void)0)
#define RA_TRACE_COUNTER(Name, Delta) ((void)0)
#define RA_TRACE_INSTANT(...) ((void)0)

#endif // RA_NO_TRACING

#endif // RA_SUPPORT_TRACE_H
