//===- support/Trace.cpp - Phase tracing and counters ---------------------===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// The collector: one event stream per recording thread, registered on
// the thread's first record of each session. Appends after registration
// take no lock — a stream is written by exactly one thread, and
// endSession only reads streams after flipping Enabled off, by which
// point the coordinating caller has joined or drained its workers (the
// module fan-out collects every future before it returns).
//
//===----------------------------------------------------------------------===//

#include "support/Trace.h"

#include <chrono>
#include <memory>
#include <mutex>

using namespace ra;
using namespace ra::trace;

namespace {

/// One thread's events for the current session.
struct Stream {
  std::vector<Event> Events;
  uint32_t Tid = 0;
};

struct Registry {
  std::mutex Mutex;
  std::vector<std::unique_ptr<Stream>> Streams; ///< Registration order.
  Clock::time_point SessionStart;
  uint64_t Generation = 0; ///< Bumped by beginSession.
};

Registry &registry() {
  static Registry R;
  return R;
}

/// Thread-local handle into the registry, revalidated per session.
struct LocalSlot {
  uint64_t Generation = ~uint64_t(0);
  Stream *S = nullptr;
  std::string Context;
};

LocalSlot &localSlot() {
  thread_local LocalSlot Slot;
  return Slot;
}

Stream &currentStream() {
  Registry &R = registry();
  LocalSlot &Slot = localSlot();
  if (Slot.Generation != R.Generation || !Slot.S) {
    std::lock_guard<std::mutex> Lock(R.Mutex);
    auto S = std::make_unique<Stream>();
    S->Tid = uint32_t(R.Streams.size());
    Slot.S = S.get();
    Slot.Generation = R.Generation;
    R.Streams.push_back(std::move(S));
  }
  return *Slot.S;
}

} // namespace

std::atomic<bool> ra::trace::detail::Enabled{false};

uint64_t ra::trace::detail::sessionNs(Clock::time_point T) {
  return uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                      T - registry().SessionStart)
                      .count());
}

void ra::trace::detail::record(Event E) {
  if (!enabled())
    return; // Session ended while this event was open: drop it.
  Stream &S = currentStream();
  E.Tid = S.Tid;
  if (E.Ctx.empty())
    E.Ctx = localSlot().Context;
  S.Events.push_back(std::move(E));
}

const std::string &ra::trace::detail::threadContext() {
  return localSlot().Context;
}

void ra::trace::detail::setThreadContext(std::string Ctx) {
  localSlot().Context = std::move(Ctx);
}

void ra::trace::beginSession() {
  Registry &R = registry();
  std::lock_guard<std::mutex> Lock(R.Mutex);
  R.Streams.clear();
  R.SessionStart = Clock::now();
  ++R.Generation;
  detail::Enabled.store(true, std::memory_order_release);
}

SessionLog ra::trace::endSession() {
  Registry &R = registry();
  detail::Enabled.store(false, std::memory_order_release);
  SessionLog Log;
  std::lock_guard<std::mutex> Lock(R.Mutex);
  for (const std::unique_ptr<Stream> &S : R.Streams)
    for (const Event &E : S->Events)
      Log.Events.push_back(E);
  R.Streams.clear();
  ++R.Generation; // Invalidate every thread's cached stream pointer.
  for (const Event &E : Log.Events)
    if (E.Kind == EventKind::Counter)
      Log.CounterTotals[E.Name] += E.Value;
  return Log;
}

void ra::trace::setCurrentThreadName(const std::string &Name) {
  if (!enabled())
    return;
  Event E;
  E.Kind = EventKind::ThreadName;
  E.Name = "thread_name";
  E.Category = "__metadata";
  E.Detail = Name;
  detail::record(std::move(E));
}
