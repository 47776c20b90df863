//===- support/Budget.h - Cooperative deadline + memory budget -*- C++ -*-===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A cooperative resource-governance token: a monotonic-clock deadline
/// plus a byte-accounting counter with a high-water mark.
///
/// The allocation pipeline never kills threads or unwinds mid-phase.
/// Instead, every long-running loop polls `checkpoint()` — an amortized
/// check that touches the clock only every 64th call — and backs out at
/// the next IR-safe boundary when the token has tripped. Memory is
/// governed before it is committed: a phase *estimates* its dominant
/// allocation (the interference graphs' node arrays, and the raw edge
/// pairs slab by slab as the build reserves them) and asks
/// `tryCharge()` before allocating, so a would-be OOM is refused into
/// the degradation ladder before the bytes exist.
///
/// Tripping is *latched*: once either resource is exhausted the token
/// stays exhausted (every subsequent checkpoint answers instantly)
/// until `rearm()` opens a fresh window for the next ladder rung.
/// Cumulative telemetry — checkpoints served, peak bytes — survives a
/// rearm so the final AllocationResult can report totals.
///
/// One token governs one function's allocation, which runs on one
/// thread, so the token is plain state: it is never shared between
/// threads.
///
/// A default-constructed Budget is *ungoverned*: no deadline, no byte
/// limit, checkpoints never trip. Pipeline code takes `Budget *` and
/// treats nullptr as ungoverned too, which keeps the default
/// (governance off) a single pointer test away from byte-identical
/// behavior.
///
//===----------------------------------------------------------------------===//

#ifndef RA_SUPPORT_BUDGET_H
#define RA_SUPPORT_BUDGET_H

#include "support/Status.h"

#include <algorithm>
#include <chrono>
#include <cstdint>

namespace ra {

class Budget {
public:
  using Clock = std::chrono::steady_clock;

  /// Ungoverned: no limits, `checkpoint()` never trips.
  Budget() = default;

  /// Arms the token. Zero disables the corresponding limit.
  ///
  /// \p DeadlineSeconds wall-clock allowance from *now* (monotonic).
  /// \p MemoryBytes ceiling for bytes charged at once.
  void arm(double DeadlineSeconds, uint64_t MemoryBytes) {
    DeadlineLimit = DeadlineSeconds;
    ByteLimit = MemoryBytes;
    Start = Clock::now();
    Exhausted = nullptr;
  }

  /// Opens a fresh deadline window from *now* and clears the exhausted
  /// latch — the ladder calls this before retrying a function on a
  /// cheaper rung. Byte accounting (current charge, peak, checkpoint
  /// totals) carries over: the retry still answers for memory already
  /// held, and telemetry stays cumulative.
  void rearm() {
    Start = Clock::now();
    Exhausted = nullptr;
  }

  /// True when either limit is armed. Ungoverned tokens skip straight
  /// through every check.
  bool governed() const { return DeadlineLimit > 0 || ByteLimit > 0; }

  /// The cooperative poll. Counts every call; reads the clock only on
  /// every 64th (amortizing the syscall), except that a latched trip
  /// answers immediately. Returns true while within budget.
  bool checkpoint() {
    uint64_t N = Checkpoints++;
    if (Exhausted)
      return false;
    if (DeadlineLimit <= 0)
      return true;
    if ((N & ClockMask) != 0)
      return true;
    return checkDeadlineNow();
  }

  /// Forced deadline check — phase boundaries call this so a trip is
  /// noticed even when the amortized counter hasn't wrapped. Returns
  /// true when the token has tripped (either resource).
  bool expired() {
    ++Checkpoints;
    if (Exhausted)
      return true;
    if (DeadlineLimit <= 0)
      return false;
    return !checkDeadlineNow();
  }

  /// True when a limit has already been latched (no clock read).
  bool exhausted() const { return Exhausted != nullptr; }

  /// Attempts to account \p Bytes against the byte limit. On success
  /// the charge is held until `release()`; the high-water mark tracks
  /// the most bytes held at once. A refusal charges nothing and
  /// latches the token as memory-exhausted (recording the refused
  /// request so the diagnostic can name it). Ungoverned tokens always
  /// grant and still track the peak for telemetry.
  bool tryCharge(uint64_t Bytes) {
    if (ByteLimit > 0 && Current + Bytes > ByteLimit) {
      RefusedBytes = Bytes;
      Exhausted = MemoryExhaustedTag;
      return false;
    }
    Current += Bytes;
    PeakBytes = std::max(PeakBytes, Current);
    return true;
  }

  /// Returns \p Bytes previously granted by `tryCharge()`.
  void release(uint64_t Bytes) { Current -= Bytes; }

  uint64_t checkpoints() const { return Checkpoints; }
  uint64_t peakBytes() const { return PeakBytes; }
  uint64_t currentBytes() const { return Current; }

  /// Renders the latched trip as a Status naming the exhausted resource
  /// and both limit and actual, e.g.
  ///   deadline-exceeded: deadline of 0.005s exceeded after 0.007s
  ///   memory-budget-exceeded: memory budget of 1048576 bytes refused a
  ///   2097152-byte charge (1000000 bytes held)
  /// Returns Ok when nothing has tripped.
  Status status() const;

private:
  /// Clock reads happen on every (N & ClockMask)==0 checkpoint.
  static constexpr uint64_t ClockMask = 63;

  /// Latch tags — distinguish which resource tripped without another
  /// field. Any non-null value means exhausted.
  static const char *const DeadlineExhaustedTag;
  static const char *const MemoryExhaustedTag;

  bool checkDeadlineNow() {
    double Elapsed =
        std::chrono::duration<double>(Clock::now() - Start).count();
    if (Elapsed <= DeadlineLimit)
      return true;
    TrippedAfter = Elapsed;
    Exhausted = DeadlineExhaustedTag;
    return false;
  }

  double DeadlineLimit = 0;  ///< Seconds; 0 = no deadline.
  uint64_t ByteLimit = 0;    ///< Bytes; 0 = no memory limit.
  Clock::time_point Start{}; ///< Window start (arm/rearm time).

  const char *Exhausted = nullptr; ///< Latch tag; null while within budget.
  uint64_t Checkpoints = 0;
  uint64_t Current = 0;
  uint64_t PeakBytes = 0;
  uint64_t RefusedBytes = 0;
  double TrippedAfter = 0;
};

/// RAII charge against a Budget: charges on construction (when granted)
/// and releases on destruction. `granted()` is true when the charge was
/// accepted — or when there was no governor at all.
class ScopedCharge {
public:
  ScopedCharge(Budget *B, uint64_t Bytes)
      : Governor(B), Bytes(Bytes),
        Granted(!B || B->tryCharge(Bytes)) {}
  ~ScopedCharge() {
    if (Governor && Granted)
      Governor->release(Bytes);
  }
  ScopedCharge(const ScopedCharge &) = delete;
  ScopedCharge &operator=(const ScopedCharge &) = delete;

  bool granted() const { return Granted; }

  /// Charges \p More bytes under this scope, released with the rest.
  /// Returns false, charging nothing, when the budget refuses (or when
  /// the scope's own charge was refused).
  bool grow(uint64_t More) {
    if (!Granted)
      return false;
    if (Governor && !Governor->tryCharge(More))
      return false;
    Bytes += More;
    return true;
  }

private:
  Budget *Governor;
  uint64_t Bytes;
  bool Granted;
};

} // namespace ra

#endif // RA_SUPPORT_BUDGET_H
