//===- service/Protocol.h - racd wire protocol -----------------*- C++ -*-===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The framing and message encoding racd speaks over stdin/stdout and
/// Unix-domain sockets.
///
/// Framing is length-prefixed and transport-agnostic:
///
///     u32-LE payload-length | u8 type | payload bytes
///
/// The length covers the payload only (not itself, not the type byte)
/// and is capped at MaxFrameBytes — an oversized or malformed frame is
/// a protocol error that ends the connection with a structured Status,
/// never a crash or an unbounded buffer.
///
/// Payloads are built from three primitives: u8, u32/u64 (LE), and
/// length-prefixed strings (u32 length + bytes). The per-request
/// allocation configuration travels as one readable "k=v ..." text line
/// (WireConfig) so captures stay debuggable by eye.
///
/// Message flow: a client sends AllocRequest (config + module source)
/// and receives AllocReply (module-level status + one structured entry
/// per function: outcome, cache hit, diagnostics, spill/pass counts,
/// optionally the printed allocated function). StatsRequest/StatsReply
/// expose the cache counters; Shutdown asks the daemon to stop and is
/// acknowledged with ShutdownAck before the socket closes. A request
/// the server cannot decode earns an Error frame carrying the rendered
/// Status.
///
//===----------------------------------------------------------------------===//

#ifndef RA_SERVICE_PROTOCOL_H
#define RA_SERVICE_PROTOCOL_H

#include "regalloc/Allocator.h"
#include "service/AllocCache.h"
#include "support/Status.h"

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace ra {
namespace service {

enum class MsgType : uint8_t {
  AllocRequest = 1,
  AllocReply = 2,
  StatsRequest = 3,
  StatsReply = 4,
  Shutdown = 5,
  ShutdownAck = 6,
  Error = 7,
};

/// Printable message-type name ("alloc-request", ...).
const char *msgTypeName(MsgType T);

/// Hard ceiling on one frame's payload. Large enough for any corpus
/// module with printed replies; small enough that a corrupted length
/// prefix cannot OOM the peer.
constexpr uint32_t MaxFrameBytes = 64u << 20;

/// Appends one framed message to \p Out.
void appendFrame(std::string &Out, MsgType T, const std::string &Payload);

/// Incremental frame decoder: feed() transport bytes in any chunking,
/// pop() complete frames.
class FrameReader {
public:
  void feed(const char *Data, size_t Len) { Buf.append(Data, Len); }

  /// Result of one pop attempt.
  enum class Result { Frame, NeedMore, Malformed };

  /// Pops the next complete frame into \p T / \p Payload. Malformed
  /// framing (length over MaxFrameBytes) fills \p Err and poisons the
  /// reader — a byte stream with a broken length prefix has no
  /// recoverable frame boundary.
  Result pop(MsgType &T, std::string &Payload, Status &Err);

private:
  std::string Buf;
  bool Poisoned = false;
};

/// The per-request allocation configuration, rendered as one
/// space-separated "k=v" text line. The option table in Protocol.cpp
/// gives each wire key its rac/racc spellings, value kind and member.
/// Unknown keys are a parse error — a client speaking a newer dialect
/// must fail loudly, not silently lose a knob — and so is any value
/// outside its kind (Protocol.cpp lists the kinds' rules).
struct WireConfig {
  std::string Allocator = "briggs"; ///< rac --allocator spellings.
  unsigned IntK = 16, FltK = 8;
  bool Optimize = true;
  bool Remat = false;
  bool Audit = true;
  bool UseCache = true;
  bool Print = false; ///< Return printed allocated functions.
  double DeadlineMs = 0;
  uint64_t MemBudgetMb = 0;
  /// The largest MemBudgetMb whose byte count (<< 20) fits in 64 bits.
  static constexpr uint64_t MaxMemBudgetMb = UINT64_MAX >> 20;

  std::string render() const;
  Status parse(const std::string &Text);

  /// Parses one command-line flag's value \p Val as wire key \p Key,
  /// under parse()'s rules; a value holding a space is rejected rather
  /// than read as several tokens. A bad value is an invalid-input
  /// Status naming \p Flag.
  Status parseFlag(const std::string &Flag, const std::string &Key,
                   const std::string &Val);

  /// Reads Argv[I] when it spells a table option, advancing \p I past
  /// its value, and returns parseFlag's Status. Returns nullopt, leaving
  /// \p I alone, for any other argument or a value flag at the end.
  std::optional<Status> parseArg(int Argc, const char *const *Argv, int &I);

  /// The usage lines of the shared flags.
  static std::string flagUsage();

  /// Resolves into the allocator configuration (validating Allocator).
  /// Only wire-carried fields are set. rac and racd both build their
  /// AllocatorConfig through this call.
  Status apply(AllocatorConfig &C) const;
};

/// AllocRequest payload: config line + module source text.
struct AllocRequestMsg {
  WireConfig Config;
  std::string Source;

  std::string encode() const;
  Status decode(const std::string &Payload);
};

/// One function's slice of an AllocReply.
struct FunctionReplyMsg {
  std::string Name;
  uint8_t Outcome = 0; ///< AllocOutcome as u8.
  uint8_t Success = 0;
  uint8_t CacheHit = 0;
  std::string Diag; ///< Rendered Status ("ok" when clean).
  uint32_t Passes = 0;
  uint32_t Spills = 0;
  uint32_t LiveRanges = 0;
  std::string Printed; ///< Allocated function text when requested.
};

/// AllocReply payload: module-level status + per-function entries.
struct AllocReplyMsg {
  uint8_t Ok = 0;   ///< Module parsed, verified, every function usable.
  std::string Diag; ///< Module-level failure rendering ("ok" if none).
  std::vector<FunctionReplyMsg> Functions;

  std::string encode() const;
  Status decode(const std::string &Payload);
};

/// StatsReply payload: the daemon's cache counters + requests served.
struct StatsReplyMsg {
  CacheStats Stats;
  uint64_t Requests = 0;
  uint32_t PoolWidth = 0;

  std::string encode() const;
  Status decode(const std::string &Payload);
};

} // namespace service
} // namespace ra

#endif // RA_SERVICE_PROTOCOL_H
