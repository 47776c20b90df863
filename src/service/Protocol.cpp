//===- service/Protocol.cpp - racd wire protocol --------------------------===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "service/Protocol.h"

#include <algorithm>

using namespace ra;
using namespace ra::service;

const char *ra::service::msgTypeName(MsgType T) {
  switch (T) {
  case MsgType::AllocRequest: return "alloc-request";
  case MsgType::AllocReply:   return "alloc-reply";
  case MsgType::StatsRequest: return "stats-request";
  case MsgType::StatsReply:   return "stats-reply";
  case MsgType::Shutdown:     return "shutdown";
  case MsgType::ShutdownAck:  return "shutdown-ack";
  case MsgType::Error:        return "error";
  }
  return "unknown";
}

//===--------------------------------------------------------------------===//
// Framing.
//===--------------------------------------------------------------------===//

void ra::service::appendFrame(std::string &Out, MsgType T,
                              const std::string &Payload) {
  uint32_t Len = uint32_t(Payload.size());
  char Hdr[5];
  Hdr[0] = char(Len & 0xFF);
  Hdr[1] = char((Len >> 8) & 0xFF);
  Hdr[2] = char((Len >> 16) & 0xFF);
  Hdr[3] = char((Len >> 24) & 0xFF);
  Hdr[4] = char(uint8_t(T));
  Out.append(Hdr, 5);
  Out += Payload;
}

FrameReader::Result FrameReader::pop(MsgType &T, std::string &Payload,
                                     Status &Err) {
  if (Poisoned) {
    Err = Status::error(StatusCode::InvalidInput,
                        "frame stream already poisoned by a malformed "
                        "length prefix");
    return Result::Malformed;
  }
  if (Buf.size() < 5)
    return Result::NeedMore;
  uint32_t Len = uint32_t(uint8_t(Buf[0])) |
                 uint32_t(uint8_t(Buf[1])) << 8 |
                 uint32_t(uint8_t(Buf[2])) << 16 |
                 uint32_t(uint8_t(Buf[3])) << 24;
  if (Len > MaxFrameBytes) {
    Poisoned = true;
    Err = Status::error(StatusCode::InvalidInput,
                        "frame length " + std::to_string(Len) +
                            " exceeds the " +
                            std::to_string(MaxFrameBytes) +
                            "-byte frame ceiling");
    return Result::Malformed;
  }
  if (Buf.size() < size_t(5) + Len)
    return Result::NeedMore;
  T = MsgType(uint8_t(Buf[4]));
  Payload.assign(Buf, 5, Len);
  Buf.erase(0, size_t(5) + Len);
  return Result::Frame;
}

//===--------------------------------------------------------------------===//
// Payload primitives.
//===--------------------------------------------------------------------===//

namespace {

void putU8(std::string &Out, uint8_t V) { Out.push_back(char(V)); }

void putU32(std::string &Out, uint32_t V) {
  for (int I = 0; I < 4; ++I)
    Out.push_back(char((V >> (8 * I)) & 0xFF));
}

void putU64(std::string &Out, uint64_t V) {
  for (int I = 0; I < 8; ++I)
    Out.push_back(char((V >> (8 * I)) & 0xFF));
}

void putStr(std::string &Out, const std::string &S) {
  putU32(Out, uint32_t(S.size()));
  Out += S;
}

/// Bounds-checked payload reader. Every get* returns false past the
/// end; decode() turns that into one truncated-payload Status.
struct Reader {
  const std::string &P;
  size_t Off = 0;

  bool getU8(uint8_t &V) {
    if (Off + 1 > P.size())
      return false;
    V = uint8_t(P[Off++]);
    return true;
  }

  bool getU32(uint32_t &V) {
    if (Off + 4 > P.size())
      return false;
    V = 0;
    for (int I = 0; I < 4; ++I)
      V |= uint32_t(uint8_t(P[Off + I])) << (8 * I);
    Off += 4;
    return true;
  }

  bool getU64(uint64_t &V) {
    if (Off + 8 > P.size())
      return false;
    V = 0;
    for (int I = 0; I < 8; ++I)
      V |= uint64_t(uint8_t(P[Off + I])) << (8 * I);
    Off += 8;
    return true;
  }

  bool getStr(std::string &S) {
    uint32_t Len;
    if (!getU32(Len) || Off + Len > P.size())
      return false;
    S.assign(P, Off, Len);
    Off += Len;
    return true;
  }

  bool done() const { return Off == P.size(); }
};

Status truncated(const char *What) {
  return Status::error(StatusCode::InvalidInput,
                       std::string("truncated or overlong ") + What +
                           " payload");
}

} // namespace

//===--------------------------------------------------------------------===//
// Messages.
//===--------------------------------------------------------------------===//

std::string AllocRequestMsg::encode() const {
  std::string Out;
  putStr(Out, Config.render());
  putStr(Out, Source);
  return Out;
}

Status AllocRequestMsg::decode(const std::string &Payload) {
  Reader R{Payload};
  std::string ConfigText;
  if (!R.getStr(ConfigText) || !R.getStr(Source) || !R.done())
    return truncated("alloc-request");
  return Config.parse(ConfigText);
}

std::string AllocReplyMsg::encode() const {
  std::string Out;
  putU8(Out, Ok);
  putStr(Out, Diag);
  putU32(Out, uint32_t(Functions.size()));
  for (const FunctionReplyMsg &F : Functions) {
    putStr(Out, F.Name);
    putU8(Out, F.Outcome);
    putU8(Out, F.Success);
    putU8(Out, F.CacheHit);
    putStr(Out, F.Diag);
    putU32(Out, F.Passes);
    putU32(Out, F.Spills);
    putU32(Out, F.LiveRanges);
    putStr(Out, F.Printed);
  }
  return Out;
}

Status AllocReplyMsg::decode(const std::string &Payload) {
  Reader R{Payload};
  uint32_t N;
  if (!R.getU8(Ok) || !R.getStr(Diag) || !R.getU32(N))
    return truncated("alloc-reply");
  Functions.clear();
  Functions.reserve(std::min<uint32_t>(N, 1u << 16));
  for (uint32_t I = 0; I < N; ++I) {
    FunctionReplyMsg F;
    if (!R.getStr(F.Name) || !R.getU8(F.Outcome) || !R.getU8(F.Success) ||
        !R.getU8(F.CacheHit) || !R.getStr(F.Diag) || !R.getU32(F.Passes) ||
        !R.getU32(F.Spills) || !R.getU32(F.LiveRanges) ||
        !R.getStr(F.Printed))
      return truncated("alloc-reply");
    Functions.push_back(std::move(F));
  }
  if (!R.done())
    return truncated("alloc-reply");
  return Status();
}

std::string StatsReplyMsg::encode() const {
  std::string Out;
  putU64(Out, Stats.Hits);
  putU64(Out, Stats.Misses);
  putU64(Out, Stats.Insertions);
  putU64(Out, Stats.Evictions);
  putU64(Out, Stats.Refusals);
  putU64(Out, Stats.Entries);
  putU64(Out, Stats.BytesInUse);
  putU64(Out, Stats.PeakBytes);
  putU64(Out, Requests);
  putU32(Out, PoolWidth);
  return Out;
}

Status StatsReplyMsg::decode(const std::string &Payload) {
  Reader R{Payload};
  if (!R.getU64(Stats.Hits) || !R.getU64(Stats.Misses) ||
      !R.getU64(Stats.Insertions) || !R.getU64(Stats.Evictions) ||
      !R.getU64(Stats.Refusals) || !R.getU64(Stats.Entries) ||
      !R.getU64(Stats.BytesInUse) || !R.getU64(Stats.PeakBytes) ||
      !R.getU64(Requests) || !R.getU32(PoolWidth) || !R.done())
    return truncated("stats-reply");
  return Status();
}
