//===- service/Protocol.cpp - racd wire protocol --------------------------===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "service/Protocol.h"

#include <charconv>
#include <cmath>
#include <cstring>

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
// WireConfig.
//===--------------------------------------------------------------------===//

std::string WireConfig::render() const {
  std::string Out = "allocator=" + Allocator;
  Out += " int=" + std::to_string(IntK);
  Out += " flt=" + std::to_string(FltK);
  Out += " opt=" + std::to_string(Optimize ? 1 : 0);
  Out += " remat=" + std::to_string(Remat ? 1 : 0);
  Out += " audit=" + std::to_string(Audit ? 1 : 0);
  Out += " cache=" + std::to_string(UseCache ? 1 : 0);
  Out += " print=" + std::to_string(Print ? 1 : 0);
  Out += " deadline_ms=" + std::to_string(DeadlineMs);
  Out += " mem_mb=" + std::to_string(MemBudgetMb);
  return Out;
}

Status WireConfig::parse(const std::string &Text) {
  size_t Pos = 0;
  while (Pos < Text.size()) {
    while (Pos < Text.size() && Text[Pos] == ' ')
      ++Pos;
    if (Pos >= Text.size())
      break;
    size_t End = Text.find(' ', Pos);
    if (End == std::string::npos)
      End = Text.size();
    std::string Token = Text.substr(Pos, End - Pos);
    Pos = End;
    size_t Eq = Token.find('=');
    if (Eq == std::string::npos)
      return Status::error(StatusCode::InvalidInput,
                           "config token '" + Token +
                               "' is not of the form key=value");
    std::string Key = Token.substr(0, Eq), Val = Token.substr(Eq + 1);
    auto Bad = [&](const std::string &Expected) {
      return Status::error(StatusCode::InvalidInput,
                           "config key '" + Key + "' expects " + Expected +
                               ", got '" + Val + "'");
    };
    // from_chars takes no sign, whitespace or trailing text, so a
    // value either is a whole decimal number in range or is rejected.
    auto Number = [&](auto &Out) {
      auto [Ptr, Err] = std::from_chars(Val.data(), Val.data() + Val.size(),
                                        Out);
      return Err == std::errc() && Ptr == Val.data() + Val.size();
    };
    auto AsBool = [&](bool &Out) {
      if (Val != "0" && Val != "1")
        return Bad("0 or 1");
      Out = Val == "1";
      return Status();
    };
    auto AsUnsigned = [&](unsigned &Out) {
      return Number(Out) ? Status() : Bad("a decimal unsigned integer");
    };
    Status S;
    if (Key == "allocator")
      Allocator = Val;
    else if (Key == "int")
      S = AsUnsigned(IntK);
    else if (Key == "flt")
      S = AsUnsigned(FltK);
    else if (Key == "opt")
      S = AsBool(Optimize);
    else if (Key == "remat")
      S = AsBool(Remat);
    else if (Key == "audit")
      S = AsBool(Audit);
    else if (Key == "cache")
      S = AsBool(UseCache);
    else if (Key == "print")
      S = AsBool(Print);
    else if (Key == "deadline_ms") {
      if (!Number(DeadlineMs) || !std::isfinite(DeadlineMs) || DeadlineMs < 0)
        S = Bad("a finite decimal number >= 0");
    } else if (Key == "mem_mb") {
      // The budget is applied in bytes (MemBudgetMb << 20); anything
      // larger would wrap to a tiny budget.
      if (!Number(MemBudgetMb) || MemBudgetMb > MaxMemBudgetMb)
        S = Bad("a decimal number of MB <= " + std::to_string(MaxMemBudgetMb));
    }
    else
      return Status::error(StatusCode::InvalidInput,
                           "unknown config key '" + Key + "'");
    if (!S.ok())
      return S;
  }
  if (IntK < 1 || FltK < 1)
    return Status::error(StatusCode::InvalidInput,
                         "register files must hold at least one register");
  return Status();
}

Status WireConfig::parseFlag(const std::string &Flag, const std::string &Key,
                             const std::string &Val) {
  Status S = Val.find(' ') == std::string::npos
                 ? parse(Key + "=" + Val)
                 : Status::error(StatusCode::InvalidInput,
                                 "config key '" + Key +
                                     "' expects one value, got '" + Val +
                                     "'");
  return S.addContext(Flag);
}

Status WireConfig::apply(AllocatorConfig &C) const {
  if (!parseAllocatorName(Allocator, C.B, C.H))
    return Status::error(StatusCode::InvalidInput,
                         "unknown allocator '" + Allocator +
                             "' (expected chaitin, briggs, matula-beck, "
                             "or linear-scan)");
  C.Machine = MachineInfo(IntK, FltK);
  C.Rematerialize = Remat;
  C.Audit = Audit;
  C.DeadlineSeconds = DeadlineMs / 1e3;
  C.MemoryBudgetBytes = MemBudgetMb << 20;
  return Status();
}

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
