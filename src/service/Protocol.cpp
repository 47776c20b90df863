//===- service/Protocol.cpp - racd wire protocol --------------------------===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "service/Protocol.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstring>
#include <type_traits>
#include <variant>

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

namespace {

/// The WireConfig member an option sets. Its type is the option's value
/// kind, with the same rules on the wire and on the command line:
///   bool         0 or 1; on the command line a switch (Flag sets it,
///                NoFlag clears it)
///   unsigned     a register count: a whole decimal >= 1
///   uint64_t     MB: a whole decimal <= WireConfig::MaxMemBudgetMb
///   double       ms: a finite decimal >= 0
///   std::string  an allocator name (parseAllocatorName)
using Member =
    std::variant<bool WireConfig::*, unsigned WireConfig::*,
                 uint64_t WireConfig::*, double WireConfig::*,
                 std::string WireConfig::*>;

/// The usage placeholder for each Member kind, in variant order.
const char *const Metavar[] = {"", " K", " MB", " MS", " NAME"};

/// One per-request allocation option.
struct Option {
  const char *Key;    ///< wire key
  Member M;
  const char *Flag;   ///< spelling that sets it (takes a value unless bool)
  const char *NoFlag; ///< bool only: spelling that clears it
  const char *Help;
};

/// The only list of wire keys. render() writes them in this order.
const Option Options[] = {
    {"allocator", &WireConfig::Allocator, "--allocator", nullptr,
     "chaitin|briggs|matula-beck|linear-scan (briggs)"},
    {"int", &WireConfig::IntK, "--int", nullptr, "integer registers (16)"},
    {"flt", &WireConfig::FltK, "--flt", nullptr, "float registers (8)"},
    {"opt", &WireConfig::Optimize, nullptr, "--no-opt",
     "skip LICM, strength reduction and value numbering"},
    {"remat", &WireConfig::Remat, "--remat", nullptr,
     "rematerialize spilled constants"},
    {"audit", &WireConfig::Audit, "--audit", "--no-audit",
     "run the post-allocation audit (on)"},
    {"cache", &WireConfig::UseCache, "--cache", "--no-cache",
     "serve repeated functions from the allocation cache (on)"},
    {"print", &WireConfig::Print, "--print", nullptr,
     "print each allocated function"},
    {"deadline_ms", &WireConfig::DeadlineMs, "--deadline-ms", nullptr,
     "per-function wall-clock budget (0 = unbounded)"},
    {"mem_mb", &WireConfig::MemBudgetMb, "--mem-budget-mb", nullptr,
     "per-function interference-graph memory budget (0 = unbounded)"},
};

bool spells(const char *Spelling, const std::string &Arg) {
  return Spelling && Arg == Spelling;
}

Status unknownAllocator(const std::string &Name) {
  return Status::error(StatusCode::InvalidInput,
                       "unknown allocator '" + Name +
                           "' (expected chaitin, briggs, matula-beck, "
                           "or linear-scan)");
}

/// Checks \p Val against \p O's kind and stores it into \p W.
Status setValue(WireConfig &W, const Option &O, const std::string &Val) {
  auto Bad = [&](const std::string &Expected) {
    return Status::error(StatusCode::InvalidInput,
                         "config key '" + std::string(O.Key) + "' expects " +
                             Expected + ", got '" + Val + "'");
  };
  return std::visit(
      [&](auto M) {
        using T = std::decay_t<decltype(W.*M)>;
        T V{};
        if constexpr (std::is_same_v<T, bool>) {
          if (Val != "0" && Val != "1")
            return Bad("0 or 1");
          V = Val == "1";
        } else if constexpr (std::is_same_v<T, std::string>) {
          Backend B;
          Heuristic H;
          if (!parseAllocatorName(Val, B, H))
            return unknownAllocator(Val);
          V = Val;
        } else {
          // from_chars takes no sign, whitespace or trailing text.
          auto [Ptr, Err] =
              std::from_chars(Val.data(), Val.data() + Val.size(), V);
          bool Read = Err == std::errc() && Ptr == Val.data() + Val.size();
          if constexpr (std::is_same_v<T, double>) {
            if (!Read || !std::isfinite(V) || V < 0)
              return Bad("a finite decimal number >= 0");
          } else if constexpr (std::is_same_v<T, uint64_t>) {
            // Applied as MemBudgetMb << 20: a larger value would wrap.
            if (!Read || V > WireConfig::MaxMemBudgetMb)
              return Bad("a decimal number of MB <= " +
                         std::to_string(WireConfig::MaxMemBudgetMb));
          } else if (!Read) {
            return Bad("a decimal unsigned integer");
          } else if (V < 1) {
            return Status::error(
                StatusCode::InvalidInput,
                "register files must hold at least one register");
          }
        }
        W.*M = V;
        return Status();
      },
      O.M);
}

/// \p O's value in \p W as wire text. A deadline is written in the
/// shortest form that parses back to the same double.
std::string valueText(const WireConfig &W, const Option &O) {
  return std::visit(
      [&](auto M) -> std::string {
        const auto &V = W.*M;
        using T = std::decay_t<decltype(V)>;
        if constexpr (std::is_same_v<T, std::string>) {
          return V;
        } else if constexpr (std::is_same_v<T, double>) {
          char Buf[32];
          return std::string(Buf, std::to_chars(Buf, Buf + sizeof(Buf), V).ptr);
        } else {
          return std::to_string(V); // a bool prints as 0 or 1
        }
      },
      O.M);
}

} // namespace

std::string WireConfig::render() const {
  std::string Out;
  for (const Option &O : Options)
    Out += (Out.empty() ? "" : " ") + std::string(O.Key) + "=" +
           valueText(*this, O);
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
    std::string Key = Token.substr(0, Eq);
    const Option *O = std::find_if(
        std::begin(Options), std::end(Options),
        [&](const Option &Row) { return Key == Row.Key; });
    if (O == std::end(Options))
      return Status::error(StatusCode::InvalidInput,
                           "unknown config key '" + Key + "'");
    if (Status S = setValue(*this, *O, Token.substr(Eq + 1)); !S.ok())
      return S;
  }
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

std::optional<Status> WireConfig::parseArg(int Argc, const char *const *Argv,
                                           int &I) {
  const std::string Arg = Argv[I];
  for (const Option &O : Options) {
    if (auto *M = std::get_if<bool WireConfig::*>(&O.M)) {
      if (spells(O.Flag, Arg) || spells(O.NoFlag, Arg)) {
        this->*(*M) = spells(O.Flag, Arg);
        return Status();
      }
    } else if (spells(O.Flag, Arg) && I + 1 < Argc) {
      return parseFlag(Arg, O.Key, Argv[++I]);
    }
  }
  return std::nullopt;
}

std::string WireConfig::flagUsage() {
  std::string Out;
  for (const Option &O : Options) {
    std::string Spelling = O.Flag ? O.Flag : O.NoFlag;
    if (O.Flag && O.NoFlag)
      Spelling += std::string(", ") + O.NoFlag;
    Spelling += Metavar[O.M.index()];
    Spelling.resize(std::max<size_t>(Spelling.size(), 20), ' ');
    Out += "  " + Spelling + " " + O.Help + "\n";
  }
  return Out;
}

Status WireConfig::apply(AllocatorConfig &C) const {
  if (!parseAllocatorName(Allocator, C.B, C.H))
    return unknownAllocator(Allocator);
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
