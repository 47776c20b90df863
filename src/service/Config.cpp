//===- service/Config.cpp - The allocation settings, one row each ---------===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// The only list of allocation settings. Every other spelling of a
// setting's key or flag is derived from a row here; CI fails if another
// file in src/ spells a shared flag or a key token.
//
//===----------------------------------------------------------------------===//

#include "service/Config.h"

#include "service/AllocationService.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <type_traits>

using namespace ra;
using namespace ra::service;

namespace {

using AC = AllocatorConfig;
using Wire = WireConfig;
constexpr KeyClass Keyed = KeyClass::Keyed, Neutral = KeyClass::Neutral,
                   Bypass = KeyClass::Bypass;

std::string bit(bool B) { return B ? "1" : "0"; }

Status unknownAllocator(const std::string &Name) {
  return Status::error(StatusCode::InvalidInput,
                       "unknown allocator '" + Name +
                           "' (expected chaitin, briggs, matula-beck, "
                           "or linear-scan)");
}

/// The rows, in the order the cache key writes its keyed AllocatorConfig
/// rows (then the optimizer toggle) and the wire line and the usage text
/// write the shared flags. A shared flag's value kind is its member's
/// type, with the same rules on the wire and on the command line:
///   bool         0 or 1; on the command line a switch (Flag sets it,
///                NoFlag clears it)
///   unsigned     a register count: a whole decimal >= 1
///   uint64_t     MB: a whole decimal <= WireConfig::MaxMemBudgetMb
///   double       ms: a finite decimal >= 0
///   std::string  an allocator name (parseAllocatorName)
const Setting Settings[] = {
    {.Field = "Allocator", .Class = Keyed, .Key = "allocator",
     .Member = &Wire::Allocator, .Flag = "--allocator",
     .Help = "chaitin|briggs|matula-beck|linear-scan (briggs)",
     .Apply = [](auto &W, auto &R) {
       parseAllocatorName(W.Allocator, R.Alloc.B, R.Alloc.H);
     },
     .Other = "chaitin"},
    {.Field = "B", .Class = Keyed, .Key = "backend",
     .KeyValue = [](auto &C) -> std::string { return backendName(C.B); },
     .Flip = [](AC &C) { C.B = Backend::LinearScan; }},
    {.Field = "H", .Class = Keyed, .Key = "heuristic",
     .KeyValue = [](auto &C) -> std::string { return heuristicName(C.H); },
     .Flip = [](AC &C) { C.H = Heuristic::Chaitin; }},
    {.Field = "Machine.Int", .Class = Keyed, .Key = "int",
     .KeyValue = [](auto &C) {
       return std::to_string(C.Machine.numRegs(RegClass::Int));
     },
     .Member = &Wire::IntK, .Flag = "--int", .Help = "integer registers (16)",
     .Apply = [](auto &W, auto &R) {
       R.Alloc.Machine = R.Alloc.Machine.withIntRegs(W.IntK);
     },
     .Other = "5"},
    {.Field = "Machine.Float", .Class = Keyed, .Key = "flt",
     .KeyValue = [](auto &C) {
       return std::to_string(C.Machine.numRegs(RegClass::Float));
     },
     .Member = &Wire::FltK, .Flag = "--flt", .Help = "float registers (8)",
     .Apply = [](auto &W, auto &R) {
       R.Alloc.Machine = R.Alloc.Machine.withFloatRegs(W.FltK);
     },
     .Other = "3"},
    {.Field = "Optimize", .Class = Keyed, .Key = "opt",
     .Member = &Wire::Optimize, .NoFlag = "--no-opt",
     .Help = "skip LICM, strength reduction and value numbering",
     .Apply = [](auto &W, auto &R) { R.Optimize = W.Optimize; },
     .Other = "0"},
    {.Field = "MaxPasses", .Class = Keyed, .Key = "maxpasses",
     .KeyValue = [](auto &C) { return std::to_string(C.MaxPasses); },
     .Flip = [](AC &C) { C.MaxPasses = 2; }},
    {.Field = "Coalesce", .Class = Keyed, .Key = "coalesce",
     .KeyValue = [](auto &C) { return bit(C.Coalesce); },
     .Flip = [](AC &C) { C.Coalesce = false; }},
    {.Field = "Coalescing", .Class = Keyed, .Key = "aggressive",
     .KeyValue = [](auto &C) {
       return bit(C.Coalescing == CoalescePolicy::Aggressive);
     },
     .Flip = [](AC &C) { C.Coalescing = CoalescePolicy::Conservative; }},
    {.Field = "Rematerialize", .Class = Keyed, .Key = "remat",
     .KeyValue = [](auto &C) { return bit(C.Rematerialize); },
     .Member = &Wire::Remat, .Flag = "--remat",
     .Help = "rematerialize spilled constants",
     .Apply = [](auto &W, auto &R) { R.Alloc.Rematerialize = W.Remat; },
     .Other = "1"},
    {.Field = "Audit", .Class = Keyed, .Key = "audit",
     .KeyValue = [](auto &C) { return bit(C.Audit); },
     .Member = &Wire::Audit, .Flag = "--audit", .NoFlag = "--no-audit",
     .Help = "run the post-allocation audit (on)",
     .Apply = [](auto &W, auto &R) { R.Alloc.Audit = W.Audit; },
     .Other = "0"},
    {.Field = "CollectMetrics", .Class = Keyed, .Key = "metrics",
     .KeyValue = [](auto &C) { return bit(C.CollectMetrics); },
     .Flip = [](AC &C) { C.CollectMetrics = true; }},
    {.Field = "UseCache", .Class = Bypass, .Key = "cache",
     .Member = &Wire::UseCache, .Flag = "--cache", .NoFlag = "--no-cache",
     .Help = "serve repeated functions from the allocation cache (on)",
     .Apply = [](auto &W, auto &R) { R.UseCache = W.UseCache; },
     .Other = "0"},
    {.Field = "Print", .Class = Neutral, .Key = "print",
     .Member = &Wire::Print, .Flag = "--print",
     .Help = "print each allocated function", .Other = "1"},
    // Budgets are neutral: only Converged results are cached, and a
    // governed run that converges is byte-identical to the ungoverned
    // run, since budget polling can abort work but never steer it.
    {.Field = "DeadlineSeconds", .Class = Neutral, .Key = "deadline_ms",
     .Member = &Wire::DeadlineMs, .Flag = "--deadline-ms",
     .Help = "per-function wall-clock budget (0 = unbounded)",
     .Apply = [](auto &W, auto &R) {
       R.Alloc.DeadlineSeconds = W.DeadlineMs / 1e3;
     },
     .Other = "3600000"},
    {.Field = "MemoryBudgetBytes", .Class = Neutral, .Key = "mem_mb",
     .Member = &Wire::MemBudgetMb, .Flag = "--mem-budget-mb",
     .Help = "per-function interference-graph memory budget (0 = unbounded)",
     .Apply = [](auto &W, auto &R) {
       R.Alloc.MemoryBudgetBytes = W.MemBudgetMb << 20;
     },
     .Other = "4096"},
    // Inert: nothing reads them but perfbench; ROADMAP item 1 deletes them.
    {.Field = "ParallelGraph", .Class = Neutral,
     .Flip = [](AC &C) { C.ParallelGraph = true; }},
    {.Field = "ParallelGraphJobs", .Class = Neutral,
     .Flip = [](AC &C) { C.ParallelGraphJobs = 3; }},
    {.Field = "ParallelGraphMinNodes", .Class = Neutral,
     .Flip = [](AC &C) { C.ParallelGraphMinNodes = 0; }},
    // Test-only breakage: cacheableConfig refuses it.
    {.Field = "FaultInject.Miscolor", .Class = Bypass,
     .Flip = [](AC &C) { C.FaultInject.Miscolor = true; }},
    {.Field = "FaultInject.NonConvergence", .Class = Bypass,
     .Flip = [](AC &C) { C.FaultInject.NonConvergence = true; }},
    {.Field = "FaultInject.ThrowInFunction", .Class = Bypass,
     .Flip = [](AC &C) { C.FaultInject.ThrowInFunction = "f"; }},
    {.Field = "FaultInject.SlowPhaseMicros", .Class = Bypass,
     .Flip = [](AC &C) { C.FaultInject.SlowPhaseMicros = 1; }},
    {.Field = "FaultInject.GraphMemorySpike", .Class = Bypass,
     .Flip = [](AC &C) { C.FaultInject.GraphMemorySpike = true; }},
};

// A field with no row fails the build here: these are the sizes of the
// structs the rows cover, on 64-bit libstdc++ (the CI toolchain). Give a
// new field its row, then update the size. (A field small enough to fit
// in existing padding would slip past.)
#if defined(__GLIBCXX__) && UINTPTR_MAX == UINT64_MAX
static_assert(sizeof(AllocatorConfig) == 104,
              "AllocatorConfig changed: give the new field a row");
static_assert(sizeof(FaultInjectOptions) == 48,
              "FaultInjectOptions changed: give the new field a row");
static_assert(sizeof(WireConfig) == 64,
              "WireConfig changed: give the new field a row");
#endif

/// The usage placeholder of each WireMember kind, in variant order.
const char *const Metavar[] = {"", " K", " MB", " MS", " NAME"};

bool spells(const char *Spelling, const std::string &Arg) {
  return Spelling && Arg == Spelling;
}

/// Checks \p Val against \p S's kind and stores it into \p W.
Status setValue(WireConfig &W, const Setting &S, const std::string &Val) {
  auto Bad = [&](const std::string &Expected) {
    return Status::error(StatusCode::InvalidInput,
                         "config key '" + std::string(S.Key) + "' expects " +
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
            return Bad("at least one register");
          }
        }
        W.*M = V;
        return Status();
      },
      S.Member);
}

/// \p S's value in \p W as wire text. A deadline is written in the
/// shortest form that parses back to the same double.
std::string valueText(const WireConfig &W, const Setting &S) {
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
      S.Member);
}

} // namespace

std::span<const Setting> ra::service::settings() { return Settings; }

std::string ra::service::canonicalConfigText(const AllocatorConfig &C,
                                             bool Optimize) {
  std::string Out = "config";
  for (const Setting &S : Settings)
    if (S.KeyValue)
      Out += std::string(" ") + S.Key + "=" + S.KeyValue(C);
  Out += " opt=";
  Out += bit(Optimize) + "\n";
  return Out;
}

std::string WireConfig::render() const {
  std::string Out;
  for (const Setting &S : Settings)
    if (S.onWire())
      Out += (Out.empty() ? "" : " ") + std::string(S.Key) + "=" +
             valueText(*this, S);
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
    const Setting *S = std::find_if(
        std::begin(Settings), std::end(Settings),
        [&](const Setting &Row) { return Row.onWire() && Key == Row.Key; });
    if (S == std::end(Settings))
      return Status::error(StatusCode::InvalidInput,
                           "unknown config key '" + Key + "'");
    if (Status St = setValue(*this, *S, Token.substr(Eq + 1)); !St.ok())
      return St;
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
  for (const Setting &S : Settings) {
    if (auto *M = std::get_if<bool WireConfig::*>(&S.Member)) {
      if (spells(S.Flag, Arg) || spells(S.NoFlag, Arg)) {
        this->*(*M) = spells(S.Flag, Arg);
        return Status();
      }
    } else if (spells(S.Flag, Arg) && I + 1 < Argc) {
      return parseFlag(Arg, S.Key, Argv[++I]);
    }
  }
  return std::nullopt;
}

std::string WireConfig::flagUsage() {
  std::string Out;
  for (const Setting &S : Settings) {
    if (!S.onWire())
      continue;
    std::string Spelling = S.Flag ? S.Flag : S.NoFlag;
    if (S.Flag && S.NoFlag)
      Spelling += std::string(", ") + S.NoFlag;
    Spelling += Metavar[S.Member.index()];
    Spelling.resize(std::max<size_t>(Spelling.size(), 20), ' ');
    Out += "  " + Spelling + " " + S.Help + "\n";
  }
  return Out;
}

Status WireConfig::apply(ServiceRequest &R) const {
  // A member set directly is held to its kind's rule, as on the wire.
  WireConfig Checked;
  for (const Setting &S : Settings)
    if (Status St = S.onWire() ? setValue(Checked, S, valueText(*this, S))
                               : Status();
        !St.ok())
      return St;
  for (const Setting &S : Settings)
    if (S.Apply)
      S.Apply(*this, R);
  return Status();
}
