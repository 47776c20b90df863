//===- service/Config.h - The allocation settings, one row each -*- C++ -*-===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every allocation setting is one row of the table in Config.cpp: the
/// field it sets, how the allocation cache treats it, its cache-key
/// token, and for a shared flag its wire key, rac/racc spellings, help
/// line and WireConfig member. The cache key's config line, the wire
/// line, the shared flags and ContentHashTest walk the rows; Config.cpp
/// pins the size of each struct they cover, so a new field that changes
/// one fails the build until it has a row.
///
//===----------------------------------------------------------------------===//

#ifndef RA_SERVICE_CONFIG_H
#define RA_SERVICE_CONFIG_H

#include "regalloc/Allocator.h"
#include "support/Status.h"

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <variant>

namespace ra {
namespace service {

struct ServiceRequest;

/// The per-request allocation configuration, rendered as one
/// space-separated "k=v" text line: the shared-flag rows, in table order.
/// Unknown keys are a parse error — a client speaking a newer dialect
/// must fail loudly, not silently lose a knob — and so is any value
/// outside its kind (Config.cpp lists the kinds' rules).
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

  /// Reads Argv[I] when it spells a shared flag, advancing \p I past
  /// its value, and returns parseFlag's Status. Returns nullopt, leaving
  /// \p I alone, for any other argument or a value flag at the end.
  std::optional<Status> parseArg(int Argc, const char *const *Argv, int &I);

  /// The usage lines of the shared flags.
  static std::string flagUsage();

  /// Sets the request's wire-carried settings: its AllocatorConfig
  /// fields, Optimize and UseCache. A member outside its kind (set
  /// directly, not parsed) is an invalid-input Status and sets nothing.
  /// rac and racd both build their requests through this call.
  Status apply(ServiceRequest &R) const;
};

/// How the allocation cache treats a setting.
enum class KeyClass : uint8_t {
  Keyed,   ///< can change the allocation, so the cache key holds it
  Neutral, ///< never changes a converged allocation; left out of the key
  Bypass,  ///< deliberate breakage or an opt-out: the request is not cached
};

/// The WireConfig member a shared flag sets; its type is the flag's
/// value kind. Rows that are not on the wire leave it null.
using WireMember =
    std::variant<bool WireConfig::*, unsigned WireConfig::*,
                 uint64_t WireConfig::*, double WireConfig::*,
                 std::string WireConfig::*>;

/// One allocation setting. ContentHashTest moves every row off its
/// default (through Other or Flip) and checks its Class.
struct Setting {
  const char *Field; ///< the AllocatorConfig, request or wire field set
  KeyClass Class;
  const char *Key = nullptr; ///< its cache-key token and wire key
  /// Keyed AllocatorConfig rows: the field's value in the cache key.
  std::string (*KeyValue)(const AllocatorConfig &C) = nullptr;
  // Shared-flag rows: the member, the spelling that sets it (a value
  // follows unless bool), the one that clears a bool, the help line, how
  // the value reaches the request, and a non-default value as wire text.
  WireMember Member = {};
  const char *Flag = nullptr, *NoFlag = nullptr, *Help = nullptr;
  void (*Apply)(const WireConfig &W, ServiceRequest &R) = nullptr;
  const char *Other = nullptr;
  /// The other rows: sets the field off its default.
  void (*Flip)(AllocatorConfig &C) = nullptr;

  bool onWire() const { return Flag || NoFlag; }
};

/// Every setting, in the order the cache key and the wire line write
/// them.
std::span<const Setting> settings();

/// The cache key's config line: "config", each keyed AllocatorConfig
/// row's " token=value", then the optimizer toggle \p Optimize.
std::string canonicalConfigText(const AllocatorConfig &C, bool Optimize);

} // namespace service
} // namespace ra

#endif // RA_SERVICE_CONFIG_H
