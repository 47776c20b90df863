//===- support/Status.h - Structured error propagation ---------*- C++ -*-===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small status type — code, message, and a chain of context frames —
/// for recoverable failures. The allocator, the module driver and the
/// command-line tools thread Status through their results instead of
/// aborting, so malformed input, non-convergence or a crashed worker
/// degrade into a diagnostic rather than taking the process down.
///
//===----------------------------------------------------------------------===//

#ifndef RA_SUPPORT_STATUS_H
#define RA_SUPPORT_STATUS_H

#include <charconv>
#include <limits>
#include <string>
#include <utility>
#include <vector>

namespace ra {

/// Coarse failure category. Ok must stay the zero value so a
/// default-constructed Status means success.
enum class StatusCode : uint8_t {
  Ok = 0,
  InvalidInput,   ///< Structurally malformed IR reached a pipeline stage.
  ParseError,     ///< Textual IR did not parse.
  VerifyError,    ///< The IR verifier rejected a module.
  NonConvergence, ///< Build-Simplify-Color exhausted MaxPasses.
  AuditFailure,   ///< The post-allocation audit found a broken invariant.
  WorkerError,    ///< A pool worker threw while allocating a function.
  IoError,        ///< File could not be read or written.
  DeadlineExceeded,     ///< A Budget deadline expired mid-allocation.
  MemoryBudgetExceeded, ///< A Budget byte charge was refused.
};

/// Printable name of a status code ("audit-failure", ...).
inline const char *statusCodeName(StatusCode C) {
  switch (C) {
  case StatusCode::Ok:             return "ok";
  case StatusCode::InvalidInput:   return "invalid-input";
  case StatusCode::ParseError:     return "parse-error";
  case StatusCode::VerifyError:    return "verify-error";
  case StatusCode::NonConvergence: return "non-convergence";
  case StatusCode::AuditFailure:   return "audit-failure";
  case StatusCode::WorkerError:    return "worker-error";
  case StatusCode::IoError:        return "io-error";
  case StatusCode::DeadlineExceeded:     return "deadline-exceeded";
  case StatusCode::MemoryBudgetExceeded: return "memory-budget-exceeded";
  }
  return "unknown";
}

/// Success-or-diagnostic. A failed Status carries the innermost message
/// plus the context frames pushed while it propagated outward, so the
/// final rendering reads outermost-first, e.g.
///
///   audit-failure: @dgefa: pass 2: int registers r3 assigned to two
///   simultaneously-live ranges
class Status {
public:
  Status() = default; ///< Ok. (There is no factory; `Status()` is Ok.)

  static Status error(StatusCode C, std::string Message) {
    Status S;
    S.Code = C;
    S.Message = std::move(Message);
    return S;
  }

  bool ok() const { return Code == StatusCode::Ok; }
  StatusCode code() const { return Code; }
  const std::string &message() const { return Message; }

  /// Pushes one context frame (innermost call sites push first; frames
  /// render outermost-first). No-op on an Ok status, so callers can
  /// unconditionally annotate results on the way out.
  Status &addContext(std::string Frame) {
    if (!ok())
      Context.push_back(std::move(Frame));
    return *this;
  }

  /// "code: outer: inner: message" — or "ok" for a success.
  std::string toString() const {
    std::string Out = statusCodeName(Code);
    if (ok())
      return Out;
    for (auto It = Context.rbegin(); It != Context.rend(); ++It)
      Out += ": " + *It;
    Out += ": " + Message;
    return Out;
  }

private:
  StatusCode Code = StatusCode::Ok;
  std::string Message;
  std::vector<std::string> Context; ///< Innermost frame first.
};

/// Reads a command-line flag's value \p Val into \p Out as a whole
/// decimal number no greater than \p Max: no sign, whitespace or
/// trailing bytes. Otherwise leaves \p Out alone and returns an
/// invalid-input status naming \p Flag.
template <typename T>
Status parseDecimalFlag(const std::string &Flag, const std::string &Val,
                        T &Out, T Max = std::numeric_limits<T>::max()) {
  T V{};
  auto [Ptr, Err] = std::from_chars(Val.data(), Val.data() + Val.size(), V);
  if (Err == std::errc() && Ptr == Val.data() + Val.size() && V <= Max) {
    Out = V;
    return Status();
  }
  std::string Expected = "a decimal unsigned integer";
  if (Max != std::numeric_limits<T>::max())
    Expected += " <= " + std::to_string(Max);
  Status S = Status::error(StatusCode::InvalidInput,
                           "expects " + Expected + ", got '" + Val + "'");
  S.addContext(Flag);
  return S;
}

} // namespace ra

#endif // RA_SUPPORT_STATUS_H
