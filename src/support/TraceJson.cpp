//===- support/TraceJson.cpp - Chrome trace export ------------------------===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Renders a SessionLog as the Chrome Trace Event Format (the JSON that
// chrome://tracing and https://ui.perfetto.dev load directly): one
// object per event in the "traceEvents" array, "ph":"X" complete spans
// with microsecond ts/dur, "C" counters, "i" instants, and "M"
// thread-name metadata. Also the normalized (volatile-free) rendering
// the golden-file and determinism tests compare.
//
//===----------------------------------------------------------------------===//

#include "support/Status.h"
#include "support/Trace.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string_view>

using namespace ra;
using namespace ra::trace;

namespace {

/// JSON string escaping (quotes, backslashes, control characters).
std::string quoted(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    switch (C) {
    case '"':  Out += "\\\""; break;
    case '\\': Out += "\\\\"; break;
    case '\n': Out += "\\n"; break;
    case '\t': Out += "\\t"; break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out += C;
      }
    }
  }
  Out += '"';
  return Out;
}

/// Microseconds with nanosecond fraction, as Chrome's "ts" expects.
std::string micros(uint64_t Ns) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%llu.%03u",
                (unsigned long long)(Ns / 1000), unsigned(Ns % 1000));
  return Buf;
}

std::string value(double V) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%g", V);
  return Buf;
}

const char *phase(EventKind K) {
  switch (K) {
  case EventKind::Span:       return "X";
  case EventKind::Instant:    return "i";
  case EventKind::Counter:    return "C";
  case EventKind::ThreadName: return "M";
  }
  return "i";
}

const char *kindName(EventKind K) {
  switch (K) {
  case EventKind::Span:       return "span";
  case EventKind::Instant:    return "instant";
  case EventKind::Counter:    return "counter";
  case EventKind::ThreadName: return "thread-name";
  }
  return "?";
}

} // namespace

std::string ra::trace::toChromeJson(const SessionLog &Log) {
  std::string Out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool First = true;
  for (const Event &E : Log.Events) {
    if (!First)
      Out += ",";
    First = false;
    Out += "\n{\"name\":";
    Out += quoted(E.Name);
    Out += ",\"ph\":\"";
    Out += phase(E.Kind);
    Out += "\",\"pid\":1,\"tid\":";
    Out += std::to_string(E.Tid);
    switch (E.Kind) {
    case EventKind::Span:
      Out += ",\"cat\":" + quoted(E.Category);
      Out += ",\"ts\":" + micros(E.StartNs);
      Out += ",\"dur\":" + micros(E.DurNs);
      break;
    case EventKind::Instant:
      Out += ",\"cat\":" + quoted(E.Category);
      Out += ",\"ts\":" + micros(E.StartNs);
      Out += ",\"s\":\"t\"";
      break;
    case EventKind::Counter:
      Out += ",\"ts\":" + micros(E.StartNs);
      break;
    case EventKind::ThreadName:
      break;
    }
    Out += ",\"args\":{";
    if (E.Kind == EventKind::Counter) {
      Out += quoted(E.Name) + ":" + value(E.Value);
    } else if (E.Kind == EventKind::ThreadName) {
      Out += "\"name\":" + quoted(E.Detail);
    } else {
      bool Inner = false;
      if (!E.Ctx.empty()) {
        Out += "\"ctx\":" + quoted(E.Ctx);
        Inner = true;
      }
      if (!E.Detail.empty()) {
        if (Inner)
          Out += ",";
        Out += "\"detail\":" + quoted(E.Detail);
      }
    }
    Out += "}}";
  }
  Out += "\n]}\n";
  return Out;
}

Status ra::trace::writeChromeJson(const std::string &Path,
                                  const SessionLog &Log) {
  std::ofstream OutFile(Path, std::ios::trunc);
  if (!OutFile)
    return Status::error(StatusCode::IoError,
                         "cannot open trace output '" + Path + "'");
  OutFile << toChromeJson(Log);
  OutFile.flush();
  if (!OutFile)
    return Status::error(StatusCode::IoError,
                         "error writing trace output '" + Path + "'");
  return Status();
}

std::string ra::trace::normalizedLog(const SessionLog &Log) {
  // Group by context, preserving each group's record order. A context's
  // work happens on one thread, so record order within a group is
  // deterministic at any worker count.
  std::vector<std::pair<std::string, std::vector<const Event *>>> Groups;
  auto GroupFor =
      [&Groups](const std::string &Ctx) -> std::vector<const Event *> & {
    for (auto &G : Groups)
      if (G.first == Ctx)
        return G.second;
    Groups.emplace_back(Ctx, std::vector<const Event *>());
    return Groups.back().second;
  };
  for (const Event &E : Log.Events) {
    if (E.Kind == EventKind::ThreadName ||
        std::string_view(E.Category) == "sched")
      continue; // Varies with worker count / scheduling; not comparable.
    GroupFor(E.Ctx).push_back(&E);
  }
  std::sort(Groups.begin(), Groups.end(),
            [](const auto &A, const auto &B) { return A.first < B.first; });

  std::string Out;
  for (const auto &[Ctx, Events] : Groups) {
    Out += "[" + (Ctx.empty() ? std::string("<global>") : Ctx) + "]\n";
    for (const Event *E : Events) {
      Out += std::string(kindName(E->Kind)) + " " + E->Name;
      if (*E->Category && std::string_view(E->Category) != "counter")
        Out += " cat=" + std::string(E->Category);
      if (E->Kind == EventKind::Counter)
        Out += " value=" + value(E->Value);
      if (!E->Detail.empty())
        Out += " " + E->Detail;
      Out += "\n";
    }
  }
  return Out;
}
