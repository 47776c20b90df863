//===- tools/racc.cpp - racd client ---------------------------------------===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Command-line client for a running racd:
//
//   racc --socket PATH FILE.ral... [options]   allocate modules
//   racc --socket PATH --stats                 print daemon cache stats
//   racc --socket PATH --shutdown              stop the daemon cleanly
//
// The allocation flags are rac's, read through the option table in
// service/Protocol.cpp that also renders the wire config; racc --help
// lists them. A bad value is an invalid-input diagnostic naming the flag,
// reported before racc connects. `racc --print --quiet` prints each
// allocated function exactly as `rac --print --quiet` would — `diff`
// against a local rac run is the service's equivalence check.
//
// Exit status: 0 only when every request succeeded and every function
// allocated (Degraded counts as usable, like rac).
//
//===----------------------------------------------------------------------===//

#include "service/Protocol.h"
#include "service/Server.h"

#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <unistd.h>
#include <vector>

using namespace ra;
using namespace ra::service;

namespace {

void usage(const char *Prog) {
  std::fprintf(stderr,
               "usage: %s --socket PATH FILE.ral... [options]\n"
               "   or: %s --socket PATH --stats\n"
               "   or: %s --socket PATH --shutdown\n"
               "\n"
               "allocation options (shared with rac):\n"
               "%s"
               "\n"
               "racc options:\n"
               "  --quiet              suppress the per-function summary "
               "lines\n",
               Prog, Prog, Prog, WireConfig::flagUsage().c_str());
}

/// One request/reply over the connected socket; protocol-level Error
/// frames and unexpected types become failed Statuses.
Status call(int Fd, MsgType T, const std::string &Payload, MsgType Expect,
            std::string &ReplyPayload) {
  MsgType ReplyT;
  if (Status S = transact(Fd, T, Payload, ReplyT, ReplyPayload); !S.ok())
    return S;
  if (ReplyT == MsgType::Error)
    return Status::error(StatusCode::InvalidInput, ReplyPayload)
        .addContext("server error");
  if (ReplyT != Expect)
    return Status::error(StatusCode::InvalidInput,
                         std::string("expected ") + msgTypeName(Expect) +
                             ", got " + msgTypeName(ReplyT));
  return Status();
}

} // namespace

int main(int Argc, char **Argv) {
  std::string SocketPath;
  std::vector<std::string> Paths;
  WireConfig Cfg;
  bool Stats = false, Shutdown = false, Quiet = false;

  for (int I = 1; I < Argc; ++I) {
    if (std::optional<Status> S = Cfg.parseArg(Argc, Argv, I)) {
      if (!S->ok()) {
        std::fprintf(stderr, "racc: %s\n", S->toString().c_str());
        return 1;
      }
      continue;
    }
    std::string Arg = Argv[I];
    if (Arg == "--socket" && I + 1 < Argc) {
      SocketPath = Argv[++I];
    } else if (Arg == "--stats") {
      Stats = true;
    } else if (Arg == "--shutdown") {
      Shutdown = true;
    } else if (Arg == "--quiet") {
      Quiet = true;
    } else if (Arg == "--help" || Arg == "-h") {
      usage(Argv[0]);
      return 0;
    } else if (!Arg.empty() && Arg[0] == '-') {
      std::fprintf(stderr, "racc: unknown option '%s'\n", Arg.c_str());
      usage(Argv[0]);
      return 1;
    } else {
      Paths.push_back(Arg);
    }
  }
  if (SocketPath.empty() ||
      (Paths.empty() && !Stats && !Shutdown)) {
    usage(Argv[0]);
    return 1;
  }

  int Fd = -1;
  if (Status S = connectUnix(SocketPath, Fd); !S.ok()) {
    std::fprintf(stderr, "racc: %s\n", S.toString().c_str());
    return 1;
  }

  bool Failed = false;
  for (const std::string &Path : Paths) {
    std::ifstream In(Path);
    if (!In) {
      std::fprintf(stderr, "racc: %s: io-error: cannot open file\n",
                   Path.c_str());
      Failed = true;
      continue;
    }
    std::stringstream Buffer;
    Buffer << In.rdbuf();

    AllocRequestMsg Req;
    Req.Config = Cfg;
    Req.Source = Buffer.str();
    std::string Payload;
    if (Status S = call(Fd, MsgType::AllocRequest, Req.encode(),
                        MsgType::AllocReply, Payload);
        !S.ok()) {
      std::fprintf(stderr, "racc: %s: %s\n", Path.c_str(),
                   S.toString().c_str());
      Failed = true;
      continue;
    }
    AllocReplyMsg Reply;
    if (Status S = Reply.decode(Payload); !S.ok()) {
      std::fprintf(stderr, "racc: %s: %s\n", Path.c_str(),
                   S.toString().c_str());
      Failed = true;
      continue;
    }
    if (!Reply.Ok) {
      std::fprintf(stderr, "racc: %s: %s\n", Path.c_str(),
                   Reply.Diag.c_str());
      Failed = true;
      continue;
    }
    for (const FunctionReplyMsg &F : Reply.Functions) {
      if (!F.Success) {
        std::fprintf(stderr, "racc: %s: %s\n", Path.c_str(),
                     F.Diag.c_str());
        Failed = true;
        continue;
      }
      if (Cfg.Print)
        std::fputs(F.Printed.c_str(), stdout);
      if (!Quiet)
        std::printf("@%s: %u passes, %u spills, %u live ranges%s\n",
                    F.Name.c_str(), F.Passes, F.Spills, F.LiveRanges,
                    F.CacheHit ? " (cache hit)" : "");
    }
  }

  if (Stats) {
    std::string Payload;
    if (Status S = call(Fd, MsgType::StatsRequest, "",
                        MsgType::StatsReply, Payload);
        !S.ok()) {
      std::fprintf(stderr, "racc: %s\n", S.toString().c_str());
      Failed = true;
    } else {
      StatsReplyMsg Msg;
      if (Status S = Msg.decode(Payload); !S.ok()) {
        std::fprintf(stderr, "racc: %s\n", S.toString().c_str());
        Failed = true;
      } else {
        std::printf("requests=%llu pool_width=%u\n",
                    (unsigned long long)Msg.Requests, Msg.PoolWidth);
        std::printf("cache hits=%llu misses=%llu insertions=%llu "
                    "evictions=%llu refusals=%llu entries=%llu "
                    "bytes=%llu peak=%llu\n",
                    (unsigned long long)Msg.Stats.Hits,
                    (unsigned long long)Msg.Stats.Misses,
                    (unsigned long long)Msg.Stats.Insertions,
                    (unsigned long long)Msg.Stats.Evictions,
                    (unsigned long long)Msg.Stats.Refusals,
                    (unsigned long long)Msg.Stats.Entries,
                    (unsigned long long)Msg.Stats.BytesInUse,
                    (unsigned long long)Msg.Stats.PeakBytes);
      }
    }
  }

  if (Shutdown) {
    std::string Payload;
    if (Status S = call(Fd, MsgType::Shutdown, "", MsgType::ShutdownAck,
                        Payload);
        !S.ok()) {
      std::fprintf(stderr, "racc: %s\n", S.toString().c_str());
      Failed = true;
    } else if (!Quiet) {
      std::printf("racd shut down\n");
    }
  }

  ::close(Fd);
  return Failed ? 1 : 0;
}
