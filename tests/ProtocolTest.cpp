//===- tests/ProtocolTest.cpp - racd wire protocol tests ------------------===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// The racd wire contract, transport-free:
//
//  * length-prefixed framing survives any byte chunking and refuses
//    corrupt length prefixes without crashing or allocating unboundedly;
//  * every message round-trips encode -> decode, and truncated payloads
//    decode to structured errors, never out-of-bounds reads;
//  * WireConfig's "k=v" line round-trips and rejects unknown keys and
//    malformed or out-of-range values;
//  * RacdServer::handleFrame answers a replayed AllocRequest from the
//    cache, serves stats, and acknowledges Shutdown by ending the
//    connection;
//  * RacdServer::acceptLoop joins each finished connection thread, so a
//    long-lived daemon's address space does not grow per connection.
//
//===----------------------------------------------------------------------===//

#include "ir/IRBuilder.h"
#include "ir/IRPrinter.h"
#include "service/Protocol.h"
#include "service/Server.h"

#include <gtest/gtest.h>

#include <fstream>
#include <thread>

#include <unistd.h>

using namespace ra;
using namespace ra::service;

namespace {

/// Pops one frame expecting success.
void popFrame(FrameReader &R, MsgType &T, std::string &Payload) {
  Status Err;
  ASSERT_EQ(R.pop(T, Payload, Err), FrameReader::Result::Frame)
      << Err.toString();
}

std::string tinySource() {
  Module M;
  Function &F = M.newFunction("f");
  IRBuilder B(M, F);
  B.setInsertPoint(B.newBlock("entry"));
  VRegId X = B.iReg("x");
  B.movI(7, X);
  B.ret(X);
  return printModule(M);
}

TEST(ProtocolTest, FramesRoundTripThroughAnyChunking) {
  std::string Wire;
  appendFrame(Wire, MsgType::AllocRequest, "payload-one");
  appendFrame(Wire, MsgType::StatsRequest, "");
  appendFrame(Wire, MsgType::Error, std::string("\x00\xFF\n binary ok", 13));

  // Whole-buffer feed.
  {
    FrameReader R;
    R.feed(Wire.data(), Wire.size());
    MsgType T;
    std::string P;
    popFrame(R, T, P);
    EXPECT_EQ(T, MsgType::AllocRequest);
    EXPECT_EQ(P, "payload-one");
    popFrame(R, T, P);
    EXPECT_EQ(T, MsgType::StatsRequest);
    EXPECT_EQ(P, "");
    popFrame(R, T, P);
    EXPECT_EQ(T, MsgType::Error);
    EXPECT_EQ(P, std::string("\x00\xFF\n binary ok", 13));
    Status Err;
    EXPECT_EQ(R.pop(T, P, Err), FrameReader::Result::NeedMore);
  }

  // One byte at a time: the reader must never misframe on a partial
  // header or partial payload.
  {
    FrameReader R;
    MsgType T;
    std::string P;
    Status Err;
    unsigned Got = 0;
    for (char C : Wire) {
      R.feed(&C, 1);
      while (R.pop(T, P, Err) == FrameReader::Result::Frame)
        ++Got;
    }
    EXPECT_EQ(Got, 3u);
  }
}

TEST(ProtocolTest, OversizeLengthPoisonsTheReader) {
  // A length prefix over MaxFrameBytes: there is no trustworthy frame
  // boundary after it, so the reader reports Malformed now and forever.
  std::string Wire;
  uint32_t Bad = MaxFrameBytes + 1;
  for (unsigned I = 0; I < 4; ++I)
    Wire.push_back(char((Bad >> (8 * I)) & 0xFF));
  Wire.push_back(char(MsgType::AllocRequest));

  FrameReader R;
  R.feed(Wire.data(), Wire.size());
  MsgType T;
  std::string P;
  Status Err;
  EXPECT_EQ(R.pop(T, P, Err), FrameReader::Result::Malformed);
  EXPECT_FALSE(Err.ok());

  // Even feeding a perfectly good frame afterwards cannot unpoison it.
  std::string Good;
  appendFrame(Good, MsgType::StatsRequest, "");
  R.feed(Good.data(), Good.size());
  EXPECT_EQ(R.pop(T, P, Err), FrameReader::Result::Malformed);
}

TEST(ProtocolTest, MessagesRoundTripAndRejectTruncation) {
  AllocRequestMsg Req;
  Req.Config.Allocator = "matula-beck";
  Req.Config.IntK = 5;
  Req.Config.FltK = 3;
  Req.Config.Remat = true;
  Req.Config.Print = true;
  Req.Config.DeadlineMs = 125.5;
  Req.Source = tinySource();

  AllocRequestMsg ReqBack;
  ASSERT_TRUE(ReqBack.decode(Req.encode()).ok());
  EXPECT_EQ(ReqBack.Config.render(), Req.Config.render());
  EXPECT_EQ(ReqBack.Source, Req.Source);

  AllocReplyMsg Reply;
  Reply.Ok = 1;
  Reply.Diag = "ok";
  FunctionReplyMsg F;
  F.Name = "f";
  F.Outcome = uint8_t(AllocOutcome::Degraded);
  F.Success = 1;
  F.CacheHit = 1;
  F.Diag = "deadline: exceeded";
  F.Passes = 3;
  F.Spills = 12;
  F.LiveRanges = 40;
  F.Printed = "func @f {\n}\n";
  Reply.Functions = {F, F};

  const std::string Encoded = Reply.encode();
  AllocReplyMsg ReplyBack;
  ASSERT_TRUE(ReplyBack.decode(Encoded).ok());
  ASSERT_EQ(ReplyBack.Functions.size(), 2u);
  EXPECT_EQ(ReplyBack.Ok, 1);
  EXPECT_EQ(ReplyBack.Functions[1].Name, "f");
  EXPECT_EQ(ReplyBack.Functions[1].Outcome,
            uint8_t(AllocOutcome::Degraded));
  EXPECT_EQ(ReplyBack.Functions[1].CacheHit, 1);
  EXPECT_EQ(ReplyBack.Functions[1].Spills, 12u);
  EXPECT_EQ(ReplyBack.Functions[1].Printed, F.Printed);

  // Every proper prefix must decode to a structured error — a hostile
  // or truncated payload can never read out of bounds or succeed.
  for (size_t Cut = 0; Cut < Encoded.size(); ++Cut) {
    AllocReplyMsg Trunc;
    Status S = Trunc.decode(Encoded.substr(0, Cut));
    EXPECT_FALSE(S.ok()) << "prefix of " << Cut << " bytes decoded";
  }

  StatsReplyMsg Stats;
  Stats.Stats.Hits = 10;
  Stats.Stats.Misses = 4;
  Stats.Stats.PeakBytes = 1 << 20;
  Stats.Requests = 14;
  Stats.PoolWidth = 8;
  StatsReplyMsg StatsBack;
  ASSERT_TRUE(StatsBack.decode(Stats.encode()).ok());
  EXPECT_EQ(StatsBack.Stats.Hits, 10u);
  EXPECT_EQ(StatsBack.Stats.Misses, 4u);
  EXPECT_EQ(StatsBack.Stats.PeakBytes, uint64_t(1) << 20);
  EXPECT_EQ(StatsBack.Requests, 14u);
  EXPECT_EQ(StatsBack.PoolWidth, 8u);
}

TEST(ProtocolTest, WireConfigRoundTripsAndRejectsUnknownKeys) {
  WireConfig C;
  C.Allocator = "linear-scan";
  C.IntK = 4;
  C.FltK = 2;
  C.Optimize = false;
  C.Remat = true;
  C.UseCache = false;
  C.MemBudgetMb = 64;

  WireConfig Back;
  ASSERT_TRUE(Back.parse(C.render()).ok());
  EXPECT_EQ(Back.render(), C.render());
  EXPECT_EQ(Back.Allocator, "linear-scan");
  EXPECT_EQ(Back.IntK, 4u);
  EXPECT_FALSE(Back.Optimize);
  EXPECT_TRUE(Back.Remat);
  EXPECT_FALSE(Back.UseCache);
  EXPECT_EQ(Back.MemBudgetMb, 64u);

  // A newer client's unknown knob must fail loudly, not be dropped.
  WireConfig Bad;
  EXPECT_FALSE(Bad.parse(C.render() + " shiny_new_knob=1").ok());
  EXPECT_FALSE(Bad.parse("not-a-kv-token").ok());
  EXPECT_FALSE(Bad.parse("int=0").ok()) << "zero registers is invalid";
  // The whole-lifetime linear-scan knob is retired; an old client that
  // still sends it is told so instead of being silently ignored.
  Status Retired = Bad.parse("split=1");
  EXPECT_NE(Retired.toString().find("unknown config key 'split'"),
            std::string::npos)
      << Retired.toString();

  // apply() validates the allocator spelling against rac's parser.
  WireConfig Bogus;
  Bogus.Allocator = "bogus";
  AllocatorConfig AC;
  Status S = Bogus.apply(AC);
  ASSERT_FALSE(S.ok());
  EXPECT_NE(S.toString().find("unknown allocator 'bogus'"),
            std::string::npos);
}

/// Parses \p Text into a fresh WireConfig, expecting an InvalidInput
/// status that names \p Key.
void expectRejected(const std::string &Text, const std::string &Key) {
  WireConfig C;
  Status S = C.parse(Text);
  ASSERT_FALSE(S.ok()) << Text << " was accepted";
  EXPECT_EQ(S.code(), StatusCode::InvalidInput) << Text;
  EXPECT_NE(S.toString().find("'" + Key + "'"), std::string::npos)
      << Text << ": " << S.toString();
}

TEST(ProtocolTest, WireConfigFlagsAcceptOnlyZeroOrOne) {
  expectRejected("remat=false", "remat");
  expectRejected("opt=yes", "opt");
  expectRejected("audit=2", "audit");
  expectRejected("cache=", "cache");
  WireConfig C;
  ASSERT_TRUE(C.parse("remat=1 audit=0 print=1").ok());
  EXPECT_TRUE(C.Remat);
  EXPECT_FALSE(C.Audit);
  EXPECT_TRUE(C.Print);
}

TEST(ProtocolTest, FlagValuesParseStrictlyAndNameTheFlag) {
  // rac and racc read --int/--flt/--deadline-ms/--mem-budget-mb through
  // parseFlag, so a bad command-line value gets the wire's diagnostic
  // with the flag in front of it.
  WireConfig C;
  ASSERT_TRUE(C.parseFlag("--int", "int", "4").ok());
  EXPECT_EQ(C.IntK, 4u);
  ASSERT_TRUE(C.parseFlag("--deadline-ms", "deadline_ms", "2.5").ok());
  EXPECT_EQ(C.DeadlineMs, 2.5);
  const struct {
    const char *Flag, *Key, *Val;
  } Bad[] = {{"--int", "int", "abc"},
             {"--int", "int", "0"},
             {"--int", "int", "4x"},
             {"--flt", "flt", "-1"},
             {"--deadline-ms", "deadline_ms", "-5"},
             {"--mem-budget-mb", "mem_mb", "1 int=2"}};
  for (const auto &B : Bad) {
    WireConfig W;
    Status S = W.parseFlag(B.Flag, B.Key, B.Val);
    ASSERT_FALSE(S.ok()) << B.Flag << " " << B.Val << " was accepted";
    EXPECT_EQ(S.code(), StatusCode::InvalidInput);
    EXPECT_EQ(S.toString().rfind(std::string("invalid-input: ") + B.Flag +
                                     ": ",
                                 0),
              0u)
        << S.toString();
  }
  WireConfig W;
  EXPECT_FALSE(W.parseFlag("--mem-budget-mb", "mem_mb", "1 int=2").ok());
  EXPECT_EQ(W.IntK, 16u) << "a value must not smuggle in another key";
}

TEST(ProtocolTest, WireConfigCountsMustBeWholeDecimals) {
  expectRejected("int=4x", "int");
  expectRejected("flt=-1", "flt");
  expectRejected("int=+4", "int");
  expectRejected("flt=", "flt");
  expectRejected("mem_mb=12MB", "mem_mb");
}

TEST(ProtocolTest, WireConfigCountsMustFitTheirField) {
  expectRejected("int=4294967296", "int");
  expectRejected("mem_mb=18446744073709551616", "mem_mb");
}

TEST(ProtocolTest, WireConfigDeadlineMustBeFiniteAndNonNegative) {
  expectRejected("deadline_ms=abc", "deadline_ms");
  expectRejected("deadline_ms=5ms", "deadline_ms");
  expectRejected("deadline_ms=-1", "deadline_ms");
  expectRejected("deadline_ms=inf", "deadline_ms");
  expectRejected("deadline_ms=nan", "deadline_ms");
  WireConfig C;
  C.DeadlineMs = 2.5;
  WireConfig Back;
  ASSERT_TRUE(Back.parse(C.render()).ok()) << C.render();
  EXPECT_EQ(Back.DeadlineMs, 2.5);
}

TEST(ProtocolTest, WireDeadlineRoundTripsExactly) {
  // Six fixed decimals once sent 4e-7 ms as 0 (no deadline at all) and
  // 1.5e-6 ms as 2e-6; the shortest exact form keeps every value.
  for (double Ms : {4e-7, 1.5e-6, 2.5}) {
    AllocRequestMsg Req;
    Req.Config.DeadlineMs = Ms;
    AllocRequestMsg Back;
    ASSERT_TRUE(Back.decode(Req.encode()).ok()) << Req.Config.render();
    EXPECT_EQ(Back.Config.DeadlineMs, Ms) << Req.Config.render();
    AllocatorConfig Sent, Got;
    ASSERT_TRUE(Req.Config.apply(Sent).ok());
    ASSERT_TRUE(Back.Config.apply(Got).ok());
    EXPECT_EQ(Got.DeadlineSeconds, Sent.DeadlineSeconds);
    EXPECT_TRUE(Got.governed()) << Req.Config.render();
  }
}

TEST(ProtocolTest, ParseArgReadsEverySharedSpelling) {
  const char *Argv[] = {"rac",      "--allocator", "chaitin", "--int",
                        "5",        "--flt",       "3",       "--no-opt",
                        "--remat",  "--no-audit",  "--no-cache",
                        "--print",  "--deadline-ms", "1.5",
                        "--mem-budget-mb", "7",    "--quiet"};
  const int Argc = int(sizeof(Argv) / sizeof(Argv[0]));
  WireConfig W;
  int I = 1;
  for (; I < Argc; ++I) {
    std::optional<Status> S = W.parseArg(Argc, Argv, I);
    if (!S)
      break;
    ASSERT_TRUE(S->ok()) << Argv[I] << ": " << S->toString();
  }
  EXPECT_EQ(std::string(Argv[I]), "--quiet") << "not a shared flag";
  EXPECT_EQ(W.render(), "allocator=chaitin int=5 flt=3 opt=0 remat=1 "
                        "audit=0 cache=0 print=1 deadline_ms=1.5 mem_mb=7");

  // The old --heuristic spelling of --allocator is not a shared flag.
  const char *Old[] = {"rac", "--heuristic", "briggs"};
  int K = 1;
  EXPECT_FALSE(W.parseArg(3, Old, K).has_value());
  EXPECT_EQ(K, 1);

  // The on spellings of the two-way switches, and a value flag with no
  // value after it, which is left for the caller to report.
  const char *On[] = {"racc", "--audit", "--cache", "--int"};
  W.Audit = W.UseCache = false;
  for (int J = 1; J < 3; ++J)
    ASSERT_TRUE(W.parseArg(4, On, J).has_value());
  EXPECT_TRUE(W.Audit && W.UseCache);
  int Last = 3;
  EXPECT_FALSE(W.parseArg(4, On, Last).has_value());
  EXPECT_EQ(Last, 3);

  const char *Bad[] = {"racc", "--allocator", "bogus"};
  int J = 1;
  std::optional<Status> S = W.parseArg(3, Bad, J);
  ASSERT_TRUE(S && !S->ok());
  EXPECT_EQ(S->toString(),
            "invalid-input: --allocator: unknown allocator 'bogus' "
            "(expected chaitin, briggs, matula-beck, or linear-scan)");
}

TEST(ProtocolTest, FlagUsageListsEverySpelling) {
  const std::string Usage = WireConfig::flagUsage();
  for (const char *Spelling :
       {"--allocator NAME", "--int K", "--flt K",
        "--no-opt", "--remat", "--audit, --no-audit", "--cache, --no-cache",
        "--print", "--deadline-ms MS", "--mem-budget-mb MB"})
    EXPECT_NE(Usage.find(std::string("  ") + Spelling + " "),
              std::string::npos)
        << Spelling;
}

TEST(ProtocolTest, WireConfigMemoryBudgetMustNotWrap) {
  // 2^44 + 1 MB is 2^64 + 2^20 bytes: shifted into bytes it would wrap
  // to a 1 MB budget.
  expectRejected("mem_mb=17592186044417", "mem_mb");
  WireConfig C;
  ASSERT_TRUE(
      C.parse("mem_mb=" + std::to_string(WireConfig::MaxMemBudgetMb)).ok());
  AllocatorConfig AC;
  ASSERT_TRUE(C.apply(AC).ok());
  EXPECT_EQ(AC.MemoryBudgetBytes >> 20, WireConfig::MaxMemBudgetMb);
}

TEST(ProtocolTest, HandleFrameServesWarmRepliesStatsAndShutdown) {
  AllocationService Svc;
  RacdServer Server(Svc);

  AllocRequestMsg Req;
  Req.Config.IntK = 4;
  Req.Config.FltK = 2;
  Req.Config.Print = true;
  Req.Source = tinySource();

  auto roundTrip = [&](AllocReplyMsg &Out) {
    std::string Wire;
    ASSERT_TRUE(
        Server.handleFrame(MsgType::AllocRequest, Req.encode(), Wire));
    FrameReader R;
    R.feed(Wire.data(), Wire.size());
    MsgType T;
    std::string Payload;
    popFrame(R, T, Payload);
    ASSERT_EQ(T, MsgType::AllocReply);
    ASSERT_TRUE(Out.decode(Payload).ok());
  };

  AllocReplyMsg Cold, Warm;
  roundTrip(Cold);
  ASSERT_EQ(Cold.Ok, 1) << Cold.Diag;
  ASSERT_EQ(Cold.Functions.size(), 1u);
  EXPECT_EQ(Cold.Functions[0].CacheHit, 0);
  EXPECT_FALSE(Cold.Functions[0].Printed.empty());

  roundTrip(Warm);
  ASSERT_EQ(Warm.Ok, 1);
  EXPECT_EQ(Warm.Functions[0].CacheHit, 1);
  EXPECT_EQ(Warm.Functions[0].Printed, Cold.Functions[0].Printed);
  EXPECT_EQ(Server.allocRequests(), 2u);

  // Stats reflect the warm hit.
  {
    std::string Wire;
    ASSERT_TRUE(Server.handleFrame(MsgType::StatsRequest, "", Wire));
    FrameReader R;
    R.feed(Wire.data(), Wire.size());
    MsgType T;
    std::string Payload;
    popFrame(R, T, Payload);
    ASSERT_EQ(T, MsgType::StatsReply);
    StatsReplyMsg Msg;
    ASSERT_TRUE(Msg.decode(Payload).ok());
    EXPECT_EQ(Msg.Stats.Hits, 1u);
    EXPECT_EQ(Msg.Stats.Misses, 1u);
    EXPECT_EQ(Msg.Requests, 2u);
    EXPECT_GE(Msg.PoolWidth, 1u);
  }

  // An undecodable request earns an Error frame; the connection keeps
  // going (one bad request is the client's problem, not the session's).
  {
    std::string Wire;
    EXPECT_TRUE(
        Server.handleFrame(MsgType::AllocRequest, "garbage", Wire));
    FrameReader R;
    R.feed(Wire.data(), Wire.size());
    MsgType T;
    std::string Payload;
    popFrame(R, T, Payload);
    EXPECT_EQ(T, MsgType::Error);
    EXPECT_FALSE(Payload.empty());
  }

  // Shutdown: acknowledged, connection ends, server marked stopping.
  {
    std::string Wire;
    EXPECT_FALSE(Server.handleFrame(MsgType::Shutdown, "", Wire));
    FrameReader R;
    R.feed(Wire.data(), Wire.size());
    MsgType T;
    std::string Payload;
    popFrame(R, T, Payload);
    EXPECT_EQ(T, MsgType::ShutdownAck);
    EXPECT_TRUE(Server.stopRequested());
  }
}

// Sanitizers map memory of their own per thread, so the VmSize bound in
// AcceptLoopJoinsFinishedConnections holds only in a plain build.
#if !defined(__SANITIZE_ADDRESS__) && !defined(__SANITIZE_THREAD__)
#define RA_BOUND_VMSIZE 1

/// This process's virtual memory size in kB (VmSize in /proc/self/status),
/// or 0 where that file does not exist.
uint64_t vmSizeKb() {
  std::ifstream In("/proc/self/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmSize:", 0) == 0)
      return std::stoull(Line.substr(7));
  return 0;
}
#endif

TEST(ProtocolTest, AcceptLoopJoinsFinishedConnections) {
  AllocationService Svc;
  RacdServer Server(Svc);
  const std::string Path = ::testing::TempDir() + "racd_joins_" +
                           std::to_string(::getpid()) + ".sock";
  ASSERT_TRUE(Server.listenUnix(Path).ok());
  std::thread Loop([&] { EXPECT_TRUE(Server.acceptLoop().ok()); });

  // One connection, one stats round trip, then the client hangs up.
  auto serveOne = [&] {
    int Fd = -1;
    ASSERT_TRUE(connectUnix(Path, Fd).ok());
    MsgType T;
    std::string Payload;
    EXPECT_TRUE(transact(Fd, MsgType::StatsRequest, "", T, Payload).ok());
    EXPECT_EQ(T, MsgType::StatsReply);
    ::close(Fd);
  };
  // Warm up first, so the baseline already holds a cached thread stack
  // and the connection threads' malloc arena.
  for (int I = 0; I < 4; ++I)
    serveOne();
#ifdef RA_BOUND_VMSIZE
  const uint64_t Before = vmSizeKb();
#endif
  for (int I = 0; I < 64; ++I)
    serveOne();
#ifdef RA_BOUND_VMSIZE
  // Each exited thread left unjoined keeps its stack mapped: 64 of them
  // grew VmSize by about 590 MB. Joined, growth stays near zero, but
  // when two connection threads overlap the second may open a malloc
  // arena, which reserves 64 MB; the bound leaves room for a few.
  const uint64_t After = vmSizeKb();
  if (Before != 0) {
    EXPECT_LT(After, Before + (uint64_t(256) << 10))
        << "VmSize grew from " << Before << " kB to " << After << " kB";
  }
#endif

  // Stop the way racc --shutdown does, from a connection thread.
  int Fd = -1;
  ASSERT_TRUE(connectUnix(Path, Fd).ok());
  MsgType T;
  std::string Payload;
  EXPECT_TRUE(transact(Fd, MsgType::Shutdown, "", T, Payload).ok());
  EXPECT_EQ(T, MsgType::ShutdownAck);
  ::close(Fd);
  Loop.join();
}

} // namespace
