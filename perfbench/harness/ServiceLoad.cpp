//===- perfbench/harness/ServiceLoad.cpp - Closed-loop request loops ------===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "ServiceLoad.h"

#include "ir/IRPrinter.h"
#include "service/Protocol.h"

#include <algorithm>
#include <unistd.h>

using namespace ra;
using namespace ra::service;
using namespace perfbench;

unsigned perfbench::benchThreads() {
  return std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
}

namespace {

/// Records one checked reply against the input's first reply; counts a
/// failure when the reply is unusable or differs.
void recordReply(Observation &O, const std::string &Name,
                 const std::string &Error, std::string &Printed,
                 uint8_t Outcome, uint32_t TotalSpills, uint32_t Passes,
                 std::string &FirstError) {
  ++O.Requests;
  std::string Why = Error;
  if (Why.empty() && Outcome != uint8_t(AllocOutcome::Converged))
    Why = std::string("outcome ") +
          allocOutcomeName(AllocOutcome(Outcome));
  if (Why.empty()) {
    if (!O.Seen) {
      O.Seen = true;
      O.Printed = std::move(Printed);
      O.TotalSpills = TotalSpills;
      O.Passes = Passes;
    } else if (Printed != O.Printed || TotalSpills != O.TotalSpills ||
               Passes != O.Passes) {
      Why = "reply differs from this input's first reply";
    }
  }
  if (Why.empty())
    return;
  ++O.Failed;
  if (FirstError.empty())
    FirstError = Name + ": " + Why;
}

} // namespace

LoopResult perfbench::runInProcessLoop(const std::vector<Input> &Inputs,
                                       std::vector<Observation> &Obs,
                                       double Seconds,
                                       unsigned WarmupPasses,
                                       const Pause &P) {
  ServiceConfig SC;
  SC.CacheEnabled = false;
  SC.Workers = 1;
  AllocationService Svc(SC);
  LoopResult LR;
  // Timed wall time: finished stretches plus the current one.
  double DoneMs = 0;
  Clock::time_point Stretch;
  auto TimedMs = [&] { return DoneMs + msBetween(Stretch, Clock::now()); };

  auto OnePass = [&](bool Timed) {
    for (size_t I = 0; I < Inputs.size(); ++I) {
      const Input &In = Inputs[I];
      Observation &O = Obs[I];
      ServiceRequest Req;
      Req.Source = In.Source;
      Req.Alloc = In.Alloc;
      Req.UseCache = false;

      std::string Error, Printed;
      uint8_t Outcome = 0;
      uint32_t Spills = 0, Passes = 0;
      const Clock::time_point T0 = Clock::now();
      {
        ServiceReply Reply = Svc.run(Req);
        if (!Reply.S.ok()) {
          Error = Reply.S.toString();
        } else if (Reply.MA.Functions.size() != 1) {
          Error = "expected one function per module";
        } else {
          Printed = printModule(*Reply.M);
          AllocationResult &A = Reply.MA.Functions[0];
          Outcome = uint8_t(A.Outcome);
          Spills = A.Stats.totalSpills();
          Passes = A.Stats.numPasses();
          if (!O.Seen && A.Outcome == AllocOutcome::Converged) {
            // The oracle simulates the first reply after the loop.
            O.M = std::move(Reply.M);
            O.A = std::move(A);
          }
        }
      }
      const double Ms = msBetween(T0, Clock::now());
      recordReply(O, In.Name, Error, Printed, Outcome, Spills, Passes,
                  LR.FirstError);
      if (!Timed)
        continue;
      O.LatencyMs.push_back(Ms);
      LR.LatencyMs.push_back(Ms);
      if (msBetween(Stretch, Clock::now()) >= PauseEverySeconds * 1000) {
        DoneMs = TimedMs();
        P();
        Stretch = Clock::now();
      }
    }
  };

  for (unsigned W = 0; W < WarmupPasses; ++W)
    OnePass(false);
  Stretch = Clock::now();
  do
    OnePass(true);
  while (TimedMs() < Seconds * 1000);
  LR.WallS = TimedMs() / 1000;
  return LR;
}

//===----------------------------------------------------------------------===//
// The racd side.
//===----------------------------------------------------------------------===//

RequestStream::RequestStream(uint64_t Seed, unsigned Client,
                             size_t NumInputs)
    : R(Seed * 0x100000001B3ull + Client), NumInputs(NumInputs) {}

size_t RequestStream::next() {
  // Repeats draw from the last few *fresh* picks, not from the last
  // few requests: the latter would let one pair crowd out the window
  // and swing the hit rate from seed to seed.
  constexpr size_t RecentWindow = 8;
  if (!Recent.empty() && R.nextBool(0.75))
    return Recent[R.nextBelow(Recent.size())];
  size_t I = size_t(R.nextBelow(NumInputs));
  if (Recent.size() < RecentWindow) {
    Recent.push_back(I);
  } else {
    Recent[Pos] = I;
    Pos = (Pos + 1) % RecentWindow;
  }
  return I;
}

namespace {

ServiceConfig rigConfig() {
  ServiceConfig SC; // racd's defaults, apart from the entry bound
  SC.CacheMaxEntries = ServiceCacheEntries;
  return SC;
}

} // namespace

ServiceRig::ServiceRig() : Svc(rigConfig()), Server(Svc) {}

ServiceRig::~ServiceRig() { (void)stop(); }

Status ServiceRig::start(const std::string &SocketPath, unsigned Clients) {
  if (Status S = Server.listenUnix(SocketPath); !S.ok())
    return S;
  Path = SocketPath;
  Acceptor = std::thread([this] { AcceptStatus = Server.acceptLoop(); });
  for (unsigned C = 0; C < Clients; ++C) {
    int Fd = -1;
    if (Status S = connectUnix(Path, Fd); !S.ok())
      return S;
    Fds.push_back(Fd);
  }
  return Status();
}

Status ServiceRig::stop() {
  if (!Acceptor.joinable())
    return Status();
  for (int Fd : Fds)
    ::close(Fd);
  Fds.clear();
  // Stop the daemon the way racc --shutdown does; if that cannot even
  // connect, stop the listener directly so the join below never hangs.
  int Fd = -1;
  Status S = connectUnix(Path, Fd);
  if (S.ok()) {
    MsgType T;
    std::string Payload;
    S = transact(Fd, MsgType::Shutdown, "", T, Payload);
    if (S.ok() && T != MsgType::ShutdownAck)
      S = Status::error(StatusCode::IoError,
                        std::string("shutdown answered with ") +
                            msgTypeName(T));
    ::close(Fd);
  }
  if (!S.ok())
    Server.requestStop();
  Acceptor.join();
  return S.ok() ? AcceptStatus : S;
}

Status ServiceRig::stats(CacheStats &Out) {
  MsgType T;
  std::string Payload;
  if (Status S = transact(Fds.front(), MsgType::StatsRequest, "", T, Payload);
      !S.ok())
    return S;
  if (T != MsgType::StatsReply)
    return Status::error(StatusCode::IoError,
                         std::string("stats answered with ") + msgTypeName(T));
  StatsReplyMsg Msg;
  if (Status S = Msg.decode(Payload); !S.ok())
    return S;
  Out = Msg.Stats;
  return Status();
}

WireReply perfbench::sendRequest(int Fd, const Input &In) {
  AllocRequestMsg Req;
  Req.Config.Allocator = In.Allocator;
  Req.Config.IntK = In.Alloc.Machine.numRegs(RegClass::Int);
  Req.Config.FltK = In.Alloc.Machine.numRegs(RegClass::Float);
  Req.Config.Audit = In.Alloc.Audit;
  Req.Config.Print = true;
  Req.Source = In.Source;

  WireReply W;
  MsgType T;
  std::string Payload;
  if (Status S = transact(Fd, MsgType::AllocRequest, Req.encode(), T, Payload);
      !S.ok()) {
    W.Error = S.toString();
    return W;
  }
  if (T != MsgType::AllocReply) {
    W.Error = std::string("answered with ") + msgTypeName(T) + ": " + Payload;
    return W;
  }
  AllocReplyMsg Msg;
  if (Status S = Msg.decode(Payload); !S.ok()) {
    W.Error = S.toString();
    return W;
  }
  if (!Msg.Ok) {
    W.Error = Msg.Diag;
    return W;
  }
  if (Msg.Functions.size() != 1) {
    W.Error = "expected one function per module";
    return W;
  }
  FunctionReplyMsg &F = Msg.Functions.front();
  W.Outcome = F.Outcome;
  W.CacheHit = F.CacheHit != 0;
  W.TotalSpills = F.Spills;
  W.Passes = F.Passes;
  W.Printed = std::move(F.Printed);
  return W;
}

namespace {

/// One client's requests: \p Count of them when \p Timed is false,
/// otherwise until \p Deadline. Timed requests land in \p Done.
void clientLoop(int Fd, const std::vector<Input> &Inputs, RequestStream &S,
                std::vector<Observation> &Obs, LoopResult &Done, bool Timed,
                uint64_t Count, Clock::time_point Deadline) {
  for (uint64_t N = 0;; ++N) {
    if (Timed ? Clock::now() >= Deadline : N >= Count)
      return;
    const size_t I = S.next();
    const Clock::time_point T0 = Clock::now();
    WireReply W = sendRequest(Fd, Inputs[I]);
    const Clock::time_point T1 = Clock::now();
    recordReply(Obs[I], Inputs[I].Name, W.Error, W.Printed, W.Outcome,
                W.TotalSpills, W.Passes, Done.FirstError);
    if (!Timed)
      continue;
    const double Ms = msBetween(T0, T1);
    Done.LatencyMs.push_back(Ms);
    (W.CacheHit ? Done.HitLatencyMs : Done.MissLatencyMs).push_back(Ms);
  }
}

void append(std::vector<double> &To, const std::vector<double> &From) {
  To.insert(To.end(), From.begin(), From.end());
}

} // namespace

LoopResult perfbench::runServiceLoop(ServiceRig &Rig,
                                     const std::vector<Input> &Inputs,
                                     std::vector<RequestStream> &Streams,
                                     std::vector<std::vector<Observation>> &Obs,
                                     double Seconds,
                                     unsigned WarmupPerClient,
                                     const Pause &P) {
  const unsigned Clients = Rig.numClients();
  std::vector<LoopResult> Done(Clients);
  auto Phase = [&](bool Timed, Clock::time_point Deadline) {
    std::vector<std::thread> Threads;
    for (unsigned C = 0; C < Clients; ++C)
      Threads.emplace_back([&, C] {
        clientLoop(Rig.clientFd(C), Inputs, Streams[C], Obs[C], Done[C],
                   Timed, WarmupPerClient, Deadline);
      });
    for (std::thread &T : Threads)
      T.join();
  };

  Phase(false, {});
  LoopResult LR;
  for (double DoneMs = 0; DoneMs < Seconds * 1000;) {
    if (DoneMs > 0)
      P();
    const double StretchMs =
        std::min(PauseEverySeconds * 1000, Seconds * 1000 - DoneMs);
    const Clock::time_point Start = Clock::now();
    Phase(true, Start + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double, std::milli>(
                                StretchMs)));
    DoneMs += msBetween(Start, Clock::now());
    LR.WallS = DoneMs / 1000;
  }
  for (const LoopResult &D : Done) {
    append(LR.LatencyMs, D.LatencyMs);
    append(LR.HitLatencyMs, D.HitLatencyMs);
    append(LR.MissLatencyMs, D.MissLatencyMs);
    if (LR.FirstError.empty())
      LR.FirstError = D.FirstError;
  }
  return LR;
}
