//===- service/Server.cpp - racd transport + dispatch ---------------------===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "service/Server.h"

#include "ir/IRPrinter.h"

#include <cerrno>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace ra;
using namespace ra::service;

RacdServer::~RacdServer() { closeListener(); }

//===--------------------------------------------------------------------===//
// Frame dispatch.
//===--------------------------------------------------------------------===//

bool RacdServer::handleFrame(MsgType T, const std::string &Payload,
                             std::string &Out) {
  switch (T) {
  case MsgType::AllocRequest: {
    AllocFrames.fetch_add(1, std::memory_order_relaxed);
    AllocRequestMsg Req;
    if (Status S = Req.decode(Payload); !S.ok()) {
      appendFrame(Out, MsgType::Error, S.toString());
      return true;
    }
    ServiceRequest R;
    if (Status S = Req.Config.apply(R); !S.ok()) {
      appendFrame(Out, MsgType::Error, S.toString());
      return true;
    }
    R.Source = std::move(Req.Source);

    ServiceReply Reply = Svc.run(R);

    AllocReplyMsg Msg;
    Msg.Ok = Reply.S.ok() ? 1 : 0;
    Msg.Diag = Reply.S.toString();
    if (Reply.M) {
      const Module &M = *Reply.M;
      Msg.Functions.reserve(M.numFunctions());
      for (unsigned I = 0; I < M.numFunctions(); ++I) {
        const AllocationResult &A = Reply.MA.Functions[I];
        FunctionReplyMsg F;
        F.Name = M.function(I).name();
        F.Outcome = uint8_t(A.Outcome);
        F.Success = A.Success ? 1 : 0;
        F.CacheHit = Reply.CacheHit[I];
        F.Diag = A.Diag.toString();
        F.Passes = A.Stats.numPasses();
        F.Spills = A.Stats.totalSpills();
        F.LiveRanges = A.Stats.initialLiveRanges();
        if (Req.Config.Print)
          F.Printed = printFunction(M, M.function(I));
        Msg.Functions.push_back(std::move(F));
      }
    }
    appendFrame(Out, MsgType::AllocReply, Msg.encode());
    return true;
  }
  case MsgType::StatsRequest: {
    StatsReplyMsg Msg;
    Msg.Stats = Svc.cacheStats();
    Msg.Requests = Svc.requestsServed();
    Msg.PoolWidth = Svc.poolWidth();
    appendFrame(Out, MsgType::StatsReply, Msg.encode());
    return true;
  }
  case MsgType::Shutdown:
    appendFrame(Out, MsgType::ShutdownAck, "");
    requestStop();
    return false;
  default:
    appendFrame(Out, MsgType::Error,
                std::string("unexpected message type ") +
                    msgTypeName(T));
    return false;
  }
}

//===--------------------------------------------------------------------===//
// Byte-stream serving.
//===--------------------------------------------------------------------===//

Status ra::service::writeAll(int Fd, const std::string &Bytes) {
  size_t Off = 0;
  while (Off < Bytes.size()) {
    ssize_t N = ::write(Fd, Bytes.data() + Off, Bytes.size() - Off);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return Status::error(StatusCode::IoError,
                           std::string("write: ") + std::strerror(errno));
    }
    Off += size_t(N);
  }
  return Status();
}

Status RacdServer::serveStream(int InFd, int OutFd) {
  FrameReader Reader;
  char Chunk[64 << 10];
  for (;;) {
    ssize_t N = ::read(InFd, Chunk, sizeof(Chunk));
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return Status::error(StatusCode::IoError,
                           std::string("read: ") + std::strerror(errno));
    }
    if (N == 0)
      return Status(); // clean EOF
    Reader.feed(Chunk, size_t(N));

    for (;;) {
      MsgType T;
      std::string Payload;
      Status Err;
      FrameReader::Result R = Reader.pop(T, Payload, Err);
      if (R == FrameReader::Result::NeedMore)
        break;
      if (R == FrameReader::Result::Malformed) {
        std::string Out;
        appendFrame(Out, MsgType::Error, Err.toString());
        (void)writeAll(OutFd, Out); // best effort; stream is dead anyway
        return Err;
      }
      std::string Out;
      bool Continue = handleFrame(T, Payload, Out);
      if (Status S = writeAll(OutFd, Out); !S.ok())
        return S;
      if (!Continue)
        return Status();
    }
  }
}

//===--------------------------------------------------------------------===//
// Unix-domain listener.
//===--------------------------------------------------------------------===//

Status RacdServer::listenUnix(const std::string &Path) {
  sockaddr_un Addr;
  if (Path.size() + 1 > sizeof(Addr.sun_path))
    return Status::error(StatusCode::InvalidInput,
                         "socket path '" + Path +
                             "' exceeds the sockaddr_un limit");
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0)
    return Status::error(StatusCode::IoError,
                         std::string("socket: ") + std::strerror(errno));
  ::unlink(Path.c_str()); // stale socket from an unclean previous run
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sun_family = AF_UNIX;
  std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);
  if (::bind(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) < 0) {
    Status S = Status::error(StatusCode::IoError,
                             std::string("bind: ") + std::strerror(errno));
    ::close(Fd);
    return S.addContext(Path);
  }
  if (::listen(Fd, 64) < 0) {
    Status S = Status::error(StatusCode::IoError,
                             std::string("listen: ") + std::strerror(errno));
    ::close(Fd);
    ::unlink(Path.c_str());
    return S.addContext(Path);
  }
  ListenFd = Fd;
  SockPath = Path;
  return Status();
}

Status RacdServer::acceptLoop() {
  if (ListenFd < 0)
    return Status::error(StatusCode::InvalidInput,
                         "acceptLoop called before listenUnix");
  // One entry per connection thread not yet joined. Done is set by the
  // thread as its last act, so a set flag means join() returns at once.
  struct Conn {
    std::thread T;
    std::unique_ptr<std::atomic<bool>> Done;
  };
  std::vector<Conn> Conns;
  while (!stopRequested()) {
    int Fd = ::accept(ListenFd, nullptr, nullptr);
    if (Fd < 0) {
      if (errno == EINTR)
        continue;
      if (stopRequested())
        break; // requestStop() shut the listener down under us
      Status S = Status::error(StatusCode::IoError,
                               std::string("accept: ") +
                                   std::strerror(errno));
      closeListener();
      return S;
    }
    // An exited thread keeps its stack mapped until it is joined, so a
    // long-lived daemon joins each finished connection here instead of
    // holding them all until shutdown.
    std::erase_if(Conns, [](Conn &C) {
      if (!C.Done->load(std::memory_order_acquire))
        return false;
      C.T.join();
      return true;
    });
    auto Done = std::make_unique<std::atomic<bool>>(false);
    std::thread T([this, Fd, D = Done.get()] {
      (void)serveStream(Fd, Fd);
      ::close(Fd);
      D->store(true, std::memory_order_release);
    });
    Conns.push_back({std::move(T), std::move(Done)});
  }
  // A Shutdown frame stops the listener from a connection thread that
  // is itself in Conns — join after the accept loop exits, when no new
  // connections can appear.
  for (Conn &C : Conns)
    C.T.join();
  closeListener();
  return Status();
}

void RacdServer::requestStop() {
  Stop.store(true, std::memory_order_release);
  if (ListenFd >= 0)
    ::shutdown(ListenFd, SHUT_RDWR); // wakes the blocking accept()
}

void RacdServer::closeListener() {
  if (ListenFd >= 0) {
    ::close(ListenFd);
    ListenFd = -1;
  }
  if (!SockPath.empty()) {
    ::unlink(SockPath.c_str());
    SockPath.clear();
  }
}

//===--------------------------------------------------------------------===//
// Client helpers.
//===--------------------------------------------------------------------===//

Status ra::service::connectUnix(const std::string &Path, int &Fd) {
  sockaddr_un Addr;
  if (Path.size() + 1 > sizeof(Addr.sun_path))
    return Status::error(StatusCode::InvalidInput,
                         "socket path '" + Path +
                             "' exceeds the sockaddr_un limit");
  int S = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (S < 0)
    return Status::error(StatusCode::IoError,
                         std::string("socket: ") + std::strerror(errno));
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sun_family = AF_UNIX;
  std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);
  if (::connect(S, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) < 0) {
    Status E = Status::error(StatusCode::IoError,
                             std::string("connect: ") +
                                 std::strerror(errno));
    ::close(S);
    return E.addContext(Path);
  }
  Fd = S;
  return Status();
}

Status ra::service::transact(int Fd, MsgType T, const std::string &Payload,
                             MsgType &ReplyT, std::string &ReplyPayload) {
  std::string Out;
  appendFrame(Out, T, Payload);
  if (Status S = writeAll(Fd, Out); !S.ok())
    return S;

  FrameReader Reader;
  char Chunk[64 << 10];
  for (;;) {
    Status Err;
    FrameReader::Result R = Reader.pop(ReplyT, ReplyPayload, Err);
    if (R == FrameReader::Result::Frame)
      return Status();
    if (R == FrameReader::Result::Malformed)
      return Err;
    ssize_t N = ::read(Fd, Chunk, sizeof(Chunk));
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return Status::error(StatusCode::IoError,
                           std::string("read: ") + std::strerror(errno));
    }
    if (N == 0)
      return Status::error(StatusCode::IoError,
                           "connection closed before a reply arrived");
    Reader.feed(Chunk, size_t(N));
  }
}
