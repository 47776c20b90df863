//===- perfbench/harness/ServiceLoad.h - racd client loops -----*- C++ -*-===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The service workload's traffic: a racd server (RacdServer over one
/// AllocationService, exactly as the daemon runs it) listening on a
/// Unix socket in this process, and closed-loop clients speaking the
/// wire protocol as racc does. Also the in-process closed loop the
/// other workloads use (the rac path: AllocationService with the cache
/// off, then printModule).
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_SERVICELOAD_H
#define PERFBENCH_SERVICELOAD_H

#include "Bench.h"

#include "service/AllocationService.h"
#include "service/Server.h"
#include "support/Rng.h"

#include <thread>

namespace perfbench {

/// Service workload shape: distinct modules (each requested under two
/// allocators, so 2x as many distinct pairs), the server's cache bound,
/// and the register files (service_throughput's pressure setting).
constexpr unsigned ServiceModules = 64;
constexpr unsigned ServiceCacheEntries = 64;
constexpr unsigned ServiceIntRegs = 6;
constexpr unsigned ServiceFltRegs = 3;

/// min(4, nproc): the client count of the service workload and the
/// parallel-Select thread count of the mega workload.
unsigned benchThreads();

/// Runs between stretches of a timed loop, with the loop's clock stopped.
using Pause = std::function<void()>;
/// A timed loop stops for its Pause after each stretch of this length.
constexpr double PauseEverySeconds = 1;

/// Every timed request of one closed-loop run.
struct LoopResult {
  /// Wall time of the timed requests, pauses excluded.
  double WallS = 0;
  std::vector<double> LatencyMs;
  /// Split by the reply's cache flag (wire replies only).
  std::vector<double> HitLatencyMs, MissLatencyMs;
  /// First failure seen, for the report.
  std::string FirstError;
};

/// Runs the rac path on one client: every input in table order, one
/// request at a time, in whole passes until \p Seconds have elapsed
/// (at least one pass). \p WarmupPasses untimed passes go first.
/// \p P runs between requests, once per PauseEverySeconds.
LoopResult runInProcessLoop(const std::vector<Input> &Inputs,
                            std::vector<Observation> &Obs, double Seconds,
                            unsigned WarmupPasses, const Pause &P);

/// One client's seeded request stream over the distinct inputs: about
/// 3 requests in 4 repeat one of the client's last few fresh picks, the
/// rest are fresh picks drawn uniformly from all inputs.
class RequestStream {
public:
  RequestStream(uint64_t Seed, unsigned Client, size_t NumInputs);
  size_t next();

private:
  ra::Rng R;
  size_t NumInputs;
  std::vector<size_t> Recent;
  size_t Pos = 0;
};

/// A racd server on a Unix socket plus one connected socket per client.
class ServiceRig {
public:
  ServiceRig();
  ~ServiceRig();
  ServiceRig(const ServiceRig &) = delete;
  ServiceRig &operator=(const ServiceRig &) = delete;

  ra::Status start(const std::string &SocketPath, unsigned Clients);
  /// Closes the client sockets, sends Shutdown, and joins the server.
  ra::Status stop();

  unsigned numClients() const { return unsigned(Fds.size()); }
  int clientFd(unsigned C) const { return Fds[C]; }
  /// The server's cache counters, over the wire.
  ra::Status stats(ra::service::CacheStats &Out);

private:
  ra::service::AllocationService Svc;
  ra::service::RacdServer Server;
  std::string Path;
  std::vector<int> Fds;
  ra::Status AcceptStatus;
  std::thread Acceptor; // declared last: it uses every member above
};

/// One wire reply, reduced to what the benchmark checks.
struct WireReply {
  std::string Error; ///< Empty when the request succeeded end to end.
  uint8_t Outcome = 0;
  bool CacheHit = false;
  uint32_t TotalSpills = 0;
  uint32_t Passes = 0;
  std::string Printed;
};

/// Sends one allocation request for \p In over \p Fd, as racc --print.
WireReply sendRequest(int Fd, const Input &In);

/// Runs the service workload's closed loop: every client first sends
/// \p WarmupPerClient untimed requests, then all clients send requests
/// until \p Seconds have elapsed. Every PauseEverySeconds the clients
/// finish their request in flight and \p P runs. \p Obs holds one
/// observation vector per client.
LoopResult runServiceLoop(ServiceRig &Rig, const std::vector<Input> &Inputs,
                          std::vector<RequestStream> &Streams,
                          std::vector<std::vector<Observation>> &Obs,
                          double Seconds, unsigned WarmupPerClient,
                          const Pause &P);

} // namespace perfbench

#endif // PERFBENCH_SERVICELOAD_H
