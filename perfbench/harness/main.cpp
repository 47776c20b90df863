//===- perfbench/harness/main.cpp - The repository benchmark --------------===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
//   perfbench --workload fig5|mega|service --seed N --seconds S --trace 0|1
//
// Sets the workload up several times over the run (setup_s), runs its
// closed loop for S seconds, checks every reply with the correctness
// oracle, and prints one JSON result line last. --trace 0 reports the
// end-to-end metrics; --trace 1 runs a shorter loop, then replays each
// distinct input layer by layer and reports the per-layer metrics.
// The seed drives the service workload's request stream; the fig5 and
// mega corpora are fixed, so the seed only names the run there.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "CpuHopper.h"
#include "Replay.h"
#include "ServiceLoad.h"

#include "ir/IRPrinter.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

using namespace ra;
using namespace perfbench;

double perfbench::percentile(std::vector<double> &V, double P) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t Rank = size_t(std::ceil(P / 100 * double(V.size())));
  return V[std::clamp<size_t>(Rank, 1, V.size()) - 1];
}

double perfbench::median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

namespace {

/// The figures Figure 5's routines must reproduce under Briggs on the
/// RT/PC files: backend_compare's graph-coloring totals (EXPERIMENTS.md).
constexpr uint64_t Fig5Spills = 764;
constexpr int64_t Fig5SpillCost = 414848;
constexpr uint64_t Fig5Cycles = 28579362;

/// Set-ups before the timed loop; the loop adds one per pause.
constexpr size_t SetupsBeforeLoop = 3;

/// setup_s is the median of this share of the set-ups, the quickest.
/// Every set-up does the same work, but the host alternates every few
/// seconds between two speeds (other tenants' memory traffic; set-up
/// takes ~1.5x as long in the slow one), so the median of all set-ups
/// jumps between the two with the share of slow seconds in the run.
constexpr double QuickSetupShare = 1.0 / 3;

/// The layer spans must account for at least this share of the traced
/// request path, or the per-layer figures miss where the time went.
constexpr double MinCoveredShare = 0.9;

/// Benchmark scratch files (socket, trace) live here, inside the
/// checkout the benchmark runs from.
constexpr const char *ScratchDir = ".bench_build";

struct Args {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
};

bool parseArgs(int Argc, char **Argv, Args &A) {
  for (int I = 1; I + 1 < Argc; I += 2) {
    std::string K = Argv[I], V = Argv[I + 1];
    char *End = nullptr;
    if (K == "--workload")
      A.Workload = V;
    else if (K == "--seed")
      A.Seed = std::strtoull(V.c_str(), &End, 10);
    else if (K == "--seconds")
      A.Seconds = std::strtod(V.c_str(), &End);
    else if (K == "--trace" && (V == "0" || V == "1"))
      A.Trace = V == "1";
    else
      return false;
    if (End && *End)
      return false;
  }
  return Argc % 2 == 1 && !A.Workload.empty() && A.Seconds > 0;
}

std::string hostStamp() {
  char Buf[256];
  std::snprintf(Buf, sizeof(Buf), "nproc=%u build=%s(%s) compiler=%s",
                std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE,
                PERFBENCH_CXX_FLAGS, PERFBENCH_COMPILER);
  return Buf;
}

double peakRssMb() {
  rusage RU;
  getrusage(RUSAGE_SELF, &RU);
  return double(RU.ru_maxrss) / 1024; // kilobytes on Linux
}

std::string number(double V) {
  if (!std::isfinite(V))
    V = 0;
  char Buf[64];
  auto R = std::to_chars(Buf, Buf + sizeof(Buf), V);
  return std::string(Buf, R.ptr);
}

void printResult(bool Correct, uint64_t Attempted, uint64_t Failed,
                 const MetricSink &Metrics) {
  std::string Line = std::string("{\"correct\": ") +
                     (Correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(Attempted) +
                     ", \"failed\": " + std::to_string(Failed) +
                     ", \"metrics\": {";
  bool First = true;
  for (const auto &[Name, VU] : Metrics.all()) {
    Line += (First ? "\"" : ", \"") + Name + "\": {\"value\": " +
            number(VU.first) + ", \"unit\": \"" + VU.second + "\"}";
    First = false;
  }
  Line += "}}";
  std::printf("%s\n", Line.c_str());
}

/// Keeps the first failure of each kind for the report.
struct Problems {
  std::vector<std::string> Lines;
  void add(const std::string &What) {
    if (Lines.size() < 20)
      Lines.push_back(What);
  }
};

} // namespace

int main(int Argc, char **Argv) {
  Args A;
  if (!parseArgs(Argc, Argv, A)) {
    std::fprintf(stderr, "usage: %s --workload fig5|mega|service --seed N "
                         "--seconds S --trace 0|1\n",
                 Argv[0]);
    return 2;
  }
  const WorkloadSpec *Spec = findWorkload(A.Workload);
  if (!Spec) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 A.Workload.c_str());
    return 2;
  }
  std::signal(SIGPIPE, SIG_IGN); // a dead peer is an error, not a kill
  ::mkdir(ScratchDir, 0755);
  const bool Wire = Spec->Kind == WorkloadKind::Service;
  const unsigned Clients = Wire ? benchThreads() : 1;
  const std::string Host = hostStamp();
  std::printf("host: %s\n", Host.c_str());
  std::printf("workload: %s (corpus seed %llu, request seed %llu, %u "
              "client%s) - %s\n",
              Spec->Name, (unsigned long long)Spec->CorpusSeed,
              (unsigned long long)A.Seed, Clients, Clients == 1 ? "" : "s",
              Spec->Why);

  // Set-up: generate and print the inputs (and start racd with its
  // clients connected). The host's speed drifts over tens of seconds, so
  // set-ups are spread over the run: SetupsBeforeLoop before the loop
  // (the last one is measured), then one in each pause of the timed
  // loop. setup_s is the median of the quickest of them.
  const std::string SocketBase =
      std::string(ScratchDir) + "/perfbench-" + std::to_string(::getpid());
  std::vector<double> SetupS, InputsS, RigS;
  std::string SetupError;
  auto SetUp = [&](std::vector<Input> &In, std::unique_ptr<ServiceRig> &R,
                   const std::string &Socket) {
    if (R)
      (void)R->stop();
    R.reset();
    In.clear();
    const Clock::time_point T0 = Clock::now();
    In = buildInputs(*Spec);
    const Clock::time_point T1 = Clock::now();
    if (Wire) {
      R = std::make_unique<ServiceRig>();
      if (Status S = R->start(Socket, Clients); !S.ok()) {
        SetupError = S.toString();
        return;
      }
    }
    const Clock::time_point T2 = Clock::now();
    SetupS.push_back(msBetween(T0, T2) / 1000);
    InputsS.push_back(msBetween(T0, T1) / 1000);
    RigS.push_back(msBetween(T1, T2) / 1000);
  };
  std::vector<Input> Inputs;
  std::unique_ptr<ServiceRig> Rig;
  {
    CpuHopper Hop;
    for (size_t I = 0; I < SetupsBeforeLoop && SetupError.empty(); ++I)
      SetUp(Inputs, Rig, SocketBase + ".sock");
  }
  if (!SetupError.empty()) {
    std::fprintf(stderr, "perfbench: cannot start racd: %s\n",
                 SetupError.c_str());
    return 1;
  }
  const size_t N = Inputs.size();

  // The timed closed loop, pausing for a set-up every PauseEverySeconds.
  const double LoopSeconds = A.Trace ? A.Seconds / 4 : A.Seconds;
  std::vector<std::vector<Observation>> Obs(Clients);
  for (auto &O : Obs)
    O.resize(N);
  LoopResult LR;
  {
    std::vector<Input> SpareInputs;
    std::unique_ptr<ServiceRig> SpareRig;
    const Pause SetUpAgain = [&] {
      if (SetupError.empty())
        SetUp(SpareInputs, SpareRig, SocketBase + "-spare.sock");
      SpareRig.reset();
      SpareInputs.clear();
    };
    CpuHopper Hop;
    if (Wire) {
      std::vector<RequestStream> Streams;
      for (unsigned C = 0; C < Clients; ++C)
        Streams.emplace_back(A.Seed, C, N);
      LR = runServiceLoop(*Rig, Inputs, Streams, Obs, LoopSeconds,
                          unsigned(4 * N / Clients), SetUpAgain);
    } else {
      LR = runInProcessLoop(Inputs, Obs[0], LoopSeconds,
                            Spec->Kind == WorkloadKind::Fig5 ? 1 : 0,
                            SetUpAgain);
    }
  }
  if (!SetupError.empty()) {
    std::fprintf(stderr, "perfbench: cannot start a second racd: %s\n",
                 SetupError.c_str());
    return 1;
  }
  const double PeakRssMb = peakRssMb();

  Problems P;
  if (!LR.FirstError.empty())
    P.add("request failed: " + LR.FirstError);

  // Service: the server's cache counters, then every distinct input
  // once more from a single client (results must not depend on the
  // client count), then shut racd down.
  service::CacheStats ServerCache;
  std::vector<WireReply> OneClient;
  if (Wire) {
    if (Status S = Rig->stats(ServerCache); !S.ok())
      P.add("stats request failed: " + S.toString());
    std::printf("cache: %llu hits, %llu misses, %llu evictions\n",
                (unsigned long long)ServerCache.Hits,
                (unsigned long long)ServerCache.Misses,
                (unsigned long long)ServerCache.Evictions);
    for (const Input &In : Inputs)
      OneClient.push_back(sendRequest(Rig->clientFd(0), In));
    if (Status S = Rig->stop(); !S.ok())
      P.add("racd shutdown failed: " + S.toString());
  }

  // The correctness oracle, off the timed path. In-process replies are
  // simulated directly; wire replies carry no register assignment, so
  // each distinct input is allocated once more on the rac path and
  // every wire reply must print identically to that allocation.
  Totals T;
  SimTimes ST;
  std::vector<std::string> OracleError(N);
  std::vector<Expected> Want(N);
  std::vector<double> UntracedMs(N);
  service::ServiceConfig LocalSC;
  LocalSC.CacheEnabled = false;
  LocalSC.Workers = 1;
  service::AllocationService Local(LocalSC);
  for (size_t I = 0; I < N; ++I) {
    const Input &In = Inputs[I];
    if (!Wire) {
      Observation &O = Obs[0][I];
      UntracedMs[I] = median(O.LatencyMs);
      if (!O.M) {
        OracleError[I] = "no converged reply to check";
        continue;
      }
      OracleError[I] = checkAllocation(In, *O.M, O.A, T, ST);
      Want[I] = {O.Printed, O.A.Stats.firstPassSpills()};
      continue;
    }
    service::ServiceRequest Req;
    Req.Source = In.Source;
    Req.Alloc = In.Alloc;
    Req.UseCache = false;
    const Clock::time_point T0 = Clock::now();
    service::ServiceReply Reply = Local.run(Req);
    std::string Printed;
    if (Reply.S.ok() && Reply.M->numFunctions() == 1)
      Printed = printFunction(*Reply.M, Reply.M->function(0));
    UntracedMs[I] = msBetween(T0, Clock::now());
    if (Printed.empty()) {
      OracleError[I] = "rac path failed: " + Reply.S.toString();
      continue;
    }
    const AllocationResult &RA = Reply.MA.Functions[0];
    OracleError[I] = checkAllocation(In, *Reply.M, RA, T, ST);
    Want[I] = {Printed, RA.Stats.firstPassSpills()};
    auto Same = [&](const std::string &Text, uint32_t Spills,
                    uint32_t Passes) {
      return Text == Printed && Spills == RA.Stats.totalSpills() &&
             Passes == RA.Stats.numPasses();
    };
    for (unsigned C = 0; C < Clients && OracleError[I].empty(); ++C) {
      const Observation &O = Obs[C][I];
      if (O.Seen && !Same(O.Printed, O.TotalSpills, O.Passes))
        OracleError[I] = "a reply at " + std::to_string(Clients) +
                         " clients differs from the rac path";
    }
    const WireReply &W = OneClient[I];
    if (OracleError[I].empty() &&
        (!W.Error.empty() || !Same(W.Printed, W.TotalSpills, W.Passes)))
      OracleError[I] = "the reply at 1 client differs from the rac path" +
                       (W.Error.empty() ? "" : ": " + W.Error);
  }

  // Every request of an input whose allocation is wrong has failed.
  uint64_t Attempted = 0, Failed = 0;
  for (size_t I = 0; I < N; ++I) {
    uint64_t Req = 0, Bad = 0;
    for (unsigned C = 0; C < Clients; ++C) {
      Req += Obs[C][I].Requests;
      Bad += Obs[C][I].Failed;
    }
    if (!OracleError[I].empty()) {
      P.add(Inputs[I].Name + ": " + OracleError[I]);
      Bad = Req;
    }
    Attempted += Req;
    Failed += Bad;
  }

  if (Spec->Kind == WorkloadKind::Fig5 &&
      (T.Spills != Fig5Spills || std::llround(T.SpillCost) != Fig5SpillCost ||
       T.Cycles != Fig5Cycles))
    P.add("fig5 totals " + std::to_string(T.Spills) + " / " +
          number(T.SpillCost) + " / " + std::to_string(T.Cycles) +
          " differ from the committed 764 / 414848 / 28579362");

  MetricSink M;
  std::vector<double> Lat = LR.LatencyMs;
  const double FunctionsPerS = double(Lat.size()) / LR.WallS;
  const double P50 = percentile(Lat, 50), P99 = percentile(Lat, 99);

  std::vector<double> QuickSetupS = SetupS;
  std::sort(QuickSetupS.begin(), QuickSetupS.end());
  QuickSetupS.resize(std::max<size_t>(
      1, size_t(std::lround(QuickSetupShare * double(SetupS.size())))));
  const double SetupSeconds = median(QuickSetupS);
  std::printf("setup: %.6f s, the median of the quickest %zu of %zu set-ups "
              "(median of all %.6f s: inputs %.6f s, racd start %.6f s)\n",
              SetupSeconds, QuickSetupS.size(), SetupS.size(), median(SetupS),
              median(InputsS), median(RigS));
  std::printf("inputs: %zu distinct; loop %.2f s, %zu timed requests, %llu "
              "attempted, %llu failed (failed_frac %s)\n",
              N, LR.WallS, Lat.size(), (unsigned long long)Attempted,
              (unsigned long long)Failed,
              number(Attempted ? double(Failed) / double(Attempted) : 0)
                  .c_str());
  std::printf("loop: %.2f functions/s; latency p50 %.4f ms, p99 %.4f ms over "
              "%zu samples (%zu beyond p99)\n",
              FunctionsPerS, P50, P99, Lat.size(),
              Lat.size() - size_t(std::ceil(0.99 * double(Lat.size()))));
  std::printf("totals: spills %llu, spill cost %s, spill instrs %llu, "
              "dynamic cycles %llu, code bytes %llu, passes %llu\n",
              (unsigned long long)T.Spills, number(T.SpillCost).c_str(),
              (unsigned long long)T.SpillInstrs, (unsigned long long)T.Cycles,
              (unsigned long long)T.CodeBytes, (unsigned long long)T.Passes);

  if (!A.Trace) {
    M.set("setup_s", SetupSeconds, "s");
    M.set("functions_per_s", FunctionsPerS, "1/s");
    M.set("latency_p50_ms", P50, "ms");
    M.set("latency_p99_ms", P99, "ms");
    M.set("peak_rss_mb", PeakRssMb, "MB");
    M.set("spills", double(T.Spills), "count");
    M.set("spill_cost", T.SpillCost, "cost");
    M.set("spill_instrs", double(T.SpillInstrs), "count");
    M.set("dynamic_cycles", double(T.Cycles), "cycles");
    M.set("code_bytes", double(T.CodeBytes), "bytes");
    M.set("passes", double(T.Passes), "count");
  } else {
    SpanLog Log;
    ReplayReport RR;
    {
      CpuHopper Hop;
      RR = replayInputs(Inputs, Want, Spec->Kind, A.Seconds / 4, Log);
    }
    if (RR.Inconsistent)
      P.add("traced replay disagrees with the end-to-end run in " +
            std::to_string(RR.Inconsistent) + " check(s); first: " +
            RR.FirstInconsistency);
    if (RR.CoveredMs < MinCoveredShare * RR.RootMs)
      P.add("layer spans cover only " +
            number(100 * RR.CoveredMs / RR.RootMs) + "% of the request path");
    M = RR.Layers;
    // The cache figures come from racd's traffic on service, and from
    // the replay's cold and warm requests on fig5, where every input is
    // sent once of each, so its hit_frac is 0.5 by construction. Mega
    // has neither: 0.
    const service::CacheStats &CS = Wire ? ServerCache : RR.Cache;
    const uint64_t Lookups = CS.Hits + CS.Misses;
    M.set("service.hit_frac", Lookups ? double(CS.Hits) / double(Lookups) : 0,
          "frac");
    M.set("service.evictions", double(CS.Evictions), "count");
    M.set("service.cache_peak_mb", double(CS.PeakBytes) / (1 << 20), "MB");
    M.set("service.hit_latency_p50_ms",
          median(Wire ? LR.HitLatencyMs : RR.HitMs), "ms");
    M.set("service.miss_latency_p50_ms",
          median(Wire ? LR.MissLatencyMs : RR.MissMs), "ms");
    M.set("sim.reference_ms", ST.ReferenceMs, "ms");
    M.set("sim.allocated_ms", ST.AllocatedMs, "ms");
    double Traced = 0, Untraced = 0;
    for (size_t I = 0; I < RR.TracedMs.size() && I < N; ++I) {
      Traced += RR.TracedMs[I];
      Untraced += UntracedMs[I];
    }
    M.set("trace.overhead_ms", Traced - Untraced, "ms");
    M.set("trace.uncovered_frac",
          RR.RootMs > 0 ? 1 - RR.CoveredMs / RR.RootMs : 0, "frac");
    std::printf("trace: %u repetition(s); request path %.3f ms traced vs "
                "%.3f ms untraced (overhead %.3f ms); layer spans cover "
                "%.2f%% of it\n",
                RR.Repetitions, Traced, Untraced, Traced - Untraced,
                RR.RootMs > 0 ? 100 * RR.CoveredMs / RR.RootMs : 0.0);
    const std::string TracePath = std::string(ScratchDir) +
                                  "/perfbench-trace-" + Spec->Name + "-" +
                                  std::to_string(A.Seed) + ".json";
    if (Log.writeChromeTrace(TracePath, Host))
      std::printf("trace: spans written to %s\n", TracePath.c_str());
    else
      P.add("cannot write " + TracePath);
  }

  for (const std::string &L : P.Lines)
    std::printf("FAILED: %s\n", L.c_str());
  printResult(P.Lines.empty() && Failed == 0, Attempted, Failed, M);
  return 0;
}
