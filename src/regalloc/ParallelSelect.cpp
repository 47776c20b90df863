//===- regalloc/ParallelSelect.cpp - Speculate-and-repair select ----------===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "regalloc/ParallelSelect.h"

#include "support/Budget.h"
#include "support/ParallelFor.h"
#include "support/ThreadPool.h"
#include "support/Trace.h"

#include <algorithm>
#include <atomic>
#include <cassert>

using namespace ra;

namespace {

constexpr uint32_t NoRank = ~0u; ///< Rank of nodes outside the stack.

/// Per-worker scratch, cacheline-separated so neighbor workers never
/// false-share. Mark/Stamp implement an O(K) color set with O(1) clear;
/// Out accumulates rank positions to hand back to the coordinator.
struct alignas(64) Worker {
  std::vector<uint32_t> Mark;
  uint32_t Stamp = 0;
  std::vector<uint32_t> Out;
};

/// The greedy rule on the atomically-published color array: lowest color
/// in [0, K) unused by neighbors ranked before \p MyRank, or -1. Sets
/// \p SawForeign when some constraining neighbor ranks before
/// \p ForeignBound — round 0 passes its chunk base, so the flag means
/// "this read may have been stale at the time" (within-chunk reads are
/// settled by the in-order walk; cross-chunk ones may not be written or
/// may still change).
int32_t mexColor(const InterferenceGraph &G, unsigned K,
                 const std::vector<uint32_t> &Rank,
                 const std::atomic<int32_t> *Colors, uint32_t Node,
                 uint32_t MyRank, size_t ForeignBound, bool &SawForeign,
                 Worker &W) {
  ++W.Stamp;
  for (uint32_t M : G.neighbors(Node)) {
    uint32_t RM = Rank[M];
    if (RM >= MyRank) // NoRank lands here: non-stack nodes never constrain
      continue;
    if (RM < ForeignBound)
      SawForeign = true;
    int32_t C = Colors[M].load(std::memory_order_relaxed);
    if (C >= 0)
      W.Mark[C] = W.Stamp;
  }
  for (unsigned C = 0; C < K; ++C)
    if (W.Mark[C] != W.Stamp)
      return int32_t(C);
  return -1;
}

} // namespace

int32_t ra::greedySelectColor(const InterferenceGraph &G, unsigned K,
                              const std::vector<uint32_t> &Rank,
                              const std::vector<int32_t> &Colors,
                              uint32_t Node) {
  uint32_t MyRank = Rank[Node];
  std::vector<bool> Used(K, false);
  for (uint32_t M : G.neighbors(Node))
    if (Rank[M] < MyRank && Colors[M] >= 0)
      Used[Colors[M]] = true;
  for (unsigned C = 0; C < K; ++C)
    if (!Used[C])
      return int32_t(C);
  return -1;
}

std::vector<uint32_t>
ra::findSelectConflicts(const InterferenceGraph &G, unsigned K,
                        const std::vector<uint32_t> &SelectOrder,
                        const std::vector<int32_t> &Colors) {
  std::vector<uint32_t> Rank(G.numNodes(), NoRank);
  for (size_t I = 0, S = SelectOrder.size(); I != S; ++I)
    Rank[SelectOrder[I]] = uint32_t(I);
  std::vector<uint32_t> Wrong;
  for (size_t I = 0, S = SelectOrder.size(); I != S; ++I) {
    uint32_t Node = SelectOrder[I];
    if (greedySelectColor(G, K, Rank, Colors, Node) != Colors[Node])
      Wrong.push_back(uint32_t(I));
  }
  return Wrong;
}

void ra::runParallelSelect(const InterferenceGraph &G, unsigned K,
                           const std::vector<uint32_t> &SelectOrder,
                           const SelectOptions &SO,
                           std::vector<int32_t> &ColorOf,
                           std::vector<SelectRound> &Rounds) {
  assert(K >= 1 && "need at least one color");
  Rounds.clear();
  const size_t S = SelectOrder.size();
  if (S == 0)
    return;
  assert(G.finalized() && "CSR must be packed before threads read it");
  const unsigned N = G.numNodes();
  assert(ColorOf.size() == N && "color array must cover the graph");

  unsigned Threads = ThreadPool::resolveJobs(SO.Threads);
  size_t ChunkSize = SO.ChunkSize ? SO.ChunkSize : (S + Threads - 1) / Threads;
  ChunkSize = std::max<size_t>(ChunkSize, 1);
  const size_t NumChunks = (S + ChunkSize - 1) / ChunkSize;
  Threads = unsigned(std::min<size_t>(Threads, NumChunks));

  std::vector<uint32_t> Rank(N, NoRank);
  for (size_t I = 0; I != S; ++I)
    Rank[SelectOrder[I]] = uint32_t(I);

  // Colors live in relaxed atomics for the duration: speculative rounds
  // read neighbors other threads may be writing, and relaxed is enough
  // because no round ever *depends* on seeing a fresh value — stale
  // reads only create conflicts that detection (which runs strictly
  // after a join, on settled memory) then repairs.
  std::vector<std::atomic<int32_t>> Color(N);
  for (unsigned I = 0; I != N; ++I)
    Color[I].store(-1, std::memory_order_relaxed);

  std::vector<Worker> Workers(Threads);
  for (Worker &W : Workers)
    W.Mark.assign(K, 0);

  // Candidate dedup flags, indexed by rank position; cleared back to 0
  // via the gathered list each round so the array is allocated once.
  std::vector<std::atomic<uint8_t>> Touched(S);
  for (size_t I = 0; I != S; ++I)
    Touched[I].store(0, std::memory_order_relaxed);

  // Concatenates per-worker Out lists in worker order.
  auto gatherOuts = [&Workers](std::vector<uint32_t> &Into) {
    Into.clear();
    for (Worker &W : Workers) {
      Into.insert(Into.end(), W.Out.begin(), W.Out.end());
      W.Out.clear();
    }
  };

  //===------------------------------------------------------------===//
  // Round 0: speculation. Thread T owns chunks T, T+Threads, ... and
  // Gauss-Seidel colors each chunk in rank order, so within-chunk (and
  // own-earlier-chunk) reads are settled; only nodes that consulted a
  // neighbor ranked before their chunk can disagree with the joined
  // state, and exactly those become detection candidates.
  //===------------------------------------------------------------===//
  forkJoin(Threads, [&](unsigned T) {
    Worker &W = Workers[T];
    for (size_t Chunk = T; Chunk < NumChunks; Chunk += Threads) {
      const size_t Begin = Chunk * ChunkSize;
      const size_t End = std::min(S, Begin + ChunkSize);
      for (size_t I = Begin; I != End; ++I) {
        uint32_t Node = SelectOrder[I];
        bool Foreign = false;
        int32_t C = mexColor(G, K, Rank, Color.data(), Node, uint32_t(I),
                             Begin, Foreign, W);
        Color[Node].store(C, std::memory_order_relaxed);
        if (Foreign)
          W.Out.push_back(uint32_t(I));
      }
    }
  });

  std::vector<uint32_t> Candidates, Conflicts;
  gatherOuts(Candidates);
  std::sort(Candidates.begin(), Candidates.end());

  // Exact detection: a candidate is wrong iff its color differs from
  // the mex over the joined state. Equality — not mere validity — is
  // what makes the fixpoint the sequential coloring (a stale read can
  // leave a valid-but-too-high color). Batches cover the sorted
  // candidate list contiguously, so the concatenated conflict list is
  // already in rank order.
  auto detect = [&](const std::vector<uint32_t> &Cand) {
    parallelBatches(Cand.size(), Threads, [&](unsigned B, size_t Lo,
                                              size_t Hi) {
      Worker &W = Workers[B];
      for (size_t X = Lo; X != Hi; ++X) {
        uint32_t I = Cand[X];
        uint32_t Node = SelectOrder[I];
        bool Unused = false;
        int32_t Want =
            mexColor(G, K, Rank, Color.data(), Node, I, 0, Unused, W);
        if (Want != Color[Node].load(std::memory_order_relaxed))
          W.Out.push_back(I);
      }
    });
    gatherOuts(Conflicts);
  };

  detect(Candidates);
  Rounds.push_back({uint32_t(S), uint32_t(Candidates.size()),
                    uint32_t(Conflicts.size())});

  //===------------------------------------------------------------===//
  // Repair rounds: re-color exactly the wrong set, then re-detect the
  // only equations whose inputs changed — the re-colored nodes and
  // their higher-ranked neighbors. The minimum wrong rank strictly
  // increases each round (its lower-ranked neighbors are all correct,
  // absent from the conflict list, and thus never concurrently
  // rewritten), so the loop terminates in at most S rounds; MaxRounds
  // is a safety valve behind which one sequential sweep finishes
  // exactly.
  //===------------------------------------------------------------===//
  while (!Conflicts.empty()) {
    if (SO.Governor && !SO.Governor->checkpoint())
      break; // over budget mid-repair: colors stay partial, caller discards
    if (Rounds.size() > SO.MaxRounds) {
      Worker &W = Workers[0];
      for (size_t I = 0; I != S; ++I) {
        uint32_t Node = SelectOrder[I];
        bool Unused = false;
        Color[Node].store(
            mexColor(G, K, Rank, Color.data(), Node, uint32_t(I), 0, Unused,
                     W),
            std::memory_order_relaxed);
      }
      Rounds.push_back({uint32_t(S), uint32_t(S), 0});
      break;
    }

    const uint32_t Recolored = uint32_t(Conflicts.size());
    std::vector<uint32_t> Repair;
    Repair.swap(Conflicts);

    parallelBatches(Repair.size(), Threads, [&](unsigned B, size_t Lo,
                                                size_t Hi) {
      Worker &W = Workers[B];
      for (size_t X = Lo; X != Hi; ++X) {
        uint32_t I = Repair[X];
        uint32_t Node = SelectOrder[I];
        bool Unused = false;
        Color[Node].store(
            mexColor(G, K, Rank, Color.data(), Node, I, 0, Unused, W),
            std::memory_order_relaxed);
      }
    });

    parallelBatches(Repair.size(), Threads, [&](unsigned B, size_t Lo,
                                                size_t Hi) {
      Worker &W = Workers[B];
      for (size_t X = Lo; X != Hi; ++X) {
        uint32_t I = Repair[X];
        if (!Touched[I].exchange(1, std::memory_order_relaxed))
          W.Out.push_back(I);
        for (uint32_t M : G.neighbors(SelectOrder[I])) {
          uint32_t RM = Rank[M];
          if (RM != NoRank && RM > I &&
              !Touched[RM].exchange(1, std::memory_order_relaxed))
            W.Out.push_back(RM);
        }
      }
    });
    gatherOuts(Candidates);
    std::sort(Candidates.begin(), Candidates.end());
    for (uint32_t I : Candidates)
      Touched[I].store(0, std::memory_order_relaxed);

    detect(Candidates);
    Rounds.push_back({Recolored, uint32_t(Candidates.size()),
                      uint32_t(Conflicts.size())});
  }

  for (size_t I = 0; I != S; ++I) {
    uint32_t Node = SelectOrder[I];
    ColorOf[Node] = Color[Node].load(std::memory_order_relaxed);
  }

#ifndef NDEBUG
  // The fixpoint property IS the byte-identity guarantee; re-assert it
  // from scratch in debug builds. A budget trip legitimately abandons
  // the fixpoint — the partial coloring is discarded by the caller.
  assert((SO.Governor && SO.Governor->exhausted()) ||
         (findSelectConflicts(G, K, SelectOrder, ColorOf).empty() &&
          "parallel select did not reach the sequential fixpoint"));
#endif

  if (trace::enabled()) {
    // Per-round shape under "sched": round counts and conflict totals
    // vary with thread scheduling (like wall time), so normalizedLog
    // omits them and golden/determinism comparisons stay exact.
    for (size_t R = 0; R != Rounds.size(); ++R)
      trace::instant("SelectRound", "sched",
                     "round=" + std::to_string(R) +
                         ";colored=" + std::to_string(Rounds[R].Colored) +
                         ";checked=" + std::to_string(Rounds[R].Checked) +
                         ";conflicts=" + std::to_string(Rounds[R].Conflicts));
  }
}
