//===- analysis/Liveness.cpp - Backward live-variable analysis ------------===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "analysis/Liveness.h"

#include "support/Trace.h"

#include <cassert>
#include <iterator>
#include <numeric>

using namespace ra;

namespace {

/// Advances a mark tag, first clearing \p Marks when the tag would wrap
/// so that no stale mark can equal a fresh tag.
uint32_t nextTag(uint32_t &Tag, std::vector<uint32_t> &Marks) {
  if (Tag == ~0u) {
    std::fill(Marks.begin(), Marks.end(), 0);
    Tag = 0;
  }
  return ++Tag;
}

constexpr uint32_t Untracked = ~0u;
/// Set in a group's Size once a register's first mention in a block is
/// a use: only such a register is live into any block.
constexpr uint32_t Exposed = 1u << 31;

/// Notes each register \p B mentions whose index \p IndexOf gives (not
/// \c Untracked) once, as (index, block << 1 | 1 if the first mention is
/// its def, 0 if it is a use). \p Group[index] counts the blocks noted
/// in its Size, plus \c Exposed, and holds the last one's id + 1 in its
/// Begin.
template <typename IndexOfT, typename SliceT>
void scanBlock(const BasicBlock &B, IndexOfT IndexOf, SliceT *Group,
               std::vector<std::pair<uint32_t, uint32_t>> &Occs) {
  for (const Instruction &I : B.Insts) {
    // The uses come first; the def, Ops[0], is taken last, as O == E.
    unsigned First = I.hasDef() ? 1 : 0;
    for (unsigned O = First, E = I.Ops.size(); O <= E; ++O) {
      unsigned Idx = O == E ? 0 : O;
      if ((O == E && !First) || !I.Ops[Idx].isReg())
        continue;
      uint32_t K = IndexOf(I.Ops[Idx].Reg);
      if (K == Untracked || Group[K].Begin == B.Id + 1)
        continue;
      Group[K].Begin = B.Id + 1;
      Group[K].Size = (Group[K].Size + 1) | (O == E ? 0 : Exposed);
      Occs.push_back({K, B.Id << 1 | (O == E)});
    }
  }
}

/// Repacks \p Flat in slice order once its stale entries outnumber both
/// the live ones and the slices, so the repack costs no more than the
/// stale entries it drops.
template <typename T, typename SliceT>
void packIfStale(std::vector<T> &Flat, std::vector<SliceT> &Of,
                 size_t &Stale) {
  if (Stale <= Flat.size() - Stale || Stale <= Of.size())
    return;
  std::vector<T> Packed;
  Packed.reserve(Flat.size() - Stale);
  for (SliceT &S : Of) {
    uint32_t Begin = Packed.size();
    Packed.insert(Packed.end(), Flat.begin() + S.Begin,
                  Flat.begin() + S.Begin + S.Size);
    S.Begin = Begin;
  }
  Flat = std::move(Packed);
  Stale = 0;
}

} // namespace

Liveness Liveness::compute(const Function &F, const CFG &G) {
  RA_TRACE_SPAN("Liveness", "analysis");
  Liveness L;
  unsigned NB = F.numBlocks(), NR = F.numVRegs();
  L.InOf.assign(NR, {});
  L.OutOf.assign(NB, {});
  L.Marks.assign(NB, 0);
  std::vector<VRegId> Live = L.search(F, G, {}, {});

  // The search left each register's live-in blocks in the order it
  // found them, register after register. Listing them by block puts
  // each block's live-in registers in ascending order; listing those
  // back by register, block after block, sorts each register's blocks.
  std::vector<uint32_t> InFirst(NB + 1, 0);
  for (uint32_t B : L.InFlat)
    ++InFirst[B + 1];
  std::partial_sum(InFirst.begin(), InFirst.end(), InFirst.begin());
  std::vector<VRegId> BlockIn(L.InFlat.size());
  std::vector<uint32_t> Cursor(InFirst.begin(), InFirst.end() - 1);
  for (VRegId R : Live)
    for (uint32_t B : L.liveInBlocks(R))
      BlockIn[Cursor[B]++] = R;
  for (uint32_t B = 0; B < NB; ++B) // each Begin serves as R's cursor
    for (uint32_t K = InFirst[B]; K != InFirst[B + 1]; ++K)
      L.InFlat[L.InOf[BlockIn[K]].Begin++] = B;
  for (VRegId R : Live)
    L.InOf[R].Begin -= L.InOf[R].Size;

  // LiveOut(B) is the union of its successors' live-in lists, about as
  // many entries as there are live-in ones.
  L.OutFlat.reserve(BlockIn.size() + NB);
  std::vector<VRegId> Merged;
  for (uint32_t B = 0; B < NB; ++B) {
    uint32_t Begin = L.OutFlat.size();
    for (uint32_t S : G.succs(B)) {
      auto In = BlockIn.begin() + InFirst[S];
      auto InEnd = BlockIn.begin() + InFirst[S + 1];
      if (L.OutFlat.size() == Begin) {
        L.OutFlat.insert(L.OutFlat.end(), In, InEnd);
        continue;
      }
      Merged.clear();
      std::set_union(L.OutFlat.begin() + Begin, L.OutFlat.end(), In, InEnd,
                     std::back_inserter(Merged));
      L.OutFlat.resize(Begin);
      L.OutFlat.insert(L.OutFlat.end(), Merged.begin(), Merged.end());
    }
    L.OutOf[B] = {Begin, uint32_t(L.OutFlat.size() - Begin)};
  }
  return L;
}

std::vector<uint32_t> Liveness::search(const Function &F, const CFG &G,
                                       const std::vector<VRegId> &Regs,
                                       const std::vector<uint32_t> &Blocks) {
  // Scan: each block a searched register occurs in, once, tagged with
  // the register's index in the search, as block << 1, plus 1 when the
  // first occurrence there is a def and 0 when it is a use (an
  // upward-exposed one). Group[index] keeps the scan's marks and counts;
  // a whole solve keeps them in InOf itself, zero on entry, whose slots
  // the search below overwrites one by one.
  const bool All = Regs.empty();
  const unsigned N = All ? F.numVRegs() : Regs.size();
  std::vector<Slice> Local(All ? 0 : N);
  Slice *Group = All ? InOf.data() : Local.data();
  std::vector<std::pair<uint32_t, uint32_t>> Occs; // (index, block << 1 | def)
  if (All) {
    Occs.reserve(N + F.numBlocks());
    InFlat.reserve(N + F.numBlocks());
    for (const BasicBlock &B : F.blocks())
      scanBlock(B, [](VRegId R) { return R; }, Group, Occs);
  } else {
    const uint64_t *SolvingBits = Solving.data();
    auto IndexOf = [&](VRegId R) -> uint32_t {
      if (!(SolvingBits[R / 64] >> (R % 64) & 1))
        return Untracked;
      return std::lower_bound(Regs.begin(), Regs.end(), R) - Regs.begin();
    };
    for (uint32_t B : Blocks)
      scanBlock(F.block(B), IndexOf, Group, Occs);
  }

  // Only a register with an upward-exposed use is live into any block:
  // group the occurrences of those by register. Every other one is
  // live nowhere.
  std::vector<uint32_t> Live; // their indexes, ascending
  uint32_t Sum = 0;
  for (uint32_t K = 0; K < N; ++K) {
    Slice &S = Group[K];
    if (!(S.Size & Exposed)) {
      InOf[All ? K : Regs[K]] = S = {};
      continue;
    }
    Live.push_back(K);
    S.Begin = Sum;
    Sum += std::exchange(S.Size, Exposed) & ~Exposed;
  }
  std::vector<uint32_t> ByReg(Sum);
  for (auto [K, Occ] : Occs)
    if (Group[K].Size & Exposed)
      ByReg[Group[K].Begin + (Group[K].Size++ & ~Exposed)] = Occ;

  // Search each register back from its upward-exposed uses. A block is
  // marked once it is live-in or defines the register, so the walk over
  // predecessors, which uses the register's list of live-in blocks as
  // its queue, stops at both.
  for (uint32_t K : Live) {
    auto O = ByReg.begin() + Group[K].Begin;
    auto OE = O + (Group[K].Size & ~Exposed);
    uint32_t Begin = InFlat.size(), Tag = nextTag(SearchTag, Marks);
    for (; O != OE; ++O) {
      Marks[*O >> 1] = Tag;
      if (!(*O & 1))
        InFlat.push_back(*O >> 1);
    }
    for (uint32_t Next = Begin; Next != InFlat.size(); ++Next)
      for (uint32_t P : G.preds(InFlat[Next]))
        if (Marks[P] != Tag) {
          Marks[P] = Tag;
          InFlat.push_back(P);
        }
    InOf[All ? K : Regs[K]] = {Begin, uint32_t(InFlat.size() - Begin)};
  }
  return Live;
}

void Liveness::update(const Function &F, const CFG &G,
                      const std::vector<RegBlock> &Occurs) {
  RA_TRACE_SPAN("LivenessUpdate", "analysis");
  assert(InOf.size() == F.numVRegs() && Marks.size() == F.numBlocks() &&
         "update needs a solve of the same function");
  if (Solving.empty()) { // the first update sizes its own scratch
    Solving.assign((F.numVRegs() + 63) / 64, 0);
    BlockBits.assign((F.numBlocks() + 63) / 64, 0);
    BlockCount.assign(F.numBlocks(), 0);
  }
  // The changed registers, ascending, and the blocks they occur in.
  std::vector<VRegId> Regs;
  std::vector<uint32_t> Blocks;
  Regs.reserve(Occurs.size());
  Blocks.reserve(Occurs.size());
  uint32_t Tag = nextTag(SearchTag, Marks);
  for (auto [R, B] : Occurs) {
    uint64_t &Word = Solving[R / 64], Bit = uint64_t(1) << (R % 64);
    if (!(Word & Bit)) {
      Word |= Bit;
      Regs.push_back(R);
    }
    if (Marks[B] != Tag) {
      Marks[B] = Tag;
      Blocks.push_back(B);
    }
  }
  if (Regs.empty())
    return;
  std::sort(Regs.begin(), Regs.end());

  // A live-out list changes only at a predecessor of a changed
  // register's live-in block, before the edit or after it.
  std::vector<uint32_t> Touched;
  Tag = nextTag(SearchTag, Marks);
  for (VRegId R : Regs)
    for (uint32_t B : liveInBlocks(R))
      for (uint32_t P : G.preds(B))
        if (Marks[P] != Tag) {
          Marks[P] = Tag;
          Touched.push_back(P);
        }
  for (VRegId R : Regs)
    InStale += InOf[R].Size;
  search(F, G, Regs, Blocks);
  for (VRegId R : Regs)
    sortBlocks({InFlat.data() + InOf[R].Begin, InOf[R].Size});
  packIfStale(InFlat, InOf, InStale);

  // Each changed register is now live out of the predecessors of its
  // live-in blocks: note those (block, register) pairs, registers
  // ascending, and count them per block.
  for (uint32_t P : Touched)
    BlockBits[P / 64] |= uint64_t(1) << (P % 64);
  std::vector<std::pair<uint32_t, VRegId>> LiveOutOf;
  for (VRegId R : Regs) {
    uint32_t RTag = nextTag(SearchTag, Marks);
    for (uint32_t B : liveInBlocks(R))
      for (uint32_t P : G.preds(B))
        if (Marks[P] != RTag) {
          Marks[P] = RTag;
          LiveOutOf.push_back({P, R});
          ++BlockCount[P];
          uint64_t &Word = BlockBits[P / 64], Bit = uint64_t(1) << (P % 64);
          if (!(Word & Bit)) {
            Word |= Bit;
            Touched.push_back(P);
          }
        }
  }
  // Group them by block in the order of Touched; filled back to front,
  // so that BlockCount[B] ends at the start of B's group.
  uint32_t Sum = 0;
  for (uint32_t P : Touched)
    Sum = BlockCount[P] += Sum;
  std::vector<VRegId> ByBlock(LiveOutOf.size());
  for (auto It = LiveOutOf.rbegin(); It != LiveOutOf.rend(); ++It)
    ByBlock[--BlockCount[It->first]] = It->second;

  // Rebuild each touched list: its registers that did not change,
  // merged with the changed ones now live out. The result goes back in
  // place when it fits.
  std::vector<VRegId> Rebuilt;
  auto Changed = [&](VRegId R) { return Solving[R / 64] >> (R % 64) & 1; };
  for (size_t T = 0; T < Touched.size(); ++T) {
    uint32_t P = Touched[T];
    auto Add = ByBlock.begin() + BlockCount[P];
    auto AddEnd = T + 1 < Touched.size()
                      ? ByBlock.begin() + BlockCount[Touched[T + 1]]
                      : ByBlock.end();
    BlockCount[P] = 0;
    BlockBits[P / 64] = 0; // every bit set belongs to a touched block
    Slice &S = OutOf[P];
    Rebuilt.clear();
    for (VRegId R : liveOut(P)) {
      if (Changed(R))
        continue;
      for (; Add != AddEnd && *Add < R; ++Add)
        Rebuilt.push_back(*Add);
      Rebuilt.push_back(R);
    }
    Rebuilt.insert(Rebuilt.end(), Add, AddEnd);
    if (Rebuilt.size() <= S.Size) {
      std::copy(Rebuilt.begin(), Rebuilt.end(), OutFlat.begin() + S.Begin);
      OutStale += S.Size - Rebuilt.size();
      S.Size = Rebuilt.size();
    } else {
      OutStale += S.Size;
      S = {uint32_t(OutFlat.size()), uint32_t(Rebuilt.size())};
      OutFlat.insert(OutFlat.end(), Rebuilt.begin(), Rebuilt.end());
    }
  }
  packIfStale(OutFlat, OutOf, OutStale);
  for (VRegId R : Regs)
    Solving[R / 64] = 0; // every bit set belongs to one of Regs
}

void Liveness::sortBlocks(std::span<uint32_t> List) {
  if (List.size() < BlockBits.size()) {
    std::sort(List.begin(), List.end());
    return;
  }
  for (uint32_t B : List)
    BlockBits[B / 64] |= uint64_t(1) << (B % 64);
  auto Out = List.begin();
  for (uint32_t W = 0; W < BlockBits.size(); ++W)
    for (uint64_t Bits = std::exchange(BlockBits[W], 0); Bits;
         Bits &= Bits - 1)
      *Out++ = W * 64 + __builtin_ctzll(Bits);
}
