//===- support/TwoLevelBitSet.h - Bit set with a word summary --*- C++ -*-===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A dense bit set with a second level: one summary bit per 64-bit word,
/// set exactly when that word is non-zero. Visiting the set costs the
/// summary words plus the non-zero words, not every word of the range,
/// and still runs in ascending order.
///
/// The interference walk and the metrics walk keep their live set in
/// one: both visit the set once per instruction while only a few
/// registers are live, where a dense bit vector scan would touch all
/// N/64 words each time, and both reseed it from a block's live-out
/// list at every block. This is the idea of Briggs & Torczon's sparse
/// set ("An Efficient Representation for Sparse Sets", LOPLAS 1993)
/// with the ascending visit order that keeps neighbor rows stable.
///
//===----------------------------------------------------------------------===//

#ifndef RA_SUPPORT_TWOLEVELBITSET_H
#define RA_SUPPORT_TWOLEVELBITSET_H

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <span>
#include <vector>

namespace ra {

/// Bit set over [0, size()) with a one-bit-per-word summary.
class TwoLevelBitSet {
public:
  /// An empty set over [0, \p Size).
  explicit TwoLevelBitSet(unsigned Size)
      : NumBits(Size), Words((Size + WordBits - 1) / WordBits),
        Summary((Words.size() + WordBits - 1) / WordBits) {}

  unsigned size() const { return NumBits; }

  bool test(unsigned Idx) const {
    assert(Idx < NumBits && "bit index out of range");
    return (Words[Idx / WordBits] >> (Idx % WordBits)) & 1;
  }

  void set(unsigned Idx) {
    assert(Idx < NumBits && "bit index out of range");
    unsigned W = Idx / WordBits;
    Words[W] |= uint64_t(1) << (Idx % WordBits);
    Summary[W / WordBits] |= uint64_t(1) << (W % WordBits);
  }

  void reset(unsigned Idx) {
    assert(Idx < NumBits && "bit index out of range");
    unsigned W = Idx / WordBits;
    Words[W] &= ~(uint64_t(1) << (Idx % WordBits));
    if (Words[W] == 0)
      Summary[W / WordBits] &= ~(uint64_t(1) << (W % WordBits));
  }

  /// Becomes the set of \p Bits, best given in ascending order. Clearing
  /// visits only the non-zero words, so a small set costs its own words,
  /// not the range's.
  void assign(std::span<const uint32_t> Bits) {
    for (unsigned S = 0, SE = Summary.size(); S != SE; ++S) {
      for (uint64_t NonZero = Summary[S]; NonZero; NonZero &= NonZero - 1)
        Words[S * WordBits + __builtin_ctzll(NonZero)] = 0;
      Summary[S] = 0;
    }
    for (size_t K = 0, E = Bits.size(); K != E;) {
      unsigned W = Bits[K] / WordBits;
      uint64_t Word = 0;
      for (; K != E && Bits[K] / WordBits == W; ++K) {
        assert(Bits[K] < NumBits && "bit index out of range");
        Word |= uint64_t(1) << (Bits[K] % WordBits);
      }
      Words[W] |= Word;
      Summary[W / WordBits] |= uint64_t(1) << (W % WordBits);
    }
  }

  /// Calls \p Fn(Idx) for every set bit in ascending order. \p Fn must
  /// not modify the set.
  template <typename CallableT> void forEachSetBit(CallableT Fn) const {
    for (unsigned S = 0, SE = Summary.size(); S != SE; ++S) {
      uint64_t NonZero = Summary[S];
      while (NonZero) {
        unsigned W = S * WordBits + __builtin_ctzll(NonZero);
        NonZero &= NonZero - 1;
        uint64_t Word = Words[W];
        do {
          Fn(W * WordBits + __builtin_ctzll(Word));
          Word &= Word - 1;
        } while (Word);
      }
    }
  }

private:
  static constexpr unsigned WordBits = 64;

  unsigned NumBits;
  std::vector<uint64_t> Words;   ///< The bits.
  std::vector<uint64_t> Summary; ///< Bit W set iff Words[W] != 0.
};

} // namespace ra

#endif // RA_SUPPORT_TWOLEVELBITSET_H
