//===- support/BitVector.h - Dense dynamic bit set -------------*- C++ -*-===//
//
// Part of briggs-regalloc, an implementation of Briggs, Cooper, Kennedy &
// Torczon, "Coloring Heuristics for Register Allocation", PLDI 1989.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A dense, dynamically sized bit vector used by the dataflow analyses and
/// the interference graph. Word-parallel union/intersect/subtract keep
/// liveness solving fast on a single core.
///
//===----------------------------------------------------------------------===//

#ifndef RA_SUPPORT_BITVECTOR_H
#define RA_SUPPORT_BITVECTOR_H

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace ra {

/// Dense bit set over the index range [0, size()).
class BitVector {
public:
  BitVector() = default;

  /// Constructs a vector of \p NumBits bits, all set to \p Value.
  explicit BitVector(unsigned NumBits, bool Value = false) {
    resize(NumBits, Value);
  }

  /// Number of bits tracked (not the number set).
  unsigned size() const { return NumBits; }

  bool empty() const { return NumBits == 0; }

  /// Grows or shrinks to \p NewSize bits; new bits take \p Value.
  void resize(unsigned NewSize, bool Value = false);

  /// Sets every bit to false without changing the size.
  void clearAll();

  /// Sets every bit to true.
  void setAll();

  bool test(unsigned Idx) const {
    assert(Idx < NumBits && "bit index out of range");
    return (Words[Idx / WordBits] >> (Idx % WordBits)) & 1;
  }

  void set(unsigned Idx) {
    assert(Idx < NumBits && "bit index out of range");
    Words[Idx / WordBits] |= WordType(1) << (Idx % WordBits);
  }

  void reset(unsigned Idx) {
    assert(Idx < NumBits && "bit index out of range");
    Words[Idx / WordBits] &= ~(WordType(1) << (Idx % WordBits));
  }

  /// Sets bit \p Idx and returns true iff it was previously clear.
  bool testAndSet(unsigned Idx) {
    if (test(Idx))
      return false;
    set(Idx);
    return true;
  }

  /// Clears bit \p Idx and returns true iff it was previously set.
  bool testAndReset(unsigned Idx) {
    if (!test(Idx))
      return false;
    reset(Idx);
    return true;
  }

  /// Number of set bits.
  unsigned count() const;

  /// True iff no bit is set.
  bool none() const;

  /// True iff at least one bit is set.
  bool any() const { return !none(); }

  /// This |= Other. Returns true iff any bit changed.
  bool unionWith(const BitVector &Other);

  /// This &= Other.
  void intersectWith(const BitVector &Other);

  /// This &= ~Other.
  void subtract(const BitVector &Other);

  /// True iff this and \p Other share at least one set bit.
  bool intersects(const BitVector &Other) const;

  bool operator==(const BitVector &Other) const {
    return NumBits == Other.NumBits && Words == Other.Words;
  }

  /// Index of the first set bit, or -1 if none.
  int findFirst() const;

  /// Index of the first set bit strictly after \p Prev, or -1 if none.
  int findNext(unsigned Prev) const;

  /// The backing words, bit I at bit I % 64 of word I / 64. Bits past
  /// size() are zero.
  std::span<const uint64_t> words() const { return Words; }

  /// Calls \p Fn(Idx) for every set bit in ascending order.
  template <typename CallableT> void forEachSetBit(CallableT Fn) const {
    for (unsigned W = 0, E = Words.size(); W != E; ++W) {
      WordType Word = Words[W];
      while (Word) {
        unsigned Bit = __builtin_ctzll(Word);
        Fn(W * WordBits + Bit);
        Word &= Word - 1;
      }
    }
  }

private:
  using WordType = uint64_t;
  static constexpr unsigned WordBits = 64;

  /// Clears any bits in the last word beyond NumBits.
  void clearUnusedBits();

  unsigned NumBits = 0;
  std::vector<WordType> Words;
};

} // namespace ra

#endif // RA_SUPPORT_BITVECTOR_H
