//===- support/TriangularBitMatrix.h - Symmetric bit matrix ----*- C++ -*-===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Lower-triangular bit matrix for symmetric relations over node ids.
/// Chaitin's allocator keeps the interference relation in exactly this
/// shape for O(1) membership tests, alongside adjacency vectors for
/// iteration [CACC 81]. Here only conservative coalescing uses it, for
/// its all-vreg interference tests; the interference graphs keep
/// adjacency alone.
///
//===----------------------------------------------------------------------===//

#ifndef RA_SUPPORT_TRIANGULARBITMATRIX_H
#define RA_SUPPORT_TRIANGULARBITMATRIX_H

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <vector>

namespace ra {

/// Symmetric boolean relation over {0, ..., N-1} stored as the strictly
/// lower triangle of an N x N bit matrix. The diagonal is not stored:
/// a node never relates to itself. Bit positions are 64-bit: the
/// triangle outgrows 32 bits from 65,537 nodes on.
class TriangularBitMatrix {
public:
  TriangularBitMatrix() = default;

  explicit TriangularBitMatrix(unsigned NumNodes) { reset(NumNodes); }

  /// Discards all pairs and resizes to \p NumNodes nodes.
  void reset(unsigned NumNodes) {
    N = NumNodes;
    uint64_t NumBits = N < 2 ? 0 : uint64_t(N) * (N - 1) / 2;
    Words = std::vector<uint64_t>((NumBits + WordBits - 1) / WordBits);
  }

  unsigned numNodes() const { return N; }

  /// Marks the unordered pair {A, B}. A must differ from B.
  void set(unsigned A, unsigned B) {
    uint64_t I = checkedIndex(A, B);
    Words[I / WordBits] |= uint64_t(1) << (I % WordBits);
  }

  /// Clears the unordered pair {A, B}.
  void clear(unsigned A, unsigned B) {
    uint64_t I = checkedIndex(A, B);
    Words[I / WordBits] &= ~(uint64_t(1) << (I % WordBits));
  }

  /// True iff the unordered pair {A, B} is marked. A == B returns false.
  bool test(unsigned A, unsigned B) const {
    if (A == B)
      return false;
    uint64_t I = checkedIndex(A, B);
    return (Words[I / WordBits] >> (I % WordBits)) & 1;
  }

  /// Marks {A, B}; returns true iff the pair was previously clear.
  bool testAndSet(unsigned A, unsigned B) {
    uint64_t I = checkedIndex(A, B);
    uint64_t &Word = Words[I / WordBits], Bit = uint64_t(1) << (I % WordBits);
    if (Word & Bit)
      return false;
    Word |= Bit;
    return true;
  }

  /// Bit position of the unordered pair {A, B} in the lower triangle.
  static uint64_t index(unsigned A, unsigned B) {
    assert(A != B && "no self edges in a triangular matrix");
    uint64_t Hi = std::max(A, B), Lo = std::min(A, B);
    return Hi * (Hi - 1) / 2 + Lo;
  }

private:
  static constexpr unsigned WordBits = 64;

  uint64_t checkedIndex(unsigned A, unsigned B) const {
    assert(A < N && B < N && "node id out of range");
    return index(A, B);
  }

  unsigned N = 0;
  std::vector<uint64_t> Words;
};

} // namespace ra

#endif // RA_SUPPORT_TRIANGULARBITMATRIX_H
