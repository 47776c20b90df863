//===- tests/SupportTest.cpp - support library unit tests -----------------===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "TriangularBitMatrix.h"

#include "support/BitVector.h"
#include "support/Rng.h"
#include "support/Status.h"
#include "support/Table.h"
#include "support/TwoLevelBitSet.h"
#include "support/UnionFind.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <set>

using namespace ra;

namespace {

TEST(BitVectorTest, BasicSetTestReset) {
  BitVector BV(130);
  EXPECT_EQ(BV.size(), 130u);
  EXPECT_TRUE(BV.none());
  BV.set(0);
  BV.set(64);
  BV.set(129);
  EXPECT_TRUE(BV.test(0));
  EXPECT_TRUE(BV.test(64));
  EXPECT_TRUE(BV.test(129));
  EXPECT_FALSE(BV.test(1));
  EXPECT_EQ(BV.count(), 3u);
  BV.reset(64);
  EXPECT_FALSE(BV.test(64));
  EXPECT_EQ(BV.count(), 2u);
}

TEST(BitVectorTest, TestAndSet) {
  BitVector BV(10);
  EXPECT_TRUE(BV.testAndSet(3));
  EXPECT_FALSE(BV.testAndSet(3));
  EXPECT_TRUE(BV.test(3));
}

TEST(BitVectorTest, SetAllRespectsTailBits) {
  BitVector BV(70);
  BV.setAll();
  EXPECT_EQ(BV.count(), 70u);
  BV.resize(75);
  EXPECT_EQ(BV.count(), 70u) << "new bits default to false";
}

TEST(BitVectorTest, ResizeWithValueTrue) {
  BitVector BV(10);
  BV.resize(80, true);
  EXPECT_EQ(BV.count(), 70u);
  for (unsigned I = 0; I < 10; ++I)
    EXPECT_FALSE(BV.test(I));
  for (unsigned I = 10; I < 80; ++I)
    EXPECT_TRUE(BV.test(I));
}

TEST(BitVectorTest, SetOperations) {
  BitVector A(100), B(100);
  A.set(1);
  A.set(50);
  B.set(50);
  B.set(99);
  EXPECT_TRUE(A.intersects(B));
  BitVector U = A;
  EXPECT_TRUE(U.unionWith(B));
  EXPECT_FALSE(U.unionWith(B)) << "second union changes nothing";
  EXPECT_EQ(U.count(), 3u);
  BitVector I = A;
  I.intersectWith(B);
  EXPECT_EQ(I.count(), 1u);
  EXPECT_TRUE(I.test(50));
  BitVector S = A;
  S.subtract(B);
  EXPECT_EQ(S.count(), 1u);
  EXPECT_TRUE(S.test(1));
}

TEST(BitVectorTest, FindFirstAndNext) {
  BitVector BV(200);
  EXPECT_EQ(BV.findFirst(), -1);
  BV.set(7);
  BV.set(64);
  BV.set(199);
  EXPECT_EQ(BV.findFirst(), 7);
  EXPECT_EQ(BV.findNext(7), 64);
  EXPECT_EQ(BV.findNext(64), 199);
  EXPECT_EQ(BV.findNext(199), -1);
}

TEST(BitVectorTest, ForEachMatchesReferenceSet) {
  Rng R(123);
  BitVector BV(500);
  std::set<unsigned> Ref;
  for (int I = 0; I < 200; ++I) {
    unsigned Bit = unsigned(R.nextBelow(500));
    BV.set(Bit);
    Ref.insert(Bit);
  }
  std::set<unsigned> Seen;
  BV.forEachSetBit([&](unsigned Bit) { Seen.insert(Bit); });
  EXPECT_EQ(Seen, Ref);
  EXPECT_EQ(BV.count(), Ref.size());
}

/// Set bits of \p S in visit order.
std::vector<unsigned> visitOrder(const TwoLevelBitSet &S) {
  std::vector<unsigned> Out;
  S.forEachSetBit([&](unsigned Bit) { Out.push_back(Bit); });
  return Out;
}

std::vector<unsigned> setBits(const BitVector &BV) {
  std::vector<unsigned> Out;
  BV.forEachSetBit([&](unsigned Bit) { Out.push_back(Bit); });
  return Out;
}

TEST(TwoLevelBitSetTest, RandomOpsMatchBitVector) {
  // Sizes straddle one word, one summary word (64 words = 4096 bits),
  // and a summary longer than one word.
  for (unsigned Size : {0u, 1u, 63u, 64u, 65u, 4095u, 4096u, 4097u, 65537u}) {
    Rng R(Size + 1);
    TwoLevelBitSet S(Size);
    BitVector Ref(Size);
    EXPECT_EQ(S.size(), Size);
    EXPECT_TRUE(visitOrder(S).empty());
    for (unsigned Op = 0; Op < 1500; ++Op) {
      unsigned Kind = unsigned(R.nextBelow(10));
      if (Kind == 0) {
        // Assign a fresh vector: empty, sparse, or half full.
        BitVector Src(Size);
        double Density = std::array{0.0, 0.001, 0.02, 0.5}[R.nextBelow(4)];
        for (unsigned I = 0; I < Size; ++I)
          if (R.nextBool(Density))
            Src.set(I);
        S.assign(Src);
        Ref = Src;
      } else if (Size != 0) {
        // Cluster most picks in a few words so resets empty them.
        unsigned Bit = R.nextBool(0.7)
                           ? unsigned(R.nextBelow(std::min(Size, 192u)))
                           : unsigned(R.nextBelow(Size));
        if (Kind < 6) {
          S.set(Bit);
          Ref.set(Bit);
        } else {
          S.reset(Bit);
          Ref.reset(Bit);
        }
        EXPECT_EQ(S.test(Bit), Ref.test(Bit));
      }
      std::vector<unsigned> Seen = visitOrder(S);
      ASSERT_TRUE(std::is_sorted(Seen.begin(), Seen.end()));
      ASSERT_EQ(Seen, setBits(Ref)) << "size " << Size << ", op " << Op;
    }
    // Clearing every bit one by one leaves nothing to visit.
    for (unsigned Bit : setBits(Ref))
      S.reset(Bit);
    EXPECT_TRUE(visitOrder(S).empty()) << "size " << Size;
  }
}

TEST(TriangularBitMatrixTest, SymmetryAndDiagonal) {
  TriangularBitMatrix M(10);
  EXPECT_FALSE(M.test(3, 7));
  M.set(3, 7);
  EXPECT_TRUE(M.test(3, 7));
  EXPECT_TRUE(M.test(7, 3)) << "relation is symmetric";
  EXPECT_FALSE(M.test(4, 4)) << "diagonal is always false";
  M.clear(7, 3);
  EXPECT_FALSE(M.test(3, 7));
}

TEST(TriangularBitMatrixTest, TestAndSet) {
  TriangularBitMatrix M(5);
  EXPECT_TRUE(M.testAndSet(0, 4));
  EXPECT_FALSE(M.testAndSet(4, 0));
}

TEST(TriangularBitMatrixTest, DenseRandomAgainstReference) {
  Rng R(77);
  TriangularBitMatrix M(40);
  std::set<std::pair<unsigned, unsigned>> Ref;
  for (int I = 0; I < 300; ++I) {
    unsigned A = unsigned(R.nextBelow(40)), B = unsigned(R.nextBelow(40));
    if (A == B)
      continue;
    M.set(A, B);
    Ref.insert({std::min(A, B), std::max(A, B)});
  }
  for (unsigned A = 0; A < 40; ++A)
    for (unsigned B = A + 1; B < 40; ++B)
      EXPECT_EQ(M.test(A, B), Ref.count({A, B}) != 0);
}

TEST(TriangularBitMatrixTest, IndexPastSixtyFiveThousandNodes) {
  // Hi * (Hi - 1) / 2 leaves 32 bits from 65,537 nodes on.
  EXPECT_EQ(TriangularBitMatrix::index(65536, 0), 2147450880u);
  EXPECT_EQ(TriangularBitMatrix::index(0, 65536), 2147450880u);
  EXPECT_EQ(TriangularBitMatrix::index(65536, 65535), 2147516415u);
  // The last pair of the largest matrix unsigned node ids allow.
  EXPECT_EQ(TriangularBitMatrix::index(~0u, ~0u - 1),
            9223372034707292159u);
}

TEST(UnionFindTest, BasicMerging) {
  UnionFind UF(6);
  EXPECT_EQ(UF.numSets(), 6u);
  UF.unite(0, 1);
  UF.unite(2, 3);
  EXPECT_EQ(UF.numSets(), 4u);
  EXPECT_TRUE(UF.connected(0, 1));
  EXPECT_FALSE(UF.connected(1, 2));
  UF.unite(1, 3);
  EXPECT_TRUE(UF.connected(0, 2));
  EXPECT_EQ(UF.numSets(), 3u);
}

TEST(UnionFindTest, UniteIsIdempotent) {
  UnionFind UF(4);
  unsigned R1 = UF.unite(0, 1);
  unsigned R2 = UF.unite(0, 1);
  EXPECT_EQ(R1, R2);
  EXPECT_EQ(UF.numSets(), 3u);
}

TEST(UnionFindTest, GrowAddsSingletons) {
  UnionFind UF(2);
  unsigned Id = UF.grow();
  EXPECT_EQ(Id, 2u);
  EXPECT_EQ(UF.numSets(), 3u);
  EXPECT_FALSE(UF.connected(0, Id));
}

TEST(RngTest, DeterministicAcrossInstances) {
  Rng A(42), B(42);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(RngTest, RangesRespectBounds) {
  Rng R(1);
  for (int I = 0; I < 1000; ++I) {
    EXPECT_LT(R.nextBelow(7), 7u);
    int64_t V = R.nextInRange(-3, 5);
    EXPECT_GE(V, -3);
    EXPECT_LE(V, 5);
    double D = R.nextDouble();
    EXPECT_GE(D, 0.0);
    EXPECT_LT(D, 1.0);
  }
}

TEST(TableTest, FormattingHelpers) {
  EXPECT_EQ(Table::withCommas(0), "0");
  EXPECT_EQ(Table::withCommas(999), "999");
  EXPECT_EQ(Table::withCommas(596713), "596,713");
  EXPECT_EQ(Table::withCommas(-1234567), "-1,234,567");
  EXPECT_EQ(Table::fixed(1.349, 2), "1.35");
  EXPECT_EQ(Table::pctImprovement(101, 49), "51");
  EXPECT_EQ(Table::pctImprovement(0, 0), "0");
  EXPECT_EQ(Table::pctImprovement(100, 100), "0");
}

TEST(TableTest, RendersAlignedColumns) {
  Table T({"Name", "Value"});
  T.addRow({"a", "1"});
  T.addRow({"longer", "22"});
  std::string Out = T.render();
  EXPECT_NE(Out.find("| Name   | Value |"), std::string::npos);
  EXPECT_NE(Out.find("| a      |     1 |"), std::string::npos);
  EXPECT_NE(Out.find("| longer |    22 |"), std::string::npos);
}

TEST(StatusTest, DefaultConstructedIsOk) {
  Status S;
  EXPECT_TRUE(S.ok());
  EXPECT_EQ(S.code(), StatusCode::Ok);
  EXPECT_EQ(S.toString(), "ok");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status S = Status::error(StatusCode::NonConvergence, "no coloring");
  EXPECT_FALSE(S.ok());
  EXPECT_EQ(S.code(), StatusCode::NonConvergence);
  EXPECT_EQ(S.message(), "no coloring");
  EXPECT_EQ(S.toString(), "non-convergence: no coloring");
}

TEST(StatusTest, ContextRendersOutermostFirst) {
  // Innermost call sites push first; the rendering walks back out.
  Status S = Status::error(StatusCode::AuditFailure, "r3 double-booked");
  S.addContext("pass 2");
  S.addContext("@dgefa");
  EXPECT_EQ(S.toString(), "audit-failure: @dgefa: pass 2: r3 double-booked");
}

TEST(StatusTest, AddContextIsNoOpOnOk) {
  Status S;
  S.addContext("should vanish");
  EXPECT_TRUE(S.ok());
  EXPECT_EQ(S.toString(), "ok");
}

} // namespace
