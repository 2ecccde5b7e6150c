//===- tests/support_test.cpp - Support utility tests -----------*- C++ -*-===//
//
// Part of the RASC project: regularly annotated set constraints.
//
//===----------------------------------------------------------------------===//

#include "support/AnnSet.h"
#include "support/DynamicBitset.h"
#include "support/Hashing.h"
#include "support/Rng.h"
#include "support/StringPool.h"
#include "support/UnionFind.h"

#include <gtest/gtest.h>

#include <set>
#include <tuple>

using namespace rasc;

namespace {

TEST(DynamicBitset, BasicOps) {
  DynamicBitset B(130);
  EXPECT_EQ(B.size(), 130u);
  EXPECT_TRUE(B.none());
  B.set(0);
  B.set(64);
  B.set(129);
  EXPECT_EQ(B.count(), 3u);
  EXPECT_TRUE(B.test(64));
  EXPECT_FALSE(B.test(63));
  B.reset(64);
  EXPECT_FALSE(B.test(64));
  EXPECT_EQ(B.count(), 2u);
}

TEST(DynamicBitset, FindIteration) {
  DynamicBitset B(200);
  std::set<size_t> Expected{3, 64, 65, 127, 128, 199};
  for (size_t I : Expected)
    B.set(I);
  std::set<size_t> Found;
  for (size_t I = B.findFirst(); I != B.size(); I = B.findNext(I + 1))
    Found.insert(I);
  EXPECT_EQ(Found, Expected);
}

TEST(DynamicBitset, BooleanAlgebra) {
  DynamicBitset A(100), B(100);
  A.set(1);
  A.set(50);
  B.set(50);
  B.set(99);
  DynamicBitset U = A;
  U |= B;
  EXPECT_EQ(U.count(), 3u);
  DynamicBitset I = A;
  I &= B;
  EXPECT_EQ(I.count(), 1u);
  EXPECT_TRUE(I.test(50));
  EXPECT_TRUE(A.intersects(B));
  DynamicBitset D = A;
  D.subtract(B);
  EXPECT_TRUE(D.test(1));
  EXPECT_FALSE(D.test(50));
}

TEST(DynamicBitset, SetAllRespectsPadding) {
  DynamicBitset A(70);
  A.setAll();
  EXPECT_EQ(A.count(), 70u);
  DynamicBitset B(70);
  for (size_t I = 0; I != 70; ++I)
    B.set(I);
  EXPECT_EQ(A, B);
  EXPECT_EQ(A.hash(), B.hash());
}

TEST(DynamicBitset, ResizeKeepsLowBitsZeroesNew) {
  DynamicBitset A(10);
  A.set(3);
  A.resize(100);
  EXPECT_TRUE(A.test(3));
  EXPECT_EQ(A.count(), 1u);
  A.resize(2);
  EXPECT_EQ(A.count(), 0u);
}

TEST(UnionFind, MergesAndFinds) {
  UnionFind U;
  U.grow(10);
  EXPECT_NE(U.find(1), U.find(2));
  U.merge(1, 2);
  EXPECT_EQ(U.find(1), U.find(2));
  U.merge(2, 3);
  EXPECT_EQ(U.find(1), U.find(3));
  EXPECT_NE(U.find(1), U.find(4));
  // Merging already-merged sets is a no-op.
  uint32_t R = U.find(1);
  EXPECT_EQ(U.merge(1, 3), R);
}

TEST(Rng, DeterministicAndInRange) {
  Rng A(123), B(123);
  for (int I = 0; I != 100; ++I)
    EXPECT_EQ(A.next(), B.next());
  Rng C(5);
  for (int I = 0; I != 1000; ++I) {
    uint64_t V = C.range(10, 20);
    EXPECT_GE(V, 10u);
    EXPECT_LE(V, 20u);
  }
}

TEST(Rng, BelowCoversAllResidues) {
  Rng R(9);
  std::set<uint64_t> Seen;
  for (int I = 0; I != 300; ++I)
    Seen.insert(R.below(7));
  EXPECT_EQ(Seen.size(), 7u);
}

TEST(StringPool, InternsAndLooksUp) {
  StringPool P;
  uint32_t A = P.intern("alpha");
  uint32_t B = P.intern("beta");
  EXPECT_NE(A, B);
  EXPECT_EQ(P.intern("alpha"), A);
  EXPECT_EQ(P.str(A), "alpha");
  EXPECT_EQ(P.lookup("beta"), B);
  EXPECT_EQ(P.lookup("gamma"), StringPool::InvalidId);
  EXPECT_EQ(P.size(), 2u);
}

TEST(Hashing, CombineDispersesPairs) {
  // Not a statistical test; just check distinct small inputs do not
  // trivially collide.
  std::set<uint64_t> Hashes;
  for (uint64_t A = 0; A != 50; ++A)
    for (uint64_t B = 0; B != 50; ++B)
      Hashes.insert(hashCombine(A, B));
  EXPECT_EQ(Hashes.size(), 2500u);
}

TEST(EdgeDedup, MatchesReferenceSetAcrossSpillAndStrideGrowth) {
  // One layout, three regimes: ids below 64 keep their rows inline in
  // the hash slots, the first wider id spills every row to the arena,
  // and an id past the arena's stride doubles it. After each step every
  // recorded edge is still a duplicate. A capacity hint above 64 starts
  // the rows spilled.
  using EdgeT = std::tuple<uint32_t, uint32_t, uint32_t>;
  for (size_t Hint : {size_t(64), size_t(300)}) {
    SCOPED_TRACE(Hint);
    EdgeDedup D(Hint);
    std::set<EdgeT> Ref;
    Rng R(Hint);
    for (uint32_t MaxAnn : {63u, 200u, 1000u}) {
      SCOPED_TRACE(MaxAnn);
      for (int I = 0; I != 2000; ++I) {
        uint32_t A = R.below(30), B = R.below(30), Ann = R.below(MaxAnn + 1);
        EXPECT_EQ(D.insert(A, B, Ann), Ref.insert({A, B, Ann}).second);
      }
      for (auto [A, B, Ann] : Ref)
        EXPECT_FALSE(D.insert(A, B, Ann));
    }
  }
}

} // namespace
