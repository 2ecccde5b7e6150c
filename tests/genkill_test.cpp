//===- tests/genkill_test.cpp - GenKillDomain vs product DFA ----*- C++ -*-===//
//
// Part of the RASC project: regularly annotated set constraints.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Section 3.3 claim made executable: the specialized gen/kill
/// domain is (observationally) the transition monoid of the n-bit
/// product machine. Random word tests map each word both ways and
/// compare the state/bit-vector action; algebraic tests check the
/// monoid laws and the idempotence/cancellation identities the paper
/// lists (g cancels an adjacent k, gens and kills are idempotent,
/// distinct bits commute).
///
//===----------------------------------------------------------------------===//

#include "automata/Machines.h"
#include "automata/Monoid.h"
#include "core/Domains.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

using namespace rasc;

namespace {

TEST(GenKill, PaperIdentities) {
  GenKillDomain D(4);
  AnnId G0 = D.gen(0), K0 = D.kill(0), G1 = D.gen(1);
  // Idempotence.
  EXPECT_EQ(D.compose(G0, G0), G0);
  EXPECT_EQ(D.compose(K0, K0), K0);
  // A kill cancels a preceding gen and vice versa (last writer wins).
  EXPECT_EQ(D.compose(K0, G0), K0);
  EXPECT_EQ(D.compose(G0, K0), G0);
  // Distinct bits commute (order independence, Section 4).
  EXPECT_EQ(D.compose(G1, G0), D.compose(G0, G1));
  EXPECT_EQ(D.compose(G1, K0), D.compose(K0, G1));
  // Identity laws.
  EXPECT_EQ(D.compose(G0, D.identity()), G0);
  EXPECT_EQ(D.compose(D.identity(), G0), G0);
}

TEST(GenKill, TransferNormalizesOverlap) {
  GenKillDomain D(2);
  // A transfer given with overlapping masks treats gen-after-kill.
  AnnId T = D.transfer(0b01, 0b01);
  EXPECT_EQ(D.genMask(T), 0b01u);
  EXPECT_EQ(D.killMask(T), 0b00u);
  EXPECT_EQ(D.apply(T, 0b00), 0b01u);
}

class GenKillVsDfa : public ::testing::TestWithParam<unsigned> {};

TEST_P(GenKillVsDfa, MonoidActionsAgreeOnRandomWords) {
  unsigned Bits = GetParam();
  Dfa M = buildNBitMachine(Bits);
  TransitionMonoid Mon(M);
  GenKillDomain D(Bits);

  // Map each DFA symbol to the corresponding domain element. The
  // machine's states are bit-vector values by construction.
  std::vector<AnnId> SymAnn(M.numSymbols());
  for (SymbolId S = 0; S != M.numSymbols(); ++S) {
    const std::string &Name = M.symbolName(S);
    unsigned Bit = static_cast<unsigned>(std::stoul(Name.substr(1)));
    SymAnn[S] = Name[0] == 'g' ? D.gen(Bit) : D.kill(Bit);
  }

  Rng R(17 + Bits);
  for (int Trial = 0; Trial != 300; ++Trial) {
    Word W;
    size_t Len = R.below(10);
    for (size_t I = 0; I != Len; ++I)
      W.push_back(static_cast<SymbolId>(R.below(M.numSymbols())));

    FnId F = Mon.wordFn(W);
    AnnId A = D.identity();
    for (SymbolId S : W)
      A = D.compose(SymAnn[S], A);

    // Every start value (= DFA state) maps identically.
    for (uint32_t V = 0; V != (1u << Bits); ++V) {
      StateId Target = Mon.apply(F, V); // states are values
      EXPECT_EQ(static_cast<uint64_t>(Target), D.apply(A, V))
          << "word length " << Len << " from value " << V;
    }
  }
  // Sizes agree too: both are the full 3^n monoid when saturated...
  // (the DFA monoid is exactly 3^n; the domain interns lazily, so
  // only compare after saturating it).
  size_t Expected = 1;
  for (unsigned I = 0; I != Bits; ++I)
    Expected *= 3;
  EXPECT_TRUE(Mon.enumerateAll());
  EXPECT_EQ(Mon.size(), Expected);
}

INSTANTIATE_TEST_SUITE_P(Bits, GenKillVsDfa, ::testing::Values(1, 2, 3));

TEST(GenKill, SixtyFourBits) {
  GenKillDomain D(64);
  AnnId A = D.identity();
  for (unsigned B = 0; B != 64; ++B)
    A = D.compose(D.gen(B), A);
  EXPECT_EQ(D.apply(A, 0), ~uint64_t(0));
  AnnId K = D.compose(D.kill(63), A);
  EXPECT_EQ(D.apply(K, 0), ~uint64_t(0) >> 1);
}

TEST(GenKill, AssociativityRandom) {
  GenKillDomain D(8);
  Rng R(5);
  std::vector<AnnId> Pool{D.identity()};
  for (unsigned B = 0; B != 8; ++B) {
    Pool.push_back(D.gen(B));
    Pool.push_back(D.kill(B));
  }
  for (int I = 0; I != 30; ++I)
    Pool.push_back(D.compose(Pool[R.below(Pool.size())],
                             Pool[R.below(Pool.size())]));
  for (int Trial = 0; Trial != 500; ++Trial) {
    AnnId A = Pool[R.below(Pool.size())];
    AnnId B = Pool[R.below(Pool.size())];
    AnnId C = Pool[R.below(Pool.size())];
    EXPECT_EQ(D.compose(D.compose(A, B), C),
              D.compose(A, D.compose(B, C)));
  }
}

} // namespace
