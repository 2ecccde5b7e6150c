//===- tests/compose_kernel_test.cpp - Kernel vs scalar compose -*- C++ -*-===//
//
// Part of the RASC project: regularly annotated set constraints.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Differential tests of the vectorizable compose kernels
/// (support/ComposeKernel.h) against their scalar references: the
/// dense-row gather against both a naive index loop and the
/// TransitionMonoid's own compose(), and the gen/kill mask algebra
/// against GenKillDomain::compose. The parallel closure's phase-2
/// workers stage whole adjacency chunks through the gather, so any
/// drift here would silently corrupt fixpoints.
///
//===----------------------------------------------------------------------===//

#include "TestSystems.h"
#include "core/Domains.h"
#include "support/ComposeKernel.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <vector>

using namespace rasc;

namespace {

TEST(ComposeKernel, MapRowMatchesNaiveLoop) {
  Rng R(17);
  constexpr uint32_t RowSize = 97;
  std::vector<uint32_t> Row(RowSize);
  for (uint32_t &V : Row)
    V = static_cast<uint32_t>(R.below(1u << 20));

  for (uint32_t N : {0u, 1u, 2u, 7u, 8u, 9u, 63u, 64u, 257u, 1000u}) {
    std::vector<uint32_t> Anns(N), Out(N, 0xdeadbeef), Ref(N);
    for (uint32_t &A : Anns)
      A = static_cast<uint32_t>(R.below(RowSize));
    for (uint32_t I = 0; I != N; ++I)
      Ref[I] = Row[Anns[I]];
    kernel::composeMapRow(Row.data(), Anns.data(), Out.data(), N);
    EXPECT_EQ(Out, Ref) << "N=" << N;
  }
}

/// The kernel over a real dense composition row must agree with the
/// domain's own (memoizing, virtual) compose on every element — both
/// row orientations, across several random minimized machines.
TEST(ComposeKernel, MapRowMatchesMonoidCompose) {
  unsigned RowsChecked = 0;
  for (uint64_t Seed = 1; Seed != 11; ++Seed) {
    Rng R(Seed);
    MonoidDomain Dom(testgen::randomDfa(R, 2 + R.below(4), 2 + R.below(2)));
    const uint32_t M = static_cast<uint32_t>(Dom.size());

    std::vector<uint32_t> All(M);
    for (uint32_t G = 0; G != M; ++G)
      All[G] = G;
    std::vector<uint32_t> Out(M);

    for (AnnId F = 0; F != M; ++F) {
      if (const AnnId *Lhs = Dom.composeRowLhs(F)) {
        kernel::composeMapRow(Lhs, All.data(), Out.data(), M);
        for (uint32_t G = 0; G != M; ++G)
          ASSERT_EQ(Out[G], Dom.compose(F, G))
              << "seed " << Seed << " lhs-row F=" << F << " G=" << G;
        ++RowsChecked;
      }
      if (const AnnId *Rhs = Dom.composeRowRhs(F)) {
        kernel::composeMapRow(Rhs, All.data(), Out.data(), M);
        for (uint32_t G = 0; G != M; ++G)
          ASSERT_EQ(Out[G], Dom.compose(G, F))
              << "seed " << Seed << " rhs-row fixed=" << F << " G=" << G;
      }
    }
  }
  // The random machines are small, so the monoid's dense table must
  // have been built; a silent all-null run would test nothing.
  EXPECT_GT(RowsChecked, 0u);
}

TEST(ComposeKernel, GenKillSinglePairMatchesDomain) {
  constexpr unsigned Bits = 11;
  GenKillDomain Dom(Bits);
  const uint64_t Mask = (uint64_t(1) << Bits) - 1;
  Rng R(23);

  for (unsigned Iter = 0; Iter != 2000; ++Iter) {
    uint64_t GenF = R.below(Mask + 1), KillF = R.below(Mask + 1) & ~GenF;
    uint64_t GenG = R.below(Mask + 1), KillG = R.below(Mask + 1) & ~GenG;
    AnnId F = Dom.transfer(GenF, KillF);
    AnnId G = Dom.transfer(GenG, KillG);
    AnnId C = Dom.compose(F, G);
    kernel::GenKillMasks K = kernel::genKillCompose(GenF, KillF, GenG, KillG);
    EXPECT_EQ(K.Gen, Dom.genMask(C)) << "iter " << Iter;
    EXPECT_EQ(K.Kill, Dom.killMask(C)) << "iter " << Iter;
    EXPECT_EQ(K.Gen & K.Kill, 0u) << "iter " << Iter << ": not normalized";
    // Semantic check: composing transfers == applying G then F.
    uint64_t X = R.below(Mask + 1);
    EXPECT_EQ(Dom.apply(C, X), Dom.apply(F, Dom.apply(G, X)))
        << "iter " << Iter;
  }
}

/// Identity laws through the kernel: composing with the identity
/// transfer (no gen, no kill) in either position is the identity.
TEST(ComposeKernel, GenKillIdentity) {
  Rng R(31);
  for (unsigned Iter = 0; Iter != 200; ++Iter) {
    uint64_t Gen = R.below(~uint64_t(0));
    uint64_t Kill = R.below(~uint64_t(0)) & ~Gen;
    kernel::GenKillMasks L = kernel::genKillCompose(0, 0, Gen, Kill);
    kernel::GenKillMasks Rr = kernel::genKillCompose(Gen, Kill, 0, 0);
    EXPECT_EQ(L.Gen, Gen);
    EXPECT_EQ(L.Kill, Kill);
    EXPECT_EQ(Rr.Gen, Gen);
    EXPECT_EQ(Rr.Kill, Kill);
  }
}

} // namespace
