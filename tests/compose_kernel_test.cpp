//===- tests/compose_kernel_test.cpp - Kernel vs scalar compose -*- C++ -*-===//
//
// Part of the RASC project: regularly annotated set constraints.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Differential tests of the gen/kill compose kernel
/// (support/ComposeKernel.h) against GenKillDomain::compose.
///
//===----------------------------------------------------------------------===//

#include "core/Domains.h"
#include "support/ComposeKernel.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

using namespace rasc;

namespace {

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
