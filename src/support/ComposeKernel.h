//===- support/ComposeKernel.h - Gen/kill compose kernel --------*- C++ -*-===//
//
// Part of the RASC project: regularly annotated set constraints.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The gen/kill transfer-composition mask algebra that
/// GenKillDomain::compose routes through: gen' = genF | (genG &
/// ~killF), kill' = (killF | (killG & ~genF)) & ~gen' (differentially
/// tested in tests/compose_kernel_test.cpp).
///
//===----------------------------------------------------------------------===//

#ifndef RASC_SUPPORT_COMPOSEKERNEL_H
#define RASC_SUPPORT_COMPOSEKERNEL_H

#include <cstdint>

namespace rasc {
namespace kernel {

/// A normalized gen/kill transfer pair (Gen & Kill == 0).
struct GenKillMasks {
  uint64_t Gen;
  uint64_t Kill;
};

/// Composes transfer F after transfer G (F downstream, matching
/// GenKillDomain::compose(F, G)): a bit is generated by the pair if F
/// generates it, or G generates it and F does not kill it afterwards;
/// killed if F kills it, or G kills it and F does not re-generate it.
/// The result is normalized so Gen and Kill are disjoint.
inline GenKillMasks genKillCompose(uint64_t GenF, uint64_t KillF,
                                   uint64_t GenG, uint64_t KillG) {
  uint64_t Gen = GenF | (GenG & ~KillF);
  uint64_t Kill = (KillF | (KillG & ~GenF)) & ~Gen;
  return {Gen, Kill};
}

} // namespace kernel
} // namespace rasc

#endif // RASC_SUPPORT_COMPOSEKERNEL_H
