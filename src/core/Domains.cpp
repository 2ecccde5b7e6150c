//===- core/Domains.cpp - Concrete annotation domains -----------*- C++ -*-===//
//
// Part of the RASC project: regularly annotated set constraints.
//
//===----------------------------------------------------------------------===//

#include "core/Domains.h"

#include "support/ComposeKernel.h"

#include <sstream>

using namespace rasc;

MonoidDomain::MonoidDomain(Dfa M, TransitionMonoid::Options Opts)
    : Machine(std::make_unique<Dfa>(std::move(M))),
      Mon(std::make_unique<TransitionMonoid>(*Machine, Opts)) {
  if (observe::metricsEnabled())
    MetricsRegistry::global().counter("monoid.elements").add(Mon->size());
}

AnnId MonoidDomain::composeCounted(AnnId F, AnnId G) const {
  uint64_t Misses = Mon->composeMisses();
  size_t Elements = Mon->size();
  AnnId R = Mon->compose(F, G);
  if (Mon->composeMisses() != Misses) {
    MetricsRegistry &Reg = MetricsRegistry::global();
    Reg.counter("monoid.compose_misses").add(1);
    Reg.counter("monoid.elements").add(Mon->size() - Elements);
  }
  return R;
}

GenKillDomain::GenKillDomain(unsigned NumBits)
    : NumBits(NumBits),
      Mask(NumBits >= 64 ? ~uint64_t(0)
                         : (uint64_t(1) << NumBits) - 1) {
  assert(NumBits >= 1 && NumBits <= 64 && "1..64 bits supported");
  // Identity first so identity() == 0.
  makeElem(0, 0);
}

AnnId GenKillDomain::makeElem(uint64_t Gen, uint64_t Kill) const {
  Gen &= Mask;
  Kill &= Mask;
  assert((Gen & Kill) == 0 && "gen and kill must be disjoint");
  auto [It, Inserted] =
      Ids.emplace(std::make_pair(Gen, Kill),
                  static_cast<AnnId>(Elems.size()));
  if (Inserted)
    Elems.emplace_back(Gen, Kill);
  return It->second;
}

AnnId GenKillDomain::compose(AnnId F, AnnId G) const {
  assert(F < Elems.size() && G < Elems.size() && "id out of range");
  uint64_t Key = (static_cast<uint64_t>(F) << 32) | G;
  auto It = ComposeMemo.find(Key);
  if (It != ComposeMemo.end())
    return It->second;
  // G first, then F: X |-> apply_F(apply_G(X)). The mask algebra
  // lives in support/ComposeKernel.h.
  auto [GenF, KillF] = Elems[F];
  auto [GenG, KillG] = Elems[G];
  kernel::GenKillMasks C = kernel::genKillCompose(GenF, KillF, GenG, KillG);
  AnnId R = makeElem(C.Gen, C.Kill);
  ComposeMemo.emplace(Key, R);
  return R;
}

std::string GenKillDomain::toString(AnnId F) const {
  assert(F < Elems.size() && "id out of range");
  std::ostringstream OS;
  OS << "{gen=";
  for (unsigned I = 0; I != NumBits; ++I)
    OS << ((Elems[F].first >> I) & 1);
  OS << ", kill=";
  for (unsigned I = 0; I != NumBits; ++I)
    OS << ((Elems[F].second >> I) & 1);
  OS << "}";
  return OS.str();
}
