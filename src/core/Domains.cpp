//===- core/Domains.cpp - Concrete annotation domains -----------*- C++ -*-===//
//
// Part of the RASC project: regularly annotated set constraints.
//
//===----------------------------------------------------------------------===//

#include "core/Domains.h"

#include "core/Observe.h"
#include "support/ComposeKernel.h"
#include "support/Trace.h"

#include <mutex>
#include <sstream>

using namespace rasc;

MonoidDomain::MonoidDomain(Dfa M, TransitionMonoid::Options Opts, Unchecked)
    : Machine(std::make_unique<Dfa>(std::move(M))),
      Mon(std::make_unique<TransitionMonoid>(*Machine, Opts)) {}

MonoidDomain::MonoidDomain(Dfa M, TransitionMonoid::Options Opts)
    : MonoidDomain(std::move(M), Opts, Unchecked{}) {
  assert(!Mon->overflowed() &&
         "annotation monoid exceeded the element cap; raise "
         "TransitionMonoid::Options::MaxElements or use a "
         "unidirectional solver");
}

namespace {

/// create()'s intern table: the live shared domains, bucketed by the
/// hash of their key (automaton and options). An entry points at a
/// domain that is not yet destroyed for as long as the entry exists,
/// because each shared domain's deleter erases its own entry under Mu
/// before it frees the domain. Mu guards lookup and insert only; the
/// monoid build runs outside it.
struct InternTable {
  struct Entry {
    const MonoidDomain *Dom;
    std::weak_ptr<const MonoidDomain> Ref;
    TransitionMonoid::Options Opts;
  };
  std::mutex Mu;
  std::unordered_multimap<uint64_t, Entry> Entries;

  /// A live domain with this key, if any. Caller holds Mu.
  std::shared_ptr<const MonoidDomain>
  find(uint64_t Hash, const Dfa &M,
       const TransitionMonoid::Options &Opts) const {
    auto [B, E] = Entries.equal_range(Hash);
    for (; B != E; ++B)
      if (B->second.Opts == Opts && B->second.Dom->machine() == M)
        if (std::shared_ptr<const MonoidDomain> D = B->second.Ref.lock())
          return D;
    return nullptr;
  }
};

InternTable &internTable() {
  // Never destroyed: shared domains may be released during static
  // destruction.
  static InternTable *T = new InternTable;
  return *T;
}

/// Deleter of a shared domain: unlists it, then frees it.
struct Unintern {
  uint64_t Hash;
  void operator()(const MonoidDomain *D) const {
    InternTable &T = internTable();
    {
      std::lock_guard<std::mutex> Lock(T.Mu);
      auto [B, E] = T.Entries.equal_range(Hash);
      for (; B != E; ++B)
        if (B->second.Dom == D) {
          T.Entries.erase(B);
          break;
        }
    }
    delete D;
  }
};

uint64_t internHash(const Dfa &M, const TransitionMonoid::Options &Opts) {
  return hashCombine(hashCombine(M.hash(), Opts.MaxElements),
                     Opts.DenseTableLimit);
}

/// Records one create() outcome: a build, or a domain some other
/// caller built.
void noteIntern(bool Shared, size_t Elements) {
  if (trace::enabled())
    trace::instant("monoid.intern", Shared, Elements);
  if (!observe::metricsEnabled())
    return;
  MetricsRegistry::global()
      .counter(Shared ? "monoid.shared" : "monoid.builds")
      .add(1);
}

} // namespace

Expected<std::shared_ptr<const MonoidDomain>>
MonoidDomain::create(Dfa M, TransitionMonoid::Options Opts) {
  InternTable &T = internTable();
  const uint64_t Hash = internHash(M, Opts);
  std::shared_ptr<const MonoidDomain> Hit;
  {
    std::lock_guard<std::mutex> Lock(T.Mu);
    Hit = T.find(Hash, M, Opts);
  }
  if (Hit) {
    noteIntern(true, Hit->size());
    return Hit;
  }

  uint32_t States = M.numStates();
  std::unique_ptr<MonoidDomain> D(
      new MonoidDomain(std::move(M), Opts, Unchecked{}));
  noteIntern(false, D->size());
  if (D->Mon->overflowed())
    return Diag("the annotation monoid of this " + std::to_string(States) +
                "-state automaton reaches the cap of " +
                std::to_string(Opts.MaxElements) +
                " elements; use a smaller language");
  if (!D->Mon->dense())
    return std::shared_ptr<const MonoidDomain>(std::move(D));

  std::shared_ptr<const MonoidDomain> S(D.release(), Unintern{Hash});
  {
    std::lock_guard<std::mutex> Lock(T.Mu);
    // Another caller may have published the same key during the build;
    // either domain is correct, and the listed one is the one to share.
    Hit = T.find(Hash, S->machine(), Opts);
    if (!Hit)
      T.Entries.emplace(Hash, InternTable::Entry{S.get(), S, Opts});
  }
  if (!Hit)
    return S;
  noteIntern(true, Hit->size());
  return Hit; // S is freed unlisted
}

size_t MonoidDomain::internedCount() {
  InternTable &T = internTable();
  std::lock_guard<std::mutex> Lock(T.Mu);
  return T.Entries.size();
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
