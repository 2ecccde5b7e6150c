//===- core/Domains.h - Concrete annotation domains -------------*- C++ -*-===//
//
// Part of the RASC project: regularly annotated set constraints.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Concrete AnnotationDomain implementations:
///
///   * TrivialDomain  - one element; plain (unannotated) set
///     constraints, the cubic-time baseline.
///   * MonoidDomain   - the transition monoid F_M^≡ of an annotation
///     DFA (the paper's general construction, Section 2.4).
///   * GenKillDomain  - the n-bit gen/kill language of Section 3.3
///     represented as (gen mask, kill mask) pairs; equivalent to the
///     transition monoid of the 2^n-state product machine but without
///     ever materializing it.
///
//===----------------------------------------------------------------------===//

#ifndef RASC_CORE_DOMAINS_H
#define RASC_CORE_DOMAINS_H

#include "automata/Dfa.h"
#include "automata/Monoid.h"
#include "core/Annotation.h"
#include "core/Observe.h"
#include "support/Hashing.h"

#include <memory>
#include <unordered_map>
#include <vector>

namespace rasc {

/// The one-element domain: annotations carry no information. With it
/// the solver degenerates to the classical cubic fragment of set
/// constraints.
class TrivialDomain final : public AnnotationDomain {
public:
  AnnId identity() const override { return 0; }
  AnnId compose(AnnId F, AnnId G) const override {
    assert(F == 0 && G == 0 && "trivial domain has one element");
    (void)F;
    (void)G;
    return 0;
  }
  bool isAccepting(AnnId) const override { return true; }
  size_t size() const override { return 1; }
  std::string toString(AnnId) const override { return "eps"; }
};

/// Annotation classes are representative functions of a DFA M. Owns
/// the automaton and its transition monoid. AnnId coincides with the
/// monoid's FnId. The monoid interns elements as the solve composes
/// them, so a domain belongs to one analysis: every analysis builds
/// its own, and only one thread uses it at a time.
class MonoidDomain final : public AnnotationDomain {
public:
  explicit MonoidDomain(Dfa M, TransitionMonoid::Options Opts = {});

  AnnId identity() const override { return Mon->identity(); }
  AnnId compose(AnnId F, AnnId G) const override {
    return observe::metricsEnabled() ? composeCounted(F, G)
                                     : Mon->compose(F, G);
  }
  bool isUseless(AnnId F) const override { return Mon->isUseless(F); }
  bool isAccepting(AnnId F) const override {
    return Mon->acceptingFromStart(F);
  }
  size_t size() const override { return Mon->size(); }
  std::string toString(AnnId F) const override { return Mon->toString(F); }
  bool overflowed() const override { return Mon->overflowed(); }
  size_t memoryBytes() const override { return Mon->memoryBytes(); }
  uint64_t composeMisses() const override { return Mon->composeMisses(); }

  /// The class of a single symbol; the surface syntax of constraints
  /// (se1 ⊆^x se2, x in Sigma or eps) uses exactly these.
  AnnId symbolAnn(SymbolId Sym) const { return Mon->symbolFn(Sym); }

  /// The class of a symbol given by name; asserts the name exists.
  AnnId symbolAnn(std::string_view Name) const {
    auto S = Machine->symbol(Name);
    assert(S && "unknown annotation symbol");
    return Mon->symbolFn(*S);
  }

  /// delta(w, S) for any word w in class \p F.
  StateId apply(AnnId F, StateId S) const { return Mon->apply(F, S); }

  const Dfa &machine() const { return *Machine; }
  const TransitionMonoid &monoid() const { return *Mon; }

private:
  /// compose() that also feeds the monoid.elements and
  /// monoid.compose_misses counters.
  AnnId composeCounted(AnnId F, AnnId G) const;

  std::unique_ptr<Dfa> Machine; // stable address for the monoid
  std::unique_ptr<TransitionMonoid> Mon;
};

/// The n-bit gen/kill language (Section 3.3). An element is the
/// classical transfer function X |-> (X \ Kill) ∪ Gen with
/// Gen ∩ Kill = ∅ (a later gen cancels an earlier kill and vice
/// versa). Composition never leaves this set, and there are 3^n
/// elements, matching the transition monoid of the n-bit product
/// machine bit for bit.
class GenKillDomain final : public AnnotationDomain {
public:
  explicit GenKillDomain(unsigned NumBits);

  AnnId identity() const override { return 0; }
  AnnId compose(AnnId F, AnnId G) const override;
  bool isAccepting(AnnId) const override { return true; }
  size_t size() const override { return Elems.size(); }
  std::string toString(AnnId F) const override;

  unsigned numBits() const { return NumBits; }

  /// The class of the single-symbol word g_i / k_i.
  AnnId gen(unsigned Bit) { return makeElem(uint64_t(1) << Bit, 0); }
  AnnId kill(unsigned Bit) { return makeElem(0, uint64_t(1) << Bit); }

  /// The class of an arbitrary transfer function (Gen, Kill); bits in
  /// both masks are treated as gen-after-kill (gen wins).
  AnnId transfer(uint64_t Gen, uint64_t Kill) {
    return makeElem(Gen, Kill & ~Gen);
  }

  uint64_t genMask(AnnId F) const { return Elems[F].first; }
  uint64_t killMask(AnnId F) const { return Elems[F].second; }

  /// Applies the transfer function to a bit-vector value.
  uint64_t apply(AnnId F, uint64_t Bits) const {
    return (Bits & ~Elems[F].second) | Elems[F].first;
  }

private:
  // Composition interns the result, so the tables are mutable: the
  // domain grows monotonically while ids stay stable.
  AnnId makeElem(uint64_t Gen, uint64_t Kill) const;

  unsigned NumBits;
  uint64_t Mask;
  mutable std::vector<std::pair<uint64_t, uint64_t>> Elems;
  mutable std::unordered_map<std::pair<uint64_t, uint64_t>, AnnId, PairHash>
      Ids;
  mutable std::unordered_map<uint64_t, AnnId> ComposeMemo;
};

} // namespace rasc

#endif // RASC_CORE_DOMAINS_H
