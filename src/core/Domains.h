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
#include "support/Diag.h"
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
  const AnnId *composeRowLhs(AnnId F) const override {
    assert(F == 0 && "trivial domain has one element");
    (void)F;
    static constexpr AnnId Row[1] = {0};
    return Row;
  }
  const AnnId *composeRowRhs(AnnId G) const override {
    return composeRowLhs(G);
  }
  size_t size() const override { return 1; }
  std::string toString(AnnId) const override { return "eps"; }
};

/// Annotation classes are representative functions of a DFA M. Owns
/// the automaton and its transition monoid. AnnId coincides with the
/// monoid's FnId.
class MonoidDomain final : public AnnotationDomain {
public:
  /// A private domain for trusted automata: asserts that the monoid
  /// fits in Opts.MaxElements.
  explicit MonoidDomain(Dfa M,
                        TransitionMonoid::Options Opts = defaultOptions());

  /// The interned domain of \p M. While some caller still holds the
  /// result for an equal automaton (Dfa::operator==) and equal
  /// options, that same immutable domain is returned instead of a new
  /// build, so analyses over one automaton share one monoid. Only
  /// complete dense-table monoids are shared; a memo-path monoid (more
  /// than Opts.DenseTableLimit elements) writes on compose() and is
  /// returned private. The table holds weak references: a domain is
  /// freed, and its entry removed, when its last holder lets go.
  ///
  /// A monoid that exceeds Opts.MaxElements is reported as a Diag
  /// (without a location; the caller knows where the automaton came
  /// from), so this is also the entry point for user input.
  static Expected<std::shared_ptr<const MonoidDomain>>
  create(Dfa M, TransitionMonoid::Options Opts = defaultOptions());

  /// The number of domains currently in create()'s intern table.
  static size_t internedCount();

  static TransitionMonoid::Options defaultOptions() {
    return TransitionMonoid::Options{};
  }

  AnnId identity() const override { return Mon->identity(); }
  AnnId compose(AnnId F, AnnId G) const override {
    return Mon->compose(F, G);
  }
  bool isUseless(AnnId F) const override { return Mon->isUseless(F); }
  bool isAccepting(AnnId F) const override {
    return Mon->acceptingFromStart(F);
  }
  const AnnId *composeRowLhs(AnnId F) const override {
    return Mon->composeRowLhs(F);
  }
  const AnnId *composeRowRhs(AnnId G) const override {
    return Mon->composeRowRhs(G);
  }
  size_t size() const override { return Mon->size(); }
  std::string toString(AnnId F) const override { return Mon->toString(F); }

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
  struct Unchecked {};
  MonoidDomain(Dfa M, TransitionMonoid::Options Opts, Unchecked);

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
