//===- core/Annotation.h - Annotation domain interface ----------*- C++ -*-===//
//
// Part of the RASC project: regularly annotated set constraints.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The solver is parametric in the *annotation domain*: a finite
/// monoid of interned elements with constant-time composition. The
/// paper's domain is the transition monoid of the annotation DFA
/// (MonoidDomain); the bit-vector language of Section 3.3 admits a
/// specialized representation (GenKillDomain); parametric annotations
/// (Section 6.4) are substitution environments over a base domain
/// (SubstEnvDomain); and the trivial one-element domain recovers plain
/// unannotated set constraints, which serves as the cubic-time
/// baseline.
///
//===----------------------------------------------------------------------===//

#ifndef RASC_CORE_ANNOTATION_H
#define RASC_CORE_ANNOTATION_H

#include <cstdint>
#include <string>

namespace rasc {

/// Dense id of an annotation element within its domain.
using AnnId = uint32_t;

constexpr AnnId InvalidAnn = ~AnnId(0);

/// A finite monoid of annotation classes. Elements are interned; a
/// domain may grow while the solver runs (transition monoids and
/// substitution environments intern compositions on demand), but
/// composition of existing elements must always be defined.
class AnnotationDomain {
public:
  virtual ~AnnotationDomain() = default;

  /// The class of the empty word, f_epsilon.
  virtual AnnId identity() const = 0;

  /// F ∘ G: the class of vw for v in class G and w in class F (G is
  /// applied first). The solver's transitive rule
  ///   se1 ⊆^F X ∧ X ⊆^G se2  ⇒  se1 ⊆^{G∘F} se2
  /// calls compose(G, F).
  virtual AnnId compose(AnnId F, AnnId G) const = 0;

  /// \returns true if no extension of a word in class \p F can be in
  /// L(M); the solver may drop such annotations (Section 3.1).
  virtual bool isUseless(AnnId F) const {
    (void)F;
    return false;
  }

  /// \returns true if words in class \p F are full words of L(M)
  /// (F_accept membership, used by entailment queries, Section 3.2).
  virtual bool isAccepting(AnnId F) const = 0;

  /// Number of elements interned so far.
  virtual size_t size() const = 0;

  /// Human-readable rendering for diagnostics.
  virtual std::string toString(AnnId F) const = 0;

  /// \returns true once a domain that interns on compose() has grown
  /// past its element cap. The solver checks this between worklist
  /// pops and interrupts with Status::MemoryLimit.
  virtual bool overflowed() const { return false; }

  /// Heap bytes the domain's interned elements occupy; the solver
  /// counts them in its memoryBytes() budget.
  virtual size_t memoryBytes() const { return 0; }

  /// compose() calls that computed a product instead of reading it
  /// back (0 for domains that do not count them).
  virtual uint64_t composeMisses() const { return 0; }
};

} // namespace rasc

#endif // RASC_CORE_ANNOTATION_H
