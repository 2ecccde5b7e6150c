//===- core/SubstEnv.h - Parametric annotations -----------------*- C++ -*-===//
//
// Part of the RASC project: regularly annotated set constraints.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Substitution environments (paper Section 6.4) support *parametric*
/// annotations such as open(x)/close(x): the property automaton is
/// conceptually instantiated once per parameter label occurring in the
/// program, but the instantiation happens lazily during constraint
/// resolution rather than up front (the automaton is compiled away
/// before the program is seen).
///
/// An environment
///
///   [ (x:fd1) -> f;  (x:fd2) -> g  |  r ]
///
/// maps instantiated parameter entries to representative functions of
/// the base automaton and carries a *residual* function r recording
/// non-parametric transitions; the residual has already been folded
/// into the existing entries. Looking up an entry key k returns the
/// value of the largest entry k is compatible with, or the residual.
/// Composition is pointwise over the merged entry domains:
///
///   (phi1 ∘ phi2)(i) = phi1(i) ∘ phi2(i)
///
/// Entries with multiple parameters (Section 6.4.2) merge when
/// compatible: all common parameter/label pairs agree.
///
/// SubstEnvDomain is itself an AnnotationDomain (environments are
/// interned to dense ids), so the generic solver handles parametric
/// annotations unchanged; it degrades to the base domain when no
/// parametric annotations occur (an empty environment is just its
/// residual).
///
//===----------------------------------------------------------------------===//

#ifndef RASC_CORE_SUBSTENV_H
#define RASC_CORE_SUBSTENV_H

#include "core/Annotation.h"
#include "support/Hashing.h"
#include "support/StringPool.h"

#include <unordered_map>
#include <vector>

namespace rasc {

/// An instantiated parameter binding: parameter name x bound to a
/// program label such as fd1 (both interned).
struct ParamBinding {
  uint32_t Param;
  uint32_t Label;

  friend bool operator==(const ParamBinding &A, const ParamBinding &B) {
    return A.Param == B.Param && A.Label == B.Label;
  }
  friend bool operator<(const ParamBinding &A, const ParamBinding &B) {
    return A.Param != B.Param ? A.Param < B.Param : A.Label < B.Label;
  }
};

/// One entry of a substitution environment: a sorted, duplicate-free
/// key of bindings and the representative function it maps to.
struct SubstEntry {
  std::vector<ParamBinding> Key;
  AnnId Value;

  friend bool operator==(const SubstEntry &A, const SubstEntry &B) {
    return A.Value == B.Value && A.Key == B.Key;
  }
};

/// The annotation domain of substitution environments over a base
/// domain (normally a MonoidDomain).
class SubstEnvDomain final : public AnnotationDomain {
public:
  explicit SubstEnvDomain(const AnnotationDomain &Base);

  /// Interns a parameter or label name.
  uint32_t name(std::string_view S) { return Names.intern(S); }
  const std::string &nameStr(uint32_t Id) const { return Names.str(Id); }

  /// Lifts a base element to the empty environment [ | F ].
  AnnId lift(AnnId BaseFn);

  /// The environment for one parametric transition: the symbol's
  /// base function under the given bindings, identity residual.
  /// E.g. open(fd1):  [ (x:fd1) -> f_open | f_eps ].
  AnnId instantiate(std::vector<ParamBinding> Key, AnnId BaseFn);

  /// Looks up what \p Env does to entry key \p Key: value of the
  /// largest compatible entry, or the residual.
  AnnId lookup(AnnId Env, const std::vector<ParamBinding> &Key) const;

  /// The residual (non-parametric effect) of an environment.
  AnnId residual(AnnId Env) const { return Envs[Env].Residual; }

  /// The explicit entries of an environment.
  const std::vector<SubstEntry> &entries(AnnId Env) const {
    return Envs[Env].Entries;
  }

  // AnnotationDomain interface.
  AnnId identity() const override { return IdentityEnv; }
  AnnId compose(AnnId F, AnnId G) const override;
  bool isUseless(AnnId F) const override;
  bool isAccepting(AnnId F) const override;
  size_t size() const override { return Envs.size(); }
  std::string toString(AnnId F) const override;
  // The base monoid is what grows without bound.
  bool overflowed() const override { return Base.overflowed(); }
  size_t memoryBytes() const override { return Base.memoryBytes(); }
  uint64_t composeMisses() const override { return Base.composeMisses(); }

  const AnnotationDomain &base() const { return Base; }

private:
  struct Env {
    AnnId Residual;
    std::vector<SubstEntry> Entries; // sorted by key
  };

  AnnId intern(Env E) const;
  static bool compatible(const std::vector<ParamBinding> &I,
                         const std::vector<ParamBinding> &J);
  AnnId lookupIn(const Env &E,
                 const std::vector<ParamBinding> &Key) const;

  const AnnotationDomain &Base;
  StringPool Names;
  AnnId IdentityEnv;

  mutable std::vector<Env> Envs;
  mutable std::unordered_map<uint64_t, AnnId> EnvIds; // hash -> first id
  mutable std::unordered_map<uint64_t, AnnId> ComposeMemo;
};

} // namespace rasc

#endif // RASC_CORE_SUBSTENV_H
