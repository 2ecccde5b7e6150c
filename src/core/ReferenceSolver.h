//===- core/ReferenceSolver.h - Naive resolution for testing ----*- C++ -*-===//
//
// Part of the RASC project: regularly annotated set constraints.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A deliberately naive implementation of the resolution rules of
/// paper Section 3.1: keep a set of constraints, scan all pairs, apply
/// every applicable rule, repeat until fixpoint. No indexing, no
/// worklist, no filtering, no cycle elimination. Exists purely as a
/// differential-testing oracle for the optimized solver; do not use it
/// for anything larger than toy systems.
///
//===----------------------------------------------------------------------===//

#ifndef RASC_CORE_REFERENCESOLVER_H
#define RASC_CORE_REFERENCESOLVER_H

#include "core/ConstraintSystem.h"

#include <unordered_set>
#include <utility>
#include <vector>

namespace rasc {

/// Rule-to-fixpoint oracle over a constraint system.
class ReferenceSolver {
public:
  explicit ReferenceSolver(const ConstraintSystem &CS) : CS(CS) {}

  /// Applies the resolution rules to quiescence. \returns false if a
  /// manifest inconsistency (constructor mismatch) was derived.
  bool solve();

  /// All annotations f with (constant C) ⊆^f V among the derived
  /// constraints, sorted.
  std::vector<AnnId> constantAnnotations(ConsId C, VarId V) const;

  /// All (rhs, f) with \p Lhs ⊆^f rhs among the derived constraints,
  /// sorted and distinct. For a variable these are its var→var and
  /// var→cons bounds under the full transitive rule (the oracle for
  /// the optimized solver's path searches); for a constructor
  /// expression, its constructor-constructor pairs (conflicts and
  /// function-variable constraints).
  std::vector<std::pair<ExprId, AnnId>> upperBounds(ExprId Lhs) const;

private:
  bool addConstraint(ExprId Lhs, ExprId Rhs, AnnId Ann);

  const ConstraintSystem &CS;
  std::vector<Constraint> Cons;
  std::unordered_set<uint64_t> Seen; // hash-based dedup with full check
  bool Inconsistent = false;
};

} // namespace rasc

#endif // RASC_CORE_REFERENCESOLVER_H
