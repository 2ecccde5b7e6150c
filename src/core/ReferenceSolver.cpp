//===- core/ReferenceSolver.cpp - Naive resolution for testing --*- C++ -*-===//
//
// Part of the RASC project: regularly annotated set constraints.
//
//===----------------------------------------------------------------------===//

#include "core/ReferenceSolver.h"

#include <algorithm>

using namespace rasc;

bool ReferenceSolver::addConstraint(ExprId Lhs, ExprId Rhs, AnnId Ann) {
  uint64_t Key = hashCombine(hashCombine(Lhs, Rhs), Ann);
  // Hash plus full scan on hit: the oracle favours obviousness.
  if (Seen.count(Key)) {
    for (const Constraint &C : Cons)
      if (C.Lhs == Lhs && C.Rhs == Rhs && C.Ann == Ann)
        return false;
  }
  Seen.insert(Key);
  Cons.push_back({Lhs, Rhs, Ann});

  const Expr &L = CS.expr(Lhs);
  const Expr &R = CS.expr(Rhs);
  if (L.Kind == ExprKind::Cons && R.Kind == ExprKind::Cons && L.C != R.C)
    Inconsistent = true;
  return true;
}

bool ReferenceSolver::solve() {
  for (const Constraint &C : CS.constraints())
    addConstraint(C.Lhs, C.Rhs, C.Ann);

  const AnnotationDomain &D = CS.domain();
  bool Changed = true;
  while (Changed) {
    Changed = false;
    // Snapshot: rules may add constraints; newly added ones are
    // revisited on the next sweep.
    size_t N = Cons.size();
    for (size_t I = 0; I != N; ++I) {
      Constraint A = Cons[I];
      // By value: CS.var() below interns, which can reallocate the
      // expr table under any reference into it.
      const Expr AL = CS.expr(A.Lhs);
      const Expr AR = CS.expr(A.Rhs);

      // Structural rule.
      if (AL.Kind == ExprKind::Cons && AR.Kind == ExprKind::Cons &&
          AL.C == AR.C)
        for (uint32_t K = 0; K != AL.NumArgs; ++K)
          Changed |= addConstraint(CS.var(CS.arg(AL, K)),
                                   CS.var(CS.arg(AR, K)), A.Ann);

      for (size_t J = 0; J != N; ++J) {
        Constraint B = Cons[J];
        const Expr BL = CS.expr(B.Lhs);
        const Expr BR = CS.expr(B.Rhs);

        // Transitive rule: A.Rhs is the middle variable.
        if (AR.Kind == ExprKind::Var && BL.Kind == ExprKind::Var &&
            AR.V == BL.V && AL.Kind != ExprKind::Proj &&
            BR.Kind != ExprKind::Proj)
          Changed |= addConstraint(A.Lhs, B.Rhs, D.compose(B.Ann, A.Ann));

        // Projection rule: A is c(..) ⊆^f Y, B is c^-i(Y) ⊆^g Z.
        if (AL.Kind == ExprKind::Cons && AR.Kind == ExprKind::Var &&
            BL.Kind == ExprKind::Proj && BL.C == AL.C &&
            BL.V == AR.V)
          Changed |= addConstraint(CS.var(CS.arg(AL, BL.Index)), B.Rhs,
                                   D.compose(B.Ann, A.Ann));
      }
    }
  }
  return !Inconsistent;
}

std::vector<AnnId> ReferenceSolver::constantAnnotations(ConsId C,
                                                        VarId V) const {
  std::vector<AnnId> Out;
  for (const Constraint &Con : Cons) {
    const Expr &L = CS.expr(Con.Lhs);
    const Expr &R = CS.expr(Con.Rhs);
    if (L.Kind == ExprKind::Cons && L.C == C && L.NumArgs == 0 &&
        R.Kind == ExprKind::Var && R.V == V &&
        std::find(Out.begin(), Out.end(), Con.Ann) == Out.end())
      Out.push_back(Con.Ann);
  }
  std::sort(Out.begin(), Out.end());
  return Out;
}

std::vector<std::pair<ExprId, AnnId>>
ReferenceSolver::upperBounds(ExprId Lhs) const {
  std::vector<std::pair<ExprId, AnnId>> Out;
  for (const Constraint &Con : Cons)
    if (Con.Lhs == Lhs)
      Out.emplace_back(Con.Rhs, Con.Ann);
  std::sort(Out.begin(), Out.end());
  Out.erase(std::unique(Out.begin(), Out.end()), Out.end());
  return Out;
}
