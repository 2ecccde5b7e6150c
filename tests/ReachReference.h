//===- tests/ReachReference.h - PN-reachability reference -------*- C++ -*-===//
//
// Part of the RASC project: regularly annotated set constraints.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A reference for BidirectionalSolver::atomReachability built only
/// from the solver's public accessors. It runs the query the way the
/// solver did before it walked base edges: wrap steps over the
/// constructor lower bounds of every variable (derived ones included),
/// and, with unmatched projections, N steps through varSuccessors and
/// the system's projection constraints. The solver reads only the
/// surface bounds and the base var→var edges (DESIGN.md §4 decision
/// 13); the differential tests hold the two to the same facts.
///
//===----------------------------------------------------------------------===//

#ifndef RASC_TESTS_REACHREFERENCE_H
#define RASC_TESTS_REACHREFERENCE_H

#include "core/Solver.h"

#include <algorithm>
#include <set>
#include <tuple>
#include <vector>

namespace rasc {
namespace testgen {

/// Per variable (every VarId of the system, collapsed ones resolved
/// through rep), the sorted classes of \p Atom by the reference.
inline std::vector<std::vector<AnnId>>
referenceAtomReachability(const BidirectionalSolver &S, ConsId Atom,
                          bool AllowUnmatched) {
  const ConstraintSystem &CS = S.system();
  const AnnotationDomain &D = CS.domain();
  const bool Filter = S.options().FilterUseless;
  const VarId N = CS.numVars();

  struct Wrap {
    VarId Outer;
    AnnId Fn;
  };
  std::vector<std::vector<Wrap>> Wraps(N);
  std::vector<std::vector<std::pair<VarId, AnnId>>> Projections(N);
  std::set<std::tuple<VarId, AnnId, bool>> Seen;
  std::vector<std::tuple<VarId, AnnId, bool>> Work;
  auto add = [&](VarId V, AnnId A, bool P) {
    if (Filter && D.isUseless(A))
      return;
    if (Seen.insert({V, A, P}).second)
      Work.emplace_back(V, A, P);
  };

  for (VarId V = 0; V != N; ++V) {
    if (S.rep(V) != V)
      continue;
    for (auto [Src, F] : S.consLowerBounds(V)) {
      const Expr &E = CS.expr(Src);
      if (E.C == Atom && E.NumArgs == 0)
        add(V, F, false);
      for (VarId A : CS.args(E))
        Wraps[S.rep(A)].push_back({V, F});
    }
  }
  const std::vector<Constraint> &Cons = CS.constraints();
  for (uint32_t I = 0; I != Cons.size(); ++I) {
    const Expr &L = CS.expr(Cons[I].Lhs);
    if (CS.isRetracted(I) || L.Kind != ExprKind::Proj)
      continue;
    Projections[S.rep(L.V)].emplace_back(
        S.rep(CS.expr(Cons[I].Rhs).V), Cons[I].Ann);
  }

  for (size_t Head = 0; Head != Work.size(); ++Head) {
    auto [V, A, P] = Work[Head];
    for (Wrap W : Wraps[V])
      add(W.Outer, D.compose(W.Fn, A), true);
    if (!AllowUnmatched || P)
      continue;
    for (auto [Z, G] : Projections[V])
      add(Z, D.compose(G, A), false);
    for (auto [W, G] : S.varSuccessors(V))
      add(S.rep(W), D.compose(G, A), false);
  }

  std::vector<std::set<AnnId>> ByRep(N);
  for (auto [V, A, P] : Seen)
    ByRep[V].insert(A);
  std::vector<std::vector<AnnId>> Out(N);
  for (VarId V = 0; V != N; ++V)
    Out[V].assign(ByRep[S.rep(V)].begin(), ByRep[S.rep(V)].end());
  return Out;
}

/// The solver's answer in the reference's shape.
inline std::vector<std::vector<AnnId>>
solverAtomReachability(const BidirectionalSolver &S, ConsId Atom,
                       bool AllowUnmatched) {
  AtomReachability AR = S.atomReachability(Atom, AllowUnmatched);
  std::vector<std::vector<AnnId>> Out(S.system().numVars());
  for (VarId V = 0; V != Out.size(); ++V) {
    std::span<const AnnId> Anns = AR.annotations(V);
    Out[V].assign(Anns.begin(), Anns.end());
    std::sort(Out[V].begin(), Out[V].end());
  }
  return Out;
}

/// Whether every class of \p Sub at each variable is also in \p Super.
inline bool factsIncluded(const std::vector<std::vector<AnnId>> &Sub,
                          const std::vector<std::vector<AnnId>> &Super) {
  if (Sub.size() != Super.size())
    return false;
  for (size_t V = 0; V != Sub.size(); ++V)
    if (!std::includes(Super[V].begin(), Super[V].end(), Sub[V].begin(),
                       Sub[V].end()))
      return false;
  return true;
}

} // namespace testgen
} // namespace rasc

#endif // RASC_TESTS_REACHREFERENCE_H
