//===- tests/closure_exactness_test.cpp - Inductive-form exactness --------===//
//
// Part of the RASC project: regularly annotated set constraints.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The bidirectional solver closes only constructor lower bounds: its
/// transitive rule fires for a constructor left premise, so var→var
/// paths are never materialized (DESIGN.md §4 decision 12). These
/// tests hold every answer to the naive full-rule ReferenceSolver on
/// random systems with constructor upper bounds, constructor
/// mismatches, projections, identity and annotated cycles, over both
/// a transition monoid and the parametric SubstEnvDomain:
///
///  * constantAnnotations, the conflict set, the function-variable
///    constraints and fnVarSolution equal the oracle's;
///  * the path searches behind varSuccessors and consUpperBounds equal
///    the oracle's var→var and var→cons bounds.
///
/// With FilterUseless the oracle's sets are compared minus their
/// useless annotations (useless classes absorb under composition, so
/// no useful fact is derived through a useless one).
///
//===----------------------------------------------------------------------===//

#include "ReachReference.h"
#include "TestSystems.h"
#include "core/ReferenceSolver.h"
#include "core/SubstEnv.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <tuple>

using namespace rasc;

namespace {

using Status = BidirectionalSolver::Status;
using Triple = std::tuple<uint32_t, uint32_t, uint32_t>;

/// A random system over an arbitrary domain: annotations are drawn
/// from \p Anns, and every seed gets an identity cycle and an
/// annotated cycle on top of the random surface constraints.
struct System {
  ConstraintSystem *CS;
  std::vector<AnnId> Anns;
  std::vector<ConsId> Constants, Constructors;
  std::vector<VarId> Vars;
};

void addConstraints(System &S, Rng &R, unsigned N) {
  ConstraintSystem &CS = *S.CS;
  auto randVar = [&] { return S.Vars[R.below(S.Vars.size())]; };
  auto randAnn = [&] { return S.Anns[R.below(S.Anns.size())]; };
  auto randCons = [&]() -> ExprId {
    ConsId C = S.Constructors[R.below(S.Constructors.size())];
    std::vector<VarId> Args;
    for (uint32_t I = 0; I != CS.constructor(C).Arity; ++I)
      Args.push_back(randVar());
    return CS.cons(C, std::move(Args));
  };
  for (unsigned I = 0; I != N; ++I) {
    switch (R.below(7)) {
    case 0:
      CS.add(CS.cons(S.Constants[R.below(S.Constants.size())]),
             CS.var(randVar()), randAnn());
      break;
    case 1:
    case 2:
      CS.add(CS.var(randVar()), CS.var(randVar()), randAnn());
      break;
    case 3:
      CS.add(randCons(), CS.var(randVar()), randAnn());
      break;
    case 4:
      CS.add(CS.var(randVar()), randCons(), randAnn());
      break;
    case 5: {
      ConsId C = S.Constructors[R.below(S.Constructors.size())];
      CS.add(CS.proj(C,
                     static_cast<uint32_t>(
                         R.below(CS.constructor(C).Arity)),
                     randVar()),
             CS.var(randVar()), randAnn());
      break;
    }
    case 6: // constructor against constructor: matches and mismatches
      CS.add(randCons(), randCons(), randAnn());
      break;
    }
  }
  // One identity cycle and one annotated cycle over random variables.
  for (AnnId CycleAnn : {CS.domain().identity(), randAnn()}) {
    unsigned Len = 2 + static_cast<unsigned>(R.below(2));
    std::vector<VarId> Ring;
    for (unsigned I = 0; I != Len; ++I)
      Ring.push_back(randVar());
    for (unsigned I = 0; I != Len; ++I)
      CS.add(CS.var(Ring[I]), CS.var(Ring[(I + 1) % Len]),
             I == 0 ? CycleAnn : CS.domain().identity());
  }
}

void addSymbols(System &S, Rng &R) {
  ConstraintSystem &CS = *S.CS;
  for (unsigned I = 0, N = 1 + static_cast<unsigned>(R.below(2)); I != N;
       ++I)
    S.Constants.push_back(CS.addConstant("k" + std::to_string(I)));
  for (unsigned I = 0, N = 1 + static_cast<unsigned>(R.below(2)); I != N;
       ++I)
    S.Constructors.push_back(CS.addConstructor(
        "c" + std::to_string(I), 1 + static_cast<uint32_t>(R.below(2))));
  for (unsigned I = 0, N = 3 + static_cast<unsigned>(R.below(3)); I != N;
       ++I)
    S.Vars.push_back(CS.freshVar());
}

/// The oracle's answers, optionally without useless annotations.
struct OracleView {
  bool Consistent = true;
  std::set<Triple> Conflicts;
  std::set<Triple> FnVars;

  OracleView(const ConstraintSystem &CS, const ReferenceSolver &Ref,
             bool Consistent, bool DropUseless)
      : Consistent(Consistent) {
    const AnnotationDomain &D = CS.domain();
    for (ExprId E = 0; E != CS.numExprs(); ++E) {
      const Expr &L = CS.expr(E);
      if (L.Kind != ExprKind::Cons)
        continue;
      for (auto [Rhs, Ann] : Ref.upperBounds(E)) {
        const Expr &R = CS.expr(Rhs);
        if (R.Kind != ExprKind::Cons || (DropUseless && D.isUseless(Ann)))
          continue;
        if (L.C != R.C)
          Conflicts.insert({E, Rhs, Ann});
        else
          FnVars.insert({L.Alpha, Ann, R.Alpha});
      }
    }
  }
};

std::vector<AnnId> keepUseful(const AnnotationDomain &D,
                              std::vector<AnnId> Anns, bool DropUseless) {
  if (DropUseless)
    Anns.erase(std::remove_if(Anns.begin(), Anns.end(),
                              [&](AnnId F) { return D.isUseless(F); }),
               Anns.end());
  return Anns;
}

/// Identity-seeded least solution of \p Triples (f ∘ From ⊆ To).
std::vector<std::vector<AnnId>> fnVarLeastSolution(
    const ConstraintSystem &CS, const std::set<Triple> &Triples) {
  const AnnotationDomain &D = CS.domain();
  std::vector<std::set<AnnId>> Sol(CS.numFnVars());
  for (auto &S : Sol)
    S.insert(D.identity());
  for (bool Changed = true; Changed;) {
    Changed = false;
    for (auto [From, Fn, To] : Triples)
      for (AnnId F : std::vector<AnnId>(Sol[From].begin(), Sol[From].end()))
        Changed |= Sol[To].insert(D.compose(Fn, F)).second;
  }
  std::vector<std::vector<AnnId>> Out;
  for (const auto &S : Sol)
    Out.emplace_back(S.begin(), S.end());
  return Out;
}

/// Compares one solve of \p S's system under \p Opts with the oracle.
/// Without cycle elimination every answer is compared; with it, the
/// expression ids of rewritten constructors differ, so only the
/// status and the per-variable queries are.
void compareWithOracle(const System &S, SolverOptions Opts) {
  const ConstraintSystem &CS = *S.CS;
  const AnnotationDomain &D = CS.domain();
  const bool DropUseless = Opts.FilterUseless;
  SCOPED_TRACE(std::string("FilterUseless=") + (DropUseless ? "1" : "0") +
               " CycleElimination=" + (Opts.CycleElimination ? "1" : "0"));

  BidirectionalSolver Fast(CS, Opts);
  Status St = Fast.solve();
  ASSERT_FALSE(BidirectionalSolver::isInterrupted(St));

  ReferenceSolver Ref(CS);
  OracleView O(CS, Ref, Ref.solve(), DropUseless);

  EXPECT_EQ(St == Status::Solved, O.Conflicts.empty());
  if (!DropUseless) {
    EXPECT_EQ(O.Consistent, St == Status::Solved);
  }

  for (ConsId K : S.Constants)
    for (VarId V : S.Vars) {
      std::vector<AnnId> A = Fast.constantAnnotations(K, V);
      std::sort(A.begin(), A.end());
      EXPECT_EQ(A, keepUseful(D, Ref.constantAnnotations(K, V), DropUseless))
          << "constant " << CS.constructorName(K) << " in "
          << CS.varName(V);
    }

  for (VarId V : S.Vars) {
    std::vector<std::pair<VarId, AnnId>> WantVars, GotVars;
    std::vector<std::pair<ExprId, AnnId>> WantCons;
    for (auto [Rhs, Ann] : Ref.upperBounds(CS.var(V))) {
      if (DropUseless && D.isUseless(Ann))
        continue;
      const Expr &R = CS.expr(Rhs);
      if (R.Kind == ExprKind::Var)
        WantVars.emplace_back(Fast.rep(R.V), Ann);
      else
        WantCons.emplace_back(Rhs, Ann);
    }
    GotVars = Fast.varSuccessors(V);
    std::sort(GotVars.begin(), GotVars.end());
    std::sort(WantVars.begin(), WantVars.end());
    WantVars.erase(std::unique(WantVars.begin(), WantVars.end()),
                   WantVars.end());
    EXPECT_EQ(GotVars, WantVars) << "varSuccessors of " << CS.varName(V);
    if (Opts.CycleElimination)
      continue;
    std::vector<std::pair<ExprId, AnnId>> GotCons = Fast.consUpperBounds(V);
    std::sort(GotCons.begin(), GotCons.end());
    EXPECT_EQ(GotCons, WantCons) << "consUpperBounds of " << CS.varName(V);
  }
  if (Opts.CycleElimination)
    return;

  std::set<Triple> Conflicts;
  for (const SolvedEdge &C : Fast.conflicts())
    Conflicts.insert({C.Src, C.Dst, C.Ann});
  EXPECT_EQ(Conflicts, O.Conflicts);

  std::set<Triple> FnVars;
  for (const FnVarConstraint &F : Fast.fnVarConstraints())
    FnVars.insert({F.From, F.Fn, F.To});
  EXPECT_EQ(FnVars, O.FnVars);
  EXPECT_EQ(Fast.fnVarSolution(), fnVarLeastSolution(CS, O.FnVars));
}

void compareAllOptions(const System &S) {
  for (bool Filter : {false, true})
    for (bool Collapse : {false, true}) {
      SolverOptions Opts;
      Opts.FilterUseless = Filter;
      Opts.CycleElimination = Collapse;
      compareWithOracle(S, Opts);
    }
}

/// PN reachability of every constant of \p S, in both modes and under
/// every option setting, against the reference that wraps every
/// derived constructor lower bound (tests/ReachReference.h).
void compareAtomReachability(const System &S) {
  for (bool Filter : {false, true})
    for (bool Collapse : {false, true}) {
      SolverOptions Opts;
      Opts.FilterUseless = Filter;
      Opts.CycleElimination = Collapse;
      BidirectionalSolver Fast(*S.CS, Opts);
      ASSERT_FALSE(BidirectionalSolver::isInterrupted(Fast.solve()));
      for (ConsId K : S.Constants)
        for (bool Unmatched : {false, true})
          EXPECT_EQ(testgen::solverAtomReachability(Fast, K, Unmatched),
                    testgen::referenceAtomReachability(Fast, K, Unmatched))
              << "FilterUseless=" << Filter << " CycleElimination="
              << Collapse << " unmatched=" << Unmatched << " constant "
              << S.CS->constructorName(K);
    }
}

/// Builds seed \p Seed's random system over a transition monoid and
/// runs \p Check on it.
void onMonoidSystem(uint64_t Seed, void (*Check)(const System &)) {
  // The oracle's naive closure grows with |F|: two or three states.
  Rng R(Seed * 6007 + 3);
  MonoidDomain Dom(testgen::randomDfa(R, 2 + static_cast<unsigned>(R.below(2)),
                                      2 + static_cast<unsigned>(R.below(2))));
  ConstraintSystem CS(Dom);
  System S{&CS, {Dom.identity()}, {}, {}, {}};
  for (SymbolId Sym = 0; Sym != Dom.machine().numSymbols(); ++Sym)
    S.Anns.push_back(Dom.symbolAnn(Sym));
  addSymbols(S, R);
  addConstraints(S, R, 4 + static_cast<unsigned>(R.below(8)));
  SCOPED_TRACE("seed " + std::to_string(Seed));
  Check(S);
}

/// Builds seed \p Seed's random system over the parametric domain:
/// annotations are environments over two labels of one parameter,
/// plus lifted (non-parametric) elements. Runs \p Check on it.
void onSubstEnvSystem(uint64_t Seed, void (*Check)(const System &)) {
  Rng R(Seed * 7717 + 5);
  MonoidDomain Base(testgen::randomDfa(R, 2 + static_cast<unsigned>(R.below(2)),
                                       2));
  SubstEnvDomain Dom(Base);
  uint32_t X = Dom.name("x");
  uint32_t L1 = Dom.name("l1"), L2 = Dom.name("l2");
  ConstraintSystem CS(Dom);
  System S{&CS, {Dom.identity()}, {}, {}, {}};
  for (SymbolId Sym = 0; Sym != Base.machine().numSymbols(); ++Sym) {
    AnnId F = Base.symbolAnn(Sym);
    S.Anns.push_back(Dom.lift(F));
    S.Anns.push_back(Dom.instantiate({{X, L1}}, F));
    S.Anns.push_back(Dom.instantiate({{X, L2}}, F));
  }
  addSymbols(S, R);
  addConstraints(S, R, 4 + static_cast<unsigned>(R.below(6)));
  SCOPED_TRACE("seed " + std::to_string(Seed));
  Check(S);
}

class ClosureExactness : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ClosureExactness, MonoidSystemsMatchOracle) {
  onMonoidSystem(GetParam(), compareAllOptions);
}

TEST_P(ClosureExactness, SubstEnvSystemsMatchOracle) {
  onSubstEnvSystem(GetParam(), compareAllOptions);
}

TEST_P(ClosureExactness, MonoidSystemsAtomReachabilityMatchesReference) {
  onMonoidSystem(GetParam(), compareAtomReachability);
}

TEST_P(ClosureExactness, SubstEnvSystemsAtomReachabilityMatchesReference) {
  onSubstEnvSystem(GetParam(), compareAtomReachability);
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, ClosureExactness,
                         ::testing::Range(uint64_t(1), uint64_t(41)));

TEST(ClosureExactness, PathSearchComposesThroughChains) {
  // X ⊆^a Y ⊆^b Z ⊆ c(W): no var→var edge X→Z is materialized, yet
  // varSuccessors and consUpperBounds report the composed paths.
  Rng R(11);
  MonoidDomain Dom(testgen::randomDfa(R, 3, 2));
  ConstraintSystem CS(Dom);
  ConsId C = CS.addConstructor("c", 1);
  VarId X = CS.freshVar(), Y = CS.freshVar(), Z = CS.freshVar(),
        W = CS.freshVar();
  AnnId A = Dom.symbolAnn(SymbolId(0)), B = Dom.symbolAnn(SymbolId(1));
  CS.add(CS.var(X), CS.var(Y), A);
  CS.add(CS.var(Y), CS.var(Z), B);
  CS.add(CS.var(Z), CS.cons(C, {W}));
  SolverOptions Opts;
  Opts.FilterUseless = false;
  BidirectionalSolver S(CS, Opts);
  ASSERT_EQ(S.solve(), Status::Solved);

  size_t VarVar = 0;
  S.forEachDerivedEdge([&](ExprId Src, ExprId Dst, AnnId, bool) {
    VarVar += CS.expr(Src).Kind == ExprKind::Var &&
              CS.expr(Dst).Kind == ExprKind::Var;
  });
  EXPECT_EQ(VarVar, 2u) << "only the surface var→var edges";

  auto Succ = S.varSuccessors(X);
  std::sort(Succ.begin(), Succ.end());
  std::vector<std::pair<VarId, AnnId>> Want = {{Y, A},
                                               {Z, Dom.compose(B, A)}};
  std::sort(Want.begin(), Want.end());
  EXPECT_EQ(Succ, Want);
  auto Up = S.consUpperBounds(X);
  ASSERT_EQ(Up.size(), 1u);
  EXPECT_EQ(Up[0].first, CS.cons(C, {W}));
  EXPECT_EQ(Up[0].second, Dom.compose(B, A));
}

} // namespace
