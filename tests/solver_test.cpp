//===- tests/solver_test.cpp - Bidirectional solver tests -------*- C++ -*-===//
//
// Part of the RASC project: regularly annotated set constraints.
//
//===----------------------------------------------------------------------===//

#include "automata/Machines.h"
#include "automata/RegexParser.h"
#include "core/Domains.h"
#include "core/Solver.h"
#include "core/SubstEnv.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

using namespace rasc;

namespace {

bool containsAnn(std::span<const AnnId> V, AnnId A) {
  return std::find(V.begin(), V.end(), A) != V.end();
}

/// Paper Example 2.4 over M_1bit:
///   c^a ⊆^g W    o^b(W) ⊆^g X    X ⊆ o^c(Y)    o^c(Y) ⊆ Z
struct Example24 {
  MonoidDomain Dom;
  ConstraintSystem CS;
  ConsId C, O;
  VarId W, X, Y, Z;
  AnnId G;

  Example24() : Dom(buildOneBitMachine()), CS(Dom) {
    C = CS.addConstant("c");
    O = CS.addConstructor("o", 1);
    W = CS.freshVar("W");
    X = CS.freshVar("X");
    Y = CS.freshVar("Y");
    Z = CS.freshVar("Z");
    G = Dom.symbolAnn("g");
    CS.add(CS.cons(C), CS.var(W), G);
    CS.add(CS.cons(O, {W}), CS.var(X), G);
    CS.add(CS.var(X), CS.cons(O, {Y}));
    CS.add(CS.cons(O, {Y}), CS.var(Z));
  }
};

TEST(Solver, Example24SolvedForm) {
  Example24 E;
  BidirectionalSolver S(E.CS);
  ASSERT_EQ(S.solve(), BidirectionalSolver::Status::Solved);

  // Derived: W ⊆^{f_g} Y (structural decomposition of the transitive
  // edge o^b(W) ⊆^{f_g} o^c(Y)).
  auto WSucc = S.varSuccessors(E.W);
  bool FoundWY = false;
  for (auto [V, A] : WSucc)
    FoundWY |= V == E.Y && A == E.G;
  EXPECT_TRUE(FoundWY);

  // Derived: c ⊆^{f_g} Y via c ⊆^{f_g} W ⊆^{f_g} Y and f_g∘f_g = f_g.
  EXPECT_TRUE(containsAnn(S.constantAnnotations(E.C, E.Y), E.G));
  EXPECT_TRUE(containsAnn(S.constantAnnotations(E.C, E.W), E.G));
  // c is not a top-level member of Z (only o-terms are).
  EXPECT_TRUE(S.constantAnnotations(E.C, E.Z).empty());

  // f_g ∈ F_accept, so the entailment query holds at W and Y.
  EXPECT_TRUE(S.entailsConstant(E.C, E.Y));
  EXPECT_TRUE(S.entailsConstant(E.C, E.W));
}

TEST(Solver, Example24FunctionVariables) {
  Example24 E;
  BidirectionalSolver S(E.CS);
  ASSERT_EQ(S.solve(), BidirectionalSolver::Status::Solved);

  // The structural rule produced f_g ∘ beta ⊆ gamma where beta, gamma
  // annotate o^b(W) and o^c(Y).
  FnVarId Beta = E.CS.expr(E.CS.cons(E.O, {E.W})).Alpha;
  FnVarId Gamma = E.CS.expr(E.CS.cons(E.O, {E.Y})).Alpha;
  ASSERT_EQ(S.fnVarConstraints().size(), 1u);
  EXPECT_EQ(S.fnVarConstraints()[0].From, Beta);
  EXPECT_EQ(S.fnVarConstraints()[0].Fn, E.G);
  EXPECT_EQ(S.fnVarConstraints()[0].To, Gamma);

  // Seeding f_eps ⊆ beta yields f_g ∈ gamma: the paper's solution
  // gamma = {f_g}.
  std::vector<std::pair<FnVarId, AnnId>> Seeds{{Beta, E.Dom.identity()}};
  auto Sol = S.fnVarLeastSolution(Seeds);
  EXPECT_TRUE(containsAnn(Sol[Gamma], E.G));
  EXPECT_FALSE(containsAnn(Sol[Beta], E.G));
}

TEST(Solver, Example24GroundTerms) {
  Example24 E;
  BidirectionalSolver S(E.CS);
  ASSERT_EQ(S.solve(), BidirectionalSolver::Status::Solved);

  // The paper's solution for Z contains o^{f_g}(c^{f_g}).
  std::vector<GroundTerm> Terms = S.groundTerms(E.Z, 4);
  GroundTerm Expected{E.O, E.G, {GroundTerm{E.C, E.G, {}}}};
  bool Found = false;
  for (const GroundTerm &T : Terms)
    Found |= T == Expected;
  EXPECT_TRUE(Found) << "terms of Z:";
  if (!Found)
    for (const GroundTerm &T : Terms)
      ADD_FAILURE() << "  " << toString(E.CS, T);
}

TEST(Solver, ConstructorMismatchIsInconsistent) {
  TrivialDomain Dom;
  ConstraintSystem CS(Dom);
  ConsId A = CS.addConstructor("a", 1);
  ConsId B = CS.addConstructor("b", 1);
  VarId X = CS.freshVar(), Y = CS.freshVar(), M = CS.freshVar();
  CS.add(CS.cons(A, {X}), CS.var(M));
  CS.add(CS.var(M), CS.cons(B, {Y}));
  BidirectionalSolver S(CS);
  EXPECT_EQ(S.solve(), BidirectionalSolver::Status::Inconsistent);
  ASSERT_EQ(S.conflicts().size(), 1u);
  EXPECT_EQ(CS.expr(S.conflicts()[0].Src).C, A);
  EXPECT_EQ(CS.expr(S.conflicts()[0].Dst).C, B);
}

TEST(Solver, StructuralDecomposition) {
  TrivialDomain Dom;
  ConstraintSystem CS(Dom);
  ConsId Pair = CS.addConstructor("pair", 2);
  ConsId K = CS.addConstant("k");
  VarId X1 = CS.freshVar(), X2 = CS.freshVar();
  VarId Y1 = CS.freshVar(), Y2 = CS.freshVar();
  VarId M = CS.freshVar();
  CS.add(CS.cons(K), CS.var(X2));
  CS.add(CS.cons(Pair, {X1, X2}), CS.var(M));
  CS.add(CS.var(M), CS.cons(Pair, {Y1, Y2}));
  BidirectionalSolver S(CS);
  ASSERT_EQ(S.solve(), BidirectionalSolver::Status::Solved);
  EXPECT_TRUE(S.entailsConstant(K, Y2));
  EXPECT_FALSE(S.entailsConstant(K, Y1));
  EXPECT_EQ(S.stats().DecomposeSteps, 1u);
}

TEST(Solver, ProjectionRule) {
  TrivialDomain Dom;
  ConstraintSystem CS(Dom);
  ConsId Pair = CS.addConstructor("pair", 2);
  ConsId K1 = CS.addConstant("k1");
  ConsId K2 = CS.addConstant("k2");
  VarId X1 = CS.freshVar(), X2 = CS.freshVar();
  VarId P = CS.freshVar(), Z = CS.freshVar();
  CS.add(CS.cons(K1), CS.var(X1));
  CS.add(CS.cons(K2), CS.var(X2));
  CS.add(CS.cons(Pair, {X1, X2}), CS.var(P));
  CS.add(CS.proj(Pair, 0, P), CS.var(Z));
  BidirectionalSolver S(CS);
  ASSERT_EQ(S.solve(), BidirectionalSolver::Status::Solved);
  EXPECT_TRUE(S.entailsConstant(K1, Z));
  EXPECT_FALSE(S.entailsConstant(K2, Z));
}

TEST(Solver, ProjectionRegisteredAfterLowerBound) {
  // The watcher replay path: the projection constraint arrives after
  // the constructor lower bound has already been propagated.
  TrivialDomain Dom;
  ConstraintSystem CS(Dom);
  ConsId O = CS.addConstructor("o", 1);
  ConsId K = CS.addConstant("k");
  VarId X = CS.freshVar(), P = CS.freshVar(), Z = CS.freshVar();
  CS.add(CS.cons(K), CS.var(X));
  CS.add(CS.cons(O, {X}), CS.var(P));
  BidirectionalSolver S(CS);
  ASSERT_EQ(S.solve(), BidirectionalSolver::Status::Solved);
  EXPECT_FALSE(S.entailsConstant(K, Z));

  CS.add(CS.proj(O, 0, P), CS.var(Z));
  ASSERT_EQ(S.solve(), BidirectionalSolver::Status::Solved);
  EXPECT_TRUE(S.entailsConstant(K, Z));
}

TEST(Solver, AnnotatedProjectionComposes) {
  // c(...) ⊆^f Y and c^-i(Y) ⊆^g Z give Xi ⊆^{g∘f} Z.
  MonoidDomain Dom(buildOneBitMachine());
  ConstraintSystem CS(Dom);
  ConsId O = CS.addConstructor("o", 1);
  ConsId K = CS.addConstant("k");
  VarId X = CS.freshVar(), Y = CS.freshVar(), Z = CS.freshVar();
  AnnId G = Dom.symbolAnn("g");
  AnnId Kk = Dom.symbolAnn("k");
  CS.add(CS.cons(K), CS.var(X));
  CS.add(CS.cons(O, {X}), CS.var(Y), G);
  CS.add(CS.proj(O, 0, Y), CS.var(Z), Kk);
  BidirectionalSolver S(CS);
  ASSERT_EQ(S.solve(), BidirectionalSolver::Status::Solved);
  // f_k ∘ f_g = f_k.
  auto Anns = S.constantAnnotations(K, Z);
  ASSERT_EQ(Anns.size(), 1u);
  EXPECT_EQ(Anns[0], Kk);
}

TEST(Solver, UselessAnnotationFiltering) {
  // L = {a b}: the composition "a a" maps everything dead and is
  // filtered; with filtering off it is derived but not accepting.
  std::string Err;
  std::optional<Dfa> M = compileRegex("a b", {}, &Err);
  ASSERT_TRUE(M) << Err;
  for (bool Filter : {true, false}) {
    MonoidDomain Dom(*M);
    ConstraintSystem CS(Dom);
    ConsId C = CS.addConstant("c");
    VarId X0 = CS.freshVar(), X1 = CS.freshVar(), X2 = CS.freshVar();
    AnnId A = Dom.symbolAnn("a");
    CS.add(CS.cons(C), CS.var(X0));
    CS.add(CS.var(X0), CS.var(X1), A);
    CS.add(CS.var(X1), CS.var(X2), A);
    SolverOptions Opts;
    Opts.FilterUseless = Filter;
    BidirectionalSolver S(CS, Opts);
    ASSERT_EQ(S.solve(), BidirectionalSolver::Status::Solved);
    auto Anns = S.constantAnnotations(C, X2);
    if (Filter) {
      EXPECT_TRUE(Anns.empty());
      EXPECT_GT(S.stats().UselessFiltered, 0u);
    } else {
      ASSERT_EQ(Anns.size(), 1u);
      EXPECT_FALSE(Dom.isAccepting(Anns[0]));
    }
    EXPECT_FALSE(S.entailsConstant(C, X2));
  }
}

TEST(Solver, AcceptingChain) {
  std::string Err;
  std::optional<Dfa> M = compileRegex("a b", {}, &Err);
  ASSERT_TRUE(M) << Err;
  MonoidDomain Dom(*M);
  ConstraintSystem CS(Dom);
  ConsId C = CS.addConstant("c");
  VarId X0 = CS.freshVar(), X1 = CS.freshVar(), X2 = CS.freshVar();
  CS.add(CS.cons(C), CS.var(X0));
  CS.add(CS.var(X0), CS.var(X1), Dom.symbolAnn("a"));
  CS.add(CS.var(X1), CS.var(X2), Dom.symbolAnn("b"));
  BidirectionalSolver S(CS);
  ASSERT_EQ(S.solve(), BidirectionalSolver::Status::Solved);
  EXPECT_FALSE(S.entailsConstant(C, X1)); // "a" alone not in L
  EXPECT_TRUE(S.entailsConstant(C, X2));  // "a b" in L
}

TEST(Solver, CycleElimination) {
  TrivialDomain Dom;
  ConstraintSystem CS(Dom);
  ConsId C = CS.addConstant("c");
  VarId X = CS.freshVar(), Y = CS.freshVar(), Z = CS.freshVar();
  CS.add(CS.var(X), CS.var(Y));
  CS.add(CS.var(Y), CS.var(Z));
  CS.add(CS.var(Z), CS.var(X));
  CS.add(CS.cons(C), CS.var(X));

  SolverOptions Opts;
  Opts.CycleElimination = true;
  BidirectionalSolver S(CS, Opts);
  ASSERT_EQ(S.solve(), BidirectionalSolver::Status::Solved);
  EXPECT_EQ(S.stats().CollapsedVars, 2u);
  EXPECT_EQ(S.rep(X), S.rep(Y));
  EXPECT_EQ(S.rep(Y), S.rep(Z));
  EXPECT_TRUE(S.entailsConstant(C, X));
  EXPECT_TRUE(S.entailsConstant(C, Y));
  EXPECT_TRUE(S.entailsConstant(C, Z));
}

TEST(Solver, VarNodeIndexAfterCycleCollapse) {
  // Query paths route VarId -> node through the solver's VarNode
  // index (not CS.var() re-interning). After cycle collapse every
  // member of a collapsed SCC must resolve to the representative's
  // node, and consLowerBounds must surface bounds recorded there.
  TrivialDomain Dom;
  ConstraintSystem CS(Dom);
  ConsId C = CS.addConstant("c");
  VarId X = CS.freshVar(), Y = CS.freshVar(), Z = CS.freshVar();
  VarId Untouched = CS.freshVar();
  CS.add(CS.var(X), CS.var(Y));
  CS.add(CS.var(Y), CS.var(X));
  CS.add(CS.cons(C), CS.var(Y));
  CS.add(CS.var(Y), CS.var(Z));

  SolverOptions Opts;
  Opts.CycleElimination = true;
  BidirectionalSolver S(CS, Opts);
  ASSERT_EQ(S.solve(), BidirectionalSolver::Status::Solved);
  ASSERT_EQ(S.rep(X), S.rep(Y));

  // Both cycle members see the constant lower bound through the
  // shared representative node, and so does the downstream variable.
  for (VarId V : {X, Y, Z}) {
    auto Bounds = S.consLowerBounds(V);
    ASSERT_EQ(Bounds.size(), 1u) << "var " << CS.varName(V);
    EXPECT_EQ(CS.expr(Bounds[0].first).C, C);
  }
  // A variable that never appeared in any constraint has no node in
  // the index and therefore no bounds (and must not crash).
  EXPECT_TRUE(S.consLowerBounds(Untouched).empty());
  EXPECT_TRUE(S.consUpperBounds(Untouched).empty());
  EXPECT_TRUE(S.varSuccessors(Untouched).empty());
}

TEST(Solver, AnnotatedCycleNotCollapsed) {
  MonoidDomain Dom(buildOneBitMachine());
  ConstraintSystem CS(Dom);
  ConsId C = CS.addConstant("c");
  VarId X = CS.freshVar(), Y = CS.freshVar();
  CS.add(CS.var(X), CS.var(Y), Dom.symbolAnn("g"));
  CS.add(CS.var(Y), CS.var(X));
  CS.add(CS.cons(C), CS.var(X));
  SolverOptions Opts;
  Opts.CycleElimination = true;
  BidirectionalSolver S(CS, Opts);
  ASSERT_EQ(S.solve(), BidirectionalSolver::Status::Solved);
  EXPECT_NE(S.rep(X), S.rep(Y));
  // c reaches Y annotated f_g (accepting), and re-reaches X with f_g.
  EXPECT_TRUE(S.entailsConstant(C, Y));
  EXPECT_TRUE(S.entailsConstant(C, X));
}

TEST(Solver, OnlineSolving) {
  TrivialDomain Dom;
  ConstraintSystem CS(Dom);
  ConsId C = CS.addConstant("c");
  VarId X = CS.freshVar(), Y = CS.freshVar();
  CS.add(CS.cons(C), CS.var(X));
  BidirectionalSolver S(CS);
  ASSERT_EQ(S.solve(), BidirectionalSolver::Status::Solved);
  EXPECT_FALSE(S.entailsConstant(C, Y));
  CS.add(CS.var(X), CS.var(Y));
  ASSERT_EQ(S.solve(), BidirectionalSolver::Status::Solved);
  EXPECT_TRUE(S.entailsConstant(C, Y));
}

TEST(Solver, EdgeLimit) {
  TrivialDomain Dom;
  ConstraintSystem CS(Dom);
  ConsId C = CS.addConstant("c");
  std::vector<VarId> Vars;
  for (int I = 0; I != 50; ++I)
    Vars.push_back(CS.freshVar());
  CS.add(CS.cons(C), CS.var(Vars[0]));
  for (int I = 0; I + 1 != 50; ++I)
    CS.add(CS.var(Vars[I]), CS.var(Vars[I + 1]));
  SolverOptions Opts;
  Opts.MaxEdges = 10;
  Opts.CycleElimination = false;
  BidirectionalSolver S(CS, Opts);
  EXPECT_EQ(S.solve(), BidirectionalSolver::Status::EdgeLimit);
}

TEST(Solver, GenKillChain) {
  GenKillDomain Dom(4);
  ConstraintSystem CS(Dom);
  ConsId C = CS.addConstant("pc");
  VarId S0 = CS.freshVar(), S1 = CS.freshVar(), S2 = CS.freshVar(),
        S3 = CS.freshVar();
  CS.add(CS.cons(C), CS.var(S0));
  CS.add(CS.var(S0), CS.var(S1), Dom.gen(0));
  CS.add(CS.var(S1), CS.var(S2), Dom.gen(2));
  CS.add(CS.var(S2), CS.var(S3), Dom.kill(0));
  BidirectionalSolver S(CS);
  ASSERT_EQ(S.solve(), BidirectionalSolver::Status::Solved);
  auto Anns = S.constantAnnotations(C, S3);
  ASSERT_EQ(Anns.size(), 1u);
  // Bit 0 was gen'd then killed; bit 2 survives.
  EXPECT_EQ(Dom.apply(Anns[0], 0), 0b100u);
  // Gen after kill on the same path: kill 0 then gen 0 is just gen 0.
  EXPECT_EQ(Dom.genMask(Anns[0]), 0b100u);
  EXPECT_EQ(Dom.killMask(Anns[0]), 0b001u);
}

TEST(Solver, AtomReachabilityWithStacks) {
  MonoidDomain Dom(buildOneBitMachine());
  ConstraintSystem CS(Dom);
  ConsId Pc = CS.addConstant("pc");
  ConsId O1 = CS.addConstructor("o1", 1);
  ConsId O2 = CS.addConstructor("o2", 1);
  VarId A = CS.freshVar(), B = CS.freshVar(), C = CS.freshVar(),
        D = CS.freshVar();
  AnnId G = Dom.symbolAnn("g");
  CS.add(CS.cons(Pc), CS.var(A));
  CS.add(CS.cons(O1, {A}), CS.var(B), G); // pc wrapped once, under f_g
  CS.add(CS.cons(O2, {B}), CS.var(C));    // wrapped twice
  CS.add(CS.var(C), CS.var(D), G);
  BidirectionalSolver S(CS);
  ASSERT_EQ(S.solve(), BidirectionalSolver::Status::Solved);

  AtomReachability R = S.atomReachability(Pc);
  EXPECT_TRUE(containsAnn(R.annotations(A), Dom.identity()));
  EXPECT_TRUE(containsAnn(R.annotations(B), G));
  EXPECT_TRUE(containsAnn(R.annotations(C), G));
  EXPECT_TRUE(containsAnn(R.annotations(D), G));

  // The witness stack at D: pc is nested under o2(o1(.)).
  std::vector<ConsId> Stack = R.witnessStack(D, G);
  ASSERT_EQ(Stack.size(), 2u);
  EXPECT_EQ(Stack[0], O2);
  EXPECT_EQ(Stack[1], O1);
}

TEST(Solver, StackAwareAliasQuery) {
  // Section 7.5: X = {o1(a), o2(b)}, Y = {o2(a), o1(b)}; the solutions
  // do not intersect, so x and y are not aliased.
  TrivialDomain Dom;
  ConstraintSystem CS(Dom);
  ConsId O1 = CS.addConstructor("o1", 1);
  ConsId O2 = CS.addConstructor("o2", 1);
  ConsId LA = CS.addConstant("a");
  ConsId LB = CS.addConstant("b");
  VarId VA = CS.freshVar("va"), VB = CS.freshVar("vb");
  VarId X = CS.freshVar("x"), Y = CS.freshVar("y");
  CS.add(CS.cons(LA), CS.var(VA));
  CS.add(CS.cons(LB), CS.var(VB));
  CS.add(CS.cons(O1, {VA}), CS.var(X));
  CS.add(CS.cons(O2, {VB}), CS.var(X));
  CS.add(CS.cons(O2, {VA}), CS.var(Y));
  CS.add(CS.cons(O1, {VB}), CS.var(Y));
  BidirectionalSolver S(CS);
  ASSERT_EQ(S.solve(), BidirectionalSolver::Status::Solved);
  EXPECT_FALSE(S.solutionsIntersect(X, Y));

  // A context-insensitive reading would alias: both X and Y contain
  // both locations when constructors are stripped.
  VarId X2 = CS.freshVar(), Y2 = CS.freshVar();
  CS.add(CS.cons(O1, {VA}), CS.var(X2));
  CS.add(CS.cons(O1, {VA}), CS.var(Y2));
  ASSERT_EQ(S.solve(), BidirectionalSolver::Status::Solved);
  EXPECT_TRUE(S.solutionsIntersect(X2, Y2));
}

TEST(Solver, SubstEnvFileExample) {
  // Figure 6: open(fd1); open(fd2); close(fd1). The composed
  // environment must say fd1 is closed and fd2 is open.
  MonoidDomain Base(buildFileStateMachine());
  SubstEnvDomain Dom(Base);
  ConstraintSystem CS(Dom);

  uint32_t PX = Dom.name("x");
  uint32_t Fd1 = Dom.name("fd1");
  uint32_t Fd2 = Dom.name("fd2");
  AnnId OpenFd1 = Dom.instantiate({{PX, Fd1}}, Base.symbolAnn("open"));
  AnnId OpenFd2 = Dom.instantiate({{PX, Fd2}}, Base.symbolAnn("open"));
  AnnId CloseFd1 = Dom.instantiate({{PX, Fd1}}, Base.symbolAnn("close"));

  ConsId Pc = CS.addConstant("pc");
  VarId S1 = CS.freshVar(), S2 = CS.freshVar(), S3 = CS.freshVar(),
        S4 = CS.freshVar();
  CS.add(CS.cons(Pc), CS.var(S1));
  CS.add(CS.var(S1), CS.var(S2), OpenFd1);
  CS.add(CS.var(S2), CS.var(S3), OpenFd2);
  CS.add(CS.var(S3), CS.var(S4), CloseFd1);

  BidirectionalSolver S(CS);
  ASSERT_EQ(S.solve(), BidirectionalSolver::Status::Solved);
  auto Anns = S.constantAnnotations(Pc, S4);
  ASSERT_EQ(Anns.size(), 1u);
  AnnId Env = Anns[0];

  StateId Closed = Base.machine().start(); // "closed" is the start
  AnnId FnFd1 = Dom.lookup(Env, {{PX, Fd1}});
  AnnId FnFd2 = Dom.lookup(Env, {{PX, Fd2}});
  // fd1: open then close = back to closed.
  EXPECT_EQ(Base.apply(FnFd1, Closed), Closed);
  // fd2: open = the "opened" state, not closed and not dead.
  StateId Fd2State = Base.apply(FnFd2, Closed);
  EXPECT_NE(Fd2State, Closed);
  EXPECT_TRUE(Base.machine().liveStates().test(Fd2State));
  // An un-mentioned descriptor is governed by the residual: identity.
  uint32_t Fd3 = Dom.name("fd3");
  EXPECT_EQ(Base.apply(Dom.lookup(Env, {{PX, Fd3}}), Closed), Closed);
  EXPECT_EQ(Dom.residual(Env), Base.identity());
}

TEST(Solver, GeneralQueryForm) {
  // Section 3.2's general query: does the set of terms o(A) intersect
  // Z, with an accepting top-level annotation? Example 2.4's Z holds
  // o-terms over c, so the query succeeds when A can contain c and
  // fails for a disjoint component.
  Example24 E;
  BidirectionalSolver S(E.CS);
  ASSERT_EQ(S.solve(), BidirectionalSolver::Status::Solved);

  // Query o(W): W's solution contains c, like Y's (the pair shares
  // the constant), so o(W) ∩ Z is non-empty.
  EXPECT_TRUE(S.exprIntersectsVar(E.CS.cons(E.O, {E.W}), E.Z));
  // A fresh empty variable cannot match the component.
  VarId Fresh = E.CS.freshVar();
  EXPECT_FALSE(S.exprIntersectsVar(E.CS.cons(E.O, {Fresh}), E.Z));
  // Restricting to accepting annotations keeps the hit (the o-term
  // reaches Z with f_g via the surface constraint's epsilon and the
  // constructor's own accepting class)...
  auto Accepting = +[](const AnnotationDomain &D, AnnId F) {
    return D.isAccepting(F);
  };
  auto Rejecting = +[](const AnnotationDomain &D, AnnId F) {
    (void)D;
    (void)F;
    return false;
  };
  EXPECT_FALSE(S.exprIntersectsVar(E.CS.cons(E.O, {E.W}), E.Z,
                                   Rejecting));
  (void)Accepting;
  // Mismatched constructor: no intersection.
  ConsId Other = E.CS.addConstructor("other", 1);
  EXPECT_FALSE(S.exprIntersectsVar(E.CS.cons(Other, {E.W}), E.Z));
}

TEST(Solver, ToDotSmoke) {
  Example24 E;
  BidirectionalSolver S(E.CS);
  ASSERT_EQ(S.solve(), BidirectionalSolver::Status::Solved);
  std::string Dot = S.toDot("ex24");
  EXPECT_NE(Dot.find("digraph"), std::string::npos);
  EXPECT_NE(Dot.find("o(W)"), std::string::npos);
  EXPECT_NE(Dot.find("->"), std::string::npos);
}

TEST(Solver, TrivialDomainIsPlainSetConstraints) {
  TrivialDomain Dom;
  ConstraintSystem CS(Dom);
  ConsId C = CS.addConstant("c");
  VarId X = CS.freshVar(), Y = CS.freshVar();
  CS.add(CS.cons(C), CS.var(X));
  CS.add(CS.var(X), CS.var(Y));
  BidirectionalSolver S(CS);
  ASSERT_EQ(S.solve(), BidirectionalSolver::Status::Solved);
  EXPECT_TRUE(S.entailsConstant(C, Y));
  EXPECT_EQ(Dom.size(), 1u);
}

TEST(Solver, CollapseWithoutIdentityVarEdgesKeepsEveryRep) {
  // Cycles through annotated and constructor edges only: nothing to
  // collapse, so every variable stays its own representative.
  MonoidDomain Dom(buildOneBitMachine());
  ConstraintSystem CS(Dom);
  ConsId C = CS.addConstant("c");
  ConsId O = CS.addConstructor("o", 1);
  VarId X = CS.freshVar(), Y = CS.freshVar(), Z = CS.freshVar();
  AnnId G = Dom.symbolAnn("g");
  CS.add(CS.var(X), CS.var(Y), G);
  CS.add(CS.var(Y), CS.var(X), G);
  CS.add(CS.cons(O, {X}), CS.var(Z));
  CS.add(CS.var(Z), CS.cons(O, {Y}));
  CS.add(CS.cons(C), CS.var(X));
  BidirectionalSolver S(CS);
  ASSERT_TRUE(S.options().CycleElimination);
  ASSERT_EQ(S.solve(), BidirectionalSolver::Status::Solved);
  EXPECT_EQ(S.stats().CollapsedVars, 0u);
  for (VarId V = 0; V != CS.numVars(); ++V)
    EXPECT_EQ(S.rep(V), V);
}

TEST(Solver, AtomReachabilityThroughCollapsedConstructorArgument) {
  // X and Y form an identity cycle, so one of them is collapsed into
  // the other, and one of the constructor bounds o(X), o(Y) has an
  // argument whose representative is another variable. The wrap index
  // must file it under the representative: the PN answers equal the
  // ones without cycle elimination.
  MonoidDomain Dom(buildOneBitMachine());
  ConstraintSystem CS(Dom);
  ConsId C = CS.addConstant("c");
  ConsId O = CS.addConstructor("o", 1);
  VarId X = CS.freshVar("X"), Y = CS.freshVar("Y"), Z = CS.freshVar("Z");
  VarId W = CS.freshVar("W"), U = CS.freshVar("U"), T = CS.freshVar("T");
  AnnId G = Dom.symbolAnn("g");
  CS.add(CS.cons(C), CS.var(X), G);
  CS.add(CS.var(X), CS.var(Y));
  CS.add(CS.var(Y), CS.var(X));
  CS.add(CS.cons(O, {X}), CS.var(Z));
  CS.add(CS.cons(O, {Y}), CS.var(W), Dom.symbolAnn("k"));
  CS.add(CS.proj(O, 0, Z), CS.var(U));
  CS.add(CS.var(U), CS.var(T), G);

  auto solved = [&](bool Collapse) {
    SolverOptions Opts;
    Opts.CycleElimination = Collapse;
    auto S = std::make_unique<BidirectionalSolver>(CS, Opts);
    EXPECT_EQ(S->solve(), BidirectionalSolver::Status::Solved);
    return S;
  };
  std::unique_ptr<BidirectionalSolver> On = solved(true), Off = solved(false);
  ASSERT_EQ(On->rep(X), On->rep(Y));
  ASSERT_TRUE(On->rep(X) != X || On->rep(Y) != Y);
  for (bool Unmatched : {false, true}) {
    AtomReachability A = On->atomReachability(C, Unmatched);
    AtomReachability B = Off->atomReachability(C, Unmatched);
    size_t Facts = 0;
    for (VarId V = 0; V != CS.numVars(); ++V) {
      std::span<const AnnId> GotS = A.annotations(V),
                             WantS = B.annotations(V);
      std::vector<AnnId> Got(GotS.begin(), GotS.end()),
          Want(WantS.begin(), WantS.end());
      std::sort(Got.begin(), Got.end());
      std::sort(Want.begin(), Want.end());
      EXPECT_EQ(Got, Want) << CS.varName(V) << " unmatched=" << Unmatched;
      for (AnnId Ann : Want)
        EXPECT_EQ(A.witnessStack(V, Ann).size(),
                  B.witnessStack(V, Ann).size())
            << CS.varName(V);
      Facts += Want.size();
    }
    EXPECT_GT(Facts, 0u);
    EXPECT_FALSE(B.annotations(W).empty()) << "c reaches W wrapped in o";
  }
}

} // namespace
