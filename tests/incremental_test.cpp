//===- tests/incremental_test.cpp - Retraction differentials ----*- C++ -*-===//
//
// Part of the RASC project: regularly annotated set constraints.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Differential tests of retraction (DESIGN.md §11): flagging a
/// constraint via ConstraintSystem::retract and then resetToFresh() +
/// solve() on the solver that already closed the system must land on
/// the fixpoint a solver built after the flag reaches — same status,
/// same answer to every query, same enumerated terms, same number of
/// inserted edges — across seeded random systems, with cycle
/// elimination on, and the result must certify.
///
/// Also here: retraction while a solve is interrupted or after cycle
/// elimination merged the retracted constraint's variables, the
/// system-level flag diagnostics, and the parser's "retract N;"
/// statement.
///
//===----------------------------------------------------------------------===//

#include "TestSystems.h"
#include "core/Certifier.h"
#include "frontend/ConstraintParser.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

using namespace rasc;

namespace {

using Status = BidirectionalSolver::Status;

/// Everything the comparison covers: status, every query-level
/// answer, and the inserted-edge count — a reset re-solve is a fresh
/// solve, so it must do exactly the work of one (a stale arena, dedup
/// row or watcher surviving resetToFresh() shows up here first).
struct Fixpoint {
  Status St;
  uint64_t Edges;
  std::vector<bool> Entails;
  std::vector<std::vector<std::string>> ConstAnns;
  std::vector<std::vector<std::string>> Succs;
  std::vector<std::vector<std::string>> Lower;
  std::vector<std::vector<std::string>> Terms;

  bool operator==(const Fixpoint &) const = default;
};

std::string renderExpr(const ConstraintSystem &CS, ExprId E) {
  const Expr &X = CS.expr(E);
  if (X.Kind == ExprKind::Var)
    return "v" + std::to_string(X.V);
  std::string S = CS.constructorName(X.C) + "(";
  for (uint32_t I = 0; I != X.NumArgs; ++I)
    S += (I ? ",v" : "v") + std::to_string(CS.arg(X, I));
  return S + ")";
}

Fixpoint semantics(const BidirectionalSolver &S, const ConstraintSystem &CS,
                   const AnnotationDomain &D) {
  Fixpoint F;
  F.St = S.status();
  F.Edges = S.stats().EdgesInserted;
  for (ConsId C = 0; C != CS.numConstructors(); ++C) {
    if (CS.constructor(C).Arity != 0)
      continue;
    for (VarId V = 0; V != CS.numVars(); ++V) {
      F.Entails.push_back(S.entailsConstant(C, V));
      std::vector<std::string> A;
      for (AnnId Ann : S.constantAnnotations(C, V))
        A.push_back(D.toString(Ann));
      std::sort(A.begin(), A.end());
      F.ConstAnns.push_back(std::move(A));
    }
  }
  for (VarId V = 0; V != CS.numVars(); ++V) {
    std::vector<std::string> Succ, Low, Trm;
    for (auto [W, Ann] : S.varSuccessors(V))
      Succ.push_back("v" + std::to_string(W) + "^" + D.toString(Ann));
    for (auto [E, Ann] : S.consLowerBounds(V))
      Low.push_back(renderExpr(CS, E) + "^" + D.toString(Ann));
    for (const GroundTerm &T : S.groundTerms(V, 3, 4096))
      Trm.push_back(toString(CS, T));
    std::sort(Succ.begin(), Succ.end());
    std::sort(Low.begin(), Low.end());
    std::sort(Trm.begin(), Trm.end());
    F.Succs.push_back(std::move(Succ));
    F.Lower.push_back(std::move(Low));
    F.Terms.push_back(std::move(Trm));
  }
  return F;
}

/// Fresh comparator: the same system regenerated from \p Seed with
/// \p Flagged retracted *before* the first solve.
Fixpoint freshFixpoint(uint64_t Seed, const std::vector<uint32_t> &Flagged) {
  Rng R(Seed);
  testgen::RandomSystem Sys = testgen::randomSystem(R);
  for (uint32_t Idx : Flagged)
    EXPECT_FALSE(Sys.CS->retract(Idx));
  BidirectionalSolver S(*Sys.CS);
  S.solve();
  return semantics(S, *Sys.CS, *Sys.Dom);
}

/// Retraction as every caller does it: flag the constraint, then
/// re-solve the edited system from scratch.
Status retractAndResolve(ConstraintSystem &CS, BidirectionalSolver &S,
                         uint32_t Idx) {
  EXPECT_FALSE(CS.retract(Idx));
  S.resetToFresh();
  return S.solve();
}

//===----------------------------------------------------------------===//
// Retract-vs-fresh differential
//===----------------------------------------------------------------===//

class IncrementalDifferential : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IncrementalDifferential, RetractMatchesFreshSolve) {
  const uint64_t Seed = GetParam();
  SCOPED_TRACE(testgen::seedContext(Seed, "incremental"));
  Rng R(Seed);
  testgen::RandomSystem Sys = testgen::randomSystem(R);
  const uint32_t N = static_cast<uint32_t>(Sys.CS->constraints().size());
  BidirectionalSolver S(*Sys.CS);
  Status St = S.solve();
  ASSERT_FALSE(BidirectionalSolver::isInterrupted(St));

  // Two successive single-constraint edits — the second re-solve runs
  // on a solver that was already reset once.
  uint32_t First = static_cast<uint32_t>(Seed % N);
  uint32_t Second = static_cast<uint32_t>((Seed / 3 + 7) % N);
  std::vector<uint32_t> Flagged;
  for (uint32_t Idx : {First, Second}) {
    if (std::find(Flagged.begin(), Flagged.end(), Idx) != Flagged.end())
      continue;
    SCOPED_TRACE("retract " + std::to_string(Idx));
    Flagged.push_back(Idx);
    ASSERT_FALSE(BidirectionalSolver::isInterrupted(
        retractAndResolve(*Sys.CS, S, Idx)));

    EXPECT_EQ(semantics(S, *Sys.CS, *Sys.Dom), freshFixpoint(Seed, Flagged));
    if (S.status() == Status::Solved) {
      CertificationReport Rep = certifyFixpoint(S);
      EXPECT_TRUE(Rep.Ok) << Rep.summary();
    }
  }
}

// 59 seeds, matching the other differential suites.
INSTANTIATE_TEST_SUITE_P(RandomSeeds, IncrementalDifferential,
                         ::testing::Range(uint64_t(1), uint64_t(60)));

/// Retracting every constraint one by one empties the system: the
/// final fixpoint must have no derived facts at all.
TEST(IncrementalDrain, RetractEverythingLeavesNothing) {
  for (uint64_t Seed : {3u, 17u, 41u}) {
    SCOPED_TRACE("seed " + std::to_string(Seed));
    Rng R(Seed);
    testgen::RandomSystem Sys = testgen::randomSystem(R);
    BidirectionalSolver S(*Sys.CS);
    ASSERT_FALSE(BidirectionalSolver::isInterrupted(S.solve()));
    const uint32_t N = static_cast<uint32_t>(Sys.CS->constraints().size());
    for (uint32_t Idx = 0; Idx != N; ++Idx)
      retractAndResolve(*Sys.CS, S, Idx);
    EXPECT_EQ(S.status(), Status::Solved);
    EXPECT_EQ(S.stats().EdgesInserted, 0u);
    EXPECT_EQ(S.processedEdges(), 0u);
    EXPECT_EQ(S.pendingEdges(), 0u);
    for (VarId V = 0; V != Sys.CS->numVars(); ++V) {
      EXPECT_TRUE(S.varSuccessors(V).empty());
      EXPECT_TRUE(S.consLowerBounds(V).empty());
    }
  }
}

//===----------------------------------------------------------------===//
// Retraction edge cases and the system-level flag diagnostics
//===----------------------------------------------------------------===//

TEST(RetractDiags, OutOfRangeIndex) {
  Rng R(5);
  testgen::RandomSystem Sys = testgen::randomSystem(R);
  std::optional<Diag> D = Sys.CS->retract(1u << 20);
  ASSERT_TRUE(D);
  EXPECT_NE(D->message().find("out of range"), std::string::npos);
  EXPECT_EQ(Sys.CS->numRetracted(), 0u);
}

TEST(RetractDiags, DoubleRetractRejectedBySystem) {
  Rng R(6);
  testgen::RandomSystem Sys = testgen::randomSystem(R);
  ASSERT_FALSE(Sys.CS->retract(1));
  std::optional<Diag> D = Sys.CS->retract(1);
  ASSERT_TRUE(D);
  EXPECT_NE(D->message().find("already retracted"), std::string::npos);
  EXPECT_EQ(Sys.CS->numRetracted(), 1u);
}

TEST(RetractDiags, RejectedWhileInterruptedThenWorksAfterResume) {
  // A retraction needs no quiescent solver: flagging during an
  // interrupted closure and re-solving from scratch abandons the
  // interrupted work, and the (re-interrupted) re-solve resumes to the
  // edited system's fixpoint once the budget is lifted.
  Rng R(7);
  testgen::RandomSystem Sys = testgen::randomSystem(R);
  SolverOptions O;
  O.MaxEdges = 2;
  BidirectionalSolver S(*Sys.CS, O);
  ASSERT_TRUE(BidirectionalSolver::isInterrupted(S.solve()));

  Status St = retractAndResolve(*Sys.CS, S, 0);
  S.options().MaxEdges = 0;
  if (BidirectionalSolver::isInterrupted(St))
    St = S.solve();
  ASSERT_FALSE(BidirectionalSolver::isInterrupted(St));
  std::vector<uint32_t> Flagged = {0};
  EXPECT_EQ(semantics(S, *Sys.CS, *Sys.Dom), freshFixpoint(7, Flagged));
  if (St == Status::Solved) {
    CertificationReport Rep = certifyFixpoint(S);
    EXPECT_TRUE(Rep.Ok) << Rep.summary();
  }
}

TEST(RetractDiags, CollapsedIdentityCycleGated) {
  // v0 <=1 v1, v1 <=1 v0 is an identity cycle: with cycle elimination
  // on (the default) the two variables merge. Retracting either half
  // must un-merge them — the re-solve's cycle elimination no longer
  // sees the flagged edge — and any other shape retracts the same way.
  auto build = [] {
    Rng R(8);
    testgen::RandomSystem Sys = testgen::randomSkeleton(R);
    ConstraintSystem &CS = *Sys.CS;
    AnnId One = Sys.Dom->identity();
    CS.add(CS.var(Sys.Vars[0]), CS.var(Sys.Vars[1]), One);       // 0
    CS.add(CS.var(Sys.Vars[1]), CS.var(Sys.Vars[0]), One);       // 1
    CS.add(CS.cons(Sys.Constants[0]), CS.var(Sys.Vars[0]), One); // 2
    return Sys;
  };
  auto freshAfter = [&](uint32_t Idx) {
    testgen::RandomSystem Fresh = build();
    EXPECT_FALSE(Fresh.CS->retract(Idx));
    BidirectionalSolver FS(*Fresh.CS);
    EXPECT_FALSE(BidirectionalSolver::isInterrupted(FS.solve()));
    return semantics(FS, *Fresh.CS, *Fresh.Dom);
  };

  // The identity var-var constraint v0 -> v1: the constant bounds v0
  // but no longer v1.
  testgen::RandomSystem Sys = build();
  BidirectionalSolver S(*Sys.CS);
  ASSERT_FALSE(BidirectionalSolver::isInterrupted(S.solve()));
  ASSERT_GT(S.stats().CollapsedVars, 0u);
  ASSERT_FALSE(BidirectionalSolver::isInterrupted(
      retractAndResolve(*Sys.CS, S, 0)));
  EXPECT_EQ(S.stats().CollapsedVars, 0u);
  EXPECT_NE(S.rep(Sys.Vars[0]), S.rep(Sys.Vars[1]));
  EXPECT_FALSE(S.consLowerBounds(Sys.Vars[0]).empty());
  EXPECT_TRUE(S.consLowerBounds(Sys.Vars[1]).empty());
  EXPECT_EQ(semantics(S, *Sys.CS, *Sys.Dom), freshAfter(0));
  CertificationReport Rep = certifyFixpoint(S);
  EXPECT_TRUE(Rep.Ok) << Rep.summary();

  // The constant bound: both merged variables empty, still merged.
  testgen::RandomSystem Sys2 = build();
  BidirectionalSolver S2(*Sys2.CS);
  ASSERT_FALSE(BidirectionalSolver::isInterrupted(S2.solve()));
  ASSERT_FALSE(BidirectionalSolver::isInterrupted(
      retractAndResolve(*Sys2.CS, S2, 2)));
  EXPECT_GT(S2.stats().CollapsedVars, 0u);
  EXPECT_TRUE(S2.consLowerBounds(Sys2.Vars[0]).empty());
  EXPECT_TRUE(S2.consLowerBounds(Sys2.Vars[1]).empty());
  EXPECT_EQ(semantics(S2, *Sys2.CS, *Sys2.Dom), freshAfter(2));
}

TEST(RetractDiags, NeverIngestedIndexIsJustASolve) {
  Rng R(9);
  testgen::RandomSystem Sys = testgen::randomSystem(R);
  BidirectionalSolver S(*Sys.CS);
  ASSERT_FALSE(BidirectionalSolver::isInterrupted(S.solve()));
  Fixpoint Before = semantics(S, *Sys.CS, *Sys.Dom);

  // A constraint added after the solve and retracted before the next
  // one never contributes a fact: the system flag alone suffices, and
  // the online solve() needs no reset.
  uint32_t NewIdx = static_cast<uint32_t>(Sys.CS->constraints().size());
  Sys.CS->add(Sys.CS->var(Sys.Vars[0]), Sys.CS->var(Sys.Vars[1]),
              Sys.Dom->identity());
  ASSERT_FALSE(Sys.CS->retract(NewIdx));
  ASSERT_FALSE(BidirectionalSolver::isInterrupted(S.solve()));
  EXPECT_EQ(S.ingestedConstraints(), Sys.CS->constraints().size());
  EXPECT_EQ(semantics(S, *Sys.CS, *Sys.Dom), Before);
}

//===----------------------------------------------------------------===//
// The "retract N;" statement
//===----------------------------------------------------------------===//

TEST(RetractStatement, FlagsByIngestionOrder) {
  std::string Err;
  std::optional<ConstraintProgram> P = ConstraintProgram::parse(
      "language regex \"g*\";\nconstant c;\nvar X;\nvar Y;\n"
      "c <= X;\nX <= Y;\nquery c in Y;\n",
      &Err);
  ASSERT_TRUE(P) << Err;
  ASSERT_EQ(P->system().constraints().size(), 2u);

  // Retract "X <= Y" (index 1): the query stops holding.
  std::optional<Diag> D = P->addStatements("retract 1;\n");
  ASSERT_FALSE(D) << D->render();
  EXPECT_TRUE(P->system().isRetracted(1));
  EXPECT_FALSE(P->system().isRetracted(0));
  auto Answers = P->solveAndAnswer();
  ASSERT_EQ(Answers.size(), 1u);
  EXPECT_FALSE(Answers[0].Holds);
}

TEST(RetractStatement, RejectsBadIndexesWithNothingApplied) {
  std::string Err;
  std::optional<ConstraintProgram> P = ConstraintProgram::parse(
      "language regex \"g\";\nconstant c;\nvar X;\nc <= X;\n", &Err);
  ASSERT_TRUE(P) << Err;

  size_t Applied = ~size_t(0);
  std::optional<Diag> D = P->addStatements("retract 5;\n", &Applied);
  ASSERT_TRUE(D);
  EXPECT_NE(D->message().find("out of range"), std::string::npos);
  EXPECT_EQ(Applied, 0u);
  EXPECT_EQ(P->system().numRetracted(), 0u);

  ASSERT_FALSE(P->addStatements("retract 0;\n"));
  Applied = ~size_t(0);
  std::optional<Diag> Dup = P->addStatements("retract 0;\n", &Applied);
  ASSERT_TRUE(Dup);
  EXPECT_NE(Dup->message().find("already retracted"), std::string::npos);
  EXPECT_EQ(Applied, 0u);
}

TEST(RetractStatement, TextReplayReachesTheSameFixpoint) {
  // The statement is the durability story: re-parsing text that ends
  // in "retract N;" must equal editing the live program.
  const char *Base = "language regex \"g*\";\nconstant c;\nvar X;\n"
                     "var Y;\nc <= X;\nX <= Y;\nquery c in Y;\n";
  std::string Err;
  std::optional<ConstraintProgram> Live = ConstraintProgram::parse(Base, &Err);
  ASSERT_TRUE(Live) << Err;
  ASSERT_FALSE(Live->addStatements("retract 0;\n"));

  std::optional<ConstraintProgram> Replayed =
      ConstraintProgram::parse(std::string(Base) + "retract 0;\n", &Err);
  ASSERT_TRUE(Replayed) << Err;
  EXPECT_EQ(Replayed->system().numRetracted(),
            Live->system().numRetracted());
  auto A = Live->solveAndAnswer();
  auto B = Replayed->solveAndAnswer();
  ASSERT_EQ(A.size(), 1u);
  ASSERT_EQ(B.size(), 1u);
  EXPECT_EQ(A[0].Holds, B[0].Holds);
  EXPECT_FALSE(B[0].Holds); // c no longer reaches X, let alone Y
}

} // namespace
