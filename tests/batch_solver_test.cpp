//===- tests/batch_solver_test.cpp - Batch solving & wiring -----*- C++ -*-===//
//
// Part of the RASC project: regularly annotated set constraints.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Unit tests for the batch-solving layer: SolverStats merging, the
/// BatchSolver fork-join (claimer spawn failures, task exceptions,
/// governance), and batches built the way the applications build them
/// (pdmc and dataflow through prepare() / solver() / finalize(), flow
/// through the solver FlowAnalysis::prepare() returns) against their
/// sequential equivalents.
///
//===----------------------------------------------------------------------===//

#include "TestSystems.h"
#include "core/BatchSolver.h"
#include "dataflow/BitVector.h"
#include "flow/Analysis.h"
#include "pdmc/Checker.h"
#include "progen/ProgramGen.h"
#include "spec/SpecParser.h"
#include "support/FailPoint.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <span>
#include <stdexcept>
#include <thread>
#include <tuple>

using namespace rasc;

namespace {

using Status = BidirectionalSolver::Status;

//===----------------------------------------------------------------------===//
// SolverStats merging
//===----------------------------------------------------------------------===//

TEST(SolverStats, PlusEqualsSumsEveryField) {
  SolverStats A, B;
  A.EdgesInserted = 10;
  A.EdgesDropped = 1;
  A.UselessFiltered = 2;
  A.ComposeCalls = 20;
  A.DecomposeSteps = 3;
  A.ProjectionSteps = 4;
  A.FnVarConstraints = 5;
  A.CollapsedVars = 6;
  A.BudgetChecks = 7;
  A.Interrupts = 1;
  A.Resumes = 1;
  A.ProofRecords = 8;
  A.IngestSeconds = 0.5;
  A.ClosureSeconds = 1.5;
  B = A;
  B.EdgesInserted = 100;
  A += B;
  EXPECT_EQ(A.EdgesInserted, 110u);
  EXPECT_EQ(A.EdgesDropped, 2u);
  EXPECT_EQ(A.UselessFiltered, 4u);
  EXPECT_EQ(A.ComposeCalls, 40u);
  EXPECT_EQ(A.DecomposeSteps, 6u);
  EXPECT_EQ(A.ProjectionSteps, 8u);
  EXPECT_EQ(A.FnVarConstraints, 10u);
  EXPECT_EQ(A.CollapsedVars, 12u);
  EXPECT_EQ(A.BudgetChecks, 14u);
  EXPECT_EQ(A.Interrupts, 2u);
  EXPECT_EQ(A.Resumes, 2u);
  EXPECT_EQ(A.ProofRecords, 16u);
  EXPECT_DOUBLE_EQ(A.IngestSeconds, 1.0);
  EXPECT_DOUBLE_EQ(A.ClosureSeconds, 3.0);
}

//===----------------------------------------------------------------------===//
// BatchSolver basics
//===----------------------------------------------------------------------===//

/// A small program shared by the application-level tests.
Program makeProgram(uint64_t Seed,
                    std::vector<std::string> Ops = {}) {
  ProgGenOptions PG;
  PG.Seed = Seed;
  PG.NumFunctions = 3;
  PG.StmtsPerFunction = 8;
  PG.OpSymbols = std::move(Ops);
  return generateProgram(PG);
}

/// The derived edges of a solve, in arena order, plus its status:
/// enough to tell two solves of one system apart.
std::vector<std::tuple<ExprId, ExprId, AnnId>>
derivedEdges(const BidirectionalSolver &S) {
  std::vector<std::tuple<ExprId, ExprId, AnnId>> Out;
  S.forEachDerivedEdge([&](ExprId Src, ExprId Dst, AnnId Ann, bool) {
    Out.emplace_back(Src, Dst, Ann);
  });
  return Out;
}

/// K random systems from seeds Seed0.., one solver each.
struct RandomBatch {
  std::vector<testgen::RandomSystem> Systems;
  std::vector<std::unique_ptr<BidirectionalSolver>> Solvers;
  std::vector<BidirectionalSolver *> Ptrs;

  RandomBatch(size_t K, uint64_t Seed0, SolverOptions O = {}) {
    for (size_t I = 0; I != K; ++I) {
      Rng R(Seed0 + I);
      Systems.push_back(testgen::randomSystem(R));
      Solvers.push_back(
          std::make_unique<BidirectionalSolver>(*Systems.back().CS, O));
      Ptrs.push_back(Solvers.back().get());
    }
  }

  /// Every task's status, fixpoint and compose count equal a
  /// dedicated sequential solve of the same seed.
  void expectSequentialAnswers(std::span<const BatchSolver::Result> Results,
                               uint64_t Seed0) const {
    ASSERT_EQ(Results.size(), Solvers.size());
    for (size_t I = 0; I != Solvers.size(); ++I) {
      Rng R(Seed0 + I);
      testgen::RandomSystem Sys = testgen::randomSystem(R);
      BidirectionalSolver Seq(*Sys.CS);
      EXPECT_EQ(Results[I].St, Seq.solve()) << I;
      EXPECT_EQ(derivedEdges(*Solvers[I]), derivedEdges(Seq)) << I;
      EXPECT_EQ(Solvers[I]->stats().ComposeCalls, Seq.stats().ComposeCalls)
          << I;
    }
  }
};

TEST(BatchSolver, EmptyBatch) {
  BatchSolver Batch;
  std::vector<BidirectionalSolver *> None;
  EXPECT_TRUE(Batch.solveAll(None).empty());
  EXPECT_EQ(Batch.mergedStats().EdgesInserted, 0u);
}

TEST(BatchSolver, RestoresSolverOptions) {
  TrivialDomain Dom;
  ConstraintSystem CS(Dom);
  ConsId C = CS.addConstant("c");
  VarId V = CS.freshVar();
  CS.add(CS.cons(C), CS.var(V));

  SolverOptions O;
  O.MaxEdges = 12345;
  BidirectionalSolver S(CS, O);
  BatchSolver::Options BO;
  BO.Threads = 2;
  BO.DeadlineSeconds = 60;
  BO.MaxTotalMemoryBytes = 1 << 30;
  BatchSolver Batch(BO);
  std::vector<BidirectionalSolver *> Ptrs{&S};
  std::vector<BatchSolver::Result> R = Batch.solveAll(Ptrs);
  ASSERT_EQ(R.size(), 1u);
  EXPECT_EQ(R[0].St, Status::Solved);
  // The batch governance must not leak into the solver's options.
  EXPECT_EQ(S.options().MaxEdges, 12345u);
  EXPECT_EQ(S.options().DeadlineSeconds, 0.0);
  EXPECT_EQ(S.options().GroupMemory, nullptr);
  EXPECT_EQ(S.options().CancelFlag, nullptr);
}

TEST(BatchSolver, CancellationIsResumable) {
  // Cancellation through the supervisor fan-out is timing dependent
  // (a fast task may finish before the 10ms poll); the deterministic
  // property is: every task ends Solved or Cancelled, and cancelled
  // tasks resume to completion under a later batch.
  const char *SpecText = R"(
    start state A : | op -> B;
    accept state B;
  )";
  Expected<SpecAutomaton> Spec = parseSpecEx(SpecText);
  ASSERT_TRUE(Spec);
  Program Prog = makeProgram(3, {"op"});

  RascChecker Checker(Prog, *Spec);
  Checker.prepare();
  ASSERT_NE(Checker.solver(), nullptr);
  std::atomic<bool> Cancel{true};
  Checker.solver()->options().GovernanceCheckInterval = 1;

  BatchSolver::Options BO;
  BO.Threads = 2;
  BO.CancelFlag = &Cancel;
  BatchSolver Batch(BO);
  std::vector<BidirectionalSolver *> Ptrs{Checker.solver()};
  std::vector<BatchSolver::Result> First = Batch.solveAll(Ptrs);
  ASSERT_EQ(First.size(), 1u);
  EXPECT_TRUE(First[0].St == Status::Solved ||
              First[0].St == Status::Cancelled);

  Cancel.store(false);
  BatchSolver Resume(BatchSolver::Options{});
  std::vector<BatchSolver::Result> Second = Resume.solveAll(Ptrs);
  EXPECT_EQ(Second[0].St, Status::Solved);
}

TEST(BatchSolver, CancelFlagSetMidBatchReachesRunningTasks) {
  // Another thread sets the batch flag while solveAll runs; every
  // task's solver reads it directly at its next governance check.
  // Timing-dependent like the test above, so the checked property is
  // the deterministic one: every task ends Solved or Cancelled,
  // cancelled tasks resume, and nothing deadlocks.
  constexpr size_t K = 4;
  SolverOptions O;
  O.GovernanceCheckInterval = 1;
  RandomBatch B(K, 200, O);

  std::atomic<bool> Cancel{false};
  BatchSolver::Options BO;
  BO.Threads = 2;
  BO.CancelFlag = &Cancel;
  BatchSolver Batch(BO);
  std::thread Canceller([&Cancel] { Cancel.store(true); });
  std::vector<BatchSolver::Result> First = Batch.solveAll(B.Ptrs);
  Canceller.join();
  ASSERT_EQ(First.size(), K);
  for (size_t I = 0; I != K; ++I)
    EXPECT_TRUE(!BidirectionalSolver::isInterrupted(First[I].St) ||
                First[I].St == Status::Cancelled)
        << I;

  Cancel.store(false);
  std::vector<BatchSolver::Result> Second = Batch.solveAll(B.Ptrs);
  for (size_t I = 0; I != K; ++I)
    EXPECT_FALSE(BidirectionalSolver::isInterrupted(Second[I].St)) << I;
}

TEST(BatchSolver, WithoutABatchFlagEachTaskKeepsItsOwn) {
  // No batch CancelFlag: a task's own flag stays in force, so a set
  // flag cancels that task alone, and the batch leaves it in place.
  RandomBatch B(3, 260);
  std::atomic<bool> Own{true};
  B.Solvers[1]->options().CancelFlag = &Own;
  B.Solvers[1]->options().GovernanceCheckInterval = 1;

  BatchSolver::Options BO;
  BO.Threads = 2;
  BatchSolver Batch(BO);
  std::vector<BatchSolver::Result> First = Batch.solveAll(B.Ptrs);
  EXPECT_EQ(B.Solvers[1]->options().CancelFlag, &Own);
  EXPECT_EQ(First[1].St, Status::Cancelled);
  EXPECT_FALSE(BidirectionalSolver::isInterrupted(First[0].St));
  EXPECT_FALSE(BidirectionalSolver::isInterrupted(First[2].St));
  Own.store(false);
  for (const BatchSolver::Result &R : Batch.solveAll(B.Ptrs))
    EXPECT_FALSE(BidirectionalSolver::isInterrupted(R.St));
}

TEST(BatchSolver, WidthAboveTaskCountSpawnsOnlyClaimers) {
  // A configured width far beyond what the host can spawn: the pool
  // must be sized to the claimers actually run (one per task), not
  // to the width, or thread creation fails and aborts the process.
  RandomBatch B(2, 300);
  BatchSolver::Options BO;
  BO.Threads = 100000;
  BatchSolver Batch(BO);
  EXPECT_EQ(Batch.numThreads(), 100000u);
  B.expectSequentialAnswers(Batch.solveAll(B.Ptrs), 300);
}

TEST(BatchSolver, SolvesEveryTaskOnce) {
  // More tasks than claimers: the cursor hands each task to exactly
  // one claimer, so every fixpoint and compose count equals a
  // dedicated solve's (a task solved twice would count its ingest
  // twice, one skipped would stay unsolved).
  RandomBatch B(32, 400);
  BatchSolver::Options BO;
  BO.Threads = 4;
  BatchSolver Batch(BO);
  B.expectSequentialAnswers(Batch.solveAll(B.Ptrs), 400);
  uint64_t Sum = 0;
  for (const auto &S : B.Solvers)
    Sum += S->stats().EdgesInserted;
  EXPECT_EQ(Batch.mergedStats().EdgesInserted, Sum);
}

TEST(BatchSolver, ZeroThreadsMeansOnePerHardwareThread) {
  BatchSolver Batch;
  unsigned Hw = std::thread::hardware_concurrency();
  EXPECT_EQ(Batch.numThreads(), Hw ? Hw : 1u);
  RandomBatch B(3, 450);
  B.expectSequentialAnswers(Batch.solveAll(B.Ptrs), 450);
}

TEST(BatchSolver, RefusedClaimerSpawnStillMatchesSequential) {
  // A claimer the host refuses is not an error: the claimers already
  // running, the caller at least, drain the cursor. Arming with k
  // refuses the (k + 1)-th spawn: 0 leaves the caller alone, 1 the
  // caller plus one thread.
  for (uint64_t AfterHits : {0u, 1u}) {
    SCOPED_TRACE(AfterHits);
    RandomBatch B(6, 500);
    BatchSolver::Options BO;
    BO.Threads = 4;
    BatchSolver Batch(BO);
    std::vector<BatchSolver::Result> Results;
    {
      failpoints::ScopedFailPoint Fail(failpoints::Point::ThreadSpawn,
                                       AfterHits);
      Results = Batch.solveAll(B.Ptrs);
    }
    B.expectSequentialAnswers(Results, 500);
  }
}

/// A one-element domain whose compose() throws once armed: a task
/// that fails mid-solve, the way an allocation failure would.
class ThrowingDomain final : public AnnotationDomain {
public:
  AnnId identity() const override { return 0; }
  AnnId compose(AnnId, AnnId) const override {
    throw std::runtime_error("compose failed");
  }
  bool isAccepting(AnnId) const override { return true; }
  size_t size() const override { return 1; }
  std::string toString(AnnId) const override { return "eps"; }
};

TEST(BatchSolver, TaskExceptionRestoresOptionsAndRethrows) {
  // Task 1's domain throws from compose. solveAll must join every
  // claimer, restore every solver's options, and only then rethrow;
  // the other tasks still reach their fixpoints.
  constexpr size_t K = 4;
  TrivialDomain Trivial;
  ThrowingDomain Throwing;
  std::vector<std::unique_ptr<ConstraintSystem>> Systems;
  for (size_t I = 0; I != K; ++I) {
    auto CS = std::make_unique<ConstraintSystem>(
        I == 1 ? static_cast<const AnnotationDomain &>(Throwing) : Trivial);
    ConsId C = CS->addConstant("c");
    VarId X = CS->freshVar(), Y = CS->freshVar(), Z = CS->freshVar();
    CS->add(CS->cons(C), CS->var(X));
    CS->add(CS->var(X), CS->var(Y));
    CS->add(CS->var(Y), CS->var(Z));
    Systems.push_back(std::move(CS));
  }

  std::atomic<bool> Own{false};
  std::vector<std::unique_ptr<BidirectionalSolver>> Solvers;
  std::vector<BidirectionalSolver *> Ptrs;
  for (size_t I = 0; I != K; ++I) {
    SolverOptions O;
    O.MaxEdges = 1000 + I;
    O.CancelFlag = &Own;
    Solvers.push_back(std::make_unique<BidirectionalSolver>(*Systems[I], O));
    Ptrs.push_back(Solvers.back().get());
  }

  std::atomic<bool> BatchCancel{false};
  BatchSolver::Options BO;
  BO.Threads = 2;
  BO.DeadlineSeconds = 60;
  BO.MaxTotalMemoryBytes = 1 << 30;
  BO.CancelFlag = &BatchCancel;
  BatchSolver Batch(BO);
  EXPECT_THROW(Batch.solveAll(Ptrs), std::runtime_error);

  for (size_t I = 0; I != K; ++I) {
    const SolverOptions &O = Solvers[I]->options();
    EXPECT_EQ(O.MaxEdges, 1000 + I) << I;
    EXPECT_EQ(O.CancelFlag, &Own) << I;
    EXPECT_EQ(O.GroupMemory, nullptr) << I;
    EXPECT_EQ(O.MaxGroupMemoryBytes, 0u) << I;
    EXPECT_EQ(O.DeadlineSeconds, 0.0) << I;
    if (I == 1)
      continue;
    EXPECT_EQ(Solvers[I]->status(), Status::Solved) << I;
    BidirectionalSolver Seq(*Systems[I]);
    Seq.solve();
    EXPECT_EQ(derivedEdges(*Solvers[I]), derivedEdges(Seq)) << I;
  }
}

//===----------------------------------------------------------------------===//
// Application batch entry points vs. sequential
//===----------------------------------------------------------------------===//

TEST(BatchApps, PdmcCheckAllProperties) {
  const char *SpecA = R"(
    start state Unpriv : | seteuid_zero -> Priv;
    state Priv : | seteuid_nonzero -> Unpriv | execl -> Error;
    accept state Error;
  )";
  const char *SpecB = R"(
    start state Closed : | open -> Open;
    state Open : | close -> Closed | open -> Error;
    accept state Error;
  )";
  Expected<SpecAutomaton> A = parseSpecEx(SpecA);
  Expected<SpecAutomaton> B = parseSpecEx(SpecB);
  ASSERT_TRUE(A);
  ASSERT_TRUE(B);
  Program Prog = makeProgram(
      7, {"seteuid_zero", "seteuid_nonzero", "execl", "open", "close"});

  // Sequential reference: one dedicated checker per spec.
  std::vector<std::vector<Violation>> Expect;
  for (const SpecAutomaton *S : {&*A, &*B}) {
    RascChecker C(Prog, *S);
    Expect.push_back(C.check());
  }

  // Batch: the way rasctool and perfbench build it — prepare() each
  // checker, hand its solver() to one BatchSolver, then query.
  std::vector<std::unique_ptr<RascChecker>> Checkers;
  std::vector<BidirectionalSolver *> Ptrs;
  for (const SpecAutomaton *S : {&*A, &*B}) {
    Checkers.push_back(std::make_unique<RascChecker>(Prog, *S));
    Checkers.back()->prepare();
    Ptrs.push_back(Checkers.back()->solver());
  }
  BatchSolver::Options BO;
  BO.Threads = 4;
  BatchSolver Batch(BO);
  for (const BatchSolver::Result &R : Batch.solveAll(Ptrs))
    EXPECT_EQ(R.St, Status::Solved);
  std::vector<std::vector<Violation>> Got;
  uint64_t SumEdges = 0;
  for (auto &C : Checkers) {
    Got.push_back(C->collectViolations());
    SumEdges += C->solver()->stats().EdgesInserted;
  }
  EXPECT_EQ(Got, Expect);
  EXPECT_GT(Batch.mergedStats().EdgesInserted, 0u);
  EXPECT_EQ(Batch.mergedStats().EdgesInserted, SumEdges);
}

TEST(BatchApps, DataflowSolveAll) {
  constexpr size_t K = 4;
  std::vector<Program> Progs;
  std::vector<std::unique_ptr<BitVectorProblem>> Problems;
  for (size_t I = 0; I != K; ++I)
    Progs.push_back(makeProgram(20 + I));
  auto makeProblem = [&](size_t I) {
    auto P = std::make_unique<BitVectorProblem>(Progs[I], 3);
    Rng R(99 + I);
    for (StmtId S = 0; S != Progs[I].numStatements(); ++S) {
      if (R.chance(1, 4))
        P->setGen(S, static_cast<unsigned>(R.below(3)));
      if (R.chance(1, 5))
        P->setKill(S, static_cast<unsigned>(R.below(3)));
    }
    return P;
  };

  // Sequential reference answers.
  std::vector<std::vector<bool>> ExpectMay(K), ExpectMust(K);
  for (size_t I = 0; I != K; ++I) {
    Problems.push_back(makeProblem(I));
    AnnotatedBitVectorAnalysis An(*Problems[I]);
    An.solve();
    for (StmtId S = 0; S != Progs[I].numStatements(); ++S)
      for (unsigned Bit = 0; Bit != 3; ++Bit) {
        ExpectMay[I].push_back(An.mayHold(S, Bit));
        ExpectMust[I].push_back(An.mustHold(S, Bit));
      }
  }

  // Batch: fresh analyses over the same problems, built the way
  // rasctool and perfbench build them — prepare(), solver() on one
  // BatchSolver, then finalize().
  std::vector<std::unique_ptr<AnnotatedBitVectorAnalysis>> Analyses;
  std::vector<BidirectionalSolver *> Ptrs;
  for (size_t I = 0; I != K; ++I) {
    Analyses.push_back(
        std::make_unique<AnnotatedBitVectorAnalysis>(*Problems[I]));
    Analyses.back()->prepare();
    Ptrs.push_back(Analyses.back()->solver());
  }
  BatchSolver::Options BO;
  BO.Threads = 4;
  BatchSolver Batch(BO);
  std::vector<BatchSolver::Result> Results = Batch.solveAll(Ptrs);
  ASSERT_EQ(Results.size(), K);
  for (auto &A : Analyses)
    A->finalize();
  const SolverStats &Merged = Batch.mergedStats();

  uint64_t SumEdges = 0;
  for (size_t I = 0; I != K; ++I) {
    EXPECT_EQ(Results[I].St, Status::Solved);
    std::vector<bool> May, Must;
    for (StmtId S = 0; S != Progs[I].numStatements(); ++S)
      for (unsigned Bit = 0; Bit != 3; ++Bit) {
        May.push_back(Analyses[I]->mayHold(S, Bit));
        Must.push_back(Analyses[I]->mustHold(S, Bit));
      }
    EXPECT_EQ(May, ExpectMay[I]) << "analysis " << I;
    EXPECT_EQ(Must, ExpectMust[I]) << "analysis " << I;
    SumEdges += Analyses[I]->solverStats().EdgesInserted;
  }
  EXPECT_EQ(Merged.EdgesInserted, SumEdges);
}

TEST(BatchApps, FlowSolveAll) {
  const char *Source = R"(
    pair (y : int) : (int, int) = (1, y);
    swap (p : (int, int)) : (int, int) = (p.2, p.1);
    main (z : int) : int = swap(pair(z)).1;
  )";
  std::string Err;
  std::optional<FlowProgram> P = FlowProgram::parse(Source, &Err);
  ASSERT_TRUE(P) << Err;

  // Sequential reference: lazy per-analysis solves.
  std::vector<std::vector<bool>> Expect;
  for (FlowMode Mode : {FlowMode::Primal, FlowMode::Dual}) {
    FlowAnalysis FA(*P, Mode);
    std::vector<bool> Ans;
    for (FExprId From = 0; From != P->numExprs(); ++From)
      for (FExprId To = 0; To != P->numExprs(); ++To)
        Ans.push_back(FA.flows(From, To));
    Expect.push_back(std::move(Ans));
  }

  // Batch: both analyses prepared up front, solved on one BatchSolver.
  FlowAnalysis Primal(*P, FlowMode::Primal);
  FlowAnalysis Dual(*P, FlowMode::Dual);
  std::vector<FlowAnalysis *> Ptrs{&Primal, &Dual};
  std::vector<BidirectionalSolver *> Solvers{Primal.prepare(), Dual.prepare()};
  BatchSolver::Options BO;
  BO.Threads = 2;
  std::vector<BatchSolver::Result> Results =
      BatchSolver(BO).solveAll(Solvers);
  ASSERT_EQ(Results.size(), 2u);
  for (size_t I = 0; I != 2; ++I) {
    EXPECT_FALSE(BidirectionalSolver::isInterrupted(Results[I].St));
    std::vector<bool> Ans;
    for (FExprId From = 0; From != P->numExprs(); ++From)
      for (FExprId To = 0; To != P->numExprs(); ++To)
        Ans.push_back(Ptrs[I]->flows(From, To));
    EXPECT_EQ(Ans, Expect[I]) << (I == 0 ? "primal" : "dual");
  }
}

} // namespace
