//===- tests/batch_solver_test.cpp - SolvePool & batch wiring ---*- C++ -*-===//
//
// Part of the RASC project: regularly annotated set constraints.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Unit tests for the batch-solving layer: the work-stealing
/// ThreadPool, SolverStats merging, BatchSolver governance, and the
/// per-application batch entry points (pdmc checkAllProperties,
/// dataflow AnnotatedBitVectorAnalysis::solveAll, flow
/// FlowAnalysis::solveAll) against their sequential equivalents.
///
//===----------------------------------------------------------------------===//

#include "TestSystems.h"
#include "core/BatchSolver.h"
#include "dataflow/BitVector.h"
#include "flow/Analysis.h"
#include "pdmc/Checker.h"
#include "progen/ProgramGen.h"
#include "spec/SpecParser.h"
#include "support/Rng.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <tuple>

using namespace rasc;

namespace {

using Status = BidirectionalSolver::Status;

//===----------------------------------------------------------------------===//
// ThreadPool
//===----------------------------------------------------------------------===//

TEST(ThreadPool, RunsEveryJob) {
  ThreadPool Pool(4);
  EXPECT_EQ(Pool.numThreads(), 4u);
  std::atomic<int> Count{0};
  for (int I = 0; I != 100; ++I)
    Pool.run([&Count] { Count.fetch_add(1, std::memory_order_relaxed); });
  Pool.waitIdle();
  EXPECT_EQ(Count.load(), 100);
}

TEST(ThreadPool, JobsCanSubmitJobs) {
  ThreadPool Pool(2);
  std::atomic<int> Count{0};
  for (int I = 0; I != 8; ++I)
    Pool.run([&] {
      Count.fetch_add(1, std::memory_order_relaxed);
      Pool.run([&] { Count.fetch_add(1, std::memory_order_relaxed); });
    });
  Pool.waitIdle();
  EXPECT_EQ(Count.load(), 16);
}

TEST(ThreadPool, WaitIdleForTimesOut) {
  ThreadPool Pool(1);
  std::atomic<bool> Release{false};
  Pool.run([&] {
    while (!Release.load(std::memory_order_relaxed))
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
  });
  EXPECT_FALSE(Pool.waitIdleFor(std::chrono::milliseconds(20)));
  Release.store(true, std::memory_order_relaxed);
  Pool.waitIdle();
  EXPECT_TRUE(Pool.waitIdleFor(std::chrono::milliseconds(1)));
}

TEST(ThreadPool, JobExceptionPropagatesToWaiter) {
  ThreadPool Pool(4);
  std::atomic<int> Ran{0};
  for (int I = 0; I != 32; ++I)
    Pool.run([&Ran, I] {
      if (I == 7)
        throw std::runtime_error("job failed");
      Ran.fetch_add(1, std::memory_order_relaxed);
    });
  // The first exception is rethrown from the wait that observes the
  // drained pool — no deadlock, no std::terminate.
  EXPECT_THROW(Pool.waitIdle(), std::runtime_error);
  // The throwing job did not abandon the rest of the queue...
  EXPECT_EQ(Ran.load(), 31);
  // ...and the pool is reusable with no stale rethrow.
  Pool.run([&Ran] { Ran.fetch_add(1, std::memory_order_relaxed); });
  Pool.waitIdle();
  EXPECT_EQ(Ran.load(), 32);
}

TEST(ThreadPool, WaitIdleForRethrowsOnlyWhenDrained) {
  ThreadPool Pool(2);
  std::atomic<bool> Release{false};
  Pool.run([&] {
    while (!Release.load(std::memory_order_relaxed))
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    throw std::runtime_error("boom");
  });
  // Not drained yet: the timed wait times out without rethrowing.
  EXPECT_FALSE(Pool.waitIdleFor(std::chrono::milliseconds(20)));
  Release.store(true, std::memory_order_relaxed);
  bool Threw = false;
  try {
    while (!Pool.waitIdleFor(std::chrono::milliseconds(50))) {
    }
  } catch (const std::runtime_error &E) {
    Threw = true;
    EXPECT_STREQ(E.what(), "boom");
  }
  EXPECT_TRUE(Threw);
  EXPECT_TRUE(Pool.waitIdleFor(std::chrono::milliseconds(1)));
}

TEST(ThreadPool, ZeroThreadsClampsToOne) {
  ThreadPool Pool(0);
  EXPECT_EQ(Pool.numThreads(), 1u);
  std::atomic<int> Count{0};
  Pool.run([&] { Count.fetch_add(1); });
  Pool.waitIdle();
  EXPECT_EQ(Count.load(), 1);
}

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
  A.FnVarSeconds = 0.25;
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
  EXPECT_DOUBLE_EQ(A.FnVarSeconds, 0.5);
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

TEST(BatchSolver, CancelAllWakesBlockedSolveAll) {
  // Without an external CancelFlag, solveAll blocks on the pool's
  // condition variable (no polling); cancelAll from another thread
  // reaches the running tasks directly through their registered
  // per-task flags. Timing-dependent like the flag-based test above,
  // so the checked property is the deterministic one: every task ends
  // Solved or Cancelled, cancelled tasks resume, and nothing
  // deadlocks.
  constexpr size_t K = 4;
  std::vector<testgen::RandomSystem> Systems;
  std::vector<std::unique_ptr<BidirectionalSolver>> Solvers;
  std::vector<BidirectionalSolver *> Ptrs;
  for (size_t I = 0; I != K; ++I) {
    Rng R(200 + I);
    Systems.push_back(testgen::randomSystem(R));
    SolverOptions O;
    O.GovernanceCheckInterval = 1;
    Solvers.push_back(
        std::make_unique<BidirectionalSolver>(*Systems.back().CS, O));
    Ptrs.push_back(Solvers.back().get());
  }

  BatchSolver::Options BO;
  BO.Threads = 2;
  BatchSolver Batch(BO);
  Batch.cancelAll(); // no call in flight: documented no-op
  std::thread Canceller([&Batch] { Batch.cancelAll(); });
  std::vector<BatchSolver::Result> First = Batch.solveAll(Ptrs);
  Canceller.join();
  ASSERT_EQ(First.size(), K);
  for (size_t I = 0; I != K; ++I)
    EXPECT_TRUE(!BidirectionalSolver::isInterrupted(First[I].St) ||
                First[I].St == Status::Cancelled)
        << I;

  std::vector<BatchSolver::Result> Second = Batch.solveAll(Ptrs);
  for (size_t I = 0; I != K; ++I)
    EXPECT_FALSE(BidirectionalSolver::isInterrupted(Second[I].St)) << I;
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

TEST(BatchSolver, WidthAboveTaskCountSpawnsOnlyClaimers) {
  // A configured width far beyond what the host can spawn: the pool
  // must be sized to the claimers actually run (one per task), not
  // to the width, or thread creation fails and aborts the process.
  constexpr size_t K = 2;
  std::vector<testgen::RandomSystem> Systems;
  std::vector<std::unique_ptr<BidirectionalSolver>> Solvers;
  std::vector<BidirectionalSolver *> Ptrs;
  for (size_t I = 0; I != K; ++I) {
    Rng R(300 + I);
    Systems.push_back(testgen::randomSystem(R));
    Solvers.push_back(
        std::make_unique<BidirectionalSolver>(*Systems.back().CS));
    Ptrs.push_back(Solvers.back().get());
  }

  BatchSolver::Options BO;
  BO.Threads = 100000;
  BatchSolver Batch(BO);
  EXPECT_EQ(Batch.numThreads(), 100000u);
  std::vector<BatchSolver::Result> Results = Batch.solveAll(Ptrs);
  ASSERT_EQ(Results.size(), K);

  for (size_t I = 0; I != K; ++I) {
    Rng R(300 + I);
    testgen::RandomSystem Sys = testgen::randomSystem(R);
    BidirectionalSolver Seq(*Sys.CS);
    EXPECT_EQ(Results[I].St, Seq.solve()) << I;
    EXPECT_EQ(derivedEdges(*Solvers[I]), derivedEdges(Seq)) << I;
    EXPECT_EQ(Solvers[I]->stats().ComposeCalls, Seq.stats().ComposeCalls)
        << I;
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

  std::vector<const SpecAutomaton *> Specs{&*A, &*B};
  BatchSolver::Options BO;
  BO.Threads = 4;
  SolverStats Merged;
  std::vector<std::vector<Violation>> Got = checkAllProperties(
      Prog, Specs, BO, SolverOptions(), &Merged);
  EXPECT_EQ(Got, Expect);
  EXPECT_GT(Merged.EdgesInserted, 0u);
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

  // Batch: fresh analyses over the same problems, one pool.
  std::vector<std::unique_ptr<AnnotatedBitVectorAnalysis>> Analyses;
  std::vector<AnnotatedBitVectorAnalysis *> Ptrs;
  for (size_t I = 0; I != K; ++I) {
    Analyses.push_back(
        std::make_unique<AnnotatedBitVectorAnalysis>(*Problems[I]));
    Ptrs.push_back(Analyses.back().get());
  }
  BatchSolver::Options BO;
  BO.Threads = 4;
  SolverStats Merged;
  std::vector<BatchSolver::Result> Results =
      AnnotatedBitVectorAnalysis::solveAll(Ptrs, BO, &Merged);
  ASSERT_EQ(Results.size(), K);

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

  // Batch: both analyses prepared up front, solved on one pool.
  FlowAnalysis Primal(*P, FlowMode::Primal);
  FlowAnalysis Dual(*P, FlowMode::Dual);
  std::vector<FlowAnalysis *> Ptrs{&Primal, &Dual};
  BatchSolver::Options BO;
  BO.Threads = 2;
  std::vector<BatchSolver::Result> Results =
      FlowAnalysis::solveAll(Ptrs, BO);
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
