//===- tests/governance_test.cpp - Resource governance tests ----*- C++ -*-===//
//
// Part of the RASC project: regularly annotated set constraints.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Budgets, cancellation, fault injection, and conflict witnesses:
/// every interrupt Status, the resumability contract (an interrupted
/// then resumed solve reaches the fixpoint of an uninterrupted one),
/// the governance stats counters, the provenance-based explanation of
/// Status::Inconsistent, the scoped failpoint guard, and the
/// rasctool exit-code mapping of each Status.
///
//===----------------------------------------------------------------------===//

#include "core/Domains.h"
#include "core/Solver.h"
#include "support/FailPoint.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>

#include <unistd.h>

using namespace rasc;

namespace {

using Status = BidirectionalSolver::Status;

/// A chain c ⊆ V0 ⊆ V1 ⊆ ... ⊆ V(N-1): the closure derives c ⊆ Vi for
/// every i, giving the governance checks a predictable amount of work.
struct Chain {
  TrivialDomain Dom;
  ConstraintSystem CS;
  ConsId C;
  std::vector<VarId> V;

  explicit Chain(unsigned N) : CS(Dom) {
    C = CS.addConstant("c");
    for (unsigned I = 0; I != N; ++I)
      V.push_back(CS.freshVar("V" + std::to_string(I)));
    CS.add(CS.cons(C), CS.var(V[0]));
    for (unsigned I = 0; I + 1 != N; ++I)
      CS.add(CS.var(V[I]), CS.var(V[I + 1]));
  }
};

/// Resumes \p S until completion (the budgets must have been lifted)
/// and checks it agrees with an uninterrupted solve of the same
/// system on status and on every constant query.
void expectSameFixpoint(BidirectionalSolver &S, const Chain &Sys) {
  Status Final = S.solve();
  BidirectionalSolver Fresh(Sys.CS);
  ASSERT_EQ(Fresh.solve(), Final);
  EXPECT_EQ(Fresh.stats().EdgesInserted, S.stats().EdgesInserted);
  for (VarId V : Sys.V) {
    std::vector<AnnId> A = S.constantAnnotations(Sys.C, V);
    std::vector<AnnId> B = Fresh.constantAnnotations(Sys.C, V);
    std::sort(A.begin(), A.end());
    std::sort(B.begin(), B.end());
    EXPECT_EQ(A, B);
  }
}

class GovernanceTest : public ::testing::Test {
protected:
  void SetUp() override { failpoints::disarmAll(); }
  void TearDown() override { failpoints::disarmAll(); }
};

TEST_F(GovernanceTest, EdgeLimitInterruptsAndResumes) {
  Chain Sys(40);
  SolverOptions O;
  O.MaxEdges = 10;
  BidirectionalSolver S(Sys.CS, O);
  ASSERT_EQ(S.solve(), Status::EdgeLimit);
  EXPECT_EQ(S.status(), Status::EdgeLimit);
  EXPECT_EQ(S.stats().Interrupts, 1u);
  // Checked between pops: bounded overshoot, not an unbounded run.
  EXPECT_GE(S.stats().EdgesInserted, 10u);

  S.options().MaxEdges = 0; // 0 = unlimited
  expectSameFixpoint(S, Sys);
  EXPECT_EQ(S.stats().Resumes, 1u);
}

TEST_F(GovernanceTest, StepLimitInterruptsAndResumes) {
  Chain Sys(40);
  SolverOptions O;
  O.MaxComposeSteps = 5;
  BidirectionalSolver S(Sys.CS, O);
  ASSERT_EQ(S.solve(), Status::StepLimit);
  EXPECT_GE(S.stats().ComposeCalls, 5u);

  S.options().MaxComposeSteps = 0;
  expectSameFixpoint(S, Sys);
}

TEST_F(GovernanceTest, RepeatedResumesReachTheFixpoint) {
  // Drive the whole closure through many tiny budget windows.
  Chain Sys(60);
  SolverOptions O;
  O.MaxEdges = 1;
  BidirectionalSolver S(Sys.CS, O);
  unsigned Interrupts = 0;
  while (BidirectionalSolver::isInterrupted(S.solve())) {
    ++Interrupts;
    S.options().MaxEdges += 3;
    ASSERT_LT(Interrupts, 1000u) << "no forward progress";
  }
  EXPECT_GT(Interrupts, 5u);
  EXPECT_EQ(S.stats().Interrupts, Interrupts);
  EXPECT_EQ(S.stats().Resumes, Interrupts);
  expectSameFixpoint(S, Sys);
}

TEST_F(GovernanceTest, CancellationFlag) {
  Chain Sys(40);
  std::atomic<bool> Cancel{true};
  SolverOptions O;
  O.CancelFlag = &Cancel;
  O.GovernanceCheckInterval = 1;
  BidirectionalSolver S(Sys.CS, O);
  ASSERT_EQ(S.solve(), Status::Cancelled);
  EXPECT_GT(S.stats().BudgetChecks, 0u);

  // Still set: solve() must interrupt again, not wedge or complete.
  ASSERT_EQ(S.solve(), Status::Cancelled);

  Cancel.store(false);
  expectSameFixpoint(S, Sys);
  EXPECT_EQ(S.stats().Resumes, 2u);
}

TEST_F(GovernanceTest, MemoryBudget) {
  Chain Sys(40);
  SolverOptions O;
  O.MaxMemoryBytes = 1; // any real solve exceeds one byte
  O.GovernanceCheckInterval = 1;
  BidirectionalSolver S(Sys.CS, O);
  ASSERT_EQ(S.solve(), Status::MemoryLimit);
  EXPECT_GT(S.memoryBytes(), 1u);

  S.options().MaxMemoryBytes = 0;
  expectSameFixpoint(S, Sys);
}

TEST_F(GovernanceTest, MemoryBytesAccountsGrowth) {
  Chain Sys(200);
  BidirectionalSolver S(Sys.CS);
  size_t Before = S.memoryBytes();
  ASSERT_EQ(S.solve(), Status::Solved);
  EXPECT_GT(S.memoryBytes(), Before);
}

TEST_F(GovernanceTest, MemoryBytesAccountsProofWriter) {
  // The proof-log writer's buffer and dedup bitmaps live inside the
  // solver and must be visible to the memory budget — otherwise a
  // governed solve with proof logging on could exceed MaxMemoryBytes
  // through an unaccounted channel.
  Chain A(200), B(200);
  BidirectionalSolver Plain(A.CS);
  ASSERT_EQ(Plain.solve(), Status::Solved);

  const std::string Path = ::testing::TempDir() + "governance_proof_" +
                           std::to_string(::getpid()) + ".rprf";
  SolverOptions O;
  O.ProofLogPath = Path;
  BidirectionalSolver Proved(B.CS, O);
  ASSERT_EQ(Proved.solve(), Status::Solved);
  ASSERT_FALSE(Proved.lastProofDiag());
  ASSERT_TRUE(Proved.proofActive());
  EXPECT_GT(Proved.memoryBytes(), Plain.memoryBytes());
  std::remove(Path.c_str());
}

TEST_F(GovernanceTest, DeadlineFailpoint) {
  Chain Sys(40);
  SolverOptions O;
  O.GovernanceCheckInterval = 1;
  BidirectionalSolver S(Sys.CS, O);
  failpoints::arm(failpoints::Point::SolverDeadline, 0);
  ASSERT_EQ(S.solve(), Status::Deadline);

  // The failpoint trips once; the resume runs to completion.
  expectSameFixpoint(S, Sys);
}

TEST_F(GovernanceTest, CancelFailpoint) {
  Chain Sys(40);
  SolverOptions O;
  O.GovernanceCheckInterval = 1;
  BidirectionalSolver S(Sys.CS, O);
  failpoints::arm(failpoints::Point::SolverCancel, 2);
  ASSERT_EQ(S.solve(), Status::Cancelled);
  expectSameFixpoint(S, Sys);
}

TEST_F(GovernanceTest, AllocationFailureFailpoint) {
  // A simulated allocation failure at the Nth fresh edge insert is
  // reported as MemoryLimit at the next edge boundary; the in-flight
  // fan-out completes first so the closure state stays resumable.
  Chain Sys(40);
  BidirectionalSolver S(Sys.CS);
  failpoints::arm(failpoints::Point::SolverEdgeInsert, 7);
  ASSERT_EQ(S.solve(), Status::MemoryLimit);
  EXPECT_GE(S.stats().EdgesInserted, 8u);
  expectSameFixpoint(S, Sys);
}

TEST_F(GovernanceTest, AddConstraintsWhileInterrupted) {
  // Constraints added between an interrupt and the resume must land
  // in the same fixpoint as a from-scratch solve of the full system.
  Chain Sys(30);
  SolverOptions O;
  O.MaxEdges = 8;
  BidirectionalSolver S(Sys.CS, O);
  ASSERT_EQ(S.solve(), Status::EdgeLimit);

  VarId Extra = Sys.CS.freshVar("extra");
  Sys.CS.add(Sys.CS.var(Sys.V.back()), Sys.CS.var(Extra));
  Sys.V.push_back(Extra);

  S.options().MaxEdges = 0;
  expectSameFixpoint(S, Sys);
}

TEST_F(GovernanceTest, TinyDeadlineTripsOnRealClock) {
  Chain Sys(200);
  SolverOptions O;
  O.DeadlineSeconds = 1e-12;
  O.GovernanceCheckInterval = 1;
  BidirectionalSolver S(Sys.CS, O);
  ASSERT_EQ(S.solve(), Status::Deadline);

  S.options().DeadlineSeconds = 0;
  expectSameFixpoint(S, Sys);
}

TEST_F(GovernanceTest, GovernanceStatsCount) {
  Chain Sys(300);
  SolverOptions O;
  O.GovernanceCheckInterval = 16;
  BidirectionalSolver S(Sys.CS, O);
  ASSERT_EQ(S.solve(), Status::Solved);
  EXPECT_GT(S.stats().BudgetChecks, 0u);
  EXPECT_EQ(S.stats().Interrupts, 0u);
  EXPECT_EQ(S.stats().Resumes, 0u);
}

TEST_F(GovernanceTest, WitnessExplainsMismatch) {
  TrivialDomain Dom;
  ConstraintSystem CS(Dom);
  ConsId A = CS.addConstructor("a", 1);
  ConsId B = CS.addConstructor("b", 1);
  (void)A;
  (void)B;
  VarId X = CS.freshVar("X"), Y = CS.freshVar("Y"), M = CS.freshVar("M");
  CS.add(CS.cons(A, {X}), CS.var(M));
  CS.add(CS.var(M), CS.cons(B, {Y}));

  SolverOptions O;
  O.TrackProvenance = true;
  BidirectionalSolver S(CS, O);
  ASSERT_EQ(S.solve(), Status::Inconsistent);
  ASSERT_EQ(S.conflicts().size(), 1u);

  std::vector<std::string> W = S.conflictWitness(0);
  ASSERT_FALSE(W.empty());
  // Chain shape: surface premises first, mismatch last.
  EXPECT_NE(W.front().find("[surface"), std::string::npos) << W.front();
  EXPECT_NE(W.back().find("constructor mismatch"), std::string::npos)
      << W.back();
  // The mismatched edge names both constructors.
  EXPECT_NE(W.back().find("a("), std::string::npos) << W.back();
  EXPECT_NE(W.back().find("b("), std::string::npos) << W.back();
  // Each surface step cites a real constraint index.
  size_t SurfaceLines = 0;
  for (const std::string &Line : W)
    if (Line.rfind("[surface", 0) == 0)
      ++SurfaceLines;
  EXPECT_EQ(SurfaceLines, 2u) << "both surface constraints cited";

  EXPECT_TRUE(S.conflictWitness(1).empty()) << "out of range";
}

TEST_F(GovernanceTest, WitnessNeedsProvenanceTracking) {
  TrivialDomain Dom;
  ConstraintSystem CS(Dom);
  ConsId A = CS.addConstructor("a", 1);
  ConsId B = CS.addConstructor("b", 1);
  VarId X = CS.freshVar(), Y = CS.freshVar(), M = CS.freshVar();
  CS.add(CS.cons(A, {X}), CS.var(M));
  CS.add(CS.var(M), CS.cons(B, {Y}));

  BidirectionalSolver S(CS); // TrackProvenance off
  ASSERT_EQ(S.solve(), Status::Inconsistent);
  ASSERT_EQ(S.conflicts().size(), 1u);
  EXPECT_TRUE(S.conflictWitness(0).empty());
}

TEST_F(GovernanceTest, WitnessSurvivesInterruptAndResume) {
  TrivialDomain Dom;
  ConstraintSystem CS(Dom);
  ConsId A = CS.addConstructor("a", 1);
  ConsId B = CS.addConstructor("b", 1);
  VarId M0 = CS.freshVar("M0");
  // A few hops between the bounds so the interrupt lands mid-closure.
  std::vector<VarId> Hops{M0};
  for (unsigned I = 1; I != 6; ++I) {
    Hops.push_back(CS.freshVar("M" + std::to_string(I)));
    CS.add(CS.var(Hops[I - 1]), CS.var(Hops[I]));
  }
  VarId X = CS.freshVar("X"), Y = CS.freshVar("Y");
  CS.add(CS.cons(A, {X}), CS.var(Hops.front()));
  CS.add(CS.var(Hops.back()), CS.cons(B, {Y}));

  SolverOptions O;
  O.TrackProvenance = true;
  O.MaxEdges = 3;
  BidirectionalSolver S(CS, O);
  Status St = S.solve();
  while (BidirectionalSolver::isInterrupted(St)) {
    S.options().MaxEdges += 3;
    St = S.solve();
  }
  ASSERT_EQ(St, Status::Inconsistent);
  ASSERT_FALSE(S.conflicts().empty());
  std::vector<std::string> W = S.conflictWitness(0);
  ASSERT_FALSE(W.empty());
  EXPECT_NE(W.back().find("constructor mismatch"), std::string::npos);
}

TEST_F(GovernanceTest, ScopedFailPointDisarmsOnExit) {
  EXPECT_FALSE(failpoints::armedAny());
  {
    failpoints::ScopedFailPoint P(failpoints::Point::ShortRead, 5);
    EXPECT_TRUE(failpoints::armedAny());
  }
  EXPECT_FALSE(failpoints::armedAny());
}

TEST_F(GovernanceTest, StatusExitCodeMapping) {
  EXPECT_EQ(statusExitCode(Status::Solved), 0);
  EXPECT_EQ(statusExitCode(Status::Inconsistent), 1);
  EXPECT_EQ(statusExitCode(Status::Deadline), 10);
  EXPECT_EQ(statusExitCode(Status::EdgeLimit), 11);
  EXPECT_EQ(statusExitCode(Status::StepLimit), 12);
  EXPECT_EQ(statusExitCode(Status::MemoryLimit), 13);
  EXPECT_EQ(statusExitCode(Status::Cancelled), 14);
  // The certification failure code stays disjoint from every status.
  for (Status S : {Status::Solved, Status::Inconsistent, Status::Deadline,
                   Status::EdgeLimit, Status::StepLimit,
                   Status::MemoryLimit, Status::Cancelled})
    EXPECT_NE(statusExitCode(S), ExitCodeCertifyFailed);
}

} // namespace
