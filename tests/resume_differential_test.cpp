//===- tests/resume_differential_test.cpp - Interrupt/resume ----*- C++ -*-===//
//
// Part of the RASC project: regularly annotated set constraints.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Differential tests of the resumability contract: a solve
/// interrupted at the Nth step — by the edge cap, the compose-step
/// budget, a fault-injected deadline, or a fault-injected
/// cancellation — and then resumed must reach the *identical*
/// fixpoint as an uninterrupted run: same status, same edge count,
/// same answer to every constant query. Runs over seeded random
/// systems (the solver_property_test generator), both edge-dedup
/// backends, and constraint systems generated by all three
/// applications (pdmc, dataflow, flow).
///
//===----------------------------------------------------------------------===//

#include "TestSystems.h"
#include "dataflow/BitVector.h"
#include "flow/Analysis.h"
#include "pdmc/Checker.h"
#include "progen/ProgramGen.h"
#include "spec/SpecParser.h"
#include "support/FailPoint.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace rasc;

namespace {

using Status = BidirectionalSolver::Status;

enum class Interrupt { Edge, Step, Deadline, Cancel };

constexpr Interrupt AllInterrupts[] = {Interrupt::Edge, Interrupt::Step,
                                       Interrupt::Deadline,
                                       Interrupt::Cancel};

const char *interruptName(Interrupt K) {
  switch (K) {
  case Interrupt::Edge:
    return "edge";
  case Interrupt::Step:
    return "step";
  case Interrupt::Deadline:
    return "deadline";
  case Interrupt::Cancel:
    return "cancel";
  }
  return "?";
}

/// Everything we compare between an uninterrupted and a resumed
/// solve: final status, total edges, and the answer to every
/// (constant, variable) query.
struct Fixpoint {
  Status St;
  uint64_t Edges;
  std::vector<std::vector<AnnId>> ConstAnns;
  std::vector<bool> Entails;

  bool operator==(const Fixpoint &) const = default;
};

Fixpoint snapshot(const BidirectionalSolver &S, const ConstraintSystem &CS) {
  Fixpoint F;
  F.St = S.status();
  F.Edges = S.stats().EdgesInserted;
  for (ConsId C = 0; C != CS.numConstructors(); ++C) {
    if (CS.constructor(C).Arity != 0)
      continue;
    for (VarId V = 0; V != CS.numVars(); ++V) {
      std::vector<AnnId> A = S.constantAnnotations(C, V);
      std::sort(A.begin(), A.end());
      F.ConstAnns.push_back(std::move(A));
      F.Entails.push_back(S.entailsConstant(C, V));
    }
  }
  return F;
}

/// Solves \p CS without interruption under \p Base.
Fixpoint solveStraight(const ConstraintSystem &CS, SolverOptions Base) {
  BidirectionalSolver S(CS, Base);
  Status St = S.solve();
  EXPECT_FALSE(BidirectionalSolver::isInterrupted(St));
  return snapshot(S, CS);
}

/// Solves \p CS with interrupt kind \p K tripping after roughly \p N
/// units, resumes (re-tripping a couple of times for the failpoint
/// kinds) until completion, and checks the fixpoint against \p
/// Expect. \returns how many interrupts occurred.
unsigned checkInterruptedResume(const ConstraintSystem &CS,
                                SolverOptions Base, Interrupt K, uint64_t N,
                                const Fixpoint &Expect,
                                const std::string &Ctx) {
  SolverOptions O = Base;
  switch (K) {
  case Interrupt::Edge:
    O.MaxEdges = N;
    break;
  case Interrupt::Step:
    O.MaxComposeSteps = N;
    break;
  case Interrupt::Deadline:
    O.GovernanceCheckInterval = 1;
    failpoints::arm(failpoints::Point::SolverDeadline, N);
    break;
  case Interrupt::Cancel:
    O.GovernanceCheckInterval = 1;
    failpoints::arm(failpoints::Point::SolverCancel, N);
    break;
  }

  BidirectionalSolver S(CS, O);
  Status St = S.solve();
  unsigned Rounds = 0;
  while (BidirectionalSolver::isInterrupted(St)) {
    ++Rounds;
    if (Rounds >= 100000u) {
      ADD_FAILURE() << Ctx << ": no forward progress";
      break;
    }
    switch (K) {
    case Interrupt::Edge:
      EXPECT_EQ(St, Status::EdgeLimit) << Ctx;
      S.options().MaxEdges += N + 1;
      break;
    case Interrupt::Step:
      EXPECT_EQ(St, Status::StepLimit) << Ctx;
      S.options().MaxComposeSteps += N + 1;
      break;
    case Interrupt::Deadline:
      EXPECT_EQ(St, Status::Deadline) << Ctx;
      if (Rounds <= 2) // interrupt a few times, then run to the end
        failpoints::arm(failpoints::Point::SolverDeadline, N);
      break;
    case Interrupt::Cancel:
      EXPECT_EQ(St, Status::Cancelled) << Ctx;
      if (Rounds <= 2)
        failpoints::arm(failpoints::Point::SolverCancel, N);
      break;
    }
    St = S.solve();
  }
  failpoints::disarmAll();

  Fixpoint Got = snapshot(S, CS);
  EXPECT_EQ(Got.St, Expect.St) << Ctx;
  EXPECT_EQ(Got.Edges, Expect.Edges) << Ctx;
  EXPECT_EQ(Got.ConstAnns, Expect.ConstAnns) << Ctx;
  EXPECT_EQ(Got.Entails, Expect.Entails) << Ctx;
  return Rounds;
}

/// Runs the whole matrix — both dedup backends x all interrupt kinds
/// — for one constraint system.
void checkAllInterrupts(const ConstraintSystem &CS, uint64_t Seed) {
  for (SolverOptions::DedupBackend Backend :
       {SolverOptions::DedupBackend::Bitset,
        SolverOptions::DedupBackend::FlatSet}) {
    SolverOptions Base;
    Base.Dedup = Backend;
    Fixpoint Expect = solveStraight(CS, Base);
    uint64_t N = 1 + Seed % 7;
    unsigned Interrupted = 0;
    for (Interrupt K : AllInterrupts) {
      std::string Ctx = testgen::seedContext(
          Seed, Backend, std::string("interrupt ") + interruptName(K));
      Interrupted += checkInterruptedResume(CS, Base, K, N, Expect, Ctx);
    }
    // Guard against a vacuous pass: once the closure pops more edges
    // than the largest trip point, the failpoint kinds (one
    // governance check per pop) must have interrupted at least once.
    if (Expect.Edges > 8)
      EXPECT_GT(Interrupted, 0u) << "seed " << Seed;
  }
}

class ResumeDifferential : public ::testing::TestWithParam<uint64_t> {
protected:
  void SetUp() override { failpoints::disarmAll(); }
  void TearDown() override { failpoints::disarmAll(); }
};

TEST_P(ResumeDifferential, RandomSystems) {
  Rng R(GetParam());
  testgen::RandomSystem Sys = testgen::randomSystem(R);
  checkAllInterrupts(*Sys.CS, GetParam());
}

// 59 seeds, matching the solver property tests.
INSTANTIATE_TEST_SUITE_P(RandomSeeds, ResumeDifferential,
                         ::testing::Range(uint64_t(1), uint64_t(60)));

class AppResumeDifferential : public ::testing::TestWithParam<uint64_t> {
protected:
  void SetUp() override { failpoints::disarmAll(); }
  void TearDown() override { failpoints::disarmAll(); }
};

TEST_P(AppResumeDifferential, PdmcChecker) {
  const char *SpecText = R"(
    start state Unpriv : | seteuid_zero -> Priv;
    state Priv : | seteuid_nonzero -> Unpriv | execl -> Error;
    accept state Error;
  )";
  Expected<SpecAutomaton> Spec = parseSpecEx(SpecText);
  ASSERT_TRUE(Spec);

  ProgGenOptions PG;
  PG.Seed = GetParam();
  PG.NumFunctions = 3;
  PG.StmtsPerFunction = 8;
  PG.OpSymbols = {"seteuid_zero", "seteuid_nonzero", "execl"};
  Program Prog = generateProgram(PG);

  RascChecker Checker(Prog, *Spec);
  Checker.check(); // builds the constraint system
  checkAllInterrupts(Checker.system(), GetParam());
}

TEST_P(AppResumeDifferential, DataflowBitVector) {
  ProgGenOptions PG;
  PG.Seed = GetParam() ^ 0xdf;
  PG.NumFunctions = 3;
  PG.StmtsPerFunction = 6;
  Program Prog = generateProgram(PG);

  Rng R(GetParam());
  BitVectorProblem Prob(Prog, 3);
  for (StmtId S = 0; S != Prog.numStatements(); ++S) {
    if (R.chance(1, 4))
      Prob.setGen(S, static_cast<unsigned>(R.below(3)));
    if (R.chance(1, 5))
      Prob.setKill(S, static_cast<unsigned>(R.below(3)));
  }
  AnnotatedBitVectorAnalysis A(Prob);
  A.solve(); // builds the constraint system
  checkAllInterrupts(A.system(), GetParam());
}

TEST_P(AppResumeDifferential, FlowAnalysis) {
  const char *Source = R"(
    pair (y : int) : (int, int) = (1, y);
    swap (p : (int, int)) : (int, int) = (p.2, p.1);
    main (z : int) : int = swap(pair(z)).1;
  )";
  std::string Err;
  std::optional<FlowProgram> P = FlowProgram::parse(Source, &Err);
  ASSERT_TRUE(P) << Err;

  for (FlowMode Mode : {FlowMode::Primal, FlowMode::Dual}) {
    FlowAnalysis FA(*P, Mode);
    checkAllInterrupts(FA.system(), GetParam());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AppResumeDifferential,
                         ::testing::Range(uint64_t(1), uint64_t(9)));

} // namespace
