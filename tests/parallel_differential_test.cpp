//===- tests/parallel_differential_test.cpp - Batch solve pool --*- C++ -*-===//
//
// Part of the RASC project: regularly annotated set constraints.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Differential tests of the batch solve pool (DESIGN.md §8), the one
/// parallel mode: independent systems solved concurrently on one pool
/// must each reach the *identical* fixpoint a dedicated sequential
/// solve reaches — same status, same edge / composition / drop
/// counts, same answer to every query, same enumerated terms. Runs
/// over seeded random systems (both edge-dedup backends, several
/// fresh builds of one system solved side by side) and over
/// constraint systems generated by all three applications. Also
/// covers interrupt-then-resume under the pool: tasks stopped by the
/// shared batch deadline or the aggregate memory budget resume to the
/// same fixpoint a dedicated sequential solve reaches.
///
//===----------------------------------------------------------------------===//

#include "TestSystems.h"
#include "core/BatchSolver.h"
#include "core/GroundTerm.h"
#include "dataflow/BitVector.h"
#include "flow/Analysis.h"
#include "pdmc/Checker.h"
#include "progen/ProgramGen.h"
#include "spec/SpecParser.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

using namespace rasc;

namespace {

using Status = BidirectionalSolver::Status;

/// Everything we compare between a dedicated and a pooled solve.
/// Annotation classes and expressions are rendered to strings so the
/// comparison is semantic: a lazily-interning domain (e.g.
/// GenKillDomain) may hand out different AnnIds under a different
/// processing order even though the classes are equal.
struct Fixpoint {
  Status St;
  uint64_t Edges;
  uint64_t Compose;
  uint64_t Dropped;
  uint64_t Decompose;
  uint64_t Projections;
  uint64_t Useless;
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
  std::string S = CS.constructor(X.C).Name + "(";
  for (size_t I = 0; I != X.Args.size(); ++I)
    S += (I ? ",v" : "v") + std::to_string(X.Args[I]);
  return S + ")";
}

Fixpoint snapshot(const BidirectionalSolver &S, const ConstraintSystem &CS,
                  const AnnotationDomain &D) {
  Fixpoint F;
  F.St = S.status();
  F.Edges = S.stats().EdgesInserted;
  F.Compose = S.stats().ComposeCalls;
  F.Dropped = S.stats().EdgesDropped;
  F.Decompose = S.stats().DecomposeSteps;
  F.Projections = S.stats().ProjectionSteps;
  F.Useless = S.stats().UselessFiltered;
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

/// One build of a constraint system and the domain that renders its
/// annotations.
struct Instance {
  const ConstraintSystem *CS;
  const AnnotationDomain *D;
};

constexpr unsigned PoolThreads = 4;

/// \p Copies are fresh builds of one system (concurrent solves need
/// distinct ConstraintSystems). Solves the first on its own, then all
/// of them concurrently on a batch pool, and checks that every pooled
/// solve lands on the dedicated fixpoint.
void checkPoolMatchesSequential(std::span<const Instance> Copies,
                                SolverOptions Base, const std::string &Ctx) {
  BidirectionalSolver S0(*Copies[0].CS, Base);
  S0.solve();
  Fixpoint Expect = snapshot(S0, *Copies[0].CS, *Copies[0].D);

  std::vector<std::unique_ptr<BidirectionalSolver>> Solvers;
  std::vector<BidirectionalSolver *> Ptrs;
  for (const Instance &I : Copies) {
    Solvers.push_back(std::make_unique<BidirectionalSolver>(*I.CS, Base));
    Ptrs.push_back(Solvers.back().get());
  }
  BatchSolver::Options BO;
  BO.Threads = PoolThreads;
  BatchSolver Batch(BO);
  std::vector<BatchSolver::Result> Results = Batch.solveAll(Ptrs);
  ASSERT_EQ(Results.size(), Copies.size()) << Ctx;
  for (size_t I = 0; I != Copies.size(); ++I) {
    EXPECT_EQ(Results[I].St, Expect.St) << Ctx << ", task " << I;
    EXPECT_EQ(snapshot(*Solvers[I], *Copies[I].CS, *Copies[I].D), Expect)
        << Ctx << ", task " << I;
  }
}

/// Runs checkPoolMatchesSequential under both dedup backends.
/// \p Build(N) returns N fresh builds of the system under test.
void checkBothBackends(
    const std::function<std::vector<Instance>(size_t)> &Build,
    uint64_t Seed) {
  for (SolverOptions::DedupBackend Backend :
       {SolverOptions::DedupBackend::Bitset,
        SolverOptions::DedupBackend::FlatSet}) {
    SolverOptions Base;
    Base.Dedup = Backend;
    std::vector<Instance> Copies = Build(PoolThreads);
    checkPoolMatchesSequential(Copies, Base,
                               testgen::seedContext(Seed, Backend));
  }
}

class ParallelDifferential : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ParallelDifferential, RandomSystems) {
  std::vector<testgen::RandomSystem> Systems;
  checkBothBackends(
      [&](size_t N) {
        Systems.clear();
        std::vector<Instance> Out;
        for (size_t I = 0; I != N; ++I) {
          Rng R(GetParam());
          Systems.push_back(testgen::randomSystem(R));
          Out.push_back({Systems.back().CS.get(), Systems.back().Dom.get()});
        }
        return Out;
      },
      GetParam());
}

// 59 seeds, matching the other differential suites.
INSTANTIATE_TEST_SUITE_P(RandomSeeds, ParallelDifferential,
                         ::testing::Range(uint64_t(1), uint64_t(60)));

//===----------------------------------------------------------------------===//
// Application-generated systems
//===----------------------------------------------------------------------===//

class AppParallelDifferential : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AppParallelDifferential, PdmcChecker) {
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

  std::vector<std::unique_ptr<RascChecker>> Checkers;
  checkBothBackends(
      [&](size_t N) {
        Checkers.clear();
        std::vector<Instance> Out;
        for (size_t I = 0; I != N; ++I) {
          Checkers.push_back(std::make_unique<RascChecker>(Prog, *Spec));
          Checkers.back()->prepare(); // builds the constraint system only
          const ConstraintSystem &CS = Checkers.back()->system();
          Out.push_back({&CS, &CS.domain()});
        }
        return Out;
      },
      GetParam());
}

TEST_P(AppParallelDifferential, DataflowBitVector) {
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
  // GenKillDomain interns lazily, so each build owns its own domain.
  std::vector<std::unique_ptr<AnnotatedBitVectorAnalysis>> Analyses;
  checkBothBackends(
      [&](size_t N) {
        Analyses.clear();
        std::vector<Instance> Out;
        for (size_t I = 0; I != N; ++I) {
          Analyses.push_back(
              std::make_unique<AnnotatedBitVectorAnalysis>(Prob));
          Analyses.back()->prepare();
          const ConstraintSystem &CS = Analyses.back()->system();
          Out.push_back({&CS, &CS.domain()});
        }
        return Out;
      },
      GetParam());
}

TEST_P(AppParallelDifferential, FlowAnalysis) {
  const char *Source = R"(
    pair (y : int) : (int, int) = (1, y);
    swap (p : (int, int)) : (int, int) = (p.2, p.1);
    main (z : int) : int = swap(pair(z)).1;
  )";
  std::string Err;
  std::optional<FlowProgram> P = FlowProgram::parse(Source, &Err);
  ASSERT_TRUE(P) << Err;

  for (FlowMode Mode : {FlowMode::Primal, FlowMode::Dual}) {
    std::vector<std::unique_ptr<FlowAnalysis>> Analyses;
    checkBothBackends(
        [&](size_t N) {
          Analyses.clear();
          std::vector<Instance> Out;
          for (size_t I = 0; I != N; ++I) {
            Analyses.push_back(std::make_unique<FlowAnalysis>(*P, Mode));
            Out.push_back({&Analyses.back()->system(),
                           &Analyses.back()->domain()});
          }
          return Out;
        },
        GetParam());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AppParallelDifferential,
                         ::testing::Range(uint64_t(1), uint64_t(9)));

//===----------------------------------------------------------------------===//
// Batch pool: concurrent independent solves, shared governance,
// interrupt-then-resume
//===----------------------------------------------------------------------===//

/// Regenerates the same K random systems from seeds (each task must
/// own a distinct ConstraintSystem: concurrent solves of one shared
/// system would race on its interning tables).
std::vector<testgen::RandomSystem> makeSystems(uint64_t Base, size_t K) {
  std::vector<testgen::RandomSystem> Out;
  for (size_t I = 0; I != K; ++I) {
    Rng R(Base + I);
    Out.push_back(testgen::randomSystem(R));
  }
  return Out;
}

class BatchDifferential : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BatchDifferential, PoolMatchesSequential) {
  constexpr size_t K = 6;
  // Expected fixpoints from dedicated sequential solves.
  std::vector<Fixpoint> Expect;
  {
    std::vector<testgen::RandomSystem> Systems =
        makeSystems(GetParam() * 100, K);
    for (testgen::RandomSystem &Sys : Systems) {
      BidirectionalSolver S(*Sys.CS);
      S.solve();
      Expect.push_back(snapshot(S, *Sys.CS, *Sys.Dom));
    }
  }

  // The same systems, solved concurrently on one pool.
  std::vector<testgen::RandomSystem> Systems =
      makeSystems(GetParam() * 100, K);
  std::vector<std::unique_ptr<BidirectionalSolver>> Solvers;
  std::vector<BidirectionalSolver *> Ptrs;
  for (testgen::RandomSystem &Sys : Systems) {
    Solvers.push_back(std::make_unique<BidirectionalSolver>(*Sys.CS));
    Ptrs.push_back(Solvers.back().get());
  }
  BatchSolver::Options BO;
  BO.Threads = 4;
  BatchSolver Batch(BO);
  std::vector<BatchSolver::Result> Results = Batch.solveAll(Ptrs);
  ASSERT_EQ(Results.size(), K);

  uint64_t MergedEdges = 0;
  for (size_t I = 0; I != K; ++I) {
    EXPECT_FALSE(BidirectionalSolver::isInterrupted(Results[I].St));
    Fixpoint Got = snapshot(*Solvers[I], *Systems[I].CS, *Systems[I].Dom);
    EXPECT_EQ(Got, Expect[I]) << "task " << I;
    MergedEdges += Expect[I].Edges;
  }
  EXPECT_EQ(Batch.mergedStats().EdgesInserted, MergedEdges);
}

TEST_P(BatchDifferential, DeadlineInterruptThenResume) {
  constexpr size_t K = 4;
  std::vector<Fixpoint> Expect;
  {
    std::vector<testgen::RandomSystem> Systems =
        makeSystems(GetParam() * 1000, K);
    for (testgen::RandomSystem &Sys : Systems) {
      BidirectionalSolver S(*Sys.CS);
      S.solve();
      Expect.push_back(snapshot(S, *Sys.CS, *Sys.Dom));
    }
  }

  std::vector<testgen::RandomSystem> Systems =
      makeSystems(GetParam() * 1000, K);
  std::vector<std::unique_ptr<BidirectionalSolver>> Solvers;
  std::vector<BidirectionalSolver *> Ptrs;
  for (testgen::RandomSystem &Sys : Systems) {
    Solvers.push_back(std::make_unique<BidirectionalSolver>(*Sys.CS));
    Ptrs.push_back(Solvers.back().get());
  }

  // A batch deadline that expired before the call: every task is
  // returned Status::Deadline without solving (resumable).
  BatchSolver::Options Tight;
  Tight.Threads = 2;
  Tight.DeadlineSeconds = 1e-9;
  BatchSolver Batch(Tight);
  std::vector<BatchSolver::Result> First = Batch.solveAll(Ptrs);
  size_t Interrupted = 0;
  for (const BatchSolver::Result &R : First)
    if (R.St == Status::Deadline)
      ++Interrupted;
  EXPECT_GT(Interrupted, 0u);

  // Resume under a fresh pool with the deadline lifted: every task
  // must land on the dedicated-solve fixpoint.
  BatchSolver::Options Free;
  Free.Threads = 2;
  BatchSolver Resume(Free);
  std::vector<BatchSolver::Result> Second = Resume.solveAll(Ptrs);
  for (size_t I = 0; I != K; ++I) {
    EXPECT_FALSE(BidirectionalSolver::isInterrupted(Second[I].St));
    Fixpoint Got = snapshot(*Solvers[I], *Systems[I].CS, *Systems[I].Dom);
    EXPECT_EQ(Got.St, Expect[I].St) << "task " << I;
    EXPECT_EQ(Got.Edges, Expect[I].Edges) << "task " << I;
    EXPECT_EQ(Got.Entails, Expect[I].Entails) << "task " << I;
    EXPECT_EQ(Got.ConstAnns, Expect[I].ConstAnns) << "task " << I;
    EXPECT_EQ(Got.Terms, Expect[I].Terms) << "task " << I;
  }
}

TEST_P(BatchDifferential, MemoryInterruptThenResume) {
  constexpr size_t K = 4;
  std::vector<Fixpoint> Expect;
  {
    std::vector<testgen::RandomSystem> Systems =
        makeSystems(GetParam() * 7, K);
    for (testgen::RandomSystem &Sys : Systems) {
      BidirectionalSolver S(*Sys.CS);
      S.solve();
      Expect.push_back(snapshot(S, *Sys.CS, *Sys.Dom));
    }
  }

  std::vector<testgen::RandomSystem> Systems =
      makeSystems(GetParam() * 7, K);
  std::vector<std::unique_ptr<BidirectionalSolver>> Solvers;
  std::vector<BidirectionalSolver *> Ptrs;
  for (testgen::RandomSystem &Sys : Systems) {
    SolverOptions O;
    O.GovernanceCheckInterval = 1; // trip on the first check
    Solvers.push_back(std::make_unique<BidirectionalSolver>(*Sys.CS, O));
    Ptrs.push_back(Solvers.back().get());
  }

  // An aggregate budget any single task exceeds: tasks that reach a
  // governance check stop with Status::MemoryLimit.
  BatchSolver::Options Tight;
  Tight.Threads = 2;
  Tight.MaxTotalMemoryBytes = 1;
  BatchSolver Batch(Tight);
  std::vector<BatchSolver::Result> First = Batch.solveAll(Ptrs);
  for (const BatchSolver::Result &R : First)
    EXPECT_TRUE(R.St == Status::MemoryLimit || R.St == Status::Solved ||
                R.St == Status::Inconsistent)
        << "status " << static_cast<int>(R.St);

  // Lift the aggregate budget and resume on a fresh pool.
  BatchSolver::Options Free;
  Free.Threads = 2;
  BatchSolver Resume(Free);
  std::vector<BatchSolver::Result> Second = Resume.solveAll(Ptrs);
  for (size_t I = 0; I != K; ++I) {
    EXPECT_FALSE(BidirectionalSolver::isInterrupted(Second[I].St));
    Fixpoint Got = snapshot(*Solvers[I], *Systems[I].CS, *Systems[I].Dom);
    EXPECT_EQ(Got.St, Expect[I].St) << "task " << I;
    EXPECT_EQ(Got.Edges, Expect[I].Edges) << "task " << I;
    EXPECT_EQ(Got.Entails, Expect[I].Entails) << "task " << I;
    EXPECT_EQ(Got.ConstAnns, Expect[I].ConstAnns) << "task " << I;
    EXPECT_EQ(Got.Terms, Expect[I].Terms) << "task " << I;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BatchDifferential,
                         ::testing::Range(uint64_t(1), uint64_t(9)));

} // namespace
