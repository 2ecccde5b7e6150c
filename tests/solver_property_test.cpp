//===- tests/solver_property_test.cpp - Differential solver tests -*- C++ -*-//
//
// Part of the RASC project: regularly annotated set constraints.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Randomized differential tests: the optimized bidirectional solver
/// against the naive rule-to-fixpoint reference on small random
/// constraint systems over random annotation automata, plus
/// option-matrix agreement (filtering, cycle elimination must not
/// change query answers).
///
//===----------------------------------------------------------------------===//

#include "ReachReference.h"
#include "TestSystems.h"
#include "automata/Machines.h"
#include "core/ReferenceSolver.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace rasc;
using testgen::addRandomConstraints;
using testgen::RandomSystem;
using testgen::randomSkeleton;
using testgen::randomSystem;

namespace {

class SolverDifferential : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SolverDifferential, MatchesReference) {
  Rng R(GetParam());
  RandomSystem Sys = randomSystem(R);

  SolverOptions Opts;
  Opts.FilterUseless = false; // reference does not filter
  Opts.CycleElimination = false;
  BidirectionalSolver Fast(*Sys.CS, Opts);
  BidirectionalSolver::Status St = Fast.solve();
  ASSERT_NE(St, BidirectionalSolver::Status::EdgeLimit);

  ReferenceSolver Ref(*Sys.CS);
  bool RefConsistent = Ref.solve();
  EXPECT_EQ(RefConsistent, St == BidirectionalSolver::Status::Solved);

  for (ConsId K : Sys.Constants)
    for (VarId V : Sys.Vars) {
      std::vector<AnnId> A = Fast.constantAnnotations(K, V);
      std::sort(A.begin(), A.end());
      std::vector<AnnId> B = Ref.constantAnnotations(K, V);
      EXPECT_EQ(A, B) << "constant " << Sys.CS->constructorName(K)
                      << " in " << Sys.CS->varName(V) << " (seed "
                      << GetParam() << ")";
    }
}

TEST_P(SolverDifferential, OptionsDoNotChangeQueries) {
  Rng R(GetParam() ^ 0xabcdef);
  RandomSystem Sys = randomSystem(R);

  SolverOptions Plain;
  Plain.FilterUseless = false;
  Plain.CycleElimination = false;
  BidirectionalSolver A(*Sys.CS, Plain);
  A.solve();

  SolverOptions Tuned;
  Tuned.FilterUseless = true;
  Tuned.CycleElimination = true;
  BidirectionalSolver B(*Sys.CS, Tuned);
  B.solve();

  for (ConsId K : Sys.Constants)
    for (VarId V : Sys.Vars) {
      // Filtering drops non-accepting classes only, so the entailment
      // answers must agree even though the raw sets may differ.
      EXPECT_EQ(A.entailsConstant(K, V), B.entailsConstant(K, V))
          << "seed " << GetParam();
      // Accepting classes must match exactly.
      auto Accepting = [&](const std::vector<AnnId> &Anns) {
        std::vector<AnnId> Out;
        for (AnnId F : Anns)
          if (Sys.Dom->isAccepting(F))
            Out.push_back(F);
        std::sort(Out.begin(), Out.end());
        return Out;
      };
      EXPECT_EQ(Accepting(A.constantAnnotations(K, V)),
                Accepting(B.constantAnnotations(K, V)))
          << "seed " << GetParam();
    }
}

/// Two variables wired by edges annotated with the rotate and swap
/// symbols of the 5-state adversarial machine, which generate the 120
/// permutations of its states. X0 carries both as self-loops, so the
/// constant flowing into it picks up every permutation and the solve
/// records more than 64 annotation ids; the seed draws the other edges.
RandomSystem permutationSystem(Rng &R) {
  RandomSystem Sys;
  Sys.Dom = std::make_unique<MonoidDomain>(buildAdversarialMachine(5));
  Sys.CS = std::make_unique<ConstraintSystem>(*Sys.Dom);
  Sys.Constants.push_back(Sys.CS->addConstant("src"));
  for (unsigned I = 0; I != 2; ++I)
    Sys.Vars.push_back(Sys.CS->freshVar());
  const AnnId Gens[] = {Sys.Dom->symbolAnn("rotate"),
                        Sys.Dom->symbolAnn("swap")};
  auto Var = [&](size_t I) { return Sys.CS->var(Sys.Vars[I]); };
  Sys.CS->add(Sys.CS->cons(Sys.Constants[0]), Var(0));
  for (AnnId G : Gens)
    Sys.CS->add(Var(0), Var(0), G);
  for (unsigned I = 0; I != 2; ++I)
    Sys.CS->add(Var(R.below(2)), Var(R.below(2)), Gens[R.below(2)]);
  return Sys;
}

TEST_P(SolverDifferential, DedupBackendsMatchReference) {
  // Edge dedup keeps its rows inline while every annotation id is below
  // 64 and spills them to a shared-stride arena at the first wider id.
  // Each system is solved twice: by a solver built before any solve,
  // whose rows start inline (on the permutations they spill partway
  // through the closure), and by one built after, whose rows are sized
  // by the grown domain (spilled from the start on the permutations).
  // Both match the reference, and dedup is exact, so both insert the
  // same number of edges.
  Rng R(GetParam() ^ 0xded09);
  RandomSystem Rand = randomSystem(R);
  RandomSystem Perm = permutationSystem(R);

  for (RandomSystem *Sys : {&Rand, &Perm}) {
    SCOPED_TRACE(testgen::seedContext(GetParam(),
                                      Sys == &Perm ? "permutations"
                                                   : "random system"));
    SolverOptions Opts;
    Opts.FilterUseless = false;
    Opts.CycleElimination = false;
    // Built before anything composes: the domain holds only the
    // identity and the generators.
    BidirectionalSolver Fresh(*Sys->CS, Opts);
    BidirectionalSolver::Status St = Fresh.solve();
    ASSERT_NE(St, BidirectionalSolver::Status::EdgeLimit);
    BidirectionalSolver Grown(*Sys->CS, Opts);
    EXPECT_EQ(Grown.solve(), St);
    EXPECT_EQ(Grown.stats().EdgesInserted, Fresh.stats().EdgesInserted);

    ReferenceSolver Ref(*Sys->CS);
    EXPECT_EQ(Ref.solve(), St == BidirectionalSolver::Status::Solved);
    AnnId MaxAnn = 0;
    for (ConsId K : Sys->Constants)
      for (VarId V : Sys->Vars) {
        std::vector<AnnId> Want = Ref.constantAnnotations(K, V);
        for (BidirectionalSolver *S : {&Fresh, &Grown}) {
          std::vector<AnnId> A = S->constantAnnotations(K, V);
          std::sort(A.begin(), A.end());
          EXPECT_EQ(A, Want);
        }
        for (AnnId F : Want)
          MaxAnn = std::max(MaxAnn, F);
      }
    if (Sys == &Perm) {
      EXPECT_GE(MaxAnn, 64u) << "the solve never spilled the inline rows";
    }
  }
}

TEST_P(SolverDifferential, OnlineSolveMatchesFromScratch) {
  // Constraints appended after a solve() must be picked up by the next
  // solve() and land in the same least solution as solving everything
  // from scratch (and as the reference). The generator emits
  // projection constraints too, so the watcher-replay path in ingest
  // is exercised with a half-closed graph.
  Rng R(GetParam() ^ 0x0411e);
  RandomSystem Sys = randomSkeleton(R);
  unsigned FirstBatch = 2 + R.below(6);
  unsigned SecondBatch = 2 + R.below(6);

  SolverOptions Opts;
  Opts.FilterUseless = false;
  Opts.CycleElimination = false;

  addRandomConstraints(Sys, R, FirstBatch);
  BidirectionalSolver Online(*Sys.CS, Opts);
  ASSERT_NE(Online.solve(), BidirectionalSolver::Status::EdgeLimit);

  addRandomConstraints(Sys, R, SecondBatch);
  BidirectionalSolver::Status St = Online.solve();
  ASSERT_NE(St, BidirectionalSolver::Status::EdgeLimit);

  BidirectionalSolver Scratch(*Sys.CS, Opts);
  EXPECT_EQ(Scratch.solve(), St) << "seed " << GetParam();

  ReferenceSolver Ref(*Sys.CS);
  bool RefConsistent = Ref.solve();
  EXPECT_EQ(RefConsistent, St == BidirectionalSolver::Status::Solved)
      << "seed " << GetParam();

  for (ConsId K : Sys.Constants)
    for (VarId V : Sys.Vars) {
      std::vector<AnnId> A = Online.constantAnnotations(K, V);
      std::vector<AnnId> B = Scratch.constantAnnotations(K, V);
      std::sort(A.begin(), A.end());
      std::sort(B.begin(), B.end());
      EXPECT_EQ(A, B) << "online vs scratch, seed " << GetParam();
      EXPECT_EQ(A, Ref.constantAnnotations(K, V))
          << "online vs reference, seed " << GetParam();
    }
}

TEST_P(SolverDifferential, AtomReachabilityIncludesTopLevel) {
  // Invariant: top-level constant annotations are a subset of the
  // PN-reachability annotations (the atom at nesting depth zero).
  Rng R(GetParam() ^ 0x5eed);
  RandomSystem Sys = randomSystem(R);
  BidirectionalSolver S(*Sys.CS);
  if (S.solve() == BidirectionalSolver::Status::EdgeLimit)
    GTEST_SKIP();
  for (ConsId K : Sys.Constants) {
    AtomReachability AR = S.atomReachability(K);
    for (VarId V : Sys.Vars) {
      std::span<const AnnId> All = AR.annotations(V);
      for (AnnId F : S.constantAnnotations(K, V))
        EXPECT_NE(std::find(All.begin(), All.end(), F), All.end())
            << "seed " << GetParam();
    }
  }
}

TEST_P(SolverDifferential, AtomReachabilityMatchesReference) {
  // The base-edge walk against the wrap-every-derived-bound reference,
  // per constant, in both modes, under every option setting.
  Rng R(GetParam() ^ 0x9e3779b9);
  RandomSystem Sys = randomSystem(R);
  for (bool Filter : {false, true})
    for (bool Collapse : {false, true}) {
      SolverOptions Opts;
      Opts.FilterUseless = Filter;
      Opts.CycleElimination = Collapse;
      BidirectionalSolver S(*Sys.CS, Opts);
      if (S.solve() == BidirectionalSolver::Status::EdgeLimit)
        GTEST_SKIP();
      for (ConsId K : Sys.Constants)
        for (bool Unmatched : {false, true}) {
          EXPECT_EQ(testgen::solverAtomReachability(S, K, Unmatched),
                    testgen::referenceAtomReachability(S, K, Unmatched))
              << "seed " << GetParam() << " FilterUseless=" << Filter
              << " CycleElimination=" << Collapse
              << " unmatched=" << Unmatched << " constant "
              << Sys.CS->constructorName(K);
        }
    }
}

TEST(SolverDifferentialSuite, AtomReachabilityDifferentialIsNotVacuous) {
  // Over the suite's seeds, the reference must find facts, nested
  // ones (under a constructor) and unmatched-projection ones.
  size_t Facts = 0, Nested = 0, UnmatchedOnly = 0;
  for (uint64_t Seed = 1; Seed != 60; ++Seed) {
    Rng R(Seed ^ 0x9e3779b9);
    RandomSystem Sys = randomSystem(R);
    BidirectionalSolver S(*Sys.CS);
    if (S.solve() == BidirectionalSolver::Status::EdgeLimit)
      continue;
    for (ConsId K : Sys.Constants) {
      auto P = testgen::referenceAtomReachability(S, K, false);
      auto PN = testgen::referenceAtomReachability(S, K, true);
      AtomReachability AR = S.atomReachability(K, true);
      for (VarId V : Sys.Vars) {
        Facts += P[V].size();
        UnmatchedOnly += PN[V].size() - P[V].size();
        for (AnnId A : PN[V])
          Nested += !AR.witnessStack(V, A).empty();
      }
    }
  }
  EXPECT_GT(Facts, 0u);
  EXPECT_GT(Nested, 0u);
  EXPECT_GT(UnmatchedOnly, 0u);
}

TEST_P(SolverDifferential, AtomReachabilitySoundWhenInterrupted) {
  // After an edge or step interrupt every fact is a fact of the
  // completed solve; after the resume the facts equal it.
  Rng R(GetParam() ^ 0x9e3779b9);
  RandomSystem Sys = randomSystem(R);
  BidirectionalSolver Straight(*Sys.CS);
  if (BidirectionalSolver::isInterrupted(Straight.solve()))
    GTEST_SKIP();
  const uint64_t N = 1 + GetParam() % 7;
  unsigned Interrupts = 0;
  for (bool Steps : {false, true}) {
    SolverOptions Opts;
    if (Steps)
      Opts.MaxComposeSteps = N;
    else
      Opts.MaxEdges = N;
    BidirectionalSolver S(*Sys.CS, Opts);
    for (unsigned Round = 0;; ++Round) {
      ASSERT_LT(Round, 100000u) << "no forward progress";
      BidirectionalSolver::Status St = S.solve();
      for (ConsId K : Sys.Constants)
        for (bool Unmatched : {false, true}) {
          auto Got = testgen::solverAtomReachability(S, K, Unmatched);
          auto Want =
              testgen::solverAtomReachability(Straight, K, Unmatched);
          if (BidirectionalSolver::isInterrupted(St)) {
            EXPECT_TRUE(testgen::factsIncluded(Got, Want))
                << "seed " << GetParam() << " round " << Round
                << (Steps ? " step" : " edge") << " interrupt";
          } else {
            EXPECT_EQ(Got, Want) << "seed " << GetParam() << " resumed";
          }
        }
      if (!BidirectionalSolver::isInterrupted(St))
        break;
      ++Interrupts;
      if (Steps)
        S.options().MaxComposeSteps += N + 1;
      else
        S.options().MaxEdges += N + 1;
    }
  }
  // Not vacuous: a closure that inserts more edges than the cap trips.
  if (Straight.stats().EdgesInserted > N + 1) {
    EXPECT_GT(Interrupts, 0u) << "seed " << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, SolverDifferential,
                         ::testing::Range(uint64_t(1), uint64_t(60)));

} // namespace
