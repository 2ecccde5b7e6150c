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

#include "TestSystems.h"
#include "core/ReferenceSolver.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>

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
      EXPECT_EQ(A, B) << "constant " << Sys.CS->constructor(K).Name
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
  Tuned.EagerFunctionVars = true;
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

TEST_P(SolverDifferential, DedupBackendsMatchReference) {
  // Both edge-dedup backends (annotation bitsets and per-destination
  // flat sets) must compute the identical closure. Auto starts on
  // bitsets and moves to flat sets at the first annotation id above
  // AnnBitsetThreshold; a threshold of 1 makes the move happen partway
  // through the closure. Dedup is exact, so every backend inserts the
  // same number of edges.
  Rng R(GetParam() ^ 0xded09);
  RandomSystem Sys = randomSystem(R);

  ReferenceSolver Ref(*Sys.CS);
  bool RefConsistent = Ref.solve();
  std::optional<uint64_t> Inserted;

  for (SolverOptions::DedupBackend Backend :
       {SolverOptions::DedupBackend::Bitset,
        SolverOptions::DedupBackend::FlatSet,
        SolverOptions::DedupBackend::Auto}) {
    SCOPED_TRACE(testgen::seedContext(GetParam(), Backend));
    SolverOptions Opts;
    Opts.FilterUseless = false;
    Opts.CycleElimination = false;
    Opts.Dedup = Backend;
    Opts.AnnBitsetThreshold = 1;
    BidirectionalSolver Fast(*Sys.CS, Opts);
    BidirectionalSolver::Status St = Fast.solve();
    ASSERT_NE(St, BidirectionalSolver::Status::EdgeLimit);
    EXPECT_EQ(RefConsistent, St == BidirectionalSolver::Status::Solved);
    if (!Inserted)
      Inserted = Fast.stats().EdgesInserted;
    EXPECT_EQ(Fast.stats().EdgesInserted, *Inserted);

    for (ConsId K : Sys.Constants)
      for (VarId V : Sys.Vars) {
        std::vector<AnnId> A = Fast.constantAnnotations(K, V);
        std::sort(A.begin(), A.end());
        EXPECT_EQ(A, Ref.constantAnnotations(K, V));
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
      const std::vector<AnnId> &All = AR.annotations(V);
      for (AnnId F : S.constantAnnotations(K, V))
        EXPECT_NE(std::find(All.begin(), All.end(), F), All.end())
            << "seed " << GetParam();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, SolverDifferential,
                         ::testing::Range(uint64_t(1), uint64_t(60)));

} // namespace
