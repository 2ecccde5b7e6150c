//===- tests/certifier_mutation_test.cpp - Certifier kill tests -----------===//
//
// Part of the RASC project: regularly annotated set constraints.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Mutation testing of the independent fixpoint certifier
/// (core/Certifier.cpp): solve a population of random systems, corrupt
/// each solved state in one targeted way, and assert the certifier
/// rejects every mutant. A certifier that accepts a mutant is worth
/// little — these tests are the evidence that its obligations actually
/// cover the solver's claimed invariants.
///
/// Mutation kinds, and why each is guaranteed detectable:
///
///  * drop-edge — erase one arena edge, *consistently*: the
///    processed-prefix counters and PendingHead are fixed up so the
///    counter cross-check stays silent and only the resolution-rule
///    obligations can notice. On a completed closure every arena edge
///    was derived by some rule whose premises are still present (and
///    processed), so the deriving obligation finds its conclusion
///    missing.
///  * rewrite-annotation — change one edge's annotation class. The
///    original triple vanishes (dedup guarantees it occurred exactly
///    once) while its deriving premises survive, so the original
///    obligation fails regardless of what the new triple looks like.
///  * un-collapse — forget the cycle-elimination representatives. Any
///    collapsed cycle contains an identity constraint between two
///    originally distinct variables; re-canonicalized with trivial
///    reps, its surface edge connects nodes the closure never linked.
///    (Skipped when the identity annotation is useless: the filter
///    legitimately accounts for the missing edge then.)
///  * counter corruption — bump one node's SuccDone/PredDone. The
///    certifier recounts processed edges from the arena enumeration;
///    any bump is an arithmetic mismatch.
///  * drop-conflict — remove every copy of one recorded conflict.
///    Either the conflict list empties under Status::Inconsistent
///    (status check), or the mismatch's deriving premises still
///    obligate it (conflict conclusions are accounted only via the
///    conflict list — there is no edge to hide behind).
///  * truncate-worklist — discard the pending tail of an interrupted
///    solve. Applicable when some pending edge is *obligated*: derived
///    from processed premises or from a surface constraint. (An
///    ingest-replay projection edge whose premise is itself still
///    pending carries no obligation yet — provenance identifies and
///    skips those.)
///  * drop-lower-bound / drop-projection-summary — erase one
///    transitively derived constructor lower bound, or one var→var
///    edge the projection rule derived, from the solved state *and*
///    from its proof log (trailer count lowered to match). The
///    closure keeps only these and surface/decomposition edges, so
///    the narrowed transitivity obligation and the projection
///    obligation must catch them in both checkers: certifyFixpoint
///    and rasccheck.
///
/// Each kind also asserts a minimum applicability count across the
/// seed population, so a generator drift that silently made a kind
/// vacuous (no conflicts, no cycles, no interrupts) fails the test
/// instead of passing it emptily.
///
/// The converse is pinned too: the certifier accepts every honest
/// state, solved or interrupted at any edge boundary.
///
//===----------------------------------------------------------------------===//

#include "ProofLogEdit.h"
#include "TestSystems.h"

#include "core/Certifier.h"
#include "support/Rng.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <gtest/gtest.h>

#include <unistd.h>

namespace rasc {

/// The test-only backdoor declared as a friend in core/Solver.h. Every
/// method either reads private closure state or corrupts it in one
/// targeted way; nothing here is reachable from product code.
struct SolverTestAccess {
  using Edge = BidirectionalSolver::Edge;
  using Prov = BidirectionalSolver::EdgeProv;

  static size_t arenaSize(const BidirectionalSolver &S) {
    return S.EdgeArena.size();
  }
  static Edge edgeAt(const BidirectionalSolver &S, size_t I) {
    return S.EdgeArena[I];
  }

  /// Erases arena edge \p I keeping the bookkeeping self-consistent
  /// (counters and PendingHead reflect the smaller arena), so only the
  /// rule obligations can catch the loss.
  static void dropEdge(BidirectionalSolver &S, size_t I) {
    Edge E = S.EdgeArena[I];
    if (I < S.PendingHead) {
      --S.PendingHead;
      --S.SuccDone[E.Src];
      if (S.NodeKind[E.Src] == static_cast<uint8_t>(ExprKind::Cons))
        --S.PredDone[E.Dst]; // PredDone counts constructor sources only
    }
    S.EdgeArena.erase(S.EdgeArena.begin() + static_cast<ptrdiff_t>(I));
    if (!S.EdgeProvs.empty())
      S.EdgeProvs.erase(S.EdgeProvs.begin() + static_cast<ptrdiff_t>(I));
  }

  /// The rule that first derived arena edge \p I (TrackProvenance).
  static Prov::Rule ruleAt(const BidirectionalSolver &S, size_t I) {
    return S.EdgeProvs[I].Kind;
  }

  static void rewriteAnn(BidirectionalSolver &S, size_t I, AnnId NewAnn) {
    S.EdgeArena[I].Ann = NewAnn;
  }

  /// Forgets every cycle-elimination merge (rep(V) becomes V again).
  static void resetReps(BidirectionalSolver &S) { S.VarReps = UnionFind{}; }

  static void bumpSuccDone(BidirectionalSolver &S, ExprId N) {
    ++S.SuccDone[N];
  }
  static void bumpPredDone(BidirectionalSolver &S, ExprId N) {
    ++S.PredDone[N];
  }

  /// Removes every copy of the first recorded conflict (the conflict
  /// list is not deduplicated, so a partial removal could hide behind
  /// a surviving copy).
  static void dropConflictAll(BidirectionalSolver &S) {
    SolvedEdge C = S.Conflicts.front();
    auto Eq = [&](const SolvedEdge &X) {
      return X.Src == C.Src && X.Dst == C.Dst && X.Ann == C.Ann;
    };
    S.Conflicts.erase(
        std::remove_if(S.Conflicts.begin(), S.Conflicts.end(), Eq),
        S.Conflicts.end());
    S.ConflictProvs.clear(); // parallel array; certifier never reads it
  }

  /// Discards the pending worklist tail of an interrupted solve.
  static void truncatePending(BidirectionalSolver &S) {
    S.EdgeArena.resize(S.PendingHead);
    if (!S.EdgeProvs.empty())
      S.EdgeProvs.resize(S.PendingHead);
  }

  static bool processedContains(const BidirectionalSolver &S,
                                const Edge &E) {
    for (size_t I = 0; I != S.PendingHead; ++I) {
      const Edge &A = S.EdgeArena[I];
      if (A.Src == E.Src && A.Dst == E.Dst && A.Ann == E.Ann)
        return true;
    }
    return false;
  }

  /// Whether pending edge \p I carries a certifier obligation: its
  /// deriving rule's premises are all in the processed prefix (or it
  /// is a surface edge, obligated unconditionally). Requires
  /// TrackProvenance. An ingest-replay projection edge can cite a
  /// premise that is itself still pending — dropping it is (for now)
  /// invisible, which is exactly why the truncation mutation must pick
  /// its victims by provenance.
  static bool pendingEdgeObligated(const BidirectionalSolver &S, size_t I) {
    const Prov &P = S.EdgeProvs[I];
    switch (P.Kind) {
    case Prov::Rule::Surface:
      return true;
    case Prov::Rule::Transitive:
      return processedContains(S, P.P1) && processedContains(S, P.P2);
    case Prov::Rule::Decompose:
    case Prov::Rule::Projection:
      return processedContains(S, P.P1);
    }
    return false;
  }
};

} // namespace rasc

namespace {

using namespace rasc;
using testgen::RandomSystem;
using Access = SolverTestAccess;
using Status = BidirectionalSolver::Status;

constexpr uint64_t NumSeeds = 59;

/// Solves a fresh copy of seed \p Seed's system to completion and
/// hands it to \p Mutate; asserts the certifier accepted the honest
/// state and rejects the mutant. \returns false when \p Mutate
/// declined (mutation not applicable to this system).
template <typename Fn>
bool runMutation(uint64_t Seed, const char *Kind, Fn &&Mutate) {
  SCOPED_TRACE(testgen::seedContext(Seed, Kind));
  Rng R(Seed * 7919 + 17);
  RandomSystem Sys = testgen::randomSystem(R);
  BidirectionalSolver S(*Sys.CS);
  S.solve();
  EXPECT_TRUE(certifyFixpoint(S).Ok)
      << "honest solved state must certify";
  if (!Mutate(S, Sys))
    return false;
  CertificationReport Rep = certifyFixpoint(S);
  EXPECT_FALSE(Rep.Ok) << "certifier accepted a corrupt closure";
  return true;
}

TEST(CertifierMutation, RejectsEveryMutant) {
  unsigned Applicable[6] = {};

  for (uint64_t Seed = 1; Seed <= NumSeeds; ++Seed) {
    // Kind 0: drop one arena edge (index varies with the seed).
    Applicable[0] += runMutation(
        Seed, "drop-edge", [&](BidirectionalSolver &S, RandomSystem &) {
          size_t N = Access::arenaSize(S);
          if (N == 0)
            return false;
          Access::dropEdge(S, (Seed * 31) % N);
          return true;
        });

    // Kind 1: rewrite one edge's annotation to a different class.
    Applicable[1] += runMutation(
        Seed, "rewrite-annotation",
        [&](BidirectionalSolver &S, RandomSystem &Sys) {
          size_t N = Access::arenaSize(S);
          if (N == 0 || Sys.Dom->size() < 2)
            return false;
          size_t I = (Seed * 13) % N;
          AnnId Old = Access::edgeAt(S, I).Ann;
          Access::rewriteAnn(
              S, I, static_cast<AnnId>((Old + 1) % Sys.Dom->size()));
          return true;
        });

    // Kind 2: forget the cycle-elimination merges.
    Applicable[2] += runMutation(
        Seed, "un-collapse",
        [&](BidirectionalSolver &S, RandomSystem &Sys) {
          if (S.stats().CollapsedVars == 0 ||
              Sys.Dom->isUseless(Sys.Dom->identity()))
            return false;
          Access::resetReps(S);
          return true;
        });

    // Kind 3: corrupt one processed-prefix counter.
    Applicable[3] += runMutation(
        Seed, "counter-bump", [&](BidirectionalSolver &S, RandomSystem &) {
          size_t N = S.numGraphNodes();
          if (N == 0)
            return false;
          ExprId Node = static_cast<ExprId>((Seed * 41) % N);
          if (Seed % 2)
            Access::bumpSuccDone(S, Node);
          else
            Access::bumpPredDone(S, Node);
          return true;
        });

    // Kind 4: erase one recorded conflict (all copies).
    Applicable[4] += runMutation(
        Seed, "drop-conflict", [&](BidirectionalSolver &S, RandomSystem &) {
          if (S.conflicts().empty())
            return false;
          Access::dropConflictAll(S);
          return true;
        });
  }

  // Kind 5: truncate the pending tail of an interrupted solve. Needs
  // its own solver setup (edge budget to force the interrupt,
  // provenance to prove the tail held an obligated edge).
  for (uint64_t Seed = 1; Seed <= NumSeeds; ++Seed) {
    SolverOptions O;
    SCOPED_TRACE(testgen::seedContext(Seed, "truncate-worklist"));
    Rng R(Seed * 7919 + 17);
    RandomSystem Sys = testgen::randomSystem(R);

    BidirectionalSolver Full(*Sys.CS, O);
    Full.solve();
    uint64_t FullEdges = Full.stats().EdgesInserted;
    if (FullEdges < 4)
      continue; // too small to interrupt partway

    O.TrackProvenance = true;
    O.MaxEdges = FullEdges / 2;
    BidirectionalSolver S(*Sys.CS, O);
    if (S.solve() != Status::EdgeLimit || S.pendingEdges() == 0)
      continue;
    bool AnyObligated = false;
    for (size_t I = S.processedEdges(); I != Access::arenaSize(S); ++I)
      AnyObligated |= Access::pendingEdgeObligated(S, I);
    if (!AnyObligated)
      continue; // nothing in the tail is promised to the certifier yet
    EXPECT_TRUE(certifyFixpoint(S).Ok)
        << "honest interrupted state must certify";
    Access::truncatePending(S);
    EXPECT_FALSE(certifyFixpoint(S).Ok)
        << "certifier accepted a truncated worklist";
    ++Applicable[5];
  }

  // Applicability floors: a mutation kind that stopped applying is a
  // vacuous pass, not a pass. (Counts over the fixed seed population
  // are deterministic; floors sit well under the observed values.)
  EXPECT_GE(Applicable[0], 55u) << "drop-edge barely ever applicable";
  EXPECT_GE(Applicable[1], 40u) << "rewrite-annotation barely applicable";
  EXPECT_GE(Applicable[2], 3u) << "no collapsed cycles in population";
  EXPECT_GE(Applicable[3], 55u) << "counter-bump barely applicable";
  EXPECT_GE(Applicable[4], 5u) << "no inconsistent systems in population";
  EXPECT_GE(Applicable[5], 5u) << "no truncatable interrupts in population";
}

/// Solves seed \p Seed's system with provenance and a proof log, picks
/// an edge \p Pick selects (by derivation rule and endpoints), drops
/// it from the solved state and from the log, and asserts that both
/// checkers reject. An edge no later record cites is preferred: then
/// no premise check can notice the loss and only rasccheck's
/// closedness pass can. \returns false when no edge qualifies.
template <typename Fn>
bool dropInBothCheckers(uint64_t Seed, const char *Kind, Fn &&Pick) {
  SCOPED_TRACE(testgen::seedContext(Seed, Kind));
  const std::string Log =
      (std::filesystem::path(::testing::TempDir()) /
       ("certmut_" + std::to_string(::getpid()) + ".rprf"))
          .string();
  Rng R(Seed * 7919 + 17);
  RandomSystem Sys = testgen::randomSystem(R);
  SolverOptions O;
  O.TrackProvenance = true;
  O.ProofLogPath = Log;
  BidirectionalSolver S(*Sys.CS, O);
  S.solve();
  if (S.lastProofDiag())
    return false;
  namespace pe = prooflog_edit;
  pe::Dismantled D;
  EXPECT_TRUE(pe::dismantle(Log, D));
  size_t Victim = ~size_t(0), Rec = std::string::npos;
  for (size_t I = 0; I != Access::arenaSize(S); ++I) {
    if (!Pick(S, *Sys.CS, I))
      continue;
    Access::Edge E = Access::edgeAt(S, I);
    size_t J = pe::findEdge(D, E.Src, E.Dst, E.Ann);
    EXPECT_NE(J, std::string::npos) << "the log records every arena edge";
    bool Uncited =
        J != std::string::npos && pe::firstCitation(D, J) == std::string::npos;
    if (Victim == ~size_t(0) || Uncited) {
      Victim = I;
      Rec = J;
    }
    if (Uncited)
      break;
  }
  if (Victim == ~size_t(0))
    return false;

  if (Rec != std::string::npos) {
    pe::dropProcessedEdge(D, Rec);
    pe::reassemble(D, Log);
    int Exit = pe::checkExit(Log);
    EXPECT_GE(Exit, 22) << "rasccheck accepted the mutant (exit " << Exit
                        << ")";
    EXPECT_LE(Exit, 25) << "rasccheck misclassified the mutant";
  }
  std::remove(Log.c_str());

  EXPECT_TRUE(certifyFixpoint(S).Ok) << "honest solved state must certify";
  Access::dropEdge(S, Victim);
  EXPECT_FALSE(certifyFixpoint(S).Ok) << "certifier accepted the mutant";
  return true;
}

TEST(CertifierMutation, DerivedEdgesOfTheInductiveFormAreObligated) {
  using Rule = Access::Prov::Rule;
  unsigned LowerBounds = 0, Summaries = 0;
  for (uint64_t Seed = 1; Seed <= NumSeeds; ++Seed) {
    LowerBounds += dropInBothCheckers(
        Seed, "drop-lower-bound",
        [](const BidirectionalSolver &S, const ConstraintSystem &CS,
           size_t I) {
          Access::Edge E = Access::edgeAt(S, I);
          return Access::ruleAt(S, I) == Rule::Transitive &&
                 CS.expr(E.Src).Kind == ExprKind::Cons &&
                 CS.expr(E.Dst).Kind == ExprKind::Var;
        });
    Summaries += dropInBothCheckers(
        Seed, "drop-projection-summary",
        [](const BidirectionalSolver &S, const ConstraintSystem &,
           size_t I) { return Access::ruleAt(S, I) == Rule::Projection; });
  }
  EXPECT_GE(LowerBounds, 20u) << "derived lower bounds barely applicable";
  EXPECT_GE(Summaries, 10u) << "projection summaries barely applicable";
}

TEST(Certifier, AcceptsSolvedSystems) {
  for (uint64_t Seed = 1; Seed != 30; ++Seed) {
    Rng R(Seed);
    RandomSystem Sys = testgen::randomSystem(R);
    BidirectionalSolver S(*Sys.CS);
    S.solve();
    CertificationReport Rep = certifyFixpoint(S);
    EXPECT_TRUE(Rep.Ok) << "seed " << Seed << ": " << Rep.summary();
    EXPECT_EQ(Rep.EdgesChecked, S.processedEdges() + S.pendingEdges());
  }
}

TEST(Certifier, AcceptsInterruptedPrefix) {
  // An interrupted solver is a *partial* fixpoint: processed edges
  // carry obligations, pending ones do not. The certifier must accept
  // every intermediate state on the way to quiescence.
  Rng R(21);
  RandomSystem Sys = testgen::randomSystem(R);
  SolverOptions Opts;
  Opts.MaxEdges = 2;
  BidirectionalSolver S(*Sys.CS, Opts);
  Status St = S.solve();
  unsigned Guard = 0;
  while (BidirectionalSolver::isInterrupted(St) && ++Guard < 10000) {
    CertificationReport Rep = certifyFixpoint(S);
    EXPECT_TRUE(Rep.Ok) << Rep.summary();
    S.options().MaxEdges += 1;
    St = S.solve();
  }
  EXPECT_TRUE(certifyFixpoint(S).Ok);
}

TEST(Certifier, SummaryRenders) {
  Rng R(22);
  RandomSystem Sys = testgen::randomSystem(R);
  BidirectionalSolver S(*Sys.CS);
  S.solve();
  std::string Sum = certifyFixpoint(S).summary();
  EXPECT_NE(Sum.find("certified"), std::string::npos) << Sum;
}

} // namespace
