//===- bench/bench_sec5_solver_strategies.cpp - Section 5 --------*- C++ -*-===//
//
// Part of the RASC project: regularly annotated set constraints.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Regenerates the Section 5 comparison of solving strategies. The
/// number of derivable annotations per edge is |F_M^≡| for the
/// bidirectional solver but only |S| for the unidirectional ones; on
/// the adversarial machine of Figure 2 this gap is superexponential.
/// The workload is a randomly annotated DAG of variable-variable
/// constraints (so the class diversity actually materializes), with
/// one source constant queried at every sink.
///
/// Two series are printed: (a) fixed system size, growing automaton;
/// (b) fixed automaton, growing system.
///
//===----------------------------------------------------------------------===//

#include "automata/Machines.h"
#include "core/Domains.h"
#include "core/Solver.h"
#include "pds/Unidirectional.h"
#include "support/Rng.h"

#include <chrono>
#include <cstdio>
#include <memory>

using namespace rasc;

namespace {

double seconds(std::chrono::steady_clock::time_point Start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       Start)
      .count();
}

struct Workload {
  std::unique_ptr<MonoidDomain> Dom;
  std::unique_ptr<ConstraintSystem> CS;
  ConsId Atom;
  std::vector<VarId> Vars;
};

/// A random DAG over \p NumVars variables: layered edges with random
/// single-symbol annotations, one constant source at layer 0.
Workload makeWorkload(unsigned MachineStates, unsigned NumVars,
                      uint64_t Seed) {
  Workload W;
  W.Dom = std::make_unique<MonoidDomain>(
      buildAdversarialMachine(MachineStates));
  W.CS = std::make_unique<ConstraintSystem>(*W.Dom);
  W.Atom = W.CS->addConstant("src");
  Rng R(Seed);
  for (unsigned I = 0; I != NumVars; ++I)
    W.Vars.push_back(W.CS->freshVar());
  W.CS->add(W.CS->cons(W.Atom), W.CS->var(W.Vars[0]));
  // Each variable gets ~2 incoming edges from earlier variables.
  unsigned NumSyms = W.Dom->machine().numSymbols();
  for (unsigned I = 1; I != NumVars; ++I)
    for (int E = 0; E != 2; ++E) {
      unsigned From = static_cast<unsigned>(R.below(I));
      AnnId Ann = W.Dom->symbolAnn(
          static_cast<SymbolId>(R.below(NumSyms)));
      W.CS->add(W.CS->var(W.Vars[From]), W.CS->var(W.Vars[I]), Ann);
    }
  return W;
}

struct Measurement {
  double BiSeconds = -1; // -1: skipped / edge limit
  uint64_t BiEdges = 0;
  double FwdSeconds = 0;
  size_t FwdTransitions = 0;
  bool QueriesAgree = true;
};

Measurement run(unsigned MachineStates, unsigned NumVars, uint64_t Seed,
                bool RunBidirectional) {
  Workload W = makeWorkload(MachineStates, NumVars, Seed);
  Measurement M;

  std::vector<bool> BiAnswers;
  if (RunBidirectional) {
    auto Start = std::chrono::steady_clock::now();
    SolverOptions Opts;
    Opts.MaxEdges = uint64_t(1) << 23;
    BidirectionalSolver Bi(*W.CS, Opts);
    if (Bi.solve() == BidirectionalSolver::Status::Solved) {
      M.BiSeconds = seconds(Start);
      M.BiEdges = Bi.stats().EdgesInserted;
      for (VarId V : W.Vars)
        BiAnswers.push_back(Bi.entailsConstant(W.Atom, V));
    }
  }

  auto Start = std::chrono::steady_clock::now();
  UnidirectionalSolver U(*W.CS, *W.Dom);
  std::vector<bool> FwdAnswers;
  for (VarId V : W.Vars)
    FwdAnswers.push_back(U.reachesAccepting(W.Atom, V, true));
  M.FwdSeconds = seconds(Start);
  M.FwdTransitions = U.stats().PostStarTransitions;

  if (!BiAnswers.empty())
    M.QueriesAgree = BiAnswers == FwdAnswers;
  return M;
}

} // namespace

int main() {
  std::printf("== Section 5: bidirectional vs unidirectional solving "
              "==\n\n");

  std::printf("(a) fixed system (600 vars), growing adversarial "
              "automaton:\n");
  std::printf("| %3s | %9s | %12s | %10s | %9s | %12s | %5s |\n",
              "|S|", "|F_M^≡|", "bidir (s)", "bi edges", "fwd (s)",
              "fwd trans", "agree");
  std::printf("|-----|-----------|--------------|------------|"
              "-----------|--------------|-------|\n");
  for (unsigned S = 2; S <= 5; ++S) {
    Dfa Machine = buildAdversarialMachine(S);
    TransitionMonoid Probe(Machine);
    Probe.enumerateAll();
    Measurement M = run(S, 600, 42, /*RunBidirectional=*/true);
    if (M.BiSeconds < 0)
      std::printf("| %3u | %9zu | %12s | %10s | %9.3f | %12zu | %5s "
                  "|\n",
                  S, Probe.size(), "edge-limit", "-", M.FwdSeconds,
                  M.FwdTransitions, "-");
    else
      std::printf("| %3u | %9zu | %12.3f | %10llu | %9.3f | %12zu | "
                  "%5s |\n",
                  S, Probe.size(), M.BiSeconds,
                  static_cast<unsigned long long>(M.BiEdges),
                  M.FwdSeconds, M.FwdTransitions,
                  M.QueriesAgree ? "yes" : "NO");
  }

  std::printf("\n(b) fixed automaton (|S| = 4, |F| = 256), growing "
              "system:\n");
  std::printf("| %6s | %12s | %10s | %9s | %12s | %5s |\n", "vars",
              "bidir (s)", "bi edges", "fwd (s)", "fwd trans", "agree");
  std::printf("|--------|--------------|------------|-----------|"
              "--------------|-------|\n");
  for (unsigned N : {200u, 400u, 800u, 1600u}) {
    Measurement M = run(4, N, 7, /*RunBidirectional=*/true);
    if (M.BiSeconds < 0)
      std::printf("| %6u | %12s | %10s | %9.3f | %12zu | %5s |\n", N,
                  "edge-limit", "-", M.FwdSeconds, M.FwdTransitions,
                  "-");
    else
      std::printf("| %6u | %12.3f | %10llu | %9.3f | %12zu | %5s |\n",
                  N, M.BiSeconds,
                  static_cast<unsigned long long>(M.BiEdges),
                  M.FwdSeconds, M.FwdTransitions,
                  M.QueriesAgree ? "yes" : "NO");
  }

  std::printf("\nBidirectional work tracks |F_M^≡| (superexponential "
              "in |S| here);\nforward work tracks |S| — the paper's "
              "asymptotic separation.\n");
  return 0;
}
