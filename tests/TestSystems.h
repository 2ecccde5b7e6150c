//===- tests/TestSystems.h - Random constraint-system generators -*- C++ -*-//
//
// Part of the RASC project: regularly annotated set constraints.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Seeded random generators for differential solver tests: a random
/// minimized DFA for the annotation language, and a random constraint
/// system exercising every surface form (constants, variable edges,
/// constructor expressions on both sides, projections). Shared by the
/// property tests and the interrupt/resume differential tests so both
/// draw from the same distribution of systems.
///
//===----------------------------------------------------------------------===//

#ifndef RASC_TESTS_TESTSYSTEMS_H
#define RASC_TESTS_TESTSYSTEMS_H

#include "automata/DfaOps.h"
#include "core/Domains.h"
#include "core/Solver.h"
#include "support/Rng.h"

#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace rasc {
namespace testgen {

/// Builds a random total DFA with \p NumStates states over \p NumSyms
/// symbols, minimized.
inline Dfa randomDfa(Rng &R, unsigned NumStates, unsigned NumSyms) {
  DfaBuilder B;
  std::vector<SymbolId> Syms;
  for (unsigned I = 0; I != NumSyms; ++I)
    Syms.push_back(B.addSymbol("s" + std::to_string(I)));
  for (unsigned I = 0; I != NumStates; ++I)
    B.addState();
  B.setStart(0);
  bool AnyAccept = false;
  for (unsigned I = 0; I != NumStates; ++I) {
    if (R.chance(1, 2)) {
      B.setAccepting(I);
      AnyAccept = true;
    }
    for (SymbolId S : Syms)
      B.addTransition(I, S, static_cast<StateId>(R.below(NumStates)));
  }
  if (!AnyAccept)
    B.setAccepting(static_cast<StateId>(R.below(NumStates)));
  return minimize(B.build());
}

struct RandomSystem {
  std::unique_ptr<MonoidDomain> Dom;
  std::unique_ptr<ConstraintSystem> CS;
  std::vector<ConsId> Constants;
  std::vector<ConsId> Constructors; // arity >= 1
  std::vector<VarId> Vars;
};

/// Appends \p NumCons random constraints (all surface forms, including
/// projections) to an existing system.
inline void addRandomConstraints(RandomSystem &Sys, Rng &R,
                                 unsigned NumCons) {
  auto randVar = [&] {
    return Sys.Vars[R.below(Sys.Vars.size())];
  };
  auto randAnn = [&]() -> AnnId {
    if (R.chance(1, 3))
      return Sys.Dom->identity();
    SymbolId S =
        static_cast<SymbolId>(R.below(Sys.Dom->machine().numSymbols()));
    return Sys.Dom->symbolAnn(S);
  };
  auto randCons = [&]() -> ExprId {
    ConsId C = Sys.Constructors[R.below(Sys.Constructors.size())];
    std::vector<VarId> Args;
    for (uint32_t I = 0; I != Sys.CS->constructor(C).Arity; ++I)
      Args.push_back(randVar());
    return Sys.CS->cons(C, std::move(Args));
  };

  for (unsigned I = 0; I != NumCons; ++I) {
    switch (R.below(6)) {
    case 0:
      Sys.CS->add(Sys.CS->cons(Sys.Constants[R.below(Sys.Constants.size())]),
                  Sys.CS->var(randVar()), randAnn());
      break;
    case 1:
    case 2:
      Sys.CS->add(Sys.CS->var(randVar()), Sys.CS->var(randVar()),
                  randAnn());
      break;
    case 3:
      Sys.CS->add(randCons(), Sys.CS->var(randVar()), randAnn());
      break;
    case 4: {
      Sys.CS->add(Sys.CS->var(randVar()), randCons(), randAnn());
      break;
    }
    case 5: {
      ConsId C = Sys.Constructors[R.below(Sys.Constructors.size())];
      uint32_t Index =
          static_cast<uint32_t>(R.below(Sys.CS->constructor(C).Arity));
      Sys.CS->add(Sys.CS->proj(C, Index, randVar()),
                  Sys.CS->var(randVar()), randAnn());
      break;
    }
    }
  }
}

/// Domain, symbols, and variables only — no constraints yet.
inline RandomSystem randomSkeleton(Rng &R) {
  RandomSystem Sys;
  Sys.Dom = std::make_unique<MonoidDomain>(
      randomDfa(R, 2 + R.below(3), 2 + R.below(2)));
  Sys.CS = std::make_unique<ConstraintSystem>(*Sys.Dom);

  unsigned NumConsts = 1 + R.below(2);
  for (unsigned I = 0; I != NumConsts; ++I)
    Sys.Constants.push_back(
        Sys.CS->addConstant("k" + std::to_string(I)));
  unsigned NumCtors = 1 + R.below(2);
  for (unsigned I = 0; I != NumCtors; ++I)
    Sys.Constructors.push_back(Sys.CS->addConstructor(
        "c" + std::to_string(I), 1 + static_cast<uint32_t>(R.below(2))));

  unsigned NumVars = 3 + R.below(5);
  for (unsigned I = 0; I != NumVars; ++I)
    Sys.Vars.push_back(Sys.CS->freshVar());
  return Sys;
}

inline RandomSystem randomSystem(Rng &R) {
  RandomSystem Sys = randomSkeleton(R);
  addRandomConstraints(Sys, R, 4 + R.below(10));
  return Sys;
}

/// Renders one differential-test iteration's identity — seed, dedup
/// backend, plus any extra context — for gtest failure output. The
/// randomized tests loop hundreds of (seed, backend) combinations
/// inside one TEST body; a bare assertion failure there is
/// unreproducible without this string. Use via
/// SCOPED_TRACE(seedContext(...)).
inline std::string seedContext(uint64_t Seed,
                               SolverOptions::DedupBackend Backend,
                               std::string_view Extra = {}) {
  std::string S = "seed " + std::to_string(Seed) + ", dedup ";
  switch (Backend) {
  case SolverOptions::DedupBackend::Auto:
    S += "auto";
    break;
  case SolverOptions::DedupBackend::Bitset:
    S += "bitset";
    break;
  case SolverOptions::DedupBackend::FlatSet:
    S += "flatset";
    break;
  }
  if (!Extra.empty()) {
    S += ", ";
    S += Extra;
  }
  return S;
}

} // namespace testgen
} // namespace rasc

#endif // RASC_TESTS_TESTSYSTEMS_H
