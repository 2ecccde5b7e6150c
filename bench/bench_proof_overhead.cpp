//===- bench/bench_proof_overhead.cpp - Proof emission overhead --*- C++ -*-=//
//
// Part of the RASC project: regularly annotated set constraints.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Measures the cost of streaming a derivation log (core/ProofLog.h)
/// from the solver hot path, proof-off versus proof-on. Emission is a
/// per-edge append into a buffered writer (serialize + occasional
/// flush to disk), so the interesting number is the relative overhead
/// per inserted edge on the same workload the absolute scaling is
/// recorded on: the Section 4 random-DAG closure of
/// bench_sec4_core_scaling. The authoritative off-vs-on A/B
/// (interleaved min-of-9) lives in bench/run_bench.sh, which appends
/// a "proof" entry to BENCH_solver.json; this binary also serves as
/// the ctest smoke gate for the emission path.
///
//===----------------------------------------------------------------------===//

#include "automata/Machines.h"
#include "core/Domains.h"
#include "core/Solver.h"
#include "support/Rng.h"

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>

#include <unistd.h>

using namespace rasc;

namespace {

/// Random annotated DAG system over the 1-bit machine (the
/// bench_sec4_core_scaling workload).
void buildDag(ConstraintSystem &CS, const MonoidDomain &Dom,
              unsigned NumVars, uint64_t Seed) {
  Rng R(Seed);
  ConsId C = CS.addConstant("src");
  std::vector<VarId> Vars;
  for (unsigned I = 0; I != NumVars; ++I)
    Vars.push_back(CS.freshVar());
  CS.add(CS.cons(C), CS.var(Vars[0]));
  unsigned NumSyms = Dom.machine().numSymbols();
  for (unsigned I = 1; I != NumVars; ++I)
    for (int E = 0; E != 2; ++E)
      CS.add(CS.var(Vars[R.below(I)]), CS.var(Vars[I]),
             Dom.symbolAnn(static_cast<SymbolId>(R.below(NumSyms))));
}

void solveLoop(benchmark::State &State, bool Proof) {
  unsigned NumVars = static_cast<unsigned>(State.range(0));
  MonoidDomain Dom(buildOneBitMachine());
  ConstraintSystem CS(Dom);
  buildDag(CS, Dom, NumVars, 42);

  const std::string Path = "/tmp/rasc_bench_proof_" +
                           std::to_string(::getpid()) + ".rprf";
  double Edges = 0, Bytes = 0;
  for (auto _ : State) {
    SolverOptions O;
    if (Proof)
      O.ProofLogPath = Path;
    BidirectionalSolver S(CS, O);
    benchmark::DoNotOptimize(S.solve());
    if (Proof && S.lastProofDiag())
      State.SkipWithError("proof emission degraded");
    Edges = static_cast<double>(S.stats().EdgesInserted);
    Bytes = static_cast<double>(S.stats().ProofBytes);
  }
  std::remove(Path.c_str());

  State.counters["edges"] = Edges;
  State.counters["edges_per_s"] = benchmark::Counter(
      Edges * static_cast<double>(State.iterations()),
      benchmark::Counter::kIsRate);
  if (Proof)
    State.counters["proof_bytes"] = Bytes;
}

void BM_SolveProofOff(benchmark::State &State) {
  solveLoop(State, /*Proof=*/false);
}
BENCHMARK(BM_SolveProofOff)->Arg(200)->Arg(400)->UseRealTime();

void BM_SolveProofOn(benchmark::State &State) {
  solveLoop(State, /*Proof=*/true);
}
BENCHMARK(BM_SolveProofOn)->Arg(200)->Arg(400)->UseRealTime();

} // namespace

BENCHMARK_MAIN();
