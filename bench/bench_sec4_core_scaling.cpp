//===- bench/bench_sec4_core_scaling.cpp - Section 4 -------------*- C++ -*-===//
//
// Part of the RASC project: regularly annotated set constraints.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Micro-benchmarks for the Section 4 cost model, O(n^3 |F|^2) with
/// O(1) composition, and ablations for the design choices DESIGN.md
/// calls out:
///
///   * core solver scaling in the system size n (chain + random DAG);
///   * composition through the lazily filled table (misses, then hits);
///   * useless-annotation filtering on/off (the paper's "no match
///     operation needed" observation);
///   * offline cycle elimination on/off on cyclic systems.
///
/// Uses the google-benchmark harness.
///
//===----------------------------------------------------------------------===//

#include "automata/Machines.h"
#include "automata/RegexParser.h"
#include "core/Domains.h"
#include "core/Solver.h"
#include "support/Rng.h"

#include <benchmark/benchmark.h>

using namespace rasc;

namespace {

/// Random annotated DAG system over the 1-bit machine.
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

void BM_SolveDag(benchmark::State &State) {
  unsigned NumVars = static_cast<unsigned>(State.range(0));
  // The workload (monoid + constraint system) is built once; the
  // timed region is solver construction + solve, so the numbers track
  // closure throughput rather than DAG generation.
  MonoidDomain Dom(buildOneBitMachine());
  ConstraintSystem CS(Dom);
  buildDag(CS, Dom, NumVars, 42);
  double Edges = 0;
  for (auto _ : State) {
    BidirectionalSolver S(CS);
    benchmark::DoNotOptimize(S.solve());
    Edges = static_cast<double>(S.stats().EdgesInserted);
  }
  State.counters["edges"] = Edges;
  State.counters["edges_per_s"] = benchmark::Counter(
      Edges * static_cast<double>(State.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SolveDag)
    ->Arg(100)
    ->Arg(200)
    ->Arg(400)
    ->Arg(800)
    ->UseRealTime();

void BM_SolveDagAdversarial(benchmark::State &State) {
  // BM_SolveDag's shape over the 5-state adversarial machine (3125
  // elements): a solve that records thousands of annotation ids, so
  // the dedup rows spill out of their inline slots and the shared
  // stride doubles mid-closure (the first iteration; later ones start
  // spilled, sized by the domain the earlier solves interned).
  unsigned NumVars = static_cast<unsigned>(State.range(0));
  MonoidDomain Dom(buildAdversarialMachine(5));
  ConstraintSystem CS(Dom);
  buildDag(CS, Dom, NumVars, 42);
  double Edges = 0, Bytes = 0;
  for (auto _ : State) {
    BidirectionalSolver S(CS);
    benchmark::DoNotOptimize(S.solve());
    Edges = static_cast<double>(S.stats().EdgesInserted);
    Bytes = static_cast<double>(S.memoryBytes());
  }
  State.counters["edges"] = Edges;
  State.counters["anns"] = static_cast<double>(Dom.size());
  State.counters["solver_mb"] = Bytes / (1 << 20);
}
BENCHMARK(BM_SolveDagAdversarial)->Arg(400)->Arg(3200)->UseRealTime();

void BM_ComposeTable(benchmark::State &State) {
  // Random pairs over the enumerated 256-element monoid: the first
  // visit of a pair composes the state tables, later ones read the
  // row.
  Dfa M = buildAdversarialMachine(4);
  TransitionMonoid Mon(M);
  Mon.enumerateAll();
  Rng R(7);
  size_t N = Mon.size();
  for (auto _ : State)
    benchmark::DoNotOptimize(
        Mon.compose(static_cast<FnId>(R.below(N)),
                    static_cast<FnId>(R.below(N))));
  State.counters["misses"] = static_cast<double>(Mon.composeMisses());
}
BENCHMARK(BM_ComposeTable);

void BM_UselessFiltering(benchmark::State &State) {
  bool Filter = State.range(0) != 0;
  // Language "a b": half of all compositions are dead ("a a", "b b",
  // "b a"); filtering prunes those edges.
  std::optional<Dfa> M = compileRegex("a b", {});
  for (auto _ : State) {
    MonoidDomain Dom(*M);
    ConstraintSystem CS(Dom);
    buildDag(CS, Dom, 400, 11);
    SolverOptions Opts;
    Opts.FilterUseless = Filter;
    BidirectionalSolver S(CS, Opts);
    benchmark::DoNotOptimize(S.solve());
    State.counters["edges"] =
        static_cast<double>(S.stats().EdgesInserted);
    State.counters["filtered"] =
        static_cast<double>(S.stats().UselessFiltered);
  }
}
BENCHMARK(BM_UselessFiltering)->Arg(0)->Arg(1);

void BM_CycleElimination(benchmark::State &State) {
  bool Eliminate = State.range(0) != 0;
  for (auto _ : State) {
    TrivialDomain Dom;
    ConstraintSystem CS(Dom);
    ConsId C = CS.addConstant("src");
    // 20 cycles of 10 identity-connected variables each, chained.
    std::vector<VarId> Vars;
    for (unsigned I = 0; I != 200; ++I)
      Vars.push_back(CS.freshVar());
    CS.add(CS.cons(C), CS.var(Vars[0]));
    for (unsigned Cyc = 0; Cyc != 20; ++Cyc) {
      unsigned Base = Cyc * 10;
      for (unsigned I = 0; I != 10; ++I)
        CS.add(CS.var(Vars[Base + I]),
               CS.var(Vars[Base + (I + 1) % 10]));
      if (Cyc)
        CS.add(CS.var(Vars[Base - 1]), CS.var(Vars[Base]));
    }
    SolverOptions Opts;
    Opts.CycleElimination = Eliminate;
    BidirectionalSolver S(CS, Opts);
    benchmark::DoNotOptimize(S.solve());
    State.counters["edges"] =
        static_cast<double>(S.stats().EdgesInserted);
    State.counters["collapsed"] =
        static_cast<double>(S.stats().CollapsedVars);
  }
}
BENCHMARK(BM_CycleElimination)->Arg(0)->Arg(1);

} // namespace

BENCHMARK_MAIN();
