//===- bench/bench_trace_overhead.cpp - Observability overhead ----*- C++ -*-=//
//
// Part of the RASC project: regularly annotated set constraints.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Measures the cost of the observability layer (support/Trace.h,
/// core/Observe.h) on the solver hot path, in three configurations:
///
///   * off       — tracing and metrics disabled (the shipped default);
///     every instrumentation site costs one relaxed flag load and a
///     branch. The <2% overhead budget in EXPERIMENTS.md is about this
///     configuration versus an uninstrumented build.
///   * trace-on  — events recorded into the per-thread ring (clock
///     read + 40-byte store per event).
///   * metrics-on — metrics recorded at governance cadence plus the
///     per-solve delta recording.
///
/// The workload is the Section 4 random-DAG closure — the same shape
/// bench_sec4_core_scaling measures — so the overhead percentages
/// compose with the absolute numbers recorded there. The authoritative
/// off-vs-seed A/B (interleaved min-of-9, both orders) lives in
/// bench/run_bench.sh; this binary is for quick interactive readings
/// and the ctest smoke gate.
///
//===----------------------------------------------------------------------===//

#include "automata/Machines.h"
#include "core/Domains.h"
#include "core/Observe.h"
#include "core/Solver.h"
#include "support/Rng.h"
#include "support/Trace.h"

#include <benchmark/benchmark.h>

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

enum class Mode { Off, TraceOn, MetricsOn };

void solveLoop(benchmark::State &State, Mode M) {
  unsigned NumVars = static_cast<unsigned>(State.range(0));
  MonoidDomain Dom(buildOneBitMachine());
  ConstraintSystem CS(Dom);
  buildDag(CS, Dom, NumVars, 42);

  trace::setEnabled(M == Mode::TraceOn);
  observe::setMetricsEnabled(M == Mode::MetricsOn);
  double Edges = 0;
  for (auto _ : State) {
    BidirectionalSolver S(CS);
    benchmark::DoNotOptimize(S.solve());
    Edges = static_cast<double>(S.stats().EdgesInserted);
    // Keep the rings from accumulating across iterations: the wrap
    // path (overwrite + no allocation) costs the same as the normal
    // push, but a bounded buffer keeps export-size effects out of a
    // long -benchmark_min_time run.
    if (M == Mode::TraceOn)
      trace::clear();
  }
  trace::setEnabled(false);
  observe::setMetricsEnabled(false);
  trace::clear();

  State.counters["edges"] = Edges;
  State.counters["edges_per_s"] = benchmark::Counter(
      Edges * static_cast<double>(State.iterations()),
      benchmark::Counter::kIsRate);
}

void BM_SolveObservabilityOff(benchmark::State &State) {
  solveLoop(State, Mode::Off);
}
BENCHMARK(BM_SolveObservabilityOff)->Arg(200)->Arg(400)->UseRealTime();

void BM_SolveTraceOn(benchmark::State &State) {
  solveLoop(State, Mode::TraceOn);
}
BENCHMARK(BM_SolveTraceOn)->Arg(200)->Arg(400)->UseRealTime();

void BM_SolveMetricsOn(benchmark::State &State) {
  solveLoop(State, Mode::MetricsOn);
}
BENCHMARK(BM_SolveMetricsOn)->Arg(200)->Arg(400)->UseRealTime();

} // namespace

BENCHMARK_MAIN();
