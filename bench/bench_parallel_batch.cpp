//===- bench/bench_parallel_batch.cpp - Parallel solving ---------*- C++ -*-===//
//
// Part of the RASC project: regularly annotated set constraints.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Benchmarks for the two parallel modes (DESIGN.md §8):
///
///   * BM_SolveDagParallel — frontier-parallel closure inside one
///     solve, on the BM_SolveDag workload of bench_sec4_core_scaling
///     (random annotated DAG over the 1-bit machine), for
///     Threads ∈ {1, 2, 4, 8}. Threads = 1 is the sequential code
///     path, so the /1 rows double as a regression check against
///     BM_SolveDag itself.
///
///   * BM_SolvePackageParallel — the same sweep (Threads ∈ {1, 2, 4})
///     on Table 1 packages of 4k/16k/32k lines (generatePackage seed
///     7) checked against the full privilege property, timing the
///     solve only. The frontier-parallel closure passed 1.5x at 4
///     threads here while every statement had its own variable; on
///     the contracted systems it no longer wins (EXPERIMENTS.md
///     "Frontier-parallel closure at 4 threads").
///
///   * BM_SolveDagSharded — the n=800 DAG through the sharded
///     merge (owner-partitioned dedup, per-(producer,shard)
///     mailboxes), sweeping MergeShards at a fixed thread count, plus
///     a RelaxedParallelStats row (skips the exact-stats sequential
///     limits sweep; fixpoint identical, see DESIGN.md §8).
///
///   * BM_BatchSolve — batch throughput of the SolvePool on the
///     Section 5 workload (random DAG over the adversarial machine):
///     K independent systems solved per iteration through one
///     BatchSolver, for pool widths {1, 2, 4, 8}.
///
/// Speedups above 1 thread require physical cores; on a single-core
/// host the sweeps are expected flat — bench/run_bench.sh stamps
/// hardware_threads into each entry and warns loudly when the host
/// has fewer cores than the widest configuration (see EXPERIMENTS.md).
///
//===----------------------------------------------------------------------===//

#include "automata/Machines.h"
#include "core/BatchSolver.h"
#include "core/Domains.h"
#include "core/Solver.h"
#include "pdmc/Checker.h"
#include "pdmc/Properties.h"
#include "progen/ProgramGen.h"
#include "support/Rng.h"

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

using namespace rasc;

namespace {

/// Random annotated DAG system; the BM_SolveDag generator.
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

void BM_SolveDagParallel(benchmark::State &State) {
  unsigned NumVars = static_cast<unsigned>(State.range(0));
  unsigned Threads = static_cast<unsigned>(State.range(1));
  MonoidDomain Dom(buildOneBitMachine());
  ConstraintSystem CS(Dom);
  buildDag(CS, Dom, NumVars, 42);
  SolverOptions O;
  O.Threads = Threads;
  double Edges = 0, Rounds = 0;
  for (auto _ : State) {
    BidirectionalSolver S(CS, O);
    benchmark::DoNotOptimize(S.solve());
    Edges = static_cast<double>(S.stats().EdgesInserted);
    Rounds = static_cast<double>(S.stats().ParallelRounds);
  }
  State.counters["edges"] = Edges;
  State.counters["rounds"] = Rounds;
  State.counters["edges_per_s"] = benchmark::Counter(
      Edges * static_cast<double>(State.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SolveDagParallel)
    ->Args({400, 1})
    ->Args({400, 2})
    ->Args({400, 4})
    ->Args({400, 8})
    ->Args({800, 1})
    ->Args({800, 2})
    ->Args({800, 4})
    ->Args({800, 8})
    ->UseRealTime();

void BM_SolvePackageParallel(benchmark::State &State) {
  size_t Lines = static_cast<size_t>(State.range(0));
  SpecAutomaton Spec = fullPrivilegeSpec();
  Program P = generatePackage(Lines, Spec, 7);
  SolverOptions O;
  O.Threads = static_cast<unsigned>(State.range(1));
  double Edges = 0, Rounds = 0;
  for (auto _ : State) {
    // Generation and monoid construction stay outside the timing.
    State.PauseTiming();
    RascChecker RC(P, Spec);
    RC.setSolverOptions(O);
    RC.prepare();
    State.ResumeTiming();
    benchmark::DoNotOptimize(RC.solver()->solve());
    Edges = static_cast<double>(RC.solver()->stats().EdgesInserted);
    Rounds = static_cast<double>(RC.solver()->stats().ParallelRounds);
  }
  State.counters["edges"] = Edges;
  State.counters["rounds"] = Rounds;
}
BENCHMARK(BM_SolvePackageParallel)
    ->ArgsProduct({{4000, 16000, 32000}, {1, 2, 4}})
    ->UseRealTime();

/// Sharded merge on the 800-var DAG: MergeShards swept at Threads = 4
/// (range(1) = shards, range(2) = relaxed stats). The /4/0/1 row is
/// the relaxed mode at the default shard count.
void BM_SolveDagSharded(benchmark::State &State) {
  unsigned Threads = static_cast<unsigned>(State.range(0));
  unsigned Shards = static_cast<unsigned>(State.range(1));
  bool Relaxed = State.range(2) != 0;
  MonoidDomain Dom(buildOneBitMachine());
  ConstraintSystem CS(Dom);
  buildDag(CS, Dom, 800, 42);
  SolverOptions O;
  O.Threads = Threads;
  O.MergeShards = Shards;
  O.RelaxedParallelStats = Relaxed;
  double Edges = 0, Rounds = 0;
  for (auto _ : State) {
    BidirectionalSolver S(CS, O);
    benchmark::DoNotOptimize(S.solve());
    Edges = static_cast<double>(S.stats().EdgesInserted);
    Rounds = static_cast<double>(S.stats().ParallelRounds);
  }
  State.counters["edges"] = Edges;
  State.counters["rounds"] = Rounds;
  State.counters["edges_per_s"] = benchmark::Counter(
      Edges * static_cast<double>(State.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SolveDagSharded)
    ->Args({4, 1, 0})
    ->Args({4, 4, 0})
    ->Args({4, 8, 0})
    ->Args({4, 0, 1}) // relaxed stats, shards = Threads
    ->UseRealTime();

/// One Section 5 style system: random DAG over the adversarial
/// machine, so per-edge annotation diversity is real closure work.
struct BatchTask {
  std::unique_ptr<MonoidDomain> Dom;
  std::unique_ptr<ConstraintSystem> CS;
};

BatchTask makeBatchTask(unsigned MachineStates, unsigned NumVars,
                        uint64_t Seed) {
  BatchTask T;
  T.Dom = std::make_unique<MonoidDomain>(
      buildAdversarialMachine(MachineStates));
  T.CS = std::make_unique<ConstraintSystem>(*T.Dom);
  buildDag(*T.CS, *T.Dom, NumVars, Seed);
  return T;
}

void BM_BatchSolve(benchmark::State &State) {
  unsigned PoolThreads = static_cast<unsigned>(State.range(0));
  constexpr unsigned K = 8;
  std::vector<BatchTask> Tasks;
  for (unsigned I = 0; I != K; ++I)
    Tasks.push_back(makeBatchTask(3, 160, 100 + I));

  BatchSolver::Options BO;
  BO.Threads = PoolThreads;
  BatchSolver Batch(BO);
  double Edges = 0;
  for (auto _ : State) {
    // Fresh solvers each iteration: the measured region is K full
    // closures through the pool.
    std::vector<std::unique_ptr<BidirectionalSolver>> Solvers;
    std::vector<BidirectionalSolver *> Ptrs;
    for (BatchTask &T : Tasks) {
      Solvers.push_back(std::make_unique<BidirectionalSolver>(*T.CS));
      Ptrs.push_back(Solvers.back().get());
    }
    benchmark::DoNotOptimize(Batch.solveAll(Ptrs));
    Edges = static_cast<double>(Batch.mergedStats().EdgesInserted);
  }
  State.counters["edges"] = Edges;
  State.counters["systems_per_s"] = benchmark::Counter(
      static_cast<double>(K) * static_cast<double>(State.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_BatchSolve)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

} // namespace

BENCHMARK_MAIN();
