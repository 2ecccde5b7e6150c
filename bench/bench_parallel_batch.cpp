//===- bench/bench_parallel_batch.cpp - Parallel solving ---------*- C++ -*-===//
//
// Part of the RASC project: regularly annotated set constraints.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// BM_BatchSolve — batch throughput of the SolvePool, the one
/// parallel mode (DESIGN.md §8), on the Section 5 workload (random
/// DAG over the adversarial machine): K independent systems solved
/// per iteration through one BatchSolver, for pool widths
/// {1, 2, 4, 8}. Each solve itself is sequential.
///
/// Speedups above 1 thread require physical cores; on a single-core
/// host the sweep is expected flat — bench/run_bench.sh stamps
/// hardware_threads into each entry and warns loudly when the host
/// has fewer cores than the widest configuration (see EXPERIMENTS.md).
///
//===----------------------------------------------------------------------===//

#include "automata/Machines.h"
#include "core/BatchSolver.h"
#include "core/Domains.h"
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
