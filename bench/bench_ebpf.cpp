//===- bench/bench_ebpf.cpp - eBPF front-end pipeline throughput -*- C++ -*-===//
//
// Part of the RASC project: regularly annotated set constraints.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Throughput of the bytecode front-end (DESIGN.md §13): how fast do
/// raw eBPF bytes turn into answered analysis queries?  The stages are
/// benchmarked separately so a regression is attributable:
///
///   * decode + CFG construction (the trust boundary — pure parsing);
///   * lowering into the three applications' native inputs;
///   * the full pipeline per application, bytes -> solved fixpoint ->
///     query (violations / uninit reads / flowsPN).
///
/// BM_EbpfBatchFlow keeps a batch of flow analyses alive together, as
/// `rasctool --ebpf-batch` does; each grows its own monoid. The full
/// batch path (all three systems of every program pooled on
/// one BatchSolver) is perfbench's `ebpf-batch` workload.
///
/// The corpus is generateEbpf() with fixed seeds, so numbers are
/// comparable across runs and machines modulo hardware.
///
/// This binary replaces the global operator new with a counting one,
/// so BM_EbpfLowerAllThree and BM_EbpfPipelineFlow can report heap
/// allocations per program. The count repeats exactly from run to run,
/// unlike the timings.
///
//===----------------------------------------------------------------------===//

#include "dataflow/BitVector.h"
#include "ebpf/Cfg.h"
#include "ebpf/Decode.h"
#include "ebpf/Lower.h"
#include "flow/Analysis.h"
#include "pdmc/Checker.h"
#include "progen/EbpfGen.h"

#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

using namespace rasc;

namespace {
std::atomic<uint64_t> HeapAllocs{0};
} // namespace

// Counting replacements; new[] and the nothrow forms route here. Kept
// out of line so the compiler does not pair an inlined free() with a
// new-expression and warn about a mismatch.
[[gnu::noinline]] void *operator new(std::size_t N) {
  HeapAllocs.fetch_add(1, std::memory_order_relaxed);
  if (void *P = std::malloc(N ? N : 1))
    return P;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void *P) noexcept { std::free(P); }
[[gnu::noinline]] void operator delete(void *P, std::size_t) noexcept {
  std::free(P);
}

namespace {

/// Programs per iteration in the solve/pipeline benchmarks.  Small
/// enough that one iteration stays well under a second, large enough
/// to amortize per-program noise.
constexpr uint64_t kPrograms = 8;

/// Live analyses per iteration in the batch benchmark: one
/// `ebpf-batch` batch.
constexpr uint64_t kBatchPrograms = 16;

/// Programs per iteration for decode/lower, which are orders of
/// magnitude cheaper than solving.
constexpr uint64_t kDecodePrograms = 64;

std::vector<std::vector<uint8_t>> corpus(uint64_t N) {
  std::vector<std::vector<uint8_t>> Bytes;
  Bytes.reserve(N);
  for (uint64_t Seed = 1; Seed <= N; ++Seed) {
    EbpfGenOptions O;
    O.Seed = Seed;
    O.MaxBlocks = 6;
    O.MaxBodyInsns = 5;
    Bytes.push_back(generateEbpf(O));
  }
  return Bytes;
}

std::vector<ebpf::Cfg> cfgs(const std::vector<std::vector<uint8_t>> &Corpus) {
  std::vector<ebpf::Cfg> Gs;
  Gs.reserve(Corpus.size());
  for (const std::vector<uint8_t> &B : Corpus) {
    Expected<ebpf::DecodedProgram> D = ebpf::decode(B);
    if (!D)
      std::abort(); // generator/decoder disagreement: a test failure
    Gs.push_back(ebpf::buildCfg(std::move(*D)));
  }
  return Gs;
}

void BM_EbpfDecodeCfg(benchmark::State &State) {
  std::vector<std::vector<uint8_t>> Corpus = corpus(kDecodePrograms);
  uint64_t Insns = 0;
  for (auto _ : State) {
    Insns = 0;
    for (const std::vector<uint8_t> &B : Corpus) {
      Expected<ebpf::DecodedProgram> D = ebpf::decode(B);
      ebpf::Cfg G = ebpf::buildCfg(std::move(*D));
      Insns += G.Prog.numInsns();
      benchmark::DoNotOptimize(G.numEdges());
    }
  }
  State.counters["programs_per_s"] = benchmark::Counter(
      static_cast<double>(kDecodePrograms * State.iterations()),
      benchmark::Counter::kIsRate);
  State.counters["insns_per_s"] = benchmark::Counter(
      static_cast<double>(Insns * State.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_EbpfDecodeCfg)->UseRealTime();

void BM_EbpfLowerAllThree(benchmark::State &State) {
  std::vector<ebpf::Cfg> Gs = cfgs(corpus(kDecodePrograms));
  uint64_t Allocs = 0;
  for (auto _ : State) {
    uint64_t Before = HeapAllocs.load(std::memory_order_relaxed);
    for (const ebpf::Cfg &G : Gs) {
      // The pdmc checker and the dataflow analysis share Df's program.
      ebpf::DataflowLowering Df = ebpf::lowerToDataflow(G);
      ebpf::FlowLowering Fl = ebpf::lowerToFlowProgram(G);
      benchmark::DoNotOptimize(Df.Reads.size());
      benchmark::DoNotOptimize(Fl.InsnLit.size());
    }
    Allocs = HeapAllocs.load(std::memory_order_relaxed) - Before;
  }
  State.counters["programs_per_s"] = benchmark::Counter(
      static_cast<double>(kDecodePrograms * State.iterations()),
      benchmark::Counter::kIsRate);
  // The three lowerings of one program, averaged over the corpus (the
  // last iteration's count).
  State.counters["allocs_per_program"] =
      static_cast<double>(Allocs) / kDecodePrograms;
}
BENCHMARK(BM_EbpfLowerAllThree)->UseRealTime();

void BM_EbpfPipelinePdmc(benchmark::State &State) {
  std::vector<ebpf::Cfg> Gs = cfgs(corpus(kPrograms));
  SpecAutomaton Spec = ebpf::mapCheckSpec();
  uint64_t Violations = 0;
  for (auto _ : State) {
    Violations = 0;
    for (const ebpf::Cfg &G : Gs) {
      ebpf::PdmcLowering Pd = ebpf::lowerToProgram(G);
      RascChecker Checker(*Pd.Prog, Spec);
      Violations += Checker.check().size();
    }
  }
  State.counters["programs_per_s"] = benchmark::Counter(
      static_cast<double>(kPrograms * State.iterations()),
      benchmark::Counter::kIsRate);
  State.counters["violations"] = static_cast<double>(Violations);
}
BENCHMARK(BM_EbpfPipelinePdmc)->UseRealTime();

void BM_EbpfPipelineDataflow(benchmark::State &State) {
  std::vector<ebpf::Cfg> Gs = cfgs(corpus(kPrograms));
  uint64_t Uninit = 0;
  for (auto _ : State) {
    Uninit = 0;
    for (const ebpf::Cfg &G : Gs) {
      ebpf::DataflowLowering Df = ebpf::lowerToDataflow(G);
      AnnotatedBitVectorAnalysis A(*Df.Problem);
      A.prepare(SolverOptions{});
      A.solve();
      Uninit += ebpf::uninitReads(Df, A).size();
    }
  }
  State.counters["programs_per_s"] = benchmark::Counter(
      static_cast<double>(kPrograms * State.iterations()),
      benchmark::Counter::kIsRate);
  State.counters["uninit_reads"] = static_cast<double>(Uninit);
}
BENCHMARK(BM_EbpfPipelineDataflow)->UseRealTime();

void BM_EbpfPipelineFlow(benchmark::State &State) {
  std::vector<ebpf::Cfg> Gs = cfgs(corpus(kPrograms));
  uint64_t CtxFlows = 0;
  uint64_t Allocs = 0;
  for (auto _ : State) {
    CtxFlows = 0;
    uint64_t Before = HeapAllocs.load(std::memory_order_relaxed);
    for (const ebpf::Cfg &G : Gs) {
      ebpf::FlowLowering Fl = ebpf::lowerToFlowProgram(G);
      FlowAnalysis A(Fl.Prog, FlowMode::Primal);
      A.prepare(SolverOptions{});
      CtxFlows += A.flowsPN(Fl.CtxLit, Fl.ResultExpr);
    }
    Allocs = HeapAllocs.load(std::memory_order_relaxed) - Before;
  }
  State.counters["programs_per_s"] = benchmark::Counter(
      static_cast<double>(kPrograms * State.iterations()),
      benchmark::Counter::kIsRate);
  State.counters["ctx_flows"] = static_cast<double>(CtxFlows);
  // Lowering, analysis construction, solve and query of one program,
  // averaged over the corpus (the last iteration's count).
  State.counters["allocs_per_program"] =
      static_cast<double>(Allocs) / kPrograms;
}
BENCHMARK(BM_EbpfPipelineFlow)->UseRealTime();

/// The `rasctool --ebpf-batch` shape of the flow pipeline: all
/// kBatchPrograms analyses stay alive until the batch is answered.
/// BM_EbpfPipelineFlow holds one analysis at a time.
void BM_EbpfBatchFlow(benchmark::State &State) {
  std::vector<ebpf::Cfg> Gs = cfgs(corpus(kBatchPrograms));
  uint64_t CtxFlows = 0;
  for (auto _ : State) {
    CtxFlows = 0;
    std::vector<ebpf::FlowLowering> Fls;
    Fls.reserve(Gs.size()); // the analyses point into these
    std::vector<std::unique_ptr<FlowAnalysis>> Live;
    for (const ebpf::Cfg &G : Gs) {
      Fls.push_back(ebpf::lowerToFlowProgram(G));
      Live.push_back(
          std::make_unique<FlowAnalysis>(Fls.back().Prog, FlowMode::Primal));
    }
    for (size_t I = 0; I != Live.size(); ++I) {
      Live[I]->prepare(SolverOptions{});
      CtxFlows += Live[I]->flowsPN(Fls[I].CtxLit, Fls[I].ResultExpr);
    }
  }
  State.counters["programs_per_s"] = benchmark::Counter(
      static_cast<double>(kBatchPrograms * State.iterations()),
      benchmark::Counter::kIsRate);
  State.counters["ctx_flows"] = static_cast<double>(CtxFlows);
}
BENCHMARK(BM_EbpfBatchFlow)->UseRealTime();

} // namespace

BENCHMARK_MAIN();
