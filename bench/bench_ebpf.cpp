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
///     query (violations / uninit reads / flowsPN);
///   * the batch path: every program's three systems pooled on one
///     BatchSolver, the shape `rasctool --ebpf-batch` and rascd run.
///
/// The corpus is generateEbpf() with fixed seeds, so numbers are
/// comparable across runs and machines modulo hardware.
///
//===----------------------------------------------------------------------===//

#include "core/BatchSolver.h"
#include "dataflow/BitVector.h"
#include "ebpf/Cfg.h"
#include "ebpf/Decode.h"
#include "ebpf/Lower.h"
#include "flow/Analysis.h"
#include "pdmc/Checker.h"
#include "progen/EbpfGen.h"

#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>
#include <vector>

using namespace rasc;

namespace {

/// Programs per iteration in the solve/pipeline benchmarks.  Small
/// enough that one iteration stays well under a second, large enough
/// to amortize per-program noise.
constexpr uint64_t kPrograms = 8;

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
  for (auto _ : State) {
    for (const ebpf::Cfg &G : Gs) {
      ebpf::PdmcLowering Pd = ebpf::lowerToProgram(G);
      ebpf::DataflowLowering Df = ebpf::lowerToDataflow(G);
      ebpf::FlowLowering Fl = ebpf::lowerToFlowProgram(G);
      benchmark::DoNotOptimize(Pd.EventInsn.size());
      benchmark::DoNotOptimize(Df.Reads.size());
      benchmark::DoNotOptimize(Fl.InsnLit.size());
    }
  }
  State.counters["programs_per_s"] = benchmark::Counter(
      static_cast<double>(kDecodePrograms * State.iterations()),
      benchmark::Counter::kIsRate);
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
  for (auto _ : State) {
    CtxFlows = 0;
    for (const ebpf::Cfg &G : Gs) {
      ebpf::FlowLowering Fl = ebpf::lowerToFlowProgram(G);
      FlowAnalysis A(Fl.Prog, FlowMode::Primal);
      A.prepare(SolverOptions{});
      CtxFlows += A.flowsPN(Fl.CtxLit, Fl.ResultExpr);
    }
  }
  State.counters["programs_per_s"] = benchmark::Counter(
      static_cast<double>(kPrograms * State.iterations()),
      benchmark::Counter::kIsRate);
  State.counters["ctx_flows"] = static_cast<double>(CtxFlows);
}
BENCHMARK(BM_EbpfPipelineFlow)->UseRealTime();

/// All three analyses of every corpus program on one BatchSolver pool
/// — the `rasctool --ebpf-batch` / rascd shape.  Arg is the pool's
/// thread count.
void BM_EbpfBatchAllThree(benchmark::State &State) {
  std::vector<ebpf::Cfg> Gs = cfgs(corpus(kPrograms));
  SpecAutomaton Spec = ebpf::mapCheckSpec();
  for (auto _ : State) {
    struct Bundle {
      ebpf::PdmcLowering Pd;
      ebpf::DataflowLowering Df;
      ebpf::FlowLowering Fl;
      std::unique_ptr<RascChecker> Checker;
      std::unique_ptr<AnnotatedBitVectorAnalysis> Reg;
      std::unique_ptr<FlowAnalysis> Flow;
    };
    std::vector<std::unique_ptr<Bundle>> All;
    std::vector<BidirectionalSolver *> Ptrs;
    for (const ebpf::Cfg &G : Gs) {
      auto B = std::make_unique<Bundle>();
      B->Pd = ebpf::lowerToProgram(G);
      B->Df = ebpf::lowerToDataflow(G);
      B->Fl = ebpf::lowerToFlowProgram(G);
      B->Checker = std::make_unique<RascChecker>(*B->Pd.Prog, Spec);
      B->Reg = std::make_unique<AnnotatedBitVectorAnalysis>(*B->Df.Problem);
      B->Flow = std::make_unique<FlowAnalysis>(B->Fl.Prog, FlowMode::Primal);
      B->Checker->prepare();
      B->Reg->prepare(SolverOptions{});
      B->Flow->prepare(SolverOptions{});
      Ptrs.push_back(B->Checker->solver());
      Ptrs.push_back(B->Reg->solver());
      Ptrs.push_back(const_cast<BidirectionalSolver *>(&B->Flow->solver()));
      All.push_back(std::move(B));
    }
    BatchSolver::Options BO;
    BO.Threads = static_cast<unsigned>(State.range(0));
    BatchSolver Pool(BO);
    std::vector<BatchSolver::Result> Res = Pool.solveAll(Ptrs);
    for (const BatchSolver::Result &R : Res)
      if (R.St != BidirectionalSolver::Status::Solved)
        State.SkipWithError("batch solve did not converge");
    benchmark::DoNotOptimize(Res.size());
  }
  State.counters["programs_per_s"] = benchmark::Counter(
      static_cast<double>(kPrograms * State.iterations()),
      benchmark::Counter::kIsRate);
  State.counters["systems"] = static_cast<double>(3 * kPrograms);
}
BENCHMARK(BM_EbpfBatchAllThree)->Arg(1)->Arg(4)->UseRealTime();

} // namespace

BENCHMARK_MAIN();
