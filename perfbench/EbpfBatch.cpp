//===- perfbench/EbpfBatch.cpp - ebpf-batch workload ------------*- C++ -*-===//
//
// Part of the RASC project: regularly annotated set constraints.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The `rasctool --ebpf-batch` shape over a corpus whose prefix is the
/// checked-in golden programs (tests/data/ebpf/*.bpf) and whose rest
/// is seeded generateEbpf() output. One batch takes the next
/// BatchPrograms programs of the corpus: the map-check spec is compiled
/// once, then each program is decoded, turned into a CFG, lowered three
/// ways and its three analyses constructed and prepared, sequentially;
/// every system then goes on one BatchSolver of fixed width; then the
/// queries run per program. An op is one program's three verdicts; its
/// latency is its own sequential front-end time, plus the pool seconds
/// of its three solves, plus its query time.
///
/// Oracles, all outside the timed region: the golden disassembly for
/// the golden prefix, MopsChecker for the map-check verdicts,
/// IterativeBitVectorAnalysis for the uninitialized reads, and
/// certifyFixpoint on every flow fixpoint (whose context-flow verdict
/// must then repeat on every later visit of the program).
///
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "core/BatchSolver.h"
#include "core/Certifier.h"
#include "dataflow/BitVector.h"
#include "ebpf/Cfg.h"
#include "ebpf/Decode.h"
#include "ebpf/Lower.h"
#include "flow/Analysis.h"
#include "pdmc/Checker.h"
#include "progen/EbpfGen.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <thread>

namespace perfbench {

namespace {

using namespace rasc;
using Status = BidirectionalSolver::Status;

/// Programs per corpus pass and per batch.
constexpr size_t CorpusPrograms = 64;
constexpr size_t BatchPrograms = 16;

/// The measured loop runs at least this many ops even on a slow
/// machine, so that op_p90_ms has ten samples beyond it.
constexpr size_t MinMeasuredOps = 112;

struct Input {
  Input(std::string Name, std::vector<uint8_t> Bytes, std::string Golden)
      : Name(std::move(Name)), Bytes(std::move(Bytes)),
        Golden(std::move(Golden)) {}

  std::string Name;
  std::vector<uint8_t> Bytes;
  std::string Golden; ///< expected disassembly; empty when generated
  // Expected answers, filled by the oracles.
  uint32_t Insns = 0;
  std::vector<Violation> Violations;
  std::vector<ebpf::UninitRead> Uninit;
  int CtxFlow = -1; ///< -1 until the first certified fixpoint
};

std::string slurp(const std::filesystem::path &P) {
  std::ifstream In(P, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(In),
                     std::istreambuf_iterator<char>());
}

/// The golden prefix plus seeded generated programs of mixed shape.
std::vector<Input> makeCorpus(const Options &O) {
  namespace fs = std::filesystem;
  std::vector<Input> Out;
  std::vector<fs::path> Golden;
  std::error_code EC;
  for (const fs::directory_entry &E : fs::directory_iterator(O.GoldenDir, EC))
    if (E.path().extension() == ".bpf")
      Golden.push_back(E.path());
  std::sort(Golden.begin(), Golden.end());
  for (const fs::path &P : Golden) {
    std::string Bytes = slurp(P);
    Out.emplace_back(P.filename().string(),
                     std::vector<uint8_t>(Bytes.begin(), Bytes.end()),
                     slurp(fs::path(P).replace_extension(".golden")));
  }
  Rng R(O.Seed ^ 0xeb9f);
  for (size_t I = Out.size(); I < CorpusPrograms; ++I) {
    EbpfGenOptions G;
    G.Seed = R.next();
    G.MaxBlocks = 4 + static_cast<unsigned>(R.below(5));
    G.MaxBodyInsns = 3 + static_cast<unsigned>(R.below(4));
    Out.emplace_back("gen-" + std::to_string(I), generateEbpf(G), "");
  }
  return Out;
}

/// One program's analyses. Heap-pinned: the analyses hold references
/// into the lowerings.
struct Analyses {
  ebpf::Cfg G;
  ebpf::PdmcLowering Pd;
  ebpf::DataflowLowering Df;
  ebpf::FlowLowering Fl;
  std::unique_ptr<RascChecker> Checker;
  std::unique_ptr<AnnotatedBitVectorAnalysis> Reg;
  std::unique_ptr<FlowAnalysis> Flow;
  size_t Input = 0;
  uint32_t OpId = 0;
  double FrontS = 0;
  int32_t PdCtorSpan = -1, FlCtorSpan = -1;
};

/// Runs the oracles on every corpus program; failures are reported
/// against the run (a wrong golden is a wrong answer).
void runOracles(std::vector<Input> &Corpus, Report &R) {
  SpecAutomaton Spec = ebpf::mapCheckSpec();
  for (Input &In : Corpus) {
    Expected<ebpf::DecodedProgram> D = ebpf::decode(In.Bytes);
    if (!D) {
      R.fail(In.Name + ": decode rejected the program: " +
             D.error().render());
      continue;
    }
    if (!In.Golden.empty() && ebpf::dump(*D) != In.Golden)
      R.fail(In.Name + ": disassembly differs from the golden file");
    ebpf::Cfg G = ebpf::buildCfg(std::move(*D));
    In.Insns = G.Prog.numInsns();
    ebpf::PdmcLowering Pd = ebpf::lowerToProgram(G);
    In.Violations = MopsChecker(*Pd.Prog, Spec).check();
    ebpf::DataflowLowering Df = ebpf::lowerToDataflow(G);
    IterativeBitVectorAnalysis It(*Df.Problem);
    It.solve();
    for (const ebpf::DataflowLowering::Read &Rd : Df.Reads) {
      StmtId S = Df.InsnStmt[Rd.InsnIdx];
      if (!It.mustHold(S, Rd.Reg))
        In.Uninit.push_back({Rd.InsnIdx, Rd.Reg, !It.mayHold(S, Rd.Reg)});
    }
  }
}

struct Loop {
  std::vector<Input> &Corpus;
  Report &R;
  unsigned Width;
  size_t Next = 0; ///< corpus position of the next batch
  uint32_t NextOp = 0;
  Work FirstPass;
  double ProbeSeconds = 0;
  double PoolBusyS = 0, PoolCapacityS = 0;

  /// Runs one batch; appends op latencies to \p Lat and \returns the
  /// batch's wall seconds (probes and answer checks excluded).
  double batch(Tracer &T, std::vector<double> &Lat) {
    auto B0 = Clock::now();
    double Excluded = 0;
    SpecAutomaton Spec = ebpf::mapCheckSpec();
    SolverOptions Opts;
    Opts.Threads = 1; // the pool supplies the parallelism
    std::vector<std::unique_ptr<Analyses>> All;
    std::vector<BidirectionalSolver *> Ptrs;

    for (size_t K = 0; K != BatchPrograms; ++K) {
      size_t Idx = (Next + K) % Corpus.size();
      uint32_t OpId = NextOp++;
      ++R.Attempted;
      auto A = std::make_unique<Analyses>();
      A->Input = Idx;
      A->OpId = OpId;
      auto T0 = Clock::now();
      {
        ScopedSpan Root(T, "op", OpId);
        std::optional<ebpf::DecodedProgram> D;
        {
          ScopedSpan S(T, "ebpf.decode", OpId);
          Expected<ebpf::DecodedProgram> E = ebpf::decode(Corpus[Idx].Bytes);
          if (E)
            D = std::move(*E);
        }
        if (!D) {
          R.fail(Corpus[Idx].Name + ": decode failed");
          continue;
        }
        {
          ScopedSpan S(T, "ebpf.cfg", OpId);
          A->G = ebpf::buildCfg(std::move(*D));
        }
        {
          ScopedSpan S(T, "ebpf.lower", OpId);
          A->Pd = ebpf::lowerToProgram(A->G);
          A->Df = ebpf::lowerToDataflow(A->G);
          A->Fl = ebpf::lowerToFlowProgram(A->G);
        }
        {
          ScopedSpan S(T, "pdmc.generate", OpId);
          A->PdCtorSpan = S.index();
          A->Checker = std::make_unique<RascChecker>(*A->Pd.Prog, Spec);
          A->Checker->setSolverOptions(Opts);
        }
        {
          ScopedSpan S(T, "dataflow.generate", OpId);
          A->Reg = std::make_unique<AnnotatedBitVectorAnalysis>(*A->Df.Problem);
        }
        {
          ScopedSpan S(T, "flow.generate", OpId);
          A->FlCtorSpan = S.index();
          A->Flow = std::make_unique<FlowAnalysis>(A->Fl.Prog, FlowMode::Primal);
        }
        {
          ScopedSpan S(T, "pdmc.generate", OpId);
          A->Checker->prepare();
        }
        {
          ScopedSpan S(T, "dataflow.generate", OpId);
          A->Reg->prepare(Opts);
        }
        {
          ScopedSpan S(T, "flow.generate", OpId);
          A->Flow->prepare(Opts);
        }
      }
      A->FrontS = secondsSince(T0);
      if (T.on())
        Excluded += probe(T, *A, Spec);
      Ptrs.push_back(A->Checker->solver());
      Ptrs.push_back(A->Reg->solver());
      Ptrs.push_back(const_cast<BidirectionalSolver *>(&A->Flow->solver()));
      All.push_back(std::move(A));
    }
    Next = (Next + BatchPrograms) % Corpus.size();

    BatchSolver::Options BO;
    BO.Threads = Width;
    BatchSolver Pool(BO);
    // Stats before the pool runs: prepare() may already have ingested.
    std::vector<SolverStats> Before;
    for (BidirectionalSolver *S : Ptrs)
      Before.push_back(S->stats());
    auto S0 = Clock::now();
    std::vector<BatchSolver::Result> Res = Pool.solveAll(Ptrs);
    double SolveWall = secondsSince(S0);
    PoolCapacityS += SolveWall * Width;

    struct Answers {
      std::vector<Violation> V;
      std::vector<ebpf::UninitRead> U;
      bool Ctx = false;
      bool Solved = true;
      double Ms = 0;
      SolverStats St;      ///< cumulative, for the fingerprint
      double IngestS = 0;  ///< spent on the pool
      double ClosureS = 0; ///< spent on the pool
    };
    std::vector<Answers> Ans(All.size());
    for (size_t I = 0; I != All.size(); ++I) {
      Analyses &A = *All[I];
      Answers &X = Ans[I];
      double SolveS = 0;
      for (size_t S = 0; S != 3; ++S) {
        SolveS += Res[3 * I + S].Seconds;
        X.Solved &= Res[3 * I + S].St == Status::Solved;
        const SolverStats &St = Ptrs[3 * I + S]->stats();
        X.St += St;
        X.IngestS += St.IngestSeconds - Before[3 * I + S].IngestSeconds;
        X.ClosureS += St.ClosureSeconds - Before[3 * I + S].ClosureSeconds;
      }
      PoolBusyS += SolveS;
      auto Q0 = Clock::now();
      {
        ScopedSpan Root(T, "op", A.OpId);
        {
          ScopedSpan S(T, "query.pdmc", A.OpId);
          X.V = A.Checker->collectViolations();
        }
        {
          ScopedSpan S(T, "query.dataflow", A.OpId);
          A.Reg->finalize();
          X.U = ebpf::uninitReads(A.Df, *A.Reg);
        }
        {
          ScopedSpan S(T, "query.flow", A.OpId);
          X.Ctx = A.Flow->flowsPN(A.Fl.CtxLit, A.Fl.ResultExpr);
        }
      }
      X.Ms = (A.FrontS + SolveS + secondsSince(Q0)) * 1e3;
      if (T.on()) {
        int32_t Piece = T.derivedRoot(A.OpId, SolveS);
        int32_t B = T.derived("batch.solve", A.OpId, Piece, SolveS);
        T.derived("solver.ingest", A.OpId, B, X.IngestS);
        T.derived("solver.closure", A.OpId, B, X.ClosureS);
      }
    }
    double Wall = secondsSince(B0) - Excluded;

    // Answer checks, outside the timed region.
    for (size_t I = 0; I != All.size(); ++I)
      check(*All[I], Ans[I].V, Ans[I].U, Ans[I].Ctx, Ans[I].Solved,
            Ans[I].St);

    auto D0 = Clock::now();
    All.clear();
    Wall += secondsSince(D0);
    for (const Answers &X : Ans)
      Lat.push_back(X.Ms);
    return Wall;
  }

  /// The traced run's standalone probes of what the constructors do
  /// inside: the map-check monoid, the flow pair automaton and its
  /// monoid. \returns the seconds spent.
  double probe(Tracer &T, Analyses &A, const SpecAutomaton &Spec) {
    auto P0 = Clock::now();
    MonoidDomain PdMon(Spec.machine());
    double PdMonS = secondsSince(P0);
    auto P1 = Clock::now();
    Dfa Pair = buildPairAutomaton(A.Fl.Prog);
    double PairS = secondsSince(P1);
    auto P2 = Clock::now();
    MonoidDomain FlMon(std::move(Pair));
    double FlMonS = secondsSince(P2);
    T.derived("monoid.build", A.OpId, A.PdCtorSpan, PdMonS);
    T.derived("automata.dfa", A.OpId, A.FlCtorSpan, PairS);
    T.derived("monoid.build", A.OpId, A.FlCtorSpan, FlMonS);
    double S = secondsSince(P0);
    ProbeSeconds += S;
    return S;
  }

  void check(Analyses &A, const std::vector<Violation> &V,
             const std::vector<ebpf::UninitRead> &U, bool Ctx, bool Solved,
             const SolverStats &St) {
    Input &In = Corpus[A.Input];
    bool Ok = true;
    auto bad = [&](const std::string &Why) {
      if (Ok)
        R.fail(In.Name + ": " + Why);
      Ok = false;
    };
    if (!Solved)
      bad("a batch solve did not reach its fixpoint");
    if (A.G.Prog.numInsns() != In.Insns)
      bad("instruction count differs from the oracle decode");
    if (V != In.Violations)
      bad("map-check verdicts differ from MopsChecker");
    if (U != In.Uninit)
      bad("uninitialized reads differ from IterativeBitVectorAnalysis");
    CertificationReport Cert = certifyFixpoint(A.Flow->solver());
    if (!Cert.Ok)
      bad("flow fixpoint failed certification: " + Cert.summary());
    else if (In.CtxFlow < 0)
      In.CtxFlow = Ctx;
    else if (In.CtxFlow != static_cast<int>(Ctx))
      bad("context-flow verdict changed between visits");

    if (A.OpId < Corpus.size()) {
      Work &W = FirstPass;
      ++W.Ops;
      W.Insns += A.G.Prog.numInsns();
      W.DfaStates += A.Flow->domain().machine().numStates();
      W.Elements +=
          A.Checker->system().domain().size() + A.Flow->domain().size();
      W.Constraints += A.Checker->system().constraints().size() +
                       A.Reg->system().constraints().size() +
                       A.Flow->system().constraints().size();
      W.Edges += St.EdgesInserted;
      W.Compose += St.ComposeCalls;
      W.Dropped += St.EdgesDropped;
      W.Useless += St.UselessFiltered;
      W.Violations += V.size();
      W.Uninit += U.size();
      W.CtxFlows += Ctx;
    }
  }

  /// Runs whole batches until \p Budget seconds of real time passed
  /// and \p MinOps ops completed; \returns the timed wall seconds.
  /// With \p Windows set, each batch is one of its windows.
  double phase(double Budget, Tracer &T, std::vector<double> &Lat,
               Report *Windows = nullptr, size_t MinOps = 0) {
    auto Start = Clock::now();
    double Wall = 0;
    do {
      double W = batch(T, Lat);
      Wall += W;
      if (Windows) {
        Windows->OpWindow.resize(
            Lat.size(), static_cast<uint32_t>(Windows->WindowWallS.size()));
        Windows->WindowWallS.push_back(W);
      }
    } while (secondsSince(Start) < Budget || Lat.size() < MinOps);
    return Wall;
  }
};

} // namespace

int runEbpfBatch(const Options &O) {
  Report R;
  unsigned Width = std::max(1u, std::min(4u, std::thread::hardware_concurrency()));

  // Set-up: corpus generation plus one warm-up program through all
  // three analyses, five times.
  std::vector<double> SetupS;
  std::vector<Input> Corpus;
  for (int Rep = 0; Rep != 5; ++Rep) {
    auto T0 = Clock::now();
    Corpus = makeCorpus(O);
    Expected<ebpf::DecodedProgram> D = ebpf::decode(Corpus.back().Bytes);
    if (D) {
      ebpf::Cfg G = ebpf::buildCfg(std::move(*D));
      ebpf::FlowLowering Fl = ebpf::lowerToFlowProgram(G);
      FlowAnalysis Warm(Fl.Prog, FlowMode::Primal);
      Warm.flowsPN(Fl.CtxLit, Fl.ResultExpr);
    }
    SetupS.push_back(secondsSince(T0));
  }
  R.SetupSeconds = quantile(SetupS, 0.5);
  if (Corpus.front().Golden.empty()) {
    std::fprintf(stderr, "perfbench: no golden eBPF programs under %s\n",
                 O.GoldenDir.c_str());
    return 1;
  }

  auto OracleT0 = Clock::now();
  runOracles(Corpus, R);
  R.Notes.push_back("oracle: golden disassembly, MopsChecker and "
                    "IterativeBitVectorAnalysis on " +
                    std::to_string(Corpus.size()) + " programs in " +
                    std::to_string(secondsSince(OracleT0)) + " s");

  Loop L{Corpus, R, Width, 0, 0, {}, 0, 0, 0};
  Tracer Off(false);
  if (!O.Trace) {
    R.MeasureSeconds = L.phase(O.Seconds, Off, R.OpMs, &R, MinMeasuredOps);
  } else {
    std::vector<double> UntracedLat, TracedLat;
    double UntracedS = L.phase(0.3 * O.Seconds, Off, UntracedLat);
    Tracer T(true);
    double TracedS = L.phase(0.7 * O.Seconds, T, TracedLat);
    size_t TracedOps = TracedLat.size();
    addAttribution(R, attribute(T.spans()), TracedOps,
                   {"ebpf.decode", "ebpf.cfg", "ebpf.lower", "automata.dfa",
                    "monoid.build", "pdmc.generate", "dataflow.generate",
                    "flow.generate", "batch.solve", "solver.ingest",
                    "solver.closure", "query.pdmc", "query.dataflow",
                    "query.flow"});
    addTraceRates(R, UntracedLat.size(), UntracedS, TracedOps, TracedS,
                  L.ProbeSeconds);
    std::string Path = O.WorkDir + "/trace-ebpf-batch.json";
    if (writeTrace(Path, T.spans()))
      R.Notes.push_back("trace: " + Path);
  }
  R.Layers.push_back({"batch.utilization",
                      L.PoolCapacityS > 0 ? L.PoolBusyS / L.PoolCapacityS : 0,
                      "ratio"});

  const Work &W = L.FirstPass;
  W.addLayerCounts(R);
  if (W.Ops == Corpus.size())
    R.Fingerprint = {{"programs", W.Ops},
                     {"ebpf.insns", W.Insns},
                     {"monoid.elements", W.Elements},
                     {"solver.edges", W.Edges},
                     {"solver.compose_calls", W.Compose},
                     {"violations", W.Violations},
                     {"uninit_reads", W.Uninit},
                     {"ctx_flows", W.CtxFlows}};
  else
    R.Notes.push_back("fingerprint: incomplete, the run ended before one "
                      "pass over the corpus");
  R.PeakRssMb = selfPeakRssMb();
  R.Notes.push_back("ebpf-batch: " + std::to_string(Corpus.size()) +
                    "-program corpus, " + std::to_string(BatchPrograms) +
                    " programs per batch, BatchSolver width " +
                    std::to_string(Width));
  return printReport(O, R, O.Trace);
}

} // namespace perfbench
