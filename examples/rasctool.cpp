//===- examples/rasctool.cpp - Constraint file runner -----------*- C++ -*-===//
//
// Part of the RASC project: regularly annotated set constraints.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small command-line driver for textual constraint problems:
///
///   rasctool [options] file.rasc   solve the file and answer its queries
///   rasctool [options] --batch dir solve every .rasc file in dir
///   rasctool [options]             run the embedded demo (Example 2.4)
///
/// eBPF bytecode front-end (DESIGN.md §13):
///
///   rasctool --ebpf FILE       decode raw eBPF bytecode, build the
///                              CFG, and run all three analyses on it
///                              (map-check typestate, register
///                              init dataflow, context label flow)
///   rasctool --ebpf-batch DIR  the same for every .bpf file under
///                              DIR, all constraint systems solved
///                              concurrently on one BatchSolver pool
///
/// Both honour --certify; a malformed input is reported as the
/// decoder's structured diagnostic (byte offset and slot) and exits 1.
///
/// Options (resource governance; see DESIGN.md sections 7 and 8):
///
///   --max-edges N    stop after N inserted edges (0 = unlimited)
///   --step-budget N  stop after N compose steps (0 = unlimited)
///   --deadline S     wall-clock budget in seconds (0 = none);
///                    in batch mode this is shared by the whole batch
///   --threads N      solve pool width for --batch and --ebpf-batch
///                    (0 = hardware threads); a usage error without
///                    either. Each solve itself is sequential.
///   --batch DIR      solve every .rasc file under DIR concurrently on
///                    one SolvePool, then print per-system status and
///                    the aggregate solver statistics
///   --no-resume      report an interrupted solve instead of resuming
///   --explain        on inconsistency, print a derivation witness
///   --retract N      after the solve reaches a fixpoint, withdraw
///                    constraint N (0-based ingestion order) and
///                    re-solve incrementally (DESIGN.md section 11);
///                    repeatable, applied in order. Implies
///                    provenance + incremental indexes. Falls back to
///                    a fresh re-solve if the incremental
///                    preconditions fail (e.g. after cycle collapse).
///
/// Certification (DESIGN.md section 7):
///
///   --certify        independently re-verify the final closure
///                    against the resolution rules (core/Certifier.h)
///
/// Proof logging (DESIGN.md section 12):
///
///   --prove FILE     stream a machine-checkable derivation log to
///                    FILE while solving (SolverOptions::ProofLogPath).
///                    The log is self-describing — the rasccheck tool
///                    validates it without this binary, the solver, or
///                    the input file. Emission degrades, never aborts:
///                    if the log cannot be written (or a retraction
///                    invalidates already-emitted derivations) the
///                    solve continues and the abandonment reason is
///                    reported on stderr.
///   --check FILE     after the run, validate FILE with the embedded
///                    proof checker (the same verdict the standalone
///                    rasccheck binary would give). Combine with
///                    --prove FILE for a solve-then-verify round trip.
///
/// Observability (DESIGN.md section 9):
///
///   --trace FILE     record structured solver events and write a
///                    Chrome trace_event JSON to FILE on exit (load
///                    it at https://ui.perfetto.dev or chrome://tracing)
///   --metrics        print the metrics registry snapshot (counters,
///                    gauges, histograms) as JSON on exit
///   --progress N     print a one-line progress report to stderr
///                    every N seconds while solving (implies metrics
///                    collection for the gauges it reads)
///
/// An interrupted solve is resumed with the budgets lifted (unless
/// --no-resume), demonstrating the solver's resumability contract:
/// the second solve() continues from the persisted closure state and
/// reaches the same fixpoint a fresh unbudgeted run would.
///
/// Exit codes (scriptable; see statusExitCode in core/Solver.h):
/// solved=0, inconsistent=1, and with --no-resume the interrupt kind:
/// deadline=10, edge limit=11, step limit=12, memory limit=13,
/// cancelled=14. A failed --certify exits 21. A failed --check exits with
/// the checker verdict (check/Checker.h): invalid derivation=22,
/// malformed log=23, incomplete proof=25. Usage errors exit 1.
///
/// SIGINT/SIGTERM trip a cooperative cancel flag wired as every
/// solver's CancelFlag: the in-flight solve interrupts with Cancelled
/// at its next governance check instead of dying mid-write, and the
/// process exits 14. The input file is the only state a run keeps:
/// rerunning the same command solves it again from scratch.
///
/// See frontend/ConstraintParser.h for the file format.
///
//===----------------------------------------------------------------------===//

#include "check/Checker.h"
#include "core/BatchSolver.h"
#include "core/Certifier.h"
#include "core/Observe.h"
#include "dataflow/BitVector.h"
#include "ebpf/Cfg.h"
#include "ebpf/Decode.h"
#include "ebpf/Lower.h"
#include "flow/Analysis.h"
#include "frontend/ConstraintParser.h"
#include "pdmc/Checker.h"
#include "support/Trace.h"

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>

using namespace rasc;

namespace {

using Status = BidirectionalSolver::Status;

/// Set by SIGINT/SIGTERM and wired as every solver's CancelFlag; the
/// resume loops check it so a signal ends the run with the Cancelled
/// exit code instead of re-solving forever against a set flag.
std::atomic<bool> InterruptRequested{false};

void requestInterrupt(int) {
  InterruptRequested.store(true, std::memory_order_relaxed);
}

const char *Demo = R"(# Example 2.4 (paper Section 2.4) over the 1-bit language.
language regex "(g | k)* g";

constant c;
constructor o 1;
var W X Y Z;

c <= [g] W;
o(W) <= [g] X;
X <= o(Y);
o(Y) <= Z;

query c in W;
query c in Y;
query c in Z;
query pn c in Z;
)";

const char *statusName(Status S) {
  switch (S) {
  case Status::Solved:
    return "solved";
  case Status::Inconsistent:
    return "inconsistent";
  case Status::EdgeLimit:
    return "edge limit";
  case Status::StepLimit:
    return "step limit";
  case Status::Deadline:
    return "deadline";
  case Status::MemoryLimit:
    return "memory limit";
  case Status::Cancelled:
    return "cancelled";
  }
  return "unknown";
}

struct CliOptions {
  SolverOptions Solver;
  unsigned Threads = 1;
  bool Resume = true;
  bool Explain = false;
  bool Certify = false;
  std::vector<uint32_t> Retract; // applied in order after the solve
  std::string CheckPath;         // --check: validate this proof log
};

/// Runs the standalone proof checker on \p Path and prints its
/// verdict; \returns the checker exit code (0/1 = valid proof).
int checkProof(const std::string &Path) {
  rasccheck::CheckOptions CO;
  CO.LogPath = Path;
  rasccheck::CheckResult R = rasccheck::checkProofLog(CO);
  std::fprintf(R.ok() ? stdout : stderr, "rasccheck: %s: %s\n",
               Path.c_str(), R.Message.c_str());
  return R.ExitCode;
}

/// Runs the independent certifier and prints its verdict; \returns
/// the process exit code (0 = certified).
int certify(const BidirectionalSolver &Solver, const char *Name) {
  CertificationReport Rep = certifyFixpoint(Solver);
  std::printf("%s: %s\n", Name, Rep.summary().c_str());
  if (Rep.Ok)
    return 0;
  for (const std::string &F : Rep.Failures)
    std::fprintf(stderr, "  %s\n", F.c_str());
  return ExitCodeCertifyFailed;
}

int run(const std::string &Source, const char *Name, CliOptions Cli) {
  Expected<ConstraintProgram> P = ConstraintProgram::parseEx(Source);
  if (!P) {
    std::fprintf(stderr, "%s: %s\n", Name, P.error().render().c_str());
    return 1;
  }

  const MonoidDomain &Dom = P->domain();
  std::printf("%s: %zu constraints, annotation language with %u "
              "states, |F_M^≡| = %zu\n",
              Name, P->system().constraints().size(),
              Dom.machine().numStates(), Dom.size());

  Cli.Solver.TrackProvenance |= Cli.Explain;
  if (!Cli.Retract.empty()) {
    // The retraction indexes must exist from the first solve.
    Cli.Solver.TrackProvenance = true;
    Cli.Solver.Incremental = true;
  }
  BidirectionalSolver Solver(P->system(), Cli.Solver);
  Status S = Solver.solve();
  while (BidirectionalSolver::isInterrupted(S)) {
    std::printf("interrupted (%s) after %llu edges, %llu compositions\n",
                statusName(S),
                static_cast<unsigned long long>(
                    Solver.stats().EdgesInserted),
                static_cast<unsigned long long>(
                    Solver.stats().ComposeCalls));
    if (!Cli.Resume)
      return statusExitCode(S);
    if (S == Status::Cancelled &&
        InterruptRequested.load(std::memory_order_relaxed)) {
      // A signal, not a budget: resuming would immediately re-cancel.
      std::printf("cancelled by signal\n");
      return statusExitCode(S);
    }
    std::printf("resuming with budgets lifted...\n");
    Solver.options().MaxEdges = 0;
    Solver.options().MaxComposeSteps = 0;
    Solver.options().DeadlineSeconds = 0;
    Solver.options().MaxMemoryBytes = 0;
    S = Solver.solve();
  }

  for (uint32_t Idx : Cli.Retract) {
    // Flag the constraint in the system first (retract() validates the
    // flag), then invalidate its derivation cone and re-close.
    std::optional<Diag> FlagDiag =
        P->addStatements("retract " + std::to_string(Idx) + ";", nullptr);
    if (FlagDiag) {
      std::fprintf(stderr, "%s: %s\n", Name, FlagDiag->render().c_str());
      return 1;
    }
    uint64_t RemovedBefore = Solver.stats().RetractedEdges;
    uint64_t RequeuedBefore = Solver.stats().RequeuedEdges;
    Expected<Status> RS = Solver.retract(Idx);
    if (RS) {
      S = *RS;
      std::printf("retracted constraint %u: removed %llu edges, "
                  "requeued %llu, now %s\n",
                  Idx,
                  static_cast<unsigned long long>(
                      Solver.stats().RetractedEdges - RemovedBefore),
                  static_cast<unsigned long long>(
                      Solver.stats().RequeuedEdges - RequeuedBefore),
                  statusName(S));
    } else {
      // E.g. cycle elimination collapsed variables: representatives
      // cannot be un-merged, so re-solve the edited system fresh.
      std::printf("retract %u: %s; re-solving from scratch\n", Idx,
                  RS.error().message().c_str());
      Solver.resetToFresh();
      S = Solver.solve();
    }
  }

  if (!Cli.Solver.ProofLogPath.empty())
    if (const std::optional<Diag> &D = Solver.lastProofDiag())
      std::fprintf(stderr, "%s: proof log abandoned: %s\n", Name,
                   D->render().c_str());

  const SolverStats &Stats = Solver.stats();
  std::printf("%s: %llu edges, %llu compositions, %llu function "
              "constraints%s\n\n",
              statusName(S),
              static_cast<unsigned long long>(Stats.EdgesInserted),
              static_cast<unsigned long long>(Stats.ComposeCalls),
              static_cast<unsigned long long>(Stats.FnVarConstraints),
              Stats.Resumes ? " (resumed)" : "");

  if (S == Status::Inconsistent && Cli.Explain &&
      !Solver.conflicts().empty()) {
    std::printf("why inconsistent:\n");
    Expected<std::vector<std::string>> W = Solver.conflictWitnessEx(0);
    if (W)
      for (const std::string &Line : *W)
        std::printf("  %s\n", Line.c_str());
    else
      std::printf("  %s\n", W.error().message().c_str());
    std::printf("\n");
  }

  for (const ConstraintProgram::Answer &A : P->answer(Solver))
    std::printf("  %-40s %s\n", A.Q->Text.c_str(),
                A.Holds ? "holds" : "does not hold");

  if (Cli.Certify)
    if (int Exit = certify(Solver, Name))
      return Exit;
  if (!Cli.CheckPath.empty())
    if (int Exit = checkProof(Cli.CheckPath);
        Exit >= rasccheck::ExitInvalidDerivation)
      return Exit;
  return statusExitCode(S);
}

/// Batch mode: every .rasc file under \p Dir becomes one solver task
/// on one pool; the --deadline budget is shared by the whole batch.
int runBatch(const std::string &Dir, CliOptions Cli) {
  namespace fs = std::filesystem;
  std::vector<std::string> Paths;
  std::error_code EC;
  for (const fs::directory_entry &E : fs::directory_iterator(Dir, EC))
    if (E.is_regular_file() && E.path().extension() == ".rasc")
      Paths.push_back(E.path().string());
  if (EC) {
    std::fprintf(stderr, "cannot read %s: %s\n", Dir.c_str(),
                 EC.message().c_str());
    return 1;
  }
  if (Paths.empty()) {
    std::fprintf(stderr, "no .rasc files under %s\n", Dir.c_str());
    return 1;
  }
  std::sort(Paths.begin(), Paths.end());

  std::vector<ConstraintProgram> Programs;
  for (const std::string &Path : Paths) {
    std::ifstream File(Path);
    if (!File) {
      std::fprintf(stderr, "cannot open %s\n", Path.c_str());
      return 1;
    }
    std::ostringstream SS;
    SS << File.rdbuf();
    Expected<ConstraintProgram> P = ConstraintProgram::parseEx(SS.str());
    if (!P) {
      std::fprintf(stderr, "%s: %s\n", Path.c_str(),
                   P.error().render().c_str());
      return 1;
    }
    Programs.push_back(std::move(*P));
  }

  // One solver per system; the pool supplies the parallelism.
  std::vector<std::unique_ptr<BidirectionalSolver>> Solvers;
  std::vector<BidirectionalSolver *> Ptrs;
  for (ConstraintProgram &P : Programs) {
    Solvers.push_back(
        std::make_unique<BidirectionalSolver>(P.system(), Cli.Solver));
    Ptrs.push_back(Solvers.back().get());
  }

  BatchSolver::Options BO;
  BO.Threads = Cli.Threads;
  BO.DeadlineSeconds = Cli.Solver.DeadlineSeconds;
  BO.CancelFlag = &InterruptRequested;
  BatchSolver Batch(BO);
  std::printf("batch: %zu systems on %u threads\n\n", Programs.size(),
              Batch.numThreads());
  std::vector<BatchSolver::Result> Results = Batch.solveAll(Ptrs);

  bool Interrupted = false;
  for (const BatchSolver::Result &R : Results)
    Interrupted |= BidirectionalSolver::isInterrupted(R.St);
  if (Interrupted && Cli.Resume &&
      !InterruptRequested.load(std::memory_order_relaxed)) {
    std::printf("interrupted tasks; resuming with budgets lifted...\n");
    for (std::unique_ptr<BidirectionalSolver> &S : Solvers) {
      S->options().MaxEdges = 0;
      S->options().MaxComposeSteps = 0;
      S->options().DeadlineSeconds = 0;
      S->options().MaxMemoryBytes = 0;
    }
    BO.DeadlineSeconds = 0;
    BatchSolver Resume(BO);
    Results = Resume.solveAll(Ptrs);
  }

  int Exit = 0;
  SolverStats Total;
  for (size_t I = 0; I != Programs.size(); ++I) {
    const SolverStats &St = Solvers[I]->stats();
    Total += St;
    std::printf("%s: %s, %llu edges, %llu compositions (%.3fs)\n",
                Paths[I].c_str(), statusName(Results[I].St),
                static_cast<unsigned long long>(St.EdgesInserted),
                static_cast<unsigned long long>(St.ComposeCalls),
                Results[I].Seconds);
    Exit = std::max(Exit, statusExitCode(Results[I].St));
    if (BidirectionalSolver::isInterrupted(Results[I].St))
      continue;
    for (const ConstraintProgram::Answer &A :
         Programs[I].answer(*Solvers[I]))
      std::printf("  %-40s %s\n", A.Q->Text.c_str(),
                  A.Holds ? "holds" : "does not hold");
    if (Cli.Certify)
      if (int CE = certify(*Solvers[I], Paths[I].c_str()))
        Exit = std::max(Exit, CE);
  }
  std::printf("\nbatch total: %llu edges, %llu compositions\n",
              static_cast<unsigned long long>(Total.EdgesInserted),
              static_cast<unsigned long long>(Total.ComposeCalls));
  return Exit;
}

//===----------------------------------------------------------------------===//
// eBPF bytecode front-end (--ebpf / --ebpf-batch)
//===----------------------------------------------------------------------===//

std::optional<std::vector<uint8_t>> readBytes(const std::string &Path) {
  std::ifstream File(Path, std::ios::binary);
  if (!File)
    return std::nullopt;
  return std::vector<uint8_t>((std::istreambuf_iterator<char>(File)),
                              std::istreambuf_iterator<char>());
}

/// One decoded program's three analyses. Heap-pinned: the analysis
/// objects hold references into the lowerings, so the whole bundle is
/// created in place and never moved.
struct EbpfAnalyses {
  ebpf::Cfg G;
  ebpf::PdmcLowering Pd;
  ebpf::DataflowLowering Df;
  ebpf::FlowLowering Fl;
  std::unique_ptr<RascChecker> Checker;
  std::unique_ptr<AnnotatedBitVectorAnalysis> Reg;
  std::unique_ptr<FlowAnalysis> Flow;
};

std::unique_ptr<EbpfAnalyses> makeEbpfAnalyses(ebpf::Cfg G,
                                               const SpecAutomaton &Spec,
                                               const SolverOptions &Opts) {
  auto A = std::make_unique<EbpfAnalyses>();
  A->G = std::move(G);
  A->Pd = ebpf::lowerToProgram(A->G);
  A->Df = ebpf::lowerToDataflow(A->G);
  A->Fl = ebpf::lowerToFlowProgram(A->G);
  A->Checker = std::make_unique<RascChecker>(*A->Pd.Prog, Spec);
  A->Checker->setSolverOptions(Opts);
  A->Reg = std::make_unique<AnnotatedBitVectorAnalysis>(*A->Df.Problem);
  A->Flow = std::make_unique<FlowAnalysis>(A->Fl.Prog, FlowMode::Primal);
  return A;
}

int runEbpf(const std::string &Path, CliOptions Cli) {
  std::optional<std::vector<uint8_t>> Bytes = readBytes(Path);
  if (!Bytes) {
    std::fprintf(stderr, "cannot open %s\n", Path.c_str());
    return 1;
  }
  Expected<ebpf::DecodedProgram> D = ebpf::decode(*Bytes);
  if (!D) {
    std::fprintf(stderr, "%s: %s\n", Path.c_str(),
                 D.error().render().c_str());
    return 1;
  }
  ebpf::Cfg G = ebpf::buildCfg(std::move(*D));
  std::printf("%s: %u instructions (%u slots), %u blocks, %u edges\n\n%s\n",
              Path.c_str(), G.Prog.numInsns(), G.Prog.numSlots(),
              G.numBlocks(), G.numEdges(), ebpf::dump(G.Prog).c_str());

  SolverOptions Opts = Cli.Solver;
  SpecAutomaton Spec = ebpf::mapCheckSpec();
  std::unique_ptr<EbpfAnalyses> A =
      makeEbpfAnalyses(std::move(G), Spec, Opts);

  std::vector<Violation> Violations = A->Checker->check();
  std::printf("map-check: %zu violation(s)\n", Violations.size());
  for (const Violation &V : Violations)
    std::printf("  unchecked dereference at %s\n",
                A->Pd.Prog->stmt(V.Where).Note.c_str());

  A->Reg->prepare(Opts);
  A->Reg->solve();
  std::vector<ebpf::UninitRead> Uninit = ebpf::uninitReads(A->Df, *A->Reg);
  std::printf("register init: %zu read(s) before initialization\n",
              Uninit.size());
  for (const ebpf::UninitRead &U : Uninit)
    std::printf("  r%u %s at %u: %s\n", U.Reg,
                U.Definite ? "never initialized" : "maybe uninitialized",
                A->G.Prog.SlotOf[U.InsnIdx],
                ebpf::toString(A->G.Prog.Insns[U.InsnIdx]).c_str());

  A->Flow->prepare(Opts);
  bool Ctx = A->Flow->flowsPN(A->Fl.CtxLit, A->Fl.ResultExpr);
  std::printf("label flow: context pointer (r1) %s to the return value\n",
              Ctx ? "flows" : "does not flow");

  if (Cli.Certify) {
    if (int E = certify(*A->Checker->solver(), "map-check"))
      return E;
    if (int E = certify(*A->Reg->solver(), "register init"))
      return E;
    if (int E = certify(A->Flow->solver(), "label flow"))
      return E;
  }
  return 0;
}

/// Batch mode: every .bpf file under \p Dir, the three constraint
/// systems per program all solved concurrently on one pool.
int runEbpfBatch(const std::string &Dir, CliOptions Cli) {
  namespace fs = std::filesystem;
  std::vector<std::string> Paths;
  std::error_code EC;
  for (const fs::directory_entry &E : fs::directory_iterator(Dir, EC))
    if (E.is_regular_file() && E.path().extension() == ".bpf")
      Paths.push_back(E.path().string());
  if (EC) {
    std::fprintf(stderr, "cannot read %s: %s\n", Dir.c_str(),
                 EC.message().c_str());
    return 1;
  }
  if (Paths.empty()) {
    std::fprintf(stderr, "no .bpf files under %s\n", Dir.c_str());
    return 1;
  }
  std::sort(Paths.begin(), Paths.end());

  int Exit = 0;
  SolverOptions Opts = Cli.Solver;
  SpecAutomaton Spec = ebpf::mapCheckSpec();
  std::vector<std::string> Kept;
  std::vector<std::unique_ptr<EbpfAnalyses>> All;
  for (const std::string &Path : Paths) {
    std::optional<std::vector<uint8_t>> Bytes = readBytes(Path);
    if (!Bytes) {
      std::fprintf(stderr, "cannot open %s\n", Path.c_str());
      Exit = std::max(Exit, 1);
      continue;
    }
    Expected<ebpf::DecodedProgram> D = ebpf::decode(*Bytes);
    if (!D) {
      std::fprintf(stderr, "%s: %s\n", Path.c_str(),
                   D.error().render().c_str());
      Exit = std::max(Exit, 1);
      continue;
    }
    Kept.push_back(Path);
    All.push_back(makeEbpfAnalyses(ebpf::buildCfg(std::move(*D)), Spec,
                                   Opts));
  }
  if (All.empty())
    return std::max(Exit, 1);

  std::vector<BidirectionalSolver *> Ptrs;
  for (std::unique_ptr<EbpfAnalyses> &A : All) {
    A->Checker->prepare();
    A->Reg->prepare(Opts);
    A->Flow->prepare(Opts);
    Ptrs.push_back(A->Checker->solver());
    Ptrs.push_back(A->Reg->solver());
    // FlowAnalysis re-solves lazily on the first query; handing its
    // solver to the pool just brings it to the fixpoint early.
    Ptrs.push_back(const_cast<BidirectionalSolver *>(&A->Flow->solver()));
  }

  BatchSolver::Options BO;
  BO.Threads = Cli.Threads;
  BO.DeadlineSeconds = Cli.Solver.DeadlineSeconds;
  BO.CancelFlag = &InterruptRequested;
  BatchSolver Batch(BO);
  std::printf("ebpf batch: %zu programs (%zu systems) on %u threads\n\n",
              All.size(), Ptrs.size(), Batch.numThreads());
  std::vector<BatchSolver::Result> Results = Batch.solveAll(Ptrs);

  size_t TotalInsns = 0, TotalViolations = 0, TotalUninit = 0,
         TotalCtxFlows = 0;
  for (size_t I = 0; I != All.size(); ++I) {
    EbpfAnalyses &A = *All[I];
    int FileExit = 0;
    for (size_t S = 0; S != 3; ++S)
      FileExit = std::max(FileExit, statusExitCode(Results[3 * I + S].St));
    Exit = std::max(Exit, FileExit);

    std::vector<Violation> Violations = A.Checker->collectViolations();
    A.Reg->finalize();
    std::vector<ebpf::UninitRead> Uninit = ebpf::uninitReads(A.Df, *A.Reg);
    bool Ctx = A.Flow->flowsPN(A.Fl.CtxLit, A.Fl.ResultExpr);
    TotalInsns += A.G.Prog.numInsns();
    TotalViolations += Violations.size();
    TotalUninit += Uninit.size();
    TotalCtxFlows += Ctx;
    std::printf("%s: %u insns, %u blocks; %zu map-check violation(s), "
                "%zu uninit read(s), ctx->ret %s\n",
                Kept[I].c_str(), A.G.Prog.numInsns(), A.G.numBlocks(),
                Violations.size(), Uninit.size(), Ctx ? "yes" : "no");
    if (Cli.Certify) {
      if (int E = certify(*A.Checker->solver(), Kept[I].c_str()))
        Exit = std::max(Exit, E);
      if (int E = certify(*A.Reg->solver(), Kept[I].c_str()))
        Exit = std::max(Exit, E);
      if (int E = certify(A.Flow->solver(), Kept[I].c_str()))
        Exit = std::max(Exit, E);
    }
  }
  std::printf("\nebpf batch total: %zu programs, %zu instructions, "
              "%zu violations, %zu uninit reads, %zu ctx-flows\n",
              All.size(), TotalInsns, TotalViolations, TotalUninit,
              TotalCtxFlows);
  return Exit;
}

} // namespace

int main(int Argc, char **Argv) {
  CliOptions Cli;
  const char *Path = nullptr;
  const char *BatchDir = nullptr;
  const char *EbpfPath = nullptr;
  const char *EbpfDir = nullptr;
  const char *TracePath = nullptr;
  bool Metrics = false;
  bool ThreadsGiven = false;
  for (int I = 1; I < Argc; ++I) {
    std::string_view Arg = Argv[I];
    auto numArg = [&](uint64_t &Out) {
      if (I + 1 >= Argc) {
        std::fprintf(stderr, "%s needs a value\n", Argv[I]);
        return false;
      }
      Out = std::strtoull(Argv[++I], nullptr, 10);
      return true;
    };
    if (Arg == "--max-edges") {
      if (!numArg(Cli.Solver.MaxEdges))
        return 1;
    } else if (Arg == "--step-budget") {
      if (!numArg(Cli.Solver.MaxComposeSteps))
        return 1;
    } else if (Arg == "--deadline") {
      if (I + 1 >= Argc) {
        std::fprintf(stderr, "--deadline needs a value\n");
        return 1;
      }
      Cli.Solver.DeadlineSeconds = std::strtod(Argv[++I], nullptr);
    } else if (Arg == "--threads") {
      uint64_t N = 0;
      if (!numArg(N))
        return 1;
      Cli.Threads = static_cast<unsigned>(N);
      ThreadsGiven = true;
    } else if (Arg == "--batch") {
      if (I + 1 >= Argc) {
        std::fprintf(stderr, "--batch needs a directory\n");
        return 1;
      }
      BatchDir = Argv[++I];
    } else if (Arg == "--ebpf") {
      if (I + 1 >= Argc) {
        std::fprintf(stderr, "--ebpf needs a file\n");
        return 1;
      }
      EbpfPath = Argv[++I];
    } else if (Arg == "--ebpf-batch") {
      if (I + 1 >= Argc) {
        std::fprintf(stderr, "--ebpf-batch needs a directory\n");
        return 1;
      }
      EbpfDir = Argv[++I];
    } else if (Arg == "--trace") {
      if (I + 1 >= Argc) {
        std::fprintf(stderr, "--trace needs a file\n");
        return 1;
      }
      TracePath = Argv[++I];
    } else if (Arg == "--metrics") {
      Metrics = true;
    } else if (Arg == "--progress") {
      uint64_t N = 0;
      if (!numArg(N))
        return 1;
      observe::setProgressEverySeconds(static_cast<unsigned>(N));
      observe::setMetricsEnabled(true);
    } else if (Arg == "--retract") {
      uint64_t N = 0;
      if (!numArg(N))
        return 1;
      Cli.Retract.push_back(static_cast<uint32_t>(N));
    } else if (Arg == "--prove") {
      if (I + 1 >= Argc) {
        std::fprintf(stderr, "--prove needs a file\n");
        return 1;
      }
      Cli.Solver.ProofLogPath = Argv[++I];
    } else if (Arg == "--check") {
      if (I + 1 >= Argc) {
        std::fprintf(stderr, "--check needs a file\n");
        return 1;
      }
      Cli.CheckPath = Argv[++I];
    } else if (Arg == "--certify") {
      Cli.Certify = true;
    } else if (Arg == "--no-resume") {
      Cli.Resume = false;
    } else if (Arg == "--explain") {
      Cli.Explain = true;
    } else if (!Arg.empty() && Arg[0] == '-') {
      std::fprintf(stderr, "unknown option %s\n", Argv[I]);
      return 1;
    } else {
      Path = Argv[I];
    }
  }

  if (ThreadsGiven && !BatchDir && !EbpfDir) {
    // A single solve is sequential; only the batch pools have a width.
    std::fprintf(stderr, "--threads sizes the solve pool of --batch or "
                         "--ebpf-batch; give one of them\n");
    return 1;
  }

  if (BatchDir &&
      (!Cli.Solver.ProofLogPath.empty() || !Cli.CheckPath.empty())) {
    // One log path cannot serve a pool of solvers writing concurrently.
    std::fprintf(stderr,
                 "--prove/--check apply to a single system, not --batch\n");
    return 1;
  }

  // Cooperative cancellation: a signal interrupts the solve at its
  // next governance check (Status::Cancelled, exit 14), letting the
  // trace/metrics epilogues still run.
  std::signal(SIGINT, requestInterrupt);
  std::signal(SIGTERM, requestInterrupt);
  Cli.Solver.CancelFlag = &InterruptRequested;

  if (TracePath)
    trace::setEnabled(true);
  if (Metrics)
    observe::setMetricsEnabled(true);

  int Exit;
  if (EbpfPath) {
    Exit = runEbpf(EbpfPath, Cli);
  } else if (EbpfDir) {
    Exit = runEbpfBatch(EbpfDir, Cli);
  } else if (BatchDir) {
    Exit = runBatch(BatchDir, Cli);
  } else if (!Path) {
    std::printf("(no input file; running the embedded Example 2.4 "
                "demo)\n\n");
    Exit = run(Demo, "demo", Cli);
  } else {
    std::ifstream File(Path);
    if (!File) {
      std::fprintf(stderr, "cannot open %s\n", Path);
      return 1;
    }
    std::ostringstream SS;
    SS << File.rdbuf();
    Exit = run(SS.str(), Path, Cli);
  }

  if (TracePath) {
    trace::setEnabled(false);
    std::string Err;
    if (!trace::writeChromeJson(TracePath, &Err)) {
      std::fprintf(stderr, "cannot write trace: %s\n", Err.c_str());
      Exit = std::max(Exit, 1);
    } else {
      std::fprintf(stderr, "wrote %llu trace events to %s (%llu dropped)\n",
                   static_cast<unsigned long long>(trace::eventCount()),
                   TracePath,
                   static_cast<unsigned long long>(trace::droppedCount()));
    }
  }
  if (Metrics)
    std::printf("%s\n",
                MetricsRegistry::global().snapshot().toJson().c_str());
  return Exit;
}
