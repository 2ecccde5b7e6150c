//===- tests/ebpf_differential_test.cpp - Bytecode pipeline -----*- C++ -*-===//
//
// Part of the RASC project: regularly annotated set constraints.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Differential testing of the decode -> CFG -> lowering -> solve
/// pipeline over generated eBPF programs. The lowering is
/// deterministic, so two independently built analyses of the same
/// bytecode must produce identical constraint systems — which lets a
/// fresh rebuild serve as the comparator for every solver
/// configuration:
///
///   * 50 generated programs x all three lowerings x both edge-dedup
///     backends: identical semantic fixpoints;
///   * incremental retraction of one constraint after the solve lands
///     on the same fixpoint as a fresh build with that constraint
///     retracted before the solve, and both pass the independent
///     Certifier (the acceptance gate: Certifier-clean fixpoints);
///   * pdmc verdicts on pinned bytecode match a hand-built reference
///     Program carrying the same event structure — the bytecode
///     front-end adds exactly nothing to the checker's semantics.
///
//===----------------------------------------------------------------------===//

#include "core/BatchSolver.h"
#include "core/Certifier.h"
#include "core/GroundTerm.h"
#include "dataflow/BitVector.h"
#include "ebpf/Cfg.h"
#include "ebpf/Decode.h"
#include "ebpf/Lower.h"
#include "flow/Analysis.h"
#include "pdmc/Checker.h"
#include "pdmc/Program.h"
#include "progen/EbpfGen.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <optional>
#include <string>
#include <vector>

using namespace rasc;

namespace {

using Status = BidirectionalSolver::Status;

//===----------------------------------------------------------------===//
// Semantic fixpoint fingerprint (annotation classes rendered to
// strings, orders sorted — identical to the incremental suite's)
//===----------------------------------------------------------------===//

struct Fixpoint {
  Status St{};
  std::vector<bool> Entails;
  std::vector<std::vector<std::string>> ConstAnns;
  std::vector<std::vector<std::string>> Succs;
  std::vector<std::vector<std::string>> Terms;

  bool operator==(const Fixpoint &) const = default;
};

Fixpoint snapshot(const BidirectionalSolver &S, const ConstraintSystem &CS,
                  const AnnotationDomain &D) {
  Fixpoint F;
  F.St = S.status();
  for (ConsId C = 0; C != CS.numConstructors(); ++C) {
    if (CS.constructor(C).Arity != 0)
      continue;
    for (VarId V = 0; V != CS.numVars(); ++V) {
      F.Entails.push_back(S.entailsConstant(C, V));
      std::vector<std::string> A;
      for (AnnId Ann : S.constantAnnotations(C, V))
        A.push_back(D.toString(Ann));
      std::sort(A.begin(), A.end());
      F.ConstAnns.push_back(std::move(A));
    }
  }
  for (VarId V = 0; V != CS.numVars(); ++V) {
    std::vector<std::string> Succ, Trm;
    for (auto [W, Ann] : S.varSuccessors(V))
      Succ.push_back("v" + std::to_string(W) + "^" + D.toString(Ann));
    for (const GroundTerm &T : S.groundTerms(V, 3, 2048))
      Trm.push_back(toString(CS, T));
    std::sort(Succ.begin(), Succ.end());
    std::sort(Trm.begin(), Trm.end());
    F.Succs.push_back(std::move(Succ));
    F.Terms.push_back(std::move(Trm));
  }
  return F;
}

/// Incremental-capable options: provenance on, cycle elimination off
/// so any constraint is a legal retraction target.
SolverOptions incrementalOptions(SolverOptions::DedupBackend Backend) {
  SolverOptions O;
  O.Dedup = Backend;
  O.Incremental = true;
  O.TrackProvenance = true;
  O.CycleElimination = false;
  return O;
}

//===----------------------------------------------------------------===//
// Deterministic pipeline builds
//===----------------------------------------------------------------===//

/// Small-but-nontrivial corpus knobs shared by every sub-suite; the
/// differential matrix multiplies the solve count by 24, so the
/// per-program systems stay modest.
ebpf::Cfg buildGraph(uint64_t Seed) {
  EbpfGenOptions O;
  O.Seed = Seed;
  O.MaxBlocks = 5;
  O.MaxBodyInsns = 4;
  Expected<ebpf::DecodedProgram> D = ebpf::decode(generateEbpf(O));
  EXPECT_TRUE(D) << (D ? "" : D.error().render());
  return ebpf::buildCfg(std::move(*D));
}

enum class App { Pdmc, Dataflow, Flow };
constexpr App AllApps[] = {App::Pdmc, App::Dataflow, App::Flow};

const char *appName(App A) {
  switch (A) {
  case App::Pdmc:
    return "pdmc";
  case App::Dataflow:
    return "dataflow";
  case App::Flow:
    return "flow";
  }
  return "?";
}

/// One fully built analysis, owning its lowering (the analyses hold
/// references into it). Built fresh per use: two builds of the same
/// seed produce identical constraint systems.
struct Pipeline {
  ebpf::Cfg G;
  std::optional<SpecAutomaton> Spec;
  ebpf::PdmcLowering Pd;
  ebpf::DataflowLowering Df;
  ebpf::FlowLowering Fl;
  std::unique_ptr<RascChecker> Checker;
  std::unique_ptr<AnnotatedBitVectorAnalysis> Reg;
  std::unique_ptr<FlowAnalysis> Flow;

  ConstraintSystem &system(App A) {
    switch (A) {
    case App::Pdmc:
      return const_cast<ConstraintSystem &>(Checker->system());
    case App::Dataflow:
      return const_cast<ConstraintSystem &>(Reg->system());
    case App::Flow:
      return const_cast<ConstraintSystem &>(Flow->system());
    }
    __builtin_unreachable();
  }

  const AnnotationDomain &domain(App A) {
    switch (A) {
    case App::Pdmc:
      return Checker->system().domain();
    case App::Dataflow:
      return Reg->system().domain();
    case App::Flow:
      return Flow->domain();
    }
    __builtin_unreachable();
  }
};

std::unique_ptr<Pipeline> buildPipeline(ebpf::Cfg G, App A) {
  auto P = std::make_unique<Pipeline>();
  P->G = std::move(G);
  switch (A) {
  case App::Pdmc:
    P->Spec.emplace(ebpf::mapCheckSpec());
    P->Pd = ebpf::lowerToProgram(P->G);
    P->Checker = std::make_unique<RascChecker>(*P->Pd.Prog, *P->Spec);
    P->Checker->prepare(); // builds the system, no solve
    break;
  case App::Dataflow:
    P->Df = ebpf::lowerToDataflow(P->G);
    P->Reg = std::make_unique<AnnotatedBitVectorAnalysis>(*P->Df.Problem);
    P->Reg->prepare();
    break;
  case App::Flow:
    P->Fl = ebpf::lowerToFlowProgram(P->G);
    P->Flow = std::make_unique<FlowAnalysis>(P->Fl.Prog, FlowMode::Primal);
    break;
  }
  return P;
}

std::unique_ptr<Pipeline> buildPipeline(uint64_t Seed, App A) {
  return buildPipeline(buildGraph(Seed), A);
}

/// Fresh comparator: rebuild the pipeline from bytecode, retract
/// \p Retract before the first solve, solve once.
Fixpoint freshFixpoint(uint64_t Seed, App A, uint32_t Retract,
                       SolverOptions O) {
  std::unique_ptr<Pipeline> P = buildPipeline(Seed, A);
  ConstraintSystem &CS = P->system(A);
  EXPECT_FALSE(CS.retract(Retract));
  BidirectionalSolver S(CS, O);
  S.solve();
  Fixpoint F = snapshot(S, CS, P->domain(A));
  if (S.status() == Status::Solved) {
    CertificationReport Rep = certifyFixpoint(S);
    EXPECT_TRUE(Rep.Ok) << Rep.summary();
  }
  return F;
}

//===----------------------------------------------------------------===//
// The matrix: 50 programs x 3 apps x 2 backends,
// solve -> snapshot -> retract -> snapshot-vs-fresh, all certified
//===----------------------------------------------------------------===//

class EbpfDifferential : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EbpfDifferential, RetractMatchesFreshAcrossConfigs) {
  const uint64_t Seed = GetParam();
  for (App A : AllApps) {
    // The reference fixpoint for this seed/app: Bitset dedup.
    std::unique_ptr<Pipeline> Ref = buildPipeline(Seed, A);
    ConstraintSystem &RefCS = Ref->system(A);
    const uint32_t N =
        static_cast<uint32_t>(RefCS.constraints().size());
    ASSERT_GT(N, 0u);
    const uint32_t Retract = static_cast<uint32_t>(Seed % N);

    SolverOptions RefO =
        incrementalOptions(SolverOptions::DedupBackend::Bitset);
    BidirectionalSolver RefS(RefCS, RefO);
    RefS.solve();
    const Fixpoint Expect = snapshot(RefS, RefCS, Ref->domain(A));

    for (SolverOptions::DedupBackend Backend :
         {SolverOptions::DedupBackend::Bitset,
          SolverOptions::DedupBackend::FlatSet}) {
      SCOPED_TRACE(std::string(appName(A)) + ", seed " +
                   std::to_string(Seed) + ", backend " +
                   (Backend == SolverOptions::DedupBackend::Bitset
                        ? "bitset"
                        : "flatset"));
      SolverOptions O = incrementalOptions(Backend);
      std::unique_ptr<Pipeline> P = buildPipeline(Seed, A);
      ConstraintSystem &CS = P->system(A);
      ASSERT_EQ(CS.constraints().size(), N)
          << "lowering is not deterministic";

      BidirectionalSolver S(CS, O);
      Status St = S.solve();
      ASSERT_FALSE(BidirectionalSolver::isInterrupted(St));
      EXPECT_EQ(snapshot(S, CS, P->domain(A)), Expect)
          << "pre-retract fixpoint diverged";
      if (S.status() == Status::Solved) {
        CertificationReport Rep = certifyFixpoint(S);
        EXPECT_TRUE(Rep.Ok) << Rep.summary();
      }

      // One-constraint incremental edit vs. a fresh build.
      ASSERT_FALSE(CS.retract(Retract));
      Expected<Status> RS = S.retract(Retract);
      ASSERT_TRUE(RS) << RS.error().render();
      ASSERT_FALSE(BidirectionalSolver::isInterrupted(*RS));
      EXPECT_EQ(snapshot(S, CS, P->domain(A)),
                freshFixpoint(Seed, A, Retract, O))
          << "post-retract fixpoint diverged from fresh";
      if (S.status() == Status::Solved) {
        CertificationReport Rep = certifyFixpoint(S);
        EXPECT_TRUE(Rep.Ok) << Rep.summary();
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EbpfDifferential,
                         ::testing::Range(uint64_t(1), uint64_t(51)));

//===----------------------------------------------------------------===//
// pdmc verdicts vs a hand-built reference on pinned bytecode
//===----------------------------------------------------------------===//

using namespace rasc::ebpf;

/// Checks one pinned instruction sequence against a reference Program
/// hand-assembled from the event names the lowering should produce:
/// both must yield the same number of violations with the same event
/// traces.
void checkAgainstReference(
    const std::vector<Insn> &Insns,
    const std::vector<std::vector<std::string>> &BlockEvents,
    const std::vector<std::vector<size_t>> &BlockSuccs,
    size_t ExpectViolations, const std::string &Ctx) {
  SCOPED_TRACE(Ctx);
  // Bytecode side.
  Expected<DecodedProgram> D = decode(encode(Insns));
  ASSERT_TRUE(D) << D.error().render();
  Cfg G = buildCfg(std::move(*D));
  PdmcLowering L = lowerToProgram(G);
  SpecAutomaton Spec = mapCheckSpec();
  RascChecker Bytecode(*L.Prog, Spec);
  std::vector<Violation> Got = Bytecode.check();

  // Reference side: one function, one statement chain per block.
  Program Ref;
  FuncId F = Ref.addFunction("ref");
  std::vector<StmtId> Head(BlockEvents.size()), Tail(BlockEvents.size());
  for (size_t B = 0; B != BlockEvents.size(); ++B) {
    StmtId Prev = Ref.addNop(F);
    Head[B] = Prev;
    for (const std::string &Ev : BlockEvents[B]) {
      StmtId S = Ref.addOp(F, Ev);
      Ref.addEdge(Prev, S);
      Prev = S;
    }
    Tail[B] = Prev;
  }
  Ref.addEdge(Ref.entry(F), Head[0]);
  for (size_t B = 0; B != BlockSuccs.size(); ++B) {
    if (BlockSuccs[B].empty())
      Ref.addEdge(Tail[B], Ref.exit(F));
    for (size_t S : BlockSuccs[B])
      Ref.addEdge(Tail[B], Head[S]);
  }
  Ref.finalize();
  RascChecker Reference(Ref, Spec);
  std::vector<Violation> Want = Reference.check();

  EXPECT_EQ(Got.size(), ExpectViolations);
  ASSERT_EQ(Got.size(), Want.size());
  std::vector<std::vector<std::string>> GotTraces, WantTraces;
  for (const Violation &V : Got)
    GotTraces.push_back(V.EventTrace);
  for (const Violation &V : Want)
    WantTraces.push_back(V.EventTrace);
  std::sort(GotTraces.begin(), GotTraces.end());
  std::sort(WantTraces.begin(), WantTraces.end());
  EXPECT_EQ(GotTraces, WantTraces);
}

TEST(EbpfPdmcReference, UncheckedDereference) {
  checkAgainstReference(
      {mkCall(HelperMapLookup), mkLoad(MemSize::Dw, 1, 0, 0), mkExit()},
      {{"lookup", "deref"}}, {{}}, 1, "lookup; deref");
}

TEST(EbpfPdmcReference, CheckedDereference) {
  // 0: call 1
  // 1: if r0 == 0 goto +1   (check; taken -> exit block)
  // 2: r1 = *(u64*)(r0+0)   (deref on the checked path only)
  // 3: exit
  checkAgainstReference(
      {mkCall(HelperMapLookup), mkJmpImm(JmpOp::Jeq, 0, 0, 1),
       mkLoad(MemSize::Dw, 1, 0, 0), mkExit()},
      {{"lookup", "check"}, {"deref"}, {}}, {{1, 2}, {2}, {}}, 0,
      "lookup; check; branch deref/exit");
}

TEST(EbpfPdmcReference, HelperResetsTheAutomaton) {
  // A non-lookup helper call between lookup and deref returns the
  // automaton to Start: no violation.
  checkAgainstReference(
      {mkCall(HelperMapLookup), mkCall(7), mkLoad(MemSize::Dw, 1, 0, 0),
       mkExit()},
      {{"lookup", "helper", "deref"}}, {{}}, 0, "lookup; helper; deref");
}

TEST(EbpfPdmcReference, DerefOnOnlyOneBranchStillViolates) {
  // The check guards nothing: both outcomes fall into the deref
  // block... except the taken edge skips it. Unchecked-deref on the
  // fall-through path only: the lowering must still flag it, because
  // the fall-through carries Unchecked straight into the deref.
  // 0: call 1
  // 1: if r1 != 0 goto +1   (NOT a null check: dst is r1, not r0)
  // 2: r2 = *(u64*)(r0+0)
  // 3: exit
  checkAgainstReference(
      {mkCall(HelperMapLookup), mkJmpImm(JmpOp::Jne, 1, 0, 1),
       mkLoad(MemSize::Dw, 2, 0, 0), mkExit()},
      {{"lookup"}, {"deref"}, {}}, {{1, 2}, {2}, {}}, 1,
      "lookup; non-check branch; deref");
}

TEST(EbpfPdmcReference, LoopCarriesUncheckedState) {
  // A loop whose back edge re-enters the deref block: still exactly
  // one violating statement (the deref), found through the cycle.
  // 0: call 1
  // 1: r2 = *(u64*)(r0+8)
  // 2: if r2 == 0 goto -2    (back to the deref)
  // 3: exit
  checkAgainstReference(
      {mkCall(HelperMapLookup), mkLoad(MemSize::Dw, 2, 0, 8),
       mkJmpImm(JmpOp::Jeq, 2, 0, -2), mkExit()},
      {{"lookup"}, {"deref"}, {}}, {{1}, {2, 1}, {}}, 1,
      "lookup; loop{deref}");
}

//===----------------------------------------------------------------===//
// Batch pool: the rasctool --ebpf-batch path in miniature — many
// programs, three systems each, one shared pool, then every verdict
// must match the per-program sequential run
//===----------------------------------------------------------------===//

TEST(EbpfBatch, PooledSolvesMatchSequential) {
  constexpr uint64_t Seeds[] = {3, 7, 11, 19, 23, 31};
  SolverOptions O;

  struct Entry {
    std::unique_ptr<Pipeline> P;
    App A;
    uint64_t Seed;
  };
  std::vector<Entry> Entries;
  std::vector<BidirectionalSolver *> Solvers;
  std::vector<std::unique_ptr<BidirectionalSolver>> Owned;
  for (uint64_t Seed : Seeds) {
    for (App A : AllApps) {
      Entries.push_back({buildPipeline(Seed, A), A, Seed});
      Owned.push_back(std::make_unique<BidirectionalSolver>(
          Entries.back().P->system(A), O));
      Solvers.push_back(Owned.back().get());
    }
  }
  BatchSolver::Options BO;
  BO.Threads = 4;
  BatchSolver Pool(BO);
  std::vector<BatchSolver::Result> Res = Pool.solveAll(Solvers);
  ASSERT_EQ(Res.size(), Entries.size());
  for (size_t I = 0; I != Entries.size(); ++I) {
    SCOPED_TRACE(std::string(appName(Entries[I].A)) + ", seed " +
                 std::to_string(Entries[I].Seed));
    EXPECT_EQ(Res[I].St, Status::Solved);
    // Sequential comparator.
    std::unique_ptr<Pipeline> Q =
        buildPipeline(Entries[I].Seed, Entries[I].A);
    BidirectionalSolver SeqS(Q->system(Entries[I].A), O);
    SeqS.solve();
    EXPECT_EQ(snapshot(*Owned[I], Entries[I].P->system(Entries[I].A),
                       Entries[I].P->domain(Entries[I].A)),
              snapshot(SeqS, Q->system(Entries[I].A),
                       Q->domain(Entries[I].A)));
  }
}

//===----------------------------------------------------------------===//
// Interned domains: over the golden corpus, analyses that share one
// monoid reach the same fixpoints and certifications as analyses that
// each built their own
//===----------------------------------------------------------------===//

std::vector<ebpf::Cfg> goldenCorpus() {
  std::vector<std::filesystem::path> Files;
  for (const auto &E : std::filesystem::directory_iterator(
           std::string(RASC_TEST_DATA_DIR) + "/ebpf"))
    if (E.path().extension() == ".bpf")
      Files.push_back(E.path());
  std::sort(Files.begin(), Files.end());
  std::vector<ebpf::Cfg> Out;
  for (const std::filesystem::path &F : Files) {
    std::ifstream In(F, std::ios::binary);
    std::string Bytes((std::istreambuf_iterator<char>(In)),
                      std::istreambuf_iterator<char>());
    Expected<ebpf::DecodedProgram> D = ebpf::decode(
        {reinterpret_cast<const uint8_t *>(Bytes.data()), Bytes.size()});
    EXPECT_TRUE(D) << F << ": " << (D ? "" : D.error().render());
    if (D)
      Out.push_back(ebpf::buildCfg(std::move(*D)));
  }
  return Out;
}

struct Outcome {
  Fixpoint F;
  std::string Certification;

  bool operator==(const Outcome &) const = default;
};

Outcome solveAndCertify(Pipeline &P, App A) {
  ConstraintSystem &CS = P.system(A);
  BidirectionalSolver S(CS);
  S.solve();
  CertificationReport Rep = certifyFixpoint(S);
  EXPECT_TRUE(Rep.Ok) << Rep.summary();
  return {snapshot(S, CS, P.domain(A)), Rep.summary()};
}

TEST(EbpfSharedDomain, CorpusFixpointsMatchPrivateBuilds) {
  const std::vector<ebpf::Cfg> Corpus = goldenCorpus();
  ASSERT_GE(Corpus.size(), 7u);
  // Dataflow runs on a GenKillDomain, which is never shared.
  for (App A : {App::Pdmc, App::Flow}) {
    SCOPED_TRACE(appName(A));
    const size_t Listed = MonoidDomain::internedCount();

    // One analysis alive at a time: each builds its own monoid.
    std::vector<Outcome> Private;
    for (const ebpf::Cfg &G : Corpus) {
      std::unique_ptr<Pipeline> P = buildPipeline(G, A);
      EXPECT_EQ(MonoidDomain::internedCount(), Listed + 1);
      Private.push_back(solveAndCertify(*P, A));
    }
    EXPECT_EQ(MonoidDomain::internedCount(), Listed);

    // Every analysis alive at once: one monoid, built by the first.
    std::vector<std::unique_ptr<Pipeline>> Live;
    for (const ebpf::Cfg &G : Corpus)
      Live.push_back(buildPipeline(G, A));
    EXPECT_EQ(MonoidDomain::internedCount(), Listed + 1);
    for (size_t I = 0; I != Live.size(); ++I)
      EXPECT_EQ(solveAndCertify(*Live[I], A), Private[I])
          << "corpus program " << I;
  }
}

} // namespace
