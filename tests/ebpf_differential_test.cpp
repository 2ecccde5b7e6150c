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
///   * 50 generated programs x all three lowerings: two independent
///     builds reach identical semantic fixpoints;
///   * retracting one constraint after the solve (flag, then
///     resetToFresh() + solve() under the default options, cycle
///     elimination included) lands on the same fixpoint as a fresh
///     build with that constraint retracted before the solve, and both
///     pass the independent
///     Certifier (the acceptance gate: Certifier-clean fixpoints);
///   * pdmc verdicts on pinned bytecode match a hand-built reference
///     Program carrying the same event structure — the bytecode
///     front-end adds exactly nothing to the checker's semantics;
///   * over the golden and generated corpora, the per-instruction
///     program the pdmc and dataflow analyses share has the violations
///     of a block-head program and of MopsChecker.
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
  /// The statement program the pdmc and dataflow analyses share.
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
    P->Df = ebpf::lowerToDataflow(P->G);
    P->Checker = std::make_unique<RascChecker>(*P->Df.Prog, *P->Spec);
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
Fixpoint freshFixpoint(uint64_t Seed, App A, uint32_t Retract) {
  std::unique_ptr<Pipeline> P = buildPipeline(Seed, A);
  ConstraintSystem &CS = P->system(A);
  EXPECT_FALSE(CS.retract(Retract));
  BidirectionalSolver S(CS);
  S.solve();
  Fixpoint F = snapshot(S, CS, P->domain(A));
  if (S.status() == Status::Solved) {
    CertificationReport Rep = certifyFixpoint(S);
    EXPECT_TRUE(Rep.Ok) << Rep.summary();
  }
  return F;
}

//===----------------------------------------------------------------===//
// The matrix: 50 programs x 3 apps,
// solve -> snapshot -> retract -> snapshot-vs-fresh, all certified
//===----------------------------------------------------------------===//

class EbpfDifferential : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EbpfDifferential, RetractMatchesFreshAcrossConfigs) {
  const uint64_t Seed = GetParam();
  for (App A : AllApps) {
    SCOPED_TRACE(std::string(appName(A)) + ", seed " + std::to_string(Seed));
    // The reference fixpoint for this seed/app, from its own build.
    std::unique_ptr<Pipeline> Ref = buildPipeline(Seed, A);
    ConstraintSystem &RefCS = Ref->system(A);
    const uint32_t N = static_cast<uint32_t>(RefCS.constraints().size());
    ASSERT_GT(N, 0u);
    const uint32_t Retract = static_cast<uint32_t>(Seed % N);

    BidirectionalSolver RefS(RefCS);
    RefS.solve();
    const Fixpoint Expect = snapshot(RefS, RefCS, Ref->domain(A));

    std::unique_ptr<Pipeline> P = buildPipeline(Seed, A);
    ConstraintSystem &CS = P->system(A);
    ASSERT_EQ(CS.constraints().size(), N) << "lowering is not deterministic";

    BidirectionalSolver S(CS);
    Status St = S.solve();
    ASSERT_FALSE(BidirectionalSolver::isInterrupted(St));
    EXPECT_EQ(snapshot(S, CS, P->domain(A)), Expect)
        << "pre-retract fixpoint diverged";
    if (S.status() == Status::Solved) {
      CertificationReport Rep = certifyFixpoint(S);
      EXPECT_TRUE(Rep.Ok) << Rep.summary();
    }

    // One-constraint edit, re-solved from scratch, vs. a fresh build.
    ASSERT_FALSE(CS.retract(Retract));
    S.resetToFresh();
    ASSERT_FALSE(BidirectionalSolver::isInterrupted(S.solve()));
    EXPECT_EQ(snapshot(S, CS, P->domain(A)),
              freshFixpoint(Seed, A, Retract))
        << "post-retract fixpoint diverged from fresh";
    if (S.status() == Status::Solved) {
      CertificationReport Rep = certifyFixpoint(S);
      EXPECT_TRUE(Rep.Ok) << Rep.summary();
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
// Private domains: over the golden corpus, analyses alive together,
// each growing its own monoid, reach the same fixpoints and
// certifications as analyses built and solved one at a time
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
  // Dataflow runs on a GenKillDomain; the other two on monoids.
  for (App A : {App::Pdmc, App::Flow}) {
    SCOPED_TRACE(appName(A));

    // One analysis alive at a time.
    std::vector<Outcome> Private;
    for (const ebpf::Cfg &G : Corpus) {
      std::unique_ptr<Pipeline> P = buildPipeline(G, A);
      Private.push_back(solveAndCertify(*P, A));
    }

    // Every analysis alive at once. Fixpoints compare annotations by
    // their state tables, so they agree whatever ids each domain gave.
    std::vector<std::unique_ptr<Pipeline>> Live;
    for (const ebpf::Cfg &G : Corpus)
      Live.push_back(buildPipeline(G, A));
    for (size_t I = 0; I != Live.size(); ++I)
      EXPECT_EQ(solveAndCertify(*Live[I], A), Private[I])
          << "corpus program " << I;
  }
}

//===----------------------------------------------------------------===//
// The shared per-instruction program vs a block-head program and MOPS:
// over the golden corpus and perfbench-shaped generated programs,
// RascChecker reports the same violating instructions with the same
// event traces on both shapes, and MopsChecker the same instructions
//===----------------------------------------------------------------===//

/// A violation as its instruction index and event trace.
using InsnViolation = std::pair<uint32_t, std::vector<std::string>>;

/// The block-head shape of \p L's program over \p G: per block a head
/// Nop, then an Op per event instruction of the block in order; the
/// function entry leads to block 0's head and each block's last
/// statement to its successors' heads. \p InsnOf receives each Op's
/// instruction, by statement.
std::unique_ptr<Program> blockHeadProgram(const ebpf::Cfg &G,
                                          const ebpf::PdmcLowering &L,
                                          std::vector<uint32_t> &InsnOf) {
  auto P = std::make_unique<Program>();
  FuncId F = P->addFunction("ebpf");
  std::vector<StmtId> Head(G.numBlocks()), Tail(G.numBlocks());
  for (uint32_t B = 0; B != G.numBlocks(); ++B) {
    const ebpf::Block &Blk = G.Blocks[B];
    Head[B] = Tail[B] = P->addNop(F);
    for (uint32_t I = Blk.FirstInsn; I != Blk.FirstInsn + Blk.NumInsns;
         ++I) {
      const Stmt &St = L.Prog->stmt(L.InsnStmt[I]);
      if (St.Kind != Stmt::Op)
        continue;
      StmtId S = P->addOp(F, L.Prog->symbolName(St.OpSym));
      InsnOf.resize(S + 1, ~0u);
      InsnOf[S] = I;
      P->addEdge(Tail[B], S);
      Tail[B] = S;
    }
  }
  P->addEdge(P->entry(F), Head[0]);
  for (uint32_t B = 0; B != G.numBlocks(); ++B)
    for (uint32_t Succ : G.Blocks[B].Succs)
      P->addEdge(Tail[B], Head[Succ]);
  P->finalize();
  return P;
}

TEST(EbpfPdmcReference, SharedProgramMatchesBlockHeadsAndMops) {
  std::vector<ebpf::Cfg> Corpus = goldenCorpus();
  ASSERT_GE(Corpus.size(), 7u);
  // perfbench's generated shape: 4-8 blocks of 3-6 body instructions.
  for (uint64_t Seed = 1; Seed <= 96; ++Seed) {
    EbpfGenOptions O;
    O.Seed = Seed;
    O.MaxBlocks = 4 + static_cast<unsigned>(Seed % 5);
    O.MaxBodyInsns = 3 + static_cast<unsigned>(Seed % 4);
    Expected<ebpf::DecodedProgram> D = ebpf::decode(generateEbpf(O));
    ASSERT_TRUE(D) << D.error().render();
    Corpus.push_back(ebpf::buildCfg(std::move(*D)));
  }
  SpecAutomaton Spec = mapCheckSpec();
  size_t Violating = 0;
  for (size_t K = 0; K != Corpus.size(); ++K) {
    SCOPED_TRACE("corpus program " + std::to_string(K));
    const ebpf::Cfg &G = Corpus[K];
    PdmcLowering L = lowerToProgram(G);
    auto insnOf = [&](StmtId S) {
      const SourceTag &T = L.Prog->stmt(S).Tag;
      EXPECT_EQ(T.Kind, SourceTag::Insn);
      return T.Index;
    };
    std::vector<InsnViolation> Got;
    for (const Violation &V : RascChecker(*L.Prog, Spec).check())
      Got.emplace_back(insnOf(V.Where), V.EventTrace);

    std::vector<uint32_t> InsnOf;
    std::unique_ptr<Program> Ref = blockHeadProgram(G, L, InsnOf);
    std::vector<InsnViolation> Want;
    for (const Violation &V : RascChecker(*Ref, Spec).check())
      Want.emplace_back(InsnOf[V.Where], V.EventTrace);

    std::vector<uint32_t> Mops;
    for (const Violation &V : MopsChecker(*L.Prog, Spec).check())
      Mops.push_back(insnOf(V.Where));

    std::sort(Got.begin(), Got.end());
    std::sort(Want.begin(), Want.end());
    std::sort(Mops.begin(), Mops.end());
    EXPECT_EQ(Got, Want);
    std::vector<uint32_t> GotInsns;
    for (const InsnViolation &V : Got)
      GotInsns.push_back(V.first);
    EXPECT_EQ(GotInsns, Mops);
    Violating += !Got.empty();
  }
  // The corpus exercises the property, not only clean programs.
  EXPECT_GT(Violating, 10u);
}

} // namespace
