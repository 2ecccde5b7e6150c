//===- tests/program_encoding_test.cpp - CSR program, encoder --*- C++ -*-===//
//
// Part of the RASC project: regularly annotated set constraints.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Program's CSR successor lists (succs() keeps addEdge() order;
/// finalize() routes dangling statements to their function's exit and
/// changes nothing when called again), and encodeProgram held to the
/// reference encoder of EncodeReference.h: identical statement
/// variables and identical constraint lists, order included, on
/// generated packages, generated programs and the eBPF corpus, under
/// both the pdmc annotations and the dataflow transfer functions.
///
//===----------------------------------------------------------------------===//

#include "EncodeReference.h"

#include "automata/Monoid.h"
#include "core/SubstEnv.h"
#include "dataflow/BitVector.h"
#include "ebpf/Cfg.h"
#include "ebpf/Decode.h"
#include "ebpf/Lower.h"
#include "pdmc/Properties.h"
#include "progen/EbpfGen.h"
#include "progen/ProgramGen.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>

using namespace rasc;

namespace {

std::vector<StmtId> succsOf(const Program &P, StmtId S) {
  std::span<const StmtId> Succs = P.succs(S);
  return {Succs.begin(), Succs.end()};
}

TEST(ProgramCsr, SuccsKeepAddEdgeOrder) {
  Program P;
  FuncId Main = P.addFunction("main");
  StmtId A = P.addNop(Main), B = P.addNop(Main), C = P.addNop(Main);
  P.addEdge(P.entry(Main), C);
  P.addEdge(A, C);
  P.addEdge(P.entry(Main), A);
  P.addEdge(A, B);
  P.addEdge(P.entry(Main), B);
  P.addEdge(A, C); // a repeated edge is kept
  P.finalize();
  EXPECT_EQ(succsOf(P, P.entry(Main)), (std::vector<StmtId>{C, A, B}));
  EXPECT_EQ(succsOf(P, A), (std::vector<StmtId>{C, B, C}));
  // Six added, and B and C routed to the exit.
  EXPECT_EQ(P.succTargets().size(), 8u);
  std::span<const uint32_t> Begin = P.succBegin();
  ASSERT_EQ(Begin.size(), P.numStatements() + 1u);
  EXPECT_EQ(Begin.back(), P.succTargets().size());
  for (StmtId S = 0; S != P.numStatements(); ++S)
    EXPECT_TRUE(std::ranges::equal(
        P.succs(S),
        P.succTargets().subspan(Begin[S], Begin[S + 1] - Begin[S])));
}

TEST(ProgramCsr, FinalizeRoutesDanglingStatementsToTheExit) {
  Program P;
  FuncId Main = P.addFunction("main"), Helper = P.addFunction("helper");
  StmtId Call = P.addCall(Main, Helper), Op = P.addOp(Main, "execl");
  StmtId H = P.addNop(Helper);
  P.addEdge(P.entry(Main), Call);
  P.addEdge(Call, Op);
  P.finalize();
  // Each dangling statement falls through to its own function's exit;
  // exits stay successor-free, and so does nothing else.
  EXPECT_EQ(succsOf(P, Op), (std::vector<StmtId>{P.exit(Main)}));
  EXPECT_EQ(succsOf(P, P.entry(Helper)),
            (std::vector<StmtId>{P.exit(Helper)}));
  EXPECT_EQ(succsOf(P, H), (std::vector<StmtId>{P.exit(Helper)}));
  EXPECT_TRUE(P.succs(P.exit(Main)).empty());
  EXPECT_TRUE(P.succs(P.exit(Helper)).empty());
  EXPECT_EQ(succsOf(P, Call), (std::vector<StmtId>{Op}));

  // A second finalize() adds nothing and lays out the same lists.
  std::vector<std::vector<StmtId>> Before;
  for (StmtId S = 0; S != P.numStatements(); ++S)
    Before.push_back(succsOf(P, S));
  size_t Edges = P.succTargets().size();
  P.finalize();
  EXPECT_EQ(P.succTargets().size(), Edges);
  for (StmtId S = 0; S != P.numStatements(); ++S)
    EXPECT_EQ(succsOf(P, S), Before[S]) << "statement " << S;

  // An edge added afterwards lands after the routed exit, and a new
  // statement is routed by the next finalize().
  P.addEdge(H, P.entry(Helper));
  StmtId Late = P.addNop(Helper);
  P.finalize();
  EXPECT_EQ(succsOf(P, H),
            (std::vector<StmtId>{P.exit(Helper), P.entry(Helper)}));
  EXPECT_EQ(succsOf(P, Late), (std::vector<StmtId>{P.exit(Helper)}));
}

TEST(ProgramCsr, GeneratedProgramsRouteEveryNonExit) {
  SpecAutomaton Spec = fullPrivilegeSpec();
  Program P = generatePackage(2000, Spec, 11);
  size_t Edges = 0;
  for (StmtId S = 0; S != P.numStatements(); ++S) {
    const Stmt &St = P.stmt(S);
    EXPECT_EQ(P.succs(S).empty(), S == P.exit(St.Parent)) << S;
    for (StmtId Succ : P.succs(S))
      EXPECT_EQ(P.stmt(Succ).Parent, St.Parent);
    Edges += P.succs(S).size();
  }
  EXPECT_EQ(Edges, P.succTargets().size());
}

/// The annotations RascChecker hands encodeProgram: a relevant
/// operation's step (instantiated for a parametric one), IdentityStmt
/// for every other statement.
struct PdmcAnns {
  std::unique_ptr<MonoidDomain> Base;
  std::unique_ptr<SubstEnvDomain> Env;
  std::vector<AnnId> Anns;

  PdmcAnns(const Program &P, const SpecAutomaton &Spec)
      : Base(std::make_unique<MonoidDomain>(Spec.machine())) {
    bool Parametric = false;
    for (SymbolId S = 0; S != Spec.machine().numSymbols(); ++S)
      Parametric |= Spec.isParametric(S);
    if (Parametric)
      Env = std::make_unique<SubstEnvDomain>(*Base);
    Anns.assign(P.numStatements(), IdentityStmt);
    for (StmtId S = 0; S != P.numStatements(); ++S) {
      const Stmt &St = P.stmt(S);
      if (St.Kind != Stmt::Op)
        continue;
      std::optional<SymbolId> Sym =
          Spec.machine().symbol(P.symbolName(St.OpSym));
      if (!Sym)
        continue;
      AnnId A = Base->symbolAnn(*Sym);
      const SpecSymbol &Decl = Spec.symbols()[*Sym];
      if (!Env) {
        Anns[S] = A;
      } else if (Decl.Params.empty()) {
        Anns[S] = Env->lift(A);
      } else {
        std::vector<ParamBinding> Key;
        for (size_t I = 0; I != Decl.Params.size(); ++I)
          Key.push_back(
              {Env->name(Decl.Params[I]), Env->name(P.labels(S)[I])});
        Anns[S] = Env->instantiate(std::move(Key), A);
      }
    }
  }
  const AnnotationDomain &domain() const {
    return Env ? static_cast<const AnnotationDomain &>(*Env) : *Base;
  }
};

/// Random gen/kill transfer functions, as the dataflow analysis hands
/// them over: IdentityStmt where a statement neither gens nor kills.
std::vector<AnnId> dataflowAnns(const Program &P, GenKillDomain &D,
                                uint64_t Seed) {
  Rng R(Seed);
  std::vector<AnnId> Anns(P.numStatements(), IdentityStmt);
  for (StmtId S = 0; S != P.numStatements(); ++S)
    if (P.stmt(S).Kind != Stmt::Call && R.chance(1, 4))
      Anns[S] = D.transfer(R.below(4), R.below(4));
  return Anns;
}

void expectSameEncoding(const Program &P, const SpecAutomaton &Spec,
                        uint64_t Seed, const std::string &What) {
  PdmcAnns A(P, Spec);
  EXPECT_EQ(testgen::diffEncodings(P, A.domain(), A.Anns), "")
      << What << ", pdmc";
  GenKillDomain D(2);
  EXPECT_EQ(testgen::diffEncodings(P, D, dataflowAnns(P, D, Seed)), "")
      << What << ", dataflow";
}

TEST(EncodeReference, GeneratedPackages) {
  SpecAutomaton Priv = fullPrivilegeSpec();
  SpecAutomaton File = fileStateSpec();
  for (size_t Lines : {1000, 2000, 4000, 8000})
    for (uint64_t Seed = 1; Seed != 5; ++Seed)
      for (const SpecAutomaton *Spec : {&Priv, &File}) {
        Program P = generatePackage(Lines, *Spec, Seed * 7919 + Lines);
        expectSameEncoding(P, *Spec, Seed,
                           std::to_string(Lines) + " lines, seed " +
                               std::to_string(Seed));
      }
}

TEST(EncodeReference, GeneratedPrograms) {
  SpecAutomaton Priv = fullPrivilegeSpec();
  for (uint64_t Seed = 1; Seed != 25; ++Seed)
    for (bool Recursion : {false, true}) {
      ProgGenOptions O;
      O.Seed = Seed;
      O.NumFunctions = 2 + Seed % 5;
      O.StmtsPerFunction = 4 + Seed % 13;
      O.OpPermille = 40 + 20 * (Seed % 4);
      O.BranchPermille = 150 + 50 * (Seed % 5);
      O.AllowRecursion = Recursion;
      O.OpSymbols = {"seteuid_zero", "seteuid_user", "setuid_user",
                     "execl", "unrelated"};
      expectSameEncoding(generateProgram(O), Priv, Seed,
                         "program seed " + std::to_string(Seed) +
                             (Recursion ? " recursive" : " acyclic"));
    }
}

/// Programs with back edges and identity loops, which the generators
/// above do not make: a random CFG per function over Nops, a few
/// operations and calls.
TEST(EncodeReference, RandomLoopyPrograms) {
  SpecAutomaton Spec = simplePrivilegeSpec();
  for (uint64_t Seed = 1; Seed != 60; ++Seed) {
    Rng R(Seed);
    Program P;
    unsigned NumFuncs = 1 + R.below(3);
    std::vector<FuncId> Funcs;
    for (unsigned F = 0; F != NumFuncs; ++F)
      Funcs.push_back(P.addFunction("f" + std::to_string(F)));
    for (FuncId F : Funcs) {
      std::vector<StmtId> Body{P.entry(F), P.exit(F)};
      for (unsigned I = 0, E = 2 + R.below(12); I != E; ++I) {
        uint64_t Roll = R.below(10);
        Body.push_back(Roll == 0   ? P.addOp(F, "seteuid_zero")
                       : Roll == 1 ? P.addOp(F, "execl")
                       : Roll == 2 ? P.addCall(F, Funcs[R.below(NumFuncs)])
                                   : P.addNop(F));
      }
      for (unsigned I = 0, E = Body.size() + R.below(2 * Body.size()); I != E;
           ++I) {
        StmtId From = Body[R.below(Body.size())];
        if (From != P.exit(F))
          P.addEdge(From, Body[R.below(Body.size())]);
      }
    }
    P.finalize();
    expectSameEncoding(P, Spec, Seed, "loopy seed " + std::to_string(Seed));
  }
}

TEST(EncodeReference, EbpfCorpus) {
  std::vector<std::vector<uint8_t>> Corpus;
  std::vector<std::filesystem::path> Files;
  for (const auto &E : std::filesystem::directory_iterator(
           std::string(RASC_TEST_DATA_DIR) + "/ebpf"))
    if (E.path().extension() == ".bpf")
      Files.push_back(E.path());
  std::sort(Files.begin(), Files.end());
  for (const std::filesystem::path &F : Files) {
    std::ifstream In(F, std::ios::binary);
    Corpus.emplace_back(std::istreambuf_iterator<char>(In),
                        std::istreambuf_iterator<char>());
  }
  ASSERT_GE(Corpus.size(), 7u);
  for (uint64_t Seed = 1; Seed != 58; ++Seed) {
    EbpfGenOptions O;
    O.Seed = Seed;
    Corpus.push_back(generateEbpf(O));
  }
  SpecAutomaton Spec = ebpf::mapCheckSpec();
  for (size_t I = 0; I != Corpus.size(); ++I) {
    Expected<ebpf::DecodedProgram> D = ebpf::decode(Corpus[I]);
    ASSERT_TRUE(D) << "corpus program " << I;
    ebpf::Cfg G = ebpf::buildCfg(std::move(*D));
    ebpf::DataflowLowering Df = ebpf::lowerToDataflow(G);
    const Program &P = *Df.Prog;
    std::string What = "corpus program " + std::to_string(I);
    PdmcAnns A(P, Spec);
    EXPECT_EQ(testgen::diffEncodings(P, A.domain(), A.Anns), "") << What;
    // The register-initialization problem's own transfer functions.
    const BitVectorProblem &Prob = *Df.Problem;
    GenKillDomain Dom(Prob.numBits());
    std::vector<AnnId> Anns(P.numStatements(), IdentityStmt);
    for (StmtId S = 0; S != P.numStatements(); ++S)
      if (Prob.gens(S) != 0 || Prob.kills(S) != 0)
        Anns[S] = Dom.transfer(Prob.gens(S), Prob.kills(S));
    EXPECT_EQ(testgen::diffEncodings(P, Dom, Anns), "") << What;
  }
}

} // namespace
