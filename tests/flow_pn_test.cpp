//===- tests/flow_pn_test.cpp - PN flow query properties --------*- C++ -*-===//
//
// Part of the RASC project: regularly annotated set constraints.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Properties of the PN-reachability flow queries (Section 7.3's
/// extension): matched flow implies PN flow, values observed inside a
/// call are PN-only, and the dual analysis agrees with the primal on
/// matched queries even when PN sets differ. Plus pinned flowsPN
/// answers on the Section 7 bench programs and the eBPF corpus, and
/// query-order independence: sources are seeded when a query names
/// them and flowsPN keeps the last source's reachability, so every
/// answer must be the same in any query order and on a fresh analysis.
///
//===----------------------------------------------------------------------===//

#include "core/Certifier.h"
#include "ebpf/Cfg.h"
#include "ebpf/Decode.h"
#include "ebpf/Lower.h"
#include "flow/Analysis.h"
#include "progen/EbpfGen.h"
#include "support/FailPoint.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>

using namespace rasc;

namespace {

TEST(FlowPn, MatchedImpliesPn) {
  const char *Src = R"(
dup  (x : int) : (int, int) = (x, x);
main (z : int) : int = dup(3).1;
)";
  std::optional<FlowProgram> P = FlowProgram::parse(Src);
  ASSERT_TRUE(P);
  FlowAnalysis FA(*P, FlowMode::Primal);
  for (FExprId Lit : P->literals())
    for (const FFunc &F : P->functions())
      if (FA.flows(Lit, F.Body)) {
        EXPECT_TRUE(FA.flowsPN(Lit, F.Body));
      }
}

TEST(FlowPn, ArgumentVisibleInsideCalleeOnlyViaPn) {
  // The caller's literal reaches the callee's parameter position; as
  // a matched (top-level, balanced) flow the occurrence inside the
  // call is hidden, PN sees it.
  const char *Src = R"(
use  (x : int) : int = x;
main (z : int) : int = use(9);
)";
  std::optional<FlowProgram> P = FlowProgram::parse(Src);
  ASSERT_TRUE(P);
  FlowAnalysis FA(*P, FlowMode::Primal);
  FExprId Lit = P->literals()[0];
  FExprId UseBody = P->functions()[0].Body; // the parameter use

  EXPECT_FALSE(FA.flows(Lit, UseBody));
  EXPECT_TRUE(FA.flowsPN(Lit, UseBody));
  // And the value returns to the caller on a fully matched path.
  FExprId MainBody = P->functions()[1].Body;
  EXPECT_TRUE(FA.flows(Lit, MainBody));
}

TEST(FlowPn, PairComponentNeverReachesTopLevelWithoutProjection) {
  const char *Src = R"(
main (z : int) : (int, int) = (1, 2);
)";
  std::optional<FlowProgram> P = FlowProgram::parse(Src);
  ASSERT_TRUE(P);
  FlowAnalysis FA(*P, FlowMode::Primal);
  FExprId MainBody = P->functions()[0].Body;
  for (FExprId Lit : P->literals()) {
    // The literal sits inside the pair: its bracket word is a single
    // unmatched open, which is not in L(M), so neither matched nor PN
    // (which still requires an accepting bracket word) reports it at
    // the pair's own label.
    EXPECT_FALSE(FA.flows(Lit, MainBody));
    EXPECT_FALSE(FA.flowsPN(Lit, MainBody));
  }
}

TEST(FlowPn, InterruptedLazySolveResumesOnTheNextQuery) {
  // Figure 11: 2 comes back through y, and the return needs the
  // closure to match o_i against o_i^-1.
  std::optional<FlowProgram> P = FlowProgram::parse(
      "pair (y : int) : (int, int) = (1, y);\n"
      "main (z : int) : int = pair(2).2;\n");
  ASSERT_TRUE(P);
  FExprId Lit = P->literals()[1];
  FExprId Main = P->functions()[1].Body;
  bool Want = FlowAnalysis(*P, FlowMode::Primal).flowsPN(Lit, Main);
  EXPECT_TRUE(Want);

  FlowAnalysis A(*P, FlowMode::Primal);
  SolverOptions O;
  O.GovernanceCheckInterval = 1;
  A.prepare(O);
  {
    // The query's solve is cancelled at its first governance check.
    failpoints::ScopedFailPoint Cancel(failpoints::Point::SolverCancel, 0);
    A.flowsPN(Lit, Main);
  }
  EXPECT_EQ(A.flowsPN(Lit, Main), Want);
  EXPECT_EQ(A.solver().status(), BidirectionalSolver::Status::Solved);
}

TEST(FlowPn, SolveOutsideTheAnalysisRefreshesTheCachedReachability) {
  // A batch resumes the solver prepare() returned after a query read
  // an interrupted closure: the next query must not answer from the
  // reachability cached off that closure.
  std::optional<FlowProgram> P = FlowProgram::parse(
      "pair (y : int) : (int, int) = (1, y);\n"
      "main (z : int) : int = pair(2).2;\n");
  ASSERT_TRUE(P);
  FExprId Lit = P->literals()[1];
  FExprId Main = P->functions()[1].Body;

  FlowAnalysis A(*P, FlowMode::Primal);
  SolverOptions O;
  O.GovernanceCheckInterval = 1;
  BidirectionalSolver *S = A.prepare(O);
  {
    failpoints::ScopedFailPoint Cancel(failpoints::Point::SolverCancel, 0);
    EXPECT_FALSE(A.flowsPN(Lit, Main)); // the closure stopped short
  }
  ASSERT_TRUE(BidirectionalSolver::isInterrupted(S->status()));
  EXPECT_EQ(S->solve(), BidirectionalSolver::Status::Solved);
  EXPECT_TRUE(A.flowsPN(Lit, Main));
}

TEST(FlowPn, RandomProgramsMatchedSubsetOfPn) {
  // On arbitrary recursion-free programs, flows() ⊆ flowsPN().
  for (uint64_t Seed = 1; Seed <= 10; ++Seed) {
    Rng R(Seed * 1013);
    // A tiny generator: chains of identity-ish functions over ints.
    std::string Src;
    unsigned NumFuncs = 2 + static_cast<unsigned>(R.below(3));
    for (unsigned F = NumFuncs; F > 0; --F) {
      Src += "f" + std::to_string(F) + " (x : int) : int = ";
      if (F == NumFuncs || R.chance(1, 3))
        Src += R.chance(1, 2) ? "x" : std::to_string(R.below(50));
      else
        Src += "f" + std::to_string(F + 1) + "(x)";
      Src += ";\n";
    }
    Src += "main (z : int) : int = f1(" +
           std::to_string(R.below(50)) + ");\n";

    std::string Err;
    std::optional<FlowProgram> P = FlowProgram::parse(Src, &Err);
    ASSERT_TRUE(P) << Err << "\n" << Src;
    FlowAnalysis FA(*P, FlowMode::Primal);
    std::vector<FExprId> Targets;
    for (const FFunc &F : P->functions())
      Targets.push_back(F.Body);
    for (FExprId Lit : P->literals())
      for (FExprId T : Targets)
        if (FA.flows(Lit, T)) {
          EXPECT_TRUE(FA.flowsPN(Lit, T)) << "seed " << Seed;
        }
  }
}

TEST(FlowPn, CycleEliminationKeepsAnswers) {
  // In the dual analysis a call inside a call-graph cycle is
  // unannotated, so f's and g's parameters form an identity cycle that
  // cycle elimination collapses, and each pair below takes one of them
  // as an argument: a constructor bound whose argument's representative
  // is another variable. atomReachability files its wrap steps by
  // representative; every answer must be the one the solve without
  // cycle elimination gives.
  const char *Src = "f (x : int) : int = (g(x), x).2;\n"
                    "g (x : int) : int = (f(x), x).2;\n"
                    "main (z : int) : int = f(7);\n";
  std::string Err;
  std::optional<FlowProgram> P = FlowProgram::parse(Src, &Err);
  ASSERT_TRUE(P) << Err;
  SolverOptions Off;
  Off.CycleElimination = false;
  for (FlowMode Mode : {FlowMode::Primal, FlowMode::Dual}) {
    SCOPED_TRACE(Mode == FlowMode::Primal ? "primal" : "dual");
    FlowAnalysis With(*P, Mode), Without(*P, Mode);
    Without.prepare(Off);
    size_t Flowing = 0;
    for (FExprId Lit : P->literals())
      for (FExprId To = 0; To != P->numExprs(); ++To) {
        bool Pn = Without.flowsPN(Lit, To);
        EXPECT_EQ(With.flowsPN(Lit, To), Pn) << Lit << " into " << To;
        EXPECT_EQ(With.flows(Lit, To), Without.flows(Lit, To))
            << Lit << " into " << To;
        Flowing += Pn;
      }
    EXPECT_GT(Flowing, 0u);
    if (Mode == FlowMode::Dual) {
      EXPECT_GT(With.solver().stats().CollapsedVars, 0u);
    }
  }
}

//===----------------------------------------------------------------------===//
// Pinned answers: flowsPN on the Section 7 bench programs and the eBPF
// corpus. The pins are a count of true answers plus an FNV-1a hash of
// the answer bit string, so any changed answer fails with the string.
//===----------------------------------------------------------------------===//

namespace pin {

/// bench/bench_sec7_flow.cpp's deep-type program: a pair nested
/// \p Depth deep runs through one identity function per level.
std::string deepTypeProgram(unsigned Depth) {
  auto typeStr = [](unsigned D) {
    std::string T = "int";
    for (unsigned I = 0; I != D; ++I)
      T = "(" + T + ", int)";
    return T;
  };
  std::string Src;
  for (unsigned D = 1; D <= Depth; ++D)
    Src += "f" + std::to_string(D) + " (x : " + typeStr(D) + ") : " +
           typeStr(D) + " = x;\n";
  std::string Expr = "7";
  for (unsigned D = 1; D <= Depth; ++D)
    Expr = "f" + std::to_string(D) + "((" + Expr + ", 0))";
  for (unsigned D = 0; D != Depth; ++D)
    Expr += ".1";
  return Src + "main (z : int) : int = " + Expr + ";\n";
}

/// bench/bench_sec7_flow.cpp's call-chain program.
std::string deepCallProgram(unsigned Depth) {
  std::string Src = "f" + std::to_string(Depth) + " (x : int) : int = x;\n";
  for (unsigned D = Depth; D > 1; --D)
    Src += "f" + std::to_string(D - 1) + " (x : int) : int = f" +
           std::to_string(D) + "(x);\n";
  return Src + "main (z : int) : int = f1(11);\n";
}

struct Answers {
  std::string Bits;

  void add(bool B) { Bits.push_back(B ? '1' : '0'); }
  std::string pin() const {
    uint64_t H = 1469598103934665603ull;
    for (char C : Bits)
      H = (H ^ static_cast<uint8_t>(C)) * 1099511628211ull;
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "%zu:%016llx",
                  static_cast<size_t>(std::count(Bits.begin(), Bits.end(),
                                                 '1')),
                  static_cast<unsigned long long>(H));
    return Buf;
  }
};

} // namespace pin

TEST(FlowPnPinned, Section7Programs) {
  struct Case {
    const char *Name;
    std::string Src;
    FlowMode Mode;
    const char *Pin;
  };
  const Case Cases[] = {
      {"types x1 primal", pin::deepTypeProgram(1), FlowMode::Primal,
       "3:443bb59fa835b4d2"},
      {"types x1 dual", pin::deepTypeProgram(1), FlowMode::Dual,
       "7:b772f2062734a726"},
      {"types x3 primal", pin::deepTypeProgram(3), FlowMode::Primal,
       "5:4a38c2ec74cffdfc"},
      {"types x3 dual", pin::deepTypeProgram(3), FlowMode::Dual,
       "28:75047a6e22703d31"},
      {"calls x4 primal", pin::deepCallProgram(4), FlowMode::Primal,
       "9:5f153f4a97e74cae"},
      {"calls x4 dual", pin::deepCallProgram(4), FlowMode::Dual,
       "2:4faaf2511da878b3"},
      {"calls x8 primal", pin::deepCallProgram(8), FlowMode::Primal,
       "17:55c3753e83f63de6"},
      {"calls x8 dual", pin::deepCallProgram(8), FlowMode::Dual,
       "2:39f2e84954ee8f93"},
  };
  for (const Case &C : Cases) {
    SCOPED_TRACE(C.Name);
    std::string Err;
    std::optional<FlowProgram> P = FlowProgram::parse(C.Src, &Err);
    ASSERT_TRUE(P) << Err;
    FlowAnalysis FA(*P, C.Mode);
    pin::Answers A;
    for (FExprId Lit : P->literals())
      for (FExprId E = 0; E != P->numExprs(); ++E)
        A.add(FA.flowsPN(Lit, E));
    EXPECT_EQ(A.pin(), C.Pin) << A.Bits;
  }
}

TEST(FlowPnPinned, EbpfCorpus) {
  std::vector<std::filesystem::path> Files;
  for (const auto &E : std::filesystem::directory_iterator(
           std::string(RASC_TEST_DATA_DIR) + "/ebpf"))
    if (E.path().extension() == ".bpf")
      Files.push_back(E.path());
  std::sort(Files.begin(), Files.end());
  const std::map<std::string, std::string> Pins = {
      {"gen-001.bpf", "3:1b9a42f585c8423a"},
      {"gen-002.bpf", "3:6346da68f6c8ddac"},
      {"gen-005.bpf", "1:c0ac52a138af6fc0"},
      {"gen-009.bpf", "3:1b9a42f585c8423a"},
      {"gen-017.bpf", "1:80d11b8c8daeaaae"},
      {"gen-033.bpf", "2:34bce6cd742125db"},
      {"map-lookup.bpf", "2:e8b56c56838e1219"},
  };
  ASSERT_FALSE(Files.empty());
  for (const std::filesystem::path &F : Files) {
    SCOPED_TRACE(F.filename().string());
    std::ifstream In(F, std::ios::binary);
    std::string Bytes((std::istreambuf_iterator<char>(In)),
                      std::istreambuf_iterator<char>());
    Expected<ebpf::DecodedProgram> D = ebpf::decode(
        {reinterpret_cast<const uint8_t *>(Bytes.data()), Bytes.size()});
    ASSERT_TRUE(D) << D.error().render();
    ebpf::Cfg G = ebpf::buildCfg(std::move(*D));
    ebpf::FlowLowering Fl = ebpf::lowerToFlowProgram(G);
    FlowAnalysis FA(Fl.Prog, FlowMode::Primal);
    // The canonical query, the context literal into every expression,
    // and every instruction literal into the program result.
    pin::Answers A;
    A.add(FA.flowsPN(Fl.CtxLit, Fl.ResultExpr));
    for (FExprId E = 0; E != Fl.Prog.numExprs(); ++E)
      A.add(FA.flowsPN(Fl.CtxLit, E));
    for (FExprId Lit : Fl.InsnLit)
      if (Lit != ~0u)
        A.add(FA.flowsPN(Lit, Fl.ResultExpr));
    auto It = Pins.find(F.filename().string());
    EXPECT_EQ(A.pin(), It == Pins.end() ? "" : It->second) << A.Bits;
  }
}

//===----------------------------------------------------------------------===//
// Query-order independence: lazily seeded sources and the flowsPN cache
//===----------------------------------------------------------------------===//

namespace order {

enum class Ask { Flows, FlowsPN, MayAlias };

struct Query {
  Ask K;
  FExprId Lit, To;
};

bool ask(FlowAnalysis &A, const Query &Q) {
  switch (Q.K) {
  case Ask::Flows:
    return A.flows(Q.Lit, Q.To);
  case Ask::FlowsPN:
    return A.flowsPN(Q.Lit, Q.To);
  case Ask::MayAlias:
    return A.hasLabel(Q.Lit) && A.hasLabel(Q.To) &&
           A.mayAlias(A.labelOf(Q.Lit), A.labelOf(Q.To));
  }
  return false;
}

/// Answers \p Qs on one analysis in the order \p Order gives, checking
/// the fixpoint after every query; the answers are in query order.
std::vector<bool> askInOrder(const FlowProgram &P, FlowMode Mode,
                             const std::vector<Query> &Qs,
                             const std::vector<size_t> &Order) {
  FlowAnalysis A(P, Mode);
  std::vector<bool> Out(Qs.size());
  for (size_t I : Order) {
    Out[I] = ask(A, Qs[I]);
    EXPECT_TRUE(certifyFixpoint(A.solver()).Ok) << "after query " << I;
  }
  return Out;
}

/// Asks flows, flowsPN and mayAlias for every (literal, target) pair
/// four ways — literal-major on one analysis, the reverse of that on
/// another (mayAlias, which seeds every source, comes first), target-
/// major on a third (flowsPN's source changes every query), and each
/// query on a fresh analysis — and expects the same answers.
void expectOrderFree(const FlowProgram &P, FlowMode Mode,
                     const std::vector<FExprId> &Lits,
                     const std::vector<FExprId> &Targets) {
  std::vector<Query> Qs;
  for (Ask K : {Ask::Flows, Ask::FlowsPN, Ask::MayAlias})
    for (FExprId Lit : Lits)
      for (FExprId To : Targets)
        Qs.push_back({K, Lit, To});
  std::vector<size_t> Forward(Qs.size()), TargetMajor;
  for (size_t I = 0; I != Qs.size(); ++I)
    Forward[I] = I;
  std::vector<size_t> Reverse(Forward.rbegin(), Forward.rend());
  for (size_t K = 0; K != 3; ++K)
    for (size_t T = 0; T != Targets.size(); ++T)
      for (size_t L = 0; L != Lits.size(); ++L)
        TargetMajor.push_back((K * Lits.size() + L) * Targets.size() + T);

  std::vector<bool> Fresh(Qs.size());
  for (size_t I = 0; I != Qs.size(); ++I)
    Fresh[I] = askInOrder(P, Mode, Qs, {I})[I];
  EXPECT_EQ(askInOrder(P, Mode, Qs, Forward), Fresh) << "forward order";
  EXPECT_EQ(askInOrder(P, Mode, Qs, Reverse), Fresh) << "reverse order";
  EXPECT_EQ(askInOrder(P, Mode, Qs, TargetMajor), Fresh)
      << "target-major order";
}

} // namespace order

TEST(FlowQueryOrder, Section7Programs) {
  const std::string Srcs[] = {
      pin::deepTypeProgram(1), pin::deepTypeProgram(3),
      pin::deepCallProgram(4),
      // Figure 11, and a value observed inside a callee (PN only).
      "pair (y : int) : (int, int) = (1, y);\n"
      "main (z : int) : int = pair(2).2;\n",
      "id (x : int) : int = x;\n"
      "use (x : int) : int = id(x);\n"
      "main (z : int) : int = (use(4), id(5)).1;\n",
  };
  for (const std::string &Src : Srcs)
    for (FlowMode Mode : {FlowMode::Primal, FlowMode::Dual}) {
      SCOPED_TRACE(Src);
      std::optional<FlowProgram> P = FlowProgram::parse(Src);
      ASSERT_TRUE(P);
      std::vector<FExprId> Targets(P->numExprs());
      for (FExprId E = 0; E != P->numExprs(); ++E)
        Targets[E] = E;
      order::expectOrderFree(*P, Mode, P->literals(), Targets);
    }
}

class FlowQueryOrderEbpf : public ::testing::TestWithParam<uint64_t> {};

// The canonical ebpf-batch query shape on the generator corpus: every
// instruction literal and the context literal, into the program result
// and every block function's body.
TEST_P(FlowQueryOrderEbpf, GeneratedPrograms) {
  EbpfGenOptions O;
  O.Seed = GetParam();
  O.MaxBlocks = 6;
  O.MaxBodyInsns = 5;
  std::vector<uint8_t> Bytes = generateEbpf(O);
  Expected<ebpf::DecodedProgram> D = ebpf::decode(Bytes);
  ASSERT_TRUE(D) << D.error().render();
  ebpf::Cfg G = ebpf::buildCfg(std::move(*D));
  ebpf::FlowLowering Fl = ebpf::lowerToFlowProgram(G);
  std::vector<FExprId> Lits{Fl.CtxLit};
  for (FExprId Lit : Fl.InsnLit)
    if (Lit != ~0u)
      Lits.push_back(Lit);
  std::vector<FExprId> Targets{Fl.ResultExpr};
  for (FFuncId F : Fl.BlockFn)
    Targets.push_back(Fl.Prog.functions()[F].Body);
  order::expectOrderFree(Fl.Prog, FlowMode::Primal, Lits, Targets);
}

INSTANTIATE_TEST_SUITE_P(Corpus, FlowQueryOrderEbpf,
                         ::testing::Range(uint64_t(1), uint64_t(65)));

} // namespace
