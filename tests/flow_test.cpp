//===- tests/flow_test.cpp - Type-based flow analysis tests -----*- C++ -*-===//
//
// Part of the RASC project: regularly annotated set constraints.
//
//===----------------------------------------------------------------------===//

#include "ebpf/Cfg.h"
#include "ebpf/Decode.h"
#include "ebpf/Lower.h"
#include "flow/Analysis.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <sstream>

using namespace rasc;

namespace {

/// Figure 11:  pair (y:int) : (int,int) = (1, y);
///             main (z:int) : int = pair(2).2;
const char *Figure11 = R"(
pair (y : int) : (int, int) = (1, y);
main (z : int) : int = pair(2).2;
)";

TEST(FlowLang, ParsesFigure11) {
  std::string Err;
  std::optional<FlowProgram> P = FlowProgram::parse(Figure11, &Err);
  ASSERT_TRUE(P) << Err;
  ASSERT_EQ(P->functions().size(), 2u);
  EXPECT_EQ(P->functions()[0].Name, "pair");
  EXPECT_EQ(P->functions()[1].Name, "main");
  EXPECT_EQ(P->numCallSites(), 1u);
  ASSERT_EQ(P->literals().size(), 2u);
}

TEST(FlowLang, TypeErrors) {
  std::string Err;
  EXPECT_FALSE(FlowProgram::parse("f (x:int) : int = y;", &Err));
  EXPECT_NE(Err.find("unbound"), std::string::npos);

  Err.clear();
  EXPECT_FALSE(FlowProgram::parse("f (x:int) : int = x.1;", &Err));
  EXPECT_NE(Err.find("non-pair"), std::string::npos);

  Err.clear();
  EXPECT_FALSE(FlowProgram::parse("f (x:int) : int = g(x);", &Err));
  EXPECT_NE(Err.find("undeclared"), std::string::npos);

  Err.clear();
  EXPECT_FALSE(FlowProgram::parse("", &Err));
  EXPECT_NE(Err.find("no functions"), std::string::npos);
}

// Programs built in code call by id: a function declared before its
// body can be called from bodies built earlier, and typecheck() checks
// the ids instead of resolving names.
TEST(FlowLang, CallsByIdAfterDeclaration) {
  FlowProgram P = FlowProgram::empty();
  TypeId Int = P.intType();
  FFuncId Main = P.declareFunction("main", "z", Int, Int);
  FFuncId Id = P.declareFunction("id", "x", Int, Int);
  FExpr Lit;
  Lit.Kind = FExpr::Lit;
  FExpr Call;
  Call.Kind = FExpr::Call;
  Call.Callee = Id;
  Call.Kid0 = P.addExpr(Lit);
  FExprId CallE = P.addExpr(Call);
  P.defineFunction(Main, CallE);
  std::string Err;
  EXPECT_FALSE(P.typecheck(&Err));
  EXPECT_NE(Err.find("'id' has no body"), std::string::npos) << Err;

  FExpr Param;
  Param.Kind = FExpr::Var;
  P.defineFunction(Id, P.addExpr(Param));
  Err.clear();
  ASSERT_TRUE(P.typecheck(&Err)) << Err;
  EXPECT_EQ(P.expr(CallE).Type, Int);
  FlowAnalysis A(P, FlowMode::Primal);
  EXPECT_TRUE(A.flows(Call.Kid0, CallE));

  FlowProgram Q = FlowProgram::empty();
  Call.Callee = 7;
  Call.Kid0 = Q.addExpr(Lit);
  Q.addFunction("main", "z", Q.intType(), Q.intType(), Q.addExpr(Call));
  Err.clear();
  EXPECT_FALSE(Q.typecheck(&Err));
  EXPECT_NE(Err.find("undeclared function #7"), std::string::npos) << Err;
}

TEST(FlowAutomaton, Figure10Shape) {
  // For a program whose largest type is (int, int), the pair automaton
  // has the Figure 10 shape: root + one state per component position,
  // plus the rejecting sink.
  std::string Err;
  std::optional<FlowProgram> P = FlowProgram::parse(Figure11, &Err);
  ASSERT_TRUE(P) << Err;
  Dfa M = buildPairAutomaton(*P);
  // Root, [1_int, [2_int, dead.
  EXPECT_EQ(M.numStates(), 4u);
  EXPECT_EQ(M.numSymbols(), 4u);
  // Balanced bracket words are accepted.
  auto Sym = [&](const char *N) { return *M.symbol(N); };
  EXPECT_TRUE(M.accepts(Word{}));
  EXPECT_TRUE(M.accepts(Word{Sym("open1_int"), Sym("close1_int")}));
  EXPECT_FALSE(M.accepts(Word{Sym("open1_int"), Sym("close2_int")}));
  EXPECT_FALSE(M.accepts(Word{Sym("open1_int")}));
  // No nesting below int components.
  EXPECT_FALSE(M.accepts(Word{Sym("open1_int"), Sym("open1_int"),
                              Sym("close1_int"), Sym("close1_int")}));
}

TEST(FlowAutomaton, NestedTypesNest) {
  const char *Src = R"(
mk (p : (int, int)) : ((int, int), int) = (p, 7);
main (z : int) : int = mk((1, 2)).1.2;
)";
  std::string Err;
  std::optional<FlowProgram> P = FlowProgram::parse(Src, &Err);
  ASSERT_TRUE(P) << Err;
  Dfa M = buildPairAutomaton(*P);
  // Chains can descend int -> (int,int): e.g. [2_int after [1_int is
  // allowed when the outer pair's first component is (int, int)...
  auto Open1Int = M.symbol("open1_int");
  auto Close1Int = M.symbol("close1_int");
  auto Open1Pair = M.symbol("open1__intx_int_");
  auto Close1Pair = M.symbol("close1__intx_int_");
  ASSERT_TRUE(Open1Int && Open1Pair && Close1Pair && Close1Int);
  // Value into inner pos 1, inner pair into outer pos 1, then out.
  EXPECT_TRUE(M.accepts(
      Word{*Open1Int, *Open1Pair, *Close1Pair, *Close1Int}));
  // Mismatched nesting dies.
  EXPECT_FALSE(M.accepts(
      Word{*Open1Pair, *Open1Int, *Close1Int, *Close1Pair}));
}

TEST(FlowAnalysis, Figure12FlowBToV) {
  std::string Err;
  std::optional<FlowProgram> P = FlowProgram::parse(Figure11, &Err);
  ASSERT_TRUE(P) << Err;

  // Literal 2 (the argument) flows to main's body result; literal 1
  // (the pair's first component) does not reach .2.
  std::vector<FExprId> Lits = P->literals();
  ASSERT_EQ(Lits.size(), 2u);
  FExprId Lit1 = Lits[0], Lit2 = Lits[1];
  ASSERT_EQ(P->expr(Lit1).LitValue, 1);
  ASSERT_EQ(P->expr(Lit2).LitValue, 2);
  FExprId MainBody = P->functions()[1].Body;

  for (FlowMode Mode : {FlowMode::Primal, FlowMode::Dual}) {
    FlowAnalysis FA(*P, Mode);
    EXPECT_TRUE(FA.flows(Lit2, MainBody))
        << (Mode == FlowMode::Primal ? "primal" : "dual");
    EXPECT_FALSE(FA.flows(Lit1, MainBody))
        << (Mode == FlowMode::Primal ? "primal" : "dual");
  }
}

TEST(FlowAnalysis, ProjectionSelectsComponent) {
  const char *Src = R"(
main (z : int) : int = ((1, 2).1, (3, 4).2).2;
)";
  std::string Err;
  std::optional<FlowProgram> P = FlowProgram::parse(Src, &Err);
  ASSERT_TRUE(P) << Err;
  std::vector<FExprId> Lits = P->literals();
  ASSERT_EQ(Lits.size(), 4u);
  FExprId Body = P->functions()[0].Body;

  for (FlowMode Mode : {FlowMode::Primal, FlowMode::Dual}) {
    FlowAnalysis FA(*P, Mode);
    // ((1,2).1, (3,4).2).2 == 4.
    EXPECT_FALSE(FA.flows(Lits[0], Body));
    EXPECT_FALSE(FA.flows(Lits[1], Body));
    EXPECT_FALSE(FA.flows(Lits[2], Body));
    EXPECT_TRUE(FA.flows(Lits[3], Body));
  }
}

TEST(FlowAnalysis, ContextSensitivityAcrossCalls) {
  // id is called twice; each caller gets its own argument back, not
  // the other's (polymorphic / context-sensitive call matching).
  const char *Src = R"(
id (x : int) : int = x;
main (z : int) : (int, int) = (id(1), id(2));
)";
  std::string Err;
  std::optional<FlowProgram> P = FlowProgram::parse(Src, &Err);
  ASSERT_TRUE(P) << Err;
  std::vector<FExprId> Lits = P->literals();
  ASSERT_EQ(Lits.size(), 2u);

  // The two call expressions.
  std::vector<FExprId> Calls;
  for (FExprId E = 0; E != P->numExprs(); ++E)
    if (P->expr(E).Kind == FExpr::Call)
      Calls.push_back(E);
  ASSERT_EQ(Calls.size(), 2u);

  for (FlowMode Mode : {FlowMode::Primal, FlowMode::Dual}) {
    FlowAnalysis FA(*P, Mode);
    EXPECT_TRUE(FA.flows(Lits[0], Calls[0]));
    EXPECT_TRUE(FA.flows(Lits[1], Calls[1]));
    EXPECT_FALSE(FA.flows(Lits[0], Calls[1]))
        << (Mode == FlowMode::Primal ? "primal" : "dual");
    EXPECT_FALSE(FA.flows(Lits[1], Calls[0]))
        << (Mode == FlowMode::Primal ? "primal" : "dual");
  }
}

TEST(FlowAnalysis, MatchedQueryHidesEscapingValue) {
  // A literal born inside the callee reaches the caller only on an
  // N-path (it escapes the call that created it): the matched query
  // misses it in both analyses, the primal PN query finds it
  // (Section 7.3's extension).
  const char *Src = R"(
mk (x : int) : int = 5;
main (z : int) : int = mk(z);
)";
  std::string Err;
  std::optional<FlowProgram> P = FlowProgram::parse(Src, &Err);
  ASSERT_TRUE(P) << Err;
  FExprId Lit5 = P->literals()[0];
  FExprId MainBody = P->functions()[1].Body;

  FlowAnalysis Primal(*P, FlowMode::Primal);
  EXPECT_FALSE(Primal.flows(Lit5, MainBody));
  EXPECT_TRUE(Primal.flowsPN(Lit5, MainBody));

  FlowAnalysis Dual(*P, FlowMode::Dual);
  EXPECT_FALSE(Dual.flows(Lit5, MainBody));
}

TEST(FlowAnalysis, PolymorphicRecursionPrimal) {
  // A recursive identity: the primal analysis keeps call matching
  // context-free even through recursion (polymorphic recursion),
  // while the dual approximates recursive calls monomorphically.
  const char *Src = R"(
rec (x : int) : int = rec(x);
main (z : int) : (int, int) = (rec(1), rec(2));
)";
  std::string Err;
  std::optional<FlowProgram> P = FlowProgram::parse(Src, &Err);
  ASSERT_TRUE(P) << Err;
  std::vector<FExprId> Lits = P->literals();
  std::vector<FExprId> Calls;
  for (FExprId E = 0; E != P->numExprs(); ++E)
    if (P->expr(E).Kind == FExpr::Call &&
        P->expr(E).Kid0 != P->functions()[0].Body)
      Calls.push_back(E);

  // Note: rec never returns a value that escapes its own recursion
  // (rec(x) = rec(x) loops), so neither literal flows anywhere on a
  // matched path. What distinguishes the analyses is the recursive
  // call site: the dual approximates it with the empty annotation.
  // A recursive site gets no call/return symbols.
  std::vector<SymbolId> CallSyms;
  buildCallAutomaton(*P, &CallSyms);
  ASSERT_EQ(CallSyms.size(), 2 * 3u);
  unsigned NumRecursive = 0;
  for (uint32_t Site = 0; Site != 3; ++Site) {
    bool Recursive = CallSyms[2 * Site] == InvalidSymbol;
    EXPECT_EQ(Recursive, CallSyms[2 * Site + 1] == InvalidSymbol);
    NumRecursive += Recursive;
  }
  EXPECT_EQ(NumRecursive, 1u); // only the self-call
}

TEST(FlowAnalysis, StackAwareAliasing) {
  // Section 7.5 in the dual setting: the parameter's least solution
  // contains the pair *terms* from each call site. Distinct argument
  // pairs have disjoint term sets even though a context-insensitive
  // points-to view would conflate their contents.
  const char *Src = R"(
f (p : (int, int)) : int = 0;
main (z : int) : int = (f((1, 2)), f((3, 4))).1;
)";
  std::string Err;
  std::optional<FlowProgram> P = FlowProgram::parse(Src, &Err);
  ASSERT_TRUE(P) << Err;

  // The two literal-pair argument expressions.
  std::vector<FExprId> Pairs;
  for (FExprId E = 0; E != P->numExprs(); ++E) {
    const FExpr &Ex = P->expr(E);
    if (Ex.Kind == FExpr::MkPair &&
        P->expr(Ex.Kid0).Kind == FExpr::Lit &&
        P->expr(Ex.Kid1).Kind == FExpr::Lit)
      Pairs.push_back(E);
  }
  ASSERT_EQ(Pairs.size(), 2u);

  FlowAnalysis FA(*P, FlowMode::Dual);
  VarId Param = FA.paramLabel(0);
  // The parameter's solution intersects each argument's solution...
  EXPECT_TRUE(FA.mayAlias(Param, FA.labelOf(Pairs[0])));
  EXPECT_TRUE(FA.mayAlias(Param, FA.labelOf(Pairs[1])));
  // ...but the two arguments do not alias each other: their terms
  // differ in the constants at the leaves.
  EXPECT_FALSE(FA.mayAlias(FA.labelOf(Pairs[0]), FA.labelOf(Pairs[1])));
}

/// Random well-typed programs: the primal and dual analyses must agree
/// on every matched flow query when the program is recursion-free.
class FlowDifferential : public ::testing::TestWithParam<uint64_t> {};

struct ProgramBuilder {
  FlowProgram P = FlowProgram::empty();
  Rng R;
  std::vector<TypeId> TypePool;

  explicit ProgramBuilder(uint64_t Seed) : R(Seed) {
    TypeId I = P.intType();
    TypePool = {I, P.pairType(I, I)};
    if (R.chance(1, 2))
      TypePool.push_back(P.pairType(TypePool[1], I));
  }

  TypeId randType() { return TypePool[R.below(TypePool.size())]; }

  /// Builds an expression of exactly \p Want; may call only functions
  /// with index < NumCallable (ensuring a DAG call graph).
  FExprId build(TypeId Want, const FFunc &Ctx, size_t NumCallable,
                unsigned Depth) {
    // A copy: the recursive builds below may add pair types and
    // reallocate the type table.
    const FType Ty = P.type(Want);
    // Base cases.
    if (Depth == 0 || R.chance(1, 4)) {
      if (Want == Ctx.ParamTy && R.chance(1, 2)) {
        FExpr E;
        E.Kind = FExpr::Var;
        return P.addExpr(E);
      }
      if (Ty.Kind == FType::Int) {
        FExpr E;
        E.Kind = FExpr::Lit;
        E.LitValue = static_cast<long>(R.below(100));
        return P.addExpr(std::move(E));
      }
    }
    // Calls to already-built functions of the right return type.
    if (NumCallable > 0 && R.chance(1, 4)) {
      std::vector<FFuncId> Fits;
      for (FFuncId F = 0; F != NumCallable; ++F)
        if (P.functions()[F].RetTy == Want)
          Fits.push_back(F);
      if (!Fits.empty()) {
        FFuncId Callee = Fits[R.below(Fits.size())];
        FExpr E;
        E.Kind = FExpr::Call;
        E.Callee = Callee;
        E.Kid0 = build(P.functions()[Callee].ParamTy, Ctx, NumCallable,
                       Depth > 0 ? Depth - 1 : 0);
        return P.addExpr(std::move(E));
      }
    }
    if (Ty.Kind == FType::Pair && Depth > 0) {
      FExpr E;
      E.Kind = FExpr::MkPair;
      E.Kid0 = build(Ty.A, Ctx, NumCallable, Depth - 1);
      E.Kid1 = build(Ty.B, Ctx, NumCallable, Depth - 1);
      return P.addExpr(std::move(E));
    }
    if (Depth > 0 && R.chance(1, 3)) {
      // Build a pair around Want and project it back out.
      TypeId Other = randType();
      bool First = R.chance(1, 2);
      TypeId PairTy = First ? P.pairType(Want, Other)
                            : P.pairType(Other, Want);
      FExpr Inner;
      Inner.Kind = FExpr::MkPair;
      Inner.Kid0 = build(First ? Want : Other, Ctx, NumCallable, Depth - 1);
      Inner.Kid1 = build(First ? Other : Want, Ctx, NumCallable, Depth - 1);
      (void)PairTy;
      FExprId InnerId = P.addExpr(std::move(Inner));
      FExpr Proj;
      Proj.Kind = FExpr::Proj;
      Proj.ProjIdx = First ? 0 : 1;
      Proj.Kid0 = InnerId;
      return P.addExpr(std::move(Proj));
    }
    // Fall back to a literal / literal pair of the right shape.
    if (Ty.Kind == FType::Int) {
      FExpr E;
      E.Kind = FExpr::Lit;
      E.LitValue = static_cast<long>(R.below(100));
      return P.addExpr(std::move(E));
    }
    FExpr E;
    E.Kind = FExpr::MkPair;
    E.Kid0 = build(Ty.A, Ctx, NumCallable, 0);
    E.Kid1 = build(Ty.B, Ctx, NumCallable, 0);
    return P.addExpr(std::move(E));
  }

  FlowProgram generate() {
    unsigned NumFuncs = 2 + static_cast<unsigned>(R.below(3));
    for (unsigned I = 0; I != NumFuncs; ++I) {
      FFunc Proto;
      Proto.Name = "f" + std::to_string(I);
      Proto.Param = "x";
      Proto.ParamTy = randType();
      Proto.RetTy = randType();
      FExprId Body =
          build(Proto.RetTy, Proto, /*NumCallable=*/I, /*Depth=*/3);
      P.addFunction(Proto.Name, Proto.Param, Proto.ParamTy, Proto.RetTy,
                    Body);
    }
    return std::move(P);
  }
};

TEST_P(FlowDifferential, PrimalEqualsDualOnRecursionFreePrograms) {
  ProgramBuilder B(GetParam());
  FlowProgram P = B.generate();
  std::string Err;
  ASSERT_TRUE(P.typecheck(&Err)) << Err;

  FlowAnalysis Primal(P, FlowMode::Primal);
  FlowAnalysis Dual(P, FlowMode::Dual);

  // Query every literal against every function's body result and
  // parameter label... the body expressions of all functions.
  std::vector<FExprId> Targets;
  for (const FFunc &F : P.functions())
    Targets.push_back(F.Body);
  for (FExprId E = 0; E != P.numExprs(); ++E)
    if (P.expr(E).Kind == FExpr::Proj || P.expr(E).Kind == FExpr::Call)
      Targets.push_back(E);

  for (FExprId Lit : P.literals())
    for (FExprId T : Targets) {
      EXPECT_EQ(Primal.flows(Lit, T), Dual.flows(Lit, T))
          << "lit " << Lit << " -> " << T << " seed " << GetParam();
    }
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, FlowDifferential,
                         ::testing::Range(uint64_t(1), uint64_t(60)));

//===----------------------------------------------------------------===//
// Orphaned expressions: a node no function body reaches
//===----------------------------------------------------------------===//

TEST(FlowAnalysis, OrphanedLiteralHasNoLabelAndFlowsNowhere) {
  // id (x : int) : int = x;  main (z : int) : int = id(1);  plus a
  // literal 9 that no body reaches, as the eBPF front-end leaves one
  // behind when it overwrites a register slot.
  FlowProgram P = FlowProgram::empty();
  auto add = [&](FExpr::KindTy K, FExprId Kid = 0, const char *Name = "") {
    FExpr E;
    E.Kind = K;
    E.Kid0 = Kid;
    E.LitValue = 1;
    return *Name ? P.addNamedExpr(E, Name) : P.addExpr(E);
  };
  FExprId X = add(FExpr::Var, 0, "x");
  P.addFunction("id", "x", P.intType(), P.intType(), X);
  FExprId One = add(FExpr::Lit);
  FExprId Orphan = add(FExpr::Lit);
  FExprId Call = add(FExpr::Call, One, "id");
  P.addFunction("main", "z", P.intType(), P.intType(), Call);
  std::string Err;
  ASSERT_TRUE(P.typecheck(&Err)) << Err;

  for (FlowMode Mode : {FlowMode::Primal, FlowMode::Dual}) {
    SCOPED_TRACE(Mode == FlowMode::Primal ? "primal" : "dual");
    FlowAnalysis FA(P, Mode);
    EXPECT_TRUE(FA.hasLabel(One));
    EXPECT_TRUE(FA.hasLabel(Call));
    EXPECT_FALSE(FA.hasLabel(Orphan));
    EXPECT_FALSE(FA.hasLabel(P.numExprs())); // past the arena
    EXPECT_TRUE(FA.flows(One, Call));
    EXPECT_FALSE(FA.flows(Orphan, Call));
    EXPECT_FALSE(FA.flows(One, Orphan));
    EXPECT_FALSE(FA.flows(Orphan, Orphan));
    EXPECT_FALSE(FA.flowsPN(Orphan, Call));
    EXPECT_FALSE(FA.flowsPN(One, Orphan));
    // Only the reached literal got a source constant, before and after
    // the queries.
    const ConstraintSystem &CS = FA.system();
    for (ConsId C = 0; C != CS.numConstructors(); ++C)
      EXPECT_NE(CS.constructorName(C), "src@" + std::to_string(Orphan));
    EXPECT_DEBUG_DEATH((void)FA.labelOf(Orphan),
                       "outside every function body");
  }
}

//===----------------------------------------------------------------===//
// The rewrites of the front-end: trie-built automata and one label
// per expression
//===----------------------------------------------------------------===//

/// The programs of this file (parsed and random) plus the flow
/// lowerings of the golden eBPF corpus.
std::vector<FlowProgram> corpus() {
  std::vector<FlowProgram> Out;
  const char *Sources[] = {
      Figure11,
      "mk (p : (int, int)) : ((int, int), int) = (p, 7);\n"
      "main (z : int) : int = mk((1, 2)).1.2;",
      "rec (x : int) : int = rec(x);\n"
      "main (z : int) : (int, int) = (rec(1), rec(2));",
      "id (x : int) : int = x;\n"
      "main (z : int) : (int, int) = (id(1), id(2));",
      "f (p : (int, int)) : int = 0;\n"
      "main (z : int) : int = (f((1, 2)), f((3, 4))).1;",
  };
  for (const char *Src : Sources) {
    std::string Err;
    std::optional<FlowProgram> P = FlowProgram::parse(Src, &Err);
    EXPECT_TRUE(P) << Err;
    if (P)
      Out.push_back(std::move(*P));
  }
  for (uint64_t Seed = 1; Seed != 21; ++Seed) {
    FlowProgram P = ProgramBuilder(Seed).generate();
    std::string Err;
    EXPECT_TRUE(P.typecheck(&Err)) << Err;
    Out.push_back(std::move(P));
  }
  std::vector<std::filesystem::path> Files;
  for (const auto &E : std::filesystem::directory_iterator(
           std::string(RASC_TEST_DATA_DIR) + "/ebpf"))
    if (E.path().extension() == ".bpf")
      Files.push_back(E.path());
  std::sort(Files.begin(), Files.end());
  EXPECT_FALSE(Files.empty());
  for (const std::filesystem::path &F : Files) {
    std::ifstream In(F, std::ios::binary);
    std::string Bytes((std::istreambuf_iterator<char>(In)),
                      std::istreambuf_iterator<char>());
    Expected<ebpf::DecodedProgram> D = ebpf::decode(
        {reinterpret_cast<const uint8_t *>(Bytes.data()), Bytes.size()});
    EXPECT_TRUE(D) << F;
    if (D)
      Out.push_back(
          ebpf::lowerToFlowProgram(ebpf::buildCfg(std::move(*D))).Prog);
  }
  return Out;
}

/// The chain-based construction of the Figure 10 automaton: every state
/// is an explicit bracket chain interned in an ordered map, worked off
/// breadth first.
Dfa referencePairAutomaton(const FlowProgram &P) {
  using Bracket = std::pair<uint32_t, TypeId>; // (index, component type)
  std::vector<Bracket> Brackets;
  for (TypeId T = 0; T != P.numTypes(); ++T)
    if (P.type(T).Kind == FType::Pair)
      for (uint32_t I = 0; I != 2; ++I) {
        Bracket B{I, I == 0 ? P.type(T).A : P.type(T).B};
        if (std::find(Brackets.begin(), Brackets.end(), B) == Brackets.end())
          Brackets.push_back(B);
      }
  std::sort(Brackets.begin(), Brackets.end());
  auto name = [&](bool Open, const Bracket &B) {
    std::ostringstream OS;
    OS << (Open ? "open" : "close") << (B.first + 1) << "_"
       << P.typeName(B.second);
    std::string N = OS.str();
    for (char &C : N) {
      if (C == '(' || C == ')' || C == ' ')
        C = '_';
      if (C == ',')
        C = 'x';
    }
    return N;
  };
  DfaBuilder Builder;
  std::vector<SymbolId> Open, Close;
  for (const Bracket &B : Brackets) {
    Open.push_back(Builder.addSymbol(name(true, B)));
    Close.push_back(Builder.addSymbol(name(false, B)));
  }
  std::map<std::vector<Bracket>, StateId> States;
  std::deque<std::vector<Bracket>> Work;
  auto intern = [&](const std::vector<Bracket> &Chain) {
    auto [It, New] = States.emplace(Chain, 0);
    if (New) {
      It->second = Builder.addState();
      Work.push_back(Chain);
    }
    return It->second;
  };
  StateId Root = intern({});
  Builder.setStart(Root);
  Builder.setAccepting(Root);
  while (!Work.empty()) {
    std::vector<Bracket> Chain = Work.front();
    Work.pop_front();
    StateId From = States.at(Chain);
    for (size_t I = 0; I != Brackets.size(); ++I) {
      const Bracket &B = Brackets[I];
      const FType &Ty = P.type(B.second);
      if (Chain.empty() ||
          (Ty.Kind == FType::Pair &&
           (Chain.back().first == 0 ? Ty.A : Ty.B) == Chain.back().second)) {
        std::vector<Bracket> Next = Chain;
        Next.push_back(B);
        Builder.addTransition(From, Open[I], intern(Next));
      }
      if (!Chain.empty() && Chain.back() == B)
        Builder.addTransition(
            From, Close[I],
            intern(std::vector<Bracket>(Chain.begin(), Chain.end() - 1)));
    }
  }
  return Builder.build();
}

/// The chain-based construction of the dual analysis's call-string
/// automaton, recursive sites given.
Dfa referenceCallAutomaton(const FlowProgram &P,
                           const std::vector<bool> &Recursive) {
  struct Site {
    uint32_t Id;
    FFuncId Caller, Callee;
  };
  std::vector<Site> Sites;
  for (FFuncId F = 0; F != P.functions().size(); ++F) {
    std::deque<FExprId> Work{P.functions()[F].Body};
    while (!Work.empty()) {
      const FExpr &Ex = P.expr(Work.front());
      Work.pop_front();
      if (Ex.Kind == FExpr::MkPair)
        Work.insert(Work.end(), {Ex.Kid0, Ex.Kid1});
      else if (Ex.Kind == FExpr::Proj || Ex.Kind == FExpr::Call)
        Work.push_back(Ex.Kid0);
      if (Ex.Kind == FExpr::Call)
        Sites.push_back({Ex.CallSite, F, Ex.Callee});
    }
  }
  DfaBuilder Builder;
  std::map<uint32_t, std::pair<SymbolId, SymbolId>> Syms;
  for (const Site &S : Sites)
    if (!Recursive[S.Id])
      Syms[S.Id] = {Builder.addSymbol("call" + std::to_string(S.Id)),
                    Builder.addSymbol("ret" + std::to_string(S.Id))};
  auto siteById = [&](uint32_t Id) {
    return *std::find_if(Sites.begin(), Sites.end(),
                         [&](const Site &S) { return S.Id == Id; });
  };
  std::map<std::vector<uint32_t>, StateId> States;
  std::deque<std::vector<uint32_t>> Work;
  auto intern = [&](const std::vector<uint32_t> &Chain) {
    auto [It, New] = States.emplace(Chain, 0);
    if (New) {
      It->second = Builder.addState();
      Work.push_back(Chain);
    }
    return It->second;
  };
  StateId Root = intern({});
  Builder.setStart(Root);
  Builder.setAccepting(Root);
  while (!Work.empty()) {
    std::vector<uint32_t> Chain = Work.front();
    Work.pop_front();
    StateId From = States.at(Chain);
    for (const Site &S : Sites) {
      if (Recursive[S.Id])
        continue;
      if (Chain.empty() || siteById(Chain.back()).Callee == S.Caller) {
        std::vector<uint32_t> Next = Chain;
        Next.push_back(S.Id);
        Builder.addTransition(From, Syms[S.Id].first, intern(Next));
      }
      if (!Chain.empty() && Chain.back() == S.Id)
        Builder.addTransition(
            From, Syms[S.Id].second,
            intern(std::vector<uint32_t>(Chain.begin(), Chain.end() - 1)));
    }
  }
  return Builder.build();
}

/// The two automata are the same: alphabet, state numbering,
/// acceptance and every transition.
void expectSameDfa(const Dfa &A, const Dfa &B) {
  ASSERT_EQ(A.alphabet(), B.alphabet());
  ASSERT_EQ(A.numStates(), B.numStates());
  EXPECT_EQ(A.start(), B.start());
  for (StateId S = 0; S != A.numStates(); ++S) {
    EXPECT_EQ(A.isAccepting(S), B.isAccepting(S)) << "state " << S;
    for (SymbolId Sym = 0; Sym != A.numSymbols(); ++Sym)
      EXPECT_EQ(A.next(S, Sym), B.next(S, Sym))
          << "state " << S << " symbol " << A.symbolName(Sym);
  }
}

TEST(FlowAutomaton, TrieBuildMatchesChainConstruction) {
  std::vector<FlowProgram> Corpus = corpus();
  size_t NonTrivialCall = 0;
  for (size_t I = 0; I != Corpus.size(); ++I) {
    SCOPED_TRACE("program " + std::to_string(I));
    const FlowProgram &P = Corpus[I];
    expectSameDfa(buildPairAutomaton(P), referencePairAutomaton(P));
    std::vector<SymbolId> CallSyms;
    Dfa Calls = buildCallAutomaton(P, &CallSyms);
    std::vector<bool> Recursive(P.numCallSites());
    for (uint32_t Site = 0; Site != P.numCallSites(); ++Site)
      Recursive[Site] = CallSyms[2 * Site] == InvalidSymbol;
    expectSameDfa(Calls, referenceCallAutomaton(P, Recursive));
    NonTrivialCall += Calls.numStates() > 2;
  }
  EXPECT_GT(NonTrivialCall, 0u);
}

TEST(FlowAnalysis, EveryVariableOccursInSomeConstraint) {
  // One variable per expression label and per signature: an analysis
  // allocates no label that no constraint reads. The one exception is
  // the parameter label of a function nobody calls whose body never
  // reads its parameter (main (z : int) ... in most programs here):
  // its signature is labeled up front, and nothing flows in or out.
  std::vector<FlowProgram> Corpus = corpus();
  for (size_t I = 0; I != Corpus.size(); ++I)
    for (FlowMode Mode : {FlowMode::Primal, FlowMode::Dual}) {
      SCOPED_TRACE("program " + std::to_string(I) +
                   (Mode == FlowMode::Primal ? " primal" : " dual"));
      const FlowProgram &P = Corpus[I];
      FlowAnalysis FA(P, Mode);
      const ConstraintSystem &CS = FA.system();
      std::vector<bool> Used(CS.numVars(), false);
      auto mark = [&](ExprId E) {
        const Expr &X = CS.expr(E);
        if (X.Kind != ExprKind::Cons)
          Used[X.V] = true;
        for (VarId A : CS.args(X))
          Used[A] = true;
      };
      for (const Constraint &C : CS.constraints()) {
        mark(C.Lhs);
        mark(C.Rhs);
      }
      std::vector<bool> Called(P.functions().size(), false);
      for (FExprId E = 0; E != P.numExprs(); ++E)
        if (P.expr(E).Kind == FExpr::Call)
          Called[P.expr(E).Callee] = true;
      std::vector<bool> IdleParam(CS.numVars(), false);
      for (FFuncId F = 0; F != P.functions().size(); ++F)
        if (!Called[F])
          IdleParam[FA.paramLabel(F)] = true;
      for (VarId V = 0; V != CS.numVars(); ++V)
        EXPECT_TRUE(Used[V] || IdleParam[V]) << "variable " << CS.varName(V);
    }
}

} // namespace
