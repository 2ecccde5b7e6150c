//===- tests/pdmc_test.cpp - Pushdown model checking tests ------*- C++ -*-===//
//
// Part of the RASC project: regularly annotated set constraints.
//
//===----------------------------------------------------------------------===//

#include "EncodeReference.h"

#include "automata/Monoid.h"
#include "dataflow/BitVector.h"
#include "ebpf/Cfg.h"
#include "ebpf/Decode.h"
#include "ebpf/Lower.h"
#include "pdmc/Checker.h"
#include "pdmc/Properties.h"
#include "progen/EbpfGen.h"
#include "progen/ProgramGen.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <set>

using namespace rasc;

namespace {

/// The Section 6.3 example:
///   s1: seteuid(0);
///   s2: if (...) { s3: seteuid(getuid()); } else { s4: ... }
///   s5: execl("/bin/sh", ...);
struct Section63 {
  Program P;
  StmtId S1, S2, S3, S4, S5, S6;

  Section63() {
    FuncId Main = P.addFunction("main");
    S1 = P.addOp(Main, "seteuid_zero", {}, "seteuid(0)");
    S2 = P.addNop(Main, "if (...)");
    S3 = P.addOp(Main, "seteuid_nonzero", {}, "seteuid(getuid())");
    S4 = P.addNop(Main, "else");
    S5 = P.addOp(Main, "execl", {}, "execl(\"/bin/sh\")");
    S6 = P.addNop(Main, "after");
    P.addEdge(P.entry(Main), S1);
    P.addEdge(S1, S2);
    P.addEdge(S2, S3);
    P.addEdge(S2, S4);
    P.addEdge(S3, S5);
    P.addEdge(S4, S5);
    P.addEdge(S5, S6);
    P.finalize();
  }
};

TEST(Pdmc, Section63ViolationFound) {
  Section63 E;
  SpecAutomaton Spec = simplePrivilegeSpec();
  RascChecker C(E.P, Spec);
  std::vector<Violation> V = C.check();
  ASSERT_EQ(V.size(), 1u);
  EXPECT_EQ(V[0].Where, E.S5); // the execl is the violation
  EXPECT_TRUE(V[0].CallStack.empty());
}

TEST(Pdmc, Section63EventTrace) {
  // The violation's event trace is the property-relevant word of a
  // violating path: seteuid_zero then execl.
  Section63 E;
  SpecAutomaton Spec = simplePrivilegeSpec();
  RascChecker C(E.P, Spec);
  std::vector<Violation> V = C.check();
  ASSERT_EQ(V.size(), 1u);
  ASSERT_EQ(V[0].EventTrace.size(), 2u);
  EXPECT_EQ(V[0].EventTrace[0], "seteuid_zero");
  EXPECT_EQ(V[0].EventTrace[1], "execl");
}

TEST(Pdmc, Section63MopsAgrees) {
  Section63 E;
  SpecAutomaton Spec = simplePrivilegeSpec();
  MopsChecker C(E.P, Spec);
  std::vector<Violation> V = C.check();
  ASSERT_EQ(V.size(), 1u);
  EXPECT_EQ(V[0].Where, E.S5);
}

TEST(Pdmc, FixedProgramHasNoViolation) {
  // Dropping privileges on *both* branches fixes the program.
  Program P;
  FuncId Main = P.addFunction("main");
  StmtId S1 = P.addOp(Main, "seteuid_zero");
  StmtId S3 = P.addOp(Main, "seteuid_nonzero");
  StmtId S4 = P.addOp(Main, "seteuid_nonzero");
  StmtId S5 = P.addOp(Main, "execl");
  P.addEdge(P.entry(Main), S1);
  P.addEdge(S1, S3);
  P.addEdge(S1, S4);
  P.addEdge(S3, S5);
  P.addEdge(S4, S5);
  P.finalize();

  SpecAutomaton Spec = simplePrivilegeSpec();
  EXPECT_TRUE(RascChecker(P, Spec).check().empty());
  EXPECT_TRUE(MopsChecker(P, Spec).check().empty());
}

TEST(Pdmc, InterproceduralViolationWithWitnessStack) {
  // main calls helper; helper acquires privilege; main then calls
  // runShell which execs. The privilege state flows across calls and
  // returns (matched call/return paths).
  Program P;
  FuncId Main = P.addFunction("main");
  FuncId Helper = P.addFunction("helper");
  FuncId Shell = P.addFunction("runShell");

  StmtId CallHelper = P.addCall(Main, Helper);
  StmtId CallShell = P.addCall(Main, Shell);
  P.addEdge(P.entry(Main), CallHelper);
  P.addEdge(CallHelper, CallShell);

  StmtId Acquire = P.addOp(Helper, "seteuid_zero");
  P.addEdge(P.entry(Helper), Acquire);

  StmtId Exec = P.addOp(Shell, "execl");
  P.addEdge(P.entry(Shell), Exec);
  P.finalize();

  SpecAutomaton Spec = simplePrivilegeSpec();
  RascChecker C(P, Spec);
  std::vector<Violation> V = C.check();
  ASSERT_EQ(V.size(), 1u);
  EXPECT_EQ(V[0].Where, Exec);
  // The exec happens inside runShell, called (and not yet returned)
  // from main.
  ASSERT_EQ(V[0].CallStack.size(), 1u);
  EXPECT_EQ(V[0].CallStack[0], CallShell);

  MopsChecker M(P, Spec);
  std::vector<Violation> VM = M.check();
  ASSERT_EQ(VM.size(), 1u);
  EXPECT_EQ(VM[0].Where, Exec);
  ASSERT_EQ(VM[0].CallStack.size(), 1u);
  EXPECT_EQ(VM[0].CallStack[0], CallShell);
}

TEST(Pdmc, PrivilegeDropInCalleeIsRespected) {
  // helper drops privilege before main execs: no violation.
  Program P;
  FuncId Main = P.addFunction("main");
  FuncId Helper = P.addFunction("drop");
  StmtId Acquire = P.addOp(Main, "seteuid_zero");
  StmtId CallDrop = P.addCall(Main, Helper);
  StmtId Exec = P.addOp(Main, "execl");
  P.addEdge(P.entry(Main), Acquire);
  P.addEdge(Acquire, CallDrop);
  P.addEdge(CallDrop, Exec);
  StmtId Drop = P.addOp(Helper, "seteuid_nonzero");
  P.addEdge(P.entry(Helper), Drop);
  P.finalize();

  SpecAutomaton Spec = simplePrivilegeSpec();
  EXPECT_TRUE(RascChecker(P, Spec).check().empty());
  EXPECT_TRUE(MopsChecker(P, Spec).check().empty());
}

TEST(Pdmc, ParametricFileState) {
  // Figure 6 plus a double open of fd1: open(fd1); open(fd2);
  // close(fd1); open(fd1) is fine, but a second open(fd2) is a
  // violation for fd2 only.
  Program P;
  FuncId Main = P.addFunction("main");
  StmtId O1 = P.addOp(Main, "open", {"fd1"});
  StmtId O2 = P.addOp(Main, "open", {"fd2"});
  StmtId C1 = P.addOp(Main, "close", {"fd1"});
  StmtId O2b = P.addOp(Main, "open", {"fd2"});
  P.addEdge(P.entry(Main), O1);
  P.addEdge(O1, O2);
  P.addEdge(O2, C1);
  P.addEdge(C1, O2b);
  P.finalize();

  SpecAutomaton Spec = fileStateSpec();
  RascChecker C(P, Spec);
  std::vector<Violation> V = C.check();
  ASSERT_EQ(V.size(), 1u);
  EXPECT_EQ(V[0].Where, O2b);
  EXPECT_EQ(V[0].Instantiation, "x:fd2");

  MopsChecker M(P, Spec);
  std::vector<Violation> VM = M.check();
  ASSERT_EQ(VM.size(), 1u);
  EXPECT_EQ(VM[0].Where, O2b);
  EXPECT_EQ(VM[0].Instantiation, "x:fd2");
}

TEST(Pdmc, FullPrivilegeModelShape) {
  SpecAutomaton Spec = fullPrivilegeSpec();
  // 11 states, 9 symbols, as reported for Property 1 in the paper's
  // Section 8.
  EXPECT_EQ(Spec.machine().numStates(), 11u);
  EXPECT_EQ(Spec.machine().numSymbols(), 9u);

  // The representative function set stays far below the
  // superexponential worst case (the paper's automaton had 58; this
  // model's transition table gives 47).
  TransitionMonoid Mon(Spec.machine());
  EXPECT_TRUE(Mon.enumerateAll());
  EXPECT_LT(Mon.size(), 500u);
  EXPECT_GT(Mon.size(), 10u);
  EXPECT_EQ(Mon.size(), 47u);
}

TEST(Pdmc, FullPrivilegeModelCatchesTemporaryDropBug) {
  // seteuid(user) only drops temporarily: a later seteuid(0) regains
  // root, so exec after regaining is flagged, while exec after a
  // permanent drop (setuid_user) is safe.
  SpecAutomaton Spec = fullPrivilegeSpec();

  Program P;
  FuncId Main = P.addFunction("main");
  StmtId TempDrop = P.addOp(Main, "seteuid_user");
  StmtId Regain = P.addOp(Main, "seteuid_zero");
  StmtId Exec = P.addOp(Main, "execl");
  P.addEdge(P.entry(Main), TempDrop);
  P.addEdge(TempDrop, Regain);
  P.addEdge(Regain, Exec);
  P.finalize();
  std::vector<Violation> V = RascChecker(P, Spec).check();
  ASSERT_EQ(V.size(), 1u);
  EXPECT_EQ(V[0].Where, Exec);

  Program Q;
  FuncId Main2 = Q.addFunction("main");
  StmtId PermDrop = Q.addOp(Main2, "setuid_user");
  StmtId Regain2 = Q.addOp(Main2, "seteuid_zero"); // no saved root
  StmtId Exec2 = Q.addOp(Main2, "execl");
  Q.addEdge(Q.entry(Main2), PermDrop);
  Q.addEdge(PermDrop, Regain2);
  Q.addEdge(Regain2, Exec2);
  Q.finalize();
  EXPECT_TRUE(RascChecker(Q, Spec).check().empty());
}

/// Differential test: the annotated-constraint checker and the MOPS
/// pushdown baseline agree on random programs.
class PdmcDifferential : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PdmcDifferential, RascAgreesWithMops) {
  SpecAutomaton Spec = simplePrivilegeSpec();
  ProgGenOptions O;
  O.Seed = GetParam();
  O.NumFunctions = 3 + GetParam() % 4;
  O.StmtsPerFunction = 8 + GetParam() % 10;
  O.OpSymbols = {"seteuid_zero", "seteuid_nonzero", "execl"};
  O.OpPermille = 200;
  Program P = generateProgram(O);

  std::vector<Violation> VR = RascChecker(P, Spec).check();
  std::vector<Violation> VM = MopsChecker(P, Spec).check();

  auto Wheres = [](const std::vector<Violation> &V) {
    std::vector<StmtId> W;
    for (const Violation &X : V)
      W.push_back(X.Where);
    std::sort(W.begin(), W.end());
    W.erase(std::unique(W.begin(), W.end()), W.end());
    return W;
  };
  EXPECT_EQ(Wheres(VR), Wheres(VM)) << "seed " << GetParam();
}

TEST_P(PdmcDifferential, FullModelAgreesToo) {
  SpecAutomaton Spec = fullPrivilegeSpec();
  Program P = generatePackage(400 + 40 * GetParam(), Spec,
                              GetParam() * 7919);

  std::vector<Violation> VR = RascChecker(P, Spec).check();
  std::vector<Violation> VM = MopsChecker(P, Spec).check();
  std::vector<Violation> VF =
      RascChecker(P, Spec, SolveStrategy::Forward).check();
  auto Wheres = [](const std::vector<Violation> &V) {
    std::vector<StmtId> W;
    for (const Violation &X : V)
      W.push_back(X.Where);
    std::sort(W.begin(), W.end());
    W.erase(std::unique(W.begin(), W.end()), W.end());
    return W;
  };
  EXPECT_EQ(Wheres(VR), Wheres(VM)) << "seed " << GetParam();
  // The Section 5 forward strategy answers the same queries.
  EXPECT_EQ(Wheres(VR), Wheres(VF)) << "seed " << GetParam();
}

TEST_P(PdmcDifferential, ParametricAgreement) {
  SpecAutomaton Spec = fileStateSpec();
  ProgGenOptions O;
  O.Seed = GetParam() ^ 0xf11e;
  O.NumFunctions = 2 + GetParam() % 3;
  O.StmtsPerFunction = 6 + GetParam() % 8;
  O.OpSymbols = {"open", "close"};
  O.ParametricSymbols = {"open", "close"};
  O.Labels = {"fd1", "fd2"};
  O.OpPermille = 250;
  Program P = generateProgram(O);

  std::vector<Violation> VR = RascChecker(P, Spec).check();
  std::vector<Violation> VM = MopsChecker(P, Spec).check();
  auto Keyed = [](const std::vector<Violation> &V) {
    std::vector<std::pair<StmtId, std::string>> W;
    for (const Violation &X : V)
      W.emplace_back(X.Where, X.Instantiation);
    std::sort(W.begin(), W.end());
    W.erase(std::unique(W.begin(), W.end()), W.end());
    return W;
  };
  EXPECT_EQ(Keyed(VR), Keyed(VM)) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, PdmcDifferential,
                         ::testing::Range(uint64_t(1), uint64_t(40)));

//===----------------------------------------------------------------------===//
// Exactness of encodeProgram's shared statement variables
//===----------------------------------------------------------------------===//

/// Renders an annotation so that equal elements of two separately built
/// domains compare equal. A substitution environment's entries are
/// sorted by their rendered keys, because each domain numbers parameter
/// names in its own intern order.
std::string canonical(const AnnotationDomain &D, AnnId F) {
  const auto *Env = dynamic_cast<const SubstEnvDomain *>(&D);
  if (!Env)
    return D.toString(F);
  std::vector<std::string> Entries;
  for (const SubstEntry &E : Env->entries(F)) {
    std::string Key;
    for (const ParamBinding &B : E.Key)
      Key += Env->nameStr(B.Param) + ":" + Env->nameStr(B.Label) + ",";
    Entries.push_back(Key + "->" + Env->base().toString(E.Value));
  }
  std::sort(Entries.begin(), Entries.end());
  std::string Out = Env->base().toString(Env->residual(F));
  for (const std::string &E : Entries)
    Out += ";" + E;
  return Out;
}

std::set<std::string> canonicalSet(const AnnotationDomain &D,
                                   std::span<const AnnId> Anns) {
  std::set<std::string> Out;
  for (AnnId F : Anns)
    Out.insert(canonical(D, F));
  return Out;
}

ConsId findConstant(const ConstraintSystem &CS, const std::string &Name) {
  for (ConsId C = 0; C != CS.numConstructors(); ++C)
    if (CS.constructorName(C) == Name)
      return C;
  ADD_FAILURE() << "no constructor " << Name;
  return 0;
}

bool isParametric(const SpecAutomaton &Spec) {
  for (SymbolId S = 0; S != Spec.machine().numSymbols(); ++S)
    if (Spec.isParametric(S))
      return true;
  return false;
}

/// The literal Section 6.1 encoding, built here independently of
/// encodeProgram: one variable per statement, S ⊆^a Si for every edge
/// of a non-call statement, where a = \p Ann(S) is the statement's
/// annotation in \p D (the identity for an identity statement),
/// o_i(S) ⊆ F_entry and o_i^-1(F_exit) ⊆ Si for calls, pc ⊆ S_main.
struct LiteralEncoding {
  std::unique_ptr<ConstraintSystem> CS;
  std::vector<VarId> Vars;
  std::unique_ptr<BidirectionalSolver> Solver;
  AtomReachability AR;

  LiteralEncoding(const Program &P, AnnotationDomain &D,
                  const std::function<AnnId(StmtId)> &Ann) {
    CS = std::make_unique<ConstraintSystem>(D);
    for (StmtId S = 0; S != P.numStatements(); ++S)
      Vars.push_back(CS->freshVar("L" + std::to_string(S)));
    ConsId Pc = CS->addConstant("pc");
    CS->add(CS->cons(Pc), CS->var(Vars[P.entry(P.mainFunction())]));
    for (StmtId S = 0; S != P.numStatements(); ++S) {
      const Stmt &St = P.stmt(S);
      if (St.Kind == Stmt::Call) {
        ConsId O = CS->addConstructor("o" + std::to_string(S), 1);
        CS->add(CS->cons(O, {Vars[S]}), CS->var(Vars[P.entry(St.Callee)]));
        for (StmtId Succ : P.succs(S))
          CS->add(CS->proj(O, 0, Vars[P.exit(St.Callee)]),
                  CS->var(Vars[Succ]));
        continue;
      }
      AnnId A = Ann(S);
      for (StmtId Succ : P.succs(S))
        CS->add(CS->var(Vars[S]), CS->var(Vars[Succ]), A);
    }
    Solver = std::make_unique<BidirectionalSolver>(*CS);
    EXPECT_EQ(Solver->solve(), BidirectionalSolver::Status::Solved);
    AR = Solver->atomReachability(Pc);
  }

  /// Every statement's reaching classes in \p Shared (solved, with
  /// statement variables \p StmtVar) equal this encoding's.
  void expectSameClasses(const Program &P, BidirectionalSolver &Shared,
                         const std::function<VarId(StmtId)> &StmtVar,
                         const std::string &What) const {
    const ConstraintSystem &SCS = Shared.system();
    AtomReachability SAR = Shared.atomReachability(findConstant(SCS, "pc"));
    for (StmtId S = 0; S != P.numStatements(); ++S)
      ASSERT_EQ(canonicalSet(SCS.domain(), SAR.annotations(StmtVar(S))),
                canonicalSet(CS->domain(), AR.annotations(Vars[S])))
          << What << ", statement " << P.describe(S);
  }
};

/// The property domain of \p Spec, and each statement's annotation in
/// it: the symbol's step (instantiated for a parametric operation) for
/// an operation of the property's alphabet, the identity otherwise.
struct PdmcAnnotations {
  const Program &P;
  const SpecAutomaton &Spec;
  std::unique_ptr<MonoidDomain> Base;
  std::unique_ptr<SubstEnvDomain> Env;

  PdmcAnnotations(const Program &P, const SpecAutomaton &Spec)
      : P(P), Spec(Spec),
        Base(std::make_unique<MonoidDomain>(Spec.machine())) {
    if (isParametric(Spec))
      Env = std::make_unique<SubstEnvDomain>(*Base);
  }

  AnnotationDomain &domain() {
    return Env ? static_cast<AnnotationDomain &>(*Env) : *Base;
  }

  AnnId operator()(StmtId S) const {
    const Stmt &St = P.stmt(S);
    std::optional<SymbolId> Sym =
        St.Kind == Stmt::Op ? Spec.machine().symbol(P.symbolName(St.OpSym))
                            : std::nullopt;
    if (!Sym)
      return Env ? Env->identity() : Base->identity();
    AnnId Ann = Base->symbolAnn(*Sym);
    const SpecSymbol &Decl = Spec.symbols()[*Sym];
    if (Env && Decl.Params.empty())
      return Env->lift(Ann);
    if (!Env)
      return Ann;
    std::vector<ParamBinding> Key;
    for (size_t I = 0; I != Decl.Params.size(); ++I)
      Key.push_back(
          {Env->name(Decl.Params[I]), Env->name(P.labels(S)[I])});
    return Env->instantiate(std::move(Key), Ann);
  }
};

/// Every statement's least solution under RascChecker's encoding equals
/// the literal encoding's, and the bidirectional, forward (when the
/// property allows it) and MOPS checkers report the same violations.
void expectExact(const Program &P, const SpecAutomaton &Spec,
                 const std::string &What) {
  PdmcAnnotations Ann(P, Spec);
  LiteralEncoding L(P, Ann.domain(), [&](StmtId S) { return Ann(S); });
  // encodeProgram matches the reference encoder byte for byte, under
  // the annotations RascChecker hands it (IdentityStmt where a
  // statement is not a relevant operation).
  std::vector<AnnId> Anns(P.numStatements(), IdentityStmt);
  for (StmtId S = 0; S != P.numStatements(); ++S)
    if (P.stmt(S).Kind == Stmt::Op &&
        Spec.machine().symbol(P.symbolName(P.stmt(S).OpSym)))
      Anns[S] = Ann(S);
  EXPECT_EQ(testgen::diffEncodings(P, Ann.domain(), Anns), "") << What;
  RascChecker C(P, Spec);
  C.prepare();
  ASSERT_EQ(C.solver()->solve(), BidirectionalSolver::Status::Solved)
      << What;
  L.expectSameClasses(P, *C.solver(),
                      [&](StmtId S) { return C.stmtVar(S); }, What);

  std::vector<Violation> VB = C.collectViolations();
  EXPECT_EQ(VB, MopsChecker(P, Spec).check()) << What;
  if (!isParametric(Spec)) {
    EXPECT_EQ(VB, RascChecker(P, Spec, SolveStrategy::Forward).check())
        << What;
  }
}

/// The same for AnnotatedBitVectorAnalysis, whose statements carry
/// their gen/kill transfer functions; its may/must answers also equal
/// the iterative baseline's.
void expectDataflowExact(const BitVectorProblem &Prob,
                         const std::string &What) {
  const Program &P = Prob.program();
  GenKillDomain D(Prob.numBits());
  LiteralEncoding L(P, D, [&](StmtId S) {
    return D.transfer(Prob.gens(S), Prob.kills(S));
  });
  std::vector<AnnId> Anns(P.numStatements(), IdentityStmt);
  for (StmtId S = 0; S != P.numStatements(); ++S)
    if (P.stmt(S).Kind != Stmt::Call &&
        (Prob.gens(S) != 0 || Prob.kills(S) != 0))
      Anns[S] = D.transfer(Prob.gens(S), Prob.kills(S));
  EXPECT_EQ(testgen::diffEncodings(P, D, Anns), "") << What;
  AnnotatedBitVectorAnalysis A(Prob);
  A.prepare();
  ASSERT_EQ(A.solver()->solve(), BidirectionalSolver::Status::Solved)
      << What;
  L.expectSameClasses(P, *A.solver(),
                      [&](StmtId S) { return A.stmtVar(S); }, What);

  A.finalize();
  IterativeBitVectorAnalysis I(Prob);
  I.solve();
  for (StmtId S = 0; S != P.numStatements(); ++S)
    for (unsigned B = 0; B != Prob.numBits(); ++B) {
      ASSERT_EQ(A.mayHold(S, B), I.mayHold(S, B))
          << What << ", may, statement " << S << " bit " << B;
      ASSERT_EQ(A.mustHold(S, B), I.mustHold(S, B))
          << What << ", must, statement " << S << " bit " << B;
    }
}

TEST(PdmcExactness, GeneratedPackages) {
  SpecAutomaton Priv = fullPrivilegeSpec();
  SpecAutomaton File = fileStateSpec();
  for (uint64_t Seed = 1; Seed != 6; ++Seed) {
    for (const SpecAutomaton *Spec : {&Priv, &File}) {
      Program P = generatePackage(1500 + 300 * Seed, *Spec, Seed * 7919);
      expectExact(P, *Spec, "package seed " + std::to_string(Seed));
      // Most statements are irrelevant, so most share a variable.
      RascChecker C(P, *Spec);
      C.prepare();
      EXPECT_LT(C.system().numVars(), P.numStatements() / 2);
    }
  }
}

TEST(PdmcExactness, GeneratedPrograms) {
  SpecAutomaton Priv = fullPrivilegeSpec();
  SpecAutomaton File = fileStateSpec();
  for (uint64_t Seed = 1; Seed != 13; ++Seed) {
    for (bool Recursion : {false, true}) {
      ProgGenOptions O;
      O.Seed = Seed;
      O.NumFunctions = 3 + Seed % 4;
      O.StmtsPerFunction = 8 + Seed % 10;
      O.OpPermille = 80;
      O.AllowRecursion = Recursion;
      std::string What = "program seed " + std::to_string(Seed) +
                         (Recursion ? " recursive" : " acyclic");
      O.OpSymbols = {"seteuid_zero", "seteuid_user", "setuid_user",
                     "execl"};
      expectExact(generateProgram(O), Priv, What);
      O.OpSymbols = O.ParametricSymbols = {"open", "close"};
      O.Labels = {"fd1", "fd2"};
      expectExact(generateProgram(O), File, What + " file-state");
    }
  }
}

TEST(PdmcExactness, DataflowGeneratedPrograms) {
  for (uint64_t Seed = 1; Seed != 13; ++Seed) {
    for (bool Recursion : {false, true}) {
      ProgGenOptions O;
      O.Seed = Seed;
      O.NumFunctions = 3 + Seed % 4;
      O.StmtsPerFunction = 8 + Seed % 10;
      O.AllowRecursion = Recursion;
      Program P = generateProgram(O);
      // Each bit of each non-call is gen'd or killed with chance 1/6,
      // so many statements are identity statements.
      Rng R(Seed * 31 + Recursion);
      unsigned Bits = 1 + Seed % 3;
      BitVectorProblem Prob(P, Bits);
      for (StmtId S = 0; S != P.numStatements(); ++S)
        for (unsigned B = 0; B != Bits; ++B) {
          if (R.chance(1, 6))
            Prob.setGen(S, B);
          if (R.chance(1, 6))
            Prob.setKill(S, B);
        }
      expectDataflowExact(Prob, "program seed " + std::to_string(Seed) +
                                    (Recursion ? " recursive" : " acyclic"));
    }
  }
}

TEST(PdmcExactness, DataflowEbpfCorpus) {
  // The golden corpus and 57 generated programs, lowered to the
  // register-initialization problem.
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
  size_t Statements = 0, Vars = 0;
  for (size_t I = 0; I != Corpus.size(); ++I) {
    Expected<ebpf::DecodedProgram> D = ebpf::decode(Corpus[I]);
    ASSERT_TRUE(D) << "corpus program " << I;
    ebpf::Cfg G = ebpf::buildCfg(std::move(*D));
    ebpf::DataflowLowering Df = ebpf::lowerToDataflow(G);
    expectDataflowExact(*Df.Problem, "corpus program " + std::to_string(I));
    AnnotatedBitVectorAnalysis A(*Df.Problem);
    A.prepare();
    Statements += Df.Prog->numStatements();
    Vars += A.system().numVars();
  }
  // Most instructions define or kill a register, so the sharing is
  // modest, but fall-through chains of stores, branches and the exit
  // still share.
  EXPECT_LT(Vars, Statements);
}

/// A hand-built main function for the shapes below: entry -> Z
/// (seteuid_zero) -> ..., with execl ops as the violation candidates.
struct HandBuilt {
  Program P;
  FuncId Main = P.addFunction("main");
  StmtId Zero = P.addOp(Main, "seteuid_zero");
  HandBuilt() { P.addEdge(P.entry(Main), Zero); }
  StmtId nop() { return P.addNop(Main); }
  StmtId op(const char *Sym) { return P.addOp(Main, Sym); }
  void edges(std::initializer_list<std::pair<StmtId, StmtId>> Es) {
    for (auto [From, To] : Es)
      P.addEdge(From, To);
  }
  std::vector<Violation> check(SpecAutomaton &Spec) {
    P.finalize();
    expectExact(P, Spec, "hand-built");
    return RascChecker(P, Spec).check();
  }
};

TEST(PdmcExactness, IdentityLoopSharesTheVariableBeforeIt) {
  // Z -> N -> H <-> L, H -> E(execl): H's predecessors are N and the
  // loop's L, which joins H first; then H, L and E join N.
  SpecAutomaton Spec = simplePrivilegeSpec();
  HandBuilt B;
  StmtId N = B.nop(), H = B.nop(), L = B.nop(), E = B.op("execl");
  B.edges({{B.Zero, N}, {N, H}, {H, L}, {L, H}, {H, E}});
  std::vector<Violation> V = B.check(Spec);
  RascChecker C(B.P, Spec);
  C.prepare();
  EXPECT_EQ(C.stmtVar(H), C.stmtVar(N));
  EXPECT_EQ(C.stmtVar(L), C.stmtVar(N));
  EXPECT_EQ(C.stmtVar(E), C.stmtVar(N));
  EXPECT_NE(C.stmtVar(N), C.stmtVar(B.Zero));
  ASSERT_EQ(V.size(), 1u);
  EXPECT_EQ(V[0].Where, E);
}

TEST(PdmcExactness, RejoinedNopDiamondSharesOneVariable) {
  SpecAutomaton Spec = simplePrivilegeSpec();
  HandBuilt B;
  StmtId D = B.nop(), A = B.nop(), Bn = B.nop(), J = B.nop(),
         E = B.op("execl");
  B.edges({{B.Zero, D}, {D, A}, {D, Bn}, {A, J}, {Bn, J}, {J, E}});
  std::vector<Violation> V = B.check(Spec);
  RascChecker C(B.P, Spec);
  C.prepare();
  for (StmtId S : {A, Bn, J, E})
    EXPECT_EQ(C.stmtVar(S), C.stmtVar(D));
  ASSERT_EQ(V.size(), 1u);
  EXPECT_EQ(V[0].Where, E);
}

TEST(PdmcExactness, RelevantOpBeforeAJoinKeepsTheJoinApart) {
  // D -> A(seteuid_nonzero) -> J and D -> Bn -> J: J has a relevant
  // predecessor, so it keeps its own variable. A itself is relevant but
  // its only predecessor is an identity statement, so it joins D.
  SpecAutomaton Spec = simplePrivilegeSpec();
  HandBuilt B;
  StmtId D = B.nop(), A = B.op("seteuid_nonzero"), Bn = B.nop(),
         J = B.nop(), E = B.op("execl");
  B.edges({{B.Zero, D}, {D, A}, {D, Bn}, {A, J}, {Bn, J}, {J, E}});
  std::vector<Violation> V = B.check(Spec);
  RascChecker C(B.P, Spec);
  C.prepare();
  EXPECT_EQ(C.stmtVar(A), C.stmtVar(D));
  EXPECT_EQ(C.stmtVar(Bn), C.stmtVar(D));
  EXPECT_NE(C.stmtVar(J), C.stmtVar(D));
  EXPECT_EQ(C.stmtVar(E), C.stmtVar(J));
  ASSERT_EQ(V.size(), 1u); // the Bn path still holds privilege
  EXPECT_EQ(V[0].Where, E);
}

TEST(PdmcExactness, ReturnSuccessorKeepsItsOwnVariable) {
  // main: Z -> N -> call drop -> R -> E(execl); drop's body is a Nop on
  // one branch and seteuid_nonzero on the other. The call joins N, the
  // return site R does not (its lower bound is the projection), and the
  // callee's entry keeps its own variable.
  SpecAutomaton Spec = simplePrivilegeSpec();
  HandBuilt B;
  FuncId Drop = B.P.addFunction("drop");
  StmtId N = B.nop(), Call = B.P.addCall(B.Main, Drop), R = B.nop(),
         E = B.op("execl");
  B.edges({{B.Zero, N}, {N, Call}, {Call, R}, {R, E}});
  StmtId In = B.P.addNop(Drop), Off = B.P.addOp(Drop, "seteuid_nonzero");
  B.P.addEdge(B.P.entry(Drop), In);
  B.P.addEdge(B.P.entry(Drop), Off);
  std::vector<Violation> V = B.check(Spec);
  RascChecker C(B.P, Spec);
  C.prepare();
  EXPECT_EQ(C.stmtVar(Call), C.stmtVar(N));
  EXPECT_NE(C.stmtVar(R), C.stmtVar(Call));
  EXPECT_EQ(C.stmtVar(E), C.stmtVar(R));
  EXPECT_EQ(C.stmtVar(In), C.stmtVar(B.P.entry(Drop)));
  EXPECT_NE(C.stmtVar(B.P.exit(Drop)), C.stmtVar(B.P.entry(Drop)));
  ASSERT_EQ(V.size(), 1u);
  EXPECT_EQ(V[0].Where, E);
}

TEST(PdmcExactness, UnreachableNopCycleStaysEmpty) {
  // U1 <-> U2 is unreachable and feeds the join J, whose other
  // predecessor N is reachable: J has two classes above it and stays
  // apart, and the cycle's solution stays empty.
  SpecAutomaton Spec = simplePrivilegeSpec();
  HandBuilt B;
  StmtId N = B.nop(), U1 = B.nop(), U2 = B.nop(), J = B.nop(),
         E = B.op("execl");
  B.edges({{B.Zero, N}, {U1, U2}, {U2, U1}, {N, J}, {U2, J}, {J, E}});
  std::vector<Violation> V = B.check(Spec);
  RascChecker C(B.P, Spec);
  C.prepare();
  EXPECT_EQ(C.stmtVar(U1), C.stmtVar(U2));
  EXPECT_NE(C.stmtVar(J), C.stmtVar(N));
  EXPECT_NE(C.stmtVar(J), C.stmtVar(U1));
  ASSERT_EQ(V.size(), 1u);
  EXPECT_EQ(V[0].Where, E);
}

TEST(PdmcExactness, RelevantStatementMergedIntoItsLoopHead) {
  // N -> R(seteuid_zero) -> N: R joins N, so its edge back to N becomes
  // an annotated self-loop, which is kept; E(execl) after the loop is a
  // violation although Z was dropped before the loop.
  SpecAutomaton Spec = simplePrivilegeSpec();
  HandBuilt B;
  StmtId Off = B.op("seteuid_nonzero"), N = B.nop(),
         R = B.op("seteuid_zero"), E = B.op("execl");
  B.edges({{B.Zero, Off}, {Off, N}, {N, R}, {R, N}, {N, E}});
  std::vector<Violation> V = B.check(Spec);
  RascChecker C(B.P, Spec);
  C.prepare();
  EXPECT_EQ(C.stmtVar(R), C.stmtVar(N));
  EXPECT_EQ(C.stmtVar(E), C.stmtVar(N));
  ASSERT_EQ(V.size(), 1u);
  EXPECT_EQ(V[0].Where, E);
}

TEST(PdmcExactness, EntryOnALoopKeepsItsOwnVariable) {
  // entry -> R(seteuid_zero) -> N -> entry, entry -> E(execl): the
  // entry's only CFG predecessor N is an identity statement, but the
  // entry also has pc as a lower bound, so it must not join N.
  SpecAutomaton Spec = simplePrivilegeSpec();
  Program P;
  FuncId Main = P.addFunction("main");
  StmtId R = P.addOp(Main, "seteuid_zero"), N = P.addNop(Main),
         E = P.addOp(Main, "execl");
  P.addEdge(P.entry(Main), R);
  P.addEdge(R, N);
  P.addEdge(N, P.entry(Main));
  P.addEdge(P.entry(Main), E);
  P.finalize();
  expectExact(P, Spec, "loop through the entry");
  RascChecker C(P, Spec);
  C.prepare();
  EXPECT_NE(C.stmtVar(P.entry(Main)), C.stmtVar(N));
  EXPECT_EQ(C.stmtVar(R), C.stmtVar(P.entry(Main)));
}

TEST(PdmcExactness, ParametricOpsInARejoinedDiamond) {
  SpecAutomaton Spec = fileStateSpec();
  Program P;
  FuncId Main = P.addFunction("main");
  StmtId O1 = P.addOp(Main, "open", {"fd1"}), D = P.addNop(Main),
         A = P.addOp(Main, "close", {"fd1"}), Bn = P.addNop(Main),
         J = P.addNop(Main), O2 = P.addOp(Main, "open", {"fd1"});
  for (auto [From, To] : {std::pair{P.entry(Main), O1}, {O1, D}, {D, A},
                          {D, Bn}, {A, J}, {Bn, J}, {J, O2}})
    P.addEdge(From, To);
  P.finalize();
  expectExact(P, Spec, "parametric diamond");
  std::vector<Violation> V = RascChecker(P, Spec).check();
  ASSERT_EQ(V.size(), 1u);
  EXPECT_EQ(V[0].Where, O2);
  EXPECT_EQ(V[0].Instantiation, "x:fd1");
}

/// Checks every bidirectional violation's witnesses on \p P: the call
/// stack is a realizable chain of unreturned calls from main to the
/// violating statement's function, and the event trace drives the
/// property from its start state into an accepting state. Counts the
/// violations checked and those under at least one call.
void checkWitnesses(const Program &P, const SpecAutomaton &Spec,
                    const std::string &Package, size_t &Checked,
                    size_t &Nested) {
  const Dfa &M = Spec.machine();
  for (const Violation &V : RascChecker(P, Spec).check()) {
    std::string What = Package + ", violation at " + P.describe(V.Where);
    FuncId F = P.mainFunction();
    for (StmtId Call : V.CallStack) {
      ASSERT_EQ(P.stmt(Call).Kind, Stmt::Call) << What;
      EXPECT_EQ(P.stmt(Call).Parent, F) << What;
      F = P.stmt(Call).Callee;
    }
    EXPECT_EQ(P.stmt(V.Where).Parent, F) << What;
    ASSERT_FALSE(V.EventTrace.empty()) << What;
    EXPECT_EQ(V.EventTrace.back(), P.symbolName(P.stmt(V.Where).OpSym)) << What;
    StateId Q = M.start();
    for (const std::string &Event : V.EventTrace) {
      std::optional<SymbolId> Sym = M.symbol(Event);
      ASSERT_TRUE(Sym) << What << ": " << Event;
      Q = M.next(Q, *Sym);
    }
    EXPECT_TRUE(M.isAccepting(Q)) << What;
    ++Checked;
    Nested += !V.CallStack.empty();
  }
}

/// Every bidirectional violation's witnesses on Table 1-sized packages.
TEST(PdmcWitness, PackageViolationWitnessesAreRealizable) {
  SpecAutomaton Spec = fullPrivilegeSpec();
  size_t Checked = 0, Nested = 0;
  for (size_t Lines : {4000, 8000, 16000, 32000})
    checkWitnesses(generatePackage(Lines, Spec, 7 + Lines), Spec,
                   std::to_string(Lines) + " lines", Checked, Nested);
  EXPECT_GT(Checked, 0u);
  EXPECT_GT(Nested, 0u);
}

/// The same on the benchmark's package sizes, five seeds each: the
/// witnesses follow the query's fact table back to its seed.
TEST(PdmcWitness, WitnessesAcrossPackageSizesAndSeeds) {
  SpecAutomaton Spec = fullPrivilegeSpec();
  size_t Checked = 0, Nested = 0;
  for (size_t Lines : {1000, 2000, 4000, 8000})
    for (uint64_t Seed = 1; Seed <= 5; ++Seed)
      checkWitnesses(generatePackage(Lines, Spec, Seed), Spec,
                     std::to_string(Lines) + " lines, seed " +
                         std::to_string(Seed),
                     Checked, Nested);
  EXPECT_GT(Checked, 0u);
  EXPECT_GT(Nested, 0u);
}

} // namespace
