//===- tests/names_on_demand_test.cpp - Lazy names --------------*- C++ -*-===//
//
// Part of the RASC project: regularly annotated set constraints.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The per-op construction paths store a number or a source tag where
/// they used to build a string, and render the text only when a report,
/// witness or proof log asks (DESIGN.md §5). These tests render every
/// such name and compare it with the string the eager code built:
///
///  - constraint-system names: "S<n>" of each pdmc and dataflow class
///    head, "o@<n>" per call site, the flow analysis's
///    "o<i>" and "src@<e>";
///  - automaton symbols: every bracket "[i_tau" of the Section 7 pair
///    automaton and every "call<i>"/"ret<i>" of the call automaton;
///  - eBPF notes: "insn I: <disassembly>" of every instruction's
///    statement in the program the pdmc and dataflow analyses share,
///    which stays readable after the decoded program is gone;
///  - Program symbols: interned once per distinct name.
///
//===----------------------------------------------------------------------===//

#include "dataflow/BitVector.h"
#include "ebpf/Cfg.h"
#include "ebpf/Decode.h"
#include "ebpf/Lower.h"
#include "flow/Analysis.h"
#include "pdmc/Checker.h"
#include "pdmc/Properties.h"
#include "progen/EbpfGen.h"
#include "progen/ProgramGen.h"

#include "gtest/gtest.h"

#include <set>

using namespace rasc;

namespace {

/// The eager rendering of a flattened type name: "(a, b)" is "_axb_".
std::string eagerTypeName(const FlowProgram &P, TypeId T) {
  const FType &Ty = P.type(T);
  if (Ty.Kind == FType::Int)
    return "int";
  return "_" + eagerTypeName(P, Ty.A) + "x_" + eagerTypeName(P, Ty.B) + "_";
}

ebpf::Cfg generatedCfg(uint64_t Seed) {
  EbpfGenOptions O;
  O.Seed = Seed;
  O.MaxBlocks = 6;
  O.MaxBodyInsns = 5;
  Expected<ebpf::DecodedProgram> D = ebpf::decode(generateEbpf(O));
  EXPECT_TRUE(D);
  return ebpf::buildCfg(std::move(*D));
}

std::vector<FlowProgram> flowPrograms() {
  std::vector<FlowProgram> Out;
  for (const char *Src :
       {"pair (y : int) : (int, int) = (1, y);\n"
        "main (z : int) : int = pair(2).2;\n",
        "swap (p : (int, (int, int))) : ((int, int), int) = (p.2, p.1);\n"
        "main (z : int) : int = swap((1, (2, 3))).1.2;\n",
        "id (x : int) : int = x;\n"
        "use (x : int) : int = id(x);\n"
        "main (z : int) : int = (use(4), id(5)).1;\n",
        "f (x : int) : int = g(x);\n"
        "g (x : int) : int = f(x);\n"
        "main (z : int) : int = f(7);\n"}) {
    std::optional<FlowProgram> P = FlowProgram::parse(Src);
    EXPECT_TRUE(P) << Src;
    Out.push_back(std::move(*P));
  }
  for (uint64_t Seed : {3, 9, 21})
    Out.push_back(ebpf::lowerToFlowProgram(generatedCfg(Seed)).Prog);
  return Out;
}

} // namespace

TEST(NamesOnDemand, PdmcClassHeadsAndCallConstructors) {
  SpecAutomaton Spec = simplePrivilegeSpec();
  Program P = generatePackage(3000, Spec, 4);
  RascChecker C(P, Spec);
  C.prepare();
  const ConstraintSystem &CS = C.system();
  // A class's variable is created at its first statement and named
  // after it.
  std::set<VarId> Seen;
  for (StmtId S = 0; S != P.numStatements(); ++S)
    if (Seen.insert(C.stmtVar(S)).second) {
      EXPECT_EQ(CS.varName(C.stmtVar(S)), "S" + std::to_string(S));
    }
  ASSERT_GT(CS.numConstructors(), 1u);
  EXPECT_EQ(CS.constructorName(0), "pc");
  ConsId Next = 1;
  for (StmtId S = 0; S != P.numStatements(); ++S)
    if (P.stmt(S).Kind == Stmt::Call) {
      EXPECT_EQ(CS.constructorName(Next++), "o@" + std::to_string(S));
    }
  EXPECT_EQ(Next, CS.numConstructors());
}

TEST(NamesOnDemand, DataflowStatementsAndCallConstructors) {
  SpecAutomaton Spec = simplePrivilegeSpec();
  Program P = generatePackage(2000, Spec, 6);
  BitVectorProblem Problem(P, 1);
  AnnotatedBitVectorAnalysis A(Problem);
  A.prepare();
  const ConstraintSystem &CS = A.system();
  // The pdmc encoding: a class's variable is created at its first
  // statement and named after it.
  std::set<VarId> Seen;
  for (StmtId S = 0; S != P.numStatements(); ++S)
    if (Seen.insert(A.stmtVar(S)).second) {
      EXPECT_EQ(CS.varName(A.stmtVar(S)), "S" + std::to_string(S));
    }
  EXPECT_EQ(Seen.size(), CS.numVars());
  EXPECT_EQ(CS.constructorName(0), "pc");
  ConsId Next = 1;
  for (StmtId S = 0; S != P.numStatements(); ++S)
    if (P.stmt(S).Kind == Stmt::Call) {
      EXPECT_EQ(CS.constructorName(Next++), "o@" + std::to_string(S));
    }
  EXPECT_EQ(Next, CS.numConstructors());
}

TEST(NamesOnDemand, FlowCallAndSourceConstructors) {
  for (const FlowProgram &P : flowPrograms()) {
    FlowAnalysis A(P, FlowMode::Primal);
    const ConstraintSystem &CS = A.system();
    // Call sites first, then one source per queried literal.
    ASSERT_EQ(CS.numConstructors(), P.numCallSites());
    for (uint32_t I = 0; I != P.numCallSites(); ++I)
      EXPECT_EQ(CS.constructorName(I), "o" + std::to_string(I));
    std::vector<FExprId> Lits = P.literals();
    for (FExprId Lit : Lits)
      A.flows(Lit, P.functions().back().Body);
    std::set<std::string> Sources;
    for (ConsId C = P.numCallSites(); C != CS.numConstructors(); ++C)
      Sources.insert(CS.constructorName(C));
    for (FExprId Lit : Lits)
      if (A.hasLabel(Lit)) {
        EXPECT_TRUE(Sources.count("src@" + std::to_string(Lit))) << Lit;
      }
    // Expression rendering reads the same names.
    for (ExprId E = 0; E != CS.numExprs(); ++E)
      if (CS.expr(E).Kind == ExprKind::Cons && CS.expr(E).NumArgs == 0) {
        EXPECT_EQ(CS.exprToString(E), CS.constructorName(CS.expr(E).C));
      }
  }
}

TEST(NamesOnDemand, OwnedAndDefaultNames) {
  MonoidDomain Dom(simplePrivilegeSpec().machine());
  ConstraintSystem CS(Dom);
  VarId A = CS.freshVar("alpha"), B = CS.freshVar(), C = CS.numberedVar("S", 7);
  EXPECT_EQ(CS.varName(A), "alpha");
  EXPECT_EQ(CS.varName(B), "X1");
  EXPECT_EQ(CS.varName(C), "S7");
  ConsId K = CS.addConstant("k"), O = CS.addNumberedConstructor("o@", 12, 1);
  ConsId U = CS.addConstructor("", 2);
  EXPECT_EQ(CS.constructorName(K), "k");
  EXPECT_EQ(CS.constructorName(O), "o@12");
  EXPECT_EQ(CS.constructorName(U), "");
  EXPECT_EQ(CS.exprToString(CS.cons(O, {A})), "o@12(alpha)");
  EXPECT_EQ(CS.exprToString(CS.proj(O, 0, C)), "o@12^-1(S7)");
}

TEST(NamesOnDemand, BracketNamesMatchTheEagerRendering) {
  for (const FlowProgram &P : flowPrograms()) {
    std::vector<SymbolId> Syms;
    Dfa M = buildPairAutomaton(P, &Syms);
    std::set<SymbolId> Covered;
    for (uint32_t Index = 0; Index != 2; ++Index)
      for (bool Open : {true, false})
        for (TypeId T = 0; T != P.numTypes(); ++T) {
          SymbolId Sym =
              Syms[(2 * Index + (Open ? 0 : 1)) * P.numTypes() + T];
          if (Sym == InvalidSymbol)
            continue;
          std::string Want = (Open ? "open" : "close") +
                             std::to_string(Index + 1) + "_" +
                             eagerTypeName(P, T);
          EXPECT_EQ(M.symbolName(Sym), Want);
          EXPECT_EQ(M.symbol(Want).value_or(InvalidSymbol), Sym);
          Covered.insert(Sym);
        }
    EXPECT_EQ(Covered.size(), M.numSymbols());
    std::vector<std::string> Alphabet = M.alphabet();
    ASSERT_EQ(Alphabet.size(), M.numSymbols());
    for (SymbolId Sym = 0; Sym != M.numSymbols(); ++Sym)
      EXPECT_EQ(Alphabet[Sym], M.symbolName(Sym));
  }
}

TEST(NamesOnDemand, CallSymbolNamesMatchTheEagerRendering) {
  for (const FlowProgram &P : flowPrograms()) {
    std::vector<SymbolId> Syms;
    Dfa M = buildCallAutomaton(P, &Syms);
    std::set<SymbolId> Covered;
    for (uint32_t Site = 0; Site != P.numCallSites(); ++Site) {
      if (Syms[2 * Site] == InvalidSymbol)
        continue;
      EXPECT_EQ(M.symbolName(Syms[2 * Site]), "call" + std::to_string(Site));
      EXPECT_EQ(M.symbolName(Syms[2 * Site + 1]),
                "ret" + std::to_string(Site));
      Covered.insert(Syms[2 * Site]);
      Covered.insert(Syms[2 * Site + 1]);
    }
    EXPECT_EQ(Covered.size(), M.numSymbols());
  }
}

/// The map-check event of an instruction, "" for none: helper 1 is a
/// lookup and any other call a helper; "if r0 ==/!= 0" is a check; a
/// load through r0 or a store into it is a dereference.
std::string ebpfEvent(const ebpf::Insn &I) {
  using namespace ebpf;
  if (I.isCall())
    return I.Imm == HelperMapLookup ? "lookup" : "helper";
  if (I.isBranch() && !I.isUncondJump() && !I.srcIsReg() && I.Dst == 0 &&
      I.Imm == 0 && (I.jmpOp() == JmpOp::Jeq || I.jmpOp() == JmpOp::Jne))
    return "check";
  if ((I.cls() == InsnClass::Ldx && I.Src == 0) ||
      ((I.cls() == InsnClass::St || I.cls() == InsnClass::Stx) && I.Dst == 0))
    return "deref";
  return "";
}

TEST(NamesOnDemand, EbpfNotesMatchTheEagerRendering) {
  for (uint64_t Seed = 1; Seed <= 64; ++Seed) {
    SCOPED_TRACE("seed " + std::to_string(Seed));
    std::vector<ebpf::Insn> Insns;
    ebpf::DataflowLowering Df;
    {
      // The lowering outlives the decoded program it renders from.
      ebpf::Cfg G = generatedCfg(Seed);
      Insns = G.Prog.Insns;
      Df = ebpf::lowerToDataflow(G);
    }
    auto insnNote = [&](uint32_t I) {
      return "insn " + std::to_string(I) + ": " + ebpf::toString(Insns[I]);
    };
    // One statement per instruction, an Op with its event's symbol
    // exactly where the instruction has one, and no other statement
    // but entry, exit and the init Nop (no block heads).
    const Program &P = *Df.Prog;
    ASSERT_EQ(P.numStatements(), Insns.size() + 3);
    EXPECT_EQ(P.note(P.entry(0)), "entry");
    EXPECT_EQ(P.note(P.exit(0)), "exit");
    EXPECT_EQ(P.note(Df.Init), "entry: r1 (ctx), r10 (frame) initialized");
    for (uint32_t I = 0; I != Insns.size(); ++I) {
      StmtId S = Df.InsnStmt[I];
      EXPECT_EQ(P.note(S), insnNote(I));
      const Stmt &St = P.stmt(S);
      std::string Event = ebpfEvent(Insns[I]);
      if (Event.empty()) {
        EXPECT_EQ(St.Kind, Stmt::Nop);
        EXPECT_EQ(P.describe(S),
                  "ebpf:" + std::to_string(S) + " " + insnNote(I));
      } else {
        ASSERT_EQ(St.Kind, Stmt::Op);
        EXPECT_EQ(P.symbolName(St.OpSym), Event);
        EXPECT_EQ(P.describe(S), "ebpf:" + std::to_string(S) + " " + Event);
      }
    }
  }
}

TEST(NamesOnDemand, ProgramSymbolsAreInterned) {
  Program P;
  FuncId F = P.addFunction("main");
  StmtId A = P.addOp(F, "open", {"fd1"}, "a");
  StmtId B = P.addOp(F, "close", {"fd1"});
  StmtId C = P.addOp(F, "open", {"fd2"});
  EXPECT_EQ(P.numSymbols(), 2u);
  EXPECT_EQ(P.stmt(A).OpSym, P.stmt(C).OpSym);
  EXPECT_NE(P.stmt(A).OpSym, P.stmt(B).OpSym);
  EXPECT_EQ(P.internSymbol("close"), P.stmt(B).OpSym);
  EXPECT_EQ(P.describe(C), "main:4 open(fd2)");
  EXPECT_EQ(P.note(A), "a");
  EXPECT_EQ(P.note(B), "");

  // The eBPF lowering interns each event it emits once.
  ebpf::PdmcLowering Pd = ebpf::lowerToProgram(generatedCfg(5));
  std::set<std::string> Names;
  for (OpSymId S = 0; S != Pd.Prog->numSymbols(); ++S)
    Names.insert(Pd.Prog->symbolName(S));
  EXPECT_EQ(Names.size(), Pd.Prog->numSymbols());
  SpecAutomaton Spec = ebpf::mapCheckSpec();
  for (const std::string &N : Names)
    EXPECT_TRUE(Spec.machine().symbol(N)) << N;
}
