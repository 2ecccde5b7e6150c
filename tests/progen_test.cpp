//===- tests/progen_test.cpp - Workload generator tests ---------*- C++ -*-===//
//
// Part of the RASC project: regularly annotated set constraints.
//
//===----------------------------------------------------------------------===//

#include "pdmc/Properties.h"
#include "progen/ProgramGen.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

using namespace rasc;

namespace {

TEST(ProGen, DeterministicInSeed) {
  ProgGenOptions O;
  O.Seed = 77;
  O.NumFunctions = 5;
  O.StmtsPerFunction = 10;
  O.OpSymbols = {"a", "b"};
  Program P1 = generateProgram(O);
  Program P2 = generateProgram(O);
  ASSERT_EQ(P1.numStatements(), P2.numStatements());
  for (StmtId S = 0; S != P1.numStatements(); ++S) {
    EXPECT_EQ(P1.stmt(S).Kind, P2.stmt(S).Kind);
    if (P1.stmt(S).Kind == Stmt::Op) {
      EXPECT_EQ(P1.symbolName(P1.stmt(S).OpSym),
                P2.symbolName(P2.stmt(S).OpSym));
    }
    EXPECT_TRUE(std::ranges::equal(P1.succs(S), P2.succs(S)));
  }
  O.Seed = 78;
  Program P3 = generateProgram(O);
  bool AnyDiff = P3.numStatements() != P1.numStatements();
  for (StmtId S = 0; !AnyDiff && S != P1.numStatements(); ++S)
    AnyDiff |= P1.stmt(S).Kind != P3.stmt(S).Kind ||
               !std::ranges::equal(P1.succs(S), P3.succs(S));
  EXPECT_TRUE(AnyDiff);
}

TEST(ProGen, StructuralInvariants) {
  ProgGenOptions O;
  O.Seed = 3;
  O.NumFunctions = 8;
  O.StmtsPerFunction = 12;
  O.OpSymbols = {"x"};
  Program P = generateProgram(O);

  EXPECT_EQ(P.numFunctions(), 8u);
  for (StmtId S = 0; S != P.numStatements(); ++S) {
    const Stmt &St = P.stmt(S);
    // Edges stay within the owning function.
    for (StmtId Succ : P.succs(S))
      EXPECT_EQ(P.stmt(Succ).Parent, St.Parent);
    // After finalize() only exits are successor-free.
    if (P.succs(S).empty()) {
      EXPECT_EQ(S, P.exit(St.Parent));
    }
    if (St.Kind == Stmt::Call) {
      EXPECT_LT(St.Callee, P.numFunctions());
    }
  }
  // Entry reaches exit within each function (the generator builds a
  // straight spine plus forward branches).
  for (FuncId F = 0; F != P.numFunctions(); ++F) {
    std::set<StmtId> Seen{P.entry(F)};
    std::vector<StmtId> Work{P.entry(F)};
    while (!Work.empty()) {
      StmtId S = Work.back();
      Work.pop_back();
      for (StmtId Succ : P.succs(S))
        if (Seen.insert(Succ).second)
          Work.push_back(Succ);
    }
    EXPECT_TRUE(Seen.count(P.exit(F))) << "function " << F;
  }
}

TEST(ProGen, NoRecursionMeansDagCallGraph) {
  ProgGenOptions O;
  O.Seed = 11;
  O.NumFunctions = 10;
  O.StmtsPerFunction = 15;
  O.CallPermille = 300;
  O.AllowRecursion = false;
  Program P = generateProgram(O);
  for (StmtId S = 0; S != P.numStatements(); ++S) {
    const Stmt &St = P.stmt(S);
    if (St.Kind == Stmt::Call) {
      EXPECT_GT(St.Callee, St.Parent) << "call must point forward";
    }
  }
}

TEST(ProGen, PackageScalesWithLines) {
  SpecAutomaton Spec = simplePrivilegeSpec();
  Program Small = generatePackage(3000, Spec, 1);
  Program Large = generatePackage(30000, Spec, 1);
  EXPECT_GT(Large.numStatements(), 5 * Small.numStatements());
  EXPECT_GT(Large.numFunctions(), 5 * Small.numFunctions());

  // Ops use the property's alphabet.
  for (StmtId S = 0; S != Small.numStatements(); ++S)
    if (Small.stmt(S).Kind == Stmt::Op) {
      EXPECT_TRUE(Spec.machine()
                      .symbol(Small.symbolName(Small.stmt(S).OpSym))
                      .has_value());
    }
}

TEST(ProGen, ParametricLabelsAttachOnlyToParametricSymbols) {
  SpecAutomaton Spec = fileStateSpec();
  Program P = generatePackage(5000, Spec, 9);
  bool SawLabel = false;
  for (StmtId S = 0; S != P.numStatements(); ++S) {
    const Stmt &St = P.stmt(S);
    if (St.Kind != Stmt::Op)
      continue;
    auto Sym = Spec.machine().symbol(P.symbolName(St.OpSym));
    ASSERT_TRUE(Sym.has_value());
    EXPECT_EQ(Spec.isParametric(*Sym), !P.labels(S).empty());
    SawLabel |= !P.labels(S).empty();
  }
  EXPECT_TRUE(SawLabel);
}

} // namespace
