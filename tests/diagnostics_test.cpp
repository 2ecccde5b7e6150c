//===- tests/diagnostics_test.cpp - Malformed-input diagnostics -*- C++ -*-===//
//
// Part of the RASC project: regularly annotated set constraints.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Hostile and malformed input across every frontend: the constraint
/// file parser, the spec parser, and the regex parser must reject
/// truncated input, overlong numbers, raw non-ASCII bytes, unbalanced
/// delimiters, huge arities, pathological repetition, and deep
/// nesting with a clean positioned Diag — never a crash, hang, or
/// silent wrap. Plus the checked constraint-system builders, and the
/// budgets that end a solve over a superexponential monoid.
///
//===----------------------------------------------------------------------===//

#include "automata/Machines.h"
#include "automata/RegexParser.h"
#include "core/Domains.h"
#include "frontend/ConstraintParser.h"
#include "spec/SpecParser.h"

#include <chrono>
#include <fstream>
#include <iterator>

#include <gtest/gtest.h>

using namespace rasc;

namespace {

//===----------------------------------------------------------------------===//
// Diag basics
//===----------------------------------------------------------------------===//

TEST(Diag, RendersPosition) {
  Diag D("boom", SourceLoc{3, 14});
  EXPECT_EQ(D.render(), "line 3, col 14: boom");
  EXPECT_TRUE(D.loc().valid());

  Diag NoLoc("boom");
  EXPECT_FALSE(NoLoc.loc().valid());
  EXPECT_EQ(NoLoc.render(), "boom");
}

//===----------------------------------------------------------------------===//
// Constraint file parser
//===----------------------------------------------------------------------===//

/// Expects \p Source to be rejected; returns the Diag.
Diag rejected(std::string_view Source) {
  Expected<ConstraintProgram> P = ConstraintProgram::parseEx(Source);
  EXPECT_FALSE(P) << "accepted: " << Source;
  return P ? Diag("accepted") : P.error();
}

const char *Preamble = "language regex \"(g | k)* g\";\n";

TEST(ConstraintDiag, TruncatedInputs) {
  for (const char *Src : {
           "",
           "language",
           "language {",
           "language { start state A",
           "language regex",
           "language regex \"g",
           "lang",
       }) {
    Diag D = rejected(Src);
    EXPECT_FALSE(D.message().empty()) << Src;
  }
  for (const char *Tail : {
           "constant",
           "constant c",
           "constructor o",
           "constructor o 1",
           "var",
           "var X",
           "query",
           "query c in",
           "c <=",
       }) {
    Diag D = rejected(std::string(Preamble) + Tail);
    EXPECT_FALSE(D.message().empty()) << Tail;
    EXPECT_GE(D.loc().Line, 2u) << Tail << ": error is past the preamble";
  }
}

TEST(ConstraintDiag, OverlongNumber) {
  Diag D = rejected(std::string(Preamble) +
                    "constructor o 99999999999999999999;");
  EXPECT_NE(D.message().find("number too large"), std::string::npos)
      << D.render();
  EXPECT_EQ(D.loc().Line, 2u);
}

TEST(ConstraintDiag, HugeArity) {
  Diag D = rejected(std::string(Preamble) + "constructor o 5000;");
  EXPECT_NE(D.message().find("too large"), std::string::npos) << D.render();

  // At the cap the declaration itself is fine.
  Expected<ConstraintProgram> P = ConstraintProgram::parseEx(
      std::string(Preamble) + "constructor o 1024;");
  EXPECT_TRUE(P) << P.error().render();
}

TEST(ConstraintDiag, RawBytes) {
  // Raw non-ASCII bytes (invalid UTF-8 included) are "unexpected
  // character" errors with a position, not UB in isalnum or a crash.
  std::string Junk = Preamble;
  Junk += "var X\xff\xfe;";
  Diag D = rejected(Junk);
  EXPECT_FALSE(D.message().empty());
  EXPECT_EQ(D.loc().Line, 2u);

  std::string AllBytes = Preamble;
  for (int B = 128; B != 256; ++B)
    AllBytes += static_cast<char>(B);
  (void)rejected(AllBytes);
}

TEST(ConstraintDiag, UnbalancedDelimiters) {
  for (const char *Tail : {
           "constructor o 2; var X Y; o(X <= Y;",
           "constructor o 2; var X Y; o X) <= Y;",
           "var X; c <= [g X;",
       }) {
    Diag D = rejected(std::string("language regex \"g\";\nconstant c;\n") +
                      Tail);
    EXPECT_FALSE(D.message().empty()) << Tail;
    EXPECT_EQ(D.loc().Line, 3u) << Tail;
  }
}

TEST(ConstraintDiag, SemanticErrorsCarryPositions) {
  Diag D = rejected(std::string(Preamble) + "var X;\nY <= X;");
  EXPECT_NE(D.message().find("unknown"), std::string::npos) << D.render();
  EXPECT_EQ(D.loc().Line, 3u);

  D = rejected(std::string(Preamble) +
               "constructor o 2;\nvar X;\no(X) <= X;");
  EXPECT_NE(D.message().find("expects"), std::string::npos) << D.render();
  EXPECT_EQ(D.loc().Line, 4u);

  D = rejected(std::string(Preamble) +
               "constructor o 1;\nvar X Y;\nproj o 2 X <= Y;");
  EXPECT_NE(D.message().find("projection index"), std::string::npos)
      << D.render();
  EXPECT_EQ(D.loc().Line, 4u);

  D = rejected(std::string(Preamble) + "var X;\nX <= [bogus] X;");
  EXPECT_NE(D.message().find("not a symbol"), std::string::npos)
      << D.render();
  EXPECT_EQ(D.loc().Line, 3u);
}

TEST(ConstraintDiag, EmbeddedSpecErrorsAreRebased) {
  // An error inside a language { ... } block reports the file line of
  // the offending spec token, not a block-relative line.
  Diag D = rejected("language {\n"
                    "  start state A : | s -> A;\n"
                    "  accept state A;\n" // duplicate state 'A'
                    "}\nvar X;\n");
  EXPECT_NE(D.message().find("duplicate state"), std::string::npos)
      << D.render();
  EXPECT_EQ(D.loc().Line, 3u);
}

TEST(ConstraintDiag, EmbeddedRegexErrorsAreRebased) {
  Diag D = rejected("language regex \"(g | \";\n");
  EXPECT_FALSE(D.message().empty());
  EXPECT_EQ(D.loc().Line, 1u);
  // Column points inside the quoted pattern.
  EXPECT_GT(D.loc().Col, static_cast<uint32_t>(sizeof("language regex ")));
}

TEST(ConstraintDiag, WrapperRendersTheDiag) {
  std::string Err;
  EXPECT_FALSE(ConstraintProgram::parse("bogus", &Err));
  EXPECT_NE(Err.find("line 1"), std::string::npos) << Err;
}

//===----------------------------------------------------------------------===//
// Spec parser
//===----------------------------------------------------------------------===//

Diag specRejected(std::string_view Text) {
  Expected<SpecAutomaton> A = parseSpecEx(Text);
  EXPECT_FALSE(A) << "accepted: " << Text;
  return A ? Diag("accepted") : A.error();
}

TEST(SpecDiag, TruncatedInputs) {
  for (const char *Src : {
           "",
           "start",
           "start state",
           "start state A",
           "start state A :",
           "start state A : | s",
           "start state A : | s ->",
           "start state A : | s -> B",
           "symbols",
           "symbols a",
           "start state A : | s(",
           "start state A : | s(x",
       }) {
    Diag D = specRejected(Src);
    EXPECT_FALSE(D.message().empty()) << "'" << Src << "'";
  }
}

TEST(SpecDiag, SyntaxErrorsCarryLineAndColumn) {
  Diag D = specRejected("start state A :\n  | s $> B;\naccept state B;");
  EXPECT_EQ(D.loc().Line, 2u);
  EXPECT_GT(D.loc().Col, 1u);
}

TEST(SpecDiag, RawBytes) {
  std::string Junk = "start state A\xc3\x28;"; // stray continuation byte
  Diag D = specRejected(Junk);
  EXPECT_FALSE(D.message().empty());
}

TEST(SpecDiag, SemanticErrors) {
  Diag D = specRejected("start state A;\nstart state B;\naccept state C;");
  EXPECT_NE(D.message().find("multiple start"), std::string::npos);
  EXPECT_EQ(D.loc().Line, 2u);

  D = specRejected("start state A;\naccept state A;");
  EXPECT_NE(D.message().find("duplicate state"), std::string::npos);
  EXPECT_EQ(D.loc().Line, 2u);

  D = specRejected("start state A : | s -> Nowhere;\naccept state B;");
  EXPECT_NE(D.message().find("unknown target"), std::string::npos);

  D = specRejected("start accept state A : | s(x) -> A | s -> A;");
  EXPECT_NE(D.message().find("inconsistent parameters"), std::string::npos);

  D = specRejected("state A;");
  EXPECT_NE(D.message().find("no start state"), std::string::npos);

  D = specRejected("start state A;");
  EXPECT_NE(D.message().find("no accept state"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Regex parser
//===----------------------------------------------------------------------===//

Diag regexRejected(std::string_view Pattern) {
  Expected<Dfa> D = compileRegexEx(Pattern);
  EXPECT_FALSE(D) << "accepted: " << Pattern;
  return D ? Diag("accepted") : D.error();
}

TEST(RegexDiag, MalformedPatterns) {
  for (const char *Pat : {"", "(", ")", "a)", "(a", "a |", "| a", "*",
                          "a(", "%", "%epsx y (", "%nope"}) {
    Diag D = regexRejected(Pat);
    EXPECT_FALSE(D.message().empty()) << "'" << Pat << "'";
    EXPECT_GE(D.loc().Col, 1u) << "'" << Pat << "'";
  }
}

TEST(RegexDiag, ColumnIsPatternOffset) {
  Diag D = regexRejected("  )");
  EXPECT_EQ(D.loc().Col, 3u) << D.render();
}

TEST(RegexDiag, PlusChainsAreLinear) {
  // A chain of 1M postfix operators (inside the 1 MiB pattern cap)
  // must compile without copying the operand or nesting one AST level
  // per operator (the recursive walks would overflow the stack), and
  // accept the folded language: a+, a*, a? alone, a* for a mix.
  auto chain = [](std::string Ops) {
    std::string Pat = "a";
    while (Pat.size() < (1u << 20) - Ops.size())
      Pat += Ops;
    return Pat;
  };
  struct Case {
    std::string Ops;
    bool Empty, Many;
  };
  for (const Case &C : {Case{"+", false, true}, Case{"*", true, true},
                        Case{"?", true, false}, Case{"+?*", true, true},
                        Case{"?+", true, true}}) {
    std::string Pat = chain(C.Ops);
    ASSERT_GE(Pat.size(), 1000000u);
    Expected<Dfa> M = compileRegexEx(Pat);
    ASSERT_TRUE(M) << C.Ops << ": " << M.error().render();
    auto A = M->symbol("a");
    ASSERT_TRUE(A.has_value());
    EXPECT_EQ(M->accepts(Word{}), C.Empty) << C.Ops;
    EXPECT_TRUE(M->accepts(Word{*A})) << C.Ops;
    EXPECT_EQ(M->accepts(Word{*A, *A, *A}), C.Many) << C.Ops;
  }
}

TEST(RegexDiag, PlusRequiresOneIteration) {
  Expected<Dfa> M = compileRegexEx("(a b)+");
  ASSERT_TRUE(M) << M.error().render();
  auto A = M->symbol("a"), B = M->symbol("b");
  ASSERT_TRUE(A && B);
  EXPECT_FALSE(M->accepts(Word{}));
  EXPECT_TRUE(M->accepts(Word{*A, *B}));
  EXPECT_TRUE(M->accepts(Word{*A, *B, *A, *B}));
  EXPECT_FALSE(M->accepts(Word{*A}));
}

TEST(RegexDiag, DeepNestingIsCappedNotACrash) {
  // Past the cap: a clean error.
  std::string Deep(5000, '(');
  Deep += "a";
  Deep.append(5000, ')');
  Diag D = regexRejected(Deep);
  EXPECT_NE(D.message().find("nesting too deep"), std::string::npos)
      << D.render();

  // Under the cap: accepted.
  std::string Ok(400, '(');
  Ok += "a";
  Ok.append(400, ')');
  Expected<Dfa> M = compileRegexEx(Ok);
  ASSERT_TRUE(M) << M.error().render();
  auto A = M->symbol("a");
  ASSERT_TRUE(A.has_value());
  EXPECT_TRUE(M->accepts(Word{*A}));
}

TEST(RegexDiag, LongFlatPatternsAreFine) {
  // Flat concatenations and alternations must not recurse linearly in
  // the pattern length (balanced folding): 20k atoms, no cap hit.
  std::string Cat, Alt;
  for (int I = 0; I != 4000; ++I)
    Cat += "a ";
  for (int I = 0; I != 20000; ++I)
    Alt += I ? "| a" : "a";
  EXPECT_TRUE(compileRegexEx(Cat));
  EXPECT_TRUE(compileRegexEx(Alt));
}

TEST(RegexDiag, PatternLengthIsCapped) {
  std::string Huge((1u << 20) + 1, 'a');
  Diag D = regexRejected(Huge);
  EXPECT_NE(D.message().find("too large"), std::string::npos) << D.render();
}

//===----------------------------------------------------------------------===//
// Checked constraint-system builders
//===----------------------------------------------------------------------===//

TEST(CheckedBuilders, RangeAndArityErrors) {
  TrivialDomain Dom;
  ConstraintSystem CS(Dom);
  ConsId O = CS.addConstructor("o", 2);
  VarId X = CS.freshVar("X");

  EXPECT_TRUE(CS.varChecked(X));
  Expected<ExprId> Bad = CS.varChecked(static_cast<VarId>(99));
  ASSERT_FALSE(Bad);
  EXPECT_FALSE(Bad.error().message().empty());
  ASSERT_TRUE(CS.lastDiag().has_value());

  Bad = CS.consChecked(static_cast<ConsId>(7));
  EXPECT_FALSE(Bad);

  Bad = CS.consChecked(O, {X}); // arity 2, one argument
  ASSERT_FALSE(Bad);
  EXPECT_NE(Bad.error().message().find("arity"), std::string::npos)
      << Bad.error().render();

  Bad = CS.consChecked(O, {X, static_cast<VarId>(42)});
  EXPECT_FALSE(Bad);

  Bad = CS.projChecked(O, 2, X); // indices are 0-based: 0 and 1 only
  ASSERT_FALSE(Bad);
  EXPECT_FALSE(Bad.error().message().empty());

  Bad = CS.projChecked(O, 0, static_cast<VarId>(42));
  EXPECT_FALSE(Bad);

  // The system is untouched by the failures above.
  EXPECT_TRUE(CS.constraints().empty());
}

TEST(CheckedBuilders, AddChecked) {
  TrivialDomain Dom;
  ConstraintSystem CS(Dom);
  ConsId O = CS.addConstructor("o", 1);
  VarId X = CS.freshVar("X"), Y = CS.freshVar("Y");
  ExprId VX = CS.var(X), VY = CS.var(Y);

  EXPECT_FALSE(CS.addChecked(VX, VY)); // ok: no diag
  EXPECT_EQ(CS.constraints().size(), 1u);

  // Out-of-range expression ids.
  std::optional<Diag> D = CS.addChecked(static_cast<ExprId>(999), VY);
  ASSERT_TRUE(D.has_value());
  EXPECT_FALSE(D->message().empty());
  D = CS.addChecked(InvalidExpr, VY);
  EXPECT_TRUE(D.has_value());

  // Out-of-range annotation.
  D = CS.addChecked(VX, VY, static_cast<AnnId>(12345));
  ASSERT_TRUE(D.has_value());

  // Projections on the right are not a surface form.
  ExprId P = CS.proj(O, 0, X);
  D = CS.addChecked(VX, P);
  ASSERT_TRUE(D.has_value());
  EXPECT_FALSE(D->message().empty());

  // Projection lhs requires a variable rhs.
  ExprId CE = CS.cons(O, {Y});
  D = CS.addChecked(P, CE);
  EXPECT_TRUE(D.has_value());

  // Failures left no partial constraint behind.
  EXPECT_EQ(CS.constraints().size(), 1u);
}

//===----------------------------------------------------------------------===//
// Governance of the lazily interned monoid
//===----------------------------------------------------------------------===//

std::string readTestData(const char *Name) {
  std::ifstream In(std::string(RASC_TEST_DATA_DIR) + "/" + Name);
  EXPECT_TRUE(In.good()) << Name;
  return {std::istreambuf_iterator<char>(In), std::istreambuf_iterator<char>()};
}

/// c <= X plus a self-loop on X per symbol: the constant's lower
/// bounds on X are every element the generators reach, i.e. the whole
/// monoid.
void addSelfLoops(ConstraintSystem &CS, const MonoidDomain &Dom) {
  ConsId C = CS.addConstant("c");
  VarId X = CS.freshVar();
  CS.add(CS.cons(C), CS.var(X));
  for (SymbolId A = 0; A != Dom.machine().numSymbols(); ++A)
    CS.add(CS.var(X), CS.var(X), Dom.symbolAnn(A));
}

TEST(Governance, Figure2FileIsAnsweredQuickly) {
  // The paper's Figure 2 machine on 8 states has 8^8 elements; the
  // file's two constraints compose one product.
  std::string Source = readTestData("fig2.rasc");
  auto T0 = std::chrono::steady_clock::now();
  Expected<ConstraintProgram> P = ConstraintProgram::parseEx(Source);
  ASSERT_TRUE(P) << P.error().render();
  std::vector<ConstraintProgram::Answer> A = P->solveAndAnswer();
  double Ms = std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - T0)
                  .count();
  ASSERT_EQ(A.size(), 2u);
  EXPECT_FALSE(A[0].Holds) << A[0].Q->Text;
  EXPECT_TRUE(A[1].Holds) << A[1].Q->Text;
  EXPECT_EQ(P->domain().machine().numStates(), 8u);
  // The identity, three generators and swap ∘ rotate.
  EXPECT_EQ(P->domain().size(), 5u);
  EXPECT_LT(Ms, 50.0);
}

TEST(Governance, ElementCapIsAResumableInterrupt) {
  // 6^6 = 46656 elements against a cap of 1000: the solve that
  // interns past the cap stops at its next governance check instead
  // of aborting, with its worklist tail kept.
  TransitionMonoid::Options Opts;
  Opts.MaxElements = 1000;
  MonoidDomain Dom(buildAdversarialMachine(6), Opts);
  ConstraintSystem CS(Dom);
  addSelfLoops(CS, Dom);
  BidirectionalSolver S(CS);
  EXPECT_EQ(S.solve(), BidirectionalSolver::Status::MemoryLimit);
  EXPECT_TRUE(Dom.overflowed());
  // Overshoot is bounded by one governance interval of fan-out.
  EXPECT_LE(Dom.size(), 1000u + 3 * S.options().GovernanceCheckInterval);
  EXPECT_NE(S.pendingEdges(), 0u);
  // A resume stops at once: the cap cannot be lifted by retrying.
  size_t Size = Dom.size(), Pending = S.pendingEdges();
  EXPECT_EQ(S.solve(), BidirectionalSolver::Status::MemoryLimit);
  EXPECT_EQ(S.stats().Resumes, 1u);
  EXPECT_EQ(Dom.size(), Size);
  EXPECT_EQ(S.pendingEdges(), Pending);

  // Under the cap the same system closes over the whole monoid.
  MonoidDomain Small(buildAdversarialMachine(3), Opts);
  ConstraintSystem SmallCS(Small);
  addSelfLoops(SmallCS, Small);
  BidirectionalSolver SmallS(SmallCS);
  EXPECT_EQ(SmallS.solve(), BidirectionalSolver::Status::Solved);
  EXPECT_EQ(Small.size(), 27u);
  EXPECT_EQ(SmallS.stats().MonoidElements, 27u);
}

TEST(Governance, HostileLanguageEndsWithinItsBudget) {
  // The Figure 2 language with a self-loop per symbol: the closure
  // would intern all 8^8 elements. A deadline and a memory budget end
  // it in a resumable interrupt within the deadline plus slack.
  std::string Source = readTestData("fig2.rasc");
  Source = Source.substr(0, Source.find("constant pc;")) +
           "constant pc;\nvar X;\npc <= X;\nX <= [rotate] X;\n"
           "X <= [swap] X;\nX <= [merge] X;\nquery pc in X;\n";
  Expected<ConstraintProgram> P = ConstraintProgram::parseEx(Source);
  ASSERT_TRUE(P) << P.error().render();
  SolverOptions Opts;
  Opts.DeadlineSeconds = 0.2;
  Opts.MaxMemoryBytes = uint64_t(64) << 20;
  BidirectionalSolver S(P->system(), Opts);
  auto T0 = std::chrono::steady_clock::now();
  BidirectionalSolver::Status St = S.solve();
  double Seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - T0)
                       .count();
  EXPECT_TRUE(St == BidirectionalSolver::Status::Deadline ||
              St == BidirectionalSolver::Status::MemoryLimit)
      << static_cast<int>(St);
  EXPECT_LT(Seconds, 0.2 + 1.0);
  EXPECT_GT(P->domain().size(), 1000u);
  EXPECT_FALSE(P->domain().overflowed());
}

} // namespace
