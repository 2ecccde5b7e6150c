//===- tests/spec_compile_test.cpp - Spec goldens and fuzzing --*- C++ -*-===//
//
// Part of the RASC project: regularly annotated set constraints.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The spec compiler against fixed answers and hostile text:
///
///  * Golden DFA dumps (tests/data/spec/*.dfa, SpecDump.h) of the
///    built-in specs and of the `language` blocks in the example .rasc
///    files, compared byte for byte: states, symbols, the table and the
///    accepting set. full-privilege.spec pins the generated text of
///    the Table 1 property.
///  * A 300-state, 300-symbol spec compiles to exactly the table it
///    writes, and DfaBuilder lays out the same table whether symbols
///    come before, after or between the states.
///  * A mutation walk (truncations, token swaps, random bytes) over
///    the same texts: every mutant ends as an automaton or as a Diag
///    with a line and a column, never an abort. The sanitizer CI job
///    runs it under ASan and UBSan.
///
//===----------------------------------------------------------------------===//

#include "SpecDump.h"

#include "ebpf/Lower.h"
#include "pdmc/Properties.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <cctype>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

using namespace rasc;

namespace {

std::string slurp(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  EXPECT_TRUE(In) << "cannot open " << Path;
  std::ostringstream S;
  S << In.rdbuf();
  return S.str();
}

std::string dataPath(const std::string &Rel) {
  return std::string(RASC_TEST_DATA_DIR) + "/" + Rel;
}

/// Every spec text with a golden dump: (golden name, text).
std::vector<std::pair<std::string, std::string>> goldenTexts() {
  std::vector<std::string> Privilege = testgen::languageBlocks(
      slurp(dataPath("../../examples/privilege.rasc")));
  std::vector<std::string> Fig2 =
      testgen::languageBlocks(slurp(dataPath("fig2.rasc")));
  EXPECT_EQ(Privilege.size(), 1u);
  EXPECT_EQ(Fig2.size(), 1u);
  return {{"fig3-privilege", simplePrivilegeSpecText()},
          {"full-privilege", fullPrivilegeSpecText()},
          {"file-state", fileStateSpecText()},
          {"map-check", ebpf::mapCheckSpecText()},
          {"privilege-rasc", Privilege.empty() ? "" : Privilege[0]},
          {"fig2-rasc", Fig2.empty() ? "" : Fig2[0]}};
}

TEST(SpecGolden, BuiltInSpecsMatchTheirDumps) {
  for (const auto &[Name, Text] : goldenTexts()) {
    Expected<SpecAutomaton> A = parseSpecEx(Text);
    ASSERT_TRUE(A) << Name << ": " << A.error().render();
    EXPECT_EQ(testgen::dumpSpec(*A), slurp(dataPath("spec/" + Name + ".dfa")))
        << Name;
  }
}

TEST(SpecGolden, FullPrivilegeTextIsUnchanged) {
  EXPECT_EQ(fullPrivilegeSpecText(),
            slurp(dataPath("spec/full-privilege.spec")));
}

/// An N-state, N-symbol spec: q<S> goes to q<(7S + 13A + 1) mod N> on
/// s<A>, except that a state S with S % 5 == 4 leaves s<S> unwritten
/// when \p Holes is set (those go to the dead state).
std::string wideSpec(unsigned N, bool Holes) {
  std::string T;
  for (unsigned S = 0; S != N; ++S) {
    T += (S == 0 ? "start accept state q" : "state q") + std::to_string(S) +
         " :\n";
    for (unsigned A = 0; A != N; ++A) {
      if (Holes && S % 5 == 4 && A == S)
        continue;
      T += "  | s" + std::to_string(A) + " -> q" +
           std::to_string((S * 7 + A * 13 + 1) % N) + "\n";
    }
    T += "  ;\n";
  }
  return T;
}

TEST(SpecCompile, WideSpecCompilesToItsExactTable) {
  const unsigned N = 300;
  for (bool Holes : {false, true}) {
    Expected<SpecAutomaton> A = parseSpecEx(wideSpec(N, Holes));
    ASSERT_TRUE(A) << A.error().render();
    const Dfa &M = A->machine();
    // The symbols are numbered in order of first use, which is s0..s299
    // in q0's arms.
    ASSERT_EQ(M.numSymbols(), N);
    ASSERT_EQ(M.numStates(), Holes ? N + 1 : N);
    EXPECT_EQ(M.start(), 0u);
    for (SymbolId Sym = 0; Sym != N; ++Sym)
      ASSERT_EQ(M.symbolName(Sym), "s" + std::to_string(Sym));
    StateId Dead = N;
    for (StateId S = 0; S != N; ++S) {
      ASSERT_EQ(A->stateName(S), "q" + std::to_string(S));
      EXPECT_EQ(M.isAccepting(S), S == 0);
      for (SymbolId Sym = 0; Sym != N; ++Sym) {
        StateId Want = Holes && S % 5 == 4 && Sym == S
                           ? Dead
                           : (S * 7 + Sym * 13 + 1) % N;
        ASSERT_EQ(M.next(S, Sym), Want) << "q" << S << " on s" << Sym;
      }
    }
    if (Holes) {
      EXPECT_EQ(A->stateName(Dead), "<dead>");
      EXPECT_FALSE(M.isAccepting(Dead));
      for (SymbolId Sym = 0; Sym != N; ++Sym)
        ASSERT_EQ(M.next(Dead, Sym), Dead);
    }
  }
}

TEST(SpecCompile, BuilderLayoutIgnoresSymbolOrder) {
  // The same 7-state, 13-symbol table built with every split of the
  // alphabet into symbols added before and after the states.
  const uint32_t NS = 7, NA = 13;
  auto build = [&](uint32_t Before) {
    DfaBuilder B;
    for (uint32_t A = 0; A != Before; ++A)
      EXPECT_EQ(B.addSymbol("a" + std::to_string(A)), A);
    for (uint32_t S = 0; S != NS; ++S)
      B.addState();
    for (uint32_t A = Before; A != NA; ++A) {
      EXPECT_EQ(B.addSymbol("a" + std::to_string(A)), A);
      // Fill this column at once, while later columns do not exist.
      for (StateId S = 0; S != NS; ++S)
        if ((S + A) % 3 != 0)
          B.addTransition(S, A, (S * A + 1) % NS);
    }
    for (uint32_t A = 0; A != Before; ++A)
      for (StateId S = 0; S != NS; ++S)
        if ((S + A) % 3 != 0)
          B.addTransition(S, A, (S * A + 1) % NS);
    EXPECT_EQ(B.addSymbol("a3"), 3u); // found, not added again
    B.setStart(2);
    B.setAccepting(5);
    return B.build();
  };
  Dfa Want = build(NA);
  ASSERT_EQ(Want.numStates(), NS + 1); // the dead state
  for (uint32_t Before = 0; Before != NA; ++Before) {
    Dfa Got = build(Before);
    ASSERT_EQ(Got.numStates(), Want.numStates());
    ASSERT_EQ(Got.alphabet(), Want.alphabet());
    EXPECT_EQ(Got.start(), 2u);
    for (StateId S = 0; S != Want.numStates(); ++S) {
      EXPECT_EQ(Got.isAccepting(S), Want.isAccepting(S));
      for (SymbolId A = 0; A != NA; ++A)
        ASSERT_EQ(Got.next(S, A), Want.next(S, A))
            << "split " << Before << ", state " << S << ", symbol " << A;
    }
  }
}

//===----------------------------------------------------------------------===//
// Mutation walk
//===----------------------------------------------------------------------===//

/// Compiles \p Text and checks that it ended well: a well-formed
/// automaton, or a Diag that says where.
void expectAnswerOrPositionedDiag(const std::string &Text,
                                  const std::string &What) {
  Expected<SpecAutomaton> A = parseSpecEx(Text);
  if (!A) {
    const Diag &D = A.error();
    EXPECT_FALSE(D.message().empty()) << What;
    EXPECT_GE(D.loc().Line, 1u) << What << ": " << D.render();
    EXPECT_GE(D.loc().Col, 1u) << What << ": " << D.render();
    return;
  }
  const Dfa &M = A->machine();
  ASSERT_GT(M.numStates(), 0u) << What;
  ASSERT_LT(M.start(), M.numStates()) << What;
  for (StateId S = 0; S != M.numStates(); ++S)
    for (SymbolId Sym = 0; Sym != M.numSymbols(); ++Sym)
      ASSERT_LT(M.next(S, Sym), M.numStates()) << What;
}

/// The text split into tokens: identifier runs, whitespace runs and
/// single other characters.
std::vector<std::string> roughTokens(const std::string &Text) {
  std::vector<std::string> Out;
  auto kind = [](char C) {
    return std::isalnum(static_cast<unsigned char>(C)) || C == '_' ? 0
           : std::isspace(static_cast<unsigned char>(C))          ? 1
                                                                   : 2;
  };
  for (size_t I = 0; I != Text.size();) {
    size_t J = I + 1;
    if (kind(Text[I]) != 2)
      while (J != Text.size() && kind(Text[J]) == kind(Text[I]))
        ++J;
    Out.push_back(Text.substr(I, J - I));
    I = J;
  }
  return Out;
}

TEST(SpecMutation, EveryMutantEndsInAnAutomatonOrAPositionedDiag) {
  const char Alphabet[] = "abS_01 \t\n#:;|,()->\x80\xff";
  for (const auto &[Name, Text] : goldenTexts()) {
    Rng R(std::hash<std::string>()(Name));
    // Truncations.
    for (size_t Cut = 0; Cut <= Text.size(); Cut += 1 + Text.size() / 97)
      expectAnswerOrPositionedDiag(Text.substr(0, Cut),
                                   Name + " cut at " + std::to_string(Cut));
    // Token swaps, drops and duplications.
    std::vector<std::string> Toks = roughTokens(Text);
    for (int I = 0; I != 150; ++I) {
      std::vector<std::string> M = Toks;
      size_t A = R.below(M.size()), B = R.below(M.size());
      switch (R.below(3)) {
      case 0:
        std::swap(M[A], M[B]);
        break;
      case 1:
        M.erase(M.begin() + A);
        break;
      default:
        M.insert(M.begin() + A, M[B]);
        break;
      }
      std::string Mutant;
      for (const std::string &T : M)
        Mutant += T;
      expectAnswerOrPositionedDiag(Mutant,
                                   Name + " token mutant " + std::to_string(I));
    }
    // Random bytes: overwrite, insert or delete one to four.
    for (int I = 0; I != 150; ++I) {
      std::string Mutant = Text;
      for (int K = 0, E = 1 + R.below(4); K != E && !Mutant.empty(); ++K) {
        size_t At = R.below(Mutant.size());
        char C = R.chance(1, 2) ? Alphabet[R.below(sizeof(Alphabet) - 1)]
                                : static_cast<char>(R.below(256));
        switch (R.below(3)) {
        case 0:
          Mutant[At] = C;
          break;
        case 1:
          Mutant.insert(Mutant.begin() + At, C);
          break;
        default:
          Mutant.erase(At, 1);
          break;
        }
      }
      expectAnswerOrPositionedDiag(Mutant,
                                   Name + " byte mutant " + std::to_string(I));
    }
  }
}

TEST(SpecMutation, SemanticErrorsCarryLineAndColumn) {
  struct Case {
    const char *Text;
    const char *Message;
    uint32_t Line, Col;
  };
  const Case Cases[] = {
      {"", "declares no states", 1, 1},
      {"symbols a;\n", "declares no states", 2, 1},
      {"start state A;\n  start state B;", "multiple start", 2, 3},
      {"start state A;\n accept state A;", "duplicate state", 2, 2},
      {"start accept state A :\n  | s -> Nowhere;", "unknown target", 2, 5},
      {"start accept state A : | s(x) -> A\n | s -> A;",
       "inconsistent parameters", 2, 4},
      {"start accept state A : | s -> A\n  | s -> A;",
       "duplicate transition", 2, 5},
      {"\n  state A;", "no start state", 2, 3},
      {"\n  start state A;", "no accept state", 2, 3},
  };
  for (const Case &C : Cases) {
    Expected<SpecAutomaton> A = parseSpecEx(C.Text);
    ASSERT_FALSE(A) << C.Text;
    EXPECT_NE(A.error().message().find(C.Message), std::string::npos)
        << A.error().render();
    EXPECT_EQ(A.error().loc().Line, C.Line) << A.error().render();
    EXPECT_EQ(A.error().loc().Col, C.Col) << A.error().render();
  }
}

} // namespace
