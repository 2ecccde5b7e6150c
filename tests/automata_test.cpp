//===- tests/automata_test.cpp - DFA/NFA substrate tests --------*- C++ -*-===//
//
// Part of the RASC project: regularly annotated set constraints.
//
//===----------------------------------------------------------------------===//

#include "automata/Dfa.h"
#include "automata/DfaOps.h"
#include "automata/Machines.h"
#include "automata/Nfa.h"
#include "automata/RegexParser.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

using namespace rasc;

namespace {

Word toWord(const Dfa &M, std::initializer_list<const char *> Names) {
  Word W;
  for (const char *N : Names) {
    auto S = M.symbol(N);
    EXPECT_TRUE(S.has_value()) << "unknown symbol " << N;
    W.push_back(*S);
  }
  return W;
}

TEST(DfaBuilder, TotalizesWithDeadState) {
  DfaBuilder B;
  SymbolId A = B.addSymbol("a");
  SymbolId Bb = B.addSymbol("b");
  StateId S0 = B.addState();
  StateId S1 = B.addState();
  B.setStart(S0);
  B.setAccepting(S1);
  B.addTransition(S0, A, S1);
  Dfa M = B.build();
  // Dead state materialized: 3 states total.
  EXPECT_EQ(M.numStates(), 3u);
  EXPECT_TRUE(M.accepts(toWord(M, {"a"})));
  EXPECT_FALSE(M.accepts(toWord(M, {"b"})));
  EXPECT_FALSE(M.accepts(toWord(M, {"a", "a"})));
  (void)Bb;
}

TEST(DfaBuilder, SymbolAddedAfterStateGetsDeadTransitions) {
  DfaBuilder B;
  StateId S0 = B.addState();
  B.setStart(S0);
  B.setAccepting(S0);
  SymbolId A = B.addSymbol("late");
  Dfa M = B.build();
  EXPECT_TRUE(M.accepts(Word{}));
  EXPECT_FALSE(M.accepts(Word{A}));
}

TEST(DfaBuilder, SymbolAddedAfterStatesMatchesSymbolAddedFirst) {
  // Transitions (from, symbol, to) over symbols "a" and "b"; state 2
  // lacks a "b" transition, so both automata get a dead state.
  const StateId Edges[][3] = {{0, 0, 1}, {0, 1, 2}, {1, 0, 2},
                              {1, 1, 0}, {2, 0, 2}};
  auto finish = [&](DfaBuilder &B) {
    for (const auto &E : Edges)
      B.addTransition(E[0], E[1], E[2]);
    B.setStart(0);
    B.setAccepting(2);
    return B.build();
  };
  DfaBuilder First;
  First.addSymbol("a");
  First.addSymbol("b");
  for (int I = 0; I != 3; ++I)
    First.addState();
  DfaBuilder Late;
  Late.addSymbol("a");
  Late.addState();
  Late.addState();
  EXPECT_EQ(Late.addSymbol("b"), 1u); // re-lays two rows out
  Late.addState();
  EXPECT_EQ(Late.addSymbol("a"), 0u); // a known symbol adds nothing
  Dfa A = finish(First), B = finish(Late);
  ASSERT_EQ(A.numStates(), 4u);
  ASSERT_EQ(B.numStates(), A.numStates());
  ASSERT_EQ(B.alphabet(), A.alphabet());
  EXPECT_EQ(B.start(), A.start());
  for (StateId S = 0; S != A.numStates(); ++S) {
    EXPECT_EQ(B.isAccepting(S), A.isAccepting(S));
    for (SymbolId Sym = 0; Sym != A.numSymbols(); ++Sym)
      EXPECT_EQ(B.next(S, Sym), A.next(S, Sym)) << S << " " << Sym;
  }
}

TEST(DfaBuilder, DeadStateOnlyWhenATransitionIsMissing) {
  DfaBuilder B;
  SymbolId A = B.addSymbol("a");
  StateId S0 = B.addState(), S1 = B.addState();
  B.setAccepting(S1);
  B.addTransition(S0, A, S1);
  B.addTransition(S1, A, S0);
  Dfa Complete = B.build();
  EXPECT_EQ(Complete.numStates(), 2u);

  SymbolId Bsym = B.addSymbol("b"); // both states now lack "b"
  Dfa Partial = B.build();
  ASSERT_EQ(Partial.numStates(), 3u);
  StateId Dead = 2;
  EXPECT_FALSE(Partial.isAccepting(Dead));
  EXPECT_EQ(Partial.next(S0, Bsym), Dead);
  EXPECT_EQ(Partial.next(S1, Bsym), Dead);
  EXPECT_EQ(Partial.next(S0, A), S1);
  for (SymbolId Sym : {A, Bsym})
    EXPECT_EQ(Partial.next(Dead, Sym), Dead);
}

TEST(OneBit, AcceptsGenEndings) {
  Dfa M = buildOneBitMachine();
  EXPECT_FALSE(M.accepts(Word{}));
  EXPECT_TRUE(M.accepts(toWord(M, {"g"})));
  EXPECT_FALSE(M.accepts(toWord(M, {"g", "k"})));
  EXPECT_TRUE(M.accepts(toWord(M, {"k", "g", "g"})));
}

TEST(Determinize, MatchesNfaOnRandomWords) {
  // NFA for (a|b)* a (a|b): second-to-last symbol is 'a'.
  Nfa N({"a", "b"});
  StateId Q0 = N.addState(), Q1 = N.addState(), Q2 = N.addState();
  N.setStart(Q0);
  N.setAccepting(Q2);
  N.addTransition(Q0, 0, Q0);
  N.addTransition(Q0, 1, Q0);
  N.addTransition(Q0, 0, Q1);
  N.addTransition(Q1, 0, Q2);
  N.addTransition(Q1, 1, Q2);

  Dfa D = determinize(N);
  Dfa Min = minimize(D);
  EXPECT_LE(Min.numStates(), D.numStates());
  EXPECT_TRUE(equivalent(D, Min));

  Rng R(42);
  for (int Trial = 0; Trial != 500; ++Trial) {
    Word W;
    size_t Len = R.below(10);
    for (size_t I = 0; I != Len; ++I)
      W.push_back(static_cast<SymbolId>(R.below(2)));
    EXPECT_EQ(N.accepts(W), D.accepts(W));
    EXPECT_EQ(N.accepts(W), Min.accepts(W));
  }
}

TEST(Determinize, WideAlternation) {
  // a0|a1|...|a3999: one symbol per branch. Subset construction must
  // not pay a full-width subset per (state, symbol) pair with no move,
  // which made this cubic in the width (27 s at 4000 branches).
  constexpr unsigned Width = 4000;
  std::string Pat;
  for (unsigned I = 0; I != Width; ++I)
    Pat += (I ? "|a" : "a") + std::to_string(I);
  Expected<Dfa> M = compileRegexEx(Pat);
  ASSERT_TRUE(M) << M.error().render();
  ASSERT_EQ(M->numSymbols(), Width);
  EXPECT_EQ(M->numStates(), 3u); // start, accept, dead
  EXPECT_FALSE(M->accepts(Word{}));
  for (SymbolId I = 0; I != Width; ++I) {
    SymbolId J = (I * 7 + 1) % Width;
    ASSERT_EQ(M->symbolName(I), "a" + std::to_string(I));
    EXPECT_TRUE(M->accepts(Word{I})) << I;
    EXPECT_FALSE(M->accepts(Word{I, J})) << I << " " << J;
  }
}

TEST(Minimize, ProducesCanonicalSize) {
  // (a|b)* a (a|b) requires exactly 4 states in the minimal DFA
  // (tracking the last two symbols), and the subset DFA is total with
  // no dead state (every state is live).
  Nfa N({"a", "b"});
  StateId Q0 = N.addState(), Q1 = N.addState(), Q2 = N.addState();
  N.setStart(Q0);
  N.setAccepting(Q2);
  N.addTransition(Q0, 0, Q0);
  N.addTransition(Q0, 1, Q0);
  N.addTransition(Q0, 0, Q1);
  N.addTransition(Q1, 0, Q2);
  N.addTransition(Q1, 1, Q2);
  Dfa Min = minimize(determinize(N));
  EXPECT_EQ(Min.numStates(), 4u);
}

TEST(Product, IntersectionAndUnion) {
  std::string Err;
  // Shared alphabet {a, b}.
  std::optional<Dfa> EvenA =
      compileRegex("(b* a b* a)* b*", {"a", "b"}, &Err);
  ASSERT_TRUE(EvenA) << Err;
  std::optional<Dfa> EndsB = compileRegex("(a | b)* b", {"a", "b"}, &Err);
  ASSERT_TRUE(EndsB) << Err;

  Dfa Both = product(*EvenA, *EndsB, ProductKind::Intersection);
  Dfa Either = product(*EvenA, *EndsB, ProductKind::Union);

  auto W = [&](std::initializer_list<const char *> Names) {
    return toWord(Both, Names);
  };
  EXPECT_TRUE(Both.accepts(W({"a", "a", "b"})));
  EXPECT_FALSE(Both.accepts(W({"a", "b"})));
  EXPECT_FALSE(Both.accepts(W({"a", "a"})));
  EXPECT_TRUE(Either.accepts(W({"a", "b"})));
  EXPECT_TRUE(Either.accepts(W({"a", "a"})));
  EXPECT_FALSE(Either.accepts(W({"a"})));
}

TEST(Closures, SubstringPrefixSuffix) {
  std::string Err;
  std::optional<Dfa> M = compileRegex("a b c", {}, &Err);
  ASSERT_TRUE(M) << Err;

  Dfa Sub = substringClosure(*M);
  Dfa Pre = prefixClosure(*M);
  Dfa Suf = suffixClosure(*M);

  auto W = [&](std::initializer_list<const char *> Names) {
    return toWord(*M, Names);
  };

  // Substrings of "abc": eps, a, b, c, ab, bc, abc.
  EXPECT_TRUE(Sub.accepts(Word{}));
  EXPECT_TRUE(Sub.accepts(W({"b"})));
  EXPECT_TRUE(Sub.accepts(W({"b", "c"})));
  EXPECT_TRUE(Sub.accepts(W({"a", "b", "c"})));
  EXPECT_FALSE(Sub.accepts(W({"a", "c"})));
  EXPECT_FALSE(Sub.accepts(W({"c", "a"})));

  // Prefixes: eps, a, ab, abc.
  EXPECT_TRUE(Pre.accepts(Word{}));
  EXPECT_TRUE(Pre.accepts(W({"a", "b"})));
  EXPECT_FALSE(Pre.accepts(W({"b"})));

  // Suffixes: eps, c, bc, abc.
  EXPECT_TRUE(Suf.accepts(Word{}));
  EXPECT_TRUE(Suf.accepts(W({"c"})));
  EXPECT_TRUE(Suf.accepts(W({"b", "c"})));
  EXPECT_FALSE(Suf.accepts(W({"a", "b"})));
}

TEST(Closures, SubstringOfStarLanguage) {
  std::string Err;
  std::optional<Dfa> M = compileRegex("(a b)*", {}, &Err);
  ASSERT_TRUE(M) << Err;
  Dfa Sub = substringClosure(*M);
  auto W = [&](std::initializer_list<const char *> Names) {
    return toWord(*M, Names);
  };
  EXPECT_TRUE(Sub.accepts(W({"b", "a"})));
  EXPECT_TRUE(Sub.accepts(W({"b", "a", "b", "a"})));
  EXPECT_FALSE(Sub.accepts(W({"a", "a"})));
  EXPECT_FALSE(Sub.accepts(W({"b", "b"})));
}

TEST(Regex, OperatorsBehave) {
  std::string Err;
  std::optional<Dfa> M = compileRegex("a+ b? (c | d)*", {}, &Err);
  ASSERT_TRUE(M) << Err;
  auto W = [&](std::initializer_list<const char *> Names) {
    return toWord(*M, Names);
  };
  EXPECT_TRUE(M->accepts(W({"a"})));
  EXPECT_TRUE(M->accepts(W({"a", "a", "b", "c", "d"})));
  EXPECT_TRUE(M->accepts(W({"a", "c", "c"})));
  EXPECT_FALSE(M->accepts(Word{}));
  EXPECT_FALSE(M->accepts(W({"b"})));
}

TEST(Regex, EpsilonAndErrors) {
  std::string Err;
  std::optional<Dfa> M = compileRegex("%eps | a", {}, &Err);
  ASSERT_TRUE(M) << Err;
  EXPECT_TRUE(M->accepts(Word{}));

  Err.clear();
  EXPECT_FALSE(compileRegex("(a", {}, &Err).has_value());
  EXPECT_FALSE(Err.empty());

  Err.clear();
  EXPECT_FALSE(compileRegex("a )", {}, &Err).has_value());
  EXPECT_FALSE(Err.empty());
}

TEST(Words, EnumerateShortlex) {
  std::string Err;
  std::optional<Dfa> M = compileRegex("a (b a)*", {}, &Err);
  ASSERT_TRUE(M) << Err;
  std::vector<Word> Ws = enumerateWords(*M, 3);
  ASSERT_EQ(Ws.size(), 3u);
  EXPECT_EQ(Ws[0].size(), 1u);
  EXPECT_EQ(Ws[1].size(), 3u);
  EXPECT_EQ(Ws[2].size(), 5u);
  for (const Word &W : Ws)
    EXPECT_TRUE(M->accepts(W));
}

TEST(Dfa, LiveAndReachable) {
  Dfa M = buildFileStateMachine();
  // 3 states: closed, opened, dead.
  ASSERT_EQ(M.numStates(), 3u);
  DynamicBitset Live = M.liveStates();
  EXPECT_TRUE(Live.test(0));
  EXPECT_TRUE(Live.test(1));
  EXPECT_FALSE(Live.test(2));
  EXPECT_EQ(M.reachableStates().count(), 3u);
}

TEST(Dfa, ToDotSmoke) {
  Dfa M = buildOneBitMachine();
  std::string Dot = M.toDot("onebit");
  EXPECT_NE(Dot.find("digraph"), std::string::npos);
  EXPECT_NE(Dot.find("doublecircle"), std::string::npos);
}

} // namespace
