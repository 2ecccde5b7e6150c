//===- tests/automata_property_test.cpp - Randomized automata tests -*- C++ -*-//
//
// Part of the RASC project: regularly annotated set constraints.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Randomized property tests for the automata substrate: minimization
/// preserves the language and is canonical, products implement the
/// boolean operations, the closure constructions accept exactly the
/// substrings/prefixes/suffixes, and the transition monoid agrees with
/// direct automaton runs.
///
//===----------------------------------------------------------------------===//

#include "automata/DfaOps.h"
#include "automata/Monoid.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <deque>

using namespace rasc;

namespace {

Dfa randomDfa(Rng &R, unsigned NumStates, unsigned NumSyms) {
  DfaBuilder B;
  std::vector<SymbolId> Syms;
  for (unsigned I = 0; I != NumSyms; ++I)
    Syms.push_back(B.addSymbol("s" + std::to_string(I)));
  for (unsigned I = 0; I != NumStates; ++I)
    B.addState();
  B.setStart(static_cast<StateId>(R.below(NumStates)));
  for (unsigned I = 0; I != NumStates; ++I) {
    if (R.chance(1, 3))
      B.setAccepting(I);
    for (SymbolId S : Syms)
      B.addTransition(I, S, static_cast<StateId>(R.below(NumStates)));
  }
  return B.build();
}

Word randomWord(Rng &R, unsigned NumSyms, size_t MaxLen) {
  Word W;
  size_t Len = R.below(MaxLen + 1);
  for (size_t I = 0; I != Len; ++I)
    W.push_back(static_cast<SymbolId>(R.below(NumSyms)));
  return W;
}

class AutomataRandom : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AutomataRandom, MinimizePreservesLanguageAndIsCanonical) {
  Rng R(GetParam());
  Dfa M = randomDfa(R, 2 + R.below(8), 2 + R.below(2));
  Dfa Min = minimize(M);
  EXPECT_LE(Min.numStates(), M.numStates());
  EXPECT_TRUE(equivalent(M, Min));
  // Minimizing again is a fixpoint (same state count).
  Dfa MinMin = minimize(Min);
  EXPECT_EQ(MinMin.numStates(), Min.numStates());
  // Sampled words agree.
  for (int Trial = 0; Trial != 100; ++Trial) {
    Word W = randomWord(R, M.numSymbols(), 8);
    EXPECT_EQ(M.accepts(W), Min.accepts(W));
  }
}

TEST_P(AutomataRandom, ProductImplementsBooleanOps) {
  Rng R(GetParam() ^ 0x9090);
  unsigned NumSyms = 2;
  Dfa A = randomDfa(R, 2 + R.below(5), NumSyms);
  Dfa B = randomDfa(R, 2 + R.below(5), NumSyms);
  Dfa And = product(A, B, ProductKind::Intersection);
  Dfa Or = product(A, B, ProductKind::Union);
  Dfa Diff = product(A, B, ProductKind::Difference);
  for (int Trial = 0; Trial != 200; ++Trial) {
    Word W = randomWord(R, NumSyms, 8);
    bool InA = A.accepts(W), InB = B.accepts(W);
    EXPECT_EQ(And.accepts(W), InA && InB);
    EXPECT_EQ(Or.accepts(W), InA || InB);
    EXPECT_EQ(Diff.accepts(W), InA && !InB);
  }
}

TEST_P(AutomataRandom, ClosuresAcceptExactlyTheFragments) {
  Rng R(GetParam() ^ 0xc105);
  unsigned NumSyms = 2;
  Dfa M = minimize(randomDfa(R, 2 + R.below(4), NumSyms));
  Dfa Sub = substringClosure(M);
  Dfa Pre = prefixClosure(M);
  Dfa Suf = suffixClosure(M);

  // Direction 1: every fragment of an accepted word is accepted by
  // the corresponding closure.
  std::vector<Word> Samples = enumerateWords(M, 10, 8);
  for (const Word &W : Samples) {
    for (size_t Lo = 0; Lo <= W.size(); ++Lo)
      for (size_t Hi = Lo; Hi <= W.size(); ++Hi) {
        Word Frag(W.begin() + Lo, W.begin() + Hi);
        EXPECT_TRUE(Sub.accepts(Frag));
        if (Lo == 0) {
          EXPECT_TRUE(Pre.accepts(Frag));
        }
        if (Hi == W.size()) {
          EXPECT_TRUE(Suf.accepts(Frag));
        }
      }
  }

  // Direction 2: random words accepted by a closure must extend to a
  // word in L(M). Verify via automaton: Sub-accepted w means delta
  // runs from some reachable state to some live state.
  DynamicBitset Reach = M.reachableStates();
  DynamicBitset Live = M.liveStates();
  for (int Trial = 0; Trial != 200; ++Trial) {
    Word W = randomWord(R, NumSyms, 6);
    bool Expect = false;
    for (size_t S = Reach.findFirst(); S != Reach.size();
         S = Reach.findNext(S + 1))
      Expect |= Live.test(M.run(W, static_cast<StateId>(S)));
    EXPECT_EQ(Sub.accepts(W), Expect);
    EXPECT_EQ(Pre.accepts(W), Live.test(M.run(W)));
    bool ExpectSuf = false;
    for (size_t S = Reach.findFirst(); S != Reach.size();
         S = Reach.findNext(S + 1))
      ExpectSuf |= M.isAccepting(M.run(W, static_cast<StateId>(S)));
    EXPECT_EQ(Suf.accepts(W), ExpectSuf);
  }
}

TEST_P(AutomataRandom, MonoidAgreesWithRuns) {
  Rng R(GetParam() ^ 0x3030);
  Dfa M = minimize(randomDfa(R, 2 + R.below(4), 2));
  TransitionMonoid Mon(M);
  for (int Trial = 0; Trial != 100; ++Trial) {
    Word W1 = randomWord(R, 2, 5), W2 = randomWord(R, 2, 5);
    FnId F1 = Mon.wordFn(W1), F2 = Mon.wordFn(W2);
    // Concatenation = composition.
    Word W12 = W1;
    W12.insert(W12.end(), W2.begin(), W2.end());
    EXPECT_EQ(Mon.wordFn(W12), Mon.compose(F2, F1));
    // Application = running the automaton.
    for (StateId S = 0; S != M.numStates(); ++S)
      EXPECT_EQ(Mon.apply(F1, S), M.run(W1, S));
    EXPECT_EQ(Mon.acceptingFromStart(F1), M.accepts(W1));
  }
}

TEST_P(AutomataRandom, UselessMeansNoAcceptingExtension) {
  Rng R(GetParam() ^ 0x8888);
  Dfa M = minimize(randomDfa(R, 2 + R.below(4), 2));
  if (isEmptyLanguage(M))
    GTEST_SKIP();
  TransitionMonoid Mon(M);
  ASSERT_TRUE(Mon.enumerateAll());
  DynamicBitset Live = M.liveStates();
  for (FnId F = 0; F != Mon.size(); ++F) {
    bool AnyLive = false;
    for (StateId S = 0; S != M.numStates(); ++S)
      AnyLive |= Live.test(Mon.apply(F, S));
    EXPECT_EQ(Mon.isUseless(F), !AnyLive);
  }
}

TEST_P(AutomataRandom, LiveAndReachableMatchReferenceBfs) {
  Rng R(GetParam() ^ 0x1717);
  // Partial transition tables, so some automata gain a dead state.
  DfaBuilder B;
  unsigned NumStates = 1 + static_cast<unsigned>(R.below(9));
  unsigned NumSyms = 1 + static_cast<unsigned>(R.below(3));
  for (unsigned I = 0; I != NumSyms; ++I)
    B.addSymbol("s" + std::to_string(I));
  for (unsigned I = 0; I != NumStates; ++I)
    B.addState();
  B.setStart(static_cast<StateId>(R.below(NumStates)));
  for (unsigned I = 0; I != NumStates; ++I) {
    if (R.chance(1, 4))
      B.setAccepting(I);
    for (SymbolId S = 0; S != NumSyms; ++S)
      if (!R.chance(1, 4))
        B.addTransition(I, S, static_cast<StateId>(R.below(NumStates)));
  }
  Dfa M = B.build();

  // Reference: breadth-first search with a queue, forward from the
  // start and backward (over a scan for predecessors) from the
  // accepting states.
  auto bfs = [&](std::vector<StateId> Seeds, bool Backward) {
    std::vector<bool> Seen(M.numStates(), false);
    std::deque<StateId> Q;
    for (StateId S : Seeds) {
      Seen[S] = true;
      Q.push_back(S);
    }
    while (!Q.empty()) {
      StateId S = Q.front();
      Q.pop_front();
      for (StateId T = 0; T != M.numStates(); ++T)
        for (SymbolId A = 0; A != M.numSymbols(); ++A) {
          bool Edge = Backward ? M.next(T, A) == S : M.next(S, A) == T;
          if (Edge && !Seen[T]) {
            Seen[T] = true;
            Q.push_back(T);
          }
        }
    }
    return Seen;
  };
  std::vector<StateId> Accepting;
  for (StateId S = 0; S != M.numStates(); ++S)
    if (M.isAccepting(S))
      Accepting.push_back(S);
  std::vector<bool> Live = bfs(Accepting, /*Backward=*/true);
  std::vector<bool> Reach = bfs({M.start()}, /*Backward=*/false);
  DynamicBitset GotLive = M.liveStates(), GotReach = M.reachableStates();
  for (StateId S = 0; S != M.numStates(); ++S) {
    EXPECT_EQ(GotLive.test(S), Live[S]) << "state " << S;
    EXPECT_EQ(GotReach.test(S), Reach[S]) << "state " << S;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, AutomataRandom,
                         ::testing::Range(uint64_t(1), uint64_t(40)));

} // namespace
