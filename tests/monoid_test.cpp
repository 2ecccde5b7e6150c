//===- tests/monoid_test.cpp - Transition monoid tests ----------*- C++ -*-===//
//
// Part of the RASC project: regularly annotated set constraints.
//
//===----------------------------------------------------------------------===//

#include "automata/DfaOps.h"
#include "automata/Machines.h"
#include "automata/Monoid.h"
#include "automata/RegexParser.h"
#include "ebpf/Cfg.h"
#include "ebpf/Decode.h"
#include "ebpf/Lower.h"
#include "flow/Analysis.h"
#include "pdmc/Properties.h"
#include "support/Rng.h"

#include <fstream>
#include <gtest/gtest.h>
#include <iterator>
#include <map>

using namespace rasc;

namespace {

TEST(Monoid, OneBitHasThreeFunctions) {
  // Paper Section 3.3: F_M^≡ = {f_eps, f_g, f_k} for the 1-bit
  // language, because f_g ∘ f_g = f_g, f_k ∘ f_g = f_k, and so on.
  Dfa M = buildOneBitMachine();
  TransitionMonoid Mon(M);
  EXPECT_EQ(Mon.size(), 3u);

  FnId Fg = Mon.symbolFn(*M.symbol("g"));
  FnId Fk = Mon.symbolFn(*M.symbol("k"));
  EXPECT_EQ(Mon.compose(Fg, Fg), Fg);
  EXPECT_EQ(Mon.compose(Fk, Fg), Fk);
  EXPECT_EQ(Mon.compose(Fg, Fk), Fg);
  EXPECT_EQ(Mon.compose(Mon.identity(), Fg), Fg);

  // f_g is accepting from the start state (word "g" is in L), f_k and
  // identity are not.
  EXPECT_TRUE(Mon.acceptingFromStart(Fg));
  EXPECT_FALSE(Mon.acceptingFromStart(Fk));
  EXPECT_FALSE(Mon.acceptingFromStart(Mon.identity()));
}

TEST(Monoid, WordFnMatchesRun) {
  Dfa M = buildFileStateMachine();
  TransitionMonoid Mon(M);
  Rng R(7);
  for (int Trial = 0; Trial != 200; ++Trial) {
    Word W;
    size_t Len = R.below(8);
    for (size_t I = 0; I != Len; ++I)
      W.push_back(static_cast<SymbolId>(R.below(M.numSymbols())));
    FnId F = Mon.wordFn(W);
    for (StateId S = 0; S != M.numStates(); ++S)
      EXPECT_EQ(Mon.apply(F, S), M.run(W, S));
    EXPECT_EQ(Mon.acceptingFromStart(F), M.accepts(W));
  }
}

TEST(Monoid, CongruenceIsSound) {
  // If two words map to the same representative function then for all
  // x, y: xwy in L iff xw'y in L (Theorem 2.1 / definition of ≡_M).
  std::string Err;
  std::optional<Dfa> M = compileRegex("(a b | b a)* a", {}, &Err);
  ASSERT_TRUE(M) << Err;
  TransitionMonoid Mon(*M);
  Rng R(99);
  auto randWord = [&](size_t MaxLen) {
    Word W;
    size_t Len = R.below(MaxLen + 1);
    for (size_t I = 0; I != Len; ++I)
      W.push_back(static_cast<SymbolId>(R.below(M->numSymbols())));
    return W;
  };
  for (int Trial = 0; Trial != 300; ++Trial) {
    Word W1 = randWord(6), W2 = randWord(6);
    if (Mon.wordFn(W1) != Mon.wordFn(W2))
      continue;
    for (int Ctx = 0; Ctx != 20; ++Ctx) {
      Word X = randWord(4), Y = randWord(4);
      Word XW1Y = X, XW2Y = X;
      XW1Y.insert(XW1Y.end(), W1.begin(), W1.end());
      XW1Y.insert(XW1Y.end(), Y.begin(), Y.end());
      XW2Y.insert(XW2Y.end(), W2.begin(), W2.end());
      XW2Y.insert(XW2Y.end(), Y.begin(), Y.end());
      EXPECT_EQ(M->accepts(XW1Y), M->accepts(XW2Y));
    }
  }
}

TEST(Monoid, AssociativityAndIdentity) {
  Dfa M = buildAdversarialMachine(3);
  TransitionMonoid Mon(M);
  EXPECT_TRUE(Mon.enumerateAll());
  size_t N = Mon.size();
  ASSERT_EQ(N, 27u); // 3^3 functions
  for (FnId F = 0; F != N; ++F) {
    EXPECT_EQ(Mon.compose(F, Mon.identity()), F);
    EXPECT_EQ(Mon.compose(Mon.identity(), F), F);
  }
  Rng R(1);
  for (int Trial = 0; Trial != 500; ++Trial) {
    FnId F = static_cast<FnId>(R.below(N));
    FnId G = static_cast<FnId>(R.below(N));
    FnId H = static_cast<FnId>(R.below(N));
    EXPECT_EQ(Mon.compose(Mon.compose(F, G), H),
              Mon.compose(F, Mon.compose(G, H)));
  }
}

TEST(Monoid, AdversarialGrowthIsSuperexponential) {
  // Figure 2: rotate/swap/merge generate all |S|^|S| functions.
  for (unsigned N = 2; N <= 5; ++N) {
    Dfa M = buildAdversarialMachine(N);
    TransitionMonoid Mon(M);
    EXPECT_TRUE(Mon.enumerateAll());
    size_t Expected = 1;
    for (unsigned I = 0; I != N; ++I)
      Expected *= N;
    EXPECT_EQ(Mon.size(), Expected) << "N=" << N;
    EXPECT_FALSE(Mon.overflowed());
  }
}

TEST(Monoid, OverflowCapIsHonored) {
  Dfa M = buildAdversarialMachine(6); // 6^6 = 46656 elements
  TransitionMonoid::Options Opts;
  Opts.MaxElements = 1000;
  TransitionMonoid Mon(M, Opts);
  EXPECT_FALSE(Mon.overflowed()) << "only the generators are interned";
  EXPECT_FALSE(Mon.enumerateAll());
  EXPECT_TRUE(Mon.overflowed());
  EXPECT_LE(Mon.size(), 1001u);
}

TEST(Monoid, UselessDetection) {
  // For "a b c": the function of word "c a" maps every state to the
  // dead state (no extension is in L), so it is useless; "b" is not.
  std::string Err;
  std::optional<Dfa> M = compileRegex("a b c", {}, &Err);
  ASSERT_TRUE(M) << Err;
  TransitionMonoid Mon(*M);
  Word CA{*M->symbol("c"), *M->symbol("a")};
  Word B{*M->symbol("b")};
  EXPECT_TRUE(Mon.isUseless(Mon.wordFn(CA)));
  EXPECT_FALSE(Mon.isUseless(Mon.wordFn(B)));
  EXPECT_FALSE(Mon.isUseless(Mon.identity()));
}

TEST(Monoid, SampleWordsRoundTrip) {
  // wordFn(sampleWord(F)) == F for every element; the identity's
  // sample word is empty.
  for (unsigned N : {2u, 3u, 4u}) {
    Dfa M = buildAdversarialMachine(N);
    TransitionMonoid Mon(M);
    Mon.enumerateAll();
    EXPECT_EQ(Mon.sampleWord(Mon.identity()), Word{});
    for (FnId F = 0; F != Mon.size(); ++F) {
      Word W = Mon.sampleWord(F).value();
      EXPECT_EQ(Mon.wordFn(W), F) << "N=" << N << " F=" << F;
    }
  }
}

TEST(Monoid, SampleWordsDoNotDependOnQueryOrder) {
  // The search resumes across calls; asking for the deepest classes
  // first gives the same words as asking in breadth-first order.
  Dfa M = buildAdversarialMachine(4);
  TransitionMonoid Forward(M), Backward(M);
  Forward.enumerateAll();
  Backward.enumerateAll();
  std::vector<std::optional<Word>> Words(Forward.size());
  for (FnId F = 0; F != Forward.size(); ++F)
    Words[F] = Forward.sampleWord(F);
  for (FnId F = Backward.size(); F-- != 0;)
    EXPECT_EQ(Backward.sampleWord(F), Words[F]) << "F=" << F;
}

TEST(Monoid, SampleWordSearchStopsAtTheElementCap) {
  // The search reaches functions in shortlex order of their least
  // words; a class whose least word lies past MaxElements functions
  // has no sample word under that cap, and the search stays bounded.
  Dfa M = buildAdversarialMachine(4);
  TransitionMonoid Full(M);
  Full.enumerateAll();
  Word Deepest = Full.sampleWord(static_cast<FnId>(Full.size() - 1)).value();
  ASSERT_GE(Deepest.size(), 4u);

  TransitionMonoid::Options Opts;
  Opts.MaxElements = 20;
  TransitionMonoid Capped(M, Opts);
  FnId F = Capped.wordFn(Deepest);
  size_t Before = Capped.memoryBytes();
  EXPECT_EQ(Capped.sampleWord(F), std::nullopt);
  EXPECT_LT(Capped.memoryBytes() - Before, size_t(4096));
  // Classes within the cap still get their words.
  EXPECT_EQ(Capped.sampleWord(Capped.symbolFn(0)), Word{0});
}

/// Every product of the enumerated monoid of \p M against the state
/// tables, through both a breadth-first enumeration and a monoid that
/// interns the same elements in a shuffled order: all N^2 pairs give
/// the composed state table, and each element's sample word maps back
/// to it and is the same word whatever the interning order.
/// \returns the size.
size_t expectComposeMatchesStateTables(const Dfa &M) {
  TransitionMonoid Mon(M);
  EXPECT_TRUE(Mon.enumerateAll());
  size_t N = Mon.size();
  size_t Mismatches = 0;
  for (FnId F = 0; F != N; ++F)
    for (FnId G = 0; G != N; ++G) {
      FnId R = Mon.compose(F, G);
      for (StateId S = 0; S != M.numStates(); ++S)
        if (Mon.apply(R, S) != Mon.apply(F, Mon.apply(G, S))) {
          if (++Mismatches == 1)
            ADD_FAILURE() << "F=" << F << " G=" << G << ": compose gives "
                          << Mon.toString(R);
          break;
        }
    }
  EXPECT_EQ(Mismatches, 0u);
  EXPECT_EQ(Mon.size(), N) << "a product outside the enumeration";

  // A second monoid reaches the elements through the sample words of
  // the first, in a shuffled order, so its ids differ.
  std::vector<FnId> Order(N);
  for (FnId F = 0; F != N; ++F)
    Order[F] = F;
  Rng R(N);
  for (size_t I = N; I > 1; --I)
    std::swap(Order[I - 1], Order[R.below(I)]);
  TransitionMonoid Shuffled(M);
  for (FnId F : Order) {
    Word W = Mon.sampleWord(F).value();
    EXPECT_EQ(Mon.wordFn(W), F) << "F=" << F;
    FnId Other = Shuffled.wordFn(W);
    EXPECT_EQ(Shuffled.toString(Other), Mon.toString(F));
    EXPECT_EQ(Shuffled.sampleWord(Other), W) << "F=" << F;
  }
  EXPECT_EQ(Shuffled.size(), N);
  return N;
}

/// A 3-state machine whose symbol 'n' acts as the identity (so its
/// generator is element 0) and whose 'c' repeats 'a' (a duplicate
/// generator).
Dfa identitySymbolMachine() {
  DfaBuilder B;
  SymbolId A = B.addSymbol("a"), Bm = B.addSymbol("b"),
           Nop = B.addSymbol("n"), C = B.addSymbol("c");
  StateId S[3] = {B.addState(), B.addState(), B.addState()};
  for (unsigned I = 0; I != 3; ++I) {
    B.addTransition(S[I], A, S[(I + 1) % 3]);
    B.addTransition(S[I], C, S[(I + 1) % 3]);
    B.addTransition(S[I], Bm, S[I == 1 ? 0 : I]);
    B.addTransition(S[I], Nop, S[I]);
  }
  B.setStart(S[0]);
  B.setAccepting(S[2]);
  return B.build();
}

TEST(Monoid, LazyComposeMatchesStateTables) {
  for (unsigned N : {2u, 3u, 4u}) {
    SCOPED_TRACE("adversarial " + std::to_string(N));
    expectComposeMatchesStateTables(buildAdversarialMachine(N));
  }
  {
    SCOPED_TRACE("3-bit gen/kill");
    EXPECT_EQ(
        expectComposeMatchesStateTables(minimize(buildNBitMachine(3))),
        27u);
  }
  {
    SCOPED_TRACE("identity symbol");
    Dfa M = identitySymbolMachine();
    EXPECT_EQ(TransitionMonoid(M).symbolFn(*M.symbol("n")), 0u);
    expectComposeMatchesStateTables(M);
  }
  for (const auto &[Name, Spec] :
       {std::pair{"full privilege", fullPrivilegeSpec()},
        std::pair{"file state", fileStateSpec()},
        std::pair{"eBPF map check", ebpf::mapCheckSpec()}}) {
    SCOPED_TRACE(Name);
    expectComposeMatchesStateTables(Spec.machine());
  }
}

TEST(Monoid, LazyComposeMatchesStateTablesOnEbpfFlowMonoid) {
  // The flow pair automaton of a golden eBPF program: 906 elements
  // when enumerated, of which a flow analysis interns a small part
  // (FlowAnalysisInternsWhatItComposes below).
  std::ifstream In(std::string(RASC_TEST_DATA_DIR) + "/ebpf/gen-009.bpf",
                   std::ios::binary);
  ASSERT_TRUE(In.good());
  std::string Bytes((std::istreambuf_iterator<char>(In)),
                    std::istreambuf_iterator<char>());
  Expected<ebpf::DecodedProgram> D = ebpf::decode(
      {reinterpret_cast<const uint8_t *>(Bytes.data()), Bytes.size()});
  ASSERT_TRUE(D) << D.error().render();
  ebpf::Cfg G = ebpf::buildCfg(std::move(*D));
  ebpf::FlowLowering Fl = ebpf::lowerToFlowProgram(G);
  EXPECT_EQ(expectComposeMatchesStateTables(buildPairAutomaton(Fl.Prog)),
            906u);
}

TEST(Monoid, NBitMachineMonoidIsPowOfThree) {
  // Section 3.3 / Section 4: the n-bit language needs 3^n
  // representative functions (id/set/reset per bit), exploiting order
  // independence of distinct bits automatically.
  for (unsigned Bits = 1; Bits <= 3; ++Bits) {
    Dfa M = minimize(buildNBitMachine(Bits));
    TransitionMonoid Mon(M);
    EXPECT_TRUE(Mon.enumerateAll());
    size_t Expected = 1;
    for (unsigned I = 0; I != Bits; ++I)
      Expected *= 3;
    EXPECT_EQ(Mon.size(), Expected) << "bits=" << Bits;
  }
}

TEST(Monoid, ConstructionInternsGeneratorsOnly) {
  // Figure 2 on 8 states: 8^8 elements, none built up front.
  Dfa M = buildAdversarialMachine(8);
  TransitionMonoid Mon(M);
  EXPECT_EQ(Mon.size(), 4u); // identity, rotate, swap, merge
  EXPECT_EQ(Mon.composeMisses(), 0u);
  EXPECT_LT(Mon.memoryBytes(), size_t(4096));

  // A product is computed once, then read back.
  FnId Rot = Mon.symbolFn(*M.symbol("rotate"));
  FnId Swap = Mon.symbolFn(*M.symbol("swap"));
  FnId P = Mon.compose(Swap, Rot);
  EXPECT_EQ(Mon.size(), 5u);
  EXPECT_EQ(Mon.composeMisses(), 1u);
  EXPECT_EQ(Mon.compose(Swap, Rot), P);
  EXPECT_EQ(Mon.composeMisses(), 1u);
  EXPECT_EQ(Mon.sampleWord(P), (Word{*M.symbol("rotate"), *M.symbol("swap")}));
  // A product that is already an element interns nothing new.
  EXPECT_EQ(Mon.compose(Mon.identity(), Rot), Rot);
  EXPECT_EQ(Mon.size(), 5u);
  EXPECT_EQ(Mon.composeMisses(), 2u);
}

TEST(Monoid, FlowAnalysisInternsWhatItComposes) {
  // A flow analysis of a golden eBPF program touches a small part of
  // its pair automaton's 906-element monoid, and every element it
  // interned is a product of the generators with the right table.
  std::ifstream In(std::string(RASC_TEST_DATA_DIR) + "/ebpf/gen-009.bpf",
                   std::ios::binary);
  ASSERT_TRUE(In.good());
  std::string Bytes((std::istreambuf_iterator<char>(In)),
                    std::istreambuf_iterator<char>());
  Expected<ebpf::DecodedProgram> D = ebpf::decode(
      {reinterpret_cast<const uint8_t *>(Bytes.data()), Bytes.size()});
  ASSERT_TRUE(D) << D.error().render();
  ebpf::Cfg G = ebpf::buildCfg(std::move(*D));
  ebpf::FlowLowering Fl = ebpf::lowerToFlowProgram(G);
  FlowAnalysis A(Fl.Prog, FlowMode::Primal);
  A.flowsPN(Fl.CtxLit, Fl.ResultExpr);
  const TransitionMonoid &Mon = A.domain().monoid();
  EXPECT_LT(Mon.size(), 906u / 4);
  for (FnId F = 0; F != Mon.size(); ++F) {
    Word W = Mon.sampleWord(F).value();
    EXPECT_EQ(Mon.wordFn(W), F);
    for (StateId S = 0; S != Mon.numStates(); ++S)
      ASSERT_EQ(Mon.apply(F, S), Mon.automaton().run(W, S)) << "F=" << F;
  }
}

TEST(Monoid, InterningSurvivesIndexRehashesAndRowMoves) {
  // 5^5 = 3125 elements: the index rehashes from 64 slots upwards, and
  // every generator's row outgrows its span and moves as the
  // enumeration interns past it.
  Dfa M = buildAdversarialMachine(5);
  TransitionMonoid Mon(M);
  size_t Before = Mon.memoryBytes();
  ASSERT_TRUE(Mon.enumerateAll());
  ASSERT_EQ(Mon.size(), 3125u);
  EXPECT_GT(Mon.memoryBytes(), Before);

  // Ids follow first use: the order of a reference closure over the
  // state tables (identity, generators, then right extensions).
  using Table = std::vector<StateId>;
  std::map<Table, FnId> Seen;
  std::vector<Table> Order;
  auto add = [&](Table T) {
    if (Seen.emplace(T, static_cast<FnId>(Order.size())).second)
      Order.push_back(std::move(T));
  };
  Table Id(M.numStates());
  for (StateId S = 0; S != M.numStates(); ++S)
    Id[S] = S;
  add(Id);
  for (SymbolId A = 0; A != M.numSymbols(); ++A) {
    Table T(M.numStates());
    for (StateId S = 0; S != M.numStates(); ++S)
      T[S] = M.next(S, A);
    add(T);
  }
  for (size_t F = 0; F != Order.size(); ++F)
    for (SymbolId A = 0; A != M.numSymbols(); ++A) {
      Table T(M.numStates());
      for (StateId S = 0; S != M.numStates(); ++S)
        T[S] = M.next(Order[F][S], A);
      add(T);
    }
  ASSERT_EQ(Order.size(), Mon.size());
  for (FnId F = 0; F != Mon.size(); ++F)
    for (StateId S = 0; S != M.numStates(); ++S)
      ASSERT_EQ(Mon.apply(F, S), Order[F][S]) << "element " << F;

  // The enumeration filled every generator's row, moving each several
  // times; reading them back is all table reads.
  uint64_t Misses = Mon.composeMisses();
  for (SymbolId A = 0; A != M.numSymbols(); ++A)
    for (FnId G = 0; G != Mon.size(); ++G)
      Mon.compose(Mon.symbolFn(A), G);
  EXPECT_EQ(Mon.composeMisses(), Misses) << "a moved row lost a product";

  // compose() equals the state-table product on the miss that fills a
  // slot and on every later read, which misses nothing. The rows other
  // than the generators' start here, after which the arena only grows.
  size_t Last = Mon.memoryBytes();
  for (int Pass = 0; Pass != 2; ++Pass) {
    Misses = Mon.composeMisses();
    for (FnId F = 0; F < Mon.size(); F += F < 8 ? 1 : 97) {
      for (FnId G = 0; G != Mon.size(); ++G) {
        FnId P = Mon.compose(F, G);
        for (StateId S = 0; S != M.numStates(); ++S)
          ASSERT_EQ(Mon.apply(P, S), Mon.apply(F, Mon.apply(G, S)))
              << F << " o " << G << " pass " << Pass;
      }
      EXPECT_GE(Mon.memoryBytes(), Last);
      Last = Mon.memoryBytes();
    }
    if (Pass == 1) {
      EXPECT_EQ(Mon.composeMisses(), Misses) << "a read recomputed";
    }
  }
  EXPECT_EQ(Mon.size(), 3125u) << "a product outside the monoid";
}

} // namespace
