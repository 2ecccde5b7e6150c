//===- automata/DfaOps.cpp - Automaton algorithms ---------------*- C++ -*-===//
//
// Part of the RASC project: regularly annotated set constraints.
//
//===----------------------------------------------------------------------===//

#include "automata/DfaOps.h"

#include "support/Hashing.h"

#include <algorithm>
#include <deque>
#include <map>
#include <unordered_map>

using namespace rasc;

Dfa rasc::determinize(const Nfa &N) {
  uint32_t NumSyms = N.numSymbols();

  std::unordered_map<DynamicBitset, StateId, BitsetHash> SubsetIds;
  std::vector<DynamicBitset> Subsets;
  std::vector<StateId> Trans;
  std::deque<StateId> Work;

  auto internSubset = [&](DynamicBitset Set) -> StateId {
    auto It = SubsetIds.find(Set);
    if (It != SubsetIds.end())
      return It->second;
    StateId Id = static_cast<StateId>(Subsets.size());
    SubsetIds.emplace(Set, Id);
    Subsets.push_back(std::move(Set));
    Trans.resize(Trans.size() + NumSyms, InvalidState);
    Work.push_back(Id);
    return Id;
  };

  DynamicBitset StartSet(N.numStates());
  StartSet.set(N.start());
  N.epsilonClose(StartSet);
  StateId Start = internSubset(std::move(StartSet));

  // Each subset's NFA transitions are bucketed by symbol once, so a
  // symbol costs a subset build only when it has a move; every other
  // symbol goes to the empty subset. That one is interned on first use
  // too, so states are numbered in (state, symbol) visiting order.
  std::vector<std::vector<StateId>> Moves(NumSyms);
  StateId Empty = InvalidState;
  while (!Work.empty()) {
    StateId Cur = Work.front();
    Work.pop_front();
    {
      // Dropped before interning, which may reallocate Subsets.
      const DynamicBitset &CurSet = Subsets[Cur];
      for (size_t S = CurSet.findFirst(); S != CurSet.size();
           S = CurSet.findNext(S + 1))
        for (auto [Sym, T] : N.transitions(static_cast<StateId>(S)))
          Moves[Sym].push_back(T);
    }
    for (SymbolId A = 0; A != NumSyms; ++A) {
      StateId NextId;
      if (Moves[A].empty()) {
        if (Empty == InvalidState)
          Empty = internSubset(DynamicBitset(N.numStates()));
        NextId = Empty;
      } else {
        DynamicBitset Next(N.numStates());
        for (StateId T : Moves[A])
          Next.set(T);
        Moves[A].clear();
        N.epsilonClose(Next);
        NextId = internSubset(std::move(Next));
      }
      // internSubset may reallocate Trans; index afterwards.
      Trans[static_cast<size_t>(Cur) * NumSyms + A] = NextId;
    }
  }

  uint32_t NumStates = static_cast<uint32_t>(Subsets.size());
  DynamicBitset Acc(NumStates);
  for (StateId S = 0; S != NumStates; ++S) {
    const DynamicBitset &Set = Subsets[S];
    for (size_t Q = Set.findFirst(); Q != Set.size();
         Q = Set.findNext(Q + 1))
      if (N.isAccepting(static_cast<StateId>(Q))) {
        Acc.set(S);
        break;
      }
  }

  return Dfa(N.alphabet(), NumStates, Start, std::move(Acc),
             std::move(Trans));
}

Dfa rasc::minimize(const Dfa &M) {
  uint32_t NumSyms = M.numSymbols();

  // Restrict to reachable states first.
  DynamicBitset Reach = M.reachableStates();
  std::vector<StateId> Compact(M.numStates(), InvalidState);
  std::vector<StateId> Orig;
  for (size_t S = Reach.findFirst(); S != Reach.size();
       S = Reach.findNext(S + 1)) {
    Compact[S] = static_cast<StateId>(Orig.size());
    Orig.push_back(static_cast<StateId>(S));
  }
  uint32_t N = static_cast<uint32_t>(Orig.size());

  // Moore refinement: start from the accepting/rejecting split and
  // refine by successor-block signatures until stable.
  std::vector<uint32_t> Block(N);
  for (uint32_t I = 0; I != N; ++I)
    Block[I] = M.isAccepting(Orig[I]) ? 1 : 0;
  uint32_t NumBlocks = 2;

  // Degenerate case: all states agree on acceptance.
  {
    bool Any0 = false, Any1 = false;
    for (uint32_t B : Block)
      (B ? Any1 : Any0) = true;
    if (!Any0 || !Any1) {
      NumBlocks = 1;
      std::fill(Block.begin(), Block.end(), 0u);
    }
  }

  while (true) {
    // Signature: own block + successor blocks.
    std::map<std::vector<uint32_t>, uint32_t> SigIds;
    std::vector<uint32_t> NewBlock(N);
    for (uint32_t I = 0; I != N; ++I) {
      std::vector<uint32_t> Sig;
      Sig.reserve(NumSyms + 1);
      Sig.push_back(Block[I]);
      for (SymbolId A = 0; A != NumSyms; ++A)
        Sig.push_back(Block[Compact[M.next(Orig[I], A)]]);
      auto [It, Inserted] =
          SigIds.emplace(std::move(Sig), static_cast<uint32_t>(SigIds.size()));
      NewBlock[I] = It->second;
      (void)Inserted;
    }
    uint32_t NewCount = static_cast<uint32_t>(SigIds.size());
    Block = std::move(NewBlock);
    if (NewCount == NumBlocks)
      break;
    NumBlocks = NewCount;
  }

  // Build the quotient automaton.
  DynamicBitset Acc(NumBlocks);
  std::vector<StateId> Trans(static_cast<size_t>(NumBlocks) * NumSyms,
                             InvalidState);
  for (uint32_t I = 0; I != N; ++I) {
    uint32_t B = Block[I];
    if (M.isAccepting(Orig[I]))
      Acc.set(B);
    for (SymbolId A = 0; A != NumSyms; ++A)
      Trans[static_cast<size_t>(B) * NumSyms + A] =
          Block[Compact[M.next(Orig[I], A)]];
  }
  return Dfa(M.alphabet(), NumBlocks, Block[Compact[M.start()]],
             std::move(Acc), std::move(Trans));
}

Dfa rasc::product(const Dfa &A, const Dfa &B, ProductKind Kind) {
  assert(A.alphabet() == B.alphabet() && "product needs equal alphabets");
  uint32_t NumSyms = A.numSymbols();

  auto acceptPair = [&](StateId SA, StateId SB) {
    switch (Kind) {
    case ProductKind::Intersection:
      return A.isAccepting(SA) && B.isAccepting(SB);
    case ProductKind::Union:
      return A.isAccepting(SA) || B.isAccepting(SB);
    case ProductKind::Difference:
      return A.isAccepting(SA) && !B.isAccepting(SB);
    }
    return false;
  };

  std::unordered_map<uint64_t, StateId> PairIds;
  std::vector<std::pair<StateId, StateId>> Pairs;
  std::vector<StateId> Trans;
  std::deque<StateId> Work;

  auto internPair = [&](StateId SA, StateId SB) -> StateId {
    uint64_t Key = (static_cast<uint64_t>(SA) << 32) | SB;
    auto It = PairIds.find(Key);
    if (It != PairIds.end())
      return It->second;
    StateId Id = static_cast<StateId>(Pairs.size());
    PairIds.emplace(Key, Id);
    Pairs.emplace_back(SA, SB);
    Trans.resize(Trans.size() + NumSyms, InvalidState);
    Work.push_back(Id);
    return Id;
  };

  StateId Start = internPair(A.start(), B.start());
  while (!Work.empty()) {
    StateId Cur = Work.front();
    Work.pop_front();
    auto [SA, SB] = Pairs[Cur];
    for (SymbolId Sym = 0; Sym != NumSyms; ++Sym) {
      StateId T = internPair(A.next(SA, Sym), B.next(SB, Sym));
      Trans[static_cast<size_t>(Cur) * NumSyms + Sym] = T;
    }
  }

  uint32_t NumStates = static_cast<uint32_t>(Pairs.size());
  DynamicBitset Acc(NumStates);
  for (StateId S = 0; S != NumStates; ++S)
    if (acceptPair(Pairs[S].first, Pairs[S].second))
      Acc.set(S);
  return Dfa(A.alphabet(), NumStates, Start, std::move(Acc),
             std::move(Trans));
}

Nfa rasc::toNfa(const Dfa &M) {
  Nfa N(M.alphabet());
  for (uint32_t S = 0, E = M.numStates(); S != E; ++S)
    N.addState();
  N.setStart(M.start());
  for (StateId S = 0, E = M.numStates(); S != E; ++S) {
    N.setAccepting(S, M.isAccepting(S));
    for (SymbolId A = 0, AE = M.numSymbols(); A != AE; ++A)
      N.addTransition(S, A, M.next(S, A));
  }
  return N;
}

namespace {

/// Shared skeleton for the closure constructions. A word w is in
///   * the substring closure iff exists reachable q with delta(w, q) live;
///   * the prefix closure    iff delta(w, s0) is live;
///   * the suffix closure    iff exists reachable q with delta(w, q)
///     accepting.
/// We build the corresponding NFA and determinize + minimize.
enum class ClosureKind { Substring, Prefix, Suffix };

Dfa closure(const Dfa &M, ClosureKind Kind) {
  DynamicBitset Reach = M.reachableStates();
  DynamicBitset Live = M.liveStates();

  Nfa N = toNfa(M);
  // Fresh start state with epsilon moves into the chosen entry states.
  StateId NewStart = N.addState();
  N.setStart(NewStart);
  if (Kind == ClosureKind::Substring || Kind == ClosureKind::Suffix) {
    for (size_t S = Reach.findFirst(); S != Reach.size();
         S = Reach.findNext(S + 1))
      N.addEpsilon(NewStart, static_cast<StateId>(S));
  } else {
    N.addEpsilon(NewStart, M.start());
  }
  // Accepting condition.
  if (Kind == ClosureKind::Substring || Kind == ClosureKind::Prefix) {
    for (StateId S = 0, E = M.numStates(); S != E; ++S)
      N.setAccepting(S, Live.test(S));
    N.setAccepting(NewStart, Live.intersects(Reach));
  } else {
    N.setAccepting(NewStart, Reach.intersects(M.acceptingStates()));
  }
  return minimize(determinize(N));
}

} // namespace

Dfa rasc::substringClosure(const Dfa &M) {
  return closure(M, ClosureKind::Substring);
}

Dfa rasc::prefixClosure(const Dfa &M) {
  return closure(M, ClosureKind::Prefix);
}

Dfa rasc::suffixClosure(const Dfa &M) {
  return closure(M, ClosureKind::Suffix);
}

bool rasc::isEmptyLanguage(const Dfa &M) {
  DynamicBitset Reach = M.reachableStates();
  return !Reach.intersects(M.acceptingStates());
}

bool rasc::equivalent(const Dfa &A, const Dfa &B) {
  return isEmptyLanguage(product(A, B, ProductKind::Difference)) &&
         isEmptyLanguage(product(B, A, ProductKind::Difference));
}

std::vector<Word> rasc::enumerateWords(const Dfa &M, size_t Limit,
                                       size_t MaxLength) {
  std::vector<Word> Result;
  std::deque<std::pair<Word, StateId>> Work;
  Work.emplace_back(Word{}, M.start());
  DynamicBitset Live = M.liveStates();
  while (!Work.empty() && Result.size() < Limit) {
    auto [W, S] = std::move(Work.front());
    Work.pop_front();
    if (M.isAccepting(S))
      Result.push_back(W);
    if (W.size() >= MaxLength)
      continue;
    for (SymbolId A = 0, E = M.numSymbols(); A != E; ++A) {
      StateId T = M.next(S, A);
      if (!Live.test(T))
        continue;
      Word Ext = W;
      Ext.push_back(A);
      Work.emplace_back(std::move(Ext), T);
    }
  }
  return Result;
}
