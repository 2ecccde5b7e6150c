//===- automata/Monoid.cpp - Transition monoid of a DFA ---------*- C++ -*-===//
//
// Part of the RASC project: regularly annotated set constraints.
//
//===----------------------------------------------------------------------===//

#include "automata/Monoid.h"

#include "support/Trace.h"

#include <algorithm>
#include <chrono>
#include <sstream>

using namespace rasc;

TransitionMonoid::TransitionMonoid(const Dfa &M, Options Opts)
    : M(M), NumStates(M.numStates()), Start(M.start()),
      Accepting(M.acceptingStates()), Live(M.liveStates()) {
  using Clock = std::chrono::steady_clock;
  auto since = [](Clock::time_point T) {
    return std::chrono::duration<double>(Clock::now() - T).count();
  };
  std::vector<FnId> Right;
  {
    trace::Scope Span("monoid.closure");
    auto T0 = Clock::now();
    close(Opts, Right);
    ClosureSeconds = since(T0);
    Span.args(size());
  }

  // Composition acceleration.
  if (!Overflowed && size() <= Opts.DenseTableLimit) {
    RASC_TRACE_SCOPE("monoid.table", size(), size() * size());
    auto T0 = Clock::now();
    buildDenseTable(Right);
    TableSeconds = since(T0);
  } else {
    // Memo path: expect a quadratic-ish working set of hot pairs;
    // pre-sizing avoids rehash storms in the closure loop.
    Memo.reserve(std::min<size_t>(size() * 16, size_t(1) << 20));
  }
}

void TransitionMonoid::close(const Options &Opts, std::vector<FnId> &Right) {
  // One scratch function for every probe; intern() copies it only when
  // it is new.
  std::vector<StateId> Fn(NumStates);

  // Identity first so identity() == 0.
  for (StateId S = 0; S != NumStates; ++S)
    Fn[S] = S;
  intern(Fn);

  // Generators: one function per alphabet symbol.
  SymbolId NumSyms = M.numSymbols();
  SymbolFns.reserve(NumSyms);
  for (SymbolId A = 0; A != NumSyms; ++A) {
    for (StateId S = 0; S != NumStates; ++S)
      Fn[S] = M.next(S, A);
    SymbolFns.push_back(intern(Fn));
  }

  // Close under right extension by generators: every f_w is reached by
  // extending words one symbol at a time (f_{w sigma} = f_sigma ∘ f_w).
  // Record generator provenance (the generators' sample word is the
  // single symbol; the identity's is empty).
  for (SymbolId A = 0; A != NumSyms; ++A)
    if (Parents[SymbolFns[A]].Sym == InvalidSymbol &&
        SymbolFns[A] != identity())
      Parents[SymbolFns[A]] = {identity(), A};

  // Elements are interned in BFS order, so the work queue is the id
  // range itself, and Right fills in (F, A) order.
  bool RecordRight = size() <= Opts.DenseTableLimit;
  for (FnId F = 0; F != size() && !Overflowed; ++F) {
    for (SymbolId A = 0; A != NumSyms; ++A) {
      // Funcs may grow below, so take both rows afresh per symbol.
      const StateId *Src = &Funcs[static_cast<size_t>(F) * NumStates];
      const StateId *Gen =
          &Funcs[static_cast<size_t>(SymbolFns[A]) * NumStates];
      for (StateId S = 0; S != NumStates; ++S)
        Fn[S] = Gen[Src[S]];
      size_t Before = size();
      if (Before >= Opts.MaxElements) {
        Overflowed = true;
        break;
      }
      FnId New = intern(Fn);
      if (New == Before) // freshly interned
        Parents[New] = {F, A};
      if (RecordRight)
        Right.push_back(New);
    }
    if (RecordRight && size() > Opts.DenseTableLimit) {
      // No dense table will be built; do not carry the graph.
      RecordRight = false;
      std::vector<FnId>().swap(Right);
    }
  }
}

void TransitionMonoid::buildDenseTable(const std::vector<FnId> &Right) {
  UseDenseTable = true;
  size_t N = size();
  size_t NumSyms = M.numSymbols();
  assert(Right.size() == N * NumSyms && "right Cayley graph incomplete");
  DenseTable.resize(N * N);
  DenseTableT.resize(N * N);

  // Row F = f_A ∘ P: DenseTable[F][G] = Right[DenseTable[P][G]][A]. The
  // identity row is G itself; every other row is one gather over an
  // earlier row.
  for (FnId G = 0; G != N; ++G)
    DenseTable[G] = G;
  for (FnId F = 1; F != N; ++F) {
    const Provenance &P = Parents[F];
    assert(P.Prev < F && "BFS parent must precede its child");
    const FnId *Prev = &DenseTable[static_cast<size_t>(P.Prev) * N];
    const FnId *Step = &Right[P.Sym];
    FnId *Row = &DenseTable[static_cast<size_t>(F) * N];
    for (size_t G = 0; G != N; ++G)
      Row[G] = Step[static_cast<size_t>(Prev[G]) * NumSyms];
  }

  // The transpose by the same recurrence, with the left operand
  // varying along each row: DenseTableT[G][F] = F ∘ G
  // = Right[DenseTableT[G][P]][A]. Each row only reads its own prefix.
  for (FnId G = 0; G != N; ++G) {
    FnId *Col = &DenseTableT[static_cast<size_t>(G) * N];
    Col[0] = G;
    for (FnId F = 1; F != N; ++F) {
      const Provenance &P = Parents[F];
      Col[F] = Right[static_cast<size_t>(Col[P.Prev]) * NumSyms + P.Sym];
    }
  }
}

FnId TransitionMonoid::intern(const std::vector<StateId> &Fn) {
  auto It = FnIds.find(Fn);
  if (It != FnIds.end())
    return It->second;
  FnId Id = static_cast<FnId>(size());
  FnIds.emplace(Fn, Id);
  Funcs.insert(Funcs.end(), Fn.begin(), Fn.end());
  bool AllDead = true;
  for (StateId S : Fn)
    if (Live.test(S)) {
      AllDead = false;
      break;
    }
  Useless.push_back(AllDead);
  Parents.push_back({});
  return Id;
}

FnId TransitionMonoid::wordFn(std::span<const SymbolId> W) const {
  FnId F = identity();
  for (SymbolId Sym : W)
    F = compose(symbolFn(Sym), F);
  return F;
}

FnId TransitionMonoid::compose(FnId F, FnId G) const {
  assert(!Overflowed && "composition on an overflowed monoid");
  assert(F < size() && G < size() && "fn out of range");
  if (UseDenseTable)
    return DenseTable[static_cast<size_t>(F) * size() + G];
  uint64_t Key = (static_cast<uint64_t>(F) << 32) | G;
  auto It = Memo.find(Key);
  if (It != Memo.end())
    return It->second;
  FnId R = composeSlow(F, G);
  Memo.emplace(Key, R);
  return R;
}

FnId TransitionMonoid::composeSlow(FnId F, FnId G) const {
  std::vector<StateId> Fn(NumStates);
  for (StateId S = 0; S != NumStates; ++S)
    Fn[S] = apply(F, apply(G, S));
  auto It = FnIds.find(Fn);
  assert(It != FnIds.end() &&
         "monoid closure missing a product; overflowed?");
  return It->second;
}

Word TransitionMonoid::sampleWord(FnId F) const {
  assert(F < size() && "fn out of range");
  Word W;
  while (F != identity()) {
    const Provenance &P = Parents[F];
    assert(P.Sym != InvalidSymbol &&
           "element has no closure provenance");
    W.push_back(P.Sym);
    F = P.Prev;
  }
  std::reverse(W.begin(), W.end());
  return W;
}

std::string TransitionMonoid::toString(FnId F) const {
  std::ostringstream OS;
  OS << "[";
  for (StateId S = 0; S != NumStates; ++S) {
    if (S)
      OS << ", ";
    OS << S << "->" << apply(F, S);
  }
  OS << "]";
  return OS.str();
}
