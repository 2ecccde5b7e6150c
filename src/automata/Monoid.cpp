//===- automata/Monoid.cpp - Transition monoid of a DFA ---------*- C++ -*-===//
//
// Part of the RASC project: regularly annotated set constraints.
//
//===----------------------------------------------------------------------===//

#include "automata/Monoid.h"

#include "support/Hashing.h"
#include "support/Trace.h"

#include <algorithm>
#include <numeric>
#include <sstream>

using namespace rasc;

std::pair<FnId, bool> TransitionMonoid::FnTable::insert(const StateId *Fn) {
  if (2 * (Count + 1) > Slots.size())
    rehash();
  size_t Mask = Slots.size() - 1;
  for (size_t I = hashRange(Fn, Fn + NumStates) & Mask;; I = (I + 1) & Mask) {
    FnId Id = Slots[I];
    if (Id == InvalidFn) {
      Id = static_cast<FnId>(Count++);
      Slots[I] = Id;
      Funcs.insert(Funcs.end(), Fn, Fn + NumStates);
      return {Id, true};
    }
    if (std::equal(Fn, Fn + NumStates, get(Id)))
      return {Id, false};
  }
}

FnId TransitionMonoid::FnTable::find(const StateId *Fn) const {
  if (Slots.empty())
    return InvalidFn;
  size_t Mask = Slots.size() - 1;
  for (size_t I = hashRange(Fn, Fn + NumStates) & Mask;; I = (I + 1) & Mask) {
    FnId Id = Slots[I];
    if (Id == InvalidFn || std::equal(Fn, Fn + NumStates, get(Id)))
      return Id;
  }
}

void TransitionMonoid::FnTable::rehash() {
  std::vector<FnId> Old(std::max<size_t>(16, 2 * Slots.size()), InvalidFn);
  Old.swap(Slots);
  size_t Mask = Slots.size() - 1;
  for (FnId Id = 0; Id != Count; ++Id) {
    const StateId *Fn = get(Id);
    size_t I = hashRange(Fn, Fn + NumStates) & Mask;
    while (Slots[I] != InvalidFn)
      I = (I + 1) & Mask;
    Slots[I] = Id;
  }
}

TransitionMonoid::TransitionMonoid(const Dfa &M, Options Opts)
    : M(M), NumStates(M.numStates()), Start(M.start()),
      Accepting(M.acceptingStates()), Live(M.liveStates()),
      MaxElements(Opts.MaxElements), Fns(NumStates), Scratch(NumStates),
      Sampled(NumStates) {
  // Identity first so identity() == 0, then one generator per symbol.
  std::iota(Scratch.begin(), Scratch.end(), StateId(0));
  intern(Scratch.data());
  SymbolFns.reserve(M.numSymbols());
  for (SymbolId A = 0; A != M.numSymbols(); ++A) {
    for (StateId S = 0; S != NumStates; ++S)
      Scratch[S] = M.next(S, A);
    SymbolFns.push_back(intern(Scratch.data()));
  }
}

FnId TransitionMonoid::intern(const StateId *Fn) const {
  auto [Id, New] = Fns.insert(Fn);
  if (New) {
    Useless.push_back(std::none_of(
        Fn, Fn + NumStates, [&](StateId S) { return Live.test(S); }));
    Rows.emplace_back();
  }
  return Id;
}

FnId TransitionMonoid::composeMiss(FnId F, FnId G) const {
  ++Misses;
  const StateId *Ff = Fns.get(F), *Gf = Fns.get(G);
  for (StateId S = 0; S != NumStates; ++S)
    Scratch[S] = Ff[Gf[S]];
  FnId R = intern(Scratch.data());
  // Interning may have appended a row; take F's afterwards. Sizing the
  // row to every element known now lets the next misses on it skip the
  // resize.
  std::vector<FnId> &Row = Rows[F];
  if (G >= Row.size()) {
    size_t Before = Row.capacity();
    Row.resize(size(), InvalidFn);
    RowBytes += (Row.capacity() - Before) * sizeof(FnId);
  }
  Row[G] = R;
  return R;
}

bool TransitionMonoid::enumerateAll() const {
  trace::Scope Span("monoid.enumerate");
  // Right extension by generators (f_{w a} = f_a ∘ f_w) reaches every
  // f_w. Ids grow as the closure runs, so the id range is the queue.
  for (FnId F = 0; F < size() && !overflowed(); ++F)
    for (size_t A = 0; A != SymbolFns.size() && !overflowed(); ++A)
      compose(SymbolFns[A], F);
  Span.args(size());
  return !overflowed();
}

size_t TransitionMonoid::memoryBytes() const {
  return Fns.memoryBytes() + Useless.capacity() / 8 +
         Rows.capacity() * sizeof(std::vector<FnId>) + RowBytes +
         SymbolFns.capacity() * sizeof(FnId) + Sampled.memoryBytes() +
         SampleSteps.capacity() * sizeof(SampleStep);
}

FnId TransitionMonoid::wordFn(std::span<const SymbolId> W) const {
  FnId F = identity();
  for (SymbolId Sym : W)
    F = compose(symbolFn(Sym), F);
  return F;
}

std::optional<Word> TransitionMonoid::sampleWord(FnId F) const {
  assert(F < size() && "fn out of range");
  const StateId *Target = Fns.get(F);
  if (SampleSteps.empty()) {
    std::iota(Scratch.begin(), Scratch.end(), StateId(0));
    Sampled.insert(Scratch.data());
    SampleSteps.push_back({InvalidFn, InvalidSymbol});
  }
  // Breadth-first over state tables in symbol order: the first word to
  // reach a function is the shortlex-least of its class (the least
  // word's prefix is the least word of the prefix's class). A call
  // stops after the expansion that reaches F and the next call resumes
  // there, which changes no step, so the words do not depend on which
  // classes were asked for first.
  FnId Found = Sampled.find(Target);
  while (Found == InvalidFn) {
    assert(SampleNext < Sampled.size() &&
           "every element is a product of generators");
    if (SampleNext == Sampled.size() || Sampled.size() > MaxElements)
      return std::nullopt;
    FnId Cur = SampleNext++;
    for (SymbolId A = 0; A != M.numSymbols(); ++A) {
      const StateId *Src = Sampled.get(Cur); // inserts may reallocate
      for (StateId S = 0; S != NumStates; ++S)
        Scratch[S] = M.next(Src[S], A);
      auto [Id, New] = Sampled.insert(Scratch.data());
      if (!New)
        continue;
      SampleSteps.push_back({Cur, A});
      if (std::equal(Scratch.begin(), Scratch.end(), Target))
        Found = Id;
    }
  }
  Word W;
  for (FnId At = Found; SampleSteps[At].Prev != InvalidFn;
       At = SampleSteps[At].Prev)
    W.push_back(SampleSteps[At].Sym);
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
