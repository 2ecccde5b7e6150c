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

uint64_t TransitionMonoid::FnTable::hash(const StateId *Fn) const {
  // A multiply-add per word of two states (state ids are 32-bit), then
  // one full mix: every state moves the high bits, and the mix carries
  // them into the low bits that pick the home slot.
  constexpr uint64_t K = 0x9e3779b97f4a7c15ULL;
  uint64_t H = NumStates;
  uint32_t S = 0;
  for (; S + 1 < NumStates; S += 2)
    H = (H + (Fn[S] | static_cast<uint64_t>(Fn[S + 1]) << 32)) * K;
  if (S != NumStates)
    H = (H + Fn[S]) * K;
  return mix64(H);
}

size_t TransitionMonoid::FnTable::probe(const StateId *Fn, uint64_t H) const {
  size_t Mask = Slots.size() - 1;
  for (size_t I = H & Mask;; I = (I + 1) & Mask) {
    FnId Id = Slots[I];
    if (Id == InvalidFn ||
        (Hashes[Id] == H && std::equal(Fn, Fn + NumStates, get(Id))))
      return I;
  }
}

std::pair<FnId, bool> TransitionMonoid::FnTable::insert(const StateId *Fn) {
  if (2 * (size() + 1) > Slots.size())
    rehash();
  uint64_t H = hash(Fn);
  size_t I = probe(Fn, H);
  if (Slots[I] != InvalidFn)
    return {Slots[I], false};
  FnId Id = static_cast<FnId>(size());
  Slots[I] = Id;
  Funcs.insert(Funcs.end(), Fn, Fn + NumStates);
  Hashes.push_back(H);
  return {Id, true};
}

FnId TransitionMonoid::FnTable::find(const StateId *Fn) const {
  if (Slots.empty())
    return InvalidFn;
  return Slots[probe(Fn, hash(Fn))];
}

void TransitionMonoid::FnTable::rehash() {
  Slots.assign(std::max<size_t>(64, 2 * Slots.size()), InvalidFn);
  size_t Mask = Slots.size() - 1;
  for (FnId Id = 0, E = static_cast<FnId>(size()); Id != E; ++Id) {
    size_t I = Hashes[Id] & Mask;
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

void TransitionMonoid::growRow(RowSpan &Row) const {
  // Room for every element known now (so the next misses on the row
  // skip this), and at least double the old span.
  size_t Cap = std::max<size_t>(size(), 2 * size_t(Row.Cap));
  if (Row.Cap != 0 && Row.Off + Row.Cap == RowData.size()) {
    // Already the last span: extend it where it is.
    RowData.resize(Row.Off + Cap, InvalidFn);
  } else {
    size_t Off = RowData.size();
    RowData.resize(Off + Cap, InvalidFn);
    std::copy_n(RowData.begin() + Row.Off, Row.Cap, RowData.begin() + Off);
    Row.Off = Off;
  }
  Row.Cap = static_cast<uint32_t>(Cap);
}

FnId TransitionMonoid::composeMiss(FnId F, FnId G) const {
  ++Misses;
  const StateId *Ff = Fns.get(F), *Gf = Fns.get(G);
  for (StateId S = 0; S != NumStates; ++S)
    Scratch[S] = Ff[Gf[S]];
  FnId R = intern(Scratch.data());
  // Interning may have appended a span; take F's afterwards.
  RowSpan &Row = Rows[F];
  if (G >= Row.Cap)
    growRow(Row);
  RowData[Row.Off + G] = R;
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
         Rows.capacity() * sizeof(RowSpan) +
         RowData.capacity() * sizeof(FnId) +
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
