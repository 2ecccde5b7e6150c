//===- automata/Dfa.cpp - Deterministic finite automata ---------*- C++ -*-===//
//
// Part of the RASC project: regularly annotated set constraints.
//
//===----------------------------------------------------------------------===//

#include "automata/Dfa.h"

#include <algorithm>
#include <sstream>

using namespace rasc;

std::vector<std::string> Dfa::alphabet() const {
  if (!Namer)
    return SymbolNames;
  std::vector<std::string> Out;
  Out.reserve(NumSyms);
  for (SymbolId Sym = 0; Sym != NumSyms; ++Sym)
    Out.push_back(Namer(Sym));
  return Out;
}

std::optional<SymbolId> Dfa::symbol(std::string_view Name) const {
  for (SymbolId I = 0; I != NumSyms; ++I)
    if (Namer ? Namer(I) == Name : SymbolNames[I] == Name)
      return I;
  return std::nullopt;
}

DynamicBitset Dfa::liveStates() const {
  // Reverse reachability from the accepting states, over predecessor
  // lists in CSR form: Begin[T] counts T's in-edges, the prefix sum
  // makes it the end of T's range, and the fill walks it back to the
  // start.
  uint32_t K = numSymbols();
  std::vector<uint32_t> Begin(NumStatesVal + 1, 0);
  for (StateId T : Transitions)
    ++Begin[T];
  for (StateId S = 1; S <= NumStatesVal; ++S)
    Begin[S] += Begin[S - 1];
  std::vector<StateId> Preds(Transitions.size());
  for (StateId S = NumStatesVal; S-- != 0;)
    for (SymbolId A = K; A-- != 0;)
      Preds[--Begin[next(S, A)]] = S;

  DynamicBitset Live(NumStatesVal);
  std::vector<StateId> Work;
  for (StateId S = 0; S != NumStatesVal; ++S)
    if (AcceptingStates.test(S)) {
      Live.set(S);
      Work.push_back(S);
    }
  while (!Work.empty()) {
    StateId S = Work.back();
    Work.pop_back();
    for (uint32_t I = Begin[S]; I != Begin[S + 1]; ++I)
      if (!Live.test(Preds[I])) {
        Live.set(Preds[I]);
        Work.push_back(Preds[I]);
      }
  }
  return Live;
}

DynamicBitset Dfa::reachableStates() const {
  DynamicBitset Seen(NumStatesVal);
  Seen.set(StartState);
  std::vector<StateId> Work{StartState};
  while (!Work.empty()) {
    StateId S = Work.back();
    Work.pop_back();
    for (SymbolId A = 0, E = numSymbols(); A != E; ++A) {
      StateId T = next(S, A);
      if (!Seen.test(T)) {
        Seen.set(T);
        Work.push_back(T);
      }
    }
  }
  return Seen;
}

std::string Dfa::toDot(std::string_view Title) const {
  std::ostringstream OS;
  OS << "digraph \"" << Title << "\" {\n  rankdir=LR;\n";
  OS << "  __start [shape=point];\n";
  for (StateId S = 0; S != NumStatesVal; ++S)
    OS << "  s" << S << " [shape="
       << (isAccepting(S) ? "doublecircle" : "circle") << "];\n";
  OS << "  __start -> s" << StartState << ";\n";
  for (StateId S = 0; S != NumStatesVal; ++S)
    for (SymbolId A = 0, E = numSymbols(); A != E; ++A)
      OS << "  s" << S << " -> s" << next(S, A) << " [label=\""
         << symbolName(A) << "\"];\n";
  OS << "}\n";
  return OS.str();
}

SymbolId DfaBuilder::addSymbol(std::string_view Name) {
  assert(Symbols.size() == NumSyms && "named symbol in a generated alphabet");
  auto [Id, Fresh] = SymbolIds.findOrInsert(
      Name, NumSyms, [this](uint32_t I) -> std::string_view {
        return Symbols[I];
      });
  if (!Fresh)
    return Id;
  Symbols.emplace_back(Name);
  return widen();
}

SymbolId DfaBuilder::addGeneratedSymbol() {
  assert(Symbols.empty() && "generated symbol in a named alphabet");
  return widen();
}

SymbolId DfaBuilder::widen() {
  SymbolId K = NumSyms++;
  if (K < Stride)
    return K; // every row already has the column, unset
  size_t NewStride = numStates() == 0 ? NumSyms : std::max(2 * Stride, 4u);
  if (numStates() != 0) {
    std::vector<StateId> Wider(numStates() * NewStride, InvalidState);
    for (size_t S = 0, N = numStates(); S != N; ++S)
      std::copy_n(Trans.begin() + S * Stride, K, Wider.begin() + S * NewStride);
    Trans = std::move(Wider);
  }
  Stride = static_cast<uint32_t>(NewStride);
  return K;
}

void DfaBuilder::reserve(uint32_t States, uint32_t NumSymbols) {
  Symbols.reserve(NumSymbols);
  SymbolIds.reserve(NumSymbols);
  Accepting.reserve(States);
  Trans.reserve(static_cast<size_t>(States) *
                std::max<size_t>(Stride, NumSymbols));
}

StateId DfaBuilder::addState() {
  Accepting.push_back(false);
  Trans.resize(Trans.size() + Stride, InvalidState);
  return static_cast<StateId>(Accepting.size() - 1);
}

void DfaBuilder::setAccepting(StateId S, bool IsAccepting) {
  assert(S < numStates() && "state out of range");
  Accepting[S] = IsAccepting;
}

void DfaBuilder::addTransition(StateId From, SymbolId Sym, StateId To) {
  assert(From < numStates() && To < numStates() && "state out of range");
  assert(Sym < NumSyms && "symbol out of range");
  StateId &Slot = Trans[static_cast<size_t>(From) * Stride + Sym];
  assert((Slot == InvalidState || Slot == To) &&
         "conflicting deterministic transition");
  Slot = To;
}

Dfa DfaBuilder::build() const {
  uint32_t N = numStates();
  assert(N > 0 && "automaton needs at least one state");
  // Unset transitions, and every transition of the dead state, go to
  // the dead state (created only if some transition is unset).
  StateId Dead = N;
  std::vector<StateId> Table(static_cast<size_t>(N + 1) * NumSyms, Dead);
  bool NeedDead = false;
  for (size_t S = 0; S != N; ++S)
    for (size_t A = 0; A != NumSyms; ++A) {
      StateId T = Trans[S * Stride + A];
      NeedDead |= T == InvalidState;
      Table[S * NumSyms + A] = T == InvalidState ? Dead : T;
    }
  uint32_t Total = N + (NeedDead ? 1 : 0);
  Table.resize(static_cast<size_t>(Total) * NumSyms);
  DynamicBitset Acc(Total);
  for (uint32_t I = 0; I != N; ++I)
    if (Accepting[I])
      Acc.set(I);
  if (Namer)
    return Dfa(NumSyms, Namer, Total, Start, std::move(Acc),
               std::move(Table));
  assert(Symbols.size() == NumSyms && "generated symbols need a namer");
  return Dfa(Symbols, Total, Start, std::move(Acc), std::move(Table));
}
