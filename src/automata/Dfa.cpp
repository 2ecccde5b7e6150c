//===- automata/Dfa.cpp - Deterministic finite automata ---------*- C++ -*-===//
//
// Part of the RASC project: regularly annotated set constraints.
//
//===----------------------------------------------------------------------===//

#include "automata/Dfa.h"


#include <deque>
#include <sstream>

using namespace rasc;

DynamicBitset Dfa::liveStates() const {
  // Reverse reachability from the accepting states.
  std::vector<std::vector<StateId>> Preds(NumStatesVal);
  for (StateId S = 0; S != NumStatesVal; ++S)
    for (SymbolId A = 0, E = numSymbols(); A != E; ++A)
      Preds[next(S, A)].push_back(S);

  DynamicBitset Live(NumStatesVal);
  std::deque<StateId> Work;
  for (StateId S = 0; S != NumStatesVal; ++S)
    if (AcceptingStates.test(S)) {
      Live.set(S);
      Work.push_back(S);
    }
  while (!Work.empty()) {
    StateId S = Work.front();
    Work.pop_front();
    for (StateId P : Preds[S])
      if (!Live.test(P)) {
        Live.set(P);
        Work.push_back(P);
      }
  }
  return Live;
}

DynamicBitset Dfa::reachableStates() const {
  DynamicBitset Seen(NumStatesVal);
  Seen.set(StartState);
  std::deque<StateId> Work{StartState};
  while (!Work.empty()) {
    StateId S = Work.front();
    Work.pop_front();
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
         << SymbolNames[A] << "\"];\n";
  OS << "}\n";
  return OS.str();
}

SymbolId DfaBuilder::addSymbol(std::string_view Name) {
  for (SymbolId I = 0, E = static_cast<SymbolId>(Symbols.size()); I != E; ++I)
    if (Symbols[I] == Name)
      return I;
  Symbols.emplace_back(Name);
  for (auto &Row : Rows)
    Row.push_back(InvalidState);
  return static_cast<SymbolId>(Symbols.size() - 1);
}

StateId DfaBuilder::addState(std::string_view Name) {
  Names.emplace_back(Name);
  Accepting.push_back(false);
  Rows.emplace_back(Symbols.size(), InvalidState);
  return static_cast<StateId>(Names.size() - 1);
}

void DfaBuilder::setAccepting(StateId S, bool IsAccepting) {
  assert(S < Names.size() && "state out of range");
  Accepting[S] = IsAccepting;
}

void DfaBuilder::addTransition(StateId From, SymbolId Sym, StateId To) {
  assert(From < Names.size() && To < Names.size() && "state out of range");
  assert(Sym < Symbols.size() && "symbol out of range");
  assert((Rows[From][Sym] == InvalidState || Rows[From][Sym] == To) &&
         "conflicting deterministic transition");
  Rows[From][Sym] = To;
}

Dfa DfaBuilder::build() const {
  uint32_t N = static_cast<uint32_t>(Names.size());
  assert(N > 0 && "automaton needs at least one state");
  bool NeedDead = false;
  for (const auto &Row : Rows)
    for (StateId T : Row)
      if (T == InvalidState)
        NeedDead = true;

  uint32_t Total = N + (NeedDead ? 1 : 0);
  StateId Dead = N;
  DynamicBitset Acc(Total);
  for (uint32_t I = 0; I != N; ++I)
    if (Accepting[I])
      Acc.set(I);

  std::vector<StateId> Trans(static_cast<size_t>(Total) * Symbols.size());
  for (uint32_t S = 0; S != N; ++S)
    for (uint32_t A = 0, E = static_cast<uint32_t>(Symbols.size()); A != E;
         ++A) {
      StateId T = Rows[S][A];
      Trans[static_cast<size_t>(S) * Symbols.size() + A] =
          T == InvalidState ? Dead : T;
    }
  if (NeedDead)
    for (uint32_t A = 0, E = static_cast<uint32_t>(Symbols.size()); A != E;
         ++A)
      Trans[static_cast<size_t>(Dead) * Symbols.size() + A] = Dead;

  return Dfa(Symbols, Total, Start, std::move(Acc), std::move(Trans));
}
