//===- automata/Nfa.h - Nondeterministic finite automata --------*- C++ -*-===//
//
// Part of the RASC project: regularly annotated set constraints.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Nondeterministic finite automata with epsilon moves. NFAs are the
/// intermediate representation produced by the regex frontend and by
/// the closure constructions (substring / prefix / suffix closure of a
/// regular language, paper Section 2.3); they are determinized and
/// minimized before the transition monoid is extracted.
///
//===----------------------------------------------------------------------===//

#ifndef RASC_AUTOMATA_NFA_H
#define RASC_AUTOMATA_NFA_H

#include "automata/Dfa.h"
#include "support/DynamicBitset.h"

#include <string>
#include <vector>

namespace rasc {

/// An NFA over the same dense symbolic alphabet as Dfa.
class Nfa {
public:
  explicit Nfa(std::vector<std::string> SymbolNames)
      : SymbolNames(std::move(SymbolNames)) {}

  StateId addState() {
    States.emplace_back();
    return static_cast<StateId>(States.size() - 1);
  }

  void setStart(StateId S) { Start = S; }
  StateId start() const { return Start; }

  void setAccepting(StateId S, bool Accepting = true) {
    assert(S < States.size() && "state out of range");
    States[S].Accepting = Accepting;
  }

  bool isAccepting(StateId S) const { return States[S].Accepting; }

  void addTransition(StateId From, SymbolId Sym, StateId To) {
    assert(From < States.size() && To < States.size() && "state range");
    assert(Sym < SymbolNames.size() && "symbol out of range");
    States[From].Trans.emplace_back(Sym, To);
  }

  void addEpsilon(StateId From, StateId To) {
    assert(From < States.size() && To < States.size() && "state range");
    States[From].Eps.push_back(To);
  }

  uint32_t numStates() const { return static_cast<uint32_t>(States.size()); }
  uint32_t numSymbols() const {
    return static_cast<uint32_t>(SymbolNames.size());
  }

  const std::vector<std::string> &alphabet() const { return SymbolNames; }

  const std::vector<std::pair<SymbolId, StateId>> &
  transitions(StateId S) const {
    return States[S].Trans;
  }

  /// Epsilon-closes \p Set in place.
  void epsilonClose(DynamicBitset &Set) const;

  /// Direct NFA simulation; used as a reference in tests.
  bool accepts(std::span<const SymbolId> W) const;

private:
  struct State {
    std::vector<std::pair<SymbolId, StateId>> Trans;
    std::vector<StateId> Eps;
    bool Accepting = false;
  };

  std::vector<std::string> SymbolNames;
  std::vector<State> States;
  StateId Start = 0;
};

} // namespace rasc

#endif // RASC_AUTOMATA_NFA_H
