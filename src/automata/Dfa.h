//===- automata/Dfa.h - Deterministic finite automata -----------*- C++ -*-===//
//
// Part of the RASC project: regularly annotated set constraints.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Deterministic finite automata over a symbolic alphabet. The
/// annotation language of a regularly annotated constraint system is
/// given by a (minimized) DFA M; the solver itself only ever sees M's
/// transition monoid (see Monoid.h), but construction, products,
/// substring closure, and the specification-language compiler all
/// operate on automata.
///
/// DFAs are always *total*: every (state, symbol) pair has a successor.
/// A rejecting sink ("dead") state is materialized when needed. This is
/// important because representative functions (paper Section 2.4) are
/// total functions on states.
///
//===----------------------------------------------------------------------===//

#ifndef RASC_AUTOMATA_DFA_H
#define RASC_AUTOMATA_DFA_H

#include "support/DynamicBitset.h"
#include "support/NameIndex.h"

#include <cassert>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace rasc {

using StateId = uint32_t;
using SymbolId = uint32_t;

constexpr StateId InvalidState = ~StateId(0);
constexpr SymbolId InvalidSymbol = ~SymbolId(0);

/// A word over the (dense) symbol alphabet.
using Word = std::vector<SymbolId>;

/// Names the symbols of a generated alphabet on demand (the Section 7
/// bracket and call-string automata, whose names only proof logs and
/// witnesses read). It must own what it reads.
using SymbolNamer = std::function<std::string(SymbolId)>;

/// A total deterministic finite automaton.
///
/// States and symbols are dense indices. The alphabet is a list of
/// symbol names, stored or rendered by a SymbolNamer; automata combined
/// by products or used to drive the same constraint system must share
/// identical alphabets (asserted).
class Dfa {
public:
  Dfa(std::vector<std::string> SymbolNames, uint32_t NumStates,
      StateId Start, DynamicBitset Accepting, std::vector<StateId> Trans)
      : SymbolNames(std::move(SymbolNames)),
        NumSyms(static_cast<uint32_t>(this->SymbolNames.size())),
        NumStatesVal(NumStates), StartState(Start),
        AcceptingStates(std::move(Accepting)), Transitions(std::move(Trans)) {
    checkShape();
  }

  /// An automaton over \p NumSymbols generated symbols that \p Namer
  /// names when asked.
  Dfa(uint32_t NumSymbols, SymbolNamer Namer, uint32_t NumStates,
      StateId Start, DynamicBitset Accepting, std::vector<StateId> Trans)
      : Namer(std::move(Namer)), NumSyms(NumSymbols), NumStatesVal(NumStates),
        StartState(Start), AcceptingStates(std::move(Accepting)),
        Transitions(std::move(Trans)) {
    checkShape();
  }

  uint32_t numStates() const { return NumStatesVal; }
  uint32_t numSymbols() const { return NumSyms; }
  StateId start() const { return StartState; }

  bool isAccepting(StateId S) const {
    assert(S < NumStatesVal && "state out of range");
    return AcceptingStates.test(S);
  }

  const DynamicBitset &acceptingStates() const { return AcceptingStates; }

  /// The successor of \p S on \p Sym; always defined (total automaton).
  StateId next(StateId S, SymbolId Sym) const {
    assert(S < NumStatesVal && "state out of range");
    assert(Sym < NumSyms && "symbol out of range");
    return Transitions[static_cast<size_t>(S) * NumSyms + Sym];
  }

  /// Runs the automaton on \p W from \p From (default: the start state).
  StateId run(std::span<const SymbolId> W, StateId From = InvalidState) const {
    StateId S = From == InvalidState ? StartState : From;
    for (SymbolId Sym : W)
      S = next(S, Sym);
    return S;
  }

  /// \returns true if \p W is in the automaton's language.
  bool accepts(std::span<const SymbolId> W) const {
    return isAccepting(run(W));
  }

  std::string symbolName(SymbolId Sym) const {
    assert(Sym < NumSyms && "symbol out of range");
    return Namer ? Namer(Sym) : SymbolNames[Sym];
  }

  /// Every symbol's name, in id order.
  std::vector<std::string> alphabet() const;

  /// \returns the id of the symbol named \p Name, if any.
  std::optional<SymbolId> symbol(std::string_view Name) const;

  /// \returns the set of states from which some accepting state is
  /// reachable ("live" states). A word whose representative function
  /// maps every state to a dead state can never be extended to a word
  /// in L(M); the solver uses this to drop useless annotations.
  DynamicBitset liveStates() const;

  /// \returns the set of states reachable from the start state.
  DynamicBitset reachableStates() const;

  /// Graphviz rendering, for documentation and debugging.
  std::string toDot(std::string_view Title = "M") const;

private:
  void checkShape() const {
    assert(StartState < NumStatesVal && "start state out of range");
    assert(AcceptingStates.size() == NumStatesVal && "accept set size");
    assert(Transitions.size() == static_cast<size_t>(NumStatesVal) * NumSyms &&
           "transition table size");
  }

  std::vector<std::string> SymbolNames; ///< empty when Namer names them
  SymbolNamer Namer;
  uint32_t NumSyms;
  uint32_t NumStatesVal;
  StateId StartState;
  DynamicBitset AcceptingStates;
  std::vector<StateId> Transitions; // NumStates x NumSymbols, row-major
};

/// Incremental construction of a total DFA. Missing transitions are
/// routed to an implicitly created dead state.
///
/// Symbols and states may come in any order. Rows are laid out with a
/// stride that doubles when a symbol outgrows it, so building a
/// states x symbols table costs O(states x symbols) however the two
/// interleave, and a symbol is found by name in O(1).
class DfaBuilder {
public:
  /// Adds (or finds) an alphabet symbol.
  SymbolId addSymbol(std::string_view Name);

  /// Adds a generated symbol: one without a name string, which the
  /// namer given by setSymbolNamer() renders on demand. A builder's
  /// symbols are either all named or all generated.
  SymbolId addGeneratedSymbol();
  void setSymbolNamer(SymbolNamer N) { Namer = std::move(N); }

  /// Makes room for \p States states over \p Symbols symbols.
  void reserve(uint32_t States, uint32_t Symbols);

  /// Adds a new state with every transition unset.
  StateId addState();

  void setStart(StateId S) { Start = S; }
  void setAccepting(StateId S, bool Accepting = true);
  void addTransition(StateId From, SymbolId Sym, StateId To);

  uint32_t numStates() const {
    return static_cast<uint32_t>(Accepting.size());
  }

  /// Finalizes the automaton. Unset transitions go to a fresh dead
  /// state (created only if some transition is missing).
  Dfa build() const;

private:
  /// Appends a column to the transition table.
  SymbolId widen();

  std::vector<std::string> Symbols; // empty for a generated alphabet
  NameIndex SymbolIds;              // over Symbols
  SymbolNamer Namer;
  uint32_t NumSyms = 0;
  uint32_t Stride = 0; // row length of Trans, at least NumSyms
  std::vector<bool> Accepting; // one per state
  // Trans[s * Stride + a], InvalidState if unset: one flat table, laid
  // out again only when a symbol outgrows the stride.
  std::vector<StateId> Trans;
  StateId Start = 0;
};

} // namespace rasc

#endif // RASC_AUTOMATA_DFA_H
