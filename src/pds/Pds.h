//===- pds/Pds.h - Pushdown systems and reachability ------------*- C++ -*-===//
//
// Part of the RASC project: regularly annotated set constraints.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pushdown systems with post* / pre* saturation (Bouajjani, Esparza,
/// Maler; algorithms as in Schwoon's thesis). Two roles in this
/// repository:
///
///   * the MOPS-style pushdown model checker the paper benchmarks
///     against in Table 1 (program CFG as stack, property automaton as
///     control);
///   * the engine behind the unidirectional (forward/backward)
///     constraint solvers of paper Section 5, where the coarser
///     right/left congruence makes facts (atom, state) pairs and
///     unmatched constructors a stack.
///
/// Configurations ⟨p, w⟩ are recognized by *configuration automata*
/// (P-automata): finite automata over the stack alphabet whose initial
/// states are the PDS control states; ⟨p, w⟩ is accepted iff the
/// automaton accepts w starting from p.
///
//===----------------------------------------------------------------------===//

#ifndef RASC_PDS_PDS_H
#define RASC_PDS_PDS_H

#include "support/Hashing.h"

#include <cassert>
#include <cstdint>
#include <optional>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace rasc {

using PdsState = uint32_t;
using StackSym = uint32_t;

constexpr StackSym EpsilonSym = ~StackSym(0);

/// A pushdown rule ⟨P, Gamma⟩ -> ⟨Q, Push⟩ with |Push| <= 2; Push[0]
/// becomes the new top of stack.
struct PdsRule {
  PdsState P;
  StackSym Gamma;
  PdsState Q;
  std::vector<StackSym> Push;
};

/// A pushdown system: a set of rules over dense control-state and
/// stack-symbol ids.
class Pds {
public:
  PdsState addControlState() { return NumControls++; }
  StackSym addStackSymbol() { return NumSymbols++; }

  void addRule(PdsState P, StackSym Gamma, PdsState Q,
               std::vector<StackSym> Push) {
    assert(P < NumControls && Q < NumControls && "control out of range");
    assert(Gamma < NumSymbols && "stack symbol out of range");
    assert(Push.size() <= 2 && "normalize longer pushes");
    for (StackSym S : Push)
      assert(S < NumSymbols && "stack symbol out of range");
    Rules.push_back({P, Gamma, Q, std::move(Push)});
  }

  uint32_t numControls() const { return NumControls; }
  uint32_t numStackSymbols() const { return NumSymbols; }
  const std::vector<PdsRule> &rules() const { return Rules; }

private:
  uint32_t NumControls = 0;
  uint32_t NumSymbols = 0;
  std::vector<PdsRule> Rules;
};

/// A P-automaton recognizing a set of configurations. States [0,
/// numControls) are the PDS control states; further states may be
/// added freely. Transitions are labelled with stack symbols (post*
/// introduces internal epsilon transitions; they are eliminated in the
/// result's accepts()).
class ConfigAutomaton {
public:
  explicit ConfigAutomaton(uint32_t NumControls)
      : NumStates(NumControls), NumControls(NumControls) {}

  uint32_t addState() { return NumStates++; }
  uint32_t numStates() const { return NumStates; }
  uint32_t numControls() const { return NumControls; }

  void setAccepting(uint32_t S) {
    assert(S < NumStates && "state out of range");
    Accepting.insert(S);
  }
  bool isAccepting(uint32_t S) const { return Accepting.count(S) != 0; }

  /// Adds (From, Sym, To); Sym may be EpsilonSym. Idempotent.
  /// \returns true if the transition is new.
  bool addTransition(uint32_t From, StackSym Sym, uint32_t To);

  /// All (Sym, To) out of \p From.
  const std::vector<std::pair<StackSym, uint32_t>> &
  transitionsFrom(uint32_t From) const {
    static const std::vector<std::pair<StackSym, uint32_t>> Empty;
    return From < Out.size() ? Out[From] : Empty;
  }

  /// \returns true if configuration ⟨P, Word⟩ is accepted (top of
  /// stack first).
  bool accepts(PdsState P, std::span<const StackSym> Word) const;

  /// \returns true if some configuration with control state \p P is
  /// accepted (i.e. an accepting state is reachable from P).
  bool anyAccepted(PdsState P) const;

  /// A shortest stack word (top first) accepted from \p P, if any;
  /// used for witnesses.
  std::optional<std::vector<StackSym>> shortestAccepted(PdsState P) const;

  size_t numTransitions() const { return NumTrans; }

private:
  /// Packs (From, Sym) into the exact dedup key; the mapped set holds
  /// the targets.
  static uint64_t key(uint32_t From, StackSym Sym) {
    return (static_cast<uint64_t>(From) << 32) | Sym;
  }

  uint32_t NumStates;
  uint32_t NumControls;
  size_t NumTrans = 0;
  std::unordered_set<uint32_t> Accepting;
  std::vector<std::vector<std::pair<StackSym, uint32_t>>> Out;
  std::unordered_map<uint64_t, std::unordered_set<uint32_t>> TransSet;
};

/// Computes an automaton recognizing post*(C): all configurations
/// reachable from configurations C recognized by \p Init. \p Init must
/// have no transitions into control states (standard normal form;
/// asserted).
ConfigAutomaton postStar(const Pds &P, const ConfigAutomaton &Init);

/// Computes an automaton recognizing pre*(C): all configurations from
/// which some configuration in C is reachable.
ConfigAutomaton preStar(const Pds &P, const ConfigAutomaton &Init);

} // namespace rasc

#endif // RASC_PDS_PDS_H
