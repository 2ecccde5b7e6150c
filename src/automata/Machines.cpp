//===- automata/Machines.cpp - Machines from the paper ----------*- C++ -*-===//
//
// Part of the RASC project: regularly annotated set constraints.
//
//===----------------------------------------------------------------------===//

#include "automata/Machines.h"

#include <string>

using namespace rasc;

Dfa rasc::buildOneBitMachine() {
  DfaBuilder B;
  SymbolId G = B.addSymbol("g");
  SymbolId K = B.addSymbol("k");
  StateId S0 = B.addState();
  StateId S1 = B.addState();
  B.setStart(S0);
  B.setAccepting(S1);
  B.addTransition(S0, G, S1);
  B.addTransition(S1, G, S1);
  B.addTransition(S0, K, S0);
  B.addTransition(S1, K, S0);
  return B.build();
}

Dfa rasc::buildNBitMachine(unsigned NumBits) {
  assert(NumBits >= 1 && NumBits <= 20 && "unreasonable bit count");
  DfaBuilder B;
  std::vector<SymbolId> Gens(NumBits), Kills(NumBits);
  for (unsigned I = 0; I != NumBits; ++I) {
    Gens[I] = B.addSymbol("g" + std::to_string(I));
    Kills[I] = B.addSymbol("k" + std::to_string(I));
  }
  // One state per bit-vector value.
  uint32_t NumStates = 1u << NumBits;
  for (uint32_t V = 0; V != NumStates; ++V)
    B.addState();
  B.setStart(0);
  for (uint32_t V = 0; V != NumStates; ++V) {
    if (V == NumStates - 1)
      B.setAccepting(V);
    for (unsigned I = 0; I != NumBits; ++I) {
      B.addTransition(V, Gens[I], V | (1u << I));
      B.addTransition(V, Kills[I], V & ~(1u << I));
    }
  }
  return B.build();
}

Dfa rasc::buildAdversarialMachine(unsigned NumStates) {
  assert(NumStates >= 2 && "need at least two states");
  DfaBuilder B;
  SymbolId Rotate = B.addSymbol("rotate");
  SymbolId Swap = B.addSymbol("swap");
  SymbolId Merge = B.addSymbol("merge");
  for (unsigned I = 0; I != NumStates; ++I)
    B.addState();
  B.setStart(0);
  B.setAccepting(0);
  for (unsigned I = 0; I != NumStates; ++I) {
    // rotate: i -> i + 1 with wraparound.
    B.addTransition(I, Rotate, (I + 1) % NumStates);
    // swap: exchange states 0 and 1 (paper: states 1 and 2).
    StateId SwapTo = I == 0 ? 1 : (I == 1 ? 0 : I);
    B.addTransition(I, Swap, SwapTo);
    // merge: 1 -> 0 (paper: state 2 -> state 1), others fixed.
    StateId MergeTo = I == 1 ? 0 : I;
    B.addTransition(I, Merge, MergeTo);
  }
  return B.build();
}

Dfa rasc::buildFileStateMachine() {
  DfaBuilder B;
  SymbolId Open = B.addSymbol("open");
  SymbolId Close = B.addSymbol("close");
  StateId Closed = B.addState();
  StateId Opened = B.addState();
  B.setStart(Closed);
  B.setAccepting(Closed);
  B.addTransition(Closed, Open, Opened);
  B.addTransition(Opened, Close, Closed);
  // Double open / close on closed fall into the implicit dead state.
  return B.build();
}
