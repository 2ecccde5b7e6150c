//===- tests/SpecDump.h - Canonical text of a compiled spec ----*- C++ -*-===//
//
// Part of the RASC project: regularly annotated set constraints.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Renders a compiled specification as text: its states (with names),
/// start state, accepting set, symbols (with parameters) and the full
/// transition table. The golden files in tests/data/spec/ hold these
/// renderings of the built-in specs and of the `language` blocks in
/// the example .rasc files, so a change to the spec compiler that
/// moves a state, a symbol id or a transition shows as a byte diff.
///
/// languageBlocks() extracts the `language { ... }` blocks of a .rasc
/// text the way the constraint parser does (matching braces).
///
//===----------------------------------------------------------------------===//

#ifndef RASC_TESTS_SPECDUMP_H
#define RASC_TESTS_SPECDUMP_H

#include "spec/SpecParser.h"

#include <string>
#include <string_view>
#include <vector>

namespace rasc {
namespace testgen {

inline std::string dumpSpec(const SpecAutomaton &A) {
  const Dfa &M = A.machine();
  std::string Out = "states " + std::to_string(M.numStates()) + "\n";
  Out += "start " + std::to_string(M.start()) + "\n";
  Out += "accept";
  for (StateId S = 0; S != M.numStates(); ++S)
    if (M.isAccepting(S))
      Out += " " + std::to_string(S);
  Out += "\nsymbols " + std::to_string(M.numSymbols()) + "\n";
  for (SymbolId Sym = 0; Sym != M.numSymbols(); ++Sym) {
    const SpecSymbol &Decl = A.symbols()[Sym];
    Out += "sym " + std::to_string(Sym) + " " + M.symbolName(Sym);
    if (!Decl.Params.empty()) {
      Out += "(";
      for (size_t I = 0; I != Decl.Params.size(); ++I)
        Out += (I ? "," : "") + Decl.Params[I];
      Out += ")";
    }
    Out += "\n";
  }
  for (StateId S = 0; S != M.numStates(); ++S) {
    Out += "state " + std::to_string(S) + " " + A.stateName(S) + ":";
    for (SymbolId Sym = 0; Sym != M.numSymbols(); ++Sym)
      Out += " " + std::to_string(M.next(S, Sym));
    Out += "\n";
  }
  return Out;
}

/// The bodies of the `language { ... }` blocks in \p Rasc.
inline std::vector<std::string> languageBlocks(std::string_view Rasc) {
  std::vector<std::string> Out;
  for (size_t At = Rasc.find("language"); At != std::string_view::npos;
       At = Rasc.find("language", At + 1)) {
    size_t Open = Rasc.find_first_not_of(" \t\r\n", At + 8);
    if (Open == std::string_view::npos || Rasc[Open] != '{')
      continue;
    int Depth = 1;
    size_t Pos = Open + 1;
    for (; Pos < Rasc.size() && Depth != 0; ++Pos)
      Depth += Rasc[Pos] == '{' ? 1 : Rasc[Pos] == '}' ? -1 : 0;
    if (Depth == 0)
      Out.emplace_back(Rasc.substr(Open + 1, Pos - 1 - (Open + 1)));
  }
  return Out;
}

} // namespace testgen
} // namespace rasc

#endif // RASC_TESTS_SPECDUMP_H
