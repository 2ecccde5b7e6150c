//===- spec/SpecParser.cpp - Annotation specification language --*- C++ -*-===//
//
// Part of the RASC project: regularly annotated set constraints.
//
//===----------------------------------------------------------------------===//

#include "spec/SpecParser.h"

#include "support/NameIndex.h"
#include "support/Trace.h"

#include <algorithm>
#include <array>

using namespace rasc;

// The compiler reads the text once into flat tables of views into it
// (states, arms, parameters), then interns states and symbols through
// NameIndex, in declaration order, and fills a transition table laid
// out once for the full alphabet: O(text + states x symbols), with no
// string copied per token and none per lookup.

namespace {

enum class TokKind {
  Ident,
  Colon,
  Semi,
  Pipe,
  Arrow,
  LParen,
  RParen,
  Comma,
  End, ///< end of input
  Bad, ///< a character no token starts with
};

struct Token {
  TokKind Kind;
  std::string_view Text;
  SourceLoc Loc;
};

/// Character classes of the lexer, by byte. Only ASCII letters,
/// digits and '_' make identifiers, and the blanks are those of the
/// C locale's isspace().
enum CharClass : uint8_t { Other, IdentChar, Blank, Newline, Comment };
constexpr auto CharClasses = [] {
  std::array<CharClass, 256> T{};
  for (int C = 0; C != 256; ++C)
    T[C] = (C >= 'a' && C <= 'z') || (C >= 'A' && C <= 'Z') ||
                   (C >= '0' && C <= '9') || C == '_'
               ? IdentChar
           : C == ' ' || C == '\t' || C == '\r' || C == '\v' || C == '\f'
               ? Blank
           : C == '\n' ? Newline
           : C == '#'  ? Comment
                       : Other;
  return T;
}();

CharClass classOf(char C) { return CharClasses[static_cast<unsigned char>(C)]; }

class Lexer {
public:
  explicit Lexer(std::string_view Input) : Input(Input) {}

  Token next() {
    skipTrivia();
    SourceLoc Loc{Line, static_cast<uint32_t>(Pos - LineStart + 1)};
    if (Pos >= Input.size())
      return {TokKind::End, {}, Loc};
    size_t Start = Pos;
    char C = Input[Pos++];
    auto tok = [&](TokKind K) {
      return Token{K, Input.substr(Start, Pos - Start), Loc};
    };
    if (classOf(C) == IdentChar) {
      while (Pos < Input.size() && classOf(Input[Pos]) == IdentChar)
        ++Pos;
      return tok(TokKind::Ident);
    }
    switch (C) {
    case ':':
      return tok(TokKind::Colon);
    case ';':
      return tok(TokKind::Semi);
    case '|':
      return tok(TokKind::Pipe);
    case '(':
      return tok(TokKind::LParen);
    case ')':
      return tok(TokKind::RParen);
    case ',':
      return tok(TokKind::Comma);
    case '-':
      if (Pos < Input.size() && Input[Pos] == '>') {
        ++Pos;
        return tok(TokKind::Arrow);
      }
      break;
    default:
      break;
    }
    return tok(TokKind::Bad); // reported by the parser
  }

private:
  void skipTrivia() {
    while (Pos < Input.size()) {
      switch (classOf(Input[Pos])) {
      case Newline:
        ++Line;
        LineStart = ++Pos;
        continue;
      case Blank:
        ++Pos;
        continue;
      case Comment:
        while (Pos < Input.size() && Input[Pos] != '\n')
          ++Pos;
        continue;
      default:
        return;
      }
    }
  }

  std::string_view Input;
  size_t Pos = 0;
  size_t LineStart = 0;
  uint32_t Line = 1;
};

/// "| sym(params) -> Target", at the symbol's position.
struct ArmDecl {
  std::string_view Symbol;
  std::string_view Target;
  uint32_t ParamBegin, ParamEnd; ///< into Parsed::Params
  SourceLoc Loc;
};

/// "start accept state Name : arms ;", at its first token.
struct StateDecl {
  std::string_view Name;
  bool IsStart = false;
  bool IsAccept = false;
  uint32_t ArmBegin = 0, ArmEnd = 0; ///< into Parsed::Arms
  SourceLoc Loc;
};

/// Everything the text declares, as views into it.
struct Parsed {
  std::vector<StateDecl> States;
  std::vector<ArmDecl> Arms;
  std::vector<std::string_view> Params;
  std::vector<std::string_view> ExtraSymbols; ///< "symbols a, b;"
  SourceLoc EndLoc;                           ///< end of input
};

class Parser {
public:
  explicit Parser(std::string_view Input) : Lex(Input) { Tok = Lex.next(); }

  Diag err() const { return Err ? *Err : Diag("parse error"); }

  bool parse(Parsed &Out) {
    while (Tok.Kind != TokKind::End) {
      if (Tok.Kind != TokKind::Ident)
        return fail("expected declaration");
      if (Tok.Text == "symbols") {
        if (!parseSymbolsDecl(Out))
          return false;
        continue;
      }
      if (!parseStateDecl(Out))
        return false;
    }
    Out.EndLoc = Tok.Loc;
    return true;
  }

private:
  bool fail(std::string_view Msg) {
    if (!Err)
      Err = Diag(std::string(Msg), Tok.Loc);
    return false;
  }

  void advance() { Tok = Lex.next(); }

  bool expect(TokKind K, std::string_view What) {
    if (Tok.Kind != K)
      return fail(std::string("expected ") + std::string(What));
    advance();
    return true;
  }

  bool parseSymbolsDecl(Parsed &Out) {
    advance(); // 'symbols'
    while (true) {
      if (Tok.Kind != TokKind::Ident)
        return fail("expected symbol name");
      Out.ExtraSymbols.push_back(Tok.Text);
      advance();
      if (Tok.Kind == TokKind::Comma) {
        advance();
        continue;
      }
      return expect(TokKind::Semi, "';'");
    }
  }

  bool parseStateDecl(Parsed &Out) {
    StateDecl D;
    D.Loc = Tok.Loc;
    while (Tok.Kind == TokKind::Ident &&
           (Tok.Text == "start" || Tok.Text == "accept")) {
      (Tok.Text == "start" ? D.IsStart : D.IsAccept) = true;
      advance();
    }
    if (Tok.Kind != TokKind::Ident || Tok.Text != "state")
      return fail("expected 'state'");
    advance();
    if (Tok.Kind != TokKind::Ident)
      return fail("expected state name");
    D.Name = Tok.Text;
    advance();
    D.ArmBegin = D.ArmEnd = static_cast<uint32_t>(Out.Arms.size());
    if (Tok.Kind == TokKind::Semi) {
      advance();
      Out.States.push_back(D);
      return true;
    }
    if (!expect(TokKind::Colon, "':' or ';'"))
      return false;
    while (Tok.Kind == TokKind::Pipe) {
      advance();
      ArmDecl A;
      A.Loc = Tok.Loc;
      if (Tok.Kind != TokKind::Ident)
        return fail("expected symbol name");
      A.Symbol = Tok.Text;
      advance();
      A.ParamBegin = static_cast<uint32_t>(Out.Params.size());
      if (Tok.Kind == TokKind::LParen) {
        advance();
        while (true) {
          if (Tok.Kind != TokKind::Ident)
            return fail("expected parameter name");
          Out.Params.push_back(Tok.Text);
          advance();
          if (Tok.Kind == TokKind::Comma) {
            advance();
            continue;
          }
          break;
        }
        if (!expect(TokKind::RParen, "')'"))
          return false;
      }
      A.ParamEnd = static_cast<uint32_t>(Out.Params.size());
      if (!expect(TokKind::Arrow, "'->'"))
        return false;
      if (Tok.Kind != TokKind::Ident)
        return fail("expected target state name");
      A.Target = Tok.Text;
      advance();
      Out.Arms.push_back(A);
    }
    D.ArmEnd = static_cast<uint32_t>(Out.Arms.size());
    Out.States.push_back(D);
    return expect(TokKind::Semi, "';'");
  }

  Lexer Lex;
  Token Tok;
  std::optional<Diag> Err;
};

} // namespace

Expected<SpecAutomaton> rasc::parseSpecEx(std::string_view Text) {
  RASC_TRACE_SCOPE("spec.compile", Text.size());
  Parsed In;
  // Typical specs spend about 64 bytes of text per state and 24 per
  // arm; larger texts grow the tables as they go.
  In.States.reserve(std::min<size_t>(Text.size() / 64 + 1, 1024));
  In.Arms.reserve(std::min<size_t>(Text.size() / 24 + 1, 4096));
  Parser P(Text);
  if (!P.parse(In))
    return P.err();
  if (In.States.empty())
    return Diag("specification declares no states", In.EndLoc);

  // States, numbered in declaration order.
  const uint32_t NumStates = static_cast<uint32_t>(In.States.size());
  auto stateName = [&](uint32_t S) { return In.States[S].Name; };
  NameIndex StateIds;
  StateIds.reserve(NumStates);
  for (uint32_t S = 0; S != NumStates; ++S)
    if (!StateIds.findOrInsert(In.States[S].Name, S, stateName).second)
      return Diag("duplicate state '" + std::string(In.States[S].Name) + "'",
                  In.States[S].Loc);

  // Symbols, numbered in order of first use: the "symbols" list, then
  // the arms in declaration order. A symbol's parameters are those of
  // its first use (a range of In.Params).
  struct SymbolUse {
    std::string_view Name;
    uint32_t ParamBegin, ParamEnd;
    StateId LastFrom = InvalidState; ///< the last state with an arm on it
  };
  std::vector<SymbolUse> Symbols;
  NameIndex SymbolIds;
  auto symbolName = [&](uint32_t Sym) { return Symbols[Sym].Name; };
  auto addSymbol = [&](std::string_view Name, uint32_t ParamBegin,
                       uint32_t ParamEnd) -> std::optional<SymbolId> {
    auto [Sym, Fresh] = SymbolIds.findOrInsert(
        Name, static_cast<uint32_t>(Symbols.size()), symbolName);
    if (Fresh) {
      Symbols.push_back({Name, ParamBegin, ParamEnd});
      return Sym;
    }
    const SymbolUse &First = Symbols[Sym];
    if (!std::equal(In.Params.begin() + First.ParamBegin,
                    In.Params.begin() + First.ParamEnd,
                    In.Params.begin() + ParamBegin,
                    In.Params.begin() + ParamEnd))
      return std::nullopt;
    return Sym;
  };
  for (std::string_view Name : In.ExtraSymbols)
    addSymbol(Name, 0, 0); // never inconsistent: no use has parameters yet

  // The transitions, checked in declaration order. A state's arms are
  // contiguous, so a repeated (state, symbol) shows as the symbol's
  // last source being the current state.
  struct Transition {
    StateId From;
    SymbolId Sym;
    StateId To;
  };
  std::vector<Transition> Transitions;
  Transitions.reserve(In.Arms.size());
  bool HaveStart = false, HaveAccept = false;
  StateId Start = 0;
  for (StateId S = 0; S != NumStates; ++S) {
    const StateDecl &D = In.States[S];
    if (D.IsStart) {
      if (HaveStart)
        return Diag("multiple start states ('" + std::string(D.Name) + "')",
                    D.Loc);
      Start = S;
      HaveStart = true;
    }
    HaveAccept |= D.IsAccept;
    for (uint32_t I = D.ArmBegin; I != D.ArmEnd; ++I) {
      const ArmDecl &A = In.Arms[I];
      uint32_t To = StateIds.find(A.Target, stateName);
      if (To == NameIndex::NotFound)
        return Diag("unknown target state '" + std::string(A.Target) + "'",
                    A.Loc);
      std::optional<SymbolId> Sym =
          addSymbol(A.Symbol, A.ParamBegin, A.ParamEnd);
      if (!Sym)
        return Diag("symbol '" + std::string(A.Symbol) +
                        "' used with inconsistent parameters",
                    A.Loc);
      if (Symbols[*Sym].LastFrom == S)
        return Diag("duplicate transition on '" + std::string(A.Symbol) +
                        "' from state '" + std::string(D.Name) + "'",
                    A.Loc);
      Symbols[*Sym].LastFrom = S;
      Transitions.push_back({S, *Sym, To});
    }
  }
  if (!HaveStart)
    return Diag("no start state declared", In.States[0].Loc);
  if (!HaveAccept)
    return Diag("no accept state declared", In.States[0].Loc);

  // The alphabet is complete before the table is laid out.
  DfaBuilder B;
  B.reserve(NumStates, static_cast<uint32_t>(Symbols.size()));
  std::vector<SpecSymbol> Decls(Symbols.size());
  for (SymbolId Sym = 0; Sym != Symbols.size(); ++Sym) {
    const SymbolUse &U = Symbols[Sym];
    B.addSymbol(U.Name);
    Decls[Sym].Name = U.Name;
    Decls[Sym].Params.assign(In.Params.begin() + U.ParamBegin,
                             In.Params.begin() + U.ParamEnd);
  }
  std::vector<std::string> StateNames(NumStates);
  for (StateId S = 0; S != NumStates; ++S) {
    B.addState();
    B.setAccepting(S, In.States[S].IsAccept);
    StateNames[S] = In.States[S].Name;
  }
  B.setStart(Start);
  for (const Transition &T : Transitions)
    B.addTransition(T.From, T.Sym, T.To);

  Dfa M = B.build();
  // Name the implicit dead state, if build() created one.
  StateNames.resize(M.numStates(), "<dead>");
  return SpecAutomaton(std::move(M), std::move(StateNames),
                       std::move(Decls));
}

std::optional<SpecAutomaton> rasc::parseSpec(std::string_view Text,
                                             std::string *Error) {
  Expected<SpecAutomaton> A = parseSpecEx(Text);
  if (A)
    return std::move(*A);
  if (Error && Error->empty())
    *Error = A.error().render();
  return std::nullopt;
}
