//===- spec/SpecParser.cpp - Annotation specification language --*- C++ -*-===//
//
// Part of the RASC project: regularly annotated set constraints.
//
//===----------------------------------------------------------------------===//

#include "spec/SpecParser.h"

#include <cctype>
#include <map>

using namespace rasc;

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
  End,
};

struct Token {
  TokKind Kind;
  std::string Text;
  uint32_t Line;
  uint32_t Col;
};

class Lexer {
public:
  explicit Lexer(std::string_view Input) : Input(Input) {}

  Token next() {
    skipTrivia();
    uint32_t Col = static_cast<uint32_t>(Pos - LineStart + 1);
    if (Pos >= Input.size())
      return {TokKind::End, "", Line, Col};
    char C = Input[Pos];
    if (std::isalnum(static_cast<unsigned char>(C)) || C == '_') {
      size_t Start = Pos;
      while (Pos < Input.size() &&
             (std::isalnum(static_cast<unsigned char>(Input[Pos])) ||
              Input[Pos] == '_'))
        ++Pos;
      return {TokKind::Ident,
              std::string(Input.substr(Start, Pos - Start)), Line, Col};
    }
    switch (C) {
    case ':':
      ++Pos;
      return {TokKind::Colon, ":", Line, Col};
    case ';':
      ++Pos;
      return {TokKind::Semi, ";", Line, Col};
    case '|':
      ++Pos;
      return {TokKind::Pipe, "|", Line, Col};
    case '(':
      ++Pos;
      return {TokKind::LParen, "(", Line, Col};
    case ')':
      ++Pos;
      return {TokKind::RParen, ")", Line, Col};
    case ',':
      ++Pos;
      return {TokKind::Comma, ",", Line, Col};
    case '-':
      if (Pos + 1 < Input.size() && Input[Pos + 1] == '>') {
        Pos += 2;
        return {TokKind::Arrow, "->", Line, Col};
      }
      break;
    default:
      break;
    }
    return {TokKind::End, std::string(1, C), Line, Col}; // reported as error
  }

private:
  void skipTrivia() {
    while (Pos < Input.size()) {
      char C = Input[Pos];
      if (C == '\n') {
        ++Line;
        ++Pos;
        LineStart = Pos;
      } else if (std::isspace(static_cast<unsigned char>(C))) {
        ++Pos;
      } else if (C == '#') {
        while (Pos < Input.size() && Input[Pos] != '\n')
          ++Pos;
      } else {
        break;
      }
    }
  }

  std::string_view Input;
  size_t Pos = 0;
  size_t LineStart = 0;
  uint32_t Line = 1;
};

struct Arm {
  std::string Symbol;
  std::vector<std::string> Params;
  std::string Target;
  unsigned Line;
};

struct StateDecl {
  std::string Name;
  bool IsStart = false;
  bool IsAccept = false;
  std::vector<Arm> Arms;
  unsigned Line;
};

class Parser {
public:
  explicit Parser(std::string_view Input) : Lex(Input) {
    Tok = Lex.next();
  }

  Diag err() const { return Err ? *Err : Diag("parse error"); }

  bool parse(std::vector<StateDecl> &States,
             std::vector<std::string> &ExtraSymbols) {
    while (Tok.Kind != TokKind::End || !Tok.Text.empty()) {
      if (Tok.Kind == TokKind::End && Tok.Text.empty())
        break;
      if (Tok.Kind != TokKind::Ident)
        return fail("expected declaration");
      if (Tok.Text == "symbols") {
        if (!parseSymbolsDecl(ExtraSymbols))
          return false;
        continue;
      }
      StateDecl D;
      if (!parseStateDecl(D))
        return false;
      States.push_back(std::move(D));
    }
    return true;
  }

private:
  bool fail(std::string_view Msg) {
    if (!Err)
      Err = Diag(std::string(Msg), SourceLoc{Tok.Line, Tok.Col});
    return false;
  }

  void advance() { Tok = Lex.next(); }

  bool expect(TokKind K, std::string_view What) {
    if (Tok.Kind != K)
      return fail(std::string("expected ") + std::string(What));
    advance();
    return true;
  }

  bool parseSymbolsDecl(std::vector<std::string> &ExtraSymbols) {
    advance(); // 'symbols'
    while (true) {
      if (Tok.Kind != TokKind::Ident)
        return fail("expected symbol name");
      ExtraSymbols.push_back(Tok.Text);
      advance();
      if (Tok.Kind == TokKind::Comma) {
        advance();
        continue;
      }
      return expect(TokKind::Semi, "';'");
    }
  }

  bool parseStateDecl(StateDecl &D) {
    D.Line = Tok.Line;
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
    if (Tok.Kind == TokKind::Semi) {
      advance();
      return true;
    }
    if (!expect(TokKind::Colon, "':' or ';'"))
      return false;
    while (Tok.Kind == TokKind::Pipe) {
      advance();
      Arm A;
      A.Line = Tok.Line;
      if (Tok.Kind != TokKind::Ident)
        return fail("expected symbol name");
      A.Symbol = Tok.Text;
      advance();
      if (Tok.Kind == TokKind::LParen) {
        advance();
        while (true) {
          if (Tok.Kind != TokKind::Ident)
            return fail("expected parameter name");
          A.Params.push_back(Tok.Text);
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
      if (!expect(TokKind::Arrow, "'->'"))
        return false;
      if (Tok.Kind != TokKind::Ident)
        return fail("expected target state name");
      A.Target = Tok.Text;
      advance();
      D.Arms.push_back(std::move(A));
    }
    return expect(TokKind::Semi, "';'");
  }

  Lexer Lex;
  Token Tok;
  std::optional<Diag> Err;
};

} // namespace

Expected<SpecAutomaton> rasc::parseSpecEx(std::string_view Text) {
  std::vector<StateDecl> States;
  std::vector<std::string> ExtraSymbols;
  Parser P(Text);
  if (!P.parse(States, ExtraSymbols))
    return P.err();

  auto at = [](unsigned Line) { return SourceLoc{Line, 0}; };

  if (States.empty())
    return Diag("specification declares no states");

  DfaBuilder B;
  std::map<std::string, StateId> StateIds;
  std::vector<std::string> StateNames;
  for (const StateDecl &D : States) {
    if (StateIds.count(D.Name))
      return Diag("duplicate state '" + D.Name + "'", at(D.Line));
    StateIds[D.Name] = B.addState();
    StateNames.push_back(D.Name);
  }

  std::vector<SpecSymbol> Symbols;
  std::optional<Diag> SymErr;
  auto addSymbol = [&](const std::string &Name,
                       const std::vector<std::string> &Params,
                       unsigned Line) -> std::optional<SymbolId> {
    SymbolId Id = B.addSymbol(Name);
    if (Id == Symbols.size()) {
      Symbols.push_back({Name, Params});
      return Id;
    }
    if (Symbols[Id].Params != Params) {
      SymErr = Diag("symbol '" + Name +
                        "' used with inconsistent parameters",
                    at(Line));
      return std::nullopt;
    }
    return Id;
  };

  for (const std::string &S : ExtraSymbols)
    if (!addSymbol(S, {}, 0))
      return *SymErr;

  std::map<uint64_t, int> SeenTransitions;
  bool HaveStart = false, HaveAccept = false;
  for (const StateDecl &D : States) {
    StateId S = StateIds[D.Name];
    if (D.IsStart) {
      if (HaveStart)
        return Diag("multiple start states ('" + D.Name + "')", at(D.Line));
      B.setStart(S);
      HaveStart = true;
    }
    if (D.IsAccept) {
      B.setAccepting(S);
      HaveAccept = true;
    }
    for (const Arm &A : D.Arms) {
      auto TargetIt = StateIds.find(A.Target);
      if (TargetIt == StateIds.end())
        return Diag("unknown target state '" + A.Target + "'", at(A.Line));
      std::optional<SymbolId> Sym = addSymbol(A.Symbol, A.Params, A.Line);
      if (!Sym)
        return *SymErr;
      if (!SeenTransitions
               .emplace((static_cast<uint64_t>(S) << 32) | *Sym, 0)
               .second)
        return Diag("duplicate transition on '" + A.Symbol +
                        "' from state '" + D.Name + "'",
                    at(A.Line));
      B.addTransition(S, *Sym, TargetIt->second);
    }
  }

  if (!HaveStart)
    return Diag("no start state declared");
  if (!HaveAccept)
    return Diag("no accept state declared");

  Dfa M = B.build();
  // Name the implicit dead state, if build() created one.
  while (StateNames.size() < M.numStates())
    StateNames.push_back("<dead>");
  return SpecAutomaton(std::move(M), std::move(StateNames),
                       std::move(Symbols));
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
