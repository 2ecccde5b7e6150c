//===- frontend/ConstraintParser.cpp - Textual constraint files -*- C++ -*-===//
//
// Part of the RASC project: regularly annotated set constraints.
//
//===----------------------------------------------------------------------===//

#include "frontend/ConstraintParser.h"

#include "automata/RegexParser.h"
#include "spec/SpecParser.h"

#include <cctype>

using namespace rasc;

namespace rasc {

/// Line-oriented recursive-descent parser for constraint files.
class ConstraintFileParser {
public:
  explicit ConstraintFileParser(std::string_view In) : In(In) {}

  Expected<ConstraintProgram> parse() {
    ConstraintProgram P;
    if (!parseLanguage(P))
      return takeErr();
    while (true) {
      skipTrivia();
      if (Pos >= In.size())
        break;
      if (!parseStatement(P))
        return takeErr();
    }
    return P;
  }

  /// Parses statements (no language block) into an existing program.
  /// \p AppliedBytes tracks the fully-applied source prefix: it is
  /// advanced past each statement only after the statement succeeded.
  std::optional<Diag> parseInto(ConstraintProgram &P,
                                size_t *AppliedBytes) {
    while (true) {
      skipTrivia();
      if (Pos >= In.size()) {
        if (AppliedBytes)
          *AppliedBytes = In.size();
        return std::nullopt;
      }
      if (!parseStatement(P))
        return takeErr();
      if (AppliedBytes)
        *AppliedBytes = Pos;
    }
  }

private:
  /// 1-based column of the cursor on the current line.
  uint32_t col() const { return static_cast<uint32_t>(Pos - LineStart + 1); }

  bool fail(const std::string &Msg) {
    if (!Err)
      Err = Diag(Msg, SourceLoc{Line, col()});
    return false;
  }

  /// Records a failure at an explicit location (for errors reported
  /// by the nested spec/regex parsers).
  bool failAt(const std::string &Msg, SourceLoc Loc) {
    if (!Err)
      Err = Diag(Msg, Loc);
    return false;
  }

  Diag takeErr() const { return Err ? *Err : Diag("parse error"); }

  void skipTrivia() {
    while (Pos < In.size()) {
      char C = In[Pos];
      if (C == '\n') {
        ++Line;
        ++Pos;
        LineStart = Pos;
      } else if (std::isspace(static_cast<unsigned char>(C))) {
        ++Pos;
      } else if (C == '#') {
        while (Pos < In.size() && In[Pos] != '\n')
          ++Pos;
      } else {
        break;
      }
    }
  }

  bool eat(char C) {
    skipTrivia();
    if (Pos < In.size() && In[Pos] == C) {
      ++Pos;
      return true;
    }
    return fail(std::string("expected '") + C + "'");
  }

  bool peekIs(char C) {
    skipTrivia();
    return Pos < In.size() && In[Pos] == C;
  }

  std::optional<std::string> ident() {
    skipTrivia();
    if (Pos >= In.size() ||
        !(std::isalpha(static_cast<unsigned char>(In[Pos])) ||
          In[Pos] == '_')) {
      fail("expected identifier");
      return std::nullopt;
    }
    size_t Start = Pos;
    while (Pos < In.size() &&
           (std::isalnum(static_cast<unsigned char>(In[Pos])) ||
            In[Pos] == '_'))
      ++Pos;
    return std::string(In.substr(Start, Pos - Start));
  }

  std::optional<unsigned> number() {
    skipTrivia();
    if (Pos >= In.size() ||
        !std::isdigit(static_cast<unsigned char>(In[Pos]))) {
      fail("expected number");
      return std::nullopt;
    }
    // Cap far below the overflow point: every number in this grammar
    // is an arity or a projection index, and an overlong literal must
    // be a clean error, not a silent wrap.
    constexpr unsigned Max = 1u << 20;
    unsigned N = 0;
    bool Over = false;
    while (Pos < In.size() &&
           std::isdigit(static_cast<unsigned char>(In[Pos]))) {
      N = N * 10 + static_cast<unsigned>(In[Pos++] - '0');
      if (N > Max) {
        Over = true;
        N = Max;
      }
    }
    if (Over) {
      fail("number too large (max " + std::to_string(Max) + ")");
      return std::nullopt;
    }
    return N;
  }

  bool parseLanguage(ConstraintProgram &P) {
    skipTrivia();
    auto Kw = ident();
    if (!Kw || *Kw != "language")
      return fail("constraint files start with a 'language' block");
    skipTrivia();
    if (peekIs('{')) {
      // Automaton specification block: find the matching brace.
      ++Pos;
      size_t Start = Pos;
      unsigned StartLine = Line;
      int Depth = 1;
      while (Pos < In.size() && Depth != 0) {
        if (In[Pos] == '{')
          ++Depth;
        else if (In[Pos] == '}')
          --Depth;
        else if (In[Pos] == '\n') {
          ++Line;
          LineStart = Pos + 1;
        }
        ++Pos;
      }
      if (Depth != 0)
        return fail("unterminated language block");
      std::string SpecText(In.substr(Start, Pos - 1 - Start));
      Expected<SpecAutomaton> Spec = parseSpecEx(SpecText);
      if (!Spec) {
        // Map the spec's position into this file: spec line 1 is the
        // text right after '{' on line StartLine.
        SourceLoc L = Spec.error().loc();
        L.Line = L.valid() ? StartLine + L.Line - 1 : StartLine;
        return failAt("language block: " + Spec.error().message(), L);
      }
      P.Dom = std::make_unique<MonoidDomain>(Spec->machine());
    } else {
      auto Sub = ident();
      if (!Sub || *Sub != "regex")
        return fail("expected '{' or 'regex' after 'language'");
      skipTrivia();
      if (Pos >= In.size() || In[Pos] != '"')
        return fail("expected a quoted regex");
      ++Pos;
      size_t Start = Pos;
      while (Pos < In.size() && In[Pos] != '"')
        ++Pos;
      if (Pos >= In.size())
        return fail("unterminated regex string");
      std::string Pattern(In.substr(Start, Pos - Start));
      ++Pos;
      Expected<Dfa> M = compileRegexEx(Pattern);
      if (!M) {
        // The regex diagnostic's column is an offset into the quoted
        // pattern; shift it to this file's coordinates.
        SourceLoc L = M.error().loc();
        uint32_t PatCol = L.Col ? L.Col : 1;
        return failAt("regex: " + M.error().message(),
                      SourceLoc{Line, static_cast<uint32_t>(
                                          Start - LineStart + PatCol)});
      }
      P.Dom = std::make_unique<MonoidDomain>(std::move(*M));
      if (!eat(';'))
        return false;
    }
    P.CS = std::make_unique<ConstraintSystem>(*P.Dom);
    return true;
  }

  std::optional<VarId> lookupVar(ConstraintProgram &P,
                                 const std::string &Name) {
    for (const auto &[N, V] : P.Vars)
      if (N == Name)
        return V;
    fail("unknown variable '" + Name + "'");
    return std::nullopt;
  }

  std::optional<ConsId> lookupCons(ConstraintProgram &P,
                                   const std::string &Name) {
    for (const auto &[N, C] : P.Constructors)
      if (N == Name)
        return C;
    fail("unknown constructor '" + Name + "'");
    return std::nullopt;
  }

  bool isDeclared(const ConstraintProgram &P, const std::string &Name) {
    for (const auto &[N, V] : P.Vars)
      if (N == Name)
        return true;
    for (const auto &[N, C] : P.Constructors)
      if (N == Name)
        return true;
    return false;
  }

  /// Parses one side of a constraint: var | cons(args) | constant.
  std::optional<ExprId> parseSide(ConstraintProgram &P) {
    auto Name = ident();
    if (!Name)
      return std::nullopt;
    // Variable?
    for (const auto &[N, V] : P.Vars)
      if (N == *Name)
        return P.CS->var(V);
    // Constructor / constant.
    auto C = lookupCons(P, *Name);
    if (!C)
      return std::nullopt;
    std::vector<VarId> Args;
    if (peekIs('(')) {
      ++Pos;
      while (true) {
        auto ArgName = ident();
        if (!ArgName)
          return std::nullopt;
        auto V = lookupVar(P, *ArgName);
        if (!V)
          return std::nullopt;
        Args.push_back(*V);
        if (peekIs(',')) {
          ++Pos;
          continue;
        }
        break;
      }
      if (!eat(')'))
        return std::nullopt;
    }
    if (Args.size() != P.CS->constructor(*C).Arity) {
      fail("constructor '" + *Name + "' expects " +
           std::to_string(P.CS->constructor(*C).Arity) + " argument(s)");
      return std::nullopt;
    }
    return P.CS->cons(*C, std::move(Args));
  }

  /// Optional [symbol] annotation after "<=".
  std::optional<AnnId> parseAnnotation(ConstraintProgram &P) {
    if (!peekIs('['))
      return P.Dom->identity();
    ++Pos;
    auto Sym = ident();
    if (!Sym)
      return std::nullopt;
    auto S = P.Dom->machine().symbol(*Sym);
    if (!S) {
      fail("'" + *Sym + "' is not a symbol of the annotation language");
      return std::nullopt;
    }
    if (!eat(']'))
      return std::nullopt;
    return P.Dom->symbolAnn(*S);
  }

  bool expectLeq() {
    skipTrivia();
    if (Pos + 1 < In.size() && In[Pos] == '<' && In[Pos + 1] == '=') {
      Pos += 2;
      return true;
    }
    return fail("expected '<='");
  }

  bool parseStatement(ConstraintProgram &P) {
    size_t Save = Pos;
    unsigned SaveLine = Line;
    size_t SaveLineStart = LineStart;
    auto Kw = ident();
    if (!Kw)
      return false;

    if (*Kw == "var") {
      while (true) {
        auto Name = ident();
        if (!Name)
          return false;
        if (isDeclared(P, *Name))
          return fail("'" + *Name + "' is already declared");
        P.Vars.emplace_back(*Name, P.CS->freshVar(*Name));
        if (peekIs(';')) {
          ++Pos;
          return true;
        }
      }
    }
    if (*Kw == "constant" || *Kw == "constructor") {
      auto Name = ident();
      if (!Name)
        return false;
      if (isDeclared(P, *Name))
        return fail("'" + *Name + "' is already declared");
      uint32_t Arity = 0;
      if (*Kw == "constructor") {
        auto N = number();
        if (!N)
          return false;
        // Arities beyond any real analysis are rejected up front so a
        // hostile file cannot make downstream passes allocate
        // per-argument state for millions of components.
        if (*N > 1024)
          return fail("constructor arity " + std::to_string(*N) +
                      " too large (max 1024)");
        Arity = *N;
      }
      P.Constructors.emplace_back(
          *Name, P.CS->addConstructor(*Name, Arity));
      return eat(';');
    }
    if (*Kw == "proj") {
      auto ConsName = ident();
      if (!ConsName)
        return false;
      auto C = lookupCons(P, *ConsName);
      if (!C)
        return false;
      auto Index = number();
      if (!Index)
        return false;
      if (*Index < 1 || *Index > P.CS->constructor(*C).Arity)
        return fail("projection index out of range (1-based)");
      auto SubjName = ident();
      if (!SubjName)
        return false;
      auto Subject = lookupVar(P, *SubjName);
      if (!Subject)
        return false;
      if (!expectLeq())
        return false;
      auto Ann = parseAnnotation(P);
      if (!Ann)
        return false;
      auto TargetName = ident();
      if (!TargetName)
        return false;
      auto Target = lookupVar(P, *TargetName);
      if (!Target)
        return false;
      P.CS->add(P.CS->proj(*C, *Index - 1, *Subject),
                P.CS->var(*Target), *Ann);
      return eat(';');
    }
    if (*Kw == "query") {
      ConstraintProgram::Query Q;
      size_t LineStart = Save;
      auto Next = ident();
      if (!Next)
        return false;
      Q.Kind = ConstraintProgram::Query::Matched;
      if (*Next == "pn") {
        Q.Kind = ConstraintProgram::Query::Pn;
        Next = ident();
        if (!Next)
          return false;
      }
      auto C = lookupCons(P, *Next);
      if (!C)
        return false;
      if (P.CS->constructor(*C).Arity != 0)
        return fail("queries are about constants");
      Q.Constant = *C;
      auto InKw = ident();
      if (!InKw || *InKw != "in")
        return fail("expected 'in'");
      auto VarName = ident();
      if (!VarName)
        return false;
      auto V = lookupVar(P, *VarName);
      if (!V)
        return false;
      Q.Var = *V;
      if (!eat(';'))
        return false;
      Q.Text = std::string(In.substr(LineStart, Pos - LineStart));
      P.Queries.push_back(std::move(Q));
      return true;
    }
    if (*Kw == "retract") {
      // "retract N;" flags the N-th constraint (0-based ingestion
      // order, counting every earlier constraint statement including
      // proj) as withdrawn. The flag replays on a warm boot exactly
      // like the statement that added the constraint did.
      auto N = number();
      if (!N)
        return false;
      if (std::optional<Diag> D = P.CS->retract(*N))
        return fail(D->message());
      return eat(';');
    }

    // Otherwise: a constraint "side <= [ann] side;".
    Pos = Save;
    Line = SaveLine;
    LineStart = SaveLineStart;
    auto Lhs = parseSide(P);
    if (!Lhs)
      return false;
    if (!expectLeq())
      return false;
    auto Ann = parseAnnotation(P);
    if (!Ann)
      return false;
    auto Rhs = parseSide(P);
    if (!Rhs)
      return false;
    if (P.CS->expr(*Rhs).Kind == ExprKind::Cons &&
        P.CS->expr(*Lhs).Kind == ExprKind::Cons &&
        P.CS->expr(*Lhs).C != P.CS->expr(*Rhs).C)
      return fail("constructor mismatch is trivially inconsistent");
    P.CS->add(*Lhs, *Rhs, *Ann);
    return eat(';');
  }

  std::string_view In;
  size_t Pos = 0;
  size_t LineStart = 0;
  uint32_t Line = 1;
  std::optional<Diag> Err;
};

} // namespace rasc

Expected<ConstraintProgram> ConstraintProgram::parseEx(std::string_view Source) {
  ConstraintFileParser P(Source);
  return P.parse();
}

std::optional<ConstraintProgram>
ConstraintProgram::parse(std::string_view Source, std::string *Error) {
  Expected<ConstraintProgram> P = parseEx(Source);
  if (P)
    return std::move(*P);
  if (Error && Error->empty())
    *Error = P.error().render();
  return std::nullopt;
}

std::optional<Diag>
ConstraintProgram::addStatements(std::string_view Source,
                                 size_t *AppliedBytes) {
  if (AppliedBytes)
    *AppliedBytes = 0;
  ConstraintFileParser P(Source);
  return P.parseInto(*this, AppliedBytes);
}

std::optional<VarId>
ConstraintProgram::varByName(std::string_view Name) const {
  for (const auto &[N, V] : Vars)
    if (N == Name)
      return V;
  return std::nullopt;
}

std::optional<ConsId>
ConstraintProgram::consByName(std::string_view Name) const {
  for (const auto &[N, C] : Constructors)
    if (N == Name)
      return C;
  return std::nullopt;
}

std::vector<ConstraintProgram::Answer>
ConstraintProgram::solveAndAnswer(SolverOptions Options,
                                  SolverStats *StatsOut) {
  BidirectionalSolver Solver(*CS, Options);
  Solver.solve();
  if (StatsOut)
    *StatsOut = Solver.stats();
  return answer(Solver);
}

std::vector<ConstraintProgram::Answer>
ConstraintProgram::answer(BidirectionalSolver &Solver) const {
  std::vector<Answer> Out;
  for (const Query &Q : Queries) {
    Answer A{&Q, false};
    if (Q.Kind == Query::Matched) {
      A.Holds = Solver.entailsConstant(Q.Constant, Q.Var);
    } else {
      AtomReachability AR = Solver.atomReachability(Q.Constant);
      for (AnnId F : AR.annotations(Q.Var))
        A.Holds |= Dom->isAccepting(F);
    }
    Out.push_back(A);
  }
  return Out;
}
