//===- automata/RegexParser.cpp - Regex frontend ----------------*- C++ -*-===//
//
// Part of the RASC project: regularly annotated set constraints.
//
//===----------------------------------------------------------------------===//

#include "automata/RegexParser.h"

#include "automata/DfaOps.h"

#include <cctype>
#include <memory>
#include <vector>

using namespace rasc;

namespace {

/// Hostile-input containment. Nesting is capped so recursive descent
/// (and the recursive AST walks below) cannot overflow the stack, and
/// the pattern length is capped so a single regex cannot consume
/// unbounded memory. Flat sequences ("a b c ...", "a|b|c|...") are
/// folded into *balanced* trees, so AST depth is O(MaxNesting +
/// log(pattern length)) rather than linear in the pattern.
constexpr unsigned MaxNesting = 500;
constexpr size_t MaxPatternBytes = 1u << 20;

/// Regex AST. Plus is a dedicated node kind (not desugared to "A A*")
/// so that repetition never duplicates subtrees: "a++++..." used to
/// clone the operand per '+', doubling the AST each time.
struct Regex {
  enum KindTy { Empty, Epsilon, Symbol, Concat, Alt, Star, Plus } Kind;
  std::string Name;                // Symbol
  std::unique_ptr<Regex> Lhs, Rhs; // Concat / Alt; Star / Plus use Lhs only

  explicit Regex(KindTy K) : Kind(K) {}
};

using RegexPtr = std::unique_ptr<Regex>;

RegexPtr makeNode(Regex::KindTy K, RegexPtr L = nullptr,
                  RegexPtr R = nullptr) {
  auto N = std::make_unique<Regex>(K);
  N->Lhs = std::move(L);
  N->Rhs = std::move(R);
  return N;
}

/// Folds \p Parts into a balanced binary tree of \p K nodes by
/// repeated pairwise combination. Depth is ceil(log2(n)).
RegexPtr foldBalanced(std::vector<RegexPtr> Parts, Regex::KindTy K) {
  while (Parts.size() > 1) {
    std::vector<RegexPtr> Next;
    Next.reserve(Parts.size() / 2 + 1);
    size_t I = 0;
    for (; I + 1 < Parts.size(); I += 2)
      Next.push_back(
          makeNode(K, std::move(Parts[I]), std::move(Parts[I + 1])));
    if (I < Parts.size())
      Next.push_back(std::move(Parts[I]));
    Parts = std::move(Next);
  }
  return std::move(Parts.front());
}

/// Recursive-descent parser.
class Parser {
public:
  explicit Parser(std::string_view Input) : Input(Input) {}

  Diag takeErr() { return Err ? *Err : Diag("regex parse error"); }

  RegexPtr parse() {
    if (Input.size() > MaxPatternBytes) {
      fail("regex pattern too large");
      return nullptr;
    }
    RegexPtr R = parseAlt();
    if (!R)
      return nullptr;
    skipSpace();
    if (Pos != Input.size()) {
      fail("unexpected trailing input");
      return nullptr;
    }
    return R;
  }

private:
  void skipSpace() {
    while (Pos < Input.size() &&
           std::isspace(static_cast<unsigned char>(Input[Pos])))
      ++Pos;
  }

  bool atAtomStart() {
    skipSpace();
    if (Pos >= Input.size())
      return false;
    char C = Input[Pos];
    return C == '(' || C == '%' || C == '_' ||
           std::isalnum(static_cast<unsigned char>(C));
  }

  void fail(std::string_view Msg) {
    // The column is the 1-based offset into the pattern; callers
    // embedding a regex in a larger file rebase it onto file
    // coordinates.
    if (!Err)
      Err = Diag(std::string(Msg),
                 SourceLoc{1, static_cast<uint32_t>(Pos + 1)});
  }

  RegexPtr parseAlt() {
    std::vector<RegexPtr> Arms;
    RegexPtr L = parseCat();
    if (!L)
      return nullptr;
    Arms.push_back(std::move(L));
    skipSpace();
    while (Pos < Input.size() && Input[Pos] == '|') {
      ++Pos;
      RegexPtr R = parseCat();
      if (!R)
        return nullptr;
      Arms.push_back(std::move(R));
      skipSpace();
    }
    return foldBalanced(std::move(Arms), Regex::Alt);
  }

  RegexPtr parseCat() {
    std::vector<RegexPtr> Parts;
    RegexPtr L = parseRep();
    if (!L)
      return nullptr;
    Parts.push_back(std::move(L));
    while (atAtomStart()) {
      RegexPtr R = parseRep();
      if (!R)
        return nullptr;
      Parts.push_back(std::move(R));
    }
    return foldBalanced(std::move(Parts), Regex::Concat);
  }

  /// An atom and its postfix operators. A stack of operators folds
  /// into at most one node, so a 1M-character "a+++..." chain stays a
  /// depth-2 AST instead of one level per operator (which the
  /// recursive walks and the node destructors would overflow the
  /// stack on): A** = A*, A++ = A+, A?? = A?, and any mix of two
  /// different operators is A*.
  RegexPtr parseRep() {
    RegexPtr A = parseAtom();
    if (!A)
      return nullptr;
    skipSpace();
    char Op = 0;
    while (Pos < Input.size() &&
           (Input[Pos] == '*' || Input[Pos] == '+' || Input[Pos] == '?')) {
      char Next = Input[Pos++];
      Op = !Op || Op == Next ? Next : '*';
      skipSpace();
    }
    if (Op == '*')
      return makeNode(Regex::Star, std::move(A));
    if (Op == '+')
      return makeNode(Regex::Plus, std::move(A));
    if (Op == '?')
      return makeNode(Regex::Alt, std::move(A), makeNode(Regex::Epsilon));
    return A;
  }

  RegexPtr parseAtom() {
    skipSpace();
    if (Pos >= Input.size()) {
      fail("expected symbol, '(' or '%eps'");
      return nullptr;
    }
    char C = Input[Pos];
    if (C == '(') {
      if (Depth >= MaxNesting) {
        fail("regex nesting too deep");
        return nullptr;
      }
      ++Depth;
      ++Pos;
      RegexPtr R = parseAlt();
      --Depth;
      if (!R)
        return nullptr;
      skipSpace();
      if (Pos >= Input.size() || Input[Pos] != ')') {
        fail("expected ')'");
        return nullptr;
      }
      ++Pos;
      return R;
    }
    if (C == '%') {
      if (Input.substr(Pos, 4) == "%eps") {
        Pos += 4;
        return makeNode(Regex::Epsilon);
      }
      fail("unknown escape; only %eps is recognized");
      return nullptr;
    }
    if (std::isalnum(static_cast<unsigned char>(C)) || C == '_') {
      size_t Start = Pos;
      while (Pos < Input.size() &&
             (std::isalnum(static_cast<unsigned char>(Input[Pos])) ||
              Input[Pos] == '_'))
        ++Pos;
      auto N = makeNode(Regex::Symbol);
      N->Name = std::string(Input.substr(Start, Pos - Start));
      return N;
    }
    fail("unexpected character");
    return nullptr;
  }

  std::string_view Input;
  size_t Pos = 0;
  unsigned Depth = 0;
  std::optional<Diag> Err;
};

void collectSymbols(const Regex &R, std::vector<std::string> &Out) {
  if (R.Kind == Regex::Symbol) {
    for (const std::string &S : Out)
      if (S == R.Name)
        return;
    Out.push_back(R.Name);
    return;
  }
  if (R.Lhs)
    collectSymbols(*R.Lhs, Out);
  if (R.Rhs)
    collectSymbols(*R.Rhs, Out);
}

/// Thompson construction: returns (entry, exit) of a fragment with a
/// single entry and single accepting exit.
std::pair<StateId, StateId> thompson(const Regex &R, Nfa &N) {
  StateId In = N.addState();
  StateId Out = N.addState();
  switch (R.Kind) {
  case Regex::Empty:
    break; // no path from In to Out
  case Regex::Epsilon:
    N.addEpsilon(In, Out);
    break;
  case Regex::Symbol: {
    SymbolId Sym = InvalidSymbol;
    for (SymbolId I = 0, E = N.numSymbols(); I != E; ++I)
      if (N.alphabet()[I] == R.Name) {
        Sym = I;
        break;
      }
    assert(Sym != InvalidSymbol && "symbol collected earlier");
    N.addTransition(In, Sym, Out);
    break;
  }
  case Regex::Concat: {
    auto [AIn, AOut] = thompson(*R.Lhs, N);
    auto [BIn, BOut] = thompson(*R.Rhs, N);
    N.addEpsilon(In, AIn);
    N.addEpsilon(AOut, BIn);
    N.addEpsilon(BOut, Out);
    break;
  }
  case Regex::Alt: {
    auto [AIn, AOut] = thompson(*R.Lhs, N);
    auto [BIn, BOut] = thompson(*R.Rhs, N);
    N.addEpsilon(In, AIn);
    N.addEpsilon(In, BIn);
    N.addEpsilon(AOut, Out);
    N.addEpsilon(BOut, Out);
    break;
  }
  case Regex::Star: {
    auto [AIn, AOut] = thompson(*R.Lhs, N);
    N.addEpsilon(In, Out);
    N.addEpsilon(In, AIn);
    N.addEpsilon(AOut, AIn);
    N.addEpsilon(AOut, Out);
    break;
  }
  case Regex::Plus: {
    // Like Star but without the In->Out bypass: at least one
    // iteration of the operand is required.
    auto [AIn, AOut] = thompson(*R.Lhs, N);
    N.addEpsilon(In, AIn);
    N.addEpsilon(AOut, AIn);
    N.addEpsilon(AOut, Out);
    break;
  }
  }
  return {In, Out};
}

} // namespace

Expected<Nfa>
rasc::parseRegexToNfaEx(std::string_view Pattern,
                        const std::vector<std::string> &ExtraSymbols) {
  Parser P(Pattern);
  RegexPtr R = P.parse();
  if (!R)
    return P.takeErr();

  std::vector<std::string> Symbols = ExtraSymbols;
  collectSymbols(*R, Symbols);

  Nfa N(Symbols);
  auto [In, Out] = thompson(*R, N);
  N.setStart(In);
  N.setAccepting(Out);
  return N;
}

Expected<Dfa>
rasc::compileRegexEx(std::string_view Pattern,
                     const std::vector<std::string> &ExtraSymbols) {
  Expected<Nfa> N = parseRegexToNfaEx(Pattern, ExtraSymbols);
  if (!N)
    return N.error();
  return minimize(determinize(*N));
}

std::optional<Nfa>
rasc::parseRegexToNfa(std::string_view Pattern,
                      const std::vector<std::string> &ExtraSymbols,
                      std::string *Error) {
  Expected<Nfa> N = parseRegexToNfaEx(Pattern, ExtraSymbols);
  if (N)
    return std::move(*N);
  if (Error && Error->empty())
    *Error = N.error().render();
  return std::nullopt;
}

std::optional<Dfa>
rasc::compileRegex(std::string_view Pattern,
                   const std::vector<std::string> &ExtraSymbols,
                   std::string *Error) {
  Expected<Dfa> D = compileRegexEx(Pattern, ExtraSymbols);
  if (D)
    return std::move(*D);
  if (Error && Error->empty())
    *Error = D.error().render();
  return std::nullopt;
}
