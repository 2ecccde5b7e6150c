//===- flow/Lang.cpp - The Section 7 source language ------------*- C++ -*-===//
//
// Part of the RASC project: regularly annotated set constraints.
//
//===----------------------------------------------------------------------===//

#include "flow/Lang.h"

#include <algorithm>
#include <cctype>
#include <map>

using namespace rasc;

TypeId FlowProgram::pairType(TypeId A, TypeId B) {
  for (TypeId I = 0, E = static_cast<TypeId>(Types.size()); I != E; ++I)
    if (Types[I].Kind == FType::Pair && Types[I].A == A && Types[I].B == B)
      return I;
  Types.push_back({FType::Pair, A, B});
  return static_cast<TypeId>(Types.size() - 1);
}

std::string FlowProgram::typeName(TypeId T) const {
  const FType &Ty = type(T);
  if (Ty.Kind == FType::Int)
    return "int";
  return "(" + typeName(Ty.A) + ", " + typeName(Ty.B) + ")";
}

std::optional<FFuncId>
FlowProgram::functionByName(std::string_view Name) const {
  for (FFuncId I = 0, E = static_cast<FFuncId>(Funcs.size()); I != E; ++I)
    if (Funcs[I].Name == Name)
      return I;
  return std::nullopt;
}

std::vector<FExprId> FlowProgram::literals() const {
  std::vector<FExprId> Out;
  for (FExprId I = 0, E = static_cast<FExprId>(Exprs.size()); I != E; ++I)
    if (Exprs[I].Kind == FExpr::Lit)
      Out.push_back(I);
  return Out;
}

FFuncId FlowProgram::addFunction(std::string Name, std::string Param,
                                 TypeId ParamTy, TypeId RetTy,
                                 FExprId Body) {
  FFuncId F =
      declareFunction(std::move(Name), std::move(Param), ParamTy, RetTy);
  defineFunction(F, Body);
  return F;
}

FFuncId FlowProgram::declareFunction(std::string Name, std::string Param,
                                     TypeId ParamTy, TypeId RetTy) {
  Funcs.push_back(
      {std::move(Name), std::move(Param), ParamTy, RetTy, ~FExprId(0)});
  return static_cast<FFuncId>(Funcs.size() - 1);
}

void FlowProgram::defineFunction(FFuncId F, FExprId Body) {
  assert(F < Funcs.size() && "function out of range");
  Funcs[F].Body = Body;
}

FExprId FlowProgram::addExpr(FExpr E) {
  if (E.Kind == FExpr::Call)
    E.CallSite = NumCallSites++;
  Exprs.push_back(E);
  return static_cast<FExprId>(Exprs.size() - 1);
}

FExprId FlowProgram::addNamedExpr(FExpr E, std::string Name) {
  assert((E.Kind == FExpr::Var || E.Kind == FExpr::Call) &&
         "only variables and calls refer by name");
  FExprId Id = addExpr(E);
  RefNames.emplace_back(Id, std::move(Name));
  return Id;
}

//===----------------------------------------------------------------------===//
// Type checking
//===----------------------------------------------------------------------===//

namespace {

struct Checker {
  FlowProgram &P;
  const std::vector<std::pair<FExprId, std::string>> &RefNames;
  std::string *Error;

  bool fail(const std::string &Msg) {
    if (Error && Error->empty())
      *Error = Msg;
    return false;
  }

  /// The source name of \p E, or null if it refers by id.
  const std::string *refName(FExprId E) const {
    auto It = std::lower_bound(
        RefNames.begin(), RefNames.end(), E,
        [](const auto &R, FExprId Id) { return R.first < Id; });
    return It != RefNames.end() && It->first == E ? &It->second : nullptr;
  }

  bool checkExpr(FExprId EId, const FFunc &F) {
    // Exprs vector may reallocate nowhere here (no additions); safe to
    // take a mutable reference via index each time.
    FExpr &E = const_cast<FExpr &>(P.expr(EId));
    switch (E.Kind) {
    case FExpr::Var:
      if (const std::string *Name = refName(EId); Name && *Name != F.Param)
        return fail("unbound variable '" + *Name + "' in function '" +
                    F.Name + "'");
      E.Type = F.ParamTy;
      return true;
    case FExpr::Lit:
      E.Type = P.intType();
      return true;
    case FExpr::MkPair: {
      if (!checkExpr(E.Kid0, F) || !checkExpr(E.Kid1, F))
        return false;
      TypeId A = P.expr(E.Kid0).Type;
      TypeId B = P.expr(E.Kid1).Type;
      const_cast<FExpr &>(P.expr(EId)).Type = P.pairType(A, B);
      return true;
    }
    case FExpr::Proj: {
      if (!checkExpr(E.Kid0, F))
        return false;
      const FType &Ty = P.type(P.expr(E.Kid0).Type);
      if (Ty.Kind != FType::Pair)
        return fail("projection from a non-pair in '" + F.Name + "'");
      const_cast<FExpr &>(P.expr(EId)).Type =
          P.expr(EId).ProjIdx == 0 ? Ty.A : Ty.B;
      return true;
    }
    case FExpr::Call: {
      if (const std::string *Name = refName(EId)) {
        std::optional<FFuncId> Callee = P.functionByName(*Name);
        if (!Callee)
          return fail("call to undeclared function '" + *Name + "'");
        E.Callee = *Callee;
      } else if (E.Callee >= P.functions().size()) {
        return fail("call to undeclared function #" +
                    std::to_string(E.Callee) + " in '" + F.Name + "'");
      }
      if (!checkExpr(E.Kid0, F))
        return false;
      // Non-structural subtyping (Sub) permits any argument type; the
      // analysis simply loses flow on structural mismatch. We still
      // reject the plainly ill-formed case of projecting later, which
      // static types catch above.
      const_cast<FExpr &>(P.expr(EId)).Type =
          P.functions()[P.expr(EId).Callee].RetTy;
      return true;
    }
    }
    return fail("corrupt expression");
  }
};

} // namespace

bool FlowProgram::typecheck(std::string *Error) {
  Checker C{*this, RefNames, Error};
  for (const FFunc &F : Funcs) {
    if (F.Body >= Exprs.size())
      return C.fail("function '" + F.Name + "' has no body");
    if (!C.checkExpr(F.Body, F))
      return false;
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Parser
//===----------------------------------------------------------------------===//

namespace {

class FlowParser {
public:
  FlowParser(std::string_view In, FlowProgram &P, std::string *Error)
      : In(In), P(P), Error(Error) {}

  bool parseProgram() {
    skip();
    while (Pos < In.size()) {
      if (!parseFunc())
        return false;
      skip();
    }
    if (P.functions().empty())
      return fail("program has no functions");
    return true;
  }

private:
  bool fail(const std::string &Msg) {
    if (Error && Error->empty())
      *Error = Msg + " at offset " + std::to_string(Pos);
    return false;
  }

  void skip() {
    while (Pos < In.size()) {
      if (std::isspace(static_cast<unsigned char>(In[Pos]))) {
        ++Pos;
      } else if (In[Pos] == '#') {
        while (Pos < In.size() && In[Pos] != '\n')
          ++Pos;
      } else {
        break;
      }
    }
  }

  bool eat(char C) {
    skip();
    if (Pos < In.size() && In[Pos] == C) {
      ++Pos;
      return true;
    }
    return fail(std::string("expected '") + C + "'");
  }

  bool peekIs(char C) {
    skip();
    return Pos < In.size() && In[Pos] == C;
  }

  std::optional<std::string> ident() {
    skip();
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

  std::optional<TypeId> parseType() {
    skip();
    if (peekIs('(')) {
      ++Pos;
      auto A = parseType();
      if (!A || !eat(','))
        return std::nullopt;
      auto B = parseType();
      if (!B || !eat(')'))
        return std::nullopt;
      return P.pairType(*A, *B);
    }
    auto Id = ident();
    if (!Id)
      return std::nullopt;
    if (*Id != "int") {
      fail("unknown type '" + *Id + "'");
      return std::nullopt;
    }
    return P.intType();
  }

  std::optional<FExprId> parseAtom() {
    skip();
    if (Pos >= In.size()) {
      fail("expected expression");
      return std::nullopt;
    }
    char C = In[Pos];
    if (C == '(') {
      ++Pos;
      auto E1 = parseExpr();
      if (!E1)
        return std::nullopt;
      skip();
      if (peekIs(',')) {
        ++Pos;
        auto E2 = parseExpr();
        if (!E2 || !eat(')'))
          return std::nullopt;
        FExpr E;
        E.Kind = FExpr::MkPair;
        E.Kid0 = *E1;
        E.Kid1 = *E2;
        return P.addExpr(std::move(E));
      }
      if (!eat(')'))
        return std::nullopt;
      return E1;
    }
    if (std::isdigit(static_cast<unsigned char>(C)) || C == '-') {
      size_t Start = Pos;
      if (C == '-')
        ++Pos;
      while (Pos < In.size() &&
             std::isdigit(static_cast<unsigned char>(In[Pos])))
        ++Pos;
      FExpr E;
      E.Kind = FExpr::Lit;
      E.LitValue = std::stol(std::string(In.substr(Start, Pos - Start)));
      return P.addExpr(std::move(E));
    }
    auto Id = ident();
    if (!Id)
      return std::nullopt;
    if (peekIs('(')) {
      ++Pos;
      auto Arg = parseExpr();
      if (!Arg || !eat(')'))
        return std::nullopt;
      FExpr E;
      E.Kind = FExpr::Call;
      E.Kid0 = *Arg;
      return P.addNamedExpr(E, std::move(*Id));
    }
    FExpr E;
    E.Kind = FExpr::Var;
    return P.addNamedExpr(E, std::move(*Id));
  }

  std::optional<FExprId> parseExpr() {
    auto E = parseAtom();
    if (!E)
      return std::nullopt;
    while (peekIs('.')) {
      ++Pos;
      skip();
      if (Pos >= In.size() || (In[Pos] != '1' && In[Pos] != '2')) {
        fail("expected .1 or .2");
        return std::nullopt;
      }
      uint32_t Idx = In[Pos] == '1' ? 0 : 1;
      ++Pos;
      FExpr Proj;
      Proj.Kind = FExpr::Proj;
      Proj.ProjIdx = Idx;
      Proj.Kid0 = *E;
      E = P.addExpr(std::move(Proj));
    }
    return E;
  }

  bool parseFunc() {
    auto Name = ident();
    if (!Name || !eat('('))
      return false;
    auto Param = ident();
    if (!Param || !eat(':'))
      return false;
    auto ParamTy = parseType();
    if (!ParamTy || !eat(')') || !eat(':'))
      return false;
    auto RetTy = parseType();
    if (!RetTy || !eat('='))
      return false;
    auto Body = parseExpr();
    if (!Body || !eat(';'))
      return false;
    P.addFunction(*Name, *Param, *ParamTy, *RetTy, *Body);
    return true;
  }

  std::string_view In;
  FlowProgram &P;
  std::string *Error;
  size_t Pos = 0;
};

} // namespace

std::optional<FlowProgram> FlowProgram::parse(std::string_view Source,
                                              std::string *Error) {
  FlowProgram P = FlowProgram::empty();
  FlowParser Parser(Source, P, Error);
  if (!Parser.parseProgram())
    return std::nullopt;
  if (!P.typecheck(Error))
    return std::nullopt;
  return P;
}
