//===- core/ConstraintSystem.cpp - Annotated set constraints ----*- C++ -*-===//
//
// Part of the RASC project: regularly annotated set constraints.
//
//===----------------------------------------------------------------------===//

#include "core/ConstraintSystem.h"

#include <algorithm>
#include <functional>
#include <sstream>

using namespace rasc;

namespace {

/// The structural hash of a Cons/Proj expression. The all-ones value is
/// FlatMap64's empty marker and is folded onto zero.
uint64_t structuralHash(const Expr &E, std::span<const VarId> Args) {
  uint64_t H = hashCombine(static_cast<uint64_t>(E.Kind),
                           (static_cast<uint64_t>(E.C) << 32) | E.Index);
  H = hashCombine(H, E.V);
  H = hashRange(Args.begin(), Args.end(), H);
  return H == ~uint64_t(0) ? 0 : H;
}

} // namespace

ExprId ConstraintSystem::find(const Expr &E, std::span<const VarId> Args,
                              ExprId Head) const {
  for (ExprId Id = Head; Id != InvalidExpr; Id = SameHash[Id]) {
    const Expr &Cand = Exprs[Id];
    if (Cand.Kind == E.Kind && Cand.C == E.C && Cand.Index == E.Index &&
        Cand.V == E.V && Cand.NumArgs == Args.size() &&
        std::equal(Args.begin(), Args.end(),
                   ArgArena.begin() + Cand.ArgBegin))
      return Id;
  }
  return InvalidExpr;
}

ExprId ConstraintSystem::intern(const Expr &E,
                                std::span<const VarId> Args) const {
  // Arguments read out of the arena itself (say, args() of another
  // expr) would dangle when the insert below reallocates it.
  const VarId *Arena = ArgArena.data();
  if (!Args.empty() && std::less_equal<>()(Arena, Args.data()) &&
      std::less<>()(Args.data(), Arena + ArgArena.size())) {
    std::vector<VarId> Copy(Args.begin(), Args.end());
    return intern(E, Copy);
  }
  // One probe: a new hash heads its own chain at once; under a known
  // hash, the chain is searched and a new expr is linked in right
  // after its head.
  uint64_t H = structuralHash(E, Args);
  ExprId Id = static_cast<ExprId>(Exprs.size());
  auto [Head, Fresh] = ExprIndex.findOrInsert(H, Id);
  if (!Fresh) {
    if (ExprId Found = find(E, Args, Head); Found != InvalidExpr)
      return Found;
    SameHash.push_back(SameHash[Head]);
    SameHash[Head] = Id;
  } else {
    SameHash.push_back(InvalidExpr);
  }
  Expr &New = Exprs.emplace_back(E);
  if (E.Kind == ExprKind::Cons) {
    New.Alpha = NumFnVars++;
    New.ArgBegin = static_cast<uint32_t>(ArgArena.size());
    New.NumArgs = static_cast<uint32_t>(Args.size());
    ArgArena.insert(ArgArena.end(), Args.begin(), Args.end());
  }
  return Id;
}

ExprId ConstraintSystem::findCons(ConsId C,
                                  std::span<const VarId> Args) const {
  Expr E{ExprKind::Cons, C, 0, InvalidVar};
  const uint32_t *Head = ExprIndex.lookup(structuralHash(E, Args));
  return Head ? find(E, Args, *Head) : InvalidExpr;
}

Expected<ExprId> ConstraintSystem::varChecked(VarId V) const {
  if (V >= VarNames.size()) {
    LastDiag = Diag("variable id " + std::to_string(V) +
                    " out of range (system has " +
                    std::to_string(VarNames.size()) + " variables)");
    return *LastDiag;
  }
  if (V >= VarExpr.size())
    VarExpr.resize(VarNames.size(), InvalidExpr);
  if (VarExpr[V] == InvalidExpr) {
    VarExpr[V] = static_cast<ExprId>(Exprs.size());
    Exprs.push_back(Expr{ExprKind::Var, 0, 0, V});
    SameHash.push_back(InvalidExpr);
  }
  return VarExpr[V];
}

Expected<ExprId>
ConstraintSystem::consChecked(ConsId C, std::span<const VarId> Args) const {
  if (C >= Constructors.size()) {
    LastDiag = Diag("constructor id " + std::to_string(C) +
                    " out of range (system has " +
                    std::to_string(Constructors.size()) + " constructors)");
    return *LastDiag;
  }
  if (Args.size() != Constructors[C].Arity) {
    LastDiag = Diag("arity mismatch: constructor '" + constructorName(C) +
                    "' takes " + std::to_string(Constructors[C].Arity) +
                    " arguments, got " + std::to_string(Args.size()));
    return *LastDiag;
  }
  for (VarId A : Args)
    if (A >= VarNames.size()) {
      LastDiag = Diag("argument variable id " + std::to_string(A) +
                      " of constructor '" + constructorName(C) +
                      "' out of range");
      return *LastDiag;
    }
  return intern(Expr{ExprKind::Cons, C, 0, InvalidVar}, Args);
}

Expected<ExprId> ConstraintSystem::projChecked(ConsId C, uint32_t Index,
                                               VarId Subject) const {
  if (C >= Constructors.size()) {
    LastDiag = Diag("constructor id " + std::to_string(C) +
                    " out of range (system has " +
                    std::to_string(Constructors.size()) + " constructors)");
    return *LastDiag;
  }
  if (Index >= Constructors[C].Arity) {
    LastDiag = Diag("projection index " + std::to_string(Index + 1) +
                    " out of range for constructor '" +
                    constructorName(C) + "' of arity " +
                    std::to_string(Constructors[C].Arity));
    return *LastDiag;
  }
  if (Subject >= VarNames.size()) {
    LastDiag = Diag("projection subject variable id " +
                    std::to_string(Subject) + " out of range");
    return *LastDiag;
  }
  return intern(Expr{ExprKind::Proj, C, Index, Subject}, {});
}

std::optional<Diag> ConstraintSystem::addChecked(ExprId Lhs, ExprId Rhs,
                                                 AnnId Ann) {
  auto fail = [&](std::string Msg) {
    LastDiag = Diag(std::move(Msg));
    return LastDiag;
  };
  if (Lhs >= Exprs.size() || Rhs >= Exprs.size())
    return fail("constraint references an invalid expression id");
  if (Ann >= Domain.size())
    return fail("annotation id " + std::to_string(Ann) +
                " out of range (domain has " +
                std::to_string(Domain.size()) + " classes)");
  if (Exprs[Rhs].Kind == ExprKind::Proj)
    return fail("projection on the right-hand side of a constraint");
  if (Exprs[Lhs].Kind == ExprKind::Proj &&
      Exprs[Rhs].Kind != ExprKind::Var)
    return fail("projection constraints need a variable right-hand side; "
                "introduce an auxiliary variable");
  ConstraintList.push_back({Lhs, Rhs, Ann});
  return std::nullopt;
}

std::string ConstraintSystem::exprToString(ExprId Id) const {
  const Expr &E = expr(Id);
  std::ostringstream OS;
  switch (E.Kind) {
  case ExprKind::Var:
    OS << varName(E.V);
    break;
  case ExprKind::Cons:
    OS << constructorName(E.C);
    if (E.NumArgs) {
      OS << "(";
      for (uint32_t I = 0; I != E.NumArgs; ++I) {
        if (I)
          OS << ", ";
        OS << varName(arg(E, I));
      }
      OS << ")";
    }
    break;
  case ExprKind::Proj:
    OS << constructorName(E.C) << "^-" << (E.Index + 1) << "("
       << varName(E.V) << ")";
    break;
  }
  return OS.str();
}
