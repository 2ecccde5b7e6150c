//===- tests/expr_store_test.cpp - Hash-consed expression store -*- C++ -*-===//
//
// Part of the RASC project: regularly annotated set constraints.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The flat expression store of ConstraintSystem: ids are equal exactly
/// when the expressions are structurally equal, every distinct
/// constructor expression owns one function variable, and ids and
/// arguments survive the growth of the argument arena (this suite runs
/// under ASan in CI, which catches a read through a stale arena).
///
//===----------------------------------------------------------------------===//

#include "core/ConstraintSystem.h"
#include "core/Domains.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <tuple>
#include <vector>

using namespace rasc;

namespace {

/// An expression as plain data: (kind, constructor, index, var, args).
using Shape =
    std::tuple<ExprKind, ConsId, uint32_t, VarId, std::vector<VarId>>;

Shape shapeOf(const ConstraintSystem &CS, ExprId Id) {
  const Expr &E = CS.expr(Id);
  std::span<const VarId> Args = CS.args(E);
  return {E.Kind, E.C, E.Index, E.V,
          std::vector<VarId>(Args.begin(), Args.end())};
}

ExprId build(ConstraintSystem &CS, const Shape &S) {
  const auto &[Kind, C, Index, V, Args] = S;
  switch (Kind) {
  case ExprKind::Var:
    return CS.var(V);
  case ExprKind::Cons:
    return CS.cons(C, Args);
  case ExprKind::Proj:
    return CS.proj(C, Index, V);
  }
  return InvalidExpr;
}

TEST(ExprStore, IdsAreEqualIffExpressionsAreStructurallyEqual) {
  TrivialDomain Dom;
  ConstraintSystem CS(Dom);
  // Same arity, different constructors; arities 0 through 3.
  std::vector<ConsId> Ctors = {
      CS.addConstant("k"),         CS.addConstant("l"),
      CS.addConstructor("u", 1),   CS.addConstructor("v", 1),
      CS.addConstructor("b", 2),   CS.addConstructor("t", 3)};
  std::vector<VarId> Vars;
  for (int I = 0; I != 3; ++I)
    Vars.push_back(CS.freshVar());

  std::vector<Shape> Shapes;
  for (VarId V : Vars)
    Shapes.push_back({ExprKind::Var, 0, 0, V, {}});
  for (ConsId C : Ctors) {
    uint32_t Arity = CS.constructor(C).Arity;
    // Every argument tuple over Vars.
    std::vector<VarId> Args(Arity, Vars[0]);
    size_t Count = 1;
    for (uint32_t I = 0; I != Arity; ++I)
      Count *= Vars.size();
    for (size_t N = 0; N != Count; ++N) {
      size_t Digits = N;
      for (uint32_t I = 0; I != Arity; ++I, Digits /= Vars.size())
        Args[I] = Vars[Digits % Vars.size()];
      Shapes.push_back({ExprKind::Cons, C, 0, InvalidVar, Args});
    }
    for (uint32_t I = 0; I != Arity; ++I)
      for (VarId V : Vars)
        Shapes.push_back({ExprKind::Proj, C, I, V, {}});
  }

  // Intern every shape several times, in a shuffled order, checking
  // lookups before interning and the stored records after.
  Rng R(7);
  std::map<Shape, ExprId> IdOf;
  std::map<ExprId, Shape> ShapeOfId;
  for (int Round = 0; Round != 3; ++Round) {
    std::vector<Shape> Order = Shapes;
    for (size_t I = Order.size(); I > 1; --I)
      std::swap(Order[I - 1], Order[R.below(I)]);
    for (const Shape &S : Order) {
      const auto &[Kind, C, Index, V, Args] = S;
      auto Known = IdOf.find(S);
      if (Kind == ExprKind::Cons) {
        EXPECT_EQ(CS.findCons(C, Args),
                  Known == IdOf.end() ? InvalidExpr : Known->second);
      }
      ExprId Id = build(CS, S);
      ASSERT_NE(Id, InvalidExpr);
      EXPECT_EQ(shapeOf(CS, Id), S);
      if (Known != IdOf.end()) {
        EXPECT_EQ(Id, Known->second);
        continue;
      }
      IdOf.emplace(S, Id);
      auto [It, Fresh] = ShapeOfId.emplace(Id, S);
      EXPECT_TRUE(Fresh) << "two distinct expressions share id " << Id;
    }
  }
  EXPECT_EQ(CS.numExprs(), Shapes.size());

  // One function variable per distinct constructor expression.
  std::set<FnVarId> Alphas;
  size_t NumCons = 0;
  for (ExprId Id = 0; Id != CS.numExprs(); ++Id)
    if (CS.expr(Id).Kind == ExprKind::Cons) {
      ++NumCons;
      EXPECT_TRUE(Alphas.insert(CS.expr(Id).Alpha).second)
          << "function variable shared by expr " << Id;
    }
  EXPECT_EQ(CS.numFnVars(), NumCons);
  EXPECT_EQ(*Alphas.rbegin() + 1, NumCons);
}

TEST(ExprStore, IdsAndArgumentsSurviveArenaGrowth) {
  TrivialDomain Dom;
  ConstraintSystem CS(Dom);
  ConsId B = CS.addConstructor("b", 2);
  ConsId T = CS.addConstructor("t", 3);
  ConsId T2 = CS.addConstructor("t2", 3);
  std::vector<VarId> Vars;
  for (int I = 0; I != 300; ++I)
    Vars.push_back(CS.freshVar());

  Rng R(11);
  struct Built {
    ExprId Id;
    Expr Record; ///< a copy taken right after interning
    std::vector<VarId> Args;
  };
  std::vector<Built> All;
  for (int I = 0; I != 20000; ++I) {
    bool Binary = R.chance(1, 2);
    std::vector<VarId> Args(Binary ? 2 : 3);
    for (VarId &A : Args)
      A = Vars[R.below(Vars.size())];
    ExprId Id = CS.cons(Binary ? B : T, Args);
    All.push_back({Id, CS.expr(Id), Args});
    // Interleave var and projection nodes with the constructors.
    CS.var(Args[0]);
    CS.proj(B, 1, Args[1]);
    // Arguments read out of the arena itself feed a new expression:
    // the store must copy them before its arena can reallocate.
    if (!Binary) {
      ExprId Twin = CS.cons(T2, CS.args(CS.expr(Id)));
      EXPECT_EQ(shapeOf(CS, Twin),
                Shape(ExprKind::Cons, T2, 0, InvalidVar, Args));
    }
  }
  for (const Built &X : All) {
    // The copied record still addresses its arguments.
    for (uint32_t I = 0; I != X.Args.size(); ++I)
      ASSERT_EQ(CS.arg(X.Record, I), X.Args[I]);
    std::span<const VarId> Now = CS.args(CS.expr(X.Id));
    ASSERT_EQ(std::vector<VarId>(Now.begin(), Now.end()), X.Args);
    ASSERT_EQ(CS.cons(X.Record.C, X.Args), X.Id);
    ASSERT_EQ(CS.expr(X.Id).Alpha, X.Record.Alpha);
  }
}

} // namespace
