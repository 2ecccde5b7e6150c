//===- flow/Lang.h - The Section 7 source language --------------*- C++ -*-===//
//
// Part of the RASC project: regularly annotated set constraints.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The first-order functional language of paper Section 7.1:
///
///   e ::= x | n | (e1, e2) | e.1 | e.2 | f(e)
///   d ::= f (x : tau) : tau' = e ;
///   tau ::= int | (tau, tau)
///
/// Functions may be recursive and may call functions declared later
/// (mutual recursion). Every call expression is an instantiation site
/// with a unique index i, used by both analyses of Section 7.
///
/// Example (Figure 11):
///
///   pair (y : int) : (int, int) = (1, y);
///   main (z : int) : int = pair(2).2;
///
//===----------------------------------------------------------------------===//

#ifndef RASC_FLOW_LANG_H
#define RASC_FLOW_LANG_H

#include <cassert>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace rasc {

using TypeId = uint32_t;
using FExprId = uint32_t;
using FFuncId = uint32_t;

constexpr TypeId InvalidType = ~TypeId(0);

/// Interned unlabeled types.
struct FType {
  enum KindTy : uint8_t { Int, Pair } Kind;
  TypeId A = InvalidType; ///< Pair: first component.
  TypeId B = InvalidType; ///< Pair: second component.
};

/// Expressions; kids index into the program's expression arena. A Var
/// is the enclosing function's parameter (functions take one). Source
/// names live in the program's side table (FlowProgram::addNamedExpr),
/// so a program built in code carries no strings per node.
struct FExpr {
  enum KindTy : uint8_t { Var, Lit, MkPair, Proj, Call } Kind;
  long LitValue = 0;     ///< Lit.
  uint32_t ProjIdx = 0;  ///< Proj: 0-based component.
  FExprId Kid0 = 0;      ///< MkPair/Proj/Call operand(s).
  FExprId Kid1 = 0;      ///< MkPair second component.
  FFuncId Callee = 0;    ///< Call: the callee; by name: set by typecheck.
  uint32_t CallSite = 0; ///< Call: unique instantiation index.
  TypeId Type = InvalidType; ///< Filled by type checking.
};

struct FFunc {
  std::string Name;
  std::string Param;
  TypeId ParamTy;
  TypeId RetTy;
  FExprId Body;
};

/// A parsed, type-checked program.
class FlowProgram {
public:
  /// Parses and type checks; on failure returns std::nullopt and sets
  /// \p Error.
  static std::optional<FlowProgram> parse(std::string_view Source,
                                          std::string *Error = nullptr);

  // Type table -----------------------------------------------------------
  TypeId intType() const { return IntTy; }
  TypeId pairType(TypeId A, TypeId B);
  const FType &type(TypeId T) const {
    assert(T < Types.size() && "type out of range");
    return Types[T];
  }
  uint32_t numTypes() const { return static_cast<uint32_t>(Types.size()); }
  std::string typeName(TypeId T) const;

  // Program --------------------------------------------------------------
  const std::vector<FFunc> &functions() const { return Funcs; }
  const FExpr &expr(FExprId E) const {
    assert(E < Exprs.size() && "expression out of range");
    return Exprs[E];
  }
  uint32_t numExprs() const { return static_cast<uint32_t>(Exprs.size()); }
  uint32_t numCallSites() const { return NumCallSites; }

  std::optional<FFuncId> functionByName(std::string_view Name) const;

  /// All expression nodes that are literals (flow-query sources).
  std::vector<FExprId> literals() const;

  // Construction (used by the parser and by generators) --------------------
  FFuncId addFunction(std::string Name, std::string Param, TypeId ParamTy,
                      TypeId RetTy, FExprId Body);
  /// Reserves a function whose body defineFunction() supplies later, so
  /// that bodies built earlier can call it by id.
  FFuncId declareFunction(std::string Name, std::string Param,
                          TypeId ParamTy, TypeId RetTy);
  void defineFunction(FFuncId F, FExprId Body);

  /// Adds an expression; a Call names its callee by id in E.Callee.
  FExprId addExpr(FExpr E);
  /// Adds a Var or Call that refers by source name: a Var must name the
  /// enclosing function's parameter, a Call's callee is resolved by
  /// typecheck(). The text parser builds this way.
  FExprId addNamedExpr(FExpr E, std::string Name);

  /// Resolves by-name references and computes static types; returns
  /// false and sets \p Error on a type error.
  bool typecheck(std::string *Error);

private:
  FlowProgram() {
    Types.push_back({FType::Int, InvalidType, InvalidType});
  }

  TypeId IntTy = 0;
  std::vector<FType> Types;
  std::vector<FFunc> Funcs;
  std::vector<FExpr> Exprs;
  /// Source names of the expressions added by addNamedExpr(), in
  /// expression order.
  std::vector<std::pair<FExprId, std::string>> RefNames;
  uint32_t NumCallSites = 0;

  friend class FlowProgramBuilder;

public:
  /// Builds programs programmatically (for tests and generators).
  static FlowProgram empty() { return FlowProgram(); }
};

} // namespace rasc

#endif // RASC_FLOW_LANG_H
