//===- core/ConstraintSystem.h - Annotated set constraints ------*- C++ -*-===//
//
// Part of the RASC project: regularly annotated set constraints.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Representation of a system of regularly annotated set constraints
/// (paper Section 2). Set expressions are
///
///   se ::= X | c^alpha(X1, ..., Xn) | c^-i(X)
///
/// i.e. constructor arguments and projection subjects are variables;
/// nested expressions are encoded with auxiliary variables. Every
/// constructor expression carries a *function variable* alpha (its
/// word-set variable, Section 2.4); these are allocated automatically
/// and never appear in the surface API, matching the paper ("it is
/// possible to infer the needed set expression annotations during
/// constraint resolution").
///
/// A constraint lhs ⊆^a rhs carries an annotation-domain element a;
/// surface systems use single symbols or the identity, but any interned
/// element is accepted. Projections may not appear on the right-hand
/// side, and (a representation choice, asserted) a projection
/// left-hand side requires a variable right-hand side.
///
/// Expressions are hash-consed: structurally equal expressions share
/// an ExprId (and hence a function variable), as in BANSHEE. The store
/// is flat: an Expr is a plain record, constructor arguments live in one
/// VarId arena addressed by (begin, count), variable expressions are
/// found through a direct VarId -> ExprId table, and constructor and
/// projection expressions through an open-addressed structural-hash
/// index whose collisions are chained and compared in full.
///
//===----------------------------------------------------------------------===//

#ifndef RASC_CORE_CONSTRAINTSYSTEM_H
#define RASC_CORE_CONSTRAINTSYSTEM_H

#include "core/Annotation.h"
#include "support/Diag.h"
#include "support/FlatSet.h"

#include <cassert>
#include <initializer_list>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace rasc {

using VarId = uint32_t;
using ConsId = uint32_t;
using ExprId = uint32_t;
using FnVarId = uint32_t;

constexpr ExprId InvalidExpr = ~ExprId(0);
constexpr VarId InvalidVar = ~VarId(0);

/// How a variable or constructor is named, without owning a string:
/// a static prefix plus a number rendered on demand ("S12", "o@7"), a
/// slice of the system's name arena (parsed names), or nothing (the
/// default name). Per-op generators name thousands of variables and
/// constructors that only diagnostics and proof logs ever read.
struct NameRef {
  const char *Prefix = nullptr; ///< static text; then Num is the number
  uint32_t Num = 0;             ///< number, or arena offset
  uint32_t Len = 0;             ///< arena length; 0 without a Prefix: none
};

/// A term constructor with a fixed arity. Its name is
/// ConstraintSystem::constructorName().
struct Constructor {
  NameRef Name;
  uint32_t Arity;
};

enum class ExprKind : uint8_t {
  Var,  ///< A set variable.
  Cons, ///< c^alpha(X1, ..., Xn); arity-0 constructors are constants.
  Proj, ///< c^-i(X), 0-based component index.
};

/// One hash-consed set expression: a plain record, safe to copy. A
/// constructor's argument variables are ConstraintSystem::args(E);
/// ArgBegin indexes the system's argument arena, so it stays valid
/// when the arena grows.
struct Expr {
  ExprKind Kind;
  ConsId C = 0;          ///< Cons / Proj: the constructor.
  uint32_t Index = 0;    ///< Proj: projected component (0-based).
  VarId V = InvalidVar;  ///< Var: the variable; Proj: the subject.
  FnVarId Alpha = 0;     ///< Cons: this occurrence's function variable.
  uint32_t ArgBegin = 0; ///< Cons: first argument in the arena.
  uint32_t NumArgs = 0;  ///< Cons: arity.
};

/// One constraint Lhs ⊆^Ann Rhs.
struct Constraint {
  ExprId Lhs;
  ExprId Rhs;
  AnnId Ann;
};

/// Builder and owner of a constraint system over a fixed annotation
/// domain. The solver reads it; systems may keep growing between
/// solver runs (online solving).
class ConstraintSystem {
public:
  explicit ConstraintSystem(const AnnotationDomain &Domain)
      : Domain(Domain) {}

  const AnnotationDomain &domain() const { return Domain; }

  /// What a generator that knows its size up front expects to add.
  struct Capacity {
    size_t Vars = 0;
    size_t Exprs = 0;    ///< of every kind
    size_t Interned = 0; ///< of the Exprs, constructor and projection ones
    size_t Constructors = 0;
    size_t Constraints = 0;
  };

  /// Makes room for \p C, so that the builders below do not regrow
  /// their tables one push at a time.
  void reserve(const Capacity &C) {
    VarNames.reserve(VarNames.size() + C.Vars);
    VarExpr.reserve(VarNames.size() + C.Vars);
    Exprs.reserve(Exprs.size() + C.Exprs);
    SameHash.reserve(Exprs.size() + C.Exprs);
    ExprIndex.reserve(ExprIndex.size() + C.Interned);
    ArgArena.reserve(ArgArena.size() + C.Interned);
    Constructors.reserve(Constructors.size() + C.Constructors);
    ConstraintList.reserve(ConstraintList.size() + C.Constraints);
  }

  /// Declares a constructor. Names are for diagnostics; distinct calls
  /// always create distinct constructors.
  ConsId addConstructor(std::string_view Name, uint32_t Arity) {
    Constructors.push_back({ownName(Name), Arity});
    return static_cast<ConsId>(Constructors.size() - 1);
  }

  /// Declares a constructor named \p Prefix followed by \p Num, rendered
  /// only when constructorName() asks. \p Prefix must be static text (a
  /// string literal).
  ConsId addNumberedConstructor(const char *Prefix, uint32_t Num,
                                uint32_t Arity) {
    Constructors.push_back({NameRef{Prefix, Num, 0}, Arity});
    return static_cast<ConsId>(Constructors.size() - 1);
  }

  /// Convenience for an arity-0 constructor (a constant).
  ConsId addConstant(std::string_view Name) { return addConstructor(Name, 0); }
  ConsId addNumberedConstant(const char *Prefix, uint32_t Num) {
    return addNumberedConstructor(Prefix, Num, 0);
  }

  /// Creates a fresh set variable. An unnamed one is named "X<id>"
  /// when varName() asks, not here.
  VarId freshVar(std::string_view Name = {}) {
    VarNames.push_back(ownName(Name));
    return static_cast<VarId>(VarNames.size() - 1);
  }

  /// Creates a fresh set variable named \p Prefix followed by \p Num,
  /// rendered only when varName() asks. \p Prefix must be static text.
  VarId numberedVar(const char *Prefix, uint32_t Num) {
    VarNames.push_back(NameRef{Prefix, Num, 0});
    return static_cast<VarId>(VarNames.size() - 1);
  }

  uint32_t numVars() const { return static_cast<uint32_t>(VarNames.size()); }
  uint32_t numExprs() const { return static_cast<uint32_t>(Exprs.size()); }
  uint32_t numFnVars() const { return NumFnVars; }
  uint32_t numConstructors() const {
    return static_cast<uint32_t>(Constructors.size());
  }

  std::string varName(VarId V) const {
    assert(V < VarNames.size() && "variable out of range");
    const NameRef &N = VarNames[V];
    return N.Prefix || N.Len ? render(N) : "X" + std::to_string(V);
  }

  std::string constructorName(ConsId C) const {
    return render(constructor(C).Name);
  }

  const Constructor &constructor(ConsId C) const {
    assert(C < Constructors.size() && "constructor out of range");
    return Constructors[C];
  }

  /// The record of \p E. The reference is invalidated by the next
  /// interning (var/cons/proj); copy the record to keep it across one.
  const Expr &expr(ExprId E) const {
    assert(E < Exprs.size() && "expression out of range");
    return Exprs[E];
  }

  /// The argument variables of a constructor expression (empty for the
  /// other kinds). The span points into the argument arena and is
  /// invalidated by the next interning; arg() reads one argument
  /// through the arena index and is safe across interning.
  std::span<const VarId> args(const Expr &E) const {
    return {ArgArena.data() + E.ArgBegin, E.NumArgs};
  }
  VarId arg(const Expr &E, uint32_t I) const {
    assert(I < E.NumArgs && "argument index out of range");
    return ArgArena[E.ArgBegin + I];
  }

  /// The id of c(Args...) if it was interned already, else InvalidExpr.
  /// Never interns (the certifier looks up rewritten expressions).
  ExprId findCons(ConsId C, std::span<const VarId> Args) const;

  /// \name Checked builders
  /// Validating variants of var/cons/proj/add for untrusted input
  /// (frontends, embedders): instead of asserting, a range or arity
  /// violation comes back as a Diag and the system is left unchanged.
  /// The failure is also recorded in lastDiag().
  /// @{
  Expected<ExprId> varChecked(VarId V) const;
  Expected<ExprId> consChecked(ConsId C,
                               std::span<const VarId> Args = {}) const;
  Expected<ExprId> consChecked(ConsId C,
                               std::initializer_list<VarId> Args) const {
    return consChecked(C, std::span<const VarId>(Args.begin(), Args.size()));
  }
  Expected<ExprId> projChecked(ConsId C, uint32_t Index,
                               VarId Subject) const;
  std::optional<Diag> addChecked(ExprId Lhs, ExprId Rhs, AnnId Ann);
  std::optional<Diag> addChecked(ExprId Lhs, ExprId Rhs) {
    return addChecked(Lhs, Rhs, Domain.identity());
  }
  /// @}

  /// The most recent checked-builder failure (also set when an
  /// unchecked builder rejects bad input in a no-assert build).
  const std::optional<Diag> &lastDiag() const { return LastDiag; }

  /// The expression node for a variable. Like the checked builders,
  /// the unchecked var/cons/proj/add validate their arguments in
  /// every build mode; the difference is only how a violation
  /// surfaces — assert where assertions are on, otherwise an
  /// InvalidExpr result (builders) or a dropped constraint (add),
  /// with the Diag in lastDiag(). Passing InvalidExpr onward into
  /// add() is itself caught, so errors propagate without UB.
  ExprId var(VarId V) const {
    if (V < VarExpr.size() && VarExpr[V] != InvalidExpr)
      return VarExpr[V];
    return must(varChecked(V));
  }

  /// The expression c^alpha(Args...); a fresh function variable alpha
  /// is allocated the first time this exact expression is built.
  ExprId cons(ConsId C, std::span<const VarId> Args = {}) const {
    return must(consChecked(C, Args));
  }
  ExprId cons(ConsId C, std::initializer_list<VarId> Args) const {
    return cons(C, std::span<const VarId>(Args.begin(), Args.size()));
  }

  /// The expression c^-Index(Subject) with a 0-based Index (the paper
  /// writes 1-based c^-i).
  ExprId proj(ConsId C, uint32_t Index, VarId Subject) const {
    return must(projChecked(C, Index, Subject));
  }

  /// Adds Lhs ⊆^Ann Rhs. Projections may not appear on the right; a
  /// projection left-hand side requires a variable right-hand side.
  void add(ExprId Lhs, ExprId Rhs, AnnId Ann) {
    std::optional<Diag> D = addChecked(Lhs, Rhs, Ann);
    assert(!D && "invalid constraint; see lastDiag()");
    (void)D;
  }

  /// Adds Lhs ⊆ Rhs with the identity (epsilon) annotation.
  void add(ExprId Lhs, ExprId Rhs) { add(Lhs, Rhs, Domain.identity()); }

  const std::vector<Constraint> &constraints() const {
    return ConstraintList;
  }

  /// \name Retraction
  /// Constraints are never removed from the list (ids are stable and
  /// solvers index into it), they are *flagged*: a retracted
  /// constraint is skipped by cycle elimination and ingestion and
  /// excluded from the certifier's obligations; a solver that already
  /// ingested it reaches the edited fixpoint by resetToFresh() +
  /// solve() (DESIGN.md §11). Flagging keeps the system's text
  /// replayable — "retract N;" statements re-apply on a warm boot.
  /// @{
  std::optional<Diag> retract(uint32_t Idx) {
    if (Idx >= ConstraintList.size()) {
      LastDiag = Diag("retract: constraint index " + std::to_string(Idx) +
                      " out of range (have " +
                      std::to_string(ConstraintList.size()) + ")");
      return LastDiag;
    }
    if (Idx >= RetractedFlags.size())
      RetractedFlags.resize(ConstraintList.size(), 0);
    if (RetractedFlags[Idx]) {
      LastDiag = Diag("retract: constraint " + std::to_string(Idx) +
                      " is already retracted");
      return LastDiag;
    }
    RetractedFlags[Idx] = 1;
    ++NumRetracted;
    return std::nullopt;
  }

  bool isRetracted(uint32_t Idx) const {
    return Idx < RetractedFlags.size() && RetractedFlags[Idx];
  }

  uint32_t numRetracted() const { return NumRetracted; }
  /// @}

  /// Renders an expression for diagnostics.
  std::string exprToString(ExprId E) const;

private:
  /// Copies \p Name into the name arena (an empty name stays unnamed).
  NameRef ownName(std::string_view Name) {
    NameRef N{nullptr, static_cast<uint32_t>(NameArena.size()),
              static_cast<uint32_t>(Name.size())};
    NameArena.append(Name);
    return N;
  }
  std::string render(const NameRef &N) const {
    if (N.Prefix)
      return N.Prefix + std::to_string(N.Num);
    return NameArena.substr(N.Num, N.Len);
  }

  /// Interns a Cons (with \p Args) or Proj expression.
  ExprId intern(const Expr &E, std::span<const VarId> Args) const;
  /// The interned expression structurally equal to \p E with \p Args
  /// on the chain of equal hashes that starts at \p Head, or
  /// InvalidExpr.
  ExprId find(const Expr &E, std::span<const VarId> Args, ExprId Head) const;

  /// Unwraps a checked-builder result for the asserting API.
  ExprId must(Expected<ExprId> E) const {
    assert(E && "invalid expression; see lastDiag()");
    return E ? *E : InvalidExpr;
  }

  const AnnotationDomain &Domain;
  std::vector<Constructor> Constructors;
  std::vector<NameRef> VarNames;
  std::string NameArena; ///< every owned name, back to back
  std::vector<Constraint> ConstraintList;
  std::vector<uint8_t> RetractedFlags; ///< grown lazily to list size
  uint32_t NumRetracted = 0;
  mutable std::optional<Diag> LastDiag;

  // Hash-consing tables. Interning is logically const (ids are stable
  // and deduplicated), hence mutable.
  mutable std::vector<Expr> Exprs;
  mutable std::vector<VarId> ArgArena;   ///< every Cons's arguments
  mutable std::vector<ExprId> VarExpr;   ///< VarId -> its Var expr
  /// Structural hash -> first Cons/Proj expr with that hash; further
  /// exprs with the same hash follow through SameHash.
  mutable FlatMap64 ExprIndex;
  mutable std::vector<ExprId> SameHash; ///< per expr; InvalidExpr ends
  mutable FnVarId NumFnVars = 0;
};

} // namespace rasc

#endif // RASC_CORE_CONSTRAINTSYSTEM_H
