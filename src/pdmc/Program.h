//===- pdmc/Program.h - CFG program representation --------------*- C++ -*-===//
//
// Part of the RASC project: regularly annotated set constraints.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The program representation consumed by the pushdown model checker
/// of paper Section 6 (and by the interprocedural dataflow analyses of
/// Section 3.3): a set of functions, each with a control flow graph of
/// statements. A statement is either irrelevant (Nop), an *operation*
/// (a symbol of the property's alphabet, possibly with parameter
/// labels such as open(fd1)), or a call to another function.
///
/// Every function has a dedicated entry and exit statement (Nops);
/// statements with no explicit successor fall through to the
/// function's exit.
///
/// Successors are kept in compressed sparse row (CSR) form: addEdge()
/// appends to one edge list, and finalize() lays it out as one offset
/// array and one target array, so a pass over the CFG reads two flat
/// arrays instead of one heap vector per statement.
///
/// encodeProgram() is the Section 6.1 constraint encoding that both
/// applications (pdmc, dataflow) generate through.
///
//===----------------------------------------------------------------------===//

#ifndef RASC_PDMC_PROGRAM_H
#define RASC_PDMC_PROGRAM_H

#include "core/ConstraintSystem.h"

#include <cassert>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace rasc {

using FuncId = uint32_t;
using StmtId = uint32_t;
/// An operation symbol, interned per Program (Program::symbolName()).
using OpSymId = uint32_t;

constexpr FuncId InvalidFunc = ~FuncId(0);

/// Where a statement came from, for diagnostics. A front end that
/// builds a program per request tags its statements with a number (an
/// instruction index) instead of building text, and Program::note()
/// renders the text only when a report asks.
struct SourceTag {
  enum KindTy : uint8_t {
    None,  ///< No note.
    Text,  ///< Index: a note in the program's own note table.
    Entry, ///< A function's entry statement: "entry".
    Exit,  ///< A function's exit statement: "exit".
    Insn,  ///< Index: an instruction: "insn <Index>: <text>".
  };
  KindTy Kind = None;
  uint32_t Index = 0;

  static SourceTag insn(uint32_t I) { return {Insn, I}; }
};

/// One CFG statement.
struct Stmt {
  enum KindTy : uint8_t {
    Nop,  ///< Irrelevant to the property.
    Op,   ///< Security-relevant operation (property alphabet symbol).
    Call, ///< Call to another function; each call site is unique.
  };

  KindTy Kind = Nop;
  OpSymId OpSym = 0;           ///< Op: the property symbol.
  FuncId Callee = InvalidFunc; ///< Call.
  FuncId Parent = InvalidFunc;
  SourceTag Tag;           ///< Source location for diagnostics; see note().
  uint32_t LabelSet = 0;   ///< Op: 1 + its index in the label sets, if any
};

/// A whole program: functions, statements, edges.
class Program {
public:
  /// Creates a function with fresh entry/exit Nop statements. The
  /// first function created is main.
  FuncId addFunction(std::string Name);

  StmtId entry(FuncId F) const { return Funcs[F].Entry; }
  StmtId exit(FuncId F) const { return Funcs[F].Exit; }
  const std::string &funcName(FuncId F) const { return Funcs[F].Name; }

  /// Interns an operation symbol: equal names get equal ids.
  OpSymId internSymbol(std::string_view Name);
  const std::string &symbolName(OpSymId Sym) const {
    assert(Sym < Symbols.size() && "symbol out of range");
    return Symbols[Sym];
  }
  uint32_t numSymbols() const {
    return static_cast<uint32_t>(Symbols.size());
  }

  /// Adds a Nop statement to \p F, with a free-form note.
  StmtId addNop(FuncId F, std::string_view Note = {});
  StmtId addNop(FuncId F, SourceTag Tag);

  /// Adds an operation statement (a property-alphabet symbol with
  /// optional parameter labels).
  StmtId addOp(FuncId F, std::string_view Symbol,
               std::vector<std::string> Labels = {},
               std::string_view Note = {});
  StmtId addOp(FuncId F, OpSymId Sym, SourceTag Tag);

  /// Adds a call statement.
  StmtId addCall(FuncId F, FuncId Callee, std::string_view Note = {});

  /// Renders the Insn-tagged notes: \p Render returns the text of
  /// instruction \p I, and must own what it reads. Without one, such
  /// a note reads "insn <I>".
  void setInsnRenderer(std::function<std::string(uint32_t I)> Render) {
    InsnText = std::move(Render);
  }

  /// Adds a CFG edge. A statement's successors are listed in the order
  /// of their addEdge() calls.
  void addEdge(StmtId From, StmtId To) {
    assert(From < Stmts.size() && To < Stmts.size() && "bad statement");
    assert(Stmts[From].Parent == Stmts[To].Parent &&
           "CFG edges are intraprocedural");
    Edges.push_back({From, To});
    Finalized = false;
  }

  /// Routes every statement without a successor (except exits) to its
  /// function's exit, and lays the successor lists out for succs().
  /// Call after construction, and again after adding statements or
  /// edges; a second call with nothing added changes nothing.
  void finalize();

  /// The successors of \p S in addEdge() order (with the exit that
  /// finalize() adds to a statement that had none). Valid from
  /// finalize() until the next addition.
  std::span<const StmtId> succs(StmtId S) const {
    std::span<const uint32_t> Begin = succBegin();
    assert(S < Stmts.size() && "statement out of range");
    return succTargets().subspan(Begin[S], Begin[S + 1] - Begin[S]);
  }
  /// Every successor list back to back: those of S are
  /// [succBegin()[S], succBegin()[S + 1]) of succTargets(). For passes
  /// over the whole CFG; valid when succs() is.
  std::span<const uint32_t> succBegin() const {
    assert(Finalized && "successors are laid out by finalize()");
    return {Csr.data(), Stmts.size() + 1};
  }
  std::span<const StmtId> succTargets() const {
    assert(Finalized && "successors are laid out by finalize()");
    return {Csr.data() + Stmts.size() + 1, Edges.size()};
  }

  FuncId mainFunction() const { return 0; }
  uint32_t numFunctions() const {
    return static_cast<uint32_t>(Funcs.size());
  }
  /// Makes room for \p Statements statements and \p EdgeCount edges,
  /// for a front end that knows about how many it adds.
  void reserve(size_t Statements, size_t EdgeCount) {
    Stmts.reserve(Statements);
    Edges.reserve(EdgeCount);
  }
  uint32_t numStatements() const {
    return static_cast<uint32_t>(Stmts.size());
  }
  const Stmt &stmt(StmtId S) const {
    assert(S < Stmts.size() && "statement out of range");
    return Stmts[S];
  }
  /// The parameter labels of operation \p S (empty if it has none).
  /// Kept apart from the statements, which stay small records.
  std::span<const std::string> labels(StmtId S) const {
    uint32_t Set = stmt(S).LabelSet;
    if (Set == 0)
      return {};
    return LabelSets[Set - 1];
  }

  /// The free-form source location of a statement, rendered from its
  /// tag ("" if it has none).
  std::string note(StmtId S) const;

  /// A short human-readable description of a statement.
  std::string describe(StmtId S) const;

private:
  struct Func {
    std::string Name;
    StmtId Entry;
    StmtId Exit;
  };

  StmtId addStmt(FuncId F, Stmt St);
  SourceTag textTag(std::string_view Note);

  std::vector<Func> Funcs;
  std::vector<Stmt> Stmts;
  std::vector<std::pair<StmtId, StmtId>> Edges; ///< in addEdge() order
  /// The successor lists in CSR form, in one block: numStatements() + 1
  /// offsets, then the edges' targets grouped by source.
  std::vector<uint32_t> Csr;
  bool Finalized = false;
  std::vector<std::string> Symbols;
  std::vector<std::vector<std::string>> LabelSets; ///< see labels()
  std::vector<std::string> Notes; ///< the Text tags' notes
  std::function<std::string(uint32_t)> InsnText;
};

/// The variables and constructors encodeProgram() made.
struct ProgramEncoding {
  /// Per statement: its variable. Statements may share one; each has
  /// the least solution of the literal one-per-statement encoding.
  std::vector<VarId> StmtVars;
  /// The constant of pc ⊆ S_main.
  ConsId Pc = 0;
  /// Per constructor: the call site whose o_i it is, or NoCall.
  static constexpr StmtId NoCall = ~StmtId(0);
  std::vector<StmtId> ConsToCall;
};

/// In encodeProgram()'s annotation list: a statement whose edges are
/// identity edges.
constexpr AnnId IdentityStmt = InvalidAnn;

/// Generates the Section 6.1 constraints of \p Prog into \p CS:
/// pc ⊆ S_main, o_i(S) ⊆ F_entry and o_i^-1(F_exit) ⊆ S_succ for a
/// call S of F, and S ⊆^a S_succ for any other statement S, where
/// a = \p StmtAnns[S] (the domain's identity where it is IdentityStmt;
/// a call's entry is not read). With metrics on, records
/// "<MetricPrefix>.statements" and "<MetricPrefix>.vars".
ProgramEncoding encodeProgram(const Program &Prog, ConstraintSystem &CS,
                              std::span<const AnnId> StmtAnns,
                              const char *MetricPrefix);

} // namespace rasc

#endif // RASC_PDMC_PROGRAM_H
