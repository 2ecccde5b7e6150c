//===- frontend/ConstraintParser.h - Textual constraint files ---*- C++ -*-===//
//
// Part of the RASC project: regularly annotated set constraints.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A textual frontend for whole constraint problems, in the spirit of
/// BANSHEE's "specify an analysis, get a solver" workflow (paper
/// Section 8): one file declares the annotation language (either as a
/// Section 8 automaton specification or as a regex), the constructors
/// and variables, the annotated constraints, and the queries to run.
///
///   # the annotation language
///   language {
///     start state Unpriv : | acquire -> Priv;
///     accept state Priv  : | acquire -> Priv;
///   }
///   # or: language regex "(g k)* g";
///
///   constant pc;
///   constructor o 1;            # name arity
///   var X Y Z;
///
///   pc <= X;                    # epsilon annotation
///   X <= [acquire] Y;           # single-symbol annotation
///   o(Y) <= Z;                  # constructor expression
///   proj o 1 Z <= X;            # o^-1(Z) ⊆ X   (1-based index)
///
///   query pc in Y;              # matched entailment (Section 3.2)
///   query pn pc in Z;           # PN reachability (Section 6.2)
///
/// parse() builds the domain and constraint system; solveAndAnswer()
/// runs the bidirectional solver and evaluates the queries.
///
//===----------------------------------------------------------------------===//

#ifndef RASC_FRONTEND_CONSTRAINTPARSER_H
#define RASC_FRONTEND_CONSTRAINTPARSER_H

#include "core/Domains.h"
#include "core/Solver.h"
#include "support/Diag.h"

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace rasc {

/// A parsed constraint problem: the annotation domain, the system,
/// the declared names, and the queries.
class ConstraintProgram {
public:
  struct Query {
    enum KindTy { Matched, Pn } Kind;
    ConsId Constant;
    VarId Var;
    std::string Text; ///< the original line, for reporting
  };

  struct Answer {
    const Query *Q;
    bool Holds;
  };

  /// Parses \p Source; on failure the Diag carries the message and
  /// the 1-based line/column of the offending token.
  static Expected<ConstraintProgram> parseEx(std::string_view Source);

  /// Convenience wrapper over parseEx(): returns std::nullopt and
  /// sets \p Error to the rendered diagnostic on failure.
  static std::optional<ConstraintProgram>
  parse(std::string_view Source, std::string *Error = nullptr);

  const ConstraintSystem &system() const { return *CS; }
  const MonoidDomain &domain() const { return *Dom; }
  const std::vector<Query> &queries() const { return Queries; }

  std::optional<VarId> varByName(std::string_view Name) const;
  std::optional<ConsId> consByName(std::string_view Name) const;

  /// Parses and applies additional statements (declarations,
  /// constraints, queries — everything but a 'language' block) against
  /// this already-parsed program, so a resident system can grow online
  /// (the solver's online contract picks appended constraints up on
  /// its next solve()). Statements are applied in order; on a Diag the
  /// statements *before* the offending one stand, and \p AppliedBytes
  /// (when non-null) receives the length of the source prefix that was
  /// fully applied — callers that persist the program text append
  /// exactly that prefix so the durable text never diverges from the
  /// in-memory system.
  std::optional<Diag> addStatements(std::string_view Source,
                                    size_t *AppliedBytes = nullptr);

  /// Solves (bidirectional) and evaluates every query.
  /// \returns the answers in declaration order, plus the solver via
  /// out-parameter for callers that want more (may be null).
  std::vector<Answer> solveAndAnswer(SolverOptions Options = {},
                                     SolverStats *StatsOut = nullptr);

  /// Evaluates every query against \p Solver, which must have been
  /// constructed over system() and solved to completion. Lets callers
  /// drive budgeted / resumable solves themselves (see README).
  std::vector<Answer> answer(BidirectionalSolver &Solver) const;

private:
  ConstraintProgram() = default;

  std::unique_ptr<const MonoidDomain> Dom;
  std::unique_ptr<ConstraintSystem> CS;
  std::vector<std::pair<std::string, VarId>> Vars;
  std::vector<std::pair<std::string, ConsId>> Constructors;
  std::vector<Query> Queries;

  friend class ConstraintFileParser;
};

} // namespace rasc

#endif // RASC_FRONTEND_CONSTRAINTPARSER_H
