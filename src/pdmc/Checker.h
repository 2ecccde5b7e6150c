//===- pdmc/Checker.h - Temporal safety checking ----------------*- C++ -*-===//
//
// Part of the RASC project: regularly annotated set constraints.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Two pushdown model checkers for temporal safety properties over
/// Program CFGs:
///
///   * RascChecker — the paper's approach (Section 6): a constraint
///     variable per statement, constraints S ⊆^op Si for relevant
///     statements, o_i(S) ⊆ F_entry / o_i^-1(F_exit) ⊆ Si for calls,
///     pc ⊆ S_main (encodeProgram in pdmc/Program.h, which shares a
///     variable among statements exactly where that keeps every least
///     solution). Violations are PN-reachability queries for pc with
///     an annotation leading to an accepting (error) state, and the
///     witness stack is the term's
///     constructor spine (the runtime stack). Parametric properties
///     (Section 6.4) use substitution environments transparently.
///
///   * MopsChecker — the baseline the paper compares against in
///     Table 1: the direct MOPS-style encoding of the program as a
///     pushdown system (stack = return addresses) with the property
///     automaton as control, checked via post* saturation. Parametric
///     properties are handled the way MOPS instantiates pattern
///     variables: one run per instantiation found in the program.
///
/// Both checkers report the same violations (differentially tested).
///
//===----------------------------------------------------------------------===//

#ifndef RASC_PDMC_CHECKER_H
#define RASC_PDMC_CHECKER_H

#include "core/Domains.h"
#include "core/Solver.h"
#include "core/SubstEnv.h"
#include "pdmc/Program.h"
#include "pds/Pds.h"
#include "spec/SpecParser.h"

#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace rasc {

/// One property violation: the program point where the automaton can
/// be driven into an accepting (error) state.
struct Violation {
  StmtId Where;
  /// Parameter bindings of the violating instantiation (empty for
  /// non-parametric properties), e.g. "x:fd1".
  std::string Instantiation;
  /// Unreturned call sites (outermost first) of one violating path.
  std::vector<StmtId> CallStack;
  /// Property-relevant events of one violating path, ending with this
  /// statement's own operation (a word of L(M), reconstructed from the
  /// representative function's sample word). Bidirectional
  /// non-parametric checking only; empty otherwise, and when the
  /// sample-word search passes the monoid's element cap.
  std::vector<std::string> EventTrace;

  friend bool operator<(const Violation &A, const Violation &B) {
    return A.Where != B.Where ? A.Where < B.Where
                              : A.Instantiation < B.Instantiation;
  }
  friend bool operator==(const Violation &A, const Violation &B) {
    return A.Where == B.Where && A.Instantiation == B.Instantiation;
  }
};

/// Statistics shared by both checkers (for Table 1).
struct CheckStats {
  double Seconds = 0;
  size_t Constraints = 0; ///< RASC: constraints; MOPS: PDS rules.
  size_t Derived = 0;     ///< RASC: edges; MOPS: automaton transitions.
};

/// Which resolution strategy the RascChecker uses (paper Section 5).
enum class SolveStrategy {
  /// The paper's implementation: bidirectional closure over F_M^≡.
  Bidirectional,
  /// Forward (post*) solving over the coarser right congruence
  /// (|S| classes); asymptotically cheaper, whole-program only.
  Forward,
};

/// The annotated-set-constraint checker (the paper's system).
class RascChecker {
public:
  /// \p Spec is the temporal safety property; violations are entries
  /// into its accepting states. Parametric properties require the
  /// bidirectional strategy (asserted).
  RascChecker(const Program &Prog, const SpecAutomaton &Spec,
              SolveStrategy Strategy = SolveStrategy::Bidirectional);

  /// Runs constraint generation + resolution + queries.
  /// Violations are sorted and deduplicated by (statement,
  /// instantiation).
  std::vector<Violation> check();

  /// Splits check() for batch solving: generates the constraint
  /// system and constructs the bidirectional solver without solving.
  /// Idempotent. The Forward strategy has no separate solver object;
  /// prepare() only generates.
  void prepare();

  /// The prepared solver (null before prepare(), and always for the
  /// Forward strategy). Batch callers hand these to
  /// BatchSolver::solveAll; queries then run through
  /// collectViolations().
  BidirectionalSolver *solver() { return Solver.get(); }

  /// The query half of check(): reads violations off the solved (or
  /// interrupted — then incomplete but sound) solver. Requires
  /// prepare() and a solve() on the bidirectional strategy.
  std::vector<Violation> collectViolations();

  /// Overrides the bidirectional solver's options (e.g. MaxEdges for
  /// benchmarks that want blow-ups reported instead of endured).
  void setSolverOptions(SolverOptions O) { SolverOpts = O; }

  /// Reports whether the last check()'s solve was interrupted by any
  /// resource budget (edge cap, step budget, deadline, memory,
  /// cancellation); the reported violations are then incomplete
  /// (sound so far, but more may exist).
  bool hitEdgeLimit() const { return EdgeLimit; }

  const CheckStats &stats() const { return Stats; }

  /// The constraint variable of a statement (for tests). Statements
  /// may share a variable; each has exactly the least solution of the
  /// literal one-variable-per-statement encoding. Valid after
  /// prepare().
  VarId stmtVar(StmtId S) const { return Enc.StmtVars[S]; }
  const ConstraintSystem &system() const { return *CS; }

private:
  bool isRelevant(const Stmt &St) const;
  AnnId opAnn(StmtId S) const;
  void generate();
  std::vector<Violation> checkForward();

  const Program &Prog;
  const SpecAutomaton &Spec;
  SolveStrategy Strategy;
  bool Parametric;
  std::unique_ptr<const MonoidDomain> Base;
  std::unique_ptr<SubstEnvDomain> EnvDom;
  std::unique_ptr<ConstraintSystem> CS;
  /// Per program symbol: the spec's symbol, or InvalidSymbol.
  std::vector<SymbolId> SpecSym;
  ProgramEncoding Enc;
  std::unique_ptr<BidirectionalSolver> Solver;
  SolverOptions SolverOpts;
  bool EdgeLimit = false;
  CheckStats Stats;
};

/// The MOPS-style pushdown model checker baseline.
class MopsChecker {
public:
  MopsChecker(const Program &Prog, const SpecAutomaton &Spec);

  std::vector<Violation> check();

  const CheckStats &stats() const { return Stats; }

private:
  /// Checks one (possibly specialized) instantiation; \p Bindings maps
  /// parametric symbols to the label tuple this run tracks.
  void checkInstance(const std::vector<std::string> &Labels,
                     std::vector<Violation> &Out);

  const Program &Prog;
  const SpecAutomaton &Spec;
  /// Per program symbol: the spec's symbol, or InvalidSymbol.
  std::vector<SymbolId> SpecSym;
  CheckStats Stats;
};

} // namespace rasc

#endif // RASC_PDMC_CHECKER_H
