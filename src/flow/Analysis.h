//===- flow/Analysis.h - Type-based flow analysis ---------------*- C++ -*-===//
//
// Part of the RASC project: regularly annotated set constraints.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The two label-flow analyses of paper Section 7, both context
/// sensitive and field sensitive, built on regularly annotated set
/// constraints:
///
///   * Primal (Sections 7.2-7.4): function call/return matching is
///     modelled *precisely* with terms (o_i constructors and
///     projections, polymorphic recursion via [15]); type
///     constructor/destructor matching is reduced to a *regular*
///     language of bracket annotations [i_tau / ]i_tau whose automaton
///     (Figure 10) is generated from the program's types, bounded by
///     the largest type.
///
///   * Dual (Section 7.6): the roles swap. Pairs are modelled
///     precisely with a binary "pair" constructor and projections;
///     call/return paths become bracket annotations [i / ]i per call
///     site, with call sites inside call-graph cycles approximated by
///     the empty annotation (monomorphic recursion).
///
/// Both analyses answer flow queries between expression labels. On
/// recursion-free programs they compute the same matched-flow relation
/// (differentially tested); with recursion each is precise on its own
/// context-free dimension.
///
//===----------------------------------------------------------------------===//

#ifndef RASC_FLOW_ANALYSIS_H
#define RASC_FLOW_ANALYSIS_H

#include "core/Domains.h"
#include "core/Solver.h"
#include "flow/Lang.h"

#include <memory>
#include <optional>

namespace rasc {

/// Which analysis formulation to run.
enum class FlowMode {
  Primal, ///< terms for calls, annotations for pairs (Section 7.2)
  Dual,   ///< pair constructors, annotations for calls (Section 7.6)
};

/// Builds the Figure 10 pair-matching automaton for a set of pair
/// types: states are descent chains into the program's types, symbols
/// are "[i_tau" / "]i_tau" per (component index, component type),
/// acceptance at the empty chain (a fully cancelled bracket string).
/// When \p BracketSyms is given it receives each bracket's symbol by
/// key: the symbol of "[i_tau" (open) or "]i_tau" is at index
/// (2 * i + (open ? 0 : 1)) * P.numTypes() + tau, and InvalidSymbol
/// marks a (component index, component type) no pair type has.
Dfa buildPairAutomaton(const FlowProgram &P,
                       std::vector<SymbolId> *BracketSyms = nullptr);

/// Builds the call-string automaton for the dual analysis: symbols
/// "[i" / "]i" per non-recursive call site, states are acyclic call
/// chains; call sites within call-graph SCCs are excluded (they get
/// the empty annotation). When \p CallSyms is given it receives each
/// call site's symbols: "[i" at index 2 * i and "]i" at 2 * i + 1,
/// InvalidSymbol for a site inside a call-graph cycle.
Dfa buildCallAutomaton(const FlowProgram &P,
                       std::vector<SymbolId> *CallSyms = nullptr);

/// One run of either analysis over a program.
class FlowAnalysis {
public:
  FlowAnalysis(const FlowProgram &P, FlowMode Mode);

  /// Matched flow (Section 7.3): does the value of expression \p From
  /// flow to the *top level* of expression \p To along a path whose
  /// call/returns and constructor/destructor uses all cancel? The
  /// first query that names \p From seeds its source constant, and the
  /// solve picks it up incrementally.
  bool flows(FExprId From, FExprId To);

  /// PN flow: also counts values that sit under unreturned calls
  /// (primal) — e.g. a caller's argument observed inside the callee.
  /// Only meaningful for the primal analysis. Seeds like flows(); the
  /// reachability of the last source asked about is kept, so asking
  /// many targets of one source costs one reachability pass.
  bool flowsPN(FExprId From, FExprId To);

  /// Does expression \p E have a label? Only expressions reached from
  /// some function body do; a node a programmatic builder orphaned
  /// (never reached from a body) has none.
  bool hasLabel(FExprId E) const;

  /// The label variable of an expression's top-level type; asserts
  /// hasLabel(E).
  VarId labelOf(FExprId E) const;

  /// The top-level label of a function's parameter.
  VarId paramLabel(FFuncId F) const { return ParamLabels[F]; }

  /// Stack-aware alias query (Section 7.5): do the least solutions of
  /// the two labels share a term? Only meaningful for analyses whose
  /// solutions are term sets (the dual analysis and primal call
  /// terms). Seeds a source at every labelled literal first.
  bool mayAlias(VarId A, VarId B);

  const ConstraintSystem &system() const { return *CS; }
  /// The solver, solved (or an interrupted solve resumed) on the
  /// caller first.
  const BidirectionalSolver &solver();
  const MonoidDomain &domain() const { return *Dom; }

  /// Splits the lazy solve for batch use: constructs the solver with
  /// \p Opts without running it and \returns it, for the caller to
  /// solve (e.g. on a BatchSolver). Queries afterwards behave exactly
  /// as after an eager solve; an interrupted solve resumes on the next
  /// query. Idempotent; options only take effect on the first call
  /// (before the solver exists).
  BidirectionalSolver *prepare(SolverOptions Opts = SolverOptions());

private:
  /// A labeled type: the type and the set variable of its top level.
  struct LType {
    TypeId Ty;
    VarId L;
  };

  LType spread(TypeId T);
  LType inferPrimal(FFuncId F, const LType &ParamLT, FExprId E);
  LType inferDual(FFuncId F, const LType &ParamLT, FExprId E);
  void remember(FFuncId F, FExprId E, const LType &LT);
  AnnId bracketAnn(bool Open, uint32_t Index, TypeId CompTy) const;
  AnnId callAnn(bool Open, uint32_t CallSite) const;
  ConsId sourceConstant(FExprId From);
  void ensureSolved();

  const FlowProgram &P;
  FlowMode Mode;
  std::unique_ptr<const MonoidDomain> Dom;
  std::unique_ptr<ConstraintSystem> CS;
  std::unique_ptr<BidirectionalSolver> Solver;

  std::vector<SymbolId> BracketSyms; // primal: see buildPairAutomaton
  std::vector<SymbolId> CallSyms;    // dual: see buildCallAutomaton
  std::vector<VarId> ParamLabels, RetLabels;
  /// Per expression: its label, InvalidVar if it has none.
  std::vector<VarId> ExprLabel;
  /// Per-function memo of inferred expression nodes: programmatic
  /// builders (the eBPF front-end in particular) share subexpression
  /// DAGs, and each shared node must get exactly one label so that
  /// labelOf/flows queries see every constraint generated for it. An
  /// entry is valid only while InferStamp names the function being
  /// inferred — a Var node's meaning depends on the enclosing
  /// function's parameter labeling.
  std::vector<LType> InferCache;
  std::vector<FFuncId> InferStamp;
  static constexpr ConsId NoCons = ~ConsId(0);
  /// Per expression: its source constant, NoCons until a query seeds
  /// it. The least solution is monotone in the constraints and an
  /// arity-0 source feeds no projection, so a source seeded late
  /// changes no answer about the others.
  std::vector<ConsId> SourceCons;
  /// flowsPN's reachability of source PnSource, computed after the
  /// solver's PnSolves-th solve; any later solve (seeding a source
  /// re-solves) makes it stale.
  std::optional<AtomReachability> PnReach;
  ConsId PnSource = NoCons;
  uint64_t PnSolves = 0;
  std::vector<ConsId> CallCons; // primal: o_i per call site
  ConsId PairCons = 0;          // dual
};

} // namespace rasc

#endif // RASC_FLOW_ANALYSIS_H
