//===- dataflow/BitVector.h - Interprocedural bit-vector dataflow -*- C++ -*-//
//
// Part of the RASC project: regularly annotated set constraints.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Interprocedural bit-vector dataflow via regularly annotated set
/// constraints (paper Sections 3.3 and 6): the gen/kill language over
/// the alphabet {g_1..g_n, k_1..k_n} annotates CFG edges, and the set
/// of reaching transfer-function classes at a statement is exactly the
/// meet-over-valid-paths information. The constraints are the model
/// checker's Section 6.1 encoding (encodeProgram in pdmc/Program.h),
/// with a statement's transfer function as its edges' annotation. The
/// n-bit language's representative functions are the 3^n classical
/// transfer functions (id/gen/kill per bit), which GenKillDomain
/// represents directly as mask pairs; there is no need to build the
/// 2^n-state product DFA.
///
/// The baseline is a classical summary-based iterative interprocedural
/// solver (the functional approach specialized to distributive
/// gen/kill problems): per-function (MayGen, MustKill) summaries to a
/// fixpoint over the call graph, then a statement-level MFP
/// propagation. For distributive problems MFP equals the
/// meet-over-valid-paths solution, so the two implementations must
/// agree on may-queries (differentially tested).
///
//===----------------------------------------------------------------------===//

#ifndef RASC_DATAFLOW_BITVECTOR_H
#define RASC_DATAFLOW_BITVECTOR_H

#include "core/Domains.h"
#include "core/Solver.h"
#include "pdmc/Program.h"

#include <memory>
#include <unordered_map>
#include <vector>

namespace rasc {

/// A forward may/must bit-vector problem over a Program: each
/// statement may generate and kill facts (bits).
class BitVectorProblem {
public:
  BitVectorProblem(const Program &Prog, unsigned NumBits)
      : Prog(Prog), NumBits(NumBits), Gens(Prog.numStatements(), 0),
        Kills(Prog.numStatements(), 0) {
    assert(NumBits >= 1 && NumBits <= 64 && "1..64 facts supported");
  }

  const Program &program() const { return Prog; }
  unsigned numBits() const { return NumBits; }

  void setGen(StmtId S, unsigned Bit) { Gens[S] |= uint64_t(1) << Bit; }
  void setKill(StmtId S, unsigned Bit) { Kills[S] |= uint64_t(1) << Bit; }

  /// Whole-mask transfer setter (ORs into the existing masks) for
  /// front-ends that compute per-statement gen/kill sets as words —
  /// the eBPF lowering's register effects in particular.
  void addTransfer(StmtId S, uint64_t GenMask, uint64_t KillMask) {
    assert((NumBits == 64 || ((GenMask | KillMask) >> NumBits) == 0) &&
           "mask wider than the problem");
    Gens[S] |= GenMask;
    Kills[S] |= KillMask;
  }

  uint64_t gens(StmtId S) const { return Gens[S]; }
  /// Kills are applied before gens at the same statement (a statement
  /// that both kills and gens leaves the fact set).
  uint64_t kills(StmtId S) const { return Kills[S] & ~Gens[S]; }

private:
  const Program &Prog;
  unsigned NumBits;
  std::vector<uint64_t> Gens;
  std::vector<uint64_t> Kills;
};

/// The annotated-constraint solver for a BitVectorProblem.
class AnnotatedBitVectorAnalysis {
public:
  explicit AnnotatedBitVectorAnalysis(const BitVectorProblem &Problem);

  /// Runs constraint generation and resolution.
  void solve();

  /// Splits solve() for batch use: generates the constraints and
  /// constructs the solver without running it; batch callers hand
  /// solver() to BatchSolver::solveAll and then call finalize().
  /// Idempotent.
  void prepare(SolverOptions Opts = SolverOptions());

  /// The prepared solver (null before prepare()). Exposed for
  /// governance: callers may set budgets before solve().
  BidirectionalSolver *solver() { return Solver.get(); }

  /// The query half of solve(): reads the reaching classes off the
  /// solved constraint graph. Requires prepare() and a solve.
  void finalize();

  /// May-analysis: can fact \p Bit hold on entry to \p S on some valid
  /// interprocedural path from main's entry (all facts initially
  /// false)?
  bool mayHold(StmtId S, unsigned Bit) const;

  /// Must-analysis: does fact \p Bit hold on entry to \p S on *every*
  /// valid path reaching it? (False when S is unreachable.)
  bool mustHold(StmtId S, unsigned Bit) const;

  /// The distinct path transfer-function classes reaching \p S; the
  /// size is bounded by 3^n regardless of path count (Section 4's
  /// order-independence argument).
  size_t numReachingClasses(StmtId S) const;

  const SolverStats &solverStats() const { return Solver->stats(); }

  /// The generated constraint system (populated by prepare()); exposed
  /// so tests can re-solve the same system under different budgets.
  const ConstraintSystem &system() const { return *CS; }

  /// The constraint variable of a statement (for tests); statements
  /// may share one (encodeProgram in pdmc/Program.h). Valid after
  /// prepare().
  VarId stmtVar(StmtId S) const { return Enc.StmtVars[S]; }

private:
  const BitVectorProblem &Problem;
  std::unique_ptr<GenKillDomain> Dom;
  std::unique_ptr<ConstraintSystem> CS;
  std::unique_ptr<BidirectionalSolver> Solver;
  ProgramEncoding Enc;
  // The pc atom's reachability, kept whole by finalize(): the reaching
  // classes of statement S are Reach.annotations(Enc.StmtVars[S]).
  AtomReachability Reach;
};

/// Classical summary-based iterative baseline.
class IterativeBitVectorAnalysis {
public:
  explicit IterativeBitVectorAnalysis(const BitVectorProblem &Problem);

  void solve();

  bool mayHold(StmtId S, unsigned Bit) const {
    return (MayIn[S] >> Bit) & 1;
  }
  bool mustHold(StmtId S, unsigned Bit) const {
    return Reachable[S] && ((MustIn[S] >> Bit) & 1);
  }

  size_t iterations() const { return Iterations; }

private:
  const BitVectorProblem &Problem;
  std::vector<uint64_t> MayIn, MustIn;
  std::vector<bool> Reachable;
  size_t Iterations = 0;
};

} // namespace rasc

#endif // RASC_DATAFLOW_BITVECTOR_H
