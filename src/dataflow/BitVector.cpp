//===- dataflow/BitVector.cpp - Interprocedural bit-vector dataflow -*- C++ -*//
//
// Part of the RASC project: regularly annotated set constraints.
//
//===----------------------------------------------------------------------===//

#include "dataflow/BitVector.h"

#include "support/Trace.h"

#include <deque>

using namespace rasc;

//===----------------------------------------------------------------------===//
// AnnotatedBitVectorAnalysis
//===----------------------------------------------------------------------===//

AnnotatedBitVectorAnalysis::AnnotatedBitVectorAnalysis(
    const BitVectorProblem &Problem)
    : Problem(Problem) {
  Dom = std::make_unique<GenKillDomain>(Problem.numBits());
  CS = std::make_unique<ConstraintSystem>(*Dom);
}

void AnnotatedBitVectorAnalysis::prepare(SolverOptions Opts) {
  RASC_TRACE_SCOPE("dataflow.prepare");
  if (Solver)
    return;
  // A statement that neither gens nor kills is an identity statement;
  // every other non-call carries its transfer function.
  const Program &Prog = Problem.program();
  std::vector<AnnId> Anns(Prog.numStatements(), IdentityStmt);
  for (StmtId S = 0; S != Prog.numStatements(); ++S)
    if (Prog.stmt(S).Kind != Stmt::Call &&
        (Problem.gens(S) != 0 || Problem.kills(S) != 0))
      Anns[S] = Dom->transfer(Problem.gens(S), Problem.kills(S));
  Enc = encodeProgram(Prog, *CS, Anns, "dataflow");
  Solver = std::make_unique<BidirectionalSolver>(*CS, Opts);
}

void AnnotatedBitVectorAnalysis::finalize() {
  RASC_TRACE_SCOPE("dataflow.finalize");
  assert(Solver && "finalize() requires prepare()");
  Reach = Solver->atomReachability(Enc.Pc);
}

void AnnotatedBitVectorAnalysis::solve() {
  RASC_TRACE_SCOPE("dataflow.solve");
  prepare();
  Solver->solve();
  finalize();
}

bool AnnotatedBitVectorAnalysis::mayHold(StmtId S, unsigned Bit) const {
  for (AnnId F : Reach.annotations(Enc.StmtVars[S]))
    if ((Dom->apply(F, 0) >> Bit) & 1)
      return true;
  return false;
}

bool AnnotatedBitVectorAnalysis::mustHold(StmtId S, unsigned Bit) const {
  std::span<const AnnId> Classes = Reach.annotations(Enc.StmtVars[S]);
  if (Classes.empty())
    return false;
  for (AnnId F : Classes)
    if (!((Dom->apply(F, 0) >> Bit) & 1))
      return false;
  return true;
}

size_t AnnotatedBitVectorAnalysis::numReachingClasses(StmtId S) const {
  return Reach.annotations(Enc.StmtVars[S]).size();
}

//===----------------------------------------------------------------------===//
// IterativeBitVectorAnalysis
//===----------------------------------------------------------------------===//

namespace {

/// A gen/kill transfer pair in normal form (Gen and Kill disjoint).
struct Transfer {
  uint64_t Gen = 0;
  uint64_t Kill = 0;

  friend bool operator==(const Transfer &A, const Transfer &B) {
    return A.Gen == B.Gen && A.Kill == B.Kill;
  }
};

uint64_t applyT(Transfer T, uint64_t X) { return (X & ~T.Kill) | T.Gen; }

/// Sequential composition: \p First then \p Then.
Transfer composeT(Transfer First, Transfer Then) {
  uint64_t Gen = Then.Gen | (First.Gen & ~Then.Kill);
  uint64_t Kill = (First.Kill | Then.Kill) & ~Gen;
  return {Gen, Kill};
}

/// Path merge for may-analysis (union of outputs).
Transfer mergeMay(Transfer A, Transfer B) {
  uint64_t Gen = A.Gen | B.Gen;
  return {Gen, (A.Kill & B.Kill) & ~Gen};
}

/// Path merge for must-analysis (intersection of outputs); relies on
/// the disjoint normal form.
Transfer mergeMust(Transfer A, Transfer B) {
  uint64_t Gen = A.Gen & B.Gen;
  return {Gen, (A.Kill | B.Kill) & ~Gen};
}

constexpr uint64_t AllBits = ~uint64_t(0);

/// Merge identities ("no path yet").
const Transfer MayBottom{0, AllBits};
const Transfer MustTop{AllBits, 0};

} // namespace

IterativeBitVectorAnalysis::IterativeBitVectorAnalysis(
    const BitVectorProblem &Problem)
    : Problem(Problem) {}

void IterativeBitVectorAnalysis::solve() {
  const Program &Prog = Problem.program();
  uint32_t NumStmts = Prog.numStatements();
  uint32_t NumFuncs = Prog.numFunctions();

  // Per-function summaries (entry-to-exit), iterated to a fixpoint
  // over the call graph; T*[S] are entry-to-S path transfers.
  std::vector<Transfer> SumMay(NumFuncs, MayBottom);
  std::vector<Transfer> SumMust(NumFuncs, MustTop);
  std::vector<Transfer> TMay(NumStmts, MayBottom);
  std::vector<Transfer> TMust(NumStmts, MustTop);
  std::vector<bool> IntraReach(NumStmts, false);
  // A call to a function that cannot reach its exit blocks the path;
  // Returns[] is part of the summary fixpoint (least, so recursive
  // functions that never bottom out correctly stay "non-returning").
  std::vector<bool> Returns(NumFuncs, false);

  auto stmtTransfer = [&](StmtId S, bool May) -> Transfer {
    const Stmt &St = Prog.stmt(S);
    if (St.Kind == Stmt::Call)
      return May ? SumMay[St.Callee] : SumMust[St.Callee];
    return {Problem.gens(S), Problem.kills(S)};
  };

  bool SummariesChanged = true;
  while (SummariesChanged) {
    SummariesChanged = false;
    ++Iterations;
    for (FuncId F = 0; F != NumFuncs; ++F) {
      // Intraprocedural fixpoint for this function, recomputed from
      // scratch against the current callee summaries.
      for (StmtId S = 0; S != NumStmts; ++S)
        if (Prog.stmt(S).Parent == F) {
          TMay[S] = MayBottom;
          TMust[S] = MustTop;
          IntraReach[S] = false;
        }
      std::deque<StmtId> Work{Prog.entry(F)};
      TMay[Prog.entry(F)] = Transfer{};
      TMust[Prog.entry(F)] = Transfer{};
      IntraReach[Prog.entry(F)] = true;
      while (!Work.empty()) {
        StmtId S = Work.front();
        Work.pop_front();
        const Stmt &St = Prog.stmt(S);
        if (St.Kind == Stmt::Call && !Returns[St.Callee])
          continue; // the callee never returns; path blocked here
        Transfer OutMay = composeT(TMay[S], stmtTransfer(S, true));
        Transfer OutMust = composeT(TMust[S], stmtTransfer(S, false));
        for (StmtId Succ : Prog.succs(S)) {
          Transfer NewMay =
              IntraReach[Succ] ? mergeMay(TMay[Succ], OutMay) : OutMay;
          Transfer NewMust =
              IntraReach[Succ] ? mergeMust(TMust[Succ], OutMust) : OutMust;
          if (!IntraReach[Succ] || !(NewMay == TMay[Succ]) ||
              !(NewMust == TMust[Succ])) {
            IntraReach[Succ] = true;
            TMay[Succ] = NewMay;
            TMust[Succ] = NewMust;
            Work.push_back(Succ);
          }
        }
      }
      StmtId Exit = Prog.exit(F);
      Transfer NewSumMay = IntraReach[Exit] ? TMay[Exit] : MayBottom;
      Transfer NewSumMust = IntraReach[Exit] ? TMust[Exit] : MustTop;
      if (!(NewSumMay == SumMay[F]) || !(NewSumMust == SumMust[F]) ||
          Returns[F] != IntraReach[Exit]) {
        SumMay[F] = NewSumMay;
        SumMust[F] = NewSumMust;
        Returns[F] = IntraReach[Exit];
        SummariesChanged = true;
      }
    }
  }

  // Entry-value propagation over the call graph.
  std::vector<uint64_t> EntryMay(NumFuncs, 0);
  std::vector<uint64_t> EntryMust(NumFuncs, AllBits);
  std::vector<bool> FuncReach(NumFuncs, false);
  FuncReach[Prog.mainFunction()] = true;
  EntryMust[Prog.mainFunction()] = 0; // no facts hold initially

  bool EntriesChanged = true;
  while (EntriesChanged) {
    EntriesChanged = false;
    ++Iterations;
    for (FuncId F = 0; F != NumFuncs; ++F) {
      if (!FuncReach[F])
        continue;
      for (StmtId S = 0; S != NumStmts; ++S) {
        const Stmt &St = Prog.stmt(S);
        if (St.Parent != F || St.Kind != Stmt::Call || !IntraReach[S])
          continue;
        uint64_t CtxMay = applyT(TMay[S], EntryMay[F]);
        uint64_t CtxMust = applyT(TMust[S], EntryMust[F]);
        FuncId G = St.Callee;
        uint64_t NewMay = EntryMay[G] | CtxMay;
        uint64_t NewMust = FuncReach[G] ? (EntryMust[G] & CtxMust) : CtxMust;
        if (!FuncReach[G] || NewMay != EntryMay[G] ||
            NewMust != EntryMust[G]) {
          FuncReach[G] = true;
          EntryMay[G] = NewMay;
          EntryMust[G] = NewMust;
          EntriesChanged = true;
        }
      }
    }
  }

  MayIn.assign(NumStmts, 0);
  MustIn.assign(NumStmts, 0);
  Reachable.assign(NumStmts, false);
  for (StmtId S = 0; S != NumStmts; ++S) {
    FuncId F = Prog.stmt(S).Parent;
    if (!FuncReach[F] || !IntraReach[S])
      continue;
    Reachable[S] = true;
    MayIn[S] = applyT(TMay[S], EntryMay[F]);
    MustIn[S] = applyT(TMust[S], EntryMust[F]);
  }
  if (unsigned Bits = Problem.numBits(); Bits < 64) {
    uint64_t Mask = (uint64_t(1) << Bits) - 1;
    for (StmtId S = 0; S != NumStmts; ++S) {
      MayIn[S] &= Mask;
      MustIn[S] &= Mask;
    }
  }
}
