//===- tests/EncodeReference.h - Section 6.1 encoder reference -*- C++ -*-===//
//
// Part of the RASC project: regularly annotated set constraints.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A reference for encodeProgram: the encoder as it was before it
/// became one pass over the CSR successor arrays. It builds the
/// predecessor lists in their own vectors, computes the statement
/// classes with a UnionFind and a worklist that starts with every
/// statement and revisits the members of the smaller class and their
/// successors after each merge, and emits the constraints with the
/// system's ordinary builders.
///
/// diffEncodings() runs both encoders on fresh systems over one domain
/// and reports the first difference: the statement variables (hence
/// the partition), the constructor table, every expression record, or
/// the constraint list, order included. The encoding tests hold the
/// two to the same bytes on packages, generated programs, the eBPF
/// corpus and the hand-built shapes.
///
//===----------------------------------------------------------------------===//

#ifndef RASC_TESTS_ENCODEREFERENCE_H
#define RASC_TESTS_ENCODEREFERENCE_H

#include "pdmc/Program.h"
#include "support/UnionFind.h"

#include <numeric>
#include <string>
#include <vector>

namespace rasc {
namespace testgen {

inline ProgramEncoding referenceEncodeProgram(const Program &Prog,
                                              ConstraintSystem &CS,
                                              std::span<const AnnId> StmtAnns) {
  const StmtId N = Prog.numStatements();
  std::vector<uint32_t> PredBegin(N + 1, 0);
  std::vector<uint8_t> Joinable(N, 1);
  for (FuncId F = 0; F != Prog.numFunctions(); ++F)
    Joinable[Prog.entry(F)] = 0;
  for (StmtId S = 0; S != N; ++S) {
    bool Identity =
        Prog.stmt(S).Kind != Stmt::Call && StmtAnns[S] == IdentityStmt;
    for (StmtId Succ : Prog.succs(S)) {
      ++PredBegin[Succ + 1];
      Joinable[Succ] &= Identity;
    }
  }
  std::partial_sum(PredBegin.begin(), PredBegin.end(), PredBegin.begin());
  std::vector<StmtId> Preds(PredBegin[N]);
  std::vector<uint32_t> Fill(PredBegin.begin(), PredBegin.end() - 1);
  for (StmtId S = 0; S != N; ++S)
    for (StmtId Succ : Prog.succs(S))
      Preds[Fill[Succ]++] = S;

  UnionFind Classes;
  Classes.grow(N);
  std::vector<StmtId> Next(N), Size(N, 1);
  std::iota(Next.begin(), Next.end(), StmtId(0));
  std::vector<StmtId> Work(N);
  std::iota(Work.rbegin(), Work.rend(), StmtId(0));
  while (!Work.empty()) {
    StmtId T = Work.back();
    Work.pop_back();
    if (!Joinable[T])
      continue;
    uint32_t Own = Classes.find(T), Into = Own;
    for (uint32_t I = PredBegin[T]; I != PredBegin[T + 1]; ++I) {
      uint32_t C = Classes.find(Preds[I]);
      if (C == Own || C == Into)
        continue;
      if (Into != Own) {
        Into = Own;
        break;
      }
      Into = C;
    }
    if (Into == Own)
      continue;
    StmtId Small = Size[Own] < Size[Into] ? Own : Into;
    for (StmtId M = Small;;) {
      Work.push_back(M);
      for (StmtId Succ : Prog.succs(M))
        Work.push_back(Succ);
      if ((M = Next[M]) == Small)
        break;
    }
    std::swap(Next[Own], Next[Into]);
    uint32_t Root = Classes.merge(Own, Into);
    Size[Root] = Size[Own] + Size[Into];
  }

  ProgramEncoding Enc;
  std::vector<VarId> &Vars = Enc.StmtVars;
  Vars.assign(N, 0);
  std::vector<VarId> ClassVar(N, InvalidVar);
  for (StmtId S = 0; S != N; ++S) {
    VarId &V = ClassVar[Classes.find(S)];
    if (V == InvalidVar)
      V = CS.numberedVar("S", S);
    Vars[S] = V;
  }

  // Each right-hand side is built before its left-hand side, the order
  // in which the compiler evaluated the arguments of the one-line
  // CS.add(lhs, rhs) calls this reference was written with.
  Enc.Pc = CS.addConstant("pc");
  ExprId Main = CS.var(Vars[Prog.entry(Prog.mainFunction())]);
  CS.add(CS.cons(Enc.Pc), Main);
  for (StmtId S = 0; S != N; ++S) {
    const Stmt &St = Prog.stmt(S);
    if (St.Kind == Stmt::Call) {
      ConsId O = CS.addNumberedConstructor("o@", S, 1);
      if (O >= Enc.ConsToCall.size())
        Enc.ConsToCall.resize(O + 1, ProgramEncoding::NoCall);
      Enc.ConsToCall[O] = S;
      ExprId Entry = CS.var(Vars[Prog.entry(St.Callee)]);
      CS.add(CS.cons(O, {Vars[S]}), Entry);
      for (StmtId Succ : Prog.succs(S)) {
        ExprId Ret = CS.var(Vars[Succ]);
        CS.add(CS.proj(O, 0, Vars[Prog.exit(St.Callee)]), Ret);
      }
      continue;
    }
    bool Identity = StmtAnns[S] == IdentityStmt;
    AnnId Ann = Identity ? CS.domain().identity() : StmtAnns[S];
    for (StmtId Succ : Prog.succs(S))
      if (!Identity || Vars[S] != Vars[Succ]) {
        ExprId Rhs = CS.var(Vars[Succ]);
        CS.add(CS.var(Vars[S]), Rhs, Ann);
      }
  }
  return Enc;
}

/// Runs encodeProgram and the reference on fresh systems over \p D;
/// \returns "" if they agree on every variable, constructor,
/// expression and constraint, else the first difference.
inline std::string diffEncodings(const Program &Prog,
                                 const AnnotationDomain &D,
                                 std::span<const AnnId> StmtAnns) {
  ConstraintSystem Got(D), Want(D);
  ProgramEncoding G = encodeProgram(Prog, Got, StmtAnns, "test");
  ProgramEncoding W = referenceEncodeProgram(Prog, Want, StmtAnns);
  if (G.StmtVars != W.StmtVars)
    return "statement variables differ";
  if (G.Pc != W.Pc || G.ConsToCall != W.ConsToCall)
    return "pc or the call constructors differ";
  if (Got.numVars() != Want.numVars())
    return "variable counts differ";
  for (VarId V = 0; V != Got.numVars(); ++V)
    if (Got.varName(V) != Want.varName(V))
      return "variable " + std::to_string(V) + " is named " +
             Got.varName(V) + ", not " + Want.varName(V);
  if (Got.numConstructors() != Want.numConstructors())
    return "constructor counts differ";
  for (ConsId C = 0; C != Got.numConstructors(); ++C)
    if (Got.constructorName(C) != Want.constructorName(C) ||
        Got.constructor(C).Arity != Want.constructor(C).Arity)
      return "constructor " + std::to_string(C) + " differs";
  if (Got.numExprs() != Want.numExprs())
    return "expression counts differ";
  for (ExprId E = 0; E != Got.numExprs(); ++E) {
    const Expr &A = Got.expr(E), &B = Want.expr(E);
    if (A.Kind != B.Kind || A.C != B.C || A.Index != B.Index || A.V != B.V ||
        A.Alpha != B.Alpha || A.NumArgs != B.NumArgs ||
        !std::equal(Got.args(A).begin(), Got.args(A).end(),
                    Want.args(B).begin()))
      return "expression " + std::to_string(E) + " is " +
             Got.exprToString(E) + ", not " + Want.exprToString(E);
  }
  const std::vector<Constraint> &GC = Got.constraints(),
                                &WC = Want.constraints();
  for (size_t I = 0; I != std::max(GC.size(), WC.size()); ++I) {
    if (I == GC.size() || I == WC.size())
      return "constraint counts differ: " + std::to_string(GC.size()) +
             " vs " + std::to_string(WC.size());
    if (GC[I].Lhs != WC[I].Lhs || GC[I].Rhs != WC[I].Rhs ||
        GC[I].Ann != WC[I].Ann)
      return "constraint " + std::to_string(I) + " is " +
             Got.exprToString(GC[I].Lhs) + " <= " +
             Got.exprToString(GC[I].Rhs) + ", not " +
             Want.exprToString(WC[I].Lhs) + " <= " +
             Want.exprToString(WC[I].Rhs);
  }
  return "";
}

} // namespace testgen
} // namespace rasc

#endif // RASC_TESTS_ENCODEREFERENCE_H
