//===- pdmc/Program.cpp - CFG program representation ------------*- C++ -*-===//
//
// Part of the RASC project: regularly annotated set constraints.
//
//===----------------------------------------------------------------------===//

#include "pdmc/Program.h"

#include "core/Observe.h"
#include "support/UnionFind.h"

#include <numeric>
#include <sstream>

using namespace rasc;

FuncId Program::addFunction(std::string Name) {
  FuncId F = static_cast<FuncId>(Funcs.size());
  Funcs.push_back({std::move(Name), 0, 0});
  Funcs[F].Entry = addNop(F, SourceTag{SourceTag::Entry});
  Funcs[F].Exit = addNop(F, SourceTag{SourceTag::Exit});
  return F;
}

OpSymId Program::internSymbol(std::string_view Name) {
  for (OpSymId I = 0, E = numSymbols(); I != E; ++I)
    if (Symbols[I] == Name)
      return I;
  Symbols.emplace_back(Name);
  return numSymbols() - 1;
}

SourceTag Program::textTag(std::string_view Note) {
  if (Note.empty())
    return {};
  Notes.emplace_back(Note);
  return {SourceTag::Text, static_cast<uint32_t>(Notes.size() - 1)};
}

StmtId Program::addStmt(FuncId F, Stmt St) {
  assert(F < Funcs.size() && "function out of range");
  St.Parent = F;
  Stmts.push_back(std::move(St));
  return static_cast<StmtId>(Stmts.size() - 1);
}

StmtId Program::addNop(FuncId F, std::string_view Note) {
  return addNop(F, textTag(Note));
}

StmtId Program::addNop(FuncId F, SourceTag Tag) {
  Stmt St;
  St.Tag = Tag;
  return addStmt(F, std::move(St));
}

StmtId Program::addOp(FuncId F, std::string_view Symbol,
                      std::vector<std::string> Labels,
                      std::string_view Note) {
  StmtId S = addOp(F, internSymbol(Symbol), textTag(Note));
  Stmts[S].OpLabels = std::move(Labels);
  return S;
}

StmtId Program::addOp(FuncId F, OpSymId Sym, SourceTag Tag) {
  assert(Sym < Symbols.size() && "symbol out of range");
  Stmt St;
  St.Kind = Stmt::Op;
  St.OpSym = Sym;
  St.Tag = Tag;
  return addStmt(F, std::move(St));
}

StmtId Program::addCall(FuncId F, FuncId Callee, std::string_view Note) {
  assert(Callee < Funcs.size() && "callee out of range");
  Stmt St;
  St.Kind = Stmt::Call;
  St.Callee = Callee;
  St.Tag = textTag(Note);
  return addStmt(F, std::move(St));
}

void Program::finalize() {
  for (StmtId S = 0; S != Stmts.size(); ++S) {
    if (!Stmts[S].Succs.empty())
      continue;
    FuncId F = Stmts[S].Parent;
    if (S == Funcs[F].Exit)
      continue;
    Stmts[S].Succs.push_back(Funcs[F].Exit);
  }
}

std::string Program::note(StmtId S) const {
  const SourceTag &T = stmt(S).Tag;
  switch (T.Kind) {
  case SourceTag::None:
    return "";
  case SourceTag::Text:
    return Notes[T.Index];
  case SourceTag::Entry:
    return "entry";
  case SourceTag::Exit:
    return "exit";
  case SourceTag::Insn: {
    std::string N = "insn " + std::to_string(T.Index);
    if (InsnText)
      N += ": " + InsnText(T.Index);
    return N;
  }
  }
  return "";
}

std::string Program::describe(StmtId S) const {
  const Stmt &St = stmt(S);
  std::ostringstream OS;
  OS << funcName(St.Parent) << ":" << S << " ";
  switch (St.Kind) {
  case Stmt::Nop: {
    std::string Note = note(S);
    OS << (Note.empty() ? "nop" : Note);
    break;
  }
  case Stmt::Op:
    OS << symbolName(St.OpSym);
    if (!St.OpLabels.empty()) {
      OS << "(";
      for (size_t I = 0; I != St.OpLabels.size(); ++I) {
        if (I)
          OS << ", ";
        OS << St.OpLabels[I];
      }
      OS << ")";
    }
    break;
  case Stmt::Call:
    OS << "call " << funcName(St.Callee);
    break;
  }
  return OS.str();
}

ProgramEncoding rasc::encodeProgram(const Program &Prog,
                                    ConstraintSystem &CS,
                                    std::span<const AnnId> StmtAnns,
                                    const char *MetricPrefix) {
  // Constraint generation (Section 6.1), with offline variable
  // substitution (Rountev & Chandra, PLDI 2000). The paper gives every
  // statement its own variable, but a statement T whose lower bounds
  // are all identity edges from statements that share one variable V
  // has V's least solution, so T shares V. A statement is joinable when
  // it is not a function entry (entries get pc or o_i(S) lower bounds)
  // and every CFG predecessor is an identity statement (a non-call
  // marked IdentityStmt). A joinable T joins V when its predecessors
  // that do not already share T's variable all share V; ignoring those
  // that do lets loops join. By induction every class is one head plus
  // joinable statements reachable from it whose predecessors all lie
  // in the class, so each member has exactly the head's least solution
  // in the literal encoding, and every answer read off the shared
  // variable stays valid.
  //
  // The worklist visits every statement once. A merge can only enable
  // a statement in the smaller of the two classes or a successor of
  // one, so it revisits exactly those: O((statements + edges) log
  // statements) in all.
  const StmtId N = Prog.numStatements();
  assert(StmtAnns.size() == N && "one annotation per statement");
  // Predecessor lists in one array: those of S are
  // Preds[PredBegin[S], PredBegin[S + 1]).
  std::vector<uint32_t> PredBegin(N + 1, 0);
  std::vector<uint8_t> Joinable(N, 1);
  for (FuncId F = 0; F != Prog.numFunctions(); ++F)
    Joinable[Prog.entry(F)] = 0;
  for (StmtId S = 0; S != N; ++S) {
    bool Identity =
        Prog.stmt(S).Kind != Stmt::Call && StmtAnns[S] == IdentityStmt;
    for (StmtId Succ : Prog.stmt(S).Succs) {
      ++PredBegin[Succ + 1];
      Joinable[Succ] &= Identity;
    }
  }
  std::partial_sum(PredBegin.begin(), PredBegin.end(), PredBegin.begin());
  std::vector<StmtId> Preds(PredBegin[N]);
  std::vector<uint32_t> Fill(PredBegin.begin(), PredBegin.end() - 1);
  for (StmtId S = 0; S != N; ++S)
    for (StmtId Succ : Prog.stmt(S).Succs)
      Preds[Fill[Succ]++] = S;

  UnionFind Classes;
  Classes.grow(N);
  // Each class is a ring through Next, so a merge splices two rings.
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
        Into = Own; // predecessors in two other classes
        break;
      }
      Into = C;
    }
    if (Into == Own)
      continue;
    StmtId Small = Size[Own] < Size[Into] ? Own : Into;
    for (StmtId M = Small;;) {
      Work.push_back(M);
      for (StmtId Succ : Prog.stmt(M).Succs)
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
  uint64_t NumVars = 0;
  for (StmtId S = 0; S != N; ++S) {
    VarId &V = ClassVar[Classes.find(S)];
    if (V == InvalidVar) {
      V = CS.numberedVar("S", S);
      ++NumVars;
    }
    Vars[S] = V;
  }
  if (observe::metricsEnabled()) {
    MetricsRegistry &M = MetricsRegistry::global();
    M.counter(std::string(MetricPrefix) + ".statements").add(N);
    M.counter(std::string(MetricPrefix) + ".vars").add(NumVars);
  }

  Enc.Pc = CS.addConstant("pc");
  CS.add(CS.cons(Enc.Pc), CS.var(Vars[Prog.entry(Prog.mainFunction())]));

  for (StmtId S = 0; S != N; ++S) {
    const Stmt &St = Prog.stmt(S);
    if (St.Kind == Stmt::Call) {
      // o_i(S) ⊆ F_entry and o_i^-1(F_exit) ⊆ S_i.
      ConsId O = CS.addNumberedConstructor("o@", S, 1);
      if (O >= Enc.ConsToCall.size())
        Enc.ConsToCall.resize(O + 1, ProgramEncoding::NoCall);
      Enc.ConsToCall[O] = S;
      CS.add(CS.cons(O, {Vars[S]}), CS.var(Vars[Prog.entry(St.Callee)]));
      for (StmtId Succ : St.Succs)
        CS.add(CS.proj(O, 0, Vars[Prog.exit(St.Callee)]),
               CS.var(Vars[Succ]));
      continue;
    }
    bool Identity = StmtAnns[S] == IdentityStmt;
    AnnId Ann = Identity ? CS.domain().identity() : StmtAnns[S];
    for (StmtId Succ : St.Succs)
      if (!Identity || Vars[S] != Vars[Succ])
        CS.add(CS.var(Vars[S]), CS.var(Vars[Succ]), Ann);
  }
  return Enc;
}
