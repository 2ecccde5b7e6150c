//===- pdmc/Program.cpp - CFG program representation ------------*- C++ -*-===//
//
// Part of the RASC project: regularly annotated set constraints.
//
//===----------------------------------------------------------------------===//

#include "pdmc/Program.h"

#include "core/Observe.h"
#include "support/Trace.h"

#include <algorithm>
#include <memory>
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
  Finalized = false;
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
  if (!Labels.empty()) {
    LabelSets.push_back(std::move(Labels));
    Stmts[S].LabelSet = static_cast<uint32_t>(LabelSets.size());
  }
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
  // Counting sort of the edge list by source, stable so that each
  // successor list keeps addEdge() order: Begin[S] first counts S's
  // edges, the prefix sum makes it the end of S's range, and the fill
  // walks the edges backwards, leaving it at the range's start. One
  // allocation, sized for the worst case of one routed exit per
  // statement.
  const StmtId N = numStatements();
  Csr.clear();
  Csr.reserve(N + 1 + Edges.size() + N);
  Csr.resize(N + 1, 0);
  for (auto [From, To] : Edges)
    ++Csr[From];
  for (StmtId S = 0; S != N; ++S) {
    StmtId Exit = Funcs[Stmts[S].Parent].Exit;
    if (Csr[S] == 0 && S != Exit) {
      Edges.push_back({S, Exit});
      Csr[S] = 1;
    }
  }
  for (StmtId S = 1; S <= N; ++S)
    Csr[S] += Csr[S - 1];
  Csr.resize(N + 1 + Edges.size());
  uint32_t *Begin = Csr.data(), *Targets = Begin + N + 1;
  for (size_t I = Edges.size(); I-- != 0;)
    Targets[--Begin[Edges[I].first]] = Edges[I].second;
  Finalized = true;
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
    if (std::span<const std::string> Labels = labels(S); !Labels.empty()) {
      OS << "(";
      for (size_t I = 0; I != Labels.size(); ++I) {
        if (I)
          OS << ", ";
        OS << Labels[I];
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
  // The classes do not depend on the order in which statements are
  // tried: a join that is enabled stays enabled while other classes
  // merge (merging only unites the classes of T's predecessors), so
  // every complete order reaches the same least partition closed under
  // the rule. So a joinable statement with one predecessor joins it
  // outright. Those with several are then tried in id
  // order, which on a forward CFG finds each predecessor's class
  // final; a merge re-queues only the statements it may enable that
  // were tried already (the members of the smaller class and their
  // successors), and the sweep reaches the others. O((statements +
  // edges) log statements) in all.
  const StmtId N = Prog.numStatements();
  assert(StmtAnns.size() == N && "one annotation per statement");
  const uint32_t *SuccBegin = Prog.succBegin().data();
  const StmtId *Succs = Prog.succTargets().data();
  const uint32_t E = SuccBegin[N];

  // One scratch block: the predecessor lists of the statements with
  // several (those of T are Preds[PredBegin[T], PredBegin[T + 1])), the
  // union-find parents and class sizes, the class rings (each class is
  // a ring through Next, so a merge splices two rings), the worklist,
  // and a flag byte per statement. Until the lists are built, the
  // worklist's slots hold each statement's first predecessor; once the
  // classes are known, each class's variable.
  enum : uint8_t {
    NotJoinable = 1, ///< an entry, or a predecessor is not identity
    HasPred = 2,
    ManyPreds = 4, ///< predecessors other than OnePred[T]
    Tried = 8,
    Queued = 16,
    IsCall = 32,
  };
  const size_t Words = 5 * size_t(N) + 1 + E + (N + 3) / 4;
  std::unique_ptr<uint32_t[]> Scratch =
      std::make_unique_for_overwrite<uint32_t[]>(Words);
  uint32_t *PredBegin = Scratch.get();
  uint32_t *Preds = PredBegin + N + 1;
  uint32_t *Parent = Preds + E;
  uint32_t *Size = Parent + N;
  uint32_t *Next = Size + N;
  uint32_t *Work = Next + N;
  uint32_t *OnePred = Work, *ClassVar = Work;
  uint8_t *Flags = reinterpret_cast<uint8_t *>(Work + N);
  std::fill_n(PredBegin, N + 1, 0);
  std::fill_n(Flags, N, 0);

  ProgramEncoding Enc;
  std::vector<VarId> &Vars = Enc.StmtVars;
  Vars.resize(N);
  uint32_t NumClasses = N, NumCalls = 0;
  {
    RASC_TRACE_SCOPE("pdmc.encode.contract", N);
    for (FuncId F = 0; F != Prog.numFunctions(); ++F)
      Flags[Prog.entry(F)] = NotJoinable;
    for (StmtId S = 0; S != N; ++S) {
      bool Call = Prog.stmt(S).Kind == Stmt::Call;
      NumCalls += Call;
      Flags[S] |= Call ? IsCall : 0;
      uint8_t Block = Call || StmtAnns[S] != IdentityStmt ? NotJoinable : 0;
      for (uint32_t I = SuccBegin[S]; I != SuccBegin[S + 1]; ++I) {
        StmtId T = Succs[I];
        ++PredBegin[T];
        if (!(Flags[T] & HasPred))
          OnePred[T] = S;
        Flags[T] |= Block | HasPred | (OnePred[T] != S ? ManyPreds : 0);
      }
      Parent[S] = Next[S] = S;
      Size[S] = 1;
    }

    auto find = [Parent](uint32_t X) {
      while (Parent[X] != X)
        X = Parent[X] = Parent[Parent[X]];
      return X;
    };
    // Unites two classes by their roots, the smaller one first.
    auto unite = [&](uint32_t Small, uint32_t Big) {
      std::swap(Next[Small], Next[Big]);
      Parent[Small] = Big;
      Size[Big] += Size[Small];
      --NumClasses;
    };
    // Only the statements tried below keep their predecessor lists.
    uint32_t End = 0;
    for (StmtId T = 0; T != N; ++T) {
      if ((Flags[T] & (NotJoinable | ManyPreds)) == ManyPreds)
        End += PredBegin[T];
      PredBegin[T] = End;
    }
    PredBegin[N] = End;
    // One pass over the edges fills those lists and joins each joinable
    // statement with one predecessor to it.
    for (StmtId S = N; S-- != 0;)
      for (uint32_t I = SuccBegin[S + 1]; I-- != SuccBegin[S];) {
        StmtId T = Succs[I];
        switch (Flags[T] & (NotJoinable | ManyPreds)) {
        case ManyPreds:
          Preds[--PredBegin[T]] = S;
          break;
        case 0:
          if (uint32_t Own = find(T), Into = find(S); Own != Into)
            Size[Own] < Size[Into] ? unite(Own, Into) : unite(Into, Own);
          break;
        }
      }

    uint32_t Top = 0;
    auto requeue = [&](StmtId X) {
      if ((Flags[X] & (Tried | Queued)) == Tried) {
        Flags[X] |= Queued;
        Work[Top++] = X;
      }
    };
    auto tryJoin = [&](StmtId T) {
      uint32_t Own = find(T), Into = Own;
      for (uint32_t I = PredBegin[T]; I != PredBegin[T + 1]; ++I) {
        uint32_t C = find(Preds[I]);
        if (C == Own || C == Into)
          continue;
        if (Into != Own)
          return; // predecessors in two other classes
        Into = C;
      }
      if (Into == Own)
        return;
      if (Size[Own] >= Size[Into])
        std::swap(Own, Into);
      for (StmtId M = Own;;) {
        requeue(M);
        for (uint32_t I = SuccBegin[M]; I != SuccBegin[M + 1]; ++I)
          requeue(Succs[I]);
        if ((M = Next[M]) == Own)
          break;
      }
      unite(Own, Into);
    };
    for (StmtId T = 0; T != N; ++T) {
      if ((Flags[T] & (NotJoinable | ManyPreds)) != ManyPreds)
        continue;
      tryJoin(T);
      Flags[T] |= Tried;
      while (Top != 0) {
        StmtId X = Work[--Top];
        Flags[X] &= ~Queued;
        tryJoin(X);
      }
    }

    // Each variable's expression, plus a constructor, its expression
    // and one projection per call; a constraint per edge at most.
    CS.reserve({.Vars = NumClasses,
                .Exprs = NumClasses + 1 + 2 * size_t(NumCalls),
                .Interned = 1 + 2 * size_t(NumCalls),
                .Constructors = 1 + size_t(NumCalls),
                .Constraints = 1 + E + size_t(NumCalls)});
    // A variable per class, named after its first statement.
    std::fill_n(ClassVar, N, InvalidVar);
    for (StmtId S = 0; S != N; ++S) {
      VarId &V = ClassVar[find(S)];
      if (V == InvalidVar)
        V = CS.numberedVar("S", S);
      Vars[S] = V;
    }
  }
  if (observe::metricsEnabled()) {
    MetricsRegistry &M = MetricsRegistry::global();
    M.counter(std::string(MetricPrefix) + ".statements").add(N);
    M.counter(std::string(MetricPrefix) + ".vars").add(NumClasses);
  }

  // The constraints, in statement order. Each right-hand side is built
  // before its left-hand side, so expressions get the ids they have
  // always had.
  RASC_TRACE_SCOPE("pdmc.encode.emit", N);
  Enc.Pc = CS.addConstant("pc");
  {
    ExprId Main = CS.var(Vars[Prog.entry(Prog.mainFunction())]);
    CS.add(CS.cons(Enc.Pc), Main);
  }
  if (NumCalls != 0)
    Enc.ConsToCall.assign(CS.numConstructors() + NumCalls,
                          ProgramEncoding::NoCall);
  const AnnId Identity = CS.domain().identity();
  for (StmtId S = 0; S != N; ++S) {
    const VarId From = Vars[S];
    if (Flags[S] & IsCall) {
      // o_i(S) ⊆ F_entry and o_i^-1(F_exit) ⊆ S_i.
      FuncId Callee = Prog.stmt(S).Callee;
      ConsId O = CS.addNumberedConstructor("o@", S, 1);
      assert(O < Enc.ConsToCall.size() && "one constructor per call");
      Enc.ConsToCall[O] = S;
      ExprId Entry = CS.var(Vars[Prog.entry(Callee)]);
      CS.add(CS.cons(O, {From}), Entry);
      VarId Exit = Vars[Prog.exit(Callee)];
      for (uint32_t I = SuccBegin[S]; I != SuccBegin[S + 1]; ++I) {
        ExprId Ret = CS.var(Vars[Succs[I]]);
        CS.add(CS.proj(O, 0, Exit), Ret);
      }
      continue;
    }
    AnnId Ann = StmtAnns[S];
    bool Skip = Ann == IdentityStmt; // identity edges within a class
    if (Skip)
      Ann = Identity;
    for (uint32_t I = SuccBegin[S]; I != SuccBegin[S + 1]; ++I) {
      VarId To = Vars[Succs[I]];
      if (Skip && From == To)
        continue;
      ExprId Rhs = CS.var(To);
      CS.add(CS.var(From), Rhs, Ann);
    }
  }
  return Enc;
}
