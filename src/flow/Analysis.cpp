//===- flow/Analysis.cpp - Type-based flow analysis -------------*- C++ -*-===//
//
// Part of the RASC project: regularly annotated set constraints.
//
//===----------------------------------------------------------------------===//

#include "flow/Analysis.h"

#include "support/Hashing.h"
#include "support/Trace.h"

#include <algorithm>
#include <deque>
#include <map>
#include <sstream>

using namespace rasc;

//===----------------------------------------------------------------------===//
// Pair-matching automaton (Figure 10)
//===----------------------------------------------------------------------===//

namespace {

/// A bracket symbol [i_tau (Open) or ]i_tau (Close).
struct Bracket {
  uint32_t Index;
  TypeId CompTy;

  friend bool operator<(const Bracket &A, const Bracket &B) {
    return A.Index != B.Index ? A.Index < B.Index : A.CompTy < B.CompTy;
  }
  friend bool operator==(const Bracket &A, const Bracket &B) {
    return A.Index == B.Index && A.CompTy == B.CompTy;
  }
};

std::string bracketName(const FlowProgram &P, bool Open,
                        const Bracket &B) {
  std::ostringstream OS;
  OS << (Open ? "open" : "close") << (B.Index + 1) << "_"
     << P.typeName(B.CompTy);
  std::string N = OS.str();
  // Symbol names are identifiers; flatten the type syntax.
  for (char &C : N) {
    if (C == '(' || C == ')' || C == ' ')
      C = '_';
    if (C == ',')
      C = 'x';
  }
  return N;
}

/// The index of a bracket in buildPairAutomaton's BracketSyms.
size_t bracketKey(const FlowProgram &P, bool Open, uint32_t Index,
                  TypeId CompTy) {
  return (2 * static_cast<size_t>(Index) + (Open ? 0 : 1)) * P.numTypes() +
         CompTy;
}

} // namespace

Dfa rasc::buildPairAutomaton(const FlowProgram &P,
                             std::vector<SymbolId> *BracketSyms) {
  // Bracket symbols: one open/close pair per (component index,
  // component type) of any pair type in the program.
  std::vector<Bracket> Brackets;
  for (TypeId T = 0; T != P.numTypes(); ++T) {
    const FType &Ty = P.type(T);
    if (Ty.Kind != FType::Pair)
      continue;
    for (uint32_t I = 0; I != 2; ++I) {
      Bracket B{I, I == 0 ? Ty.A : Ty.B};
      if (std::find(Brackets.begin(), Brackets.end(), B) == Brackets.end())
        Brackets.push_back(B);
    }
  }
  std::sort(Brackets.begin(), Brackets.end());

  DfaBuilder Builder;
  std::vector<SymbolId> OpenSym(Brackets.size()), CloseSym(Brackets.size());
  for (size_t I = 0; I != Brackets.size(); ++I) {
    OpenSym[I] = Builder.addSymbol(bracketName(P, true, Brackets[I]));
    CloseSym[I] = Builder.addSymbol(bracketName(P, false, Brackets[I]));
  }
  if (BracketSyms) {
    BracketSyms->assign(4 * static_cast<size_t>(P.numTypes()), InvalidSymbol);
    for (size_t I = 0; I != Brackets.size(); ++I) {
      const Bracket &B = Brackets[I];
      (*BracketSyms)[bracketKey(P, true, B.Index, B.CompTy)] = OpenSym[I];
      (*BracketSyms)[bracketKey(P, false, B.Index, B.CompTy)] = CloseSym[I];
    }
  }

  // States: descent chains of brackets. A new frame (j, tau') may
  // follow (i, tau) iff tau' is a pair whose component i is tau: the
  // object pushed at the new frame is the pair built at the previous
  // frame (see Analysis.h). Chains strictly grow the component type,
  // so the construction terminates — the paper's "bounded by the size
  // of the largest type".
  std::map<std::vector<Bracket>, StateId> States;
  std::deque<std::vector<Bracket>> WorkList;
  auto internState = [&](std::vector<Bracket> Chain) -> StateId {
    auto It = States.find(Chain);
    if (It != States.end())
      return It->second;
    StateId S = Builder.addState();
    States.emplace(Chain, S);
    WorkList.push_back(std::move(Chain));
    return S;
  };

  StateId Root = internState({});
  Builder.setStart(Root);
  Builder.setAccepting(Root);

  while (!WorkList.empty()) {
    std::vector<Bracket> Chain = std::move(WorkList.front());
    WorkList.pop_front();
    StateId From = States[Chain];
    for (size_t I = 0; I != Brackets.size(); ++I) {
      const Bracket &B = Brackets[I];
      bool Allowed = true;
      if (!Chain.empty()) {
        const Bracket &Last = Chain.back();
        const FType &Ty = P.type(B.CompTy);
        Allowed = Ty.Kind == FType::Pair &&
                  (Last.Index == 0 ? Ty.A : Ty.B) == Last.CompTy;
      }
      if (Allowed) {
        std::vector<Bracket> Next = Chain;
        Next.push_back(B);
        Builder.addTransition(From, OpenSym[I], internState(Next));
      }
      if (!Chain.empty() && Chain.back() == B) {
        std::vector<Bracket> Popped(Chain.begin(), Chain.end() - 1);
        Builder.addTransition(From, CloseSym[I], internState(Popped));
      }
    }
  }
  return Builder.build();
}

//===----------------------------------------------------------------------===//
// Call-string automaton (Section 7.6)
//===----------------------------------------------------------------------===//

Dfa rasc::buildCallAutomaton(const FlowProgram &P,
                             std::vector<bool> *RecursiveSiteOut) {
  uint32_t NumFuncs = static_cast<uint32_t>(P.functions().size());

  // Call graph and call sites: (site, caller, callee).
  struct Site {
    uint32_t Id;
    FFuncId Caller;
    FFuncId Callee;
  };
  std::vector<Site> Sites;
  std::vector<std::vector<FFuncId>> Adj(NumFuncs);
  {
    // Owning function of each expression: walk bodies.
    std::vector<FFuncId> Owner(P.numExprs(), 0);
    for (FFuncId F = 0; F != NumFuncs; ++F) {
      std::deque<FExprId> Work{P.functions()[F].Body};
      while (!Work.empty()) {
        FExprId E = Work.front();
        Work.pop_front();
        Owner[E] = F;
        const FExpr &Ex = P.expr(E);
        switch (Ex.Kind) {
        case FExpr::MkPair:
          Work.push_back(Ex.Kid0);
          Work.push_back(Ex.Kid1);
          break;
        case FExpr::Proj:
        case FExpr::Call:
          Work.push_back(Ex.Kid0);
          break;
        default:
          break;
        }
        if (Ex.Kind == FExpr::Call) {
          Sites.push_back({Ex.CallSite, F, Ex.Callee});
          Adj[F].push_back(Ex.Callee);
        }
      }
    }
  }

  // Call-graph SCCs (simple iterative Tarjan).
  std::vector<uint32_t> Scc(NumFuncs, ~0u);
  {
    std::vector<uint32_t> Index(NumFuncs, ~0u), Low(NumFuncs, 0);
    std::vector<bool> OnStack(NumFuncs, false);
    std::vector<uint32_t> Stack;
    uint32_t Next = 0, NumSccs = 0;
    struct Frame {
      uint32_t V;
      size_t Child;
    };
    std::vector<Frame> Frames;
    for (uint32_t Root = 0; Root != NumFuncs; ++Root) {
      if (Index[Root] != ~0u)
        continue;
      Frames.push_back({Root, 0});
      while (!Frames.empty()) {
        Frame &F = Frames.back();
        uint32_t V = F.V;
        if (F.Child == 0) {
          Index[V] = Low[V] = Next++;
          Stack.push_back(V);
          OnStack[V] = true;
        }
        if (F.Child < Adj[V].size()) {
          uint32_t W = Adj[V][F.Child++];
          if (Index[W] == ~0u)
            Frames.push_back({W, 0});
          else if (OnStack[W])
            Low[V] = std::min(Low[V], Index[W]);
          continue;
        }
        if (Low[V] == Index[V]) {
          uint32_t Id = NumSccs++;
          while (true) {
            uint32_t W = Stack.back();
            Stack.pop_back();
            OnStack[W] = false;
            Scc[W] = Id;
            if (W == V)
              break;
          }
        }
        Frames.pop_back();
        if (!Frames.empty())
          Low[Frames.back().V] = std::min(Low[Frames.back().V], Low[V]);
      }
    }
  }

  // A site is "recursive" (gets the empty annotation, i.e. the
  // monomorphic approximation) if it stays within one SCC.
  std::vector<bool> Recursive(P.numCallSites(), false);
  for (const Site &S : Sites)
    Recursive[S.Id] = Scc[S.Caller] == Scc[S.Callee];
  if (RecursiveSiteOut)
    *RecursiveSiteOut = Recursive;

  DfaBuilder Builder;
  std::vector<SymbolId> OpenSym(P.numCallSites(), InvalidSymbol);
  std::vector<SymbolId> CloseSym(P.numCallSites(), InvalidSymbol);
  for (const Site &S : Sites) {
    if (Recursive[S.Id])
      continue;
    OpenSym[S.Id] = Builder.addSymbol("call" + std::to_string(S.Id));
    CloseSym[S.Id] = Builder.addSymbol("ret" + std::to_string(S.Id));
  }

  // States: chains of non-recursive sites where each next site lives
  // in the previous site's callee. Cross-SCC edges strictly descend
  // the condensation, so chains are finite.
  std::map<std::vector<uint32_t>, StateId> States;
  std::deque<std::vector<uint32_t>> WorkList;
  auto internState = [&](std::vector<uint32_t> Chain) -> StateId {
    auto It = States.find(Chain);
    if (It != States.end())
      return It->second;
    StateId S = Builder.addState();
    States.emplace(Chain, S);
    WorkList.push_back(std::move(Chain));
    return S;
  };
  StateId Root = internState({});
  Builder.setStart(Root);
  Builder.setAccepting(Root);

  auto siteById = [&](uint32_t Id) -> const Site & {
    for (const Site &S : Sites)
      if (S.Id == Id)
        return S;
    assert(false && "unknown call site");
    return Sites.front();
  };

  while (!WorkList.empty()) {
    std::vector<uint32_t> Chain = std::move(WorkList.front());
    WorkList.pop_front();
    StateId From = States[Chain];
    for (const Site &S : Sites) {
      if (Recursive[S.Id])
        continue;
      bool Allowed =
          Chain.empty() || siteById(Chain.back()).Callee == S.Caller;
      if (Allowed) {
        std::vector<uint32_t> Next = Chain;
        Next.push_back(S.Id);
        Builder.addTransition(From, OpenSym[S.Id], internState(Next));
      }
      if (!Chain.empty() && Chain.back() == S.Id) {
        std::vector<uint32_t> Popped(Chain.begin(), Chain.end() - 1);
        Builder.addTransition(From, CloseSym[S.Id], internState(Popped));
      }
    }
  }
  return Builder.build();
}

//===----------------------------------------------------------------------===//
// FlowAnalysis
//===----------------------------------------------------------------------===//

FlowAnalysis::FlowAnalysis(const FlowProgram &P, FlowMode Mode)
    : P(P), Mode(Mode) {
  Dom = std::make_unique<MonoidDomain>(
      Mode == FlowMode::Primal ? buildPairAutomaton(P, &BracketSyms)
                               : buildCallAutomaton(P, &RecursiveSite));
  CS = std::make_unique<ConstraintSystem>(*Dom);

  if (Mode == FlowMode::Primal) {
    CallCons.resize(P.numCallSites());
    for (uint32_t I = 0; I != P.numCallSites(); ++I)
      CallCons[I] = CS->addConstructor("o" + std::to_string(I), 1);
  } else {
    PairCons = CS->addConstructor("pair", 2);
  }

  // Signatures first: recursion and forward calls need them.
  std::vector<LType> ParamLTs, RetLTs;
  for (const FFunc &F : P.functions()) {
    ParamLTs.push_back(spread(F.ParamTy));
    RetLTs.push_back(spread(F.RetTy));
    ParamLabels.push_back(ParamLTs.back().L);
    RetLabels.push_back(RetLTs.back().L);
  }

  for (FFuncId F = 0; F != P.functions().size(); ++F) {
    const FFunc &Fn = P.functions()[F];
    InferCache.clear(); // Var nodes mean this function's parameter
    LType Body = Mode == FlowMode::Primal
                     ? inferPrimal(Fn, ParamLTs[F], Fn.Body)
                     : inferDual(Fn, ParamLTs[F], Fn.Body);
    // (Def) + (Sub): the body's result flows to the declared return
    // type, top-level only (non-structural subtyping step).
    CS->add(CS->var(Body.L), CS->var(RetLTs[F].L));
  }

  // Seed a source constant at every literal up front; flow queries
  // (Section 7.3) and the alias queries of Section 7.5 (which compare
  // least-solution term sets) both need them. Literal nodes never
  // reached from a function body carry no label (programmatic
  // builders — the eBPF front-end overwriting a register slot —
  // orphan nodes in the arena); a dead value needs no source.
  for (FExprId Lit : P.literals())
    if (ExprLabel.count(Lit))
      sourceConstant(Lit);
}

FlowAnalysis::LType FlowAnalysis::spread(TypeId T) {
  LType L;
  L.Ty = T;
  L.L = CS->freshVar();
  const FType &Ty = P.type(T);
  if (Ty.Kind == FType::Pair) {
    L.Kids.push_back(spread(Ty.A));
    L.Kids.push_back(spread(Ty.B));
  }
  return L;
}

AnnId FlowAnalysis::bracketAnn(bool Open, uint32_t Index,
                               TypeId CompTy) const {
  assert(Index < 2 && CompTy < P.numTypes() && "bracket out of range");
  SymbolId Sym = BracketSyms[bracketKey(P, Open, Index, CompTy)];
  assert(Sym != InvalidSymbol && "bracket of no pair type");
  return Dom->symbolAnn(Sym);
}

AnnId FlowAnalysis::callAnn(bool Open, uint32_t CallSite) {
  std::string Name =
      std::string(Open ? "call" : "ret") + std::to_string(CallSite);
  return Dom->symbolAnn(Name);
}

FlowAnalysis::LType FlowAnalysis::inferPrimal(const FFunc &F,
                                              const LType &ParamLT,
                                              FExprId EId) {
  // Shared sub-DAGs (programmatic builders) are inferred exactly
  // once, so every use sees the same label and constraint set.
  if (auto It = InferCache.find(EId); It != InferCache.end())
    return It->second;
  const FExpr &E = P.expr(EId);
  LType Result{};
  switch (E.Kind) {
  case FExpr::Var:
    Result = ParamLT;
    break;
  case FExpr::Lit:
    Result = spread(P.intType());
    break;
  case FExpr::MkPair: {
    LType A = inferPrimal(F, ParamLT, E.Kid0);
    LType B = inferPrimal(F, ParamLT, E.Kid1);
    Result.Ty = E.Type;
    Result.L = CS->freshVar();
    // (Pair WL): components flow into the pair label under open
    // brackets indexed by (position, component type).
    CS->add(CS->var(A.L), CS->var(Result.L),
            bracketAnn(true, 0, P.expr(E.Kid0).Type));
    CS->add(CS->var(B.L), CS->var(Result.L),
            bracketAnn(true, 1, P.expr(E.Kid1).Type));
    Result.Kids = {std::move(A), std::move(B)};
    break;
  }
  case FExpr::Proj: {
    LType Operand = inferPrimal(F, ParamLT, E.Kid0);
    Result = spread(E.Type);
    CS->add(CS->var(Operand.L), CS->var(Result.L),
            bracketAnn(false, E.ProjIdx, E.Type));
    break;
  }
  case FExpr::Call: {
    LType Arg = inferPrimal(F, ParamLT, E.Kid0);
    // (Inst)/(Neg): the actual argument is wrapped in the call-site
    // constructor and flows to the parameter.
    CS->add(CS->cons(CallCons[E.CallSite], {Arg.L}),
            CS->var(ParamLabels[E.Callee]));
    // (Inst)/(Pos): the result is the projection of the return.
    Result = spread(E.Type);
    CS->add(CS->proj(CallCons[E.CallSite], 0, RetLabels[E.Callee]),
            CS->var(Result.L));
    break;
  }
  }
  ExprLabel[EId] = Result.L;
  InferCache.emplace(EId, Result);
  return Result;
}

FlowAnalysis::LType FlowAnalysis::inferDual(const FFunc &F,
                                            const LType &ParamLT,
                                            FExprId EId) {
  if (auto It = InferCache.find(EId); It != InferCache.end())
    return It->second;
  const FExpr &E = P.expr(EId);
  LType Result{};
  switch (E.Kind) {
  case FExpr::Var:
    Result = ParamLT;
    break;
  case FExpr::Lit:
    Result = spread(P.intType());
    break;
  case FExpr::MkPair: {
    LType A = inferDual(F, ParamLT, E.Kid0);
    LType B = inferDual(F, ParamLT, E.Kid1);
    Result.Ty = E.Type;
    Result.L = CS->freshVar();
    // Section 7.6: a real binary constructor models the pair.
    CS->add(CS->cons(PairCons, {A.L, B.L}), CS->var(Result.L));
    Result.Kids = {std::move(A), std::move(B)};
    break;
  }
  case FExpr::Proj: {
    LType Operand = inferDual(F, ParamLT, E.Kid0);
    Result = spread(E.Type);
    CS->add(CS->proj(PairCons, E.ProjIdx, Operand.L),
            CS->var(Result.L));
    break;
  }
  case FExpr::Call: {
    LType Arg = inferDual(F, ParamLT, E.Kid0);
    Result = spread(E.Type);
    if (RecursiveSite[E.CallSite]) {
      // Monomorphic approximation inside call-graph cycles.
      CS->add(CS->var(Arg.L), CS->var(ParamLabels[E.Callee]));
      CS->add(CS->var(RetLabels[E.Callee]), CS->var(Result.L));
    } else {
      CS->add(CS->var(Arg.L), CS->var(ParamLabels[E.Callee]),
              callAnn(true, E.CallSite));
      CS->add(CS->var(RetLabels[E.Callee]), CS->var(Result.L),
              callAnn(false, E.CallSite));
    }
    break;
  }
  }
  ExprLabel[EId] = Result.L;
  InferCache.emplace(EId, Result);
  return Result;
}

ConsId FlowAnalysis::sourceConstant(FExprId From) {
  auto It = SourceCons.find(From);
  if (It != SourceCons.end())
    return It->second;
  ConsId C = CS->addConstant("src@" + std::to_string(From));
  CS->add(CS->cons(C), CS->var(labelOf(From)));
  SourceCons.emplace(From, C);
  Solved = false;
  return C;
}

void FlowAnalysis::prepare(SolverOptions Opts) {
  RASC_TRACE_SCOPE("flow.prepare");
  if (!Solver)
    Solver = std::make_unique<BidirectionalSolver>(*CS, Opts);
}

void FlowAnalysis::ensureSolved() {
  prepare();
  if (!Solved) {
    RASC_TRACE_SCOPE("flow.solve");
    Solver->solve();
    Solved = true;
  }
}

std::vector<BatchSolver::Result>
FlowAnalysis::solveAll(std::span<FlowAnalysis *const> Analyses,
                       const BatchSolver::Options &BatchOpts,
                       SolverStats *MergedStats) {
  std::vector<BidirectionalSolver *> Solvers;
  Solvers.reserve(Analyses.size());
  for (FlowAnalysis *A : Analyses) {
    A->prepare();
    Solvers.push_back(A->Solver.get());
  }
  BatchSolver Batch(BatchOpts);
  std::vector<BatchSolver::Result> Results = Batch.solveAll(Solvers);
  // An interrupted analysis stays "unsolved" so its next query resumes
  // the solve to completion; a solved one answers queries directly.
  for (size_t I = 0; I != Analyses.size(); ++I)
    Analyses[I]->Solved =
        !BidirectionalSolver::isInterrupted(Analyses[I]->Solver->status());
  if (MergedStats)
    *MergedStats = Batch.mergedStats();
  return Results;
}

const BidirectionalSolver &FlowAnalysis::solver() {
  ensureSolved();
  return *Solver;
}

bool FlowAnalysis::flows(FExprId From, FExprId To) {
  // An expression outside every function body was never inferred and
  // has no label: its value exists nowhere, so nothing flows.
  if (!ExprLabel.count(From) || !ExprLabel.count(To))
    return false;
  ConsId C = sourceConstant(From);
  ensureSolved();
  return Solver->entailsConstant(C, labelOf(To));
}

bool FlowAnalysis::flowsPN(FExprId From, FExprId To) {
  if (!ExprLabel.count(From) || !ExprLabel.count(To))
    return false;
  ConsId C = sourceConstant(From);
  ensureSolved();
  AtomReachability AR =
      Solver->atomReachability(C, /*AllowUnmatchedProjections=*/true);
  for (AnnId F : AR.annotations(labelOf(To)))
    if (Dom->isAccepting(F))
      return true;
  return false;
}

bool FlowAnalysis::mayAlias(VarId A, VarId B) {
  ensureSolved();
  return Solver->solutionsIntersect(A, B);
}
