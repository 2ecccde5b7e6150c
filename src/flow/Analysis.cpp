//===- flow/Analysis.cpp - Type-based flow analysis -------------*- C++ -*-===//
//
// Part of the RASC project: regularly annotated set constraints.
//
//===----------------------------------------------------------------------===//

#include "flow/Analysis.h"

#include "support/FlatSet.h"
#include "support/Trace.h"

#include <algorithm>
#include <deque>

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

/// Appends the name of type \p T of the type table \p Types with its
/// syntax flattened to identifier characters: "(a, b)" is written
/// "_axb_".
void appendTypeName(std::span<const FType> Types, TypeId T,
                    std::string &Out) {
  const FType &Ty = Types[T];
  if (Ty.Kind == FType::Int) {
    Out += "int";
    return;
  }
  Out += '_';
  appendTypeName(Types, Ty.A, Out);
  Out += "x_";
  appendTypeName(Types, Ty.B, Out);
  Out += '_';
}

std::string bracketName(std::span<const FType> Types, bool Open,
                        const Bracket &B) {
  std::string N = Open ? "open" : "close";
  N += std::to_string(B.Index + 1);
  N += '_';
  appendTypeName(Types, B.CompTy, N);
  return N;
}

/// The index of a bracket in buildPairAutomaton's BracketSyms.
size_t bracketKey(const FlowProgram &P, bool Open, uint32_t Index,
                  TypeId CompTy) {
  return (2 * static_cast<size_t>(Index) + (Open ? 0 : 1)) * P.numTypes() +
         CompTy;
}

/// Adds the states and transitions of a descent-chain automaton to
/// \p Builder, whose symbols must all be added already. A state is a
/// chain of frames, and the empty chain is the accepting start state.
/// Frame J may extend a chain ending in frame I iff Follows(I, J), and
/// any frame extends the empty chain; OpenSym[J] pushes J and
/// CloseSym[J] pops a chain ending in J. Frames are tried in the order
/// of \p Frames. The chains form a trie: each state is interned once
/// under the key (parent state, last frame), and states are numbered in
/// breadth-first discovery order, as a worklist over explicit chains
/// would number them.
template <typename FollowsT>
void addChainStates(DfaBuilder &Builder, std::span<const uint32_t> Frames,
                    std::span<const SymbolId> OpenSym,
                    std::span<const SymbolId> CloseSym, FollowsT Follows) {
  std::vector<StateId> Parent{InvalidState};
  std::vector<uint32_t> Last{~0u};
  StateId Root = Builder.addState();
  Builder.setStart(Root);
  Builder.setAccepting(Root);
  FlatMap64 Trie; // (parent state << 32 | frame) -> state
  for (StateId S = Root; S != Parent.size(); ++S) {
    for (uint32_t J : Frames) {
      if (S == Root || Follows(Last[S], J)) {
        uint64_t Key = (static_cast<uint64_t>(S) << 32) | J;
        auto [To, Fresh] =
            Trie.findOrInsert(Key, static_cast<StateId>(Parent.size()));
        if (Fresh) {
          Builder.addState();
          Parent.push_back(S);
          Last.push_back(J);
        }
        Builder.addTransition(S, OpenSym[J], To);
      }
      if (S != Root && Last[S] == J)
        Builder.addTransition(S, CloseSym[J], Parent[S]);
    }
  }
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

  // Symbol 2i opens bracket i and 2i + 1 closes it. Their names
  // ("open1_int", ...) are rendered only when asked, from copies of
  // the brackets and the type table.
  DfaBuilder Builder;
  std::vector<SymbolId> OpenSym(Brackets.size()), CloseSym(Brackets.size());
  std::vector<uint32_t> Frames(Brackets.size());
  for (uint32_t I = 0; I != Brackets.size(); ++I) {
    OpenSym[I] = Builder.addGeneratedSymbol();
    CloseSym[I] = Builder.addGeneratedSymbol();
    Frames[I] = I;
  }
  std::vector<FType> Types(P.numTypes());
  for (TypeId T = 0; T != P.numTypes(); ++T)
    Types[T] = P.type(T);
  Builder.setSymbolNamer(
      [Types = std::move(Types), Brackets](SymbolId Sym) {
        return bracketName(Types, Sym % 2 == 0, Brackets[Sym / 2]);
      });
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
  addChainStates(Builder, Frames, OpenSym, CloseSym,
                 [&](uint32_t I, uint32_t J) {
                   const Bracket &Last = Brackets[I];
                   const FType &Ty = P.type(Brackets[J].CompTy);
                   return Ty.Kind == FType::Pair &&
                          (Last.Index == 0 ? Ty.A : Ty.B) == Last.CompTy;
                 });
  return Builder.build();
}

//===----------------------------------------------------------------------===//
// Call-string automaton (Section 7.6)
//===----------------------------------------------------------------------===//

Dfa rasc::buildCallAutomaton(const FlowProgram &P,
                             std::vector<SymbolId> *CallSyms) {
  uint32_t NumFuncs = static_cast<uint32_t>(P.functions().size());

  // Call graph and call sites, in body-walk order; a site reached twice
  // through a shared subexpression is listed twice.
  std::vector<uint32_t> Sites;
  std::vector<FFuncId> Caller(P.numCallSites()), Callee(P.numCallSites());
  std::vector<std::vector<FFuncId>> Adj(NumFuncs);
  for (FFuncId F = 0; F != NumFuncs; ++F) {
    std::deque<FExprId> Work{P.functions()[F].Body};
    while (!Work.empty()) {
      const FExpr &Ex = P.expr(Work.front());
      Work.pop_front();
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
        Sites.push_back(Ex.CallSite);
        Caller[Ex.CallSite] = F;
        Callee[Ex.CallSite] = Ex.Callee;
        Adj[F].push_back(Ex.Callee);
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
  // monomorphic approximation) if it stays within one SCC; it gets no
  // symbols and is no frame. Symbol 2k is "call<site>" and 2k + 1
  // "ret<site>" for the k-th site given symbols, named when asked.
  DfaBuilder Builder;
  std::vector<SymbolId> OpenSym(P.numCallSites(), InvalidSymbol);
  std::vector<SymbolId> CloseSym(P.numCallSites(), InvalidSymbol);
  std::vector<uint32_t> Frames, SymSite;
  for (uint32_t Id : Sites) {
    if (Scc[Caller[Id]] == Scc[Callee[Id]])
      continue;
    Frames.push_back(Id);
    if (OpenSym[Id] != InvalidSymbol)
      continue; // a site listed twice keeps its symbols
    OpenSym[Id] = Builder.addGeneratedSymbol();
    CloseSym[Id] = Builder.addGeneratedSymbol();
    SymSite.push_back(Id);
  }
  Builder.setSymbolNamer([SymSite = std::move(SymSite)](SymbolId Sym) {
    return (Sym % 2 == 0 ? "call" : "ret") + std::to_string(SymSite[Sym / 2]);
  });
  if (CallSyms) {
    CallSyms->resize(2 * static_cast<size_t>(P.numCallSites()));
    for (uint32_t Id = 0; Id != P.numCallSites(); ++Id) {
      (*CallSyms)[2 * Id] = OpenSym[Id];
      (*CallSyms)[2 * Id + 1] = CloseSym[Id];
    }
  }

  // States: chains of non-recursive sites where each next site lives
  // in the previous site's callee. Cross-SCC edges strictly descend
  // the condensation, so chains are finite.
  addChainStates(Builder, Frames, OpenSym, CloseSym,
                 [&](uint32_t I, uint32_t J) {
                   return Callee[I] == Caller[J];
                 });
  return Builder.build();
}

//===----------------------------------------------------------------------===//
// FlowAnalysis
//===----------------------------------------------------------------------===//

FlowAnalysis::FlowAnalysis(const FlowProgram &P, FlowMode Mode)
    : P(P), Mode(Mode), ExprLabel(P.numExprs(), InvalidVar),
      InferCache(P.numExprs()), InferStamp(P.numExprs(), ~FFuncId(0)),
      SourceCons(P.numExprs(), NoCons) {
  Dom = std::make_unique<MonoidDomain>(
      Mode == FlowMode::Primal ? buildPairAutomaton(P, &BracketSyms)
                               : buildCallAutomaton(P, &CallSyms));
  CS = std::make_unique<ConstraintSystem>(*Dom);
  // About one label, one constraint and one set expression per node.
  CS->reserve({.Vars = P.numExprs(),
               .Exprs = P.numExprs(),
               .Constraints = P.numExprs()});

  if (Mode == FlowMode::Primal) {
    CallCons.resize(P.numCallSites());
    for (uint32_t I = 0; I != P.numCallSites(); ++I)
      CallCons[I] = CS->addNumberedConstructor("o", I, 1);
  } else {
    PairCons = CS->addConstructor("pair", 2);
  }

  // Signatures first: recursion and forward calls need them.
  std::vector<LType> ParamLTs, RetLTs;
  ParamLTs.reserve(P.functions().size());
  RetLTs.reserve(P.functions().size());
  for (const FFunc &F : P.functions()) {
    ParamLTs.push_back(spread(F.ParamTy));
    RetLTs.push_back(spread(F.RetTy));
    ParamLabels.push_back(ParamLTs.back().L);
    RetLabels.push_back(RetLTs.back().L);
  }

  for (FFuncId F = 0; F != P.functions().size(); ++F) {
    const FFunc &Fn = P.functions()[F];
    LType Body = Mode == FlowMode::Primal
                     ? inferPrimal(F, ParamLTs[F], Fn.Body)
                     : inferDual(F, ParamLTs[F], Fn.Body);
    // (Def) + (Sub): the body's result flows to the declared return
    // type, top-level only (non-structural subtyping step).
    CS->add(CS->var(Body.L), CS->var(RetLTs[F].L));
  }

  // Source constants are seeded when a query names them (flows,
  // flowsPN) or all at once before an alias query (mayAlias); see
  // DESIGN.md §5.
}

bool FlowAnalysis::hasLabel(FExprId E) const {
  return E < ExprLabel.size() && ExprLabel[E] != InvalidVar;
}

VarId FlowAnalysis::labelOf(FExprId E) const {
  assert(hasLabel(E) && "expression outside every function body");
  return ExprLabel[E];
}

FlowAnalysis::LType FlowAnalysis::spread(TypeId T) {
  // Paper Section 7: matching of type constructors is carried by the
  // bracket annotations (primal) or the pair constructor (dual), so an
  // expression needs only its top-level label.
  return {T, CS->freshVar()};
}

AnnId FlowAnalysis::bracketAnn(bool Open, uint32_t Index,
                               TypeId CompTy) const {
  assert(Index < 2 && CompTy < P.numTypes() && "bracket out of range");
  SymbolId Sym = BracketSyms[bracketKey(P, Open, Index, CompTy)];
  assert(Sym != InvalidSymbol && "bracket of no pair type");
  return Dom->symbolAnn(Sym);
}

AnnId FlowAnalysis::callAnn(bool Open, uint32_t CallSite) const {
  SymbolId Sym = CallSyms[2 * static_cast<size_t>(CallSite) + (Open ? 0 : 1)];
  assert(Sym != InvalidSymbol && "call site inside a call-graph cycle");
  return Dom->symbolAnn(Sym);
}

void FlowAnalysis::remember(FFuncId F, FExprId E, const LType &LT) {
  ExprLabel[E] = LT.L;
  InferCache[E] = LT;
  InferStamp[E] = F;
}

FlowAnalysis::LType FlowAnalysis::inferPrimal(FFuncId F,
                                              const LType &ParamLT,
                                              FExprId EId) {
  // Shared sub-DAGs (programmatic builders) are inferred exactly
  // once, so every use sees the same label and constraint set.
  if (InferStamp[EId] == F)
    return InferCache[EId];
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
    Result = spread(E.Type);
    // (Pair WL): components flow into the pair label under open
    // brackets indexed by (position, component type).
    CS->add(CS->var(A.L), CS->var(Result.L),
            bracketAnn(true, 0, P.expr(E.Kid0).Type));
    CS->add(CS->var(B.L), CS->var(Result.L),
            bracketAnn(true, 1, P.expr(E.Kid1).Type));
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
  remember(F, EId, Result);
  return Result;
}

FlowAnalysis::LType FlowAnalysis::inferDual(FFuncId F, const LType &ParamLT,
                                            FExprId EId) {
  if (InferStamp[EId] == F)
    return InferCache[EId];
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
    Result = spread(E.Type);
    // Section 7.6: a real binary constructor models the pair.
    CS->add(CS->cons(PairCons, {A.L, B.L}), CS->var(Result.L));
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
    if (CallSyms[2 * static_cast<size_t>(E.CallSite)] == InvalidSymbol) {
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
  remember(F, EId, Result);
  return Result;
}

ConsId FlowAnalysis::sourceConstant(FExprId From) {
  if (SourceCons[From] != NoCons)
    return SourceCons[From];
  ConsId C = CS->addNumberedConstant("src@", From);
  CS->add(CS->cons(C), CS->var(labelOf(From)));
  SourceCons[From] = C;
  return C;
}

BidirectionalSolver *FlowAnalysis::prepare(SolverOptions Opts) {
  RASC_TRACE_SCOPE("flow.prepare");
  if (!Solver)
    Solver = std::make_unique<BidirectionalSolver>(*CS, Opts);
  return Solver.get();
}

void FlowAnalysis::ensureSolved() {
  prepare();
  // Solved means every constraint ingested (a seeded source adds one)
  // and the last solve not interrupted; otherwise solve (or resume).
  if (Solver->ingestedConstraints() != CS->constraints().size() ||
      BidirectionalSolver::isInterrupted(Solver->status())) {
    RASC_TRACE_SCOPE("flow.solve");
    Solver->solve();
  }
}

const BidirectionalSolver &FlowAnalysis::solver() {
  ensureSolved();
  return *Solver;
}

bool FlowAnalysis::flows(FExprId From, FExprId To) {
  // An expression outside every function body was never inferred and
  // has no label: its value exists nowhere, so nothing flows.
  if (!hasLabel(From) || !hasLabel(To))
    return false;
  ConsId C = sourceConstant(From);
  ensureSolved();
  return Solver->entailsConstant(C, labelOf(To));
}

bool FlowAnalysis::flowsPN(FExprId From, FExprId To) {
  if (!hasLabel(From) || !hasLabel(To))
    return false;
  ConsId C = sourceConstant(From);
  ensureSolved();
  // One reachability pass answers every target of this source.
  if (!PnReach || PnSource != C || PnSolves != Solver->numSolves()) {
    PnReach =
        Solver->atomReachability(C, /*AllowUnmatchedProjections=*/true);
    PnSource = C;
    PnSolves = Solver->numSolves();
  }
  for (AnnId F : PnReach->annotations(labelOf(To)))
    if (Dom->isAccepting(F))
      return true;
  return false;
}

bool FlowAnalysis::mayAlias(VarId A, VarId B) {
  // Term sets are compared whole, so every value must be in them.
  // Literal nodes never reached from a function body carry no label
  // (the eBPF front-end orphans one when it overwrites a register
  // slot); a dead value needs no source.
  for (FExprId E = 0; E != P.numExprs(); ++E)
    if (P.expr(E).Kind == FExpr::Lit && hasLabel(E))
      sourceConstant(E);
  ensureSolved();
  return Solver->solutionsIntersect(A, B);
}
