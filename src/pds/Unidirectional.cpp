//===- pds/Unidirectional.cpp - Forward/backward solving --------*- C++ -*-===//
//
// Part of the RASC project: regularly annotated set constraints.
//
//===----------------------------------------------------------------------===//

#include "pds/Unidirectional.h"

#include <algorithm>
#include <deque>

using namespace rasc;

UnidirectionalSolver::UnidirectionalSolver(const ConstraintSystem &CS,
                                           const MonoidDomain &Dom)
    : CS(CS), Dom(Dom), NumStates(Dom.machine().numStates()) {
  encode();
}

StackSym UnidirectionalSolver::varSym(VarId V) {
  auto [It, New] = VarSyms.emplace(V, 0);
  if (New)
    It->second = P.addStackSymbol();
  return It->second;
}

StackSym UnidirectionalSolver::wrapSym(ExprId ConsExpr, uint32_t ArgIdx) {
  auto [It, New] = WrapSyms.emplace(std::make_pair(ConsExpr, ArgIdx), 0);
  if (New)
    It->second = P.addStackSymbol();
  return It->second;
}

PdsState UnidirectionalSolver::projControl(uint32_t ConsumerIdx, StateId S) {
  uint64_t Key = (static_cast<uint64_t>(ConsumerIdx) << 32) | S;
  auto It = ProjControls.find(Key);
  assert(It != ProjControls.end() && "controls allocated in encode()");
  return It->second;
}

void UnidirectionalSolver::encode() {
  // Pass 1: scan constraints, collect rule specifications, intern all
  // stack symbols and discover all consumers so the control-state set
  // is known before any rule is emitted.
  struct VarVarSpec {
    VarId From, To;
    AnnId Ann;
  };
  struct WrapSpec {
    ExprId ConsExpr;
    VarId To;
    AnnId Ann;
  };
  std::vector<VarVarSpec> VarVars;
  std::vector<WrapSpec> Wraps;

  for (const Constraint &C : CS.constraints()) {
    const Expr &L = CS.expr(C.Lhs);
    const Expr &R = CS.expr(C.Rhs);
    switch (L.Kind) {
    case ExprKind::Var:
      if (R.Kind == ExprKind::Var) {
        VarVars.push_back({L.V, R.V, C.Ann});
        varSym(L.V);
        varSym(R.V);
      } else {
        // X ⊆^h c(Y1..Yn): n pseudo-projections on subject X.
        for (uint32_t I = 0; I != R.NumArgs; ++I)
          Consumers.emplace_back(L.V,
                                 Consumer{R.C, I, CS.arg(R, I), C.Ann});
        varSym(L.V);
        for (VarId A : CS.args(R))
          varSym(A);
      }
      break;
    case ExprKind::Cons:
      if (R.Kind == ExprKind::Var) {
        if (L.NumArgs == 0) {
          AtomSources[L.C].emplace_back(
              Dom.apply(C.Ann, Dom.machine().start()), R.V);
        } else {
          Wraps.push_back({C.Lhs, R.V, C.Ann});
          for (uint32_t I = 0; I != L.NumArgs; ++I) {
            varSym(CS.arg(L, I));
            wrapSym(C.Lhs, I);
          }
        }
        varSym(R.V);
      } else {
        // cons ⊆ cons: decompose statically.
        if (L.C != R.C) {
          Mismatch = true;
          break;
        }
        for (uint32_t I = 0; I != L.NumArgs; ++I) {
          VarVars.push_back({CS.arg(L, I), CS.arg(R, I), C.Ann});
          varSym(CS.arg(L, I));
          varSym(CS.arg(R, I));
        }
      }
      break;
    case ExprKind::Proj:
      assert(R.Kind == ExprKind::Var && "checked by ConstraintSystem");
      Consumers.emplace_back(L.V, Consumer{L.C, L.Index, R.V, C.Ann});
      varSym(L.V);
      varSym(R.V);
      break;
    }
  }

  // Controls: the DFA states, then one pending-projection control per
  // (consumer, state).
  for (StateId S = 0; S != NumStates; ++S) {
    PdsState Ctl = P.addControlState();
    assert(Ctl == S && "DFA states are the first controls");
    (void)Ctl;
  }
  for (uint32_t J = 0; J != Consumers.size(); ++J)
    for (StateId S = 0; S != NumStates; ++S)
      ProjControls[(static_cast<uint64_t>(J) << 32) | S] =
          P.addControlState();

  // Pass 2: emit rules, one per spec per DFA state.
  for (const VarVarSpec &Spec : VarVars)
    for (StateId S = 0; S != NumStates; ++S)
      P.addRule(S, varSym(Spec.From), Dom.apply(Spec.Ann, S),
                {varSym(Spec.To)});

  for (const WrapSpec &Spec : Wraps) {
    const Expr &CE = CS.expr(Spec.ConsExpr);
    for (uint32_t I = 0; I != CE.NumArgs; ++I)
      for (StateId S = 0; S != NumStates; ++S)
        P.addRule(S, varSym(CS.arg(CE, I)), Dom.apply(Spec.Ann, S),
                  {varSym(Spec.To), wrapSym(Spec.ConsExpr, I)});
  }

  for (uint32_t J = 0; J != Consumers.size(); ++J) {
    auto [Subject, C] = Consumers[J];
    // Pop: expose the wrap context under a pending-projection control.
    for (StateId S = 0; S != NumStates; ++S)
      P.addRule(S, varSym(Subject), projControl(J, S), {});
    // Match: resume at the consumer's target on a matching wrap.
    for (const auto &[Key, Sym] : WrapSyms) {
      const Expr &CE = CS.expr(Key.first);
      if (CE.C != C.C || Key.second != C.Index)
        continue;
      for (StateId S = 0; S != NumStates; ++S)
        P.addRule(projControl(J, S), Sym, Dom.apply(C.Ann, S),
                  {varSym(C.Target)});
    }
  }
  Statistics.PdsRules = P.rules().size();
}

namespace {

/// States from which an accepting state is reachable (any symbols).
std::vector<bool> coReachable(const ConfigAutomaton &A) {
  uint32_t N = A.numStates();
  std::vector<std::vector<uint32_t>> RevAdj(N);
  for (uint32_t S = 0; S != N; ++S)
    for (auto [Sym, T] : A.transitionsFrom(S))
      RevAdj[T].push_back(S);
  std::vector<bool> Mark(N, false);
  std::deque<uint32_t> Work;
  for (uint32_t S = 0; S != N; ++S)
    if (A.isAccepting(S)) {
      Mark[S] = true;
      Work.push_back(S);
    }
  while (!Work.empty()) {
    uint32_t S = Work.front();
    Work.pop_front();
    for (uint32_t Pr : RevAdj[S])
      if (!Mark[Pr]) {
        Mark[Pr] = true;
        Work.push_back(Pr);
      }
  }
  return Mark;
}

/// States that reach an accepting state via epsilon transitions only.
std::vector<bool> acceptingByEps(const ConfigAutomaton &A) {
  uint32_t N = A.numStates();
  std::vector<std::vector<uint32_t>> RevEps(N);
  for (uint32_t S = 0; S != N; ++S)
    for (auto [Sym, T] : A.transitionsFrom(S))
      if (Sym == EpsilonSym)
        RevEps[T].push_back(S);
  std::vector<bool> Mark(N, false);
  std::deque<uint32_t> Work;
  for (uint32_t S = 0; S != N; ++S)
    if (A.isAccepting(S)) {
      Mark[S] = true;
      Work.push_back(S);
    }
  while (!Work.empty()) {
    uint32_t S = Work.front();
    Work.pop_front();
    for (uint32_t Pr : RevEps[S])
      if (!Mark[Pr]) {
        Mark[Pr] = true;
        Work.push_back(Pr);
      }
  }
  return Mark;
}

/// Epsilon-forward closure of a single state.
std::vector<uint32_t> epsClosure(const ConfigAutomaton &A, uint32_t S0) {
  std::vector<uint32_t> Out{S0};
  std::vector<bool> Seen(A.numStates(), false);
  Seen[S0] = true;
  for (size_t I = 0; I != Out.size(); ++I)
    for (auto [Sym, T] : A.transitionsFrom(Out[I]))
      if (Sym == EpsilonSym && !Seen[T]) {
        Seen[T] = true;
        Out.push_back(T);
      }
  return Out;
}

} // namespace

const UnidirectionalSolver::ForwardResult &
UnidirectionalSolver::forwardResult(ConsId Atom) {
  auto It = ForwardCache.find(Atom);
  if (It != ForwardCache.end())
    return *It->second;

  ConfigAutomaton Init(P.numControls());
  uint32_t Qf = Init.addState();
  Init.setAccepting(Qf);
  auto SrcIt = AtomSources.find(Atom);
  if (SrcIt != AtomSources.end())
    for (auto [S, V] : SrcIt->second)
      Init.addTransition(S, varSym(V), Qf);

  auto Result = std::make_unique<ForwardResult>(
      ForwardResult{postStar(P, Init), P.numStackSymbols(), {}, {}});
  const ConfigAutomaton &A = Result->A;
  std::vector<bool> CoReach = coReachable(A);
  std::vector<bool> AccEps = acceptingByEps(A);
  size_t NumSyms = Result->NumSyms;
  Result->PnHit.assign(NumStates * NumSyms, false);
  Result->MatchedHit.assign(NumStates * NumSyms, false);
  for (StateId S = 0; S != NumStates; ++S)
    for (uint32_t Q : epsClosure(A, S))
      for (auto [Sym, T] : A.transitionsFrom(Q)) {
        if (Sym == EpsilonSym || Sym >= NumSyms)
          continue;
        size_t Idx = static_cast<size_t>(S) * NumSyms + Sym;
        if (CoReach[T])
          Result->PnHit[Idx] = true;
        if (AccEps[T])
          Result->MatchedHit[Idx] = true;
      }
  Statistics.PostStarTransitions += A.numTransitions();
  ++Statistics.Queries;
  const ForwardResult &Ref = *Result;
  ForwardCache.emplace(Atom, std::move(Result));
  return Ref;
}

std::vector<StateId> UnidirectionalSolver::pnStates(ConsId Atom, VarId V) {
  StackSym Sym = varSym(V);
  const ForwardResult &R = forwardResult(Atom);
  std::vector<StateId> Out;
  for (StateId S = 0; S != NumStates; ++S)
    if (Sym < R.NumSyms &&
        R.PnHit[static_cast<size_t>(S) * R.NumSyms + Sym])
      Out.push_back(S);
  return Out;
}

std::vector<StateId> UnidirectionalSolver::matchedStates(ConsId Atom,
                                                         VarId V) {
  StackSym Sym = varSym(V);
  const ForwardResult &R = forwardResult(Atom);
  std::vector<StateId> Out;
  for (StateId S = 0; S != NumStates; ++S)
    if (Sym < R.NumSyms &&
        R.MatchedHit[static_cast<size_t>(S) * R.NumSyms + Sym])
      Out.push_back(S);
  return Out;
}

bool UnidirectionalSolver::reachesAccepting(ConsId Atom, VarId V,
                                            bool RequireMatched) {
  std::vector<StateId> States =
      RequireMatched ? matchedStates(Atom, V) : pnStates(Atom, V);
  for (StateId S : States)
    if (Dom.machine().isAccepting(S))
      return true;
  return false;
}

bool UnidirectionalSolver::reachesAcceptingBackward(ConsId Atom, VarId V,
                                                    bool RequireMatched) {
  // Target configurations: ⟨s, varSym(V) w⟩ with s accepting (w empty
  // when a fully matched occurrence is required).
  ConfigAutomaton Target(P.numControls());
  uint32_t Qf = Target.addState();
  Target.setAccepting(Qf);
  StackSym Sym = varSym(V);
  const Dfa &M = Dom.machine();
  for (StateId S = 0; S != NumStates; ++S)
    if (M.isAccepting(S))
      Target.addTransition(S, Sym, Qf);
  if (!RequireMatched)
    for (StackSym G = 0; G != P.numStackSymbols(); ++G)
      Target.addTransition(Qf, G, Qf);

  ConfigAutomaton B = preStar(P, Target);
  auto SrcIt = AtomSources.find(Atom);
  if (SrcIt == AtomSources.end())
    return false;
  for (auto [S, V0] : SrcIt->second) {
    std::vector<StackSym> W{varSym(V0)};
    if (B.accepts(S, W))
      return true;
  }
  return false;
}
