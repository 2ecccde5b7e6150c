//===- pdmc/Checker.cpp - Temporal safety checking --------------*- C++ -*-===//
//
// Part of the RASC project: regularly annotated set constraints.
//
//===----------------------------------------------------------------------===//

#include "pdmc/Checker.h"

#include "pds/Unidirectional.h"
#include "support/Trace.h"

#include <algorithm>
#include <chrono>
#include <deque>
#include <map>
#include <set>

using namespace rasc;

namespace {

/// Maps each symbol of \p Prog to the symbol of the same name in \p M,
/// InvalidSymbol where \p M has none: one name lookup per distinct
/// program symbol, not one per statement.
std::vector<SymbolId> specSymbols(const Program &Prog, const Dfa &M) {
  std::vector<SymbolId> Out(Prog.numSymbols());
  for (OpSymId S = 0; S != Prog.numSymbols(); ++S)
    Out[S] = M.symbol(Prog.symbolName(S)).value_or(InvalidSymbol);
  return Out;
}

double secondsSince(
    std::chrono::steady_clock::time_point Start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       Start)
      .count();
}

} // namespace

//===----------------------------------------------------------------------===//
// RascChecker
//===----------------------------------------------------------------------===//

RascChecker::RascChecker(const Program &Prog, const SpecAutomaton &Spec,
                         SolveStrategy Strategy)
    : Prog(Prog), Spec(Spec), Strategy(Strategy) {
  Parametric = false;
  for (SymbolId S = 0, E = Spec.machine().numSymbols(); S != E; ++S)
    Parametric |= Spec.isParametric(S);
  assert((!Parametric || Strategy == SolveStrategy::Bidirectional) &&
         "parametric annotations require the bidirectional solver");
  Base = std::make_unique<MonoidDomain>(Spec.machine());
  if (Parametric) {
    EnvDom = std::make_unique<SubstEnvDomain>(*Base);
    CS = std::make_unique<ConstraintSystem>(*EnvDom);
  } else {
    CS = std::make_unique<ConstraintSystem>(*Base);
  }
}

bool RascChecker::isRelevant(const Stmt &St) const {
  return St.Kind == Stmt::Op && SpecSym[St.OpSym] != InvalidSymbol;
}

AnnId RascChecker::opAnn(StmtId S) const {
  SymbolId Sym = SpecSym[Prog.stmt(S).OpSym];
  AnnId BaseAnn = Base->symbolAnn(Sym);
  if (!Parametric)
    return BaseAnn;
  const SpecSymbol &Decl = Spec.symbols()[Sym];
  if (Decl.Params.empty())
    return EnvDom->lift(BaseAnn);
  std::span<const std::string> Labels = Prog.labels(S);
  assert(Decl.Params.size() == Labels.size() &&
         "operation label count must match the symbol declaration");
  std::vector<ParamBinding> Key;
  for (size_t I = 0; I != Decl.Params.size(); ++I)
    Key.push_back({EnvDom->name(Decl.Params[I]), EnvDom->name(Labels[I])});
  return EnvDom->instantiate(std::move(Key), BaseAnn);
}

void RascChecker::generate() {
  if (!Enc.StmtVars.empty())
    return;
  SpecSym = specSymbols(Prog, Spec.machine());
  // A relevant operation steps the property; every other non-call is
  // an identity statement.
  std::vector<AnnId> Anns(Prog.numStatements(), IdentityStmt);
  for (StmtId S = 0; S != Prog.numStatements(); ++S)
    if (isRelevant(Prog.stmt(S)))
      Anns[S] = opAnn(S);
  Enc = encodeProgram(Prog, *CS, Anns, "pdmc");
  Stats.Constraints = CS->constraints().size();
}

void RascChecker::prepare() {
  RASC_TRACE_SCOPE("pdmc.prepare");
  generate();
  if (Strategy == SolveStrategy::Bidirectional && !Solver)
    Solver = std::make_unique<BidirectionalSolver>(*CS, SolverOpts);
}

std::vector<Violation> RascChecker::check() {
  RASC_TRACE_SCOPE("pdmc.check");
  auto Start = std::chrono::steady_clock::now();

  prepare();

  if (Strategy == SolveStrategy::Forward) {
    std::vector<Violation> Out = checkForward();
    Stats.Seconds = secondsSince(Start);
    return Out;
  }

  Solver->solve();
  std::vector<Violation> Out = collectViolations();
  Stats.Seconds = secondsSince(Start);
  return Out;
}

std::vector<Violation> RascChecker::collectViolations() {
  RASC_TRACE_SCOPE("pdmc.collect");
  assert(Solver && "collectViolations requires a prepared solver");
  const Dfa &M = Spec.machine();
  EdgeLimit = BidirectionalSolver::isInterrupted(Solver->status());
  Stats.Derived = Solver->stats().EdgesInserted;

  AtomReachability AR = Solver->atomReachability(Enc.Pc);

  // A violation at an operation statement s: pc reaches s with a word
  // w such that delta(w . op, s0) is accepting.
  std::set<Violation> Found;
  StateId Start0 = M.start();
  for (StmtId S = 0; S != Prog.numStatements(); ++S) {
    const Stmt &St = Prog.stmt(S);
    if (!isRelevant(St))
      continue;
    AnnId StepAnn = opAnn(S);
    for (AnnId F : AR.annotations(Enc.StmtVars[S])) {
      // The witness call stack is built only for a reported violation:
      // most (statement, annotation) pairs report nothing. The term's
      // outermost constructor is the most recent call, so the spine
      // lists the stack innermost first.
      auto callStack = [&] {
        std::vector<ConsId> Spine = AR.witnessStack(Enc.StmtVars[S], F);
        std::vector<StmtId> CallStack;
        for (auto C = Spine.rbegin(); C != Spine.rend(); ++C) {
          if (*C < Enc.ConsToCall.size() &&
              Enc.ConsToCall[*C] != ProgramEncoding::NoCall)
            CallStack.push_back(Enc.ConsToCall[*C]);
        }
        return CallStack;
      };
      auto report = [&](std::string Inst) {
        Violation V;
        V.Where = S;
        V.Instantiation = std::move(Inst);
        V.CallStack = callStack();
        Found.insert(std::move(V));
      };

      // Report transitions *into* an accepting state only: an op that
      // runs after the property has already failed is not a separate
      // violation (the MOPS baseline attributes violations the same
      // way).
      if (!Parametric) {
        AnnId Total = Base->compose(StepAnn, F);
        if (M.isAccepting(Base->apply(Total, Start0)) &&
            !M.isAccepting(Base->apply(F, Start0))) {
          Violation V;
          V.Where = S;
          V.CallStack = callStack();
          // The event trace: a sample word of the reaching class,
          // then this statement's own operation. None if the word
          // search passes the monoid's element cap.
          if (std::optional<Word> W = Base->monoid().sampleWord(F)) {
            for (SymbolId Sym : *W)
              V.EventTrace.push_back(M.symbolName(Sym));
            V.EventTrace.push_back(Prog.symbolName(St.OpSym));
          }
          Found.insert(std::move(V));
        }
        continue;
      }
      AnnId Total = EnvDom->compose(StepAnn, F);
      if (M.isAccepting(Base->apply(EnvDom->residual(Total), Start0)) &&
          !M.isAccepting(Base->apply(EnvDom->residual(F), Start0)))
        report("");
      for (const SubstEntry &E : EnvDom->entries(Total)) {
        if (!M.isAccepting(Base->apply(E.Value, Start0)))
          continue;
        if (M.isAccepting(Base->apply(EnvDom->lookup(F, E.Key), Start0)))
          continue; // already failed before this op
        std::string Inst;
        for (size_t I = 0; I != E.Key.size(); ++I) {
          if (I)
            Inst += ",";
          Inst += EnvDom->nameStr(E.Key[I].Param) + ":" +
                  EnvDom->nameStr(E.Key[I].Label);
        }
        report(std::move(Inst));
      }
    }
  }

  return std::vector<Violation>(Found.begin(), Found.end());
}

std::vector<Violation> RascChecker::checkForward() {
  // Section 5: forward solving tracks facts (pc, variable, state of
  // the right congruence) with the unmatched calls as a pushdown
  // stack; one post* answers every query. Witness call stacks are not
  // reconstructed in this mode.
  const Dfa &M = Spec.machine();
  UnidirectionalSolver U(*CS, *Base);
  std::set<Violation> Found;
  for (StmtId S = 0; S != Prog.numStatements(); ++S) {
    const Stmt &St = Prog.stmt(S);
    if (!isRelevant(St))
      continue;
    SymbolId Sym = SpecSym[St.OpSym];
    for (StateId Q : U.pnStates(Enc.Pc, Enc.StmtVars[S]))
      if (!M.isAccepting(Q) && M.isAccepting(M.next(Q, Sym))) {
        Violation V;
        V.Where = S;
        Found.insert(std::move(V));
        break;
      }
  }
  Stats.Derived = U.stats().PostStarTransitions;
  return std::vector<Violation>(Found.begin(), Found.end());
}

//===----------------------------------------------------------------------===//
// MopsChecker
//===----------------------------------------------------------------------===//

MopsChecker::MopsChecker(const Program &Prog, const SpecAutomaton &Spec)
    : Prog(Prog), Spec(Spec) {}

std::vector<Violation> MopsChecker::check() {
  auto Start = std::chrono::steady_clock::now();

  // Collect the label tuples of parametric operations; MOPS checks
  // each instantiation separately.
  SpecSym = specSymbols(Prog, Spec.machine());
  std::set<std::vector<std::string>> Instances;
  bool AnyParametric = false;
  for (StmtId S = 0; S != Prog.numStatements(); ++S) {
    const Stmt &St = Prog.stmt(S);
    if (St.Kind != Stmt::Op)
      continue;
    SymbolId Sym = SpecSym[St.OpSym];
    if (Sym == InvalidSymbol || !Spec.isParametric(Sym))
      continue;
    AnyParametric = true;
    std::span<const std::string> Labels = Prog.labels(S);
    Instances.emplace(Labels.begin(), Labels.end());
  }

  std::vector<Violation> Out;
  if (!AnyParametric) {
    checkInstance({}, Out);
  } else {
    for (const std::vector<std::string> &L : Instances)
      checkInstance(L, Out);
  }
  std::sort(Out.begin(), Out.end());
  Out.erase(std::unique(Out.begin(), Out.end()), Out.end());
  Stats.Seconds = secondsSince(Start);
  return Out;
}

void MopsChecker::checkInstance(const std::vector<std::string> &Labels,
                                std::vector<Violation> &Out) {
  const Dfa &M = Spec.machine();

  // Is this statement a property transition in this instance?
  auto relevantSym = [&](StmtId S) -> std::optional<SymbolId> {
    const Stmt &St = Prog.stmt(S);
    if (St.Kind != Stmt::Op)
      return std::nullopt;
    SymbolId Sym = SpecSym[St.OpSym];
    if (Sym == InvalidSymbol ||
        (Spec.isParametric(Sym) &&
         !std::ranges::equal(Prog.labels(S), Labels)))
      return std::nullopt;
    return Sym;
  };

  Pds P;
  for (StateId Q = 0; Q != M.numStates(); ++Q) {
    PdsState C = P.addControlState();
    assert(C == Q && "controls mirror property states");
    (void)C;
  }
  // One stack symbol per statement.
  std::vector<StackSym> StmtSym(Prog.numStatements());
  for (StmtId S = 0; S != Prog.numStatements(); ++S)
    StmtSym[S] = P.addStackSymbol();

  std::map<StackSym, StmtId> ReturnSiteToCall;
  for (StmtId S = 0; S != Prog.numStatements(); ++S) {
    const Stmt &St = Prog.stmt(S);
    bool IsExit = S == Prog.exit(St.Parent);
    if (IsExit) {
      for (StateId Q = 0; Q != M.numStates(); ++Q)
        P.addRule(Q, StmtSym[S], Q, {});
      continue;
    }
    if (St.Kind == Stmt::Call) {
      for (StmtId Succ : Prog.succs(S)) {
        ReturnSiteToCall.emplace(StmtSym[Succ], S);
        for (StateId Q = 0; Q != M.numStates(); ++Q)
          P.addRule(Q, StmtSym[S], Q,
                    {StmtSym[Prog.entry(St.Callee)], StmtSym[Succ]});
      }
      continue;
    }
    std::optional<SymbolId> Sym = relevantSym(S);
    for (StmtId Succ : Prog.succs(S))
      for (StateId Q = 0; Q != M.numStates(); ++Q)
        P.addRule(Q, StmtSym[S], Sym ? M.next(Q, *Sym) : Q,
                  {StmtSym[Succ]});
  }
  Stats.Constraints += P.rules().size();

  ConfigAutomaton Init(P.numControls());
  uint32_t Qf = Init.addState();
  Init.setAccepting(Qf);
  Init.addTransition(M.start(), StmtSym[Prog.entry(Prog.mainFunction())],
                     Qf);
  ConfigAutomaton A = postStar(P, Init);
  Stats.Derived += A.numTransitions();

  // Top-of-stack pairs (q, stmt) reachable: from control q, after
  // epsilon moves, a transition on StmtSym[stmt].
  std::vector<std::vector<uint32_t>> EpsAdj(A.numStates());
  for (uint32_t S = 0; S != A.numStates(); ++S)
    for (auto [Sym, T] : A.transitionsFrom(S))
      if (Sym == EpsilonSym)
        EpsAdj[S].push_back(T);

  for (StmtId S = 0; S != Prog.numStatements(); ++S) {
    std::optional<SymbolId> Sym = relevantSym(S);
    if (!Sym)
      continue;
    for (StateId Q = 0; Q != M.numStates(); ++Q) {
      if (M.isAccepting(Q) || !M.isAccepting(M.next(Q, *Sym)))
        continue;
      // Is ⟨Q, S ...⟩ reachable? BFS the epsilon closure of Q, then
      // one step on StmtSym[S]; the rest of the stack is whatever the
      // automaton still accepts (witness below).
      std::vector<uint32_t> Closure{Q};
      std::vector<bool> Seen(A.numStates(), false);
      Seen[Q] = true;
      uint32_t After = ~0u;
      for (size_t I = 0; I != Closure.size() && After == ~0u; ++I) {
        for (auto [Sm, T] : A.transitionsFrom(Closure[I])) {
          if (Sm == StmtSym[S]) {
            After = T;
            break;
          }
          if (Sm == EpsilonSym && !Seen[T]) {
            Seen[T] = true;
            Closure.push_back(T);
          }
        }
      }
      if (After == ~0u)
        continue;

      // Witness / co-reachability: ⟨Q, S w⟩ is only a real
      // configuration if some accepting state is reachable from After.
      std::vector<std::optional<std::pair<uint32_t, StackSym>>> Par(
          A.numStates());
      std::vector<bool> Seen2(A.numStates(), false);
      std::deque<uint32_t> Work{After};
      Seen2[After] = true;
      uint32_t Found = A.isAccepting(After) ? After : ~0u;
      while (!Work.empty() && Found == ~0u) {
        uint32_t Cur = Work.front();
        Work.pop_front();
        for (auto [Sm, T] : A.transitionsFrom(Cur)) {
          if (Seen2[T])
            continue;
          Seen2[T] = true;
          Par[T] = std::make_pair(Cur, Sm);
          if (A.isAccepting(T)) {
            Found = T;
            break;
          }
          Work.push_back(T);
        }
      }
      if (Found == ~0u)
        continue;

      Violation V;
      V.Where = S;
      if (!Labels.empty()) {
        const SpecSymbol &Decl = Spec.symbols()[*Sym];
        for (size_t I = 0;
             I != Decl.Params.size() && I != Labels.size(); ++I) {
          if (I)
            V.Instantiation += ",";
          V.Instantiation += Decl.Params[I] + ":" + Labels[I];
        }
      }
      // The accepted stack word below the top is the list of pending
      // return sites; translate them to call statements.
      std::vector<StmtId> Stack;
      for (uint32_t Cur = Found; Cur != After;) {
        auto [Prev, Sm] = *Par[Cur];
        auto It = ReturnSiteToCall.find(Sm);
        if (Sm != EpsilonSym && It != ReturnSiteToCall.end())
          Stack.push_back(It->second);
        Cur = Prev;
      }
      std::reverse(Stack.begin(), Stack.end());
      V.CallStack = std::move(Stack);
      Out.push_back(std::move(V));
      break; // next statement
    }
  }
}
