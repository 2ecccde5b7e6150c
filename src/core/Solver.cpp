//===- core/Solver.cpp - Bidirectional annotated solver ---------*- C++ -*-===//
//
// Part of the RASC project: regularly annotated set constraints.
//
//===----------------------------------------------------------------------===//

#include "core/Solver.h"

#include "core/Observe.h"
#include "core/ProofLog.h"
#include "support/FailPoint.h"
#include "support/FlatSet.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <map>
#include <set>
#include <sstream>

using namespace rasc;

namespace {

/// Resolves SolverOptions::Dedup against the domain size observed at
/// solver construction.
EdgeDedup::Backend resolveDedupBackend(const SolverOptions &Opts,
                                       const AnnotationDomain &D) {
  switch (Opts.Dedup) {
  case SolverOptions::DedupBackend::Bitset:
    return EdgeDedup::Backend::Bitset;
  case SolverOptions::DedupBackend::FlatSet:
    return EdgeDedup::Backend::Flat;
  case SolverOptions::DedupBackend::Auto:
    break;
  }
  return D.size() <= Opts.AnnBitsetThreshold ? EdgeDedup::Backend::Bitset
                                             : EdgeDedup::Backend::Flat;
}

double secondsSince(std::chrono::steady_clock::time_point Start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       Start)
      .count();
}

/// Maps a solve status to the proof trailer's status byte. An explicit
/// switch, not a cast: the two enums agree by construction today, and
/// this keeps a reordering of either from silently corrupting logs.
ProofLogWriter::StatusCode proofStatusCode(BidirectionalSolver::Status S) {
  switch (S) {
  case BidirectionalSolver::Status::Solved:
    return ProofLogWriter::StSolved;
  case BidirectionalSolver::Status::Inconsistent:
    return ProofLogWriter::StInconsistent;
  case BidirectionalSolver::Status::EdgeLimit:
    return ProofLogWriter::StEdgeLimit;
  case BidirectionalSolver::Status::StepLimit:
    return ProofLogWriter::StStepLimit;
  case BidirectionalSolver::Status::Deadline:
    return ProofLogWriter::StDeadline;
  case BidirectionalSolver::Status::MemoryLimit:
    return ProofLogWriter::StMemoryLimit;
  case BidirectionalSolver::Status::Cancelled:
    return ProofLogWriter::StCancelled;
  }
  return ProofLogWriter::StUnproven;
}

} // namespace

const std::vector<AnnId> &AtomReachability::annotations(VarId V) const {
  static const std::vector<AnnId> Empty;
  if (Solver)
    V = Solver->rep(V);
  auto It = Facts.find(V);
  return It == Facts.end() ? Empty : It->second;
}

std::vector<ConsId> AtomReachability::witnessStack(VarId V,
                                                   AnnId Ann) const {
  std::vector<ConsId> Stack;
  if (Solver)
    V = Solver->rep(V);
  uint64_t Key = (static_cast<uint64_t>(V) << 32) | Ann;
  auto It = Parents.find(Key);
  while (It != Parents.end() && It->second.InnerVar != InvalidVar) {
    Stack.push_back(It->second.C);
    Key = (static_cast<uint64_t>(It->second.InnerVar) << 32) |
          It->second.InnerAnn;
    It = Parents.find(Key);
  }
  return Stack;
}

BidirectionalSolver::BidirectionalSolver(const ConstraintSystem &CS,
                                         SolverOptions Opts)
    : CS(CS), Options(Opts),
      EdgeSeen(resolveDedupBackend(Opts, CS.domain()), CS.domain().size()),
      FnVarSeen(resolveDedupBackend(Opts, CS.domain()), CS.domain().size()) {}

BidirectionalSolver::~BidirectionalSolver() = default;

VarId BidirectionalSolver::rep(VarId V) const {
  VarReps.grow(V + 1);
  return VarReps.find(V);
}

void BidirectionalSolver::growTo(ExprId E) {
  size_t Need = std::max<size_t>(E + 1, CS.numExprs());
  if (Succs.numNodes() < Need) {
    size_t Old = Succs.numNodes();
    Succs.ensureNodes(Need);
    Preds.ensureNodes(Need);
    Watchers.resize(Need);
    SuccDone.resize(Need, 0);
    PredDone.resize(Need, 0);
    // Every id below numExprs() is interned by now, so the kind cache
    // can be filled for the whole new range.
    NodeKind.resize(Need);
    for (size_t I = Old; I != Need; ++I)
      NodeKind[I] = static_cast<uint8_t>(CS.expr(I).Kind);
  }
}

ExprId BidirectionalSolver::varNode(VarId V) {
  if (V >= VarNode.size())
    VarNode.resize(std::max<size_t>(CS.numVars(), V + 1), InvalidExpr);
  if (VarNode[V] == InvalidExpr)
    VarNode[V] = CS.var(V);
  return VarNode[V];
}

ExprId BidirectionalSolver::canonicalize(ExprId E) {
  const Expr &Ex = CS.expr(E);
  switch (Ex.Kind) {
  case ExprKind::Var:
    return varNode(rep(Ex.V));
  case ExprKind::Cons: {
    std::vector<VarId> Args;
    Args.reserve(Ex.Args.size());
    bool Changed = false;
    for (VarId A : Ex.Args) {
      VarId R = rep(A);
      Changed |= R != A;
      Args.push_back(R);
    }
    return Changed ? CS.cons(Ex.C, std::move(Args)) : E;
  }
  case ExprKind::Proj: {
    VarId R = rep(Ex.V);
    return R == Ex.V ? E : CS.proj(Ex.C, Ex.Index, R);
  }
  }
  return E;
}

void BidirectionalSolver::collapseCycles(size_t FirstNew) {
  // Collapse strongly connected components of *identity-annotated
  // variable-variable* surface constraints. Only identity cycles may
  // be collapsed: an annotated cycle X ⊆^f Y ⊆ X equates X and Y only
  // up to annotation shifts.
  const std::vector<Constraint> &Cons = CS.constraints();
  AnnId Identity = CS.domain().identity();

  std::vector<std::vector<uint32_t>> Adj(CS.numVars());
  bool Any = false;
  for (size_t I = FirstNew; I != Cons.size(); ++I) {
    if (CS.isRetracted(static_cast<uint32_t>(I)))
      continue;
    const Expr &L = CS.expr(Cons[I].Lhs);
    const Expr &R = CS.expr(Cons[I].Rhs);
    if (Cons[I].Ann != Identity || L.Kind != ExprKind::Var ||
        R.Kind != ExprKind::Var)
      continue;
    Adj[L.V].push_back(R.V);
    Any = true;
  }
  if (!Any)
    return;

  // Iterative Tarjan SCC.
  uint32_t N = CS.numVars();
  std::vector<uint32_t> Index(N, ~0u), Low(N, 0);
  std::vector<bool> OnStack(N, false);
  std::vector<uint32_t> Stack;
  uint32_t NextIndex = 0;

  struct Frame {
    uint32_t V;
    size_t Child;
  };
  std::vector<Frame> Frames;

  VarReps.grow(N);
  for (uint32_t Root = 0; Root != N; ++Root) {
    if (Index[Root] != ~0u)
      continue;
    Frames.push_back({Root, 0});
    while (!Frames.empty()) {
      Frame &F = Frames.back();
      uint32_t V = F.V;
      if (F.Child == 0) {
        Index[V] = Low[V] = NextIndex++;
        Stack.push_back(V);
        OnStack[V] = true;
      }
      if (F.Child < Adj[V].size()) {
        uint32_t W = Adj[V][F.Child++];
        if (Index[W] == ~0u) {
          Frames.push_back({W, 0});
        } else if (OnStack[W]) {
          Low[V] = std::min(Low[V], Index[W]);
        }
        continue;
      }
      // All children done.
      if (Low[V] == Index[V]) {
        uint32_t First = ~0u;
        uint32_t Merged = 0;
        while (true) {
          uint32_t W = Stack.back();
          Stack.pop_back();
          OnStack[W] = false;
          if (First == ~0u) {
            First = W;
          } else {
            VarReps.merge(First, W);
            ++Stats.CollapsedVars;
            ++Merged;
            // The pair is an unordered "same class" fact for the
            // checker; whichever of the two the union-find elected
            // representative is irrelevant to it.
            if (Proof)
              Proof->collapse(W, First);
          }
          if (W == V)
            break;
        }
        if (Merged && trace::enabled())
          trace::instant("solver.cycle.collapse", First, Merged);
      }
      Frames.pop_back();
      if (!Frames.empty()) {
        Frame &Parent = Frames.back();
        Low[Parent.V] = std::min(Low[Parent.V], Low[V]);
      }
    }
  }
}

void BidirectionalSolver::ingest(const Constraint &C, uint32_t Idx) {
  // A retracted constraint contributes nothing — no surface edge, no
  // watcher. NumIngested still advances past it (the caller's loop),
  // so a fresh solve of an edited system and a warm-boot replay of
  // "retract N;" statements see the same prefix semantics.
  if (CS.isRetracted(Idx))
    return;
  ExprId L = canonicalize(C.Lhs);
  ExprId R = canonicalize(C.Rhs);
  if (Proof)
    Proof->constraint(Idx, C, L, R);
  // By value: varNode() below may intern a fresh var expr, and the
  // interning table can reallocate under any reference into it.
  const Expr LE = CS.expr(L);

  if (LE.Kind != ExprKind::Proj) {
    if (NeedProv)
      CurProv = {EdgeProv::Rule::Surface, Idx};
    addEdge(L, R, C.Ann);
    return;
  }

  // Projection constraint c^-i(Y) ⊆^g Z: register a watcher on Y and
  // replay the constructor lower bounds Y already has. (LE.V and RE.V
  // are representatives: canonicalize rewrote them above.)
  const Expr RE = CS.expr(R);
  assert(RE.Kind == ExprKind::Var && "checked by ConstraintSystem::add");
  ExprId YNode = varNode(LE.V);
  growTo(YNode);
  Watchers[YNode].push_back({LE.C, LE.Index, RE.V, C.Ann, Idx});

  // Snapshot by count: addEdge below appends, but appends never
  // invalidate an in-flight forEach (support/Adjacency.h).
  Preds.forEach(YNode, [&](ExprId Src, AnnId F) {
    const Expr &SE = CS.expr(Src);
    if (SE.Kind != ExprKind::Cons || SE.C != LE.C)
      return;
    VarId Arg = SE.Args[LE.Index]; // before varNode can invalidate SE
    ++Stats.ProjectionSteps;
    ++Stats.ComposeCalls;
    if (trace::enabled())
      trace::instant("solver.projection", Src, YNode);
    if (NeedProv)
      CurProv = {EdgeProv::Rule::Projection, Idx, Edge{Src, YNode, F}};
    addEdge(varNode(Arg), varNode(RE.V), CS.domain().compose(C.Ann, F));
  });
}

void BidirectionalSolver::insertFreshEdge(ExprId Src, ExprId Dst,
                                          AnnId Ann) {
  if (Options.FilterUseless && CS.domain().isUseless(Ann)) {
    ++Stats.UselessFiltered;
    return;
  }
  ++Stats.EdgesInserted;
  if (trace::enabled())
    trace::instant("solver.edge.insert", Src, Dst);
  // Budgets are enforced between worklist pops (see addEdge): an edge
  // that passed dedup is always inserted, so the dedup tables and the
  // arena never disagree across an interrupt. The test-only failpoint
  // requests an interrupt here but still defers it to the pop loop.
  if (failpoints::armedAny() &&
      failpoints::hit(failpoints::Point::SolverEdgeInsert))
    ForcedInterrupt = Status::MemoryLimit;
  growTo(std::max(Src, Dst));

  constexpr uint8_t KCons = static_cast<uint8_t>(ExprKind::Cons);
  if (NodeKind[Src] == KCons && NodeKind[Dst] == KCons &&
      CS.expr(Src).C != CS.expr(Dst).C) {
    // Rule 2: constructor mismatch; manifestly inconsistent.
    Conflicts.push_back({Src, Dst, Ann});
    if (Options.TrackProvenance)
      ConflictProvs.push_back(CurProv);
    if (Proof)
      emitProofEdge(/*IsConflict=*/true, Src, Dst, Ann);
    return;
  }

  Succs.append(Src, Dst, Ann);
  Preds.append(Dst, Src, Ann);
  EdgeArena.push_back({Src, Dst, Ann});
  if (Options.TrackProvenance) {
    EdgeProvs.push_back(CurProv);
    if (Options.Incremental) {
      // Retraction indexes: register this triple and resolve the
      // premise triples to their arena indices while they are O(1)
      // lookups (premises are always already-inserted edges).
      uint32_t I = static_cast<uint32_t>(EdgeArena.size() - 1);
      registerProvEdge(Src, Dst, Ann, I);
      ProvPar1.push_back(provEdgeIndex(CurProv.P1));
      ProvPar2.push_back(provEdgeIndex(CurProv.P2));
    }
  }
  if (Proof)
    emitProofEdge(/*IsConflict=*/false, Src, Dst, Ann);
}

void BidirectionalSolver::decompose(const Edge &E) {
  // By value: varNode() below may intern fresh var exprs and
  // reallocate the expr table (see ingest).
  const Expr L = CS.expr(E.Src);
  const Expr R = CS.expr(E.Dst);
  assert(L.C == R.C && "mismatch handled at insertion");
  ++Stats.DecomposeSteps;
  if (trace::enabled())
    trace::instant("solver.decompose", E.Src, E.Dst);
  if (NeedProv)
    CurProv = {EdgeProv::Rule::Decompose, ~0u, E};
  for (size_t I = 0; I != L.Args.size(); ++I)
    addEdge(varNode(L.Args[I]), varNode(R.Args[I]), E.Ann);
  if (addFnVarConstraint(L.Alpha, E.Ann, R.Alpha) && Proof)
    Proof->fnvar(L.Alpha, E.Ann, R.Alpha, {E.Src, E.Dst, E.Ann});
}

void BidirectionalSolver::process(const Edge &E) {
  const AnnotationDomain &D = CS.domain();
  const bool Track = NeedProv;
  // One-byte kind loads; the full Expr records are only pulled in on
  // the rare constructor paths (decompose, watcher match).
  constexpr uint8_t KCons = static_cast<uint8_t>(ExprKind::Cons);
  constexpr uint8_t KVar = static_cast<uint8_t>(ExprKind::Var);
  uint8_t SrcKind = NodeKind[E.Src];
  uint8_t DstKind = NodeKind[E.Dst];

  if (SrcKind == KCons && DstKind == KCons) {
    decompose(E);
    ++SuccDone[E.Src];
    ++PredDone[E.Dst];
    return;
  }

  // The transitive rule scans only the processed prefix of the
  // adjacent list (see SuccDone/PredDone in Solver.h): the join of a
  // 2-path is performed by whichever edge is processed later, exactly
  // once. Iteration bounded by a prefix is safe against mid-loop
  // appends (support/Adjacency.h).
  if (DstKind == KVar) {
    // Transitive rule forward: E then (Dst ⊆^g S) gives compose(g,
    // E.Ann) with g varying — hoist the right-operand row when the
    // domain has a dense table (Theorem 2.1's table lookup without
    // the per-iteration virtual call and row multiply).
    const AnnId *Row = D.composeRowRhs(E.Ann);
    uint32_t Deg = SuccDone[E.Dst];
    Stats.ComposeCalls += Deg;
    // Aggregated per scan, not per join: an event inside the chunk
    // loops would put a flag load in the innermost hot path.
    if (trace::enabled() && Deg)
      trace::instant("solver.compose", Deg, E.Dst);
    // Prefetch pass first: the dedup probes of one chunk are
    // independent, so their cache misses overlap instead of
    // serializing (the probe stream has no locality). Only worth it
    // when the composed annotation is a table lookup and the dedup
    // table has outgrown the caches.
    bool Pf = Row && EdgeSeen.prefetchWorthwhile();
    Succs.forEachChunks(
        E.Dst, Deg, [&](const AdjacencyLists::Chunk &Ch, uint32_t N) {
          if (Pf)
            for (uint32_t I = 0; I != N; ++I)
              EdgeSeen.prefetch(E.Src, Ch.Peers[I], Row[Ch.Anns[I]]);
          for (uint32_t I = 0; I != N; ++I) {
            if (Track)
              CurProv = {EdgeProv::Rule::Transitive, ~0u, E,
                         Edge{E.Dst, Ch.Peers[I], Ch.Anns[I]}};
            addEdge(E.Src, Ch.Peers[I],
                    Row ? Row[Ch.Anns[I]] : D.compose(Ch.Anns[I], E.Ann));
          }
        });
    // A self-loop pairs with itself, and neither processing event sees
    // the other in a processed prefix — join it here explicitly.
    if (E.Src == E.Dst) {
      ++Stats.ComposeCalls;
      if (Track)
        CurProv = {EdgeProv::Rule::Transitive, ~0u, E, E};
      addEdge(E.Src, E.Dst, Row ? Row[E.Ann] : D.compose(E.Ann, E.Ann));
    }
    // Projection rule: new constructor lower bound meets watchers.
    if (SrcKind == KCons && !Watchers[E.Dst].empty()) {
      const Expr SE = CS.expr(E.Src); // by value: varNode may intern
      for (size_t I = 0, N = Watchers[E.Dst].size(); I != N; ++I) {
        Watcher W = Watchers[E.Dst][I];
        if (W.C != SE.C)
          continue;
        ++Stats.ProjectionSteps;
        ++Stats.ComposeCalls;
        if (trace::enabled())
          trace::instant("solver.projection", E.Src, E.Dst);
        if (Track)
          CurProv = {EdgeProv::Rule::Projection, W.ConsIdx, E};
        addEdge(varNode(SE.Args[W.Index]), varNode(W.Target),
                Row ? Row[W.Ann] : D.compose(W.Ann, E.Ann));
      }
    }
  }

  if (SrcKind == KVar) {
    // Transitive rule backward: (P ⊆^g Src) then E gives
    // compose(E.Ann, g) — the left-operand row.
    const AnnId *Row = D.composeRowLhs(E.Ann);
    uint32_t Deg = PredDone[E.Src];
    Stats.ComposeCalls += Deg;
    if (trace::enabled() && Deg)
      trace::instant("solver.compose", Deg, E.Src);
    bool Pf = Row && EdgeSeen.prefetchWorthwhile();
    Preds.forEachChunks(
        E.Src, Deg, [&](const AdjacencyLists::Chunk &Ch, uint32_t N) {
          if (Pf)
            for (uint32_t I = 0; I != N; ++I)
              EdgeSeen.prefetch(Ch.Peers[I], E.Dst, Row[Ch.Anns[I]]);
          for (uint32_t I = 0; I != N; ++I) {
            if (Track)
              CurProv = {EdgeProv::Rule::Transitive, ~0u,
                         Edge{Ch.Peers[I], E.Src, Ch.Anns[I]}, E};
            addEdge(Ch.Peers[I], E.Dst,
                    Row ? Row[Ch.Anns[I]] : D.compose(E.Ann, Ch.Anns[I]));
          }
        });
  }

  // E is the next unprocessed entry of Succs[Src] and Preds[Dst]
  // (appends and processing both follow arena order), so the prefixes
  // extend by exactly this edge.
  ++SuccDone[E.Src];
  ++PredDone[E.Dst];
}

bool BidirectionalSolver::addFnVarConstraint(FnVarId From, AnnId Fn,
                                             FnVarId To) {
  if (!FnVarSeen.insert(From, To, Fn))
    return false;
  FnVarCons.push_back({From, Fn, To});
  ++Stats.FnVarConstraints;
  FnVarSolFresh = false;
  return true;
}

BidirectionalSolver::Status
BidirectionalSolver::governanceCheck(std::chrono::steady_clock::time_point Start) {
  ++Stats.BudgetChecks;
  if (trace::enabled())
    trace::instant("solver.governance", Stats.EdgesInserted,
                   pendingEdges());
  if (observe::metricsEnabled()) {
    // Point-in-time occupancy at the governance cadence: cheap enough
    // to sample every check, and mid-solve snapshots see live values.
    MetricsRegistry &M = MetricsRegistry::global();
    M.gauge("solver.pending_edges").set(pendingEdges());
    M.gauge("solver.dedup_bytes").set(EdgeSeen.memoryBytes());
    M.gauge("solver.monoid_size").set(CS.domain().size());
  }
  if (double Every = observe::progressEverySeconds(); Every > 0) {
    auto Now = std::chrono::steady_clock::now();
    if (LastProgress.time_since_epoch().count() == 0) {
      LastProgress = Now; // arm on first check; report from then on
    } else if (std::chrono::duration<double>(Now - LastProgress).count() >=
               Every) {
      LastProgress = Now;
      std::fprintf(
          stderr,
          "[rasc] edges=%llu dup=%llu pending=%zu compose=%llu "
          "mem=%.1fMiB\n",
          static_cast<unsigned long long>(Stats.EdgesInserted),
          static_cast<unsigned long long>(Stats.EdgesDropped),
          pendingEdges(),
          static_cast<unsigned long long>(Stats.ComposeCalls),
          static_cast<double>(memoryBytes()) / (1024.0 * 1024.0));
    }
  }
  if (Options.CancelFlag &&
      Options.CancelFlag->load(std::memory_order_relaxed))
    return Status::Cancelled;
  if (Options.DeadlineSeconds > 0 &&
      secondsSince(Start) >= Options.DeadlineSeconds)
    return Status::Deadline;
  if (Options.MaxMemoryBytes && memoryBytes() > Options.MaxMemoryBytes)
    return Status::MemoryLimit;
  if (Options.GroupMemory) {
    // Publish this solver's delta into the batch's shared cell.
    // Deltas can be negative (capacity rarely shrinks, but can);
    // unsigned wrap-around makes fetch_add(cur - last) correct either
    // way. Relaxed suffices: the total is an approximate budget, not
    // a synchronization point. A new cell restarts the chain: the
    // first publish contributes this solver's full footprint.
    if (Options.GroupMemory != LastGroupCell) {
      LastGroupCell = Options.GroupMemory;
      LastPublishedMemory = 0;
    }
    uint64_t Cur = memoryBytes();
    uint64_t Total = Options.GroupMemory->fetch_add(
                         Cur - LastPublishedMemory,
                         std::memory_order_relaxed) +
                     (Cur - LastPublishedMemory);
    LastPublishedMemory = Cur;
    if (Options.MaxGroupMemoryBytes && Total > Options.MaxGroupMemoryBytes)
      return Status::MemoryLimit;
  }
  if (failpoints::armedAny()) {
    if (failpoints::hit(failpoints::Point::SolverCancel))
      return Status::Cancelled;
    if (failpoints::hit(failpoints::Point::SolverDeadline))
      return Status::Deadline;
  }
  return Status::Solved;
}

BidirectionalSolver::Status
BidirectionalSolver::runClosure(std::chrono::steady_clock::time_point Start) {
  // The arena is the worklist: edges enter once at insertion, the
  // head cursor drains in FIFO order. On any interrupt the tail stays
  // queued and the processed-prefix counters are exact, so a later
  // call continues from precisely this point.
  //
  // Every budget is enforced here, between pops — never inside
  // process() — so an interrupted closure is always at an edge
  // boundary (see addEdge in Solver.h). The edge and step budgets are
  // two integer compares per pop; the expensive checks (clock read,
  // atomic load, memory walk, failpoints) run every
  // GovernanceCheckInterval pops via governanceCheck().
  const uint32_t Interval =
      Options.GovernanceCheckInterval ? Options.GovernanceCheckInterval : 1;
  uint32_t UntilSlow = Interval;

  while (PendingHead != EdgeArena.size()) {
    if (Options.MaxEdges != 0 && Stats.EdgesInserted > Options.MaxEdges)
      return Status::EdgeLimit;
    if (Options.MaxComposeSteps != 0 &&
        Stats.ComposeCalls >= Options.MaxComposeSteps)
      return Status::StepLimit;
    if (ForcedInterrupt) {
      Status S = *ForcedInterrupt;
      ForcedInterrupt.reset();
      return S;
    }
    if (--UntilSlow == 0) {
      UntilSlow = Interval;
      Status S = governanceCheck(Start);
      if (S != Status::Solved)
        return S;
    }
    Edge E = EdgeArena[PendingHead++]; // by value: process() appends
    if (trace::enabled())
      trace::instant("solver.pop", E.Src, E.Dst);
    process(E);
  }
  // A failpoint that fired during the worklist's final fan-out has
  // nothing left to interrupt; don't leak it into the next solve().
  ForcedInterrupt.reset();
  return Status::Solved;
}

BidirectionalSolver::Status BidirectionalSolver::solve() {
  RASC_TRACE_SCOPE("solver.solve");
  auto Start = std::chrono::steady_clock::now();
  // Metrics are recorded as deltas over this call so repeated solves
  // (resumes, online re-solves) accumulate instead of double-counting.
  const SolverStats Before = Stats;

  if (isInterrupted(Stat))
    ++Stats.Resumes;

  // Proof logging opens before cycle elimination so the collapse
  // records land in the log ahead of anything that depends on the
  // merged representatives. NeedProv then arms CurProv population for
  // this solve: provenance retention *or* a live writer.
  openProofLogIfRequested();
  NeedProv = Options.TrackProvenance || Proof != nullptr;

  // Cycle elimination only considers the first batch: merging
  // variables after edges exist would orphan bounds recorded on the
  // pre-merge nodes.
  if (Options.CycleElimination && NumIngested == 0)
    collapseCycles(0);

  const std::vector<Constraint> &Cons = CS.constraints();
  {
    RASC_TRACE_SCOPE("solver.ingest", Cons.size() - NumIngested);
    while (NumIngested < Cons.size()) {
      uint32_t Idx = static_cast<uint32_t>(NumIngested);
      ingest(Cons[NumIngested++], Idx);
    }
  }

  Stats.IngestSeconds += secondsSince(Start);
  auto ClosureStart = std::chrono::steady_clock::now();

  Status S;
  {
    RASC_TRACE_SCOPE("solver.closure", pendingEdges());
    S = runClosure(Start);
  }

  Stats.ClosureSeconds += secondsSince(ClosureStart);
  auto FnVarStart = std::chrono::steady_clock::now();

  FnVarSolFresh = false;
  if (Options.EagerFunctionVars && S == Status::Solved) {
    RASC_TRACE_SCOPE("solver.fnvar");
    runEagerFnVars();
  }

  Stats.FnVarSeconds += secondsSince(FnVarStart);

  if (S == Status::Solved) {
    Stat = Conflicts.empty() ? Status::Solved : Status::Inconsistent;
  } else {
    ++Stats.Interrupts;
    Stat = S;
  }

  // Proof trailer: even an interrupted solve gets one, so the checker
  // can certify the closed prefix. An emission failure here (FsyncFail
  // included) degrades to unproven like any other write failure.
  if (Proof) {
    Proof->finish(proofStatusCode(Stat), PendingHead, NumIngested);
    if (!Proof->ok())
      abandonProof(nullptr);
  }
  if (observe::metricsEnabled())
    recordSolveMetrics(Before);
  return Stat;
}

void BidirectionalSolver::recordSolveMetrics(
    const SolverStats &Before) const {
  MetricsRegistry &M = MetricsRegistry::global();
  uint64_t Ins = Stats.EdgesInserted - Before.EdgesInserted;
  uint64_t Dup = Stats.EdgesDropped - Before.EdgesDropped;
  M.counter("solver.edges_inserted").add(Ins);
  M.counter("solver.edges_deduped").add(Dup);
  M.counter("solver.useless_filtered")
      .add(Stats.UselessFiltered - Before.UselessFiltered);
  M.counter("solver.compose_calls")
      .add(Stats.ComposeCalls - Before.ComposeCalls);
  M.counter("solver.decompose_steps")
      .add(Stats.DecomposeSteps - Before.DecomposeSteps);
  M.counter("solver.projection_steps")
      .add(Stats.ProjectionSteps - Before.ProjectionSteps);
  M.counter("solver.proof_records")
      .add(Stats.ProofRecords - Before.ProofRecords);
  M.counter("solver.proof_bytes").add(Stats.ProofBytes - Before.ProofBytes);
  auto Ns = [](double Seconds) {
    return static_cast<uint64_t>(Seconds * 1e9);
  };
  M.counter("solver.ingest_ns")
      .add(Ns(Stats.IngestSeconds - Before.IngestSeconds));
  M.counter("solver.closure_ns")
      .add(Ns(Stats.ClosureSeconds - Before.ClosureSeconds));
  M.counter("solver.fnvar_ns")
      .add(Ns(Stats.FnVarSeconds - Before.FnVarSeconds));
  M.gauge("solver.monoid_size").set(CS.domain().size());
  M.gauge("solver.dedup_bytes").set(EdgeSeen.memoryBytes());
  M.gauge("solver.memory_bytes").set(memoryBytes());
  if (Ins + Dup)
    M.gauge("solver.dedup_hit_rate_pct").set(100 * Dup / (Ins + Dup));
}

void BidirectionalSolver::openProofLogIfRequested() {
  if (Options.ProofLogPath.empty() || Proof || ProofDisabled)
    return;
  const bool Started = NumIngested != 0 || !EdgeArena.empty();
  if (Started) {
    // Rebuilding a started solver's log replays its derivations from
    // provenance, so the records must be complete and the solver
    // quiescent (an interrupted closure still owes derivations whose
    // positions a rebuilt log could not promise).
    if (!Options.TrackProvenance || EdgeProvs.size() != EdgeArena.size() ||
        ConflictProvs.size() != Conflicts.size() || isInterrupted(Stat) ||
        pendingEdges() != 0) {
      LastProofDiag = Diag(
          "proof log unavailable: enabling ProofLogPath on a started "
          "solver requires TrackProvenance from the first solve() and a "
          "quiescent (fully closed) state");
      ProofDisabled = true;
      ++Stats.ProofFailures;
      return;
    }
  }
  auto W = ProofLogWriter::open(
      Options.ProofLogPath, CS, Options.FilterUseless,
      Options.CycleElimination,
      ProofSinks{&Stats.ProofRecords, &Stats.ProofChunks,
                 &Stats.ProofBytes});
  if (!W) {
    LastProofDiag = W.error();
    ProofDisabled = true;
    ++Stats.ProofFailures;
    return;
  }
  Proof = std::move(*W);
  if (Started) {
    rebuildProofLog();
    if (Proof && !Proof->ok())
      abandonProof(nullptr);
  }
}

void BidirectionalSolver::rebuildProofLog() {
  // Collapses first: everything after them is phrased in
  // representatives.
  for (VarId V = 0; V != CS.numVars(); ++V) {
    VarId R = rep(V);
    if (R != V)
      Proof->collapse(V, R);
  }
  // Ingested (surviving) constraints, re-canonicalized — pure lookups:
  // every canonical form was interned at its original ingest under the
  // same representatives.
  for (uint32_t J = 0; J != NumIngested; ++J) {
    if (CS.isRetracted(J))
      continue;
    const Constraint &C = CS.constraints()[J];
    Proof->constraint(J, C, canonicalize(C.Lhs), canonicalize(C.Rhs));
  }

  // Edge replay order: the arena is derivation order, except that a
  // retraction's compaction can move a requeued parent behind a
  // surviving child — then a Kahn walk over the premise links
  // restores a premise-before-use order (index-order FIFO keeps it
  // near arena order and deterministic).
  const uint32_t E = static_cast<uint32_t>(EdgeArena.size());
  std::vector<uint32_t> Order(E);
  if (Stats.Retractions == 0 || ProvPar1.size() != E ||
      ProvPar2.size() != E) {
    for (uint32_t I = 0; I != E; ++I)
      Order[I] = I;
  } else {
    std::vector<uint32_t> Indeg(E, 0);
    std::vector<uint32_t> ChildHead(E, ~0u), ChildNext1(E, ~0u),
        ChildNext2(E, ~0u);
    for (uint32_t I = 0; I != E; ++I) {
      if (uint32_t P = ProvPar1[I]; P != ~0u) {
        ChildNext1[I] = ChildHead[P];
        ChildHead[P] = I;
        ++Indeg[I];
      }
      if (uint32_t P = ProvPar2[I]; P != ~0u && P != ProvPar1[I]) {
        ChildNext2[I] = ChildHead[P];
        ChildHead[P] = I;
        ++Indeg[I];
      }
    }
    std::vector<uint32_t> Queue;
    Queue.reserve(E);
    for (uint32_t I = 0; I != E; ++I)
      if (Indeg[I] == 0)
        Queue.push_back(I);
    size_t Head = 0, Done = 0;
    while (Head != Queue.size()) {
      uint32_t P = Queue[Head++];
      Order[Done++] = P;
      for (uint32_t C = ChildHead[P]; C != ~0u;
           C = ProvPar1[C] == P ? ChildNext1[C] : ChildNext2[C])
        if (--Indeg[C] == 0)
          Queue.push_back(C);
    }
    if (Done != E) {
      abandonProof("proof log rebuild failed: premise links do not "
                   "topologically order the arena");
      return;
    }
  }

  // Walk the edges; each fn-var constraint is emitted at its first
  // justifying constructor-constructor edge (the same "first
  // derivation decides" convention retract() uses).
  std::map<std::array<uint32_t, 3>, bool> FnPending;
  for (const FnVarConstraint &C : FnVarCons)
    FnPending[{C.From, C.Fn, C.To}] = true;
  constexpr uint8_t KCons = static_cast<uint8_t>(ExprKind::Cons);
  for (uint32_t K = 0; K != E && Proof->ok(); ++K) {
    const Edge &Ed = EdgeArena[Order[K]];
    const EdgeProv &P = EdgeProvs[Order[K]];
    Proof->edge(Ed.Src, Ed.Dst, Ed.Ann,
                static_cast<ProofLogWriter::Rule>(P.Kind), P.CIdx,
                {P.P1.Src, P.P1.Dst, P.P1.Ann},
                {P.P2.Src, P.P2.Dst, P.P2.Ann});
    if (!FnPending.empty() && Ed.Src < NodeKind.size() &&
        Ed.Dst < NodeKind.size() && NodeKind[Ed.Src] == KCons &&
        NodeKind[Ed.Dst] == KCons) {
      const Expr &L = CS.expr(Ed.Src);
      const Expr &R = CS.expr(Ed.Dst);
      auto It = FnPending.find({L.Alpha, Ed.Ann, R.Alpha});
      if (It != FnPending.end()) {
        Proof->fnvar(L.Alpha, Ed.Ann, R.Alpha, {Ed.Src, Ed.Dst, Ed.Ann});
        FnPending.erase(It);
      }
    }
  }
  if (!FnPending.empty()) {
    abandonProof("proof log rebuild failed: function-variable "
                 "constraint has no surviving deriving edge");
    return;
  }
  for (size_t I = 0; I != Conflicts.size() && Proof->ok(); ++I) {
    const EdgeProv &P = ConflictProvs[I];
    Proof->conflict(Conflicts[I].Src, Conflicts[I].Dst, Conflicts[I].Ann,
                    static_cast<ProofLogWriter::Rule>(P.Kind), P.CIdx,
                    {P.P1.Src, P.P1.Dst, P.P1.Ann},
                    {P.P2.Src, P.P2.Dst, P.P2.Ann});
  }
}

void BidirectionalSolver::emitProofEdge(bool IsConflict, ExprId Src,
                                        ExprId Dst, AnnId Ann) {
  auto R = static_cast<ProofLogWriter::Rule>(CurProv.Kind);
  ProofPremise P1{CurProv.P1.Src, CurProv.P1.Dst, CurProv.P1.Ann};
  ProofPremise P2{CurProv.P2.Src, CurProv.P2.Dst, CurProv.P2.Ann};
  if (IsConflict)
    Proof->conflict(Src, Dst, Ann, R, CurProv.CIdx, P1, P2);
  else
    Proof->edge(Src, Dst, Ann, R, CurProv.CIdx, P1, P2);
  // Degrade, never interrupt: the solve keeps its result, it just can
  // no longer produce a checkable artifact (lastProofDiag says why).
  if (!Proof->ok())
    abandonProof(nullptr);
}

void BidirectionalSolver::abandonProof(const char *Why) {
  if (Proof && Proof->diag())
    LastProofDiag = *Proof->diag();
  else if (Why)
    LastProofDiag = Diag(Why);
  Proof.reset();
  ProofDisabled = true;
  ++Stats.ProofFailures;
}

uint32_t BidirectionalSolver::provEdgeIndex(const Edge &E) const {
  if (E.Src == InvalidExpr)
    return ~0u;
  const uint32_t *Pid =
      ProvPairIds.lookup((static_cast<uint64_t>(E.Src) << 32) | E.Dst);
  if (!Pid)
    return ~0u;
  const uint32_t *Idx =
      ProvTriples.lookup((static_cast<uint64_t>(*Pid) << 32) | E.Ann);
  return Idx ? *Idx : ~0u;
}

void BidirectionalSolver::registerProvEdge(ExprId Src, ExprId Dst,
                                           AnnId Ann, uint32_t I) {
  auto [Pid, Fresh] = ProvPairIds.findOrInsert(
      (static_cast<uint64_t>(Src) << 32) | Dst, NextProvPairId);
  if (Fresh)
    ++NextProvPairId;
  ProvTriples.findOrInsert((static_cast<uint64_t>(Pid) << 32) | Ann, I);
}

void BidirectionalSolver::rebuildProvIndex() {
  ProvPairIds.clear();
  ProvTriples.clear();
  NextProvPairId = 0;
  const uint32_t E = static_cast<uint32_t>(EdgeArena.size());
  ProvPairIds.reserve(E);
  ProvTriples.reserve(E);
  // Two passes: a retraction compaction can move a requeued parent
  // *behind* its surviving child in the arena, so every triple must
  // be registered before any premise is resolved.
  for (uint32_t I = 0; I != E; ++I)
    registerProvEdge(EdgeArena[I].Src, EdgeArena[I].Dst, EdgeArena[I].Ann,
                     I);
  ProvPar1.assign(E, ~0u);
  ProvPar2.assign(E, ~0u);
  for (uint32_t I = 0; I != E; ++I) {
    ProvPar1[I] = provEdgeIndex(EdgeProvs[I].P1);
    ProvPar2[I] = provEdgeIndex(EdgeProvs[I].P2);
  }
}

/// Delta re-solve (DESIGN.md §11), in five steps:
///
/// 1. *Cone.* The parent links are inverted into a transient children
///    index and the derivation cone of the retracted constraint's
///    facts — surface/projection records with its index, plus
///    everything whose *first* derivation rests on a cone edge — is
///    collected by BFS. Conflicts are checked against the same cone
///    through their premise triples.
///
/// 2. *Affected set and frontier.* Every endpoint of a removed edge
///    or conflict is "affected". A surviving edge is requeued when it
///    touches an affected node (it may hold an alternative transitive
///    derivation of a removed edge: both endpoints of that edge are
///    affected, so both premises of any 2-path deriving it requeue),
///    when it is a constructor-constructor edge one of whose argument
///    pairs or function-variable facts was removed (alternative
///    decompose), or when it is a constructor lower bound of a
///    watched variable and a surviving watcher's output was removed
///    (alternative projection).
///
/// 3. *Erase.* Cone edges and dead conflicts release their dedup
///    bits (backward-shift/flag-clear erase in the backends; see
///    support/FlatSet.h, support/AnnSet.h) and dead watchers of a
///    retracted projection constraint are dropped.
///
/// 4. *Compact.* The arena keeps survivors in derivation order with
///    the frontier moved to the pending tail; adjacency is rebuilt
///    from the compacted arena into the retained chunk arenas, the
///    exactly-once processed-prefix counters are recounted over the
///    new processed prefix, and the retraction indexes are rebuilt.
///
/// 5. *Re-ingest and re-close.* Surviving surface constraints are
///    re-added (a dedup bit first claimed by a removed derivation
///    must not orphan a still-asserted surface fact) and solve()
///    drains the frontier to the fixpoint a fresh solve of the edited
///    system reaches — differentially tested and certified.
Expected<BidirectionalSolver::Status>
BidirectionalSolver::retract(uint32_t Idx) {
  if (!incrementalActive())
    return Diag("retract: requires SolverOptions::Incremental and "
                "SolverOptions::TrackProvenance from the first solve()");
  if (Idx >= CS.constraints().size())
    return Diag("retract: constraint index " + std::to_string(Idx) +
                " out of range (have " +
                std::to_string(CS.constraints().size()) + ")");
  if (!CS.isRetracted(Idx))
    return Diag("retract: constraint " + std::to_string(Idx) +
                " must be flagged via ConstraintSystem::retract first");
  if (isInterrupted(Stat) || pendingEdges() != 0)
    return Diag("retract: solver must be quiescent (Solved or "
                "Inconsistent with an empty worklist); resume the "
                "interrupted solve first");
  if (EdgeProvs.size() != EdgeArena.size() ||
      ConflictProvs.size() != Conflicts.size() ||
      ProvPar1.size() != EdgeArena.size() ||
      ProvPar2.size() != EdgeArena.size())
    return Diag("retract: provenance records are incomplete — "
                "Incremental and TrackProvenance must both be on from "
                "the first solve()");
  const Constraint &RC = CS.constraints()[Idx];
  if (Stats.CollapsedVars > 0 && RC.Ann == CS.domain().identity() &&
      CS.expr(RC.Lhs).Kind == ExprKind::Var &&
      CS.expr(RC.Rhs).Kind == ExprKind::Var)
    return Diag("retract: cannot retract an identity variable-variable "
                "constraint after cycle elimination merged variables "
                "(representatives cannot be un-merged); solve with "
                "SolverOptions::CycleElimination = false to keep such "
                "constraints retractable");

  ++Stats.Retractions;
  if (Idx >= NumIngested)
    return solve(); // never ingested: the system flag alone suffices
                    // (and the proof log, having never mentioned the
                    // constraint, stays valid)

  // An ingested retraction invalidates every log emitted so far: its
  // records mention derivations about to be erased. Seal the file as
  // Unproven, drop the writer, and clear the request — re-setting
  // ProofLogPath after this retract rebuilds a fresh log from the
  // post-retract state (ProofDisabled latches only for I/O failures).
  if (Proof) {
    Proof->finish(ProofLogWriter::StUnproven, PendingHead, NumIngested);
    abandonProof("proof log abandoned: retract() erases derivations the "
                 "log already recorded; set ProofLogPath again to "
                 "rebuild a post-retract log");
    Options.ProofLogPath.clear();
    ProofDisabled = false;
  }

  RASC_TRACE_SCOPE("solver.retract", Idx, EdgeArena.size());
  const uint32_t OldE = static_cast<uint32_t>(EdgeArena.size());
  constexpr uint8_t KCons = static_cast<uint8_t>(ExprKind::Cons);
  constexpr uint8_t KVar = static_cast<uint8_t>(ExprKind::Var);

  // Step 1: derivation cone. Children index: per-parent intrusive
  // lists threaded through the two per-child slots (a child links
  // into at most two parents' lists).
  std::vector<uint32_t> ChildHead(OldE, ~0u);
  std::vector<uint32_t> ChildNext1(OldE, ~0u);
  std::vector<uint32_t> ChildNext2(OldE, ~0u);
  for (uint32_t I = 0; I != OldE; ++I) {
    if (uint32_t P = ProvPar1[I]; P != ~0u) {
      ChildNext1[I] = ChildHead[P];
      ChildHead[P] = I;
    }
    if (uint32_t P = ProvPar2[I]; P != ~0u && P != ProvPar1[I]) {
      ChildNext2[I] = ChildHead[P];
      ChildHead[P] = I;
    }
  }
  std::vector<uint8_t> InCone(OldE, 0);
  std::vector<uint32_t> Work;
  auto isSeed = [&](const EdgeProv &P) {
    return (P.Kind == EdgeProv::Rule::Surface ||
            P.Kind == EdgeProv::Rule::Projection) &&
           P.CIdx == Idx;
  };
  for (uint32_t I = 0; I != OldE; ++I)
    if (isSeed(EdgeProvs[I])) {
      InCone[I] = 1;
      Work.push_back(I);
    }
  while (!Work.empty()) {
    uint32_t P = Work.back();
    Work.pop_back();
    for (uint32_t C = ChildHead[P]; C != ~0u;
         C = ProvPar1[C] == P ? ChildNext1[C] : ChildNext2[C])
      if (!InCone[C]) {
        InCone[C] = 1;
        Work.push_back(C);
      }
  }
  uint32_t ConeCount = 0;
  for (uint32_t I = 0; I != OldE; ++I)
    ConeCount += InCone[I];

  // Step 2a: affected nodes, split by side. RemovedSrc[N] / RemovedDst[N]
  // hold "some removed fact had N as its source / destination" — the
  // direction matters because each re-derivation rule consumes its
  // premise on a known side (see Step 2b), and the one-sided sets keep
  // a retraction near a hub node from requeueing the hub's entire
  // unrelated neighborhood.
  std::vector<uint8_t> RemovedSrc(NodeKind.size(), 0);
  std::vector<uint8_t> RemovedDst(NodeKind.size(), 0);
  auto markRemoved = [&](ExprId Src, ExprId Dst) {
    if (Src < RemovedSrc.size())
      RemovedSrc[Src] = 1;
    if (Dst < RemovedDst.size())
      RemovedDst[Dst] = 1;
  };
  for (uint32_t I = 0; I != OldE; ++I)
    if (InCone[I])
      markRemoved(EdgeArena[I].Src, EdgeArena[I].Dst);

  // Conflicts resting on the cone (or asserted by the retracted
  // constraint itself) die with it; their endpoints count as affected
  // so surviving premises requeue and re-derive any conflict that is
  // still derivable.
  std::vector<uint8_t> ConflictGone(Conflicts.size(), 0);
  for (size_t I = 0; I != Conflicts.size(); ++I) {
    const EdgeProv &P = ConflictProvs[I];
    bool Gone = isSeed(P);
    if (!Gone && P.P1.Src != InvalidExpr) {
      uint32_t J = provEdgeIndex(P.P1);
      Gone = J != ~0u && InCone[J];
    }
    if (!Gone && P.P2.Src != InvalidExpr) {
      uint32_t J = provEdgeIndex(P.P2);
      Gone = J != ~0u && InCone[J];
    }
    if (!Gone)
      continue;
    ConflictGone[I] = 1;
    markRemoved(Conflicts[I].Src, Conflicts[I].Dst);
    EdgeSeen.erase(Conflicts[I].Src, Conflicts[I].Dst, Conflicts[I].Ann);
  }

  // Step 3 (watchers first: the frontier rules below must only see
  // surviving watchers): a retracted projection constraint takes its
  // watcher registrations with it.
  if (CS.expr(RC.Lhs).Kind == ExprKind::Proj)
    for (std::vector<Watcher> &WL : Watchers)
      WL.erase(std::remove_if(WL.begin(), WL.end(),
                              [&](const Watcher &W) {
                                return W.ConsIdx == Idx;
                              }),
               WL.end());

  // Function-variable constraints whose deriving decompose is in the
  // cone. The deriving edge of a fn-var fact is the first processed
  // constructor-constructor edge emitting its triple — recomputed
  // here (arena order is processing order).
  std::vector<uint8_t> FnGone(FnVarCons.size(), 0);
  FlatSet64 DroppedFnPairs;
  if (!FnVarCons.empty()) {
    std::map<std::array<uint32_t, 3>, uint32_t> FnIdx;
    for (uint32_t K = 0; K != FnVarCons.size(); ++K)
      FnIdx.emplace(std::array<uint32_t, 3>{FnVarCons[K].From,
                                            FnVarCons[K].Fn,
                                            FnVarCons[K].To},
                    K);
    for (uint32_t I = 0; I != OldE && !FnIdx.empty(); ++I) {
      const Edge &E = EdgeArena[I];
      if (NodeKind[E.Src] != KCons || NodeKind[E.Dst] != KCons)
        continue;
      const Expr &L = CS.expr(E.Src);
      const Expr &R = CS.expr(E.Dst);
      auto It = FnIdx.find({L.Alpha, E.Ann, R.Alpha});
      if (It == FnIdx.end())
        continue;
      if (InCone[I]) {
        FnGone[It->second] = 1;
        DroppedFnPairs.insert(
            (static_cast<uint64_t>(FnVarCons[It->second].From) << 32) |
            FnVarCons[It->second].To);
      }
      FnIdx.erase(It); // only the first derivation decides
    }
  }

  // Step 2b: frontier marking among survivors. Every removed fact that
  // is still derivable must be re-derivable by reprocessing some
  // frontier edge, and each rule pins which premise side suffices:
  //
  //  * Transitive: a removed U→W re-derivable as (U→V, V→W) only needs
  //    its *right* premise requeued — joins go through variable middle
  //    nodes, and process() on V→W scans the processed prefix of
  //    Preds[V], which holds every surviving left premise (two requeued
  //    premises meet by the usual later-edge-joins discipline). So the
  //    general rule is RemovedDst[E.Dst] alone; adding the src side
  //    would requeue hub out-neighborhoods for nothing.
  //  * Decompose / projection are single-premise: the premise edge is
  //    requeued iff some conclusion it would re-emit was removed,
  //    recognized by the conclusion's (src, dst) pair — a directional
  //    conjunction, not an either-endpoint test.
  //
  // Conflicts are conclusions of the same rules (insertFreshEdge turns
  // a constructor mismatch into a conflict instead of an edge), so the
  // markRemoved calls above cover their re-derivation too.
  std::vector<uint8_t> IsFrontier(OldE, 0);
  uint32_t FrontierCount = 0;
  for (uint32_t I = 0; I != OldE; ++I) {
    if (InCone[I])
      continue;
    const Edge &E = EdgeArena[I];
    uint8_t SK = NodeKind[E.Src];
    uint8_t DK = NodeKind[E.Dst];
    bool F = RemovedDst[E.Dst];
    if (!F && SK == KCons && DK == KCons) {
      // Alternative decompose: a removed argument edge or fn-var fact
      // this edge would re-derive.
      const Expr &L = CS.expr(E.Src);
      const Expr &R = CS.expr(E.Dst);
      for (size_t A = 0; !F && A != L.Args.size(); ++A) {
        ExprId SN = varNodeIfAny(rep(L.Args[A]));
        ExprId DN = varNodeIfAny(rep(R.Args[A]));
        F = SN != InvalidExpr && DN != InvalidExpr && RemovedSrc[SN] &&
            RemovedDst[DN];
      }
      if (!F && !DroppedFnPairs.empty())
        F = DroppedFnPairs.contains(
            (static_cast<uint64_t>(L.Alpha) << 32) | R.Alpha);
    }
    if (!F && SK == KCons && DK == KVar && E.Dst < Watchers.size() &&
        !Watchers[E.Dst].empty()) {
      // Alternative projection: a surviving watcher whose output from
      // this lower bound was removed.
      const Expr &SE = CS.expr(E.Src);
      for (const Watcher &W : Watchers[E.Dst]) {
        if (W.C != SE.C)
          continue;
        ExprId AN = varNodeIfAny(rep(SE.Args[W.Index]));
        ExprId TN = varNodeIfAny(rep(W.Target));
        if (AN != InvalidExpr && TN != InvalidExpr && RemovedSrc[AN] &&
            RemovedDst[TN]) {
          F = true;
          break;
        }
      }
    }
    if (F) {
      IsFrontier[I] = 1;
      ++FrontierCount;
    }
  }

  // Step 3: release the cone's dedup bits.
  for (uint32_t I = 0; I != OldE; ++I)
    if (InCone[I])
      EdgeSeen.erase(EdgeArena[I].Src, EdgeArena[I].Dst, EdgeArena[I].Ann);

  // Step 4: compaction. Conflicts first, then the arena — survivors
  // in derivation order, frontier moved to the pending tail.
  {
    size_t W = 0;
    for (size_t I = 0; I != Conflicts.size(); ++I) {
      if (ConflictGone[I])
        continue;
      Conflicts[W] = Conflicts[I];
      ConflictProvs[W] = ConflictProvs[I];
      ++W;
    }
    Conflicts.resize(W);
    ConflictProvs.resize(W);
  }
  {
    std::vector<Edge> NewArena;
    std::vector<EdgeProv> NewProvs;
    NewArena.reserve(OldE - ConeCount);
    NewProvs.reserve(OldE - ConeCount);
    for (int Pass = 0; Pass != 2; ++Pass)
      for (uint32_t I = 0; I != OldE; ++I) {
        if (InCone[I] || IsFrontier[I] != (Pass == 1))
          continue;
        NewArena.push_back(EdgeArena[I]);
        NewProvs.push_back(EdgeProvs[I]);
      }
    EdgeArena = std::move(NewArena);
    EdgeProvs = std::move(NewProvs);
    PendingHead = EdgeArena.size() - FrontierCount;
  }
  {
    size_t W = 0;
    for (size_t K = 0; K != FnVarCons.size(); ++K) {
      if (FnGone[K])
        continue;
      FnVarCons[W++] = FnVarCons[K];
    }
    FnVarCons.resize(W);
    Stats.FnVarConstraints = W;
    FnVarSeen =
        EdgeDedup(resolveDedupBackend(Options, CS.domain()),
                  CS.domain().size());
    for (const FnVarConstraint &C : FnVarCons)
      FnVarSeen.insert(C.From, C.To, C.Fn);
    EagerFnVarSol.clear();
    FnVarSolFresh = false;
  }
  Succs.clear();
  Preds.clear();
  for (const Edge &E : EdgeArena) {
    Succs.append(E.Src, E.Dst, E.Ann);
    Preds.append(E.Dst, E.Src, E.Ann);
  }
  std::fill(SuccDone.begin(), SuccDone.end(), 0);
  std::fill(PredDone.begin(), PredDone.end(), 0);
  for (size_t I = 0; I != PendingHead; ++I) {
    ++SuccDone[EdgeArena[I].Src];
    ++PredDone[EdgeArena[I].Dst];
  }
  rebuildProvIndex();

  // Step 5a: re-ingest surviving surface constraints. A constraint
  // whose surface triple was first claimed by a removed derivation
  // would otherwise lose its fact; re-adding is a dedup drop for the
  // (overwhelming) rest. Projection constraints are skipped — their
  // watchers survived above, and re-registering would double them.
  for (uint32_t J = 0; J != NumIngested; ++J) {
    if (CS.isRetracted(J))
      continue;
    const Constraint &C = CS.constraints()[J];
    ExprId L = canonicalize(C.Lhs);
    if (CS.expr(L).Kind == ExprKind::Proj)
      continue;
    ExprId R = canonicalize(C.Rhs);
    CurProv = {EdgeProv::Rule::Surface, J};
    addEdge(L, R, C.Ann);
  }

  Stats.RetractedEdges += ConeCount;
  Stats.RequeuedEdges += FrontierCount;
  if (trace::enabled())
    trace::instant("solver.retract", ConeCount, FrontierCount);

  // Step 5b: drain the frontier (plus any re-ingested edges) to the
  // post-retract fixpoint.
  return solve();
}

void BidirectionalSolver::resetToFresh() {
  const AnnotationDomain &D = CS.domain();
  Stats = SolverStats{};
  Stat = Status::Solved;
  NumIngested = 0;
  ForcedInterrupt.reset();
  EdgeProvs.clear();
  ConflictProvs.clear();
  CurProv = EdgeProv{};
  ProvPar1.clear();
  ProvPar2.clear();
  ProvPairIds = FlatMap64{};
  ProvTriples = FlatMap64{};
  NextProvPairId = 0;
  VarReps = UnionFind{};
  Succs = AdjacencyLists{};
  Preds = AdjacencyLists{};
  Watchers.clear();
  NodeKind.clear();
  SuccDone.clear();
  PredDone.clear();
  EdgeSeen = EdgeDedup(resolveDedupBackend(Options, D), D.size());
  EdgeArena.clear();
  PendingHead = 0;
  Conflicts.clear();
  FnVarCons.clear();
  FnVarSeen = EdgeDedup(resolveDedupBackend(Options, D), D.size());
  EagerFnVarSol.clear();
  FnVarSolFresh = false;
  VarNode.clear();
  Proof.reset();
  NeedProv = false;
  ProofDisabled = false;
  LastProofDiag.reset();
}

size_t BidirectionalSolver::memoryBytes() const {
  size_t N = EdgeArena.capacity() * sizeof(Edge) + Succs.memoryBytes() +
             Preds.memoryBytes() + EdgeSeen.memoryBytes() +
             FnVarSeen.memoryBytes() +
             Conflicts.capacity() * sizeof(SolvedEdge) +
             FnVarCons.capacity() * sizeof(FnVarConstraint) +
             NodeKind.capacity() +
             (SuccDone.capacity() + PredDone.capacity()) * sizeof(uint32_t) +
             VarNode.capacity() * sizeof(ExprId) +
             (EdgeProvs.capacity() + ConflictProvs.capacity()) *
                 sizeof(EdgeProv) +
             (ProvPar1.capacity() + ProvPar2.capacity()) *
                 sizeof(uint32_t) +
             ProvPairIds.memoryBytes() + ProvTriples.memoryBytes() +
             Watchers.capacity() * sizeof(std::vector<Watcher>);
  for (const std::vector<Watcher> &W : Watchers)
    N += W.capacity() * sizeof(Watcher);
  if (Proof)
    N += Proof->memoryBytes();
  return N;
}

std::vector<std::string>
BidirectionalSolver::conflictWitness(size_t I) const {
  std::vector<std::string> Out;
  // Provenance must have been tracked from the first solve(): the
  // records are parallel to the arena and the conflict list.
  if (I >= Conflicts.size() || ConflictProvs.size() != Conflicts.size() ||
      EdgeProvs.size() != EdgeArena.size())
    return Out;

  const AnnotationDomain &D = CS.domain();
  auto renderEdge = [&](const Edge &E) {
    return CS.exprToString(E.Src) + " <=[" + D.toString(E.Ann) + "] " +
           CS.exprToString(E.Dst);
  };
  auto renderCons = [&](uint32_t Idx) {
    const Constraint &C = CS.constraints()[Idx];
    return CS.exprToString(C.Lhs) + " <=[" + D.toString(C.Ann) + "] " +
           CS.exprToString(C.Rhs);
  };

  // Resolve premise triples against the arena (cold path; built per
  // query rather than carried on the hot insert path).
  using Triple = std::array<uint32_t, 3>;
  std::map<Triple, uint32_t> ByTriple;
  for (uint32_t J = 0, E = static_cast<uint32_t>(EdgeArena.size()); J != E;
       ++J) {
    const Edge &Ed = EdgeArena[J];
    ByTriple.emplace(Triple{Ed.Src, Ed.Dst, Ed.Ann}, J);
  }

  // Post-order walk of the derivation DAG: premises render before the
  // steps that use them, so the chain reads top-down from surface
  // constraints to the mismatch. Iterative — derivations can be as
  // deep as the arena.
  struct Frame {
    Edge E;
    const EdgeProv *P;
    bool Expanded;
  };
  std::set<Triple> Emitted;
  std::vector<Frame> Stack;
  const SolvedEdge &CE = Conflicts[I];
  Stack.push_back({Edge{CE.Src, CE.Dst, CE.Ann}, &ConflictProvs[I], false});

  while (!Stack.empty()) {
    if (!Stack.back().Expanded) {
      Stack.back().Expanded = true;
      const EdgeProv *P = Stack.back().P;
      // Push P2 first so P1's subtree renders first.
      for (const Edge *Prem : {&P->P2, &P->P1}) {
        if (Prem->Src == InvalidExpr)
          continue;
        Triple K{Prem->Src, Prem->Dst, Prem->Ann};
        if (Emitted.count(K))
          continue;
        auto It = ByTriple.find(K);
        if (It != ByTriple.end())
          Stack.push_back({*Prem, &EdgeProvs[It->second], false});
      }
      continue;
    }
    Frame Cur = Stack.back();
    Stack.pop_back();
    bool IsConflict = Stack.empty();
    if (!IsConflict &&
        !Emitted.insert(Triple{Cur.E.Src, Cur.E.Dst, Cur.E.Ann}).second)
      continue; // shared premise already rendered
    std::string Line;
    switch (Cur.P->Kind) {
    case EdgeProv::Rule::Surface:
      Line = "[surface #" + std::to_string(Cur.P->CIdx) + "] " +
             renderEdge(Cur.E);
      break;
    case EdgeProv::Rule::Transitive:
      Line = "[trans] " + renderEdge(Cur.E) + "  from  " +
             renderEdge(Cur.P->P1) + "  and  " + renderEdge(Cur.P->P2);
      break;
    case EdgeProv::Rule::Decompose:
      Line = "[decomp] " + renderEdge(Cur.E) + "  from  " +
             renderEdge(Cur.P->P1);
      break;
    case EdgeProv::Rule::Projection:
      Line = "[proj #" + std::to_string(Cur.P->CIdx) + " (" +
             renderCons(Cur.P->CIdx) + ")] " + renderEdge(Cur.E) +
             "  from  " + renderEdge(Cur.P->P1);
      break;
    }
    Out.push_back(std::move(Line));
    if (IsConflict)
      Out.push_back("[inconsistent] constructor mismatch: " +
                    renderEdge(Cur.E));
  }
  return Out;
}

Expected<std::vector<std::string>>
BidirectionalSolver::conflictWitnessEx(size_t I) const {
  if (ConflictProvs.size() != Conflicts.size() ||
      EdgeProvs.size() != EdgeArena.size())
    return Diag(
        "conflict witness unavailable: provenance was not recorded — "
        "enable SolverOptions::TrackProvenance before the first solve()");
  if (I >= Conflicts.size())
    return Diag("conflict witness: index " + std::to_string(I) +
                " out of range (have " + std::to_string(Conflicts.size()) +
                " conflicts)");
  return conflictWitness(I);
}

std::vector<std::pair<ExprId, AnnId>>
BidirectionalSolver::consLowerBounds(VarId V) const {
  std::vector<std::pair<ExprId, AnnId>> Out;
  ExprId Node = varNodeIfAny(rep(V));
  if (Node == InvalidExpr || Node >= Preds.numNodes())
    return Out;
  Preds.forEach(Node, [&](ExprId Src, AnnId Ann) {
    if (CS.expr(Src).Kind == ExprKind::Cons)
      Out.emplace_back(Src, Ann);
  });
  return Out;
}

std::vector<std::pair<ExprId, AnnId>>
BidirectionalSolver::consUpperBounds(VarId V) const {
  std::vector<std::pair<ExprId, AnnId>> Out;
  ExprId Node = varNodeIfAny(rep(V));
  if (Node == InvalidExpr || Node >= Succs.numNodes())
    return Out;
  Succs.forEach(Node, [&](ExprId Dst, AnnId Ann) {
    if (CS.expr(Dst).Kind == ExprKind::Cons)
      Out.emplace_back(Dst, Ann);
  });
  return Out;
}

std::vector<std::pair<VarId, AnnId>>
BidirectionalSolver::varSuccessors(VarId V) const {
  std::vector<std::pair<VarId, AnnId>> Out;
  ExprId Node = varNodeIfAny(rep(V));
  if (Node == InvalidExpr || Node >= Succs.numNodes())
    return Out;
  Succs.forEach(Node, [&](ExprId Dst, AnnId Ann) {
    const Expr &E = CS.expr(Dst);
    if (E.Kind == ExprKind::Var)
      Out.emplace_back(E.V, Ann);
  });
  return Out;
}

std::vector<AnnId>
BidirectionalSolver::constantAnnotations(ConsId C, VarId V) const {
  AnnSet Seen;
  for (auto [Src, Ann] : consLowerBounds(V)) {
    const Expr &E = CS.expr(Src);
    if (E.C == C && E.Args.empty())
      Seen.insert(Ann);
  }
  return Seen.takeMembers();
}

bool BidirectionalSolver::entailsConstant(ConsId C, VarId V) const {
  for (AnnId Ann : constantAnnotations(C, V))
    if (CS.domain().isAccepting(Ann))
      return true;
  return false;
}

std::vector<std::vector<AnnId>> BidirectionalSolver::fnVarLeastSolution(
    std::span<const std::pair<FnVarId, AnnId>> Seeds) const {
  uint32_t N = CS.numFnVars();
  std::vector<std::vector<AnnId>> Sol(N);
  FlatSet64 Seen;
  std::vector<std::pair<FnVarId, AnnId>> Work;
  size_t Head = 0;

  auto addFact = [&](FnVarId A, AnnId F) {
    if (A >= N)
      return;
    if (!Seen.insert((static_cast<uint64_t>(A) << 32) | F))
      return;
    Sol[A].push_back(F);
    Work.emplace_back(A, F);
  };

  for (auto [A, F] : Seeds)
    addFact(A, F);

  // Index triples by source variable.
  std::vector<std::vector<std::pair<AnnId, FnVarId>>> Index(N);
  for (const FnVarConstraint &C : FnVarCons)
    if (C.From < N)
      Index[C.From].emplace_back(C.Fn, C.To);

  const AnnotationDomain &D = CS.domain();
  while (Head != Work.size()) {
    auto [A, F] = Work[Head++];
    for (auto [Fn, To] : Index[A])
      addFact(To, D.compose(Fn, F));
  }
  for (std::vector<AnnId> &S : Sol)
    std::sort(S.begin(), S.end());
  return Sol;
}

const std::vector<std::vector<AnnId>> &
BidirectionalSolver::fnVarSolution() const {
  if (!FnVarSolFresh || EagerFnVarSol.size() != CS.numFnVars()) {
    std::vector<std::pair<FnVarId, AnnId>> Seeds;
    Seeds.reserve(CS.numFnVars());
    for (FnVarId A = 0, E = CS.numFnVars(); A != E; ++A)
      Seeds.emplace_back(A, CS.domain().identity());
    EagerFnVarSol = fnVarLeastSolution(Seeds);
    FnVarSolFresh = true;
  }
  return EagerFnVarSol;
}

void BidirectionalSolver::runEagerFnVars() { (void)fnVarSolution(); }

AtomReachability
BidirectionalSolver::atomReachability(ConsId Atom,
                                      bool AllowUnmatchedProjections) const {
  AtomReachability R;
  R.Solver = this;
  const AnnotationDomain &D = CS.domain();

  // Index: wrap steps. For each constructor lower bound ce ⊆^f Y with
  // ce = c(..., Xi, ...), an atom at Xi with class a occurs inside Y's
  // terms with class f ∘ a.
  struct WrapStep {
    VarId Outer;
    AnnId Fn;
    ConsId C;
  };
  std::unordered_map<VarId, std::vector<WrapStep>> WrapIdx;

  // Phase: false = "N" (unmatched projections still allowed), true =
  // "P" (under unmatched constructors). N steps precede P steps.
  std::vector<std::tuple<VarId, AnnId, bool>> Work;
  size_t Head = 0;
  FlatSet64 Seen;

  auto addFact = [&](VarId V, AnnId A, bool Phase,
                     AtomReachability::Provenance Prov) {
    uint64_t Key =
        (static_cast<uint64_t>(V) << 33) | (static_cast<uint64_t>(A) << 1) |
        (Phase ? 1 : 0);
    if (!Seen.insert(Key))
      return;
    uint64_t AnnKey = (static_cast<uint64_t>(V) << 32) | A;
    std::vector<AnnId> &Anns = R.Facts[V];
    if (std::find(Anns.begin(), Anns.end(), A) == Anns.end()) {
      Anns.push_back(A);
      R.Parents.emplace(AnnKey, Prov);
    }
    Work.emplace_back(V, A, Phase);
  };

  for (ExprId Node = 0; Node != Preds.numNodes(); ++Node) {
    const Expr &NE = CS.expr(Node);
    if (NE.Kind != ExprKind::Var)
      continue;
    Preds.forEach(Node, [&](ExprId Src, AnnId Ann) {
      const Expr &SE = CS.expr(Src);
      if (SE.Kind != ExprKind::Cons)
        return;
      if (SE.C == Atom && SE.Args.empty())
        addFact(NE.V, Ann, /*Phase=*/false, {});
      for (uint32_t I = 0; I != SE.Args.size(); ++I)
        WrapIdx[rep(SE.Args[I])].push_back({NE.V, Ann, SE.C});
    });
  }

  while (Head != Work.size()) {
    auto [V, A, Phase] = Work[Head++];

    // P steps: wrap under a constructor flowing somewhere.
    if (auto It = WrapIdx.find(V); It != WrapIdx.end()) {
      for (const WrapStep &W : It->second) {
        AnnId Wrapped = D.compose(W.Fn, A);
        if (Options.FilterUseless && D.isUseless(Wrapped))
          continue;
        addFact(W.Outer, Wrapped, /*Phase=*/true, {W.C, V, A});
      }
    }

    if (!AllowUnmatchedProjections || Phase)
      continue;

    // N steps (phase N only): follow a projection constraint whose
    // subject contains the atom's context unmatched, and then plain
    // variable flow from the landing spot (which the closure has not
    // pre-propagated, unlike the initial facts). V is a
    // representative, so the VarNode index applies.
    ExprId Node = varNodeIfAny(V);
    if (Node == InvalidExpr)
      continue;
    if (Node < Watchers.size()) {
      for (const Watcher &W : Watchers[Node]) {
        AnnId Out = D.compose(W.Ann, A);
        if (Options.FilterUseless && D.isUseless(Out))
          continue;
        addFact(rep(W.Target), Out, /*Phase=*/false, {});
      }
    }
    if (Node < Succs.numNodes()) {
      Succs.forEach(Node, [&, A = A](ExprId Dst, AnnId G) {
        const Expr &DE = CS.expr(Dst);
        if (DE.Kind != ExprKind::Var)
          return;
        AnnId Out = D.compose(G, A);
        if (Options.FilterUseless && D.isUseless(Out))
          return;
        addFact(DE.V, Out, /*Phase=*/false, {});
      });
    }
  }
  return R;
}

void BidirectionalSolver::enumerateTerms(VarId V, unsigned MaxDepth,
                                         size_t MaxCount,
                                         std::vector<VarId> &Visiting,
                                         std::vector<GroundTerm> &Out) const {
  V = rep(V);
  if (std::find(Visiting.begin(), Visiting.end(), V) != Visiting.end())
    return;
  Visiting.push_back(V);

  const AnnotationDomain &D = CS.domain();
  const std::vector<std::vector<AnnId>> &FnSol = fnVarSolution();
  // Root annotation classes of terms built by ce ⊆^F V: the edge
  // annotation composed with the constructor's own function-variable
  // solution (identity-seeded).
  auto rootAnns = [&](const Expr &SE, AnnId F) {
    AnnSet Roots;
    for (AnnId A : FnSol[SE.Alpha])
      Roots.insert(D.compose(F, A));
    return Roots.takeMembers();
  };

  for (auto [Src, F] : consLowerBounds(V)) {
    if (Out.size() >= MaxCount)
      break;
    const Expr &SE = CS.expr(Src);
    if (SE.Args.empty()) {
      for (AnnId Root : rootAnns(SE, F))
        Out.push_back(GroundTerm{SE.C, Root, {}});
      continue;
    }
    if (MaxDepth == 0)
      continue;
    // Enumerate each component, then take the capped product.
    std::vector<std::vector<GroundTerm>> KidChoices(SE.Args.size());
    bool AnyEmpty = false;
    for (size_t I = 0; I != SE.Args.size(); ++I) {
      enumerateTerms(SE.Args[I], MaxDepth - 1, MaxCount, Visiting,
                     KidChoices[I]);
      if (KidChoices[I].empty())
        AnyEmpty = true;
    }
    if (AnyEmpty)
      continue; // see Solver.h: bottom components are not materialized
    for (AnnId Root : rootAnns(SE, F)) {
      std::vector<size_t> Pick(SE.Args.size(), 0);
      while (Out.size() < MaxCount) {
        GroundTerm T{SE.C, Root, {}};
        for (size_t I = 0; I != Pick.size(); ++I)
          T.Kids.push_back(appendAnn(D, KidChoices[I][Pick[I]], F));
        Out.push_back(std::move(T));
        // Advance the mixed-radix counter.
        size_t I = 0;
        for (; I != Pick.size(); ++I) {
          if (++Pick[I] < KidChoices[I].size())
            break;
          Pick[I] = 0;
        }
        if (I == Pick.size())
          break;
      }
    }
  }
  Visiting.pop_back();
}

std::vector<GroundTerm>
BidirectionalSolver::groundTerms(VarId V, unsigned MaxDepth,
                                 size_t MaxCount) const {
  std::vector<GroundTerm> Out;
  std::vector<VarId> Visiting;
  enumerateTerms(V, MaxDepth, MaxCount, Visiting, Out);
  return Out;
}

bool BidirectionalSolver::exprIntersectsVar(
    ExprId E, VarId V,
    bool (*AcceptAnn)(const AnnotationDomain &, AnnId),
    unsigned MaxDepth, size_t MaxCount) const {
  const Expr &Ex = CS.expr(E);
  assert(Ex.Kind == ExprKind::Cons &&
         "the general query takes a constructor expression");
  const AnnotationDomain &D = CS.domain();
  for (auto [Src, F] : consLowerBounds(V)) {
    const Expr &SE = CS.expr(Src);
    if (SE.C != Ex.C)
      continue;
    if (AcceptAnn && !AcceptAnn(D, F))
      continue;
    // Each component of the bound must share terms with the query
    // expression's corresponding component variable.
    bool AllShare = true;
    for (size_t I = 0; I != Ex.Args.size() && AllShare; ++I)
      AllShare = solutionsIntersect(Ex.Args[I], SE.Args[I],
                                    MaxDepth > 0 ? MaxDepth - 1 : 0,
                                    MaxCount);
    if (AllShare)
      return true;
  }
  return false;
}

std::string BidirectionalSolver::toDot(std::string_view Title) const {
  std::ostringstream OS;
  OS << "digraph \"" << Title << "\" {\n  rankdir=LR;\n";
  const AnnotationDomain &D = CS.domain();
  for (ExprId Node = 0; Node != Succs.numNodes(); ++Node) {
    if (Succs.degree(Node) == 0 &&
        (Node >= Preds.numNodes() || Preds.degree(Node) == 0))
      continue;
    const Expr &E = CS.expr(Node);
    OS << "  n" << Node << " [label=\"" << CS.exprToString(Node)
       << "\", shape="
       << (E.Kind == ExprKind::Var ? "ellipse" : "box") << "];\n";
  }
  for (ExprId Node = 0; Node != Succs.numNodes(); ++Node) {
    Succs.forEach(Node, [&](ExprId Dst, AnnId Ann) {
      OS << "  n" << Node << " -> n" << Dst;
      if (Ann != D.identity())
        OS << " [label=\"" << D.toString(Ann) << "\"]";
      OS << ";\n";
    });
  }
  OS << "}\n";
  return OS.str();
}

bool BidirectionalSolver::solutionsIntersect(VarId A, VarId B,
                                             unsigned MaxDepth,
                                             size_t MaxCount) const {
  std::vector<GroundTerm> TA = groundTerms(A, MaxDepth, MaxCount);
  std::vector<GroundTerm> TB = groundTerms(B, MaxDepth, MaxCount);
  for (const GroundTerm &X : TA)
    for (const GroundTerm &Y : TB)
      if (sameSkeleton(X, Y))
        return true;
  return false;
}
