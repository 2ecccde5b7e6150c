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

std::span<const AnnId> AtomReachability::annotations(VarId V) const {
  if (Solver)
    V = Solver->rep(V);
  if (static_cast<size_t>(V) + 1 >= Begin.size())
    return {};
  return {Anns.data() + Begin[V], Begin[V + 1] - Begin[V]};
}

std::vector<ConsId> AtomReachability::witnessStack(VarId V,
                                                   AnnId Ann) const {
  std::vector<ConsId> Stack;
  std::span<const AnnId> Classes = annotations(V);
  auto It = std::find(Classes.begin(), Classes.end(), Ann);
  if (It == Classes.end())
    return Stack;
  // Walk the premises back to the seed: the fact's own step is the
  // outermost constructor, and var steps wrap nothing.
  for (uint32_t I = AnnEntry[static_cast<size_t>(&*It - Anns.data())];
       I != NoParent; I = Entries[I].Parent)
    if (Entries[I].Wrap != NoWrap)
      Stack.push_back(Entries[I].Wrap);
  return Stack;
}

BidirectionalSolver::BidirectionalSolver(const ConstraintSystem &CS,
                                         SolverOptions Opts)
    : CS(CS), Options(Opts),
      EdgeSeen(CS.domain().size()), FnVarSeen(CS.domain().size()) {}

BidirectionalSolver::~BidirectionalSolver() = default;

VarId BidirectionalSolver::rep(VarId V) const {
  VarReps.grow(V + 1);
  return VarReps.find(V);
}

void BidirectionalSolver::growNodes(ExprId E) {
  size_t Need = std::max<size_t>(E + 1, CS.numExprs());
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
    std::span<const VarId> Args = CS.args(Ex);
    auto Moved = std::find_if(Args.begin(), Args.end(),
                              [&](VarId A) { return rep(A) != A; });
    if (Moved == Args.end())
      return E;
    std::vector<VarId> Reps;
    Reps.reserve(Args.size());
    for (VarId A : Args)
      Reps.push_back(rep(A));
    return CS.cons(Ex.C, Reps);
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

  // The identity var→var edges; most systems have none, and then this
  // allocates nothing.
  std::vector<std::pair<uint32_t, uint32_t>> Pairs;
  for (size_t I = FirstNew; I != Cons.size(); ++I) {
    if (CS.isRetracted(static_cast<uint32_t>(I)))
      continue;
    const Expr &L = CS.expr(Cons[I].Lhs);
    const Expr &R = CS.expr(Cons[I].Rhs);
    if (Cons[I].Ann != Identity || L.Kind != ExprKind::Var ||
        R.Kind != ExprKind::Var)
      continue;
    Pairs.emplace_back(L.V, R.V);
  }
  if (Pairs.empty())
    return;

  // Successor lists in CSR form, each in constraint order: Begin[V]
  // counts V's edges, the prefix sum makes it the end of V's range,
  // and the fill walks it back to the start.
  uint32_t N = CS.numVars();
  std::vector<uint32_t> Begin(N + 1, 0);
  for (auto [From, To] : Pairs)
    ++Begin[From];
  for (uint32_t V = 1; V <= N; ++V)
    Begin[V] += Begin[V - 1];
  std::vector<uint32_t> Adj(Pairs.size());
  for (size_t I = Pairs.size(); I-- != 0;)
    Adj[--Begin[Pairs[I].first]] = Pairs[I].second;

  // Iterative Tarjan SCC. A variable without out-edges is a singleton
  // component unless reached from another root, so only variables with
  // out-edges start a search.
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
    if (Index[Root] != ~0u || Begin[Root] == Begin[Root + 1])
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
      if (F.Child < Begin[V + 1] - Begin[V]) {
        uint32_t W = Adj[Begin[V] + F.Child++];
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
    if (LE.Kind == ExprKind::Cons && CS.expr(R).Kind == ExprKind::Var &&
        !(Options.FilterUseless && CS.domain().isUseless(C.Ann)))
      SurfaceBounds.push_back({L, CS.expr(R).V, C.Ann});
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
  // invalidate an in-flight forEach (support/Adjacency.h). Preds holds
  // constructor lower bounds only.
  Preds.forEach(YNode, [&](ExprId Src, AnnId F) {
    const Expr &SE = CS.expr(Src);
    if (SE.C != LE.C)
      return;
    VarId Arg = CS.arg(SE, LE.Index); // before varNode can invalidate SE
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
  if (NodeKind[Src] == KCons)
    Preds.append(Dst, Src, Ann);
  EdgeArena.push_back({Src, Dst, Ann});
  if (Options.TrackProvenance)
    EdgeProvs.push_back(CurProv);
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
  for (uint32_t I = 0; I != L.NumArgs; ++I)
    addEdge(varNode(CS.arg(L, I)), varNode(CS.arg(R, I)), E.Ann);
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

  // The transitive rule fires only for a constructor left premise
  // (c ⊆^f X, X ⊆^g se ⇒ c ⊆^{g∘f} se; DESIGN.md §4 decision 12), and
  // scans only the processed prefix of the adjacent list (see
  // SuccDone/PredDone in Solver.h): the join of a 2-path is performed
  // by whichever edge is processed later, exactly once. Iteration
  // bounded by a prefix is safe against mid-loop appends
  // (support/Adjacency.h).
  if (SrcKind == KCons && DstKind == KVar) {
    // Forward: E then (Dst ⊆^g S) gives compose(g, E.Ann) with g
    // varying.
    uint32_t Deg = SuccDone[E.Dst];
    Stats.ComposeCalls += Deg;
    // Aggregated per scan, not per join: an event inside the chunk
    // loops would put a flag load in the innermost hot path.
    if (trace::enabled() && Deg)
      trace::instant("solver.compose", Deg, E.Dst);
    // Each chunk composes first, then prefetches when the dedup table
    // has outgrown the caches: the chunk's dedup probes are
    // independent, so their misses overlap instead of serializing
    // (the probe stream has no locality).
    bool Pf = EdgeSeen.prefetchWorthwhile();
    Succs.forEachChunks(
        E.Dst, Deg, [&](const AdjacencyLists::Chunk &Ch, uint32_t N) {
          AnnId Anns[AdjacencyLists::ChunkCap];
          for (uint32_t I = 0; I != N; ++I)
            Anns[I] = D.compose(Ch.Anns[I], E.Ann);
          if (Pf)
            for (uint32_t I = 0; I != N; ++I)
              EdgeSeen.prefetch(E.Src, Ch.Peers[I]);
          for (uint32_t I = 0; I != N; ++I) {
            if (Track)
              CurProv = {EdgeProv::Rule::Transitive, ~0u, E,
                         Edge{E.Dst, Ch.Peers[I], Ch.Anns[I]}};
            addEdge(E.Src, Ch.Peers[I], Anns[I]);
          }
        });
    // Projection rule: new constructor lower bound meets watchers.
    if (!Watchers[E.Dst].empty()) {
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
        addEdge(varNode(CS.arg(SE, W.Index)), varNode(W.Target),
                D.compose(W.Ann, E.Ann));
      }
    }
  }

  if (SrcKind == KVar) {
    // Backward: (c ⊆^g Src) then E gives compose(E.Ann, g). Preds
    // holds constructor sources only, so every scanned entry is a
    // join. A variable self-loop needs no self-join: it is never a
    // left premise.
    uint32_t Deg = PredDone[E.Src];
    Stats.ComposeCalls += Deg;
    if (trace::enabled() && Deg)
      trace::instant("solver.compose", Deg, E.Src);
    bool Pf = EdgeSeen.prefetchWorthwhile();
    Preds.forEachChunks(
        E.Src, Deg, [&](const AdjacencyLists::Chunk &Ch, uint32_t N) {
          AnnId Anns[AdjacencyLists::ChunkCap];
          for (uint32_t I = 0; I != N; ++I)
            Anns[I] = D.compose(E.Ann, Ch.Anns[I]);
          if (Pf)
            for (uint32_t I = 0; I != N; ++I)
              EdgeSeen.prefetch(Ch.Peers[I], E.Dst);
          for (uint32_t I = 0; I != N; ++I) {
            if (Track)
              CurProv = {EdgeProv::Rule::Transitive, ~0u,
                         Edge{Ch.Peers[I], E.Src, Ch.Anns[I]}, E};
            addEdge(Ch.Peers[I], E.Dst, Anns[I]);
          }
        });
  }

  // E is the next unprocessed entry of Succs[Src] (and, for a
  // constructor source, of Preds[Dst]): appends and processing both
  // follow arena order, so the prefixes extend by exactly this edge.
  ++SuccDone[E.Src];
  if (SrcKind == KCons)
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
  // The domain interns as the closure composes: its element cap is a
  // memory budget like the solver's own.
  if (CS.domain().overflowed())
    return Status::MemoryLimit;
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
  // A domain past its element cap stays past it, so a resume must not
  // grow it by another interval's work before noticing.
  if (PendingHead != EdgeArena.size() && CS.domain().overflowed())
    return Status::MemoryLimit;

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
  ++NumSolves;

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
  if (NumIngested == 0 && !Cons.empty()) {
    // A first solve knows its size: node tables for every expression
    // and variable so far, room for twice as many edges as constraints,
    // and a successor chunk per constraint (a predecessor chunk per two:
    // Preds holds only constructor-source edges).
    growTo(static_cast<ExprId>(CS.numExprs() - 1));
    VarReps.grow(CS.numVars());
    EdgeArena.reserve(2 * Cons.size());
    EdgeSeen.reserveRows(2 * Cons.size());
    Succs.reserveChunks(Cons.size());
    Preds.reserveChunks(Cons.size() / 2);
  }
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
  Stats.MonoidElements = CS.domain().size();
  Stats.ComposeMisses = CS.domain().composeMisses();
  FnVarSolFresh = false;

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
  M.gauge("solver.monoid_size").set(CS.domain().size());
  M.gauge("solver.dedup_bytes").set(EdgeSeen.memoryBytes());
  M.gauge("solver.memory_bytes").set(memoryBytes());
  if (Ins + Dup)
    M.gauge("solver.dedup_hit_rate_pct").set(100 * Dup / (Ins + Dup));
}

void BidirectionalSolver::openProofLogIfRequested() {
  if (Options.ProofLogPath.empty() || Proof || ProofDisabled)
    return;
  // The log is written live: every record must precede the records
  // that use it as a premise, so it starts with the first ingestion.
  if (NumIngested != 0) {
    LastProofDiag = Diag("proof log unavailable: ProofLogPath was set on "
                         "a started solver; call resetToFresh() before "
                         "the proof-logged solve()");
    ProofDisabled = true;
    ++Stats.ProofFailures;
    return;
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

void BidirectionalSolver::resetToFresh() {
  const AnnotationDomain &D = CS.domain();
  Stats = SolverStats{};
  Stat = Status::Solved;
  NumIngested = 0;
  ForcedInterrupt.reset();
  EdgeProvs.clear();
  ConflictProvs.clear();
  CurProv = EdgeProv{};
  VarReps = UnionFind{};
  Succs = AdjacencyLists{};
  Preds = AdjacencyLists{};
  Watchers.clear();
  NodeKind.clear();
  SuccDone.clear();
  PredDone.clear();
  EdgeSeen = EdgeDedup(D.size());
  EdgeArena.clear();
  PendingHead = 0;
  Conflicts.clear();
  FnVarCons.clear();
  FnVarSeen = EdgeDedup(D.size());
  FnVarSol.clear();
  FnVarSolFresh = false;
  SurfaceBounds.clear();
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
             SurfaceBounds.capacity() * sizeof(SurfaceBound) +
             NodeKind.capacity() +
             (SuccDone.capacity() + PredDone.capacity()) * sizeof(uint32_t) +
             VarNode.capacity() * sizeof(ExprId) +
             (EdgeProvs.capacity() + ConflictProvs.capacity()) *
                 sizeof(EdgeProv) +
             Watchers.capacity() * sizeof(std::vector<Watcher>);
  for (const std::vector<Watcher> &W : Watchers)
    N += W.capacity() * sizeof(Watcher);
  if (Proof)
    N += Proof->memoryBytes();
  return N + CS.domain().memoryBytes();
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
    Out.emplace_back(Src, Ann);
  });
  return Out;
}

std::vector<std::pair<ExprId, AnnId>>
BidirectionalSolver::pathBounds(ExprId Node) const {
  const AnnotationDomain &D = CS.domain();
  constexpr uint8_t KVar = static_cast<uint8_t>(ExprKind::Var);
  std::vector<std::pair<ExprId, AnnId>> Out;
  FlatSet64 Seen;
  auto expand = [&](ExprId From, AnnId H) {
    Succs.forEach(From, [&](ExprId Dst, AnnId G) {
      AnnId A = D.compose(G, H);
      if (Options.FilterUseless && D.isUseless(A))
        return;
      if (Seen.insert((static_cast<uint64_t>(Dst) << 32) | A))
        Out.emplace_back(Dst, A);
    });
  };
  expand(Node, D.identity());
  for (size_t I = 0; I != Out.size(); ++I)
    if (NodeKind[Out[I].first] == KVar)
      expand(Out[I].first, Out[I].second);
  return Out;
}

std::vector<std::pair<ExprId, AnnId>>
BidirectionalSolver::consUpperBounds(VarId V) const {
  std::vector<std::pair<ExprId, AnnId>> Out;
  ExprId Node = varNodeIfAny(rep(V));
  if (Node == InvalidExpr || Node >= Succs.numNodes())
    return Out;
  for (auto [Dst, A] : pathBounds(Node))
    if (CS.expr(Dst).Kind == ExprKind::Cons)
      Out.emplace_back(Dst, A);
  return Out;
}

std::vector<std::pair<VarId, AnnId>>
BidirectionalSolver::varSuccessors(VarId V) const {
  std::vector<std::pair<VarId, AnnId>> Out;
  ExprId Node = varNodeIfAny(rep(V));
  if (Node == InvalidExpr || Node >= Succs.numNodes())
    return Out;
  for (auto [Dst, A] : pathBounds(Node))
    if (const Expr &E = CS.expr(Dst); E.Kind == ExprKind::Var)
      Out.emplace_back(E.V, A);
  return Out;
}

std::vector<AnnId>
BidirectionalSolver::constantAnnotations(ConsId C, VarId V) const {
  AnnSet Seen;
  for (auto [Src, Ann] : consLowerBounds(V)) {
    const Expr &E = CS.expr(Src);
    if (E.C == C && E.NumArgs == 0)
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
  if (!FnVarSolFresh || FnVarSol.size() != CS.numFnVars()) {
    std::vector<std::pair<FnVarId, AnnId>> Seeds;
    Seeds.reserve(CS.numFnVars());
    for (FnVarId A = 0, E = CS.numFnVars(); A != E; ++A)
      Seeds.emplace_back(A, CS.domain().identity());
    FnVarSol = fnVarLeastSolution(Seeds);
    FnVarSolFresh = true;
  }
  return FnVarSol;
}

AtomReachability
BidirectionalSolver::atomReachability(ConsId Atom,
                                      bool AllowUnmatchedProjections) const {
  trace::Scope Span("solver.reach");
  const bool Metrics = observe::metricsEnabled();
  const auto Start = Metrics ? std::chrono::steady_clock::now()
                             : std::chrono::steady_clock::time_point{};
  AtomReachability R;
  R.Solver = this;
  const AnnotationDomain &D = CS.domain();
  const bool Filter = Options.FilterUseless;
  const uint32_t NumVars = CS.numVars();
  constexpr uint8_t KVar = static_cast<uint8_t>(ExprKind::Var);

  // Wrap steps, CSR by rep(Xi): for each surface bound c(..Xi..) ⊆^f
  // Y, an atom at Xi with class a occurs inside Y's terms with class
  // f ∘ a. Counts go to WrapBegin[Xi + 2]; after the prefix sum,
  // WrapBegin[Xi + 1] is Xi's fill cursor and ends as Xi + 1's start.
  struct WrapStep {
    VarId Outer;
    AnnId Fn;
    ConsId C;
  };
  std::vector<uint32_t> WrapBegin(NumVars + 2, 0);
  size_t NumWraps = 0;
  for (const SurfaceBound &B : SurfaceBounds)
    for (VarId A : CS.args(CS.expr(B.Cons))) {
      ++WrapBegin[rep(A) + 2];
      ++NumWraps;
    }
  for (size_t V = 2; V < WrapBegin.size(); ++V)
    WrapBegin[V] += WrapBegin[V - 1];
  std::vector<WrapStep> Wraps(NumWraps);
  for (const SurfaceBound &B : SurfaceBounds) {
    const Expr &E = CS.expr(B.Cons);
    for (VarId A : CS.args(E))
      Wraps[WrapBegin[rep(A) + 1]++] = {B.Outer, B.Ann, E.C};
  }

  // Phase 0 = "N" (unmatched projections still allowed), 1 = "P"
  // (under an unmatched constructor); N steps precede P steps. Without
  // unmatched projections the two phases take the same steps, so every
  // fact stays in phase 0. With them, row (V, 2) of Seen marks the
  // classes V holds in either phase, so a class is listed once.
  // Flags: bit 0 = phase P, bit 1 = first entry of its (var, class).
  const bool TwoPhases = AllowUnmatchedProjections;
  EdgeDedup Seen(D.size());
  std::vector<uint8_t> Flags;
  uint64_t Steps = 0;
  auto addFact = [&](VarId V, AnnId A, uint8_t Phase, uint32_t Parent,
                     ConsId Wrap) {
    if (!Seen.insert(V, Phase, A))
      return;
    bool First = !TwoPhases || Seen.insert(V, 2, A);
    R.Entries.push_back({V, A, Parent, Wrap});
    Flags.push_back(static_cast<uint8_t>(Phase | (First ? 2 : 0)));
  };

  for (const SurfaceBound &B : SurfaceBounds) {
    const Expr &E = CS.expr(B.Cons);
    if (E.C == Atom && E.NumArgs == 0)
      addFact(B.Outer, B.Ann, 0, AtomReachability::NoParent,
              AtomReachability::NoWrap);
  }

  // Facts are found in rounds of one more wrap each (a 0-1 BFS): var
  // and N steps extend the current round, wrap steps wait in NextRound.
  // A witness stack is then one of the fewest unmatched calls, as when
  // the query wrapped under every derived bound.
  std::vector<AtomReachability::Entry> NextRound;
  for (uint32_t I = 0;; ++I) {
    if (I == R.Entries.size()) {
      for (const AtomReachability::Entry &E : NextRound)
        addFact(E.Var, E.Ann, TwoPhases ? 1 : 0, E.Parent, E.Wrap);
      NextRound.clear();
      if (I == R.Entries.size())
        break;
    }
    // By value: addFact appends to Entries.
    const VarId V = R.Entries[I].Var;
    const AnnId A = R.Entries[I].Ann;
    const uint8_t Phase = Flags[I] & 1;

    // P steps: wrap under a constructor flowing somewhere.
    for (uint32_t W = WrapBegin[V]; W != WrapBegin[V + 1]; ++W) {
      ++Steps;
      AnnId Wrapped = D.compose(Wraps[W].Fn, A);
      if (Filter && D.isUseless(Wrapped))
        continue;
      NextRound.push_back({Wraps[W].Outer, Wrapped, I, Wraps[W].C});
    }

    ExprId Node = varNodeIfAny(V);
    if (Node == InvalidExpr)
      continue;

    // N steps (phase N only): follow a projection constraint whose
    // subject contains the atom's context unmatched.
    if (TwoPhases && Phase == 0 && Node < Watchers.size()) {
      for (const Watcher &W : Watchers[Node]) {
        ++Steps;
        AnnId Out = D.compose(W.Ann, A);
        if (Filter && D.isUseless(Out))
          continue;
        addFact(rep(W.Target), Out, 0, I, AtomReachability::NoWrap);
      }
    }

    // Var steps, in the fact's own phase: the base var→var edges the
    // closure carried the surface bounds along (decision 13). A useless
    // class stays useless when extended, so cutting it loses nothing.
    if (Node < Succs.numNodes()) {
      Succs.forEach(Node, [&](ExprId Dst, AnnId G) {
        if (NodeKind[Dst] != KVar)
          return;
        ++Steps;
        AnnId Out = D.compose(G, A);
        if (Filter && D.isUseless(Out))
          return;
        addFact(CS.expr(Dst).V, Out, Phase, I, AtomReachability::NoWrap);
      });
    }
  }

  // CSR by variable over the first entry of each (var, class), in
  // discovery order; the same counting scheme as the wrap index.
  R.Begin.assign(NumVars + 2, 0);
  for (uint32_t I = 0; I != R.Entries.size(); ++I)
    if (Flags[I] & 2)
      ++R.Begin[R.Entries[I].Var + 2];
  for (size_t V = 2; V < R.Begin.size(); ++V)
    R.Begin[V] += R.Begin[V - 1];
  R.Anns.resize(R.Begin.back());
  R.AnnEntry.resize(R.Begin.back());
  for (uint32_t I = 0; I != R.Entries.size(); ++I) {
    if (!(Flags[I] & 2))
      continue;
    uint32_t Slot = R.Begin[R.Entries[I].Var + 1]++;
    R.Anns[Slot] = R.Entries[I].Ann;
    R.AnnEntry[Slot] = I;
  }
  R.Begin.pop_back();

  Span.args(R.numFacts(), Steps);
  if (Metrics) {
    MetricsRegistry &M = MetricsRegistry::global();
    M.counter("solver.reach_facts").add(R.numFacts());
    M.counter("solver.reach_steps").add(Steps);
    M.counter("solver.reach_ns")
        .add(static_cast<uint64_t>(secondsSince(Start) * 1e9));
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
    std::span<const VarId> Args = CS.args(SE);
    if (Args.empty()) {
      for (AnnId Root : rootAnns(SE, F))
        Out.push_back(GroundTerm{SE.C, Root, {}});
      continue;
    }
    if (MaxDepth == 0)
      continue;
    // Enumerate each component, then take the capped product.
    std::vector<std::vector<GroundTerm>> KidChoices(Args.size());
    bool AnyEmpty = false;
    for (size_t I = 0; I != Args.size(); ++I) {
      enumerateTerms(Args[I], MaxDepth - 1, MaxCount, Visiting,
                     KidChoices[I]);
      if (KidChoices[I].empty())
        AnyEmpty = true;
    }
    if (AnyEmpty)
      continue; // see Solver.h: bottom components are not materialized
    for (AnnId Root : rootAnns(SE, F)) {
      std::vector<size_t> Pick(Args.size(), 0);
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
    for (uint32_t I = 0; I != Ex.NumArgs && AllShare; ++I)
      AllShare = solutionsIntersect(CS.arg(Ex, I), CS.arg(SE, I),
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
  std::vector<bool> OnEdge(Succs.numNodes(), false);
  for (const Edge &E : EdgeArena)
    OnEdge[E.Src] = OnEdge[E.Dst] = true;
  for (ExprId Node = 0; Node != Succs.numNodes(); ++Node) {
    if (!OnEdge[Node])
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
