//===- core/Certifier.cpp - Independent fixpoint certification ------------===//
//
// Part of the RASC project: regularly annotated set constraints.
//
//===----------------------------------------------------------------------===//

#include "core/Certifier.h"

#include "core/Solver.h"
#include "support/AnnSet.h"
#include "support/Trace.h"

#include <unordered_map>

using namespace rasc;

namespace {

uint64_t pack(uint32_t A, uint32_t B) {
  return (static_cast<uint64_t>(A) << 32) | B;
}

/// The certifier's own view of the claimed closure, built once from
/// the solver's public enumeration and queried per obligation.
struct ClosureView {
  const ConstraintSystem &CS;
  const AnnotationDomain &D;
  bool FilterUseless;

  // All derived edges (processed and pending) keyed (src, dst):
  // conclusions of obligations may legitimately sit in the pending
  // tail of an interrupted solve.
  std::unordered_map<uint64_t, AnnSet> Edges;
  // Conflicts keyed the same way.
  std::unordered_map<uint64_t, AnnSet> ConflictSet;
  // Per-node processed edges — the premise sets. Processed edges
  // only: the solver's resumable invariant is that a pending edge has
  // produced no consequences yet. InProcessed keeps constructor
  // sources only (lower bounds): those are the left premises of the
  // transitive rule and the subjects of the projection rule.
  std::unordered_map<uint32_t, std::vector<SolvedEdge>> InProcessed;
  std::unordered_map<uint32_t, std::vector<SolvedEdge>> OutProcessed;
  // Function-variable constraints as packed (from, to) -> fn set.
  std::unordered_map<uint64_t, AnnSet> FnVars;
  // VarId -> its interned Var-expression node, from the expr table.
  std::vector<ExprId> VarExpr;

  explicit ClosureView(const BidirectionalSolver &S)
      : CS(S.system()), D(CS.domain()),
        FilterUseless(S.options().FilterUseless) {
    S.forEachDerivedEdge([&](ExprId Src, ExprId Dst, AnnId Ann,
                             bool Processed) {
      Edges[pack(Src, Dst)].insert(Ann);
      if (Processed) {
        OutProcessed[Src].push_back({Src, Dst, Ann});
        if (CS.expr(Src).Kind == ExprKind::Cons)
          InProcessed[Dst].push_back({Src, Dst, Ann});
      }
    });
    for (const SolvedEdge &C : S.conflicts())
      ConflictSet[pack(C.Src, C.Dst)].insert(C.Ann);
    for (const FnVarConstraint &F : S.fnVarConstraints())
      FnVars[pack(F.From, F.To)].insert(F.Fn);
    VarExpr.assign(CS.numVars(), InvalidExpr);
    for (ExprId E = 0, N = CS.numExprs(); E != N; ++E) {
      const Expr &Ex = CS.expr(E);
      if (Ex.Kind == ExprKind::Var && Ex.V < VarExpr.size())
        VarExpr[Ex.V] = E;
    }
  }

  bool hasEdge(ExprId Src, ExprId Dst, AnnId Ann) const {
    auto It = Edges.find(pack(Src, Dst));
    return It != Edges.end() && It->second.contains(Ann);
  }

  bool hasConflict(ExprId Src, ExprId Dst, AnnId Ann) const {
    auto It = ConflictSet.find(pack(Src, Dst));
    return It != ConflictSet.end() && It->second.contains(Ann);
  }

  /// Whether the conclusion src ⊆^ann dst is accounted for: derived,
  /// recorded as a constructor-mismatch conflict, or legitimately
  /// dropped by the useless-annotation filter.
  bool accounted(ExprId Src, ExprId Dst, AnnId Ann) const {
    if (FilterUseless && D.isUseless(Ann))
      return true;
    const Expr &SE = CS.expr(Src);
    const Expr &DE = CS.expr(Dst);
    if (SE.Kind == ExprKind::Cons && DE.Kind == ExprKind::Cons &&
        SE.C != DE.C)
      return hasConflict(Src, Dst, Ann);
    return hasEdge(Src, Dst, Ann);
  }
};

void fail(CertificationReport &R, std::string Msg) {
  R.Ok = false;
  if (R.Failures.size() < CertificationReport::MaxFailures)
    R.Failures.push_back(std::move(Msg));
}

std::string edgeStr(const ConstraintSystem &CS, ExprId Src, ExprId Dst,
                    AnnId Ann) {
  return CS.exprToString(Src) + " <=[" + CS.domain().toString(Ann) +
         "] " + CS.exprToString(Dst);
}

} // namespace

std::string CertificationReport::summary() const {
  std::string S = Ok ? "certified" : "CERTIFICATION FAILED";
  S += ": " + std::to_string(EdgesChecked) + " edges, " +
       std::to_string(TransitiveObligations) + " transitive + " +
       std::to_string(DecomposeObligations) + " structural + " +
       std::to_string(ProjectionObligations) + " projection + " +
       std::to_string(SurfaceObligations) + " surface obligations";
  if (!Failures.empty())
    S += ", " + std::to_string(Failures.size()) + "+ violations";
  return S;
}

CertificationReport rasc::certifyFixpoint(const BidirectionalSolver &S) {
  RASC_TRACE_SCOPE("certify");
  CertificationReport R;
  const ConstraintSystem &CS = S.system();
  const AnnotationDomain &D = CS.domain();
  ClosureView V(S);

  using Status = BidirectionalSolver::Status;

  // Processed-prefix counter cross-check: the exactly-once join
  // accounting (and the transitive obligations above) is built on the
  // solver's per-node processed counts, so re-derive them from the
  // edge enumeration and compare. A corrupt counter means joins were
  // silently skipped or double-counted even if the edge set looks
  // closed.
  for (ExprId Node = 0, N = static_cast<ExprId>(S.numGraphNodes());
       Node != N; ++Node) {
    auto OutIt = V.OutProcessed.find(Node);
    auto InIt = V.InProcessed.find(Node);
    size_t Outs = OutIt == V.OutProcessed.end() ? 0 : OutIt->second.size();
    size_t Ins = InIt == V.InProcessed.end() ? 0 : InIt->second.size();
    if (S.processedOut(Node) != Outs)
      fail(R, "processed-out counter of node " + std::to_string(Node) +
                  " claims " + std::to_string(S.processedOut(Node)) +
                  ", arena recount gives " + std::to_string(Outs));
    if (S.processedIn(Node) != Ins)
      fail(R, "processed-in counter of node " + std::to_string(Node) +
                  " claims " + std::to_string(S.processedIn(Node)) +
                  ", arena recount gives " + std::to_string(Ins));
  }

  // Status consistency: a final status claims a drained worklist, and
  // the Solved/Inconsistent split must match the conflict list.
  if (!BidirectionalSolver::isInterrupted(S.status()) &&
      S.pendingEdges() != 0)
    fail(R, "final status with " + std::to_string(S.pendingEdges()) +
                " pending edges");
  if (S.status() == Status::Solved && !S.conflicts().empty())
    fail(R, "status Solved with recorded conflicts");
  if (S.status() == Status::Inconsistent && S.conflicts().empty())
    fail(R, "status Inconsistent without a conflict");

  // Conflicts must really be constructor mismatches.
  for (const SolvedEdge &C : S.conflicts()) {
    if (C.Src >= CS.numExprs() || C.Dst >= CS.numExprs()) {
      fail(R, "conflict references an unknown expression");
      continue;
    }
    const Expr &SE = CS.expr(C.Src);
    const Expr &DE = CS.expr(C.Dst);
    if (SE.Kind != ExprKind::Cons || DE.Kind != ExprKind::Cons ||
        SE.C == DE.C)
      fail(R, "recorded conflict is not a constructor mismatch: " +
                  edgeStr(CS, C.Src, C.Dst, C.Ann));
  }

  // Transitivity through variable nodes: every 2-path of processed
  // edges meeting at a variable whose left edge is a constructor lower
  // bound must have its composition accounted for (the inductive
  // form: var→var paths are never closed, DESIGN.md §4 decision 12;
  // cons-cons edges resolve via decomposition instead).
  for (const auto &[Node, Ins] : V.InProcessed) {
    if (CS.expr(Node).Kind != ExprKind::Var)
      continue;
    auto OutIt = V.OutProcessed.find(Node);
    if (OutIt == V.OutProcessed.end())
      continue;
    for (const SolvedEdge &In : Ins) {
      for (const SolvedEdge &Out : OutIt->second) {
        ++R.TransitiveObligations;
        AnnId Comp = D.compose(Out.Ann, In.Ann);
        if (!V.accounted(In.Src, Out.Dst, Comp))
          fail(R, "missing transitive conclusion " +
                      edgeStr(CS, In.Src, Out.Dst, Comp) + " from " +
                      edgeStr(CS, In.Src, In.Dst, In.Ann) + " and " +
                      edgeStr(CS, Out.Src, Out.Dst, Out.Ann));
      }
    }
  }

  // Walk the processed edges once for the per-edge rules.
  S.forEachDerivedEdge([&](ExprId Src, ExprId Dst, AnnId Ann,
                           bool Processed) {
    ++R.EdgesChecked;
    if (!Processed)
      return;
    const Expr SE = CS.expr(Src);
    const Expr DE = CS.expr(Dst);

    // Structural decomposition of matching cons-cons edges.
    if (SE.Kind == ExprKind::Cons && DE.Kind == ExprKind::Cons) {
      ++R.DecomposeObligations;
      if (SE.C != DE.C) {
        fail(R, "constructor mismatch survived in the edge set: " +
                    edgeStr(CS, Src, Dst, Ann));
        return;
      }
      for (uint32_t I = 0; I != SE.NumArgs; ++I) {
        VarId A = S.rep(CS.arg(SE, I));
        VarId B = S.rep(CS.arg(DE, I));
        ExprId AN = A < V.VarExpr.size() ? V.VarExpr[A] : InvalidExpr;
        ExprId BN = B < V.VarExpr.size() ? V.VarExpr[B] : InvalidExpr;
        bool Dropped = V.FilterUseless && D.isUseless(Ann);
        if (AN == InvalidExpr || BN == InvalidExpr) {
          if (!Dropped)
            fail(R, "decomposition argument variable has no node: " +
                        edgeStr(CS, Src, Dst, Ann));
          continue;
        }
        if (!V.accounted(AN, BN, Ann))
          fail(R, "missing decomposition conclusion " +
                      edgeStr(CS, AN, BN, Ann) + " from " +
                      edgeStr(CS, Src, Dst, Ann));
      }
      // The annotation obligation f∘a ⊆ b of the structural rule.
      auto It = V.FnVars.find(pack(SE.Alpha, DE.Alpha));
      if (It == V.FnVars.end() || !It->second.contains(Ann))
        fail(R, "missing function-variable constraint for " +
                    edgeStr(CS, Src, Dst, Ann));
    }
  });

  // Projection rule: for every ingested projection constraint
  // c^-i(Y) ⊆^g Z and every processed constructor edge
  // c^a(..Xi..) ⊆^f Y', the conclusion Xi ⊆^{g∘f} Z must be
  // accounted for.
  const std::vector<Constraint> &Cons = CS.constraints();
  size_t Ingested = S.ingestedConstraints();
  for (size_t Idx = 0; Idx < Ingested; ++Idx) {
    // A retracted constraint carries no obligations: ingestion skipped
    // it, so it registered no watcher and derived nothing.
    if (CS.isRetracted(static_cast<uint32_t>(Idx)))
      continue;
    const Expr &L = CS.expr(Cons[Idx].Lhs);
    if (L.Kind != ExprKind::Proj)
      continue;
    const Expr &Rhs = CS.expr(Cons[Idx].Rhs);
    VarId Subject = S.rep(L.V);
    VarId Target = S.rep(Rhs.V);
    ExprId SubjNode =
        Subject < V.VarExpr.size() ? V.VarExpr[Subject] : InvalidExpr;
    if (SubjNode == InvalidExpr)
      continue; // the subject was never touched: no premises exist
    auto InIt = V.InProcessed.find(SubjNode);
    if (InIt == V.InProcessed.end())
      continue;
    for (const SolvedEdge &In : InIt->second) {
      const Expr &SrcE = CS.expr(In.Src);
      if (SrcE.Kind != ExprKind::Cons || SrcE.C != L.C)
        continue;
      ++R.ProjectionObligations;
      VarId Arg = S.rep(CS.arg(SrcE, L.Index));
      ExprId ArgNode =
          Arg < V.VarExpr.size() ? V.VarExpr[Arg] : InvalidExpr;
      ExprId TgtNode =
          Target < V.VarExpr.size() ? V.VarExpr[Target] : InvalidExpr;
      AnnId Comp = D.compose(Cons[Idx].Ann, In.Ann);
      bool Dropped = V.FilterUseless && D.isUseless(Comp);
      if (ArgNode == InvalidExpr || TgtNode == InvalidExpr) {
        if (!Dropped)
          fail(R, "projection conclusion variables have no nodes "
                  "(constraint " +
                      std::to_string(Idx) + ")");
        continue;
      }
      if (!V.accounted(ArgNode, TgtNode, Comp))
        fail(R, "missing projection conclusion " +
                    edgeStr(CS, ArgNode, TgtNode, Comp) +
                    " (constraint " + std::to_string(Idx) + ")");
    }
  }

  // Surface rule: every ingested non-projection constraint's
  // canonical edge must be accounted for.
  for (size_t Idx = 0; Idx < Ingested; ++Idx) {
    if (CS.isRetracted(static_cast<uint32_t>(Idx)))
      continue;
    const Expr &L = CS.expr(Cons[Idx].Lhs);
    if (L.Kind == ExprKind::Proj)
      continue;
    ++R.SurfaceObligations;
    // Canonicalize by representative substitution, without interning:
    // look the rewritten expression up in the certifier's own view of
    // the (already complete) expr table.
    auto canon = [&](ExprId E) -> ExprId {
      const Expr &Ex = CS.expr(E);
      switch (Ex.Kind) {
      case ExprKind::Var: {
        VarId Rp = S.rep(Ex.V);
        return Rp < V.VarExpr.size() ? V.VarExpr[Rp] : InvalidExpr;
      }
      case ExprKind::Cons: {
        std::span<const VarId> Args = CS.args(Ex);
        std::vector<VarId> Reps(Args.size());
        bool Changed = false;
        for (size_t J = 0; J != Args.size(); ++J) {
          Reps[J] = S.rep(Args[J]);
          Changed |= Reps[J] != Args[J];
        }
        // The certifier must not intern into the system: a rewritten
        // expression the solver never built has no node.
        return Changed ? CS.findCons(Ex.C, Reps) : E;
      }
      case ExprKind::Proj:
        return InvalidExpr; // unreachable: filtered above
      }
      return InvalidExpr;
    };
    ExprId LC = canon(Cons[Idx].Lhs);
    ExprId RC = canon(Cons[Idx].Rhs);
    bool Dropped = V.FilterUseless && D.isUseless(Cons[Idx].Ann);
    if (LC == InvalidExpr || RC == InvalidExpr) {
      if (!Dropped)
        fail(R, "surface constraint " + std::to_string(Idx) +
                    " has no canonical nodes");
      continue;
    }
    if (!V.accounted(LC, RC, Cons[Idx].Ann))
      fail(R, "missing surface edge for constraint " +
                  std::to_string(Idx) + ": " +
                  edgeStr(CS, LC, RC, Cons[Idx].Ann));
  }

  return R;
}
