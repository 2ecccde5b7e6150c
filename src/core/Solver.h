//===- core/Solver.h - Bidirectional annotated solver -----------*- C++ -*-===//
//
// Part of the RASC project: regularly annotated set constraints.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The bidirectional constraint resolution algorithm of paper
/// Section 3: a worklist transitive closure over the constraint graph
/// that composes annotations through the domain's (table-backed)
/// composition, with the three resolution rules
///
///   c^a(X1..Xn) ⊆^f c^b(Y1..Yn)  =>  /\ Xi ⊆^f Yi  and  f∘a ⊆ b
///   c^a(...)    ⊆^f d^b(...)     =>  inconsistent (c != d)
///   c^a(..Xi..) ⊆^f Y, c^-i(Y) ⊆^g Z  =>  Xi ⊆^{g∘f} Z
///   se1 ⊆^f X,  X ⊆^g se2        =>  se1 ⊆^{g∘f} se2
///
/// (The projection rule is the paper's rule generalized to annotated
/// premises; with epsilon annotations it is literally the paper's.)
/// The solver is online: constraints appended to the system after a
/// solve() are picked up by the next solve().
///
/// Queries (Section 3.2) are answered on the solved form: entailment
/// of annotated constants, function-variable least solutions under
/// query seeds, least-solution ground term enumeration, and the
/// PN-reachability atom queries used by pushdown model checking
/// (Section 6.2), with witnesses.
///
//===----------------------------------------------------------------------===//

#ifndef RASC_CORE_SOLVER_H
#define RASC_CORE_SOLVER_H

#include "core/ConstraintSystem.h"
#include "core/GroundTerm.h"
#include "support/Adjacency.h"
#include "support/AnnSet.h"
#include "support/FlatSet.h"
#include "support/Trace.h"
#include "support/UnionFind.h"

#include <atomic>
#include <chrono>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

namespace rasc {

class ProofLogWriter;

/// Tuning knobs; the defaults match the paper's implementation notes.
/// The resource-governance fields (MaxEdges, MaxComposeSteps,
/// DeadlineSeconds, MaxMemoryBytes, CancelFlag) bound a solve against
/// the superexponential bidirectional worst case (Section 4); all of
/// them interrupt the closure in a *resumable* state — see the Status
/// contract on BidirectionalSolver.
struct SolverOptions {
  /// Drop edges whose annotation can never extend to an accepting
  /// word (Section 3.1). Ablation: Figure 2-style machines explode
  /// without it on constraint systems with dead compositions.
  bool FilterUseless = true;

  /// Collapse cycles of identity-annotated variable-variable surface
  /// constraints before solving (an offline variant of partial online
  /// cycle elimination [Fähndrich et al.]; only identity cycles are
  /// sound to collapse in the annotated setting).
  bool CycleElimination = true;

  /// Maintain the function-variable least solution (seeded with the
  /// identity everywhere) during solving instead of reconstructing it
  /// at query time. The paper's implementation omits the eager work
  /// (Section 8); both modes answer queries identically.
  bool EagerFunctionVars = false;

  /// Cap on inserted edges; 0 = unlimited. Reaching it interrupts the
  /// closure with Status::EdgeLimit (protects the superexponential
  /// bidirectional worst case, Section 4). The interrupt is
  /// *resumable*: raise the cap via options() and call solve() again
  /// to continue from where the closure stopped. The cap is checked
  /// between worklist pops, so the count may overshoot by the fan-out
  /// of the edge being processed when it trips.
  uint64_t MaxEdges = uint64_t(1) << 24;

  /// Budget on logical compositions (SolverStats::ComposeCalls);
  /// 0 = unlimited. Reaching it interrupts with Status::StepLimit
  /// (resumable). Compose steps are a machine-independent measure of
  /// closure work, useful for fair per-request budgets.
  uint64_t MaxComposeSteps = 0;

  /// Wall-clock budget for one solve() call, measured from its entry;
  /// 0 = none. Expiring interrupts with Status::Deadline (resumable).
  /// Checked every GovernanceCheckInterval worklist pops, so the
  /// precision is one check interval's worth of closure work.
  double DeadlineSeconds = 0;

  /// Approximate budget on solver-owned heap memory (edge arena,
  /// adjacency chunks, dedup tables, fn-var store — see
  /// memoryBytes()); 0 = unlimited. Exceeding it interrupts with
  /// Status::MemoryLimit (resumable). Approximate: container
  /// capacities, sampled at the governance cadence.
  uint64_t MaxMemoryBytes = 0;

  /// Cooperative cancellation token: when non-null and set, the
  /// closure interrupts with Status::Cancelled (resumable after the
  /// flag is cleared). The flag is read with relaxed ordering at the
  /// governance cadence; the pointee must outlive every solve() call.
  const std::atomic<bool> *CancelFlag = nullptr;

  /// Ignored: the closure is sequential (DESIGN.md §8), and batch
  /// parallelism is sized by BatchSolver::Options::Threads. The field
  /// remains only because perfbench/EbpfBatch.cpp:171 assigns it;
  /// nothing in src/ reads it.
  unsigned Threads = 1;

  /// Aggregate memory accounting across a batch of solvers (see
  /// core/BatchSolver.h): when non-null, every governance check
  /// publishes this solver's memoryBytes() delta into the shared cell
  /// (relaxed fetch_add; unsigned wrap-around absorbs shrinkage), and
  /// a non-zero MaxGroupMemoryBytes interrupts with
  /// Status::MemoryLimit once the cell's total exceeds it. The cell
  /// must outlive every solve() call. Per-solver MaxMemoryBytes still
  /// applies independently.
  std::atomic<uint64_t> *GroupMemory = nullptr;
  uint64_t MaxGroupMemoryBytes = 0;

  /// Worklist pops between the "slow" governance checks (deadline,
  /// cancellation, memory, failpoints). Edge and compose budgets are
  /// cheap integer compares and are checked every pop. The default
  /// keeps governance overhead under 2% of closure time (see
  /// EXPERIMENTS.md) while bounding interrupt latency.
  uint32_t GovernanceCheckInterval = 256;

  /// Machine-checkable proof logging (core/ProofLog.h, DESIGN.md §12):
  /// when non-empty, every solve() streams a derivation log to this
  /// path — one record per inserted edge naming its closure-rule
  /// premises — which the standalone rasccheck tool can verify
  /// without trusting solver code. Setting the path on an unstarted
  /// solver logs live; setting it on a started, quiescent solver with
  /// TrackProvenance replays the existing derivations from provenance
  /// first. An emission failure (disk full, injected fault) never
  /// interrupts the solve: the log is abandoned with a final
  /// "unproven" trailer and the Diag lands in lastProofDiag().
  /// retract() likewise abandons the log (a compaction reorders the
  /// arena, invalidating the emitted premise order) and clears this
  /// path; re-set it to rebuild a fresh proof from the post-retract
  /// state.
  std::string ProofLogPath;

  /// Record the provenance of every derived edge (which rule, from
  /// which premises) so that conflictWitness() can explain a
  /// Status::Inconsistent result as a chain of surface constraints
  /// and resolution steps. Costs memory per edge and time per fresh
  /// insert; off by default.
  bool TrackProvenance = false;

  /// Maintain the retraction indexes during solving — the premise
  /// parent links of every derived edge plus the (src, dst, ann) →
  /// arena map they are resolved through — so that retract() can
  /// compute a derivation cone without replaying the closure (DESIGN.md
  /// §11). Requires TrackProvenance (the parent links compress the
  /// premise records it keeps); retract() rejects solvers missing
  /// either flag. Costs two hash-map operations per fresh edge; off by
  /// default.
  bool Incremental = false;

  /// Edge-dedup data layout (DESIGN.md "Solver data layout"). Bitset
  /// keeps one annotation bitset per (src, dst) node pair — dedup is
  /// a test-and-set, ideal while annotation ids are dense and small.
  /// FlatSet keeps one open-addressed set of packed (src, ann) keys
  /// per destination — bounded memory per present edge when the
  /// domain is large or grows without bound.
  enum class DedupBackend : uint8_t { Auto, Bitset, FlatSet };
  DedupBackend Dedup = DedupBackend::Auto;

  /// Auto picks Bitset when domain().size() at solver construction is
  /// at most this, FlatSet otherwise. (A domain that interns past the
  /// threshold mid-solve stays on its chosen backend; the bitset rows
  /// widen on demand.)
  uint32_t AnnBitsetThreshold = 256;
};

/// Counters for the complexity experiments. ComposeCalls counts
/// logical compositions (including those served by a hoisted dense
/// row rather than an AnnotationDomain::compose call).
struct SolverStats {
  uint64_t EdgesInserted = 0;
  uint64_t EdgesDropped = 0; // duplicate edges
  uint64_t UselessFiltered = 0;
  uint64_t ComposeCalls = 0;
  uint64_t DecomposeSteps = 0;
  uint64_t ProjectionSteps = 0;
  uint64_t FnVarConstraints = 0;
  uint64_t CollapsedVars = 0;

  // Resource-governance counters.
  uint64_t BudgetChecks = 0; ///< slow governance checks performed
  uint64_t Interrupts = 0;   ///< solves ended by a budget/cancel/failpoint
  uint64_t Resumes = 0;      ///< solves that continued an interrupted closure

  // Proof-logging counters (SolverOptions::ProofLogPath). Cumulative
  // across writer rebuilds; ProofFailures counts logs abandoned to an
  // I/O failure, an unsupported state, or a retraction.
  uint64_t ProofRecords = 0;  ///< derivation records emitted
  uint64_t ProofChunks = 0;   ///< CRC-framed chunks written
  uint64_t ProofBytes = 0;    ///< log bytes written
  uint64_t ProofFailures = 0; ///< proof logs abandoned

  // Incremental re-solve counters (SolverOptions::Incremental).
  uint64_t Retractions = 0;    ///< validated retract() calls
  uint64_t RetractedEdges = 0; ///< derivation-cone edges removed
  uint64_t RequeuedEdges = 0;  ///< surviving edges requeued for re-closure

  // Wall-clock phase timings, accumulated across solve() calls.
  double IngestSeconds = 0;  ///< canonicalization + surface ingest
  double ClosureSeconds = 0; ///< worklist transitive/projection closure
  double FnVarSeconds = 0;   ///< eager function-variable propagation

  /// Field-wise merge, for aggregating per-solver stats across a
  /// batch (core/BatchSolver.h). Every counter and timing is a plain
  /// sum — each solver owns its stats object, so merging after the
  /// solves is race-free by construction.
  SolverStats &operator+=(const SolverStats &O) {
    EdgesInserted += O.EdgesInserted;
    EdgesDropped += O.EdgesDropped;
    UselessFiltered += O.UselessFiltered;
    ComposeCalls += O.ComposeCalls;
    DecomposeSteps += O.DecomposeSteps;
    ProjectionSteps += O.ProjectionSteps;
    FnVarConstraints += O.FnVarConstraints;
    CollapsedVars += O.CollapsedVars;
    BudgetChecks += O.BudgetChecks;
    Interrupts += O.Interrupts;
    Resumes += O.Resumes;
    ProofRecords += O.ProofRecords;
    ProofChunks += O.ProofChunks;
    ProofBytes += O.ProofBytes;
    ProofFailures += O.ProofFailures;
    Retractions += O.Retractions;
    RetractedEdges += O.RetractedEdges;
    RequeuedEdges += O.RequeuedEdges;
    IngestSeconds += O.IngestSeconds;
    ClosureSeconds += O.ClosureSeconds;
    FnVarSeconds += O.FnVarSeconds;
    return *this;
  }
};

/// A derived inclusion edge src ⊆^Ann dst between expression nodes.
struct SolvedEdge {
  ExprId Src;
  ExprId Dst;
  AnnId Ann;
};

/// A function-variable constraint f ∘ From ⊆ To produced by the
/// structural rule.
struct FnVarConstraint {
  FnVarId From;
  AnnId Fn;
  FnVarId To;
};

class BidirectionalSolver;

/// Result of PN-reachability atom queries: for each variable, the set
/// of annotation classes with which the queried constant occurs
/// (possibly nested under unmatched constructors) in the variable's
/// least solution. See Section 6.2.
class AtomReachability {
public:
  /// Annotation classes of the atom at \p V (empty if none). \p V may
  /// be any variable; cycle-collapsed representatives are resolved.
  const std::vector<AnnId> &annotations(VarId V) const;

  /// The unmatched-constructor context ("stack") under which the atom
  /// occurs at \p V with annotation \p Ann: outermost first. Empty for
  /// top-level occurrences.
  std::vector<ConsId> witnessStack(VarId V, AnnId Ann) const;

private:
  friend class BidirectionalSolver;
  struct Provenance {
    // Wrap step: the atom at InnerVar with InnerAnn was wrapped by
    // constructor C. InnerVar == InvalidVar marks an initial fact.
    ConsId C = 0;
    VarId InnerVar = InvalidVar;
    AnnId InnerAnn = InvalidAnn;
  };
  const BidirectionalSolver *Solver = nullptr;
  std::unordered_map<VarId, std::vector<AnnId>> Facts;
  std::unordered_map<uint64_t, Provenance> Parents; // (var, ann) packed
};

/// Online bidirectional solver over one constraint system.
class BidirectionalSolver {
public:
  /// The solve() status lattice. Solved and Inconsistent describe a
  /// *complete* closure; the remaining values are interrupts: the
  /// closure stopped early with its worklist tail preserved, and a
  /// later solve() — typically after raising the corresponding budget
  /// via options(), clearing the cancel flag, or just retrying —
  /// continues from exactly where it stopped and reaches the same
  /// fixpoint as an uninterrupted run. Queries on an interrupted
  /// solver see the (sound but incomplete) bounds derived so far.
  enum class Status {
    Solved,       ///< closure complete, no inconsistency found
    Inconsistent, ///< a constructor-mismatch constraint was derived
    EdgeLimit,    ///< Options.MaxEdges reached; resumable
    StepLimit,    ///< Options.MaxComposeSteps reached; resumable
    Deadline,     ///< Options.DeadlineSeconds expired; resumable
    MemoryLimit,  ///< Options.MaxMemoryBytes exceeded; resumable
    Cancelled,    ///< Options.CancelFlag observed set; resumable
  };

  /// True for the interrupted (budget/cancel) statuses — every status
  /// except Solved and Inconsistent. An interrupted solver resumes on
  /// the next solve() call.
  static bool isInterrupted(Status S) {
    return S != Status::Solved && S != Status::Inconsistent;
  }

  explicit BidirectionalSolver(const ConstraintSystem &CS)
      : BidirectionalSolver(CS, SolverOptions{}) {}
  BidirectionalSolver(const ConstraintSystem &CS, SolverOptions Opts);
  ~BidirectionalSolver(); // out-of-line: owns the (fwd-declared) pool

  /// Ingests constraints added to the system since the last call and
  /// runs the closure to quiescence — or to the first exhausted budget
  /// (see Status). Calling solve() on an interrupted solver resumes
  /// the closure; the interrupted-then-resumed fixpoint is identical
  /// to an uninterrupted one (differentially tested).
  Status solve();

  /// Incremental retraction (delta re-solve, DESIGN.md §11): undoes
  /// the consequences of constraint \p Idx — which the caller must
  /// already have flagged via ConstraintSystem::retract — and re-runs
  /// the closure from the surviving support, reaching the fixpoint a
  /// fresh solve of the edited system would (differentially tested
  /// and certified). The derivation cone of the constraint's surface
  /// facts is removed from the arena, adjacency, and dedup tables;
  /// surviving edges incident to an affected node (or carrying an
  /// alternative decompose/projection derivation into one) are
  /// requeued, and surviving surface constraints are re-ingested so a
  /// shared dedup bit never orphans an independently-derivable fact.
  ///
  /// Requires SolverOptions::Incremental and TrackProvenance from the
  /// first solve(), and a quiescent solver (Solved or Inconsistent,
  /// empty worklist). Retracting an identity variable-variable
  /// constraint after cycle elimination merged variables is rejected
  /// (representatives cannot be un-merged); every other shape is fair
  /// game. On any Diag the solver is unchanged.
  Expected<Status> retract(uint32_t Idx);

  /// Returns the solver to its freshly-constructed state: the callers'
  /// fallback when retract()'s preconditions fail — a fresh solve()
  /// then re-ingests the edited system (retracted constraints are
  /// skipped), which is always correct, just not incremental.
  void resetToFresh();

  Status status() const { return Stat; }
  const SolverStats &stats() const { return Stats; }

  /// The solver's options. The mutable overload lets a caller raise
  /// budgets between solve() calls to resume an interrupted closure.
  /// The dedup backend choice (Dedup, AnnBitsetThreshold) is resolved
  /// at construction; changing it afterwards has no effect.
  SolverOptions &options() { return Options; }
  const SolverOptions &options() const { return Options; }

  /// Approximate solver-owned heap memory: the edge arena, both
  /// adjacency stores, both dedup tables, watchers, and the fn-var
  /// store, by container capacity. This is what MaxMemoryBytes is
  /// checked against.
  size_t memoryBytes() const;

  /// What this solver has published into the shared aggregate-memory
  /// cell \p Cell via Options.GroupMemory (0 when it last published
  /// into a different cell, or never). A long-lived owner of the cell
  /// (core/BatchSolver.h keeps one per batch; the solve service keeps
  /// one per daemon) subtracts this when retiring a solver, so the
  /// aggregate does not accumulate the footprints of dead sessions.
  uint64_t publishedGroupMemory(const std::atomic<uint64_t> *Cell) const {
    return Cell && LastGroupCell == Cell ? LastPublishedMemory : 0;
  }

  /// \name Proof logging (core/ProofLog.h)
  /// @{

  /// Why the proof log (SolverOptions::ProofLogPath) was abandoned,
  /// if it was: an emission failure, an unsupported state when the
  /// path was set, or a retraction. An abandoned proof never
  /// interrupts a solve — the result stands, it is merely unproven.
  /// Cleared by resetToFresh().
  const std::optional<Diag> &lastProofDiag() const {
    return LastProofDiag;
  }

  /// True while a proof-log writer is live: the last solve() sealed
  /// the on-disk log with a checkable trailer and the next solve()
  /// will keep appending. False before the first proof-enabled
  /// solve() and after any abandonment.
  bool proofActive() const { return Proof != nullptr; }

  /// @}

  /// \name Certification interface (core/Certifier.h)
  /// Read-only views of the closure for the independent fixpoint
  /// certifier, which re-verifies the resolution rules without
  /// trusting any solver invariant beyond these accessors.
  /// @{

  /// Invokes \p F(src, dst, ann, processed) for every non-conflict
  /// derived edge, in derivation (arena) order. \p processed is true
  /// for the closed prefix — edges whose consequences have been
  /// derived; false for the pending worklist tail of an interrupted
  /// solve.
  template <typename Fn> void forEachDerivedEdge(Fn &&F) const {
    for (size_t I = 0, E = EdgeArena.size(); I != E; ++I)
      F(EdgeArena[I].Src, EdgeArena[I].Dst, EdgeArena[I].Ann,
        I < PendingHead);
  }

  /// Edges whose consequences have been fully derived.
  size_t processedEdges() const { return PendingHead; }

  /// Worklist tail still to process (0 iff the closure is complete).
  size_t pendingEdges() const { return EdgeArena.size() - PendingHead; }

  /// Constraints of system() already ingested (a prefix of
  /// system().constraints()).
  size_t ingestedConstraints() const { return NumIngested; }

  /// Nodes the closure graph has grown to (valid ids for the two
  /// accessors below).
  size_t numGraphNodes() const { return SuccDone.size(); }

  /// Processed-prefix counters per node: the number of *processed*
  /// arena edges with source (resp. destination) \p Node. At every
  /// resumable boundary these must equal a recount over
  /// forEachDerivedEdge's processed edges — the certifier cross-checks
  /// them, because the exactly-once join accounting is built on them
  /// (a corrupt counter silently skips or duplicates 2-path joins).
  uint32_t processedOut(ExprId Node) const { return SuccDone[Node]; }
  uint32_t processedIn(ExprId Node) const { return PredDone[Node]; }

  /// @}

  /// Constructor-mismatch edges discovered (manifest inconsistencies).
  const std::vector<SolvedEdge> &conflicts() const { return Conflicts; }

  /// Explains conflicts()[I] as an ordered derivation chain: surface
  /// constraints first, then the resolution steps (transitive,
  /// decomposition, projection) that derived the constructor
  /// mismatch, one rendered line per step. Requires
  /// Options.TrackProvenance from the first solve(); returns an empty
  /// vector otherwise or when I is out of range.
  std::vector<std::string> conflictWitness(size_t I) const;

  /// conflictWitness with a diagnosis instead of a silent empty
  /// vector: explains *why* no witness is available (provenance not
  /// tracked from the first solve, or the index out of range) so
  /// frontends can tell the user to enable TrackProvenance rather
  /// than print nothing.
  Expected<std::vector<std::string>> conflictWitnessEx(size_t I) const;

  /// The representative of \p V after cycle elimination (vars merged
  /// into a cycle share all bounds).
  VarId rep(VarId V) const;

  /// All constructor-expression lower bounds of \p V in the solved
  /// form: pairs (cons expr, annotation) with ce ⊆^f V derived.
  std::vector<std::pair<ExprId, AnnId>> consLowerBounds(VarId V) const;

  /// All constructor-expression upper bounds of \p V: V ⊆^f ce.
  std::vector<std::pair<ExprId, AnnId>> consUpperBounds(VarId V) const;

  /// All variable-to-variable derived edges out of \p V.
  std::vector<std::pair<VarId, AnnId>> varSuccessors(VarId V) const;

  /// Annotation classes f with (constant C) ⊆^f V in the solved form.
  std::vector<AnnId> constantAnnotations(ConsId C, VarId V) const;

  /// Entailment of the paper's simple query (Section 3.2): does every
  /// solution put the constant C, annotated with a full word of L(M),
  /// in V? True iff some derived annotation is in F_accept.
  bool entailsConstant(ConsId C, VarId V) const;

  /// Function-variable constraints recorded by the structural rule.
  const std::vector<FnVarConstraint> &fnVarConstraints() const {
    return FnVarCons;
  }

  /// Least solution of the function-variable constraints under the
  /// given seeds (pairs alpha, f meaning f ⊆ alpha); Section 3.2
  /// queries seed f_epsilon on the queried term's variables. The
  /// result maps each FnVarId to its set of classes.
  std::vector<std::vector<AnnId>> fnVarLeastSolution(
      std::span<const std::pair<FnVarId, AnnId>> Seeds) const;

  /// The eager all-identity-seeded function-variable solution (cached;
  /// maintained online when Options.EagerFunctionVars).
  const std::vector<std::vector<AnnId>> &fnVarSolution() const;

  /// PN-reachability: annotation classes of the constant \p Atom in
  /// each variable's least solution, including occurrences nested
  /// under unmatched constructors (Section 6.2). With
  /// \p AllowUnmatchedProjections the query also follows projection
  /// constraints the atom's context never matched — the "N" half of
  /// PN reachability [15], needed for flow queries that observe a
  /// value after it escaped the call that created it (Section 7.3).
  /// N steps precede P steps on any PN path.
  AtomReachability
  atomReachability(ConsId Atom,
                   bool AllowUnmatchedProjections = false) const;

  /// Enumerates ground terms of V's least solution up to \p MaxDepth
  /// constructor nesting, at most \p MaxCount terms. Constructor
  /// annotation variables are seeded with the identity.
  std::vector<GroundTerm> groundTerms(VarId V, unsigned MaxDepth,
                                      size_t MaxCount = 64) const;

  /// Stack-aware alias query (Section 7.5): do the least solutions of
  /// A and B share a term skeleton (annotations ignored)?
  bool solutionsIntersect(VarId A, VarId B, unsigned MaxDepth = 8,
                          size_t MaxCount = 256) const;

  /// The general query form of Section 3.2: is the set of terms
  /// denoted by the constructor expression \p E (in the least
  /// solution) intersected with \p V non-empty, restricted to
  /// occurrences whose top-level annotation class satisfies
  /// \p AcceptAnn (pass nullptr for "any")? E.g. searching for an
  /// error term c(X) in a variable with an accepting annotation.
  bool exprIntersectsVar(ExprId E, VarId V,
                         bool (*AcceptAnn)(const AnnotationDomain &,
                                           AnnId) = nullptr,
                         unsigned MaxDepth = 8,
                         size_t MaxCount = 256) const;

  const ConstraintSystem &system() const { return CS; }

  /// Graphviz rendering of the solved constraint graph (variable and
  /// constructor-expression nodes, edges labelled with annotation
  /// classes). Intended for debugging small systems.
  std::string toDot(std::string_view Title = "constraints") const;

private:
  /// Test-only backdoor (tests/certifier_mutation_test.cpp): mutates
  /// solved states into corrupt ones to prove the certifier rejects
  /// them. Never referenced by product code.
  friend struct SolverTestAccess;

  struct Edge {
    ExprId Src;
    ExprId Dst;
    AnnId Ann;
  };
  struct Watcher {
    ConsId C;
    uint32_t Index;
    VarId Target;
    AnnId Ann;
    uint32_t ConsIdx; ///< originating constraint (for witnesses)
  };

  /// Provenance of one derived edge (Options.TrackProvenance): the
  /// rule that first derived it and its premises. Premise edges are
  /// stored as (src, dst, ann) triples; conflictWitness() resolves
  /// them against the arena when rendering.
  struct EdgeProv {
    enum class Rule : uint8_t { Surface, Transitive, Decompose, Projection };
    Rule Kind = Rule::Surface;
    uint32_t CIdx = ~0u; ///< Surface/Projection: constraint index
    Edge P1{InvalidExpr, InvalidExpr, 0}; ///< premise (all but Surface)
    Edge P2{InvalidExpr, InvalidExpr, 0}; ///< second premise (Transitive)
  };

  /// Maps an expression to its node id after variable representative
  /// substitution (cycle elimination), interning rewritten exprs.
  ExprId canonicalize(ExprId E);

  void ingest(const Constraint &C, uint32_t Idx);

  /// Hot shell: dedup probe (the overwhelmingly common duplicate
  /// exit), defined inline so the closure's scan loops pay no call
  /// overhead for a duplicate; fresh edges fall through to the
  /// out-of-line cold path below. Budgets are deliberately *not*
  /// checked here: an interrupt mid-process() would lose derivations
  /// (the dedup bit is claimed before the arena push, and the
  /// processed-prefix counters advance per edge, not per join), so
  /// the closure loop enforces every budget between worklist pops —
  /// process() always runs to completion once started.
  void addEdge(ExprId Src, ExprId Dst, AnnId Ann) {
    // Dedup before the useless filter: duplicates are the
    // overwhelming majority of attempts on dense workloads, and the
    // probe is one cache line while isUseless() is a virtual call. A
    // useless edge thus claims its dedup bit on first sight and
    // repeats count as dropped, which only shifts stats between the
    // two counters.
    if (!EdgeSeen.insert(Src, Dst, Ann)) {
      ++Stats.EdgesDropped;
      if (trace::enabled())
        trace::instant("solver.edge.dup", Src, Dst);
      return;
    }
    insertFreshEdge(Src, Dst, Ann);
  }
  void insertFreshEdge(ExprId Src, ExprId Dst, AnnId Ann);
  void process(const Edge &E);
  void decompose(const Edge &E);
  /// \returns true when the constraint was fresh (not a dedup drop).
  bool addFnVarConstraint(FnVarId From, AnnId Fn, FnVarId To);
  void runEagerFnVars();
  void collapseCycles(size_t FirstNew);
  bool isVarNode(ExprId E) const {
    return CS.expr(E).Kind == ExprKind::Var;
  }
  void growTo(ExprId E);

  /// The expression node of (representative) variable \p V, interned
  /// on first use and recorded in the VarNode index. All solving-side
  /// var-node creation goes through here so that query paths can use
  /// the O(1) lookup below instead of re-interning via CS.var().
  ExprId varNode(VarId V);

  /// Query-side O(1) lookup: the node of representative \p V, or
  /// InvalidExpr if solving never touched it (then it has no bounds).
  ExprId varNodeIfAny(VarId V) const {
    return V < VarNode.size() ? VarNode[V] : InvalidExpr;
  }

  void enumerateTerms(VarId V, unsigned MaxDepth, size_t MaxCount,
                      std::vector<VarId> &Visiting,
                      std::vector<GroundTerm> &Out) const;

  /// Runs the worklist closure until quiescence or the first
  /// exhausted budget; returns the interrupt status, or Solved when
  /// the worklist drained (the caller folds in Inconsistent).
  /// \p Start is the solve() entry time (the deadline's epoch).
  Status runClosure(std::chrono::steady_clock::time_point Start);

  /// The slow governance checks (cancellation, deadline, memory,
  /// failpoints), run every Options.GovernanceCheckInterval pops.
  /// \returns Solved when nothing tripped.
  Status governanceCheck(std::chrono::steady_clock::time_point Start);

  /// True when the retraction indexes are maintained (both flags are
  /// required; retract() enforces the pairing with a Diag).
  bool incrementalActive() const {
    return Options.Incremental && Options.TrackProvenance;
  }

  /// Arena index of the edge with this exact (src, dst, ann) triple,
  /// or ~0u when absent / the triple is an invalid premise slot.
  /// O(1) via the incremental triple map.
  uint32_t provEdgeIndex(const Edge &E) const;

  /// Registers arena edge \p I in the triple map (two-level: (src,
  /// dst) pair id, then (pair, ann) → index).
  void registerProvEdge(ExprId Src, ExprId Dst, AnnId Ann, uint32_t I);

  /// Rebuilds the triple map and the parent links from
  /// EdgeArena/EdgeProvs after a retraction compaction (both are
  /// deterministic functions of the provenance records).
  void rebuildProvIndex();

  /// \name Proof emission (core/ProofLog.cpp hosts the writer;
  /// Solver.cpp hosts these hooks)
  /// @{

  /// Opens (or rebuilds) the proof log when Options.ProofLogPath is
  /// set and no writer is live. On a started solver this replays the
  /// existing derivations from provenance in premise-respecting
  /// order; any unsupported state degrades to lastProofDiag().
  void openProofLogIfRequested();

  /// Replays collapses, ingested constraints, arena edges (topological
  /// over the parent links after a retraction, arena order otherwise),
  /// fn-var constraints, and conflicts into a freshly opened writer.
  void rebuildProofLog();

  /// Emits the EDGE / CONFLICT record for the derivation described by
  /// CurProv. Only called while the writer is live.
  void emitProofEdge(bool IsConflict, ExprId Src, ExprId Dst, AnnId Ann);

  /// Drops the writer, records why in LastProofDiag (the writer's own
  /// Diag wins over \p Why), counts the failure, and latches
  /// ProofDisabled so the solve stream does not thrash reopening a
  /// failing log.
  void abandonProof(const char *Why);

  /// @}

  /// Records this solve() call's deltas into the global
  /// MetricsRegistry (core/Observe.h). Only called when
  /// observe::metricsEnabled(); writes instruments, never reads them,
  /// so enabling metrics cannot perturb the fixpoint or SolverStats.
  void recordSolveMetrics(const SolverStats &Before) const;

  const ConstraintSystem &CS;
  SolverOptions Options;
  SolverStats Stats;
  Status Stat = Status::Solved;

  size_t NumIngested = 0;

  /// Interrupt requested by a failpoint during edge insertion (test
  /// harness only); honored at the next governance check so the
  /// in-flight process() still completes.
  std::optional<Status> ForcedInterrupt;

  // Provenance (Options.TrackProvenance). EdgeProvs is parallel to
  // EdgeArena; ConflictProvs to Conflicts. CurProv is set by each
  // derivation site just before its addEdge call and consumed by
  // insertFreshEdge.
  std::vector<EdgeProv> EdgeProvs;
  std::vector<EdgeProv> ConflictProvs;
  EdgeProv CurProv;

  // Retraction indexes (incrementalActive()): per arena edge, the
  // arena indices of its first derivation's premise edges (~0u =
  // none/not an edge premise), resolved at insertion through the
  // two-level triple map below. retract() inverts the parent links
  // into a children index on demand and walks it to the derivation
  // cone. Parallel to EdgeArena, like EdgeProvs.
  std::vector<uint32_t> ProvPar1;
  std::vector<uint32_t> ProvPar2;
  FlatMap64 ProvPairIds; // (src << 32 | dst) -> dense pair id
  FlatMap64 ProvTriples; // (pair id << 32 | ann) -> arena index
  uint32_t NextProvPairId = 0;

  // Cycle elimination: variable representatives.
  mutable UnionFind VarReps;

  // Graph. Chunked SoA adjacency indexed by ExprId (grown on demand);
  // see support/Adjacency.h.
  AdjacencyLists Succs;
  AdjacencyLists Preds;
  std::vector<std::vector<Watcher>> Watchers; // on var nodes

  // Dense ExprKind per node, filled by growTo: the closure inner loop
  // only needs the kind to route an edge, and a one-byte load beats
  // pulling in the full Expr record (args vector and all) per edge.
  std::vector<uint8_t> NodeKind;

  // Processed-prefix lengths per node: edges are appended to both
  // adjacency lists in arena order and processed in arena order, so
  // the already-processed entries of any list form a prefix. The
  // transitive rule scans only that prefix: a 2-path is joined exactly
  // once, by whichever of its two edges is processed later (the other
  // is in the prefix by then), instead of up to twice with full-list
  // scans.
  std::vector<uint32_t> SuccDone;
  std::vector<uint32_t> PredDone;

  // Edge dedup (annotation bitsets or per-destination flat sets; see
  // SolverOptions::Dedup) and the edge arena. The arena doubles as the
  // FIFO worklist: every edge is enqueued exactly once, so the ring
  // never wraps and the head cursor suffices.
  EdgeDedup EdgeSeen;
  std::vector<Edge> EdgeArena;
  size_t PendingHead = 0;
  std::vector<SolvedEdge> Conflicts;

  std::vector<FnVarConstraint> FnVarCons;
  EdgeDedup FnVarSeen; // dedup of FnVarCons
  mutable std::vector<std::vector<AnnId>> EagerFnVarSol;
  mutable bool FnVarSolFresh = false;

  // VarId -> ExprId node (or InvalidExpr), for query-side lookups
  // without re-interning through CS.var()'s hash-cons table.
  std::vector<ExprId> VarNode;

  // Last memoryBytes() published into Options.GroupMemory (the shared
  // cell accumulates deltas, so each solver remembers its own
  // contribution) and the cell it was published into: pointing the
  // solver at a different cell restarts the delta chain from zero.
  uint64_t LastPublishedMemory = 0;
  const std::atomic<uint64_t> *LastGroupCell = nullptr;

  // Proof logging (Options.ProofLogPath). NeedProv is the per-solve
  // "populate CurProv" switch: TrackProvenance *or* a live writer —
  // the derivation sites consult it instead of TrackProvenance so
  // proof emission works without paying for provenance retention.
  // ProofDisabled latches after an abandoned log (see abandonProof);
  // resetToFresh() clears it.
  std::unique_ptr<ProofLogWriter> Proof;
  bool NeedProv = false;
  bool ProofDisabled = false;
  std::optional<Diag> LastProofDiag;

  // Last progress line emitted (observe::setProgressEverySeconds);
  // epoch-zero until the first governance check arms it.
  std::chrono::steady_clock::time_point LastProgress{};
};

/// Exit code rasctool reports for a failed certification, disjoint
/// from the per-Status codes below.
inline constexpr int ExitCodeCertifyFailed = 21;

/// The documented process exit code for a final solve status, used by
/// rasctool so shell retry loops can branch on the interrupt kind:
/// Solved=0, Inconsistent=1, Deadline=10, EdgeLimit=11, StepLimit=12,
/// MemoryLimit=13, Cancelled=14 (failed certification=21 is reported
/// separately, see above).
inline int statusExitCode(BidirectionalSolver::Status S) {
  using Status = BidirectionalSolver::Status;
  switch (S) {
  case Status::Solved:
    return 0;
  case Status::Inconsistent:
    return 1;
  case Status::Deadline:
    return 10;
  case Status::EdgeLimit:
    return 11;
  case Status::StepLimit:
    return 12;
  case Status::MemoryLimit:
    return 13;
  case Status::Cancelled:
    return 14;
  }
  return 2; // unreachable; defensive for out-of-range casts
}

} // namespace rasc

#endif // RASC_CORE_SOLVER_H
