//===- core/BatchSolver.h - Fork-join batch solving ------------*- C++ -*-===//
//
// Part of the RASC project: regularly annotated set constraints.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every RASC application solves *many independent* constraint
/// systems per run — one per spec/entry pair in the pushdown checker
/// (Section 6), one per function in the bit-vector baseline
/// (Section 3), one per SCC in the flow analysis (Section 7). The
/// batch solver runs them side by side as a fork-join over plain
/// threads under *shared* governance: one wall-clock deadline for the
/// whole batch, one aggregate memory budget across all tasks, and the
/// caller's one cancel flag, which every task's solver polls directly.
///
/// Interrupted tasks stay resumable: a task that hits the batch
/// deadline (or never started before it expired) keeps its worklist
/// tail, and a later solveAll() with a fresh budget continues each
/// one to the same fixpoint a dedicated solve would reach.
///
//===----------------------------------------------------------------------===//

#ifndef RASC_CORE_BATCHSOLVER_H
#define RASC_CORE_BATCHSOLVER_H

#include "core/Solver.h"

#include <atomic>
#include <span>
#include <vector>

namespace rasc {

/// Solves batches of independent BidirectionalSolvers side by side.
/// One BatchSolver owns one aggregate-memory cell; reuse the same
/// instance for repeated solveAll() calls over the same solvers
/// (e.g. resuming after an interrupt) so the memory accounting deltas
/// stay on one cell.
class BatchSolver {
public:
  struct Options {
    /// Width; 0 = one thread per hardware thread. A call runs
    /// min(Threads, tasks) claimers: the calling thread plus that
    /// many minus one spawned threads.
    unsigned Threads = 0;

    /// Shared wall-clock budget for one solveAll() call, measured
    /// from its entry; 0 = none. Each task gets the time remaining
    /// when it starts; tasks not yet started at expiry are returned
    /// as Status::Deadline without solving (resumable). A task's own
    /// DeadlineSeconds, if set, still applies (the smaller wins).
    double DeadlineSeconds = 0;

    /// Aggregate budget on solver-owned memory summed across all
    /// tasks of this BatchSolver; 0 = unlimited. Enforced through
    /// SolverOptions::GroupMemory at each task's governance cadence;
    /// tasks over budget interrupt with Status::MemoryLimit.
    uint64_t MaxTotalMemoryBytes = 0;

    /// External cancellation: when non-null, it replaces every task's
    /// own SolverOptions::CancelFlag for the call, so setting it
    /// interrupts each running task with Status::Cancelled
    /// (resumable) at its next governance check. The pointee must
    /// outlive solveAll(). When null, each task keeps its own flag.
    const std::atomic<bool> *CancelFlag = nullptr;
  };

  /// Per-task outcome of one solveAll() call.
  struct Result {
    BidirectionalSolver::Status St = BidirectionalSolver::Status::Solved;
    double Seconds = 0; ///< wall-clock spent solving this task
  };

  BatchSolver() : BatchSolver(Options{}) {}
  explicit BatchSolver(Options Opts) : Opts(Opts) {}
  BatchSolver(const BatchSolver &) = delete;
  BatchSolver &operator=(const BatchSolver &) = delete;

  /// Solves every system and returns per-task results in input
  /// order. Each solver's options are overridden with the batch
  /// governance for the duration of the call and restored before it
  /// returns or throws. Every thread is joined first, so no task is
  /// still running when the call ends. A task that throws does not
  /// stop the others; the first exception is rethrown after the
  /// restore. Solvers must be distinct objects; their constraint
  /// systems must also be distinct — two solvers sharing one
  /// ConstraintSystem would race on its interning tables.
  std::vector<Result>
  solveAll(std::span<BidirectionalSolver *const> Solvers);

  /// Field-wise sum of stats() over the solvers of the last
  /// solveAll() call (each solver's stats are cumulative over its own
  /// lifetime, so the merge is too).
  const SolverStats &mergedStats() const { return Merged; }

  unsigned numThreads() const;

private:
  Options Opts;
  std::atomic<uint64_t> GroupMemory{0};
  SolverStats Merged;
};

} // namespace rasc

#endif // RASC_CORE_BATCHSOLVER_H
