//===- core/BatchSolver.h - Pooled solving of independent systems -*- C++ -*-===//
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
/// batch solver runs them concurrently on a work-stealing pool under
/// *shared* governance: one wall-clock deadline for the whole batch,
/// one aggregate memory budget across all tasks, and one cancel flag
/// fanned out to a per-task flag each solver polls.
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
#include <memory>
#include <mutex>
#include <span>
#include <vector>

namespace rasc {

class ThreadPool;

/// Solves batches of independent BidirectionalSolvers on a shared
/// pool. One BatchSolver owns one pool and one aggregate-memory cell;
/// reuse the same instance for repeated solveAll() calls over the
/// same solvers (e.g. resuming after an interrupt) so the memory
/// accounting deltas stay on one cell.
class BatchSolver {
public:
  struct Options {
    /// Pool width; 0 = one thread per hardware thread.
    unsigned Threads = 0;

    /// Shared wall-clock budget for one solveAll() call, measured
    /// from its entry; 0 = none. Each task gets the time remaining
    /// when it starts; tasks still queued at expiry are returned as
    /// Status::Deadline without solving (resumable). A task's own
    /// DeadlineSeconds, if set, still applies (the smaller wins).
    double DeadlineSeconds = 0;

    /// Aggregate budget on solver-owned memory summed across all
    /// tasks of this BatchSolver; 0 = unlimited. Enforced through
    /// SolverOptions::GroupMemory at each task's governance cadence;
    /// tasks over budget interrupt with Status::MemoryLimit.
    uint64_t MaxTotalMemoryBytes = 0;

    /// External cancellation: when non-null and set, every running
    /// task is cancelled (Status::Cancelled, resumable). Fanned out
    /// to per-task flags by the supervisor, so the pointee only needs
    /// to outlive solveAll(). Only with an external flag does
    /// solveAll() poll at all; cancelAll() alone wakes tasks through
    /// their flags directly and solveAll() blocks on the pool.
    const std::atomic<bool> *CancelFlag = nullptr;
  };

  /// Per-task outcome of one solveAll() call.
  struct Result {
    BidirectionalSolver::Status St = BidirectionalSolver::Status::Solved;
    double Seconds = 0; ///< wall-clock spent solving this task
  };

  BatchSolver() : BatchSolver(Options{}) {}
  explicit BatchSolver(Options Opts);
  ~BatchSolver();
  BatchSolver(const BatchSolver &) = delete;
  BatchSolver &operator=(const BatchSolver &) = delete;

  /// Solves every system concurrently and returns per-task results in
  /// input order. Each solver's options are overridden with the batch
  /// governance for the duration of the call and restored afterwards
  /// (so no pointer into this BatchSolver outlives the call inside a
  /// solver's options). Solvers must be distinct objects; their
  /// constraint systems must also be distinct — two solvers sharing
  /// one ConstraintSystem would race on its interning tables.
  std::vector<Result>
  solveAll(std::span<BidirectionalSolver *const> Solvers);

  /// Requests cancellation of the in-flight solveAll() from another
  /// thread; running tasks interrupt with Status::Cancelled. Writes
  /// the per-task flags directly (no supervisor round-trip), so it
  /// takes effect at each task's next governance check even while
  /// solveAll() blocks on the pool. A call with no solveAll() in
  /// flight is a no-op.
  void cancelAll();

  /// Field-wise sum of stats() over the solvers of the last
  /// solveAll() call (each solver's stats are cumulative over its own
  /// lifetime, so the merge is too).
  const SolverStats &mergedStats() const { return Merged; }

  unsigned numThreads() const;

private:
  Options Opts;
  std::unique_ptr<ThreadPool> Pool;
  std::atomic<uint64_t> GroupMemory{0};
  SolverStats Merged;

  // The in-flight call's per-task cancel flags, registered by
  // solveAll() and written by cancelAll() under the mutex. Empty when
  // no call is in flight.
  std::mutex FanMx;
  std::vector<std::atomic<bool> *> LiveTaskFlags;
};

} // namespace rasc

#endif // RASC_CORE_BATCHSOLVER_H
