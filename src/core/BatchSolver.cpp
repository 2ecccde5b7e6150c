//===- core/BatchSolver.cpp - Pooled solving of independent systems -------===//
//
// Part of the RASC project: regularly annotated set constraints.
//
//===----------------------------------------------------------------------===//

#include "core/BatchSolver.h"

#include "support/ThreadPool.h"
#include "support/Trace.h"

#include <algorithm>
#include <chrono>

using namespace rasc;

BatchSolver::BatchSolver(Options Opts) : Opts(Opts) {}

BatchSolver::~BatchSolver() = default;

unsigned BatchSolver::numThreads() const {
  return Opts.Threads ? Opts.Threads : ThreadPool::hardwareThreads();
}

void BatchSolver::cancelAll() {
  std::lock_guard<std::mutex> L(FanMx);
  for (std::atomic<bool> *F : LiveTaskFlags)
    F->store(true, std::memory_order_relaxed);
}

std::vector<BatchSolver::Result>
BatchSolver::solveAll(std::span<BidirectionalSolver *const> Solvers) {
  using Clock = std::chrono::steady_clock;
  const auto Start = Clock::now();
  const size_t N = Solvers.size();

  if (!Pool)
    Pool = std::make_unique<ThreadPool>(numThreads());

  std::vector<Result> Results(N);
  if (N == 0) {
    Merged = SolverStats{};
    return Results;
  }

  // Per-task cancel flags in one contiguous allocation at stable
  // addresses (the vector is sized once and never grows): the
  // supervisor below fans the external flag (and cancelAll) out to
  // these, and each solver polls its own at the governance cadence.
  std::vector<std::atomic<bool>> TaskCancel(N);

  // Register the flags so cancelAll() can reach the running tasks
  // directly while this thread blocks on the pool below.
  {
    std::lock_guard<std::mutex> L(FanMx);
    LiveTaskFlags.clear();
    for (auto &F : TaskCancel)
      LiveTaskFlags.push_back(&F);
  }

  // Save every task's options; the batch governance is an overlay for
  // this call only. Restoring afterwards keeps pointers into this
  // BatchSolver (the group-memory cell, the task flags) out of any
  // solver that outlives it.
  std::vector<SolverOptions> Saved(N);
  for (size_t I = 0; I != N; ++I)
    Saved[I] = Solvers[I]->options();

  auto remaining = [&]() -> double {
    return Opts.DeadlineSeconds -
           std::chrono::duration<double>(Clock::now() - Start).count();
  };

  auto runTask = [&](size_t I) {
    RASC_TRACE_SCOPE("batch.task", I);
    if (trace::enabled())
      trace::instant("batch.task.start", I);
    BidirectionalSolver *S = Solvers[I];
    Result *R = &Results[I];
    SolverOptions &O = S->options();
    O.CancelFlag = &TaskCancel[I];
    if (Opts.MaxTotalMemoryBytes) {
      O.GroupMemory = &GroupMemory;
      O.MaxGroupMemoryBytes = Opts.MaxTotalMemoryBytes;
    }
    if (Opts.DeadlineSeconds > 0) {
      // The batch deadline is shared: a task starting late gets
      // only the time left; one already past it is returned
      // unsolved (still resumable by a later solveAll).
      double Left = remaining();
      if (Left <= 0) {
        R->St = BidirectionalSolver::Status::Deadline;
        return;
      }
      O.DeadlineSeconds = O.DeadlineSeconds > 0
                              ? std::min(O.DeadlineSeconds, Left)
                              : Left;
    }
    auto T0 = Clock::now();
    R->St = S->solve();
    R->Seconds = std::chrono::duration<double>(Clock::now() - T0).count();
    if (trace::enabled())
      trace::instant("batch.task.finish", I,
                     static_cast<uint64_t>(statusExitCode(R->St)));
  };

  // Claimer model: min(threads, N) pool jobs race a shared task
  // cursor, instead of one enqueued job per task. A pool wider than
  // the task count (or the core count) then costs almost nothing —
  // the first workers to wake drain the cursor while the rest claim
  // an exhausted index and exit, where per-task jobs forced every
  // queued task through a separate worker wakeup (two mutexes, a
  // notify, and on an oversubscribed machine a context switch each).
  // This is what keeps batch throughput flat in pool size on one
  // core (see BM_BatchSolve in bench/bench_parallel_batch.cpp).
  std::atomic<size_t> NextTask{0};
  const size_t Claimers = std::min<size_t>(numThreads(), N);
  for (size_t C = 0; C != Claimers; ++C)
    Pool->run([&runTask, &NextTask, N] {
      for (size_t I = NextTask.fetch_add(1, std::memory_order_relaxed);
           I < N;
           I = NextTask.fetch_add(1, std::memory_order_relaxed))
        runTask(I);
    });

  // Drain the pool. cancelAll() reaches the tasks directly through
  // the registered flags, so without an external flag this blocks on
  // the pool's condition variable — no polling. Only a caller-owned
  // CancelFlag (an arbitrary atomic nothing can wait on) needs the
  // timed-wait loop, and it stops the moment the flag is fanned out.
  if (!Opts.CancelFlag) {
    Pool->waitIdle();
  } else {
    bool FannedOut = false;
    while (!Pool->waitIdleFor(std::chrono::milliseconds(10))) {
      if (FannedOut) {
        Pool->waitIdle();
        break;
      }
      if (Opts.CancelFlag->load(std::memory_order_relaxed)) {
        for (auto &F : TaskCancel)
          F.store(true, std::memory_order_relaxed);
        FannedOut = true;
      }
    }
  }

  {
    std::lock_guard<std::mutex> L(FanMx);
    LiveTaskFlags.clear();
  }

  Merged = SolverStats{};
  for (size_t I = 0; I != N; ++I) {
    Solvers[I]->options() = Saved[I];
    Merged += Solvers[I]->stats();
  }
  return Results;
}
