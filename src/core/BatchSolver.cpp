//===- core/BatchSolver.cpp - Fork-join batch solving ---------------------===//
//
// Part of the RASC project: regularly annotated set constraints.
//
//===----------------------------------------------------------------------===//

#include "core/BatchSolver.h"

#include "support/FailPoint.h"
#include "support/Trace.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <mutex>
#include <thread>

using namespace rasc;

unsigned BatchSolver::numThreads() const {
  if (Opts.Threads)
    return Opts.Threads;
  unsigned N = std::thread::hardware_concurrency();
  return N ? N : 1;
}

std::vector<BatchSolver::Result>
BatchSolver::solveAll(std::span<BidirectionalSolver *const> Solvers) {
  using Clock = std::chrono::steady_clock;
  const auto Start = Clock::now();
  const size_t N = Solvers.size();

  std::vector<Result> Results(N);
  Merged = SolverStats{};
  if (N == 0)
    return Results;

  // Save every task's options; the batch governance is an overlay for
  // this call only, restored below before the call returns or throws,
  // so no pointer into this BatchSolver outlives it in a solver.
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
    if (Opts.CancelFlag)
      O.CancelFlag = Opts.CancelFlag;
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

  // Claimers race one task cursor until it runs out. A task that
  // throws keeps only the first exception; its claimer goes on to the
  // next task, so one failure leaves every other task solved.
  std::atomic<size_t> NextTask{0};
  std::mutex ErrorMx;
  std::exception_ptr FirstError;
  auto claim = [&] {
    for (size_t I = NextTask.fetch_add(1, std::memory_order_relaxed); I < N;
         I = NextTask.fetch_add(1, std::memory_order_relaxed)) {
      try {
        runTask(I);
      } catch (...) {
        std::lock_guard<std::mutex> L(ErrorMx);
        if (!FirstError)
          FirstError = std::current_exception();
      }
    }
  };

  // Fork: the caller is one claimer, so min(width, N) - 1 threads are
  // spawned. A spawn that fails (the host refuses the thread, or its
  // state cannot be allocated) is not an error: the claimers already
  // running, the caller at least, drain the cursor.
  const size_t Claimers = std::min<size_t>(numThreads(), N);
  std::vector<std::thread> Spawned;
  Spawned.reserve(Claimers - 1);
  try {
    for (size_t C = 1; C < Claimers; ++C) {
      failpoints::throwIfSpawnRefused();
      Spawned.emplace_back(claim);
    }
  } catch (const std::exception &) {
  }
  claim();
  for (std::thread &T : Spawned)
    T.join();

  for (size_t I = 0; I != N; ++I) {
    Solvers[I]->options() = Saved[I];
    Merged += Solvers[I]->stats();
  }
  if (FirstError)
    std::rethrow_exception(FirstError);
  return Results;
}
