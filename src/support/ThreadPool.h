//===- support/ThreadPool.h - Work-stealing thread pool ---------*- C++ -*-===//
//
// Part of the RASC project: regularly annotated set constraints.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small work-stealing thread pool (DESIGN.md section 8): the batch
/// solver runs whole independent solves as pool jobs, and rascd runs
/// one session per worker. Each worker owns a deque; submission
/// round-robins across the deques, a worker pops its own back (LIFO,
/// cache-warm), and an idle worker steals another deque's front
/// (FIFO, the oldest — largest — pending job). Jobs are coarse (an
/// entire solve or session), so a mutex per deque costs noise
/// compared to the work it guards.
///
//===----------------------------------------------------------------------===//

#ifndef RASC_SUPPORT_THREADPOOL_H
#define RASC_SUPPORT_THREADPOOL_H

#include "support/Trace.h"

#include <atomic>
#include <cassert>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace rasc {

class ThreadPool {
public:
  /// Spawns \p Threads workers (at least one).
  explicit ThreadPool(unsigned Threads) {
    Queues.resize(Threads ? Threads : 1);
    for (auto &Q : Queues)
      Q = std::make_unique<WorkerQueue>();
    Workers.reserve(Queues.size());
    for (unsigned I = 0; I != Queues.size(); ++I)
      Workers.emplace_back([this, I] { workerLoop(I); });
  }

  ~ThreadPool() {
    {
      std::lock_guard<std::mutex> L(SleepMx);
      Stop = true;
    }
    WorkCv.notify_all();
    for (std::thread &T : Workers)
      T.join();
  }

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  unsigned numThreads() const {
    return static_cast<unsigned>(Workers.size());
  }

  /// What "use all the hardware" resolves to (never zero).
  static unsigned hardwareThreads() {
    unsigned N = std::thread::hardware_concurrency();
    return N ? N : 1;
  }

  /// Enqueues \p Job. Jobs may themselves call run() (a worker
  /// finishing early steals the new work). A job that throws does not
  /// take the pool down: the first exception is captured and rethrown
  /// from the next waitIdle()/waitIdleFor() that observes the drained
  /// pool, every other queued job still runs, and the pool remains
  /// usable afterwards. Later exceptions in the same drain are
  /// dropped (first wins).
  void run(std::function<void()> Job) {
    size_t W = NextQueue.fetch_add(1, std::memory_order_relaxed) %
               Queues.size();
    {
      std::lock_guard<std::mutex> L(Queues[W]->Mx);
      Queues[W]->Jobs.push_back(std::move(Job));
    }
    {
      std::lock_guard<std::mutex> L(SleepMx);
      ++Pending;
    }
    WorkCv.notify_one();
  }

  /// Blocks until every submitted job has finished; rethrows the
  /// first exception any of them threw (see run()).
  void waitIdle() {
    std::unique_lock<std::mutex> L(SleepMx);
    IdleCv.wait(L, [&] { return Pending == 0; });
    if (FirstError) {
      std::exception_ptr E = std::exchange(FirstError, nullptr);
      L.unlock();
      std::rethrow_exception(E);
    }
  }

  /// waitIdle with a timeout; \returns true when the pool drained
  /// (rethrowing a job exception then, like waitIdle). Lets a
  /// supervisor poll external conditions (a user cancel flag, a batch
  /// deadline) while jobs run.
  template <typename Rep, typename Period>
  bool waitIdleFor(std::chrono::duration<Rep, Period> D) {
    std::unique_lock<std::mutex> L(SleepMx);
    bool Drained = IdleCv.wait_for(L, D, [&] { return Pending == 0; });
    if (Drained && FirstError) {
      std::exception_ptr E = std::exchange(FirstError, nullptr);
      L.unlock();
      std::rethrow_exception(E);
    }
    return Drained;
  }

private:
  struct WorkerQueue {
    std::mutex Mx;
    std::deque<std::function<void()>> Jobs;
  };

  bool tryPop(size_t W, bool Owner, std::function<void()> &Out) {
    WorkerQueue &Q = *Queues[W];
    std::lock_guard<std::mutex> L(Q.Mx);
    if (Q.Jobs.empty())
      return false;
    if (Owner) {
      Out = std::move(Q.Jobs.back());
      Q.Jobs.pop_back();
    } else {
      Out = std::move(Q.Jobs.front());
      Q.Jobs.pop_front();
      // A successful non-owner pop IS the steal; args: victim queue.
      if (trace::enabled())
        trace::instant("pool.steal", W);
    }
    return true;
  }

  bool findJob(size_t Self, std::function<void()> &Out) {
    if (tryPop(Self, /*Owner=*/true, Out))
      return true;
    for (size_t I = 1; I != Queues.size(); ++I)
      if (tryPop((Self + I) % Queues.size(), /*Owner=*/false, Out))
        return true;
    return false;
  }

  /// Runs \p Job, converting a thrown exception into a captured
  /// exception_ptr (the caller folds it into FirstError under
  /// SleepMx). Workers never unwind out of the loop.
  static std::exception_ptr runJob(std::function<void()> &Job) {
    try {
      Job();
    } catch (...) {
      return std::current_exception();
    }
    return nullptr;
  }

  void workerLoop(size_t Self) {
    std::function<void()> Job;
    while (true) {
      if (findJob(Self, Job)) {
        std::exception_ptr Err = runJob(Job);
        Job = nullptr; // release captures before sleeping
        std::lock_guard<std::mutex> L(SleepMx);
        if (Err && !FirstError)
          FirstError = std::move(Err);
        if (--Pending == 0)
          IdleCv.notify_all();
        continue;
      }
      std::unique_lock<std::mutex> L(SleepMx);
      // Re-check under the sleep mutex: run() bumps Pending under it
      // before notifying, so a job enqueued between the scan above and
      // this wait is observed here and the wakeup cannot be missed.
      WorkCv.wait(L, [&] { return Stop || Pending != Executing; });
      if (Stop)
        return;
      ++Executing; // reserve: leave the wait so the scan can run
      L.unlock();
      bool Found = findJob(Self, Job);
      std::exception_ptr Err = Found ? runJob(Job) : nullptr;
      Job = nullptr;
      L.lock();
      if (Err && !FirstError)
        FirstError = std::move(Err);
      --Executing;
      if (Found && --Pending == 0)
        IdleCv.notify_all();
    }
  }

  std::vector<std::unique_ptr<WorkerQueue>> Queues;
  std::vector<std::thread> Workers;
  std::atomic<size_t> NextQueue{0};

  std::mutex SleepMx;
  std::condition_variable WorkCv, IdleCv;
  uint64_t Pending = 0;   // submitted, not yet finished
  uint64_t Executing = 0; // claimed by a woken worker (see workerLoop)
  bool Stop = false;
  std::exception_ptr FirstError; // first job exception of this drain
};

} // namespace rasc

#endif // RASC_SUPPORT_THREADPOOL_H
