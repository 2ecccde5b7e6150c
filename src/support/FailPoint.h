//===- support/FailPoint.h - Fault-injection points -------------*- C++ -*-===//
//
// Part of the RASC project: regularly annotated set constraints.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small failpoint facility for fault-injection tests: code under
/// test consults named points, and a test arms a point to trip after a
/// chosen number of hits — forcing budget exhaustion, cancellation, or
/// allocation failure at a deterministic step (e.g. the Nth fresh edge
/// insert of a solve). The facility is always compiled in; when no
/// point is armed the only cost at a consult site is one relaxed
/// atomic load and a predictable branch, which is why call sites must
/// guard with armedAny() before calling hit().
///
/// Counters are global (per process). Tests that arm points should
/// disarmAll() when done; gtest fixtures in this repo do so in
/// SetUp/TearDown.
///
//===----------------------------------------------------------------------===//

#ifndef RASC_SUPPORT_FAILPOINT_H
#define RASC_SUPPORT_FAILPOINT_H

#include <atomic>
#include <cstdint>

namespace rasc {
namespace failpoints {

enum class Point : unsigned {
  /// Trips in the solver's fresh-edge insert; the solver reports it as
  /// Status::MemoryLimit (a simulated allocation failure).
  SolverEdgeInsert,
  /// Trips in the solver's amortized governance check; reported as
  /// Status::Deadline (a simulated expired wall clock, deterministic
  /// where a real clock is not).
  SolverDeadline,
  /// Trips in the solver's amortized governance check; reported as
  /// Status::Cancelled.
  SolverCancel,
  /// I/O faults for the proof logs (core/ProofLog.cpp), the remaining
  /// user of support/Serialize.h.
  /// TornWrite: a chunk write persists only a prefix of its frame —
  /// simulating a crash between data and metadata persistence. The
  /// writer must degrade to an unproven log, and the truncated tail
  /// must be rejected at load.
  TornWrite,
  /// ShortRead: the log's recovery scan comes up short mid-file even
  /// though the on-disk bytes are complete (a short read / torn page on
  /// the read side). Recovery truncates to the last intact chunk.
  ShortRead,
  /// FsyncFail: the log's fsync "fails"; the writer abandons the log
  /// with a Diag, and the solve it records is never interrupted.
  FsyncFail,
  /// Socket faults for the solve service (src/service/Protocol.cpp).
  /// ServiceShortWrite: a framed response write transmits only a prefix
  /// of the frame and then fails — simulating a peer that disappeared
  /// mid-write. The session must close with a structured error path
  /// (never an abort), and the daemon must keep serving.
  ServiceShortWrite,
  /// ServiceConnReset: a framed read observes a connection reset even
  /// though the peer is healthy (injected ECONNRESET). The session
  /// must be torn down cleanly without affecting its neighbors.
  ServiceConnReset,
  /// ServiceAcceptFail: the daemon's accept path fails after the
  /// kernel handed over a connection (resource exhaustion at accept
  /// time). The connection is dropped, a counter records it, and the
  /// accept loop must keep admitting later connections.
  ServiceAcceptFail,
  /// ThreadSpawn: a thread spawn (a batch claimer in
  /// core/BatchSolver.cpp, a rascd session or the rascd acceptor)
  /// fails the way std::thread does when the host has no thread left
  /// to give, by throwing std::system_error (see throwIfSpawnRefused).
  /// Arming it with k fails the (k + 1)-th spawn, so a test reaches a
  /// partly spawned batch without asking the host for a huge width.
  ThreadSpawn,
  NumPoints,
};

namespace detail {
extern std::atomic<unsigned> ArmedCount;
extern std::atomic<int64_t> Remaining[static_cast<unsigned>(Point::NumPoints)];
} // namespace detail

/// True if any point is armed. Call sites use this as the cheap guard
/// so disarmed builds pay one relaxed load.
inline bool armedAny() {
  return detail::ArmedCount.load(std::memory_order_relaxed) != 0;
}

/// Arms \p P to trip on the (\p AfterHits + 1)-th hit() from now (0
/// trips the very next hit). Re-arming resets the countdown.
void arm(Point P, uint64_t AfterHits);

/// Disarms \p P; pending countdown is discarded.
void disarm(Point P);

/// Disarms every point.
void disarmAll();

/// Counts one hit of \p P. \returns true exactly once per arming: on
/// the hit that exhausts the countdown. Unarmed points never trip.
bool hit(Point P);

/// Consulted right before each std::thread spawn: throws the
/// std::system_error a refused std::thread throws when ThreadSpawn
/// trips, so one catch handles the injected and the real refusal.
void throwIfSpawnRefused();

/// Scoped arming: arms \p P for the lifetime of the object and disarms
/// it on scope exit, so a test that returns early (or a failing
/// ASSERT) cannot leak an armed point into later cases. Counters are
/// process-global, so the guard is not reentrant per point.
class ScopedFailPoint {
public:
  ScopedFailPoint(Point P, uint64_t AfterHits) : P(P) { arm(P, AfterHits); }
  ~ScopedFailPoint() { disarm(P); }
  ScopedFailPoint(const ScopedFailPoint &) = delete;
  ScopedFailPoint &operator=(const ScopedFailPoint &) = delete;

private:
  Point P;
};

} // namespace failpoints
} // namespace rasc

#endif // RASC_SUPPORT_FAILPOINT_H
