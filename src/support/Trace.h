//===- support/Trace.h - Structured event tracing ---------------*- C++ -*-===//
//
// Part of the RASC project: regularly annotated set constraints.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A zero-cost-when-disabled event-tracing sink. Instrumented code
/// emits structured events (worklist pops, compose scans, edge
/// inserts, batch tasks, ...) into a per-thread ring buffer; a quiescent reader exports everything as
/// Chrome `trace_event` JSON loadable in chrome://tracing or Perfetto.
///
/// Cost model (the part the <2% overhead budget in EXPERIMENTS.md is
/// about):
///
///   * Disabled — every instrumentation site is `if (trace::enabled())`
///     around the emission: one relaxed load of a single process-wide
///     atomic flag plus a predictable branch. No clock reads, no
///     allocation, no stores. `RASC_TRACE_SCOPE` likewise loads the
///     flag once in its constructor and stores a null name.
///   * Enabled — one steady-clock read per instant event (two per
///     scope) and one 40-byte store into a thread-local ring. No locks
///     on the emission path; the registry mutex is taken only the
///     first time a thread emits (to register its ring) and during
///     export/clear.
///
/// Memory bound: each thread that emits at least one event owns one
/// ring of `ringCapacity()` slots (default 1<<15) at sizeof(Event) ==
/// 40 bytes, i.e. 1.25 MiB/thread by default. Rings are kept until
/// process exit (a thread may die before export; its events must
/// survive), so total trace memory is
///   (#distinct emitting threads) * ringCapacity() * 40 bytes.
/// When a ring wraps, the oldest events are overwritten and counted in
/// droppedCount() — the exporter reports the loss rather than hiding
/// it.
///
/// Event names must be string literals (or otherwise have static
/// storage duration): the ring stores the pointer, not a copy.
///
/// Threading: emission is single-writer per ring (the owning thread).
/// The ring head is an atomic so that export from another thread reads
/// a consistent prefix, but export is only well-defined when emitters
/// are quiescent (solve finished / batch joined); callers in this repo
/// export after solve() returns.
///
//===----------------------------------------------------------------------===//

#ifndef RASC_SUPPORT_TRACE_H
#define RASC_SUPPORT_TRACE_H

#include <atomic>
#include <cstdint>
#include <string>

namespace rasc {
namespace trace {

namespace detail {
extern std::atomic<bool> Enabled;
} // namespace detail

/// The one flag every instrumentation site branches on.
inline bool enabled() {
  return detail::Enabled.load(std::memory_order_relaxed);
}

/// Master switch. Turning tracing on stamps the export epoch (event
/// timestamps are nanoseconds since the first enable), turning it off
/// stops emission but keeps recorded events for export.
void setEnabled(bool On);

/// Per-thread ring capacity in events, rounded up to a power of two.
/// Applies to rings created after the call (a thread's ring is created
/// on its first emission); existing rings keep their capacity.
void setRingCapacity(size_t Events);
size_t ringCapacity();

/// Nanoseconds since the trace epoch (first setEnabled(true); process
/// start if tracing was never enabled). Only meaningful to call on the
/// enabled path — it reads the steady clock.
uint64_t nowNs();

/// One recorded event. 40 bytes; stored by value in the ring.
struct Event {
  const char *Name; ///< static-storage string, never owned
  uint64_t StartNs; ///< since trace epoch
  uint64_t DurNs;   ///< 0 for instants/counters
  uint64_t A;       ///< event-specific payload, exported as args.a
  uint64_t B;       ///< event-specific payload, exported as args.b
  char Ph;          ///< Chrome phase: 'X' complete, 'i' instant, 'C' counter
};

/// Emits an instant event ('i') on the calling thread's ring. Callers
/// guard with enabled(); emitting while disabled is a no-op.
void instant(const char *Name, uint64_t A = 0, uint64_t B = 0);

/// Emits a complete event ('X') covering [StartNs, StartNs + DurNs).
void complete(const char *Name, uint64_t StartNs, uint64_t DurNs,
              uint64_t A = 0, uint64_t B = 0);

/// Emits a counter event ('C'); Perfetto renders these as a value
/// track named \p Name with series "a" (and "b" when nonzero).
void counter(const char *Name, uint64_t A, uint64_t B = 0);

/// RAII span: records the start time when tracing is enabled at
/// construction and emits a complete event at destruction (if tracing
/// is still enabled then). Use via RASC_TRACE_SCOPE.
class Scope {
public:
  explicit Scope(const char *N, uint64_t A = 0, uint64_t B = 0) {
    if (enabled()) {
      Name = N;
      ArgA = A;
      ArgB = B;
      StartNs = nowNs();
    }
  }
  ~Scope() {
    if (Name && enabled())
      complete(Name, StartNs, nowNs() - StartNs, ArgA, ArgB);
  }
  Scope(const Scope &) = delete;
  Scope &operator=(const Scope &) = delete;

  /// Late-binds payload args (e.g. a result count known only at scope
  /// exit). No-op when the scope was constructed disabled.
  void args(uint64_t A, uint64_t B = 0) {
    ArgA = A;
    ArgB = B;
  }

private:
  const char *Name = nullptr;
  uint64_t StartNs = 0;
  uint64_t ArgA = 0;
  uint64_t ArgB = 0;
};

/// Total events currently held across all rings (post-wrap survivors).
uint64_t eventCount();

/// Events lost to ring wrap-around across all rings since the last
/// clear().
uint64_t droppedCount();

/// Drops all recorded events (rings stay registered and keep their
/// capacity); resets droppedCount(). For tests and repeated solves.
void clear();

/// Renders every recorded event as a Chrome `trace_event` JSON object
/// graph: {"traceEvents":[...],"displayTimeUnit":"ns"}. Events are
/// sorted by start time; ts/dur are microseconds (fractional).
/// Call only when emitters are quiescent.
std::string exportChromeJson();

/// exportChromeJson() to a file. \returns false and fills \p Err (when
/// non-null) on I/O failure.
bool writeChromeJson(const std::string &Path, std::string *Err = nullptr);

} // namespace trace
} // namespace rasc

#define RASC_TRACE_CONCAT_IMPL(A, B) A##B
#define RASC_TRACE_CONCAT(A, B) RASC_TRACE_CONCAT_IMPL(A, B)

/// Times the enclosing scope as a complete trace event. Name must be a
/// string literal. Optional trailing args become args.a / args.b.
#define RASC_TRACE_SCOPE(...)                                                  \
  ::rasc::trace::Scope RASC_TRACE_CONCAT(RascTraceScope_,                      \
                                         __LINE__)(__VA_ARGS__)

#endif // RASC_SUPPORT_TRACE_H
