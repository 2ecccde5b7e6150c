//===- perfbench/Harness.h - End-to-end benchmark harness -------*- C++ -*-===//
//
// Part of the RASC project: regularly annotated set constraints.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared pieces of the end-to-end benchmark (perfbench/README.md):
/// run options, the in-memory span recorder of the traced run and its
/// per-layer attribution, latency percentiles, peak RSS, and the
/// result printer whose last stdout line is the one-line JSON result.
///
/// Spans are recorded only by the benchmark's own code, around calls
/// into a layer's public functions. A span whose duration the library
/// reports itself (SolverStats phase timings, BatchSolver::Result
/// seconds, a standalone probe of a constructor's inner step) is a
/// *derived* span: it is attached under the span it belongs to, with
/// no timestamp of its own.
///
//===----------------------------------------------------------------------===//

#ifndef RASC_PERFBENCH_HARNESS_H
#define RASC_PERFBENCH_HARNESS_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

/// Command-line options of one run.
struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Working directory for this run (daemon data, trace file).
  std::string WorkDir;
  /// Directory holding the built rascd binary.
  std::string BinDir;
  /// Directory of the checked-in eBPF golden corpus.
  std::string GoldenDir;
};

/// splitmix64: derives independent, reproducible streams from the
/// run seed.
uint64_t mix(uint64_t X);

/// Small deterministic PRNG over mix().
class Rng {
public:
  explicit Rng(uint64_t Seed) : State(mix(Seed)) {}
  uint64_t next() { return mix(State += 0x9e3779b97f4a7c15ull); }
  /// Uniform in [0, N).
  uint64_t below(uint64_t N) { return next() % N; }

private:
  uint64_t State;
};

//===----------------------------------------------------------------------===//
// Spans
//===----------------------------------------------------------------------===//

struct Span {
  const char *Layer; ///< "op" for an op's root pieces
  uint32_t Op;
  int32_t Parent; ///< index into the same recorder, -1 for roots
  int64_t StartNs;
  int64_t DurNs;
  bool Derived;
};

/// Per-thread span recorder; a no-op when tracing is off.
class Tracer {
public:
  explicit Tracer(bool On) : On(On) {}
  bool on() const { return On; }

  /// Opens a span under the innermost open one; \returns its index, or
  /// -1 when tracing is off.
  int32_t open(const char *Layer, uint32_t Op);
  void close(int32_t Idx);

  /// Records a derived span of \p Seconds under \p Parent, clamped so
  /// that the derived children of one parent never exceed it.
  int32_t derived(const char *Layer, uint32_t Op, int32_t Parent,
                  double Seconds);

  /// Records a derived root piece of op \p Op (work the op did off this
  /// thread, e.g. its solves on the batch pool).
  int32_t derivedRoot(uint32_t Op, double Seconds);

  const std::vector<Span> &spans() const { return Spans; }
  void append(const Tracer &O);

private:
  int64_t childNs(int32_t Parent) const;

  bool On;
  std::vector<Span> Spans;
  std::vector<int32_t> Stack;
};

/// RAII span.
class ScopedSpan {
public:
  ScopedSpan(Tracer &T, const char *Layer, uint32_t Op)
      : T(T), Idx(T.open(Layer, Op)) {}
  ~ScopedSpan() { T.close(Idx); }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;
  int32_t index() const { return Idx; }

private:
  Tracer &T;
  int32_t Idx;
};

/// Self time per layer (a span's duration minus its children's),
/// summed over all ops. The self time of the "op" roots is the op wall
/// time no layer span covers.
struct Attribution {
  std::map<std::string, double> SelfMs;
  double OpWallMs = 0;
  double UnattributedMs = 0;
};
Attribution attribute(const std::vector<Span> &Spans);

/// Writes the spans as Chrome trace_event JSON (derived spans are laid
/// out at their parent's start). \returns false on I/O failure.
bool writeTrace(const std::string &Path, const std::vector<Span> &Spans);

//===----------------------------------------------------------------------===//
// Results
//===----------------------------------------------------------------------===//

/// Linear-interpolated quantile \p Q in [0, 1] of \p V (sorted copy).
double quantile(std::vector<double> V, double Q);

/// Peak resident set of this process (VmHWM), in MB (10^6 bytes).
double selfPeakRssMb();

struct Metric {
  std::string Name;
  double Value;
  std::string Unit;
};

/// Everything one run reports.
struct Report {
  bool Correct = true;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  /// Per-op latencies of the measured (untraced) loop.
  std::vector<double> OpMs;
  double MeasureSeconds = 0;
  /// The measured loop cut into windows (consecutive stretches of
  /// time, or batches): ops_per_s, op_p50_ms and op_p90_ms are medians
  /// of the per-window values, so that a few seconds of interference
  /// from other tenants of the machine do not decide a run. OpWindow
  /// gives each op's window (NoWindow: outside every window).
  std::vector<uint32_t> OpWindow;
  std::vector<double> WindowWallS;
  static constexpr uint32_t NoWindow = ~0u;

  /// Fills the windows from op completion times (seconds since the
  /// loop began): windows of \p Seconds each, a partial last one
  /// dropped.
  void windowsByTime(const std::vector<double> &OpEndS, double Seconds);
  double SetupSeconds = 0;
  double PeakRssMb = 0;
  /// Deterministic work counts over the workload's fixed first pass.
  std::vector<std::pair<std::string, uint64_t>> Fingerprint;
  /// Per-layer metrics of the traced run.
  std::vector<Metric> Layers;
  /// Free-form lines printed before the metrics.
  std::vector<std::string> Notes;

  /// Records one failed op with its reason (first few are printed).
  void fail(const std::string &Why);
};

/// Prints the human-readable report, then the JSON result line: the
/// end-to-end metrics when \p Traced is false, else the per-layer
/// metrics. \returns the process exit code: 0, or 1 after a wrong
/// answer.
int printReport(const Options &O, const Report &R, bool Traced);

/// Appends the standard attribution metrics (per-layer self ms per op
/// for every name in \p Layers, op wall, unattributed, explained share)
/// to \p R.Layers.
void addAttribution(Report &R, const Attribution &A, size_t Ops,
                    const std::vector<std::string> &Layers);

/// Work counts summed over a workload's fingerprint pass.
struct Work {
  uint64_t Ops = 0, Insns = 0, DfaStates = 0, Elements = 0, Constraints = 0,
           Edges = 0, Compose = 0, Dropped = 0, Useless = 0, Violations = 0,
           Uninit = 0, CtxFlows = 0;

  /// Appends the per-op means of the counts to \p R.Layers.
  void addLayerCounts(Report &R) const;
};

/// Appends the traced run's rates to \p R.Layers: ops/s of its untraced
/// and traced phase, their ratio, and standalone-probe ms per traced op.
void addTraceRates(Report &R, size_t UntracedOps, double UntracedS,
                   size_t TracedOps, double TracedS, double ProbeS);

/// The per-layer metrics of BENCHMARK.json, with their units, in its
/// order; a traced run reports each (0 for a layer the workload does
/// not exercise), followed by any workload-specific extras.
const std::vector<std::pair<std::string, std::string>> &perLayerMetrics();

// Workload entry points.
int runEbpfBatch(const Options &O);
int runPackages(const Options &O);
int runRascdEdit(const Options &O);

} // namespace perfbench

#endif // RASC_PERFBENCH_HARNESS_H
