//===- perfbench/Harness.cpp - End-to-end benchmark harness -----*- C++ -*-===//
//
// Part of the RASC project: regularly annotated set constraints.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench {

uint64_t mix(uint64_t X) {
  X += 0x9e3779b97f4a7c15ull;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ull;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebull;
  return X ^ (X >> 31);
}

//===----------------------------------------------------------------------===//
// Spans
//===----------------------------------------------------------------------===//

namespace {

int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

} // namespace

int32_t Tracer::open(const char *Layer, uint32_t Op) {
  if (!On)
    return -1;
  int32_t Parent = Stack.empty() ? -1 : Stack.back();
  Spans.push_back({Layer, Op, Parent, nowNs(), 0, false});
  int32_t Idx = static_cast<int32_t>(Spans.size() - 1);
  Stack.push_back(Idx);
  return Idx;
}

void Tracer::close(int32_t Idx) {
  if (Idx < 0)
    return;
  Spans[Idx].DurNs = nowNs() - Spans[Idx].StartNs;
  if (!Stack.empty() && Stack.back() == Idx)
    Stack.pop_back();
}

int64_t Tracer::childNs(int32_t Parent) const {
  // Children always follow their parent.
  int64_t Sum = 0;
  for (size_t I = static_cast<size_t>(Parent) + 1; I < Spans.size(); ++I)
    if (Spans[I].Parent == Parent)
      Sum += Spans[I].DurNs;
  return Sum;
}

int32_t Tracer::derived(const char *Layer, uint32_t Op, int32_t Parent,
                        double Seconds) {
  if (!On || Parent < 0)
    return -1;
  int64_t Ns = static_cast<int64_t>(Seconds * 1e9);
  int64_t Room = Spans[Parent].DurNs - childNs(Parent);
  Ns = std::max<int64_t>(0, std::min(Ns, Room));
  Spans.push_back({Layer, Op, Parent, Spans[Parent].StartNs, Ns, true});
  return static_cast<int32_t>(Spans.size() - 1);
}

int32_t Tracer::derivedRoot(uint32_t Op, double Seconds) {
  if (!On)
    return -1;
  Spans.push_back(
      {"op", Op, -1, nowNs(), static_cast<int64_t>(Seconds * 1e9), true});
  return static_cast<int32_t>(Spans.size() - 1);
}

void Tracer::append(const Tracer &O) {
  int32_t Base = static_cast<int32_t>(Spans.size());
  for (Span S : O.Spans) {
    if (S.Parent >= 0)
      S.Parent += Base;
    Spans.push_back(S);
  }
}

Attribution attribute(const std::vector<Span> &Spans) {
  std::vector<int64_t> Children(Spans.size(), 0);
  for (const Span &S : Spans)
    if (S.Parent >= 0)
      Children[S.Parent] += S.DurNs;
  Attribution A;
  for (size_t I = 0; I != Spans.size(); ++I) {
    double SelfMs =
        static_cast<double>(std::max<int64_t>(0, Spans[I].DurNs - Children[I])) /
        1e6;
    if (Spans[I].Parent < 0) {
      A.OpWallMs += static_cast<double>(Spans[I].DurNs) / 1e6;
      A.UnattributedMs += SelfMs;
    } else {
      A.SelfMs[Spans[I].Layer] += SelfMs;
    }
  }
  return A;
}

bool writeTrace(const std::string &Path, const std::vector<Span> &Spans) {
  std::ofstream Out(Path);
  if (!Out)
    return false;
  int64_t T0 = INT64_MAX;
  for (const Span &S : Spans)
    T0 = std::min(T0, S.StartNs);
  Out << "{\"traceEvents\":[";
  for (size_t I = 0; I != Spans.size(); ++I) {
    const Span &S = Spans[I];
    char Buf[256];
    std::snprintf(Buf, sizeof Buf,
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%s,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%u,"
                  "\"parent\":%d,\"derived\":%s}}",
                  I ? "," : "", S.Layer, S.Derived ? "2" : "1",
                  static_cast<double>(S.StartNs - T0) / 1e3,
                  static_cast<double>(S.DurNs) / 1e3, S.Op, S.Parent,
                  S.Derived ? "true" : "false");
    Out << Buf;
  }
  Out << "]}\n";
  return static_cast<bool>(Out);
}

//===----------------------------------------------------------------------===//
// Results
//===----------------------------------------------------------------------===//

double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = Q * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(std::floor(Pos));
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  double Frac = Pos - static_cast<double>(Lo);
  return V[Lo] + (V[Hi] - V[Lo]) * Frac;
}

double selfPeakRssMb() {
  std::ifstream In("/proc/self/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr) * 1024.0 / 1e6;
  return 0;
}

void Report::windowsByTime(const std::vector<double> &OpEndS,
                           double Seconds) {
  size_t N = static_cast<size_t>(MeasureSeconds / Seconds);
  // A window's wall time runs from the last completion before it to
  // its own last completion, so that its rate is not rounded to whole
  // ops per window.
  std::vector<double> LastEnd(N, 0);
  OpWindow.clear();
  for (double End : OpEndS) {
    size_t W = static_cast<size_t>(End / Seconds);
    OpWindow.push_back(W < N ? static_cast<uint32_t>(W) : NoWindow);
    if (W < N)
      LastEnd[W] = std::max(LastEnd[W], End);
  }
  WindowWallS.assign(N, Seconds);
  double Prev = 0;
  for (size_t W = 0; W != N; ++W)
    if (LastEnd[W] > Prev) {
      WindowWallS[W] = LastEnd[W] - Prev;
      Prev = LastEnd[W];
    }
}

void Report::fail(const std::string &Why) {
  ++Failed;
  Correct = false;
  if (Failed <= 10)
    std::fprintf(stderr, "perfbench: FAILED op: %s\n", Why.c_str());
}

const std::vector<std::pair<std::string, std::string>> &perLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> M = {
      {"ebpf.decode_ms", "ms"},
      {"ebpf.cfg_ms", "ms"},
      {"ebpf.lower_ms", "ms"},
      {"ebpf.insns", "count"},
      {"automata.dfa_ms", "ms"},
      {"automata.dfa_states", "count"},
      {"monoid.build_ms", "ms"},
      {"monoid.elements", "count"},
      {"pdmc.generate_ms", "ms"},
      {"dataflow.generate_ms", "ms"},
      {"flow.generate_ms", "ms"},
      {"app.constraints", "count"},
      {"solver.ingest_ms", "ms"},
      {"solver.closure_ms", "ms"},
      {"solver.other_ms", "ms"},
      {"solver.edges", "count"},
      {"solver.compose_calls", "count"},
      {"solver.useful_ratio", "ratio"},
      {"batch.solve_ms", "ms"},
      {"batch.utilization", "ratio"},
      {"query.pdmc_ms", "ms"},
      {"query.dataflow_ms", "ms"},
      {"query.flow_ms", "ms"},
      {"op_wall_ms", "ms"},
      {"unattributed_ms", "ms"},
      {"attributed_ratio", "ratio"},
      {"trace.ops_per_s", "1/s"},
      {"trace.untraced_ops_per_s", "1/s"},
      {"trace.overhead_ratio", "ratio"},
      {"trace.probe_ms", "ms"},
  };
  return M;
}

void addAttribution(Report &R, const Attribution &A, size_t Ops,
                    const std::vector<std::string> &Layers) {
  double N = Ops ? static_cast<double>(Ops) : 1.0;
  for (const std::string &L : Layers) {
    auto It = A.SelfMs.find(L);
    R.Layers.push_back(
        {L + "_ms", It == A.SelfMs.end() ? 0.0 : It->second / N, "ms"});
  }
  R.Layers.push_back({"op_wall_ms", A.OpWallMs / N, "ms"});
  R.Layers.push_back({"unattributed_ms", A.UnattributedMs / N, "ms"});
  R.Layers.push_back(
      {"attributed_ratio",
       A.OpWallMs > 0 ? 1.0 - A.UnattributedMs / A.OpWallMs : 0.0, "ratio"});
}

void Work::addLayerCounts(Report &R) const {
  double N = Ops ? static_cast<double>(Ops) : 1.0;
  auto mean = [&](uint64_t V) { return static_cast<double>(V) / N; };
  R.Layers.push_back({"ebpf.insns", mean(Insns), "count"});
  R.Layers.push_back({"automata.dfa_states", mean(DfaStates), "count"});
  R.Layers.push_back({"monoid.elements", mean(Elements), "count"});
  R.Layers.push_back({"app.constraints", mean(Constraints), "count"});
  R.Layers.push_back({"solver.edges", mean(Edges), "count"});
  R.Layers.push_back({"solver.compose_calls", mean(Compose), "count"});
  uint64_t Attempts = Edges + Dropped + Useless;
  R.Layers.push_back(
      {"solver.useful_ratio",
       Attempts ? static_cast<double>(Edges) / static_cast<double>(Attempts)
                : 0.0,
       "ratio"});
}

void addTraceRates(Report &R, size_t UntracedOps, double UntracedS,
                   size_t TracedOps, double TracedS, double ProbeS) {
  double Untraced = static_cast<double>(UntracedOps) / UntracedS;
  double Traced = static_cast<double>(TracedOps) / TracedS;
  R.Layers.push_back({"trace.untraced_ops_per_s", Untraced, "1/s"});
  R.Layers.push_back({"trace.ops_per_s", Traced, "1/s"});
  R.Layers.push_back({"trace.overhead_ratio", Untraced / Traced, "ratio"});
  R.Layers.push_back({"trace.probe_ms",
                      TracedOps ? ProbeS * 1e3 / static_cast<double>(TracedOps)
                                : 0.0,
                      "ms"});
}

namespace {

std::string num(double V) {
  if (!std::isfinite(V))
    V = 0;
  char Buf[64];
  std::snprintf(Buf, sizeof Buf, "%.17g", V);
  return Buf;
}

} // namespace

int printReport(const Options &O, const Report &R, bool Traced) {
  for (const std::string &N : R.Notes)
    std::printf("%s\n", N.c_str());
  std::string FP = "fingerprint:";
  for (const auto &[K, V] : R.Fingerprint)
    FP += " " + K + "=" + std::to_string(V);
  std::printf("%s\n", FP.c_str());

  std::vector<Metric> Out;
  if (!Traced) {
    double Ops = static_cast<double>(R.OpMs.size());
    double Rate = R.MeasureSeconds > 0 ? Ops / R.MeasureSeconds : 0;
    double P50 = quantile(R.OpMs, 0.50), P90 = quantile(R.OpMs, 0.90);
    size_t Windows = R.WindowWallS.size();
    if (Windows >= 3 && R.OpWindow.size() == R.OpMs.size()) {
      std::vector<std::vector<double>> Lat(Windows);
      for (size_t I = 0; I != R.OpMs.size(); ++I)
        if (R.OpWindow[I] < Windows)
          Lat[R.OpWindow[I]].push_back(R.OpMs[I]);
      std::vector<double> Rates, P50s, P90s;
      for (size_t W = 0; W != Windows; ++W) {
        Rates.push_back(static_cast<double>(Lat[W].size()) / R.WindowWallS[W]);
        P50s.push_back(quantile(Lat[W], 0.50));
        P90s.push_back(quantile(Lat[W], 0.90));
      }
      Rate = quantile(Rates, 0.5);
      P50 = quantile(P50s, 0.5);
      P90 = quantile(P90s, 0.5);
      std::printf("windows: %zu; ops_per_s, op_p50_ms and op_p90_ms are "
                  "medians of per-window values (whole run: %.6f 1/s, "
                  "p50 %.6f ms, p90 %.6f ms)\n",
                  Windows, Ops / R.MeasureSeconds, quantile(R.OpMs, 0.50),
                  quantile(R.OpMs, 0.90));
    }
    Out.push_back({"ops_per_s", Rate, "1/s"});
    Out.push_back({"op_p50_ms", P50, "ms"});
    Out.push_back({"op_p90_ms", P90, "ms"});
    Out.push_back({"peak_rss_mb", R.PeakRssMb, "MB"});
    Out.push_back({"setup_s", R.SetupSeconds, "s"});
    // p99 has at least ten samples beyond it only on rascd-edit, so it
    // is reported here but is not one of the benchmark's metrics.
    std::printf("samples: %zu ops (%zu beyond p90, %zu beyond p99); "
                "op_p99_ms %.6f ms (whole run)\n",
                R.OpMs.size(), R.OpMs.size() / 10, R.OpMs.size() / 100,
                quantile(R.OpMs, 0.99));
  } else {
    std::map<std::string, Metric> ByName;
    for (const Metric &M : R.Layers)
      ByName.emplace(M.Name, M);
    for (const auto &[Name, Unit] : perLayerMetrics()) {
      auto It = ByName.find(Name);
      Out.push_back({Name, It == ByName.end() ? 0.0 : It->second.Value,
                     Unit});
      if (It != ByName.end())
        ByName.erase(It);
    }
    // Metrics of the unlisted rascd-edit workload (service.*).
    for (const auto &[Name, M] : ByName)
      Out.push_back(M);
  }
  std::printf("failed_op_ratio: %s (%llu of %llu ops)\n",
              num(R.Attempted ? static_cast<double>(R.Failed) /
                                    static_cast<double>(R.Attempted)
                              : 0.0)
                  .c_str(),
              static_cast<unsigned long long>(R.Failed),
              static_cast<unsigned long long>(R.Attempted));
  for (const Metric &M : Out)
    std::printf("%-36s %14.6f %s\n", M.Name.c_str(), M.Value,
                M.Unit.c_str());

  std::ostringstream J;
  J << "{\"correct\": " << (R.Correct && R.Failed == 0 ? "true" : "false")
    << ", \"attempted\": " << R.Attempted << ", \"failed\": " << R.Failed
    << ", \"metrics\": {";
  for (size_t I = 0; I != Out.size(); ++I)
    J << (I ? ", " : "") << "\"" << Out[I].Name << "\": {\"value\": "
      << num(Out[I].Value) << ", \"unit\": \"" << Out[I].Unit << "\"}";
  J << "}}";
  std::printf("workload %s seed %llu trace %d\n", O.Workload.c_str(),
              static_cast<unsigned long long>(O.Seed), Traced ? 1 : 0);
  std::printf("%s\n", J.str().c_str());
  std::fflush(stdout);
  return R.Correct && R.Failed == 0 ? 0 : 1;
}

} // namespace perfbench
