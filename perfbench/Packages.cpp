//===- perfbench/Packages.cpp - privilege-packages workload -----*- C++ -*-===//
//
// Part of the RASC project: regularly annotated set constraints.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Table 1 shape: seeded generatePackage() programs of mixed sizes
/// checked one at a time, in a closed loop with one client, by the
/// bidirectional RascChecker against the full process-privilege
/// property. An op is one package's verdict: spec compile, checker
/// construction (which builds the 47-element monoid), constraint
/// generation, solve, and violation collection, which is what a user
/// checking one package pays. Every op checks a fresh package, generated
/// outside the timed region, and every verdict is compared with the
/// MOPS pushdown baseline's, also computed outside it.
///
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "pdmc/Checker.h"
#include "pdmc/Properties.h"
#include "progen/ProgramGen.h"

#include <memory>

namespace perfbench {

namespace {

using Status = rasc::BidirectionalSolver::Status;

/// Package size classes in lines of C, with their share of the ops:
/// p50 falls inside the 2000-line class and p90 inside the 8000-line
/// class, whose solves touch ~10^5 edges (well past the L2 cache).
/// Larger packages are left out: their cost varies so much from one
/// package to the next that a 20-second run could not average it out.
constexpr std::pair<size_t, unsigned> SizeClasses[] = {
    {1000, 30}, {2000, 30}, {4000, 25}, {8000, 15}};

/// Length of the windows the end-to-end metrics take medians over.
constexpr double WindowSeconds = 2;

/// Ops of the first pass, whose work counts are the fingerprint.
constexpr size_t FingerprintOps = 40;

/// The seeded package stream: op I checks package I, generated on
/// demand (outside the timed region) so that every op sees a fresh
/// package and a run averages over many.
struct Stream {
  uint64_t Seed;
  rasc::SpecAutomaton Spec = rasc::fullPrivilegeSpec();

  size_t lines(size_t I) const {
    uint64_t Pick = mix(Seed * 0x51ed + I) % 100;
    for (auto [Lines, Share] : SizeClasses) {
      if (Pick < Share)
        return Lines;
      Pick -= Share;
    }
    return SizeClasses[0].first;
  }
  rasc::Program package(size_t I) const {
    return rasc::generatePackage(lines(I), Spec, mix(Seed * 1000003 + I));
  }
};

/// The op loop, shared by the untraced and the traced phase.
struct Loop {
  const Stream &In;
  Report &R;
  size_t Next = 0;
  Work FirstPass;
  double ProbeSeconds = 0;
  double UntimedSeconds = 0; ///< generation, probes and the oracle

  /// Checks the next package; \returns its latency in ms.
  double op(Tracer &T) {
    auto U0 = Clock::now();
    size_t Idx = Next++;
    uint32_t OpId = static_cast<uint32_t>(Idx);
    rasc::Program Prog = In.package(Idx);
    UntimedSeconds += secondsSince(U0);
    ++R.Attempted;

    std::unique_ptr<rasc::SpecAutomaton> Spec;
    std::unique_ptr<rasc::RascChecker> Checker;
    std::vector<rasc::Violation> Found;
    Status St;
    int32_t CtorSpan, SolveSpan;
    rasc::SolverStats Before;
    auto T0 = Clock::now();
    {
      ScopedSpan Root(T, "op", OpId);
      {
        ScopedSpan S(T, "automata.dfa", OpId);
        Spec = std::make_unique<rasc::SpecAutomaton>(rasc::fullPrivilegeSpec());
      }
      {
        ScopedSpan S(T, "pdmc.generate", OpId);
        CtorSpan = S.index();
        Checker = std::make_unique<rasc::RascChecker>(Prog, *Spec);
      }
      {
        ScopedSpan S(T, "pdmc.generate", OpId);
        Checker->prepare();
      }
      {
        ScopedSpan S(T, "solver.other", OpId);
        SolveSpan = S.index();
        Before = Checker->solver()->stats();
        St = Checker->solver()->solve();
      }
      {
        ScopedSpan S(T, "query.pdmc", OpId);
        Found = Checker->collectViolations();
      }
    }
    double LatencyMs = secondsSince(T0) * 1e3;

    auto U1 = Clock::now();
    const rasc::SolverStats &Stats = Checker->solver()->stats();
    if (T.on()) {
      T.derived("solver.ingest", OpId, SolveSpan,
                Stats.IngestSeconds - Before.IngestSeconds);
      T.derived("solver.closure", OpId, SolveSpan,
                Stats.ClosureSeconds - Before.ClosureSeconds);
      // The checker builds its monoid inside the constructor; time the
      // same construction standalone, outside the op.
      auto P0 = Clock::now();
      rasc::MonoidDomain Probe(Spec->machine());
      double S = secondsSince(P0);
      ProbeSeconds += S;
      T.derived("monoid.build", OpId, CtorSpan, S);
    }

    if (St != Status::Solved)
      R.fail("package " + std::to_string(Idx) + ": solve ended with status " +
             std::to_string(static_cast<int>(St)));
    else if (std::vector<rasc::Violation> Mops =
                 rasc::MopsChecker(Prog, In.Spec).check();
             Found != Mops)
      R.fail("package " + std::to_string(Idx) + ": " +
             std::to_string(Found.size()) + " violations, MOPS found " +
             std::to_string(Mops.size()));
    if (Idx < FingerprintOps) {
      FirstPass.DfaStates += Spec->machine().numStates();
      FirstPass.Elements += Checker->system().domain().size();
      FirstPass.Constraints += Checker->system().constraints().size();
      FirstPass.Edges += Stats.EdgesInserted;
      FirstPass.Compose += Stats.ComposeCalls;
      FirstPass.Dropped += Stats.EdgesDropped;
      FirstPass.Useless += Stats.UselessFiltered;
      FirstPass.Violations += Found.size();
      ++FirstPass.Ops;
    }
    Checker.reset();
    UntimedSeconds += secondsSince(U1);
    return LatencyMs;
  }

  /// Runs ops for \p Budget seconds of real time; \returns the timed
  /// wall seconds (untimed work excluded).
  double phase(double Budget, Tracer &T, std::vector<double> &Lat,
               std::vector<double> *EndS = nullptr) {
    double UntimedBefore = UntimedSeconds;
    auto Start = Clock::now();
    do {
      Lat.push_back(op(T));
      if (EndS)
        EndS->push_back(secondsSince(Start) - (UntimedSeconds - UntimedBefore));
    } while (secondsSince(Start) < Budget);
    return secondsSince(Start) - (UntimedSeconds - UntimedBefore);
  }
};

} // namespace

int runPackages(const Options &O) {
  Report R;

  // Set-up: the fingerprint pass's packages plus a warm-up check of
  // one fixed package, nine times.
  Stream In{O.Seed};
  std::vector<double> SetupS;
  for (int Rep = 0; Rep != 9; ++Rep) {
    auto T0 = Clock::now();
    std::vector<rasc::Program> First;
    for (size_t I = 0; I != FingerprintOps; ++I)
      First.push_back(In.package(I));
    rasc::Program WarmProg = rasc::generatePackage(4000, In.Spec, 1);
    rasc::SpecAutomaton Spec = rasc::fullPrivilegeSpec();
    rasc::RascChecker Warm(WarmProg, Spec);
    Warm.check();
    SetupS.push_back(secondsSince(T0));
  }
  R.SetupSeconds = quantile(SetupS, 0.5);

  Loop L{In, R, 0, {}, 0, 0};
  Tracer Off(false);
  if (!O.Trace) {
    std::vector<double> EndS;
    R.MeasureSeconds = L.phase(O.Seconds, Off, R.OpMs, &EndS);
    R.windowsByTime(EndS, WindowSeconds);
  } else {
    std::vector<double> UntracedLat, TracedLat;
    double UntracedS = L.phase(0.3 * O.Seconds, Off, UntracedLat);
    Tracer T(true);
    double TracedS = L.phase(0.7 * O.Seconds, T, TracedLat);
    size_t TracedOps = TracedLat.size();
    Attribution A = attribute(T.spans());
    addAttribution(R, A, TracedOps,
                   {"automata.dfa", "monoid.build", "pdmc.generate",
                    "solver.ingest", "solver.closure", "solver.other",
                    "query.pdmc"});
    addTraceRates(R, UntracedLat.size(), UntracedS, TracedOps, TracedS,
                  L.ProbeSeconds);
    std::string Path = O.WorkDir + "/trace-privilege-packages.json";
    if (writeTrace(Path, T.spans()))
      R.Notes.push_back("trace: " + Path);
  }

  const Work &W = L.FirstPass;
  W.addLayerCounts(R);
  if (W.Ops == FingerprintOps)
    R.Fingerprint = {{"packages", W.Ops},
                     {"monoid.elements", W.Elements},
                     {"app.constraints", W.Constraints},
                     {"solver.edges", W.Edges},
                     {"solver.compose_calls", W.Compose},
                     {"violations", W.Violations}};
  else
    R.Notes.push_back("fingerprint: incomplete, the run ended before " +
                      std::to_string(FingerprintOps) + " ops");
  R.Notes.push_back("oracle: MopsChecker on every package, untimed");
  R.PeakRssMb = selfPeakRssMb();
  R.Notes.push_back("privilege-packages: a fresh package per op, closed "
                    "loop, 1 client, solver width 1");
  return printReport(O, R, O.Trace);
}

} // namespace perfbench
