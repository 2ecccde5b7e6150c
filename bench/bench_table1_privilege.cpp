//===- bench/bench_table1_privilege.cpp - Table 1 ----------------*- C++ -*-===//
//
// Part of the RASC project: regularly annotated set constraints.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Regenerates Table 1: the process-privilege property (the complete
/// 11-state, 9-symbol model) checked on four packages, comparing the
/// annotated-constraint checker (BANSHEE's role) against the MOPS
/// pushdown baseline.
///
/// Substitution (see DESIGN.md): the original C packages are not
/// available offline; synthetic packages with the paper's line counts
/// and realistic call/branch structure are generated instead, and both
/// checkers consume the same CFGs. Absolute times are not comparable
/// with the paper's 2006 hardware; the claim under test is the shape:
/// both tools finish in seconds, the constraint-based checker is
/// competitive with (or faster than) the dedicated pushdown model
/// checker, and both report identical violations. The program exits 1
/// when the three checkers disagree on any package, so its ctest smoke
/// run is a differential gate.
///
/// A second table lists, per package, the front half of a check and
/// its violation query. "spec us" compiles the full privilege spec
/// from its text, as every check does; "encode us" is encodeProgram
/// on the package (both the fastest of five runs). The query is the
/// wall time of RascChecker::collectViolations on the solved system
/// (run again after the timed check, with metrics on), and "facts"
/// the PN-reachability facts it read, from the solver.reach_facts
/// counter.
///
/// A third table compiles generated N-state, N-symbol specs (N^2
/// arms) and reports the compile time per arm, which stays flat as N
/// grows from 100 to 800.
///
//===----------------------------------------------------------------------===//

#include "automata/Monoid.h"
#include "core/Observe.h"
#include "pdmc/Checker.h"
#include "pdmc/Properties.h"
#include "progen/ProgramGen.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

using namespace rasc;

int main() {
  std::printf("== Table 1: process privilege experiment ==\n\n");

  SpecAutomaton Spec = fullPrivilegeSpec();
  TransitionMonoid Mon(Spec.machine());
  Mon.enumerateAll();
  std::printf("Property: %u states, %u symbols; |F_M^≡| = %zu "
              "(paper's model: 11 states, 9 symbols, 58 functions)\n\n",
              Spec.machine().numStates(), Spec.machine().numSymbols(),
              Mon.size());

  struct Row {
    const char *Name;
    size_t Lines;
    unsigned Programs;
    double PaperBanshee;
    double PaperMops;
  };
  const Row Rows[] = {
      {"VixieCron 3.0.1", 4000, 2, 0.52, 0.57},
      {"At 3.1.8", 6000, 2, 0.52, 0.62},
      {"Sendmail 8.12.8", 222000, 1, 2.3, 5.1},
      {"Apache 2.0.40", 229000, 1, 0.6, 0.7},
  };

  std::printf("| %-16s | %5s | %8s | %9s | %10s | %9s | %10s | "
              "%10s | %5s |\n",
              "Benchmark", "Size", "Programs", "RASC (s)", "RASCfwd(s)",
              "MOPS (s)", "paper RASC", "paper MOPS", "Viols");
  std::printf("|------------------|-------|----------|-----------|"
              "------------|-----------|------------|------------|"
              "-------|\n");

  struct Query {
    std::string Package;
    size_t Lines;
    double SpecUs, EncodeUs;
    double Ms;
    uint64_t Facts;
  };
  // The fastest of five runs of \p F, in microseconds.
  auto bestUs = [](auto F) {
    double Best = 1e300;
    for (int I = 0; I != 5; ++I) {
      auto T0 = std::chrono::steady_clock::now();
      F();
      std::chrono::duration<double, std::micro> Us =
          std::chrono::steady_clock::now() - T0;
      Best = std::min(Best, Us.count());
    }
    return Best;
  };
  MonoidDomain Dom(Spec.machine());
  std::vector<Query> Queries;
  MetricsRegistry::Counter &Facts =
      MetricsRegistry::global().counter("solver.reach_facts");

  bool AllAgree = true;
  for (const Row &R : Rows) {
    double RascTotal = 0, FwdTotal = 0, MopsTotal = 0;
    size_t Violations = 0;
    bool Agree = true;
    for (unsigned I = 0; I != R.Programs; ++I) {
      Program P = generatePackage(R.Lines / R.Programs, Spec,
                                  0x7ab1e1 + I * 131 + R.Lines);
      RascChecker RC(P, Spec);
      std::vector<Violation> VR = RC.check();
      RascTotal += RC.stats().Seconds;
      double SpecUs = bestUs([] { fullPrivilegeSpec(); });
      // The annotations RascChecker encodes the package with.
      std::vector<AnnId> Anns(P.numStatements(), IdentityStmt);
      for (StmtId S = 0; S != P.numStatements(); ++S)
        if (P.stmt(S).Kind == Stmt::Op)
          if (std::optional<SymbolId> Sym =
                  Spec.machine().symbol(P.symbolName(P.stmt(S).OpSym)))
            Anns[S] = Dom.symbolAnn(*Sym);
      double EncodeUs = bestUs([&] {
        ConstraintSystem CS(Dom);
        encodeProgram(P, CS, Anns, "bench");
      });
      {
        uint64_t Before = Facts.get();
        observe::setMetricsEnabled(true);
        auto Q0 = std::chrono::steady_clock::now();
        RC.collectViolations();
        std::chrono::duration<double, std::milli> Ms =
            std::chrono::steady_clock::now() - Q0;
        observe::setMetricsEnabled(false);
        Queries.push_back({std::string(R.Name) + " #" + std::to_string(I + 1),
                           R.Lines / R.Programs, SpecUs, EncodeUs,
                           Ms.count(), Facts.get() - Before});
      }
      RascChecker FC(P, Spec, SolveStrategy::Forward);
      std::vector<Violation> VF = FC.check();
      FwdTotal += FC.stats().Seconds;
      MopsChecker MC(P, Spec);
      std::vector<Violation> VM = MC.check();
      MopsTotal += MC.stats().Seconds;
      Violations += VR.size();
      auto Wheres = [](const std::vector<Violation> &V) {
        std::vector<StmtId> W;
        for (const Violation &X : V)
          W.push_back(X.Where);
        return W;
      };
      Agree &= Wheres(VR) == Wheres(VM) && Wheres(VR) == Wheres(VF);
    }
    std::printf("| %-16s | %4zuk | %8u | %9.3f | %10.3f | %9.3f | "
                "%10.2f | %10.2f | %4zu%s |\n",
                R.Name, R.Lines / 1000, R.Programs, RascTotal, FwdTotal,
                MopsTotal, R.PaperBanshee, R.PaperMops, Violations,
                Agree ? "" : "!");
    AllAgree &= Agree;
  }
  std::printf("\n(Violation counts are properties of the generated "
              "packages; '!' flags checker disagreement and\n"
              " makes the run exit 1. RASCfwd is the Section 5 forward "
              "strategy on the same\n"
              " constraints: i = |S| classes instead of |F_M^≡|.)\n");

  std::printf("\nFront half and violation query per package (spec "
              "compile, encodeProgram,\ncollectViolations on the solved "
              "system):\n\n");
  std::printf("| %-20s | %7s | %7s | %9s | %10s | %8s |\n", "Package",
              "Lines", "spec us", "encode us", "query (ms)", "facts");
  std::printf("|----------------------|---------|---------|-----------|"
              "------------|----------|\n");
  for (const Query &Q : Queries)
    std::printf("| %-20s | %7zu | %7.1f | %9.1f | %10.3f | %8llu |\n",
                Q.Package.c_str(), Q.Lines, Q.SpecUs, Q.EncodeUs, Q.Ms,
                static_cast<unsigned long long>(Q.Facts));

  // Spec compile scaling: q<S> goes to q<(7S + 13A + 1) mod N> on s<A>.
  std::printf("\nSpec compile, N states x N symbols (N^2 arms):\n\n");
  std::printf("| %4s | %9s | %10s | %10s |\n", "N", "text (MB)",
              "compile ms", "ns per arm");
  std::printf("|------|-----------|------------|------------|\n");
  double MinPerArm = 1e300, MaxPerArm = 0;
  for (unsigned N : {100u, 200u, 400u, 800u}) {
    std::string Text;
    for (unsigned S = 0; S != N; ++S) {
      Text += (S == 0 ? "start accept state q" : "state q") +
              std::to_string(S) + " :\n";
      for (unsigned A = 0; A != N; ++A)
        Text += "  | s" + std::to_string(A) + " -> q" +
                std::to_string((S * 7 + A * 13 + 1) % N) + "\n";
      Text += "  ;\n";
    }
    auto T0 = std::chrono::steady_clock::now();
    bool Ok = static_cast<bool>(parseSpecEx(Text));
    std::chrono::duration<double, std::milli> Ms =
        std::chrono::steady_clock::now() - T0;
    double PerArm = Ms.count() * 1e6 / (double(N) * N);
    MinPerArm = std::min(MinPerArm, PerArm);
    MaxPerArm = std::max(MaxPerArm, PerArm);
    std::printf("| %4u | %9.2f | %10.1f | %10.0f |%s\n", N,
                Text.size() / 1e6, Ms.count(), PerArm, Ok ? "" : " failed");
  }
  std::printf("\n(ns per arm, largest over smallest: %.2f)\n",
              MaxPerArm / MinPerArm);
  if (!AllAgree) {
    std::fprintf(stderr, "error: the checkers disagree on a package "
                         "(rows marked '!')\n");
    return 1;
  }
  return 0;
}
