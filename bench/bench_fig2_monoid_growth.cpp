//===- bench/bench_fig2_monoid_growth.cpp - Figure 2 -------------*- C++ -*-===//
//
// Part of the RASC project: regularly annotated set constraints.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Regenerates the Figure 2 / Section 4 analysis: the number of
/// representative functions |F_M^≡| as the adversarial rotate/swap/
/// merge machine grows, versus the |S| classes a unidirectional solver
/// needs (Section 5), versus real properties which stay tiny. Also
/// reports the Section 8 observation that the full 11-state privilege
/// model needs only a handful of functions (the paper measured 58).
///
/// Every row times enumerateAll(), the explicit closure of the
/// generators. A solve never runs it: the monoid interns elements as
/// the closure composes them. The last table sets the two side by
/// side on the paper's two-constraint Figure 2 system, enumerating the
/// monoid before the solve (eager) or not (lazy).
///
//===----------------------------------------------------------------------===//

#include "automata/DfaOps.h"
#include "automata/Machines.h"
#include "automata/Monoid.h"
#include "core/Domains.h"
#include "core/Solver.h"
#include "ebpf/Cfg.h"
#include "ebpf/Decode.h"
#include "ebpf/Lower.h"
#include "flow/Analysis.h"
#include "pdmc/Properties.h"
#include "progen/EbpfGen.h"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>

using namespace rasc;

namespace {

double secondsSince(std::chrono::steady_clock::time_point T0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - T0)
      .count();
}

/// Enumerates \p Mon; \returns the wall milliseconds taken.
double enumerateMs(const TransitionMonoid &Mon) {
  auto T0 = std::chrono::steady_clock::now();
  Mon.enumerateAll();
  return secondsSince(T0) * 1e3;
}

void realRow(const char *Name, const Dfa &M) {
  TransitionMonoid Mon(M);
  double Ms = enumerateMs(Mon);
  std::printf("| %-34s | %4u | %8zu | %13.3f |\n", Name, M.numStates(),
              Mon.size(), Ms);
}

/// Solves pc ⊆^rotate X, X ⊆^swap Y over \p Dom; \returns whether pc
/// reaches Y with an accepting annotation ("rotate swap" returns to
/// the start state).
bool solveFigure2(const MonoidDomain &Dom) {
  ConstraintSystem CS(Dom);
  ConsId Pc = CS.addConstant("pc");
  VarId X = CS.freshVar(), Y = CS.freshVar();
  CS.add(CS.cons(Pc), CS.var(X), Dom.symbolAnn("rotate"));
  CS.add(CS.var(X), CS.var(Y), Dom.symbolAnn("swap"));
  BidirectionalSolver S(CS);
  S.solve();
  return S.entailsConstant(Pc, Y);
}

/// The flow pair automaton of a generated eBPF program (every program
/// tracks the same register states, so all give the same monoid).
Dfa ebpfFlowPairAutomaton() {
  EbpfGenOptions O;
  Expected<ebpf::DecodedProgram> D = ebpf::decode(generateEbpf(O));
  if (!D)
    std::abort(); // generator/decoder disagreement: a test failure
  ebpf::Cfg G = ebpf::buildCfg(std::move(*D));
  return buildPairAutomaton(ebpf::lowerToFlowProgram(G).Prog);
}

} // namespace

int main() {
  std::printf("== Figure 2: |F_M^≡| can be superexponential in |S| "
              "==\n\n");
  std::printf("Adversarial rotate/swap/merge machine:\n");
  std::printf("| %3s | %12s | %12s | %22s | %13s |\n", "|S|",
              "|F_M^≡|", "|S|^|S|", "unidirectional (=|S|)",
              "enumerate ms");
  std::printf("|-----|--------------|--------------|"
              "------------------------|---------------|\n");
  for (unsigned N = 2; N <= 7; ++N) {
    Dfa M = buildAdversarialMachine(N);
    TransitionMonoid::Options Opts;
    Opts.MaxElements = size_t(1) << 23; // 8M cap
    TransitionMonoid Mon(M, Opts);
    double Ms = enumerateMs(Mon);
    double Pow = std::pow(double(N), double(N));
    std::printf("| %3u | %12zu%s | %12.0f | %22u | %13.3f |\n", N,
                Mon.size(), Mon.overflowed() ? "+" : " ", Pow, N, Ms);
  }
  std::printf("('+' marks hitting the 8M element cap.)\n");

  std::printf("\nReal annotation languages stay small:\n");
  std::printf("| %-34s | %4s | %8s | %13s |\n", "machine", "|S|",
              "|F_M^≡|", "enumerate ms");
  std::printf("|------------------------------------|------|"
              "----------|---------------|\n");
  realRow("1-bit gen/kill (Figure 1)", buildOneBitMachine());
  for (unsigned Bits = 2; Bits <= 4; ++Bits) {
    char Name[64];
    std::snprintf(Name, sizeof(Name), "%u-bit gen/kill product (3^n)",
                  Bits);
    realRow(Name, buildNBitMachine(Bits));
  }
  realRow("privilege, simple (Figure 3)", simplePrivilegeSpec().machine());
  realRow("privilege, full (paper: 58 fns)", fullPrivilegeSpec().machine());
  realRow("file state (Figure 5)", fileStateSpec().machine());
  realRow("eBPF map check", ebpf::mapCheckSpec().machine());
  realRow("eBPF flow pair automaton", ebpfFlowPairAutomaton());

  std::printf("\nThe Figure 2 system (pc <=[rotate] X, X <=[swap] Y), "
              "eager vs lazy:\n");
  std::printf("| %3s | %14s | %12s | %13s | %13s | %6s |\n", "|S|",
              "eager elements", "eager ms", "lazy elements", "lazy ms",
              "answer");
  std::printf("|-----|----------------|--------------|---------------|"
              "---------------|--------|\n");
  for (unsigned N : {2u, 3u, 4u, 5u, 6u, 7u, 8u, 16u, 64u}) {
    Dfa M = buildAdversarialMachine(N);
    char Eager[2][32] = {"-", "-"};
    bool EagerAnswer = true;
    // Past 7 states the enumeration alone needs gigabytes (8^8 is
    // 16.8M elements); the default cap stops it at 4M.
    if (N <= 7) {
      auto T0 = std::chrono::steady_clock::now();
      MonoidDomain Dom(M);
      Dom.monoid().enumerateAll();
      EagerAnswer = solveFigure2(Dom);
      std::snprintf(Eager[0], sizeof(Eager[0]), "%zu", Dom.size());
      std::snprintf(Eager[1], sizeof(Eager[1]), "%.3f",
                    secondsSince(T0) * 1e3);
    }
    auto T0 = std::chrono::steady_clock::now();
    MonoidDomain Dom(M);
    bool Answer = solveFigure2(Dom);
    double LazyMs = secondsSince(T0) * 1e3;
    if (Answer != EagerAnswer)
      return 1;
    std::printf("| %3u | %14s | %12s | %13zu | %13.3f | %6s |\n", N,
                Eager[0], Eager[1], Dom.size(), LazyMs,
                Answer ? "holds" : "no");
  }
  return 0;
}
