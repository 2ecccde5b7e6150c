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
/// Every row splits construction time into the closure that enumerates
/// the elements and the dense composition table built from it ('-'
/// where the monoid exceeds the default table limit and composes
/// through the memo map instead).
///
//===----------------------------------------------------------------------===//

#include "automata/DfaOps.h"
#include "automata/Machines.h"
#include "automata/Monoid.h"
#include "ebpf/Cfg.h"
#include "ebpf/Decode.h"
#include "ebpf/Lower.h"
#include "flow/Analysis.h"
#include "pdmc/Properties.h"
#include "progen/EbpfGen.h"

#include <cmath>
#include <cstdio>
#include <string>

using namespace rasc;

namespace {

/// "closure ms | table ms" cells of one monoid.
std::string timings(const TransitionMonoid &Mon) {
  char Buf[64];
  if (Mon.composeRowLhs(Mon.identity()))
    std::snprintf(Buf, sizeof(Buf), "%10.3f | %9.3f", Mon.closureSeconds() * 1e3,
                  Mon.tableSeconds() * 1e3);
  else
    std::snprintf(Buf, sizeof(Buf), "%10.3f | %9s", Mon.closureSeconds() * 1e3,
                  "-");
  return Buf;
}

void realRow(const char *Name, const Dfa &M) {
  TransitionMonoid Mon(M);
  std::printf("| %-34s | %4u | %8zu | %s |\n", Name, M.numStates(),
              Mon.size(), timings(Mon).c_str());
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
  std::printf("| %3s | %12s | %12s | %22s | %10s | %9s |\n", "|S|",
              "|F_M^≡|", "|S|^|S|", "unidirectional (=|S|)", "closure ms",
              "table ms");
  std::printf("|-----|--------------|--------------|"
              "------------------------|------------|-----------|\n");
  for (unsigned N = 2; N <= 7; ++N) {
    Dfa M = buildAdversarialMachine(N);
    TransitionMonoid::Options Opts;
    Opts.MaxElements = size_t(1) << 23; // 8M cap
    TransitionMonoid Mon(M, Opts);
    double Pow = std::pow(double(N), double(N));
    std::printf("| %3u | %12zu%s | %12.0f | %22u | %s |\n", N, Mon.size(),
                Mon.overflowed() ? "+" : " ", Pow, N, timings(Mon).c_str());
  }
  std::printf("('+' marks hitting the 8M element cap; '-' composes "
              "through the memo map.)\n");

  std::printf("\nReal annotation languages stay small:\n");
  std::printf("| %-34s | %4s | %8s | %10s | %9s |\n", "machine", "|S|",
              "|F_M^≡|", "closure ms", "table ms");
  std::printf("|------------------------------------|------|"
              "----------|------------|-----------|\n");
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
  return 0;
}
