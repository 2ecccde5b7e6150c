//===- perfbench/main.cpp - End-to-end benchmark entry point ----*- C++ -*-===//
//
// Part of the RASC project: regularly annotated set constraints.
//
//===----------------------------------------------------------------------===//
///
/// \file
///   perfbench --workload W --seed N --seconds S --trace 0|1
///             --work DIR --bin DIR --golden DIR
///
/// Runs one workload (ebpf-batch, privilege-packages, rascd-edit) in
/// this process and prints its report; the last stdout line is the
/// JSON result. perfbench/run.py builds the binaries and supplies the
/// directories. Exits 0 after a correct run, 1 after a run with a
/// wrong answer (the result is still printed), and 1 or 2 without a
/// result on a set-up or usage error.
///
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>

using namespace perfbench;

int main(int Argc, char **Argv) {
  Options O;
  for (int I = 1; I < Argc; ++I) {
    std::string_view A = Argv[I];
    if (I + 1 >= Argc) {
      std::fprintf(stderr, "perfbench: %s needs a value\n", Argv[I]);
      return 2;
    }
    const char *V = Argv[++I];
    if (A == "--workload")
      O.Workload = V;
    else if (A == "--seed")
      O.Seed = std::strtoull(V, nullptr, 10);
    else if (A == "--seconds")
      O.Seconds = std::strtod(V, nullptr);
    else if (A == "--trace")
      O.Trace = std::string_view(V) == "1";
    else if (A == "--work")
      O.WorkDir = V;
    else if (A == "--bin")
      O.BinDir = V;
    else if (A == "--golden")
      O.GoldenDir = V;
    else {
      std::fprintf(stderr, "perfbench: unknown option %s\n", Argv[I - 1]);
      return 2;
    }
  }
  if (O.Seconds <= 0 || O.WorkDir.empty()) {
    std::fprintf(stderr, "perfbench: --seconds > 0 and --work are required\n");
    return 2;
  }
  if (O.Workload == "ebpf-batch")
    return runEbpfBatch(O);
  if (O.Workload == "privilege-packages")
    return runPackages(O);
  if (O.Workload == "rascd-edit")
    return runRascdEdit(O);
  std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
               O.Workload.c_str());
  return 2;
}
