//===- tests/proof_golden_test.cpp - Proof-log bytes are pinned -*- C++ -*-===//
//
// Part of the RASC project: regularly annotated set constraints.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Proof logs name every variable and constructor they mention, so they
/// are the place where a change to how names are stored would show. The
/// pdmc and the dataflow application each solve the Section 6.3
/// privilege example (as a Program with one call, so call constructors
/// appear) with a proof log, and the log must equal the checked-in
/// bytes under tests/data/proof/ exactly. The flow application's log
/// (whose sources are seeded per query) must validate with rasccheck.
///
/// On a mismatch the produced log is left in the test's temporary
/// directory and its path is printed, so a deliberate format change
/// can be reviewed and checked in.
///
//===----------------------------------------------------------------------===//

#include "check/Checker.h"
#include "dataflow/BitVector.h"
#include "flow/Analysis.h"
#include "pdmc/Checker.h"
#include "pdmc/Properties.h"

#include "gtest/gtest.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>

#include <unistd.h>

using namespace rasc;

namespace {

std::string tempPath(const std::string &Name) {
  return (std::filesystem::path(::testing::TempDir()) /
          ("proofgolden_" + std::to_string(::getpid()) + "_" + Name))
      .string();
}

std::string readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(In),
                     std::istreambuf_iterator<char>());
}

/// Section 6.3: s1 acquires privilege, one branch calls a helper that
/// drops it, the other does not, and s5 execs a shell.
Program privilegeProgram() {
  Program P;
  FuncId Main = P.addFunction("main");
  FuncId Drop = P.addFunction("drop_priv");
  StmtId S1 = P.addOp(Main, "seteuid_zero", {}, "s1: seteuid(0)");
  StmtId S2 = P.addNop(Main, "s2: if (...)");
  StmtId S3 = P.addCall(Main, Drop, "s3: drop_priv()");
  StmtId S4 = P.addNop(Main, "s4: ...");
  StmtId S5 = P.addOp(Main, "execl", {}, "s5: execl(\"/bin/sh\")");
  P.addEdge(P.entry(Main), S1);
  P.addEdge(S1, S2);
  P.addEdge(S2, S3);
  P.addEdge(S2, S4);
  P.addEdge(S3, S5);
  P.addEdge(S4, S5);
  StmtId D1 = P.addOp(Drop, "seteuid_nonzero", {}, "d1: seteuid(getuid())");
  P.addEdge(P.entry(Drop), D1);
  P.finalize();
  return P;
}

/// Compares the log at \p Path with tests/data/proof/\p Golden; keeps
/// the log on a mismatch.
void expectGolden(const std::string &Path, const std::string &Golden) {
  std::string Want = readFile(std::string(RASC_TEST_DATA_DIR) + "/proof/" +
                              Golden);
  ASSERT_FALSE(Want.empty()) << "missing golden " << Golden;
  std::string Got = readFile(Path);
  EXPECT_EQ(Got.size(), Want.size());
  if (Got == Want) {
    std::remove(Path.c_str());
    return;
  }
  ADD_FAILURE() << "proof log differs from " << Golden
                << "; the produced log is kept at " << Path;
}

rasccheck::CheckResult check(const std::string &LogPath) {
  rasccheck::CheckOptions O;
  O.LogPath = LogPath;
  return rasccheck::checkProofLog(O);
}

} // namespace

TEST(ProofGolden, PdmcPrivilegeLogBytes) {
  Program P = privilegeProgram();
  SpecAutomaton Spec = simplePrivilegeSpec();
  const std::string Path = tempPath("pdmc.rprf");
  RascChecker C(P, Spec);
  SolverOptions O;
  O.ProofLogPath = Path;
  C.setSolverOptions(O);
  std::vector<Violation> V = C.check();
  ASSERT_EQ(V.size(), 1u);
  EXPECT_FALSE(C.solver()->lastProofDiag());
  EXPECT_EQ(check(Path).ExitCode, 0);
  expectGolden(Path, "pdmc-privilege.rprf");
}

TEST(ProofGolden, DataflowPrivilegeLogBytes) {
  // Bit 0: "privilege acquired", bit 1: "privilege dropped".
  Program P = privilegeProgram();
  BitVectorProblem Problem(P, 2);
  for (StmtId S = 0; S != P.numStatements(); ++S) {
    if (P.stmt(S).Kind != Stmt::Op)
      continue;
    if (P.describe(S).find("seteuid_zero") != std::string::npos)
      Problem.addTransfer(S, 1, 2);
    else if (P.describe(S).find("seteuid_nonzero") != std::string::npos)
      Problem.addTransfer(S, 2, 1);
  }
  const std::string Path = tempPath("dataflow.rprf");
  AnnotatedBitVectorAnalysis A(Problem);
  SolverOptions O;
  O.ProofLogPath = Path;
  A.prepare(O);
  A.solve();
  EXPECT_FALSE(A.solver()->lastProofDiag());
  EXPECT_EQ(check(Path).ExitCode, 0);
  expectGolden(Path, "dataflow-privilege.rprf");
}

// The flow analysis seeds a source when a query names it, so its log
// grows across queries; every state of it must still validate.
TEST(ProofGolden, FlowLogAcrossQueriesValidates) {
  std::optional<FlowProgram> P = FlowProgram::parse(
      "pair (y : int) : (int, int) = (1, y);\n"
      "main (z : int) : int = pair(2).2;\n");
  ASSERT_TRUE(P);
  const std::string Path = tempPath("flow.rprf");
  FlowAnalysis A(*P, FlowMode::Primal);
  SolverOptions O;
  O.ProofLogPath = Path;
  A.prepare(O);
  FExprId Main = P->functions()[1].Body;
  std::vector<FExprId> Lits = P->literals();
  ASSERT_EQ(Lits.size(), 2u);
  EXPECT_FALSE(A.flows(Lits[0], Main)); // 1 is projected away
  EXPECT_EQ(check(Path).ExitCode, 0);
  EXPECT_TRUE(A.flows(Lits[1], Main)); // 2 comes back through y
  EXPECT_FALSE(A.solver().lastProofDiag());
  rasccheck::CheckResult R = check(Path);
  EXPECT_EQ(R.ExitCode, 0) << R.Message;
  std::remove(Path.c_str());
}
