//===- tests/proof_log_test.cpp - Proof logging round trips -----*- C++ -*-===//
//
// Part of the RASC project: regularly annotated set constraints.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// End-to-end tests of the proof-logging trust boundary (DESIGN.md
/// §12): the solver streams a derivation log (core/ProofLog.h) and
/// the *independent* checker behind rasccheck (check/Checker.h) —
/// which shares no code with the solver — validates it. Covered here:
///
///  - A 59-seed random-system corpus, every log validating with the
///    exit code matching the solve status.
///  - Torn tails: appended garbage is an incomplete proof until
///    recoverProofLog() truncates back to the last CRC-complete
///    chunk; mid-chunk truncation degrades the same way.
///  - Injected faults (support/FailPoint.h): a torn write or failed
///    fsync abandons the log (lastProofDiag) without interrupting the
///    solve; an injected short read makes recovery truncate — which
///    is always safe, the log merely proves less.
///  - The log is only written live: enabling it on a started solver
///    is a Diag, and resetToFresh() + solve() then writes a complete,
///    checkable proof.
///  - Retraction (flag + resetToFresh() + solve()) rewrites the log as
///    a complete proof of the edited system, which the --system
///    cross-check accepts against the text with its "retract N;" line.
///  - The --system cross-check accepts the very file the log was
///    solved from and rejects a semantically edited one.
///  - The byte layer the log is framed with (support/Serialize.h):
///    the CRC32 check value and the scalar encoder/decoder round trip.
///
//===----------------------------------------------------------------------===//

#include "TestSystems.h"
#include "check/Checker.h"
#include "core/ProofLog.h"
#include "core/Solver.h"
#include "frontend/ConstraintParser.h"
#include "pdmc/Checker.h"
#include "pdmc/Properties.h"
#include "progen/ProgramGen.h"
#include "support/FailPoint.h"
#include "support/Serialize.h"

#include "gtest/gtest.h"

#include <cstdio>
#include <filesystem>
#include <fstream>

#include <unistd.h>

using namespace rasc;
using Status = BidirectionalSolver::Status;

namespace {

std::string tempPath(const std::string &Name) {
  return (std::filesystem::path(::testing::TempDir()) /
          ("prooflog_" + std::to_string(::getpid()) + "_" + Name))
      .string();
}

rasccheck::CheckResult check(const std::string &LogPath,
                             const std::string &SystemPath = {}) {
  rasccheck::CheckOptions O;
  O.LogPath = LogPath;
  O.SystemPath = SystemPath;
  return rasccheck::checkProofLog(O);
}

class ProofLogTest : public ::testing::Test {
protected:
  void SetUp() override { failpoints::disarmAll(); }
  void TearDown() override { failpoints::disarmAll(); }
};

/// A tiny hand-built system: k <= A, A <=[g] B, c0(A) <= C.
testgen::RandomSystem smallSystem() {
  testgen::RandomSystem Sys;
  DfaBuilder B;
  SymbolId G = B.addSymbol("g");
  B.addState();
  B.addState();
  B.setStart(0);
  B.setAccepting(1);
  B.addTransition(0, G, 1);
  B.addTransition(1, G, 1);
  Sys.Dom = std::make_unique<MonoidDomain>(B.build());
  Sys.CS = std::make_unique<ConstraintSystem>(*Sys.Dom);
  Sys.Constants.push_back(Sys.CS->addConstant("k"));
  Sys.Constructors.push_back(Sys.CS->addConstructor("c0", 1));
  for (int I = 0; I != 3; ++I)
    Sys.Vars.push_back(Sys.CS->freshVar());
  Sys.CS->add(Sys.CS->cons(Sys.Constants[0]), Sys.CS->var(Sys.Vars[0]),
              Sys.Dom->identity());
  Sys.CS->add(Sys.CS->var(Sys.Vars[0]), Sys.CS->var(Sys.Vars[1]),
              Sys.Dom->symbolAnn(0));
  Sys.CS->add(Sys.CS->cons(Sys.Constructors[0], {Sys.Vars[0]}),
              Sys.CS->var(Sys.Vars[2]), Sys.Dom->identity());
  return Sys;
}

} // namespace

// A Table 1 package through RascChecker: the application layer's
// solve (shared statement variables, pc lower bounds, call
// constructors and return projections) is certified by rasccheck
// like any other, and the solve's answers are unchanged by logging.
TEST_F(ProofLogTest, RascCheckerPackageValidates) {
  const std::string Path = tempPath("package.rprf");
  SpecAutomaton Spec = fullPrivilegeSpec();
  for (uint64_t Seed : {1, 7}) {
    SCOPED_TRACE("package seed " + std::to_string(Seed));
    Program Prog = generatePackage(4000, Spec, Seed);
    RascChecker Plain(Prog, Spec);
    std::vector<Violation> Want = Plain.check();

    RascChecker Logged(Prog, Spec);
    SolverOptions O;
    O.ProofLogPath = Path;
    Logged.setSolverOptions(O);
    Logged.prepare();
    BidirectionalSolver &S = *Logged.solver();
    ASSERT_EQ(S.solve(), Status::Solved);
    ASSERT_FALSE(S.lastProofDiag()) << S.lastProofDiag()->render();
    EXPECT_EQ(Logged.collectViolations(), Want);

    rasccheck::CheckResult C = check(Path);
    EXPECT_EQ(C.ExitCode, 0) << C.Message;
    EXPECT_EQ(C.Edges + C.Conflicts, S.stats().EdgesInserted);
    EXPECT_GT(C.TransitiveObligations, 0u);
    EXPECT_GT(C.ProjectionObligations, 0u);
  }
  std::remove(Path.c_str());
}

// The acceptance gate: every corpus log validates.
TEST_F(ProofLogTest, CorpusValidatesAcrossBackends) {
  const std::string Path = tempPath("corpus.rprf");
  for (uint64_t Seed = 0; Seed != 59; ++Seed) {
    SCOPED_TRACE(testgen::seedContext(Seed));
    Rng R(Seed * 7919 + 17);
    testgen::RandomSystem Sys = testgen::randomSystem(R);
    SolverOptions O;
    O.ProofLogPath = Path;
    BidirectionalSolver S(*Sys.CS, O);
    Status St = S.solve();
    ASSERT_FALSE(S.lastProofDiag()) << S.lastProofDiag()->render();
    rasccheck::CheckResult C = check(Path);
    EXPECT_TRUE(C.ok()) << C.Message;
    EXPECT_EQ(C.ExitCode, St == Status::Inconsistent ? 1 : 0) << C.Message;
    // The log accounts for every inserted edge: the checker's
    // edge+conflict tally matches the solver's dedup-fresh count.
    EXPECT_EQ(C.Edges + C.Conflicts, S.stats().EdgesInserted);
  }
  std::remove(Path.c_str());
}

TEST_F(ProofLogTest, TornTailIsIncompleteUntilRecovered) {
  const std::string Path = tempPath("torn.rprf");
  testgen::RandomSystem Sys = smallSystem();
  SolverOptions O;
  O.ProofLogPath = Path;
  BidirectionalSolver S(*Sys.CS, O);
  ASSERT_EQ(S.solve(), Status::Solved);
  ASSERT_EQ(check(Path).ExitCode, 0);

  // Garbage after the last sealed chunk: incomplete, not malformed —
  // exactly what a crash mid-append leaves behind.
  {
    std::ofstream F(Path, std::ios::binary | std::ios::app);
    F << "garbage-torn-tail";
  }
  EXPECT_EQ(check(Path).ExitCode, rasccheck::ExitIncomplete);

  // Recovery truncates back to the sealed prefix, restoring validity.
  Expected<uint64_t> Kept = recoverProofLog(Path);
  ASSERT_TRUE(static_cast<bool>(Kept)) << Kept.error().render();
  EXPECT_EQ(check(Path).ExitCode, 0);

  // Mid-chunk truncation kills the records chunk wholesale: recovery
  // keeps only the header, and the log proves nothing (incomplete).
  uint64_t Full = std::filesystem::file_size(Path);
  std::filesystem::resize_file(Path, Full - 3);
  EXPECT_EQ(check(Path).ExitCode, rasccheck::ExitIncomplete);
  Kept = recoverProofLog(Path);
  ASSERT_TRUE(static_cast<bool>(Kept)) << Kept.error().render();
  EXPECT_LT(*Kept, Full);
  EXPECT_EQ(check(Path).ExitCode, rasccheck::ExitIncomplete);
  std::remove(Path.c_str());
}

TEST_F(ProofLogTest, InjectedTornWriteDegradesNotInterrupts) {
  const std::string Path = tempPath("tornwrite.rprf");
  testgen::RandomSystem Sys = smallSystem();
  SolverOptions O;
  O.ProofLogPath = Path;
  BidirectionalSolver S(*Sys.CS, O);
  failpoints::arm(failpoints::Point::TornWrite, 0);
  Status St = S.solve();
  failpoints::disarmAll();
  // The solve result stands; only the artifact is lost.
  EXPECT_EQ(St, Status::Solved);
  ASSERT_TRUE(S.lastProofDiag());
  EXPECT_NE(S.lastProofDiag()->render().find("torn"), std::string::npos);
  EXPECT_EQ(S.stats().ProofFailures, 1u);
  EXPECT_FALSE(S.proofActive());

  // On disk: a half-written chunk. Recovery truncates it; what
  // remains decodes but proves nothing.
  Expected<uint64_t> Kept = recoverProofLog(Path);
  ASSERT_TRUE(static_cast<bool>(Kept)) << Kept.error().render();
  EXPECT_EQ(check(Path).ExitCode, rasccheck::ExitIncomplete);
  std::remove(Path.c_str());
}

TEST_F(ProofLogTest, InjectedFsyncFailDegradesNotInterrupts) {
  const std::string Path = tempPath("fsyncfail.rprf");
  testgen::RandomSystem Sys = smallSystem();
  SolverOptions O;
  O.ProofLogPath = Path;
  BidirectionalSolver S(*Sys.CS, O);
  failpoints::arm(failpoints::Point::FsyncFail, 0);
  Status St = S.solve();
  failpoints::disarmAll();
  EXPECT_EQ(St, Status::Solved);
  ASSERT_TRUE(S.lastProofDiag());
  EXPECT_EQ(S.stats().ProofFailures, 1u);
  std::remove(Path.c_str());
}

TEST_F(ProofLogTest, InjectedShortReadTruncatesRecovery) {
  const std::string Path = tempPath("shortread.rprf");
  testgen::RandomSystem Sys = smallSystem();
  SolverOptions O;
  O.ProofLogPath = Path;
  BidirectionalSolver S(*Sys.CS, O);
  ASSERT_EQ(S.solve(), Status::Solved);

  // A short read at the very first frame: recovery conservatively
  // truncates everything. Safe — the file is empty, provably nothing.
  failpoints::arm(failpoints::Point::ShortRead, 0);
  Expected<uint64_t> Kept = recoverProofLog(Path);
  failpoints::disarmAll();
  ASSERT_TRUE(static_cast<bool>(Kept)) << Kept.error().render();
  EXPECT_EQ(*Kept, 0u);
  EXPECT_EQ(std::filesystem::file_size(Path), 0u);
  EXPECT_EQ(check(Path).ExitCode, rasccheck::ExitIncomplete);
  std::remove(Path.c_str());
}

TEST_F(ProofLogTest, LateOptInNeedsResetToFresh) {
  const std::string Path = tempPath("lateoptin.rprf");
  for (uint64_t Seed : {3u, 17u, 41u}) {
    SCOPED_TRACE("seed " + std::to_string(Seed));
    Rng R(Seed * 7919 + 17);
    testgen::RandomSystem Sys = testgen::randomSystem(R);
    BidirectionalSolver S(*Sys.CS);
    Status First = S.solve();
    // Enabling the log only now cannot be honored: the records of the
    // existing closure were never written. The solve itself stands.
    S.options().ProofLogPath = Path;
    EXPECT_EQ(S.solve(), First);
    ASSERT_TRUE(S.lastProofDiag());
    EXPECT_NE(S.lastProofDiag()->message().find("proof log unavailable"),
              std::string::npos)
        << S.lastProofDiag()->render();
    EXPECT_FALSE(S.proofActive());

    // A reset keeps the path and logs the re-solve live.
    S.resetToFresh();
    EXPECT_EQ(S.solve(), First);
    ASSERT_FALSE(S.lastProofDiag()) << S.lastProofDiag()->render();
    EXPECT_TRUE(S.proofActive());
    rasccheck::CheckResult C = check(Path);
    EXPECT_TRUE(C.ok()) << C.Message;
  }
  std::remove(Path.c_str());
}

TEST_F(ProofLogTest, LogStaysCheckableAcrossRetract) {
  const char *Source = "language regex \"g+\";\n"
                       "constant k;\n"
                       "constructor c0 1;\n"
                       "var A B C;\n"
                       "k <= A;\n"
                       "A <= [g] B;\n"
                       "c0(A) <= C;\n"
                       "query k in B;\n";
  Expected<ConstraintProgram> P = ConstraintProgram::parseEx(Source);
  ASSERT_TRUE(static_cast<bool>(P)) << P.error().render();
  const std::string Log = tempPath("retract.rprf");
  const std::string Rasc = tempPath("retract.rasc");
  auto writeText = [&](const std::string &Text) {
    std::ofstream F(Rasc);
    F << Text;
  };
  SolverOptions O;
  O.ProofLogPath = Log;
  BidirectionalSolver S(P->system(), O);
  ASSERT_EQ(S.solve(), Status::Solved);
  ASSERT_TRUE(P->answer(S).at(0).Holds);
  writeText(Source);
  ASSERT_EQ(check(Log, Rasc).ExitCode, 0) << check(Log, Rasc).Message;

  // Retract "A <= [g] B": the re-solve rewrites the log from its
  // header, so it is a complete proof of the edited system.
  ASSERT_FALSE(P->addStatements("retract 1;\n"));
  S.resetToFresh();
  ASSERT_EQ(S.solve(), Status::Solved);
  ASSERT_FALSE(S.lastProofDiag()) << S.lastProofDiag()->render();
  EXPECT_TRUE(S.proofActive());
  std::vector<ConstraintProgram::Answer> Answers = P->answer(S);
  ASSERT_EQ(Answers.size(), 1u);
  EXPECT_FALSE(Answers[0].Holds); // k no longer reaches B
  rasccheck::CheckResult C = check(Log);
  EXPECT_EQ(C.ExitCode, 0) << C.Message;

  // The durable text of the edit carries the "retract 1;" line; the
  // cross-check accepts it and rejects the pre-retract text.
  writeText(std::string(Source) + "retract 1;\n");
  EXPECT_EQ(check(Log, Rasc).ExitCode, 0) << check(Log, Rasc).Message;
  writeText(Source);
  EXPECT_EQ(check(Log, Rasc).ExitCode, rasccheck::ExitSystemMismatch);
  std::remove(Log.c_str());
  std::remove(Rasc.c_str());
}

TEST_F(ProofLogTest, SystemCrossCheckAcceptsSourceRejectsEdit) {
  const char *Source = "language regex \"(g | k)* g\";\n"
                       "constant c;\n"
                       "constructor o 1;\n"
                       "var W X Y Z;\n"
                       "c <= [g] W;\n"
                       "o(W) <= [g] X;\n"
                       "X <= o(Y);\n"
                       "o(Y) <= Z;\n";
  Expected<ConstraintProgram> P = ConstraintProgram::parseEx(Source);
  ASSERT_TRUE(static_cast<bool>(P)) << P.error().render();
  const std::string Log = tempPath("xcheck.rprf");
  SolverOptions O;
  O.ProofLogPath = Log;
  BidirectionalSolver S(P->system(), O);
  ASSERT_EQ(S.solve(), Status::Solved);

  const std::string Rasc = tempPath("xcheck.rasc");
  {
    std::ofstream F(Rasc);
    F << Source;
  }
  EXPECT_EQ(check(Log, Rasc).ExitCode, 0) << check(Log, Rasc).Message;

  // Same shape, different annotation: the log proves a different
  // system and the cross-check must say so.
  {
    std::ofstream F(Rasc);
    std::string Edited(Source);
    Edited.replace(Edited.find("c <= [g] W;"), 11, "c <= W;");
    F << Edited;
  }
  EXPECT_EQ(check(Log, Rasc).ExitCode, rasccheck::ExitSystemMismatch);
  std::remove(Log.c_str());
  std::remove(Rasc.c_str());
}

TEST_F(ProofLogTest, Crc32KnownVector) {
  // The standard reflected-CRC32 check value.
  EXPECT_EQ(crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(crc32("", 0), 0u);
}

TEST_F(ProofLogTest, ByteRoundTrip) {
  ByteWriter W;
  W.u8(0xAB);
  W.u32(0xDEADBEEF);
  W.u64(0x0123456789ABCDEFull);
  W.f64(3.25);
  ByteReader R(W.data().data(), W.size());
  EXPECT_EQ(R.u8(), 0xAB);
  EXPECT_EQ(R.u32(), 0xDEADBEEFu);
  EXPECT_EQ(R.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(R.f64(), 3.25);
  EXPECT_TRUE(R.atEnd());
  EXPECT_FALSE(R.bad());
  // Overrun returns zeros and latches the bad flag.
  EXPECT_EQ(R.u32(), 0u);
  EXPECT_TRUE(R.bad());
}
