//===- tests/proof_mutation_test.cpp - Adversarial log mutations -*- C++ -*-//
//
// Part of the RASC project: regularly annotated set constraints.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Adversarial validation of the rasccheck trust boundary: a checker
/// that accepts honest logs is only half the contract — it must
/// *reject* every log whose derivations it cannot justify. This test
/// generates honest proof logs over the 59-seed corpus, then applies
/// surgical record-level mutations (re-framing the CRCs so the
/// container stays well-formed and the *semantic* passes are the ones
/// that must object) and asserts the checker rejects every mutant:
///
///   drop-edge          erase an edge cited as a later premise
///   swap-ann           rewrite an edge's annotation to a different
///                      defined element
///   forge-rule         relabel an edge's deriving closure rule
///   reorder-premise    move a premise edge after its first citation
///   bump-processed     inflate the trailer's processed-edge count
///   drop-trailer       remove the STATUS trailer record
///   truncate-mid-chunk cut the file inside a sealed chunk
///   corrupt-crc        flip one bit in a chunk's checksum
///
/// The last two leave a damaged container (exit 25, torn/incomplete);
/// the others produce CRC-valid logs whose *derivations* lie (exit
/// 22) or whose completeness claim lies (exit 25). A mutation kind
/// not applicable to some seed (e.g. no transitive edge to reorder)
/// is skipped, with per-kind floors asserting the corpus exercised
/// every kind many times.
///
//===----------------------------------------------------------------------===//

#include "ProofLogEdit.h"
#include "TestSystems.h"
#include "core/Solver.h"

#include "gtest/gtest.h"

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <vector>

#include <unistd.h>

using namespace rasc;
using Status = BidirectionalSolver::Status;

namespace {

using namespace prooflog_edit;

using Mutator = bool (*)(Dismantled &, const std::string &Path);

// Each mutator edits the dismantled log and reassembles (or damages
// the container directly); returns false when not applicable.

bool mutDropEdge(Dismantled &D, const std::string &Path) {
  for (size_t I = 0; I != D.Records.size(); ++I) {
    if (D.Records[I].Type != RecEdge)
      continue;
    if (firstCitation(D, I) == std::string::npos)
      continue;
    D.Records.erase(D.Records.begin() + static_cast<long>(I));
    reassemble(D, Path);
    return true;
  }
  return false;
}

bool mutSwapAnn(Dismantled &D, const std::string &Path) {
  // Collect annotation definitions keyed by payload so the swap picks
  // a *semantically* different element (two ids can intern the same
  // state table, which the value-keyed checker rightly accepts).
  std::map<uint32_t, std::vector<uint8_t>> Anns;
  for (const Rec &R : D.Records)
    if (R.Type == RecAnn)
      Anns[rdU32(&R.Bytes[1])] =
          std::vector<uint8_t>(R.Bytes.begin() + 5, R.Bytes.end());
  for (Rec &R : D.Records) {
    if (R.Type != RecEdge && R.Type != RecConflict)
      continue;
    uint32_t Cur = rdU32(&R.Bytes[EdgeAnnOff]);
    for (const auto &[Id, Body] : Anns) {
      if (Id == Cur || Body == Anns[Cur])
        continue;
      wrU32(&R.Bytes[EdgeAnnOff], Id);
      reassemble(D, Path);
      return true;
    }
  }
  return false;
}

bool mutForgeRule(Dismantled &D, const std::string &Path) {
  for (Rec &R : D.Records) {
    if (R.Type != RecEdge && R.Type != RecConflict)
      continue;
    // Surface <-> Transitive: either direction breaks the premise /
    // constraint-citation invariants of the forged rule.
    R.Bytes[EdgeRuleOff] = R.Bytes[EdgeRuleOff] == 0 ? 1 : 0;
    reassemble(D, Path);
    return true;
  }
  return false;
}

bool mutReorderPremise(Dismantled &D, const std::string &Path) {
  for (size_t I = 0; I != D.Records.size(); ++I) {
    if (D.Records[I].Type != RecEdge)
      continue;
    size_t Cite = firstCitation(D, I);
    if (Cite == std::string::npos)
      continue;
    Rec Moved = D.Records[I];
    D.Records.erase(D.Records.begin() + static_cast<long>(I));
    // Cite shifted down by one; insert *after* it.
    D.Records.insert(D.Records.begin() + static_cast<long>(Cite),
                     std::move(Moved));
    reassemble(D, Path);
    return true;
  }
  return false;
}

bool mutBumpProcessed(Dismantled &D, const std::string &Path) {
  for (auto It = D.Records.rbegin(); It != D.Records.rend(); ++It) {
    if (It->Type != RecStatus)
      continue;
    wrU64(&It->Bytes[2], rdU64(&It->Bytes[2]) + 1);
    reassemble(D, Path);
    return true;
  }
  return false;
}

bool mutDropTrailer(Dismantled &D, const std::string &Path) {
  if (D.Records.empty() || D.Records.back().Type != RecStatus)
    return false;
  D.Records.pop_back();
  reassemble(D, Path);
  return true;
}

bool mutTruncateMidChunk(Dismantled &D, const std::string &Path) {
  reassemble(D, Path);
  uint64_t Size = std::filesystem::file_size(Path);
  std::filesystem::resize_file(Path, Size - 5);
  return true;
}

bool mutCorruptCrc(Dismantled &D, const std::string &Path) {
  reassemble(D, Path);
  std::fstream F(Path,
                 std::ios::binary | std::ios::in | std::ios::out);
  // The records chunk's CRC lives 4 bytes before its payload; its
  // frame starts right after the header chunk.
  F.seekg(4);
  uint8_t LenB[8];
  F.read(reinterpret_cast<char *>(LenB), 8);
  uint64_t HeaderLen = rdU64(LenB);
  std::streamoff CrcPos = 16 + static_cast<std::streamoff>(HeaderLen) + 12;
  F.seekg(CrcPos);
  char B;
  F.read(&B, 1);
  B = static_cast<char>(B ^ 0x40);
  F.seekp(CrcPos);
  F.write(&B, 1);
  return true;
}

struct Kind {
  const char *Name;
  Mutator Fn;
  unsigned Floor; // minimum applications over the corpus
};

} // namespace

TEST(ProofMutationTest, CheckerRejectsEveryApplicableMutant) {
  const Kind Kinds[] = {
      {"drop-edge", mutDropEdge, 20},
      {"swap-ann", mutSwapAnn, 20},
      {"forge-rule", mutForgeRule, 50},
      {"reorder-premise", mutReorderPremise, 20},
      {"bump-processed", mutBumpProcessed, 59},
      {"drop-trailer", mutDropTrailer, 59},
      {"truncate-mid-chunk", mutTruncateMidChunk, 59},
      {"corrupt-crc", mutCorruptCrc, 59},
  };
  const std::string Honest =
      (std::filesystem::path(::testing::TempDir()) /
       ("proofmut_" + std::to_string(::getpid()) + ".rprf"))
          .string();
  const std::string Mutant = Honest + ".mut";

  std::map<std::string, unsigned> Applied;
  for (uint64_t Seed = 0; Seed != 59; ++Seed) {
    Rng R(Seed * 7919 + 17);
    testgen::RandomSystem Sys = testgen::randomSystem(R);
    SolverOptions O;
    O.ProofLogPath = Honest;
    BidirectionalSolver S(*Sys.CS, O);
    S.solve();
    if (S.lastProofDiag())
      continue;
    ASSERT_LE(checkExit(Honest), 1) << "seed " << Seed;

    for (const Kind &K : Kinds) {
      SCOPED_TRACE("seed " + std::to_string(Seed) + ", mutation " +
                   K.Name);
      Dismantled D;
      ASSERT_TRUE(dismantle(Honest, D));
      // The honest log must reassemble to a still-valid proof —
      // otherwise a rejection below would prove nothing about the
      // mutation.
      reassemble(D, Mutant);
      ASSERT_LE(checkExit(Mutant), 1);
      if (!K.Fn(D, Mutant))
        continue;
      ++Applied[K.Name];
      int Exit = checkExit(Mutant);
      EXPECT_GE(Exit, 22) << "mutant accepted (exit " << Exit << ")";
      EXPECT_LE(Exit, 25) << "mutant misclassified (exit " << Exit
                          << ")";
    }
  }

  for (const Kind &K : Kinds)
    EXPECT_GE(Applied[K.Name], K.Floor)
        << K.Name << " applied too rarely to trust the corpus";
  std::remove(Honest.c_str());
  std::remove(Mutant.c_str());
}
