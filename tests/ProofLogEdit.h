//===- tests/ProofLogEdit.h - Record-level proof log surgery ----*- C++ -*-===//
//
// Part of the RASC project: regularly annotated set constraints.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A minimal view of the proof-log container (core/ProofLog.h),
/// independent of the writer: dismantle a log into its header and
/// record stream, edit records, and reassemble a correctly framed file
/// so that only the semantic edit reaches rasccheck's passes. Shared by
/// the log-level and solver-level mutation tests.
///
//===----------------------------------------------------------------------===//

#ifndef RASC_TESTS_PROOFLOGEDIT_H
#define RASC_TESTS_PROOFLOGEDIT_H

#include "check/Checker.h"
#include "support/Serialize.h"

#include <cstdint>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

namespace prooflog_edit {

using rasc::crc32;
using rasc::sectionTag;

constexpr uint8_t RecAnn = 0x01, RecNode = 0x02, RecCtor = 0x03,
                  RecVarName = 0x04, RecConstraint = 0x05,
                  RecCollapse = 0x06, RecEdge = 0x07, RecConflict = 0x08,
                  RecFnVar = 0x09, RecStatus = 0x0A;

inline uint32_t rdU32(const uint8_t *P) {
  uint32_t V;
  std::memcpy(&V, P, 4);
  return V;
}

inline void wrU32(uint8_t *P, uint32_t V) { std::memcpy(P, &V, 4); }

inline void wrU64(uint8_t *P, uint64_t V) { std::memcpy(P, &V, 8); }

inline uint64_t rdU64(const uint8_t *P) {
  uint64_t V;
  std::memcpy(&V, P, 8);
  return V;
}

/// One decoded record: its type and raw bytes (type byte included).
struct Rec {
  uint8_t Type;
  std::vector<uint8_t> Bytes;
};

/// A dismantled log: header chunk payload plus the flattened record
/// stream of every records chunk.
struct Dismantled {
  std::vector<uint8_t> Header; // header chunk payload, verbatim
  std::vector<Rec> Records;
  uint8_t DomainKind = 0;
  uint32_t NumStates = 0; // monoid only
};

inline size_t annBodyBytes(const Dismantled &D) {
  if (D.DomainKind == 1)
    return 4 + 4ull * D.NumStates;
  if (D.DomainKind == 2)
    return 4 + 16;
  return 4;
}

/// Record body length (type byte excluded); ~0 on unknown type.
inline size_t recBodyBytes(const Dismantled &D, uint8_t Type,
                           const uint8_t *P, size_t Avail) {
  switch (Type) {
  case RecAnn:
    return annBodyBytes(D);
  case RecNode: {
    if (Avail < 5)
      return ~size_t(0);
    switch (P[4]) {
    case 0:
      return 5 + 4;
    case 1: {
      if (Avail < 17)
        return ~size_t(0);
      return 17 + 4ull * rdU32(P + 13);
    }
    case 2:
      return 5 + 12;
    default:
      return ~size_t(0);
    }
  }
  case RecCtor:
    if (Avail < 12)
      return ~size_t(0);
    return 12 + rdU32(P + 8);
  case RecVarName:
    if (Avail < 8)
      return ~size_t(0);
    return 8 + rdU32(P + 4);
  case RecConstraint:
    return 24;
  case RecCollapse:
    return 8;
  case RecEdge:
  case RecConflict:
    return 4 + 4 + 4 + 1 + 4 + 12 + 12;
  case RecFnVar:
    return 12 + 12;
  case RecStatus:
    return 1 + 8 + 8;
  default:
    return ~size_t(0);
  }
}

inline bool dismantle(const std::string &Path, Dismantled &Out) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return false;
  std::vector<uint8_t> All((std::istreambuf_iterator<char>(In)),
                           std::istreambuf_iterator<char>());
  size_t Pos = 0;
  bool First = true;
  while (Pos + 16 <= All.size()) {
    uint32_t Tag = rdU32(&All[Pos]);
    uint64_t Len = rdU64(&All[Pos + 4]);
    if (Pos + 16 + Len > All.size())
      return false;
    const uint8_t *Payload = &All[Pos + 16];
    if (First) {
      if (Tag != sectionTag("PRFH") || Len < 14)
        return false;
      Out.Header.assign(Payload, Payload + Len);
      Out.DomainKind = Payload[13];
      if (Out.DomainKind == 1)
        Out.NumStates = rdU32(Payload + 14);
      First = false;
    } else {
      if (Tag != sectionTag("PRFC"))
        return false;
      size_t P = 0;
      while (P < Len) {
        uint8_t Type = Payload[P];
        size_t Body =
            recBodyBytes(Out, Type, Payload + P + 1, Len - P - 1);
        if (Body == ~size_t(0) || P + 1 + Body > Len)
          return false;
        Rec R;
        R.Type = Type;
        R.Bytes.assign(Payload + P, Payload + P + 1 + Body);
        Out.Records.push_back(std::move(R));
        P += 1 + Body;
      }
    }
    Pos += 16 + Len;
  }
  return !First && Pos == All.size();
}

inline void writeChunk(std::ofstream &F, uint32_t Tag,
                const std::vector<uint8_t> &Payload) {
  uint8_t Hdr[16];
  wrU32(Hdr, Tag);
  wrU64(Hdr + 4, Payload.size());
  wrU32(Hdr + 12, crc32(Payload.data(), Payload.size()));
  F.write(reinterpret_cast<const char *>(Hdr), 16);
  F.write(reinterpret_cast<const char *>(Payload.data()),
          static_cast<std::streamsize>(Payload.size()));
}

/// Reassembles header + records into a correctly framed log, so only
/// the *semantic* mutation survives into the checker's passes.
inline void reassemble(const Dismantled &D, const std::string &Path) {
  std::ofstream F(Path, std::ios::binary | std::ios::trunc);
  writeChunk(F, sectionTag("PRFH"), D.Header);
  std::vector<uint8_t> Payload;
  for (const Rec &R : D.Records)
    Payload.insert(Payload.end(), R.Bytes.begin(), R.Bytes.end());
  writeChunk(F, sectionTag("PRFC"), Payload);
}

// Edge-record field offsets (after the type byte).
constexpr size_t EdgeSrcOff = 1, EdgeAnnOff = 9, EdgeRuleOff = 13,
                 EdgeP1Off = 18;

/// Index of the first edge/conflict record citing record \p Premise
/// (an edge) as either premise, or npos.
inline size_t firstCitation(const Dismantled &D, size_t Premise) {
  const Rec &P = D.Records[Premise];
  uint32_t S = rdU32(&P.Bytes[EdgeSrcOff]);
  uint32_t T = rdU32(&P.Bytes[EdgeSrcOff + 4]);
  uint32_t A = rdU32(&P.Bytes[EdgeAnnOff]);
  for (size_t I = Premise + 1; I != D.Records.size(); ++I) {
    const Rec &R = D.Records[I];
    if (R.Type != RecEdge && R.Type != RecConflict)
      continue;
    for (size_t Off : {EdgeP1Off, EdgeP1Off + 12})
      if (rdU32(&R.Bytes[Off]) == S &&
          rdU32(&R.Bytes[Off + 4]) == T &&
          rdU32(&R.Bytes[Off + 8]) == A)
        return I;
  }
  return std::string::npos;
}

inline int checkExit(const std::string &Path) {
  rasccheck::CheckOptions O;
  O.LogPath = Path;
  return rasccheck::checkProofLog(O).ExitCode;
}

/// Index of the EDGE record for (Src, Dst, Ann), or npos.
inline size_t findEdge(const Dismantled &D, uint32_t Src, uint32_t Dst,
                       uint32_t Ann) {
  for (size_t I = 0; I != D.Records.size(); ++I) {
    const Rec &R = D.Records[I];
    if (R.Type == RecEdge && rdU32(&R.Bytes[EdgeSrcOff]) == Src &&
        rdU32(&R.Bytes[EdgeSrcOff + 4]) == Dst &&
        rdU32(&R.Bytes[EdgeAnnOff]) == Ann)
      return I;
  }
  return std::string::npos;
}

/// Erases EDGE record \p I and lowers every later STATUS trailer's
/// processed-edge count by one, so the trailers stay consistent and
/// only the closedness and derivation checks can notice the loss.
inline void dropProcessedEdge(Dismantled &D, size_t I) {
  D.Records.erase(D.Records.begin() + static_cast<long>(I));
  for (size_t J = I; J != D.Records.size(); ++J)
    if (D.Records[J].Type == RecStatus)
      wrU64(&D.Records[J].Bytes[2], rdU64(&D.Records[J].Bytes[2]) - 1);
}

} // namespace prooflog_edit

#endif // RASC_TESTS_PROOFLOGEDIT_H
