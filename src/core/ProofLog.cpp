//===- core/ProofLog.cpp - Streaming derivation logs ------------*- C++ -*-===//
//
// Part of the RASC project: regularly annotated set constraints.
//
//===----------------------------------------------------------------------===//

#include "core/ProofLog.h"

#include "core/Domains.h"
#include "support/FailPoint.h"

#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

using namespace rasc;

namespace {

constexpr uint32_t HeaderTag = sectionTag("PRFH");
constexpr uint32_t RecordsTag = sectionTag("PRFC");
constexpr size_t FlushThreshold = 256u << 10;

// Domain kind bytes in the header chunk.
constexpr uint8_t DomTrivial = 0;
constexpr uint8_t DomMonoid = 1;
constexpr uint8_t DomGenKill = 2;

Diag errnoDiag(const std::string &What, const std::string &Path) {
  return Diag(What + " '" + Path + "': " + std::strerror(errno));
}

bool writeFull(int Fd, const uint8_t *Data, size_t Len) {
  while (Len != 0) {
    ssize_t N = ::write(Fd, Data, Len);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    Data += static_cast<size_t>(N);
    Len -= static_cast<size_t>(N);
  }
  return true;
}

} // namespace

Expected<std::unique_ptr<ProofLogWriter>>
ProofLogWriter::open(std::string Path, const ConstraintSystem &CS,
                     bool FilterUseless, bool CycleElimination,
                     ProofSinks Sinks) {
  const AnnotationDomain &D = CS.domain();
  const auto *Mon = dynamic_cast<const MonoidDomain *>(&D);
  const auto *Gk = dynamic_cast<const GenKillDomain *>(&D);
  if (!Mon && !Gk && !dynamic_cast<const TrivialDomain *>(&D))
    return Diag("proof logging unsupported for this annotation domain "
                "(supported: trivial, monoid, gen/kill)");

  std::unique_ptr<ProofLogWriter> W(
      new ProofLogWriter(std::move(Path), CS, Sinks));
  W->MonDom = Mon;
  W->GkDom = Gk;

  W->Fd = ::open(W->LogPath.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (W->Fd < 0)
    return errnoDiag("proof log: cannot create", W->LogPath);

  // Header chunk: magic, version, semantic flags, and the annotation
  // domain's defining data, from which the checker evaluates the
  // algebra without trusting any interned table of ours.
  ByteWriter H;
  H.bytes("RASCPRF\0", 8);
  H.u32(Version);
  uint8_t Flags = 0;
  if (FilterUseless)
    Flags |= 1;
  if (CycleElimination)
    Flags |= 2;
  H.u8(Flags);
  if (Mon) {
    const Dfa &M = Mon->machine();
    H.u8(DomMonoid);
    H.u32(M.numStates());
    H.u32(M.start());
    H.u32(M.numSymbols());
    for (StateId S = 0; S < M.numStates(); ++S)
      H.u8(M.isAccepting(S) ? 1 : 0);
    for (SymbolId Sym = 0; Sym < M.numSymbols(); ++Sym) {
      const std::string &Name = M.symbolName(Sym);
      H.u32(static_cast<uint32_t>(Name.size()));
      H.bytes(Name.data(), Name.size());
    }
    for (StateId S = 0; S < M.numStates(); ++S)
      for (SymbolId Sym = 0; Sym < M.numSymbols(); ++Sym)
        H.u32(M.next(S, Sym));
  } else if (Gk) {
    H.u8(DomGenKill);
    H.u32(Gk->numBits());
  } else {
    H.u8(DomTrivial);
  }

  ByteWriter Frame;
  Frame.u32(HeaderTag);
  Frame.u64(H.size());
  Frame.u32(crc32(H.data().data(), H.size()));
  Frame.bytes(H.data().data(), H.size());
  if (!writeFull(W->Fd, Frame.data().data(), Frame.size()))
    return errnoDiag("proof log: write failed", W->LogPath);
  if (Sinks.Chunks)
    ++*Sinks.Chunks;
  if (Sinks.Bytes)
    *Sinks.Bytes += Frame.size();
  return W;
}

ProofLogWriter::ProofLogWriter(std::string Path, const ConstraintSystem &CS,
                               ProofSinks Sinks)
    : LogPath(std::move(Path)), CS(CS), Sinks(Sinks) {}

ProofLogWriter::~ProofLogWriter() {
  if (Fd >= 0)
    ::close(Fd);
}

size_t ProofLogWriter::memoryBytes() const {
  auto BitmapBytes = [](const std::vector<bool> &B) {
    return B.capacity() / 8;
  };
  return Buf.data().capacity() + BitmapBytes(AnnEmitted) +
         BitmapBytes(NodeEmitted) + BitmapBytes(CtorEmitted) +
         BitmapBytes(VarEmitted);
}

void ProofLogWriter::fail(Diag D) {
  if (Broken)
    return;
  Broken = true;
  FailDiag = std::move(D);
  if (Fd >= 0) {
    ::close(Fd);
    Fd = -1;
  }
}

void ProofLogWriter::flushChunk(bool Fsync) {
  if (Broken)
    return;
  if (Buf.size() != 0) {
    ByteWriter Frame;
    Frame.u32(RecordsTag);
    Frame.u64(Buf.size());
    Frame.u32(crc32(Buf.data().data(), Buf.size()));
    Frame.bytes(Buf.data().data(), Buf.size());
    Buf = ByteWriter();
    if (failpoints::armedAny() &&
        failpoints::hit(failpoints::Point::TornWrite)) {
      // Simulate a crash that persisted only a prefix of the chunk:
      // write half the framed bytes, then report the failure. The
      // on-disk tail is torn exactly the way recoverProofLog() must
      // detect and truncate.
      (void)writeFull(Fd, Frame.data().data(), Frame.size() / 2);
      fail(Diag("proof log: injected torn write to '" + LogPath + "'"));
      return;
    }
    if (!writeFull(Fd, Frame.data().data(), Frame.size())) {
      fail(errnoDiag("proof log: write failed", LogPath));
      return;
    }
    if (Sinks.Chunks)
      ++*Sinks.Chunks;
    if (Sinks.Bytes)
      *Sinks.Bytes += Frame.size();
  }
  if (Fsync) {
    if (failpoints::armedAny() &&
        failpoints::hit(failpoints::Point::FsyncFail)) {
      fail(Diag("proof log: injected fsync failure on '" + LogPath + "'"));
      return;
    }
    if (::fsync(Fd) != 0)
      fail(errnoDiag("proof log: fsync failed", LogPath));
  }
}

void ProofLogWriter::beginRecord(uint8_t Type) {
  Buf.u8(Type);
  if (Sinks.Records)
    ++*Sinks.Records;
}

void ProofLogWriter::needAnn(AnnId A) {
  if (A < AnnEmitted.size() && AnnEmitted[A])
    return;
  if (A >= AnnEmitted.size())
    AnnEmitted.resize(A + 1, false);
  AnnEmitted[A] = true;
  beginRecord(RecAnn);
  Buf.u32(A);
  if (MonDom) {
    // The element's representative function as an explicit state
    // table; the checker recomputes composition from these tables,
    // never from our interned ids.
    for (StateId S = 0; S < MonDom->machine().numStates(); ++S)
      Buf.u32(MonDom->apply(A, S));
  } else if (GkDom) {
    Buf.u64(GkDom->genMask(A));
    Buf.u64(GkDom->killMask(A));
  }
}

void ProofLogWriter::needCtor(ConsId C) {
  if (C < CtorEmitted.size() && CtorEmitted[C])
    return;
  if (C >= CtorEmitted.size())
    CtorEmitted.resize(C + 1, false);
  CtorEmitted[C] = true;
  const std::string Name = CS.constructorName(C);
  beginRecord(RecCtor);
  Buf.u32(C);
  Buf.u32(CS.constructor(C).Arity);
  Buf.u32(static_cast<uint32_t>(Name.size()));
  Buf.bytes(Name.data(), Name.size());
}

void ProofLogWriter::needVar(VarId V) {
  if (V < VarEmitted.size() && VarEmitted[V])
    return;
  if (V >= VarEmitted.size())
    VarEmitted.resize(V + 1, false);
  VarEmitted[V] = true;
  const std::string Name = CS.varName(V);
  beginRecord(RecVarName);
  Buf.u32(V);
  Buf.u32(static_cast<uint32_t>(Name.size()));
  Buf.bytes(Name.data(), Name.size());
}

void ProofLogWriter::needNode(ExprId E) {
  if (E == InvalidExpr)
    return;
  if (E < NodeEmitted.size() && NodeEmitted[E])
    return;
  if (E >= NodeEmitted.size())
    NodeEmitted.resize(E + 1, false);
  NodeEmitted[E] = true;
  const Expr &X = CS.expr(E);
  switch (X.Kind) {
  case ExprKind::Var:
    needVar(X.V);
    break;
  case ExprKind::Cons:
    needCtor(X.C);
    for (VarId A : CS.args(X))
      needVar(A);
    break;
  case ExprKind::Proj:
    needCtor(X.C);
    needVar(X.V);
    break;
  }
  beginRecord(RecNode);
  Buf.u32(E);
  Buf.u8(static_cast<uint8_t>(X.Kind));
  switch (X.Kind) {
  case ExprKind::Var:
    Buf.u32(X.V);
    break;
  case ExprKind::Cons:
    Buf.u32(X.C);
    Buf.u32(X.Alpha);
    Buf.u32(X.NumArgs);
    for (VarId A : CS.args(X))
      Buf.u32(A);
    break;
  case ExprKind::Proj:
    Buf.u32(X.C);
    Buf.u32(X.Index);
    Buf.u32(X.V);
    break;
  }
}

void ProofLogWriter::premise(ByteWriter &W, const ProofPremise &P) {
  W.u32(P.Src);
  W.u32(P.Dst);
  W.u32(P.Ann);
}

void ProofLogWriter::collapse(VarId V, VarId Rep) {
  if (Broken)
    return;
  needVar(V);
  needVar(Rep);
  beginRecord(RecCollapse);
  Buf.u32(V);
  Buf.u32(Rep);
  if (Buf.size() >= FlushThreshold)
    flushChunk(false);
}

void ProofLogWriter::constraint(uint32_t Idx, const Constraint &Orig,
                                ExprId CanL, ExprId CanR) {
  if (Broken)
    return;
  needNode(Orig.Lhs);
  needNode(Orig.Rhs);
  needNode(CanL);
  needNode(CanR);
  needAnn(Orig.Ann);
  beginRecord(RecConstraint);
  Buf.u32(Idx);
  Buf.u32(Orig.Lhs);
  Buf.u32(Orig.Rhs);
  Buf.u32(CanL);
  Buf.u32(CanR);
  Buf.u32(Orig.Ann);
  if (Buf.size() >= FlushThreshold)
    flushChunk(false);
}

void ProofLogWriter::edge(ExprId Src, ExprId Dst, AnnId Ann, Rule R,
                          uint32_t CIdx, const ProofPremise &P1,
                          const ProofPremise &P2) {
  if (Broken)
    return;
  needNode(Src);
  needNode(Dst);
  needAnn(Ann);
  beginRecord(RecEdge);
  Buf.u32(Src);
  Buf.u32(Dst);
  Buf.u32(Ann);
  Buf.u8(static_cast<uint8_t>(R));
  Buf.u32(CIdx);
  premise(Buf, P1);
  premise(Buf, P2);
  if (Buf.size() >= FlushThreshold)
    flushChunk(false);
}

void ProofLogWriter::conflict(ExprId Src, ExprId Dst, AnnId Ann, Rule R,
                              uint32_t CIdx, const ProofPremise &P1,
                              const ProofPremise &P2) {
  if (Broken)
    return;
  needNode(Src);
  needNode(Dst);
  needAnn(Ann);
  beginRecord(RecConflict);
  Buf.u32(Src);
  Buf.u32(Dst);
  Buf.u32(Ann);
  Buf.u8(static_cast<uint8_t>(R));
  Buf.u32(CIdx);
  premise(Buf, P1);
  premise(Buf, P2);
  if (Buf.size() >= FlushThreshold)
    flushChunk(false);
}

void ProofLogWriter::fnvar(FnVarId From, AnnId Fn, FnVarId To,
                           const ProofPremise &Justifying) {
  if (Broken)
    return;
  needAnn(Fn);
  beginRecord(RecFnVar);
  Buf.u32(From);
  Buf.u32(Fn);
  Buf.u32(To);
  premise(Buf, Justifying);
  if (Buf.size() >= FlushThreshold)
    flushChunk(false);
}

void ProofLogWriter::finish(StatusCode Code, uint64_t ProcessedEdges,
                            uint64_t IngestedConstraints) {
  if (Broken)
    return;
  beginRecord(RecStatus);
  Buf.u8(static_cast<uint8_t>(Code));
  Buf.u64(ProcessedEdges);
  Buf.u64(IngestedConstraints);
  flushChunk(/*Fsync=*/true);
}

Expected<uint64_t> rasc::recoverProofLog(const std::string &Path) {
  int Fd = ::open(Path.c_str(), O_RDWR);
  if (Fd < 0)
    return errnoDiag("proof log: cannot open", Path);

  // Scan chunk frames; Good tracks the end of the last chunk whose
  // frame fields are sane and whose payload matches its CRC.
  uint64_t Good = 0;
  uint64_t Pos = 0;
  std::vector<uint8_t> Payload;
  for (;;) {
    if (failpoints::armedAny() &&
        failpoints::hit(failpoints::Point::ShortRead))
      // Simulate a read that comes up short mid-scan: everything from
      // here on is treated as a torn tail and truncated away, which is
      // always safe (the log merely proves less).
      break;
    uint8_t Hdr[16];
    ssize_t N = ::pread(Fd, Hdr, sizeof Hdr, static_cast<off_t>(Pos));
    if (N < 0) {
      ::close(Fd);
      return errnoDiag("proof log: read failed", Path);
    }
    if (static_cast<size_t>(N) < sizeof Hdr)
      break;
    ByteReader R(Hdr, sizeof Hdr);
    uint32_t Tag = R.u32();
    uint64_t Len = R.u64();
    uint32_t Crc = R.u32();
    if ((Tag != HeaderTag && Tag != RecordsTag) || Len > (1u << 30))
      break;
    Payload.resize(Len);
    N = ::pread(Fd, Payload.data(), Len, static_cast<off_t>(Pos + 16));
    if (N < 0) {
      ::close(Fd);
      return errnoDiag("proof log: read failed", Path);
    }
    if (static_cast<uint64_t>(N) < Len ||
        crc32(Payload.data(), Len) != Crc)
      break;
    Pos += 16 + Len;
    Good = Pos;
  }

  std::optional<Diag> Err;
  struct stat St;
  if (::fstat(Fd, &St) != 0 ||
      (static_cast<uint64_t>(St.st_size) != Good &&
       ::ftruncate(Fd, static_cast<off_t>(Good)) != 0))
    Err = errnoDiag("proof log: truncate failed", Path);
  else if (::fsync(Fd) != 0)
    Err = errnoDiag("proof log: fsync failed", Path);
  ::close(Fd);
  if (Err)
    return *Err;
  return Good;
}
