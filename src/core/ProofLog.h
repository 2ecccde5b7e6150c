//===- core/ProofLog.h - Streaming derivation logs --------------*- C++ -*-===//
//
// Part of the RASC project: regularly annotated set constraints.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Machine-checkable proof logging (DESIGN.md §12): the solver
/// optionally streams one record per derivation — every inserted edge
/// justified by a closure-rule instance naming its premises, plus
/// cycle collapses, surface-constraint ingests, function-variable
/// constraints, conflicts, and a status trailer — into an append-only
/// log a standalone checker (src/check, zero shared solver code) can
/// replay against the paper's closure rules without trusting this
/// process.
///
/// The log is a sequence of CRC-framed chunks:
///
///   tag      u32   "PRFH" (header) or "PRFC" (records)
///   length   u64   payload byte count
///   crc      u32   CRC-32 of the payload
///   payload  bytes
///
/// so a torn tail (kill -9 mid-write) is detectable: the first chunk
/// whose frame or CRC does not check out, and everything after it, is
/// garbage, and recoverProofLog() truncates the file back to the last
/// good chunk boundary. The header chunk embeds the annotation
/// domain's defining data (the DFA, or the gen/kill width) so the
/// checker can evaluate the annotation algebra from first principles;
/// record chunks carry the derivation stream with definitions (ANN /
/// NODE / CTOR / VARN) interleaved lazily before first use.
///
/// Emission is bounded-memory (one chunk buffer, flushed at a fixed
/// threshold) and *fallible by design*: an I/O failure (including the
/// injected TornWrite / FsyncFail fail points) marks the writer
/// broken and surfaces a Diag, and the owning solve degrades to
/// "unproven" — it keeps solving, it just can no longer produce a
/// checkable artifact. A failed proof never kills a solve.
///
//===----------------------------------------------------------------------===//

#ifndef RASC_CORE_PROOFLOG_H
#define RASC_CORE_PROOFLOG_H

#include "core/ConstraintSystem.h"
#include "support/Diag.h"
#include "support/Serialize.h"

#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace rasc {

class MonoidDomain;
class GenKillDomain;

/// A premise of a derivation record: the (src, dst, ann) triple of an
/// earlier EDGE record (or a surface edge). Src == InvalidExpr marks
/// an absent premise slot.
struct ProofPremise {
  ExprId Src = InvalidExpr;
  ExprId Dst = InvalidExpr;
  AnnId Ann = 0;
};

/// Cumulative emission counters, surfaced through SolverStats: the
/// writer bumps raw pointers so the counts survive writer teardown.
/// Null pointers are skipped.
struct ProofSinks {
  uint64_t *Records = nullptr;
  uint64_t *Chunks = nullptr;
  uint64_t *Bytes = nullptr;
};

/// Streaming writer for one proof log. Owned by BidirectionalSolver;
/// every emitter is a no-op once the writer is broken (first I/O
/// failure latches, diag() explains).
class ProofLogWriter {
public:
  /// On-disk format tags, shared (as documented constants, not code)
  /// with src/check. Bump Version on any layout change.
  static constexpr uint32_t Version = 1;

  /// Record type bytes.
  enum RecordType : uint8_t {
    RecAnn = 0x01,        ///< annotation definition (id -> table)
    RecNode = 0x02,       ///< expression node definition
    RecCtor = 0x03,       ///< constructor definition
    RecVarName = 0x04,    ///< variable name definition
    RecConstraint = 0x05, ///< ingested surface constraint
    RecCollapse = 0x06,   ///< cycle-elimination merge Var -> Rep
    RecEdge = 0x07,       ///< derived edge + rule + premises
    RecConflict = 0x08,   ///< constructor-mismatch edge + premises
    RecFnVar = 0x09,      ///< f ∘ a ⊆ b from the structural rule
    RecStatus = 0x0A,     ///< solve trailer (status + progress)
  };

  /// Rule bytes of RecEdge / RecConflict. Values mirror the solver's
  /// EdgeProv::Rule order; the checker re-derives each rule's
  /// obligation from the paper, not from this enum.
  enum Rule : uint8_t {
    RuleSurface = 0,
    RuleTransitive = 1,
    RuleDecompose = 2,
    RuleProjection = 3,
  };

  /// Status byte of RecStatus. 0–6 mirror BidirectionalSolver::Status;
  /// Unproven marks a log the solver abandoned (emission failure) —
  /// the checker refuses to certify such a log.
  enum StatusCode : uint8_t {
    StSolved = 0,
    StInconsistent = 1,
    StEdgeLimit = 2,
    StStepLimit = 3,
    StDeadline = 4,
    StMemoryLimit = 5,
    StCancelled = 6,
    StUnproven = 7,
  };

  /// Creates \p Path (truncating any previous log) and writes the
  /// header chunk: version, the semantic solver flags the checker
  /// must honor (FilterUseless, CycleElimination), and the annotation
  /// domain's defining data. Supported domains: trivial, monoid
  /// (embeds the DFA), gen/kill (embeds the bit width); any other
  /// domain is a Diag ("proof logging unsupported for this domain").
  static Expected<std::unique_ptr<ProofLogWriter>>
  open(std::string Path, const ConstraintSystem &CS, bool FilterUseless,
       bool CycleElimination, ProofSinks Sinks);

  ~ProofLogWriter();
  ProofLogWriter(const ProofLogWriter &) = delete;
  ProofLogWriter &operator=(const ProofLogWriter &) = delete;

  /// False once any write failed; emitters are no-ops from then on.
  bool ok() const { return !Broken; }

  /// The first failure, if any.
  const std::optional<Diag> &diag() const { return FailDiag; }

  const std::string &path() const { return LogPath; }

  /// Approximate writer-owned heap memory (chunk buffer + emitted-id
  /// bitmaps), for the solver's memoryBytes() governance accounting.
  size_t memoryBytes() const;

  /// \name Record emitters
  /// Definitions (annotations, nodes, constructors, variable names)
  /// are emitted lazily before the first record that references them.
  /// @{

  /// Cycle elimination merged \p V into representative \p Rep.
  void collapse(VarId V, VarId Rep);

  /// Constraint \p Idx of the system was ingested; \p CanL / \p CanR
  /// are its sides after representative substitution (the nodes its
  /// surface edge joins).
  void constraint(uint32_t Idx, const Constraint &Orig, ExprId CanL,
                  ExprId CanR);

  /// A derived (non-conflict) edge Src ⊆^Ann Dst. \p CIdx names the
  /// ingested constraint for RuleSurface / RuleProjection; \p P1 / \p
  /// P2 name premise edges per rule (transitive: two; decompose and
  /// projection: one; surface: none).
  void edge(ExprId Src, ExprId Dst, AnnId Ann, Rule R, uint32_t CIdx,
            const ProofPremise &P1, const ProofPremise &P2);

  /// A constructor-mismatch conflict, same payload as edge().
  void conflict(ExprId Src, ExprId Dst, AnnId Ann, Rule R, uint32_t CIdx,
                const ProofPremise &P1, const ProofPremise &P2);

  /// The structural rule emitted f ∘ From ⊆ To while decomposing the
  /// cons-cons premise \p Justifying.
  void fnvar(FnVarId From, AnnId Fn, FnVarId To,
             const ProofPremise &Justifying);

  /// Solve trailer: flushes the chunk buffer and fsyncs. A log may
  /// carry several (one per solve() on a resumed solver); the last one
  /// is authoritative. \p ProcessedEdges / \p IngestedConstraints let
  /// the checker pin the closed prefix its closedness pass covers.
  void finish(StatusCode Code, uint64_t ProcessedEdges,
              uint64_t IngestedConstraints);

  /// @}

private:
  ProofLogWriter(std::string Path, const ConstraintSystem &CS,
                 ProofSinks Sinks);

  void needAnn(AnnId A);
  void needNode(ExprId E);
  void needCtor(ConsId C);
  void needVar(VarId V);
  void premise(ByteWriter &W, const ProofPremise &P);
  void beginRecord(uint8_t Type);
  void flushChunk(bool Fsync);
  void fail(Diag D);

  std::string LogPath;
  const ConstraintSystem &CS;
  const MonoidDomain *MonDom = nullptr;   // exactly one of these is
  const GenKillDomain *GkDom = nullptr;   // set for non-trivial domains
  ProofSinks Sinks;
  int Fd = -1;
  ByteWriter Buf;
  std::vector<bool> AnnEmitted, NodeEmitted, CtorEmitted, VarEmitted;
  bool Broken = false;
  std::optional<Diag> FailDiag;
};

/// Scans \p Path chunk by chunk and truncates the file after the last
/// chunk whose frame and CRC check out (the warm-boot torn-tail
/// recovery; a cleanly written log is untouched). \returns the number
/// of surviving bytes; a Diag only for I/O errors — a fully garbage
/// file truncates to zero bytes successfully.
Expected<uint64_t> recoverProofLog(const std::string &Path);

} // namespace rasc

#endif // RASC_CORE_PROOFLOG_H
