//===- check/Checker.h - Standalone proof-log checker -----------*- C++ -*-===//
//
// Part of the RASC project: regularly annotated set constraints.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The standalone derivation-log checker behind the rasccheck tool
/// (DESIGN.md §12). It validates a proof log streamed by the solver
/// (core/ProofLog.h) from first principles and deliberately shares
/// *zero* code with the solver: its own CRC-32, its own little-endian
/// decoding, its own annotation algebra (monoid state tables, gen/kill
/// masks), its own union-find and SCC computation, and — for the
/// --system cross-check — its own parsers for the .rasc constraint
/// grammar, the automaton-specification language, and the regex
/// frontend. A bug anywhere in src/support, src/automata, or src/core
/// therefore cannot leak into verification; the trusted base is this
/// directory and the C++ standard library.
///
/// What a successful check certifies:
///
///   1. Well-formed container — every chunk frame and CRC checks out,
///      every record decodes exactly, definitions (annotations, nodes,
///      constructors, variable names) precede use and are internally
///      consistent (arities, state ranges, canonical masks), and
///      nothing is defined twice.
///   2. Every derivation justified — each EDGE / CONFLICT record names
///      a closure-rule instance (surface, transitive, decompose,
///      projection) whose premises are *earlier* records and whose
///      conclusion the checker recomputes from the rule and the
///      annotation algebra. Cycle collapses are justified by an SCC of
///      the identity variable-variable constraint graph recomputed
///      here; function-variable constraints by their constructor-edge
///      premise.
///   3. Closedness of the processed prefix — mirroring the paper's
///      closure rules, every consequence of the first
///      ProcessedEdges-many edges (transitive joins of a constructor
///      lower bound at a variable node,
///      constructor decompositions, projection firings, surface
///      constraints) is accounted for: present as an edge, recorded as
///      a constructor-mismatch conflict, or legitimately dropped by
///      the useless-annotation filter the header declares.
///   4. Status consistency — the log ends with a STATUS trailer;
///      Solved means a drained worklist and no conflicts, Inconsistent
///      means a witnessed constructor mismatch, and interrupt statuses
///      bound the closedness claim to the processed prefix.
///
/// Exit codes (also the CheckResult::ExitCode values) extend the
/// rasctool vocabulary (core/Solver.h statusExitCode and the 21
/// certification code) without overlapping it:
///
///   0   valid proof, final status Solved
///   1   valid proof, final status Inconsistent (conflict witnessed)
///   10  valid partial proof, solver stopped at its deadline
///   11  valid partial proof, edge budget exhausted
///   12  valid partial proof, step budget exhausted
///   13  valid partial proof, memory budget exhausted
///   14  valid partial proof, cooperative cancellation
///   22  invalid derivation (well-formed log, broken justification)
///   23  malformed container or input the checker cannot decode
///   24  --system cross-check mismatch (log proves a different system)
///   25  incomplete proof (torn tail, missing trailer, records after
///       the trailer, or a trailer the solver marked Unproven)
///
//===----------------------------------------------------------------------===//

#ifndef RASC_CHECK_CHECKER_H
#define RASC_CHECK_CHECKER_H

#include <cstdint>
#include <string>

namespace rasccheck {

/// Exit codes, see the file comment. 0/1/10..14 mirror the solver's
/// documented statusExitCode mapping; 22..25 are checker verdicts.
enum ExitCode : int {
  ExitSolved = 0,
  ExitInconsistent = 1,
  ExitDeadline = 10,
  ExitEdgeLimit = 11,
  ExitStepLimit = 12,
  ExitMemoryLimit = 13,
  ExitCancelled = 14,
  ExitInvalidDerivation = 22,
  ExitMalformed = 23,
  ExitSystemMismatch = 24,
  ExitIncomplete = 25,
};

struct CheckOptions {
  std::string LogPath;
  /// Optional path to the .rasc constraint file the log claims to
  /// prove. When set, the checker re-parses the file with its own
  /// grammar, re-compiles the annotation language with its own
  /// spec/regex engines, and verifies the log's embedded automaton,
  /// constraint stream, and name tables against it (exit 24 on any
  /// divergence).
  std::string SystemPath;
  bool Verbose = false;
};

struct CheckResult {
  int ExitCode = ExitMalformed;
  /// Human-readable verdict: the first failure, or a summary line.
  std::string Message;

  // Counters over the (decodable prefix of the) log.
  uint64_t Records = 0;
  uint64_t Chunks = 0;
  uint64_t Edges = 0;
  uint64_t Conflicts = 0;
  uint64_t Constraints = 0;
  uint64_t Collapses = 0;
  uint64_t FnVarConstraints = 0;
  uint64_t TransitiveObligations = 0;
  uint64_t DecomposeObligations = 0;
  uint64_t ProjectionObligations = 0;
  uint64_t SurfaceObligations = 0;

  bool ok() const { return ExitCode == ExitSolved || ExitCode == ExitInconsistent; }
};

/// Validates the proof log at Opts.LogPath (and, if set, cross-checks
/// it against Opts.SystemPath). Never throws; every failure mode is an
/// exit code plus message.
CheckResult checkProofLog(const CheckOptions &Opts);

} // namespace rasccheck

#endif // RASC_CHECK_CHECKER_H
