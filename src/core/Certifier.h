//===- core/Certifier.h - Independent fixpoint certification ----*- C++ -*-===//
//
// Part of the RASC project: regularly annotated set constraints.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An independent checker for a claimed (possibly partial) fixpoint of
/// the bidirectional closure: given a solver, it re-verifies in one
/// pass that every resolution rule of Section 3 is saturated over the
/// *processed* edges —
///
///   transitivity   x ⊆^f Y, Y ⊆^g z    =>  x ⊆^{g∘f} z   (Y a variable)
///   decomposition  c^a(..) ⊆^f c^b(..) =>  arg edges + f∘a ⊆ b
///   projection     c^a(..Xi..) ⊆^f Y, c^-i(Y) ⊆^g Z  =>  Xi ⊆^{g∘f} Z
///   surface        every ingested constraint's canonical edge present
///
/// — using only the solver's public read-only views (the derived-edge
/// enumeration, conflicts, fn-var constraints, representatives) and
/// its own hash maps: no dedup table, adjacency list, or prefix
/// counter is trusted. Exposed as `rasctool --certify` and run by the
/// differential tests and the benchmark's answer oracle. Cost is
/// proportional to the number of 2-path joins the closure itself
/// performed, so certifying a saved closure never beats re-solving it
/// by more than a constant (EXPERIMENTS.md, "Recovery").
///
/// For an interrupted solver, certification covers the processed
/// prefix (the solver's resumable invariant: a pending edge imposes no
/// obligations yet); a complete solve has everything processed, so the
/// check is then full saturation.
///
//===----------------------------------------------------------------------===//

#ifndef RASC_CORE_CERTIFIER_H
#define RASC_CORE_CERTIFIER_H

#include <cstdint>
#include <string>
#include <vector>

namespace rasc {

class BidirectionalSolver;

/// Outcome of certifyFixpoint: Ok plus per-rule obligation counts and
/// a capped list of rendered violations.
struct CertificationReport {
  bool Ok = true;
  uint64_t EdgesChecked = 0;           ///< derived edges visited
  uint64_t TransitiveObligations = 0;  ///< 2-path joins re-verified
  uint64_t DecomposeObligations = 0;   ///< structural rule instances
  uint64_t ProjectionObligations = 0;  ///< projection rule instances
  uint64_t SurfaceObligations = 0;     ///< ingested constraints checked
  std::vector<std::string> Failures;   ///< rendered, capped at MaxFailures

  static constexpr size_t MaxFailures = 16;

  /// One-line human-readable result.
  std::string summary() const;
};

/// Re-verifies the solver's claimed closure as described above.
CertificationReport certifyFixpoint(const BidirectionalSolver &S);

} // namespace rasc

#endif // RASC_CORE_CERTIFIER_H
