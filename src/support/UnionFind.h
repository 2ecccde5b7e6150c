//===- support/UnionFind.h - Disjoint sets ----------------------*- C++ -*-===//
//
// Part of the RASC project: regularly annotated set constraints.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Union-find with path halving and union by rank. The constraint
/// solver's online cycle elimination collapses strongly connected
/// components of identity-annotated variable edges into a single
/// representative using this structure.
///
//===----------------------------------------------------------------------===//

#ifndef RASC_SUPPORT_UNIONFIND_H
#define RASC_SUPPORT_UNIONFIND_H

#include <cassert>
#include <cstdint>
#include <numeric>
#include <vector>

namespace rasc {

/// Disjoint-set forest over dense uint32_t ids. Elements are added
/// implicitly by growing; all elements start as singletons.
class UnionFind {
public:
  /// Ensures ids [0, N) exist.
  void grow(uint32_t N) {
    if (Parent.size() >= N)
      return;
    uint32_t Old = static_cast<uint32_t>(Parent.size());
    Parent.resize(N);
    std::iota(Parent.begin() + Old, Parent.end(), Old);
    Rank.resize(N, 0);
  }

  /// \returns the representative of \p X, with path halving.
  uint32_t find(uint32_t X) {
    assert(X < Parent.size() && "id out of range");
    while (Parent[X] != X) {
      Parent[X] = Parent[Parent[X]];
      X = Parent[X];
    }
    return X;
  }

  /// Unions the sets of \p A and \p B; \returns the new representative.
  uint32_t merge(uint32_t A, uint32_t B) {
    A = find(A);
    B = find(B);
    if (A == B)
      return A;
    if (Rank[A] < Rank[B])
      std::swap(A, B);
    Parent[B] = A;
    if (Rank[A] == Rank[B])
      ++Rank[A];
    return A;
  }

  size_t size() const { return Parent.size(); }

private:
  std::vector<uint32_t> Parent;
  std::vector<uint8_t> Rank;
};

} // namespace rasc

#endif // RASC_SUPPORT_UNIONFIND_H
