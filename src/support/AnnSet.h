//===- support/AnnSet.h - Annotation-id sets and edge dedup -----*- C++ -*-===//
//
// Part of the RASC project: regularly annotated set constraints.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Dense set representations keyed by annotation class ids, built for
/// the solver's closure loop where the paper's O(n^3 i^2) cost model
/// (i = |F_M^≡|) assumes O(1) per derived bound:
///
///   * AnnSet — a small insertion-ordered set of AnnIds (growable
///     bitset membership + member vector), replacing linear
///     std::find dedup passes on query paths.
///   * AnnBitsetTable — per-key rows of annotation bits; the key is a
///     packed (src, dst) node pair, so edge dedup is one hash probe
///     plus a test-and-set. Rows share one arena with a common word
///     stride that grows (rarely) when the domain interns new
///     elements past the current capacity.
///   * EdgeDedup — the solver's dedup front end: annotation bitsets
///     while the domain is small (dense ids, near-perfect bit
///     utilization), per-destination FlatSet64 of packed (src, ann)
///     keys when it is large or unbounded (sparse sets; bitset rows
///     would be mostly zero words).
///
//===----------------------------------------------------------------------===//

#ifndef RASC_SUPPORT_ANNSET_H
#define RASC_SUPPORT_ANNSET_H

#include "support/FlatSet.h"

#include <cassert>
#include <cstdint>
#include <vector>

namespace rasc {

/// A set of small integer ids with O(1) insert-if-absent and
/// insertion-ordered iteration over the members. Membership is a
/// bitset grown on demand; the member list is what callers iterate,
/// so sparse use stays cheap.
class AnnSet {
public:
  AnnSet() = default;

  /// Inserts \p Id. \returns true if it was not present.
  bool insert(uint32_t Id) {
    size_t Word = Id / 64;
    if (Word >= Bits.size())
      Bits.resize(Word + 1, 0);
    uint64_t Mask = uint64_t(1) << (Id % 64);
    if (Bits[Word] & Mask)
      return false;
    Bits[Word] |= Mask;
    Members.push_back(Id);
    return true;
  }

  bool contains(uint32_t Id) const {
    size_t Word = Id / 64;
    return Word < Bits.size() && (Bits[Word] >> (Id % 64)) & 1;
  }

  size_t size() const { return Members.size(); }
  bool empty() const { return Members.empty(); }

  /// Members in insertion order.
  const std::vector<uint32_t> &members() const { return Members; }

  void clear() {
    for (uint32_t Id : Members)
      Bits[Id / 64] &= ~(uint64_t(1) << (Id % 64));
    Members.clear();
  }

  /// Releases the member list (insertion order preserved), leaving the
  /// set usable but empty.
  std::vector<uint32_t> takeMembers() {
    std::vector<uint32_t> Out = std::move(Members);
    Bits.clear();
    Members.clear();
    return Out;
  }

private:
  std::vector<uint64_t> Bits;
  std::vector<uint32_t> Members;
};

/// Rows of annotation bits addressed by an arbitrary 64-bit key.
///
/// While every annotation id fits in one word (id < 64 — true for the
/// paper's machines, whose monoids have a few dozen elements), rows
/// are stored *inline* in the open-addressed slots: a duplicate-edge
/// probe — the closure's single hottest operation, >90% of addEdge
/// attempts on dense workloads — touches exactly one 16-byte slot.
/// The first wider id migrates all rows to a spilled arena with a
/// shared word stride that doubles on demand (a domain interning
/// elements mid-solve, e.g. GenKillDomain); O(total bits) per
/// doubling and geometrically rare.
class AnnBitsetTable {
  static constexpr uint64_t Empty = ~uint64_t(0);

public:
  explicit AnnBitsetTable(size_t AnnCapacityHint = 64) {
    if (AnnCapacityHint > 64) {
      InlineMode = false;
      Stride = (AnnCapacityHint + 63) / 64;
    }
  }

  /// Tests and sets bit \p Ann of row \p Key. \returns true if the
  /// bit was clear (the edge is new).
  bool testAndSet(uint64_t Key, uint32_t Ann) {
    assert(Key != Empty && "the all-ones key is reserved");
    if (InlineMode) {
      if (Ann < 64)
        return testAndSetInline(Key, Ann);
      spill();
    }
    return testAndSetSpilled(Key, Ann);
  }

  /// Clears bit \p Ann of row \p Key. The row's slot is kept even when
  /// its last bit clears — a retraction is usually followed by
  /// re-derivation into the same (src, dst) pairs, and an occupied
  /// zero-bits row costs nothing on the probe path. \returns true if
  /// the bit was set.
  bool testAndClear(uint64_t Key, uint32_t Ann) {
    if (InlineMode) {
      if (Ann >= 64 || Slots.empty())
        return false;
      size_t Mask = Slots.size() - 1;
      size_t I = static_cast<size_t>(mix64(Key)) & Mask;
      uint64_t Bit = uint64_t(1) << Ann;
      while (true) {
        Slot &S = Slots[I];
        if (S.Key == Key) {
          if (!(S.Bits & Bit))
            return false;
          S.Bits &= ~Bit;
          return true;
        }
        if (S.Key == Empty)
          return false;
        I = (I + 1) & Mask;
      }
    }
    if (Ann >= Stride * 64)
      return false;
    const uint32_t *Row = Rows.lookup(Key);
    if (!Row)
      return false;
    uint64_t Mask = uint64_t(1) << (Ann % 64);
    uint64_t &Word = Bits[static_cast<size_t>(*Row) * Stride + Ann / 64];
    if (!(Word & Mask))
      return false;
    Word &= ~Mask;
    return true;
  }

  size_t numRows() const {
    return InlineMode ? InlineCount : Rows.size();
  }

  /// Issues a prefetch for the home slot of row \p Key. The closure's
  /// probe stream has no locality (derived edges hash all over the
  /// table), so batching prefetches a chunk ahead turns a serial chain
  /// of cache misses into overlapped ones.
  void prefetch(uint64_t Key) const {
    if (InlineMode && !Slots.empty())
      __builtin_prefetch(
          &Slots[static_cast<size_t>(mix64(Key)) & (Slots.size() - 1)]);
  }

  /// Whether the table has outgrown on-chip caches enough that probe
  /// misses dominate and a prefetch pass pays for its extra hashing
  /// (~512KB of inline slots).
  bool prefetchWorthwhile() const {
    return InlineMode && Slots.size() >= (1u << 15);
  }

  /// Heap bytes held (for the solver's approximate memory budget).
  size_t memoryBytes() const {
    return Slots.capacity() * sizeof(Slot) + Rows.memoryBytes() +
           Bits.capacity() * sizeof(uint64_t);
  }

private:
  bool testAndSetInline(uint64_t Key, uint32_t Ann) {
    if (Slots.empty())
      rehashInline(16);
    size_t Mask = Slots.size() - 1;
    size_t I = static_cast<size_t>(mix64(Key)) & Mask;
    uint64_t Bit = uint64_t(1) << Ann;
    while (true) {
      Slot &S = Slots[I];
      if (S.Key == Key) {
        if (S.Bits & Bit)
          return false;
        S.Bits |= Bit;
        return true;
      }
      if (S.Key == Empty) {
        S.Key = Key;
        S.Bits = Bit;
        if (++InlineCount * 8 >= Slots.size() * 7)
          rehashInline(Slots.size() * 2);
        return true;
      }
      I = (I + 1) & Mask;
    }
  }

  void rehashInline(size_t NewCap) {
    std::vector<Slot> Old = std::move(Slots);
    Slots.assign(NewCap, Slot{});
    size_t Mask = NewCap - 1;
    for (const Slot &S : Old) {
      if (S.Key == Empty)
        continue;
      size_t I = static_cast<size_t>(mix64(S.Key)) & Mask;
      while (Slots[I].Key != Empty)
        I = (I + 1) & Mask;
      Slots[I] = S;
    }
  }

  /// Migrates inline rows to the arena representation (one-time, on
  /// the first annotation id >= 64).
  void spill() {
    InlineMode = false;
    Rows.reserve(InlineCount);
    for (const Slot &S : Slots) {
      if (S.Key == Empty)
        continue;
      auto [Row, Inserted] =
          Rows.findOrInsert(S.Key, static_cast<uint32_t>(Rows.size()));
      (void)Inserted;
      Bits.resize(Bits.size() + Stride, 0);
      Bits[static_cast<size_t>(Row) * Stride] = S.Bits;
    }
    Slots.clear();
    Slots.shrink_to_fit();
    InlineCount = 0;
  }

  bool testAndSetSpilled(uint64_t Key, uint32_t Ann) {
    if (Ann >= Stride * 64)
      growStride(Ann);
    auto [Row, Inserted] =
        Rows.findOrInsert(Key, static_cast<uint32_t>(Rows.size()));
    if (Inserted)
      Bits.resize(Bits.size() + Stride, 0);
    uint64_t Mask = uint64_t(1) << (Ann % 64);
    uint64_t &Word = Bits[static_cast<size_t>(Row) * Stride + Ann / 64];
    if (Word & Mask)
      return false;
    Word |= Mask;
    return true;
  }

  void growStride(uint32_t Ann) {
    size_t NewStride = Stride;
    while (Ann >= NewStride * 64)
      NewStride *= 2;
    std::vector<uint64_t> NewBits(Rows.size() * NewStride, 0);
    for (size_t Row = 0, E = Rows.size(); Row != E; ++Row)
      for (size_t W = 0; W != Stride; ++W)
        NewBits[Row * NewStride + W] = Bits[Row * Stride + W];
    Bits = std::move(NewBits);
    Stride = NewStride;
  }

  struct Slot {
    uint64_t Key = Empty;
    uint64_t Bits = 0;
  };

  // Inline mode: (key, bits) pairs in one open-addressed array.
  bool InlineMode = true;
  std::vector<Slot> Slots;
  size_t InlineCount = 0;

  // Spilled mode: key -> row index, rows dense in insertion order.
  FlatMap64 Rows;
  std::vector<uint64_t> Bits;
  size_t Stride = 1;
};

/// Deduplication of annotated edges (A, B, Ann): the bitset backend
/// keys rows by the packed (A, B) pair; the flat backend keeps one
/// open-addressed set of packed (A, Ann) keys per B. The solver picks
/// a backend per SolverOptions (bitsets when the annotation domain is
/// small, flat sets otherwise).
class EdgeDedup {
public:
  enum class Backend : uint8_t {
    Bitset, ///< per-(A,B) annotation bitset rows (dense ann ids)
    Flat,   ///< per-B FlatSet64 of packed (A, ann) keys (sparse)
  };

  explicit EdgeDedup(Backend B = Backend::Bitset,
                     size_t AnnCapacityHint = 64)
      : Which(B), Bitsets(AnnCapacityHint) {}

  Backend backend() const { return Which; }

  /// Records the edge. \returns true if it was not present.
  bool insert(uint32_t A, uint32_t B, uint32_t Ann) {
    if (Which == Backend::Bitset)
      return Bitsets.testAndSet(
          (static_cast<uint64_t>(A) << 32) | B, Ann);
    if (B >= PerDst.size())
      PerDst.resize(static_cast<size_t>(B) + 1);
    return PerDst[B].insert((static_cast<uint64_t>(A) << 32) | Ann);
  }

  /// Removes the edge (the incremental solver's cone invalidation).
  /// \returns true if it was recorded. Capacity is retained by both
  /// backends, so memoryBytes() is unchanged by erases.
  bool erase(uint32_t A, uint32_t B, uint32_t Ann) {
    if (Which == Backend::Bitset)
      return Bitsets.testAndClear(
          (static_cast<uint64_t>(A) << 32) | B, Ann);
    if (B >= PerDst.size())
      return false;
    return PerDst[B].erase((static_cast<uint64_t>(A) << 32) | Ann);
  }

  /// Prefetches the slot a subsequent insert(A, B, Ann) will probe.
  void prefetch(uint32_t A, uint32_t B, uint32_t Ann) const {
    if (Which == Backend::Bitset)
      Bitsets.prefetch((static_cast<uint64_t>(A) << 32) | B);
    else if (B < PerDst.size())
      PerDst[B].prefetch((static_cast<uint64_t>(A) << 32) | Ann);
  }

  /// Whether a prefetch pass over a batch of probes is likely to pay
  /// off (the working set no longer sits in on-chip caches).
  bool prefetchWorthwhile() const {
    return Which == Backend::Bitset ? Bitsets.prefetchWorthwhile()
                                    : PerDst.size() >= 4096;
  }

  /// Heap bytes held. O(1) for the bitset backend; O(#destinations)
  /// for the flat backend, so callers amortize (the solver checks its
  /// memory budget every GovernanceCheckInterval worklist pops).
  size_t memoryBytes() const {
    if (Which == Backend::Bitset)
      return Bitsets.memoryBytes();
    size_t N = PerDst.capacity() * sizeof(FlatSet64);
    for (const FlatSet64 &S : PerDst)
      N += S.memoryBytes();
    return N;
  }

private:
  Backend Which;
  AnnBitsetTable Bitsets;
  std::vector<FlatSet64> PerDst;
};

} // namespace rasc

#endif // RASC_SUPPORT_ANNSET_H
