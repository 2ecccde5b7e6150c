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
///   * EdgeDedup — the solver's edge dedup: per-(src, dst) rows of
///     annotation bits keyed by the packed node pair, so dedup is one
///     hash probe plus a test-and-set. Rows live inline in the hash
///     slots while every id is below 64 and spill to one arena with a
///     common word stride at the first wider id.
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

/// Deduplication of annotated edges (A, B, Ann): one row of
/// annotation bits per (A, B) node pair, keyed by the packed pair, so
/// a derived bound costs one hash probe plus a test-and-set — the
/// O(1) per bound that the paper's O(n^3 i^2) cost model assumes.
/// Annotation ids are dense from 0 (domains intern on compose), so a
/// row needs no more words than the solve's largest id.
///
/// While every annotation id fits in one word (id < 64 — true for the
/// paper's machines, whose monoids have a few dozen elements), rows
/// are stored *inline* in the open-addressed slots: a duplicate-edge
/// probe — the closure's single hottest operation, >90% of addEdge
/// attempts on dense workloads — touches exactly one 16-byte slot.
/// The first wider id migrates all rows to a spilled arena with a
/// shared word stride that doubles on demand (a domain interning
/// elements mid-solve); O(total bits) per doubling and geometrically
/// rare.
class EdgeDedup {
  static constexpr uint64_t Empty = ~uint64_t(0);

public:
  /// \p AnnCapacityHint is the domain's size when the solver is built:
  /// above 64 the rows start spilled, with room for that many ids.
  explicit EdgeDedup(size_t AnnCapacityHint) {
    if (AnnCapacityHint > 64) {
      InlineMode = false;
      Stride = (AnnCapacityHint + 63) / 64;
    }
  }

  /// Records the edge. \returns true if it was not present.
  bool insert(uint32_t A, uint32_t B, uint32_t Ann) {
    uint64_t Key = pack(A, B);
    assert(Key != Empty && "the all-ones key is reserved");
    if (InlineMode) {
      if (Ann < 64)
        return testAndSetInline(Key, Ann);
      spill();
    }
    return testAndSetSpilled(Key, Ann);
  }

  /// Makes room for \p N (src, dst) rows, so a solve that knows its
  /// size up front skips the doublings from the smallest table. Spilled
  /// rows reserve only their index: the bit arena keeps growing by a
  /// quarter (see appendRow).
  void reserveRows(size_t N) {
    if (!InlineMode) {
      Rows.reserve(N);
      return;
    }
    size_t Cap = 16;
    while (Cap * 7 <= N * 8)
      Cap *= 2;
    if (Cap > Slots.size())
      rehashInline(Cap);
  }

  /// Issues a prefetch for the home slot of row (A, B), which a
  /// subsequent insert(A, B, Ann) will probe. The closure's probe
  /// stream has no locality (derived edges hash all over the table),
  /// so batching prefetches a chunk ahead turns a serial chain of
  /// cache misses into overlapped ones.
  void prefetch(uint32_t A, uint32_t B) const {
    if (InlineMode && !Slots.empty())
      __builtin_prefetch(&Slots[static_cast<size_t>(mix64(pack(A, B))) &
                                (Slots.size() - 1)]);
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
  static uint64_t pack(uint32_t A, uint32_t B) {
    return (static_cast<uint64_t>(A) << 32) | B;
  }

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
    Bits.reserve(InlineCount * Stride);
    for (const Slot &S : Slots) {
      if (S.Key == Empty)
        continue;
      auto [Row, Inserted] =
          Rows.findOrInsert(S.Key, static_cast<uint32_t>(Rows.size()));
      (void)Inserted;
      appendRow();
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
      appendRow();
    uint64_t Mask = uint64_t(1) << (Ann % 64);
    uint64_t &Word = Bits[static_cast<size_t>(Row) * Stride + Ann / 64];
    if (Word & Mask)
      return false;
    Word |= Mask;
    return true;
  }

  /// Appends one zeroed row to the arena. The arena grows by a quarter,
  /// not by doubling: a row is Stride words (dozens once a domain has
  /// thousands of elements), so a doubled arena can be half unused
  /// capacity, and that capacity counts against the memory budget.
  void appendRow() {
    if (Bits.size() + Stride > Bits.capacity())
      Bits.reserve(Bits.size() + Bits.size() / 4 + Stride);
    Bits.resize(Bits.size() + Stride, 0);
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

} // namespace rasc

#endif // RASC_SUPPORT_ANNSET_H
