//===- support/FlatSet.h - Open-addressed integer hash sets -----*- C++ -*-===//
//
// Part of the RASC project: regularly annotated set constraints.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Cache-friendly open-addressed hash containers over 64-bit integer
/// keys, used on the solver's closure hot path where the generality of
/// std::unordered_set (chained buckets, one allocation per node) costs
/// more than the work being deduplicated.
///
/// The empty slot is marked with the all-ones key, so ~0ULL cannot be
/// stored; the solver packs (id, id) pairs of valid 32-bit ids, which
/// never produce it.
///
//===----------------------------------------------------------------------===//

#ifndef RASC_SUPPORT_FLATSET_H
#define RASC_SUPPORT_FLATSET_H

#include "support/Hashing.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <cstddef>
#include <vector>

namespace rasc {

/// Insert-only open-addressed set of uint64_t keys (linear probing,
/// power-of-two capacity, grown at 7/8 load). The key ~0ULL is
/// reserved as the empty marker.
class FlatSet64 {
  static constexpr uint64_t Empty = ~uint64_t(0);

public:
  FlatSet64() = default;

  size_t size() const { return Count; }
  bool empty() const { return Count == 0; }

  /// Inserts \p Key. \returns true if it was not present.
  bool insert(uint64_t Key) {
    assert(Key != Empty && "the all-ones key is reserved");
    if (Slots.empty())
      rehash(8);
    size_t Mask = Slots.size() - 1;
    size_t I = static_cast<size_t>(mix64(Key)) & Mask;
    while (true) {
      uint64_t S = Slots[I];
      if (S == Key)
        return false;
      if (S == Empty)
        break;
      I = (I + 1) & Mask;
    }
    Slots[I] = Key;
    // Grow at 7/8 load; rare enough that the re-probe is amortized.
    if (++Count * 8 >= Slots.size() * 7)
      rehash(Slots.size() * 2);
    return true;
  }

  bool contains(uint64_t Key) const {
    if (Slots.empty())
      return false;
    size_t Mask = Slots.size() - 1;
    size_t I = static_cast<size_t>(mix64(Key)) & Mask;
    while (true) {
      uint64_t S = Slots[I];
      if (S == Key)
        return true;
      if (S == Empty)
        return false;
      I = (I + 1) & Mask;
    }
  }

  void reserve(size_t N) {
    size_t Cap = 8;
    while (Cap * 7 < N * 8)
      Cap *= 2;
    if (Cap > Slots.size())
      rehash(Cap);
  }

private:
  void rehash(size_t NewCap) {
    std::vector<uint64_t> Old = std::move(Slots);
    Slots.assign(NewCap, Empty);
    size_t Mask = NewCap - 1;
    for (uint64_t Key : Old) {
      if (Key == Empty)
        continue;
      size_t I = static_cast<size_t>(mix64(Key)) & Mask;
      while (Slots[I] != Empty)
        I = (I + 1) & Mask;
      Slots[I] = Key;
    }
  }

  std::vector<uint64_t> Slots;
  size_t Count = 0;
};

/// Insert-only open-addressed map uint64_t -> uint32_t (same probing
/// scheme as FlatSet64, keys and values in parallel arrays). Used to
/// assign dense row indices to (src, dst) node pairs.
class FlatMap64 {
  static constexpr uint64_t Empty = ~uint64_t(0);

public:
  FlatMap64() = default;

  size_t size() const { return Count; }

  /// \returns the value of \p Key, inserting \p NewValue if absent,
  /// and whether the insertion happened.
  std::pair<uint32_t, bool> findOrInsert(uint64_t Key, uint32_t NewValue) {
    assert(Key != Empty && "the all-ones key is reserved");
    if (Keys.empty())
      rehash(8);
    size_t Mask = Keys.size() - 1;
    size_t I = static_cast<size_t>(mix64(Key)) & Mask;
    while (true) {
      uint64_t S = Keys[I];
      if (S == Key)
        return {Values[I], false};
      if (S == Empty)
        break;
      I = (I + 1) & Mask;
    }
    Keys[I] = Key;
    Values[I] = NewValue;
    if (++Count * 8 >= Keys.size() * 7)
      rehash(Keys.size() * 2);
    return {NewValue, true};
  }

  /// \returns a pointer to the value of \p Key, or nullptr if absent.
  /// Read-only (safe to call concurrently with other lookups); the
  /// pointer is invalidated by the next findOrInsert.
  const uint32_t *lookup(uint64_t Key) const {
    if (Keys.empty())
      return nullptr;
    size_t Mask = Keys.size() - 1;
    size_t I = static_cast<size_t>(mix64(Key)) & Mask;
    while (true) {
      uint64_t S = Keys[I];
      if (S == Key)
        return &Values[I];
      if (S == Empty)
        return nullptr;
      I = (I + 1) & Mask;
    }
  }

  void reserve(size_t N) {
    size_t Cap = 8;
    while (Cap * 7 < N * 8)
      Cap *= 2;
    if (Cap > Keys.size())
      rehash(Cap);
  }

  /// Heap bytes held (for the solver's approximate memory budget).
  size_t memoryBytes() const {
    return Keys.capacity() * sizeof(uint64_t) +
           Values.capacity() * sizeof(uint32_t);
  }

private:
  void rehash(size_t NewCap) {
    std::vector<uint64_t> OldK = std::move(Keys);
    std::vector<uint32_t> OldV = std::move(Values);
    Keys.assign(NewCap, Empty);
    Values.assign(NewCap, 0);
    size_t Mask = NewCap - 1;
    for (size_t J = 0, E = OldK.size(); J != E; ++J) {
      if (OldK[J] == Empty)
        continue;
      size_t I = static_cast<size_t>(mix64(OldK[J])) & Mask;
      while (Keys[I] != Empty)
        I = (I + 1) & Mask;
      Keys[I] = OldK[J];
      Values[I] = OldV[J];
    }
  }

  std::vector<uint64_t> Keys;
  std::vector<uint32_t> Values;
  size_t Count = 0;
};

} // namespace rasc

#endif // RASC_SUPPORT_FLATSET_H
