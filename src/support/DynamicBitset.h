//===- support/DynamicBitset.h - Growable bitset ----------------*- C++ -*-===//
//
// Part of the RASC project: regularly annotated set constraints.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A simple dynamically sized bitset. Used for DFA accept sets, subset
/// construction, reachability marks, and gen/kill vectors. The size is
/// fixed at construction (or by resize) and all operations assert
/// compatible sizes.
///
//===----------------------------------------------------------------------===//

#ifndef RASC_SUPPORT_DYNAMICBITSET_H
#define RASC_SUPPORT_DYNAMICBITSET_H

#include "support/Hashing.h"

#include <cassert>
#include <cstdint>
#include <vector>

namespace rasc {

/// Fixed-width (per instance) bitset with the usual boolean-algebra
/// operations. Bits beyond the logical size are kept zero so that
/// equality and hashing are well defined.
class DynamicBitset {
public:
  DynamicBitset() = default;

  explicit DynamicBitset(size_t NumBits)
      : NumBits(NumBits), Words((NumBits + 63) / 64, 0) {}

  size_t size() const { return NumBits; }

  bool empty() const { return NumBits == 0; }

  /// Grows or shrinks the bitset; new bits are zero.
  void resize(size_t NewBits) {
    NumBits = NewBits;
    Words.resize((NewBits + 63) / 64, 0);
    clearPadding();
  }

  void set(size_t I) {
    assert(I < NumBits && "bit index out of range");
    Words[I / 64] |= (uint64_t(1) << (I % 64));
  }

  void reset(size_t I) {
    assert(I < NumBits && "bit index out of range");
    Words[I / 64] &= ~(uint64_t(1) << (I % 64));
  }

  bool test(size_t I) const {
    assert(I < NumBits && "bit index out of range");
    return (Words[I / 64] >> (I % 64)) & 1;
  }

  /// Sets every bit.
  void setAll() {
    for (uint64_t &W : Words)
      W = ~uint64_t(0);
    clearPadding();
  }

  /// \returns true if no bit is set.
  bool none() const {
    for (uint64_t W : Words)
      if (W)
        return false;
    return true;
  }

  bool any() const { return !none(); }

  /// \returns the number of set bits.
  size_t count() const {
    size_t N = 0;
    for (uint64_t W : Words)
      N += static_cast<size_t>(__builtin_popcountll(W));
    return N;
  }

  /// \returns the index of the first set bit, or size() if none.
  size_t findFirst() const { return findNext(0); }

  /// \returns the index of the first set bit >= \p From, or size().
  size_t findNext(size_t From) const {
    if (From >= NumBits)
      return NumBits;
    size_t WordIdx = From / 64;
    uint64_t W = Words[WordIdx] & (~uint64_t(0) << (From % 64));
    while (true) {
      if (W)
        return WordIdx * 64 +
               static_cast<size_t>(__builtin_ctzll(W));
      if (++WordIdx == Words.size())
        return NumBits;
      W = Words[WordIdx];
    }
  }

  DynamicBitset &operator|=(const DynamicBitset &O) {
    assert(NumBits == O.NumBits && "size mismatch");
    for (size_t I = 0, E = Words.size(); I != E; ++I)
      Words[I] |= O.Words[I];
    return *this;
  }

  DynamicBitset &operator&=(const DynamicBitset &O) {
    assert(NumBits == O.NumBits && "size mismatch");
    for (size_t I = 0, E = Words.size(); I != E; ++I)
      Words[I] &= O.Words[I];
    return *this;
  }

  /// Removes every bit set in \p O.
  DynamicBitset &subtract(const DynamicBitset &O) {
    assert(NumBits == O.NumBits && "size mismatch");
    for (size_t I = 0, E = Words.size(); I != E; ++I)
      Words[I] &= ~O.Words[I];
    return *this;
  }

  /// \returns true if this and \p O share a set bit.
  bool intersects(const DynamicBitset &O) const {
    assert(NumBits == O.NumBits && "size mismatch");
    for (size_t I = 0, E = Words.size(); I != E; ++I)
      if (Words[I] & O.Words[I])
        return true;
    return false;
  }

  bool operator==(const DynamicBitset &O) const {
    return NumBits == O.NumBits && Words == O.Words;
  }

  bool operator!=(const DynamicBitset &O) const { return !(*this == O); }

  uint64_t hash() const {
    return hashRange(Words.begin(), Words.end(),
                     static_cast<uint64_t>(NumBits));
  }

private:
  /// Zeroes the unused high bits of the last word.
  void clearPadding() {
    if (NumBits % 64 != 0 && !Words.empty())
      Words.back() &= (uint64_t(1) << (NumBits % 64)) - 1;
  }

  size_t NumBits = 0;
  std::vector<uint64_t> Words;
};

/// Hash functor so DynamicBitset can key unordered containers.
struct BitsetHash {
  size_t operator()(const DynamicBitset &B) const {
    return static_cast<size_t>(B.hash());
  }
};

} // namespace rasc

#endif // RASC_SUPPORT_DYNAMICBITSET_H
