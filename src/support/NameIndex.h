//===- support/NameIndex.h - O(1) lookup of dense named ids -----*- C++ -*-===//
//
// Part of the RASC project: regularly annotated set constraints.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An index from names to the dense ids of a table that its owner
/// keeps (a symbol list, a list of state declarations). The index
/// holds only each id's hash, in an open-addressed table; a lookup
/// compares a candidate's text through the owner's NameOf(Id), so the
/// owner may store its names however it likes, and no name is copied
/// to be looked up. The spec compiler and DfaBuilder use it to find a
/// symbol or a state in O(1) instead of scanning the alphabet.
///
//===----------------------------------------------------------------------===//

#ifndef RASC_SUPPORT_NAMEINDEX_H
#define RASC_SUPPORT_NAMEINDEX_H

#include <cstdint>
#include <cstring>
#include <string_view>
#include <utility>
#include <vector>

namespace rasc {

class NameIndex {
public:
  static constexpr uint32_t NotFound = ~uint32_t(0);

  /// Makes room for \p N names.
  void reserve(size_t N) {
    size_t Cap = 8;
    while (Cap * 3 < N * 4)
      Cap *= 2;
    if (Cap > Slots.size())
      rehash(Cap);
  }

  /// \returns the id of \p Name, or NotFound. \p NameOf(Id) is the
  /// name of an inserted id.
  template <typename NameOfFn>
  uint32_t find(std::string_view Name, const NameOfFn &NameOf) const {
    if (Slots.empty())
      return NotFound;
    uint32_t H = hashName(Name);
    size_t Mask = Slots.size() - 1;
    for (size_t I = H & Mask;; I = (I + 1) & Mask) {
      const Slot &S = Slots[I];
      if (S.Id == NotFound || (S.Hash == H && NameOf(S.Id) == Name))
        return S.Id;
    }
  }

  /// \returns the id of \p Name, inserting \p NewId if it is absent,
  /// and whether the insertion happened. \p NameOf(Id) is the name of
  /// an id inserted earlier.
  template <typename NameOfFn>
  std::pair<uint32_t, bool> findOrInsert(std::string_view Name,
                                         uint32_t NewId,
                                         const NameOfFn &NameOf) {
    if ((Count + 1) * 4 > Slots.size() * 3)
      rehash(Slots.empty() ? 8 : Slots.size() * 2);
    uint32_t H = hashName(Name);
    size_t Mask = Slots.size() - 1;
    for (size_t I = H & Mask;; I = (I + 1) & Mask) {
      Slot &S = Slots[I];
      if (S.Id == NotFound) {
        S = {H, NewId};
        ++Count;
        return {NewId, true};
      }
      if (S.Hash == H && NameOf(S.Id) == Name)
        return {S.Id, false};
    }
  }

private:
  struct Slot {
    uint32_t Hash = 0;
    uint32_t Id = NotFound;
  };

  static uint32_t hashName(std::string_view Name) {
    // Eight bytes a step: a multiply per word, folded once at the end
    // so that the low bits, which pick the slot, see every byte.
    uint64_t H = Name.size();
    const char *P = Name.data();
    size_t N = Name.size();
    for (; N >= 8; P += 8, N -= 8) {
      uint64_t W;
      std::memcpy(&W, P, 8);
      H = (H ^ W) * 0x9e3779b97f4a7c15ULL;
    }
    uint64_t W = 0;
    for (size_t I = 0; I != N; ++I)
      W |= uint64_t(static_cast<unsigned char>(P[I])) << (8 * I);
    H = (H ^ W) * 0x9e3779b97f4a7c15ULL;
    return static_cast<uint32_t>(H ^ (H >> 32));
  }

  void rehash(size_t NewCap) {
    std::vector<Slot> Old = std::move(Slots);
    Slots.assign(NewCap, Slot());
    size_t Mask = NewCap - 1;
    for (const Slot &S : Old) {
      if (S.Id == NotFound)
        continue;
      size_t I = S.Hash & Mask;
      while (Slots[I].Id != NotFound)
        I = (I + 1) & Mask;
      Slots[I] = S;
    }
  }

  std::vector<Slot> Slots;
  size_t Count = 0;
};

} // namespace rasc

#endif // RASC_SUPPORT_NAMEINDEX_H
