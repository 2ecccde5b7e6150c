//===- support/Serialize.cpp - Checksummed binary encoding ----------------===//
//
// Part of the RASC project: regularly annotated set constraints.
//
//===----------------------------------------------------------------------===//

#include "support/Serialize.h"

#include <array>

namespace rasc {

namespace {

std::array<uint32_t, 256> makeCrcTable() {
  std::array<uint32_t, 256> T{};
  for (uint32_t I = 0; I < 256; ++I) {
    uint32_t C = I;
    for (int K = 0; K < 8; ++K)
      C = (C & 1) ? 0xEDB88320u ^ (C >> 1) : C >> 1;
    T[I] = C;
  }
  return T;
}

} // namespace

uint32_t crc32(const void *Data, size_t Len, uint32_t Seed) {
  static const std::array<uint32_t, 256> Table = makeCrcTable();
  const uint8_t *P = static_cast<const uint8_t *>(Data);
  uint32_t C = Seed ^ 0xFFFFFFFFu;
  for (size_t I = 0; I < Len; ++I)
    C = Table[(C ^ P[I]) & 0xFF] ^ (C >> 8);
  return C ^ 0xFFFFFFFFu;
}

} // namespace rasc
