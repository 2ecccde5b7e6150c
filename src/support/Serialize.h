//===- support/Serialize.h - Checksummed binary encoding --------*- C++ -*-===//
//
// Part of the RASC project: regularly annotated set constraints.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The byte-level layer of the proof logs (core/ProofLog.h):
/// little-endian scalar encoding, CRC32, and fourcc chunk tags. The
/// log frames every chunk with its own CRC so a torn write, a bit
/// flip, or a truncation is detected and rejected at load; the I/O
/// failpoints (support/FailPoint.h: TornWrite, ShortRead, FsyncFail)
/// let tests inject each failure mode deterministically.
///
//===----------------------------------------------------------------------===//

#ifndef RASC_SUPPORT_SERIALIZE_H
#define RASC_SUPPORT_SERIALIZE_H

#include <cstdint>
#include <cstring>
#include <vector>

namespace rasc {

/// CRC32 (the standard reflected 0xEDB88320 polynomial, as in zip).
uint32_t crc32(const void *Data, size_t Len, uint32_t Seed = 0);

/// Append-only little-endian scalar encoder into a byte buffer.
class ByteWriter {
public:
  void u8(uint8_t V) { Buf.push_back(V); }
  void u32(uint32_t V) { raw(&V, sizeof V); }
  void u64(uint64_t V) { raw(&V, sizeof V); }
  void f64(double V) {
    uint64_t Bits;
    std::memcpy(&Bits, &V, sizeof Bits);
    u64(Bits);
  }
  void bytes(const void *Data, size_t Len) { raw(Data, Len); }

  const std::vector<uint8_t> &data() const { return Buf; }
  size_t size() const { return Buf.size(); }

private:
  void raw(const void *P, size_t N) {
    // Scalars are stored host-order; the format is declared
    // little-endian, which every supported target is.
    static_assert(sizeof(uint32_t) == 4 && sizeof(double) == 8);
    const uint8_t *B = static_cast<const uint8_t *>(P);
    Buf.insert(Buf.end(), B, B + N);
  }

  std::vector<uint8_t> Buf;
};

/// Bounds-checked little-endian decoder over a borrowed byte range.
/// Reading past the end returns zeros and latches bad(); callers check
/// once per section instead of per scalar, and a bad() reader is how
/// corrupt variable-length data (a length field pointing past the
/// payload) surfaces without UB.
class ByteReader {
public:
  ByteReader() = default;
  ByteReader(const uint8_t *Data, size_t Len) : Cur(Data), End(Data + Len) {}

  uint8_t u8() {
    uint8_t V = 0;
    raw(&V, 1);
    return V;
  }
  uint32_t u32() {
    uint32_t V = 0;
    raw(&V, sizeof V);
    return V;
  }
  uint64_t u64() {
    uint64_t V = 0;
    raw(&V, sizeof V);
    return V;
  }
  double f64() {
    uint64_t Bits = u64();
    double V;
    std::memcpy(&V, &Bits, sizeof V);
    return V;
  }

  bool bad() const { return Bad; }
  size_t remaining() const { return static_cast<size_t>(End - Cur); }
  bool atEnd() const { return Cur == End; }

private:
  void raw(void *P, size_t N) {
    if (remaining() < N) {
      Bad = true;
      Cur = End;
      return;
    }
    std::memcpy(P, Cur, N);
    Cur += N;
  }

  const uint8_t *Cur = nullptr;
  const uint8_t *End = nullptr;
  bool Bad = false;
};

/// Packs a fourcc chunk tag, e.g. sectionTag("PRFH").
constexpr uint32_t sectionTag(const char (&S)[5]) {
  return static_cast<uint32_t>(S[0]) | (static_cast<uint32_t>(S[1]) << 8) |
         (static_cast<uint32_t>(S[2]) << 16) |
         (static_cast<uint32_t>(S[3]) << 24);
}

} // namespace rasc

#endif // RASC_SUPPORT_SERIALIZE_H
