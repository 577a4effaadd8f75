// Hash functions used across the file-system layers.
//
// Directory blocks hash file names (fnv1a64); allocators and the harness mix
// integers (splitmix64); the integrity layer checksums data blocks (crc32c).
// All are deterministic across runs and platforms so that on-media layouts
// and benchmark workloads are reproducible.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace simurgh {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

constexpr std::uint64_t fnv1a64(std::string_view s,
                                std::uint64_t seed = kFnvOffset) noexcept {
  std::uint64_t h = seed;
  for (char c : s) {
    h ^= static_cast<std::uint8_t>(c);
    h *= kFnvPrime;
  }
  return h;
}

// Finalizer from the splitmix64 generator; a strong 64->64 bit mixer.
constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

namespace detail {

// Slice-by-8 lookup tables for the Castagnoli polynomial (0x82f63b78,
// reflected).  Built once on first use; the hardware path below produces
// bit-identical results, so images checksummed on one host verify on any
// other.
struct Crc32cTables {
  std::uint32_t t[8][256];
  Crc32cTables() noexcept {
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k)
        c = (c & 1) ? 0x82f63b78u ^ (c >> 1) : c >> 1;
      t[0][i] = c;
    }
    for (std::uint32_t i = 0; i < 256; ++i)
      for (unsigned j = 1; j < 8; ++j)
        t[j][i] = (t[j - 1][i] >> 8) ^ t[0][t[j - 1][i] & 0xffu];
  }
};

// Appending `len` zero bytes to a raw (uninverted) CRC register is linear
// over GF(2), so it splits into one 256-entry table per register byte: four
// lookups shift a lane's CRC past the lanes that follow it.
struct Crc32cShift {
  std::uint32_t t[4][256];
  explicit Crc32cShift(std::size_t len) noexcept {
    static const Crc32cTables tbl;
    for (unsigned bit = 0; bit < 32; ++bit) {
      std::uint32_t c = 1u << bit;
      for (std::size_t i = 0; i < len; ++i) c = tbl.t[0][c & 0xffu] ^ (c >> 8);
      t[bit / 8][1u << (bit % 8)] = c;
    }
    for (auto& row : t) {
      row[0] = 0;
      for (unsigned v = 3; v < 256; ++v)  // v's low bit, then the rest
        row[v] = row[v & ~(v - 1)] ^ row[v & (v - 1)];
    }
  }
  std::uint32_t operator()(std::uint32_t c) const noexcept {
    return t[0][c & 0xffu] ^ t[1][(c >> 8) & 0xffu] ^
           t[2][(c >> 16) & 0xffu] ^ t[3][c >> 24];
  }
};

inline std::uint32_t crc32c_sw(const void* data, std::size_t n,
                               std::uint32_t crc) noexcept {
  static const Crc32cTables tbl;
  const auto* p = static_cast<const unsigned char*>(data);
  while (n >= 8) {
    std::uint64_t w;
    __builtin_memcpy(&w, p, 8);
    w ^= crc;  // little-endian: low 4 bytes fold in the running crc
    crc = tbl.t[7][w & 0xff] ^ tbl.t[6][(w >> 8) & 0xff] ^
          tbl.t[5][(w >> 16) & 0xff] ^ tbl.t[4][(w >> 24) & 0xff] ^
          tbl.t[3][(w >> 32) & 0xff] ^ tbl.t[2][(w >> 40) & 0xff] ^
          tbl.t[1][(w >> 48) & 0xff] ^ tbl.t[0][(w >> 56) & 0xff];
    p += 8;
    n -= 8;
  }
  while (n > 0) {
    crc = tbl.t[0][(crc ^ *p) & 0xff] ^ (crc >> 8);
    ++p;
    --n;
  }
  return crc;
}

#if defined(__x86_64__)
// One crc32q chain runs at the instruction's 3-cycle latency.  Each 4,080-byte
// chunk therefore runs as three independent 1,360-byte lanes, which keeps the
// unit busy every cycle, and the lanes are joined by shifting the first two
// past the bytes that follow them.  The tail under one chunk stays one chain.
inline std::uint32_t crc32c_hw(const void* data, std::size_t n,
                               std::uint32_t crc) noexcept {
  constexpr std::size_t kLane = 1360;
  static const Crc32cShift shift1(kLane), shift2(2 * kLane);
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t c = crc;
  while (n >= 3 * kLane) {
    std::uint64_t c1 = 0, c2 = 0;
    for (std::size_t i = 0; i < kLane; i += 8) {
      std::uint64_t w0, w1, w2;
      __builtin_memcpy(&w0, p + i, 8);
      __builtin_memcpy(&w1, p + kLane + i, 8);
      __builtin_memcpy(&w2, p + 2 * kLane + i, 8);
      asm("crc32q %1, %0" : "+r"(c) : "rm"(w0));
      asm("crc32q %1, %0" : "+r"(c1) : "rm"(w1));
      asm("crc32q %1, %0" : "+r"(c2) : "rm"(w2));
    }
    c = shift2(static_cast<std::uint32_t>(c)) ^
        shift1(static_cast<std::uint32_t>(c1)) ^ c2;
    p += 3 * kLane;
    n -= 3 * kLane;
  }
  while (n >= 8) {
    std::uint64_t w;
    __builtin_memcpy(&w, p, 8);
    asm("crc32q %1, %0" : "+r"(c) : "rm"(w));
    p += 8;
    n -= 8;
  }
  crc = static_cast<std::uint32_t>(c);
  while (n > 0) {
    asm("crc32b %1, %0" : "+r"(crc) : "qm"(*p));
    ++p;
    --n;
  }
  return crc;
}
#endif

}  // namespace detail

// CRC32C (Castagnoli) of a byte range.  On the always-hit write path of the
// integrity layer (data.cc stamps every written 4 KB block), so the x86
// crc32 instruction is used when the CPU has it — detected at runtime via
// inline asm rather than -msse4.2, which would taint the whole translation
// unit's code generation.
inline std::uint32_t crc32c(const void* data, std::size_t n,
                            std::uint32_t seed = 0) noexcept {
  const std::uint32_t crc = ~seed;
#if defined(__x86_64__)
  static const bool hw = __builtin_cpu_supports("sse4.2");
  if (hw) return ~detail::crc32c_hw(data, n, crc);
#endif
  return ~detail::crc32c_sw(data, n, crc);
}

}  // namespace simurgh
