// Hashing helpers: FNV-1a for byte strings (path → group partitioning in
// NetFS, state digests), a 64-bit finalizer for integer keys (key → group in
// the keyed C-G function), and CRC32 (IEEE polynomial, slicing-by-8) for
// multicast batch integrity.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string_view>

namespace psmr::util {

/// FNV-1a 64-bit hash of a byte span.
constexpr std::uint64_t fnv1a(std::span<const std::uint8_t> data) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::uint8_t b : data) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// FNV-1a over a string view (used for file-system paths).
constexpr std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (char c : s) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Strong 64-bit integer mixer (SplitMix64 finalizer).  Used to spread
/// adjacent keys across multicast groups.
constexpr std::uint64_t mix64(std::uint64_t x) {
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Seed for fold_kv chains (the FNV-1a offset basis).
inline constexpr std::uint64_t kFoldSeed = 0xcbf29ce484222325ULL;

/// Order-sensitive (key, value) fold step shared by the B+-tree digests,
/// the KV scan command's range digest, and the test oracles — replica
/// cross-checks rely on every producer using this exact mix.
constexpr std::uint64_t fold_kv(std::uint64_t h, std::uint64_t k,
                                std::uint64_t v) {
  return mix64(h ^ mix64(k) ^ (v * 0x9e3779b97f4a7c15ULL));
}

namespace detail {

/// Slicing-by-8 tables for the reflected IEEE polynomial 0xEDB88320.
/// Table 0 is the classic byte-at-a-time table; table k advances a byte's
/// contribution through k further zero bytes.
constexpr std::array<std::array<std::uint32_t, 256>, 8> crc32_tables() {
  std::array<std::array<std::uint32_t, 256>, 8> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xff];
    }
  }
  return t;
}

inline constexpr auto kCrc32Tables = crc32_tables();

constexpr std::uint32_t load_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

}  // namespace detail

/// Incrementally-usable CRC32 with the IEEE 802.3 polynomial (the zlib /
/// PNG CRC; CRC32("123456789") = 0xCBF43926), guarding every multicast
/// batch.  Slicing-by-8 (Kounavis and Berry, ISCC 2005): eight table
/// lookups fold eight input bytes per step, bytes loaded in little-endian
/// order on any host, so values equal the byte-at-a-time algorithm's.  Not
/// the SSE4.2 crc32 instruction, which computes CRC32C, another polynomial.
class Crc32 {
 public:
  void update(std::span<const std::uint8_t> data) {
    const auto& t = detail::kCrc32Tables;
    const std::uint8_t* p = data.data();
    std::size_t n = data.size();
    std::uint32_t c = crc_;
    for (; n >= 8; p += 8, n -= 8) {
      const std::uint32_t lo = c ^ detail::load_le32(p);
      const std::uint32_t hi = detail::load_le32(p + 4);
      c = t[7][lo & 0xff] ^ t[6][(lo >> 8) & 0xff] ^ t[5][(lo >> 16) & 0xff] ^
          t[4][lo >> 24] ^ t[3][hi & 0xff] ^ t[2][(hi >> 8) & 0xff] ^
          t[1][(hi >> 16) & 0xff] ^ t[0][hi >> 24];
    }
    for (; n > 0; ++p, --n) c = t[0][(c ^ *p) & 0xff] ^ (c >> 8);
    crc_ = c;
  }
  [[nodiscard]] std::uint32_t value() const { return crc_ ^ 0xffffffffu; }

  static std::uint32_t of(std::span<const std::uint8_t> data) {
    Crc32 c;
    c.update(data);
    return c.value();
  }

 private:
  std::uint32_t crc_ = 0xffffffffu;
};

}  // namespace psmr::util
