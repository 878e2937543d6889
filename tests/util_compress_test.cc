#include "util/compress.h"

#include <gtest/gtest.h>
#include <sys/resource.h>

#include <array>
#include <cstdlib>
#include <cstring>
#include <string>

#include "test_support.h"
#include "util/rng.h"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define PSMR_UNDER_SANITIZER 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define PSMR_UNDER_SANITIZER 1
#endif
#endif

// The original codec, kept verbatim as the oracle for the differential tests
// below: it clears a fresh match table on every call and decodes one byte at
// a time.  The live codec must produce the same compressed bytes and make
// the same accept/reject decisions with the same output.
namespace seed_codec {
using psmr::util::Buffer;

constexpr std::size_t kMinMatch = 4;
constexpr std::size_t kMaxOffset = 65535;
constexpr int kHashBits = 14;

std::uint32_t load32(const std::uint8_t* p) {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

std::uint32_t hash4(std::uint32_t v) {
  return (v * 2654435761u) >> (32 - kHashBits);
}

void put_length(Buffer& out, std::size_t len) {
  // Extension bytes after a nibble value of 15.
  while (len >= 255) {
    out.push_back(255);
    len -= 255;
  }
  out.push_back(static_cast<std::uint8_t>(len));
}

Buffer lz_compress(std::span<const std::uint8_t> input) {
  Buffer out;
  out.reserve(input.size() / 2 + 16);
  // Header: raw size, little endian.
  std::uint32_t raw = static_cast<std::uint32_t>(input.size());
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>(raw >> (8 * i)));
  }
  const std::uint8_t* base = input.data();
  const std::size_t n = input.size();

  std::array<std::int64_t, 1 << kHashBits> table;
  table.fill(-1);

  std::size_t pos = 0;
  std::size_t literal_start = 0;

  auto emit = [&](std::size_t match_len, std::size_t offset) {
    std::size_t lit_len = pos - literal_start;
    std::uint8_t token = 0;
    token |= static_cast<std::uint8_t>((lit_len >= 15 ? 15 : lit_len) << 4);
    if (match_len > 0) {
      std::size_t m = match_len - kMinMatch;
      token |= static_cast<std::uint8_t>(m >= 15 ? 15 : m);
    }
    out.push_back(token);
    if (lit_len >= 15) put_length(out, lit_len - 15);
    out.insert(out.end(), base + literal_start, base + pos);
    if (match_len > 0) {
      out.push_back(static_cast<std::uint8_t>(offset & 0xff));
      out.push_back(static_cast<std::uint8_t>(offset >> 8));
      std::size_t m = match_len - kMinMatch;
      if (m >= 15) put_length(out, m - 15);
    }
  };

  while (n >= kMinMatch && pos + kMinMatch <= n) {
    std::uint32_t h = hash4(load32(base + pos));
    std::int64_t cand = table[h];
    table[h] = static_cast<std::int64_t>(pos);
    if (cand >= 0 &&
        pos - static_cast<std::size_t>(cand) <= kMaxOffset &&
        load32(base + cand) == load32(base + pos)) {
      // Extend the match forward.
      std::size_t match_len = kMinMatch;
      while (pos + match_len < n &&
             base[cand + static_cast<std::int64_t>(match_len)] ==
                 base[pos + match_len]) {
        ++match_len;
      }
      std::size_t offset = pos - static_cast<std::size_t>(cand);
      emit(match_len, offset);
      // Index a couple of positions inside the match to keep ratio decent.
      for (std::size_t i = 1; i < match_len && pos + i + kMinMatch <= n;
           i += 2) {
        table[hash4(load32(base + pos + i))] =
            static_cast<std::int64_t>(pos + i);
      }
      pos += match_len;
      literal_start = pos;
    } else {
      ++pos;
    }
  }
  pos = n;
  emit(0, 0);  // trailing literals-only sequence
  return out;
}

std::optional<Buffer> lz_decompress(std::span<const std::uint8_t> block) {
  if (block.size() < 4) return std::nullopt;
  std::uint32_t raw = 0;
  for (int i = 0; i < 4; ++i) {
    raw |= static_cast<std::uint32_t>(block[static_cast<std::size_t>(i)])
           << (8 * i);
  }
  Buffer out;
  out.reserve(raw);
  std::size_t pos = 4;
  const std::size_t n = block.size();

  auto read_ext = [&](std::size_t& len) -> bool {
    while (true) {
      if (pos >= n) return false;
      std::uint8_t b = block[pos++];
      len += b;
      if (b != 255) return true;
    }
  };

  while (out.size() < raw) {
    if (pos >= n) return std::nullopt;
    std::uint8_t token = block[pos++];
    std::size_t lit_len = token >> 4;
    if (lit_len == 15 && !read_ext(lit_len)) return std::nullopt;
    if (pos + lit_len > n) return std::nullopt;
    out.insert(out.end(), block.begin() + static_cast<std::ptrdiff_t>(pos),
               block.begin() + static_cast<std::ptrdiff_t>(pos + lit_len));
    pos += lit_len;
    if (out.size() >= raw) break;  // final literals-only sequence

    if (pos + 2 > n) return std::nullopt;
    std::size_t offset = block[pos] | (static_cast<std::size_t>(block[pos + 1]) << 8);
    pos += 2;
    if (offset == 0 || offset > out.size()) return std::nullopt;
    std::size_t match_len = (token & 0xf);
    if (match_len == 15 && !read_ext(match_len)) return std::nullopt;
    match_len += kMinMatch;
    if (out.size() + match_len > raw) return std::nullopt;
    // Byte-by-byte copy: overlapping matches (offset < length) are valid.
    std::size_t src = out.size() - offset;
    for (std::size_t i = 0; i < match_len; ++i) {
      out.push_back(out[src + i]);
    }
  }
  if (out.size() != raw) return std::nullopt;
  return out;
}

}  // namespace seed_codec

namespace psmr::util {
namespace {

Buffer to_buf(const std::string& s) {
  return Buffer(s.begin(), s.end());
}

TEST(Compress, EmptyInput) {
  auto block = lz_compress({});
  auto out = lz_decompress(block);
  ASSERT_TRUE(out.has_value());
  EXPECT_TRUE(out->empty());
}

TEST(Compress, SmallLiteral) {
  Buffer in = to_buf("abc");
  auto out = lz_decompress(lz_compress(in));
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, in);
}

TEST(Compress, RepetitiveDataShrinks) {
  Buffer in;
  for (int i = 0; i < 1000; ++i) {
    const char* chunk = "the quick brown fox jumps over the lazy dog ";
    for (const char* p = chunk; *p; ++p) in.push_back(*p);
  }
  auto block = lz_compress(in);
  EXPECT_LT(block.size(), in.size() / 4);
  auto out = lz_decompress(block);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, in);
}

TEST(Compress, AllSameByte) {
  Buffer in(100000, 0x42);
  auto block = lz_compress(in);
  EXPECT_LT(block.size(), 1000u);  // overlapping match handles runs
  auto out = lz_decompress(block);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, in);
}

TEST(Compress, IncompressibleRoundTrips) {
  SplitMix64 rng(77);
  Buffer in;
  for (int i = 0; i < 65536; ++i) {
    in.push_back(static_cast<std::uint8_t>(rng.next()));
  }
  auto block = lz_compress(in);
  auto out = lz_decompress(block);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, in);
}

TEST(Compress, RejectsTruncatedBlock) {
  Buffer in = to_buf("hello hello hello hello hello hello");
  auto block = lz_compress(in);
  for (std::size_t cut = 0; cut < block.size(); cut += 3) {
    Buffer truncated(block.begin(),
                     block.begin() + static_cast<std::ptrdiff_t>(cut));
    auto out = lz_decompress(truncated);
    if (out.has_value()) {
      // A prefix that happens to decode must not silently produce wrong data.
      EXPECT_EQ(*out, in);
    }
  }
}

TEST(Compress, RejectsGarbageHeader) {
  Buffer garbage = {0xff, 0xff, 0xff};
  EXPECT_FALSE(lz_decompress(garbage).has_value());
}

// Property sweep: random mixtures of runs and noise at varying sizes.
class CompressRoundTrip : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CompressRoundTrip, RoundTrips) {
  SplitMix64 rng(GetParam() * 31 + 1);
  Buffer in;
  std::size_t target = GetParam();
  while (in.size() < target) {
    if (rng.chance(0.5)) {
      // Run of a repeated short motif.
      std::size_t motif_len = 1 + rng.next_below(8);
      std::size_t repeats = 1 + rng.next_below(50);
      Buffer motif;
      for (std::size_t i = 0; i < motif_len; ++i) {
        motif.push_back(static_cast<std::uint8_t>(rng.next()));
      }
      for (std::size_t r = 0; r < repeats; ++r) {
        in.insert(in.end(), motif.begin(), motif.end());
      }
    } else {
      std::size_t n = 1 + rng.next_below(64);
      for (std::size_t i = 0; i < n; ++i) {
        in.push_back(static_cast<std::uint8_t>(rng.next()));
      }
    }
  }
  in.resize(target);
  auto out = lz_decompress(lz_compress(in));
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, in);
}

INSTANTIATE_TEST_SUITE_P(Sizes, CompressRoundTrip,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 15, 16, 17, 100,
                                           1024, 4096, 65535, 65536, 65537,
                                           1 << 18));

// --- Differential tests against the original codec ------------------------

// Random bytes over an alphabet of `symbols` values (1 = a single-byte run),
// with repeated motifs mixed in when `motifs` is set.
Buffer random_input(SplitMix64& rng, std::size_t n, std::size_t symbols,
                    bool motifs) {
  Buffer in;
  in.reserve(n);
  while (in.size() < n) {
    if (motifs && !in.empty() && rng.chance(0.3)) {
      std::size_t back = 1 + rng.next_below(std::min<std::size_t>(in.size(), 300));
      std::size_t len = 1 + rng.next_below(40);
      std::size_t from = in.size() - back;
      for (std::size_t i = 0; i < len && in.size() < n; ++i) {
        in.push_back(in[from + i]);
      }
    } else {
      in.push_back(static_cast<std::uint8_t>(rng.next_below(symbols)));
    }
  }
  return in;
}

TEST(CompressDifferential, MatchesOriginalCompressor) {
  SplitMix64 rng(test_support::logged_seed(101));
  for (int iter = 0; iter < 4000; ++iter) {
    const std::size_t n = rng.next_below(3001);
    const std::size_t symbols = 1 + rng.next_below(256);
    Buffer in = random_input(rng, n, symbols, rng.chance(0.5));
    ASSERT_EQ(lz_compress(in), seed_codec::lz_compress(in))
        << "iter " << iter << " n " << n << " symbols " << symbols;
  }
}

TEST(CompressDifferential, MatchesOriginalOnLargeInputs) {
  // Inputs past 64 KiB, whose match offsets reach the format's limit, and
  // small and large inputs interleaved on one thread's reused table must
  // not change a byte of output.
  SplitMix64 rng(test_support::logged_seed(102));
  const std::size_t sizes[] = {65535, 65536, 65537, 70000, 200000, 1000,
                               65536, 3,     1 << 18, 17};
  for (std::size_t n : sizes) {
    for (std::size_t symbols : {1, 4, 256}) {
      Buffer in = random_input(rng, n, symbols, true);
      ASSERT_EQ(lz_compress(in), seed_codec::lz_compress(in))
          << "n " << n << " symbols " << symbols;
    }
  }
  Buffer run(300000, 0x42);  // one long overlapping match
  EXPECT_EQ(lz_compress(run), seed_codec::lz_compress(run));
}

TEST(CompressDifferential, ReusedTableSeesOnlyItsOwnCall) {
  // Many calls on one thread's table, each on a short input whose hashes
  // hit slots that earlier calls filled: every call must still see only its
  // own entries.
  SplitMix64 rng(test_support::logged_seed(103));
  std::vector<Buffer> inputs;
  std::vector<Buffer> expected;
  for (int i = 0; i < 16; ++i) {
    inputs.push_back(random_input(rng, 16 + rng.next_below(200),
                                  1 + rng.next_below(8), true));
    expected.push_back(seed_codec::lz_compress(inputs.back()));
  }
  for (int call = 0; call < 70000; ++call) {
    const std::size_t i = static_cast<std::size_t>(call) % inputs.size();
    ASSERT_EQ(lz_compress(inputs[i]), expected[i]) << "call " << call;
  }
}

// The original decoder reserves the header's raw size up front, so the
// corrupted headers fed to it here stay below 16 MiB (bit flips skip the
// header's top byte); HugeHeaderIsRejectedWithoutAllocating covers the rest.
void expect_same_decode(const Buffer& block, const char* what, int iter) {
  auto got = lz_decompress(block);
  auto want = seed_codec::lz_decompress(block);
  ASSERT_EQ(got.has_value(), want.has_value()) << what << " iter " << iter;
  if (want) {
    ASSERT_EQ(*got, *want) << what << " iter " << iter;
  }
  // With a limit at or past the raw size, the prefix decode is the full one.
  auto whole = lz_decompress_prefix(block, block.size() * 255 + 1);
  ASSERT_EQ(whole.has_value(), want.has_value()) << what << " iter " << iter;
  if (want) {
    ASSERT_EQ(*whole, *want) << what << " iter " << iter;
  }
}

TEST(CompressDifferential, DecoderMatchesOriginalOnDamagedBlocks) {
  SplitMix64 rng(test_support::logged_seed(104));
  for (int iter = 0; iter < 20000; ++iter) {
    Buffer in = random_input(rng, rng.next_below(1500), 1 + rng.next_below(32),
                             true);
    Buffer block = lz_compress(in);
    switch (rng.next_below(4)) {
      case 0: {  // flip one to three bits outside the header's top byte
        const int flips = 1 + static_cast<int>(rng.next_below(3));
        for (int f = 0; f < flips; ++f) {
          std::size_t at = rng.next_below(block.size());
          if (at == 3) continue;
          block[at] ^= static_cast<std::uint8_t>(1u << rng.next_below(8));
        }
        break;
      }
      case 1:  // truncate
        block.resize(rng.next_below(block.size() + 1));
        break;
      case 2: {  // random stream behind a small header
        const std::size_t len = rng.next_below(64);
        block.resize(4);
        const std::uint32_t raw = static_cast<std::uint32_t>(rng.next_below(300));
        for (int i = 0; i < 4; ++i) {
          block[static_cast<std::size_t>(i)] =
              static_cast<std::uint8_t>(raw >> (8 * i));
        }
        for (std::size_t i = 0; i < len; ++i) {
          block.push_back(static_cast<std::uint8_t>(rng.next()));
        }
        break;
      }
      default:  // intact
        break;
    }
    expect_same_decode(block, "damaged", iter);
  }
}

TEST(CompressDifferential, DecoderMatchesOriginalOnDamagedLargeBlocks) {
  // Outputs past 64 KiB are counted before they are allocated; that pass
  // must accept and reject exactly what the original decoder does.
  SplitMix64 rng(test_support::logged_seed(106));
  for (int iter = 0; iter < 60; ++iter) {
    Buffer in = random_input(rng, 60000 + rng.next_below(100000),
                             1 + rng.next_below(64), true);
    Buffer block = lz_compress(in);
    switch (rng.next_below(3)) {
      case 0: {  // flip a bit outside the header's top byte
        std::size_t at = rng.next_below(block.size());
        if (at != 3) {
          block[at] ^= static_cast<std::uint8_t>(1u << rng.next_below(8));
        }
        break;
      }
      case 1:  // truncate
        block.resize(4 + rng.next_below(block.size() - 4 + 1));
        break;
      default:  // intact
        break;
    }
    expect_same_decode(block, "damaged large", iter);
  }
}

TEST(CompressDifferential, PrefixDecodeIsTheFullDecodesPrefix) {
  SplitMix64 rng(test_support::logged_seed(105));
  for (int iter = 0; iter < 5000; ++iter) {
    Buffer in = random_input(rng, rng.next_below(2000), 1 + rng.next_below(64),
                             rng.chance(0.7));
    Buffer block = lz_compress(in);
    if (rng.chance(0.3)) {  // damage that the full decode may survive
      std::size_t at = 4 + rng.next_below(block.size() - 4 + 1);
      if (at < block.size()) block[at] ^= 0x10;
    }
    auto full = lz_decompress(block);
    if (!full) continue;
    for (std::size_t limit : {std::size_t{0}, std::size_t{1}, std::size_t{4},
                              std::size_t{256}, rng.next_below(2100)}) {
      auto prefix = lz_decompress_prefix(block, limit);
      ASSERT_TRUE(prefix.has_value()) << "iter " << iter << " limit " << limit;
      const std::size_t want = std::min(limit, full->size());
      ASSERT_EQ(*prefix, Buffer(full->begin(),
                                full->begin() + static_cast<std::ptrdiff_t>(want)))
          << "iter " << iter << " limit " << limit;
    }
  }
}

TEST(CompressDifferential, PrefixDecodeIgnoresDamageAfterTheLimit) {
  // 100 distinct bytes, then the same 100 again: one sequence of 100
  // literals and a match at offset 100, then an empty final sequence.
  Buffer in;
  for (int i = 0; i < 200; ++i) in.push_back(static_cast<std::uint8_t>(i % 100));
  Buffer block = lz_compress(in);
  // header 4, token, literal extension byte, 100 literals, then the offset.
  const std::size_t offset_at = 4 + 1 + 1 + 100;
  ASSERT_EQ(block[offset_at], 100);
  ASSERT_EQ(block[offset_at + 1], 0);
  block[offset_at] = 0;  // offset 0 is invalid
  EXPECT_FALSE(lz_decompress(block).has_value());
  EXPECT_FALSE(lz_decompress_prefix(block, 200).has_value());
  EXPECT_FALSE(lz_decompress_prefix(block, 150).has_value());
  auto prefix = lz_decompress_prefix(block, 100);
  ASSERT_TRUE(prefix.has_value());
  EXPECT_EQ(*prefix, Buffer(in.begin(), in.begin() + 100));
}

// Caps this process's address space at `bytes`; for a forked child only.
void cap_address_space(rlim_t bytes) {
  rlimit cap{};
  cap.rlim_cur = cap.rlim_max = bytes;
  if (setrlimit(RLIMIT_AS, &cap) != 0) std::_Exit(2);
}

// Runs in a forked child: caps the address space at 1 GiB and decodes a
// 5-byte block whose header claims 4 GiB.  Reserving the claimed size would
// throw std::bad_alloc; a decoder bounded by the stream returns nullopt.
[[noreturn]] void decode_huge_header_under_address_cap() {
  cap_address_space(rlim_t{1} << 30);
  const Buffer block = {0xff, 0xff, 0xff, 0xff, 0x00};
  const bool rejected = !lz_decompress(block).has_value() &&
                        !lz_decompress_prefix(block, 16).has_value();
  std::_Exit(rejected ? 0 : 1);
}

// Runs in a forked child: a real 4 MiB block whose header claims 255 output
// bytes per stream byte (about 1 GiB), decoded under a 512 MiB cap.  Its
// stream is well formed up to where it ends, far short of the claim, so a
// decoder that sizes its output from the header before reading the stream
// would touch about 1 GiB; one that counts the stream first returns nullopt.
[[noreturn]] void decode_inflated_header_under_address_cap() {
  SplitMix64 rng(7);
  Buffer in(std::size_t{4} << 20);
  for (auto& b : in) b = static_cast<std::uint8_t>(rng.next());
  Buffer block = lz_compress(in);
  const std::uint32_t claim =
      static_cast<std::uint32_t>((block.size() - 4) * 255);
  for (int i = 0; i < 4; ++i) {
    block[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(claim >> (8 * i));
  }
  cap_address_space(rlim_t{512} << 20);
  const bool rejected = !lz_decompress(block).has_value() &&
                        !lz_decompress_prefix(block, claim - 1).has_value();
  std::_Exit(rejected ? 0 : 1);
}

TEST(CompressDeath, HugeHeaderIsRejectedWithoutAllocating) {
#ifdef PSMR_UNDER_SANITIZER
  GTEST_SKIP() << "sanitizers reserve large shadow ranges, so an address "
                  "space limit cannot be applied";
#else
  EXPECT_EXIT(decode_huge_header_under_address_cap(),
              ::testing::ExitedWithCode(0), "");
#endif
}

TEST(CompressDeath, InflatedHeaderIsRejectedWithoutAllocating) {
#ifdef PSMR_UNDER_SANITIZER
  GTEST_SKIP() << "sanitizers reserve large shadow ranges, so an address "
                  "space limit cannot be applied";
#else
  EXPECT_EXIT(decode_inflated_header_under_address_cap(),
              ::testing::ExitedWithCode(0), "");
#endif
}

}  // namespace
}  // namespace psmr::util
