#include "util/compress.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <limits>
#include <memory>

namespace psmr::util {
namespace {

constexpr std::size_t kMinMatch = 4;
constexpr std::size_t kMaxOffset = 65535;
constexpr int kHashBits = 14;
constexpr std::size_t kTableSlots = std::size_t{1} << kHashBits;
// The decoder allocates an output up to this size on the header's word
// alone; a larger one only once the stream has been counted.
constexpr std::size_t kUncheckedOutput = std::size_t{64} << 10;

std::uint32_t load32(const std::uint8_t* p) {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

std::uint64_t load64(const std::uint8_t* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

std::uint32_t hash4(std::uint32_t v) {
  return (v * 2654435761u) >> (32 - kHashBits);
}

/// Number of equal leading bytes (in memory order) given a non-zero XOR of
/// two native-endian 8-byte loads.
unsigned equal_prefix_bytes(std::uint64_t diff) {
  if constexpr (std::endian::native == std::endian::little) {
    return static_cast<unsigned>(std::countr_zero(diff)) / 8;
  } else {
    return static_cast<unsigned>(std::countl_zero(diff)) / 8;
  }
}

/// Extends a match of `len` equal bytes at `a` and `b` while they stay
/// equal, up to `max`; compares eight bytes per step while they last.
std::size_t extend_match(const std::uint8_t* a, const std::uint8_t* b,
                         std::size_t len, std::size_t max) {
  while (len + 8 <= max) {
    const std::uint64_t diff = load64(a + len) ^ load64(b + len);
    if (diff != 0) return len + equal_prefix_bytes(diff);
    len += 8;
  }
  while (len < max && a[len] == b[len]) ++len;
  return len;
}

void put_length(Buffer& out, std::size_t len) {
  // Extension bytes after a nibble value of 15.
  while (len >= 255) {
    out.push_back(255);
    len -= 255;
  }
  out.push_back(static_cast<std::uint8_t>(len));
}

/// The match table, owned by one thread and reused by every call on it.  A
/// call stores position p as base + p, and each call's base is past every
/// value an earlier call stored, so a slot below the base reads as empty and
/// no call clears the table.  Bases grow by each call's input size; the
/// table is cleared only when the next base would pass 32 bits, once per
/// 4 GiB of input on a thread.  A single input that large wraps its stored
/// positions; a wrapped candidate is still an earlier position, so memory
/// stays safe and any match it gives is real, though the 32-bit size header
/// cannot describe such an input anyway.
class MatchTable {
 public:
  /// The calling thread's table, set up for an input of `n` bytes.
  static MatchTable& begin_call(std::size_t n) {
    thread_local MatchTable table;
    if (n > kMaxSlot - table.next_base_) {
      std::fill_n(table.slots_.get(), kTableSlots, 0u);
      table.next_base_ = 1;  // 0 is an empty slot
    }
    table.base_ = table.next_base_;
    table.next_base_ += static_cast<std::uint32_t>(
        std::min<std::size_t>(n, kMaxSlot - table.base_));
    return table;
  }

  /// Stores `pos` in slot `h`; returns the position it held in this call,
  /// or -1 if it held none.
  std::int64_t exchange(std::uint32_t h, std::size_t pos) {
    const std::uint32_t old = slots_[h];
    put(h, pos);
    return old >= base_ ? static_cast<std::int64_t>(old - base_) : -1;
  }
  void put(std::uint32_t h, std::size_t pos) {
    slots_[h] = base_ + static_cast<std::uint32_t>(pos);
  }

 private:
  static constexpr std::uint32_t kMaxSlot = 0xffffffffu;

  MatchTable() : slots_(std::make_unique<std::uint32_t[]>(kTableSlots)) {}

  std::unique_ptr<std::uint32_t[]> slots_;
  std::uint32_t base_ = 1;
  std::uint32_t next_base_ = 1;
};

void compress_into(Buffer& out, std::span<const std::uint8_t> input,
                   MatchTable& table) {
  const std::uint8_t* base = input.data();
  const std::size_t n = input.size();
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
    std::int64_t cand = table.exchange(hash4(load32(base + pos)), pos);
    if (cand >= 0 &&
        pos - static_cast<std::size_t>(cand) <= kMaxOffset &&
        load32(base + cand) == load32(base + pos)) {
      std::size_t match_len =
          extend_match(base + cand, base + pos, kMinMatch, n - pos);
      std::size_t offset = pos - static_cast<std::size_t>(cand);
      emit(match_len, offset);
      // Index a couple of positions inside the match to keep ratio decent.
      for (std::size_t i = 1; i < match_len && pos + i + kMinMatch <= n;
           i += 2) {
        table.put(hash4(load32(base + pos + i)), pos + i);
      }
      pos += match_len;
      literal_start = pos;
    } else {
      ++pos;
    }
  }
  pos = n;
  emit(0, 0);  // trailing literals-only sequence
}

/// Walks the sequences of a block's stream (`in`, `n` bytes, header
/// included) until `end` output bytes exist, making every check of the
/// format against the header's `raw`; returns false if the block is
/// malformed.  With kCopy it also writes the output to `dst`, which holds
/// `end` bytes.  With end == raw this is the full decode; below that it
/// stops once `end` bytes exist.
template <bool kCopy>
bool run_sequences(const std::uint8_t* in, std::size_t n, std::size_t raw,
                   std::size_t end, std::uint8_t* dst) {
  std::size_t done = 0;  // output bytes produced
  std::size_t pos = 4;

  auto read_ext = [&](std::size_t& len) -> bool {
    while (true) {
      if (pos >= n) return false;
      std::uint8_t b = in[pos++];
      len += b;
      if (b != 255) return true;
    }
  };

  while (done < end) {
    if (pos >= n) return false;
    std::uint8_t token = in[pos++];
    std::size_t lit_len = token >> 4;
    if (lit_len == 15 && !read_ext(lit_len)) return false;
    if (pos + lit_len > n) return false;
    if (done + lit_len >= end) {
      // The literals reach the end of the output: a full decode must land
      // exactly on raw (the final literals-only sequence).
      if (end == raw && done + lit_len != raw) return false;
      if constexpr (kCopy) std::memcpy(dst + done, in + pos, end - done);
      return true;
    }
    if constexpr (kCopy) std::memcpy(dst + done, in + pos, lit_len);
    done += lit_len;
    pos += lit_len;

    if (pos + 2 > n) return false;
    std::size_t offset = in[pos] | (static_cast<std::size_t>(in[pos + 1]) << 8);
    pos += 2;
    if (offset == 0 || offset > done) return false;
    std::size_t match_len = (token & 0xf);
    if (match_len == 15 && !read_ext(match_len)) return false;
    match_len += kMinMatch;
    if (done + match_len > raw) return false;
    const std::size_t copy = std::min(match_len, end - done);
    if constexpr (kCopy) {
      const std::uint8_t* src = dst + done - offset;
      if (offset >= copy) {
        std::memcpy(dst + done, src, copy);
      } else {
        // Overlapping match (offset < length): each byte may be one this
        // match just wrote, so copy forward one byte at a time.
        for (std::size_t i = 0; i < copy; ++i) dst[done + i] = src[i];
      }
    }
    done += copy;
  }
  return true;
}

/// Decodes the first min(limit, raw) bytes of `block`.
std::optional<Buffer> decode(std::span<const std::uint8_t> block,
                             std::size_t limit) {
  if (block.size() < 4) return std::nullopt;
  std::uint32_t raw = 0;
  for (int i = 0; i < 4; ++i) {
    raw |= static_cast<std::uint32_t>(block[static_cast<std::size_t>(i)])
           << (8 * i);
  }
  const std::size_t end = std::min<std::size_t>(raw, limit);
  // An output larger than kUncheckedOutput is allocated only after a
  // counting pass, which copies nothing, shows that the stream produces all
  // of it: a header's claim alone never makes a replica touch more memory
  // than that.
  if (end > kUncheckedOutput &&
      !run_sequences<false>(block.data(), block.size(), raw, end, nullptr)) {
    return std::nullopt;
  }
  Buffer out(end);
  if (!run_sequences<true>(block.data(), block.size(), raw, end, out.data())) {
    return std::nullopt;
  }
  return out;
}

}  // namespace

Buffer lz_compress(std::span<const std::uint8_t> input) {
  const std::size_t n = input.size();
  Buffer out;
  // The format's worst case (all literals) is n + n/255 + 6 bytes.
  out.reserve(n + n / 255 + 16);
  // Header: raw size, little endian.
  std::uint32_t raw = static_cast<std::uint32_t>(n);
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>(raw >> (8 * i)));
  }
  compress_into(out, input, MatchTable::begin_call(n));
  return out;
}

std::optional<Buffer> lz_decompress(std::span<const std::uint8_t> block) {
  return decode(block, std::numeric_limits<std::size_t>::max());
}

std::optional<Buffer> lz_decompress_prefix(std::span<const std::uint8_t> block,
                                           std::size_t limit) {
  return decode(block, limit);
}

}  // namespace psmr::util
