// Byte-buffer serialization primitives used by every wire format in the
// repository (Paxos messages, multicast batches, SMR commands, service
// payloads).  The encoding is little-endian, fixed-width for integers, and
// length-prefixed for strings/blobs; it is not self-describing — reader and
// writer must agree on the schema, exactly like the paper's marshaled
// command parameters (Section III).
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace psmr::util {

/// Growable byte buffer.  Alias so all modules share one spelling.
using Buffer = std::vector<std::uint8_t>;

/// Serializes scalar values, strings and nested blobs into a Buffer.
///
/// Writer never throws on append (it grows the underlying vector); the
/// resulting bytes are read back with Reader.
class Writer {
 public:
  Writer() = default;
  /// Wraps an existing buffer; appended bytes follow its current content.
  explicit Writer(Buffer buf) : buf_(std::move(buf)) {}

  void u8(std::uint8_t v) { buf_.push_back(v); }

  void u16(std::uint16_t v) { append_le(v); }
  void u32(std::uint32_t v) { append_le(v); }
  void u64(std::uint64_t v) { append_le(v); }
  void i64(std::int64_t v) { append_le(static_cast<std::uint64_t>(v)); }
  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    append_le(bits);
  }
  void boolean(bool v) { u8(v ? 1 : 0); }

  /// Length-prefixed (u32) byte blob.
  void bytes(std::span<const std::uint8_t> data) {
    u32(static_cast<std::uint32_t>(data.size()));
    raw(data);
  }
  /// Length-prefixed (u32) string.
  void str(std::string_view s) {
    u32(static_cast<std::uint32_t>(s.size()));
    buf_.insert(buf_.end(), s.begin(), s.end());
  }
  /// Appends bytes verbatim with no length prefix.
  void raw(std::span<const std::uint8_t> data) {
    buf_.insert(buf_.end(), data.begin(), data.end());
  }

  /// Makes room for `extra` more bytes, so appending them never reallocates.
  void reserve(std::size_t extra) { buf_.reserve(buf_.size() + extra); }

  [[nodiscard]] std::size_t size() const { return buf_.size(); }
  [[nodiscard]] const Buffer& view() const { return buf_; }
  /// Moves the accumulated bytes out; the Writer is empty afterwards.
  Buffer take() { return std::move(buf_); }

 private:
  template <typename T>
  void append_le(T v) {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }

  Buffer buf_;
};

/// Thrown by Reader when the buffer is shorter than the schema expects.
class DecodeError : public std::runtime_error {
 public:
  explicit DecodeError(const std::string& what) : std::runtime_error(what) {}
};

/// Reads values written by Writer, in the same order.
class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> data) : data_(data) {}
  explicit Reader(const Buffer& buf) : data_(buf) {}

  std::uint8_t u8() {
    need(1);
    return data_[pos_++];
  }
  std::uint16_t u16() { return read_le<std::uint16_t>(); }
  std::uint32_t u32() { return read_le<std::uint32_t>(); }
  std::uint64_t u64() { return read_le<std::uint64_t>(); }
  std::int64_t i64() { return static_cast<std::int64_t>(read_le<std::uint64_t>()); }
  double f64() {
    std::uint64_t bits = read_le<std::uint64_t>();
    double v;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }
  bool boolean() { return u8() != 0; }

  /// Reads a length-prefixed blob written by Writer::bytes.
  Buffer bytes() {
    std::uint32_t n = u32();
    need(n);
    Buffer out(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
               data_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
    pos_ += n;
    return out;
  }
  /// Zero-copy view of a length-prefixed blob; valid while the source lives.
  std::span<const std::uint8_t> bytes_view() {
    std::uint32_t n = u32();
    need(n);
    auto out = data_.subspan(pos_, n);
    pos_ += n;
    return out;
  }
  std::string str() {
    std::uint32_t n = u32();
    need(n);
    std::string out(reinterpret_cast<const char*>(data_.data() + pos_), n);
    pos_ += n;
    return out;
  }
  /// Reads `n` raw bytes (no length prefix).
  std::span<const std::uint8_t> raw(std::size_t n) {
    need(n);
    auto out = data_.subspan(pos_, n);
    pos_ += n;
    return out;
  }

  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }
  [[nodiscard]] bool done() const { return remaining() == 0; }

 private:
  void need(std::size_t n) const {
    if (pos_ + n > data_.size()) {
      throw DecodeError("buffer underflow: need " + std::to_string(n) +
                        " bytes, have " + std::to_string(data_.size() - pos_));
    }
  }
  template <typename T>
  T read_le() {
    need(sizeof(T));
    T v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v |= static_cast<T>(static_cast<T>(data_[pos_ + i]) << (8 * i));
    }
    pos_ += sizeof(T);
    return v;
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

}  // namespace psmr::util
