// Zero-copy pooled message buffers.
//
// Every hop of the submit/decide hot path used to copy message bodies
// through freshly heap-allocated util::Buffer vectors.  This header replaces
// that with the packet-pool-with-refcounts idiom used by line-rate
// multicast stacks (IRON and kin):
//
//   * BufferPool — a thread-safe, size-classed pool of byte blocks.  Each
//     block carries an intrusive header {atomic refcount, capacity, origin
//     pool}; acquire() pops a free block of the smallest fitting class (or
//     heap-allocates on a miss / oversize request), and the last release
//     recycles the block into its class's bounded free list.
//   * PooledBuf — the owning handle.  Copying bumps the refcount; the block
//     is recycled when the last handle drops.  Fan-out (multicast to N ring
//     nodes, kPaxosDecide to every learner) therefore shares one block
//     instead of cloning N times.
//   * Payload — the cheap value type transport::Message carries: a
//     {PooledBuf owner, bytes view} pair.  It converts implicitly from
//     util::Buffer (the bytes are copied into a pooled block once, at the
//     boundary) and to std::span<const uint8_t> (so util::Reader keeps
//     working unchanged), and subview() carves zero-copy slices — a decoded
//     batch's commands all share the decide block they arrived in.
//   * PayloadWriter — util::Writer's pooled twin: encodes straight into a
//     pooled block so the hot path never touches the global heap once the
//     pool is warm.
//
// Per-thread magazines (Bonwick and Adams, "Magazines and Vmem", USENIX ATC
// 2001) sit in front of the shared free lists: every thread that touches a
// pool gets a small LIFO cache per size class, and acquire() and the last
// release() use it without a lock.  The pool's mutex is taken only to
// refill an empty magazine or spill a full one, half a magazine at a time,
// so a message's blocks cross no process-wide lock on the hot path.  A
// thread's magazines go back to the shared lists when the thread exits, and
// a pool frees the magazines of live threads when it is destroyed.  The
// counters behind stats() are per thread too, summed on read.
//
// Wire formats are unchanged: PayloadWriter emits exactly the little-endian
// encoding of util::Writer.
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <mutex>
#include <span>
#include <string_view>
#include <vector>

#include "util/bytes.h"

namespace psmr::util {

class BufferPool;

/// Pool counters, readable while the pool runs.  `outstanding` is the
/// number of live blocks (acquired and not yet fully released), exact
/// whichever threads acquired and released them; everything else is
/// cumulative.
struct PoolStats {
  std::uint64_t hits = 0;      ///< acquire() served from a magazine or list
  std::uint64_t misses = 0;    ///< acquire() heap-allocated (cold class)
  std::uint64_t oversize = 0;  ///< acquire() larger than the largest class
  std::uint64_t recycled = 0;  ///< releases kept in a magazine or free list
  std::uint64_t dropped = 0;   ///< blocks freed because the list was full
  std::int64_t outstanding = 0;
};

namespace detail {

struct Magazine;

/// Intrusive block header, co-allocated immediately before the data bytes.
/// sizeof == 16, so data starts 16-aligned.
struct BlockHeader {
  std::atomic<std::uint32_t> refs;
  std::uint32_t capacity;
  BufferPool* pool;  ///< owning pool; nullptr for a pool-less heap block

  std::uint8_t* data() { return reinterpret_cast<std::uint8_t*>(this + 1); }
  [[nodiscard]] const std::uint8_t* data() const {
    return reinterpret_cast<const std::uint8_t*>(this + 1);
  }
};
static_assert(sizeof(BlockHeader) % 16 == 0, "data must stay 16-aligned");

}  // namespace detail

/// Owning handle to one ref-counted pool block.  Copy shares (refcount
/// bump); the last handle to drop recycles the block into its pool.
/// Thread-safe in the shared-immutable sense: concurrent copies/releases of
/// handles to the same block are fine; concurrent writes to the block bytes
/// are the caller's problem (the hot path writes once, before sharing).
class PooledBuf {
 public:
  PooledBuf() = default;
  PooledBuf(const PooledBuf& o) : hdr_(o.hdr_) { retain(); }
  PooledBuf(PooledBuf&& o) noexcept : hdr_(o.hdr_) { o.hdr_ = nullptr; }
  PooledBuf& operator=(const PooledBuf& o) {
    if (this != &o) {
      release();
      hdr_ = o.hdr_;
      retain();
    }
    return *this;
  }
  PooledBuf& operator=(PooledBuf&& o) noexcept {
    if (this != &o) {
      release();
      hdr_ = o.hdr_;
      o.hdr_ = nullptr;
    }
    return *this;
  }
  ~PooledBuf() { release(); }

  explicit operator bool() const { return hdr_ != nullptr; }

  std::uint8_t* data() { return hdr_ ? hdr_->data() : nullptr; }
  [[nodiscard]] const std::uint8_t* data() const {
    return hdr_ ? hdr_->data() : nullptr;
  }
  [[nodiscard]] std::size_t capacity() const {
    return hdr_ ? hdr_->capacity : 0;
  }
  /// Current share count (test/debug observability; racy by nature).
  [[nodiscard]] std::uint32_t ref_count() const {
    return hdr_ ? hdr_->refs.load(std::memory_order_relaxed) : 0;
  }

  void reset() {
    release();
    hdr_ = nullptr;
  }

 private:
  friend class BufferPool;
  explicit PooledBuf(detail::BlockHeader* hdr) : hdr_(hdr) {}

  void retain() {
    if (hdr_ != nullptr) {
      hdr_->refs.fetch_add(1, std::memory_order_relaxed);
    }
  }
  void release();

  detail::BlockHeader* hdr_ = nullptr;
};

/// Thread-safe, size-classed pool of ref-counted byte blocks.
///
/// Shared free lists are bounded (`max_free_per_class` blocks retained per
/// class); beyond that, released blocks go back to the heap, and requests
/// larger than the largest class always heap-allocate (`oversize`) and free
/// on release.  Each thread's magazine holds at most kMagazineSlots more
/// per class.  The pool must outlive every block it handed out; the
/// process-wide global() pool is intentionally never destroyed so handles
/// in static-storage objects stay safe during shutdown.
class BufferPool {
 public:
  struct Options {
    /// Blocks retained per size class before releases fall through to the
    /// heap.  Sized for a deployment's steady state: every in-flight
    /// message, pending batch and spool block of a full P-SMR cluster.
    std::size_t max_free_per_class = 256;
  };

  /// Size classes, smallest to largest.  Chosen around the repo's wire
  /// traffic: small control messages, single commands, sealed batches
  /// (RingConfig::max_batch_bytes = 8K) and coalesced frames (48K response
  /// spools), with headroom.
  static constexpr std::size_t kClasses[] = {64, 256, 1024, 4096,
                                             16384, 65536};
  static constexpr std::size_t kNumClasses =
      sizeof(kClasses) / sizeof(kClasses[0]);

  /// Blocks of one class a thread's magazine holds at most: 128 KiB worth,
  /// clamped to [4, kMagazineSlots], and never more than a quarter of
  /// `max_free_per_class` (so a pool bounded to fewer than 4 free blocks
  /// per class keeps no magazine and every release meets the shared list).
  static constexpr std::size_t kMagazineSlots = 32;

  BufferPool();
  explicit BufferPool(Options opt);
  /// Frees the shared free lists and every live thread's magazine.  No
  /// thread may use the pool concurrently.
  ~BufferPool();

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Returns a block with capacity >= min_capacity (possibly rounded up to
  /// the class size), refcount 1.  Never fails: pool misses and oversize
  /// requests fall back to the heap.
  PooledBuf acquire(std::size_t min_capacity);

  [[nodiscard]] PoolStats stats() const;

  /// Frees every block retained in the shared free lists and in the calling
  /// thread's magazine (outstanding blocks, and other threads' magazines,
  /// are untouched).  Test hook for exhaustion / leak accounting.
  void trim();

  /// The process-wide default pool (never destroyed).
  static BufferPool& global();

 private:
  friend class PooledBuf;
  friend struct detail::Magazine;

  /// Index of the smallest class >= n, or kNumClasses when oversize.
  static std::size_t class_for(std::size_t n);
  static detail::BlockHeader* heap_block(std::size_t capacity,
                                         BufferPool* pool);

  void release_block(detail::BlockHeader* hdr);

  /// The calling thread's magazine for this pool, created on first use;
  /// nullptr once the thread's magazines are gone (static and thread_local
  /// destructors running at thread exit), which then uses the shared lists.
  detail::Magazine* magazine();
  detail::Magazine* attach();
  /// The calling thread's magazine for this pool, if it has one.
  [[nodiscard]] detail::Magazine* find_magazine() const;
  /// A magazine's thread exits: its blocks join the shared lists (what they
  /// cannot hold is freed) and its counters fold into shared_counts_.
  void detach(detail::Magazine* m);
  /// Keeps `hdr` in class `c`'s shared list, or frees it (false) when the
  /// list is full.  Caller holds mu_.
  bool put_shared_locked(std::size_t c, detail::BlockHeader* hdr);
  /// Adds `n` to counter `k` of `m`, or of shared_counts_ (caller holds
  /// mu_) when the thread has no magazine.
  void tally(detail::Magazine* m, std::size_t k, std::uint64_t n = 1);

  const Options opt_;
  const std::uint64_t id_;  // never reused: tags this pool's magazines
  std::size_t mag_cap_[kNumClasses];  // per class, see kMagazineSlots
  mutable std::mutex mu_;
  std::vector<detail::BlockHeader*> free_[kNumClasses];
  std::vector<detail::Magazine*> mags_;  // live threads' magazines
  // Counts of exited threads and of threads without a magazine, indexed
  // like detail::Magazine::counts.
  static constexpr std::size_t kCounters = 6;
  std::uint64_t shared_counts_[kCounters] = {};
};

/// The value type transport::Message carries: a read-only byte view plus a
/// shared owner of the underlying pool block.  Copy = refcount bump.
class Payload {
 public:
  Payload() = default;

  /// Adopts a view over an owned block.  `data` must point into the block.
  Payload(PooledBuf owner, const std::uint8_t* data, std::size_t size)
      : owner_(std::move(owner)), data_(data), size_(size) {}

  /// Copies `b` into a pooled block (one copy, at the Buffer boundary).
  /// Implicit so the many `send(..., writer.take())` call sites keep
  /// compiling unchanged.
  Payload(const Buffer& b);  // NOLINT(google-explicit-constructor)
  Payload(Buffer&& b) : Payload(static_cast<const Buffer&>(b)) {}  // NOLINT

  /// Implicit view conversion so `util::Reader r(msg.payload)` keeps
  /// working unchanged.
  operator std::span<const std::uint8_t>() const {  // NOLINT
    return {data_, size_};
  }
  [[nodiscard]] std::span<const std::uint8_t> view() const {
    return {data_, size_};
  }

  [[nodiscard]] const std::uint8_t* data() const { return data_; }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  std::uint8_t operator[](std::size_t i) const {
    assert(i < size_);
    return data_[i];
  }
  [[nodiscard]] const std::uint8_t* begin() const { return data_; }
  [[nodiscard]] const std::uint8_t* end() const { return data_ + size_; }

  /// Byte-wise equality (content, not block identity).
  friend bool operator==(const Payload& a, const Payload& b) {
    return a.size_ == b.size_ &&
           (a.size_ == 0 || std::memcmp(a.data_, b.data_, a.size_) == 0);
  }
  friend bool operator==(const Payload& a, const Buffer& b) {
    return a.size_ == b.size() &&
           (b.empty() || std::memcmp(a.data_, b.data(), b.size()) == 0);
  }

  /// Zero-copy slice sharing this payload's block.
  [[nodiscard]] Payload subview(std::size_t offset, std::size_t len) const {
    assert(offset + len <= size_);
    return Payload(owner_, data_ + offset, len);
  }
  /// Zero-copy slice over a span previously handed out by a Reader over
  /// this payload (Reader::bytes_view / raw).  `s` must lie within view().
  [[nodiscard]] Payload subview_of(std::span<const std::uint8_t> s) const {
    assert(s.data() >= data_ && s.data() + s.size() <= data_ + size_);
    return Payload(owner_, s.data(), s.size());
  }

  /// Share count of the underlying block (0 when unpooled/empty).
  [[nodiscard]] std::uint32_t ref_count() const { return owner_.ref_count(); }

  /// Copies the bytes out into a plain Buffer (cold paths only).
  [[nodiscard]] Buffer to_buffer() const {
    return Buffer(data_, data_ + size_);
  }

 private:
  PooledBuf owner_;
  const std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
};

/// util::Writer's pooled twin: appends straight into a pool block and hands
/// the result out as a Payload without any copy.  Emits byte-for-byte the
/// same little-endian encoding as util::Writer.  Grows (acquire bigger,
/// memcpy, release) if the initial capacity guess was short, so callers may
/// size optimistically.
class PayloadWriter {
 public:
  /// A writer without a block; the first write acquires one.
  PayloadWriter() : pool_(&BufferPool::global()) {}
  explicit PayloadWriter(std::size_t capacity,
                         BufferPool& pool = BufferPool::global())
      : pool_(&pool), buf_(pool.acquire(capacity)) {}

  void u8(std::uint8_t v) {
    ensure(1);
    buf_.data()[size_++] = v;
  }
  void u16(std::uint16_t v) { append_le(v); }
  void u32(std::uint32_t v) { append_le(v); }
  void u64(std::uint64_t v) { append_le(v); }
  void i64(std::int64_t v) { append_le(static_cast<std::uint64_t>(v)); }
  void boolean(bool v) { u8(v ? 1 : 0); }

  /// Length-prefixed (u32) byte blob.
  void bytes(std::span<const std::uint8_t> data) {
    u32(static_cast<std::uint32_t>(data.size()));
    raw(data);
  }
  /// Length-prefixed (u32) string.
  void str(std::string_view s) {
    u32(static_cast<std::uint32_t>(s.size()));
    raw({reinterpret_cast<const std::uint8_t*>(s.data()), s.size()});
  }
  /// Appends bytes verbatim with no length prefix.
  void raw(std::span<const std::uint8_t> data) {
    if (data.empty()) return;  // an empty span's data() may be null
    ensure(data.size());
    std::memcpy(buf_.data() + size_, data.data(), data.size());
    size_ += data.size();
  }

  /// Overwrites a previously written u32 in place (e.g. a frame's entry
  /// count, patched when a frame spool closes the frame).
  void patch_u32(std::size_t offset, std::uint32_t v) {
    assert(offset + 4 <= size_);
    std::uint8_t* p = buf_.data() + offset;
    for (std::size_t i = 0; i < 4; ++i) {
      p[i] = static_cast<std::uint8_t>(v >> (8 * i));
    }
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::span<const std::uint8_t> view() const {
    return {buf_.data(), size_};
  }

  /// Moves the accumulated bytes out as a Payload; the writer is empty (and
  /// block-less) afterwards.
  Payload take() {
    const std::uint8_t* base = buf_.data();
    std::size_t n = size_;
    size_ = 0;
    return Payload(std::move(buf_), base, n);
  }

 private:
  void ensure(std::size_t n) {
    if (size_ + n > buf_.capacity()) {
      grow(size_ + n);
    }
  }
  void grow(std::size_t need);

  template <typename T>
  void append_le(T v) {
    ensure(sizeof(T));
    std::uint8_t* p = buf_.data() + size_;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      p[i] = static_cast<std::uint8_t>(v >> (8 * i));
    }
    size_ += sizeof(T);
  }

  BufferPool* pool_;
  PooledBuf buf_;
  std::size_t size_ = 0;
};

}  // namespace psmr::util
