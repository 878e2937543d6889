#include "util/buffer_pool.h"

#include <algorithm>
#include <iterator>
#include <new>

#include "util/sync.h"

namespace psmr::util {

void PooledBuf::release() {
  if (hdr_ == nullptr) {
    return;
  }
  if (hdr_->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    if (hdr_->pool != nullptr) {
      hdr_->pool->release_block(hdr_);
    } else {
      ::operator delete(hdr_);
    }
  }
  hdr_ = nullptr;
}

namespace {

// Counter indices of Magazine::counts and BufferPool::shared_counts_.
enum Count : std::size_t {
  kHits,
  kMisses,
  kOversize,
  kRecycled,
  kDropped,
  kReleased,
  kNumCounts,
};

}  // namespace

namespace detail {

/// One thread's cache of one pool's free blocks: a LIFO stack per size
/// class, used without a lock by its thread.  The counters are written by
/// that thread only and summed by stats() under the pool's mutex, which
/// also guards the pool's list of magazines.
struct Magazine {
  Magazine(BufferPool* p, std::uint64_t id) : pool(p), pool_id(id) {}

  /// Guarded by g_attach_mu; nullptr once the pool is destroyed.
  BufferPool* pool;
  const std::uint64_t pool_id;
  std::size_t count[BufferPool::kNumClasses] = {};
  BlockHeader* blocks[BufferPool::kNumClasses][BufferPool::kMagazineSlots];
  RelaxedCounter counts[BufferPool::kCounters];
  static_assert(kNumCounts == BufferPool::kCounters);

  /// Its thread exits.  Caller holds g_attach_mu.
  void retire() {
    if (pool != nullptr) pool->detach(this);
  }

  /// Returns every cached block to the heap.
  void free_blocks() {
    for (std::size_t c = 0; c < BufferPool::kNumClasses; ++c) {
      for (std::size_t i = 0; i < count[c]; ++i) {
        ::operator delete(blocks[c][i]);
      }
      count[c] = 0;
    }
  }
};

}  // namespace detail

namespace {

// Orders a thread's exit (detach) against its pools' destruction, and
// guards Magazine::pool.  Taken before a pool's mutex; never on the hot
// path.
std::mutex g_attach_mu;

/// This thread's magazines, one per pool it used.  Its destructor, at
/// thread exit, returns them to their pools.
struct ThreadMagazines {
  std::vector<detail::Magazine*> all;
  ~ThreadMagazines();
};

// The magazine last used (the hot path's only lookup), and whether this
// thread's ThreadMagazines is gone.  Both trivially destructible, so they
// stay usable while other thread_local destructors release blocks.
thread_local detail::Magazine* tl_last = nullptr;
thread_local bool tl_exited = false;
thread_local ThreadMagazines tl_magazines;

ThreadMagazines::~ThreadMagazines() {
  tl_last = nullptr;
  tl_exited = true;
  std::lock_guard attach(g_attach_mu);
  for (detail::Magazine* m : all) {
    m->retire();
    delete m;
  }
}

std::atomic<std::uint64_t> g_next_pool_id{1};

}  // namespace

BufferPool::BufferPool() : BufferPool(Options{}) {}

BufferPool::BufferPool(Options opt)
    : opt_(opt), id_(g_next_pool_id.fetch_add(1, std::memory_order_relaxed)) {
  constexpr std::size_t kMagazineBytes = 128 * 1024;
  for (std::size_t c = 0; c < kNumClasses; ++c) {
    mag_cap_[c] = std::min(
        std::clamp<std::size_t>(kMagazineBytes / kClasses[c], 4,
                                kMagazineSlots),
        opt_.max_free_per_class / 4);
  }
}

BufferPool::~BufferPool() {
  std::lock_guard attach(g_attach_mu);
  std::lock_guard lock(mu_);
  // Live threads keep the magazine shells (freed at their exit, or when
  // they next attach to a pool); the blocks go now.
  for (detail::Magazine* m : mags_) {
    m->free_blocks();
    m->pool = nullptr;
  }
  for (auto& list : free_) {
    for (detail::BlockHeader* hdr : list) ::operator delete(hdr);
  }
}

std::size_t BufferPool::class_for(std::size_t n) {
  for (std::size_t c = 0; c < kNumClasses; ++c) {
    if (n <= kClasses[c]) {
      return c;
    }
  }
  return kNumClasses;
}

detail::BlockHeader* BufferPool::heap_block(std::size_t capacity,
                                            BufferPool* pool) {
  void* mem = ::operator new(sizeof(detail::BlockHeader) + capacity);
  auto* hdr = new (mem) detail::BlockHeader{
      {1}, static_cast<std::uint32_t>(capacity), pool};
  return hdr;
}

detail::Magazine* BufferPool::magazine() {
  detail::Magazine* m = tl_last;
  if (m != nullptr && m->pool_id == id_) return m;
  return attach();
}

detail::Magazine* BufferPool::find_magazine() const {
  if (tl_exited) return nullptr;
  for (detail::Magazine* m : tl_magazines.all) {
    if (m->pool_id == id_) return m;
  }
  return nullptr;
}

detail::Magazine* BufferPool::attach() {
  if (detail::Magazine* m = find_magazine()) return tl_last = m;
  if (tl_exited) return nullptr;
  auto& mine = tl_magazines.all;
  {
    // Drop the shells of destroyed pools' magazines while here.
    std::lock_guard attach(g_attach_mu);
    std::erase_if(mine, [](detail::Magazine* m) {
      if (m->pool != nullptr) return false;
      delete m;
      return true;
    });
  }
  auto* m = new detail::Magazine(this, id_);
  {
    std::lock_guard lock(mu_);
    mags_.push_back(m);
  }
  mine.push_back(m);
  return tl_last = m;
}

void BufferPool::detach(detail::Magazine* m) {
  std::lock_guard lock(mu_);
  for (std::size_t c = 0; c < kNumClasses; ++c) {
    for (std::size_t i = 0; i < m->count[c]; ++i) {
      if (!put_shared_locked(c, m->blocks[c][i])) ++shared_counts_[kDropped];
    }
    m->count[c] = 0;
  }
  for (std::size_t k = 0; k < kCounters; ++k) {
    shared_counts_[k] += m->counts[k].get();
  }
  std::erase(mags_, m);
}

void BufferPool::tally(detail::Magazine* m, std::size_t k, std::uint64_t n) {
  if (m == nullptr) {
    shared_counts_[k] += n;
  } else {
    m->counts[k].add(n);
  }
}

bool BufferPool::put_shared_locked(std::size_t c, detail::BlockHeader* hdr) {
  if (free_[c].size() < opt_.max_free_per_class) {
    free_[c].push_back(hdr);
    return true;
  }
  ::operator delete(hdr);
  return false;
}

PooledBuf BufferPool::acquire(std::size_t min_capacity) {
  const std::size_t c = class_for(min_capacity);
  detail::Magazine* m = magazine();
  if (c == kNumClasses) {
    // Oversize: a plain heap block, never recycled.  Still pool-tagged so
    // release_block can account for it.
    if (m != nullptr) {
      tally(m, kOversize);
    } else {
      std::lock_guard lock(mu_);
      tally(nullptr, kOversize);
    }
    return PooledBuf(heap_block(min_capacity, this));
  }
  detail::BlockHeader* hdr = nullptr;
  if (m != nullptr && m->count[c] > 0) {
    hdr = m->blocks[c][--m->count[c]];
    tally(m, kHits);
  } else {
    std::lock_guard lock(mu_);
    auto& shared = free_[c];
    if (shared.empty()) {
      tally(m, kMisses);
    } else {
      hdr = shared.back();
      shared.pop_back();
      tally(m, kHits);
      // Refill half the magazine, so the next acquires take no lock.
      if (m != nullptr) {
        const std::size_t n = std::min(mag_cap_[c] / 2, shared.size());
        std::copy(shared.end() - static_cast<std::ptrdiff_t>(n), shared.end(),
                  m->blocks[c]);
        shared.resize(shared.size() - n);
        m->count[c] = n;
      }
    }
  }
  if (hdr == nullptr) return PooledBuf(heap_block(kClasses[c], this));
  hdr->refs.store(1, std::memory_order_relaxed);
  return PooledBuf(hdr);
}

void BufferPool::release_block(detail::BlockHeader* hdr) {
  const std::size_t c = class_for(hdr->capacity);
  const bool pooled = c < kNumClasses && kClasses[c] == hdr->capacity;
  detail::Magazine* m = magazine();
  if (m != nullptr) {
    tally(m, kReleased);
    if (!pooled) {
      // Oversize blocks (capacity above the largest class) just go back to
      // the heap; they were never pool candidates.
      ::operator delete(hdr);
      return;
    }
    if (m->count[c] < mag_cap_[c]) {
      m->blocks[c][m->count[c]++] = hdr;
      tally(m, kRecycled);
      return;
    }
  }
  std::lock_guard lock(mu_);
  if (m == nullptr) {
    tally(nullptr, kReleased);
    if (!pooled) {
      ::operator delete(hdr);
      return;
    }
  } else if (mag_cap_[c] > 0) {
    // Full magazine: spill its older (colder) half to the shared list and
    // keep this block.
    std::size_t& n = m->count[c];
    const std::size_t spill = n - mag_cap_[c] / 2;
    for (std::size_t i = 0; i < spill; ++i) {
      if (!put_shared_locked(c, m->blocks[c][i])) tally(m, kDropped);
    }
    std::copy(m->blocks[c] + spill, m->blocks[c] + n, m->blocks[c]);
    n -= spill;
    m->blocks[c][n++] = hdr;
    tally(m, kRecycled);
    return;
  }
  // No magazine for this class or thread: the shared list directly.
  tally(m, put_shared_locked(c, hdr) ? kRecycled : kDropped);
}

PoolStats BufferPool::stats() const {
  std::uint64_t sum[kCounters];
  {
    std::lock_guard lock(mu_);
    std::copy(std::begin(shared_counts_), std::end(shared_counts_), sum);
    for (const detail::Magazine* m : mags_) {
      for (std::size_t k = 0; k < kCounters; ++k) {
        sum[k] += m->counts[k].get();
      }
    }
  }
  PoolStats s;
  s.hits = sum[kHits];
  s.misses = sum[kMisses];
  s.oversize = sum[kOversize];
  s.recycled = sum[kRecycled];
  s.dropped = sum[kDropped];
  s.outstanding = static_cast<std::int64_t>(s.hits + s.misses + s.oversize) -
                  static_cast<std::int64_t>(sum[kReleased]);
  return s;
}

void BufferPool::trim() {
  if (detail::Magazine* m = find_magazine()) m->free_blocks();
  std::lock_guard lock(mu_);
  for (auto& list : free_) {
    for (detail::BlockHeader* hdr : list) {
      ::operator delete(hdr);
    }
    list.clear();
  }
}

BufferPool& BufferPool::global() {
  // Intentionally leaked: handles held by static-storage objects must stay
  // releasable during process shutdown, in any destruction order.
  static BufferPool* pool = new BufferPool();
  return *pool;
}

Payload::Payload(const Buffer& b) {
  if (b.empty()) {
    return;
  }
  PooledBuf buf = BufferPool::global().acquire(b.size());
  std::memcpy(buf.data(), b.data(), b.size());
  data_ = buf.data();
  size_ = b.size();
  owner_ = std::move(buf);
}

void PayloadWriter::grow(std::size_t need) {
  std::size_t cap = buf_.capacity() == 0 ? 64 : buf_.capacity();
  while (cap < need) {
    cap *= 2;
  }
  PooledBuf bigger = pool_->acquire(cap);
  if (size_ > 0) {
    std::memcpy(bigger.data(), buf_.data(), size_);
  }
  buf_ = std::move(bigger);
}

}  // namespace psmr::util
