// Allocation-counting hook over the global operator new/delete.
//
// The zero-copy buffer pool's whole claim is "no heap traffic on the warm
// hot path", and that claim is only worth pinning if it is *measured*, not
// asserted.  This header provides a swappable counting hook: a binary that
// expands PSMR_DEFINE_ALLOC_HOOK() in exactly one translation unit gets
// replacement global allocation functions that count every operator-new
// call in a relaxed atomic before delegating to malloc.  Binaries that
// never expand the macro keep the stock allocator and pay nothing.
//
// Users: tests/test_support.cc (so any test can assert allocation counts)
// and bench/bench_common.h (each bench binary is a single translation
// unit), which is how bench_micro_codec measures allocs-per-command for
// BENCH_alloc.json.
//
// The hook stays inert under ASan/TSan: the sanitizers interpose the
// allocator themselves, and replacing operator new underneath them would
// blind their bookkeeping.  allocations() then reports 0 and
// kAllocHookActive lets measurement code skip itself.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define PSMR_ALLOC_HOOK_DISABLED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define PSMR_ALLOC_HOOK_DISABLED 1
#endif
#endif

namespace psmr::util::allochook {

#ifdef PSMR_ALLOC_HOOK_DISABLED
inline constexpr bool kAllocHookActive = false;
inline std::atomic<std::uint64_t> g_news{0};  // never incremented
#else
inline constexpr bool kAllocHookActive = true;
/// Total operator-new calls since process start (or the last reset()).
/// Defined `inline` so the declaration is usable even in TUs of a binary
/// whose hook lives in another TU.
inline std::atomic<std::uint64_t> g_news{0};
#endif

/// Operator-new calls observed so far.  Always 0 when !kAllocHookActive or
/// when no TU of the binary expanded PSMR_DEFINE_ALLOC_HOOK().
inline std::uint64_t allocations() {
  return g_news.load(std::memory_order_relaxed);
}

inline void reset() { g_news.store(0, std::memory_order_relaxed); }

/// RAII window: `AllocWindow w; ...; auto n = w.count();`
class AllocWindow {
 public:
  AllocWindow() : start_(allocations()) {}
  [[nodiscard]] std::uint64_t count() const { return allocations() - start_; }

 private:
  std::uint64_t start_;
};

#ifndef PSMR_ALLOC_HOOK_DISABLED
namespace detail {

inline void* counted_alloc(std::size_t n) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}

inline void* counted_alloc_aligned(std::size_t n, std::size_t align) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  if (posix_memalign(&p, align < sizeof(void*) ? sizeof(void*) : align,
                     n == 0 ? 1 : n) != 0) {
    return nullptr;
  }
  return p;
}

}  // namespace detail
#endif

}  // namespace psmr::util::allochook

#ifdef PSMR_ALLOC_HOOK_DISABLED
#define PSMR_DEFINE_ALLOC_HOOK() static_assert(true, "")
#else
// Expand in exactly ONE translation unit of a binary.  Covers the full
// C++17 replaceable set: plain/array, nothrow, and aligned forms, with the
// matching deletes (free() pairs with both malloc and posix_memalign —
// which is the whole point of replacing the full set, but GCC's
// -Wmismatched-new-delete only sees the delete half and must be quieted).
#define PSMR_DEFINE_ALLOC_HOOK()                                             \
  _Pragma("GCC diagnostic push")                                             \
  _Pragma("GCC diagnostic ignored \"-Wmismatched-new-delete\"")              \
  void* operator new(std::size_t n) {                                        \
    if (void* p = psmr::util::allochook::detail::counted_alloc(n)) return p; \
    throw std::bad_alloc();                                                  \
  }                                                                          \
  void* operator new[](std::size_t n) {                                      \
    if (void* p = psmr::util::allochook::detail::counted_alloc(n)) return p; \
    throw std::bad_alloc();                                                  \
  }                                                                          \
  void* operator new(std::size_t n, const std::nothrow_t&) noexcept {        \
    return psmr::util::allochook::detail::counted_alloc(n);                  \
  }                                                                          \
  void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {      \
    return psmr::util::allochook::detail::counted_alloc(n);                  \
  }                                                                          \
  void* operator new(std::size_t n, std::align_val_t a) {                    \
    if (void* p = psmr::util::allochook::detail::counted_alloc_aligned(      \
            n, static_cast<std::size_t>(a)))                                 \
      return p;                                                              \
    throw std::bad_alloc();                                                  \
  }                                                                          \
  void* operator new[](std::size_t n, std::align_val_t a) {                  \
    if (void* p = psmr::util::allochook::detail::counted_alloc_aligned(      \
            n, static_cast<std::size_t>(a)))                                 \
      return p;                                                              \
    throw std::bad_alloc();                                                  \
  }                                                                          \
  void operator delete(void* p) noexcept { std::free(p); }                   \
  void operator delete[](void* p) noexcept { std::free(p); }                 \
  void operator delete(void* p, std::size_t) noexcept { std::free(p); }      \
  void operator delete[](void* p, std::size_t) noexcept { std::free(p); }    \
  void operator delete(void* p, const std::nothrow_t&) noexcept {            \
    std::free(p);                                                            \
  }                                                                          \
  void operator delete[](void* p, const std::nothrow_t&) noexcept {          \
    std::free(p);                                                            \
  }                                                                          \
  void operator delete(void* p, std::align_val_t) noexcept { std::free(p); } \
  void operator delete[](void* p, std::align_val_t) noexcept {               \
    std::free(p);                                                            \
  }                                                                          \
  void operator delete(void* p, std::size_t, std::align_val_t) noexcept {    \
    std::free(p);                                                            \
  }                                                                          \
  void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {  \
    std::free(p);                                                            \
  }                                                                          \
  _Pragma("GCC diagnostic pop")                                              \
  static_assert(true, "")
#endif
