// Signal: a counting semaphore for thread handshakes, so a signal sent
// before the receiver waits is not lost.  (The P-SMR replica's Algorithm 1
// signals are atomic counters that never block: smr/replica_psmr.h.)
// RelaxedCounter: a statistics counter with one writer at a time.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>

namespace psmr::util {

/// Counting signal/semaphore.
class Signal {
 public:
  /// Delivers one signal; wakes one waiter if any.
  void notify() {
    std::lock_guard lock(mu_);
    ++count_;
    cv_.notify_one();
  }

  /// Blocks until a signal is available, then consumes it.
  void wait() {
    std::unique_lock lock(mu_);
    cv_.wait(lock, [&] { return count_ > 0; });
    --count_;
  }

  /// Timed wait; returns false on timeout without consuming a signal.
  template <typename Rep, typename Period>
  bool wait_for(std::chrono::duration<Rep, Period> timeout) {
    std::unique_lock lock(mu_);
    if (!cv_.wait_for(lock, timeout, [&] { return count_ > 0; })) return false;
    --count_;
    return true;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::int64_t count_ = 0;
};

/// A statistics counter written by one thread at a time (an endpoint's
/// turns, a thread's own cache) and read from any thread.  add() is a
/// relaxed load and store, not a locked read-modify-write, so counting costs
/// no more than a plain increment; a reader sees some recent value, and the
/// exact one once it synchronizes with the writer.
class RelaxedCounter {
 public:
  void add(std::uint64_t n = 1) {
    v_.store(v_.load(std::memory_order_relaxed) + n,
             std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t get() const {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> v_{0};
};

}  // namespace psmr::util
