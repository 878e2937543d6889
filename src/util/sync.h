// Signal: a counting semaphore for thread handshakes, so a signal sent
// before the receiver waits is not lost.  (The P-SMR replica's Algorithm 1
// signals are atomic counters that never block: smr/replica_psmr.h.)
#pragma once

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

}  // namespace psmr::util
