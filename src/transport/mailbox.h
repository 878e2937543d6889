// A node's receive queue on the in-process network.
//
// Two kinds of node own one.  A pull-mode node (a LearnerLog read with
// next(), a ClientProxy, a test) blocks in pop()/pop_for() on its own
// thread, like a socket read.  An Endpoint's mailbox is push-mode instead: a
// push makes the endpoint runnable on its Network's Executor
// (transport/executor.h) rather than signalling a condition variable, so no
// thread sleeps on it.  The mailbox's lock also guards that endpoint's run
// state, which is what keeps one endpoint's handlers on one pool thread at
// a time.
//
// A pull-mode mailbox may also name a waker Endpoint (set_waker): its
// consumer polls from that endpoint's turns, and a push wakes the endpoint
// instead of signalling a sleeping thread.  Every replica reads its
// learners this way: a P-SMR worker its own, an sP-SMR delivery endpoint
// its single stream's.
//
// Consumers take messages in batches, not one lock per message: an
// Endpoint's turn moves up to Endpoint::kRunBudget of them out in one
// locked step, and a LearnerLog drains everything queued with take_all().
// A message thus pays one lock when pushed and a share of one when taken.
// The push lock is per mailbox, not process-wide.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <iterator>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "transport/message.h"

namespace psmr::transport {

class Endpoint;

/// Unbounded FIFO of Messages with close() semantics: a closed mailbox
/// rejects pushes, and pull-mode consumers drain what was already queued
/// before pop() reports shutdown.
class Mailbox {
 public:
  Mailbox() = default;
  Mailbox(const Mailbox&) = delete;
  Mailbox& operator=(const Mailbox&) = delete;

  /// Enqueues a message.  Returns false if the mailbox was closed.  On an
  /// Endpoint's mailbox this schedules the endpoint when it is idle.
  bool push(Message msg);

  /// Blocks until a message is available or the mailbox is closed and
  /// drained (std::nullopt).  Pull mode only.
  std::optional<Message> pop() {
    std::unique_lock lock(mu_);
    cv_.wait(lock, [&] { return closed_ || !items_.empty(); });
    return pop_locked();
  }

  /// pop() with a relative timeout; std::nullopt on timeout or closed and
  /// drained.  Pull mode only.
  template <typename Rep, typename Period>
  std::optional<Message> pop_for(std::chrono::duration<Rep, Period> timeout) {
    std::unique_lock lock(mu_);
    cv_.wait_for(lock, timeout, [&] { return closed_ || !items_.empty(); });
    return pop_locked();
  }

  /// Non-blocking: moves every queued message, oldest first, onto the end
  /// of `out` in one locked step.  Returns how many it moved.
  std::size_t take_all(std::vector<Message>& out) {
    std::lock_guard lock(mu_);
    return take_locked(out, items_.size());
  }

  /// Makes every later push wake `ep` (Endpoint::wake()) instead of
  /// signalling a blocked pop().  The consumer then only polls, from `ep`'s
  /// turns.  Call before `ep` starts; its first turn drains what is queued.
  void set_waker(Endpoint* ep) {
    std::lock_guard lock(mu_);
    waker_ = ep;
  }

  /// Rejects further pushes and wakes every waiter.  A push wakes the waker
  /// under the lock, so once close() returns no push can reach it again.
  void close() {
    std::lock_guard lock(mu_);
    closed_.store(true, std::memory_order_release);
    cv_.notify_all();
  }

  [[nodiscard]] bool closed() const {
    return closed_.load(std::memory_order_acquire);
  }
  [[nodiscard]] std::size_t size() const {
    std::lock_guard lock(mu_);
    return items_.size();
  }
  [[nodiscard]] bool empty() const { return size() == 0; }

 private:
  friend class Endpoint;
  friend class Network;

  std::optional<Message> pop_locked() {
    if (items_.empty()) return std::nullopt;
    Message m = std::move(items_.front());
    items_.pop_front();
    return m;
  }

  std::size_t take_locked(std::vector<Message>& out, std::size_t max) {
    const std::size_t n = std::min(max, items_.size());
    const auto end = items_.begin() + static_cast<std::ptrdiff_t>(n);
    std::move(items_.begin(), end, std::back_inserter(out));
    items_.erase(items_.begin(), end);
    return n;
  }

  // Endpoint mode.  `scheduled_` is true from the moment the endpoint is
  // handed to the executor until its run ends with nothing left to do, so
  // at most one pool thread runs it at a time.  `rerun_` records a wake() or
  // timer expiry that arrived while it was scheduled.
  Endpoint* owner_ = nullptr;
  Endpoint* waker_ = nullptr;  // pull mode: woken by each push
  bool started_ = false;
  bool scheduled_ = false;
  bool rerun_ = false;

  mutable std::mutex mu_;
  std::condition_variable cv_;  // pull-mode pops; Endpoint::stop() waits
  std::deque<Message> items_;
  // Written under mu_; atomic so a drained endpoint batch can check it
  // between handlers without the lock.
  std::atomic<bool> closed_{false};
};

}  // namespace psmr::transport
