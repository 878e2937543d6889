// A node's receive queue on the in-process network.
//
// Two kinds of node own one.  A pull-mode node (a LearnerLog, a
// ClientProxy, a test) blocks in pop()/pop_for() on its own thread, like a
// socket read.  An Endpoint's mailbox is push-mode instead: a push makes the
// endpoint runnable on its Network's Executor (transport/executor.h) rather
// than signalling a condition variable, so no thread sleeps on it.  The
// mailbox's lock also guards that endpoint's run state, which is what keeps
// one endpoint's handlers on one pool thread at a time.
//
// A pull-mode mailbox may also name a waker Endpoint (set_waker): its
// consumer polls with try_pop() from that endpoint's turns, and a push wakes
// the endpoint instead of signalling a sleeping thread.  A P-SMR replica
// worker reads its learners this way.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>

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

  /// Non-blocking pop.
  std::optional<Message> try_pop() {
    std::lock_guard lock(mu_);
    return pop_locked();
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
    closed_ = true;
    cv_.notify_all();
  }

  [[nodiscard]] bool closed() const {
    std::lock_guard lock(mu_);
    return closed_;
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
  bool closed_ = false;
};

}  // namespace psmr::transport
