// Message-driven actor base: handlers run on the Network's executor pool.
//
// Paxos coordinators and acceptors, the replicas' snapshot servers and the
// lock-server and no-rep handlers are Endpoints.  None owns a thread: a
// push to an endpoint's mailbox or an expired deadline makes it runnable,
// and one of the Network's pool threads (transport/executor.h) drains its
// mailbox.  Handlers of one endpoint never run on two threads at once and
// see its messages in FIFO order.
//
// Replica worker threads are NOT Endpoints — they consume ordered command
// streams through the multicast merge deliverer instead (see
// multicast/merge.h), which is exactly the architectural point of P-SMR:
// delivery happens inside the worker, not in a central dispatcher.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "transport/network.h"

namespace psmr::transport {

/// Base class for message-driven processes.  Subclasses implement
/// handle(msg); start() lets the executor run the endpoint; stop() retires
/// it.  Destruction stops the actor (RAII).
class Endpoint {
 public:
  Endpoint(Network& net, std::string name);
  virtual ~Endpoint() { stop(); }

  Endpoint(const Endpoint&) = delete;
  Endpoint& operator=(const Endpoint&) = delete;

  /// Lets the executor run this endpoint: messages queued before start()
  /// are handled, and its first deadline is armed.  Idempotent.
  void start();

  /// Closes the mailbox and returns once no handler is running and none
  /// will run again; queued messages are dropped.  Idempotent.  Must not be
  /// called from one of this Network's handlers.
  void stop();

  [[nodiscard]] NodeId id() const { return id_; }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] Network& network() const { return net_; }

 protected:
  /// Processes one message.  Never runs concurrently with this endpoint's
  /// other handlers.
  virtual void handle(Message msg) = 0;

  using Clock = std::chrono::steady_clock;

  /// The next time on_deadline() should run, asked after every run of
  /// this endpoint's handlers; std::nullopt waits for messages only.
  /// Coordinators return their earliest timer (batch seal, retransmit,
  /// fallback skip, Phase 1 retry).  on_deadline() must move every expired
  /// deadline forward, or the endpoint is rescheduled at once.
  [[nodiscard]] virtual std::optional<Clock::time_point> next_deadline() {
    return std::nullopt;
  }
  virtual void on_deadline() {}

  /// Sends from this endpoint.  Accepts a util::Payload (zero-copy share)
  /// or, via implicit conversion, a util::Buffer.
  bool send(NodeId to, std::uint16_t type, util::Payload payload) {
    return net_.send(id_, to, type, std::move(payload));
  }

 private:
  friend class Executor;

  /// One scheduled turn on a pool thread: handles up to kRunBudget queued
  /// messages, runs an expired deadline, re-arms the timer, and yields if
  /// work remains.
  void run();
  /// A timer expiry: true if the caller must queue this endpoint (it was
  /// idle); false if it is closed, not started, or already scheduled.
  bool wake_for_timer();

  static constexpr std::size_t kRunBudget = 64;

  Network& net_;
  std::string name_;
  NodeId id_ = kNoNode;
  std::shared_ptr<Mailbox> mailbox_;

  // Timer state, owned by the Network's executor.  armed_ns_ is the
  // deadline the last run asked for; heap_ns_/heap_seq_ describe this
  // endpoint's one live heap entry (written under the executor's lock).
  std::atomic<std::int64_t> armed_ns_{Executor::kNever};
  std::atomic<std::int64_t> heap_ns_{Executor::kNever};
  std::uint64_t heap_seq_ = 0;
};

}  // namespace psmr::transport
