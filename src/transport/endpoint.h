// Message-driven actor base: handlers run on the Network's executor pool.
//
// Paxos coordinators and acceptors, the replicas' snapshot servers, the
// lock-server and no-rep handlers, the P-SMR replica workers, the sP-SMR
// delivery endpoints and the scheduler workers of sP-SMR and no-rep
// (smr/scheduler.h) are Endpoints.  None owns a thread: a push to an
// endpoint's mailbox, a wake() or an expired deadline makes it runnable,
// and one of the Network's pool threads (transport/executor.h) runs its
// turn.  Handlers of one endpoint never run on two threads at once and see
// its messages in FIFO order.
//
// Replica workers and delivery endpoints receive no messages; they do
// their work in on_run().  A P-SMR worker's learners name it as their
// waker (Mailbox::set_waker), so a DECIDE wakes it and its on_run() pumps
// its own merge (multicast/merge.h).  Delivery still happens inside the
// worker, with no central dispatcher in between — the architectural point
// of P-SMR — and a DECIDE sent from a pool thread runs the worker right
// after the sender's handler, without waking a sleeping thread.  The
// sP-SMR delivery endpoint is woken the same way and feeds the scheduler,
// whose dispatches wake its workers.
//
// Destruction: every concrete subclass must call stop() first in its own
// destructor.  ~Endpoint() runs after the subclass's members are gone, so
// its stop() would come too late for a handler turn still running on a
// pool thread; it stays only as a backstop for the mailbox and timer.
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
/// it.  A concrete subclass's destructor must call stop() before anything
/// else (see the file comment).
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

  /// Asks for a turn: schedules the endpoint if it is idle — on this pool
  /// thread's local list when called from a handler, otherwise on the
  /// shared queue — or, if a turn is already scheduled or running, makes
  /// it go round once more.  A no-op before start() and after stop().
  /// Safe from any thread.
  void wake();

  [[nodiscard]] NodeId id() const { return id_; }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] Network& network() const { return net_; }

 protected:
  /// Processes one message.  Never runs concurrently with this endpoint's
  /// other handlers.
  virtual void handle(Message msg) = 0;

  /// Called once per turn after the queued messages, on the same thread
  /// and under the same exclusion as handle().  Endpoints driven by wake()
  /// do their work here.
  virtual void on_run() {}

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
  /// messages, calls on_run(), runs an expired deadline, re-arms the timer,
  /// and yields if work remains.
  void run();
  /// A wake or timer expiry: true if the caller must queue this endpoint
  /// (it was idle); false if it is closed, not started, or already
  /// scheduled (the current turn then goes round again).
  bool mark_runnable();

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
