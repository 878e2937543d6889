// Gap-free ordered delivery of one ring's decided sequence.
//
// A LearnerLog owns a registered mailbox on the network, buffers DECIDE
// messages that arrive out of order (pipelined deciding, retransmissions,
// failover re-decides), deduplicates by instance, and hands out Decisions
// strictly in instance order.  If a gap persists — a DECIDE was dropped or
// this learner subscribed late — it fetches the missing instances from an
// acceptor (catch-up protocol).
//
// A P-SMR replica worker reads its learners itself: delivery happens
// *inside* the worker with no central dispatcher, which is the core
// architectural claim of the paper (parallel delivery, Table I).  The
// worker is an executor endpoint, so it does not block in next(): it sets
// itself as the log's waker (set_waker) and polls try_next() from its
// turns, and each DECIDE wakes it.  Blocking consumers (the sP-SMR delivery
// thread, tests, perfbench's tracer) use next()/next_for() as before.
#pragma once

#include <atomic>
#include <chrono>
#include <map>
#include <optional>

#include "paxos/types.h"
#include "transport/network.h"
#include "util/rng.h"

namespace psmr::paxos {

class LearnerLog {
 public:
  /// Registers a learner mailbox; the caller must also register the id with
  /// the ring so the coordinator multicasts DECIDEs here (Ring::subscribe
  /// does both).  `start` is the first instance to deliver — a recovering
  /// replica that restored a checkpoint subscribes at its snapshot position
  /// and the gap-triggered catch-up protocol replays the suffix from an
  /// acceptor.
  LearnerLog(transport::Network& net, RingId ring,
             std::vector<transport::NodeId> acceptors, Instance start = 0);

  LearnerLog(const LearnerLog&) = delete;
  LearnerLog& operator=(const LearnerLog&) = delete;

  [[nodiscard]] transport::NodeId id() const { return id_; }
  [[nodiscard]] RingId ring() const { return ring_; }

  /// Blocks until the next in-order decision is available.  Returns
  /// std::nullopt only when the network shuts down.  Not on a log with a
  /// waker.
  std::optional<Decision> next();

  /// Bounded wait; std::nullopt on timeout or shutdown.  Not on a log with
  /// a waker.
  std::optional<Decision> next_for(std::chrono::microseconds timeout);

  /// Makes every arriving message wake `ep` instead of a blocked reader;
  /// the log is then read with try_next() only, from `ep`'s turns, and its
  /// catch-up needs a try_next() at least every kCatchupAfter while
  /// delivery stalls.  Call before `ep` starts.
  void set_waker(transport::Endpoint* ep) {
    has_waker_ = true;
    mailbox_->set_waker(ep);
  }

  /// How long delivery may stall before a read asks an acceptor for the
  /// missing instances.
  static constexpr std::chrono::microseconds kCatchupAfter{20000};

  /// Non-blocking variant.  std::nullopt means "no in-order decision ready
  /// yet" *or* "closed" — poll closed() to tell the two apart.
  std::optional<Decision> try_next();

  /// Instance the next() call will return (number of decisions delivered).
  /// Safe to read from any thread (progress monitoring in tests).
  [[nodiscard]] Instance next_instance() const {
    return next_.load(std::memory_order_relaxed);
  }

  /// True once close() ran: try_next()'s std::nullopt is then terminal
  /// shutdown, never "not decided yet".  Safe from any thread.
  [[nodiscard]] bool closed() const {
    return closed_.load(std::memory_order_acquire);
  }

  /// Stops delivery immediately: pending and future next() calls return
  /// std::nullopt even if decided batches are still buffered.  Used at
  /// replica shutdown so workers quiesce at a well-defined point.
  void close() {
    closed_.store(true, std::memory_order_release);
    mailbox_->close();
  }

 private:
  void ingest(transport::Message&& msg);
  std::optional<Decision> take_ready();
  void request_catchup();

  transport::Network& net_;
  const RingId ring_;
  const std::vector<transport::NodeId> acceptors_;
  transport::NodeId id_ = transport::kNoNode;
  std::shared_ptr<transport::Mailbox> mailbox_;

  std::map<Instance, Batch> buffer_;
  std::atomic<bool> closed_{false};
  bool has_waker_ = false;  // read with try_next() only
  /// Written only by the consuming thread; atomic so next_instance() can be
  /// sampled from monitoring threads without a data race.
  std::atomic<Instance> next_{0};
  util::SplitMix64 rng_;
  std::chrono::steady_clock::time_point last_progress_;
};

}  // namespace psmr::paxos
