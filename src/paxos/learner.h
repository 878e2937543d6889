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
// architectural claim of the paper (parallel delivery, Table I).  Replica
// readers (P-SMR workers, the sP-SMR delivery endpoint) are executor
// endpoints, so they do not block in next(): each sets itself as the log's
// waker (set_waker) and polls try_next() from its turns, and each DECIDE
// wakes it.  perfbench's tracer polls try_next() too.  Blocking readers
// (tests, bench/micro_multicast) use next()/next_for(), which wait on the
// mailbox between try_next() calls.  try_next() alone decides when to ask
// for catch-up.
#pragma once

#include <atomic>
#include <chrono>
#include <map>
#include <optional>
#include <vector>

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
  /// std::nullopt only once the log or its mailbox is closed and drained.
  /// Not on a log with a waker.
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
  /// yet" *or* "closed" — poll closed() to tell the two apart.  Asks an
  /// acceptor for the missing instances when delivery has stalled for
  /// kCatchupAfter, at most once per kCatchupAfter.
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
  /// next() and next_for(): try_next(), and between calls wait on the
  /// mailbox for at most kCatchupAfter at a time.
  std::optional<Decision> next_until(
      std::chrono::steady_clock::time_point deadline);
  void ingest(transport::Message&& msg);
  std::optional<Decision> take_ready();
  void request_catchup();

  transport::Network& net_;
  const RingId ring_;
  const std::vector<transport::NodeId> acceptors_;
  transport::NodeId id_ = transport::kNoNode;
  std::shared_ptr<transport::Mailbox> mailbox_;

  std::map<Instance, Batch> buffer_;
  std::vector<transport::Message> inbox_;  // try_next()'s drained messages
  std::atomic<bool> closed_{false};
  bool has_waker_ = false;  // read with try_next() only
  /// Written only by the consuming thread; atomic so next_instance() can be
  /// sampled from monitoring threads without a data race.
  std::atomic<Instance> next_{0};
  util::SplitMix64 rng_;
  std::chrono::steady_clock::time_point last_progress_;
};

}  // namespace psmr::paxos
