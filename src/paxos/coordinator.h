// Paxos coordinator (proposer + batcher) for one ring.
//
// Responsibilities, mirroring the paper's multicast library (Section VI-A):
//   * collects submitted commands into batches of at most 8 KB (or a batch
//     timeout) — "commands multicast to a group are batched by the group's
//     coordinator and order is established on batches of commands".  A
//     ring whose submits arrive further apart than the timeout (an
//     inter-submit EWMA) seals each batch at once: waiting would add
//     latency, not commands;
//   * stamps every batch with a clock slot (now_slot(), microseconds, never
//     below the previous slot + 1), the key the multicast merge orders on
//     (multicast/merge.h);
//   * keeps merge peers live with on-demand lease skips.  Sealing a command
//     batch at slot t nudges each merge peer ring's coordinator with
//     kPaxosCover(target = t + skip_interval / 2) unless t is within the
//     last target sent, so at most once per half-lease.  A coordinator
//     whose last slot is below a nudge's target proposes one SKIP whose
//     slot is a lease end, max(now + skip_interval, target): a promise that
//     the ring decides nothing earlier.  As a fallback for lost nudges, an
//     idle coordinator also skips once an rto after its last slot;
//   * runs multi-Paxos: one Phase 1 (prepare/promise) per ballot covering
//     all instances, then pipelined Phase 2 (accept/accepted) per batch;
//   * retransmits on a per-instance backoff (rto doubling up to 8x rto) and
//     re-prepares on NACK after a random delay below rto, so the ring stays
//     live under message loss and competing coordinators stay safe.
// There is no periodic tick: the endpoint wakes the coordinator at its
// earliest deadline (batch seal, retransmit, fallback skip, Phase 1 retry).
#pragma once

#include <atomic>
#include <chrono>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <vector>

#include "paxos/types.h"
#include "transport/endpoint.h"
#include "util/rng.h"
#include "util/sync.h"

namespace psmr::paxos {

/// Learner membership shared between the Ring (which registers subscribers)
/// and coordinators (which multicast DECIDEs to the current snapshot).  It
/// only grows, so a coordinator keeps its own copy and refreshes it when
/// size() changes.
class LearnerRegistry {
 public:
  void add(transport::NodeId id) {
    std::lock_guard lock(mu_);
    ids_.push_back(id);
    size_.store(ids_.size(), std::memory_order_release);
  }
  [[nodiscard]] std::vector<transport::NodeId> snapshot() const {
    std::lock_guard lock(mu_);
    return ids_;
  }
  [[nodiscard]] std::size_t size() const {
    return size_.load(std::memory_order_acquire);
  }

 private:
  mutable std::mutex mu_;
  std::vector<transport::NodeId> ids_;
  std::atomic<std::size_t> size_{0};
};

/// Where a coordinator sends kPaxosCover nudges: the current coordinator of
/// each ring that some learner merges with this ring's stream.  Filled once
/// before the ring starts (Ring::set_merge_peers); failover swaps the node
/// id behind each pointer, never the pointer.
struct MergePeers {
  std::vector<const std::atomic<transport::NodeId>*> coordinators;
};

/// Counters exported for benches and tests.
///
/// The batching fields let callers assert on batcher *behavior* (fill
/// levels, why batches sealed) instead of eyeballing throughput: mean
/// occupancy is sealed_commands / sealed_batches, mean batch payload is
/// sealed_bytes / sealed_batches.
struct CoordinatorStats {
  std::uint64_t decided_batches = 0;
  std::uint64_t decided_commands = 0;
  std::uint64_t decided_skips = 0;
  /// Phase 2 retransmissions (one per instance per expired resend timer).
  std::uint64_t resends = 0;

  // Batch sealing (non-skip batches only).
  std::uint64_t sealed_batches = 0;
  std::uint64_t sealed_commands = 0;
  std::uint64_t sealed_bytes = 0;
  std::uint64_t sealed_on_bytes = 0;    // hit max_batch_bytes
  std::uint64_t sealed_on_count = 0;    // hit max_batch_commands
  std::uint64_t sealed_on_timeout = 0;  // batch timeout expired
  std::uint64_t sealed_at_once = 0;     // sparse submits: no wait

  // Submit-side coalescing as seen by this coordinator: messages received
  // vs commands they carried (> 1 command per message means upstream
  // submitters piggybacked onto one wire submit).
  std::uint64_t submit_msgs = 0;
  std::uint64_t submit_commands = 0;

  [[nodiscard]] double mean_commands_per_batch() const {
    return sealed_batches == 0
               ? 0.0
               : static_cast<double>(sealed_commands) /
                     static_cast<double>(sealed_batches);
  }
  [[nodiscard]] double mean_bytes_per_batch() const {
    return sealed_batches == 0 ? 0.0
                               : static_cast<double>(sealed_bytes) /
                                     static_cast<double>(sealed_batches);
  }

  /// Aggregates counters across rings.
  CoordinatorStats& operator+=(const CoordinatorStats& o) {
    decided_batches += o.decided_batches;
    decided_commands += o.decided_commands;
    decided_skips += o.decided_skips;
    resends += o.resends;
    sealed_batches += o.sealed_batches;
    sealed_commands += o.sealed_commands;
    sealed_bytes += o.sealed_bytes;
    sealed_on_bytes += o.sealed_on_bytes;
    sealed_on_count += o.sealed_on_count;
    sealed_on_timeout += o.sealed_on_timeout;
    sealed_at_once += o.sealed_at_once;
    submit_msgs += o.submit_msgs;
    submit_commands += o.submit_commands;
    return *this;
  }
};

class Coordinator : public transport::Endpoint {
 public:
  Coordinator(transport::Network& net, RingId ring, RingConfig cfg,
              std::vector<transport::NodeId> acceptors,
              std::shared_ptr<LearnerRegistry> learners,
              std::shared_ptr<const MergePeers> peers,
              std::uint32_t proposer_index, std::uint64_t start_round);
  ~Coordinator() override { stop(); }

  [[nodiscard]] CoordinatorStats stats() const;

  /// Test hook: suppresses all deadline work (batch sealing, retransmits,
  /// fallback skips) for `d` from now, simulating a timer thread starved by
  /// CPU contention.  Thread-safe; message handling is unaffected, so the
  /// ring keeps deciding submitted commands and answering kPaxosCover
  /// nudges while "starved".
  void stall_ticks_for(std::chrono::microseconds d) {
    auto until = Clock::now() + d;
    stall_until_ns_.store(until.time_since_epoch().count(),
                          std::memory_order_relaxed);
  }

  /// Test hook: shifts this coordinator's slot clock by `d` (clock skew
  /// between ring coordinators on different hosts).  Thread-safe.
  void skew_clock(std::chrono::microseconds d) {
    clock_skew_us_.store(d.count(), std::memory_order_relaxed);
  }

 protected:
  void handle(transport::Message msg) override;
  [[nodiscard]] std::optional<Clock::time_point> next_deadline() override;
  void on_deadline() override;

 private:
  enum class Phase { kPreparing, kSteady };
  enum class SealReason { kBytes, kCount, kTimeout, kAtOnce };

  void begin_prepare();
  void on_submit(util::Payload cmd);
  /// Parses a SUBMIT_MANY frame; each command enqueued is a zero-copy
  /// subview of the frame's pool block.  A malformed frame enqueues and
  /// counts nothing.
  void on_submit_many(const util::Payload& payload);
  /// After a submit message: updates the inter-submit EWMA, seals at once
  /// if the ring is sparse, and proposes what the window allows.
  void after_submit();
  void on_promise(transport::NodeId from, util::Reader& r);
  void on_accepted(transport::NodeId from, util::Reader& r);
  void on_nack(util::Reader& r);
  /// A merge peer proposed up to `target`: lease past it unless covered.
  void on_cover(std::uint64_t target);

  /// Appends one command to the open batch, sealing when a cap is hit.
  void enqueue(util::Payload cmd);
  void seal_batch(SealReason reason);
  /// Queues a lease SKIP whose slot is at least now + skip_interval and
  /// at least `target`.
  void queue_skip(std::uint64_t target);
  /// Stamps `b` with its slot (at least `slot`, above every earlier slot)
  /// and queues it for proposal.  Returns the stamped slot.
  std::uint64_t queue_batch(Batch& b, std::uint64_t slot);
  /// Sends kPaxosCover to every merge peer this slot outruns.
  void nudge_peers(std::uint64_t slot);
  void pump_proposals();
  void propose(Instance inst, util::Payload value);
  void send_accepts(Instance inst);
  void decide(Instance inst);

  /// The slot clock: steady-clock microseconds plus the test skew.
  [[nodiscard]] std::uint64_t now_slot() const;
  /// The steady-clock time at which now_slot() reaches `slot`.
  [[nodiscard]] Clock::time_point slot_time(std::uint64_t slot) const;
  /// Nothing open, queued or in flight: the fallback skip may fire.
  [[nodiscard]] bool idle() const {
    return pending_.empty() && sealed_.empty() && in_flight_.empty();
  }
  [[nodiscard]] bool stalled(Clock::time_point now) const {
    return now.time_since_epoch().count() <
           stall_until_ns_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] std::size_t quorum() const {
    return acceptors_.size() / 2 + 1;
  }

  const RingId ring_;
  const RingConfig cfg_;
  const std::vector<transport::NodeId> acceptors_;
  const std::shared_ptr<LearnerRegistry> learners_;
  /// This coordinator's copy of learners_, refreshed when it grows.
  std::vector<transport::NodeId> learner_ids_;
  const std::shared_ptr<const MergePeers> peers_;
  const std::uint32_t proposer_index_;

  Phase phase_ = Phase::kPreparing;
  std::uint64_t round_;
  Ballot ballot_;
  Instance next_instance_ = 0;

  // Phase 1 bookkeeping.
  std::set<transport::NodeId> promises_;
  struct PromisedValue {
    Ballot ballot = 0;
    util::Payload value;
  };
  std::map<Instance, PromisedValue> promised_values_;
  /// Highest truncation floor reported in PROMISEs.  Instances below it were
  /// checkpoint-truncated at the acceptors, so they are already delivered
  /// everywhere; a failover coordinator must never re-propose below it (it
  /// would reuse instance numbers every learner has already passed).
  Instance prepare_floor_ = 0;
  /// When PREPARE is (re)sent: rto after the last one, or a random delay
  /// below rto after a NACK.
  Clock::time_point prepare_due_{};
  util::SplitMix64 jitter_;

  // Batching.  Pending commands are zero-copy subviews of the submit
  // frames they arrived in; sealing copies them once into the batch block.
  std::vector<util::Payload> pending_;
  std::size_t pending_bytes_ = 0;
  Clock::time_point batch_started_{};
  std::deque<util::Payload> sealed_;
  /// Inter-submit-message gap, exponentially averaged (weight 1/8), each
  /// sample capped at 4x the batch timeout so one long pause is forgotten
  /// within a few submits.
  Clock::duration submit_gap_{};
  Clock::time_point last_submit_{};

  /// Highest slot stamped on any queued batch: the ring's lease end when
  /// its last batch was a skip.
  std::uint64_t last_slot_ = 0;
  /// Per merge peer: the cover target last sent.  A new nudge goes out
  /// only once a slot passes it.
  std::vector<std::uint64_t> cover_sent_;

  // Phase 2 pipeline.
  struct InFlight {
    util::Payload value;
    std::set<transport::NodeId> acks;
    /// Resend deadline; the interval doubles per resend, up to 8x rto.
    Clock::time_point resend_at;
    std::chrono::microseconds backoff{0};
  };
  std::map<Instance, InFlight> in_flight_;

  /// stall_ticks_for() deadline, as steady_clock ticks since epoch (0 =
  /// none).
  std::atomic<Clock::rep> stall_until_ns_{0};
  std::atomic<std::int64_t> clock_skew_us_{0};

  // CoordinatorStats, written by the coordinator's handlers only and read
  // by stats() from test/bench threads.
  struct Counters {
    util::RelaxedCounter decided_batches, decided_commands, decided_skips,
        resends, sealed_batches, sealed_commands, sealed_bytes,
        sealed_on_bytes, sealed_on_count, sealed_on_timeout, sealed_at_once,
        submit_msgs, submit_commands;
  };
  Counters counters_;
};

}  // namespace psmr::paxos
