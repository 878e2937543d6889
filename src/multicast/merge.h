// Deterministic merge of multiple ring streams into one delivery sequence.
//
// A P-SMR worker subscribes to its own group's ring and to the shared
// g_all ring.  Replica consistency requires that *every* replica's worker
// t_i interleaves the streams identically; arrival timing must not
// matter.  The merge orders on the clock slot every decided batch carries
// (paxos::Batch::slot), in the spirit of Clock-RSM (Du et al., DSN 2014):
//
//   * each decision's effective slot is max(decided slot, previous
//     effective slot of its stream + 1), so effective slots strictly rise
//     along every stream whatever the coordinators' clocks did (skew,
//     failover no-op fills at slot 0, a new coordinator behind the old);
//   * the merge is a k-way merge that consumes the stream head with the
//     smallest (effective slot, stream index).  A stream whose head is not
//     fetched yet is bounded below by its last effective slot + 1; the
//     merge fetches from a stream only when that bound could precede the
//     best head, so it never waits on a ring it does not need.
//
// Both rules read only the decided sequences, so the delivered order is a
// function of them alone.  A SKIP's slot is a lease end: it delivers
// nothing, and while it heads its stream every other stream's commands
// with smaller slots pass it without waiting.  Coordinators propose those
// leases on demand (paxos/coordinator.h), so an idle ring costs the merge
// nothing until a peer's slots outrun its lease.
#pragma once

#include <algorithm>
#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "multicast/group.h"
#include "paxos/learner.h"

namespace psmr::multicast {

/// One delivered message, tagged with the ring (group stream) it came from.
struct Delivery {
  /// Worker-group ring index within the subscription (not a GroupId): the
  /// shared ring, when present, is the last entry.
  std::size_t stream = 0;
  /// Zero-copy handle: shares the DECIDE frame's pool block the batch
  /// arrived in (see paxos::Batch::decode).
  util::Payload message;
};

/// Merges one or more LearnerLogs deterministically.  Single-log instances
/// degenerate to plain ordered delivery (used by SMR and sP-SMR).
class MergeDeliverer {
 public:
  explicit MergeDeliverer(std::vector<std::unique_ptr<paxos::LearnerLog>> logs)
      : streams_(logs.size()) {
    for (std::size_t i = 0; i < logs.size(); ++i) {
      streams_[i].log = std::move(logs[i]);
    }
  }

  /// Blocks for the next message in merged deterministic order.
  /// std::nullopt means the network shut down.
  std::optional<Delivery> next() {
    return pump([](paxos::LearnerLog& log) { return log.next(); });
  }

  /// Outcome of a non-blocking poll: kDelivered filled `out`; kDry means
  /// the next in-order message has not been decided yet (worth retrying or
  /// falling back to a blocking next()); kClosed is terminal — the stream
  /// shut down and no further poll or next() will ever deliver.
  enum class Poll { kDelivered, kDry, kClosed };

  /// Non-blocking variant of next().  Consumes the identical merged
  /// sequence as next() — a fetched head stays held until the merge
  /// consumes it — so callers may freely interleave the two (the replica
  /// batch accumulators poll and fall back to next() only while the
  /// stream is merely dry).  Unlike a bare optional, the result separates
  /// "dry" from "closed": a caller that blocked on next() after a kClosed
  /// poll would be waiting on a stream that can never produce again.
  Poll try_next(Delivery& out) {
    if (auto d = pump([](paxos::LearnerLog& log) { return log.try_next(); })) {
      out = std::move(*d);
      return Poll::kDelivered;
    }
    return closed() ? Poll::kClosed : Poll::kDry;
  }

  /// Wakes `ep` on every message to any of the merged logs, which are
  /// then read with try_next() only (paxos::LearnerLog::set_waker).  Call
  /// before `ep` starts.
  void set_waker(transport::Endpoint* ep) {
    for (auto& s : streams_) s.log->set_waker(ep);
  }

  /// Unblocks any pending next() and makes future calls return nullopt.
  void close() {
    for (auto& s : streams_) s.log->close();
  }

  /// True once any underlying log closed: the merge can never again prove
  /// a head is smallest, so the merged stream as a whole is shut down.
  /// (close() closes every log; a kClosed poll is always terminal.)
  [[nodiscard]] bool closed() const {
    for (const auto& s : streams_) {
      if (s.log->closed()) return true;
    }
    return false;
  }

  [[nodiscard]] std::size_t num_streams() const { return streams_.size(); }

  /// Number of decisions fetched so far from stream `i`, a held head
  /// included (test hook; also the resume point recorded in checkpoints).
  [[nodiscard]] paxos::Instance stream_position(std::size_t i) const {
    return streams_.at(i).log->next_instance();
  }

  /// Checkpoint hooks.  Safe only while the owning worker is parked
  /// (the replica's checkpoint barrier): the merge state is then a pure
  /// function of the stream positions, each stream's last consumed
  /// effective slot and held head, and whatever a consumed batch left
  /// undelivered in pending().
  [[nodiscard]] std::uint64_t last_slot(std::size_t i) const {
    return streams_.at(i).last;
  }
  /// Stream i's fetched but unconsumed decision, if any.
  [[nodiscard]] const std::optional<paxos::Batch>& head(std::size_t i) const {
    return streams_.at(i).head;
  }
  [[nodiscard]] const std::deque<Delivery>& pending() const { return ready_; }

  /// Restores the per-stream last slots and held heads and the undelivered
  /// tail recorded by a checkpoint, so a recovering worker resumes exactly
  /// where the snapshot was cut.  Call before the first next()/try_next(),
  /// on a deliverer subscribed at the recorded stream positions; both
  /// vectors hold one entry per stream.
  void restore_merge_state(const std::vector<std::uint64_t>& last_slots,
                           std::vector<std::optional<paxos::Batch>> heads,
                           std::deque<Delivery> pending) {
    for (std::size_t i = 0; i < streams_.size(); ++i) {
      streams_[i].last = last_slots.at(i);
      streams_[i].head = std::move(heads.at(i));
    }
    ready_ = std::move(pending);
  }

 private:
  struct Stream {
    std::unique_ptr<paxos::LearnerLog> log;
    /// Effective slot of the last decision consumed from this stream.
    std::uint64_t last = 0;
    std::optional<paxos::Batch> head;

    /// Effective slot of the held head, or the lower bound on the next
    /// one while none is held.
    [[nodiscard]] std::uint64_t key() const {
      return head ? std::max(head->slot, last + 1) : last + 1;
    }
  };

  /// The shared merge pump: drain ready_, else find the stream with the
  /// smallest (key, index).  If it holds a head, that head precedes
  /// everything any stream can still decide: consume it (a skip delivers
  /// nothing).  Otherwise fetch that stream's next decision via `fetch`
  /// (blocking or not) and look again.
  template <typename Fetch>
  std::optional<Delivery> pump(Fetch fetch) {
    while (true) {
      if (!ready_.empty()) {
        Delivery d = std::move(ready_.front());
        ready_.pop_front();
        return d;
      }
      std::size_t best = 0;
      for (std::size_t i = 1; i < streams_.size(); ++i) {
        if (streams_[i].key() < streams_[best].key()) best = i;
      }
      Stream& s = streams_[best];
      if (!s.head) {
        auto decision = fetch(*s.log);
        if (!decision) return std::nullopt;
        s.head = std::move(decision->batch);
        continue;
      }
      s.last = s.key();
      paxos::Batch batch = std::move(*s.head);
      s.head.reset();
      for (auto& cmd : batch.commands) {
        ready_.push_back(Delivery{best, std::move(cmd)});
      }
    }
  }

  std::vector<Stream> streams_;
  std::deque<Delivery> ready_;
};

}  // namespace psmr::multicast
