// Paxos acceptor for one ring.
//
// Implements the standard single-decree acceptor per instance (promise /
// accept with a single promised ballot covering all instances, as in
// multi-Paxos), plus three extensions the rest of the stack relies on:
//   * it learns DECIDE messages and stores decided values, serving learner
//     catch-up requests (recovering from dropped DECIDEs or late joiners);
//   * PROMISE replies carry every accepted or decided (instance, ballot,
//     value) at or above the requested instance so a new coordinator can
//     re-propose;
//   * CHECKPOINTACK messages from replicas advance a truncation floor: once
//     every expected replica has acknowledged a checkpoint covering an
//     instance, the acceptor discards decided and accepted state below it,
//     bounding log memory on long runs (see RingConfig::checkpoint_ackers).
//
// Truncation must not break coordinator failover: a new coordinator derives
// its starting instance from the maximum accepted instance reported in
// PROMISEs, so if every accepted entry has been truncated it would restart
// at instance 0 and decide fresh values at instances every learner has
// already passed.  PROMISE therefore also carries the truncation floor and
// the coordinator never proposes below it.
#pragma once

#include <atomic>
#include <deque>
#include <map>
#include <memory>
#include <vector>

#include "paxos/types.h"
#include "transport/endpoint.h"

namespace psmr::paxos {

/// Message schemas (util::Writer layouts) used between ring participants:
///   PREPARE   : ballot u64, from_instance u64
///   PROMISE   : ballot u64, low_water u64,
///               n u32, n * { instance u64, ballot u64, value bytes }
///   ACCEPT    : ballot u64, instance u64, value bytes
///   ACCEPTED  : ballot u64, instance u64
///   NACK      : promised_ballot u64
///   DECIDE    : instance u64, value bytes
///   CATCHUPREQ: from u64, to u64 (inclusive)
///   CATCHUPREP: n u32, n * { instance u64, value bytes }
///   CHECKPOINTACK: replica u64, instance u64 (checkpoint covers < instance)
class Acceptor : public transport::Endpoint {
 public:
  Acceptor(transport::Network& net, RingId ring,
           std::size_t checkpoint_ackers = 0)
      : Endpoint(net, "acceptor-ring" + std::to_string(ring)),
        checkpoint_ackers_(checkpoint_ackers) {}
  ~Acceptor() override { stop(); }

  /// Test/monitoring hooks.  The atomics are safe from any thread; use them
  /// to watch log growth and truncation while the ring is live.
  [[nodiscard]] Ballot promised() const { return promised_; }
  [[nodiscard]] std::size_t decided_count() const {
    return decided_size_.load(std::memory_order_relaxed);
  }
  /// Lowest instance still retained; everything below it was truncated.
  [[nodiscard]] Instance low_water() const {
    return low_water_.load(std::memory_order_relaxed);
  }
  /// Total decided instances discarded by checkpoint truncation.
  [[nodiscard]] std::uint64_t truncated_instances() const {
    return truncated_.load(std::memory_order_relaxed);
  }

 protected:
  void handle(transport::Message msg) override;

 private:
  void on_prepare(transport::NodeId from, util::Reader& r);
  void on_accept(transport::NodeId from, const util::Payload& payload);
  void on_decide(util::Reader& r);
  void on_catchup(transport::NodeId from, util::Reader& r);
  void on_checkpoint_ack(util::Reader& r);

  // The log: one 24-byte Record per instance in [low_water_, low_water_ +
  // log_.size()), indexed densely.  An undecided instance holds its ACCEPT
  // value as a zero-copy Payload in a held_ slot, so the frame stays
  // pinned only while the instance is in flight.  The first DECIDE copies
  // the value into the arena, an append-only list of fixed-size chunks,
  // and releases the slot: a decided instance costs its Record plus its
  // value bytes, and holds no pooled frame.
  enum class State : std::uint8_t { kEmpty, kAccepted, kDecided };
  struct Record {
    /// Highest ballot this acceptor accepted the instance at; 0 when it
    /// only learned the value from a DECIDE.
    Ballot ballot = 0;
    /// kAccepted: index into held_.  kDecided: arena chunk number.
    std::uint32_t where = 0;
    /// kDecided: byte offset within the chunk and value length.
    std::uint32_t offset = 0;
    std::uint32_t len = 0;
    State state = State::kEmpty;
  };
  static_assert(sizeof(Record) == 24);

  struct Chunk {
    std::unique_ptr<std::uint8_t[]> bytes;  ///< null once freed
    std::uint32_t used = 0;
    std::uint32_t capacity = 0;
    Instance max_instance = 0;  ///< highest instance with bytes here
  };
  /// Arena chunk size.  A value larger than this gets a chunk of its own.
  static constexpr std::uint32_t kChunkBytes = 64 * 1024;

  /// The record for `inst`, growing the log as needed; nullptr below the
  /// truncation floor or absurdly far past the log end.
  Record* record(Instance inst);
  /// The bytes a Record refers to (kAccepted or kDecided).
  [[nodiscard]] std::span<const std::uint8_t> value_of(const Record& rec) const;
  /// Copies `value` into the arena and marks `rec` decided.
  void store_decided(Record& rec, Instance inst,
                     std::span<const std::uint8_t> value);
  void release_held(Record& rec);

  const std::size_t checkpoint_ackers_;
  Ballot promised_ = 0;
  std::deque<Record> log_;  ///< log_[0] is instance low_water_
  std::vector<util::Payload> held_;
  std::vector<std::uint32_t> free_held_;
  std::deque<Chunk> chunks_;
  std::uint32_t first_chunk_ = 0;  ///< chunk number of chunks_.front()
  /// Per-replica checkpoint acknowledgment (replica id -> acked instance).
  /// Keyed by stable replica index, so a crashed replica's last ack pins the
  /// floor until it restarts and re-acks — the suffix it will replay can
  /// never be truncated out from under it.
  std::map<std::uint64_t, Instance> acks_;
  std::atomic<std::size_t> decided_size_{0};
  std::atomic<Instance> low_water_{0};
  std::atomic<std::uint64_t> truncated_{0};
};

}  // namespace psmr::paxos
