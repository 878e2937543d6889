// Shared types and wire formats for the per-group Paxos sequence ("ring").
//
// The paper's multicast library composes "multiple parallel instances of
// Paxos; each multicast group is mapped to one or more Paxos instances"
// (Section VI-A), with commands batched by the group's coordinator up to
// 8 KB and order established on batches.  A Ring here is one such sequence:
// a coordinator, a set of acceptors (3 by default, tolerating f=1), and any
// number of learners receiving the decided batch stream.
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "util/buffer_pool.h"
#include "util/bytes.h"
#include "util/hash.h"

namespace psmr::paxos {

/// Paxos ballot number.  Encoded as round * 2^16 + proposer index so that
/// concurrent proposers never collide.
using Ballot = std::uint64_t;

/// Position in the ring's decided sequence (consensus instance).
using Instance = std::uint64_t;

/// Identifies a ring (the multicast layer maps group ids onto ring ids 1:1).
using RingId = std::uint32_t;

constexpr Ballot make_ballot(std::uint64_t round, std::uint32_t proposer) {
  return round * 65536 + proposer;
}

/// What a decided instance carries: either a batch of opaque commands or a
/// SKIP no-op that delivers nothing (Multi-Ring Paxos's skip mechanism,
/// paper ref [9]).
///
/// Every batch carries a clock slot, which is what the multicast merge
/// orders on (see multicast/merge.h).  The coordinator stamps a command
/// batch with its clock in microseconds; a skip's slot is a lease end, the
/// ring's promise to decide nothing earlier.  Failover no-op fills carry
/// slot 0.
///
/// Commands are util::Payload handles: encode() writes them once into a
/// pooled block, and decode() hands back zero-copy subviews of the decide
/// payload — every command a learner delivers shares the one block its
/// DECIDE arrived in.  Wire format: u8 skip, u64 slot, u32 n, n
/// length-prefixed commands, CRC32 tail.
struct Batch {
  bool skip = false;
  std::uint64_t slot = 0;
  std::vector<util::Payload> commands;

  [[nodiscard]] std::size_t encoded_size() const {
    std::size_t n = 1 + 8 + 4 + 4;  // skip + slot + count + crc
    for (const auto& c : commands) n += 4 + c.size();
    return n;
  }

  [[nodiscard]] util::Payload encode() const {
    util::PayloadWriter w(encoded_size());
    w.u8(skip ? 1 : 0);
    w.u64(slot);
    w.u32(static_cast<std::uint32_t>(commands.size()));
    for (const auto& c : commands) w.bytes(c);
    w.u32(util::Crc32::of(w.view()));
    return w.take();
  }

  /// The fixed value header, read without the CRC check or the command
  /// walk decode() does.
  struct Header {
    bool skip = false;
    std::uint64_t slot = 0;
    std::uint32_t count = 0;
  };
  static std::optional<Header> peek(std::span<const std::uint8_t> data) {
    if (data.size() < 1 + 8 + 4 + 4) return std::nullopt;
    util::Reader r(data);
    Header h;
    h.skip = r.u8() != 0;
    h.slot = r.u64();
    h.count = r.u32();
    return h;
  }

  /// Decodes from a Payload; command entries are subviews sharing `data`'s
  /// block (no per-command copy).
  static std::optional<Batch> decode(const util::Payload& data) {
    if (data.size() < 4) return std::nullopt;
    auto body = data.view().first(data.size() - 4);
    util::Reader crc_r(data.view().subspan(data.size() - 4));
    if (crc_r.u32() != util::Crc32::of(body)) return std::nullopt;
    try {
      util::Reader r(body);
      Batch b;
      b.skip = r.u8() != 0;
      b.slot = r.u64();
      std::uint32_t n = r.u32();
      b.commands.reserve(n);
      for (std::uint32_t i = 0; i < n; ++i) {
        b.commands.push_back(data.subview_of(r.bytes_view()));
      }
      return b;
    } catch (const util::DecodeError&) {
      return std::nullopt;
    }
  }
};

/// A decided instance as surfaced to learners, in instance order.
struct Decision {
  Instance instance = 0;
  Batch batch;
};

/// Tuning knobs for one ring.
struct RingConfig {
  /// Number of acceptors; quorum is a majority.  3 tolerates one failure,
  /// matching the paper's configuration (Section VI-A).
  std::size_t num_acceptors = 3;
  /// Maximum batch payload before the coordinator seals it (paper: 8 KB).
  std::size_t max_batch_bytes = 8192;
  /// Maximum commands per batch regardless of size.
  std::size_t max_batch_commands = 256;
  /// How long the coordinator waits for more commands before sealing a
  /// non-empty batch.  A ring whose submits arrive further apart than this
  /// seals at once instead.
  std::chrono::microseconds batch_timeout{200};
  /// Lease length for merged rings: a SKIP's slot is its proposal time plus
  /// this, a promise that the ring decides nothing earlier.  Skips are
  /// proposed on demand, when a merge peer's proposal outruns the lease
  /// (kPaxosCover), and as a fallback once an rto after the lease lapses.
  /// Zero disables skips (single-ring users).
  std::chrono::microseconds skip_interval{0};
  /// Max undecided instances in flight (pipelining).
  std::size_t pipeline_window = 64;
  /// Retransmission timeout for PREPARE/ACCEPT under message loss; an
  /// instance's resend interval doubles from here up to 8x.
  std::chrono::microseconds rto{5000};
  /// Log truncation: number of distinct replicas whose CHECKPOINTACK must
  /// cover an instance before acceptors may discard it.  A replica acks
  /// instance i once a durable checkpoint makes every instance < i
  /// replayable from its snapshot, so with acks from *all* replicas the
  /// prefix below min(acked) can never be needed again.  0 (default)
  /// disables truncation: each acceptor's log then grows by one 24-byte
  /// index record plus the value bytes per decided instance, forever.
  std::size_t checkpoint_ackers = 0;
};

}  // namespace psmr::paxos
