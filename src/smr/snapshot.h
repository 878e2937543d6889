// Checkpoint snapshot frame: the durable unit of replica recovery.
//
// A checkpoint is cut at a marker command (smr::kCheckpointMarker) that the
// multicast bus places at one well-defined position of every replica's
// merged delivery sequence, so the frame captures a *consistent* cut: the
// service state after exactly `executed` commands, plus, per worker, the
// stream positions / merge slots and heads / undelivered merged tail at
// that cut and
// the client dedup table that suppresses duplicate replies on replay.
// Everything in the frame is a deterministic function of the delivery
// streams, so replicas cutting the same marker produce byte-identical
// frames — which tests exploit to verify the mechanism end to end.
//
// Wire layout (util::Writer, little-endian), hardened like
// response_batch.h: magic + version up front, counts validated against hard
// caps and remaining bytes, and an FNV-1a digest over every preceding byte
// at the tail.  decode_snapshot() returns std::nullopt on any malformation;
// a truncated or bit-flipped frame can never install.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "paxos/types.h"
#include "smr/command.h"
#include "util/bytes.h"

namespace psmr::smr {

/// Per-deployment checkpointing knobs (see DeploymentConfig::checkpoint).
struct CheckpointOptions {
  /// Master switch; off keeps the seed behavior (no markers, no snapshots,
  /// no truncation acks).
  bool enabled = false;
  /// Worker 0 multicasts a checkpoint marker after this many locally
  /// executed commands.  0 = manual triggers only
  /// (PsmrReplica::trigger_checkpoint / Deployment::trigger_checkpoint).
  std::uint64_t interval_commands = 0;
  /// Stable replica index used in truncation acks.  Acceptors key their
  /// checkpoint-acknowledgment floor by it, so a crashed replica's last ack
  /// keeps pinning the floor until the restarted replica re-acks — the log
  /// suffix it must replay cannot be truncated while it is down.
  std::uint64_t replica_id = 0;
};

/// One client's dedup entry: highest executed seq and its cached response.
struct SnapshotDedupEntry {
  ClientId client = 0;
  Seq seq = 0;
  util::Buffer response;
};

/// One undelivered merged-tail entry (a marker can land mid-batch: commands
/// fanned out of the same decided batch but not yet delivered).
struct SnapshotPending {
  std::uint32_t stream = 0;
  util::Buffer message;
};

/// A decided batch the merge had fetched but not consumed at the cut (its
/// stream's head; see multicast::MergeDeliverer::head).
struct SnapshotHead {
  std::uint32_t stream = 0;
  std::uint64_t slot = 0;
  bool skip = false;
  std::vector<util::Buffer> commands;
};

/// Everything one worker needs to resume its merged stream exactly at the
/// cut.
struct WorkerSnapshot {
  /// Next unfetched instance per stream (group ring first, then the shared
  /// ring when one exists) — the subscribe_at() resume points.
  std::vector<paxos::Instance> positions;
  /// Per stream, the effective slot of the last decision the merge
  /// consumed.
  std::vector<std::uint64_t> slots;
  /// Held heads, at most one per stream, in strictly increasing stream
  /// order.
  std::vector<SnapshotHead> heads;
  std::vector<SnapshotPending> pending;
  /// Sorted by client (strictly increasing) — canonical form, so equal
  /// tables encode to equal bytes.
  std::vector<SnapshotDedupEntry> dedup;
};

struct SnapshotFrame {
  /// Commands executed by the replica up to the cut.
  std::uint64_t executed = 0;
  /// Service::state_digest() at the cut; re-verified after restore.
  std::uint64_t service_digest = 0;
  std::vector<WorkerSnapshot> workers;
  /// Service::snapshot_to() payload (service-private layout).
  util::Buffer service_state;
};

[[nodiscard]] util::Buffer encode_snapshot(const SnapshotFrame& frame);

/// Paranoid decode: magic/version/caps/count-vs-bytes/digest checks; any
/// failure (including trailing bytes) yields std::nullopt.
[[nodiscard]] std::optional<SnapshotFrame> decode_snapshot(
    std::span<const std::uint8_t> data);

}  // namespace psmr::smr
