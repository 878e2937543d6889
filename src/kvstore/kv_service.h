// Replicated key-value store service — paper Section V-A.
//
// Commands (8-byte integer keys, 8-byte values):
//   insert(k, v) -> err     delete(k) -> err
//   read(k)      -> v, err  update(k, v) -> err
//
// C-Dep, exactly as the paper defines it: "inserts and deletes depend on
// all commands; an update on key k depends on other updates on k, on reads
// on k, and on inserts and deletes" — because inserts/deletes may
// restructure the B+-tree while reads/updates never do.
//
// Two multi-key read commands extend the paper's set: scan (leaf-chain
// range read) and multi-read (pipelined batched point reads).  Both read
// arbitrarily many keys, so they additionally depend on every update (a
// per-key entry cannot cover a range); like all reads they never
// restructure the tree.
#pragma once

#include <memory>
#include <vector>

#include "kvstore/bptree.h"
#include "kvstore/concurrent_bptree.h"
#include "smr/cdep.h"
#include "smr/cg.h"
#include "smr/service.h"
#include "smr/shard_cg.h"

namespace psmr::kvstore {

/// Command identifiers.
enum KvCommand : smr::CommandId {
  kKvInsert = 1,
  kKvDelete = 2,
  kKvRead = 3,
  kKvUpdate = 4,
  /// Range scan [lo, hi]: returns the count and an order-sensitive digest
  /// of the covered (key, value) pairs (leaf-chain fast path).
  kKvScan = 5,
  /// Multi-get: batched point reads resolved with the tree's pipelined
  /// find_batch (one result per requested key).
  kKvMultiRead = 6,
};

inline constexpr smr::CommandId kKvMaxCommand = kKvMultiRead;

/// Error codes returned in responses.
enum KvStatus : std::uint8_t {
  kKvOk = 0,
  kKvExists = 1,    // insert of a present key
  kKvNotFound = 2,  // read/update/delete of a missing key
  kKvBadParams = 3,  // parameter block too short for its command
};

// --- Parameter / response marshaling (client proxy & server proxy) ---

util::Buffer encode_key(std::uint64_t k);
util::Buffer encode_key_value(std::uint64_t k, std::uint64_t v);
/// Scan parameters: inclusive key range.
util::Buffer encode_key_range(std::uint64_t lo, std::uint64_t hi);
/// Multi-read parameters: the list of requested keys.
util::Buffer encode_keys(const std::vector<std::uint64_t>& keys);
/// Reads the key parameter of any single-key KV command.
std::uint64_t decode_key(std::span<const std::uint8_t> params);
/// Appends a multi-read's key list to `out`.  Returns false, leaving `out`
/// as it was, when the block is short or its count exceeds the keys it
/// holds; the count is checked before anything is sized by it.
bool decode_keys(std::span<const std::uint8_t> params,
                 std::vector<std::uint64_t>& out);

struct KvResult {
  KvStatus status = kKvOk;
  std::uint64_t value = 0;  // read: the value; scan: count ^ digest fold
};
util::Buffer encode_result(KvResult r);
KvResult decode_result(const util::Buffer& payload);

/// Multi-read response: one entry per requested key, in request order.
struct KvMultiResult {
  std::vector<KvResult> entries;
};
util::Buffer encode_multi_result(const KvMultiResult& r);
KvMultiResult decode_multi_result(const util::Buffer& payload);

// --- Service bindings ---

/// Deterministic single-instance service over the plain B+-tree.  Safe for
/// P-SMR's concurrency regime (structure changes are globally serialized by
/// the C-Dep; reads/updates touch single leaf slots atomically).
///
/// Natively batch-aware: execute_batch splits a run of independent commands
/// into its read lanes — point reads and multi-read key lists gathered into
/// one pipelined BPlusTree::find_batch pass whose miss chains overlap —
/// while every other command executes in batch order.  may_share_batch is
/// derived from the same kv_cdep() the C-G functions use, so batches only
/// ever contain commands whose relative order is irrelevant.
class KvService : public smr::Service {
 public:
  KvService();
  /// Pre-populates keys 0..initial_keys-1 (the paper initializes the tree
  /// with 10 million keys before measuring).
  explicit KvService(std::uint64_t initial_keys);

  [[nodiscard]] bool may_share_batch(const smr::Command& x,
                                     const smr::Command& y) const override;
  [[nodiscard]] std::uint64_t state_digest() const override {
    return tree_.digest();
  }
  [[nodiscard]] bool snapshot_to(util::Writer& w) const override;
  [[nodiscard]] bool restore_from(util::Reader& r) override;
  [[nodiscard]] const BPlusTree& tree() const { return tree_; }

 protected:
  void do_execute_batch(smr::CommandBatch& batch) override;

 private:
  BPlusTree tree_;
};

/// Internally synchronized variant over the latch-crabbing tree, for the
/// BDB-style lock server (fully concurrent callers, no external scheduler;
/// batches degrade to in-order execution — the concurrent tree's latching
/// would serialize a pipelined pass anyway).
class ConcurrentKvService : public smr::Service {
 public:
  ConcurrentKvService() = default;
  explicit ConcurrentKvService(std::uint64_t initial_keys);

  [[nodiscard]] bool may_share_batch(const smr::Command& x,
                                     const smr::Command& y) const override;
  [[nodiscard]] std::uint64_t state_digest() const override {
    return tree_.digest();
  }
  [[nodiscard]] bool snapshot_to(util::Writer& w) const override;
  [[nodiscard]] bool restore_from(util::Reader& r) override;
  [[nodiscard]] const ConcurrentBPlusTree& tree() const { return tree_; }

 protected:
  void do_execute_batch(smr::CommandBatch& batch) override;

 private:
  ConcurrentBPlusTree tree_;
};

// --- Dependency metadata (provided by the service designer, §IV-B) ---

/// The paper's C-Dep for this service.
smr::CDep kv_cdep();

/// Key extractor for same-key dependency checks and the keyed C-G; nullopt
/// for a parameter block too short to hold a key.
smr::KeyFn kv_key_fn();

/// Keyed C-G (paper's second example): read/update → group (key mod k);
/// insert/delete → all groups.
std::shared_ptr<const smr::CGFunction> kv_keyed_cg(std::size_t k);

/// Coarse C-G (paper's first example): read → one pseudo-random group;
/// everything else → all groups.
std::shared_ptr<const smr::CGFunction> kv_coarse_cg(std::size_t k);

/// Shard-aware C-G over an explicit key→group map (see smr/shard_cg.h):
/// read/update → the key's shard; scan → the shards its range intersects;
/// multi-read → the union of its keys' shards; insert/delete → all groups
/// (tree restructuring).  Refines kv_keyed_cg's conservative treatment of
/// the multi-key reads, which from_cdep can only send to every group.
std::shared_ptr<const smr::CGFunction> kv_sharded_cg(
    const multicast::ShardMap& map);

}  // namespace psmr::kvstore
