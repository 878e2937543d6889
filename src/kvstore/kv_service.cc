#include "kvstore/kv_service.h"

#include "util/hash.h"

namespace psmr::kvstore {

util::Buffer encode_key(std::uint64_t k) {
  util::Writer w;
  w.u64(k);
  return w.take();
}

util::Buffer encode_key_value(std::uint64_t k, std::uint64_t v) {
  util::Writer w;
  w.u64(k);
  w.u64(v);
  return w.take();
}

util::Buffer encode_key_range(std::uint64_t lo, std::uint64_t hi) {
  util::Writer w;
  w.u64(lo);
  w.u64(hi);
  return w.take();
}

util::Buffer encode_keys(const std::vector<std::uint64_t>& keys) {
  util::Writer w;
  w.u32(static_cast<std::uint32_t>(keys.size()));
  for (std::uint64_t k : keys) w.u64(k);
  return w.take();
}

std::uint64_t decode_key(std::span<const std::uint8_t> params) {
  util::Reader r(params);
  return r.u64();
}

bool decode_keys(std::span<const std::uint8_t> params,
                 std::vector<std::uint64_t>& out) {
  util::Reader r(params);
  if (r.remaining() < 4) return false;
  const std::uint32_t n = r.u32();
  if (n > r.remaining() / 8) return false;
  for (std::uint32_t i = 0; i < n; ++i) out.push_back(r.u64());
  return true;
}

util::Buffer encode_result(KvResult res) {
  // Reserved to the exact size: one allocation per result, not one per
  // vector growth.
  util::Buffer buf;
  buf.reserve(1 + 8);
  util::Writer w(std::move(buf));
  w.u8(res.status);
  w.u64(res.value);
  return w.take();
}

KvResult decode_result(const util::Buffer& payload) {
  util::Reader r(payload);
  KvResult res;
  res.status = static_cast<KvStatus>(r.u8());
  res.value = r.u64();
  return res;
}

util::Buffer encode_multi_result(const KvMultiResult& res) {
  util::Buffer buf;
  buf.reserve(4 + res.entries.size() * (1 + 8));
  util::Writer w(std::move(buf));
  w.u32(static_cast<std::uint32_t>(res.entries.size()));
  for (const KvResult& e : res.entries) {
    w.u8(e.status);
    w.u64(e.value);
  }
  return w.take();
}

KvMultiResult decode_multi_result(const util::Buffer& payload) {
  util::Reader r(payload);
  KvMultiResult res;
  std::uint32_t n = r.u32();
  res.entries.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    KvResult e;
    e.status = static_cast<KvStatus>(r.u8());
    e.value = r.u64();
    res.entries.push_back(e);
  }
  return res;
}

namespace {

// Shared command interpreter over any tree with the same micro-API.  Every
// command decodes all of its parameters before it touches the tree, so a
// short block fails before any state changes and is answered with
// kKvBadParams.
template <typename Tree>
util::Buffer run_command(Tree& tree, const smr::Command& cmd) try {
  util::Reader r(cmd.params);
  KvResult res;
  switch (cmd.cmd) {
    case kKvInsert: {
      std::uint64_t k = r.u64();
      std::uint64_t v = r.u64();
      res.status = tree.insert(k, v) ? kKvOk : kKvExists;
      break;
    }
    case kKvDelete: {
      std::uint64_t k = r.u64();
      res.status = tree.erase(k) ? kKvOk : kKvNotFound;
      break;
    }
    case kKvRead: {
      std::uint64_t k = r.u64();
      if (auto v = tree.find(k)) {
        res.value = *v;
      } else {
        res.status = kKvNotFound;
      }
      break;
    }
    case kKvUpdate: {
      std::uint64_t k = r.u64();
      std::uint64_t v = r.u64();
      res.status = tree.update(k, v) ? kKvOk : kKvNotFound;
      break;
    }
    case kKvScan: {
      // Leaf-chain fast path: fold the covered pairs into an
      // order-sensitive digest (same mix as the tree digest) xor the count,
      // so replicas can cross-check range contents in one round trip.
      std::uint64_t lo = r.u64();
      std::uint64_t hi = r.u64();
      std::uint64_t h = util::kFoldSeed;
      std::size_t n =
          tree.range_scan(lo, hi, [&h](std::uint64_t k, std::uint64_t v) {
            h = util::fold_kv(h, k, v);
          });
      res.value = h ^ n;
      break;
    }
    case kKvMultiRead: {
      std::vector<std::uint64_t> keys;
      if (!decode_keys(cmd.params, keys)) {
        res.status = kKvBadParams;
        break;
      }
      const auto n = static_cast<std::uint32_t>(keys.size());
      KvMultiResult multi;
      multi.entries.resize(n);
      if constexpr (requires(std::optional<std::uint64_t>* out) {
                      tree.find_batch(keys.data(), keys.size(), out);
                    }) {
        // Pipelined multi-get: the lookups' miss chains overlap.
        std::vector<std::optional<std::uint64_t>> vals(n);
        tree.find_batch(keys.data(), n, vals.data());
        for (std::uint32_t i = 0; i < n; ++i) {
          if (vals[i]) {
            multi.entries[i].value = *vals[i];
          } else {
            multi.entries[i].status = kKvNotFound;
          }
        }
      } else {
        for (std::uint32_t i = 0; i < n; ++i) {
          if (auto v = tree.find(keys[i])) {
            multi.entries[i].value = *v;
          } else {
            multi.entries[i].status = kKvNotFound;
          }
        }
      }
      return encode_multi_result(multi);
    }
    default:
      res.status = kKvNotFound;
  }
  return encode_result(res);
} catch (const util::DecodeError&) {
  return encode_result({kKvBadParams, 0});
}

template <typename Tree>
void preload(Tree& tree, std::uint64_t n) {
  for (std::uint64_t k = 0; k < n; ++k) tree.insert(k, k);
}

/// Shared independence matrix for both service variants: flattened
/// kv_cdep() + kv_key_fn(), built once.
const smr::CDepMatrix& kv_cdep_matrix() {
  static const smr::CDepMatrix matrix(kv_cdep(), kKvMaxCommand, kv_key_fn());
  return matrix;
}

/// Shared KV snapshot layout: u64 count, count * { u64 key, u64 value } in
/// ascending key order (for_each's leaf-chain walk), so equivalent trees
/// always serialize to identical bytes.
template <typename Tree>
bool snapshot_tree(const Tree& tree, util::Writer& w) {
  w.u64(tree.size());
  tree.for_each([&](std::uint64_t k, std::uint64_t v) {
    w.u64(k);
    w.u64(v);
  });
  return true;
}

template <typename Tree>
bool restore_tree(Tree& tree, util::Reader& r) {
  try {
    std::uint64_t count = r.u64();
    if (count * 16 != r.remaining()) return false;
    tree.clear();
    std::uint64_t prev = 0;
    for (std::uint64_t i = 0; i < count; ++i) {
      std::uint64_t k = r.u64();
      std::uint64_t v = r.u64();
      if (i != 0 && k <= prev) return false;  // must be strictly ascending
      prev = k;
      tree.insert(k, v);
    }
    return true;
  } catch (const util::DecodeError&) {
    return false;
  }
}

}  // namespace

KvService::KvService() = default;

KvService::KvService(std::uint64_t initial_keys) {
  preload(tree_, initial_keys);
}

bool KvService::may_share_batch(const smr::Command& x,
                                const smr::Command& y) const {
  return kv_cdep_matrix().independent(x, y);
}

bool KvService::snapshot_to(util::Writer& w) const {
  return snapshot_tree(tree_, w);
}

bool KvService::restore_from(util::Reader& r) {
  return restore_tree(tree_, r);
}

void KvService::do_execute_batch(smr::CommandBatch& batch) {
  const std::span<const smr::Command> cmds = batch.commands;
  if (cmds.size() == 1) {
    batch.sink->accept(0, run_command(tree_, cmds[0]));
    return;
  }
  // Split the batch into its read lanes: every point read's key and every
  // multi-read's key list flow into one find_batch pass (their miss chains
  // overlap across commands), while writes and scans execute in batch
  // order.  Resolving the reads after the writes is order-equivalent —
  // batch members are pairwise independent.
  struct Lane {
    std::size_t index;  // batch command index
    std::size_t first;  // offset into keys
    std::uint32_t count;
  };
  std::vector<std::uint64_t> keys;
  std::vector<Lane> lanes;
  // A malformed read joins no lane: run_command answers it.
  for (std::size_t i = 0; i < cmds.size(); ++i) {
    const smr::Command& c = cmds[i];
    const std::size_t first = keys.size();
    if (c.cmd == kKvRead && c.params.size() >= 8) {
      keys.push_back(decode_key(c.params));
      lanes.push_back({i, first, 1});
    } else if (c.cmd == kKvMultiRead && decode_keys(c.params, keys)) {
      lanes.push_back(
          {i, first, static_cast<std::uint32_t>(keys.size() - first)});
    } else {
      batch.sink->accept(i, run_command(tree_, c));
    }
  }
  if (lanes.empty()) return;
  std::vector<std::optional<std::uint64_t>> vals(keys.size());
  tree_.find_batch(keys.data(), keys.size(), vals.data());
  for (const Lane& lane : lanes) {
    if (cmds[lane.index].cmd == kKvRead) {
      KvResult res;
      if (vals[lane.first]) {
        res.value = *vals[lane.first];
      } else {
        res.status = kKvNotFound;
      }
      batch.sink->accept(lane.index, encode_result(res));
    } else {
      KvMultiResult multi;
      multi.entries.resize(lane.count);
      for (std::uint32_t j = 0; j < lane.count; ++j) {
        if (vals[lane.first + j]) {
          multi.entries[j].value = *vals[lane.first + j];
        } else {
          multi.entries[j].status = kKvNotFound;
        }
      }
      batch.sink->accept(lane.index, encode_multi_result(multi));
    }
  }
  note_batched_reads(lanes.size());
}

ConcurrentKvService::ConcurrentKvService(std::uint64_t initial_keys) {
  preload(tree_, initial_keys);
}

bool ConcurrentKvService::may_share_batch(const smr::Command& x,
                                          const smr::Command& y) const {
  return kv_cdep_matrix().independent(x, y);
}

bool ConcurrentKvService::snapshot_to(util::Writer& w) const {
  return snapshot_tree(tree_, w);
}

bool ConcurrentKvService::restore_from(util::Reader& r) {
  return restore_tree(tree_, r);
}

void ConcurrentKvService::do_execute_batch(smr::CommandBatch& batch) {
  for (std::size_t i = 0; i < batch.size(); ++i) {
    batch.sink->accept(i, run_command(tree_, batch.commands[i]));
  }
}

smr::CDep kv_cdep() {
  smr::CDep dep;
  // Inserts and deletes depend on all commands (tree restructuring).
  for (smr::CommandId other :
       {kKvInsert, kKvDelete, kKvRead, kKvUpdate, kKvScan, kKvMultiRead}) {
    dep.always(kKvInsert, other);
    dep.always(kKvDelete, other);
  }
  // An update on k depends on updates and reads on the same k.
  dep.same_key(kKvUpdate, kKvUpdate);
  dep.same_key(kKvUpdate, kKvRead);
  // Scan/multi-read touch arbitrarily many keys, so they depend on every
  // update (a same-key entry cannot express a key set); they are reads,
  // so they stay independent of reads and of each other.
  dep.always(kKvScan, kKvUpdate);
  dep.always(kKvMultiRead, kKvUpdate);
  return dep;
}

smr::KeyFn kv_key_fn() {
  return [](const smr::Command& cmd) -> std::optional<std::uint64_t> {
    switch (cmd.cmd) {
      case kKvInsert:
      case kKvDelete:
      case kKvRead:
      case kKvUpdate:
        if (cmd.params.size() < 8) return std::nullopt;
        return decode_key(cmd.params);
      default:
        return std::nullopt;  // scan/multi-read carry no single key
    }
  };
}

std::shared_ptr<const smr::CGFunction> kv_keyed_cg(std::size_t k) {
  return smr::from_cdep(kv_cdep(), k, kv_key_fn(), kKvMaxCommand);
}

std::shared_ptr<const smr::CGFunction> kv_coarse_cg(std::size_t k) {
  return std::make_shared<smr::CoarseCg>(
      k, std::unordered_set<smr::CommandId>{kKvRead});
}

std::shared_ptr<const smr::CGFunction> kv_sharded_cg(
    const multicast::ShardMap& map) {
  // Soundness vs kv_cdep(): insert/delete stay global, covering their
  // ALWAYS edges; read/update SAME-KEY pairs share the key's shard; and the
  // multi-key reads' ALWAYS(·, update) edges are covered per instance — any
  // update whose key a scan or multi-read actually touches maps (through
  // the same ShardMap) to a shard the read covers.
  smr::RangeFn scan_range = [](const smr::Command& cmd)
      -> std::optional<std::pair<std::uint64_t, std::uint64_t>> {
    if (cmd.cmd != kKvScan || cmd.params.size() < 16) return std::nullopt;
    util::Reader r(cmd.params);
    std::uint64_t lo = r.u64();
    return std::make_pair(lo, r.u64());
  };
  smr::KeyListFn multiread_keys = [](const smr::Command& cmd)
      -> std::optional<std::vector<std::uint64_t>> {
    std::vector<std::uint64_t> keys;
    if (cmd.cmd != kKvMultiRead || !decode_keys(cmd.params, keys)) {
      return std::nullopt;
    }
    return keys;
  };
  return std::make_shared<smr::ShardedCg>(
      map, kv_key_fn(),
      std::unordered_set<smr::CommandId>{kKvInsert, kKvDelete},
      std::move(scan_range), std::move(multiread_keys));
}

}  // namespace psmr::kvstore
