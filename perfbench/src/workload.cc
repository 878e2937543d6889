#include "workload.h"

#include <cmath>
#include <cstdio>
#include <deque>

#include "kvstore/kv_service.h"
#include "netfs/fs_service.h"
#include "util/hash.h"
#include "util/rng.h"

namespace perfbench {

using psmr::smr::Mode;
namespace kv = psmr::kvstore;
namespace fs = psmr::netfs;
namespace util = psmr::util;

const WorkloadSpec* find_workload(std::string_view name) {
  static const std::vector<WorkloadSpec> all = {
      {"kv-read-psmr", Service::kKv, Mode::kPsmr, 4, Mix{100, 0, 0, 0}, false,
       10'000},
      {"kv-mixed-psmr", Service::kKv, Mode::kPsmr, 4, Mix{90, 6, 2, 2}, true,
       5'000},
      {"kv-read-smr", Service::kKv, Mode::kSmr, 1, Mix{100, 0, 0, 0}, false,
       80'000},
      {"fs-rw-spsmr", Service::kFs, Mode::kSpsmr, 2, Mix{50, 50, 0, 0}, false,
       20'000},
  };
  for (const auto& w : all) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

namespace {

std::uint64_t stream_seed(std::uint64_t seed, std::string_view a,
                          std::string_view b) {
  return util::mix64(seed ^ util::mix64(util::fnv1a(a)) ^
                     util::mix64(util::fnv1a(b) + 1));
}

/// A 1 KB block that compresses about as well as text: half of its 8-byte
/// chunks repeat an earlier chunk, the rest are random lowercase letters.
util::Buffer make_block(util::SplitMix64& rng) {
  util::Buffer b(kFsBlockBytes);
  for (std::size_t at = 0; at < b.size(); at += 8) {
    if (at >= 64 && rng.chance(0.5)) {
      std::size_t from = 8 * rng.next_below(at / 8);
      for (std::size_t j = 0; j < 8; ++j) b[at + j] = b[from + j];
    } else {
      for (std::size_t j = 0; j < 8; ++j) {
        b[at + j] = static_cast<std::uint8_t>('a' + rng.next_below(26));
      }
    }
  }
  return b;
}

std::uint64_t block_hash(std::span<const std::uint8_t> data) {
  return util::fnv1a(data);
}

/// Values written by updates: tagged so they never equal a preloaded value.
std::uint64_t update_value(std::uint32_t phase_id, std::size_t i) {
  return (1ULL << 62) | (static_cast<std::uint64_t>(phase_id) << 40) | i;
}

/// Inserted keys lie above the preloaded range, distinct per phase.
std::uint64_t insert_key(std::uint32_t phase_id, std::size_t i) {
  return kKvKeys + (static_cast<std::uint64_t>(phase_id) << 32) + i;
}

const char* kind_name(OpKind k) {
  switch (k) {
    case OpKind::kKvRead: return "read";
    case OpKind::kKvUpdate: return "update";
    case OpKind::kKvInsert: return "insert";
    case OpKind::kKvDelete: return "delete";
    case OpKind::kFsRead: return "read";
    case OpKind::kFsWrite: return "write";
  }
  return "?";
}

/// A delete targets a key inserted at least this many arrivals earlier in
/// the same phase, so the insert has long completed and the delete always
/// finds its key.
constexpr std::size_t kDeleteLag = 2000;

}  // namespace

Inputs::Inputs(const WorkloadSpec& spec, std::uint64_t seed)
    : spec_(spec), seed_(seed), fs_written_(kFsFiles) {
  if (spec_.service != Service::kFs) return;
  util::SplitMix64 rng(stream_seed(seed_, spec_.name, "blocks"));
  for (std::size_t f = 0; f < kFsFiles; ++f) {
    char name[16];
    std::snprintf(name, sizeof(name), "/f%03zu", f);
    paths_.emplace_back(name);
    preload_blocks_.push_back(make_block(rng));
  }
  for (std::size_t b = 0; b < kFsWriteBlocks; ++b) {
    write_blocks_.push_back(make_block(rng));
  }
}

std::vector<Arrival> Inputs::schedule(std::string_view phase,
                                      std::uint32_t phase_id, double rate_cps,
                                      double seconds) {
  util::SplitMix64 rng(stream_seed(seed_, spec_.name, phase));
  util::Zipf zipf(kKvKeys, 1.0);
  std::vector<Arrival> out;
  out.reserve(static_cast<std::size_t>(rate_cps * seconds * 1.1) + 16);
  const double horizon_ns = seconds * 1e9;
  const double mean_gap_ns = 1e9 / rate_cps;
  std::deque<std::pair<std::size_t, std::uint64_t>> inserted;  // (arrival, key)
  double t = 0;
  while (true) {
    t += -std::log(1.0 - rng.next_double()) * mean_gap_ns;
    if (t >= horizon_ns) break;
    Arrival a;
    a.due_ns = static_cast<std::int64_t>(t);
    const std::size_t i = out.size();
    const int pick = static_cast<int>(rng.next_below(100));
    if (spec_.service == Service::kFs) {
      a.op.key = rng.next_below(kFsFiles);
      if (pick < spec_.mix.read) {
        a.op.kind = OpKind::kFsRead;
      } else {
        a.op.kind = OpKind::kFsWrite;
        a.op.value = rng.next_below(kFsWriteBlocks);
        fs_written_[a.op.key].insert(
            block_hash(write_blocks_[a.op.value]));
      }
      out.push_back(a);
      continue;
    }
    const std::uint64_t key =
        spec_.zipf ? zipf.sample(rng) : rng.next_below(kKvKeys);
    const Mix& m = spec_.mix;
    if (pick < m.read) {
      a.op = Op{OpKind::kKvRead, key, 0};
    } else if (pick < m.read + m.update) {
      a.op = Op{OpKind::kKvUpdate, key, update_value(phase_id, i)};
      kv_written_[key].push_back(a.op.value);
    } else if (pick < m.read + m.update + m.insert) {
      const std::uint64_t k = insert_key(phase_id, i);
      a.op = Op{OpKind::kKvInsert, k, k};
      inserted.emplace_back(i, k);
    } else if (!inserted.empty() && inserted.front().first + kDeleteLag <= i) {
      a.op = Op{OpKind::kKvDelete, inserted.front().second, 0};
      inserted.pop_front();
    } else {
      // No insert old enough to delete yet (start of a phase): read.
      a.op = Op{OpKind::kKvRead, key, 0};
    }
    out.push_back(a);
  }
  return out;
}

psmr::smr::CommandId Inputs::command_of(const Op& op) const {
  switch (op.kind) {
    case OpKind::kKvRead: return kv::kKvRead;
    case OpKind::kKvUpdate: return kv::kKvUpdate;
    case OpKind::kKvInsert: return kv::kKvInsert;
    case OpKind::kKvDelete: return kv::kKvDelete;
    case OpKind::kFsRead: return fs::kFsRead;
    case OpKind::kFsWrite: return fs::kFsWrite;
  }
  return 0;
}

util::Buffer Inputs::params_of(const Op& op) const {
  switch (op.kind) {
    case OpKind::kKvRead:
    case OpKind::kKvDelete:
      return kv::encode_key(op.key);
    case OpKind::kKvUpdate:
    case OpKind::kKvInsert:
      return kv::encode_key_value(op.key, op.value);
    case OpKind::kFsRead:
      return fs::pack_params(
          fs::encode_read(paths_[op.key], 0, kFsBlockBytes));
    case OpKind::kFsWrite:
      return fs::pack_params(
          fs::encode_write(paths_[op.key], 0, write_blocks_[op.value]));
  }
  return {};
}

bool Inputs::check(const Op& op, const util::Buffer& payload,
                   std::string& why) const {
  char msg[160];
  if (spec_.service == Service::kFs) {
    const auto res = fs::decode_result(command_of(op), payload);
    if (res.err != 0) {
      std::snprintf(msg, sizeof(msg), "netfs %s %s returned errno %d",
                    kind_name(op.kind), paths_[op.key].c_str(), res.err);
      why = msg;
      return false;
    }
    if (op.kind == OpKind::kFsWrite) return true;
    const bool ok =
        res.data.size() == kFsBlockBytes &&
        (res.data == preload_blocks_[op.key] ||
         fs_written_[op.key].contains(block_hash(res.data)));
    if (!ok) {
      std::snprintf(msg, sizeof(msg),
                    "netfs read %s returned %zu bytes matching no block "
                    "written to it",
                    paths_[op.key].c_str(), res.data.size());
      why = msg;
    }
    return ok;
  }
  const auto res = kv::decode_result(payload);
  if (res.status != kv::kKvOk) {
    std::snprintf(msg, sizeof(msg), "kv %s of key %llu returned status %d",
                  kind_name(op.kind), static_cast<unsigned long long>(op.key),
                  static_cast<int>(res.status));
    why = msg;
    return false;
  }
  if (op.kind != OpKind::kKvRead || res.value == op.key) return true;
  auto it = kv_written_.find(op.key);
  if (it != kv_written_.end()) {
    for (std::uint64_t v : it->second) {
      if (v == res.value) return true;
    }
  }
  std::snprintf(msg, sizeof(msg), "kv read of key %llu returned %llu",
                static_cast<unsigned long long>(op.key),
                static_cast<unsigned long long>(res.value));
  why = msg;
  return false;
}

psmr::smr::DeploymentConfig deployment_config(const WorkloadSpec& spec) {
  psmr::smr::DeploymentConfig cfg;
  cfg.mode = spec.mode;
  cfg.mpl = spec.mpl;
  if (spec.service == Service::kKv) {
    cfg.service_factory = [] {
      return std::make_unique<kv::KvService>(kKvKeys);
    };
    cfg.cg_factory = [](std::size_t k) { return kv::kv_keyed_cg(k); };
  } else {
    cfg.service_factory = [] {
      return psmr::smr::make_batched(std::make_unique<fs::FsService>());
    };
    cfg.cg_factory = [](std::size_t k) { return fs::fs_cg(k); };
  }
  return cfg;
}

bool preload(const WorkloadSpec& spec, const Inputs& inputs,
             psmr::smr::ClientProxy& proxy) {
  if (spec.service != Service::kFs) return true;
  // Pipelined: all creates, then all writes, each wave drained before the
  // next so every write finds its file.
  auto wave = [&](auto&& params_for, psmr::smr::CommandId cmd) {
    for (std::size_t f = 0; f < kFsFiles; ++f) {
      if (!proxy.submit(cmd, fs::pack_params(params_for(f)))) return false;
    }
    std::size_t done = 0;
    while (done < kFsFiles) {
      auto c = proxy.poll(std::chrono::seconds(10));
      if (!c || c->rejected || fs::decode_result(cmd, c->payload).err != 0) {
        return false;
      }
      ++done;
    }
    return true;
  };
  const auto create = [&](std::size_t f) {
    return fs::encode_path_mode(inputs.path(f), 0644);
  };
  const auto write = [&](std::size_t f) {
    return fs::encode_write(inputs.path(f), 0, inputs.preload_blocks()[f]);
  };
  return wave(create, fs::kFsCreate) && wave(write, fs::kFsWrite);
}

}  // namespace perfbench
