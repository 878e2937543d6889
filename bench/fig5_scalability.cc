// Figure 5 restaged for the sharding layer — P-SMR throughput vs the
// number of shards (one worker group + one multicast ring per shard) at a
// fixed 5% cross-shard conflict rate, measured on the live runtime.
//
// The paper's Fig. 5 sweeps worker threads per technique; in a sharded
// deployment the worker count IS the ring count, so this sweep answers the
// scaled-out version of the same question: does throughput keep growing as
// the keyspace splits across more rings, with a constant fraction of
// commands spanning shards (riding g_all and synchronizing their subset of
// workers)?  Expected shape: near-linear while independent traffic
// dominates, flattening as per-ring merge bookkeeping and cross-shard
// barriers grow with the ring count.
//
// --json FILE writes BENCH_shard.json: the per-shard-count points, tagged
// "source": "measured", plus the scaling ratio at kGateShards over
// kBaselineShards.  The ratio is reported, not gated.
#include "bench_common.h"

#include "smr/shard_spec.h"

using namespace psmr;
using namespace psmr::bench;

namespace {

// Inserts and deletes are global: the cross-shard commands of the sweep.
constexpr workload::KvMix kMix{48, 47, 3, 2};
constexpr double kConflictRate = (kMix.insert_pct + kMix.delete_pct) / 100;
constexpr int kBaselineShards = 1;
constexpr int kGateShards = 8;

/// Real-runtime deployment for one shard count: uniform spec, shard-aware
/// C-G, ring tuning stretched with the ring count as in the test harness.
smr::DeploymentConfig real_sharded_config(std::size_t shards,
                                          std::uint64_t keys) {
  auto spec = smr::make_uniform_shard_spec(shards, 2, keys,
                                           multicast::ShardPolicy::kHash);
  auto cfg = smr::shard_deployment_config(spec);
  cfg.ring.batch_timeout = std::chrono::microseconds(500);
  cfg.ring.skip_interval = std::chrono::microseconds(
      1500 * (shards > 8 ? static_cast<long>(shards / 8) : 1));
  cfg.ring.rto = std::chrono::microseconds(10000);
  cfg.service_factory = [keys] {
    return std::make_unique<kvstore::KvService>(keys);
  };
  auto map = spec.map();
  cfg.cg_factory = [map](std::size_t) { return kvstore::kv_sharded_cg(map); };
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt = Options::parse(argc, argv);
  print_title("Figure 5 (sharded): P-SMR throughput vs shard count");
  std::printf("conflict rate (cross-shard commands): %.2f\n", kConflictRate);

  const int shard_counts[] = {1, 2, 4, 8, 16, 32};
  const int n_points = opt.quick ? 4 : 6;  // quick stops at the gate point

  double kcps[6] = {};
  std::printf("%-8s %9s %12s\n", "shards", "kcps", "kcps/shard");
  for (int i = 0; i < n_points; ++i) {
    kcps[i] = run_kv(opt,
                     real_sharded_config(
                         static_cast<std::size_t>(shard_counts[i]), kKeys),
                     kMix)
                  .kcps;
    std::printf("%-8d %9.0f %12.1f\n", shard_counts[i], kcps[i],
                kcps[i] / shard_counts[i]);
  }

  double baseline = 0;
  double at_gate = 0;
  for (int i = 0; i < n_points; ++i) {
    if (shard_counts[i] == kBaselineShards) baseline = kcps[i];
    if (shard_counts[i] == kGateShards) at_gate = kcps[i];
  }
  double scaling = baseline > 0 ? at_gate / baseline : 0;
  std::printf("scaling %dx->%dx shards: %.2fx\n", kBaselineShards,
              kGateShards, scaling);

  if (!opt.json.empty()) {
    std::FILE* f = std::fopen(opt.json.c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "cannot write %s\n", opt.json.c_str());
      return 1;
    }
    std::fprintf(f,
                 "{\n  \"shard_sweep\": {\n"
                 "    \"source\": \"measured\",\n"
                 "    \"conflict_rate\": %.4f,\n"
                 "    \"points\": [",
                 kConflictRate);
    for (int i = 0; i < n_points; ++i) {
      std::fprintf(f, "%s\n      {\"shards\": %d, \"kcps\": %.1f}",
                   i ? "," : "", shard_counts[i], kcps[i]);
    }
    std::fprintf(f,
                 "\n    ],\n"
                 "    \"baseline_shards\": %d,\n"
                 "    \"gate_shards\": %d,\n"
                 "    \"scaling_at_gate\": %.3f\n"
                 "  }\n}\n",
                 kBaselineShards, kGateShards, scaling);
    std::fclose(f);
    std::printf("wrote %s\n", opt.json.c_str());
  }
  return 0;
}
