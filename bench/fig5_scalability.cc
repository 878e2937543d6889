// Figure 5 restaged for the sharding layer — P-SMR throughput vs the
// number of shards (one worker group + one multicast ring per shard) at a
// fixed cross-shard conflict rate (sim::ShardCalibration::conflict_rate).
//
// The paper's Fig. 5 sweeps worker threads per technique; in a sharded
// deployment the worker count IS the ring count, so this sweep answers the
// scaled-out version of the same question: does throughput keep growing as
// the keyspace splits across dozens of rings, with a constant fraction of
// commands spanning shards (riding g_all and synchronizing their subset of
// workers)?  Expected shape: near-linear while independent traffic
// dominates, flattening as per-ring merge bookkeeping and cross-shard
// barriers grow with the ring count.
//
// --json FILE writes BENCH_shard.json: the per-shard-count points, tagged
// "source": "model" (simulator) or "measured" (--real), plus the scaling
// ratio the CI gate asserts (kcps at gate_shards >= min_scaling x
// kcps at baseline_shards, see sim/calibration.h).
#include "bench_common.h"

#include "sim/calibration.h"
#include "smr/shard_spec.h"

using namespace psmr;
using namespace psmr::bench;

namespace {

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

sim::SimResult run_point(const Options& opt, int shards,
                         const sim::ShardCalibration& cal) {
  if (opt.real) {
    auto dcfg = real_sharded_config(static_cast<std::size_t>(shards),
                                    /*keys=*/200'000);
    smr::Deployment d(std::move(dcfg));
    d.start();
    workload::KvWorkloadSpec spec;
    spec.clients = opt.clients_override ? opt.clients_override : 4;
    spec.window = 50;
    spec.duration_s = opt.quick ? 0.5 : 1.5;
    spec.warmup_s = 0.3;
    // ~conflict_rate of the commands are inserts/deletes: global γ, the
    // cross-shard traffic of this sweep.
    spec.mix = workload::KvMix{48, 47, 3, 2};
    spec.keys = 200'000;
    auto r = workload::run_kv_workload(d, spec);
    d.stop();
    sim::SimResult out;
    out.kcps = r.kcps;
    out.cpu_pct = r.cpu_pct;
    out.avg_latency_us = r.avg_latency_us;
    out.completed = r.completed;
    return out;
  }
  auto cfg = base_sim(opt, sim::Tech::kPsmr, shards, 30 * shards);
  cfg.frac_dependent = cal.conflict_rate;
  return sim::simulate(cfg);
}

}  // namespace

int main(int argc, char** argv) {
  Options opt = Options::parse(argc, argv);
  const sim::ShardCalibration cal;
  std::printf(
      "=== Figure 5 (sharded): P-SMR throughput vs shard count [%s] ===\n",
      opt.real ? "real runtime" : "calibrated simulation");
  std::printf("conflict rate (cross-shard commands): %.2f\n",
              cal.conflict_rate);

  const int shard_counts[] = {1, 2, 4, 8, 16, 32};
  const int n_points = opt.quick ? 4 : 6;  // quick stops at the gate point

  double kcps[6] = {};
  std::printf("%-8s %9s %12s\n", "shards", "kcps", "kcps/shard");
  for (int i = 0; i < n_points; ++i) {
    auto r = run_point(opt, shard_counts[i], cal);
    kcps[i] = r.kcps;
    std::printf("%-8d %9.0f %12.1f\n", shard_counts[i], r.kcps,
                r.kcps / shard_counts[i]);
  }

  double baseline = kcps[0];
  double at_gate = 0;
  for (int i = 0; i < n_points; ++i) {
    if (shard_counts[i] == cal.gate_shards) at_gate = kcps[i];
  }
  double scaling = baseline > 0 ? at_gate / baseline : 0;
  std::printf("scaling %dx->%dx shards: %.2fx (gate: >= %.2fx)\n",
              cal.baseline_shards, cal.gate_shards, scaling, cal.min_scaling);

  if (!opt.json.empty()) {
    std::FILE* f = std::fopen(opt.json.c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "cannot write %s\n", opt.json.c_str());
      return 1;
    }
    std::fprintf(f,
                 "{\n  \"shard_sweep\": {\n"
                 "    \"source\": \"%s\",\n"
                 "    \"conflict_rate\": %.4f,\n"
                 "    \"points\": [",
                 opt.real ? "measured" : "model", cal.conflict_rate);
    for (int i = 0; i < n_points; ++i) {
      std::fprintf(f, "%s\n      {\"shards\": %d, \"kcps\": %.1f}",
                   i ? "," : "", shard_counts[i], kcps[i]);
    }
    std::fprintf(f,
                 "\n    ],\n"
                 "    \"baseline_shards\": %d,\n"
                 "    \"gate_shards\": %d,\n"
                 "    \"scaling_at_gate\": %.3f,\n"
                 "    \"min_scaling\": %.2f\n"
                 "  }\n}\n",
                 cal.baseline_shards, cal.gate_shards, scaling,
                 cal.min_scaling);
    std::fclose(f);
    std::printf("wrote %s\n", opt.json.c_str());
  }
  return 0;
}
