// Shared helpers for the figure benches.
//
// Every fig*_ binary regenerates one figure of the paper's evaluation
// (Section VII) by running the live in-process runtime on this host and
// printing what it measured.  The paper's own numbers come from 8-core
// nodes; README quotes them by citation next to this host's rows.
//
// Flags: --quick (shorter runs), --clients N, --json PATH.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "kvstore/kv_service.h"
#include "smr/runtime.h"
#include "util/alloc_hook.h"
#include "workload/driver.h"

// Each bench binary is a single translation unit, so defining the counting
// allocator here gives every fig*/micro_* bench heap-traffic metering
// (util::allochook::allocations()) with no extra wiring.  Inert under
// sanitizers.
PSMR_DEFINE_ALLOC_HOOK();

namespace psmr::bench {

struct Options {
  bool quick = false;
  int clients_override = 0;
  /// Machine-readable summary path (figures that support it; fig3 writes
  /// the batched-execution perf record here).
  std::string json;

  static Options parse(int argc, char** argv) {
    Options o;
    for (int i = 1; i < argc; ++i) {
      if (!std::strcmp(argv[i], "--quick")) o.quick = true;
      else if (!std::strcmp(argv[i], "--clients") && i + 1 < argc)
        o.clients_override = std::atoi(argv[++i]);
      else if (!std::strcmp(argv[i], "--json") && i + 1 < argc)
        o.json = argv[++i];
    }
    return o;
  }
};

/// Prints a figure's title line with the core count its numbers came from.
inline void print_title(const char* title) {
  std::printf("=== %s [live runtime, %u cores] ===\n", title,
              std::thread::hardware_concurrency());
}

/// Keys preloaded into every KV figure's tree, and the range its clients use.
inline constexpr std::uint64_t kKeys = 200'000;

/// Real-runtime deployment over the key-value store.
inline smr::DeploymentConfig real_kv_config(smr::Mode mode, std::size_t mpl,
                                            std::uint64_t keys,
                                            std::size_t exec_run_length = 16,
                                            std::size_t reply_cap =
                                                smr::ReplyCaps{}.max_responses) {
  smr::DeploymentConfig cfg;
  cfg.mode = mode;
  cfg.mpl = mpl;
  cfg.replicas = 2;
  cfg.reply_caps.max_responses = reply_cap;
  cfg.ring.batch_timeout = std::chrono::microseconds(500);
  cfg.ring.skip_interval = std::chrono::microseconds(1500);
  cfg.ring.rto = std::chrono::microseconds(10000);
  cfg.service_factory = [keys] {
    return std::make_unique<kvstore::KvService>(keys);
  };
  cfg.shared_service_factory = [keys]() -> std::shared_ptr<smr::Service> {
    return std::make_shared<kvstore::ConcurrentKvService>(keys);
  };
  cfg.cg_factory = [](std::size_t k) { return kvstore::kv_keyed_cg(k); };
  cfg.exec_run_length = exec_run_length;
  return cfg;
}

/// Starts a deployment from `cfg`, drives it with closed-loop clients over
/// `mix` and returns the driver's measurement.  `spool`, when given,
/// receives the deployment's submit spool counters.
inline workload::RunResult run_kv(const Options& opt,
                                  smr::DeploymentConfig cfg,
                                  const workload::KvMix& mix,
                                  bool zipf = false,
                                  smr::SpoolStats* spool = nullptr) {
  smr::Deployment d(std::move(cfg));
  d.start();
  workload::KvWorkloadSpec spec;
  spec.clients = opt.clients_override ? opt.clients_override : 4;
  spec.window = 50;
  spec.duration_s = opt.quick ? 0.5 : 1.5;
  spec.warmup_s = 0.3;
  spec.mix = mix;
  spec.keys = kKeys;
  spec.zipf = zipf;
  auto r = workload::run_kv_workload(d, spec);
  if (spool) *spool = d.spool_stats();
  d.stop();
  return r;
}

/// run_kv over real_kv_config.  `reply_cap` is the reply spool's response
/// cap (1: one wire message per reply).
inline workload::RunResult run_real_kv(const Options& opt, smr::Mode mode,
                                       int workers, const workload::KvMix& mix,
                                       bool zipf = false,
                                       std::size_t exec_run_length = 16,
                                       std::size_t reply_cap =
                                           smr::ReplyCaps{}.max_responses,
                                       smr::SpoolStats* spool = nullptr) {
  return run_kv(opt,
                real_kv_config(mode, static_cast<std::size_t>(workers), kKeys,
                               exec_run_length, reply_cap),
                mix, zipf, spool);
}

/// Prints a latency CDF as (value_us, fraction) pairs, decimated.
inline void print_cdf(const char* label, const util::Histogram& hist) {
  auto cdf = hist.cdf();
  std::printf("  CDF %-8s:", label);
  std::size_t step = cdf.size() > 12 ? cdf.size() / 12 : 1;
  for (std::size_t i = 0; i < cdf.size(); i += step) {
    std::printf(" (%.0fus,%.2f)", cdf[i].first, cdf[i].second);
  }
  if (!cdf.empty()) {
    std::printf(" (%.0fus,1.00)", cdf.back().first);
  }
  std::printf("\n");
}

}  // namespace psmr::bench
