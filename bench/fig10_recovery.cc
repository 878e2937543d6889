// Time-to-recovery after a replica crash — the failover figure the paper
// doesn't have.  Figures 3–8 all measure steady state; this bench measures
// what the checkpoint/truncation/catch-up machinery (smr/snapshot.h,
// replica_psmr.h) buys when a replica actually dies, on the live runtime:
// a checkpointing P-SMR deployment runs a mixed workload, replica 1 is
// killed, the log keeps growing while it is down, and then it restarts
// from a peer snapshot.  The figure is the time from restart until the
// replica has executed as far as its live peer and their digests match.
//
// Gate: the restart succeeds, the restarted replica installed a snapshot
// (rather than replaying the whole log), its digest converges with the
// live peer's, and recovery takes at most kMaxRecoveryMs.  The process
// exits non-zero when any check fails.
//
// --json FILE writes BENCH_recovery.json: the probe's measurements and the
// verdict of each check.
#include "bench_common.h"

#include <chrono>
#include <thread>

using namespace psmr;
using namespace psmr::bench;

namespace {

/// Recovery budget.  Measured: 30-51 ms on a 4-core Xeon host; the probe
/// itself gives up after kGiveUp.
constexpr double kMaxRecoveryMs = 2000.0;
constexpr auto kGiveUp = std::chrono::seconds(30);

const char* yes_no(bool b) { return b ? "true" : "false"; }

}  // namespace

int main(int argc, char** argv) {
  Options opt = Options::parse(argc, argv);
  std::printf("=== Recovery after a replica crash (live P-SMR mpl 2) ===\n");

  auto dcfg = real_kv_config(smr::Mode::kPsmr, /*mpl=*/2, /*keys=*/50'000);
  dcfg.checkpoint.enabled = true;
  // Small enough that checkpoints fire even in a --quick run's short
  // phase 1, so the restart exercises snapshot install, not full replay.
  dcfg.checkpoint.interval_commands = 500;
  smr::Deployment d(std::move(dcfg));
  d.start();

  workload::KvWorkloadSpec spec;
  spec.clients = 2;
  spec.window = 20;
  spec.duration_s = opt.quick ? 0.3 : 1.0;
  spec.warmup_s = 0.1;
  spec.mix = workload::KvMix{50, 30, 10, 10};
  spec.keys = 50'000;

  // Phase 1: accumulate state and checkpoints, then crash replica 1.
  workload::run_kv_workload(d, spec);
  d.crash_replica(1);
  // Phase 2: the log grows while replica 1 is down.
  auto r2 = workload::run_kv_workload(d, spec);
  const std::uint64_t live_executed = d.executed(0);

  // Phase 3: restart and time the catch-up to digest convergence.
  auto t0 = std::chrono::steady_clock::now();
  const bool restarted = d.restart_replica(1);
  const bool installed = restarted && d.checkpoints_taken(1) >= 1;
  bool converged = false;
  while (restarted) {
    if (d.executed(1) >= live_executed &&
        d.state_digest(1) == d.state_digest(0)) {
      converged = true;
      break;
    }
    if (std::chrono::steady_clock::now() - t0 > kGiveUp) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  const double recovery_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - t0)
          .count();
  const std::uint64_t checkpoints = d.checkpoints_taken(0);
  d.stop();

  const bool pass =
      restarted && installed && converged && recovery_ms <= kMaxRecoveryMs;
  std::printf(
      "workload %.1f Kcps, live replica at %llu cmds, checkpoints %llu\n"
      "restart: %s, snapshot installed: %s, converged: %s, "
      "recovery %.1f ms\n",
      r2.kcps, static_cast<unsigned long long>(live_executed),
      static_cast<unsigned long long>(checkpoints),
      restarted ? "ok" : "FAILED", installed ? "yes" : "NO",
      converged ? "yes" : "NO", recovery_ms);
  std::printf("gate: restart ok, snapshot installed, converged, recovery "
              "<= %.0f ms: %s\n",
              kMaxRecoveryMs, pass ? "PASS" : "FAIL");

  if (!opt.json.empty()) {
    std::FILE* f = std::fopen(opt.json.c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "cannot write %s\n", opt.json.c_str());
      return 1;
    }
    std::fprintf(f,
                 "{\n  \"recovery\": {\n"
                 "    \"source\": \"measured\",\n"
                 "    \"workload_kcps\": %.1f,\n"
                 "    \"live_executed\": %llu,\n"
                 "    \"checkpoints\": %llu,\n"
                 "    \"restarted\": %s,\n"
                 "    \"snapshot_installed\": %s,\n"
                 "    \"converged\": %s,\n"
                 "    \"recovery_ms\": %.1f,\n"
                 "    \"max_recovery_ms\": %.0f,\n"
                 "    \"pass\": %s\n"
                 "  }\n}\n",
                 r2.kcps, static_cast<unsigned long long>(live_executed),
                 static_cast<unsigned long long>(checkpoints),
                 yes_no(restarted), yes_no(installed), yes_no(converged),
                 recovery_ms, kMaxRecoveryMs, yes_no(pass));
    std::fclose(f);
    std::printf("wrote %s\n", opt.json.c_str());
  }
  return pass ? 0 : 1;
}
