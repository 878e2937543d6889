// Simulator calibration coverage (sim/calibration.h + sim/engine.h): the
// paper-derived service-time constants must round-trip through the
// closed-loop simulator back to the paper numbers they were derived from,
// and the event calendar must behave exactly as the simulator assumes
// (monotonic time, FIFO ties, past-event clamping).  Measured records of the
// live runtime are not kept here; CI re-measures them from the benches.
#include <gtest/gtest.h>

#include <vector>

#include "sim/calibration.h"
#include "sim/engine.h"
#include "sim/model.h"

namespace psmr::sim {
namespace {

// --- Engine semantics the models depend on -------------------------------

TEST(EngineCalibration, PastEventsClampToNow) {
  Engine eng;
  std::vector<int> order;
  eng.after(10.0, [&] {
    // Scheduling "in the past" must fire at the current virtual time, not
    // rewind the clock.
    eng.at(3.0, [&] { order.push_back(2); });
    order.push_back(1);
  });
  eng.run_until(100.0);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_DOUBLE_EQ(eng.now(), 100.0);  // clock advances to the horizon
}

TEST(EngineCalibration, PendingTracksCalendarSize) {
  Engine eng;
  EXPECT_EQ(eng.pending(), 0u);
  eng.at(1.0, [] {});
  eng.at(2.0, [] {});
  EXPECT_EQ(eng.pending(), 2u);
  eng.run_until(1.5);
  EXPECT_EQ(eng.pending(), 1u);
  eng.run_until(3.0);
  EXPECT_EQ(eng.pending(), 0u);
}

TEST(EngineCalibration, HorizonLeavesFutureEventsPending) {
  Engine eng;
  bool fired = false;
  eng.at(50.0, [&] { fired = true; });
  eng.run_until(49.9);
  EXPECT_FALSE(fired);
  EXPECT_DOUBLE_EQ(eng.now(), 49.9);
  eng.run_until(50.0);
  EXPECT_TRUE(fired);
}

// --- Closed-form round-trips of the calibrated constants -----------------
//
// Each KvCosts/NetFsCosts constant was derived from a throughput the paper
// reports; the derivation must invert back to that number.  These tests pin
// the constants: retuning one without rebalancing the others fails here.

TEST(Calibration, SmrServiceTimeInvertsToPaperThroughput) {
  KvCosts kv;
  // Section VII-D: "throughput in SMR remains constant at about 842K cps".
  double kcps = 1e3 / (kv.exec + kv.deliver_single);
  EXPECT_NEAR(kcps, 842.0, 842.0 * 0.02);
}

TEST(Calibration, PsmrEightWorkerServiceTimeMatchesFig3) {
  KvCosts kv;
  // Fig. 3: P-SMR with 8 workers peaks at ~3.15x of SMR.
  const int k = 8;
  double per_cmd =
      kv.exec + kv.deliver_single + kv.merge_base + kv.merge_per_worker * k;
  double psmr_kcps = k * 1e3 / per_cmd;
  double smr_kcps = 1e3 / (kv.exec + kv.deliver_single);
  EXPECT_NEAR(psmr_kcps / smr_kcps, 3.15, 0.20);
}

TEST(Calibration, LockServerPathInvertsToFig3) {
  KvCosts kv;
  // Fig. 3: BDB peaks at ~170 Kcps with 6 handler threads (~0.2x of SMR).
  double bdb_kcps = 6 * 1e3 / kv.lock_path;
  EXPECT_NEAR(bdb_kcps, 170.0, 170.0 * 0.08);
}

TEST(Calibration, NetFsSingleThreadCostsInvertToSectionVIIH) {
  NetFsCosts fs;
  // Section VII-H: ~100 Kcps for 1KB reads, ~110 Kcps for 1KB writes in
  // SMR mode.  A read decompresses a small request and compresses a 1KB
  // response; a write decompresses a 1KB payload and compresses a status.
  double read_us = fs.fs_op_read + fs.decompress_small + fs.compress_1k;
  double write_us = fs.fs_op_write + fs.decompress_1k + fs.compress_small;
  EXPECT_NEAR(1e3 / read_us, 100.0, 100.0 * 0.05);
  EXPECT_NEAR(1e3 / write_us, 110.0, 110.0 * 0.05);
}

// --- Round-trips through the full simulator ------------------------------

SimConfig quick_cfg(Tech tech, int workers) {
  SimConfig cfg;
  cfg.tech = tech;
  cfg.workers = workers;
  cfg.clients = 60;
  cfg.duration_us = 60'000;
  cfg.seed = 7;
  return cfg;
}

TEST(Calibration, SimulatedSmrThroughputRoundTrips) {
  // The model adds ordering/network latency on top of the service time, but
  // a closed loop with enough clients must still saturate the executor at
  // the calibrated rate.
  auto r = simulate(quick_cfg(Tech::kSmr, 1));
  EXPECT_NEAR(r.kcps, 842.0, 842.0 * 0.12);
}

TEST(Calibration, SimulatedLatencyFloorsAtNetworkConstants) {
  // One client, window 1: every command pays at least one client->cluster
  // round trip plus the ordering round (NetCosts are per-direction).
  NetCosts net;
  SimConfig cfg = quick_cfg(Tech::kSmr, 1);
  cfg.clients = 1;
  cfg.window = 1;
  auto r = simulate(cfg);
  ASSERT_GT(r.completed, 0u);
  double floor_us = 2 * net.one_way + net.order_base;
  EXPECT_GE(r.avg_latency_us, floor_us);
  // ...and stays within the batching + merge-alignment slack of the floor.
  double ceiling_us =
      floor_us + net.batch_wait_max + net.merge_align_max + 50.0;
  EXPECT_LE(r.avg_latency_us, ceiling_us);
}

TEST(Calibration, ShardSweepGateHoldsInTheSimulator) {
  // The CI gate over BENCH_shard.json (bench_fig5_scalability) asserts that
  // P-SMR throughput at gate_shards is >= min_scaling x the single-shard
  // baseline at the pinned conflict rate.  The simulator is deterministic,
  // so the same relation must hold here: if a model or calibration change
  // flattens the sharded scaling curve, this catches it before the bench
  // smoke-run does.
  ShardCalibration sc;
  auto point = [&](int shards) {
    SimConfig cfg = quick_cfg(Tech::kPsmr, shards);
    cfg.clients = 30 * shards;
    cfg.frac_dependent = sc.conflict_rate;
    return simulate(cfg).kcps;
  };
  double baseline = point(sc.baseline_shards);
  double at_gate = point(sc.gate_shards);
  ASSERT_GT(baseline, 0.0);
  EXPECT_GE(at_gate / baseline, sc.min_scaling)
      << "sharded scaling fell below the BENCH_shard.json CI gate";
  // And the pin itself stays in the regime the sweep was designed for:
  // minority cross-shard traffic at a non-trivial rate.
  EXPECT_GT(sc.conflict_rate, 0.0);
  EXPECT_LT(sc.conflict_rate, 0.5);
  EXPECT_GT(sc.gate_shards, sc.baseline_shards);
}

TEST(Calibration, ExecCostScalesSaturatedThroughputInversely) {
  // Round-trip sensitivity: doubling the calibrated execution cost must
  // halve saturated single-thread throughput (within closed-loop noise).
  auto base = quick_cfg(Tech::kSmr, 1);
  auto slow = base;
  slow.kv.exec = 2 * base.kv.exec + base.kv.deliver_single;
  double ratio = simulate(base).kcps / simulate(slow).kcps;
  EXPECT_NEAR(ratio, 2.0, 0.25);
}

}  // namespace
}  // namespace psmr::sim
