// Coverage for the closed-loop workload driver (src/workload/driver.*):
// windowed rate control, key-distribution sampling, accounting, and clean
// shutdown (drained proxies, joined threads, reusable deployment).
#include <gtest/gtest.h>

#include <map>

#include "test_support.h"
#include "util/rng.h"
#include "workload/driver.h"

namespace psmr::workload {
namespace {

KvWorkloadSpec quick_spec(std::uint64_t keys) {
  KvWorkloadSpec spec;
  spec.clients = 2;
  spec.window = 8;
  spec.warmup_s = 0.05;
  spec.duration_s = 0.25;
  spec.keys = keys;
  spec.seed = test_support::test_seed(42);
  return spec;
}

TEST(WorkloadDriver, ClosedLoopCompletesAndAccounts) {
  test_support::KvCluster cluster(smr::Mode::kPsmr, 2, /*initial_keys=*/256);
  auto spec = quick_spec(256);
  auto res = run_kv_workload(cluster.deployment(), spec);

  EXPECT_GT(res.completed, 0u);
  EXPECT_GT(res.kcps, 0.0);
  EXPECT_GT(res.avg_latency_us, 0.0);
  EXPECT_GE(res.p99_latency_us, res.avg_latency_us);
  // Percentiles populate and are ordered.
  EXPECT_GT(res.p50_latency_us, 0.0);
  EXPECT_LE(res.p50_latency_us, res.p95_latency_us);
  EXPECT_LE(res.p95_latency_us, res.p99_latency_us);
  // The histogram holds exactly the completions counted in the window.
  EXPECT_EQ(res.latency.count(), res.completed);
  // Reply-path counters observed the measured interval's responses.
  EXPECT_GT(res.response.wire_messages, 0u);
  EXPECT_GE(res.response.responses, res.response.wire_messages);
  // Every measured completion was really executed by the replicas.
  for (std::size_t i = 0; i < cluster->num_services(); ++i) {
    EXPECT_GE(cluster->executed(i), res.completed);
  }
}

TEST(WorkloadDriver, WindowBoundsOutstandingCommands) {
  // Rate control: a closed loop with c clients and window w keeps at most
  // c*w commands outstanding, so by Little's law measured throughput can't
  // exceed outstanding / avg_latency.
  test_support::KvCluster cluster(smr::Mode::kPsmr, 2, /*initial_keys=*/128);
  auto spec = quick_spec(128);
  spec.clients = 2;
  spec.window = 4;
  auto res = run_kv_workload(cluster.deployment(), spec);
  ASSERT_GT(res.completed, 0u);
  double outstanding_bound = static_cast<double>(spec.clients * spec.window);
  double little = res.kcps * 1e3 * (res.avg_latency_us / 1e6);
  EXPECT_LE(little, outstanding_bound * 1.25);  // 25% timing slack
}

TEST(WorkloadDriver, MixedWorkloadKeepsReplicasConverged) {
  test_support::KvCluster cluster(smr::Mode::kPsmr, 2, /*initial_keys=*/128);
  auto spec = quick_spec(128);
  spec.mix.read_pct = 50;
  spec.mix.update_pct = 30;
  spec.mix.insert_pct = 10;
  spec.mix.delete_pct = 10;
  auto res = run_kv_workload(cluster.deployment(), spec);
  EXPECT_GT(res.completed, 0u);
  // run_kv_workload drains every proxy before returning; once the slower
  // replica catches up to the faster one, the digests must match.
  auto executed0 = cluster->executed(0);
  test_support::wait_executed(cluster.deployment(), executed0);
  EXPECT_EQ(cluster->state_digest(0), cluster->state_digest(1));
}

TEST(WorkloadDriver, ZipfSamplingIsSkewedAndInRange) {
  // The driver's key selection uses util::Zipf; rank 0 must dominate and
  // every sample must stay inside the key space.
  util::SplitMix64 rng(test_support::test_seed(42));
  constexpr std::uint64_t kKeys = 10'000;
  util::Zipf zipf(kKeys, 1.0);
  std::map<std::uint64_t, std::uint64_t> freq;
  constexpr int kSamples = 20'000;
  for (int i = 0; i < kSamples; ++i) {
    std::uint64_t k = zipf.sample(rng);
    ASSERT_LT(k, kKeys);
    ++freq[k];
  }
  // Zipf(1): p(rank) ~ 1/(rank+1); rank 0 beats rank 99 by ~100x.
  EXPECT_GT(freq[0], freq[99] * 10);
  // ...but the tail is still sampled: a uniform sampler would put ~half the
  // mass above the median key, Zipf(1) puts almost none there.
  std::uint64_t above_median = 0;
  for (const auto& [k, n] : freq) {
    if (k >= kKeys / 2) above_median += n;
  }
  EXPECT_LT(above_median, kSamples / 10);
}

TEST(WorkloadDriver, ZipfWorkloadRunsEndToEnd) {
  test_support::KvCluster cluster(smr::Mode::kPsmr, 2, /*initial_keys=*/512);
  auto spec = quick_spec(512);
  spec.zipf = true;
  auto res = run_kv_workload(cluster.deployment(), spec);
  EXPECT_GT(res.completed, 0u);
}

TEST(WorkloadDriver, ShutdownDrainsAndDeploymentIsReusable) {
  // After run_kv_workload returns, all driver threads have joined and all
  // proxies are drained: a second run on the same deployment and an
  // immediate stop must both work.
  test_support::KvCluster cluster(smr::Mode::kPsmr, 2, /*initial_keys=*/64);
  auto spec = quick_spec(64);
  spec.duration_s = 0.1;
  auto first = run_kv_workload(cluster.deployment(), spec);
  auto second = run_kv_workload(cluster.deployment(), spec);
  EXPECT_GT(first.completed, 0u);
  EXPECT_GT(second.completed, 0u);
  cluster->stop();  // explicit early stop; the fixture's stop is idempotent
}

TEST(WorkloadDriver, OpenLoopFixedRateTracksTarget) {
  // Open loop at a rate well under capacity: measured throughput must track
  // the offered rate (the whole point — load is held constant instead of
  // adapting to latency), not the system's saturation point.
  test_support::KvCluster cluster(smr::Mode::kPsmr, 2, /*initial_keys=*/256);
  auto spec = quick_spec(256);
  spec.target_rate_cps = 2000;
  spec.poisson_arrivals = false;
  spec.warmup_s = 0.1;
  spec.duration_s = 0.5;
  auto res = run_kv_workload(cluster.deployment(), spec);
  ASSERT_GT(res.completed, 0u);
  double attained_cps = res.kcps * 1e3;
  // Completions cannot outpace the arrival schedule...
  EXPECT_LE(attained_cps, spec.target_rate_cps * 1.3);
  // ...and with ample headroom they must keep up with it (generous slack
  // for loaded CI hosts).
  EXPECT_GE(attained_cps, spec.target_rate_cps * 0.5);
}

TEST(WorkloadDriver, OpenLoopPoissonRunsAndConverges) {
  test_support::KvCluster cluster(smr::Mode::kPsmr, 2, /*initial_keys=*/128);
  auto spec = quick_spec(128);
  spec.target_rate_cps = 1500;
  spec.poisson_arrivals = true;
  spec.mix.read_pct = 70;
  spec.mix.update_pct = 30;
  auto res = run_kv_workload(cluster.deployment(), spec);
  EXPECT_GT(res.completed, 0u);
  auto executed0 = cluster->executed(0);
  test_support::wait_executed(cluster.deployment(), executed0);
  EXPECT_EQ(cluster->state_digest(0), cluster->state_digest(1));
}

TEST(WorkloadDriver, OpenLoopOverloadShedsAtOutstandingCap) {
  // An offered rate far beyond capacity must degrade into a bounded-queue
  // closed loop (shedding arrivals at max_outstanding), not grow proxy
  // state without bound or hang the driver.
  test_support::KvCluster cluster(smr::Mode::kPsmr, 2, /*initial_keys=*/64);
  auto spec = quick_spec(64);
  spec.target_rate_cps = 5e6;  // absurd for this host
  spec.poisson_arrivals = false;
  spec.max_outstanding = 64;
  spec.duration_s = 0.2;
  auto res = run_kv_workload(cluster.deployment(), spec);
  EXPECT_GT(res.completed, 0u);
  // Little's law at the cap: throughput is bounded by cap / latency.
  double outstanding_bound =
      static_cast<double>(spec.clients * spec.max_outstanding);
  double little = res.kcps * 1e3 * (res.avg_latency_us / 1e6);
  EXPECT_LE(little, outstanding_bound * 1.25);
}

TEST(WorkloadDriver, MeasuredWindowHasBothBounds) {
  // Regression: record() used to check only the start of the measured
  // interval, so completions landing during the post-measurement drain
  // (arbitrarily long under backlog) inflated the histogram and counters.
  using detail::in_measured_window;
  EXPECT_FALSE(in_measured_window(100, 0, 0));    // measurement not started
  EXPECT_FALSE(in_measured_window(99, 100, 0));   // before the start
  EXPECT_TRUE(in_measured_window(100, 100, 0));  // started, no end yet
  EXPECT_TRUE(in_measured_window(1'000'000'000'000, 100, 0));  // still open
  EXPECT_TRUE(in_measured_window(199, 100, 200));
  EXPECT_FALSE(in_measured_window(200, 100, 200));  // end is exclusive
  EXPECT_FALSE(in_measured_window(1'000'000'000'000, 100, 200));  // drain
}

TEST(WorkloadDriver, FractionalMixYieldsItsShare) {
  // Regression: KvMix was integer percent, so Figure 6's sub-1% points ran
  // no dependent commands at all.  A 0.5% insert mix must yield inserts at
  // that rate and none of the operations it leaves out.
  using detail::KvOp;
  using detail::pick_op;
  const KvMix mix{99.5, 0, 0.5, 0};
  EXPECT_EQ(pick_op(mix, 99.49), KvOp::kRead);
  EXPECT_EQ(pick_op(mix, 99.5), KvOp::kInsert);
  EXPECT_EQ(pick_op(mix, 99.99), KvOp::kInsert);

  util::SplitMix64 rng(test_support::test_seed(42));
  constexpr int kRolls = 200'000;
  std::map<KvOp, int> n;
  for (int i = 0; i < kRolls; ++i) ++n[pick_op(mix, rng.next_double() * 100)];
  // 1000 expected; the bound is about six standard deviations.
  EXPECT_NEAR(n[KvOp::kInsert], kRolls * 0.005, 200);
  EXPECT_EQ(n[KvOp::kRead] + n[KvOp::kInsert], kRolls);
}

TEST(WorkloadDriver, MeasuredCompletionsRespectTheWindowEnd) {
  // End-to-end version of the regression: the measured completion count
  // must be consistent with the measured interval's length, not with the
  // (longer) interval including the drain.  With the window bug, every
  // drain completion after t1 counted, so completed >> kcps * duration.
  test_support::KvCluster cluster(smr::Mode::kPsmr, 2, /*initial_keys=*/128);
  auto spec = quick_spec(128);
  spec.duration_s = 0.25;
  auto res = run_kv_workload(cluster.deployment(), spec);
  ASSERT_GT(res.completed, 0u);
  // kcps is derived as completed / elapsed: the identity only holds when
  // both come from the same bounded interval.
  EXPECT_NEAR(res.kcps * 1e3 * 0.25, static_cast<double>(res.completed),
              static_cast<double>(res.completed) * 0.1);
  // Closed loop submits only with window room: nothing is ever shed.
  EXPECT_EQ(res.shed_valve, 0u);
  EXPECT_EQ(res.dispatch_failed, 0u);
  EXPECT_EQ(res.offered, res.submitted);
}

TEST(WorkloadDriver, OfferedAccountingIdentityHolds) {
  // Open loop over capacity with a tight valve: offered arrivals must be
  // fully partitioned into submitted + shed_valve + dispatch_failed.
  test_support::KvCluster cluster(smr::Mode::kPsmr, 2, /*initial_keys=*/64);
  auto spec = quick_spec(64);
  spec.target_rate_cps = 50'000;
  spec.poisson_arrivals = true;
  // Far past what 8 outstanding commands can carry while the rings' 500us
  // batch timeout paces them, so the valve must bind.
  spec.max_outstanding = 8;
  spec.duration_s = 0.3;
  auto res = run_kv_workload(cluster.deployment(), spec);
  ASSERT_GT(res.offered, 0u);
  EXPECT_EQ(res.offered, res.submitted + res.shed_valve + res.dispatch_failed);
  EXPECT_GT(res.shed_valve, 0u);  // the cap binds at this rate
  EXPECT_EQ(res.dispatch_failed, 0u);  // healthy transport all along
}

TEST(WorkloadDriver, AdmissionShedsAreCountedNotMeasured) {
  // Driver + admission: throttled completions surface in shed_rejected, and
  // are excluded from goodput (completed) and the latency histogram.
  auto cfg = test_support::kv_config(smr::Mode::kPsmr, 2, /*initial_keys=*/64);
  cfg.admission.client_rate_cps = 200;  // well under the offered rate
  cfg.admission.client_burst = 10;
  test_support::Cluster cluster(std::move(cfg));
  auto spec = quick_spec(64);
  spec.clients = 2;
  spec.target_rate_cps = 4000;
  spec.duration_s = 0.4;
  auto res = run_kv_workload(cluster.deployment(), spec);
  ASSERT_GT(res.completed, 0u);
  EXPECT_GT(res.shed_rejected, 0u);
  EXPECT_EQ(res.latency.count(), res.completed);  // sheds not in histogram
  // The bucket caps goodput near 2 clients x 200 cps over the window;
  // generous upper bound, but far below the 4000 cps offered.
  EXPECT_LT(res.kcps * 1e3, 2000.0);
}

TEST(WorkloadDriver, ProcessCpuCounterIsMonotonic) {
  std::int64_t a = process_cpu_us();
  // Burn a little CPU so the counter visibly advances.
  volatile std::uint64_t sink = 0;
  for (int i = 0; i < 2'000'000; ++i) sink = sink + static_cast<std::uint64_t>(i);
  std::int64_t b = process_cpu_us();
  EXPECT_GE(a, 0);
  EXPECT_GE(b, a);
}

}  // namespace
}  // namespace psmr::workload
