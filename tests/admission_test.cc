// Admission control (smr/admission.h): the token bucket with a synthetic
// clock, a throttled command's completion through a real deployment's
// client proxy, and the dispatch-failure regression — a failed submit()
// must never leave a permanently-pending command.
#include <gtest/gtest.h>

#include <algorithm>

#include "kvstore/kv_service.h"
#include "test_support.h"

namespace psmr::smr {
namespace {

using test_support::KvCluster;

AdmissionConfig bucket(double rate_cps, double burst) {
  AdmissionConfig cfg;
  cfg.client_rate_cps = rate_cps;
  cfg.client_burst = burst;
  return cfg;
}

TEST(TokenBucket, BurstThenThrottleThenRefill) {
  // 100 cps, burst 3: the first 3 commands pass on the primed bucket, the
  // 4th throttles, and 10ms later exactly one token (100 cps * 10ms) has
  // come back.
  TokenBucket b(bucket(100, 3));
  std::int64_t t = 1'000'000;
  EXPECT_TRUE(b.take(t));
  EXPECT_TRUE(b.take(t));
  EXPECT_TRUE(b.take(t));
  EXPECT_FALSE(b.take(t));
  EXPECT_TRUE(b.take(t + 10'000));
  EXPECT_FALSE(b.take(t + 10'000));
}

TEST(TokenBucket, RefillIsCappedAtBurst) {
  // A long idle period must not bank more than `burst` tokens.
  TokenBucket b(bucket(1000, 2));
  std::int64_t t = 0;
  EXPECT_TRUE(b.take(t));
  EXPECT_TRUE(b.take(t));
  EXPECT_FALSE(b.take(t));
  t += 60'000'000;  // a minute: 60000 tokens earned, 2 kept
  EXPECT_TRUE(b.take(t));
  EXPECT_TRUE(b.take(t));
  EXPECT_FALSE(b.take(t));
}

TEST(TokenBucket, DefaultBurstIsOneBatchWorth) {
  // client_burst = 0 defaults to max(1, rate/100).
  TokenBucket small(bucket(50, 0));  // -> burst 1
  EXPECT_TRUE(small.take(0));
  EXPECT_FALSE(small.take(0));

  TokenBucket big(bucket(1000, 0));  // -> burst 10
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(big.take(0)) << "token " << i;
  EXPECT_FALSE(big.take(0));
}

TEST(TokenBucket, ClientsHaveIndependentBuckets) {
  // Each proxy owns its bucket: one client draining its burst must not
  // starve another client of the same deployment.
  auto cfg = test_support::kv_config(smr::Mode::kPsmr, 2, /*initial_keys=*/64);
  cfg.admission = bucket(0.001, 1);  // ~no refill inside the test
  test_support::Cluster cluster(std::move(cfg));
  auto greedy = cluster->make_client();
  auto other = cluster->make_client();

  EXPECT_TRUE(
      greedy->call(kvstore::kKvRead, kvstore::encode_key(1)).has_value());
  EXPECT_FALSE(
      greedy->call(kvstore::kKvRead, kvstore::encode_key(1)).has_value());
  EXPECT_TRUE(
      other->call(kvstore::kKvRead, kvstore::encode_key(1)).has_value());
  EXPECT_FALSE(
      other->call(kvstore::kKvRead, kvstore::encode_key(1)).has_value());
}

// --- Throttled commands through a real deployment -------------------------

TEST(AdmissionRoundTrip, ThrottledCommandCompletesAsRejected) {
  // burst 2, negligible refill: commands 1-2 execute, 3 completes through
  // poll() with Completion::rejected and an empty payload, and the
  // pipeline is empty afterwards (no wedged pending entry).
  auto cfg = test_support::kv_config(smr::Mode::kPsmr, 2, /*initial_keys=*/64);
  cfg.admission = bucket(0.001, 2);
  test_support::Cluster cluster(std::move(cfg));
  auto proxy = cluster->make_client();

  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(
        proxy->submit(kvstore::kKvRead, kvstore::encode_key(1)).has_value());
  }
  int executed = 0;
  int rejected = 0;
  for (int i = 0; i < 3; ++i) {
    auto done = proxy->poll(std::chrono::seconds(10));
    ASSERT_TRUE(done.has_value()) << "completion " << i << " never arrived";
    if (done->rejected) {
      ++rejected;
      EXPECT_EQ(done->payload.size(), 0u);
    } else {
      ++executed;
    }
  }
  EXPECT_EQ(executed, 2);
  EXPECT_EQ(rejected, 1);
  EXPECT_EQ(proxy->outstanding(), 0u);
}

TEST(AdmissionRoundTrip, ThrottledCommandSendsNoMessage) {
  // A throttled command completes inside the proxy: nothing goes on the
  // network, not even a message to the proxy's own mailbox.  Idle learners
  // still poll their acceptors for catch-up, so a single window may see
  // unrelated traffic; over many throttled round trips, though, at least
  // one window must see none.  A proxy that sends anything per rejection
  // moves the counter in every window.
  auto cfg = test_support::kv_config(smr::Mode::kSmr, 1, /*initial_keys=*/64);
  cfg.admission = bucket(0.001, 1);  // ~no refill inside the test
  test_support::Cluster cluster(std::move(cfg));
  auto proxy = cluster->make_client();
  ASSERT_TRUE(
      proxy->call(kvstore::kKvRead, kvstore::encode_key(1)).has_value());

  auto& net = cluster->network();
  std::uint64_t quietest = ~std::uint64_t{0};
  for (int i = 0; i < 50; ++i) {
    const auto before = net.stats().messages_sent;
    auto seq = proxy->submit(kvstore::kKvRead, kvstore::encode_key(1));
    ASSERT_TRUE(seq.has_value());
    auto done = proxy->poll(std::chrono::seconds(1));
    ASSERT_TRUE(done.has_value()) << "round trip " << i;
    EXPECT_EQ(done->seq, *seq);
    EXPECT_TRUE(done->rejected) << "round trip " << i;
    quietest = std::min(quietest, net.stats().messages_sent - before);
  }
  EXPECT_EQ(quietest, 0u);
  EXPECT_EQ(proxy->outstanding(), 0u);
}

TEST(AdmissionRoundTrip, CallFailsFastOnShedCommand) {
  // call() on a throttled command returns nullopt at once instead of
  // burning its 10s timeout.
  auto cfg = test_support::kv_config(smr::Mode::kSpsmr, 2, /*initial_keys=*/64);
  cfg.admission = bucket(0.001, 1);
  test_support::Cluster cluster(std::move(cfg));
  auto proxy = cluster->make_client();

  EXPECT_TRUE(proxy->call(kvstore::kKvRead, kvstore::encode_key(1))
                  .has_value());  // burst token
  auto t0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(
      proxy->call(kvstore::kKvRead, kvstore::encode_key(1)).has_value());
  auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(elapsed, std::chrono::seconds(5)) << "shed call did not fail fast";
  EXPECT_EQ(proxy->outstanding(), 0u);
}

TEST(AdmissionRoundTrip, DisabledConfigNeverSheds) {
  // The default config has admission off: a burst far past any default
  // bucket size executes in full and nothing completes as rejected.
  KvCluster cluster(smr::Mode::kPsmr, 2, /*initial_keys=*/64);
  auto proxy = cluster->make_client();
  constexpr int kCommands = 200;
  for (int i = 0; i < kCommands; ++i) {
    ASSERT_TRUE(
        proxy->submit(kvstore::kKvRead, kvstore::encode_key(1)).has_value());
  }
  for (int i = 0; i < kCommands; ++i) {
    auto done = proxy->poll(std::chrono::seconds(10));
    ASSERT_TRUE(done.has_value()) << "completion " << i << " never arrived";
    EXPECT_FALSE(done->rejected) << "completion " << i;
  }
  EXPECT_EQ(proxy->outstanding(), 0u);
}

// --- Dispatch-failure regression ------------------------------------------
// src/smr/client.cc used to ignore dispatch()'s return: a send the
// transport rejected (shutdown, disconnected peer) still went into
// pending_, wedging outstanding() forever.  submit() now surfaces the
// failure as nullopt and pends nothing.

TEST(DispatchFailure, DirectModeSubmitSurfacesDisconnectedServer) {
  transport::Network net;
  auto [server, serverbox] = net.register_node();
  ClientProxy proxy(net, server, /*id=*/1);
  net.disconnect(server);

  EXPECT_FALSE(proxy.submit(1, util::Buffer{1}).has_value());
  EXPECT_EQ(proxy.outstanding(), 0u);  // nothing pends, nothing to wedge

  // The proxy recovers once the server is reachable again.
  net.reconnect(server);
  EXPECT_TRUE(proxy.submit(1, util::Buffer{1}).has_value());
  EXPECT_EQ(proxy.outstanding(), 1u);
}

TEST(DispatchFailure, SubmitAfterShutdownPendsNothing) {
  auto cfg = test_support::kv_config(smr::Mode::kPsmr, 2, /*initial_keys=*/8);
  cfg.admission = bucket(0.001, 1);  // also cover the throttled branch
  test_support::Cluster cluster(std::move(cfg));
  auto proxy = cluster->make_client();
  cluster->stop();  // network shut down under the live proxy

  // Admitted path: dispatch fails -> nullopt, nothing pending.
  EXPECT_FALSE(
      proxy->submit(kvstore::kKvRead, kvstore::encode_key(1)).has_value());
  // Throttled path: the closed mailbox still refuses first, so nothing
  // pends and no rejected completion is queued.
  EXPECT_FALSE(
      proxy->submit(kvstore::kKvRead, kvstore::encode_key(1)).has_value());
  EXPECT_EQ(proxy->outstanding(), 0u);
}

}  // namespace
}  // namespace psmr::smr
