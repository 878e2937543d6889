// Regression tests for the merge skip-cadence stall.
//
// The bug: an idle coordinator's skip schedule was relative — refreshed by
// every decide, *including the decide of its own skip* — and gated on an
// empty Phase 2 window.  The effective cadence was one skip per
// (skip_interval + Paxos round-trip), serialized; whenever the tick thread
// ran late (CPU-starved host), each missed interval was repaid one skip at
// a time, and merge-based delivery crawled behind client retransmission
// timeouts (Psmr.SameKeyOrderingIsLinear timing out at 240s).
//
// Skips are no longer scheduled at all.  The merge orders on clock slots,
// and a ring leases past a peer's slot when that peer's coordinator nudges
// it (kPaxosCover) — from message handling, not from a timer.  A starved
// timer therefore delays only batch timeouts, retransmits and the idle
// fallback skip, never the lease a waiting merge needs.
// Coordinator::stall_ticks_for() recreates the starved-timer regime
// deterministically: it suppresses all deadline work for a fixed duration
// while message handling keeps running.  The tests keep the bounds they
// had under the old cadence fix.
#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <vector>

#include "kvstore/kv_client.h"
#include "multicast/amcast.h"
#include "test_support.h"

namespace psmr {
namespace {

using namespace std::chrono_literals;
using multicast::Bus;
using multicast::BusConfig;
using multicast::GroupSet;

// A starved timer on an idle ring must not hold back a peer's traffic.
//
// Setup: two worker groups, so group 0's subscription merges [ring g0,
// shared ring].  The shared ring's coordinator has its timer stalled for
// 1.1 s — the starved regime — while 40 singleton messages are decided on
// g0 (max_batch_commands = 1: one instance each).  The first g0 seal
// nudges the shared ring, which leases 25 ms past it from its message
// handler, so all 40 merge within a few round-trips.
//
// Under the old instance round-robin merge the consumer was wedged 39
// deep until the stall lifted, and serial skip repayment then needed
// >= 39 * 25 ms ~ 1 s more; the 1.6 s budget is the one that separated
// serial repayment from the pipelined burst.
TEST(SkipCadence, StarvedTicksRepayBacklogAsOneBurst) {
  constexpr int kMessages = 40;
  constexpr auto kStall = 1100ms;

  transport::Network net;
  BusConfig cfg;
  cfg.num_groups = 2;
  cfg.ring = test_support::fast_ring();
  cfg.ring.skip_interval = 25ms;
  cfg.ring.max_batch_commands = 1;
  Bus bus(net, cfg);
  auto sub = bus.subscribe(0);
  bus.start();
  // Let both coordinators finish Phase 1 and enter the steady state before
  // starving the shared ring, so the stall covers only skip emission.
  std::this_thread::sleep_for(20ms);

  auto [me, mybox] = net.register_node();
  const auto t0 = std::chrono::steady_clock::now();
  bus.shared_ring().stall_coordinator_ticks(
      std::chrono::duration_cast<std::chrono::microseconds>(kStall));
  for (std::uint64_t i = 0; i < kMessages; ++i) {
    util::Writer w;
    w.u64(i);
    ASSERT_TRUE(bus.multicast(me, GroupSet::single(0), w.take()));
  }

  for (std::uint64_t i = 0; i < kMessages; ++i) {
    auto d = sub->next();
    ASSERT_TRUE(d.has_value()) << "stream closed at message " << i;
    util::Reader r(d->message);
    EXPECT_EQ(r.u64(), i) << "merged order must be submission order";
  }
  auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(elapsed, 1600ms)
      << "skip backlog was repaid serially (one skip per interval), not as "
         "a pipelined burst: "
      << std::chrono::duration_cast<std::chrono::milliseconds>(elapsed).count()
      << " ms";

  sub->close();
}

// End-to-end liveness: a same-key sequential stream keeps flowing while
// every ring's timer is repeatedly starved.  This is the deployment-shaped
// cousin of Psmr.SameKeyOrderingIsLinear, with the CPU-contention regime
// injected deterministically instead of hoping for a loaded host; it
// wedged (until client retransmission) under the original relative
// cadence.
TEST(SkipCadence, SameKeyStreamSurvivesStarvedTicks) {
  constexpr std::size_t kMpl = 4;
  test_support::KvCluster cluster(smr::Mode::kPsmr, kMpl,
                                  /*initial_keys=*/16);
  kvstore::KvClient client(cluster->make_client());

  auto stall_all = [&](std::chrono::microseconds d) {
    for (multicast::GroupId g = 0; g < kMpl; ++g) {
      cluster->bus()->group_ring(g).stall_coordinator_ticks(d);
    }
    cluster->bus()->shared_ring().stall_coordinator_ticks(d);
  };

  constexpr int kUpdates = 60;
  for (int i = 1; i <= kUpdates; ++i) {
    if (i % 15 == 1) stall_all(50ms);
    ASSERT_EQ(client.update(5, static_cast<std::uint64_t>(i)), kvstore::kKvOk)
        << "update " << i << " failed";
  }
  EXPECT_EQ(client.read(5).value_or(0), static_cast<std::uint64_t>(kUpdates));
}

}  // namespace
}  // namespace psmr
