// Batching integration suite: the safety property that must survive any
// batching policy — identical merged delivery sequences at every learner
// of a group — under heavily skewed per-ring rates.
#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <vector>

#include "multicast/amcast.h"
#include "test_support.h"
#include "transport/network.h"
#include "util/rng.h"

namespace psmr::multicast {
namespace {

using transport::Network;

util::Buffer msg(std::uint64_t id) {
  util::Writer w;
  w.u64(id);
  return w.take();
}

std::uint64_t msg_id(std::span<const std::uint8_t> b) {
  util::Reader r(b);
  return r.u64();
}

TEST(BatchingPropertyIntegration, SkewedRatesDeliverIdenticalSequences) {
  // Property test (batching + skew): with heavily skewed per-ring rates —
  // so the flooding rings seal on timeouts or caps while the trickling
  // rings seal each command at once — every learner of a group (think the
  // same worker thread on different replicas) must deliver the identical
  // merged sequence of singleton and g_all traffic.  Batching policy may
  // change *batch boundaries* but never the delivered order.
  constexpr std::size_t kGroups = 4;
  constexpr int kSubscribersPerGroup = 2;  // "two replicas"
  const std::uint64_t seed = test_support::logged_seed(13);

  Network net;
  BusConfig cfg;
  cfg.num_groups = kGroups;
  cfg.ring = test_support::fast_ring();
  cfg.ring.batch_timeout = std::chrono::microseconds(300);
  Bus bus(net, cfg);

  // subs[g][r]: subscriber r of group g.
  std::vector<std::vector<std::unique_ptr<MergeDeliverer>>> subs(kGroups);
  for (GroupId g = 0; g < kGroups; ++g) {
    for (int r = 0; r < kSubscribersPerGroup; ++r) {
      subs[g].push_back(bus.subscribe(g));
    }
  }
  bus.start();

  // Skewed rates: group g sends with a pacing gap proportional to 4^g, so
  // ring 0 floods while ring 3 trickles; every thread also sprinkles in
  // g_all commands that must serialize identically everywhere.
  constexpr std::uint64_t kPerGroup = 120;
  std::vector<std::uint64_t> shared_sent_per_group(kGroups, 0);
  test_support::run_threads(static_cast<int>(kGroups), [&](int g) {
    auto [node, box] = net.register_node();
    util::SplitMix64 rng(seed + static_cast<std::uint64_t>(g));
    const auto gap = std::chrono::microseconds(20u << (2 * g));
    std::uint64_t shared_sent = 0;
    for (std::uint64_t i = 0; i < kPerGroup; ++i) {
      const std::uint64_t id =
          (static_cast<std::uint64_t>(g) << 32) | i;
      if (rng.next_below(8) == 0) {
        ASSERT_TRUE(bus.multicast(node, GroupSet::all(kGroups),
                                  msg((1ull << 63) | id)));
        ++shared_sent;
      } else {
        ASSERT_TRUE(bus.multicast(
            node, GroupSet::single(static_cast<GroupId>(g)), msg(id)));
      }
      std::this_thread::sleep_for(gap);
    }
    shared_sent_per_group[static_cast<std::size_t>(g)] = shared_sent;
  });

  std::uint64_t total_shared = 0;
  for (auto n : shared_sent_per_group) total_shared += n;

  // Every subscriber of group g must deliver: all of g's singleton traffic
  // plus every shared command, in one deterministic interleaving.
  for (GroupId g = 0; g < kGroups; ++g) {
    const std::uint64_t singles =
        kPerGroup - shared_sent_per_group[g];
    const std::uint64_t want = singles + total_shared;
    std::vector<std::vector<std::uint64_t>> seqs(kSubscribersPerGroup);
    for (int r = 0; r < kSubscribersPerGroup; ++r) {
      for (std::uint64_t i = 0; i < want; ++i) {
        auto d = subs[g][static_cast<std::size_t>(r)]->next();
        ASSERT_TRUE(d.has_value())
            << "group " << g << " subscriber " << r << " stalled at " << i;
        seqs[static_cast<std::size_t>(r)].push_back(msg_id(d->message));
      }
    }
    EXPECT_EQ(seqs[0], seqs[1]) << "divergent delivery in group " << g;
  }

  // Sanity: the trickle rings (gaps of 320 us and 1.28 ms against the
  // 300 us timeout) really did run the sparse seal-at-once policy.
  paxos::CoordinatorStats total;
  for (GroupId g = 0; g < kGroups; ++g) total += bus.ring_stats(g);
  total += bus.shared_ring_stats();
  EXPECT_EQ(total.sealed_commands, kGroups * kPerGroup);
  paxos::CoordinatorStats trickle = bus.ring_stats(2);
  trickle += bus.ring_stats(3);
  EXPECT_GT(trickle.sealed_at_once, 0u);

  bus.stop();
  net.shutdown();
}

}  // namespace
}  // namespace psmr::multicast
