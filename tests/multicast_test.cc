#include "multicast/amcast.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <limits>
#include <map>
#include <thread>
#include <vector>

#include "multicast/group.h"
#include "test_support.h"
#include "transport/network.h"
#include "util/rng.h"

namespace psmr::multicast {
namespace {

using transport::Network;

TEST(GroupSet, SingletonBasics) {
  auto g = GroupSet::single(3);
  EXPECT_TRUE(g.singleton());
  EXPECT_EQ(g.size(), 1u);
  EXPECT_TRUE(g.contains(3));
  EXPECT_FALSE(g.contains(2));
  EXPECT_EQ(g.min(), 3u);
}

TEST(GroupSet, AllOfK) {
  auto g = GroupSet::all(8);
  EXPECT_EQ(g.size(), 8u);
  for (GroupId i = 0; i < 8; ++i) EXPECT_TRUE(g.contains(i));
  EXPECT_FALSE(g.contains(8));
  EXPECT_EQ(g.min(), 0u);
}

TEST(GroupSet, IntersectionAndUnion) {
  auto a = GroupSet::single(1) | GroupSet::single(4);
  auto b = GroupSet::single(4) | GroupSet::single(5);
  EXPECT_EQ((a & b), GroupSet::single(4));
  EXPECT_EQ((a | b).size(), 3u);
  EXPECT_TRUE((a & GroupSet::single(0)).empty());
}

TEST(GroupSet, ForEachAscending) {
  auto g = GroupSet::single(7) | GroupSet::single(2) | GroupSet::single(63);
  std::vector<GroupId> seen;
  g.for_each([&](GroupId id) { seen.push_back(id); });
  EXPECT_EQ(seen, (std::vector<GroupId>{2, 7, 63}));
  EXPECT_EQ(g.str(), "{2,7,63}");
}

util::Buffer msg(std::uint64_t id) {
  util::Writer w;
  w.u64(id);
  return w.take();
}

std::uint64_t msg_id(std::span<const std::uint8_t> b) {
  util::Reader r(b);
  return r.u64();
}

BusConfig fast_bus(std::size_t k) {
  BusConfig cfg;
  cfg.num_groups = k;
  cfg.ring.batch_timeout = std::chrono::microseconds(200);
  cfg.ring.skip_interval = std::chrono::microseconds(300);
  return cfg;
}

// Drains `count` messages from a deliverer (blocking with a generous cap).
std::vector<Delivery> drain(MergeDeliverer& d, std::size_t count) {
  std::vector<Delivery> out;
  while (out.size() < count) {
    auto m = d.next();
    if (!m) break;
    out.push_back(std::move(*m));
  }
  return out;
}

TEST(Bus, SingleGroupDelivery) {
  Network net;
  Bus bus(net, fast_bus(1));
  auto sub = bus.subscribe(0);
  bus.start();
  auto [me, mybox] = net.register_node();
  for (std::uint64_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(bus.multicast(me, GroupSet::single(0), msg(i)));
  }
  auto got = drain(*sub, 100);
  ASSERT_EQ(got.size(), 100u);
  for (std::uint64_t i = 0; i < 100; ++i) EXPECT_EQ(msg_id(got[i].message), i);
}

TEST(Bus, SingletonTrafficIsolatedPerGroup) {
  Network net;
  Bus bus(net, fast_bus(3));
  auto s0 = bus.subscribe(0);
  auto s1 = bus.subscribe(1);
  bus.start();
  auto [me, mybox] = net.register_node();

  for (std::uint64_t i = 0; i < 50; ++i) {
    bus.multicast(me, GroupSet::single(0), msg(i));
    bus.multicast(me, GroupSet::single(1), msg(1000 + i));
  }
  auto g0 = drain(*s0, 50);
  auto g1 = drain(*s1, 50);
  for (std::uint64_t i = 0; i < 50; ++i) {
    EXPECT_EQ(msg_id(g0[i].message), i);
    EXPECT_EQ(msg_id(g1[i].message), 1000 + i);
  }
}

TEST(Bus, MultiGroupReachesAllSubscribers) {
  Network net;
  Bus bus(net, fast_bus(4));
  std::vector<std::unique_ptr<MergeDeliverer>> subs;
  for (GroupId g = 0; g < 4; ++g) subs.push_back(bus.subscribe(g));
  bus.start();
  auto [me, mybox] = net.register_node();

  for (std::uint64_t i = 0; i < 30; ++i) {
    bus.multicast(me, GroupSet::all(4), msg(i));
  }
  for (auto& sub : subs) {
    auto got = drain(*sub, 30);
    ASSERT_EQ(got.size(), 30u);
    for (std::uint64_t i = 0; i < 30; ++i) {
      EXPECT_EQ(msg_id(got[i].message), i);
      // Multi-group traffic arrives on the shared stream (last index).
      EXPECT_EQ(got[i].stream, sub->num_streams() - 1);
    }
  }
}

TEST(Bus, SameGroupSubscribersSeeIdenticalMergedStream) {
  // The determinism property that replica consistency rests on: two
  // subscribers of group g (think: thread t_g on replica 0 and replica 1)
  // must deliver singleton and shared commands in the same interleaved
  // order, regardless of timing.
  Network net;
  Bus bus(net, fast_bus(2));
  auto r0_t0 = bus.subscribe(0);
  auto r1_t0 = bus.subscribe(0);
  bus.start();
  auto [me, mybox] = net.register_node();

  // Interleave singleton and all-group traffic.
  for (std::uint64_t i = 0; i < 200; ++i) {
    if (i % 3 == 0) {
      bus.multicast(me, GroupSet::all(2), msg(i));
    } else {
      bus.multicast(me, GroupSet::single(0), msg(i));
    }
  }
  std::size_t expect = 200 - 200 / 3;  // singletons to group 0 + all-group
  expect += 200 / 3 + 1;
  // total = number of i with i%3==0 (67) + others (133) = 200
  auto a = drain(*r0_t0, 200);
  auto b = drain(*r1_t0, 200);
  ASSERT_EQ(a.size(), 200u);
  ASSERT_EQ(b.size(), 200u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(msg_id(a[i].message), msg_id(b[i].message))
        << "divergence at position " << i;
    EXPECT_EQ(a[i].stream, b[i].stream);
  }
}

TEST(Bus, CrossGroupSharedOrderConsistent) {
  // Shared (multi-group) messages must appear in the same relative order at
  // subscribers of *different* groups — that is what serializes dependent
  // commands across worker threads.
  Network net;
  Bus bus(net, fast_bus(3));
  auto s0 = bus.subscribe(0);
  auto s2 = bus.subscribe(2);
  bus.start();
  auto [me, mybox] = net.register_node();

  for (std::uint64_t i = 0; i < 100; ++i) {
    bus.multicast(me, GroupSet::all(3), msg(i));
    bus.multicast(me, GroupSet::single(0), msg(10000 + i));
    bus.multicast(me, GroupSet::single(2), msg(20000 + i));
  }
  auto a = drain(*s0, 200);
  auto b = drain(*s2, 200);
  std::vector<std::uint64_t> shared_a, shared_b;
  for (auto& d : a) {
    if (msg_id(d.message) < 10000) shared_a.push_back(msg_id(d.message));
  }
  for (auto& d : b) {
    if (msg_id(d.message) < 10000) shared_b.push_back(msg_id(d.message));
  }
  auto n = std::min(shared_a.size(), shared_b.size());
  shared_a.resize(n);
  shared_b.resize(n);
  EXPECT_EQ(shared_a, shared_b);
}

TEST(Bus, EmptyGroupSetRejected) {
  Network net;
  Bus bus(net, fast_bus(2));
  bus.start();
  auto [me, mybox] = net.register_node();
  EXPECT_FALSE(bus.multicast(me, GroupSet{}, msg(1)));
}

TEST(Bus, SkipAccountingExposed) {
  Network net;
  Bus bus(net, fast_bus(2));
  auto sub = bus.subscribe(0);
  bus.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  // Idle bus with merging: rings decide skips to keep merges live.
  EXPECT_GT(bus.decided_skips(), 0u);
  EXPECT_EQ(bus.decided_commands(), 0u);
}

TEST(MergeDeliverer, TryNextSeparatesDryFromClosed) {
  Network net;
  Bus bus(net, fast_bus(1));
  auto sub = bus.subscribe(0);
  bus.start();

  Delivery d;
  EXPECT_EQ(sub->try_next(d), MergeDeliverer::Poll::kDry)
      << "nothing decided yet is dry, not closed";
  EXPECT_FALSE(sub->closed());

  auto [me, mybox] = net.register_node();
  ASSERT_TRUE(bus.multicast(me, GroupSet::single(0), msg(42)));
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  MergeDeliverer::Poll p = MergeDeliverer::Poll::kDry;
  while (p == MergeDeliverer::Poll::kDry &&
         std::chrono::steady_clock::now() < deadline) {
    p = sub->try_next(d);
  }
  ASSERT_EQ(p, MergeDeliverer::Poll::kDelivered);
  EXPECT_EQ(msg_id(d.message), 42u);

  sub->close();
  EXPECT_TRUE(sub->closed());
  EXPECT_EQ(sub->try_next(d), MergeDeliverer::Poll::kClosed);
  EXPECT_EQ(sub->try_next(d), MergeDeliverer::Poll::kClosed)
      << "kClosed is terminal";
  EXPECT_FALSE(sub->next().has_value())
      << "blocking next() must agree with a kClosed poll";
}

// The race the tri-state result exists for: a poller that sees only
// std::nullopt cannot tell a dry stream from one closed underneath it, and
// falling back to a blocking next() after shutdown would hang forever.
TEST(MergeDeliverer, CloseWhilePollingTurnsTerminalNotDry) {
  Network net;
  Bus bus(net, fast_bus(2));
  auto sub = bus.subscribe(0);
  bus.start();

  std::atomic<bool> saw_closed{false};
  std::thread poller([&] {
    Delivery d;
    auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (std::chrono::steady_clock::now() < deadline) {
      if (sub->try_next(d) == MergeDeliverer::Poll::kClosed) {
        saw_closed = true;
        return;
      }
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  sub->close();
  poller.join();
  EXPECT_TRUE(saw_closed)
      << "poller kept reading kDry after close(): shutdown is invisible";
  EXPECT_FALSE(sub->next().has_value());
}

// --- Clock-slot merge over crafted streams ---------------------------------
//
// These feed DECIDEs straight into learner logs, so each test picks every
// slot the merge sees: ties across streams, failover no-op fills at slot 0,
// and a coordinator clock running behind its ring's earlier slots.

struct Decided {
  bool skip = false;
  std::uint64_t slot = 0;
  std::vector<std::uint64_t> ids;
};

struct CraftedMerge {
  CraftedMerge(Network& net, std::vector<paxos::Instance> starts)
      : net(net), from(net.register_node().first) {
    std::vector<std::unique_ptr<paxos::LearnerLog>> logs;
    for (std::size_t s = 0; s < starts.size(); ++s) {
      logs.push_back(std::make_unique<paxos::LearnerLog>(
          net, static_cast<paxos::RingId>(s),
          std::vector<transport::NodeId>{}, starts[s]));
      learners.push_back(logs.back()->id());
    }
    merge = std::make_unique<MergeDeliverer>(std::move(logs));
  }

  void feed(std::size_t stream, paxos::Instance inst, const Decided& d) {
    paxos::Batch b;
    b.skip = d.skip;
    b.slot = d.slot;
    for (auto id : d.ids) b.commands.push_back(msg(id));
    util::Writer w;
    w.u64(inst);
    w.bytes(b.encode());
    net.send(from, learners[stream], transport::MsgType::kPaxosDecide,
             w.take());
  }

  // Polls until the merge runs dry.
  std::vector<std::uint64_t> drain() {
    std::vector<std::uint64_t> out;
    Delivery d;
    while (merge->try_next(d) == MergeDeliverer::Poll::kDelivered) {
      out.push_back(msg_id(d.message));
    }
    return out;
  }

  Network& net;
  transport::NodeId from;
  std::vector<transport::NodeId> learners;
  std::unique_ptr<MergeDeliverer> merge;
};

using Ids = std::vector<std::uint64_t>;

TEST(MergeDeliverer, OrdersBySlotWithTiesFillsAndBackwardClocks) {
  Network net;
  CraftedMerge m(net, {0, 0});
  // Stream 0: a command, a second one stamped with the same slot (effective
  // 101), a failover fill at slot 0 (effective 102), a later command.
  const std::vector<Decided> s0 = {
      {false, 100, {1}}, {false, 100, {2}}, {true, 0, {}}, {false, 300, {3}}};
  // Stream 1: a command tying stream 0's effective 101, a lease to 250, and
  // a command from a clock that runs behind the lease (effective 251).
  const std::vector<Decided> s1 = {{false, 101, {10}},
                                   {true, 250, {}},
                                   {false, 50, {11}},
                                   {false, 400, {12}}};
  for (std::size_t i = 0; i < s0.size(); ++i) m.feed(0, i, s0[i]);
  for (std::size_t i = 0; i < s1.size(); ++i) m.feed(1, i, s1[i]);

  // Ties go to the lower stream index; 12 (slot 400) must wait until
  // stream 0 proves it decides nothing before 400.
  EXPECT_EQ(m.drain(), (Ids{1, 2, 10, 11, 3}));
  m.feed(0, 4, {true, 500, {}});
  EXPECT_EQ(m.drain(), (Ids{12}));
  EXPECT_EQ(m.merge->last_slot(0), 300u);
  EXPECT_TRUE(m.merge->head(0).has_value()) << "the lease to 500 stays held";
  EXPECT_EQ(m.merge->last_slot(1), 400u);
}

TEST(MergeDeliverer, LeaseLetsPeerCommandsPassWithoutWaiting) {
  Network net;
  CraftedMerge m(net, {0, 0});
  m.feed(1, 0, {true, 1000, {}});
  m.feed(0, 0, {false, 200, {1}});
  m.feed(0, 1, {false, 600, {2}});
  m.feed(0, 2, {false, 999, {3}});
  EXPECT_EQ(m.drain(), (Ids{1, 2, 3})) << "the lease covers all three";
  m.feed(0, 3, {false, 1002, {4}});
  EXPECT_EQ(m.drain(), Ids{})
      << "stream 1 may still decide 1001, ahead of 4: wait for it";
  m.feed(1, 1, {false, 1200, {5}});
  EXPECT_EQ(m.drain(), (Ids{4}));
  EXPECT_EQ(m.merge->stream_position(0), 4u);
  EXPECT_EQ(m.merge->stream_position(1), 2u) << "5 is fetched and held";
}

// The property behind replica consistency: the merged sequence is a
// function of the decided streams alone.  Random streams (frequent slot
// ties, slot-0 fills, clocks stepping backwards, skips) are merged once
// with everything decided up front, and again with decisions arriving in
// random order between polls, cut at a random point and resumed on fresh
// logs through stream_position / last_slot / head / pending, as a
// checkpoint restore does.  Both must deliver the identical sequence.
TEST(MergeProperty, SequenceDependsOnlyOnTheDecidedStreams) {
  util::SplitMix64 rng(test_support::logged_seed(0x5107));
  constexpr std::size_t kStreams = 3;
  for (int round = 0; round < 20; ++round) {
    std::vector<std::vector<Decided>> streams(kStreams);
    std::uint64_t next_id = 0;
    std::size_t total = 0;
    for (auto& st : streams) {
      std::uint64_t clock = rng.next_below(50);
      const std::size_t n = 20 + rng.next_below(40);
      for (std::size_t i = 0; i < n; ++i) {
        Decided d;
        const auto kind = rng.next_below(10);
        clock += rng.next_below(8);  // coarse steps: ties are common
        if (kind == 0) {
          d.skip = true;  // failover fill
        } else if (kind <= 2) {
          d.skip = true;
          d.slot = clock + rng.next_below(20);  // lease
        } else {
          // A clock running behind now and then.
          d.slot = kind == 3 ? clock - std::min<std::uint64_t>(clock, 10)
                             : clock;
          for (auto c = 1 + rng.next_below(3); c > 0; --c) {
            d.ids.push_back(next_id++);
          }
          total += d.ids.size();
        }
        st.push_back(std::move(d));
      }
      // A final infinite lease, so every command becomes deliverable.
      st.push_back({true, std::numeric_limits<std::uint64_t>::max() / 2, {}});
    }

    Network net;
    CraftedMerge ref(net, std::vector<paxos::Instance>(kStreams, 0));
    for (std::size_t s = 0; s < kStreams; ++s) {
      for (std::size_t i = 0; i < streams[s].size(); ++i) {
        ref.feed(s, i, streams[s][i]);
      }
    }
    const Ids want = ref.drain();
    ASSERT_EQ(want.size(), total) << "round " << round;

    // Random arrival order: shuffle (stream, instance) pairs.
    std::vector<std::pair<std::size_t, std::size_t>> arrivals;
    for (std::size_t s = 0; s < kStreams; ++s) {
      for (std::size_t i = 0; i < streams[s].size(); ++i) {
        arrivals.emplace_back(s, i);
      }
    }
    for (std::size_t i = arrivals.size(); i > 1; --i) {
      std::swap(arrivals[i - 1], arrivals[rng.next_below(i)]);
    }
    const std::size_t cut = rng.next_below(total);
    auto live = std::make_unique<CraftedMerge>(
        net, std::vector<paxos::Instance>(kStreams, 0));
    Ids got;
    Delivery d;
    std::size_t fed = 0;
    while (got.size() < cut) {
      ASSERT_LT(fed, arrivals.size()) << "round " << round;
      for (auto k = 1 + rng.next_below(4); k > 0 && fed < arrivals.size();
           --k, ++fed) {
        live->feed(arrivals[fed].first, arrivals[fed].second,
                   streams[arrivals[fed].first][arrivals[fed].second]);
      }
      while (got.size() < cut &&
             live->merge->try_next(d) == MergeDeliverer::Poll::kDelivered) {
        got.push_back(msg_id(d.message));
      }
    }

    // Checkpoint cut, then resume on fresh logs fed everything again.
    std::vector<paxos::Instance> positions;
    std::vector<std::uint64_t> slots;
    std::vector<std::optional<paxos::Batch>> heads;
    for (std::size_t s = 0; s < kStreams; ++s) {
      positions.push_back(live->merge->stream_position(s));
      slots.push_back(live->merge->last_slot(s));
      heads.push_back(live->merge->head(s));
    }
    std::deque<Delivery> pending = live->merge->pending();
    live.reset();
    CraftedMerge resumed(net, positions);
    resumed.merge->restore_merge_state(slots, std::move(heads),
                                       std::move(pending));
    for (auto [s, i] : arrivals) resumed.feed(s, i, streams[s][i]);
    for (auto id : resumed.drain()) got.push_back(id);
    EXPECT_EQ(got, want) << "round " << round << ", cut at " << cut;
  }
}

// --- Clock-slot merge on a live bus ----------------------------------------

using Clock = std::chrono::steady_clock;

// ThreadSanitizer now and then pauses every thread of the process for tens
// of milliseconds (shadow-memory upkeep), so a wall-clock latency bound
// says nothing under it; the traffic still runs there for the race checks.
#if defined(__SANITIZE_THREAD__)
constexpr bool kThreadSanitizer = true;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
constexpr bool kThreadSanitizer = true;
#else
constexpr bool kThreadSanitizer = false;
#endif
#else
constexpr bool kThreadSanitizer = false;
#endif

// The drift regression.  The instance round-robin merge took one decision
// per ring per round, so a worker ring deciding ~2.5K instances/s outran
// the idle rings' fixed 2K skips/s: its backlog in the merge grew by ~500
// instances every second and singleton latency with it.  The clock-slot
// merge orders on slots and idle rings lease on demand, so nothing queues.
TEST(Bus, SparseSingletonsNeverDriftBehindIdleRings) {
  constexpr std::uint64_t kSingles = 5000;  // 2.5K/s for 2 s
  constexpr auto kGap = std::chrono::microseconds(400);
  constexpr auto kBound = std::chrono::milliseconds(20);
  Network net;
  BusConfig cfg;  // default ring config: 200us batch timeout, 500us lease
  cfg.num_groups = 2;
  Bus bus(net, cfg);
  auto s0 = bus.subscribe(0);
  auto s1 = bus.subscribe(1);
  bus.start();

  // Index kSingles is the g_all message.
  std::vector<Clock::time_point> submitted(kSingles + 1);
  std::vector<Clock::time_point> at_s0(kSingles + 1);
  Clock::time_point gall_at_s1;
  std::thread c0([&] {
    for (std::uint64_t i = 0; i <= kSingles; ++i) {
      auto d = s0->next();
      if (!d) return;
      at_s0[std::min(msg_id(d->message), kSingles)] = Clock::now();
    }
  });
  std::thread c1([&] {
    if (auto d = s1->next()) gall_at_s1 = Clock::now();
  });

  auto [me, mybox] = net.register_node();
  const auto t0 = Clock::now();
  bool sent = true;
  for (std::uint64_t i = 0; sent && i < kSingles; ++i) {
    std::this_thread::sleep_until(t0 + i * kGap);
    submitted[i] = Clock::now();
    sent = bus.multicast(me, GroupSet::single(0), msg(i));
  }
  submitted[kSingles] = Clock::now();
  sent = sent && bus.multicast(me, GroupSet::all(2), msg(kSingles));
  if (!sent) {  // unblock the consumers before joining them
    s0->close();
    s1->close();
  }
  c0.join();
  c1.join();
  ASSERT_TRUE(sent);

  Clock::duration worst{0};
  for (std::uint64_t i = 0; i <= kSingles; ++i) {
    worst = std::max(worst, at_s0[i] - submitted[i]);
  }
  worst = std::max(worst, gall_at_s1 - submitted[kSingles]);
  RecordProperty(
      "worst_us",
      std::to_string(
          std::chrono::duration_cast<std::chrono::microseconds>(worst)
              .count()));
  if (kThreadSanitizer) {
    bus.stop();
    net.shutdown();
    GTEST_SKIP() << "latency bound not checked under ThreadSanitizer";
  }
  EXPECT_LE(worst, kBound)
      << "worst submit-to-merge latency "
      << std::chrono::duration_cast<std::chrono::microseconds>(worst).count()
      << " us";
  bus.stop();
  net.shutdown();
}

// Skips are on demand: an idle mpl-4 deployment (five rings) decides only
// the fallback lease, one per ring an rto after its last lapsed — ~910/s
// at the default 500us lease and 5ms rto, where a fixed 500us cadence
// decided 10 000/s.
TEST(Bus, IdleDeploymentDecidesFewSkips) {
  Network net;
  BusConfig cfg;
  cfg.num_groups = 4;
  Bus bus(net, cfg);
  std::vector<std::unique_ptr<MergeDeliverer>> subs;
  for (GroupId g = 0; g < 4; ++g) subs.push_back(bus.subscribe(g));
  bus.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const auto before = bus.decided_skips();
  std::this_thread::sleep_for(std::chrono::seconds(1));
  const auto skips = bus.decided_skips() - before;
  RecordProperty("skips", std::to_string(skips));
  EXPECT_LE(skips, 1000u);
  EXPECT_GT(skips, 0u) << "the lost-nudge fallback must still run";
  bus.stop();
  net.shutdown();
}

// Property case on a live bus: two subscribers per group (think: the same
// worker on two replicas), skewed per-group rates with g_all traffic,
// coordinator clocks skewed both ways, a coordinator failover on a worker
// ring and on the shared ring mid-run, and subscriber 1 of every group
// resumed halfway through from its merge state (subscribe_at +
// restore_merge_state).  Every subscriber of a group must deliver the
// identical sequence.
TEST(Bus, SkewFailoverAndResumeKeepSubscribersIdentical) {
  constexpr std::size_t kGroups = 3;
  constexpr std::uint64_t kPerGroup = 150;
  const std::uint64_t seed = test_support::logged_seed(29);
  Network net;
  BusConfig cfg;
  cfg.num_groups = kGroups;
  Bus bus(net, cfg);
  std::vector<std::vector<std::unique_ptr<MergeDeliverer>>> subs(kGroups);
  for (GroupId g = 0; g < kGroups; ++g) {
    for (int r = 0; r < 2; ++r) subs[g].push_back(bus.subscribe(g));
  }
  bus.start();
  bus.group_ring(1).skew_coordinator_clock(std::chrono::milliseconds(3));
  bus.group_ring(2).skew_coordinator_clock(std::chrono::milliseconds(-2));

  // Skewed rates: group g sends with a gap of 50us * 4^g; one command in
  // six goes to g_all.
  std::vector<std::uint64_t> shared_sent(kGroups, 0);
  const auto send_range = [&](std::uint64_t from, std::uint64_t to) {
    test_support::run_threads(static_cast<int>(kGroups), [&](int t) {
      const auto g = static_cast<GroupId>(t);
      auto [node, box] = net.register_node();
      util::SplitMix64 rng(seed + g * 1000 + from);
      const auto gap = std::chrono::microseconds(50u << (2 * g));
      for (std::uint64_t i = from; i < to; ++i) {
        const std::uint64_t id = (std::uint64_t{g} << 32) | i;
        if (rng.next_below(6) == 0) {
          ASSERT_TRUE(bus.multicast(node, GroupSet::all(kGroups),
                                    msg((1ull << 63) | id)));
          ++shared_sent[g];
        } else {
          ASSERT_TRUE(bus.multicast(node, GroupSet::single(g), msg(id)));
        }
        std::this_thread::sleep_for(gap);
      }
    });
  };

  // The Bus does not retransmit, so a command still open at a failed
  // coordinator would be lost: fail over between two halves of the
  // traffic, once the first half is decided.  The merges see both halves
  // and the failover no-op fills between them.
  send_range(0, kPerGroup / 2);
  const auto deadline = Clock::now() + std::chrono::seconds(30);
  while (bus.decided_commands() < kGroups * (kPerGroup / 2)) {
    ASSERT_LT(Clock::now(), deadline) << "first half never decided";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  bus.group_ring(0).fail_coordinator();
  bus.shared_ring().fail_coordinator();
  send_range(kPerGroup / 2, kPerGroup);

  std::uint64_t total_shared = 0;
  for (auto n : shared_sent) total_shared += n;
  for (GroupId g = 0; g < kGroups; ++g) {
    const std::uint64_t want = kPerGroup - shared_sent[g] + total_shared;
    std::vector<std::vector<std::uint64_t>> seqs(2);
    for (std::uint64_t i = 0; i < want; ++i) {
      auto d = subs[g][0]->next();
      ASSERT_TRUE(d.has_value()) << "group " << g << " stalled at " << i;
      seqs[0].push_back(msg_id(d->message));
    }
    auto& sub = subs[g][1];
    for (std::uint64_t i = 0; i < want; ++i) {
      if (i == want / 2) {
        std::vector<paxos::Instance> positions;
        std::vector<std::uint64_t> slots;
        std::vector<std::optional<paxos::Batch>> heads;
        for (std::size_t s = 0; s < sub->num_streams(); ++s) {
          positions.push_back(sub->stream_position(s));
          slots.push_back(sub->last_slot(s));
          heads.push_back(sub->head(s));
        }
        auto resumed = bus.subscribe_at(g, positions);
        ASSERT_NE(resumed, nullptr);
        resumed->restore_merge_state(slots, std::move(heads), sub->pending());
        sub->close();
        sub = std::move(resumed);
      }
      auto d = sub->next();
      ASSERT_TRUE(d.has_value()) << "group " << g << " resumed subscriber "
                                 << "stalled at " << i;
      seqs[1].push_back(msg_id(d->message));
    }
    EXPECT_EQ(seqs[0], seqs[1]) << "divergent delivery in group " << g;
  }
  bus.stop();
  net.shutdown();
}

}  // namespace
}  // namespace psmr::multicast
