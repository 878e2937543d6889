// Batching-focused unit suite: seal triggers (byte cap, command cap,
// timeout, sparse submits), SUBMIT_MANY framing and its hostile-frame
// rejection, the Bus's
// submit spool, and the frame spool's flush-pause rendezvous on the
// submit direction (the reply direction runs it in response_batching_test).
//
// Everything here asserts on CoordinatorStats / SpoolStats rather than
// throughput, so the tests stay meaningful on a loaded host.
#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "multicast/amcast.h"
#include "paxos/ring.h"
#include "test_support.h"
#include "transport/frame_spool.h"
#include "transport/network.h"

namespace psmr::paxos {
namespace {

using transport::Network;

util::Buffer cmd(std::uint64_t id) {
  util::Writer w;
  w.u64(id);
  return w.take();
}

std::uint64_t cmd_id(std::span<const std::uint8_t> b) {
  util::Reader r(b);
  return r.u64();
}

// Drains exactly `want` commands from the learner, checking contiguous ids.
void drain_ordered(LearnerLog& log, std::uint64_t want) {
  std::uint64_t expect = 0;
  while (expect < want) {
    auto d = log.next_for(std::chrono::seconds(5));
    ASSERT_TRUE(d.has_value()) << "delivery stalled at " << expect;
    if (d->batch.skip) continue;
    for (const auto& c : d->batch.commands) {
      EXPECT_EQ(cmd_id(c), expect);
      ++expect;
    }
  }
}

RingConfig quiet_ring() {
  // Long timeout so only the explicit caps under test can seal.
  RingConfig cfg;
  cfg.batch_timeout = std::chrono::milliseconds(50);
  return cfg;
}

TEST(BatchSeal, ByteCapSealsExactly) {
  Network net;
  RingConfig cfg = quiet_ring();
  // Long enough that a descheduled submitter cannot sneak in a timeout
  // seal mid-flood; every batch seals on the byte cap (64 = 8 * 8 exactly,
  // so there is no trailing partial to wait out either).
  cfg.batch_timeout = std::chrono::milliseconds(500);
  cfg.max_batch_bytes = 64;  // 8 commands of 8 bytes
  Ring ring(net, 0, cfg);
  auto learner = ring.subscribe();
  ring.start();
  auto [me, mybox] = net.register_node();

  for (std::uint64_t i = 0; i < 64; ++i) ring.submit(me, cmd(i));
  drain_ordered(*learner, 64);

  auto s = ring.stats();
  EXPECT_EQ(s.sealed_on_bytes, 8u);
  EXPECT_EQ(s.sealed_on_count, 0u);
  EXPECT_EQ(s.sealed_on_timeout, 0u);
  EXPECT_EQ(s.sealed_batches, 8u);
  EXPECT_EQ(s.sealed_commands, 64u);
  EXPECT_EQ(s.sealed_bytes, 64u * 8u);
  EXPECT_DOUBLE_EQ(s.mean_commands_per_batch(), 8.0);
  EXPECT_DOUBLE_EQ(s.mean_bytes_per_batch(), 64.0);
}

TEST(BatchSeal, CommandCapSealsExactly) {
  Network net;
  RingConfig cfg = quiet_ring();
  cfg.batch_timeout = std::chrono::milliseconds(500);
  cfg.max_batch_commands = 5;
  Ring ring(net, 0, cfg);
  auto learner = ring.subscribe();
  ring.start();
  auto [me, mybox] = net.register_node();

  for (std::uint64_t i = 0; i < 40; ++i) ring.submit(me, cmd(i));
  drain_ordered(*learner, 40);

  auto s = ring.stats();
  EXPECT_EQ(s.sealed_on_count, 8u);
  EXPECT_EQ(s.sealed_on_bytes, 0u);
  EXPECT_EQ(s.sealed_on_timeout, 0u);
  EXPECT_DOUBLE_EQ(s.mean_commands_per_batch(), 5.0);
}

TEST(BatchSeal, TimeoutSealsPartialBatch) {
  Network net;
  RingConfig cfg;
  cfg.batch_timeout = std::chrono::microseconds(300);
  Ring ring(net, 0, cfg);
  auto learner = ring.subscribe();
  ring.start();
  auto [me, mybox] = net.register_node();

  for (std::uint64_t i = 0; i < 3; ++i) ring.submit(me, cmd(i));
  drain_ordered(*learner, 3);

  auto s = ring.stats();
  // >= rather than ==: a descheduled submitter can split the trio into two
  // timeout-sealed batches on a loaded host.
  EXPECT_GE(s.sealed_on_timeout, 1u);
  EXPECT_EQ(s.sealed_on_bytes, 0u);
  EXPECT_EQ(s.sealed_on_count, 0u);
  EXPECT_EQ(s.sealed_commands, 3u);
}

TEST(BatchSeal, SparseSubmitsSealAtOnce) {
  // Submits 2 ms apart against a 300 us timeout: waiting would add latency
  // and no commands, so once the inter-submit average has seen a few gaps
  // the ring seals each command as it arrives.
  Network net;
  RingConfig cfg;
  cfg.batch_timeout = std::chrono::microseconds(300);
  Ring ring(net, 0, cfg);
  auto learner = ring.subscribe();
  ring.start();
  auto [me, mybox] = net.register_node();

  constexpr std::uint64_t kCommands = 12;
  for (std::uint64_t i = 0; i < kCommands; ++i) {
    ring.submit(me, cmd(i));
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  drain_ordered(*learner, kCommands);

  auto s = ring.stats();
  EXPECT_EQ(s.sealed_commands, kCommands);
  EXPECT_GE(s.sealed_at_once, kCommands - 4);
  EXPECT_LE(s.sealed_on_timeout, 4u);
}

/// A SUBMIT_MANY frame: u32 count + count length-prefixed commands.
util::Payload frame_of(std::uint64_t first, std::uint64_t count) {
  util::PayloadWriter w(64);
  w.u32(static_cast<std::uint32_t>(count));
  for (std::uint64_t i = first; i < first + count; ++i) w.bytes(cmd(i));
  return w.take();
}

TEST(SubmitMany, BurstArrivesInOneMessage) {
  Network net;
  Ring ring(net, 0, quiet_ring());
  auto learner = ring.subscribe();
  ring.start();
  auto [me, mybox] = net.register_node();

  ASSERT_TRUE(ring.submit_many(me, frame_of(0, 10)));
  drain_ordered(*learner, 10);

  auto s = ring.stats();
  EXPECT_EQ(s.submit_msgs, 1u);
  EXPECT_EQ(s.submit_commands, 10u);
}

TEST(SubmitMany, SingleCommandFallsBackToPlainSubmit) {
  // A one-entry spool flush leaves with the plain kPaxosSubmit framing: the
  // entry alone, no count or length prefix.
  Network net;
  Ring ring(net, 0, quiet_ring());
  auto learner = ring.subscribe();
  ring.start();
  auto [me, mybox] = net.register_node();

  std::vector<bool> many_flags;
  transport::FrameSpool<int> spool(
      64, 32 * 1024, transport::FrameSpool<int>::kNoAgeBound,
      [&](transport::NodeId from, int, util::Payload message, bool many) {
        many_flags.push_back(many);
        EXPECT_EQ(message, cmd(0));
        return many ? ring.submit_many(from, std::move(message))
                    : ring.submit(from, std::move(message));
      });
  const util::Buffer one = cmd(0);
  ASSERT_TRUE(spool.append(me, 0, one.size(),
                           [&](util::PayloadWriter& w) { w.raw(one); }));
  ASSERT_TRUE(spool.flush_all(me));
  EXPECT_TRUE(spool.flush_all(me));  // nothing spooled: a no-op
  EXPECT_EQ(many_flags, std::vector<bool>{false});
  drain_ordered(*learner, 1);

  auto s = ring.stats();
  EXPECT_EQ(s.submit_msgs, 1u);
  EXPECT_EQ(s.submit_commands, 1u);
}

TEST(SubmitMany, BurstRespectsBatchCapsMidMessage) {
  Network net;
  RingConfig cfg = quiet_ring();
  cfg.max_batch_commands = 4;
  Ring ring(net, 0, cfg);
  auto learner = ring.subscribe();
  ring.start();
  auto [me, mybox] = net.register_node();

  ASSERT_TRUE(ring.submit_many(me, frame_of(0, 10)));
  drain_ordered(*learner, 10);

  auto s = ring.stats();
  // 10 commands through a cap of 4: two full batches sealed on the cap,
  // the trailing 2 sealed by the (long) timeout.
  EXPECT_EQ(s.sealed_on_count, 2u);
  EXPECT_EQ(s.sealed_commands, 10u);
}

TEST(SubmitMany, HostileFrameIsRejectedWhole) {
  // Malformed SUBMIT_MANY frames sent straight to the coordinator must
  // enqueue and count nothing — in particular a truncated frame must not
  // enqueue its leading commands.  The one valid command sent afterwards is
  // the first (and only) thing the ring decides.
  Network net;
  Ring ring(net, 0, quiet_ring());
  auto learner = ring.subscribe();
  ring.start();
  auto [me, mybox] = net.register_node();

  std::vector<util::Buffer> hostile;
  {
    util::Writer w;  // zero count
    w.u32(0);
    hostile.push_back(w.take());
  }
  {
    util::Writer w;  // count above the hard cap
    w.u32(transport::kMaxFrameEntries + 1);
    for (int i = 0; i < 8; ++i) w.bytes(cmd(100 + i));
    hostile.push_back(w.take());
  }
  {
    util::Writer w;  // count beyond what the bytes could hold
    w.u32(1000);
    w.bytes(cmd(100));
    hostile.push_back(w.take());
  }
  {
    // Truncated: three commands announced, two whole ones present, the
    // third cut mid-body.
    util::Payload full = frame_of(100, 3);
    hostile.push_back(util::Buffer(full.begin(), full.end() - 3));
  }
  {
    util::Payload full = frame_of(100, 2);  // trailing bytes
    util::Buffer b(full.begin(), full.end());
    b.push_back(0);
    hostile.push_back(std::move(b));
  }
  for (auto& frame : hostile) {
    ASSERT_TRUE(net.send(me, ring.coordinator(),
                         transport::MsgType::kPaxosSubmitMany, frame));
  }
  ASSERT_TRUE(ring.submit(me, cmd(0)));
  drain_ordered(*learner, 1);  // decides command 0 first, and only it

  auto s = ring.stats();
  EXPECT_EQ(s.submit_msgs, 1u);
  EXPECT_EQ(s.submit_commands, 1u);
  EXPECT_EQ(s.sealed_commands, 1u);
}

}  // namespace
}  // namespace psmr::paxos

namespace psmr::multicast {
namespace {

using transport::Network;

util::Buffer msg(std::uint64_t id) {
  util::Writer w;
  w.u64(id);
  return w.take();
}

TEST(Coalescer, SingleThreadFlushesEverySubmit) {
  Network net;
  BusConfig cfg;
  cfg.num_groups = 1;
  cfg.ring.batch_timeout = std::chrono::microseconds(200);
  Bus bus(net, cfg);
  auto sub = bus.subscribe(0);
  bus.start();
  auto [me, mybox] = net.register_node();

  for (std::uint64_t i = 0; i < 20; ++i) {
    ASSERT_TRUE(bus.multicast(me, GroupSet::single(0), msg(i)));
  }
  for (std::uint64_t i = 0; i < 20; ++i) {
    auto d = sub->next();
    ASSERT_TRUE(d.has_value());
  }

  // With no contention every submit flushes itself: nothing piggybacks.
  auto cs = bus.coalesce_stats();
  EXPECT_EQ(cs.flushes, 20u);
  EXPECT_EQ(cs.flushed_commands, 20u);
  EXPECT_EQ(cs.piggybacked, 0u);
}

TEST(Coalescer, DisabledBusSubmitsDirectly) {
  // Submit caps of 1: a spooled command flushes on append, one wire
  // message each, with no poll-entry flush needed.
  Network net;
  BusConfig cfg;
  cfg.num_groups = 1;
  cfg.submit_caps.max_commands = 1;
  cfg.ring.batch_timeout = std::chrono::microseconds(200);
  Bus bus(net, cfg);
  auto sub = bus.subscribe(0);
  bus.start();
  auto [me, mybox] = net.register_node();

  for (std::uint64_t i = 0; i < 10; ++i) {
    const util::Buffer m = msg(i);
    ASSERT_TRUE(bus.spool(me, GroupSet::single(0), m.size(),
                          [&m](util::PayloadWriter& w) { w.raw(m); }));
  }
  for (std::uint64_t i = 0; i < 10; ++i) {
    auto d = sub->next();
    ASSERT_TRUE(d.has_value());
  }
  auto cs = bus.coalesce_stats();
  EXPECT_EQ(cs.flushes, 10u);
  EXPECT_EQ(cs.flush_on_count, 10u);
  EXPECT_EQ(cs.flushed_commands, 10u);
  EXPECT_EQ(bus.total_stats().submit_msgs, 10u);
}

TEST(Coalescer, ConcurrentSharedRingSubmitsPiggyback) {
  // Submit direction: two multicasts to the shared g_all ring meet in the
  // Bus's one submit spool.  The same rendezvous runs on the reply spool in
  // ResponseCoalescer.FlushPauseRendezvousCarriesConcurrentSpool.
  Network net;
  BusConfig cfg;
  cfg.num_groups = 2;
  cfg.ring.batch_timeout = std::chrono::microseconds(200);
  cfg.ring.skip_interval = std::chrono::microseconds(500);
  Bus bus(net, cfg);
  auto sub = bus.subscribe(0);
  bus.start();
  auto [a_node, a_box] = net.register_node();
  auto [b_node, b_box] = net.register_node();
  test_support::flush_pause_rendezvous(
      bus.submit_spool(),
      [&] { EXPECT_TRUE(bus.multicast(a_node, GroupSet::all(2), msg(1))); },
      [&] { ASSERT_TRUE(bus.multicast(b_node, GroupSet::all(2), msg(2))); });
  // Both commands reach every subscriber of the shared ring.
  for (int i = 0; i < 2; ++i) {
    auto d = sub->next();
    ASSERT_TRUE(d.has_value());
  }
  EXPECT_EQ(bus.shared_ring_stats().submit_commands, 2u);
}

}  // namespace
}  // namespace psmr::multicast
