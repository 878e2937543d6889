#include "paxos/ring.h"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <thread>

#include "transport/network.h"
#include "util/hash.h"

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

RingConfig fast_config() {
  RingConfig cfg;
  cfg.batch_timeout = std::chrono::microseconds(200);
  cfg.rto = std::chrono::microseconds(2000);
  return cfg;
}

TEST(Batch, EncodeDecodeRoundTrip) {
  Batch b;
  b.skip = false;
  b.commands = {cmd(1), cmd(2), cmd(3)};
  auto enc = b.encode();
  auto dec = Batch::decode(enc);
  ASSERT_TRUE(dec.has_value());
  EXPECT_FALSE(dec->skip);
  ASSERT_EQ(dec->commands.size(), 3u);
  EXPECT_EQ(cmd_id(dec->commands[0]), 1u);
  EXPECT_EQ(cmd_id(dec->commands[2]), 3u);
}

TEST(Batch, SkipRoundTrip) {
  Batch b;
  b.skip = true;
  auto dec = Batch::decode(b.encode());
  ASSERT_TRUE(dec.has_value());
  EXPECT_TRUE(dec->skip);
  EXPECT_TRUE(dec->commands.empty());
}

TEST(Batch, CorruptionDetected) {
  Batch b;
  b.commands = {cmd(42)};
  auto enc = b.encode().to_buffer();
  enc[enc.size() / 2] ^= 0xff;
  EXPECT_FALSE(Batch::decode(enc).has_value());
}

TEST(Batch, TruncationDetected) {
  Batch b;
  b.commands = {cmd(42)};
  auto enc = b.encode().to_buffer();
  enc.resize(enc.size() - 1);
  EXPECT_FALSE(Batch::decode(enc).has_value());
}

TEST(Batch, PeekReadsTheHeaderOfEveryValueKind) {
  Batch commands;
  commands.slot = 1234;
  commands.commands = {cmd(1), cmd(2), cmd(3)};
  Batch lease;
  lease.skip = true;
  lease.slot = 99;
  Batch noop_fill;  // what a failover coordinator proposes into a gap
  noop_fill.skip = true;
  for (const Batch* b : {&commands, &lease, &noop_fill}) {
    const util::Payload enc = b->encode();
    auto header = Batch::peek(enc.view());
    auto decoded = Batch::decode(enc);
    ASSERT_TRUE(header.has_value());
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(header->skip, decoded->skip);
    EXPECT_EQ(header->slot, decoded->slot);
    EXPECT_EQ(header->count, decoded->commands.size());
  }
  const util::Buffer truncated(8, 0);
  EXPECT_FALSE(Batch::peek(truncated).has_value());
}

TEST(Ring, DecidedCountersMatchWhatLearnersDeliver) {
  Network net;
  RingConfig cfg = fast_config();
  cfg.skip_interval = std::chrono::microseconds(500);
  Ring ring(net, 0, cfg);
  auto learner = ring.subscribe();
  ring.start();
  auto [me, mybox] = net.register_node();
  constexpr std::uint64_t kN = 300;
  for (std::uint64_t i = 0; i < kN; ++i) ASSERT_TRUE(ring.submit(me, cmd(i)));

  std::uint64_t commands = 0, skips = 0, batches = 0;
  const auto count = [&](const Decision& d) {
    ++batches;
    if (d.batch.skip) {
      ++skips;
    } else {
      commands += d.batch.commands.size();
    }
  };
  while (commands < kN) {
    auto d = learner->next_for(std::chrono::seconds(5));
    ASSERT_TRUE(d.has_value()) << "stalled at " << commands;
    count(*d);
  }
  // Suppress the idle ring's fallback skips and drain what is in flight:
  // the learner has then seen exactly the instances the coordinator
  // decided.
  ring.stall_coordinator_ticks(std::chrono::seconds(5));
  while (auto d = learner->next_for(std::chrono::milliseconds(100))) count(*d);
  const CoordinatorStats stats = ring.stats();
  EXPECT_EQ(stats.decided_commands, kN);
  EXPECT_EQ(stats.decided_batches, batches);
  EXPECT_EQ(stats.decided_skips, skips);
}

TEST(Ring, DecidesSubmittedCommandsInOrder) {
  Network net;
  Ring ring(net, 0, fast_config());
  auto learner = ring.subscribe();
  ring.start();
  auto [me, mybox] = net.register_node();

  constexpr std::uint64_t kN = 500;
  for (std::uint64_t i = 0; i < kN; ++i) {
    ASSERT_TRUE(ring.submit(me, cmd(i)));
  }
  std::uint64_t expect = 0;
  while (expect < kN) {
    auto d = learner->next_for(std::chrono::seconds(5));
    ASSERT_TRUE(d.has_value()) << "stalled at " << expect;
    if (d->batch.skip) continue;
    for (const auto& c : d->batch.commands) {
      EXPECT_EQ(cmd_id(c), expect);
      ++expect;
    }
  }
}

TEST(Ring, TwoLearnersSeeIdenticalSequences) {
  Network net;
  Ring ring(net, 0, fast_config());
  auto l1 = ring.subscribe();
  auto l2 = ring.subscribe();
  ring.start();
  auto [me, mybox] = net.register_node();
  for (std::uint64_t i = 0; i < 300; ++i) ring.submit(me, cmd(i));

  auto drain = [](LearnerLog& log, std::uint64_t want) {
    std::vector<std::pair<Instance, std::uint64_t>> seq;
    std::uint64_t got = 0;
    while (got < want) {
      auto d = log.next_for(std::chrono::seconds(5));
      if (!d) break;
      if (d->batch.skip) continue;
      for (const auto& c : d->batch.commands) {
        seq.emplace_back(d->instance, cmd_id(c));
        ++got;
      }
    }
    return seq;
  };
  auto s1 = drain(*l1, 300);
  auto s2 = drain(*l2, 300);
  EXPECT_EQ(s1, s2);
  EXPECT_EQ(s1.size(), 300u);
}

TEST(Ring, BatchesRespectSizeLimit) {
  Network net;
  RingConfig cfg = fast_config();
  cfg.max_batch_bytes = 64;  // tiny batches: 8 commands of 8 bytes each
  Ring ring(net, 0, cfg);
  auto learner = ring.subscribe();
  ring.start();
  auto [me, mybox] = net.register_node();
  for (std::uint64_t i = 0; i < 100; ++i) ring.submit(me, cmd(i));
  std::uint64_t got = 0;
  while (got < 100) {
    auto d = learner->next_for(std::chrono::seconds(5));
    ASSERT_TRUE(d);
    if (d->batch.skip) continue;
    EXPECT_LE(d->batch.commands.size(), 9u);
    got += d->batch.commands.size();
  }
}

TEST(Ring, SkipsGeneratedWhenIdle) {
  Network net;
  RingConfig cfg = fast_config();
  cfg.skip_interval = std::chrono::microseconds(500);
  Ring ring(net, 0, cfg);
  auto learner = ring.subscribe();
  ring.start();
  int skips = 0;
  for (int i = 0; i < 20; ++i) {
    auto d = learner->next_for(std::chrono::seconds(2));
    ASSERT_TRUE(d.has_value());
    if (d->batch.skip) ++skips;
  }
  EXPECT_GE(skips, 15);  // an idle ring is nearly all skips
}

TEST(Ring, SurvivesMessageLoss) {
  Network net;
  RingConfig cfg = fast_config();
  cfg.rto = std::chrono::microseconds(3000);
  Ring ring(net, 0, cfg);
  auto learner = ring.subscribe();
  ring.start();
  auto [me, mybox] = net.register_node();
  net.set_drop_probability(0.10);

  constexpr std::uint64_t kN = 100;
  std::set<std::uint64_t> want;
  for (std::uint64_t i = 0; i < kN; ++i) want.insert(i);

  std::set<std::uint64_t> got;
  // Keep resubmitting undelivered commands; duplicates are possible (the
  // submit itself may be dropped before reaching the coordinator), so we
  // check set coverage rather than exact order.
  for (int attempt = 0; attempt < 60 && got.size() < kN; ++attempt) {
    for (auto id : want) {
      if (!got.contains(id)) ring.submit(me, cmd(id));
    }
    auto deadline = std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(200);
    while (std::chrono::steady_clock::now() < deadline && got.size() < kN) {
      auto d = learner->next_for(std::chrono::milliseconds(50));
      if (!d || d->batch.skip) continue;
      for (const auto& c : d->batch.commands) got.insert(cmd_id(c));
    }
  }
  EXPECT_EQ(got.size(), kN);
}

TEST(Ring, RetransmitsBackOffUpToEightRto) {
  // With two of three acceptors unreachable an instance cannot decide, so
  // its ACCEPTs are resent.  Each resend doubles the instance's interval
  // from rto up to 8x rto: over 100 ms at a 1 ms rto that is ~14 resends
  // (1, 3, 7, 15, 23, ... ms), where a fixed rto would resend ~100 times.
  Network net;
  RingConfig cfg;
  cfg.rto = std::chrono::microseconds(1000);
  Ring ring(net, 0, cfg);
  auto learner = ring.subscribe();
  ring.start();
  auto [me, mybox] = net.register_node();
  ring.submit(me, cmd(0));
  auto first = learner->next_for(std::chrono::seconds(5));
  ASSERT_TRUE(first.has_value());

  net.disconnect(ring.acceptor_ids()[1]);
  net.disconnect(ring.acceptor_ids()[2]);
  const auto before = ring.stats().resends;
  ring.submit(me, cmd(1));
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const auto resends = ring.stats().resends - before;
  EXPECT_GE(resends, 4u);
  EXPECT_LE(resends, 20u);

  // Reachable again: the next resend (at most 8 rto away) decides it.
  net.reconnect(ring.acceptor_ids()[1]);
  net.reconnect(ring.acceptor_ids()[2]);
  auto second = learner->next_for(std::chrono::seconds(5));
  ASSERT_TRUE(second.has_value());
  ASSERT_EQ(second->batch.commands.size(), 1u);
  EXPECT_EQ(cmd_id(second->batch.commands[0]), 1u);
}

TEST(Ring, LateSubscriberCatchesUp) {
  Network net;
  Ring ring(net, 0, fast_config());
  auto early = ring.subscribe();
  ring.start();
  auto [me, mybox] = net.register_node();
  for (std::uint64_t i = 0; i < 50; ++i) ring.submit(me, cmd(i));
  // Wait until everything is decided (observed via the early learner).
  std::uint64_t got = 0;
  while (got < 50) {
    auto d = early->next_for(std::chrono::seconds(5));
    ASSERT_TRUE(d);
    if (!d->batch.skip) got += d->batch.commands.size();
  }
  // A late learner must recover the full prefix from the acceptors.
  auto late = ring.subscribe();
  std::uint64_t expect = 0;
  while (expect < 50) {
    auto d = late->next_for(std::chrono::seconds(10));
    ASSERT_TRUE(d.has_value()) << "late learner stalled at " << expect;
    if (d->batch.skip) continue;
    for (const auto& c : d->batch.commands) {
      EXPECT_EQ(cmd_id(c), expect);
      ++expect;
    }
  }
  // A learner that only polls try_next() must recover the prefix too: it
  // never blocks, so the stalled-delivery catch-up has to fire there.
  auto poller = ring.subscribe();
  expect = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (expect < 50 && std::chrono::steady_clock::now() < deadline) {
    auto d = poller->try_next();
    if (!d) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      continue;
    }
    if (d->batch.skip) continue;
    for (const auto& c : d->batch.commands) {
      EXPECT_EQ(cmd_id(c), expect);
      ++expect;
    }
  }
  EXPECT_EQ(expect, 50u) << "polling learner stalled";
}

TEST(Ring, CoordinatorFailover) {
  Network net;
  Ring ring(net, 0, fast_config());
  auto learner = ring.subscribe();
  ring.start();
  auto [me, mybox] = net.register_node();

  for (std::uint64_t i = 0; i < 100; ++i) ring.submit(me, cmd(i));
  // Drain the first 100 to make sure they are decided pre-failover.
  std::uint64_t expect = 0;
  while (expect < 100) {
    auto d = learner->next_for(std::chrono::seconds(5));
    ASSERT_TRUE(d);
    if (d->batch.skip) continue;
    for (const auto& c : d->batch.commands) {
      EXPECT_EQ(cmd_id(c), expect);
      ++expect;
    }
  }

  auto old_coord = ring.coordinator();
  auto new_coord = ring.fail_coordinator();
  EXPECT_NE(old_coord, new_coord);

  for (std::uint64_t i = 100; i < 200; ++i) ring.submit(me, cmd(i));
  while (expect < 200) {
    auto d = learner->next_for(std::chrono::seconds(10));
    ASSERT_TRUE(d.has_value()) << "stalled at " << expect << " post-failover";
    if (d->batch.skip) continue;
    for (const auto& c : d->batch.commands) {
      EXPECT_EQ(cmd_id(c), expect);
      ++expect;
    }
  }
}

TEST(Ring, CompetingCoordinatorsStaySafe) {
  // Paxos safety under dueling proposers: reconnect the deposed coordinator
  // so both keep proposing; learners must still observe identical sequences.
  Network net;
  Ring ring(net, 0, fast_config());
  auto l1 = ring.subscribe();
  auto l2 = ring.subscribe();
  ring.start();
  auto [me, mybox] = net.register_node();

  auto old_coord = ring.coordinator();
  ring.fail_coordinator();
  net.reconnect(old_coord);  // zombie coordinator with a stale ballot

  // Feed commands to both coordinators directly.
  for (std::uint64_t i = 0; i < 200; ++i) {
    transport::NodeId target = (i % 2 == 0) ? old_coord : ring.coordinator();
    net.send(me, target, transport::MsgType::kPaxosSubmit, cmd(i));
  }

  auto drain = [](LearnerLog& log, std::size_t want_at_least) {
    std::vector<std::pair<Instance, std::uint64_t>> seq;
    while (seq.size() < want_at_least) {
      auto d = log.next_for(std::chrono::seconds(2));
      if (!d) break;
      if (d->batch.skip) continue;
      for (const auto& c : d->batch.commands) {
        seq.emplace_back(d->instance, cmd_id(c));
      }
    }
    return seq;
  };
  // At least the commands sent to the live coordinator must decide; the
  // zombie's may or may not (it can re-prepare with a higher ballot).
  auto s1 = drain(*l1, 100);
  auto s2 = drain(*l2, s1.size());
  ASSERT_GE(s1.size(), 100u);
  s2.resize(std::min(s1.size(), s2.size()));
  s1.resize(s2.size());
  EXPECT_EQ(s1, s2);  // agreement: no divergence at any instance
}

// --- Acceptor log ----------------------------------------------------------

TEST(Acceptor, DecidedFramesReturnToThePool) {
  // Once an instance is decided and its learner is done with it, the
  // acceptors hold neither its ACCEPT nor its DECIDE frame.
  Network net;
  RingConfig cfg = fast_config();
  cfg.max_batch_commands = 1;  // one instance per command
  Ring ring(net, 0, cfg);
  auto learner = ring.subscribe();
  ring.start();
  auto [me, mybox] = net.register_node();
  const auto outstanding = [] {
    return util::BufferPool::global().stats().outstanding;
  };
  const std::int64_t before = outstanding();

  constexpr std::uint64_t kN = 2000;
  for (std::uint64_t i = 0; i < kN; ++i) ASSERT_TRUE(ring.submit(me, cmd(i)));
  std::uint64_t got = 0;
  Instance last = 0;
  while (got < kN) {
    auto d = learner->next_for(std::chrono::seconds(5));
    ASSERT_TRUE(d.has_value()) << "stalled at " << got;
    last = d->instance;
    if (!d->batch.skip) got += d->batch.commands.size();
  }
  ASSERT_GE(last + 1, kN);
  // The acceptors may still be handling the last DECIDEs; give them a
  // moment to drop the in-flight frames.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(2);
  while (outstanding() - before >= 100 &&
         std::chrono::steady_clock::now() < deadline) {
    while (learner->try_next()) {
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_LT(outstanding() - before, 100)
      << "blocks pinned after " << last + 1 << " decided instances";
}

/// One acceptor driven directly with protocol messages from a test node.
struct DirectAcceptor {
  Network net;
  Acceptor acceptor{net, 0};
  transport::NodeId me;
  std::shared_ptr<transport::Mailbox> box;

  DirectAcceptor() {
    auto [id, mb] = net.register_node();
    me = id;
    box = std::move(mb);
    acceptor.start();
  }
  // ~Endpoint's own stop() runs after ~Acceptor destroyed the log, while a
  // pool thread may still be finishing the last handler turn.
  ~DirectAcceptor() { acceptor.stop(); }

  void send(std::uint16_t type, const util::Buffer& body) {
    ASSERT_TRUE(net.send(me, acceptor.id(), type, body));
  }
  void accept(Ballot b, Instance i, const util::Buffer& v) {
    util::Writer w;
    w.u64(b);
    w.u64(i);
    w.bytes(v);
    send(transport::MsgType::kPaxosAccept, w.take());
  }
  void decide(Instance i, const util::Buffer& v) {
    util::Writer w;
    w.u64(i);
    w.bytes(v);
    send(transport::MsgType::kPaxosDecide, w.take());
  }
  /// The next reply of `type`; fails the test on a timeout.
  util::Buffer reply(std::uint16_t type) {
    auto msg = box->pop_for(std::chrono::seconds(5));
    EXPECT_TRUE(msg.has_value()) << "no reply of type " << type;
    if (!msg) return {};
    EXPECT_EQ(msg->type, type);
    return msg->payload.to_buffer();
  }

  struct Reported {
    Instance instance;
    Ballot ballot;
    util::Buffer value;
    bool operator==(const Reported&) const = default;
  };
  /// Sends PREPARE(b, from) and decodes the PROMISE's reports.
  std::vector<Reported> prepare(Ballot b, Instance from) {
    util::Writer w;
    w.u64(b);
    w.u64(from);
    send(transport::MsgType::kPaxosPrepare, w.take());
    util::Buffer promise = reply(transport::MsgType::kPaxosPromise);
    std::vector<Reported> out;
    if (promise.empty()) return out;
    util::Reader r(promise);
    EXPECT_EQ(r.u64(), b);
    r.u64();  // low water
    for (std::uint32_t n = r.u32(); n > 0; --n) {
      Reported rep;
      rep.instance = r.u64();
      rep.ballot = r.u64();
      rep.value = r.bytes();
      out.push_back(std::move(rep));
    }
    EXPECT_TRUE(r.done());
    return out;
  }
};

TEST(Acceptor, PromiseReportsDecidedInstances) {
  const Ballot b1 = make_ballot(1, 0);
  const Ballot b2 = make_ballot(2, 1);
  const Instance i = 5;
  const util::Buffer v = cmd(77);

  // Accepted at b1, then decided: reported at b1 with the decided value.
  DirectAcceptor a;
  a.accept(b1, i, v);
  (void)a.reply(transport::MsgType::kPaxosAccepted);
  a.decide(i, v);
  a.decide(i, v);  // a repeated DECIDE changes nothing
  using Reported = DirectAcceptor::Reported;
  EXPECT_EQ(a.prepare(b2, i), (std::vector<Reported>{{i, b1, v}}));
  EXPECT_EQ(a.acceptor.decided_count(), 1u);
  // An ACCEPT for a decided instance is still acknowledged, and the
  // report keeps the decided value at the higher ballot.
  const Ballot b3 = make_ballot(3, 0);
  a.accept(b3, i, v);
  (void)a.reply(transport::MsgType::kPaxosAccepted);
  EXPECT_EQ(a.prepare(b3, 0), (std::vector<Reported>{{i, b3, v}}));
  EXPECT_TRUE(a.prepare(b3, i + 1).empty());

  // Learned only from a DECIDE: reported at ballot 0 with the value, so a
  // new coordinator's quorum always sees it.
  DirectAcceptor d;
  d.decide(i, v);
  EXPECT_EQ(d.prepare(b2, i), (std::vector<Reported>{{i, 0, v}}));

  // Accepted but never decided: reported at its ballot, value unchanged.
  DirectAcceptor u;
  u.accept(b1, i, v);
  (void)u.reply(transport::MsgType::kPaxosAccepted);
  EXPECT_EQ(u.prepare(b2, 0), (std::vector<Reported>{{i, b1, v}}));
  EXPECT_EQ(u.acceptor.decided_count(), 0u);

  // An instance absurdly far past the log end (a corrupt or hostile frame)
  // is neither stored nor acknowledged: the next reply is the PROMISE.
  u.accept(b2, Instance{1} << 40, v);
  u.decide(Instance{1} << 40, v);
  EXPECT_EQ(u.prepare(b2, 0), (std::vector<Reported>{{i, b1, v}}));
  EXPECT_EQ(u.acceptor.decided_count(), 0u);
}

}  // namespace
}  // namespace psmr::paxos
