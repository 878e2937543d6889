#include "transport/network.h"

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <dirent.h>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "test_support.h"
#include "transport/endpoint.h"

namespace psmr::transport {
namespace {

TEST(Network, PointToPointDelivery) {
  Network net;
  auto [a, abox] = net.register_node();
  auto [b, bbox] = net.register_node();
  ASSERT_TRUE(net.send(a, b, 99, util::Buffer{1, 2, 3}));
  auto msg = bbox->pop();
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->from, a);
  EXPECT_EQ(msg->to, b);
  EXPECT_EQ(msg->type, 99);
  EXPECT_EQ(msg->payload, (util::Buffer{1, 2, 3}));
}

TEST(Network, FifoPerPair) {
  Network net;
  auto [a, abox] = net.register_node();
  auto [b, bbox] = net.register_node();
  for (std::uint8_t i = 0; i < 100; ++i) {
    net.send(a, b, 1, util::Buffer{i});
  }
  for (std::uint8_t i = 0; i < 100; ++i) {
    auto msg = bbox->pop();
    ASSERT_TRUE(msg);
    EXPECT_EQ(msg->payload[0], i);
  }
}

TEST(Network, UnknownDestinationFails) {
  Network net;
  auto [a, abox] = net.register_node();
  EXPECT_FALSE(net.send(a, 424242, 1, {}));
}

TEST(Network, DisconnectSuppressesBothDirections) {
  Network net;
  auto [a, abox] = net.register_node();
  auto [b, bbox] = net.register_node();
  net.disconnect(b);
  EXPECT_FALSE(net.send(a, b, 1, {}));  // to crashed node
  EXPECT_FALSE(net.send(b, a, 1, {}));  // from crashed node
  net.reconnect(b);
  EXPECT_TRUE(net.send(a, b, 1, {}));
  EXPECT_TRUE(net.connected(b));
}

TEST(Network, DropProbabilityDropsRoughlyThatFraction) {
  Network net;
  auto [a, abox] = net.register_node();
  auto [b, bbox] = net.register_node();
  net.set_drop_probability(0.5);
  int delivered = 0;
  for (int i = 0; i < 2000; ++i) {
    if (net.send(a, b, 1, {})) ++delivered;
  }
  EXPECT_GT(delivered, 800);
  EXPECT_LT(delivered, 1200);
  auto stats = net.stats();
  EXPECT_EQ(stats.messages_sent + stats.messages_dropped, 2000u);
}

TEST(Network, DelayedDeliveryArrivesLater) {
  Network net;
  auto [a, abox] = net.register_node();
  auto [b, bbox] = net.register_node();
  net.set_delay_us(20000);  // 20 ms
  auto start = std::chrono::steady_clock::now();
  net.send(a, b, 1, {});
  auto msg = bbox->pop();
  ASSERT_TRUE(msg);
  auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_GE(elapsed, std::chrono::milliseconds(15));
}

TEST(Network, DelayedDeliveryPreservesOrder) {
  Network net;
  auto [a, abox] = net.register_node();
  auto [b, bbox] = net.register_node();
  net.set_delay_us(1000);
  for (std::uint8_t i = 0; i < 50; ++i) net.send(a, b, 1, util::Buffer{i});
  for (std::uint8_t i = 0; i < 50; ++i) {
    auto msg = bbox->pop();
    ASSERT_TRUE(msg);
    EXPECT_EQ(msg->payload[0], i);
  }
}

TEST(Network, ShutdownClosesMailboxes) {
  Network net;
  auto [a, abox] = net.register_node();
  std::thread waiter([&, box = abox] {
    EXPECT_FALSE(box->pop().has_value());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  net.shutdown();
  waiter.join();
  EXPECT_FALSE(net.send(a, a, 1, {}));
}

TEST(Network, StatsCountBytes) {
  Network net;
  auto [a, abox] = net.register_node();
  auto [b, bbox] = net.register_node();
  net.send(a, b, 1, util::Buffer(100, 0));
  net.send(a, b, 1, util::Buffer(28, 0));
  EXPECT_EQ(net.stats().bytes_sent, 128u);
  EXPECT_EQ(net.stats().messages_sent, 2u);
}

// --- Endpoint actor ---

class EchoEndpoint : public Endpoint {
 public:
  explicit EchoEndpoint(Network& net) : Endpoint(net, "echo") {}
  ~EchoEndpoint() override { stop(); }
  std::atomic<int> handled{0};

 protected:
  void handle(Message msg) override {
    handled++;
    send(msg.from, msg.type, std::move(msg.payload));
  }
};

TEST(Endpoint, EchoesMessages) {
  Network net;
  EchoEndpoint echo(net);
  echo.start();
  auto [me, mybox] = net.register_node();
  net.send(me, echo.id(), 7, util::Buffer{42});
  auto reply = mybox->pop();
  ASSERT_TRUE(reply);
  EXPECT_EQ(reply->type, 7);
  EXPECT_EQ(reply->payload[0], 42);
  echo.stop();
  EXPECT_EQ(echo.handled.load(), 1);
}

class TickingEndpoint : public Endpoint {
 public:
  explicit TickingEndpoint(Network& net) : Endpoint(net, "ticker") {}
  ~TickingEndpoint() override { stop(); }
  std::atomic<int> ticks{0};

 protected:
  void handle(Message) override {}
  [[nodiscard]] std::optional<Clock::time_point> next_deadline() override {
    return next_;
  }
  void on_deadline() override {
    ticks++;
    next_ = Clock::now() + std::chrono::microseconds(1000);
  }

 private:
  Clock::time_point next_ = Clock::now();
};

TEST(Endpoint, TicksFireWithoutTraffic) {
  Network net;
  TickingEndpoint ticker(net);
  ticker.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  ticker.stop();
  EXPECT_GE(ticker.ticks.load(), 10);
}

TEST(Endpoint, StopIsIdempotent) {
  Network net;
  EchoEndpoint echo(net);
  echo.start();
  echo.stop();
  echo.stop();  // must not hang or crash
}

/// Every handler turn writes its own member; stop() comes from its
/// destructor, before that member is destroyed.
class TallyEndpoint : public Endpoint {
 public:
  explicit TallyEndpoint(Network& net) : Endpoint(net, "tally") {}
  ~TallyEndpoint() override { stop(); }
  std::atomic<int> handled{0};

 protected:
  void handle(Message msg) override {
    sizes_.push_back(msg.payload.size());
    if (sizes_.size() > 64) sizes_.clear();
    handled++;
  }

 private:
  std::vector<std::size_t> sizes_;
};

TEST(Endpoint, DestroyedWhileBusyWithoutStop) {
  Network net;
  auto [me, box] = net.register_node();
  for (int round = 0; round < 20; ++round) {
    auto ep = std::make_unique<TallyEndpoint>(net);
    ep->start();
    const NodeId to = ep->id();
    // Sends until the destroyed endpoint's mailbox rejects them.
    std::thread sender([&net, me = me, to] {
      while (net.send(me, to, 1, util::Buffer{1})) {
      }
    });
    while (ep->handled.load() < 100) std::this_thread::yield();
    ep.reset();  // a handler turn may be running on a pool thread
    sender.join();
  }
}

// --- Executor: actor semantics on the shared pool ---

/// Records, per sender, the sequence numbers it saw, and flags any
/// overlapping handle() calls.
class RecordingEndpoint : public Endpoint {
 public:
  RecordingEndpoint(Network& net, std::size_t senders)
      : Endpoint(net, "recorder"), seen(senders) {}
  ~RecordingEndpoint() override { stop(); }
  std::vector<std::vector<std::uint32_t>> seen;  // read after stop()
  std::atomic<int> active{0};
  std::atomic<int> overlaps{0};
  std::atomic<int> handled{0};

 protected:
  void handle(Message msg) override {
    if (active.fetch_add(1) != 0) overlaps++;
    util::Reader r(msg.payload);
    const std::uint32_t sender = r.u32();
    seen[sender].push_back(r.u32());
    std::this_thread::yield();  // widen the window for an overlap
    active.fetch_sub(1);
    handled++;
  }
};

TEST(Executor, ConcurrentSendersSeeOneHandlerAtATimeInFifoOrder) {
  constexpr std::size_t kSenders = 8;
  constexpr std::uint32_t kPerSender = 2000;
  Network net;
  RecordingEndpoint rec(net, kSenders);
  rec.start();
  std::vector<std::thread> senders;
  for (std::size_t s = 0; s < kSenders; ++s) {
    senders.emplace_back([&, s] {
      auto [me, box] = net.register_node();
      for (std::uint32_t i = 0; i < kPerSender; ++i) {
        util::Writer w;
        w.u32(static_cast<std::uint32_t>(s));
        w.u32(i);
        ASSERT_TRUE(net.send(me, rec.id(), 1, w.take()));
      }
    });
  }
  for (auto& t : senders) t.join();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (rec.handled.load() < static_cast<int>(kSenders * kPerSender) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  rec.stop();
  EXPECT_EQ(rec.overlaps.load(), 0);
  for (std::size_t s = 0; s < kSenders; ++s) {
    ASSERT_EQ(rec.seen[s].size(), kPerSender) << "sender " << s;
    for (std::uint32_t i = 0; i < kPerSender; ++i) {
      ASSERT_EQ(rec.seen[s][i], i) << "sender " << s;
    }
  }
}

/// handle() blocks until released; counts calls that start afterwards.
class BlockingEndpoint : public Endpoint {
 public:
  explicit BlockingEndpoint(Network& net) : Endpoint(net, "blocker") {}
  ~BlockingEndpoint() override { stop(); }
  std::atomic<bool> entered{false};
  std::atomic<bool> returned{false};
  std::atomic<int> calls{0};
  std::atomic<int> deadlines{0};

  void release() {
    std::lock_guard lock(mu_);
    released_ = true;
    cv_.notify_all();
  }

 protected:
  void handle(Message) override {
    calls++;
    entered = true;
    std::unique_lock lock(mu_);
    cv_.wait(lock, [&] { return released_; });
    returned = true;
  }
  [[nodiscard]] std::optional<Clock::time_point> next_deadline() override {
    return Clock::now();  // always due: would run at once if allowed
  }
  void on_deadline() override { deadlines++; }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool released_ = false;
};

TEST(Executor, StopWaitsForRunningHandlerAndNothingRunsAfter) {
  Network net;
  BlockingEndpoint ep(net);
  auto [me, box] = net.register_node();
  ep.start();
  ASSERT_TRUE(net.send(me, ep.id(), 1, {}));
  while (!ep.entered.load()) std::this_thread::yield();
  // More work queued behind the blocked call: none of it may run after
  // stop() returns.
  ASSERT_TRUE(net.send(me, ep.id(), 1, {}));
  ASSERT_TRUE(net.send(me, ep.id(), 1, {}));

  std::atomic<bool> stopped{false};
  std::thread stopper([&] {
    ep.stop();
    stopped = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(stopped.load()) << "stop() returned while handle() ran";
  ep.release();
  stopper.join();
  EXPECT_TRUE(ep.returned.load());
  const int calls = ep.calls.load();
  const int deadlines = ep.deadlines.load();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(ep.calls.load(), calls);
  EXPECT_EQ(ep.deadlines.load(), deadlines);
  EXPECT_EQ(calls, 1);
  EXPECT_FALSE(net.send(me, ep.id(), 1, {}));  // mailbox closed
}

TEST(Executor, MoreTickingEndpointsThanPoolThreadsAllFire) {
  constexpr std::size_t kEndpoints = 64;
  Network net;
  ASSERT_LT(net.executor().threads(), kEndpoints);
  std::vector<std::unique_ptr<TickingEndpoint>> tickers;
  for (std::size_t i = 0; i < kEndpoints; ++i) {
    tickers.push_back(std::make_unique<TickingEndpoint>(net));
    tickers.back()->start();
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  for (auto& t : tickers) t->stop();
  for (std::size_t i = 0; i < kEndpoints; ++i) {
    EXPECT_GE(tickers[i]->ticks.load(), 5) << "endpoint " << i;
  }
}

/// Its deadline starts 20 ms out; any message moves it 200 ms out.
class MovingDeadlineEndpoint : public Endpoint {
 public:
  explicit MovingDeadlineEndpoint(Network& net) : Endpoint(net, "mover") {}
  ~MovingDeadlineEndpoint() override { stop(); }
  std::atomic<int> asks{0};
  std::atomic<int> fired{0};

 protected:
  void handle(Message) override {
    deadline_ = Clock::now() + std::chrono::milliseconds(200);
  }
  [[nodiscard]] std::optional<Clock::time_point> next_deadline() override {
    asks++;
    return deadline_;
  }
  void on_deadline() override {
    fired++;
    deadline_ = Clock::time_point::max();
  }

 private:
  Clock::time_point deadline_ = Clock::now() + std::chrono::milliseconds(20);
};

TEST(Executor, MovedDeadlineNeverWakesTheEndpoint) {
  Network net;
  MovingDeadlineEndpoint ep(net);
  auto [me, box] = net.register_node();
  ep.start();
  while (ep.asks.load() == 0) std::this_thread::yield();  // 20 ms armed
  ASSERT_TRUE(net.send(me, ep.id(), 1, {}));
  while (ep.asks.load() < 2) std::this_thread::yield();  // 200 ms armed
  const int asks = ep.asks.load();
  // Past the original 20 ms deadline: its heap entry is stale and must be
  // re-filed, not turned into a run.
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  EXPECT_EQ(ep.asks.load(), asks);
  EXPECT_EQ(ep.fired.load(), 0);
  ep.stop();
}

std::size_t process_threads() {
  std::size_t n = 0;
  if (DIR* dir = opendir("/proc/self/task")) {
    while (dirent* e = readdir(dir)) {
      if (e->d_name[0] != '.') ++n;
    }
    closedir(dir);
  }
  return n;
}

/// Sends to `target` from its handler, which queues the target on this pool
/// thread's local list, then spills and takes 200 ms.
class SpillingEndpoint : public Endpoint {
 public:
  SpillingEndpoint(Network& net, NodeId target)
      : Endpoint(net, "spiller"), target_(target) {}
  ~SpillingEndpoint() override { stop(); }
  std::atomic<Clock::rep> sent_at{0};

 protected:
  void handle(Message) override {
    sent_at = Clock::now().time_since_epoch().count();
    send(target_, 1, {});
    network().executor().spill();
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
  }

 private:
  NodeId target_;
};

/// Records when its first handler ran.
class StampEndpoint : public Endpoint {
 public:
  explicit StampEndpoint(Network& net) : Endpoint(net, "stamp") {}
  ~StampEndpoint() override { stop(); }
  std::atomic<Clock::rep> ran_at{0};

 protected:
  void handle(Message) override {
    if (ran_at.load() == 0) ran_at = Clock::now().time_since_epoch().count();
  }
};

TEST(Executor, SpilledLocalWorkRunsOnAnotherThread) {
  Network net;
  if (net.executor().threads() < 2) {
    GTEST_SKIP() << "a one-thread pool has no other thread to spill to";
  }
  StampEndpoint b(net);
  SpillingEndpoint a(net, b.id());
  auto [me, box] = net.register_node();
  b.start();
  a.start();
  ASSERT_TRUE(net.send(me, a.id(), 1, {}));
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(2);
  while (b.ran_at.load() == 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_NE(b.ran_at.load(), 0);
  // Without the spill, B would wait out A's 200 ms on A's local list.
  EXPECT_LT(std::chrono::steady_clock::duration(b.ran_at - a.sent_at),
            std::chrono::milliseconds(50));
  a.stop();
  b.stop();
}

TEST(Executor, PsmrDeploymentThreadsAreThePool) {
  constexpr std::size_t kMpl = 4;
  const std::size_t before = process_threads();
  ASSERT_GT(before, 0u) << "/proc/self/task unavailable";
  smr::Deployment d(test_support::kv_config(smr::Mode::kPsmr, kMpl));
  d.start();
  const std::size_t added = process_threads() - before;
  // The pool and the network's delay pacer: the 5 rings' 20 coordinator
  // and acceptor endpoints and both replicas' 8 workers own no thread.
  EXPECT_LE(added, std::max(1u, std::thread::hardware_concurrency()) + 2);
  EXPECT_EQ(d.network().executor().threads(),
            std::max(1u, std::thread::hardware_concurrency()));
}

}  // namespace
}  // namespace psmr::transport
