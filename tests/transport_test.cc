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

TEST(Network, RouteRacesRegistrationAndDisconnect) {
  // route() takes no lock: sends race a thread growing the node table
  // across several chunk boundaries and another toggling one node's
  // connection.  Every send to a steady node or to the newest registered
  // node arrives, and a send to the toggled node arrives iff it returned
  // true.
  constexpr int kNodes = 1500;  // the table's chunks start at 64, 192, 448
  constexpr int kSenders = 2;
  constexpr int kMinSends = 2000;
  Network net;
  auto [steady, steady_box] = net.register_node();
  auto [flaky, flaky_box] = net.register_node();
  // Written by the registrar, read after it is joined.
  std::vector<std::shared_ptr<Mailbox>> grown;
  std::atomic<NodeId> newest{kNoNode};
  std::atomic<bool> grown_all{false};
  std::atomic<bool> senders_done{false};

  std::thread registrar([&] {
    for (int i = 0; i < kNodes; ++i) {
      auto [id, box] = net.register_node();
      grown.push_back(std::move(box));
      newest.store(id, std::memory_order_release);
    }
    grown_all = true;
  });
  std::thread toggler([&] {
    while (!senders_done.load()) {
      net.disconnect(flaky);
      net.reconnect(flaky);
    }
  });
  std::atomic<std::size_t> to_steady{0}, to_flaky{0}, to_newest{0};
  test_support::run_threads(kSenders, [&](int) {
    auto [me, box] = net.register_node();
    std::size_t steady_n = 0, flaky_n = 0, newest_n = 0;
    for (int i = 0; i < kMinSends || !grown_all.load(); ++i) {
      ASSERT_TRUE(net.send(me, steady, 1, {}));
      ++steady_n;
      if (net.send(me, flaky, 1, {})) ++flaky_n;
      const NodeId n = newest.load(std::memory_order_acquire);
      if (n != kNoNode) {
        ASSERT_TRUE(net.send(me, n, 1, {})) << "node " << n;
        ++newest_n;
      }
    }
    to_steady += steady_n;
    to_flaky += flaky_n;
    to_newest += newest_n;
  });
  senders_done = true;
  registrar.join();
  toggler.join();
  EXPECT_EQ(steady_box->size(), to_steady.load());
  EXPECT_EQ(flaky_box->size(), to_flaky.load());
  std::size_t at_grown = 0;
  for (const auto& box : grown) at_grown += box->size();
  EXPECT_EQ(at_grown, to_newest.load());
  EXPECT_TRUE(net.connected(flaky));
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

TEST(Executor, SpsmrAndNoRepDeploymentThreadsAreThePool) {
  constexpr std::size_t kMpl = 4;
  const std::size_t bound =
      std::max(1u, std::thread::hardware_concurrency()) + 2;
  for (smr::Mode mode : {smr::Mode::kSpsmr, smr::Mode::kNoRep}) {
    const std::size_t before = process_threads();
    ASSERT_GT(before, 0u) << "/proc/self/task unavailable";
    smr::Deployment d(test_support::kv_config(mode, kMpl));
    d.start();
    // The pool and the network's delay pacer: sP-SMR's delivery endpoints,
    // the no-rep server and every scheduler worker own no thread.
    EXPECT_LE(process_threads() - before, bound)
        << (mode == smr::Mode::kSpsmr ? "sP-SMR" : "no-rep");
  }
}

/// Records the thread each handler ran on.
class WhereEndpoint : public Endpoint {
 public:
  explicit WhereEndpoint(Network& net) : Endpoint(net, "where") {}
  ~WhereEndpoint() override { stop(); }
  std::atomic<int> handled{0};

  std::vector<std::thread::id> ran_on() {
    std::lock_guard lock(mu_);
    return ran_on_;
  }

 protected:
  void handle(Message) override {
    {
      std::lock_guard lock(mu_);
      ran_on_.push_back(std::this_thread::get_id());
    }
    handled++;
  }

 private:
  std::mutex mu_;
  std::vector<std::thread::id> ran_on_;
};

/// Waits until `pred` holds or `limit` passes; returns pred().
template <typename Pred>
bool eventually(Pred pred, std::chrono::milliseconds limit) {
  const auto deadline = std::chrono::steady_clock::now() + limit;
  while (!pred() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return pred();
}

TEST(Executor, OffPoolWakeRunsOnTheThreadThatRanItLast) {
  // Sticky wakes: on an otherwise idle pool with no deadline armed, a send
  // from off the pool hands the endpoint back to the thread of its last
  // turn, wake after wake, rather than to whichever thread wakes first.
  constexpr int kWakes = 40;
  Network net;
  Executor& ex = net.executor();
  if (ex.threads() < 2) {
    GTEST_SKIP() << "a one-thread pool has only one thread to pick";
  }
  WhereEndpoint ep(net);
  auto [me, box] = net.register_node();
  ep.start();  // its first turn (no messages) picks the thread
  for (int i = 0; i < kWakes; ++i) {
    ASSERT_TRUE(eventually([&] { return ex.idle_threads() == ex.threads(); },
                           std::chrono::seconds(5)))
        << "pool never went quiet before wake " << i;
    ASSERT_TRUE(net.send(me, ep.id(), 1, {}));
    ASSERT_TRUE(eventually([&] { return ep.handled.load() == i + 1; },
                           std::chrono::seconds(5)))
        << "wake " << i << " not handled";
  }
  ep.stop();
  const auto ran_on = ep.ran_on();
  ASSERT_EQ(ran_on.size(), static_cast<std::size_t>(kWakes));
  for (int i = 0; i < kWakes; ++i) {
    EXPECT_EQ(ran_on[static_cast<std::size_t>(i)], ran_on.front())
        << "wake " << i << " moved to another pool thread";
  }
}

/// Counts messages per sender and flags any out of FIFO order.
class SequenceEndpoint : public Endpoint {
 public:
  SequenceEndpoint(Network& net, std::size_t senders)
      : Endpoint(net, "sequence"), next_(senders, 0) {}
  ~SequenceEndpoint() override { stop(); }
  std::atomic<int> handled{0};
  std::atomic<int> out_of_order{0};

 protected:
  void handle(Message msg) override {
    util::Reader r(msg.payload);
    const std::uint32_t sender = r.u32();
    if (r.u32() != next_[sender]++) out_of_order++;
    handled++;
  }

 private:
  std::vector<std::uint32_t> next_;
};

TEST(Executor, OffPoolWakesAreNeverLost) {
  // Several non-pool threads push to many endpoints, pausing now and then
  // so the pool threads go idle and are woken (by handoff or through the
  // shared queue) again and again.  Every message is handled exactly once,
  // in order, and every stop() returns.
  constexpr std::size_t kEndpoints = 32;
  constexpr int kSenders = 4;
  constexpr std::uint32_t kPerPair = 200;
  const std::uint64_t seed = test_support::logged_seed(77);
  Network net;
  std::vector<std::unique_ptr<SequenceEndpoint>> eps;
  for (std::size_t e = 0; e < kEndpoints; ++e) {
    eps.push_back(std::make_unique<SequenceEndpoint>(net, kSenders));
    eps.back()->start();
  }
  test_support::run_threads(kSenders, [&](int s) {
    auto [me, box] = net.register_node();
    util::SplitMix64 rng(seed + static_cast<std::uint64_t>(s));
    for (std::uint32_t i = 0; i < kPerPair; ++i) {
      for (std::size_t e = 0; e < kEndpoints; ++e) {
        util::Writer w;
        w.u32(static_cast<std::uint32_t>(s));
        w.u32(i);
        ASSERT_TRUE(net.send(me, eps[e]->id(), 1, w.take()));
        if (rng.chance(0.02)) {
          std::this_thread::sleep_for(
              std::chrono::microseconds(rng.next_below(300)));
        }
      }
    }
  });
  const int expected = kSenders * static_cast<int>(kPerPair);
  for (std::size_t e = 0; e < kEndpoints; ++e) {
    EXPECT_TRUE(eventually([&] { return eps[e]->handled.load() >= expected; },
                           std::chrono::seconds(30)))
        << "endpoint " << e << " handled " << eps[e]->handled.load();
  }
  for (auto& ep : eps) ep->stop();
  for (std::size_t e = 0; e < kEndpoints; ++e) {
    EXPECT_EQ(eps[e]->handled.load(), expected) << "endpoint " << e;
    EXPECT_EQ(eps[e]->out_of_order.load(), 0) << "endpoint " << e;
  }
}

}  // namespace
}  // namespace psmr::transport
