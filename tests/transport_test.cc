#include "transport/network.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

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

}  // namespace
}  // namespace psmr::transport
