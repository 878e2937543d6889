#include "transport/network.h"

#include <bit>

#include "util/clock.h"

namespace psmr::transport {

Network::Network() : pacer_([this] { pacer_loop(); }) {}

Network::~Network() {
  shutdown();
  {
    std::lock_guard lock(delay_mu_);
    shutdown_ = true;
    delay_cv_.notify_all();
  }
  if (pacer_.joinable()) pacer_.join();
}

std::pair<NodeId, std::shared_ptr<Mailbox>> Network::register_node() {
  return register_node(nullptr);
}

Network::Node& Network::node(std::size_t i) const {
  const std::size_t j = i + kFirstChunk;
  const auto k = static_cast<std::size_t>(std::bit_width(j)) -
                 static_cast<std::size_t>(std::bit_width(kFirstChunk));
  return chunks_[k][j - (kFirstChunk << k)];
}

std::pair<NodeId, std::shared_ptr<Mailbox>> Network::register_node(
    Endpoint* owner) {
  auto mailbox = std::make_shared<Mailbox>();
  mailbox->owner_ = owner;
  std::lock_guard lock(mu_);
  const std::size_t i = count_.load(std::memory_order_relaxed);
  const std::size_t j = i + kFirstChunk;
  if (std::has_single_bit(j)) {  // the first node of a new chunk
    const auto k = static_cast<std::size_t>(std::bit_width(j)) -
                   static_cast<std::size_t>(std::bit_width(kFirstChunk));
    chunks_.at(k) = std::make_unique<Node[]>(kFirstChunk << k);
  }
  node(i).mailbox = mailbox;
  count_.store(i + 1, std::memory_order_release);
  return {static_cast<NodeId>(i + 1), std::move(mailbox)};
}

Mailbox* Network::route(NodeId from, NodeId to) const {
  const std::size_t n = count_.load(std::memory_order_acquire);
  if (from - 1 < n &&
      !node(from - 1).connected.load(std::memory_order_relaxed)) {
    return nullptr;
  }
  if (to - 1 >= n) return nullptr;
  const Node& dst = node(to - 1);
  if (!dst.connected.load(std::memory_order_relaxed)) return nullptr;
  return dst.mailbox.get();
}

bool Network::send(Message msg) {
  if (shutdown_) return false;
  Mailbox* mailbox = route(msg.from, msg.to);
  if (mailbox == nullptr) return false;
  double drop_p = drop_probability_.load(std::memory_order_relaxed);
  if (drop_p > 0.0) {
    std::lock_guard lock(drop_rng_mu_);
    if (drop_rng_.chance(drop_p)) {
      messages_dropped_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
  }
  messages_sent_.fetch_add(1, std::memory_order_relaxed);
  bytes_sent_.fetch_add(msg.payload.size(), std::memory_order_relaxed);

  std::int64_t delay = delay_us_.load(std::memory_order_relaxed);
  if (delay <= 0) return mailbox->push(std::move(msg));

  std::lock_guard lock(delay_mu_);
  delayed_.push(Delayed{util::now_us() + delay, delay_seq_++, std::move(msg)});
  delay_cv_.notify_one();
  return true;
}

bool Network::send(NodeId from, NodeId to, std::uint16_t type,
                   util::Payload payload) {
  return send(Message{from, to, type, std::move(payload)});
}

bool Network::deliver(Message&& msg) {
  // The receiver may have been disconnected while the message was delayed.
  Mailbox* mailbox = route(kNoNode, msg.to);
  return mailbox != nullptr && mailbox->push(std::move(msg));
}

void Network::disconnect(NodeId node) { set_connected(node, false); }

void Network::reconnect(NodeId node) { set_connected(node, true); }

void Network::set_connected(NodeId id, bool connected) {
  std::lock_guard lock(mu_);
  if (id - 1 < count_.load(std::memory_order_relaxed)) {
    node(id - 1).connected.store(connected, std::memory_order_relaxed);
  }
}

bool Network::connected(NodeId id) const {
  const std::size_t n = count_.load(std::memory_order_acquire);
  return id - 1 >= n ||
         node(id - 1).connected.load(std::memory_order_relaxed);
}

void Network::set_drop_probability(double p) { drop_probability_ = p; }

void Network::set_delay_us(std::int64_t delay_us) { delay_us_ = delay_us; }

NetworkStats Network::stats() const {
  return NetworkStats{messages_sent_.load(), messages_dropped_.load(),
                      bytes_sent_.load()};
}

void Network::shutdown() {
  std::vector<std::shared_ptr<Mailbox>> boxes;
  {
    std::lock_guard lock(mu_);
    if (shutdown_.exchange(true)) return;
    const std::size_t n = count_.load(std::memory_order_relaxed);
    boxes.reserve(n);
    for (std::size_t i = 0; i < n; ++i) boxes.push_back(node(i).mailbox);
  }
  for (auto& box : boxes) box->close();
  delay_cv_.notify_all();
}

void Network::pacer_loop() {
  std::unique_lock lock(delay_mu_);
  while (!shutdown_) {
    if (delayed_.empty()) {
      delay_cv_.wait(lock, [&] { return shutdown_ || !delayed_.empty(); });
      continue;
    }
    std::int64_t now = util::now_us();
    const Delayed& head = delayed_.top();
    if (head.release_at_us <= now) {
      Message msg = std::move(const_cast<Delayed&>(head).msg);
      delayed_.pop();
      lock.unlock();
      deliver(std::move(msg));
      lock.lock();
    } else {
      delay_cv_.wait_for(
          lock, std::chrono::microseconds(head.release_at_us - now));
    }
  }
}

}  // namespace psmr::transport
