#include "transport/network.h"

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

std::pair<NodeId, std::shared_ptr<Mailbox>> Network::register_node(
    Endpoint* owner) {
  auto mailbox = std::make_shared<Mailbox>();
  mailbox->owner_ = owner;
  std::lock_guard lock(mu_);
  nodes_.push_back(Node{mailbox});
  return {static_cast<NodeId>(nodes_.size()), std::move(mailbox)};
}

Mailbox* Network::route(NodeId from, NodeId to) const {
  std::lock_guard lock(mu_);
  if (from - 1 < nodes_.size() && !nodes_[from - 1].connected) return nullptr;
  if (to - 1 >= nodes_.size() || !nodes_[to - 1].connected) return nullptr;
  return nodes_[to - 1].mailbox.get();
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

void Network::set_connected(NodeId node, bool connected) {
  std::lock_guard lock(mu_);
  if (node - 1 < nodes_.size()) nodes_[node - 1].connected = connected;
}

bool Network::connected(NodeId node) const {
  std::lock_guard lock(mu_);
  return node - 1 >= nodes_.size() || nodes_[node - 1].connected;
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
    boxes.reserve(nodes_.size());
    for (auto& node : nodes_) boxes.push_back(node.mailbox);
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
