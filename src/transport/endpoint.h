// Threaded actor base: one thread draining one mailbox.
//
// Paxos coordinators and acceptors are Endpoints.  Replica worker threads
// are NOT — they consume ordered command streams through the multicast
// merge deliverer instead (see multicast/merge.h), which is exactly the
// architectural point of P-SMR: delivery happens inside the worker, not in a
// central dispatcher.
#pragma once

#include <chrono>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>

#include "transport/network.h"

namespace psmr::transport {

/// Base class for message-driven processes.  Subclasses implement
/// handle(msg); start() spawns the drain thread; stop() closes the mailbox
/// and joins.  Destruction stops the actor (RAII).
class Endpoint {
 public:
  Endpoint(Network& net, std::string name)
      : net_(net), name_(std::move(name)) {
    auto [id, box] = net.register_node();
    id_ = id;
    mailbox_ = std::move(box);
  }

  virtual ~Endpoint() { stop(); }

  Endpoint(const Endpoint&) = delete;
  Endpoint& operator=(const Endpoint&) = delete;

  /// Begins draining the mailbox on a dedicated thread.
  void start() {
    if (thread_.joinable()) return;
    thread_ = std::thread([this] { run(); });
  }

  /// Closes the mailbox and joins the drain thread.  Idempotent.
  void stop() {
    mailbox_->close();
    if (thread_.joinable()) thread_.join();
  }

  [[nodiscard]] NodeId id() const { return id_; }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] Network& network() const { return net_; }

 protected:
  /// Processes one message.  Runs on the endpoint's own thread only.
  virtual void handle(Message msg) = 0;

  using Clock = std::chrono::steady_clock;

  /// The next time on_deadline() should run, asked after every message and
  /// every on_deadline(); std::nullopt waits for messages only.
  /// Coordinators return their earliest timer (batch seal, retransmit,
  /// fallback skip, Phase 1 retry).  on_deadline() must move every expired
  /// deadline forward, or the drain loop spins.
  [[nodiscard]] virtual std::optional<Clock::time_point> next_deadline() {
    return std::nullopt;
  }
  virtual void on_deadline() {}

  /// Sends from this endpoint.  Accepts a util::Payload (zero-copy share)
  /// or, via implicit conversion, a util::Buffer.
  bool send(NodeId to, std::uint16_t type, util::Payload payload) {
    return net_.send(id_, to, type, std::move(payload));
  }

 private:
  void run() {
    while (true) {
      const auto deadline = next_deadline();
      std::optional<Message> msg;
      if (!deadline) {
        msg = mailbox_->pop();
      } else {
        const auto now = Clock::now();
        if (now >= *deadline) {
          on_deadline();
          continue;
        }
        msg = mailbox_->pop_for(*deadline - now);
      }
      if (msg) {
        handle(std::move(*msg));
      } else if (mailbox_->closed() && mailbox_->empty()) {
        return;
      }
    }
  }

  Network& net_;
  std::string name_;
  NodeId id_ = kNoNode;
  std::shared_ptr<Mailbox> mailbox_;
  std::thread thread_;
};

}  // namespace psmr::transport
