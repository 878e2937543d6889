// In-process message network.
//
// Stands in for the paper's cluster interconnect (Section VII-B: gigabit
// switches, two NICs per node).  Every logical process registers a Node and
// receives messages through a mailbox; send() is asynchronous and FIFO per
// sender→receiver pair, like TCP.  The network also owns the executor that
// runs every Endpoint registered on it (transport/executor.h).  A send takes
// no network-wide lock: nodes are never unregistered, so route() reads an
// append-only node table whose chunks never move, and only registration,
// connect/disconnect and shutdown take the network's mutex.  For protocol
// testing the network can drop messages probabilistically, disconnect nodes
// (crash simulation), and delay delivery through a timer wheel — Paxos must
// stay safe under all of these, and the tests exercise exactly that.
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

#include "transport/executor.h"
#include "transport/mailbox.h"
#include "transport/message.h"
#include "util/rng.h"

namespace psmr::transport {

/// Aggregate traffic counters, readable while the network runs.
struct NetworkStats {
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_dropped = 0;
  std::uint64_t bytes_sent = 0;
};

/// In-process network connecting Nodes by NodeId.
///
/// Thread-safe.  Delivery is FIFO per (sender, receiver) pair when no delay
/// is configured; with a delay, messages are released in timestamp order by
/// a background pacer thread (still FIFO per pair because the delay is
/// constant).
class Network {
 public:
  Network();
  ~Network();

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Registers a new node; the returned mailbox is owned jointly by the
  /// caller and the network (shared_ptr) so either side may outlive the
  /// other during shutdown.
  std::pair<NodeId, std::shared_ptr<Mailbox>> register_node();

  /// Sends a message to `msg.to`.  Returns false if the destination is
  /// unknown, disconnected, or the message was dropped by fault injection.
  bool send(Message msg);

  /// Convenience overload building the envelope.  Payload converts
  /// implicitly from util::Buffer (copied into a pool block) and is shared,
  /// not cloned, when callers fan the same bytes out to several nodes.
  bool send(NodeId from, NodeId to, std::uint16_t type, util::Payload payload);

  /// Crash-simulation: a disconnected node's mailbox receives nothing and
  /// its sends are suppressed, until reconnect().
  void disconnect(NodeId node);
  void reconnect(NodeId node);
  [[nodiscard]] bool connected(NodeId node) const;

  /// Probability in [0,1] that any given message is silently dropped.
  void set_drop_probability(double p);

  /// Constant extra delivery latency applied to every message.
  void set_delay_us(std::int64_t delay_us);

  [[nodiscard]] NetworkStats stats() const;

  /// Closes all mailboxes; consumers drain and exit their loops.
  void shutdown();

  /// The pool that runs this network's Endpoints.
  [[nodiscard]] Executor& executor() { return executor_; }

 private:
  friend class Endpoint;

  struct Node {
    std::shared_ptr<Mailbox> mailbox;  // set before the node is published
    std::atomic<bool> connected{true};
  };

  /// register_node() for an Endpoint: pushes to the mailbox schedule
  /// `owner` on the executor.
  std::pair<NodeId, std::shared_ptr<Mailbox>> register_node(Endpoint* owner);
  /// The destination's mailbox if `to` is registered and connected (and
  /// `from`, when registered, is connected too).  Takes no lock: nodes are
  /// never unregistered, so the node table only grows, a node never moves,
  /// and the pointer lives as long as the network.
  Mailbox* route(NodeId from, NodeId to) const;
  /// Node index `i` (NodeId i + 1).  Chunk k holds 64 << k nodes, so the
  /// table grows without moving a node.
  [[nodiscard]] Node& node(std::size_t i) const;
  void set_connected(NodeId id, bool connected);
  void pacer_loop();
  bool deliver(Message&& msg);

  // The node table.  register_node() fills a node under mu_ and then
  // publishes it by bumping count_ with release order; route() reads
  // count_ with acquire and the nodes below it without a lock.
  static constexpr std::size_t kFirstChunk = 64;
  mutable std::mutex mu_;
  std::array<std::unique_ptr<Node[]>, 32> chunks_;
  std::atomic<std::size_t> count_{0};

  std::atomic<double> drop_probability_{0.0};
  std::atomic<std::int64_t> delay_us_{0};
  std::atomic<std::uint64_t> messages_sent_{0};
  std::atomic<std::uint64_t> messages_dropped_{0};
  std::atomic<std::uint64_t> bytes_sent_{0};
  std::atomic<bool> shutdown_{false};

  util::SplitMix64 drop_rng_{0xdeadbeef};
  std::mutex drop_rng_mu_;

  // Delayed delivery machinery (only active when delay_us_ > 0).
  struct Delayed {
    std::int64_t release_at_us;
    std::uint64_t seq;
    Message msg;
    bool operator>(const Delayed& o) const {
      return release_at_us != o.release_at_us
                 ? release_at_us > o.release_at_us
                 : seq > o.seq;
    }
  };
  std::mutex delay_mu_;
  std::condition_variable delay_cv_;
  std::priority_queue<Delayed, std::vector<Delayed>, std::greater<>> delayed_;
  std::uint64_t delay_seq_ = 0;
  std::thread pacer_;

  // Last member: destroyed (its pool joined) before anything a handler
  // still running could touch.
  Executor executor_;
};

}  // namespace psmr::transport
