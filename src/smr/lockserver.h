// Lock-based multithreaded server — the Berkeley DB stand-in (paper
// Section VI-B).
//
// "Differently from P-SMR, sP-SMR and no-rep, BDB uses locks to synchronize
// the concurrent execution of commands.  As a result, there is no scheduler
// interposed between clients and server threads: each server thread
// receives requests through a separate socket, executes them, and responds
// to clients."  Here each handler is an Endpoint with its own mailbox (the
// "socket"), run on the network's executor pool, so handlers execute in
// parallel up to the pool's size; clients are statically assigned to
// handlers; all handlers execute against one shared, internally
// synchronized service (e.g. the latch-crabbing B+-tree in
// kvstore/concurrent_bptree.h).
#pragma once

#include <atomic>
#include <memory>
#include <vector>

#include "smr/service.h"
#include "transport/endpoint.h"

namespace psmr::smr {

class LockServer {
 public:
  /// `service` must be safe for fully concurrent execute() calls.
  LockServer(transport::Network& net, std::shared_ptr<Service> service,
             std::size_t num_threads);

  LockServer(const LockServer&) = delete;
  LockServer& operator=(const LockServer&) = delete;

  void start();
  void stop();

  /// Node id of handler i — give each client one of these as its
  /// direct-mode server ("separate socket per server thread").
  [[nodiscard]] transport::NodeId handler_node(std::size_t i) const {
    return handlers_.at(i)->id();
  }
  [[nodiscard]] std::size_t num_threads() const { return handlers_.size(); }

  [[nodiscard]] std::uint64_t executed() const { return executed_.load(); }
  [[nodiscard]] const Service& service() const { return *service_; }

 private:
  class Handler : public transport::Endpoint {
   public:
    Handler(transport::Network& net, Service& service,
            std::atomic<std::uint64_t>& executed)
        : Endpoint(net, "lockserver-handler"),
          service_(service),
          executed_(executed) {}
    ~Handler() override { stop(); }

   protected:
    void handle(transport::Message msg) override {
      if (msg.type != transport::MsgType::kSmrDirect) return;
      auto cmd = Command::decode(msg.payload);
      if (!cmd) return;
      Response resp;
      resp.client = cmd->client;
      resp.seq = cmd->seq;
      resp.payload = service_.execute(*cmd);
      executed_.fetch_add(1, std::memory_order_release);
      send(cmd->reply_to, transport::MsgType::kSmrResponse, resp.encode());
    }

   private:
    Service& service_;
    std::atomic<std::uint64_t>& executed_;
  };

  std::shared_ptr<Service> service_;
  std::vector<std::unique_ptr<Handler>> handlers_;
  std::atomic<std::uint64_t> executed_{0};
};

}  // namespace psmr::smr
