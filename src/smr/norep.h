// no-rep: unreplicated scheduler-worker server (paper Section VI-B).
//
// "A non-replicated architecture with a single multi-threaded server
// directly connected to the clients ... a scheduler at the server is
// responsible for scheduling incoming commands for execution at worker
// threads."  Identical execution engine to sP-SMR but fed straight from
// client messages — isolating the cost of atomic multicast when the two are
// compared.
//
// The server endpoint and the core's workers all run on the network's
// executor pool; the handler hands each command to the non-blocking
// SchedulerCore::schedule() and returns.
#pragma once

#include <memory>

#include "smr/scheduler.h"
#include "transport/endpoint.h"

namespace psmr::smr {

class NoRepServer : public transport::Endpoint {
 public:
  NoRepServer(transport::Network& net, std::unique_ptr<Service> service,
              std::shared_ptr<const CGFunction> cg, std::size_t mpl,
              SchedulerOptions options = {})
      : Endpoint(net, "norep-server"),
        core_(net, std::move(service), std::move(cg), mpl, "norep",
              options) {}

  ~NoRepServer() override { stop_all(); }

  void start_all() {
    core_.start();
    start();
  }
  void stop_all() {
    stop();  // the endpoint first: it feeds the core
    core_.stop();
  }

  [[nodiscard]] std::uint64_t executed() const { return core_.executed(); }
  [[nodiscard]] const Service& service() const { return core_.service(); }
  /// Reply-path wire counters of the execution core's reply spool.
  [[nodiscard]] ResponseStats response_stats() const {
    return core_.response_stats();
  }

 protected:
  void handle(transport::Message msg) override {
    if (msg.type != transport::MsgType::kSmrDirect) return;
    auto cmd = Command::decode(msg.payload);
    if (cmd) core_.schedule(std::move(*cmd));
  }

 private:
  SchedulerCore core_;
};

}  // namespace psmr::smr
