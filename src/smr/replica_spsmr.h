// sP-SMR replica: sequential delivery, parallel execution (paper Table I).
//
// One delivery thread consumes the single totally ordered stream (the bus is
// configured with one group) and feeds the SchedulerCore, which dispatches
// to worker threads.  Contrast with PsmrReplica, where each worker delivers
// its own stream.
#pragma once

#include <memory>
#include <thread>

#include "multicast/amcast.h"
#include "smr/scheduler.h"

namespace psmr::smr {

class SpsmrReplica {
 public:
  /// The bus must have exactly one group (single delivery stream); `mpl`
  /// worker threads execute, and `cg` (computed for k = mpl) provides the
  /// scheduler's dependency partitioning.  `options` tunes the workers'
  /// execution batching and dedup bounds (see SchedulerOptions).
  SpsmrReplica(transport::Network& net, multicast::Bus& bus,
               std::unique_ptr<Service> service,
               std::shared_ptr<const CGFunction> cg, std::size_t mpl,
               std::string name = "spsmr-replica",
               SchedulerOptions options = {});
  ~SpsmrReplica();

  SpsmrReplica(const SpsmrReplica&) = delete;
  SpsmrReplica& operator=(const SpsmrReplica&) = delete;

  void start();
  void stop();

  [[nodiscard]] std::uint64_t executed() const { return core_.executed(); }
  [[nodiscard]] const Service& service() const { return core_.service(); }
  /// Reply-path wire counters of the execution core.
  [[nodiscard]] ResponseStats response_stats() const {
    return core_.response_stats();
  }

 private:
  void delivery_loop();

  SchedulerCore core_;
  std::unique_ptr<multicast::MergeDeliverer> sub_;
  std::thread delivery_thread_;
  std::string name_;
  bool started_ = false;
};

}  // namespace psmr::smr
