// sP-SMR replica: sequential delivery, parallel execution (paper Table I).
//
// One delivery endpoint consumes the single totally ordered stream (the bus
// is configured with one group) and feeds the SchedulerCore, which
// dispatches to its worker endpoints.  Contrast with PsmrReplica, where each
// worker delivers its own stream.  Nothing here owns a thread: the stream's
// learner wakes the delivery endpoint on every DECIDE (Mailbox::set_waker),
// and its turn pumps try_next() into the scheduler until the stream is dry
// or kTurnDeliveries commands are spent (then it wakes itself and yields).
// A silent stream still gets a turn every LearnerLog::kCatchupAfter, so the
// learner's catch-up runs.
#pragma once

#include <memory>

#include "multicast/amcast.h"
#include "smr/scheduler.h"

namespace psmr::smr {

class SpsmrReplica {
 public:
  /// The bus must have exactly one group (single delivery stream); `mpl`
  /// workers execute, and `cg` (computed for k = mpl) provides the
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
  class Deliverer;

  /// Commands the delivery endpoint may schedule in one turn before it
  /// yields its pool thread.
  static constexpr std::size_t kTurnDeliveries = 64;

  /// One turn of the delivery endpoint.
  void turn();

  SchedulerCore core_;
  std::unique_ptr<multicast::MergeDeliverer> sub_;
  std::string name_;
  /// Last member: it stops before the state its turns use goes.
  std::unique_ptr<Deliverer> deliverer_;
};

}  // namespace psmr::smr
