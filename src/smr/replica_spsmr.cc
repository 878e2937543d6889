#include "smr/replica_spsmr.h"

#include "transport/endpoint.h"
#include "util/log.h"

namespace psmr::smr {

/// The delivery endpoint: woken by the stream's learner.  Receives no
/// messages; its turn is SpsmrReplica::turn.
class SpsmrReplica::Deliverer final : public transport::Endpoint {
 public:
  Deliverer(transport::Network& net, SpsmrReplica& replica)
      : Endpoint(net, replica.name_ + "-delivery"), replica_(replica) {
    replica.sub_->set_waker(this);
  }
  ~Deliverer() override { stop(); }

 protected:
  void handle(transport::Message msg) override {
    PSMR_WARN(name() << ": unexpected msg type " << msg.type);
  }
  void on_run() override {
    replica_.turn();
    last_turn_ = Clock::now();
  }
  /// A turn at least every kCatchupAfter, so a silent stream still reaches
  /// the learner's catch-up in try_next().
  std::optional<Clock::time_point> next_deadline() override {
    return last_turn_ + paxos::LearnerLog::kCatchupAfter;
  }

 private:
  SpsmrReplica& replica_;
  Clock::time_point last_turn_ = Clock::now();
};

SpsmrReplica::SpsmrReplica(transport::Network& net, multicast::Bus& bus,
                           std::unique_ptr<Service> service,
                           std::shared_ptr<const CGFunction> cg,
                           std::size_t mpl, std::string name,
                           SchedulerOptions options)
    : core_(net, std::move(service), std::move(cg), mpl, name, options),
      name_(std::move(name)) {
  if (bus.num_groups() != 1) {
    throw std::invalid_argument(
        "SpsmrReplica: sP-SMR delivers a single stream (bus must have one "
        "group)");
  }
  sub_ = bus.subscribe(0);
  deliverer_ = std::make_unique<Deliverer>(net, *this);
}

SpsmrReplica::~SpsmrReplica() { stop(); }

void SpsmrReplica::start() {
  core_.start();
  deliverer_->start();
}

void SpsmrReplica::stop() {
  // The closed log wakes nobody; the deliverer goes first because it feeds
  // the core.
  sub_->close();
  deliverer_->stop();
  core_.stop();
}

void SpsmrReplica::turn() {
  for (std::size_t n = 0; n < kTurnDeliveries; ++n) {
    multicast::Delivery delivery;
    if (sub_->try_next(delivery) !=
        multicast::MergeDeliverer::Poll::kDelivered) {
      return;  // dry, or closed for good
    }
    auto cmd = Command::decode(delivery.message);
    if (!cmd) {
      PSMR_ERROR(name_ << ": malformed command");
      continue;
    }
    core_.schedule(std::move(*cmd));
  }
  deliverer_->wake();  // budget spent: go round again
}

}  // namespace psmr::smr
