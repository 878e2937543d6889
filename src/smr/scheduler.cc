#include "smr/scheduler.h"

#include "transport/endpoint.h"
#include "util/log.h"

namespace psmr::smr {

namespace {

/// Spools each response into the reply spool as soon as the service hands
/// it over; execute_run flushes at the batch boundary, so a batch's replies
/// to the same proxy leave as one wire frame.
class ReplySink final : public ResponseSink {
 public:
  ReplySink(ReplySpool& spool, transport::NodeId from,
            std::span<const Command> cmds)
      : spool_(spool), from_(from), cmds_(cmds) {}

  void accept(std::size_t index, util::Buffer payload) override {
    const Command& cmd = cmds_[index];
    Response resp;
    resp.client = cmd.client;
    resp.seq = cmd.seq;
    resp.payload = std::move(payload);
    spool_reply(spool_, from_, cmd.reply_to, resp);
  }

 private:
  ReplySpool& spool_;
  const transport::NodeId from_;
  std::span<const Command> cmds_;
};

}  // namespace

/// One scheduler worker: an endpoint woken by dispatches to its queue.
/// Receives no messages; its turn is SchedulerCore::turn.
class SchedulerCore::Worker final : public transport::Endpoint {
 public:
  Worker(SchedulerCore& core, std::size_t index)
      : Endpoint(core.net_, core.name_ + "-worker-" + std::to_string(index)),
        core_(core),
        index_(index) {
    run_.reserve(core.opts_.run_length);
  }
  ~Worker() override { stop(); }

 protected:
  void handle(transport::Message msg) override {
    PSMR_WARN(name() << ": unexpected msg type " << msg.type);
  }
  void on_run() override { core_.turn(*this); }

 private:
  friend class SchedulerCore;

  SchedulerCore& core_;
  const std::size_t index_;
  std::vector<Command> run_;  // reused across turns
};

SchedulerCore::SchedulerCore(transport::Network& net,
                             std::unique_ptr<Service> service,
                             std::shared_ptr<const CGFunction> cg,
                             std::size_t num_workers, std::string name,
                             SchedulerOptions options)
    : net_(net),
      service_(std::move(service)),
      cg_(std::move(cg)),
      name_(std::move(name)),
      opts_(options),
      queues_(num_workers) {
  if (cg_->mpl() != num_workers) {
    throw std::invalid_argument(
        "SchedulerCore: C-G mpl must equal the worker count");
  }
  if (opts_.run_length == 0) {
    throw std::invalid_argument("SchedulerCore: run_length must be >= 1");
  }
  auto [id, box] = net.register_node();
  reply_node_ = id;
  replies_ = make_reply_spool(net_, opts_.replies);
  for (std::size_t i = 0; i < num_workers; ++i) {
    workers_.push_back(std::make_unique<Worker>(*this, i));
  }
}

SchedulerCore::~SchedulerCore() { stop(); }

void SchedulerCore::start() {
  for (auto& w : workers_) w->start();
}

void SchedulerCore::stop() {
  for (auto& w : workers_) w->stop();
}

void SchedulerCore::schedule(Command cmd) {
  ++schedule_ticks_;
  auto [it, fresh] = dedup_.try_emplace(cmd.client);
  if (!fresh && cmd.seq <= it->second.seq) {
    it->second.last_seen = schedule_ticks_;
    return;  // duplicate submission
  }
  it->second = {cmd.seq, schedule_ticks_};
  maybe_evict_dedup();

  const multicast::GroupSet groups = cg_->groups(cmd);
  multicast::GroupSet woken;
  {
    std::lock_guard lock(mu_);
    backlog_.push_back({groups, std::move(cmd)});
    woken = pump_locked();
  }
  wake(woken);
}

void SchedulerCore::maybe_evict_dedup() {
  const std::uint64_t window = opts_.dedup_idle_window;
  if (window == 0) return;
  // Sweep every window/4 ticks: amortized O(1) per command, and an entry
  // survives at most window + window/4 ticks past its client's last use.
  const std::uint64_t sweep_every = window / 4 + 1;
  if (schedule_ticks_ % sweep_every != 0) return;
  std::erase_if(dedup_, [&](const auto& entry) {
    return schedule_ticks_ - entry.second.last_seen > window;
  });
}

multicast::GroupSet SchedulerCore::pump_locked() {
  std::uint64_t woken = 0;
  while (!backlog_.empty() && !serial_) {
    Pending& next = backlog_.front();
    std::size_t worker = next.groups.empty() ? 0 : next.groups.min();
    if (!next.groups.singleton()) {
      // Serialized command: let in-flight work finish, then run it alone;
      // the run that finishes it pumps again.
      if (in_flight_ > 0) break;
      serial_ = true;
      if (worker >= queues_.size()) worker = 0;
    }
    auto& queue = queues_[worker];
    if (queue.empty()) woken |= std::uint64_t{1} << worker;
    queue.push_back(std::move(next.cmd));
    ++in_flight_;
    backlog_.pop_front();
  }
  return multicast::GroupSet::from_mask(woken);
}

void SchedulerCore::wake(multicast::GroupSet workers) {
  workers.for_each([&](multicast::GroupId i) { workers_[i]->wake(); });
}

void SchedulerCore::turn(Worker& w) {
  for (std::size_t n = 0; n < kTurnRuns; ++n) {
    {
      std::lock_guard lock(mu_);
      take_run_locked(w.index_, w.run_);
    }
    if (w.run_.empty()) return;
    // The dispatch that woke this worker may have queued its peers on this
    // pool thread's local list as well; hand them to idle threads so the
    // runs execute in parallel, not one after another here.
    net_.executor().spill();
    execute_run(w.run_);
  }
  w.wake();  // budget spent: go round again after the thread's other work
}

void SchedulerCore::take_run_locked(std::size_t i, std::vector<Command>& run) {
  auto& queue = queues_[i];
  while (!queue.empty() && run.size() < opts_.run_length) {
    const Command& next = queue.front();
    for (const Command& member : run) {
      if (!service_->may_share_batch(member, next)) return;
    }
    run.push_back(std::move(queue.front()));
    queue.pop_front();
  }
}

void SchedulerCore::execute_run(std::vector<Command>& run) {
  ReplySink sink(*replies_, reply_node_, run);
  CommandBatch batch{std::span<const Command>(run), &sink};
  service_->execute_batch(batch);
  // Batch boundary: the run's replies go on the wire before it counts as
  // finished, so a serialized command never runs with replies still
  // spooled ahead of it.
  replies_->flush_all(reply_node_);
  executed_.fetch_add(run.size(), std::memory_order_release);
  multicast::GroupSet woken;
  {
    std::lock_guard lock(mu_);
    in_flight_ -= static_cast<std::int64_t>(run.size());
    if (in_flight_ == 0) {
      serial_ = false;
      woken = pump_locked();
    }
  }
  run.clear();
  wake(woken);
}

}  // namespace psmr::smr
