#include "smr/scheduler.h"

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

SchedulerCore::SchedulerCore(transport::Network& net,
                             std::unique_ptr<Service> service,
                             std::shared_ptr<const CGFunction> cg,
                             std::size_t num_workers, std::string name,
                             SchedulerOptions options)
    : net_(net),
      service_(std::move(service)),
      cg_(std::move(cg)),
      name_(std::move(name)),
      opts_(options) {
  if (cg_->mpl() != num_workers) {
    throw std::invalid_argument(
        "SchedulerCore: C-G mpl must equal the worker count");
  }
  if (opts_.run_length == 0) {
    throw std::invalid_argument("SchedulerCore: run_length must be >= 1");
  }
  for (std::size_t i = 0; i < num_workers; ++i) {
    slots_.push_back(std::make_unique<WorkerSlot>());
  }
  auto [id, box] = net.register_node();
  reply_node_ = id;
  replies_ = make_reply_spool(net_, opts_.replies);
}

SchedulerCore::~SchedulerCore() { stop(); }

void SchedulerCore::start() {
  if (started_) return;
  started_ = true;
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

void SchedulerCore::stop() {
  for (auto& slot : slots_) slot->queue.close();
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
  workers_.clear();
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
  if (groups.singleton()) {
    dispatch(groups.min(), std::move(cmd));
    return;
  }
  // Serialized command: let in-flight work finish, run it alone, and only
  // then resume dispatching (the paper's drain-assign-drain behaviour).
  drain();
  dispatch(groups.min() < slots_.size() ? groups.min() : 0, std::move(cmd));
  drain();
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

void SchedulerCore::dispatch(std::size_t worker, Command cmd) {
  {
    std::lock_guard lock(idle_mu_);
    ++in_flight_;
  }
  slots_[worker]->queue.push(std::move(cmd));
}

void SchedulerCore::drain() {
  std::unique_lock lock(idle_mu_);
  idle_cv_.wait(lock, [&] { return in_flight_ == 0; });
}

void SchedulerCore::execute_run(std::vector<Command>& run) {
  ReplySink sink(*replies_, reply_node_, run);
  CommandBatch batch{std::span<const Command>(run), &sink};
  service_->execute_batch(batch);
  // Batch boundary: the run's replies go on the wire before this worker
  // reports idle, so drain() never completes with responses still spooled.
  replies_->flush_all(reply_node_);
  executed_.fetch_add(run.size(), std::memory_order_release);
  {
    std::lock_guard lock(idle_mu_);
    in_flight_ -= static_cast<std::int64_t>(run.size());
    if (in_flight_ == 0) idle_cv_.notify_all();
  }
}

void SchedulerCore::worker_loop(std::size_t i) {
  auto& slot = *slots_[i];
  std::vector<Command> run;
  run.reserve(opts_.run_length);
  // A popped command that cannot join the current run (dependency, or the
  // run is this worker's to order) carries over as the next run's seed; the
  // queue has a single consumer, so holding one back preserves FIFO order.
  std::optional<Command> held;
  for (;;) {
    run.clear();
    if (held) {
      run.push_back(std::move(*held));
      held.reset();
    } else {
      auto cmd = slot.queue.pop();
      if (!cmd) break;  // queue closed and drained
      run.push_back(std::move(*cmd));
    }
    while (run.size() < opts_.run_length) {
      auto next = slot.queue.try_pop();
      if (!next) break;  // drain-on-empty: never wait to fill a batch
      bool joins = true;
      for (const Command& member : run) {
        if (!service_->may_share_batch(member, *next)) {
          joins = false;
          break;
        }
      }
      if (!joins) {
        held = std::move(*next);
        break;
      }
      run.push_back(std::move(*next));
    }
    execute_run(run);
  }
}

}  // namespace psmr::smr
