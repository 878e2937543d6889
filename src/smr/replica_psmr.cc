#include "smr/replica_psmr.h"

#include <algorithm>
#include <deque>

#include "transport/endpoint.h"
#include "util/log.h"

namespace psmr::smr {

/// Serves the latest encoded checkpoint frame to recovering peers.
class PsmrReplica::SnapshotServer final : public transport::Endpoint {
 public:
  SnapshotServer(transport::Network& net, PsmrReplica& replica)
      : Endpoint(net, replica.name_ + "-snapshots"), replica_(replica) {}
  ~SnapshotServer() override { stop(); }

 protected:
  void handle(transport::Message msg) override {
    if (msg.type != transport::MsgType::kSmrSnapshotReq) {
      PSMR_WARN(name() << ": unexpected msg type " << msg.type);
      return;
    }
    util::Writer w;
    auto ckpt = replica_.latest_checkpoint();
    w.boolean(ckpt.has_value());
    if (ckpt) w.bytes(*ckpt);
    send(msg.from, transport::MsgType::kSmrSnapshotRep, w.take());
  }

 private:
  PsmrReplica& replica_;
};

/// One P-SMR worker: an endpoint woken by its learners and by its peers'
/// barrier signals.  Receives no messages; its turn is PsmrReplica::turn.
class PsmrReplica::Worker final : public transport::Endpoint {
 public:
  Worker(PsmrReplica& replica, std::size_t index)
      : Endpoint(replica.net_, replica.name_ + "-worker-" +
                                   std::to_string(index)),
        replica_(replica),
        index_(index),
        sub_(*replica.subs_[index]) {
    run_.reserve(replica.run_length_);
    sub_.set_waker(this);
  }
  ~Worker() override { stop(); }

  [[nodiscard]] std::size_t index() const { return index_; }

 protected:
  void handle(transport::Message msg) override {
    PSMR_WARN(name() << ": unexpected msg type " << msg.type);
  }
  void on_run() override {
    replica_.turn(*this);
    last_turn_ = Clock::now();
  }
  /// A turn at least every kCatchupAfter, so a silent stream still reaches
  /// the learners' catch-up in try_next().
  std::optional<Clock::time_point> next_deadline() override {
    return last_turn_ + paxos::LearnerLog::kCatchupAfter;
  }

 private:
  friend class PsmrReplica;

  PsmrReplica& replica_;
  const std::size_t index_;
  multicast::MergeDeliverer& sub_;
  Clock::time_point last_turn_ = Clock::now();
  /// The open execution run (reused across turns).
  std::vector<Command> run_;
  /// A decoded delivery that must not join the current run (a barrier,
  /// dependency, or same-client ordering) seeds the next step, preserving
  /// stream order across the flush.  A parked worker keeps its barrier
  /// command here.
  std::optional<Command> held_;
  /// Parked as a non-executor: its arrival signal is already sent.
  bool arrived_ = false;
};

PsmrReplica::PsmrReplica(transport::Network& net, multicast::Bus& bus,
                         std::unique_ptr<Service> service, std::size_t mpl,
                         std::string name, std::size_t run_length,
                         ReplyCaps reply_caps,
                         CheckpointOptions checkpoint,
                         const SnapshotFrame* restore)
    : net_(net),
      bus_(bus),
      mpl_(mpl),
      run_length_(run_length == 0 ? 1 : run_length),
      name_(std::move(name)),
      ckpt_opts_(checkpoint),
      service_(std::move(service)),
      signals_(mpl * mpl),
      dedup_(mpl) {
  if (bus.num_groups() != mpl_) {
    throw std::invalid_argument(
        "PsmrReplica: bus group count must equal the multiprogramming level");
  }
  if (restore && restore->workers.size() != mpl_) {
    throw std::runtime_error(
        "PsmrReplica: snapshot frame worker count mismatch");
  }
  for (std::size_t i = 0; i < mpl_; ++i) {
    if (restore) {
      subs_.push_back(bus.subscribe_at(static_cast<multicast::GroupId>(i),
                                       restore->workers[i].positions));
      if (!subs_.back()) {
        throw std::runtime_error(
            "PsmrReplica: snapshot frame stream count mismatch");
      }
    } else {
      subs_.push_back(bus.subscribe(static_cast<multicast::GroupId>(i)));
    }
  }
  auto [id, box] = net.register_node();
  reply_node_ = id;  // send-only identity for responses
  replies_ = make_reply_spool(net_, reply_caps);
  if (ckpt_opts_.enabled) {
    snapshot_server_ = std::make_unique<SnapshotServer>(net_, *this);
  }
  if (restore) install_frame(*restore);
  for (std::size_t i = 0; i < mpl_; ++i) {
    workers_.push_back(std::make_unique<Worker>(*this, i));
  }
}

PsmrReplica::~PsmrReplica() { stop(); }

void PsmrReplica::install_frame(const SnapshotFrame& frame) {
  util::Reader r(frame.service_state);
  if (!service_->restore_from(r)) {
    throw std::runtime_error(name_ + ": snapshot service state rejected");
  }
  if (service_->state_digest() != frame.service_digest) {
    throw std::runtime_error(name_ + ": snapshot digest mismatch");
  }
  for (std::size_t i = 0; i < mpl_; ++i) {
    const WorkerSnapshot& ws = frame.workers[i];
    std::vector<std::optional<paxos::Batch>> heads(ws.slots.size());
    for (const auto& h : ws.heads) {
      paxos::Batch& b = heads[h.stream].emplace();
      b.skip = h.skip;
      b.slot = h.slot;
      b.commands.assign(h.commands.begin(), h.commands.end());
    }
    std::deque<multicast::Delivery> pending;
    for (const auto& p : ws.pending) {
      pending.push_back(multicast::Delivery{p.stream, p.message});
    }
    subs_[i]->restore_merge_state(ws.slots, std::move(heads),
                                  std::move(pending));
    for (const auto& d : ws.dedup) {
      dedup_[i][d.client] = LastExec{d.seq, d.response};
    }
  }
  executed_.store(frame.executed, std::memory_order_release);
  {
    std::lock_guard lock(ckpt_mu_);
    latest_ckpt_ = encode_snapshot(frame);
    have_ckpt_ = true;
    last_ckpt_executed_ = frame.executed;
  }
  ckpts_taken_.fetch_add(1, std::memory_order_relaxed);
  // Re-ack: our stable replica id pinned the truncation floor while we were
  // down; acking the installed frame lets truncation advance again.
  send_checkpoint_acks(frame);
}

void PsmrReplica::start() {
  if (started_) return;
  started_ = true;
  if (snapshot_server_) snapshot_server_->start();
  for (auto& w : workers_) w->start();
}

void PsmrReplica::stop() {
  // Closed logs wake nobody, and a stopped worker ignores its peers'
  // signals, so workers parked at different stream positions just stay
  // parked until they are retired.
  for (auto& sub : subs_) sub->close();
  for (auto& w : workers_) w->stop();
  if (snapshot_server_) snapshot_server_->stop();
}

transport::NodeId PsmrReplica::snapshot_node() const {
  return snapshot_server_ ? snapshot_server_->id() : transport::kNoNode;
}

bool PsmrReplica::trigger_checkpoint() {
  if (!ckpt_opts_.enabled) return false;
  // Multicast to every group so the marker lands at one position of every
  // worker's merged stream (mpl 1 has no shared ring; group 0 is "all").
  const multicast::GroupSet groups =
      mpl_ > 1 ? multicast::GroupSet::all(mpl_)
               : multicast::GroupSet::single(0);
  Command marker;
  marker.cmd = kCheckpointMarker;
  marker.client = 0;  // no real client: deployments assign ids from 1
  marker.groups = groups;
  return bus_.multicast(reply_node_, groups, marker.encode());
}

bool PsmrReplica::admit(const Command& cmd, std::size_t worker) {
  auto it = dedup_[worker].find(cmd.client);
  if (it == dedup_[worker].end() || cmd.seq > it->second.seq) return true;
  if (cmd.seq == it->second.seq) {
    Response resp;
    resp.client = cmd.client;
    resp.seq = cmd.seq;
    resp.payload = it->second.response;
    spool_reply(*replies_, reply_node_, cmd.reply_to, resp);
    // Replays happen outside an execution run, so no batch boundary is
    // coming to carry them: flush now, or a quiet stream strands the reply.
    replies_->flush_all(reply_node_);
  }
  return false;  // stale duplicates are dropped silently
}

/// Updates the dedup cache and spools each response into the replica's
/// reply spool the moment the service hands it over; execute_run
/// flushes at the batch boundary.  Responses of one batch may arrive out of
/// batch order (pipelined read lane), so the cache keeps the max seq per
/// client.
class PsmrReplica::WorkerSink final : public ResponseSink {
 public:
  WorkerSink(PsmrReplica& replica, std::span<const Command> cmds,
             std::size_t worker)
      : replica_(replica), cmds_(cmds), worker_(worker) {}

  void accept(std::size_t index, util::Buffer payload) override {
    const Command& cmd = cmds_[index];
    auto& last = replica_.dedup_[worker_][cmd.client];
    if (cmd.seq > last.seq) {
      last.seq = cmd.seq;
      last.response = payload;
    }
    Response resp;
    resp.client = cmd.client;
    resp.seq = cmd.seq;
    resp.payload = std::move(payload);
    spool_reply(*replica_.replies_, replica_.reply_node_, cmd.reply_to, resp);
  }

 private:
  PsmrReplica& replica_;
  std::span<const Command> cmds_;
  std::size_t worker_;
};

void PsmrReplica::execute_run(std::vector<Command>& run, std::size_t worker) {
  WorkerSink sink(*this, run, worker);
  CommandBatch batch{std::span<const Command>(run), &sink};
  service_->execute_batch(batch);
  // The executed run is the natural flush unit: its replies leave as one
  // frame per destination proxy before the worker reads on.
  replies_->flush_all(reply_node_);
  executed_.fetch_add(run.size(), std::memory_order_release);
  // Periodic checkpoint trigger, counted on worker 0 only (one counter per
  // replica; every replica triggers, and duplicate markers collapse at the
  // barrier when nothing executed in between).
  if (worker == 0 && ckpt_opts_.enabled &&
      ckpt_opts_.interval_commands > 0) {
    since_ckpt_trigger_ += run.size();
    if (since_ckpt_trigger_ >= ckpt_opts_.interval_commands &&
        !ckpt_pending_.exchange(true, std::memory_order_relaxed)) {
      since_ckpt_trigger_ = 0;
      trigger_checkpoint();
    }
  }
}

void PsmrReplica::take_checkpoint() {
  const std::uint64_t executed = executed_.load(std::memory_order_relaxed);
  {
    std::lock_guard lock(ckpt_mu_);
    // Duplicate markers (several replicas trigger periodically) collapse:
    // nothing executed since the last cut means an identical frame.
    if (have_ckpt_ && executed == last_ckpt_executed_) return;
  }
  // The snapshot is the one long step a worker takes: let the endpoints
  // its sends queued on this pool thread run elsewhere meanwhile.
  net_.executor().spill();
  SnapshotFrame frame = build_frame(executed);
  util::Writer sw;
  if (!service_->snapshot_to(sw)) {
    PSMR_WARN(name_ << ": service does not support snapshots; "
                       "checkpoint skipped");
    return;
  }
  frame.service_state = sw.take();
  frame.service_digest = service_->state_digest();
  util::Buffer encoded = encode_snapshot(frame);
  {
    std::lock_guard lock(ckpt_mu_);
    latest_ckpt_ = std::move(encoded);
    have_ckpt_ = true;
    last_ckpt_executed_ = executed;
  }
  ckpts_taken_.fetch_add(1, std::memory_order_relaxed);
  send_checkpoint_acks(frame);
  PSMR_DEBUG(name_ << ": checkpoint at " << executed << " commands");
}

SnapshotFrame PsmrReplica::build_frame(std::uint64_t executed) const {
  SnapshotFrame frame;
  frame.executed = executed;
  frame.workers.resize(mpl_);
  for (std::size_t i = 0; i < mpl_; ++i) {
    WorkerSnapshot& ws = frame.workers[i];
    const auto& sub = *subs_[i];
    for (std::size_t s = 0; s < sub.num_streams(); ++s) {
      ws.positions.push_back(sub.stream_position(s));
      ws.slots.push_back(sub.last_slot(s));
      if (const auto& head = sub.head(s)) {
        SnapshotHead h{static_cast<std::uint32_t>(s), head->slot, head->skip,
                       {}};
        for (const auto& c : head->commands) {
          h.commands.push_back(c.to_buffer());
        }
        ws.heads.push_back(std::move(h));
      }
    }
    for (const auto& d : sub.pending()) {
      ws.pending.push_back(SnapshotPending{
          static_cast<std::uint32_t>(d.stream), d.message.to_buffer()});
    }
    // Canonical (sorted) dedup table, so equal tables encode equally.
    ws.dedup.reserve(dedup_[i].size());
    for (const auto& [client, last] : dedup_[i]) {
      ws.dedup.push_back(SnapshotDedupEntry{client, last.seq, last.response});
    }
    std::sort(ws.dedup.begin(), ws.dedup.end(),
              [](const SnapshotDedupEntry& a, const SnapshotDedupEntry& b) {
                return a.client < b.client;
              });
  }
  return frame;
}

void PsmrReplica::send_checkpoint_acks(const SnapshotFrame& frame) {
  if (!ckpt_opts_.enabled) return;
  // Worker group g's ring has exactly one subscriber per replica (worker
  // g), so its covered prefix is that worker's position.  The shared ring
  // is merged by every worker; at the cut they agree, but ack the minimum
  // for safety.
  auto ack_ring = [&](paxos::Ring& ring, paxos::Instance inst) {
    util::Writer w;
    w.u64(ckpt_opts_.replica_id);
    w.u64(inst);
    for (auto a : ring.acceptor_ids()) {
      net_.send(reply_node_, a, transport::MsgType::kPaxosCheckpointAck,
                w.view());
    }
  };
  for (std::size_t g = 0; g < mpl_; ++g) {
    if (frame.workers[g].positions.empty()) continue;
    ack_ring(bus_.group_ring(static_cast<multicast::GroupId>(g)),
             frame.workers[g].positions[0]);
  }
  if (bus_.has_shared_ring()) {
    paxos::Instance shared = 0;
    bool first = true;
    for (const auto& ws : frame.workers) {
      if (ws.positions.size() < 2) continue;
      shared = first ? ws.positions[1] : std::min(shared, ws.positions[1]);
      first = false;
    }
    if (!first) ack_ring(bus_.shared_ring(), shared);
  }
}

void PsmrReplica::notify(std::size_t from, std::size_t to) {
  signal(from, to).fetch_add(1, std::memory_order_release);
  workers_[to]->wake();
}

bool PsmrReplica::pass_barrier(Worker& w, multicast::GroupSet groups) {
  const std::size_t executor = groups.min();
  if (w.index() != executor) {
    if (!w.arrived_) {
      w.arrived_ = true;
      notify(w.index(), executor);
    }
    auto& resume = signal(executor, w.index());
    if (resume.load(std::memory_order_acquire) == 0) return false;
    resume.fetch_sub(1, std::memory_order_acq_rel);
    w.arrived_ = false;
    return true;
  }
  bool all = true;
  groups.for_each([&](multicast::GroupId j) {
    if (j != executor && j < mpl_ &&
        signal(j, executor).load(std::memory_order_acquire) == 0) {
      all = false;
    }
  });
  if (!all) return false;
  // Only this worker decrements these cells, so the counts just seen are
  // still there.
  groups.for_each([&](multicast::GroupId j) {
    if (j != executor && j < mpl_) {
      signal(j, executor).fetch_sub(1, std::memory_order_acq_rel);
    }
  });
  return true;
}

void PsmrReplica::release(std::size_t executor, multicast::GroupSet groups) {
  groups.for_each([&](multicast::GroupId j) {
    if (j != executor && j < mpl_) notify(executor, j);
  });
}

void PsmrReplica::turn(Worker& w) {
  for (std::size_t n = 0; n < kTurnRuns; ++n) {
    if (!step(w)) return;
  }
  w.wake();  // budget spent: go round again after the thread's other work
}

bool PsmrReplica::step(Worker& w) {
  const std::size_t worker = w.index();
  auto& sub = w.sub_;
  if (!w.held_) {
    multicast::Delivery delivery;
    if (sub.try_next(delivery) != multicast::MergeDeliverer::Poll::kDelivered) {
      return false;  // dry, or closed for good
    }
    auto cmd = Command::decode(delivery.message);
    if (!cmd) {
      PSMR_ERROR(name_ << " worker " << worker << ": malformed command");
      return true;
    }
    w.held_ = std::move(*cmd);
  }
  if (w.held_->cmd == kCheckpointMarker) {
    // Before the singleton test: with mpl 1 the marker travels group 0's
    // ring as a singleton command but still cuts a checkpoint.  The
    // full-replica barrier fixes the executor at worker 0.  Every worker
    // parks exactly after consuming the marker from its own stream, so the
    // resume state worker 0 records is the deterministic cut.  The counting
    // semantics keep this safe against the synchronous-mode barriers
    // sharing cells: all workers process their (identical) stream's
    // barrier events in order, so the n-th consumption pairs with the n-th
    // signal.
    const auto all = multicast::GroupSet::all(mpl_);
    if (!pass_barrier(w, all)) return false;
    w.held_.reset();
    if (worker == 0) {
      ckpt_pending_.store(false, std::memory_order_relaxed);
      take_checkpoint();
      release(0, all);
    }
    return true;
  }
  if (!w.held_->groups.singleton()) {
    // Synchronous mode (Algorithm 1, lines 14-26).
    const multicast::GroupSet groups = w.held_->groups;
    if (!groups.contains(static_cast<multicast::GroupId>(worker))) {
      w.held_.reset();  // delivered via g_all but not a destination
      return true;
    }
    if (!pass_barrier(w, groups)) return false;
    Command cmd = std::move(*w.held_);
    w.held_.reset();
    if (worker == groups.min()) {
      // Dedup/replay and execute exactly like a parallel-mode run of one.
      if (admit(cmd, worker)) {
        w.run_.clear();
        w.run_.push_back(std::move(cmd));
        execute_run(w.run_, worker);
      }
      release(worker, groups);
    }
    return true;
  }
  // Parallel mode (Algorithm 1, lines 10-13), batched: accumulate
  // consecutive independent parallel-mode deliveries until the stream runs
  // dry, a barrier command arrives, or the run is full.
  Command first = std::move(*w.held_);
  w.held_.reset();
  if (!admit(first, worker)) return true;
  auto& run = w.run_;
  run.clear();
  run.push_back(std::move(first));
  while (run.size() < run_length_) {
    multicast::Delivery delivery;
    // kDry and kClosed both end the accumulation — flush what we have.
    if (sub.try_next(delivery) != multicast::MergeDeliverer::Poll::kDelivered) {
      break;
    }
    auto cmd = Command::decode(delivery.message);
    if (!cmd) {
      PSMR_ERROR(name_ << " worker " << worker << ": malformed command");
      continue;
    }
    if (cmd->cmd == kCheckpointMarker || !cmd->groups.singleton()) {
      w.held_ = std::move(*cmd);
      break;  // barrier (synchronous mode or checkpoint) ends the run
    }
    // Same-client ordering: a seq at or below one already in the
    // (unexecuted) run is either a retransmission or out of order; flush
    // so the dedup cache — updated only at execution — can classify it
    // exactly as the sequential path would have.
    bool ordered = true;
    bool joins = true;
    for (const Command& member : run) {
      if (cmd->client == member.client && cmd->seq <= member.seq) {
        ordered = false;
        break;
      }
      if (!service_->may_share_batch(member, *cmd)) joins = false;
    }
    if (!ordered || !joins) {
      w.held_ = std::move(*cmd);
      break;
    }
    if (!admit(*cmd, worker)) continue;
    run.push_back(std::move(*cmd));
  }
  execute_run(run, worker);
  return true;
}

}  // namespace psmr::smr
