#include "smr/runtime.h"

#include <chrono>
#include <stdexcept>
#include <string>
#include <utility>

#include "util/bytes.h"
#include "util/log.h"

namespace psmr::smr {

Deployment::Deployment(DeploymentConfig cfg) : cfg_(std::move(cfg)) {
  if (!cfg_.service_factory) {
    throw std::invalid_argument("Deployment: service_factory is required");
  }
  if (!cfg_.cg_factory && cfg_.mode != Mode::kLockServer) {
    throw std::invalid_argument("Deployment: cg_factory is required");
  }
  if (cfg_.mode == Mode::kSmr) cfg_.mpl = 1;
  if (cfg_.exec_run_length == 0) cfg_.exec_run_length = 1;
  SchedulerOptions sched_opts;
  sched_opts.run_length = cfg_.exec_run_length;
  sched_opts.replies = cfg_.reply_caps;
  // Truncation quorum: with checkpointing on, default to "every replica has
  // acked" so the log never drops a prefix some replica still needs.
  if (cfg_.checkpoint.enabled && cfg_.ring.checkpoint_ackers == 0) {
    cfg_.ring.checkpoint_ackers = cfg_.replicas;
  }

  switch (cfg_.mode) {
    case Mode::kSmr:
    case Mode::kSpsmr: {
      // Single totally ordered stream.
      multicast::BusConfig bus_cfg;
      bus_cfg.num_groups = 1;
      bus_cfg.ring = cfg_.ring;
      bus_cfg.submit_caps = cfg_.submit_caps;
      bus_ = std::make_unique<multicast::Bus>(net_, bus_cfg);
      client_cg_ = cfg_.cg_factory(1);
      for (std::size_t r = 0; r < cfg_.replicas; ++r) {
        if (cfg_.mode == Mode::kSmr) {
          psmr_.push_back(build_psmr_replica(r, nullptr));
        } else {
          spsmr_.push_back(std::make_unique<SpsmrReplica>(
              net_, *bus_, cfg_.service_factory(), cfg_.cg_factory(cfg_.mpl),
              cfg_.mpl, "spsmr-replica" + std::to_string(r), sched_opts));
        }
      }
      break;
    }
    case Mode::kPsmr: {
      multicast::BusConfig bus_cfg;
      bus_cfg.num_groups = cfg_.mpl;
      bus_cfg.ring = cfg_.ring;
      bus_cfg.submit_caps = cfg_.submit_caps;
      bus_ = std::make_unique<multicast::Bus>(net_, bus_cfg);
      client_cg_ = cfg_.cg_factory(cfg_.mpl);
      for (std::size_t r = 0; r < cfg_.replicas; ++r) {
        psmr_.push_back(build_psmr_replica(r, nullptr));
      }
      break;
    }
    case Mode::kNoRep: {
      norep_ = std::make_unique<NoRepServer>(net_, cfg_.service_factory(),
                                             cfg_.cg_factory(cfg_.mpl),
                                             cfg_.mpl, sched_opts);
      break;
    }
    case Mode::kLockServer: {
      lock_service_ = cfg_.shared_service_factory
                          ? cfg_.shared_service_factory()
                          : std::make_shared<LockedService>(
                                cfg_.service_factory());
      lock_ = std::make_unique<LockServer>(net_, lock_service_, cfg_.mpl);
      break;
    }
  }
}

std::unique_ptr<PsmrReplica> Deployment::build_psmr_replica(
    std::size_t r, const SnapshotFrame* restore) {
  CheckpointOptions ckpt = cfg_.checkpoint;
  ckpt.replica_id = r;  // stable across restarts: keys the truncation acks
  std::string prefix =
      cfg_.mode == Mode::kSmr ? "smr-replica" : "psmr-replica";
  return std::make_unique<PsmrReplica>(
      net_, *bus_, cfg_.service_factory(), cfg_.mpl,
      prefix + std::to_string(r), cfg_.exec_run_length, cfg_.reply_caps, ckpt,
      restore);
}

Deployment::~Deployment() { stop(); }

void Deployment::start() {
  if (started_) return;
  started_ = true;
  if (bus_) bus_->start();
  for (auto& r : psmr_) {
    if (r) r->start();
  }
  for (auto& r : spsmr_) r->start();
  if (norep_) norep_->start_all();
  if (lock_) lock_->start();
}

void Deployment::stop() {
  if (!started_) return;
  started_ = false;
  for (auto& r : psmr_) {
    if (r) r->stop();
  }
  for (auto& r : spsmr_) r->stop();
  if (norep_) norep_->stop_all();
  if (lock_) lock_->stop();
  if (bus_) bus_->stop();
  net_.shutdown();
}

bool Deployment::trigger_checkpoint() {
  std::lock_guard lock(replicas_mu_);
  for (auto& r : psmr_) {
    if (r) return r->trigger_checkpoint();
  }
  return false;
}

std::uint64_t Deployment::checkpoints_taken(std::size_t i) const {
  std::lock_guard lock(replicas_mu_);
  if (i >= psmr_.size() || !psmr_[i]) return 0;
  return psmr_[i]->checkpoints_taken();
}

void Deployment::crash_replica(std::size_t i) {
  std::unique_ptr<PsmrReplica> victim;
  {
    std::lock_guard lock(replicas_mu_);
    if (i >= psmr_.size() || !psmr_[i]) return;
    victim = std::move(psmr_[i]);  // slot reads as crashed from here on
  }
  // Stop (waits out the workers' last turns) outside the lock so
  // monitors keep reading the surviving replicas while the victim winds
  // down.
  victim->stop();
  victim.reset();
}

std::optional<SnapshotFrame> Deployment::fetch_peer_snapshot(
    std::size_t skip) {
  // Collect the live peers' snapshot-server nodes under the lock, then do
  // the (blocking) fetches without it.
  std::vector<transport::NodeId> peers;
  {
    std::lock_guard lock(replicas_mu_);
    for (std::size_t j = 0; j < psmr_.size(); ++j) {
      if (j == skip || !psmr_[j]) continue;
      auto node = psmr_[j]->snapshot_node();
      if (node != transport::kNoNode) peers.push_back(node);
    }
  }
  if (peers.empty()) return std::nullopt;
  auto [me, mailbox] = net_.register_node();
  std::optional<SnapshotFrame> best;
  for (auto peer : peers) {
    if (!net_.send(me, peer, transport::MsgType::kSmrSnapshotReq, {})) {
      continue;
    }
    auto msg = mailbox->pop_for(std::chrono::seconds(5));
    if (!msg || msg->type != transport::MsgType::kSmrSnapshotRep) continue;
    try {
      util::Reader r(msg->payload);
      if (!r.boolean()) continue;  // peer has no checkpoint yet
      auto frame = decode_snapshot(r.bytes());
      if (!frame) continue;
      if (!best || frame->executed > best->executed) best = std::move(frame);
    } catch (const util::DecodeError&) {
      continue;
    }
  }
  return best;
}

bool Deployment::restart_replica(std::size_t i) {
  {
    std::lock_guard lock(replicas_mu_);
    if (i >= psmr_.size() || psmr_[i]) return false;
  }
  // Catch-up: prefer a peer's snapshot (bounded replay); fall back to a
  // full from-scratch replay when no peer holds one.  The fallback is safe
  // exactly because no checkpoint implies no truncation acks, hence the
  // acceptors still hold the full log.
  std::optional<SnapshotFrame> frame = fetch_peer_snapshot(i);
  std::unique_ptr<PsmrReplica> rep;
  try {
    rep = build_psmr_replica(i, frame ? &*frame : nullptr);
  } catch (const std::runtime_error& e) {
    PSMR_WARN("restart_replica(" << i << "): snapshot install failed ("
                                 << e.what() << "); replaying from scratch");
    rep = build_psmr_replica(i, nullptr);
  }
  if (started_) rep->start();
  std::lock_guard lock(replicas_mu_);
  psmr_[i] = std::move(rep);
  return true;
}

std::unique_ptr<ClientProxy> Deployment::make_client() {
  const ClientId id = next_client_.fetch_add(1, std::memory_order_relaxed);
  switch (cfg_.mode) {
    case Mode::kSmr:
    case Mode::kSpsmr:
    case Mode::kPsmr:
      return std::make_unique<ClientProxy>(net_, *bus_, client_cg_, id,
                                           cfg_.admission);
    case Mode::kNoRep:
      return std::make_unique<ClientProxy>(net_, norep_->id(), id);
    case Mode::kLockServer: {
      auto node = lock_->handler_node(
          next_handler_.fetch_add(1, std::memory_order_relaxed) %
          lock_->num_threads());
      return std::make_unique<ClientProxy>(net_, node, id);
    }
  }
  return nullptr;
}

paxos::CoordinatorStats Deployment::multicast_stats() const {
  return bus_ ? bus_->total_stats() : paxos::CoordinatorStats{};
}

std::size_t Deployment::num_services() const {
  if (norep_ || lock_) return 1;
  return psmr_.empty() ? spsmr_.size() : psmr_.size();
}

std::uint64_t Deployment::executed(std::size_t i) const {
  if (norep_) return norep_->executed();
  if (lock_) return lock_->executed();
  if (!psmr_.empty()) {
    std::lock_guard lock(replicas_mu_);
    return psmr_.at(i) ? psmr_[i]->executed() : 0;
  }
  return spsmr_.at(i)->executed();
}

std::uint64_t Deployment::state_digest(std::size_t i) const {
  if (norep_) return norep_->service().state_digest();
  if (lock_) return lock_->service().state_digest();
  if (!psmr_.empty()) {
    std::lock_guard lock(replicas_mu_);
    return psmr_.at(i) ? psmr_[i]->service().state_digest() : 0;
  }
  return spsmr_.at(i)->service().state_digest();
}

ExecStats Deployment::exec_stats(std::size_t i) const {
  if (norep_) return norep_->service().exec_stats();
  if (lock_) return lock_->service().exec_stats();
  if (!psmr_.empty()) {
    std::lock_guard lock(replicas_mu_);
    return psmr_.at(i) ? psmr_[i]->service().exec_stats() : ExecStats{};
  }
  return spsmr_.at(i)->service().exec_stats();
}

ExecStats Deployment::exec_stats() const {
  ExecStats total;
  for (std::size_t i = 0; i < num_services(); ++i) total += exec_stats(i);
  return total;
}

ResponseStats Deployment::response_stats(std::size_t i) const {
  if (norep_) return norep_->response_stats();
  if (lock_) return ResponseStats{};  // handlers reply inline per command
  if (!psmr_.empty()) {
    std::lock_guard lock(replicas_mu_);
    return psmr_.at(i) ? psmr_[i]->response_stats() : ResponseStats{};
  }
  return spsmr_.at(i)->response_stats();
}

ResponseStats Deployment::response_stats() const {
  ResponseStats total;
  for (std::size_t i = 0; i < num_services(); ++i) total += response_stats(i);
  return total;
}

SpoolStats Deployment::spool_stats() const {
  return bus_ ? bus_->coalesce_stats() : SpoolStats{};
}

}  // namespace psmr::smr
