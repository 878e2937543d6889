#include "multicast/amcast.h"

#include <algorithm>
#include <chrono>

namespace psmr::multicast {

Bus::Bus(transport::Network& net, BusConfig cfg)
    : net_(net),
      cfg_(std::move(cfg)),
      spool_(cfg_.submit_caps.max_commands, cfg_.submit_caps.max_bytes,
             SubmitCoalescer::kNoAgeBound,
             [this](transport::NodeId from, std::size_t ring,
                    util::Payload message, bool many) {
               paxos::Ring& r = ring_at(ring);
               return many ? r.submit_many(from, std::move(message))
                           : r.submit(from, std::move(message));
             }) {
  const bool merging = cfg_.num_groups > 1;
  paxos::RingConfig ring_cfg = cfg_.ring;
  if (merging && ring_cfg.skip_interval.count() == 0) {
    // Merge needs idle rings to lease past their peers' slots.
    ring_cfg.skip_interval = std::chrono::microseconds(500);
  }
  if (!merging) {
    // Single stream: skips are pure overhead.
    ring_cfg.skip_interval = std::chrono::microseconds(0);
  }
  cfg_.ring = ring_cfg;
  for (std::size_t g = 0; g < cfg_.num_groups; ++g) {
    rings_.push_back(std::make_unique<paxos::Ring>(
        net_, static_cast<paxos::RingId>(g), ring_cfg));
  }
  if (merging) {
    shared_ring_ = std::make_unique<paxos::Ring>(
        net_, static_cast<paxos::RingId>(cfg_.num_groups), ring_cfg);
    // Worker g's merge reads ring g and the shared ring, so each worker
    // ring nudges the shared ring and the shared ring nudges every worker
    // ring.
    std::vector<const paxos::Ring*> workers;
    for (auto& r : rings_) {
      r->set_merge_peers({shared_ring_.get()});
      workers.push_back(r.get());
    }
    shared_ring_->set_merge_peers(workers);
  }
}

void Bus::start() {
  for (auto& r : rings_) r->start();
  if (shared_ring_) shared_ring_->start();
}

void Bus::stop() {
  for (auto& r : rings_) r->stop();
  if (shared_ring_) shared_ring_->stop();
}

std::unique_ptr<MergeDeliverer> Bus::subscribe(GroupId group) {
  std::vector<std::unique_ptr<paxos::LearnerLog>> logs;
  logs.push_back(rings_.at(group)->subscribe());
  if (shared_ring_) logs.push_back(shared_ring_->subscribe());
  return std::make_unique<MergeDeliverer>(std::move(logs));
}

std::unique_ptr<MergeDeliverer> Bus::subscribe_at(
    GroupId group, std::span<const paxos::Instance> starts) {
  const std::size_t expected = shared_ring_ ? 2 : 1;
  if (starts.size() != expected) return nullptr;
  std::vector<std::unique_ptr<paxos::LearnerLog>> logs;
  logs.push_back(rings_.at(group)->subscribe(starts[0]));
  if (shared_ring_) logs.push_back(shared_ring_->subscribe(starts[1]));
  return std::make_unique<MergeDeliverer>(std::move(logs));
}

std::size_t Bus::max_acceptor_log() const {
  std::size_t out = 0;
  for (const auto& r : rings_) out = std::max(out, r->max_acceptor_log());
  if (shared_ring_) out = std::max(out, shared_ring_->max_acceptor_log());
  return out;
}

std::uint64_t Bus::truncated_instances() const {
  std::uint64_t out = 0;
  for (const auto& r : rings_) out += r->truncated_instances();
  if (shared_ring_) out += shared_ring_->truncated_instances();
  return out;
}

std::uint64_t Bus::decided_commands() const {
  return total_stats().decided_commands;
}

std::uint64_t Bus::decided_skips() const {
  return total_stats().decided_skips;
}

paxos::CoordinatorStats Bus::ring_stats(GroupId g) const {
  return rings_.at(g)->stats();
}

paxos::CoordinatorStats Bus::shared_ring_stats() const {
  return shared_ring_ ? shared_ring_->stats() : paxos::CoordinatorStats{};
}

paxos::CoordinatorStats Bus::total_stats() const {
  paxos::CoordinatorStats total;
  for (const auto& r : rings_) total += r->stats();
  if (shared_ring_) total += shared_ring_->stats();
  return total;
}

SubmitCoalescer::Stats Bus::coalesce_stats() const { return spool_.stats(); }

}  // namespace psmr::multicast
