#include "paxos/ring.h"

#include <algorithm>

#include "util/log.h"

namespace psmr::paxos {

Ring::Ring(transport::Network& net, RingId id, RingConfig cfg)
    : net_(net),
      id_(id),
      cfg_(std::move(cfg)),
      learners_(std::make_shared<LearnerRegistry>()),
      peers_(std::make_shared<MergePeers>()) {
  for (std::size_t i = 0; i < cfg_.num_acceptors; ++i) {
    acceptors_.push_back(
        std::make_unique<Acceptor>(net_, id_, cfg_.checkpoint_ackers));
    acceptor_ids_.push_back(acceptors_.back()->id());
  }
  coordinators_.push_back(std::make_unique<Coordinator>(
      net_, id_, cfg_, acceptor_ids_, learners_, peers_, /*proposer_index=*/0,
      /*start_round=*/0));
  current_coordinator_ = coordinators_.back()->id();
}

Ring::~Ring() { stop(); }

void Ring::start() {
  std::lock_guard lock(mu_);
  if (started_) return;
  started_ = true;
  for (auto& a : acceptors_) a->start();
  for (auto& c : coordinators_) c->start();
}

void Ring::stop() {
  std::lock_guard lock(mu_);
  for (auto& c : coordinators_) c->stop();
  for (auto& a : acceptors_) a->stop();
}

void Ring::set_merge_peers(const std::vector<const Ring*>& peers) {
  peers_->coordinators.clear();
  for (const Ring* p : peers) {
    peers_->coordinators.push_back(&p->current_coordinator_);
  }
}

std::unique_ptr<LearnerLog> Ring::subscribe(Instance start) {
  auto log = std::make_unique<LearnerLog>(net_, id_, acceptor_ids_, start);
  learners_->add(log->id());
  return log;
}

std::size_t Ring::max_acceptor_log() const {
  std::size_t out = 0;
  for (const auto& a : acceptors_) out = std::max(out, a->decided_count());
  return out;
}

std::uint64_t Ring::truncated_instances() const {
  std::uint64_t out = 0;
  for (const auto& a : acceptors_) out += a->truncated_instances();
  return out;
}

bool Ring::submit(transport::NodeId from, util::Payload command) {
  return net_.send(from, coordinator(), transport::MsgType::kPaxosSubmit,
                   std::move(command));
}

bool Ring::submit_many(transport::NodeId from, util::Payload frame) {
  return net_.send(from, coordinator(), transport::MsgType::kPaxosSubmitMany,
                   std::move(frame));
}

transport::NodeId Ring::fail_coordinator() {
  std::lock_guard lock(mu_);
  transport::NodeId old = current_coordinator_.load();
  net_.disconnect(old);
  auto replacement = std::make_unique<Coordinator>(
      net_, id_, cfg_, acceptor_ids_, learners_, peers_,
      static_cast<std::uint32_t>(coordinators_.size()), next_round_++);
  if (started_) replacement->start();
  current_coordinator_ = replacement->id();
  PSMR_INFO("ring " << id_ << ": coordinator failover " << old << " -> "
                    << replacement->id());
  coordinators_.push_back(std::move(replacement));
  return current_coordinator_.load();
}

CoordinatorStats Ring::stats() const {
  std::lock_guard lock(mu_);
  return coordinators_.back()->stats();
}

void Ring::stall_coordinator_ticks(std::chrono::microseconds d) {
  std::lock_guard lock(mu_);
  coordinators_.back()->stall_ticks_for(d);
}

void Ring::skew_coordinator_clock(std::chrono::microseconds d) {
  std::lock_guard lock(mu_);
  coordinators_.back()->skew_clock(d);
}

}  // namespace psmr::paxos
