#include "paxos/coordinator.h"

#include <algorithm>

#include "transport/frame_spool.h"
#include "util/log.h"

namespace psmr::paxos {

using transport::MsgType;
namespace chrono = std::chrono;

namespace {
chrono::microseconds pick_tick(const RingConfig& cfg) {
  // With adaptive batching the effective timeout can shrink down to
  // min_batch_timeout, so the tick must be fine enough to honor it.
  auto base = cfg.adaptive_batching
                  ? std::min(cfg.batch_timeout, cfg.min_batch_timeout)
                  : cfg.batch_timeout;
  auto tick = base / 2;
  if (cfg.skip_interval.count() > 0) {
    tick = std::min(tick, cfg.skip_interval / 2);
  }
  return std::max(tick, chrono::microseconds(50));
}

chrono::microseconds initial_batch_timeout(const RingConfig& cfg) {
  if (!cfg.adaptive_batching) return cfg.batch_timeout;
  return std::clamp(cfg.batch_timeout, cfg.min_batch_timeout,
                    cfg.max_batch_timeout);
}
}  // namespace

Coordinator::Coordinator(transport::Network& net, RingId ring, RingConfig cfg,
                         std::vector<transport::NodeId> acceptors,
                         std::shared_ptr<LearnerRegistry> learners,
                         std::uint32_t proposer_index,
                         std::uint64_t start_round)
    : Endpoint(net, "coord-ring" + std::to_string(ring) + "-p" +
                        std::to_string(proposer_index)),
      ring_(ring),
      cfg_(std::move(cfg)),
      acceptors_(std::move(acceptors)),
      learners_(std::move(learners)),
      proposer_index_(proposer_index),
      tick_(pick_tick(cfg_)),
      round_(start_round),
      ballot_(make_ballot(start_round, proposer_index)),
      batch_timeout_(initial_batch_timeout(cfg_)) {
  stats_.batch_timeout_us = static_cast<std::uint64_t>(batch_timeout_.count());
  skip_due_ = chrono::steady_clock::now() + cfg_.skip_interval;
  begin_prepare();
}

void Coordinator::handle(transport::Message msg) {
  util::Reader r(msg.payload);
  try {
    switch (msg.type) {
      case MsgType::kPaxosSubmit:
        on_submit(std::move(msg.payload));
        break;
      case MsgType::kPaxosSubmitMany:
        on_submit_many(msg.payload);
        break;
      case MsgType::kPaxosPromise:
        on_promise(msg.from, r);
        break;
      case MsgType::kPaxosAccepted:
        on_accepted(msg.from, r);
        break;
      case MsgType::kPaxosNack:
        on_nack(r);
        break;
      default:
        PSMR_WARN("coordinator " << name() << ": unexpected msg type "
                                 << msg.type);
    }
  } catch (const util::DecodeError& e) {
    PSMR_ERROR("coordinator " << name() << ": malformed message: "
                              << e.what());
  }
}

void Coordinator::begin_prepare() {
  phase_ = Phase::kPreparing;
  promises_.clear();
  promised_values_.clear();
  prepare_sent_ = chrono::steady_clock::now();
  util::PayloadWriter w(16);
  w.u64(ballot_);
  w.u64(0);  // learn everything; acceptors prune nothing in this prototype
  util::Payload prepare = w.take();
  for (auto a : acceptors_) {
    send(a, MsgType::kPaxosPrepare, prepare);
  }
  PSMR_DEBUG("ring " << ring_ << ": prepare ballot " << ballot_);
}

void Coordinator::on_submit(util::Payload cmd) {
  {
    std::lock_guard lock(stats_mu_);
    ++stats_.submit_msgs;
    ++stats_.submit_commands;
  }
  enqueue(std::move(cmd));
  pump_proposals();
}

void Coordinator::on_submit_many(const util::Payload& payload) {
  // Zero-copy: each pending command shares the submit frame's block.  A
  // malformed frame is rejected whole: nothing enqueued, nothing counted.
  const std::uint32_t n = transport::decode_frame(
      payload, [&](std::span<const std::uint8_t> cmd) {
        enqueue(payload.subview_of(cmd));
      });
  if (n == 0) {
    PSMR_WARN("coordinator " << name() << ": malformed SUBMIT_MANY");
    return;
  }
  {
    std::lock_guard lock(stats_mu_);
    ++stats_.submit_msgs;
    stats_.submit_commands += n;
  }
  pump_proposals();
}

void Coordinator::enqueue(util::Payload cmd) {
  if (pending_.empty()) batch_started_ = chrono::steady_clock::now();
  // Real traffic is about to decide and advance the merge rotation on its
  // own; push the skip deadline out one full interval.
  skip_due_ = chrono::steady_clock::now() + cfg_.skip_interval;
  pending_bytes_ += cmd.size();
  pending_.push_back(std::move(cmd));
  if (pending_bytes_ >= cfg_.max_batch_bytes) {
    seal_batch(SealReason::kBytes);
  } else if (pending_.size() >= cfg_.max_batch_commands) {
    seal_batch(SealReason::kCount);
  }
}

void Coordinator::seal_batch(SealReason reason) {
  if (pending_.empty()) return;
  const std::size_t batch_bytes = pending_bytes_;
  const std::size_t batch_commands = pending_.size();
  Batch b;
  b.skip = false;
  b.commands = std::move(pending_);
  pending_.clear();
  pending_bytes_ = 0;
  sealed_.push_back(b.encode());
  adapt_timeout(reason, batch_bytes, batch_commands);
  {
    std::lock_guard lock(stats_mu_);
    ++stats_.sealed_batches;
    stats_.sealed_commands += batch_commands;
    stats_.sealed_bytes += batch_bytes;
    switch (reason) {
      case SealReason::kBytes: ++stats_.sealed_on_bytes; break;
      case SealReason::kCount: ++stats_.sealed_on_count; break;
      case SealReason::kTimeout: ++stats_.sealed_on_timeout; break;
    }
    stats_.batch_timeout_us =
        static_cast<std::uint64_t>(batch_timeout_.count());
  }
}

void Coordinator::adapt_timeout(SealReason reason, std::size_t batch_bytes,
                                std::size_t batch_commands) {
  if (!cfg_.adaptive_batching) return;
  auto prev = batch_timeout_;
  if (reason == SealReason::kTimeout) {
    // The batch sealed by waiting, not by filling.  If it was mostly empty,
    // the ring is lightly loaded: wait longer next time so more commands
    // coalesce into one consensus instance.
    if (batch_bytes < cfg_.max_batch_bytes / 2 &&
        batch_commands < cfg_.max_batch_commands / 2) {
      batch_timeout_ = std::min(batch_timeout_ * 2, cfg_.max_batch_timeout);
      if (batch_timeout_ != prev) {
        std::lock_guard lock(stats_mu_);
        ++stats_.timeout_grows;
      }
    }
  } else {
    // The batch filled before the timeout fired: the ring is loaded, so the
    // timeout only adds latency to the next lull — shrink it.
    batch_timeout_ = std::max(batch_timeout_ / 2, cfg_.min_batch_timeout);
    if (batch_timeout_ != prev) {
      std::lock_guard lock(stats_mu_);
      ++stats_.timeout_shrinks;
    }
  }
}

void Coordinator::pump_proposals() {
  if (phase_ != Phase::kSteady) return;
  while (!sealed_.empty() && in_flight_.size() < cfg_.pipeline_window) {
    util::Payload value = std::move(sealed_.front());
    sealed_.pop_front();
    propose(next_instance_++, std::move(value));
  }
}

void Coordinator::propose(Instance inst, util::Payload value) {
  auto [it, inserted] = in_flight_.try_emplace(inst);
  if (!inserted) return;
  it->second.value = std::move(value);
  send_accepts(inst);
}

void Coordinator::send_accepts(Instance inst) {
  auto it = in_flight_.find(inst);
  if (it == in_flight_.end()) return;
  it->second.last_send = chrono::steady_clock::now();
  // One pooled ACCEPT frame, shared across acceptors (refcount bumps, not
  // per-destination copies).
  util::PayloadWriter w(8 + 8 + 4 + it->second.value.size());
  w.u64(ballot_);
  w.u64(inst);
  w.bytes(it->second.value);
  util::Payload accept = w.take();
  for (auto a : acceptors_) {
    if (!it->second.acks.contains(a)) {
      send(a, MsgType::kPaxosAccept, accept);
    }
  }
}

void Coordinator::on_promise(transport::NodeId from, util::Reader& r) {
  Ballot ballot = r.u64();
  if (phase_ != Phase::kPreparing || ballot != ballot_) return;
  prepare_floor_ = std::max(prepare_floor_, r.u64());
  std::uint32_t n = r.u32();
  for (std::uint32_t i = 0; i < n; ++i) {
    Instance inst = r.u64();
    Ballot acc_ballot = r.u64();
    util::Payload value{r.bytes()};  // failover path: copy out of the frame
    auto& pv = promised_values_[inst];
    if (acc_ballot >= pv.ballot) {
      pv.ballot = acc_ballot;
      pv.value = std::move(value);
    }
  }
  promises_.insert(from);
  if (promises_.size() < quorum()) return;

  // Quorum of promises: adopt constrained values, fill gaps with no-ops,
  // then resume normal operation.
  phase_ = Phase::kSteady;
  Instance max_seen = 0;
  bool any = !promised_values_.empty() || !in_flight_.empty();
  for (const auto& [inst, pv] : promised_values_) {
    max_seen = std::max(max_seen, inst);
  }
  for (const auto& [inst, fl] : in_flight_) {
    max_seen = std::max(max_seen, inst);
  }

  // Values carried over from our own previous round (re-proposed under the
  // new ballot) unless a promise already constrains that instance.
  std::map<Instance, InFlight> prior = std::move(in_flight_);
  in_flight_.clear();

  if (any) {
    Batch noop;
    noop.skip = true;
    util::Payload noop_enc = noop.encode();
    // Instances below the truncation floor are already delivered at every
    // learner; re-proposing them would only churn the acceptors.
    for (Instance inst = prepare_floor_; inst <= max_seen; ++inst) {
      auto pv = promised_values_.find(inst);
      if (pv != promised_values_.end()) {
        propose(inst, std::move(pv->second.value));
      } else if (auto pr = prior.find(inst); pr != prior.end()) {
        propose(inst, std::move(pr->second.value));
      } else {
        propose(inst, noop_enc);
      }
    }
    next_instance_ = max_seen + 1;
  }
  // Even if nothing survived at the acceptors (a fully truncated, idle
  // ring), never restart numbering below the floor.
  next_instance_ = std::max(next_instance_, prepare_floor_);
  promised_values_.clear();
  // A coordinator entering steady state (initial election or failover)
  // owes no skips for the time it spent in Phase 1.
  skip_due_ = chrono::steady_clock::now() + cfg_.skip_interval;
  pump_proposals();
  PSMR_DEBUG("ring " << ring_ << ": steady at ballot " << ballot_
                     << ", next instance " << next_instance_);
}

void Coordinator::on_accepted(transport::NodeId from, util::Reader& r) {
  Ballot ballot = r.u64();
  Instance inst = r.u64();
  if (ballot != ballot_) return;
  auto it = in_flight_.find(inst);
  if (it == in_flight_.end()) return;  // already decided
  it->second.acks.insert(from);
  if (it->second.acks.size() >= quorum()) {
    decide(inst);
  }
}

void Coordinator::decide(Instance inst) {
  auto it = in_flight_.find(inst);
  if (it == in_flight_.end()) return;
  // One pooled DECIDE frame; the fan-out to every learner and acceptor
  // shares it by refcount instead of cloning the batch N times.
  util::PayloadWriter w(8 + 4 + it->second.value.size());
  w.u64(inst);
  w.bytes(it->second.value);
  util::Payload payload = w.take();
  for (auto l : learners_->snapshot()) {
    send(l, MsgType::kPaxosDecide, payload);
  }
  // Acceptors also learn, to serve catch-up requests.
  for (auto a : acceptors_) {
    send(a, MsgType::kPaxosDecide, payload);
  }
  if (auto batch = Batch::decode(it->second.value)) {
    // A decided command batch advances the merge rotation by itself, so the
    // next skip is owed one interval from now.  A decided *skip* must NOT
    // touch the schedule: refreshing it here is exactly the old stall — the
    // cadence degraded to one skip per (interval + decide round-trip), and
    // under CPU contention the round-trip stretched until merge-based
    // delivery crawled behind client retransmission timeouts.
    if (!batch->skip) {
      skip_due_ = chrono::steady_clock::now() + cfg_.skip_interval;
    }
    std::lock_guard lock(stats_mu_);
    ++stats_.decided_batches;
    if (batch->skip) {
      ++stats_.decided_skips;
    } else {
      stats_.decided_commands += batch->commands.size();
    }
  }
  in_flight_.erase(it);
  pump_proposals();
}

void Coordinator::on_nack(util::Reader& r) {
  Ballot seen = r.u64();
  if (seen < ballot_) return;
  // A higher ballot exists: adopt a round above it and re-prepare.  Values
  // still in flight are re-proposed after the new Phase 1 completes.
  round_ = seen / 65536 + 1;
  ballot_ = make_ballot(round_, proposer_index_);
  begin_prepare();
}

void Coordinator::on_tick() {
  auto now = chrono::steady_clock::now();
  if (now.time_since_epoch().count() <
      stall_until_ns_.load(std::memory_order_relaxed)) {
    return;  // test hook: simulated tick starvation
  }

  if (phase_ == Phase::kPreparing) {
    if (now - prepare_sent_ > cfg_.rto) begin_prepare();
    return;
  }

  // Seal a lingering partial batch.
  if (!pending_.empty() && now - batch_started_ >= batch_timeout_) {
    seal_batch(SealReason::kTimeout);
    pump_proposals();
  }

  // Retransmit stalled proposals (lost ACCEPT/ACCEPTED under drops).
  for (auto& [inst, fl] : in_flight_) {
    if (now - fl.last_send > cfg_.rto) send_accepts(inst);
  }

  // Idle ring: emit SKIPs so merge-based delivery keeps advancing.  The
  // schedule is absolute — one skip owed per elapsed skip_interval — and
  // emission does not wait for earlier skips to decide, so the cadence is
  // bounded by wall time, not by the Paxos round-trip.  If this tick ran
  // late (starved thread, loaded host) the loop repays every missed
  // interval at once, pipelined up to the Phase 2 window; the merge
  // rotation deficit clears in one round-trip instead of one interval per
  // missed skip.
  if (cfg_.skip_interval.count() > 0 && sealed_.empty() && pending_.empty()) {
    // Cap the repayable backlog at one pipeline window: an idle ring that
    // was stalled for minutes owes the merge at most "enough skips that no
    // consumer is waiting", not one per elapsed interval forever.
    const auto max_backlog =
        cfg_.skip_interval * static_cast<int>(cfg_.pipeline_window);
    if (skip_due_ < now - max_backlog) skip_due_ = now - max_backlog;
    Batch skip;
    skip.skip = true;
    while (now >= skip_due_ && in_flight_.size() < cfg_.pipeline_window) {
      propose(next_instance_++, skip.encode());
      skip_due_ += cfg_.skip_interval;
    }
  }
}

}  // namespace psmr::paxos
