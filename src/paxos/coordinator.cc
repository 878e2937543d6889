#include "paxos/coordinator.h"

#include <algorithm>

#include "transport/frame_spool.h"
#include "util/log.h"

namespace psmr::paxos {

using transport::MsgType;
namespace chrono = std::chrono;

namespace {
/// A duration in slot units (microseconds).
std::uint64_t slots(chrono::microseconds d) {
  return static_cast<std::uint64_t>(d.count());
}
}  // namespace

Coordinator::Coordinator(transport::Network& net, RingId ring, RingConfig cfg,
                         std::vector<transport::NodeId> acceptors,
                         std::shared_ptr<LearnerRegistry> learners,
                         std::shared_ptr<const MergePeers> peers,
                         std::uint32_t proposer_index,
                         std::uint64_t start_round)
    : Endpoint(net, "coord-ring" + std::to_string(ring) + "-p" +
                        std::to_string(proposer_index)),
      ring_(ring),
      cfg_(std::move(cfg)),
      acceptors_(std::move(acceptors)),
      learners_(std::move(learners)),
      peers_(std::move(peers)),
      proposer_index_(proposer_index),
      round_(start_round),
      ballot_(make_ballot(start_round, proposer_index)),
      jitter_((std::uint64_t{ring} << 32) ^ proposer_index ^ start_round) {
  last_submit_ = Clock::now();
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
      case MsgType::kPaxosCover:
        on_cover(r.u64());
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
  prepare_due_ = Clock::now() + cfg_.rto;
  util::PayloadWriter w(16);
  w.u64(ballot_);
  w.u64(0);  // learn everything; acceptors prune nothing in this prototype
  util::Payload prepare = w.take();
  for (auto a : acceptors_) {
    send(a, MsgType::kPaxosPrepare, prepare);
  }
  PSMR_DEBUG("ring " << ring_ << ": prepare ballot " << ballot_);
}

CoordinatorStats Coordinator::stats() const {
  const Counters& c = counters_;
  CoordinatorStats s;
  s.decided_batches = c.decided_batches.get();
  s.decided_commands = c.decided_commands.get();
  s.decided_skips = c.decided_skips.get();
  s.resends = c.resends.get();
  s.sealed_batches = c.sealed_batches.get();
  s.sealed_commands = c.sealed_commands.get();
  s.sealed_bytes = c.sealed_bytes.get();
  s.sealed_on_bytes = c.sealed_on_bytes.get();
  s.sealed_on_count = c.sealed_on_count.get();
  s.sealed_on_timeout = c.sealed_on_timeout.get();
  s.sealed_at_once = c.sealed_at_once.get();
  s.submit_msgs = c.submit_msgs.get();
  s.submit_commands = c.submit_commands.get();
  return s;
}

void Coordinator::on_submit(util::Payload cmd) {
  counters_.submit_msgs.add();
  counters_.submit_commands.add();
  enqueue(std::move(cmd));
  after_submit();
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
  counters_.submit_msgs.add();
  counters_.submit_commands.add(n);
  after_submit();
}

void Coordinator::after_submit() {
  const auto now = Clock::now();
  const Clock::duration cap = 4 * cfg_.batch_timeout;
  submit_gap_ += (std::min(now - last_submit_, cap) - submit_gap_) / 8;
  last_submit_ = now;
  // Waiting batch_timeout is not expected to add another submit, so it
  // would only delay this one.
  if (submit_gap_ > cfg_.batch_timeout) {
    seal_batch(SealReason::kAtOnce);
  }
  pump_proposals();
}

void Coordinator::enqueue(util::Payload cmd) {
  if (pending_.empty()) batch_started_ = Clock::now();
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
  b.commands = std::move(pending_);
  pending_.clear();
  pending_bytes_ = 0;
  nudge_peers(queue_batch(b, now_slot()));
  counters_.sealed_batches.add();
  counters_.sealed_commands.add(batch_commands);
  counters_.sealed_bytes.add(batch_bytes);
  switch (reason) {
    case SealReason::kBytes: counters_.sealed_on_bytes.add(); break;
    case SealReason::kCount: counters_.sealed_on_count.add(); break;
    case SealReason::kTimeout: counters_.sealed_on_timeout.add(); break;
    case SealReason::kAtOnce: counters_.sealed_at_once.add(); break;
  }
}

std::uint64_t Coordinator::queue_batch(Batch& b, std::uint64_t slot) {
  b.slot = std::max(slot, last_slot_ + 1);
  last_slot_ = b.slot;
  sealed_.push_back(b.encode());
  return b.slot;
}

void Coordinator::queue_skip(std::uint64_t target) {
  Batch skip;
  skip.skip = true;
  queue_batch(skip, std::max(now_slot() + slots(cfg_.skip_interval), target));
  pump_proposals();
}

void Coordinator::nudge_peers(std::uint64_t slot) {
  const auto& peers = peers_->coordinators;
  if (peers.empty() || cfg_.skip_interval.count() == 0) return;
  cover_sent_.resize(peers.size(), 0);
  // The target runs half a lease past the slot, so later slots up to the
  // target need no nudge of their own: at most one nudge per peer per
  // half-lease.
  const std::uint64_t target = slot + slots(cfg_.skip_interval) / 2;
  util::Payload cover;
  for (std::size_t p = 0; p < peers.size(); ++p) {
    if (slot <= cover_sent_[p]) continue;
    if (cover.size() == 0) {
      util::PayloadWriter w(8);
      w.u64(target);
      cover = w.take();
    }
    cover_sent_[p] = target;
    send(peers[p]->load(std::memory_order_relaxed), MsgType::kPaxosCover,
         cover);
  }
}

void Coordinator::on_cover(std::uint64_t target) {
  if (phase_ != Phase::kSteady || cfg_.skip_interval.count() == 0) return;
  if (last_slot_ < target) queue_skip(target);
}

std::uint64_t Coordinator::now_slot() const {
  const auto us = chrono::duration_cast<chrono::microseconds>(
                      Clock::now().time_since_epoch())
                      .count();
  return static_cast<std::uint64_t>(
      us + clock_skew_us_.load(std::memory_order_relaxed));
}

Coordinator::Clock::time_point Coordinator::slot_time(
    std::uint64_t slot) const {
  return Clock::time_point(chrono::microseconds(
      static_cast<std::int64_t>(slot) -
      clock_skew_us_.load(std::memory_order_relaxed)));
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
  it->second.backoff = cfg_.rto;
  send_accepts(inst);
}

void Coordinator::send_accepts(Instance inst) {
  auto it = in_flight_.find(inst);
  if (it == in_flight_.end()) return;
  it->second.resend_at = Clock::now() + it->second.backoff;
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
  if (learner_ids_.size() != learners_->size()) {
    learner_ids_ = learners_->snapshot();
  }
  for (auto l : learner_ids_) {
    send(l, MsgType::kPaxosDecide, payload);
  }
  // Acceptors also learn, to serve catch-up requests.
  for (auto a : acceptors_) {
    send(a, MsgType::kPaxosDecide, payload);
  }
  if (auto header = Batch::peek(it->second.value.view())) {
    counters_.decided_batches.add();
    if (header->skip) {
      counters_.decided_skips.add();
    } else {
      counters_.decided_commands.add(header->count);
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
  // The PREPARE waits a random delay in [0, rto): two coordinators that
  // NACK each other re-prepare at different times, so one of them completes
  // Phase 1 instead of both dueling forever.
  round_ = seen / 65536 + 1;
  ballot_ = make_ballot(round_, proposer_index_);
  phase_ = Phase::kPreparing;
  const auto rto = static_cast<std::uint64_t>(cfg_.rto.count());
  prepare_due_ = Clock::now() + chrono::microseconds(
                                    jitter_.next_below(std::max<std::uint64_t>(
                                        rto, 1)));
}

std::optional<Coordinator::Clock::time_point> Coordinator::next_deadline() {
  const Clock::time_point stall{
      Clock::duration(stall_until_ns_.load(std::memory_order_relaxed))};
  if (stall > Clock::now()) return stall;
  if (phase_ == Phase::kPreparing) return prepare_due_;
  std::optional<Clock::time_point> due;
  const auto consider = [&](Clock::time_point t) {
    if (!due || t < *due) due = t;
  };
  if (!pending_.empty()) consider(batch_started_ + cfg_.batch_timeout);
  for (const auto& [inst, fl] : in_flight_) consider(fl.resend_at);
  if (cfg_.skip_interval.count() > 0 && idle()) {
    consider(slot_time(last_slot_ + slots(cfg_.rto)));
  }
  return due;
}

void Coordinator::on_deadline() {
  const auto now = Clock::now();
  if (stalled(now)) return;  // test hook: simulated timer starvation

  if (phase_ == Phase::kPreparing) {
    if (now >= prepare_due_) begin_prepare();
    return;
  }

  // Seal a lingering partial batch.
  if (!pending_.empty() && now - batch_started_ >= cfg_.batch_timeout) {
    seal_batch(SealReason::kTimeout);
    pump_proposals();
  }

  // Retransmit stalled proposals (lost ACCEPT/ACCEPTED under drops), each
  // on its own doubling backoff so a slow ring is not flooded with resends.
  for (auto& [inst, fl] : in_flight_) {
    if (now >= fl.resend_at) {
      fl.backoff = std::min(fl.backoff * 2, cfg_.rto * 8);
      send_accepts(inst);
      counters_.resends.add();
    }
  }

  // Fallback for lost nudges: an idle ring renews its lease once an rto
  // after its last slot.
  if (cfg_.skip_interval.count() > 0 && idle() &&
      now_slot() >= last_slot_ + slots(cfg_.rto)) {
    queue_skip(0);
  }
}

}  // namespace psmr::paxos
