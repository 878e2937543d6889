#include "paxos/learner.h"

#include <algorithm>
#include <cassert>

#include "util/log.h"

namespace psmr::paxos {

using transport::MsgType;
namespace chrono = std::chrono;

LearnerLog::LearnerLog(transport::Network& net, RingId ring,
                       std::vector<transport::NodeId> acceptors,
                       Instance start)
    : net_(net),
      ring_(ring),
      acceptors_(std::move(acceptors)),
      next_{start},
      rng_(0xa11ce + ring) {
  auto [id, box] = net.register_node();
  id_ = id;
  mailbox_ = std::move(box);
  last_progress_ = chrono::steady_clock::now();
}

std::optional<Decision> LearnerLog::next() {
  return next_until(chrono::steady_clock::time_point::max());
}

std::optional<Decision> LearnerLog::next_for(chrono::microseconds timeout) {
  return next_until(chrono::steady_clock::now() + timeout);
}

std::optional<Decision> LearnerLog::next_until(
    chrono::steady_clock::time_point deadline) {
  assert(!has_waker_ && "a log with a waker is read with try_next()");
  while (true) {
    if (auto d = try_next()) return d;
    if (closed_.load(std::memory_order_relaxed)) return std::nullopt;
    auto now = chrono::steady_clock::now();
    if (now >= deadline) return std::nullopt;
    // Wake at least every kCatchupAfter, so try_next()'s stalled-delivery
    // trigger runs while the mailbox is silent.
    auto wait = std::min(
        chrono::duration_cast<chrono::microseconds>(deadline - now),
        chrono::microseconds(kCatchupAfter));
    if (auto msg = mailbox_->pop_for(wait)) {
      ingest(std::move(*msg));
    } else if (mailbox_->closed() && mailbox_->empty()) {
      return std::nullopt;
    }
  }
}

std::optional<Decision> LearnerLog::try_next() {
  if (closed_.load(std::memory_order_relaxed)) return std::nullopt;
  while (auto msg = mailbox_->try_pop()) ingest(std::move(*msg));
  if (auto d = take_ready()) return d;
  // Stalled delivery, not silence, triggers catch-up: a merged-delivery
  // ring keeps deciding lease skips while its peers run, so a learner stuck
  // behind a gap (dropped DECIDE, or a recovery subscription below the live
  // stream) may see steady traffic and still never progress.  An acceptor
  // replies with nothing if nothing is missing.
  auto now = chrono::steady_clock::now();
  if (now - last_progress_ > kCatchupAfter) {
    request_catchup();
    last_progress_ = now;  // pace the requests
  }
  return std::nullopt;
}

std::optional<Decision> LearnerLog::take_ready() {
  Instance next = next_.load(std::memory_order_relaxed);
  auto it = buffer_.find(next);
  if (it == buffer_.end()) return std::nullopt;
  Decision d;
  d.instance = next;
  d.batch = std::move(it->second);
  buffer_.erase(it);
  next_.store(next + 1, std::memory_order_relaxed);
  last_progress_ = chrono::steady_clock::now();
  return d;
}

void LearnerLog::ingest(transport::Message&& msg) {
  try {
    util::Reader r(msg.payload);
    Instance next = next_.load(std::memory_order_relaxed);
    if (msg.type == MsgType::kPaxosDecide) {
      Instance inst = r.u64();
      // Zero-copy: the decoded batch's commands share the DECIDE frame's
      // pool block all the way into the replica workers.
      auto value = msg.payload.subview_of(r.bytes_view());
      if (inst < next || buffer_.contains(inst)) return;  // duplicate
      auto batch = Batch::decode(value);
      if (!batch) {
        PSMR_ERROR("learner ring " << ring_ << ": corrupt batch at instance "
                                   << inst << ", awaiting catch-up");
        return;
      }
      buffer_.emplace(inst, std::move(*batch));
    } else if (msg.type == MsgType::kPaxosCatchupRep) {
      std::uint32_t n = r.u32();
      for (std::uint32_t i = 0; i < n; ++i) {
        Instance inst = r.u64();
        auto value = msg.payload.subview_of(r.bytes_view());
        if (inst < next || buffer_.contains(inst)) continue;
        if (auto batch = Batch::decode(value)) {
          buffer_.emplace(inst, std::move(*batch));
        }
      }
    } else {
      PSMR_WARN("learner ring " << ring_ << ": unexpected msg type "
                                << msg.type);
    }
  } catch (const util::DecodeError& e) {
    PSMR_ERROR("learner ring " << ring_ << ": malformed message: "
                               << e.what());
  }
}

void LearnerLog::request_catchup() {
  if (acceptors_.empty()) return;
  Instance next = next_.load(std::memory_order_relaxed);
  Instance hi = buffer_.empty() ? next + 64 : buffer_.rbegin()->first;
  util::Writer w;
  w.u64(next);
  w.u64(hi);
  auto target = acceptors_[rng_.next_below(acceptors_.size())];
  net_.send(id_, target, MsgType::kPaxosCatchupReq, w.take());
  PSMR_DEBUG("learner ring " << ring_ << ": catch-up [" << next << ", " << hi
                             << "] from node " << target);
}

}  // namespace psmr::paxos
