#include "paxos/learner.h"

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
  assert(!has_waker_ && "a log with a waker is read with try_next()");
  while (true) {
    if (closed_.load(std::memory_order_relaxed)) return std::nullopt;
    if (auto d = take_ready()) return d;
    auto msg = mailbox_->pop_for(kCatchupAfter);
    if (msg) {
      ingest(std::move(*msg));
      // Traffic alone is not progress: a merged-delivery ring keeps
      // deciding lease skips while its peers run, so a learner stuck
      // behind a gap (dropped DECIDE, or a recovery subscription below the
      // live stream) would wait on the silent-mailbox branch forever.
      // Trigger catch-up on stalled *delivery*, paced like next_for().
      if (chrono::steady_clock::now() - last_progress_ > kCatchupAfter) {
        request_catchup();
        last_progress_ = chrono::steady_clock::now();  // pace the requests
      }
      continue;
    }
    if (mailbox_->closed() && mailbox_->empty()) return std::nullopt;
    // No traffic for a while: we may be stuck behind a gap (dropped DECIDE)
    // or have subscribed after instances were decided.  Ask an acceptor;
    // the reply is empty if nothing is missing.
    request_catchup();
  }
}

std::optional<Decision> LearnerLog::next_for(chrono::microseconds timeout) {
  assert(!has_waker_ && "a log with a waker is read with try_next()");
  auto deadline = chrono::steady_clock::now() + timeout;
  while (true) {
    if (closed_.load(std::memory_order_relaxed)) return std::nullopt;
    if (auto d = take_ready()) return d;
    auto now = chrono::steady_clock::now();
    if (now >= deadline) return std::nullopt;
    auto wait = std::min(chrono::duration_cast<chrono::microseconds>(
                             deadline - now),
                         kCatchupAfter);
    auto msg = mailbox_->pop_for(wait);
    if (msg) {
      ingest(std::move(*msg));
      // Same stalled-delivery trigger as next(): live skip traffic keeps
      // the mailbox busy, so a learner stuck behind a gap would otherwise
      // never reach the silent-mailbox catch-up branch below.
      if (chrono::steady_clock::now() - last_progress_ > kCatchupAfter) {
        request_catchup();
        last_progress_ = chrono::steady_clock::now();  // pace the requests
      }
    } else if (mailbox_->closed() && mailbox_->empty()) {
      return std::nullopt;
    } else if (chrono::steady_clock::now() - last_progress_ >
               kCatchupAfter) {
      request_catchup();
      last_progress_ = chrono::steady_clock::now();  // pace the requests
    }
  }
}

std::optional<Decision> LearnerLog::try_next() {
  if (closed_.load(std::memory_order_relaxed)) return std::nullopt;
  while (auto msg = mailbox_->try_pop()) ingest(std::move(*msg));
  if (auto d = take_ready()) return d;
  // A consumer that only polls never reaches next()'s silent-mailbox
  // branch, so apply the same paced stalled-delivery trigger here.
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
