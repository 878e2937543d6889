#include "tracer.h"

#include <sys/prctl.h>

#include <algorithm>
#include <chrono>

#include "loadgen.h"

namespace perfbench {

using psmr::multicast::MergeDeliverer;

StageTracer::StageTracer(psmr::smr::Deployment& d, psmr::smr::ClientId client,
                         psmr::smr::Seq first, std::size_t count)
    : d_(d), client_(client), first_(first), spans_(count) {}

StageTracer::~StageTracer() { stop(0, std::chrono::milliseconds(0)); }

bool StageTracer::start(std::chrono::milliseconds timeout) {
  psmr::multicast::Bus& bus = *d_.bus();
  groups_ = bus.num_groups();
  const bool shared = bus.has_shared_ring();
  // Subscribe at a position no DECIDE has reached yet: try_next never asks
  // the acceptors for a missed instance, so the observer must see every
  // instance from its start live.  A single ring is idle after the settle,
  // so its next instance is exact; rings that decide SKIPs may have a
  // pipeline window of instances in flight, so start past it.  A merge may
  // start at any round boundary (r, r) of its two streams; it starts past
  // both, and waits for the ring that is behind to get there.
  const psmr::paxos::Instance margin = shared ? 128 : 0;
  const auto decided = [&](std::size_t r) {
    return r < groups_
               ? bus.ring_stats(static_cast<psmr::multicast::GroupId>(r))
                     .decided_batches
               : bus.shared_ring_stats().decided_batches;
  };
  const psmr::paxos::Instance shared_at = shared ? decided(groups_) : 0;
  for (std::size_t g = 0; g < groups_; ++g) {
    const psmr::paxos::Instance round =
        std::max(decided(g), shared_at) + margin;
    rings_.push_back(
        bus.group_ring(static_cast<psmr::multicast::GroupId>(g))
            .subscribe(round));
    starts_.push_back(round);
    std::vector<psmr::paxos::Instance> at(shared ? 2 : 1, round);
    merges_.push_back(
        bus.subscribe_at(static_cast<psmr::multicast::GroupId>(g), at));
  }
  if (shared) {
    rings_.push_back(bus.shared_ring().subscribe(shared_at + margin));
    starts_.push_back(shared_at + margin);
  }
  thread_ = std::thread([this] { loop(); });
  // Only SKIP-deciding rings advance without traffic; wait for them to
  // reach the start so the traced phase is observed from its first command.
  if (!shared) return true;
  const std::int64_t until = now_ns() + timeout.count() * 1'000'000;
  while (!caught_up_.load() && now_ns() < until) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return caught_up_.load();
}

void StageTracer::stop(std::size_t n, std::chrono::milliseconds timeout) {
  if (!thread_.joinable()) return;
  const std::int64_t until = now_ns() + timeout.count() * 1'000'000;
  while (merged_.load() < n && now_ns() < until) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stop_.store(true);
  thread_.join();
  for (auto& log : rings_) log->close();
  for (auto& m : merges_) m->close();
}

const StageTracer::Span* StageTracer::find(psmr::smr::Seq seq) const {
  if (seq < first_ || seq - first_ >= spans_.size()) return nullptr;
  return &spans_[seq - first_];
}

StageTracer::Span* StageTracer::span_of(const psmr::util::Payload& message) {
  auto cmd = psmr::smr::Command::decode(message);
  if (!cmd || cmd->client != client_ || cmd->seq < first_ ||
      cmd->seq - first_ >= spans_.size()) {
    return nullptr;
  }
  Span& s = spans_[cmd->seq - first_];
  s.gall = !cmd->groups.singleton();
  return &s;
}

void StageTracer::loop() {
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  const std::int64_t cpu0 = thread_cpu_ns();
  psmr::multicast::Delivery del;
  while (!stop_.load(std::memory_order_relaxed)) {
    bool any = false;
    for (auto& log : rings_) {
      while (auto dec = log->try_next()) {
        any = true;
        if (dec->batch.skip) continue;
        const std::int64_t now = now_ns();
        for (const auto& m : dec->batch.commands) {
          if (Span* s = span_of(m); s != nullptr && s->decided == 0) {
            s->decided = now;
          }
        }
      }
    }
    for (auto& merge : merges_) {
      while (merge->try_next(del) == MergeDeliverer::Poll::kDelivered) {
        any = true;
        Span* s = span_of(del.message);
        if (s == nullptr) continue;
        const std::int64_t now = now_ns();
        // The merge can only reach a decided command; if this poll saw
        // the merge first, the decision is no later than now.
        if (s->decided == 0) s->decided = now;
        s->merged = std::max(s->merged, now);
        if (++s->merges == (s->gall ? groups_ : 1)) {
          merged_.fetch_add(1, std::memory_order_relaxed);
        }
      }
    }
    if (!caught_up_.load(std::memory_order_relaxed)) {
      bool all = true;
      for (std::size_t r = 0; r < rings_.size(); ++r) {
        all = all && rings_[r]->next_instance() > starts_[r];
      }
      for (std::size_t g = 0; g < merges_.size(); ++g) {
        for (std::size_t s = 0; s < merges_[g]->num_streams(); ++s) {
          all = all && merges_[g]->stream_position(s) > starts_[g];
        }
      }
      if (all) caught_up_.store(true);
    }
    if (!any) std::this_thread::sleep_for(std::chrono::microseconds(20));
  }
  cpu_ns_.store(thread_cpu_ns() - cpu0);
}

}  // namespace perfbench
