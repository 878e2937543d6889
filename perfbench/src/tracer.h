// Outside-in stage tracer: a passive observer of a live deployment.
//
// One thread subscribes its own learners through the public Ring/Bus API —
// one LearnerLog per ring and one MergeDeliverer per worker group — and
// polls them with try_next.  Each decoded command of the traced client gets
// two timestamps: when its ring decided it, and when the deterministic
// merge reached it (for a command routed through the shared g_all ring, the
// latest of its groups' merged streams).  With the generator's due and
// completion times this splits a command's lifetime into
//   order      = due -> decided on its ring
//   merge      = decided -> merged slot
//   exec_reply = merged slot -> completion at the client.
// The observer's learners receive every DECIDE like a replica's do, which
// is the tracing overhead the benchmark reports.  Spans live in memory and
// are read after stop().
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "multicast/merge.h"
#include "paxos/learner.h"
#include "smr/command.h"
#include "smr/runtime.h"

namespace perfbench {

class StageTracer {
 public:
  struct Span {
    std::int64_t decided = 0;  // 0: not seen
    std::int64_t merged = 0;
    std::uint32_t merges = 0;
    bool gall = false;  // routed through the shared ring
  };

  /// Traces commands of `client` with seqs in [first, first + count).
  StageTracer(psmr::smr::Deployment& d, psmr::smr::ClientId client,
              psmr::smr::Seq first, std::size_t count);
  ~StageTracer();

  StageTracer(const StageTracer&) = delete;
  StageTracer& operator=(const StageTracer&) = delete;

  /// Subscribes just past the rings' current positions and starts
  /// polling; returns whether every subscription delivered its first
  /// instance before `timeout` passed.
  bool start(std::chrono::milliseconds timeout);
  /// Waits until `n` traced commands are fully merged or `timeout` passes,
  /// then stops and joins the thread.
  void stop(std::size_t n, std::chrono::milliseconds timeout);

  /// The span of `seq` (nullptr outside the traced range or not seen).
  [[nodiscard]] const Span* find(psmr::smr::Seq seq) const;
  /// CPU time of the observer thread.
  [[nodiscard]] std::int64_t cpu_ns() const { return cpu_ns_.load(); }

 private:
  void loop();
  Span* span_of(const psmr::util::Payload& message);

  psmr::smr::Deployment& d_;
  const psmr::smr::ClientId client_;
  const psmr::smr::Seq first_;
  std::vector<Span> spans_;
  std::size_t groups_ = 1;

  std::vector<std::unique_ptr<psmr::paxos::LearnerLog>> rings_;
  std::vector<std::unique_ptr<psmr::multicast::MergeDeliverer>> merges_;
  /// First instance of each ring log (group rings, then the shared ring);
  /// group g's merge starts at round starts_[g] of both its streams.
  std::vector<psmr::paxos::Instance> starts_;

  std::atomic<bool> stop_{false};
  std::atomic<std::size_t> merged_{0};  // traced commands fully merged
  std::atomic<bool> caught_up_{false};
  std::atomic<std::int64_t> cpu_ns_{0};
  std::thread thread_;
};

}  // namespace perfbench
