// Scheduler + worker pool: the execution engine of sP-SMR and no-rep.
//
// In semi-parallel SMR (paper Section III and the Kotla/Dahlin & Eve line of
// work), commands are delivered as a single sequential stream; a scheduler
// thread inspects dependencies and hands independent commands to worker
// threads, while a command that requires serialization makes the scheduler
// "wait for the worker threads to finish their ongoing work and then assign
// the request to one worker thread" (Section VI-C).  This central component
// is exactly the bottleneck P-SMR removes; we reproduce it faithfully so
// the comparison is honest.
//
// Dependency decisions reuse the same C-G function P-SMR uses (computed for
// k = #workers): a singleton γ means the command conflicts only with
// commands mapped to the same worker (same key partition → dispatched to
// that worker's FIFO queue preserves their order); a multi-group γ means it
// must be serialized against everything (drain, run, drain).
//
// Batched execution: each worker accumulates a contiguous run of mutually
// independent commands from its FIFO queue (up to run_length; a conflicting
// or same-client-stale command ends the run, and an empty queue flushes
// immediately so latency is never traded for batch size) and executes it as
// one Service::execute_batch call — carrying the delivery layer's batch
// shape down to batch-aware services like the B+-tree's pipelined
// find_batch.  See service.h for why any run split is deterministic.
#pragma once

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "smr/cg.h"
#include "smr/response_batch.h"
#include "smr/service.h"
#include "transport/network.h"
#include "util/queue.h"

namespace psmr::smr {

struct SchedulerOptions {
  /// Maximum commands per execution batch; 1 restores strictly
  /// one-command-at-a-time execution.
  std::size_t run_length = 16;
  /// The per-client dedup map evicts entries for clients that stayed idle
  /// for more than this many scheduled commands (0 disables eviction).  An
  /// evicted client loses stale-retransmission suppression, which is safe
  /// in practice: proxies retransmit within their response timeout, orders
  /// of magnitude sooner than any realistic window.
  std::uint64_t dedup_idle_window = 1 << 16;
  /// Reply spool caps (see response_batch.h); the spool is shared by all
  /// workers, so replies from different workers to one proxy share a frame.
  ReplyCaps replies;
};

class SchedulerCore {
 public:
  SchedulerCore(transport::Network& net, std::unique_ptr<Service> service,
                std::shared_ptr<const CGFunction> cg, std::size_t num_workers,
                std::string name, SchedulerOptions options = {});
  ~SchedulerCore();

  SchedulerCore(const SchedulerCore&) = delete;
  SchedulerCore& operator=(const SchedulerCore&) = delete;

  void start();
  void stop();

  /// Routes one command.  Must be called from a single scheduling thread
  /// (the delivery thread in sP-SMR, the server endpoint in no-rep).
  void schedule(Command cmd);

  [[nodiscard]] std::uint64_t executed() const { return executed_.load(); }
  [[nodiscard]] const Service& service() const { return *service_; }
  [[nodiscard]] std::size_t num_workers() const { return workers_.size(); }
  /// Current per-client dedup map population (bounded-growth tests).
  [[nodiscard]] std::size_t dedup_size() const { return dedup_.size(); }
  /// Reply-path wire counters (messages, responses, flush reasons).
  [[nodiscard]] ResponseStats response_stats() const {
    return ResponseStats::of(replies_->stats());
  }

 private:
  void worker_loop(std::size_t i);
  void dispatch(std::size_t worker, Command cmd);
  void execute_run(std::vector<Command>& run);
  /// Blocks the scheduler until every worker queue is empty and idle.
  void drain();
  void maybe_evict_dedup();

  transport::Network& net_;
  std::unique_ptr<Service> service_;
  std::shared_ptr<const CGFunction> cg_;
  const std::string name_;
  const SchedulerOptions opts_;

  struct WorkerSlot {
    util::BlockingQueue<Command> queue;
  };
  std::vector<std::unique_ptr<WorkerSlot>> slots_;
  std::vector<std::thread> workers_;
  transport::NodeId reply_node_ = transport::kNoNode;
  std::unique_ptr<ReplySpool> replies_;

  std::mutex idle_mu_;
  std::condition_variable idle_cv_;
  std::int64_t in_flight_ = 0;  // commands dispatched but not finished

  struct DedupEntry {
    Seq seq = 0;
    std::uint64_t last_seen = 0;  // schedule tick of the latest command
  };
  std::unordered_map<ClientId, DedupEntry> dedup_;
  std::uint64_t schedule_ticks_ = 0;
  std::atomic<std::uint64_t> executed_{0};
  bool started_ = false;
};

}  // namespace psmr::smr
