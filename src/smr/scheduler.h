// Scheduler + workers: the execution engine of sP-SMR and no-rep.
//
// In semi-parallel SMR (paper Section III and the Kotla/Dahlin & Eve line of
// work), commands are delivered as a single sequential stream; a scheduler
// inspects dependencies and hands independent commands to workers, while a
// command that requires serialization makes the scheduler "wait for the
// worker threads to finish their ongoing work and then assign the request
// to one worker thread" (Section VI-C).  This central component is exactly
// the bottleneck P-SMR removes; we reproduce it faithfully so the
// comparison is honest.
//
// Dependency decisions reuse the same C-G function P-SMR uses (computed for
// k = #workers): a singleton γ means the command conflicts only with
// commands mapped to the same worker (same key partition → dispatched to
// that worker's FIFO queue preserves their order); a multi-group γ means it
// must be serialized against everything (drain, run, drain).
//
// Nothing here owns a thread or waits.  Each worker is an Endpoint on the
// network's executor, like a P-SMR replica worker: a dispatch to its empty
// queue wakes it, and its turn executes runs from the queue's head.
// schedule() appends to an ordered backlog and pumps it: commands leave
// the backlog in order, the pump stops at a multi-group command while
// anything is in flight and stays stopped while that command runs alone,
// and the run that brings the in-flight count back to zero pumps again.
// That is the paper's drain-assign-drain without a waiting scheduler.  One
// mutex guards the worker queues, the backlog and the in-flight count.
//
// Batched execution: each worker takes a contiguous run of mutually
// independent commands from the head of its FIFO queue (up to run_length;
// a conflicting or same-client-stale command ends the run, and an empty
// queue flushes immediately so latency is never traded for batch size) and
// executes it as one Service::execute_batch call — carrying the delivery
// layer's batch shape down to batch-aware services like the B+-tree's
// pipelined find_batch.  See service.h for why any run split is
// deterministic.
#pragma once

#include <atomic>
#include <deque>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "smr/cg.h"
#include "smr/response_batch.h"
#include "smr/service.h"
#include "transport/network.h"

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

  /// Starts the worker endpoints; commands scheduled before start() run
  /// once it is called.
  void start();
  /// Stops the worker endpoints.  Commands scheduled but not yet executed
  /// are dropped; a run already executing completes first.  Idempotent.
  void stop();

  /// Routes one command and returns without waiting for any execution.
  /// Must be called from a single feeding thread at a time (the delivery
  /// endpoint in sP-SMR, the server endpoint in no-rep).
  void schedule(Command cmd);

  [[nodiscard]] std::uint64_t executed() const { return executed_.load(); }
  [[nodiscard]] const Service& service() const { return *service_; }
  [[nodiscard]] std::size_t num_workers() const { return queues_.size(); }
  /// Current per-client dedup map population (bounded-growth tests).
  [[nodiscard]] std::size_t dedup_size() const { return dedup_.size(); }
  /// Reply-path wire counters (messages, responses, flush reasons).
  [[nodiscard]] ResponseStats response_stats() const {
    return ResponseStats::of(replies_->stats());
  }

 private:
  class Worker;

  /// Runs a worker may execute in one turn before it yields its pool
  /// thread.
  static constexpr std::size_t kTurnRuns = 16;

  /// One turn of worker `w`: executes runs until its queue is empty or
  /// kTurnRuns runs are spent (then it wakes itself and yields).
  void turn(Worker& w);
  /// Moves the longest shareable run from the head of worker `i`'s queue
  /// into `run`.  Caller holds mu_.
  void take_run_locked(std::size_t i, std::vector<Command>& run);
  void execute_run(std::vector<Command>& run);
  /// Dispatches backlog commands in order while the drain rule allows;
  /// returns the workers whose queues went from empty to non-empty, to be
  /// woken once mu_ is released.  Caller holds mu_.
  multicast::GroupSet pump_locked();
  void wake(multicast::GroupSet workers);
  void maybe_evict_dedup();

  transport::Network& net_;
  std::unique_ptr<Service> service_;
  std::shared_ptr<const CGFunction> cg_;
  const std::string name_;
  const SchedulerOptions opts_;
  transport::NodeId reply_node_ = transport::kNoNode;
  std::unique_ptr<ReplySpool> replies_;

  struct Pending {
    multicast::GroupSet groups;
    Command cmd;
  };
  std::mutex mu_;
  std::deque<Pending> backlog_;              // scheduled, not dispatched
  std::vector<std::deque<Command>> queues_;  // one FIFO per worker
  std::int64_t in_flight_ = 0;  // commands dispatched but not finished
  bool serial_ = false;         // a multi-group command is in flight

  struct DedupEntry {
    Seq seq = 0;
    std::uint64_t last_seen = 0;  // schedule tick of the latest command
  };
  std::unordered_map<ClientId, DedupEntry> dedup_;
  std::uint64_t schedule_ticks_ = 0;
  std::atomic<std::uint64_t> executed_{0};
  /// Last member: the workers stop before the state their turns use goes.
  std::vector<std::unique_ptr<Worker>> workers_;
};

}  // namespace psmr::smr
