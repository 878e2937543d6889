// P-SMR replica — the paper's Algorithm 1, server side (lines 7–26).
//
// k workers; worker t_i subscribes to groups {g_i, g_all} through a
// deterministic MergeDeliverer, so delivery itself is parallel (one stream
// per worker, no central dispatcher — the defining property of P-SMR,
// Table I).  A worker is an Endpoint on the network's executor, not a
// thread: its learners wake it on every DECIDE (Mailbox::set_waker), and
// its turn pumps its own merge with try_next() until the stream is dry, it
// parks at a barrier, or kTurnRuns steps are spent (then it wakes itself
// and yields).  A silent stream still gets a turn every
// LearnerLog::kCatchupAfter, so the learners' catch-up runs.
//
// Execution modes per delivered command C with destination set γ:
//   * parallel mode (γ singleton): t_i executes C and replies immediately;
//   * synchronous mode (|γ| > 1): the destination workers synchronize with
//     signals; t_e with e = min(γ) waits for a signal from every other
//     destination worker, executes C, replies, then signals them to resume.
// Workers that deliver C via g_all but are not in γ ignore it (the general
// form of the algorithm allows γ to be any subset; our transport routes all
// multi-group messages through g_all).
//
// Signals are per-(sender, receiver) atomic counters, exactly the "signal
// from t_j" of the paper, so a fast worker's signal for the *next*
// synchronous command cannot be miscounted for the current one.  No worker
// blocks on one — a pool thread must never wait for another worker.  A
// worker that would wait parks instead: it keeps the command and ends its
// turn.  notify(from, to) increments a counter and wakes `to`, whose next
// turn finds its counts present, consumes them, and goes on.
//
// Batched execution: between synchronous-mode barriers, a worker
// accumulates consecutive parallel-mode deliveries into a run of mutually
// independent commands (bounded by run_length; a dry or closed stream
// flushes immediately via MergeDeliverer::try_next, so batching never
// waits) and executes it as one Service::execute_batch call.  Run
// boundaries are timing-dependent but, per the batch contract in
// service.h, replicas that slice the same deterministic stream differently
// still converge.
//
// Checkpointing (when CheckpointOptions::enabled): a reserved marker
// command (kCheckpointMarker), multicast to every group, lands at one
// well-defined position of every worker's merged stream.  On delivering it
// each worker parks at a full-replica barrier (the same signal counters the
// synchronous mode uses); worker 0 then snapshots the quiesced service plus
// every worker's resume state into a digest-stamped SnapshotFrame
// (smr/snapshot.h), stores the encoded frame for peers to fetch
// (kSmrSnapshotReq/Rep), and acks the covered prefix to every ring's
// acceptors so they can truncate (kPaxosCheckpointAck).  Before the
// snapshot it spills its pool thread's local work (Executor::spill), so
// nothing queued behind the long step waits for it.  Because the frame is
// a deterministic function of the streams, replicas cutting the same
// marker produce byte-identical frames.  A restarted replica is constructed
// from a peer's frame: the service state installs, each worker resubscribes
// at its recorded stream positions, and the acceptor catch-up protocol
// replays the suffix through the normal dedup/admit path.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "multicast/amcast.h"
#include "smr/response_batch.h"
#include "smr/service.h"
#include "smr/snapshot.h"

namespace psmr::smr {

class PsmrReplica {
 public:
  /// `mpl` workers; must equal the C-G function's mpl().
  /// `run_length` bounds the execution batches accumulated per worker
  /// (1 restores one-command-at-a-time execution).  `reply_caps` sets the
  /// reply spool's caps (see response_batch.h); the workers share one
  /// spool, so replies from different workers to one proxy share a frame.
  /// `checkpoint` enables the snapshot/truncation/recovery machinery;
  /// `restore` (optional) boots the replica from a decoded snapshot frame
  /// instead of from scratch — throws std::runtime_error if the frame does
  /// not install cleanly (service decode failure or digest mismatch).
  PsmrReplica(transport::Network& net, multicast::Bus& bus,
              std::unique_ptr<Service> service, std::size_t mpl,
              std::string name = "psmr-replica", std::size_t run_length = 16,
              ReplyCaps reply_caps = {},
              CheckpointOptions checkpoint = {},
              const SnapshotFrame* restore = nullptr);
  ~PsmrReplica();

  PsmrReplica(const PsmrReplica&) = delete;
  PsmrReplica& operator=(const PsmrReplica&) = delete;

  void start();
  void stop();

  /// Commands executed so far (all workers).
  [[nodiscard]] std::uint64_t executed() const { return executed_.load(); }

  /// The replica's service instance (state inspection in tests).
  [[nodiscard]] const Service& service() const { return *service_; }

  /// Reply-path wire counters (messages, responses, flush reasons).
  [[nodiscard]] ResponseStats response_stats() const {
    return ResponseStats::of(replies_->stats());
  }

  /// Test hooks: worker w's merged subscription — stream count, and the
  /// number of ring decisions fetched so far from stream s (the shared
  /// g_all ring is the last stream).  Progress assertions on these verify
  /// that every worker's merge keeps advancing — i.e. that idle rings'
  /// lease skips actually reach the merge — without racing the worker.
  [[nodiscard]] std::size_t num_streams(std::size_t w) const {
    return subs_.at(w)->num_streams();
  }
  [[nodiscard]] paxos::Instance stream_position(std::size_t w,
                                                std::size_t s) const {
    return subs_.at(w)->stream_position(s);
  }

  /// Multicasts a checkpoint marker.  All replicas of the deployment cut a
  /// checkpoint when it is delivered (it travels the ordered streams like
  /// any command).  Returns false when checkpointing is disabled or the
  /// submit could not be dispatched.  Safe from any thread.
  bool trigger_checkpoint();

  /// Checkpoints completed by this replica (taken or installed-on-restore).
  [[nodiscard]] std::uint64_t checkpoints_taken() const {
    return ckpts_taken_.load(std::memory_order_relaxed);
  }
  /// The latest encoded snapshot frame, if any (what peers fetch).
  [[nodiscard]] std::optional<util::Buffer> latest_checkpoint() const {
    std::lock_guard lock(ckpt_mu_);
    if (!have_ckpt_) return std::nullopt;
    return latest_ckpt_;
  }
  /// Node serving kSmrSnapshotReq (kNoNode when checkpointing is off).
  [[nodiscard]] transport::NodeId snapshot_node() const;

 private:
  class WorkerSink;
  class SnapshotServer;
  class Worker;

  /// Steps a worker may take in one turn before it yields its pool thread.
  static constexpr std::size_t kTurnRuns = 64;

  /// One turn of worker `w`: steps until its stream is dry, it parks at a
  /// barrier, or kTurnRuns steps are spent.
  void turn(Worker& w);
  /// Handles the held command or the next delivery: one parallel-mode run,
  /// one barrier command, or one ignored delivery.  False when the stream
  /// is dry or closed, or the worker parks at a barrier.
  bool step(Worker& w);
  /// The barrier of a command held by `w` with destinations `groups`
  /// (workers; the executor is groups.min()).  A non-executor signals its
  /// arrival once, then passes when the executor signals back.  The
  /// executor passes once every other destination has arrived, consuming
  /// their signals; it must then execute and call release().  False while
  /// `w` is parked.
  bool pass_barrier(Worker& w, multicast::GroupSet groups);
  /// The executor's signal to every other destination: resume.
  void release(std::size_t executor, multicast::GroupSet groups);
  /// Signals `to` from `from` and wakes `to`.
  void notify(std::size_t from, std::size_t to);
  void execute_run(std::vector<Command>& run, std::size_t worker);
  /// Runs on worker 0 (or the sole worker) with every worker parked at a
  /// checkpoint marker.
  void take_checkpoint();
  /// Builds the resume-state frame from the parked workers' streams.
  [[nodiscard]] SnapshotFrame build_frame(std::uint64_t executed) const;
  /// Installs a decoded frame into a freshly constructed replica.
  void install_frame(const SnapshotFrame& frame);
  /// Acks the frame's covered prefix to every ring's acceptors.
  void send_checkpoint_acks(const SnapshotFrame& frame);
  /// Dedup classification of a parallel-mode delivery: true if the command
  /// is fresh and should execute; replays the cached response (or drops a
  /// stale duplicate) otherwise.
  bool admit(const Command& cmd, std::size_t worker);
  std::atomic<std::uint32_t>& signal(std::size_t from, std::size_t to) {
    return signals_[from * mpl_ + to];
  }

  transport::Network& net_;
  multicast::Bus& bus_;
  const std::size_t mpl_;
  const std::size_t run_length_;
  const std::string name_;
  const CheckpointOptions ckpt_opts_;
  std::unique_ptr<Service> service_;
  std::vector<std::unique_ptr<multicast::MergeDeliverer>> subs_;
  /// Signals sent from worker `from` to `to` and not yet consumed by `to`:
  /// an mpl x mpl matrix.  Only `from` increments a cell, only `to`
  /// decrements it.
  std::vector<std::atomic<std::uint32_t>> signals_;
  std::vector<std::unique_ptr<Worker>> workers_;
  transport::NodeId reply_node_ = transport::kNoNode;
  std::unique_ptr<ReplySpool> replies_;

  // Per-worker duplicate suppression: last executed seq and its response per
  // client.  Deterministic across replicas because each worker's delivery
  // stream is deterministic and batch members only commute when independent.
  struct LastExec {
    Seq seq = 0;
    util::Buffer response;
  };
  std::vector<std::unordered_map<ClientId, LastExec>> dedup_;

  std::atomic<std::uint64_t> executed_{0};
  bool started_ = false;

  // Checkpoint state.  latest_ckpt_/have_ckpt_/last_ckpt_executed_ are
  // written by worker 0 at the barrier and read by the snapshot server and
  // monitoring threads, hence the mutex.
  mutable std::mutex ckpt_mu_;
  util::Buffer latest_ckpt_;
  bool have_ckpt_ = false;
  std::uint64_t last_ckpt_executed_ = 0;
  std::atomic<std::uint64_t> ckpts_taken_{0};
  /// A marker is in flight (trigger issued, barrier not reached yet); keeps
  /// the periodic trigger from flooding markers faster than they deliver.
  std::atomic<bool> ckpt_pending_{false};
  /// Worker 0's command count toward the next periodic trigger.
  std::uint64_t since_ckpt_trigger_ = 0;
  std::unique_ptr<SnapshotServer> snapshot_server_;
};

}  // namespace psmr::smr
