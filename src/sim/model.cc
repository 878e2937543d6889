#include "sim/model.h"

#include <algorithm>
#include <deque>
#include <unordered_map>
#include <vector>

#include "sim/engine.h"
#include "util/hash.h"
#include "util/rng.h"

namespace psmr::sim {
namespace {

struct Job {
  bool dep = false;
  double service = 0;       // worker service time (parallel part)
  std::uint32_t client = 0;
  double submitted = 0;
  std::uint64_t barrier = 0;  // P-SMR synchronous-mode id
};

class Simulation {
 public:
  explicit Simulation(const SimConfig& cfg)
      : cfg_(cfg),
        rng_(cfg.seed * 0x9e3779b97f4a7c15ULL + 1),
        zipf_(cfg.keys, cfg.zipf_s),
        workers_(static_cast<std::size_t>(effective_workers())),
        ring_clock_(static_cast<std::size_t>(cfg.workers) + 1, 0.0) {}

  SimResult run() {
    for (int c = 0; c < cfg_.clients; ++c) {
      for (int w = 0; w < cfg_.window; ++w) {
        submit(static_cast<std::uint32_t>(c));
      }
    }
    eng_.run_until(cfg_.duration_us);

    SimResult res;
    res.completed = completed_;
    double measured_s = (cfg_.duration_us - cfg_.warmup_us) / 1e6;
    res.kcps = static_cast<double>(completed_) / measured_s / 1e3;
    res.latency = latency_;
    res.avg_latency_us = latency_.mean();
    double busy = mcast_cpu_ + sched_busy_;
    std::uint64_t total_done = 0, max_done = 0;
    for (const auto& w : workers_) {
      busy += w.busy_us;
      total_done += w.done;
      max_done = std::max(max_done, w.done);
    }
    res.cpu_pct = 100.0 * busy / cfg_.duration_us;
    res.max_worker_share =
        total_done ? static_cast<double>(max_done) / total_done : 0.0;
    return res;
  }

 private:
  struct Worker {
    std::deque<Job> q;
    bool busy = false;
    bool stalled = false;  // parked at a synchronous-mode command
    double busy_us = 0;
    std::uint64_t done = 0;
    double last_arrival = 0;  // keeps per-stream delivery monotonic
  };

  struct Barrier {
    int arrived = 0;
  };

  enum class SchedState { kIdle, kBusy, kDrain, kWaitDep };

  [[nodiscard]] int effective_workers() const {
    return cfg_.tech == Tech::kSmr ? 1 : cfg_.workers;
  }
  [[nodiscard]] int k() const {
    return static_cast<int>(workers_.size());
  }
  [[nodiscard]] bool replicated() const {
    return cfg_.tech == Tech::kSmr || cfg_.tech == Tech::kSpsmr ||
           cfg_.tech == Tech::kPsmr;
  }

  // --- cost model ---

  double exec_cost(bool heavy_response) {
    if (cfg_.netfs) {
      return heavy_response
                 ? cfg_.fs.fs_op_read + cfg_.fs.decompress_small +
                       cfg_.fs.compress_1k
                 : cfg_.fs.fs_op_write + cfg_.fs.decompress_1k +
                       cfg_.fs.compress_small;
    }
    return cfg_.zipf ? cfg_.kv.exec_cached : cfg_.kv.exec;
  }

  double merge_cost() const {
    if (cfg_.netfs) return cfg_.fs.psmr_overhead;
    if (k() == 1 && cfg_.frac_dependent == 0.0) return cfg_.kv.merge_idle;
    return cfg_.kv.merge_base + cfg_.kv.merge_per_worker * k();
  }

  double sched_cost() const {
    if (cfg_.netfs) return cfg_.fs.spsmr_sched + cfg_.kv.deliver_single;
    double base = cfg_.kv.sched + cfg_.kv.sched_per_worker * (k() - 1);
    return cfg_.tech == Tech::kNoRep ? base + cfg_.kv.norep_recv
                                     : base + cfg_.kv.deliver_single;
  }

  // --- submission path ---

  void submit(std::uint32_t client) {
    bool dep = cfg_.frac_dependent > 0 && rng_.chance(cfg_.frac_dependent);
    bool heavy = cfg_.netfs ? cfg_.netfs_reads : false;
    int group = 0;
    if (cfg_.zipf) {
      std::uint64_t rank = zipf_.sample(rng_);
      if (rank < cfg_.hot_aware) {
        // Load-aware C-G: known-hot objects pinned round-robin (§IV-D).
        group = static_cast<int>(rank % static_cast<std::uint64_t>(k()));
      } else {
        group = static_cast<int>(util::mix64(rank) %
                                 static_cast<std::uint64_t>(k()));
      }
    } else {
      group = static_cast<int>(rng_.next_below(
          static_cast<std::uint64_t>(k())));
    }

    Job job;
    job.dep = dep;
    job.client = client;
    job.submitted = eng_.now();

    switch (cfg_.tech) {
      case Tech::kSmr: {
        job.service = cfg_.kv.deliver_single + exec_cost(heavy);
        double t = decided(0);
        deliver(0, t, job);
        break;
      }
      case Tech::kPsmr: {
        if (!dep) {
          job.service = cfg_.kv.deliver_single + merge_cost() +
                        exec_cost(heavy);
          double t = decided(static_cast<std::size_t>(group));
          deliver(static_cast<std::size_t>(group), t + merge_align(), job);
        } else {
          // Synchronous mode: delivered by every worker via g_all; executed
          // once by the minimum-indexed destination (Algorithm 1).
          job.service = cfg_.kv.deliver_single + merge_cost() +
                        exec_cost(heavy) +
                        cfg_.kv.barrier_per_worker * (k() - 1);
          job.barrier = next_barrier_++;
          barriers_.emplace(job.barrier, Barrier{});
          double t = decided(ring_clock_.size() - 1) + merge_align();
          for (std::size_t w = 0; w < workers_.size(); ++w) {
            deliver(w, t, job);
          }
        }
        break;
      }
      case Tech::kSpsmr: {
        job.service = dep ? exec_cost(heavy) + 2 * cfg_.kv.wake
                          : cfg_.kv.handoff + exec_cost(heavy);
        double t = decided(0);
        std::size_t target = static_cast<std::size_t>(group);
        eng_.at(t, [this, job, target] { sched_enqueue(job, target); });
        break;
      }
      case Tech::kNoRep: {
        job.service = dep ? exec_cost(heavy) + 2 * cfg_.kv.wake
                          : cfg_.kv.handoff + exec_cost(heavy);
        std::size_t target = static_cast<std::size_t>(group);
        eng_.after(cfg_.net.one_way,
                   [this, job, target] { sched_enqueue(job, target); });
        break;
      }
      case Tech::kLock: {
        job.service = cfg_.kv.lock_path + exec_cost(heavy);
        std::size_t handler = client % workers_.size();
        eng_.after(cfg_.net.one_way, [this, job, handler] {
          enqueue(handler, job);
        });
        break;
      }
    }
  }

  /// Total order per ring: monotone decided times with batching delay.
  double decided(std::size_t ring) {
    double t = eng_.now() + cfg_.net.one_way + cfg_.net.order_base +
               rng_.next_double() * cfg_.net.batch_wait_max;
    ring_clock_[ring] = std::max(ring_clock_[ring], t);
    return ring_clock_[ring];
  }

  double merge_align() {
    return rng_.next_double() * cfg_.net.merge_align_max;
  }

  void deliver(std::size_t worker, double when, Job job) {
    auto& w = workers_[worker];
    // FIFO per stream: delivery cannot overtake earlier deliveries.
    when = std::max(when, w.last_arrival);
    w.last_arrival = when;
    eng_.at(when, [this, worker, job] { enqueue(worker, job); });
  }

  // --- worker machinery ---

  void enqueue(std::size_t worker, Job job) {
    // Per-command service jitter (cache misses, tree depth variance):
    // +/-40% uniform, mean-preserving.  Gives the latency CDFs their
    // spread without changing throughput.
    job.service *= 0.6 + 0.8 * rng_.next_double();
    workers_[worker].q.push_back(std::move(job));
    try_start(worker);
  }

  void try_start(std::size_t worker) {
    auto& w = workers_[worker];
    if (w.busy || w.stalled || w.q.empty()) return;
    Job& job = w.q.front();

    if (cfg_.tech == Tech::kPsmr && job.dep) {
      // Synchronous mode: park until every worker has delivered the
      // command; the minimum-indexed worker executes for all.
      w.stalled = true;
      auto& barrier = barriers_[job.barrier];
      if (++barrier.arrived == k()) {
        auto& executor = workers_[0];
        executor.busy_us += job.service;
        Job copy = job;
        eng_.after(job.service,
                   [this, copy] { barrier_complete(copy); });
      }
      return;
    }

    if (cfg_.tech == Tech::kLock && job.dep) {
      // Structural command: latch path in parallel, then the global latch.
      w.busy = true;
      w.busy_us += job.service;
      Job copy = job;
      eng_.after(job.service, [this, worker, copy] {
        acquire_global_lock(worker, copy);
      });
      return;
    }

    w.busy = true;
    w.busy_us += job.service;
    eng_.after(job.service, [this, worker] { finish_job(worker); });
  }

  void finish_job(std::size_t worker) {
    auto& w = workers_[worker];
    Job job = std::move(w.q.front());
    w.q.pop_front();
    w.busy = false;
    w.done++;
    complete(job);
    if (cfg_.tech == Tech::kSpsmr || cfg_.tech == Tech::kNoRep) {
      on_worker_done(job);
    }
    try_start(worker);
  }

  void barrier_complete(const Job& job) {
    barriers_.erase(job.barrier);
    workers_[0].done++;
    for (std::size_t i = 0; i < workers_.size(); ++i) {
      auto& w = workers_[i];
      w.stalled = false;
      w.q.pop_front();  // every queue's front is this synchronous command
    }
    complete(job);
    for (std::size_t i = 0; i < workers_.size(); ++i) try_start(i);
  }

  // --- BDB global latch ---

  void acquire_global_lock(std::size_t worker, Job job) {
    if (glock_busy_) {
      glock_waiters_.emplace_back(worker, std::move(job));
      return;
    }
    glock_busy_ = true;
    run_global_section(worker, std::move(job));
  }

  void run_global_section(std::size_t worker, Job /*job: consumed; its
                          completion is what finish_job below accounts */) {
    workers_[worker].busy_us += cfg_.kv.lock_serial;
    eng_.after(cfg_.kv.lock_serial, [this, worker] {
      // Finish the handler's job, then hand the latch to the next waiter.
      finish_job(worker);
      if (glock_waiters_.empty()) {
        glock_busy_ = false;
      } else {
        auto [next_worker, next_job] = std::move(glock_waiters_.front());
        glock_waiters_.pop_front();
        run_global_section(next_worker, std::move(next_job));
      }
    });
  }

  // --- sP-SMR / no-rep scheduler ---

  void sched_enqueue(Job job, std::size_t target) {
    sched_q_.emplace_back(std::move(job), target);
    sched_try();
  }

  void sched_try() {
    if (sched_state_ != SchedState::kIdle || sched_q_.empty()) return;
    sched_state_ = SchedState::kBusy;
    double cost = sched_cost();
    sched_busy_ += cost;
    eng_.after(cost, [this] {
      auto [job, target] = std::move(sched_q_.front());
      sched_q_.pop_front();
      if (!job.dep) {
        ++dispatched_;
        enqueue(target, std::move(job));
        sched_state_ = SchedState::kIdle;
        sched_try();
      } else {
        // Serialize: wait for workers to finish in-flight work, run the
        // command alone on one worker, wait again (Section VI-C).
        pending_dep_ = std::move(job);
        sched_state_ = SchedState::kDrain;
        check_drain();
      }
    });
  }

  void check_drain() {
    if (dispatched_ != 0) return;
    sched_state_ = SchedState::kWaitDep;
    ++dispatched_;
    enqueue(0, std::move(pending_dep_));
  }

  void on_worker_done(const Job& job) {
    --dispatched_;
    if (sched_state_ == SchedState::kDrain) {
      check_drain();
    } else if (sched_state_ == SchedState::kWaitDep && job.dep) {
      sched_state_ = SchedState::kIdle;
      sched_try();
    }
  }

  // --- completion / closed loop ---

  void complete(const Job& job) {
    if (replicated()) mcast_cpu_ += 0.6;  // multicast library work per cmd
    double wire = cfg_.net.one_way * (0.8 + 0.6 * rng_.next_double());
    double latency = eng_.now() + wire - job.submitted;
    std::uint32_t client = job.client;
    eng_.after(wire, [this, latency, client] {
      if (eng_.now() > cfg_.warmup_us && eng_.now() <= cfg_.duration_us) {
        latency_.record(latency);
        ++completed_;
      }
      submit(client);  // closed loop, zero think time
    });
  }

  SimConfig cfg_;
  Engine eng_;
  util::SplitMix64 rng_;
  util::Zipf zipf_;

  std::vector<Worker> workers_;
  std::vector<double> ring_clock_;  // per worker ring + shared ring (last)

  std::unordered_map<std::uint64_t, Barrier> barriers_;
  std::uint64_t next_barrier_ = 1;

  std::deque<std::pair<Job, std::size_t>> sched_q_;
  SchedState sched_state_ = SchedState::kIdle;
  Job pending_dep_;
  int dispatched_ = 0;
  double sched_busy_ = 0;

  bool glock_busy_ = false;
  std::deque<std::pair<std::size_t, Job>> glock_waiters_;

  util::Histogram latency_;
  std::uint64_t completed_ = 0;
  double mcast_cpu_ = 0;
};

}  // namespace

SimResult simulate(const SimConfig& cfg) { return Simulation(cfg).run(); }

}  // namespace psmr::sim
