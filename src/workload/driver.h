// Workload driver for the *real* runtime.
//
// Closed-loop mode mirrors the paper's measurement methodology
// (Section VI-B): each client keeps a window of up to 50 outstanding
// commands, keys are selected uniformly or with a Zipf(1) distribution over
// the key space, and we report throughput (Kcps), average/percentile
// latency, latency histogram and process CPU usage.
//
// Open-loop mode (KvWorkloadSpec::target_rate_cps > 0) decouples arrivals
// from completions — Poisson or fixed-interval — so latency-under-load
// curves are measurable: offered rate is held constant and queueing delay
// appears as latency rather than throttling the load.
//
// Clients, Paxos and replicas all run in this one process, so the numbers
// are bounded by the host's core count, not by the paper's 8-core nodes.
#pragma once

#include <cstdint>

#include "smr/runtime.h"
#include "util/histogram.h"

namespace psmr::workload {

/// Key-value operation mix in percent (must sum to 100).  Percents may be
/// fractional: Figure 6 runs 0.0005% inserts.
struct KvMix {
  double read_pct = 100;
  double update_pct = 0;
  double insert_pct = 0;
  double delete_pct = 0;
};

struct KvWorkloadSpec {
  int clients = 4;
  int window = 50;           // outstanding commands per client
  double duration_s = 2.0;   // measured interval (after warmup)
  double warmup_s = 0.3;
  KvMix mix;
  std::uint64_t keys = 100'000;  // preloaded key range to operate on
  bool zipf = false;
  double zipf_s = 1.0;
  std::uint64_t seed = 42;

  /// Open-loop mode: aggregate target arrival rate in commands/sec across
  /// all clients (each client drives target_rate_cps / clients).  0 keeps
  /// the paper's closed loop, where `window` outstanding commands gate
  /// submission.  Open-loop arrivals are submitted on their schedule
  /// whether or not earlier commands completed, which is what makes
  /// latency-under-load curves measurable (latency grows with offered
  /// rate instead of throttling it).
  double target_rate_cps = 0;
  /// Open-loop arrival process: exponential inter-arrival gaps (a Poisson
  /// process) when true, a fixed interval of 1/rate when false.
  bool poisson_arrivals = true;
  /// Open-loop safety valve: per-client cap on outstanding commands, so an
  /// offered rate far above capacity degrades into a closed loop at this
  /// window instead of growing proxy state without bound.  Arrivals due
  /// while the cap binds are dropped from the schedule (the driver skips
  /// them rather than bursting to catch up).
  int max_outstanding = 10'000;
};

struct RunResult {
  double kcps = 0;
  double avg_latency_us = 0;
  double p50_latency_us = 0;
  double p95_latency_us = 0;
  double p99_latency_us = 0;
  util::Histogram latency;
  double cpu_pct = 0;  // process CPU time / wall time * 100
  std::uint64_t completed = 0;
  /// Per-arrival accounting over the measured interval.  Window membership
  /// is decided once per arrival, at submit time, so the identity
  ///   offered == submitted + shed_valve + dispatch_failed
  /// holds exactly.
  std::uint64_t offered = 0;    // arrivals due inside the window
  std::uint64_t submitted = 0;  // accepted into the proxy pipeline
  std::uint64_t shed_valve = 0;  // dropped by the open-loop outstanding cap
  std::uint64_t dispatch_failed = 0;  // transport rejected the dispatch
  /// Commands throttled by the proxy's token bucket (smr/admission.h) whose
  /// rejected completion landed inside the window — counted at poll time
  /// and excluded from `completed` and the latency histogram, so goodput
  /// (kcps) measures real work only.
  std::uint64_t shed_rejected = 0;
  /// Replica-side execution batching over the measured interval, aggregated
  /// across all service instances (see smr::ExecStats): how the delivered
  /// load actually reached the service — batches executed, commands per
  /// batch, share of commands resolved through a pipelined read lane.
  smr::ExecStats exec;
  /// Reply-path wire counters over the measured interval, aggregated across
  /// all replicas (see smr::ResponseStats): how those executions reached
  /// the clients — wire messages, responses per message, flush reasons.
  smr::ResponseStats response;
};

namespace detail {

/// True when `now_us` falls inside the measured interval
/// [from_us, until_us).  from_us == 0 means measurement has not started;
/// until_us == 0 means it has not ended yet (the driver publishes the end
/// bound the moment the measured sleep elapses, so completions of the
/// drain phase no longer leak into the histogram).
[[nodiscard]] inline bool in_measured_window(std::int64_t now_us,
                                             std::int64_t from_us,
                                             std::int64_t until_us) {
  return from_us != 0 && now_us >= from_us &&
         (until_us == 0 || now_us < until_us);
}

enum class KvOp : std::uint8_t { kRead, kUpdate, kInsert, kDelete };

/// The operation that `roll`, drawn uniformly from [0, 100), selects under
/// `mix`: each operation owns a slice of the range as wide as its percent.
[[nodiscard]] inline KvOp pick_op(const KvMix& mix, double roll) {
  if ((roll -= mix.read_pct) < 0) return KvOp::kRead;
  if ((roll -= mix.update_pct) < 0) return KvOp::kUpdate;
  if ((roll -= mix.insert_pct) < 0) return KvOp::kInsert;
  return KvOp::kDelete;
}

}  // namespace detail

/// Drives the deployment with closed-loop clients and measures it.
RunResult run_kv_workload(smr::Deployment& deployment,
                          const KvWorkloadSpec& spec);

/// Process CPU time (user+system) in microseconds, for CPU% accounting.
std::int64_t process_cpu_us();

}  // namespace psmr::workload
