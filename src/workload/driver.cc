#include "workload/driver.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <optional>
#include <thread>
#include <vector>

#include "kvstore/kv_service.h"
#include "util/clock.h"
#include "util/rng.h"

namespace psmr::workload {

std::int64_t process_cpu_us() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto tv_us = [](const timeval& tv) {
    return static_cast<std::int64_t>(tv.tv_sec) * 1'000'000 + tv.tv_usec;
  };
  return tv_us(usage.ru_utime) + tv_us(usage.ru_stime);
}

namespace {

/// Per-client slice of RunResult's arrival accounting (see driver.h for the
/// offered == submitted + shed_valve + dispatch_failed identity).
struct ClientCounters {
  std::uint64_t completed = 0;
  std::uint64_t offered = 0;
  std::uint64_t submitted = 0;
  std::uint64_t shed_valve = 0;
  std::uint64_t dispatch_failed = 0;
  std::uint64_t shed_rejected = 0;
};

// One client thread: windowed pipeline, recording completions that land in
// the measured interval.
void client_loop(smr::Deployment& deployment, const KvWorkloadSpec& spec,
                 int index, std::atomic<bool>& stop,
                 std::atomic<std::int64_t>& measure_from_us,
                 std::atomic<std::int64_t>& measure_until_us,
                 util::Histogram& latency, ClientCounters& counters) {
  auto proxy = deployment.make_client();
  util::SplitMix64 rng(spec.seed * 7919 + static_cast<std::uint64_t>(index));
  util::Zipf zipf(spec.keys, spec.zipf_s);

  auto in_window = [&](std::int64_t now_us) {
    return detail::in_measured_window(
        now_us, measure_from_us.load(std::memory_order_relaxed),
        measure_until_us.load(std::memory_order_relaxed));
  };
  auto pick_key = [&] {
    return spec.zipf ? zipf.sample(rng) : rng.next_below(spec.keys);
  };
  auto submit_one = [&]() -> std::optional<smr::Seq> {
    const double roll = rng.next_double() * 100;
    std::uint64_t k = pick_key();
    switch (detail::pick_op(spec.mix, roll)) {
      case detail::KvOp::kRead:
        return proxy->submit(kvstore::kKvRead, kvstore::encode_key(k));
      case detail::KvOp::kUpdate:
        return proxy->submit(kvstore::kKvUpdate,
                             kvstore::encode_key_value(k, rng.next()));
      case detail::KvOp::kInsert:
        // Inserts target a disjoint upper range so deletes can find them.
        return proxy->submit(
            kvstore::kKvInsert,
            kvstore::encode_key_value(spec.keys + rng.next_below(spec.keys),
                                      rng.next()));
      case detail::KvOp::kDelete:
        break;
    }
    return proxy->submit(
        kvstore::kKvDelete,
        kvstore::encode_key(spec.keys + rng.next_below(spec.keys)));
  };
  // One arrival: window membership is decided here, once, so the offered
  // identity in driver.h holds exactly.  `valve_open` is the open-loop
  // outstanding cap; a failed dispatch (shutdown, disconnected peer) is
  // surfaced by submit() and counted instead of silently forgotten.
  auto attempt = [&](bool valve_open) {
    bool measured = in_window(util::now_us());
    if (measured) ++counters.offered;
    if (!valve_open) {
      if (measured) ++counters.shed_valve;
      return;
    }
    if (submit_one()) {
      if (measured) ++counters.submitted;
    } else {
      if (measured) ++counters.dispatch_failed;
    }
  };

  auto record = [&](const smr::ClientProxy::Completion& done) {
    if (!in_window(util::now_us())) return;
    if (done.rejected) {
      ++counters.shed_rejected;  // throttled: not goodput, not latency
      return;
    }
    latency.record(static_cast<double>(done.latency_us));
    ++counters.completed;
  };

  if (spec.target_rate_cps > 0) {
    // Open loop: arrivals follow their own schedule (Poisson or fixed
    // interval), decoupled from completions, so queueing delay shows up as
    // latency instead of throttling the offered rate.
    const double rate_cps =
        spec.target_rate_cps / static_cast<double>(spec.clients);
    const double mean_gap_us = 1e6 / rate_cps;
    auto next_gap_us = [&]() -> double {
      if (!spec.poisson_arrivals) return mean_gap_us;
      // Exponential inter-arrival times; clamp u away from 0 for finite gaps.
      double u = rng.next_double();
      return -mean_gap_us * std::log(u < 1e-12 ? 1e-12 : u);
    };
    double next_due_us = static_cast<double>(util::now_us()) + next_gap_us();
    // A client slower than its own schedule (an arrival costs more than the
    // gap, as under a sanitizer at Mcps rates) would never leave the
    // catch-up loop: it would never poll, so its spooled submits would
    // never flush and no completion would ever be collected.  A pass ends
    // after kMaxPassUs.
    constexpr std::int64_t kMaxPassUs = 1000;
    while (!stop.load(std::memory_order_relaxed)) {
      std::int64_t now = util::now_us();
      const std::int64_t pass_end = now + kMaxPassUs;
      while (static_cast<double>(now) >= next_due_us && now < pass_end &&
             !stop.load(std::memory_order_relaxed)) {
        attempt(proxy->outstanding() <
                static_cast<std::size_t>(spec.max_outstanding));
        next_due_us += next_gap_us();
        now = util::now_us();
      }
      auto wait_us = static_cast<std::int64_t>(next_due_us) - now;
      auto done = proxy->poll(std::chrono::microseconds(
          std::clamp<std::int64_t>(wait_us, 50, 100'000)));
      if (done) record(*done);
    }
  } else {
    // Closed loop (the paper's methodology): keep `window` outstanding.
    while (!stop.load(std::memory_order_relaxed)) {
      while (proxy->outstanding() < static_cast<std::size_t>(spec.window) &&
             !stop.load(std::memory_order_relaxed)) {
        attempt(true);
      }
      auto done = proxy->poll(std::chrono::milliseconds(100));
      if (done) record(*done);
    }
  }
  // Best-effort drain so replicas quiesce before state-digest checks.
  while (proxy->outstanding() > 0) {
    if (!proxy->poll(std::chrono::milliseconds(200))) break;
  }
}

}  // namespace

RunResult run_kv_workload(smr::Deployment& deployment,
                          const KvWorkloadSpec& spec) {
  std::atomic<bool> stop{false};
  std::atomic<std::int64_t> measure_from_us{0};
  std::atomic<std::int64_t> measure_until_us{0};
  std::vector<util::Histogram> latencies(
      static_cast<std::size_t>(spec.clients));
  std::vector<ClientCounters> counters(static_cast<std::size_t>(spec.clients));
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(spec.clients));
  for (int c = 0; c < spec.clients; ++c) {
    threads.emplace_back([&, c] {
      client_loop(deployment, spec, c, stop, measure_from_us,
                  measure_until_us, latencies[static_cast<std::size_t>(c)],
                  counters[static_cast<std::size_t>(c)]);
    });
  }

  std::this_thread::sleep_for(std::chrono::duration<double>(spec.warmup_s));
  std::int64_t t0 = util::now_us();
  std::int64_t cpu0 = process_cpu_us();
  smr::ExecStats exec0 = deployment.exec_stats();
  smr::ResponseStats resp0 = deployment.response_stats();
  measure_from_us.store(t0);
  std::this_thread::sleep_for(std::chrono::duration<double>(spec.duration_s));
  // Close the window before anything else: completions that drain after
  // this instant (including the whole post-stop drain) must not count.
  std::int64_t t1 = util::now_us();
  measure_until_us.store(t1);
  std::int64_t cpu1 = process_cpu_us();
  smr::ExecStats exec1 = deployment.exec_stats();
  smr::ResponseStats resp1 = deployment.response_stats();
  stop.store(true);
  for (auto& t : threads) t.join();

  RunResult res;
  for (int c = 0; c < spec.clients; ++c) {
    const auto& cc = counters[static_cast<std::size_t>(c)];
    res.latency.merge(latencies[static_cast<std::size_t>(c)]);
    res.completed += cc.completed;
    res.offered += cc.offered;
    res.submitted += cc.submitted;
    res.shed_valve += cc.shed_valve;
    res.dispatch_failed += cc.dispatch_failed;
    res.shed_rejected += cc.shed_rejected;
  }
  double elapsed_s = static_cast<double>(t1 - t0) / 1e6;
  res.kcps = static_cast<double>(res.completed) / elapsed_s / 1e3;
  res.avg_latency_us = res.latency.mean();
  res.p50_latency_us = res.latency.quantile(0.50);
  res.p95_latency_us = res.latency.quantile(0.95);
  res.p99_latency_us = res.latency.quantile(0.99);
  res.cpu_pct = 100.0 * static_cast<double>(cpu1 - cpu0) /
                static_cast<double>(t1 - t0);
  res.exec = exec1 - exec0;
  res.response = resp1 - resp0;
  return res;
}

}  // namespace psmr::workload
