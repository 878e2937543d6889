// Open-loop serving benchmark for the replicated runtime.
//
//   serve_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Builds the workload's live smr::Deployment with library defaults, drives
// it from one generator thread on a seeded Poisson schedule, checks every
// output, and prints one JSON line last:
//   --trace 0: the end-to-end metrics, measured with tracing off;
//   --trace 1: the per-layer metrics — counter deltas over an untraced
//              phase, timed calls into public layer functions, and stage
//              spans from a second, traced phase.
// A failed check exits non-zero and prints no metrics.  perfbench/README.md
// documents every metric, the SLO and the rate ladder.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "kvstore/kv_service.h"
#include "loadgen.h"
#include "tracer.h"
#include "util/alloc_hook.h"
#include "util/buffer_pool.h"
#include "util/compress.h"
#include "workload.h"

// Counts every operator-new of the process (alloc.per_cmd).
PSMR_DEFINE_ALLOC_HOOK();

namespace perfbench {
namespace {

using psmr::smr::Deployment;

// Shares of --seconds spent in each measured phase.
constexpr double kWarmupShare = 0.10;
constexpr double kNominalShare = 0.40;
constexpr double kStepShare = 0.10;
/// A --trace 0 run times at least kSetupRepeats set-ups, and more while
/// their total stays under kSetupBudgetS (a cheap set-up is timed often
/// enough for its median to hold still); setup_s is their median.
constexpr int kSetupRepeats = 3;
constexpr double kSetupBudgetS = 1.0;
constexpr int kSetupMaxRepeats = 64;

// The SLO a ladder step must meet.
constexpr double kSloP99Ns = 10e6;
constexpr double kSloGoodputShare = 0.99;
/// Ladder: 1.25 Kcps * 2^n, up to 160 Kcps.  Above that, on a 4-vCPU host,
/// the one generator thread needs about a core to itself and the step
/// measures how the cores are split between load and program.
constexpr double kLadderBaseCps = 1250;
constexpr int kLadderTopStep = 7;

/// A nominal phase whose generator ran later than this at p99 measured the
/// generator, not the program; the run is reported invalid.
constexpr double kMaxLagP99Ns = 1e6;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
};

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const char* k = argv[i];
    const char* v = argv[i + 1];
    if (!std::strcmp(k, "--workload")) a.workload = v;
    else if (!std::strcmp(k, "--seed")) a.seed = std::strtoull(v, nullptr, 10);
    else if (!std::strcmp(k, "--seconds")) a.seconds = std::atof(v);
    else if (!std::strcmp(k, "--trace")) a.trace = std::atoi(v);
    else return false;
  }
  return argc % 2 == 1 && !a.workload.empty() && a.seconds > 0 &&
         (a.trace == 0 || a.trace == 1);
}

/// Reports a failed check and exits at once: the deployment's threads are
/// still running, so no destructors run.
[[noreturn]] void fail(const std::string& why) {
  std::fflush(stdout);
  std::fprintf(stderr, "serve_bench: %s\n", why.c_str());
  std::_Exit(1);
}

double ratio(double a, double b) { return b == 0 ? 0 : a / b; }

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v.empty() ? 0 : v[v.size() / 2];
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void print_result(const std::vector<Metric>& metrics, std::size_t attempted,
                  std::size_t failed) {
  std::printf("{\"correct\": true, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit);
  }
  std::printf("}}\n");
}

/// The windows a phase's latencies are grouped in, by due time.  A window
/// spans 20 ms, or longer at rates under 50 Kcps so that it holds about
/// 1000 commands (ten beyond its p99).
struct Windows {
  explicit Windows(const PhaseResult& r)
      : start(r.start),
        width(static_cast<std::int64_t>(std::max(0.02, 1000.0 / r.rate_cps) *
                                        1e9)),
        count(std::max<std::size_t>(
            1, static_cast<std::size_t>(r.seconds * 1e9 /
                                        static_cast<double>(width)))) {}
  [[nodiscard]] std::size_t of(std::int64_t due) const {
    return std::min(static_cast<std::size_t>((due - start) / width), count - 1);
  }
  std::int64_t start;
  std::int64_t width;
  std::size_t count;
};

/// One window's percentile.
struct WindowValue {
  std::size_t window = 0;
  double value = 0;
};

/// Percentile `q` of `values` (one per arrival index in `arrival`) in each
/// window that has samples, sorted by value.
std::vector<WindowValue> per_window(const PhaseResult& r,
                                    const std::vector<std::int64_t>& values,
                                    const std::vector<std::uint32_t>& arrival,
                                    double q) {
  const Windows win(r);
  std::vector<std::vector<std::int64_t>> w(win.count);
  for (std::size_t i = 0; i < values.size(); ++i) {
    w[win.of(r.due_at[arrival[i]])].push_back(values[i]);
  }
  std::vector<WindowValue> out;
  for (std::size_t k = 0; k < w.size(); ++k) {
    if (!w[k].empty()) out.push_back({k, percentile(w[k], q)});
  }
  std::sort(out.begin(), out.end(),
            [](const WindowValue& a, const WindowValue& b) {
              return a.value < b.value;
            });
  return out;
}

/// The calmest window: the one with the lowest value.
///
/// On shared virtual CPUs the hypervisor preempts the guest for up to
/// tens of milliseconds at a time, at a rate that changes from second to
/// second, and a preemption inflates every window it falls in.  The
/// calmest window is the best estimate of what the program itself does,
/// and a program that is slower everywhere is slower there too.  A stall
/// that hits only some windows shows in the whole-phase and per-window
/// figures the run prints, not here.
WindowValue calmest(const std::vector<WindowValue>& sorted) {
  return sorted.empty() ? WindowValue{} : sorted.front();
}

/// Latency percentile of the OK commands in the calmest window.
double calmest_latency(const PhaseResult& r, double q) {
  return calmest(per_window(r, r.latency, r.ok_index, q)).value;
}

/// Latency percentile of the OK commands in the median window.
double median_window_latency(const PhaseResult& r, double q) {
  const auto w = per_window(r, r.latency, r.ok_index, q);
  return w.empty() ? 0 : w[w.size() / 2].value;
}

/// The generator's lateness p99 in its calmest window.
double calmest_lag_p99(const PhaseResult& r) {
  return calmest(per_window(r, r.lag, r.lag_index, 0.99)).value;
}

void describe(const PhaseResult& r) {
  auto lat = r.latency;
  auto lag = r.lag;
  const auto w = per_window(r, r.latency, r.ok_index, 0.99);
  const auto at = [&](double q) {
    if (w.empty()) return 0.0;
    const auto i = static_cast<std::size_t>(
        q * static_cast<double>(w.size() - 1));
    return w[i].value / 1e3;
  };
  std::printf("# phase %s: rate=%.0f/s attempted=%zu ok=%zu failed=%zu "
              "(refused=%zu dispatch=%zu shed=%zu late=%zu lost=%zu) "
              "samples=%zu backlog=%zu->%zu%s\n"
              "#   calmest window p50=%.1fus p99=%.1fus; p99 whole phase "
              "%.1fus; p99 over %zu windows: min %.0f p25 %.0f p50 %.0f "
              "p75 %.0f max %.0f us\n"
              "#   generator lag p99: calmest window %.1fus, whole phase "
              "%.1fus\n",
              r.name.c_str(), r.rate_cps, r.attempted, r.ok, r.failed(),
              r.refused, r.dispatch_failed, r.rejected, r.late, r.lost,
              r.latency.size(), r.backlog_mid, r.backlog_end,
              r.aborted ? " aborted" : "", calmest_latency(r, 0.50) / 1e3,
              calmest_latency(r, 0.99) / 1e3, percentile(lat, 0.99) / 1e3,
              w.size(),
              at(0), at(0.25), at(0.5), at(0.75), at(1),
              calmest_lag_p99(r) / 1e3, percentile(lag, 0.99) / 1e3);
}

/// The SLO: p99 <= 10 ms in the median window, no failed command, goodput
/// >= 99% of offered within the step, and a backlog that did not grow over
/// the second half.
bool meets_slo(const PhaseResult& r) {
  if (r.aborted || r.failed() != 0 || r.attempted == 0) return false;
  if (median_window_latency(r, 0.99) > kSloP99Ns) return false;
  if (static_cast<double>(r.completed_in_window) <
      kSloGoodputShare * static_cast<double>(r.attempted)) {
    return false;
  }
  const double growth = static_cast<double>(r.backlog_end) -
                        static_cast<double>(r.backlog_mid);
  return growth <= std::max(256.0, 0.01 * static_cast<double>(
                                             r.arrivals_second_half));
}

double goodput_kcps(const PhaseResult& r) {
  return static_cast<double>(r.ok) / r.seconds / 1e3;
}

/// Waits until no command is in flight and every replica has executed the
/// same number of commands (the slower replica catches up).
bool settle(Deployment& d, Generator& gen, std::chrono::milliseconds timeout) {
  gen.drain(timeout);
  const std::int64_t until = now_ns() + timeout.count() * 1'000'000;
  while (true) {
    bool same = true;
    for (std::size_t i = 1; i < d.num_services(); ++i) {
      same = same && d.executed(i) == d.executed(0);
    }
    if (same) return true;
    if (now_ns() >= until) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

void settle_or_fail(Deployment& d, Generator& gen) {
  if (!settle(d, gen, std::chrono::milliseconds(5000))) {
    fail("replicas did not catch up between phases");
  }
}

/// After the final drain: equal executed counts and equal state digests.
void check_replicas(Deployment& d, Generator& gen) {
  if (!settle(d, gen, std::chrono::milliseconds(10'000))) {
    fail("replicas did not converge: executed counts differ");
  }
  for (std::size_t i = 1; i < d.num_services(); ++i) {
    if (d.state_digest(i) != d.state_digest(0)) {
      fail("replica " + std::to_string(i) + " state digest differs");
    }
  }
  if (!gen.correct()) fail(gen.defect());
}

/// Counters every layer exports, read from outside the program.
struct Counters {
  psmr::paxos::CoordinatorStats total;
  psmr::paxos::CoordinatorStats shared;
  psmr::multicast::SubmitCoalescer::Stats coalesce;
  psmr::smr::SpoolStats spool;
  psmr::smr::ExecStats exec;
  psmr::smr::ResponseStats reply;
  psmr::transport::NetworkStats net;
  psmr::util::PoolStats pool;
  std::uint64_t allocs = 0;
};

Counters snapshot(Deployment& d) {
  Counters c;
  c.total = d.multicast_stats();
  if (auto* bus = d.bus()) {
    c.shared = bus->shared_ring_stats();
    c.coalesce = bus->coalesce_stats();
  }
  c.spool = d.spool_stats();
  c.exec = d.exec_stats();
  c.reply = d.response_stats();
  c.net = d.network().stats();
  c.pool = psmr::util::BufferPool::global().stats();
  c.allocs = psmr::util::allochook::allocations();
  return c;
}

/// Discards responses (the timed execute_batch still builds them).
class DiscardSink final : public psmr::smr::ResponseSink {
 public:
  void accept(std::size_t, psmr::util::Buffer) override {}
};

/// kv.exec_ns_per_cmd: KvService::execute_batch on a fresh 10 M-key tree,
/// fed `ops` in runs of mutually independent commands of at most `batch`.
double time_kv_exec(const Inputs& inputs, const std::vector<Arrival>& ops,
                    std::size_t batch) {
  psmr::kvstore::KvService svc(kKvKeys);
  std::vector<psmr::smr::Command> cmds(ops.size());
  for (std::size_t i = 0; i < ops.size(); ++i) {
    cmds[i].cmd = inputs.command_of(ops[i].op);
    cmds[i].client = 1;
    cmds[i].seq = i + 1;
    cmds[i].params = inputs.params_of(ops[i].op);
  }
  DiscardSink sink;
  const std::int64_t t0 = now_ns();
  for (std::size_t at = 0; at < cmds.size();) {
    std::size_t end = at + 1;
    while (end < cmds.size() && end - at < batch) {
      bool independent = true;
      for (std::size_t j = at; j < end && independent; ++j) {
        independent = svc.may_share_batch(cmds[j], cmds[end]);
      }
      if (!independent) break;
      ++end;
    }
    psmr::smr::CommandBatch b{
        std::span<const psmr::smr::Command>(cmds.data() + at, end - at),
        &sink};
    svc.execute_batch(b);
    at = end;
  }
  return ratio(static_cast<double>(now_ns() - t0),
               static_cast<double>(cmds.size()));
}

/// fs.compress/decompress_ns_per_kb over the workload's blocks; median of
/// five passes.
std::pair<double, double> time_codec(const Inputs& inputs) {
  std::vector<const psmr::util::Buffer*> blocks;
  for (const auto& b : inputs.preload_blocks()) blocks.push_back(&b);
  for (const auto& b : inputs.write_blocks()) blocks.push_back(&b);
  if (blocks.empty()) return {0, 0};
  std::vector<psmr::util::Buffer> packed(blocks.size());
  std::vector<double> comp, decomp;
  std::size_t bytes = 0;
  for (const auto* b : blocks) bytes += b->size();
  const double kb = static_cast<double>(bytes) / 1024.0;
  for (int pass = 0; pass < 5; ++pass) {
    std::int64_t t0 = now_ns();
    for (std::size_t i = 0; i < blocks.size(); ++i) {
      packed[i] = psmr::util::lz_compress(*blocks[i]);
    }
    comp.push_back(static_cast<double>(now_ns() - t0) / kb);
    t0 = now_ns();
    for (std::size_t i = 0; i < blocks.size(); ++i) {
      auto plain = psmr::util::lz_decompress(packed[i]);
      if (!plain || *plain != *blocks[i]) fail("lz codec round trip failed");
    }
    decomp.push_back(static_cast<double>(now_ns() - t0) / kb);
  }
  return {median(comp), median(decomp)};
}

/// Stage percentiles of the traced phase's calmest window (by latency p99,
/// as the end-to-end figures are taken), all commands and g_all only.
void stage_metrics(const PhaseResult& traced, const StageTracer& tracer,
                   std::vector<Metric>& out) {
  // The OK commands with a complete span, and their latencies.
  std::vector<std::int64_t> latency;
  std::vector<std::uint32_t> index;
  std::size_t undecided = 0, unmerged = 0;
  for (std::size_t j = 0; j < traced.ok_index.size(); ++j) {
    const auto* s = tracer.find(traced.seq[traced.ok_index[j]]);
    if (s == nullptr || s->decided == 0) {
      ++undecided;
    } else if (s->merged == 0) {
      ++unmerged;
    } else {
      latency.push_back(traced.latency[j]);
      index.push_back(traced.ok_index[j]);
    }
  }
  const Windows win(traced);
  const std::size_t window =
      calmest(per_window(traced, latency, index, 0.99)).window;
  std::vector<std::int64_t> stage[2][3];  // [gall][order, merge, exec]
  for (const std::uint32_t i : index) {
    if (win.of(traced.due_at[i]) != window) continue;
    const auto* s = tracer.find(traced.seq[i]);
    const std::int64_t v[3] = {s->decided - traced.due_at[i],
                               s->merged - s->decided,
                               traced.done_at[i] - s->merged};
    for (int k = 0; k < 3; ++k) {
      stage[0][k].push_back(v[k]);
      if (s->gall) stage[1][k].push_back(v[k]);
    }
  }
  static const char* names[3] = {"order", "merge", "exec_reply"};
  for (int g = 0; g < 2; ++g) {
    for (int k = 0; k < 3; ++k) {
      for (double q : {0.50, 0.99}) {
        std::string name = std::string("stage.") + names[k] + "_us_p" +
                           (q == 0.50 ? "50" : "99") + (g ? ".gall" : "");
        out.push_back({name, percentile(stage[g][k], q) / 1e3, "us"});
      }
    }
  }
  std::printf("# traced spans: %zu complete, %zu never decided, %zu never "
              "merged; calmest window %zu holds %zu (%zu g_all)\n",
              index.size(), undecided, unmerged, window, stage[0][0].size(),
              stage[1][0].size());
}

/// Counter-derived per-layer metrics over one phase (c0 before, c1 after).
std::vector<Metric> counter_metrics(const Counters& c0, const Counters& c1,
                                    const PhaseResult& r) {
  const auto d = [](auto before, auto after) {
    return static_cast<double>(after - before);
  };
  const double cmds = static_cast<double>(r.ok);
  const double wall_s = static_cast<double>(r.wall) / 1e9;
  const auto& t0 = c0.total;
  const auto& t1 = c1.total;
  const double sealed = d(t0.sealed_batches, t1.sealed_batches);
  const double decided = d(t0.decided_batches, t1.decided_batches);
  const double piggybacked =
      d(c0.coalesce.piggybacked, c1.coalesce.piggybacked);
  const double exec_cmds = d(c0.exec.commands, c1.exec.commands);
  const double reply_msgs = d(c0.reply.wire_messages, c1.reply.wire_messages);
  const double pool_hits = d(c0.pool.hits, c1.pool.hits);
  return {
      {"spool.cmds_per_flush",
       ratio(d(c0.spool.flushed_commands, c1.spool.flushed_commands),
             d(c0.spool.flushes, c1.spool.flushes)),
       "count"},
      {"spool.failed_flush_cmds",
       d(c0.spool.failed_flush_commands, c1.spool.failed_flush_commands),
       "count"},
      {"paxos.cmds_per_batch",
       ratio(d(t0.sealed_commands, t1.sealed_commands), sealed), "count"},
      {"paxos.timeout_seal_share",
       ratio(d(t0.sealed_on_timeout, t1.sealed_on_timeout), sealed), "ratio"},
      {"paxos.cmds_per_submit_msg",
       ratio(d(t0.submit_commands, t1.submit_commands),
             d(t0.submit_msgs, t1.submit_msgs)),
       "count"},
      {"paxos.instances_per_s", ratio(decided, wall_s), "1/s"},
      {"merge.skip_share",
       ratio(d(t0.decided_skips, t1.decided_skips), decided), "ratio"},
      {"gall.cmds_per_s",
       ratio(d(c0.shared.decided_commands, c1.shared.decided_commands), wall_s),
       "1/s"},
      {"coalesce.piggyback_share",
       ratio(piggybacked,
             piggybacked + d(c0.coalesce.flushed_commands,
                             c1.coalesce.flushed_commands)),
       "ratio"},
      {"exec.cmds_per_batch",
       ratio(exec_cmds, d(c0.exec.batches, c1.exec.batches)), "count"},
      {"exec.batched_read_share",
       ratio(d(c0.exec.batched_reads, c1.exec.batched_reads), exec_cmds),
       "ratio"},
      {"reply.resps_per_msg",
       ratio(d(c0.reply.responses, c1.reply.responses), reply_msgs), "count"},
      {"reply.timeout_flush_share",
       ratio(d(c0.reply.flush_timeout, c1.reply.flush_timeout), reply_msgs),
       "ratio"},
      {"net.msgs_per_cmd",
       ratio(d(c0.net.messages_sent, c1.net.messages_sent), cmds), "count"},
      {"net.bytes_per_cmd",
       ratio(d(c0.net.bytes_sent, c1.net.bytes_sent), cmds), "B"},
      {"pool.hit_share",
       ratio(pool_hits, pool_hits + d(c0.pool.misses, c1.pool.misses) +
                            d(c0.pool.oversize, c1.pool.oversize)),
       "ratio"},
      {"alloc.per_cmd", ratio(d(c0.allocs, c1.allocs), cmds), "count"},
  };
}

/// --trace 0: the nominal phase, then the rate ladder from the nominal step,
/// up while steps pass and down while they miss.
using Account = std::function<void(const PhaseResult&)>;

std::vector<Metric> end_to_end(const WorkloadSpec& spec, Inputs& inputs,
                               Deployment& d, Generator& gen, double S,
                               const std::vector<double>& setup_s,
                               const Account& account) {
  const double nominal = spec.nominal_cps;
  const PhaseResult& nom =
      gen.run("nominal",
              inputs.schedule("nominal", 1, nominal, S * kNominalShare),
              nominal, S * kNominalShare);
  account(nom);
  if (calmest_lag_p99(nom) > kMaxLagP99Ns) {
    std::printf("# INVALID: generator lag p99 %.0f us exceeds the %.0f us "
                "bound; latency figures measured the host\n",
                calmest_lag_p99(nom) / 1e3, kMaxLagP99Ns / 1e3);
  }
  settle_or_fail(d, gen);

  const auto step = [&](int n) -> const PhaseResult& {
    const double rate = kLadderBaseCps * std::ldexp(1.0, n);
    const std::string name = "step-" + std::to_string(n);
    PhaseOptions opts;
    opts.abort_backlog =
        std::max<std::size_t>(2000, static_cast<std::size_t>(rate / 10));
    const PhaseResult& r =
        gen.run(name, inputs.schedule(name, 100 + n, rate, S * kStepShare),
                rate, S * kStepShare, opts);
    describe(r);
    settle_or_fail(d, gen);
    return r;
  };
  const int n_nominal =
      static_cast<int>(std::lround(std::log2(nominal / kLadderBaseCps)));
  double max_rate = 0;
  if (meets_slo(nom)) {
    max_rate = goodput_kcps(nom);
    for (int n = n_nominal + 1; n <= kLadderTopStep; ++n) {
      const PhaseResult& r = step(n);
      if (!meets_slo(r)) break;
      max_rate = goodput_kcps(r);
    }
  } else {
    for (int n = n_nominal - 1; n >= 0; --n) {
      const PhaseResult& r = step(n);
      if (meets_slo(r)) {
        max_rate = goodput_kcps(r);
        break;
      }
    }
  }
  std::printf("# max_rate_kcps=%.4f Kcps\n", max_rate);
  return {
      {"goodput_kcps", goodput_kcps(nom), "Kcps"},
      {"latency_p50_us", calmest_latency(nom, 0.50) / 1e3, "us"},
      {"latency_p99_us", calmest_latency(nom, 0.99) / 1e3, "us"},
      {"cpu_us_per_cmd",
       ratio(static_cast<double>(nom.proc_cpu - nom.gen_cpu) / 1e3,
             static_cast<double>(nom.ok)),
       "us"},
      {"setup_s", median(setup_s), "s"},
  };
}

/// --trace 1: counters over an untraced nominal phase, stage spans over a
/// traced one.
std::vector<Metric> per_layer(const WorkloadSpec& spec, Inputs& inputs,
                              Deployment& d, Generator& gen,
                              psmr::smr::ClientId client, double S,
                              const Account& account) {
  const double nominal = spec.nominal_cps;
  PhaseOptions timed;
  timed.time_poll_cpu = true;
  const Counters c0 = snapshot(d);
  const PhaseResult& base =
      gen.run("untraced",
              inputs.schedule("nominal", 1, nominal, S * kNominalShare),
              nominal, S * kNominalShare, timed);
  const Counters c1 = snapshot(d);
  account(base);
  settle_or_fail(d, gen);

  auto traced_schedule =
      inputs.schedule("traced", 2, nominal, S * kNominalShare);
  StageTracer tracer(d, client, gen.next_seq(), traced_schedule.size());
  const std::int64_t attach = now_ns();
  const bool caught_up = tracer.start(std::chrono::milliseconds(5000));
  std::printf("# observer attached in %.0f ms%s\n",
              static_cast<double>(now_ns() - attach) / 1e6,
              caught_up ? "" : " (not caught up; early commands untraced)");
  const PhaseResult& traced = gen.run("traced", std::move(traced_schedule),
                                      nominal, S * kNominalShare);
  account(traced);
  tracer.stop(traced.ok + traced.late, std::chrono::milliseconds(3000));
  std::printf("# observer cpu %.3f s\n",
              static_cast<double>(tracer.cpu_ns()) / 1e9);
  check_replicas(d, gen);

  auto submit = base.submit;
  const double cmds = static_cast<double>(base.ok);
  std::vector<Metric> out = {
      {"client.submit_ns_p50", percentile(submit, 0.50), "ns"},
      {"client.submit_ns_p99", percentile(submit, 0.99), "ns"},
      {"client.poll_ns_per_cmd",
       ratio(static_cast<double>(base.poll_cpu),
             static_cast<double>(base.polled)),
       "ns"},
  };
  const auto counters = counter_metrics(c0, c1, base);
  out.insert(out.end(), counters.begin(), counters.end());
  stage_metrics(traced, tracer, out);
  const double overhead =
      ratio(calmest_latency(traced, 0.5), calmest_latency(base, 0.5));
  out.push_back({"trace.overhead_p50_ratio", overhead, "ratio"});
  out.push_back({"gen.lag_p99_us", calmest_lag_p99(base) / 1e3, "us"});
  out.push_back({"gen.cpu_us_per_cmd",
                 ratio(static_cast<double>(base.gen_cpu) / 1e3, cmds), "us"});

  return out;
}

/// Timed calls into single layers: KvService::execute_batch on the untraced
/// phase's commands (regenerated from the seed), in runs as long as the
/// live replicas' mean `exec_batch`, and the lz codec on the workload's
/// blocks.
std::vector<Metric> layer_timings(const WorkloadSpec& spec, Inputs& inputs,
                                  double S, double exec_batch) {
  const auto batch = static_cast<std::size_t>(
      std::clamp<long>(std::lround(exec_batch), 1, 16));
  const auto [comp, decomp] = time_codec(inputs);
  return {
      {"kv.exec_ns_per_cmd",
       spec.service == Service::kKv
           ? time_kv_exec(inputs,
                          inputs.schedule("nominal", 1, spec.nominal_cps,
                                          S * kNominalShare),
                          batch)
           : 0.0,
       "ns"},
      {"fs.compress_ns_per_kb", comp, "ns"},
      {"fs.decompress_ns_per_kb", decomp, "ns"},
  };
}

int run(const Args& args) {
  const WorkloadSpec* spec = find_workload(args.workload);
  if (spec == nullptr) fail("unknown workload " + args.workload);
  Inputs inputs(*spec, args.seed);
  const double S = args.seconds;
  std::printf("# workload=%s seed=%llu seconds=%g trace=%d mode=%s mpl=%zu "
              "nominal=%.0f/s injected_delay=0\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              S, args.trace, psmr::smr::mode_name(spec->mode), spec->mpl,
              spec->nominal_cps);

  // Set-up: construct, start, preload.  The last deployment serves the run.
  std::vector<double> setup_s;
  std::unique_ptr<Deployment> d;
  double setup_total = 0;
  const auto more = [&](int r) {
    return r == 0 ||
           (args.trace == 0 && r < kSetupMaxRepeats &&
            (r < kSetupRepeats || setup_total < kSetupBudgetS));
  };
  for (int r = 0; more(r); ++r) {
    d.reset();
    const std::int64_t t0 = now_ns();
    d = std::make_unique<Deployment>(deployment_config(*spec));
    d->start();
    if (!preload(*spec, inputs, *d->make_client())) fail("preload failed");
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    setup_total += setup_s.back();
  }
  std::printf("# setup: %zu times, median %.4f s, max %.4f s\n",
              setup_s.size(), median(setup_s),
              *std::max_element(setup_s.begin(), setup_s.end()));

  auto proxy = d->make_client();
  Generator gen(inputs, *proxy);
  std::size_t attempted = 0;
  std::size_t failed = 0;
  const Account account = [&](const PhaseResult& r) {
    describe(r);
    attempted += r.attempted;
    failed += r.failed();
  };
  const double warmup_s = S * kWarmupShare;
  account(gen.run("warmup",
                  inputs.schedule("warmup", 0, spec->nominal_cps, warmup_s),
                  spec->nominal_cps, warmup_s));
  settle_or_fail(*d, gen);

  std::vector<Metric> metrics;
  if (args.trace == 0) {
    metrics = end_to_end(*spec, inputs, *d, gen, S, setup_s, account);
    check_replicas(*d, gen);
  } else {
    metrics = per_layer(*spec, inputs, *d, gen, proxy->id(), S, account);
    const double exec_batch =
        std::find_if(metrics.begin(), metrics.end(), [](const Metric& m) {
          return m.name == "exec.cmds_per_batch";
        })->value;
    // After the deployment is gone, so the extra tree does not share memory
    // with the replicas' trees.
    proxy.reset();
    d.reset();
    const auto timings = layer_timings(*spec, inputs, S, exec_batch);
    metrics.insert(metrics.end(), timings.begin(), timings.end());
  }
  std::printf("# error_rate=%.6g (failed %zu / attempted %zu)\n",
              ratio(static_cast<double>(failed),
                    static_cast<double>(attempted)),
              failed, attempted);
  print_result(metrics, attempted, failed);
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::parse(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: serve_bench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1>\n");
    return 2;
  }
  return perfbench::run(args);
}
