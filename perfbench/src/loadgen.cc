#include "loadgen.h"

#include <sys/prctl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <ctime>
#include <limits>

namespace perfbench {

namespace {

enum : std::uint8_t { kIdle, kPending, kDone, kLost };

constexpr std::uint32_t kNoPhase = std::numeric_limits<std::uint32_t>::max();

std::int64_t clock_ns(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

}  // namespace

std::int64_t now_ns() { return clock_ns(CLOCK_MONOTONIC); }
std::int64_t thread_cpu_ns() { return clock_ns(CLOCK_THREAD_CPUTIME_ID); }
std::int64_t process_cpu_ns() { return clock_ns(CLOCK_PROCESS_CPUTIME_ID); }

double percentile(std::vector<std::int64_t>& v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return static_cast<double>(v[std::max<std::size_t>(rank, 1) - 1]);
}

Generator::Generator(Inputs& inputs, psmr::smr::ClientProxy& proxy)
    : inputs_(inputs), proxy_(proxy) {
  // The generator waits in poll() until the next arrival is due; the
  // default 50 us timer slack would make every such wait that much late.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  // Real clients run on other machines and never wait for the servers'
  // threads to yield a core.  Here both share the cores, so the generator
  // thread asks for precedence; without the privilege it runs at the
  // default priority and reports its lateness all the same.
  setpriority(PRIO_PROCESS, static_cast<id_t>(gettid()), -10);
}

const PhaseResult& Generator::run(std::string name,
                                  std::vector<Arrival> schedule,
                                  double rate_cps, double seconds,
                                  const PhaseOptions& opts) {
  Phase& ph = phases_.emplace_back();
  PhaseResult& r = ph.result;
  r.name = std::move(name);
  r.rate_cps = rate_cps;
  r.seconds = seconds;
  r.schedule = std::move(schedule);
  const std::size_t n = r.schedule.size();
  ph.state.assign(n, kIdle);
  r.due_at.assign(n, 0);
  r.done_at.assign(n, 0);
  r.seq.assign(n, 0);
  r.latency.reserve(n);
  r.ok_index.reserve(n);
  r.submit.reserve(n);
  r.lag.reserve(n);
  r.lag_index.reserve(n);
  slots_.resize(next_seq_ + n + 1, Slot{kNoPhase, 0});

  const std::int64_t t0 = now_ns();
  r.start = t0;
  const std::int64_t gen0 = thread_cpu_ns();
  const std::int64_t proc0 = process_cpu_ns();
  ph.window_end = t0 + static_cast<std::int64_t>(seconds * 1e9);
  const std::int64_t mid = t0 + (ph.window_end - t0) / 2;
  for (std::size_t i = 0; i < n; ++i) r.due_at[i] = t0 + r.schedule[i].due_ns;

  bool mid_taken = false;
  std::size_t i = 0;
  while (true) {
    const std::int64_t now = now_ns();
    while (i < n && r.due_at[i] <= now) submit(ph, i++);
    if (!mid_taken && now >= mid) {
      r.backlog_mid = ph.pending;
      mid_taken = true;
    }
    if (opts.abort_backlog != 0 && ph.pending > opts.abort_backlog) {
      r.aborted = true;
      break;
    }
    if (i == n && now >= ph.window_end) break;
    const std::int64_t next = i < n ? r.due_at[i] : ph.window_end;
    const std::int64_t wait_us = std::max<std::int64_t>(1, (next - now) / 1000);
    poll_once(std::chrono::microseconds(wait_us), opts.time_poll_cpu, &r);
  }
  r.attempted = i;
  r.backlog_end = ph.pending;
  for (std::size_t j = 0; j < i; ++j) {
    if (r.due_at[j] >= mid) ++r.arrivals_second_half;
  }

  // Drain: wait for the phase's commands up to their deadline (plus a
  // margin); whatever is still in flight then is lost.
  const std::int64_t last_due = i > 0 ? r.due_at[i - 1] : t0;
  const std::int64_t give_up =
      std::max(last_due, ph.window_end) + kDeadlineNs + 500'000'000;
  while (ph.pending > 0 && now_ns() < give_up) {
    poll_once(std::chrono::milliseconds(1), opts.time_poll_cpu, &r);
  }
  for (std::size_t j = 0; j < i; ++j) {
    if (ph.state[j] == kPending) {
      ph.state[j] = kLost;
      ++r.lost;
    }
  }
  ph.pending = 0;

  r.wall = now_ns() - t0;
  r.gen_cpu = thread_cpu_ns() - gen0;
  r.proc_cpu = process_cpu_ns() - proc0;
  return r;
}

void Generator::submit(Phase& ph, std::size_t i) {
  PhaseResult& r = ph.result;
  const Op& op = r.schedule[i].op;
  if (proxy_.outstanding() >= kOutstandingCap) {
    ++r.refused;
    return;
  }
  const std::int64_t start = now_ns();
  r.lag.push_back(start - r.due_at[i]);
  r.lag_index.push_back(static_cast<std::uint32_t>(i));
  auto params = inputs_.params_of(op);
  const std::int64_t s0 = now_ns();
  auto seq = proxy_.submit(inputs_.command_of(op), std::move(params));
  r.submit.push_back(now_ns() - s0);
  const psmr::smr::Seq expected = next_seq_++;
  if (!seq) {
    ++r.dispatch_failed;
    return;
  }
  if (*seq != expected || *seq >= slots_.size()) {
    note_defect("proxy assigned an unexpected seq");
    return;
  }
  slots_[*seq] = Slot{static_cast<std::uint32_t>(phases_.size() - 1),
                      static_cast<std::uint32_t>(i)};
  r.seq[i] = *seq;
  ph.state[i] = kPending;
  ++ph.pending;
}

bool Generator::poll_once(std::chrono::microseconds timeout, bool time_cpu,
                          PhaseResult* cpu_into) {
  const std::int64_t c0 = time_cpu ? thread_cpu_ns() : 0;
  auto c = proxy_.poll(timeout);
  if (time_cpu) cpu_into->poll_cpu += thread_cpu_ns() - c0;
  if (!c) return false;
  if (cpu_into != nullptr) ++cpu_into->polled;
  complete(std::move(*c), now_ns());
  return true;
}

void Generator::complete(psmr::smr::ClientProxy::Completion&& c,
                         std::int64_t now) {
  if (c.seq >= slots_.size() || slots_[c.seq].phase == kNoPhase) {
    note_defect("completion for a seq that was never submitted");
    return;
  }
  const Slot slot = slots_[c.seq];
  Phase& ph = phases_[slot.phase];
  PhaseResult& r = ph.result;
  std::uint8_t& st = ph.state[slot.index];
  if (st == kDone) {
    note_defect("seq " + std::to_string(c.seq) + " completed twice");
    return;
  }
  const bool was_lost = st == kLost;
  st = kDone;
  if (!was_lost) --ph.pending;
  r.done_at[slot.index] = now;
  if (now <= ph.window_end) ++r.completed_in_window;
  if (c.rejected) {
    if (!was_lost) ++r.rejected;
    return;
  }
  std::string why;
  if (!inputs_.check(r.schedule[slot.index].op, c.payload, why)) {
    note_defect(std::move(why));
    return;
  }
  if (was_lost) return;  // already counted as failed
  const std::int64_t latency = now - r.due_at[slot.index];
  if (latency > kDeadlineNs) {
    ++r.late;
    return;
  }
  ++r.ok;
  r.latency.push_back(latency);
  r.ok_index.push_back(slot.index);
}

void Generator::drain(std::chrono::milliseconds timeout) {
  const std::int64_t until = now_ns() + timeout.count() * 1'000'000;
  while (proxy_.outstanding() > 0 && now_ns() < until) {
    poll_once(std::chrono::milliseconds(1), false, nullptr);
  }
}

void Generator::note_defect(std::string why) {
  if (defect_.empty()) defect_ = std::move(why);
}

}  // namespace perfbench
