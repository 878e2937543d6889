// Open-loop load generator: one thread drives one ClientProxy through a
// precomputed Poisson schedule.
//
// Every command is timed from when it was due, not from when it was sent,
// so a stall in the program (or in the generator) shows as latency on the
// commands that waited behind it.  The generator's own lateness and CPU are
// recorded separately so a run can tell program cost from load cost.
//
// Failure accounting: every arrival of a phase is attempted.  It fails when
// the outstanding cap refuses it, when submit() rejects the dispatch, when
// admission control sheds it, or when it has not completed within
// kDeadlineNs of its due time (including commands that never complete).
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "smr/client.h"
#include "workload.h"

namespace perfbench {

/// A command not completed this long after it was due counts as failed.
inline constexpr std::int64_t kDeadlineNs = 1'000'000'000;
/// Arrivals are refused (and fail) while this many commands are in flight.
inline constexpr std::size_t kOutstandingCap = 100'000;

/// Monotonic clock in nanoseconds.
std::int64_t now_ns();
/// CPU time of the calling thread / of the whole process, nanoseconds.
std::int64_t thread_cpu_ns();
std::int64_t process_cpu_ns();

/// Nearest-rank percentile of `v` (sorted in place); 0 when empty.
double percentile(std::vector<std::int64_t>& v, double q);

struct PhaseOptions {
  /// Times the thread CPU spent inside poll() (two extra clock reads per
  /// call; only the per-layer run turns it on).
  bool time_poll_cpu = false;
  /// Stop submitting once this many of the phase's commands are in flight:
  /// the backlog is growing and the phase has already missed any latency
  /// limit.  0 disables.
  std::size_t abort_backlog = 0;
};

/// What one phase measured.  Times are in nanoseconds unless named
/// otherwise.
struct PhaseResult {
  std::string name;
  double rate_cps = 0;
  double seconds = 0;
  std::vector<Arrival> schedule;

  std::size_t attempted = 0;  // arrivals due (submitted or refused)
  std::size_t ok = 0;         // completed correctly within the deadline
  std::size_t refused = 0;    // outstanding cap
  std::size_t dispatch_failed = 0;
  std::size_t rejected = 0;   // admission shed
  std::size_t late = 0;       // completed after the deadline
  std::size_t lost = 0;       // never completed before the drain gave up
  bool aborted = false;       // backlog passed PhaseOptions::abort_backlog

  /// Completions that arrived before the window closed.
  std::size_t completed_in_window = 0;
  /// The phase's in-flight commands at half time and at the window's end.
  std::size_t backlog_mid = 0;
  std::size_t backlog_end = 0;
  std::size_t arrivals_second_half = 0;

  std::vector<std::int64_t> latency;  // due -> completion, OK commands
  std::vector<std::uint32_t> ok_index;  // arrival index of each latency
  std::vector<std::int64_t> submit;   // wall time of each submit() call
  std::vector<std::int64_t> lag;      // due -> submit() call
  std::vector<std::uint32_t> lag_index;  // arrival index of each lag
  std::int64_t poll_cpu = 0;          // with time_poll_cpu
  std::size_t polled = 0;             // completions poll() returned

  std::int64_t start = 0;     // monotonic time the phase started
  std::int64_t wall = 0;      // phase start -> end of drain
  std::int64_t gen_cpu = 0;   // generator thread CPU over `wall`
  std::int64_t proc_cpu = 0;  // process CPU over `wall`

  /// Per arrival (same index as the schedule): absolute due and completion
  /// times, and the seq submit() assigned (0 when not submitted).
  std::vector<std::int64_t> due_at;
  std::vector<std::int64_t> done_at;
  std::vector<psmr::smr::Seq> seq;

  [[nodiscard]] std::size_t failed() const {
    return refused + dispatch_failed + rejected + late + lost;
  }
};

class Generator {
 public:
  /// `proxy` must be fresh: its seqs start at 1.
  Generator(Inputs& inputs, psmr::smr::ClientProxy& proxy);

  /// Runs one phase: submits `schedule` on time from now, then drains the
  /// phase's commands.  The result stays valid for the generator's life
  /// (late completions of a phase are still checked and recorded).
  const PhaseResult& run(std::string name, std::vector<Arrival> schedule,
                         double rate_cps, double seconds,
                         const PhaseOptions& opts = {});

  /// Waits until nothing is in flight or `timeout` passes.
  void drain(std::chrono::milliseconds timeout);

  /// Seq the next submit() will be assigned.
  [[nodiscard]] psmr::smr::Seq next_seq() const { return next_seq_; }

  /// False once any completion failed its output check, or a seq completed
  /// twice; defect() says what.
  [[nodiscard]] bool correct() const { return defect_.empty(); }
  [[nodiscard]] const std::string& defect() const { return defect_; }

 private:
  struct Phase {
    PhaseResult result;
    std::vector<std::uint8_t> state;  // kIdle / kPending / kDone / kLost
    std::size_t pending = 0;
    std::int64_t window_end = 0;
  };
  struct Slot {
    std::uint32_t phase = 0;
    std::uint32_t index = 0;
  };

  void submit(Phase& ph, std::size_t i);
  /// Polls once; returns false when nothing completed within `timeout`.
  bool poll_once(std::chrono::microseconds timeout, bool time_cpu,
                 PhaseResult* cpu_into);
  void complete(psmr::smr::ClientProxy::Completion&& c, std::int64_t now);
  void note_defect(std::string why);

  Inputs& inputs_;
  psmr::smr::ClientProxy& proxy_;
  std::deque<Phase> phases_;
  std::vector<Slot> slots_;  // indexed by seq
  psmr::smr::Seq next_seq_ = 1;
  std::string defect_;
};

}  // namespace perfbench
