// Discrete-event simulation engine.
//
// Why this exists: the paper's evaluation (Figures 3-8) measures CPU-bound
// scaling of replicas on 8-core cluster nodes.  This reproduction runs in a
// container that exposes a single core, where real threads cannot exhibit
// 8-way execution parallelism — so the figure benches drive these models
// instead.  The real runtime
// (transport/paxos/multicast/smr) exercises every protocol path and is
// tested for correctness; the simulator reproduces the *performance shape*
// with service-time constants calibrated from the paper's own single-thread
// numbers (sim/calibration.h).
//
// The engine is a classic event-calendar: (time, seq) ordered min-heap of
// closures, deterministic for a fixed seed.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

namespace psmr::sim {

class Engine {
 public:
  using Event = std::function<void()>;

  /// Schedules `fn` at absolute virtual time `t_us` (>= now).
  void at(double t_us, Event fn) {
    heap_.push(Item{t_us < now_ ? now_ : t_us, seq_++, std::move(fn)});
  }
  /// Schedules `fn` `delay_us` after the current virtual time.
  void after(double delay_us, Event fn) {
    at(now_ + delay_us, std::move(fn));
  }

  [[nodiscard]] double now() const { return now_; }

  /// Runs events until the calendar empties or `t_end_us` is passed.
  void run_until(double t_end_us) {
    while (!heap_.empty() && heap_.top().time <= t_end_us) {
      // Copy out before pop: the closure may schedule more events.
      Item item = std::move(const_cast<Item&>(heap_.top()));
      heap_.pop();
      now_ = item.time;
      item.fn();
    }
    if (now_ < t_end_us) now_ = t_end_us;
  }

  [[nodiscard]] std::size_t pending() const { return heap_.size(); }

 private:
  struct Item {
    double time;
    std::uint64_t seq;  // FIFO among simultaneous events
    Event fn;
    bool operator>(const Item& o) const {
      return time != o.time ? time > o.time : seq > o.seq;
    }
  };

  std::priority_queue<Item, std::vector<Item>, std::greater<>> heap_;
  double now_ = 0;
  std::uint64_t seq_ = 0;
};

}  // namespace psmr::sim
