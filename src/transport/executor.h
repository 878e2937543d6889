// Executor: one per Network, running every Endpoint on a fixed thread pool.
//
// std::thread::hardware_concurrency() pool threads run every endpoint's
// handle() and on_deadline(); no endpoint owns a thread.  Endpoints become
// runnable in two ways:
//   * a push to an idle endpoint's mailbox schedules it.  A push made on a
//     pool thread (a handler sending) queues the receiver on that thread's
//     local LIFO list, which runs after the current handler returns and
//     wakes no other thread, so a coordinator -> acceptors -> coordinator
//     -> DECIDE chain runs on one thread without a futex round trip.  A
//     push from any other thread (a client's spool flush, a replica's
//     checkpoint ack, a test) is a sticky wake: if the pool thread that
//     last ran the endpoint is idle, the endpoint is handed straight to
//     that thread, whose cache still holds the endpoint's state and whose
//     local list then carries the chain the endpoint starts.  Otherwise
//     (that thread busy or watching the timers, or the endpoint never ran)
//     the endpoint goes to the shared queue and wakes any idle thread;
//   * its deadline expires.  One timer heap holds every endpoint's
//     next_deadline(); an expiry goes to the shared queue.
// Locality-aware placement of this kind follows Acar, Blelloch and Blumofe,
// "The Data Locality of Work Stealing" (SPAA 2000); the rule needs no hint
// from the roles, only the index each endpoint's last run recorded.
// A handler about to take long (a replica worker snapshotting its service)
// calls spill() first, which hands its thread's local list to the shared
// queue so the endpoints queued there run on other threads meanwhile.
// Heap entries are lazy: a deadline that moves later leaves its old entry
// in place, and a thread about to sleep first pops such stale entries
// (re-pushing them at the new time), so a moved deadline never causes a
// wakeup.  One idle thread at a time sleeps until the earliest deadline;
// the others sleep on their own condition variable until work or a
// handoff arrives.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <limits>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace psmr::transport {

class Endpoint;

class Executor {
 public:
  /// A timer time meaning "no deadline".
  static constexpr std::int64_t kNever =
      std::numeric_limits<std::int64_t>::max();
  /// A pool-thread index meaning "none" (an endpoint that never ran).
  static constexpr std::uint32_t kNoThread =
      std::numeric_limits<std::uint32_t>::max();

  /// Starts the pool threads (hardware_concurrency(), at least one).
  Executor();
  /// Stops and joins the pool.  Every endpoint must be stopped first.
  ~Executor();

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  /// Makes `ep` runnable: a pool thread will call its run() once.  The
  /// caller has marked `ep` scheduled in its mailbox.  On a pool thread,
  /// `ep` joins that thread's local list; off the pool, it goes to the
  /// thread that last ran it if that thread is idle, else to the shared
  /// queue.
  void schedule(Endpoint* ep);

  /// Re-queues `ep`, already scheduled, behind this pool thread's other
  /// local work: its run stopped with messages still queued.
  void yield(Endpoint* ep);

  /// Moves the calling pool thread's local list to the shared queue and
  /// wakes an idle thread for it.  Called by a handler before a long step,
  /// so the endpoints its sends queued locally need not wait for it.  A
  /// no-op off this executor's pool.
  void spill();

  /// Sets `ep`'s timer to `at_ns` (steady-clock ns; kNever clears it).
  /// Called only from `ep`'s own run.
  void arm(Endpoint* ep, std::int64_t at_ns);

  /// Drops every timer entry for `ep`, which is stopped and will never
  /// run again.
  void forget(Endpoint* ep);

  [[nodiscard]] std::size_t threads() const { return threads_.size(); }

  /// Pool threads asleep waiting for work (not the one watching the
  /// timers).  For tests that need a quiet pool.
  [[nodiscard]] std::size_t idle_threads() const;

  /// steady_clock::now() in nanoseconds, the timer heap's time base.
  [[nodiscard]] static std::int64_t now_ns();

 private:
  struct Timer {
    std::int64_t at_ns;
    std::uint64_t seq;  // live only while it equals the endpoint's
    Endpoint* ep;
  };
  struct Later {
    bool operator()(const Timer& a, const Timer& b) const {
      return a.at_ns > b.at_ns;
    }
  };

  /// One pool thread's idle slot: it sleeps on its own condition variable,
  /// and a sticky wake hands it an endpoint directly.
  struct alignas(64) Slot {
    std::condition_variable cv;
    Endpoint* handoff = nullptr;  // run before the shared queue
    bool idle = false;            // asleep on cv and listed in idle_
  };

  void worker_loop(std::uint32_t index);
  /// Wakes the most recently idle thread, else the timer watcher.  Caller
  /// holds mu_.
  void wake_one();
  /// Pops every due, superseded or moved entry off the heap top; due
  /// endpoints join ready_.  Caller holds mu_.
  void fire_timers(std::int64_t now);
  /// Pushes `ep`'s one live entry.  Caller holds mu_.
  void push_timer(Endpoint* ep, std::int64_t at_ns);

  mutable std::mutex mu_;
  std::unique_ptr<Slot[]> slots_;      // one per pool thread
  std::vector<std::uint32_t> idle_;    // idle slots, most recent last
  std::condition_variable timer_cv_;  // the idle thread watching the heap
  std::deque<Endpoint*> ready_;       // the shared queue
  std::vector<Timer> heap_;           // min-heap on at_ns
  std::uint64_t timer_seq_ = 0;
  bool timer_waiter_ = false;
  std::int64_t timer_wait_ns_ = 0;    // when the timer waiter wakes
  bool stopping_ = false;
  std::vector<std::thread> threads_;
};

}  // namespace psmr::transport
