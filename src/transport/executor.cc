#include "transport/executor.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "transport/endpoint.h"

namespace psmr::transport {

namespace {

/// The pool thread's executor, index and local LIFO list (null off the
/// pool).
struct PoolThread {
  Executor* executor = nullptr;
  std::uint32_t index = 0;
  std::deque<Endpoint*> local;
};
thread_local PoolThread* tl_pool = nullptr;

std::chrono::steady_clock::time_point at(std::int64_t ns) {
  return std::chrono::steady_clock::time_point(std::chrono::nanoseconds(ns));
}

}  // namespace

std::int64_t Executor::now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Executor::Executor() {
  const std::size_t n =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  slots_ = std::make_unique<Slot[]>(n);
  idle_.reserve(n);
  threads_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    threads_.emplace_back(
        [this, i] { worker_loop(static_cast<std::uint32_t>(i)); });
  }
}

Executor::~Executor() {
  {
    std::lock_guard lock(mu_);
    stopping_ = true;
    for (std::uint32_t i : idle_) {
      slots_[i].idle = false;
      slots_[i].cv.notify_one();
    }
    idle_.clear();
  }
  timer_cv_.notify_all();
  for (auto& t : threads_) t.join();
}

void Executor::schedule(Endpoint* ep) {
  if (tl_pool != nullptr && tl_pool->executor == this) {
    tl_pool->local.push_back(ep);  // runs after the current handler
    return;
  }
  std::lock_guard lock(mu_);
  const std::uint32_t last = ep->last_thread_.load(std::memory_order_relaxed);
  if (last < threads_.size() && slots_[last].idle) {
    // Sticky wake: the thread that ran `ep` last is asleep, so `ep` goes
    // straight to it rather than to whichever thread the queue would pick.
    Slot& slot = slots_[last];
    slot.idle = false;
    slot.handoff = ep;
    std::erase(idle_, last);
    slot.cv.notify_one();
    return;
  }
  ready_.push_back(ep);
  wake_one();
}

void Executor::wake_one() {
  if (!idle_.empty()) {
    Slot& slot = slots_[idle_.back()];
    idle_.pop_back();
    slot.idle = false;
    slot.cv.notify_one();
  } else if (timer_waiter_) {
    timer_cv_.notify_one();
  }
}

std::size_t Executor::idle_threads() const {
  std::lock_guard lock(mu_);
  return idle_.size();
}

void Executor::yield(Endpoint* ep) { tl_pool->local.push_front(ep); }

void Executor::spill() {
  if (tl_pool == nullptr || tl_pool->executor != this) return;
  auto& local = tl_pool->local;
  if (local.empty()) return;
  std::lock_guard lock(mu_);
  // The local list runs from its back; keep that order on the FIFO queue.
  ready_.insert(ready_.end(), local.rbegin(), local.rend());
  local.clear();
  // One wake is enough: a thread that takes shared work while more is
  // queued wakes the next idle one (worker_loop).
  wake_one();
}

void Executor::arm(Endpoint* ep, std::int64_t at_ns) {
  // Pairs with fire_timers(): the store to armed_ns_ and the load of
  // heap_ns_ here, and the store to heap_ns_ and the load of armed_ns_
  // there, are sequentially consistent, so a live entry that a timer
  // thread retires concurrently is either seen gone here or re-pushed
  // there at the new time.
  ep->armed_ns_.store(at_ns);
  if (at_ns >= ep->heap_ns_.load()) return;  // an entry fires by then
  std::lock_guard lock(mu_);
  if (at_ns >= ep->heap_ns_.load()) return;
  push_timer(ep, at_ns);
  if (timer_waiter_) {
    if (at_ns < timer_wait_ns_) timer_cv_.notify_one();
  } else {
    wake_one();  // nobody watches the heap: take the duty
  }
}

void Executor::forget(Endpoint* ep) {
  std::lock_guard lock(mu_);
  std::erase_if(heap_, [ep](const Timer& t) { return t.ep == ep; });
  std::make_heap(heap_.begin(), heap_.end(), Later{});
  ep->heap_seq_ = 0;
  ep->heap_ns_.store(kNever);
}

void Executor::push_timer(Endpoint* ep, std::int64_t at_ns) {
  ep->heap_seq_ = ++timer_seq_;
  ep->heap_ns_.store(at_ns);
  heap_.push_back(Timer{at_ns, ep->heap_seq_, ep});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

void Executor::fire_timers(std::int64_t now) {
  while (!heap_.empty()) {
    const Timer top = heap_.front();
    Endpoint* ep = top.ep;
    if (top.seq == ep->heap_seq_) {
      // Live and not yet due, with the deadline not moved later (an
      // earlier one is about to be pushed by its run): sleep until it.
      if (top.at_ns > now && ep->armed_ns_.load() <= top.at_ns) return;
    }
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
    if (top.seq != ep->heap_seq_) continue;  // superseded by an earlier one
    // Due, moved later, or cleared: retire the entry, then act on the
    // endpoint's current deadline.
    ep->heap_seq_ = 0;
    ep->heap_ns_.store(kNever);
    const std::int64_t armed = ep->armed_ns_.load();
    if (armed <= now) {
      if (ep->mark_runnable()) ready_.push_back(ep);
    } else if (armed != kNever) {
      push_timer(ep, armed);
    }
  }
}

void Executor::worker_loop(std::uint32_t index) {
  PoolThread self{this, index, {}};
  tl_pool = &self;
  Slot& slot = slots_[index];
  const auto run = [&self](Endpoint* ep) {
    if (ep->last_thread_.load(std::memory_order_relaxed) != self.index) {
      ep->last_thread_.store(self.index, std::memory_order_relaxed);
    }
    ep->run();
  };
  std::unique_lock lock(mu_);
  while (true) {
    fire_timers(now_ns());
    Endpoint* ep = std::exchange(slot.handoff, nullptr);
    if (ep == nullptr && !ready_.empty()) {
      ep = ready_.front();
      ready_.pop_front();
    }
    if (ep != nullptr) {
      // Leave no shared work or unwatched timer behind while threads idle.
      if (!idle_.empty() &&
          (!ready_.empty() || (!heap_.empty() && !timer_waiter_))) {
        wake_one();
      }
      lock.unlock();
      run(ep);
      while (!self.local.empty()) {
        ep = self.local.back();
        self.local.pop_back();
        run(ep);
      }
      lock.lock();
      continue;
    }
    if (stopping_) break;
    if (!heap_.empty() && !timer_waiter_) {
      timer_waiter_ = true;
      timer_wait_ns_ = heap_.front().at_ns;
      timer_cv_.wait_until(lock, at(timer_wait_ns_));
      timer_waiter_ = false;
    } else {
      slot.idle = true;
      idle_.push_back(index);
      slot.cv.wait(lock, [&slot] { return !slot.idle; });
    }
  }
  tl_pool = nullptr;
}

}  // namespace psmr::transport
