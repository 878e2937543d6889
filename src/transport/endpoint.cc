#include "transport/endpoint.h"

namespace psmr::transport {

bool Mailbox::push(Message msg) {
  bool schedule = false;
  {
    std::lock_guard lock(mu_);
    if (closed_) return false;
    items_.push_back(std::move(msg));
    if (waker_ != nullptr) {
      waker_->wake();  // under the lock: close() fences it off
    } else if (owner_ == nullptr) {
      cv_.notify_one();
    } else if (started_ && !scheduled_) {
      scheduled_ = schedule = true;
    }
  }
  // owner_ is set before the node is published and never changes; while
  // scheduled_ is set, stop() waits, so the owner is alive here.
  if (schedule) owner_->network().executor().schedule(owner_);
  return true;
}

Endpoint::Endpoint(Network& net, std::string name)
    : net_(net), name_(std::move(name)) {
  auto [id, box] = net.register_node(this);
  id_ = id;
  mailbox_ = std::move(box);
}

void Endpoint::start() {
  {
    std::lock_guard lock(mailbox_->mu_);
    if (mailbox_->closed_ || mailbox_->started_) return;
    mailbox_->started_ = true;
    mailbox_->scheduled_ = true;
  }
  // The first run handles anything queued before start() and arms the
  // first deadline.
  net_.executor().schedule(this);
}

void Endpoint::stop() {
  {
    std::unique_lock lock(mailbox_->mu_);
    mailbox_->closed_ = true;
    mailbox_->items_.clear();
    mailbox_->cv_.wait(lock, [&] { return !mailbox_->scheduled_; });
  }
  net_.executor().forget(this);
}

void Endpoint::wake() {
  if (mark_runnable()) net_.executor().schedule(this);
}

bool Endpoint::mark_runnable() {
  std::lock_guard lock(mailbox_->mu_);
  if (mailbox_->closed_ || !mailbox_->started_) return false;
  if (mailbox_->scheduled_) {
    mailbox_->rerun_ = true;  // the current run will go round again
    return false;
  }
  mailbox_->scheduled_ = true;
  return true;
}

void Endpoint::run() {
  Mailbox& box = *mailbox_;
  bool closed = false;
  {
    // One lock for the whole batch, not one per message.
    std::lock_guard lock(box.mu_);
    closed = box.closed_;
    if (!closed) box.take_locked(batch_, kRunBudget);
  }
  for (Message& msg : batch_) {
    // stop() drops what is still queued, including the rest of the batch.
    closed = box.closed_.load(std::memory_order_acquire);
    if (closed) break;
    handle(std::move(msg));
  }
  batch_.clear();
  if (!closed) {
    on_run();
    auto due = next_deadline();
    if (due && Clock::now() >= *due) {
      on_deadline();
      due = next_deadline();
    }
    net_.executor().arm(
        this, due ? std::chrono::duration_cast<std::chrono::nanoseconds>(
                        due->time_since_epoch())
                        .count()
                  : Executor::kNever);
  }
  bool again = false;
  {
    std::lock_guard lock(box.mu_);
    if (box.closed_) {
      box.scheduled_ = false;
      box.cv_.notify_all();  // stop() may be waiting
      return;
    }
    again = !box.items_.empty() || box.rerun_;
    box.rerun_ = false;
    box.scheduled_ = again;
  }
  if (again) net_.executor().yield(this);
}

}  // namespace psmr::transport
