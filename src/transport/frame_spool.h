// Frame spool: the one batching point between a layer's producers and the
// wire, used in both directions of the replicated runtime.
//
//   * Submit direction — the multicast Bus keeps one spool keyed by
//     destination ring; client proxies marshal commands straight into it,
//     and the flushed frames travel as kPaxosSubmit / kPaxosSubmitMany.
//   * Reply direction — every replica keeps one spool keyed by destination
//     client-proxy node; workers marshal responses into it, and the flushed
//     frames travel as kSmrResponse / kSmrResponseMany.
//
// Frame layout (shared by SUBMIT_MANY and kSmrResponseMany):
//
//   u32 count                      (1 <= count <= kMaxFrameEntries)
//   count x { u32 len, len bytes }
//
// A spool keeps at most one open pooled frame per key.  append() marshals
// an entry straight into it (util::PayloadWriter, no intermediate buffer);
// the frame grows on demand, and a key whose frame has flushed holds no
// pool block.  A frame closes when it reaches the entry cap or the byte
// cap, when its oldest entry is older than the optional age bound (checked
// on append — there is no timer thread), or on an explicit flush.  A
// one-entry frame goes out with the plain single framing: the entry alone,
// as a zero-copy subview of the frame.
//
// Draining is flat-combining (Hendler et al., SPAA 2010): the thread whose
// flush finds no drain running sends closed frames, with the lock
// released, until none are left; a flush that finds a drain running just
// leaves its closed frames to that drain (a piggyback).  So every entry a
// flush closed is on the wire before that flush returns, or before the
// active drain returns; frames of one key leave in the order they closed.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "transport/message.h"
#include "util/buffer_pool.h"
#include "util/bytes.h"
#include "util/clock.h"

namespace psmr::transport {

/// Hard cap on entries per frame.  Far above any spool's entry cap; its job
/// is to bound what a decoder will attempt for a hostile count.
inline constexpr std::uint32_t kMaxFrameEntries = 4096;

/// Validates a frame and, only if the whole frame is well formed, calls
/// `visit(entry)` for each entry in order (each span points into `frame`).
/// Returns the entry count, or 0 — visiting nothing — when the frame is
/// malformed: a count of 0, a count above kMaxFrameEntries or beyond what
/// the remaining bytes could hold, a truncated length or entry, or
/// trailing bytes.
template <typename Visit>
std::uint32_t decode_frame(std::span<const std::uint8_t> frame,
                           Visit&& visit) {
  try {
    util::Reader r(frame);
    const std::uint32_t count = r.u32();
    if (count == 0 || count > kMaxFrameEntries) return 0;
    // Each entry costs at least its length prefix.
    if (std::size_t{count} * sizeof(std::uint32_t) > r.remaining()) return 0;
    for (std::uint32_t i = 0; i < count; ++i) r.bytes_view();
    if (!r.done()) return 0;
  } catch (const util::DecodeError&) {
    return 0;
  }
  util::Reader r(frame);
  const std::uint32_t count = r.u32();
  for (std::uint32_t i = 0; i < count; ++i) visit(r.bytes_view());
  return count;
}

/// Spool counters.  The four flush_on_* reasons partition `flushes`; a cap
/// or age reason counts only for the frame that tripped it.
struct SpoolStats {
  /// Entries appended.
  std::uint64_t spooled_commands = 0;
  /// Entries whose flush was left to an already-running drain.
  std::uint64_t piggybacked = 0;
  /// Frames flushed (one wire message each).
  std::uint64_t flushes = 0;
  /// Entries those frames carried.
  std::uint64_t flushed_commands = 0;
  /// Frame bytes, count and length prefixes included.
  std::uint64_t flushed_bytes = 0;
  std::uint64_t flush_on_count = 0;
  std::uint64_t flush_on_bytes = 0;
  std::uint64_t flush_on_age = 0;
  /// Explicit flushes: poll entry, execution-batch boundary, Bus::multicast.
  std::uint64_t flush_explicit = 0;
  /// Entries in frames the transport rejected (shutdown, disconnect);
  /// recovered end to end by client retransmission.
  std::uint64_t failed_flush_commands = 0;

  [[nodiscard]] double mean_commands_per_flush() const {
    return flushes == 0 ? 0.0
                        : static_cast<double>(flushed_commands) /
                              static_cast<double>(flushes);
  }
};

template <typename Key>
class FrameSpool {
 public:
  using Stats = SpoolStats;
  /// Sends one flushed frame to `key`'s destination: the whole frame when
  /// `many`, else the lone entry.  `from` is the draining caller's node.
  /// False when the transport rejected it.
  using Sink = std::function<bool(NodeId from, const Key& key,
                                  util::Payload message, bool many)>;

  /// No age bound: frames close only on a cap or an explicit flush.
  static constexpr std::chrono::microseconds kNoAgeBound =
      std::chrono::microseconds::max();

  FrameSpool(std::size_t max_entries, std::size_t max_bytes,
             std::chrono::microseconds max_age, Sink sink)
      : max_entries_(max_entries),
        max_bytes_(max_bytes),
        max_age_(max_age),
        sink_(std::move(sink)) {}

  FrameSpool(const FrameSpool&) = delete;
  FrameSpool& operator=(const FrameSpool&) = delete;

  /// Appends one `size`-byte entry to `key`'s frame; `encode` writes exactly
  /// those bytes into the util::PayloadWriter it is given.  The frame is
  /// flushed when a cap or the age bound trips, or when `flush` is set.
  /// Returns false only when this call drained and the transport rejected
  /// a frame.  A flush left to a running drain returns true: sends are
  /// fire-and-forget over a droppable transport anyway (clients recover by
  /// retransmission), and the drain counts any rejection in
  /// failed_flush_commands.
  template <typename Encode>
  bool append(NodeId from, const Key& key, std::size_t size, Encode&& encode,
              bool flush = false) {
    std::unique_lock lock(mu_);
    Frame& f = frames_[key];
    if (f.count == 0) {
      f.w = util::PayloadWriter(2 * sizeof(std::uint32_t) + size);
      f.w.u32(0);  // count, patched when the frame closes
      if (max_age_ != kNoAgeBound) f.opened_us = util::now_us();
    }
    f.w.u32(static_cast<std::uint32_t>(size));
    encode(f.w);
    ++f.count;
    ++pending_;
    ++stats_.spooled_commands;
    std::uint64_t Stats::*reason;  // the flush_on_* counter to bump
    if (f.count >= max_entries_) {
      reason = &Stats::flush_on_count;
    } else if (f.w.size() >= max_bytes_) {
      reason = &Stats::flush_on_bytes;
    } else if (max_age_ != kNoAgeBound &&
               util::now_us() - f.opened_us >= max_age_.count()) {
      reason = &Stats::flush_on_age;
    } else if (flush) {
      reason = &Stats::flush_explicit;
    } else {
      return true;  // spooled; a later flush carries it
    }
    const std::size_t closed = close(key, f, reason);
    return drain(lock, from, closed);
  }

  /// Flushes every open frame.  Returns false only when this call drained
  /// and the transport rejected a frame.
  bool flush_all(NodeId from) {
    std::unique_lock lock(mu_);
    if (pending_ == 0) return true;
    std::size_t closed = 0;
    for (auto& [key, f] : frames_) {
      if (f.count > 0) closed += close(key, f, &Stats::flush_explicit);
    }
    return drain(lock, from, closed);
  }

  [[nodiscard]] Stats stats() const {
    std::lock_guard lock(mu_);
    return stats_;
  }

  /// Test hook: invoked by the draining thread after each send, with the
  /// spool lock released, so a test can land a concurrent flush inside a
  /// running drain deterministically.  Pass {} to clear.
  void set_flush_pause(std::function<void()> hook) {
    std::lock_guard lock(mu_);
    flush_pause_ = std::move(hook);
  }

 private:
  struct Frame {
    util::PayloadWriter w;
    std::size_t count = 0;
    std::int64_t opened_us = 0;  // first append, when an age bound is set
  };

  struct Closed {
    Key key;
    util::Payload message;
    std::size_t count;
  };

  /// Seals `f` into the send queue and returns its entry count.  Caller
  /// holds mu_.
  std::size_t close(const Key& key, Frame& f, std::uint64_t Stats::*reason) {
    const std::size_t count = f.count;
    f.w.patch_u32(0, static_cast<std::uint32_t>(count));
    util::Payload frame = f.w.take();  // the key pins no block from here on
    f.count = 0;
    pending_ -= count;
    ++stats_.flushes;
    stats_.flushed_commands += count;
    stats_.flushed_bytes += frame.size();
    ++(stats_.*reason);
    constexpr std::size_t kHeader = 2 * sizeof(std::uint32_t);
    closed_.push_back(Closed{
        key,
        count == 1 ? frame.subview(kHeader, frame.size() - kHeader)
                   : std::move(frame),
        count});
    return count;
  }

  /// Sends every closed frame unless another thread is already doing so.
  /// `closed` is the number of entries the caller just closed.
  bool drain(std::unique_lock<std::mutex>& lock, NodeId from,
             std::size_t closed) {
    if (draining_) {
      stats_.piggybacked += closed;
      return true;
    }
    draining_ = true;
    // Copied under the lock: the hook runs with the lock released.
    const auto pause = flush_pause_;
    bool ok = true;
    while (!closed_.empty()) {
      sending_.swap(closed_);
      lock.unlock();
      std::size_t failed = 0;
      for (Closed& c : sending_) {
        if (!sink_(from, c.key, std::move(c.message), c.count > 1)) {
          failed += c.count;
        }
        if (pause) pause();
      }
      sending_.clear();
      lock.lock();
      if (failed > 0) {
        stats_.failed_flush_commands += failed;
        ok = false;
      }
    }
    draining_ = false;
    return ok;
  }

  const std::size_t max_entries_;
  const std::size_t max_bytes_;
  const std::chrono::microseconds max_age_;
  const Sink sink_;

  mutable std::mutex mu_;
  std::unordered_map<Key, Frame> frames_;
  std::size_t pending_ = 0;       // entries in open frames
  std::vector<Closed> closed_;    // closed, not yet taken by a drain
  std::vector<Closed> sending_;   // owned by the running drain
  bool draining_ = false;
  Stats stats_;
  std::function<void()> flush_pause_;
};

}  // namespace psmr::transport
