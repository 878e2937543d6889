#include "paxos/acceptor.h"

#include <algorithm>
#include <cstring>

#include "util/log.h"

namespace psmr::paxos {

using transport::MsgType;

namespace {

/// An ACCEPT or DECIDE this far past the end of the log is dropped rather
/// than growing the index to its instance: the empty records alone would
/// take ~100 GB, so only a corrupt or hostile frame gets here.  Ignoring a
/// message is always safe for an acceptor.
constexpr Instance kMaxGap = Instance{1} << 32;

}  // namespace

void Acceptor::handle(transport::Message msg) {
  util::Reader r(msg.payload);
  try {
    switch (msg.type) {
      case MsgType::kPaxosPrepare:
        on_prepare(msg.from, r);
        break;
      case MsgType::kPaxosAccept:
        on_accept(msg.from, msg.payload);
        break;
      case MsgType::kPaxosDecide:
        on_decide(r);
        break;
      case MsgType::kPaxosCatchupReq:
        on_catchup(msg.from, r);
        break;
      case MsgType::kPaxosCheckpointAck:
        on_checkpoint_ack(r);
        break;
      default:
        PSMR_WARN("acceptor " << name() << ": unexpected msg type "
                              << msg.type);
    }
  } catch (const util::DecodeError& e) {
    PSMR_ERROR("acceptor " << name() << ": malformed message: " << e.what());
  }
}

Acceptor::Record* Acceptor::record(Instance inst) {
  const Instance base = low_water_.load(std::memory_order_relaxed);
  if (inst < base) return nullptr;  // truncated
  const Instance idx = inst - base;
  if (idx >= log_.size()) {
    if (idx - log_.size() > kMaxGap) {
      PSMR_WARN("acceptor " << name() << ": instance " << inst
                            << " is too far past the log end; dropped");
      return nullptr;
    }
    log_.resize(idx + 1);
  }
  return &log_[idx];
}

std::span<const std::uint8_t> Acceptor::value_of(const Record& rec) const {
  if (rec.state == State::kAccepted) return held_[rec.where].view();
  const Chunk& c = chunks_[rec.where - first_chunk_];
  return {c.bytes.get() + rec.offset, rec.len};
}

void Acceptor::release_held(Record& rec) {
  if (rec.state != State::kAccepted) return;
  held_[rec.where] = util::Payload();
  free_held_.push_back(rec.where);
  rec.state = State::kEmpty;
}

void Acceptor::store_decided(Record& rec, Instance inst,
                             std::span<const std::uint8_t> value) {
  const auto len = static_cast<std::uint32_t>(value.size());
  if (chunks_.empty() || !chunks_.back().bytes ||
      chunks_.back().capacity - chunks_.back().used < len) {
    Chunk c;
    c.capacity = std::max(kChunkBytes, len);
    c.bytes = std::make_unique_for_overwrite<std::uint8_t[]>(c.capacity);
    chunks_.push_back(std::move(c));
  }
  Chunk& c = chunks_.back();
  if (len > 0) std::memcpy(c.bytes.get() + c.used, value.data(), len);
  rec.where = first_chunk_ + static_cast<std::uint32_t>(chunks_.size() - 1);
  rec.offset = c.used;
  rec.len = len;
  rec.state = State::kDecided;
  c.used += len;
  c.max_instance = std::max(c.max_instance, inst);
}

void Acceptor::on_prepare(transport::NodeId from, util::Reader& r) {
  Ballot ballot = r.u64();
  Instance from_inst = r.u64();
  if (ballot < promised_) {
    util::Writer w;
    w.u64(promised_);
    send(from, MsgType::kPaxosNack, w.take());
    return;
  }
  promised_ = ballot;
  // Report every accepted or decided instance at or above from_inst.  A
  // decided one carries its decided value at the highest ballot this
  // acceptor accepted it at, or 0 if it only saw the DECIDE.  That keeps
  // the coordinator's highest-ballot rule safe: if value v was decided at
  // ballot b, every quorum of promises contains a member of the quorum
  // that accepted (b, v); that member reports v at a ballot >= b (any
  // value it accepted at a ballot >= b is v, by Paxos' invariant), and no
  // acceptor can report a different value at a ballot >= b.  So the
  // highest-ballot report for the instance is v, and a ballot-0 report of
  // v never outranks anything.
  const Instance base = low_water_.load(std::memory_order_relaxed);
  util::PayloadWriter w(256);
  w.u64(ballot);
  w.u64(base);
  w.u32(0);  // count, patched below
  std::uint32_t n = 0;
  for (std::size_t i = from_inst > base ? from_inst - base : 0;
       i < log_.size(); ++i) {
    const Record& rec = log_[i];
    if (rec.state == State::kEmpty) continue;
    w.u64(base + i);
    w.u64(rec.ballot);
    w.bytes(value_of(rec));
    ++n;
  }
  w.patch_u32(16, n);
  send(from, MsgType::kPaxosPromise, w.take());
}

void Acceptor::on_accept(transport::NodeId from, const util::Payload& payload) {
  util::Reader r(payload);
  Ballot ballot = r.u64();
  Instance inst = r.u64();
  auto value = r.bytes_view();
  if (ballot < promised_) {
    util::Writer w;
    w.u64(promised_);
    send(from, MsgType::kPaxosNack, w.take());
    return;
  }
  promised_ = ballot;
  Record* rec = record(inst);
  if (rec == nullptr) {
    // Below the floor the instance is decided and nothing is stored; one
    // dropped as too far ahead must not count towards a quorum.
    if (inst >= low_water_.load(std::memory_order_relaxed)) return;
  } else if (rec->state == State::kDecided) {
    // Any value accepted at or above the deciding ballot is the decided
    // value, so the record only takes the higher ballot.
    rec->ballot = ballot;
  } else {
    if (rec->state == State::kEmpty) {
      if (free_held_.empty()) {
        rec->where = static_cast<std::uint32_t>(held_.size());
        held_.emplace_back();
      } else {
        rec->where = free_held_.back();
        free_held_.pop_back();
      }
      rec->state = State::kAccepted;
    }
    rec->ballot = ballot;
    // Zero-copy while in flight: the value shares the ACCEPT frame.
    held_[rec->where] = payload.subview_of(value);
  }
  util::PayloadWriter w(16);
  w.u64(ballot);
  w.u64(inst);
  send(from, MsgType::kPaxosAccepted, w.take());
}

void Acceptor::on_decide(util::Reader& r) {
  Instance inst = r.u64();
  auto value = r.bytes_view();
  Record* rec = record(inst);
  if (rec == nullptr || rec->state == State::kDecided) return;
  // Copy the value out so neither the ACCEPT nor the DECIDE frame stays
  // pinned by the log once the learners are done with it.
  release_held(*rec);
  store_decided(*rec, inst, value);
  decided_size_.fetch_add(1, std::memory_order_relaxed);
}

void Acceptor::on_catchup(transport::NodeId from, util::Reader& r) {
  Instance lo = r.u64();
  Instance hi = r.u64();
  const Instance base = low_water_.load(std::memory_order_relaxed);
  util::PayloadWriter w(64);
  w.u32(0);  // count, patched below
  std::uint32_t n = 0;
  for (Instance i = std::max(lo, base); i - base < log_.size() && i <= hi;
       ++i) {
    const Record& rec = log_[i - base];
    if (rec.state != State::kDecided) continue;
    w.u64(i);
    w.bytes(value_of(rec));
    ++n;
  }
  w.patch_u32(0, n);
  send(from, MsgType::kPaxosCatchupRep, w.take());
}

void Acceptor::on_checkpoint_ack(util::Reader& r) {
  std::uint64_t replica = r.u64();
  Instance inst = r.u64();
  if (checkpoint_ackers_ == 0) return;  // truncation disabled
  auto& acked = acks_[replica];
  acked = std::max(acked, inst);
  if (acks_.size() < checkpoint_ackers_) return;
  Instance floor = acks_.begin()->second;
  for (const auto& [_, i] : acks_) floor = std::min(floor, i);
  if (floor <= low_water_.load(std::memory_order_relaxed)) return;
  std::uint64_t dropped = 0;
  for (Instance i = low_water_.load(std::memory_order_relaxed);
       i < floor && !log_.empty(); ++i) {
    Record& rec = log_.front();
    if (rec.state == State::kDecided) ++dropped;
    release_held(rec);
    log_.pop_front();
  }
  // Every record below the floor is gone, so a chunk whose highest
  // instance lies below it holds no live bytes.
  for (Chunk& c : chunks_) {
    if (c.bytes && c.max_instance < floor) c.bytes.reset();
  }
  while (!chunks_.empty() && !chunks_.front().bytes) {
    chunks_.pop_front();
    ++first_chunk_;
  }
  low_water_.store(floor, std::memory_order_relaxed);
  decided_size_.fetch_sub(dropped, std::memory_order_relaxed);
  truncated_.fetch_add(dropped, std::memory_order_relaxed);
  PSMR_DEBUG("acceptor " << name() << ": truncated below " << floor << " ("
                         << dropped << " decided instances dropped)");
}

}  // namespace psmr::paxos
