#include "smr/snapshot.h"

#include "util/hash.h"

namespace psmr::smr {

namespace {

constexpr std::uint32_t kMagic = 0x50534E50;  // "PSNP"
// Version 2: per-stream merge slots and held heads replace the version 1
// round-robin merge cursor.
constexpr std::uint32_t kVersion = 2;
// Hard caps: far above any real deployment (k <= 63 groups), low enough
// that a corrupt count cannot drive allocation into the gigabytes before
// the per-entry bounds checks fire.
constexpr std::uint32_t kMaxWorkers = 64;
constexpr std::uint32_t kMaxStreams = 64;
constexpr std::uint32_t kMaxEntries = 1u << 20;

}  // namespace

util::Buffer encode_snapshot(const SnapshotFrame& frame) {
  util::Writer w;
  w.u32(kMagic);
  w.u32(kVersion);
  w.u64(frame.executed);
  w.u64(frame.service_digest);
  w.u32(static_cast<std::uint32_t>(frame.workers.size()));
  for (const auto& worker : frame.workers) {
    w.u32(static_cast<std::uint32_t>(worker.positions.size()));
    for (std::size_t i = 0; i < worker.positions.size(); ++i) {
      w.u64(worker.positions[i]);
      w.u64(worker.slots.at(i));
    }
    w.u32(static_cast<std::uint32_t>(worker.heads.size()));
    for (const auto& h : worker.heads) {
      w.u32(h.stream);
      w.u64(h.slot);
      w.u8(h.skip ? 1 : 0);
      w.u32(static_cast<std::uint32_t>(h.commands.size()));
      for (const auto& c : h.commands) w.bytes(c);
    }
    w.u32(static_cast<std::uint32_t>(worker.pending.size()));
    for (const auto& p : worker.pending) {
      w.u32(p.stream);
      w.bytes(p.message);
    }
    w.u32(static_cast<std::uint32_t>(worker.dedup.size()));
    for (const auto& d : worker.dedup) {
      w.u64(d.client);
      w.u64(d.seq);
      w.bytes(d.response);
    }
  }
  w.bytes(frame.service_state);
  w.u64(util::fnv1a(w.view()));
  return w.take();
}

std::optional<SnapshotFrame> decode_snapshot(
    std::span<const std::uint8_t> data) {
  if (data.size() < 8) return std::nullopt;
  auto body = data.first(data.size() - 8);
  {
    util::Reader tail(data.subspan(data.size() - 8));
    if (tail.u64() != util::fnv1a(body)) return std::nullopt;
  }
  try {
    util::Reader r(body);
    if (r.u32() != kMagic) return std::nullopt;
    if (r.u32() != kVersion) return std::nullopt;
    SnapshotFrame frame;
    frame.executed = r.u64();
    frame.service_digest = r.u64();
    std::uint32_t num_workers = r.u32();
    if (num_workers > kMaxWorkers) return std::nullopt;
    frame.workers.resize(num_workers);
    for (auto& worker : frame.workers) {
      std::uint32_t num_streams = r.u32();
      if (num_streams > kMaxStreams ||
          std::size_t{num_streams} * 16 > r.remaining()) {
        return std::nullopt;
      }
      worker.positions.reserve(num_streams);
      worker.slots.reserve(num_streams);
      for (std::uint32_t i = 0; i < num_streams; ++i) {
        worker.positions.push_back(r.u64());
        worker.slots.push_back(r.u64());
      }
      std::uint32_t num_heads = r.u32();
      if (num_heads > num_streams) return std::nullopt;
      worker.heads.reserve(num_heads);
      for (std::uint32_t i = 0; i < num_heads; ++i) {
        SnapshotHead h;
        h.stream = r.u32();
        // Canonical form: one head per stream, ascending.
        if (h.stream >= num_streams ||
            (!worker.heads.empty() && h.stream <= worker.heads.back().stream)) {
          return std::nullopt;
        }
        h.slot = r.u64();
        std::uint8_t skip = r.u8();
        if (skip > 1) return std::nullopt;
        h.skip = skip != 0;
        std::uint32_t num_commands = r.u32();
        // Every command occupies at least its 4-byte length.
        if (num_commands > kMaxEntries ||
            std::size_t{num_commands} * 4 > r.remaining()) {
          return std::nullopt;
        }
        h.commands.reserve(num_commands);
        for (std::uint32_t c = 0; c < num_commands; ++c) {
          h.commands.push_back(r.bytes());
        }
        worker.heads.push_back(std::move(h));
      }
      std::uint32_t num_pending = r.u32();
      // Every pending entry occupies at least 8 bytes (stream + length).
      if (num_pending > kMaxEntries ||
          std::size_t{num_pending} * 8 > r.remaining()) {
        return std::nullopt;
      }
      worker.pending.reserve(num_pending);
      for (std::uint32_t i = 0; i < num_pending; ++i) {
        SnapshotPending p;
        p.stream = r.u32();
        if (p.stream >= num_streams) return std::nullopt;
        p.message = r.bytes();
        worker.pending.push_back(std::move(p));
      }
      std::uint32_t num_dedup = r.u32();
      // Every dedup entry occupies at least 20 bytes.
      if (num_dedup > kMaxEntries ||
          std::size_t{num_dedup} * 20 > r.remaining()) {
        return std::nullopt;
      }
      worker.dedup.reserve(num_dedup);
      for (std::uint32_t i = 0; i < num_dedup; ++i) {
        SnapshotDedupEntry d;
        d.client = r.u64();
        d.seq = r.u64();
        d.response = r.bytes();
        // Canonical form: strictly increasing clients, or equal tables
        // would not encode to equal frames.
        if (!worker.dedup.empty() && d.client <= worker.dedup.back().client) {
          return std::nullopt;
        }
        worker.dedup.push_back(std::move(d));
      }
    }
    frame.service_state = r.bytes();
    if (!r.done()) return std::nullopt;
    return frame;
  } catch (const util::DecodeError&) {
    return std::nullopt;
  }
}

}  // namespace psmr::smr
