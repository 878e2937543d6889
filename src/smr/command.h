// Command and response envelopes — the "requests" of the paper's commodified
// architecture (Section III): a command identifier plus marshaled parameters,
// assembled by the client proxy and re-assembled by server proxies.
//
// The envelope also carries the destination group set γ computed by the
// client-side C-G function.  The paper's Algorithm 1 recomputes γ at the
// server (line 9); carrying it instead is equivalent — real atomic multicast
// APIs deliver the destination set with the message — and it keeps
// randomized C-G functions (the paper's `random(1..k)` for reads)
// well-defined at the replicas.
#pragma once

#include <cstdint>
#include <optional>

#include "multicast/group.h"
#include "transport/message.h"
#include "util/bytes.h"

namespace psmr::smr {

/// Service-level command identifier (one per service operation).
using CommandId = std::uint16_t;

/// Reserved command id: a checkpoint marker multicast to every group, so it
/// lands at one well-defined position of every replica's merged delivery
/// sequence.  Replica proxies intercept it (all workers barrier and snapshot
/// the service state); it never reaches a Service.  Carries client = 0,
/// which no real client uses (deployments assign ClientIds from 1).
inline constexpr CommandId kCheckpointMarker = 0xFFFF;
/// Unique client identity (assigned by the deployment).
using ClientId = std::uint64_t;
/// Per-client monotonically increasing request number.
using Seq = std::uint64_t;

/// A marshaled service invocation travelling through the multicast layer.
struct Command {
  CommandId cmd = 0;
  ClientId client = 0;
  Seq seq = 0;
  /// Node to send the response to (the client proxy's mailbox).
  transport::NodeId reply_to = transport::kNoNode;
  /// Destination groups chosen by the client proxy's C-G function.
  multicast::GroupSet groups;
  /// Marshaled input parameters (service-defined schema).  A zero-copy
  /// handle: a decoded command's params share the delivery frame's pool
  /// block (util::Buffer converts implicitly when building commands).
  util::Payload params;

  /// Exact size of encode()'s output (the envelope is fixed-width).
  [[nodiscard]] std::size_t encoded_size() const {
    return 2 + 8 + 8 + 4 + 8 + 4 + params.size();
  }

  /// Appends encode()'s byte sequence into any Writer-shaped sink — client
  /// proxies marshal commands straight into the Bus's pooled SUBMIT_MANY
  /// frame this way, with no intermediate Buffer.
  template <typename W>
  void encode_into(W& w) const {
    w.u16(cmd);
    w.u64(client);
    w.u64(seq);
    w.u32(reply_to);
    w.u64(groups.mask());
    w.bytes(params);
  }

  [[nodiscard]] util::Buffer encode() const {
    util::Writer w;
    encode_into(w);
    return w.take();
  }

  /// Decodes from a Payload; params is a zero-copy subview of `data`'s
  /// block.  A util::Buffer argument converts implicitly (one pool copy).
  static std::optional<Command> decode(const util::Payload& data) {
    try {
      util::Reader r(data);
      Command c;
      c.cmd = r.u16();
      c.client = r.u64();
      c.seq = r.u64();
      c.reply_to = r.u32();
      c.groups = multicast::GroupSet::from_mask(r.u64());
      c.params = data.subview_of(r.bytes_view());
      if (!r.done()) return std::nullopt;
      return c;
    } catch (const util::DecodeError&) {
      return std::nullopt;
    }
  }
};

/// A command's marshaled output, sent one-to-one back to the client proxy.
/// Every replica that executes the command responds; the proxy returns the
/// first response to the application (paper, Algorithm 1 line 4).
struct Response {
  ClientId client = 0;
  Seq seq = 0;
  util::Buffer payload;

  /// Exact size of encode()'s output.
  [[nodiscard]] std::size_t encoded_size() const {
    return 8 + 8 + 4 + payload.size();
  }

  /// Appends encode()'s byte sequence into any Writer-shaped sink — a
  /// replica's reply spool marshals responses straight into its pooled
  /// frame this way.
  template <typename W>
  void encode_into(W& w) const {
    w.u64(client);
    w.u64(seq);
    w.bytes(payload);
  }

  [[nodiscard]] util::Buffer encode() const {
    util::Writer w;
    encode_into(w);
    return w.take();
  }

  static std::optional<Response> decode(std::span<const std::uint8_t> data) {
    try {
      util::Reader r(data);
      Response resp;
      resp.client = r.u64();
      resp.seq = r.u64();
      resp.payload = r.bytes();
      if (!r.done()) return std::nullopt;
      return resp;
    } catch (const util::DecodeError&) {
      return std::nullopt;
    }
  }
};

}  // namespace psmr::smr
