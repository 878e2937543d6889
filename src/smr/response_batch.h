// Reply direction of the frame spool (transport/frame_spool.h).
//
// Every replica keeps one spool keyed by destination client-proxy node; its
// workers marshal each Response straight into the open frame for that
// proxy, and the frame flushes at the execution-batch boundary (or earlier
// on a cap or the age bound).  A multi-response frame travels as
// kSmrResponseMany in the shared frame layout:
//
//   u32 count                      (1 <= count <= kMaxResponsesPerMessage)
//   count x { u32 len, len bytes } (each an encoded smr::Response)
//
// and a lone reply keeps the plain kSmrResponse framing.
//
// The decode side is deliberately paranoid: this is the one message type a
// client proxy accepts from the network, so a malformed frame must be
// rejected without ever reading past the buffer (util::Reader bounds-checks
// every access) and without amplifying a small frame into a huge allocation
// (the count is validated against both the hard cap and the bytes actually
// present before anything is reserved).
#pragma once

#include <chrono>
#include <memory>
#include <optional>
#include <vector>

#include "smr/command.h"
#include "transport/frame_spool.h"
#include "transport/network.h"

namespace psmr::smr {

/// Hard cap on responses per wire message (the frame decoder's cap).
inline constexpr std::uint32_t kMaxResponsesPerMessage =
    transport::kMaxFrameEntries;

/// Caps of a replica's reply spool.  Caps of 1 send every reply as its own
/// kSmrResponse.
struct ReplyCaps {
  /// Per-destination response-count flush cap.
  std::size_t max_responses = 64;
  /// Per-destination frame byte cap.
  std::size_t max_bytes = 48 * 1024;
  /// Oldest-spooled-response age that forces a flush, checked on append.
  /// Bounds reply latency inside long execution batches; the batch-boundary
  /// flush is what bounds it everywhere else.
  std::chrono::microseconds max_delay{200};
};

/// Wire-level reply counters, the reply-path analogue of the multicast
/// layer's CoordinatorStats.  Snapshot type; interval deltas via operator-.
struct ResponseStats {
  /// kSmrResponse + kSmrResponseMany wire messages sent.
  std::uint64_t wire_messages = 0;
  /// Responses those messages carried.
  std::uint64_t responses = 0;
  // Per-wire-message flush reasons; they partition wire_messages.  A
  // cap/age reason counts only for the frame that tripped it.
  std::uint64_t flush_size = 0;     // response-count cap hit
  std::uint64_t flush_bytes = 0;    // byte cap hit
  std::uint64_t flush_timeout = 0;  // oldest spooled response aged out
  std::uint64_t flush_batch = 0;    // batch-boundary flush

  /// The reply view of a reply spool's counters.
  static ResponseStats of(const transport::SpoolStats& s) {
    return {s.flushes,        s.flushed_commands, s.flush_on_count,
            s.flush_on_bytes, s.flush_on_age,     s.flush_explicit};
  }

  [[nodiscard]] double mean_responses_per_message() const {
    return wire_messages == 0 ? 0.0
                              : static_cast<double>(responses) /
                                    static_cast<double>(wire_messages);
  }

  ResponseStats& operator+=(const ResponseStats& o) {
    wire_messages += o.wire_messages;
    responses += o.responses;
    flush_size += o.flush_size;
    flush_bytes += o.flush_bytes;
    flush_timeout += o.flush_timeout;
    flush_batch += o.flush_batch;
    return *this;
  }
  ResponseStats operator-(const ResponseStats& o) const {
    return {wire_messages - o.wire_messages, responses - o.responses,
            flush_size - o.flush_size,       flush_bytes - o.flush_bytes,
            flush_timeout - o.flush_timeout, flush_batch - o.flush_batch};
  }
};

/// A replica's reply spool, keyed by destination client-proxy node.
using ReplySpool = transport::FrameSpool<transport::NodeId>;

/// Builds a reply spool whose frames go out over `net`.
inline std::unique_ptr<ReplySpool> make_reply_spool(transport::Network& net,
                                                    const ReplyCaps& caps) {
  return std::make_unique<ReplySpool>(
      caps.max_responses, caps.max_bytes, caps.max_delay,
      [&net](transport::NodeId from, transport::NodeId to,
             util::Payload message, bool many) {
        return net.send(from, to,
                        many ? transport::MsgType::kSmrResponseMany
                             : transport::MsgType::kSmrResponse,
                        std::move(message));
      });
}

/// Spools `resp` for proxy node `to`; `from` is the replica's reply node.
inline void spool_reply(ReplySpool& spool, transport::NodeId from,
                        transport::NodeId to, const Response& resp) {
  spool.append(from, to, resp.encoded_size(),
               [&resp](util::PayloadWriter& w) { resp.encode_into(w); });
}

/// Decodes a kSmrResponseMany payload.  Returns std::nullopt if the frame is
/// malformed in any way (see transport::decode_frame) or an inner Response
/// does not decode.
inline std::optional<std::vector<Response>> decode_response_batch(
    std::span<const std::uint8_t> data) {
  std::vector<Response> out;
  bool inner_ok = true;
  const std::uint32_t n =
      transport::decode_frame(data, [&](std::span<const std::uint8_t> body) {
        if (!inner_ok) return;
        // Visited only once the frame validated, so its count is in range.
        if (out.empty()) out.reserve(util::Reader(data).u32());
        auto resp = Response::decode(body);
        if (!resp) {
          inner_ok = false;
          return;
        }
        out.push_back(std::move(*resp));
      });
  if (n == 0 || !inner_ok) return std::nullopt;
  return out;
}

}  // namespace psmr::smr
