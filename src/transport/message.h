// Message envelope for the in-process network.
//
// The paper's system model (Section II) assumes message passing with
// one-to-one send/receive plus an atomic multicast library layered on top.
// We reproduce that: every process (client proxy, Paxos coordinator,
// acceptor, replica learner sink) is a Node with a mailbox; `type` selects
// the handler and `payload` carries a schema-private body (util::Writer
// format).  Type ranges are partitioned per layer so a single mailbox can
// serve several protocols.
#pragma once

#include <cstdint>

#include "util/buffer_pool.h"
#include "util/bytes.h"

namespace psmr::transport {

/// Identifies a mailbox within one Network.
using NodeId = std::uint32_t;

/// Sentinel for "no node".
inline constexpr NodeId kNoNode = 0xffffffffu;

/// Message type tags.  Layers own disjoint ranges.
enum MsgType : std::uint16_t {
  // Paxos (ring) protocol: 1..19
  kPaxosSubmit = 1,     // client/proxy -> coordinator: command bytes
  kPaxosPrepare = 2,    // coordinator -> acceptor
  kPaxosPromise = 3,    // acceptor -> coordinator
  kPaxosAccept = 4,     // coordinator -> acceptor
  kPaxosAccepted = 5,   // acceptor -> coordinator
  kPaxosNack = 6,       // acceptor -> coordinator: ballot too low
  kPaxosDecide = 7,     // coordinator -> learner: decided batch
  kPaxosCatchupReq = 8, // learner -> acceptor: re-learn decided instances
  kPaxosCatchupRep = 9, // acceptor -> learner
  kPaxosSubmitMany = 10, // client/proxy -> coordinator: coalesced commands
  kPaxosCheckpointAck = 11, // replica -> acceptor: checkpoint covers < inst
  kPaxosCover = 12,     // coordinator -> merge peer coordinator: u64 slot
  // SMR layer: 30..39
  kSmrResponse = 30,    // replica worker -> client proxy
  kSmrDirect = 31,      // client -> unreplicated server (no-rep / lock server)
  kSmrResponseMany = 32, // replica -> client proxy: coalesced responses
  kSmrSnapshotReq = 34,  // recovering replica -> peer: latest checkpoint?
  kSmrSnapshotRep = 35,  // peer -> recovering replica: u8 has, bytes frame
};

/// Envelope delivered to a Node's mailbox.
///
/// `payload` is a zero-copy handle (view + shared pool block, see
/// util/buffer_pool.h): copying a Message for fan-out bumps a refcount
/// instead of cloning the bytes, and a util::Buffer passed where a Payload
/// is expected converts implicitly (one copy into the pool, at the
/// boundary).
struct Message {
  NodeId from = kNoNode;
  NodeId to = kNoNode;
  std::uint16_t type = 0;
  util::Payload payload;
};

}  // namespace psmr::transport
