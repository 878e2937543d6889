// Response-path batching: the shared frame codec, the reply direction of
// the frame spool, the ClientProxy demultiplexer, and end-to-end
// convergence with the reply spool at its default caps and at a cap of 1.
//
// The codec suite doubles as the hardening coverage for the frames a node
// decodes straight off the network — kSmrResponseMany at a client proxy
// and SUBMIT_MANY at a coordinator: truncated lengths, zero-entry frames
// and oversized counts must reject, and a fuzz loop mutates valid frames
// of both kinds to check that no input can over-read or crash.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>

#include "kvstore/kv_client.h"
#include "smr/client.h"
#include "smr/response_batch.h"
#include "smr/runtime.h"
#include "transport/frame_spool.h"
#include "test_support.h"
#include "util/rng.h"

namespace psmr::smr {
namespace {

using namespace std::chrono_literals;

Response make_response(ClientId client, Seq seq, std::uint8_t fill,
                       std::size_t payload_len = 8) {
  Response r;
  r.client = client;
  r.seq = seq;
  r.payload.assign(payload_len, fill);
  return r;
}

std::vector<util::Buffer> encode_all(const std::vector<Response>& responses) {
  std::vector<util::Buffer> encoded;
  encoded.reserve(responses.size());
  for (const auto& r : responses) encoded.push_back(r.encode());
  return encoded;
}

/// The shared frame layout, built independently of the spool: u32 count +
/// count length-prefixed entries.
util::Buffer frame_of(const std::vector<util::Buffer>& entries) {
  util::Writer w;
  w.u32(static_cast<std::uint32_t>(entries.size()));
  for (const auto& e : entries) w.bytes(e);
  return w.take();
}

util::Buffer response_frame(const std::vector<Response>& responses) {
  return frame_of(encode_all(responses));
}

/// A SUBMIT_MANY frame of `n` encoded commands.
util::Buffer submit_frame(std::size_t n, util::SplitMix64& rng) {
  std::vector<util::Buffer> cmds;
  for (std::size_t i = 0; i < n; ++i) {
    Command c;
    c.cmd = static_cast<CommandId>(rng.next());
    c.client = rng.next();
    c.seq = rng.next();
    c.reply_to = static_cast<transport::NodeId>(rng.next());
    c.groups = multicast::GroupSet::single(0);
    c.params = util::Buffer(rng.next_below(32), 0x5a);
    cmds.push_back(c.encode());
  }
  return frame_of(cmds);
}

/// Whether the coordinator's frame decoder accepts `frame`; counts the
/// entries it visits so a rejection can be checked to visit nothing.
bool submit_frame_accepted(std::span<const std::uint8_t> frame) {
  std::uint32_t visited = 0;
  const std::uint32_t n = transport::decode_frame(
      frame, [&](std::span<const std::uint8_t>) { ++visited; });
  EXPECT_EQ(visited, n);
  return n > 0;
}

// --- Wire codec ----------------------------------------------------------

TEST(ResponseBatchCodec, RoundTripsSingleAndMany) {
  for (std::size_t n : {std::size_t{1}, std::size_t{3}, std::size_t{64}}) {
    std::vector<Response> in;
    for (std::size_t i = 0; i < n; ++i) {
      in.push_back(make_response(i + 1, 100 + i, static_cast<std::uint8_t>(i),
                                 /*payload_len=*/i % 5));
    }
    auto frame = response_frame(in);
    auto out = decode_response_batch(frame);
    ASSERT_TRUE(out.has_value()) << n << " responses";
    ASSERT_EQ(out->size(), n);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ((*out)[i].client, in[i].client);
      EXPECT_EQ((*out)[i].seq, in[i].seq);
      EXPECT_EQ((*out)[i].payload, in[i].payload);
    }
  }
}

TEST(ResponseBatchCodec, RejectsZeroResponseFrame) {
  util::Writer w;
  w.u32(0);
  EXPECT_FALSE(decode_response_batch(w.view()).has_value());
  EXPECT_FALSE(submit_frame_accepted(w.view()));
  // ...also when trailing bytes dangle after the zero count.
  w.u32(123);
  EXPECT_FALSE(decode_response_batch(w.view()).has_value());
  EXPECT_FALSE(submit_frame_accepted(w.view()));
}

TEST(ResponseBatchCodec, RejectsOversizedCounts) {
  // Above the hard cap.
  util::Writer w;
  w.u32(kMaxResponsesPerMessage + 1);
  EXPECT_FALSE(decode_response_batch(w.view()).has_value());
  EXPECT_FALSE(submit_frame_accepted(w.view()));
  // Within the cap but impossible for the bytes present: a hostile count
  // must be rejected before any allocation is attempted.
  util::Writer w2;
  w2.u32(kMaxResponsesPerMessage);
  w2.u32(4);  // one lonely length prefix
  EXPECT_FALSE(decode_response_batch(w2.view()).has_value());
  EXPECT_FALSE(submit_frame_accepted(w2.view()));
}

TEST(ResponseBatchCodec, RejectsTruncatedLengthAndBody) {
  auto frame =
      response_frame({make_response(1, 1, 0xaa), make_response(2, 2, 0xbb)});
  // Every strict prefix must reject: truncation can cut a length prefix, a
  // response body, or the boundary between the two.
  for (std::size_t cut = 0; cut < frame.size(); ++cut) {
    util::Buffer prefix(frame.begin(),
                        frame.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_FALSE(decode_response_batch(prefix).has_value()) << "cut " << cut;
  }
  util::SplitMix64 rng(7);
  auto submit = submit_frame(3, rng);
  ASSERT_TRUE(submit_frame_accepted(submit));
  for (std::size_t cut = 0; cut < submit.size(); ++cut) {
    util::Buffer prefix(submit.begin(),
                        submit.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_FALSE(submit_frame_accepted(prefix)) << "submit cut " << cut;
  }
}

TEST(ResponseBatchCodec, RejectsTrailingBytes) {
  auto frame = response_frame({make_response(1, 1, 0xaa)});
  frame.push_back(0);
  EXPECT_FALSE(decode_response_batch(frame).has_value());
  util::SplitMix64 rng(7);
  auto submit = submit_frame(2, rng);
  submit.push_back(0);
  EXPECT_FALSE(submit_frame_accepted(submit));
}

TEST(ResponseBatchCodec, RejectsMalformedInnerResponse) {
  // A frame whose inner blob is not a valid Response encoding (too short
  // for the fixed header) must reject as a whole.
  util::Writer w;
  w.u32(1);
  util::Buffer junk{0x01, 0x02, 0x03};
  w.bytes(junk);
  EXPECT_FALSE(decode_response_batch(w.view()).has_value());
}

TEST(ResponseBatchCodec, FuzzedFramesNeverOverreadOrCrash) {
  util::SplitMix64 rng(test_support::logged_seed(0x5e5f));
  constexpr int kRounds = 4000;
  for (int round = 0; round < kRounds; ++round) {
    // Start from a valid frame — a response frame or a SUBMIT_MANY frame —
    // so mutations explore the interesting boundaries (counts, length
    // prefixes) rather than only the count check.
    const bool submit = rng.next_below(2) == 0;
    const std::size_t n = 1 + rng.next_below(6);
    util::Buffer frame;
    if (submit) {
      frame = submit_frame(n, rng);
    } else {
      std::vector<Response> in;
      for (std::size_t i = 0; i < n; ++i) {
        in.push_back(make_response(rng.next(), rng.next(),
                                   static_cast<std::uint8_t>(rng.next()),
                                   rng.next_below(32)));
      }
      frame = response_frame(in);
    }
    switch (rng.next_below(3)) {
      case 0: {  // flip a few bytes
        for (int flips = 1 + static_cast<int>(rng.next_below(4)); flips > 0;
             --flips) {
          frame[rng.next_below(frame.size())] ^=
              static_cast<std::uint8_t>(1 + rng.next_below(255));
        }
        break;
      }
      case 1: {  // truncate
        frame.resize(rng.next_below(frame.size()));
        break;
      }
      default: {  // replace with pure noise
        frame.resize(rng.next_below(96));
        for (auto& b : frame) b = static_cast<std::uint8_t>(rng.next());
        break;
      }
    }
    // Must not throw, crash, or read out of bounds (ASan/valgrind-visible);
    // any successful decode must stay within the declared cap.
    auto out = decode_response_batch(frame);
    if (out) {
      EXPECT_GE(out->size(), 1u);
      EXPECT_LE(out->size(), kMaxResponsesPerMessage);
    }
    std::uint32_t visited = 0;
    const std::uint32_t entries = transport::decode_frame(
        frame, [&](std::span<const std::uint8_t>) { ++visited; });
    EXPECT_EQ(visited, entries);
    EXPECT_LE(entries, transport::kMaxFrameEntries);
  }
}

// --- Reply spool ----------------------------------------------------------
// (Suite name kept from the class the reply spool replaced.)

/// One sender node, one receiver mailbox, and a reply spool between them.
struct CoalescerRig {
  explicit CoalescerRig(ReplyCaps caps = {}) {
    auto [sid, sbox] = net.register_node();
    sender = sid;
    auto [rid, rbox] = net.register_node();
    receiver = rid;
    box = std::move(rbox);
    spool = make_reply_spool(net, caps);
  }
  ~CoalescerRig() { net.shutdown(); }

  void send(transport::NodeId to, const Response& resp) {
    spool_reply(*spool, sender, to, resp);
  }
  /// The execution-batch boundary.
  void flush_batch() { spool->flush_all(sender); }
  [[nodiscard]] ResponseStats stats() const {
    return ResponseStats::of(spool->stats());
  }

  /// Pops one delivered wire message (fails the test on timeout).
  transport::Message pop() {
    auto msg = box->pop_for(2'000'000us);
    EXPECT_TRUE(msg.has_value()) << "no wire message arrived";
    return msg ? std::move(*msg) : transport::Message{};
  }

  transport::Network net;
  transport::NodeId sender = transport::kNoNode;
  transport::NodeId receiver = transport::kNoNode;
  std::shared_ptr<transport::Mailbox> box;
  std::unique_ptr<ReplySpool> spool;
};

TEST(ResponseCoalescer, SpoolsUntilBatchBoundaryThenSendsOneFrame) {
  CoalescerRig rig;
  std::vector<Response> sent;
  for (Seq s = 1; s <= 3; ++s) {
    sent.push_back(make_response(1, s, 0x11));
    rig.send(rig.receiver, sent.back());
  }
  // Nothing on the wire before the batch boundary.
  EXPECT_FALSE(rig.box->pop_for(10ms).has_value());
  rig.flush_batch();
  auto msg = rig.pop();
  EXPECT_EQ(msg.type, transport::MsgType::kSmrResponseMany);
  // Byte for byte the shared frame layout.
  EXPECT_EQ(msg.payload, response_frame(sent));
  auto batch = decode_response_batch(msg.payload);
  ASSERT_TRUE(batch.has_value());
  ASSERT_EQ(batch->size(), 3u);
  EXPECT_EQ((*batch)[0].seq, 1u);  // spool order preserved per destination
  EXPECT_EQ((*batch)[2].seq, 3u);
  auto stats = rig.stats();
  EXPECT_EQ(stats.wire_messages, 1u);
  EXPECT_EQ(stats.responses, 3u);
  EXPECT_EQ(stats.flush_batch, 1u);
  EXPECT_EQ(stats.flush_size + stats.flush_bytes + stats.flush_timeout, 0u);
  // An empty spool makes the next boundary a no-op.
  rig.flush_batch();
  EXPECT_EQ(rig.stats().wire_messages, 1u);
}

TEST(ResponseCoalescer, LoneResponseKeepsPlainFraming) {
  CoalescerRig rig;
  const Response r = make_response(1, 7, 0x22);
  rig.send(rig.receiver, r);
  rig.flush_batch();
  auto msg = rig.pop();
  EXPECT_EQ(msg.type, transport::MsgType::kSmrResponse);
  EXPECT_EQ(msg.payload, r.encode());  // no count, no length prefix
  auto resp = Response::decode(msg.payload);
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->seq, 7u);
}

TEST(ResponseCoalescer, SizeCapFlushesWithoutBoundary) {
  ReplyCaps caps;
  caps.max_responses = 2;
  CoalescerRig rig(caps);
  rig.send(rig.receiver, make_response(1, 1, 0x33));
  rig.send(rig.receiver, make_response(1, 2, 0x33));
  auto msg = rig.pop();  // no flush_batch needed
  auto batch = decode_response_batch(msg.payload);
  ASSERT_TRUE(batch.has_value());
  EXPECT_EQ(batch->size(), 2u);
  auto stats = rig.stats();
  EXPECT_EQ(stats.flush_size, 1u);
  EXPECT_EQ(stats.flush_batch, 0u);
}

TEST(ResponseCoalescer, CapReasonIsAttributedOnlyToTheTrippedBucket) {
  // Destination A trips the size cap while destination B merely has a
  // spooled response: the cap flushes A's frame only, and B's leaves at
  // the batch boundary — only A's wire message counts under flush_size.
  ReplyCaps caps;
  caps.max_responses = 2;
  CoalescerRig rig(caps);
  auto [other, other_box] = rig.net.register_node();
  auto obox = other_box;
  rig.send(other, make_response(2, 1, 0x11));
  rig.send(rig.receiver, make_response(1, 1, 0x11));
  rig.send(rig.receiver, make_response(1, 2, 0x11));  // trips cap
  rig.pop();
  EXPECT_FALSE(obox->pop_for(10ms).has_value());
  rig.flush_batch();
  ASSERT_TRUE(obox->pop_for(2'000'000us).has_value());
  auto stats = rig.stats();
  EXPECT_EQ(stats.wire_messages, 2u);
  EXPECT_EQ(stats.flush_size, 1u);
  EXPECT_EQ(stats.flush_batch, 1u);
}

TEST(ResponseCoalescer, ByteCapFlushesWithoutBoundary) {
  ReplyCaps caps;
  caps.max_bytes = 64;
  CoalescerRig rig(caps);
  rig.send(rig.receiver, make_response(1, 1, 0x44, /*payload_len=*/80));
  auto msg = rig.pop();
  EXPECT_EQ(msg.type, transport::MsgType::kSmrResponse);  // lone response
  EXPECT_EQ(rig.stats().flush_bytes, 1u);
}

TEST(ResponseCoalescer, AgedSpoolFlushesOnNextSend) {
  ReplyCaps caps;
  caps.max_delay = std::chrono::microseconds(0);  // every send is "aged"
  CoalescerRig rig(caps);
  rig.send(rig.receiver, make_response(1, 1, 0x55));
  auto msg = rig.pop();
  EXPECT_EQ(msg.type, transport::MsgType::kSmrResponse);
  EXPECT_EQ(rig.stats().flush_timeout, 1u);
}

TEST(ResponseCoalescer, BucketsPerDestination) {
  CoalescerRig rig;
  auto [other, other_box] = rig.net.register_node();
  auto obox = other_box;
  rig.send(rig.receiver, make_response(1, 1, 0x66));
  rig.send(other, make_response(2, 1, 0x77));
  rig.send(rig.receiver, make_response(1, 2, 0x66));
  rig.flush_batch();
  auto msg = rig.pop();
  auto batch = decode_response_batch(msg.payload);
  ASSERT_TRUE(batch.has_value());
  EXPECT_EQ(batch->size(), 2u);
  EXPECT_EQ((*batch)[0].client, 1u);
  auto omsg = obox->pop_for(2'000'000us);
  ASSERT_TRUE(omsg.has_value());
  EXPECT_EQ(omsg->type, transport::MsgType::kSmrResponse);
  auto stats = rig.stats();
  EXPECT_EQ(stats.wire_messages, 2u);
  EXPECT_EQ(stats.responses, 3u);
}

TEST(ResponseCoalescer, DisabledModeSendsEachReplyDirectly) {
  // A response cap of 1: every reply leaves on append, plainly framed, on
  // the same code path.
  ReplyCaps caps;
  caps.max_responses = 1;
  CoalescerRig rig(caps);
  for (Seq s = 1; s <= 3; ++s) {
    rig.send(rig.receiver, make_response(1, s, 0x88));
    auto msg = rig.pop();
    EXPECT_EQ(msg.type, transport::MsgType::kSmrResponse);
  }
  rig.flush_batch();  // no-op
  auto stats = rig.stats();
  EXPECT_EQ(stats.wire_messages, 3u);
  EXPECT_EQ(stats.responses, 3u);
  EXPECT_EQ(stats.flush_size, 3u);
  EXPECT_EQ(stats.flush_batch, 0u);
}

TEST(ResponseCoalescer, FlushPauseRendezvousCarriesConcurrentSpool) {
  // Reply direction: two batch-boundary flushes to one proxy node meet in
  // the reply spool.  The same rendezvous runs on the submit spool in
  // Coalescer.ConcurrentSharedRingSubmitsPiggyback.
  transport::Network net;
  auto [replica, replica_box] = net.register_node();
  auto [proxy, proxy_box] = net.register_node();
  auto replies = make_reply_spool(net, ReplyCaps{});
  auto reply = [&](Seq seq) {
    spool_reply(*replies, replica, proxy, make_response(1, seq, 0x99));
    replies->flush_all(replica);
  };
  test_support::flush_pause_rendezvous(
      *replies, [&] { reply(1); }, [&] { reply(2); });
  for (Seq seq : {1, 2}) {
    auto m = proxy_box->pop_for(2s);
    ASSERT_TRUE(m.has_value());
    EXPECT_EQ(m->type, transport::MsgType::kSmrResponse);
    auto r = Response::decode(m->payload);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->seq, seq);
  }
  net.shutdown();
}

// --- ClientProxy demultiplexer -------------------------------------------

/// Direct-mode proxy against a hand-driven fake server mailbox.
struct ProxyRig {
  ProxyRig() {
    auto [sid, sbox] = net.register_node();
    server = sid;
    box = std::move(sbox);
    proxy = std::make_unique<ClientProxy>(net, server, /*id=*/7);
  }
  ~ProxyRig() { net.shutdown(); }

  /// Receives one submitted command at the fake server.
  Command recv() {
    auto msg = box->pop_for(2'000'000us);
    EXPECT_TRUE(msg.has_value());
    auto cmd = msg ? Command::decode(msg->payload) : std::nullopt;
    EXPECT_TRUE(cmd.has_value());
    return cmd ? std::move(*cmd) : Command{};
  }

  transport::Network net;
  transport::NodeId server = transport::kNoNode;
  std::shared_ptr<transport::Mailbox> box;
  std::unique_ptr<ClientProxy> proxy;
};

Response reply_to(const Command& cmd, std::uint8_t fill) {
  return make_response(cmd.client, cmd.seq, fill);
}

TEST(ProxyDemux, MultiResponseFrameCompletesSeveralCommands) {
  ProxyRig rig;
  ASSERT_TRUE(rig.proxy->submit(1, {}).has_value());
  ASSERT_TRUE(rig.proxy->submit(1, {}).has_value());
  ASSERT_TRUE(rig.proxy->submit(1, {}).has_value());
  std::vector<Command> cmds;
  for (int i = 0; i < 3; ++i) cmds.push_back(rig.recv());
  EXPECT_EQ(rig.proxy->outstanding(), 3u);
  // Replies arrive out of submission order inside one frame.
  std::vector<Response> replies = {reply_to(cmds[2], 3), reply_to(cmds[0], 1),
                                   reply_to(cmds[1], 2)};
  rig.net.send(rig.server, cmds[0].reply_to,
               transport::MsgType::kSmrResponseMany,
               response_frame(replies));
  // One frame, three poll() completions, in the frame's order.
  std::vector<Seq> seqs;
  for (int i = 0; i < 3; ++i) {
    auto done = rig.proxy->poll(2'000'000us);
    ASSERT_TRUE(done.has_value());
    seqs.push_back(done->seq);
    EXPECT_GE(done->latency_us, 0);
    // Completions already decoded still count as outstanding until polled.
    EXPECT_EQ(rig.proxy->outstanding(), static_cast<std::size_t>(2 - i));
  }
  EXPECT_EQ(seqs, (std::vector<Seq>{cmds[2].seq, cmds[0].seq, cmds[1].seq}));
}

TEST(ProxyDemux, DuplicateReplicaFramesAreAbsorbed) {
  ProxyRig rig;
  ASSERT_TRUE(rig.proxy->submit(1, {}).has_value());
  ASSERT_TRUE(rig.proxy->submit(1, {}).has_value());
  std::vector<Command> cmds = {rig.recv(), rig.recv()};
  auto frame = response_frame({reply_to(cmds[0], 1), reply_to(cmds[1], 2)});
  // Two replicas, same coalesced frame.
  rig.net.send(rig.server, cmds[0].reply_to,
               transport::MsgType::kSmrResponseMany, frame);
  rig.net.send(rig.server, cmds[0].reply_to,
               transport::MsgType::kSmrResponseMany, frame);
  ASSERT_TRUE(rig.proxy->poll(2'000'000us).has_value());
  ASSERT_TRUE(rig.proxy->poll(2'000'000us).has_value());
  // The duplicate frame produces no third completion.
  EXPECT_FALSE(rig.proxy->poll(50ms).has_value());
  EXPECT_EQ(rig.proxy->outstanding(), 0u);
}

TEST(ProxyDemux, MalformedFrameIsIgnoredNotFatal) {
  ProxyRig rig;
  ASSERT_TRUE(rig.proxy->submit(1, {}).has_value());
  Command cmd = rig.recv();
  util::Buffer junk{0xde, 0xad, 0xbe};
  rig.net.send(rig.server, cmd.reply_to, transport::MsgType::kSmrResponseMany,
               junk);
  // The real reply after the junk still completes the call.
  rig.net.send(rig.server, cmd.reply_to, transport::MsgType::kSmrResponse,
               reply_to(cmd, 5).encode());
  auto done = rig.proxy->poll(2'000'000us);
  ASSERT_TRUE(done.has_value());
  EXPECT_EQ(done->seq, cmd.seq);
}

TEST(ProxyDemux, MixedKnownAndUnknownSeqsCompleteOnlyKnown) {
  ProxyRig rig;
  ASSERT_TRUE(rig.proxy->submit(1, {}).has_value());
  Command cmd = rig.recv();
  Response phantom = make_response(cmd.client, cmd.seq + 1000, 9);
  auto frame = response_frame({phantom, reply_to(cmd, 1), phantom});
  rig.net.send(rig.server, cmd.reply_to, transport::MsgType::kSmrResponseMany,
               frame);
  auto done = rig.proxy->poll(2'000'000us);
  ASSERT_TRUE(done.has_value());
  EXPECT_EQ(done->seq, cmd.seq);
  EXPECT_FALSE(rig.proxy->poll(50ms).has_value());
}

// --- End-to-end: default reply caps vs a cap of 1 on both replica modes ---

class ResponseConvergence : public ::testing::TestWithParam<Mode> {};

TEST_P(ResponseConvergence, CoalescedAndUncoalescedRepliesConverge) {
  const Mode mode = GetParam();
  constexpr int kClients = 3;
  constexpr int kOps = 120;
  const std::uint64_t keys = kClients * 100;

  auto run_with = [&](bool coalesce, ResponseStats* stats) {
    auto cfg = test_support::kv_config(mode, /*mpl=*/2, keys);
    if (!coalesce) cfg.reply_caps.max_responses = 1;
    test_support::Cluster cluster(std::move(cfg));
    std::uint64_t digest = test_support::run_disjoint_kv_workload(
        cluster.deployment(), kClients, kOps);
    *stats = cluster->response_stats();
    return digest;
  };

  ResponseStats coalesced;
  ResponseStats uncoalesced;
  std::uint64_t digest_on = run_with(true, &coalesced);
  std::uint64_t digest_off = run_with(false, &uncoalesced);

  // Reply batching is invisible to the service: identical state either way.
  EXPECT_EQ(digest_on, digest_off);

  // Every executed command's reply went through the counters: both replicas
  // reply to every command they execute.
  const auto total = static_cast<std::uint64_t>(kClients * kOps);
  EXPECT_GE(coalesced.responses, 2 * total);
  EXPECT_GE(uncoalesced.responses, 2 * total);

  // Reply cap 1: exactly one wire message per reply, each closed by the
  // cap on append.
  EXPECT_EQ(uncoalesced.wire_messages, uncoalesced.responses);
  EXPECT_EQ(uncoalesced.flush_size, uncoalesced.wire_messages);

  // Default caps: batch-boundary flushes happened, the reason counters
  // partition the wire messages, and — with 3 clients pipelining 32-deep
  // onto 2 workers — at least some frame carried more than one reply.
  EXPECT_GT(coalesced.flush_batch, 0u);
  EXPECT_EQ(coalesced.flush_batch + coalesced.flush_size +
                coalesced.flush_bytes + coalesced.flush_timeout,
            coalesced.wire_messages);
  EXPECT_LT(coalesced.wire_messages, coalesced.responses);
  EXPECT_GT(coalesced.mean_responses_per_message(), 1.0);
}

INSTANTIATE_TEST_SUITE_P(Modes, ResponseConvergence,
                         ::testing::Values(Mode::kPsmr, Mode::kSpsmr),
                         [](const auto& info) {
                           return info.param == Mode::kPsmr ? "psmr" : "spsmr";
                         });

}  // namespace
}  // namespace psmr::smr
