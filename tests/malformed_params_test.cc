// Seeded fuzz over hostile parameter blocks.  A client that bypasses the
// proxies' encoders can send any bytes as a command's parameters, and
// every replica receives the same bytes; so for the KV store and NetFS,
// random command ids and parameter blocks go through the C-G key
// functions, SchedulerCore::schedule() and Service::execute.  No exception
// may escape, and two replicas fed the same stream must give identical
// answers and end in the same state.
#include <gtest/gtest.h>

#include <chrono>
#include <map>

#include "kvstore/kv_service.h"
#include "netfs/fs_service.h"
#include "smr/scheduler.h"
#include "test_support.h"
#include "util/compress.h"
#include "util/rng.h"

namespace psmr {
namespace {

using smr::Command;

constexpr int kCommands = 2000;
constexpr std::size_t kWorkers = 4;

util::Buffer random_bytes(util::SplitMix64& rng, std::size_t max_len) {
  util::Buffer b(rng.next_below(max_len + 1));
  for (auto& x : b) x = static_cast<std::uint8_t>(rng.next());
  return b;
}

/// A prefix of `b`, cut at a random length (possibly all of it).
util::Buffer truncated(util::SplitMix64& rng, util::Buffer b) {
  b.resize(rng.next_below(b.size() + 1));
  return b;
}

/// What one service family needs for the fuzz: fresh replicas of its
/// service, its C-G and key function, and a generator of hostile commands.
struct Target {
  std::function<std::unique_ptr<smr::Service>()> make_service;
  std::shared_ptr<const smr::CGFunction> cg;
  smr::KeyFn key_fn;
  std::function<Command(util::SplitMix64&)> make_command;
};

Target kv_target() {
  Target t;
  t.make_service = [] { return std::make_unique<kvstore::KvService>(64); };
  t.cg = kvstore::kv_keyed_cg(kWorkers);
  t.key_fn = kvstore::kv_key_fn();
  t.make_command = [](util::SplitMix64& rng) {
    Command c;
    c.cmd = static_cast<smr::CommandId>(
        rng.next_below(kvstore::kKvMaxCommand + 2));
    const std::uint64_t k = rng.next_below(96);
    switch (rng.next_below(4)) {
      case 0:  // well formed, so the state the replicas compare moves
        c.params = c.cmd == kvstore::kKvMultiRead
                       ? kvstore::encode_keys({k, k + 1})
                       : kvstore::encode_key_value(k, rng.next());
        break;
      case 1: {  // a multi-read count its block cannot hold
        util::Writer w;
        w.u32(0xffffffffu);
        w.u64(k);
        c.params = w.take();
        break;
      }
      case 2:
        c.params = truncated(rng, kvstore::encode_key_value(k, k));
        break;
      default:
        c.params = random_bytes(rng, 20);
    }
    return c;
  };
  return t;
}

Target fs_target() {
  Target t;
  t.make_service = [] {
    return smr::make_batched(std::make_unique<netfs::FsService>());
  };
  t.cg = netfs::fs_cg(kWorkers);
  t.key_fn = netfs::fs_key_fn();
  t.make_command = [](util::SplitMix64& rng) {
    static const char* const kPaths[] = {"/a", "/b", "/d", "/d/x"};
    const std::string path = kPaths[rng.next_below(4)];
    util::Buffer plain;
    switch (rng.next_below(4)) {
      case 0:
        plain = netfs::encode_path_mode(path, 0644);
        break;
      case 1:
        plain = netfs::encode_write(path, rng.next_below(64),
                                    util::Buffer(rng.next_below(32), 0x5a));
        break;
      case 2:
        plain = netfs::encode_read(path, 0, 64);
        break;
      default:
        plain = random_bytes(rng, 24);
    }
    Command c;
    c.cmd = static_cast<smr::CommandId>(
        rng.next_below(netfs::kFsMaxCommand + 2));
    switch (rng.next_below(3)) {
      case 0:  // well formed
        c.params = netfs::pack_params(plain);
        break;
      case 1:  // decompresses to a plaintext short of its schema
        c.params = netfs::pack_params(truncated(rng, plain));
        break;
      default:  // not a compressed block at all
        c.params = random_bytes(rng, 24);
    }
    return c;
  };
  return t;
}

std::vector<Command> hostile_stream(const Target& t, std::uint64_t seed) {
  util::SplitMix64 rng(seed);
  std::vector<Command> cmds;
  for (int i = 0; i < kCommands; ++i) {
    Command c = t.make_command(rng);
    c.client = 1;
    c.seq = static_cast<smr::Seq>(i + 1);
    cmds.push_back(std::move(c));
  }
  return cmds;
}

/// One replica's answers, by seq, and its final state digest.
struct Outcome {
  std::map<smr::Seq, util::Buffer> replies;
  std::uint64_t digest = 0;
};

/// Runs `cmds` through a SchedulerCore with kWorkers workers and collects
/// every reply.
Outcome run_scheduler(const Target& t, std::vector<Command> cmds) {
  transport::Network net;
  smr::SchedulerCore core(net, t.make_service(), t.cg, kWorkers, "fuzz");
  auto [me, box] = net.register_node();
  core.start();
  for (auto& c : cmds) {
    c.reply_to = me;
    core.schedule(std::move(c));
  }
  Outcome out;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (out.replies.size() < cmds.size() &&
         std::chrono::steady_clock::now() < deadline) {
    auto msg = box->pop_for(std::chrono::milliseconds(50));
    if (!msg) continue;
    std::vector<smr::Response> resps;
    if (msg->type == transport::MsgType::kSmrResponseMany) {
      resps = smr::decode_response_batch(msg->payload).value();
    } else {
      resps.push_back(smr::Response::decode(msg->payload).value());
    }
    for (auto& r : resps) out.replies[r.seq] = std::move(r.payload);
  }
  core.stop();
  out.digest = core.service().state_digest();
  net.shutdown();
  return out;
}

void fuzz_key_and_execute(const Target& t, std::uint64_t seed) {
  auto cmds = hostile_stream(t, seed);
  auto a = t.make_service();
  auto b = t.make_service();
  for (const Command& c : cmds) {
    SCOPED_TRACE(testing::Message() << "command " << c.cmd << ", "
                                    << c.params.size() << " param bytes");
    multicast::GroupSet groups;
    ASSERT_NO_THROW(t.key_fn(c));
    ASSERT_NO_THROW(groups = t.cg->groups(c));
    EXPECT_FALSE(groups.empty());
    util::Buffer ra, rb;
    ASSERT_NO_THROW(ra = a->execute(c));
    ASSERT_NO_THROW(rb = b->execute(c));
    EXPECT_EQ(ra, rb);
  }
  EXPECT_EQ(a->state_digest(), b->state_digest());
}

void fuzz_scheduler(const Target& t, std::uint64_t seed) {
  auto cmds = hostile_stream(t, seed);
  Outcome a = run_scheduler(t, cmds);
  Outcome b = run_scheduler(t, cmds);
  ASSERT_EQ(a.replies.size(), cmds.size());
  ASSERT_EQ(b.replies.size(), cmds.size());
  EXPECT_EQ(a.replies, b.replies);
  EXPECT_EQ(a.digest, b.digest);
}

TEST(MalformedParams, KvKeyFnAndExecuteNeverThrow) {
  fuzz_key_and_execute(kv_target(), test_support::logged_seed(7));
}

TEST(MalformedParams, KvSchedulerReplicasAgree) {
  fuzz_scheduler(kv_target(), test_support::logged_seed(7));
}

TEST(MalformedParams, KvShardedCgBoundsMultiReadCount) {
  // A multi-read whose count claims 2^32 - 1 keys over an 8-byte block must
  // not size anything by that count.
  auto cg = kvstore::kv_sharded_cg(
      multicast::ShardMap(multicast::ShardPolicy::kHash, 4, 1 << 20));
  util::Writer w;
  w.u32(0xffffffffu);
  w.u64(3);
  Command c;
  c.cmd = kvstore::kKvMultiRead;
  c.params = w.take();
  EXPECT_FALSE(cg->groups(c).empty());
  kvstore::KvService svc(8);
  EXPECT_NO_THROW(svc.execute(c));
}

TEST(MalformedParams, FsKeyFnAndExecuteNeverThrow) {
  fuzz_key_and_execute(fs_target(), test_support::logged_seed(7));
}

TEST(MalformedParams, FsSchedulerReplicasAgree) {
  fuzz_scheduler(fs_target(), test_support::logged_seed(7));
}

TEST(MalformedParams, FsShortPlaintextAnswersEio) {
  // The probe: a read whose parameters decompress to two bytes.
  Command c;
  c.cmd = netfs::kFsRead;
  c.params = util::lz_compress(util::Buffer{1, 2});
  std::optional<std::uint64_t> key;
  EXPECT_NO_THROW(key = netfs::fs_key_fn()(c));
  EXPECT_FALSE(key.has_value());
  netfs::FsService svc;
  util::Buffer reply;
  ASSERT_NO_THROW(reply = svc.execute(c));
  EXPECT_EQ(netfs::decode_result(netfs::kFsRead, reply).err, -EIO);
}

}  // namespace
}  // namespace psmr
