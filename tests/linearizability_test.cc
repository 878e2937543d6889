// Linearizability check over the real P-SMR stack (paper Section IV-E
// claims P-SMR is linearizable; this test checks the register case
// empirically on recorded histories).
//
// Setup: one writer performs sequential updates 1..N on a key; concurrent
// reader clients time-stamp their invocations and responses.  For an atomic
// register with a sequential writer, linearizability is exactly:
//   (1) every read returns a value some update actually wrote (or the
//       initial value);
//   (2) a read invoked after update_i completed returns a value >= i
//       (reads never travel back past a completed write);
//   (3) a read that responded before update_j was invoked returns < j
//       (reads never see the future);
//   (4) per reader, returned values are monotonically non-decreasing
//       (session order respects the register's total write order).
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <string_view>
#include <thread>

#include "kvstore/kv_client.h"
#include "smr/runtime.h"
#include "test_support.h"
#include "util/clock.h"

namespace psmr::smr {
namespace {

using kvstore::KvClient;

struct ReadRecord {
  std::int64_t invoked_us;
  std::int64_t responded_us;
  std::uint64_t value;
};

// (mpl, batching profile, execution run length, reply cap):
// "default" is the tuned test ring; the aggressive profiles re-run the same
// history check under multicast-batching extremes (near-zero timeout /
// cap-driven sealing), which is where a batcher bug would first corrupt
// ordering.  run_length forces replica-side execution batching fully on (8)
// or off (1) — a batch accumulator that ever groups a dependent read/update
// pair shows up here as a stale or futuristic read.  reply_cap re-runs the
// check with the reply spool's response cap at 1 (default 64: replies of a
// batch share a frame): a demux or flush bug shows up as a lost,
// duplicated or reordered-per-seq completion.
struct LinParam {
  int mpl;
  const char* profile;
  std::size_t run_length = 16;
  std::size_t reply_cap = ReplyCaps{}.max_responses;
};

paxos::RingConfig ring_for(const char* profile) {
  if (std::string_view(profile) == "default") {
    return test_support::fast_ring();
  }
  for (const auto& named : test_support::aggressive_batching_rings()) {
    if (std::string_view(named.name) == profile) return named.ring;
  }
  ADD_FAILURE() << "unknown batching profile " << profile;
  return test_support::fast_ring();
}

class PsmrLinearizability : public ::testing::TestWithParam<LinParam> {};

TEST_P(PsmrLinearizability, SequentialWriterConcurrentReaders) {
  const int mpl = GetParam().mpl;
  auto cfg = test_support::kv_config_with_ring(
      Mode::kPsmr, static_cast<std::size_t>(mpl),
      ring_for(GetParam().profile), /*initial_keys=*/16);
  cfg.exec_run_length = GetParam().run_length;
  cfg.reply_caps.max_responses = GetParam().reply_cap;
  // fast_ring() is tuned for ~9 rings; stretch the idle-skip cadence at 16
  // groups the same way sharded_kv_config does, to hold aggregate skip load
  // roughly constant on this small host.
  if (mpl > 8) cfg.ring.skip_interval *= mpl / 8;
  test_support::Cluster cluster(std::move(cfg));
  Deployment& d = cluster.deployment();

  constexpr std::uint64_t kKey = 5;
  constexpr std::uint64_t kWrites = 60;
  constexpr std::uint64_t kValueBase = 1'000'000;
  // update_done[i] = wall time when update with value i completed (0 = not
  // yet).  Value 0 is the preloaded initial value.
  std::vector<std::atomic<std::int64_t>> update_done(kWrites + 1);
  std::vector<std::atomic<std::int64_t>> update_invoked(kWrites + 1);
  for (auto& t : update_done) t = 0;
  for (auto& t : update_invoked) t = 0;
  update_done[0] = 1;  // initial value "completed" at the beginning

  std::atomic<bool> writer_finished{false};
  std::thread writer([&] {
    KvClient kv(d.make_client());
    for (std::uint64_t v = 1; v <= kWrites; ++v) {
      update_invoked[v] = util::now_us();
      // Offset distinguishes written values from the preloaded one.
      ASSERT_EQ(kv.update(kKey, kValueBase + v), kvstore::kKvOk);
      update_done[v] = util::now_us();
    }
    writer_finished = true;
  });

  constexpr int kReaders = 3;
  std::vector<std::vector<ReadRecord>> histories(kReaders);
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      KvClient kv(d.make_client());
      while (!writer_finished.load(std::memory_order_relaxed)) {
        ReadRecord rec;
        rec.invoked_us = util::now_us();
        auto v = kv.read(kKey);
        rec.responded_us = util::now_us();
        ASSERT_TRUE(v.has_value());
        // Preloaded value (the key itself) maps to write index 0.
        rec.value = *v == kKey ? 0 : *v - kValueBase;
        histories[static_cast<std::size_t>(r)].push_back(rec);
      }
    });
  }
  writer.join();
  for (auto& t : readers) t.join();

  for (const auto& history : histories) {
    ASSERT_FALSE(history.empty());
    std::uint64_t prev = 0;
    for (const auto& rec : history) {
      // (1) only written values.
      ASSERT_LE(rec.value, kWrites);
      // (2) no stale reads: every update completed before this read was
      // invoked must be visible.
      for (std::uint64_t v = kWrites; v > rec.value; --v) {
        std::int64_t done = update_done[v].load();
        ASSERT_FALSE(done != 0 && done < rec.invoked_us)
            << "read returned " << rec.value << " but update " << v
            << " completed " << rec.invoked_us - done << "us earlier";
      }
      // (3) no futuristic reads: the returned value's update must have been
      // invoked before the read responded.
      if (rec.value > 0) {
        ASSERT_LE(update_invoked[rec.value].load(), rec.responded_us);
      }
      // (4) per-session monotonicity.
      ASSERT_GE(rec.value, prev) << "read values went backwards";
      prev = rec.value;
    }
  }
  EXPECT_EQ(d.state_digest(0), d.state_digest(1));
}

INSTANTIATE_TEST_SUITE_P(
    Mpl, PsmrLinearizability,
    ::testing::Values(LinParam{1, "default"}, LinParam{4, "default"},
                      LinParam{8, "default"},
                      // 17 rings (16 worker groups + shared): the
                      // many-shard merge rotation must stay linearizable.
                      LinParam{16, "default"},
                      LinParam{4, "tiny-timeout"}, LinParam{4, "tiny-cap"},
                      LinParam{4, "default", /*run_length=*/8},
                      LinParam{4, "default", /*run_length=*/1},
                      // One reply-cap-1 pass on the tuned ring; the
                      // response_batching_test convergence suite covers
                      // both caps on both replica modes.
                      LinParam{4, "default", /*run_length=*/16,
                               /*reply_cap=*/1}),
    [](const auto& info) {
      std::string name =
          "mpl" + std::to_string(info.param.mpl) + "_" + info.param.profile +
          "_rl" + std::to_string(info.param.run_length);
      if (info.param.reply_cap == 1) name += "_nocoalesce";
      for (auto& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace psmr::smr
