// Batch-aware Service execution API (service.h): ExecStats accounting, the
// KvService read-lane batch path, SchedulerCore run accumulation (bounds,
// conflict splits, dedup eviction), and end-to-end convergence — replicas
// running with batched execution forced on (run length >= 8) and forced off
// (run length 1) must produce identical state digests, because batch
// boundaries only ever separate independent commands.
#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <thread>
#include <vector>

#include "kvstore/kv_client.h"
#include "smr/runtime.h"
#include "smr/scheduler.h"
#include "test_support.h"
#include "util/sync.h"

namespace psmr::smr {
namespace {

using kvstore::KvService;

Command make_cmd(CommandId id, ClientId client, Seq seq, util::Buffer params,
                 transport::NodeId reply_to = transport::kNoNode) {
  Command c;
  c.cmd = id;
  c.client = client;
  c.seq = seq;
  c.reply_to = reply_to;
  c.params = std::move(params);
  return c;
}

// --- ExecStats accounting + the KvService batch path ----------------------

TEST(ExecStats, CountsBatchesCommandsAndBatchedReads) {
  KvService svc(/*initial_keys=*/100);

  // A 4-command independent batch: three point reads and an update on a
  // key none of the reads touch.  The reads must resolve through the
  // pipelined lane; the update keeps its sequential path.
  std::vector<Command> cmds;
  cmds.push_back(make_cmd(kvstore::kKvRead, 1, 1, kvstore::encode_key(3)));
  cmds.push_back(make_cmd(kvstore::kKvRead, 1, 2, kvstore::encode_key(7)));
  cmds.push_back(
      make_cmd(kvstore::kKvUpdate, 1, 3, kvstore::encode_key_value(50, 999)));
  cmds.push_back(make_cmd(kvstore::kKvRead, 1, 4, kvstore::encode_key(8)));
  for (std::size_t i = 0; i + 1 < cmds.size(); ++i) {
    for (std::size_t j = i + 1; j < cmds.size(); ++j) {
      ASSERT_TRUE(svc.may_share_batch(cmds[i], cmds[j]))
          << "commands " << i << " and " << j;
    }
  }

  CollectingSink sink(cmds.size());
  CommandBatch batch{cmds, &sink};
  svc.execute_batch(batch);

  EXPECT_EQ(kvstore::decode_result(sink.responses[0]).value, 3u);
  EXPECT_EQ(kvstore::decode_result(sink.responses[1]).value, 7u);
  EXPECT_EQ(kvstore::decode_result(sink.responses[2]).status, kvstore::kKvOk);
  EXPECT_EQ(kvstore::decode_result(sink.responses[3]).value, 8u);
  // The update landed even though the batch's reads resolved as one lane.
  EXPECT_EQ(kvstore::decode_result(svc.execute(make_cmd(
                kvstore::kKvRead, 1, 5, kvstore::encode_key(50)))).value,
            999u);

  ExecStats s = svc.exec_stats();
  EXPECT_EQ(s.batches, 2u);   // the 4-batch + the single read above
  EXPECT_EQ(s.commands, 5u);
  EXPECT_EQ(s.batched_reads, 3u);  // only the multi-command batch's reads
  EXPECT_EQ(s.max_batch, 4u);
  EXPECT_DOUBLE_EQ(s.mean_commands_per_batch(), 2.5);
  EXPECT_DOUBLE_EQ(s.batched_read_share(), 3.0 / 5.0);
}

TEST(ExecStats, ReadOfUpdatedKeyMayNotShareItsBatch) {
  KvService svc(100);
  Command upd =
      make_cmd(kvstore::kKvUpdate, 1, 1, kvstore::encode_key_value(5, 1));
  Command same_key_read =
      make_cmd(kvstore::kKvRead, 1, 2, kvstore::encode_key(5));
  Command other_key_read =
      make_cmd(kvstore::kKvRead, 1, 3, kvstore::encode_key(6));
  Command insert =
      make_cmd(kvstore::kKvInsert, 1, 4, kvstore::encode_key_value(200, 1));
  EXPECT_FALSE(svc.may_share_batch(upd, same_key_read));
  EXPECT_TRUE(svc.may_share_batch(upd, other_key_read));
  EXPECT_FALSE(svc.may_share_batch(insert, other_key_read));
  EXPECT_TRUE(svc.may_share_batch(same_key_read, other_key_read));
}

TEST(ExecStats, BatchedMultiReadAndPointReadsShareOnePipelinedPass) {
  KvService svc(100);
  std::vector<Command> cmds;
  cmds.push_back(make_cmd(kvstore::kKvRead, 1, 1, kvstore::encode_key(10)));
  cmds.push_back(make_cmd(kvstore::kKvMultiRead, 1, 2,
                          kvstore::encode_keys({20, 21, 1000})));
  cmds.push_back(make_cmd(kvstore::kKvRead, 1, 3, kvstore::encode_key(30)));
  CollectingSink sink(cmds.size());
  CommandBatch batch{cmds, &sink};
  svc.execute_batch(batch);

  EXPECT_EQ(kvstore::decode_result(sink.responses[0]).value, 10u);
  auto multi = kvstore::decode_multi_result(sink.responses[1]);
  ASSERT_EQ(multi.entries.size(), 3u);
  EXPECT_EQ(multi.entries[0].value, 20u);
  EXPECT_EQ(multi.entries[1].value, 21u);
  EXPECT_EQ(multi.entries[2].status, kvstore::kKvNotFound);
  EXPECT_EQ(kvstore::decode_result(sink.responses[2]).value, 30u);
  EXPECT_EQ(svc.exec_stats().batched_reads, 3u);
}

TEST(ExecStats, SequentialAdapterExecutesBatchInOrderAndRecords) {
  // A SequentialService wrapped by the adapter must observe batch members
  // one at a time, in batch order, and the adapter must record the stats.
  class OrderRecorder : public SequentialService {
   public:
    util::Buffer execute(const Command& cmd) override {
      seqs.push_back(cmd.seq);
      return {};
    }
    [[nodiscard]] std::uint64_t state_digest() const override {
      return seqs.size();
    }
    std::vector<Seq> seqs;
  };
  auto inner = std::make_unique<OrderRecorder>();
  auto* inner_ptr = inner.get();
  auto svc = make_batched(std::move(inner));

  std::vector<Command> cmds;
  for (Seq s = 1; s <= 5; ++s) cmds.push_back(make_cmd(1, 1, s, {}));
  CollectingSink sink(cmds.size());
  CommandBatch batch{cmds, &sink};
  svc->execute_batch(batch);

  EXPECT_EQ(inner_ptr->seqs, (std::vector<Seq>{1, 2, 3, 4, 5}));
  EXPECT_EQ(svc->exec_stats().batches, 1u);
  EXPECT_EQ(svc->exec_stats().commands, 5u);
  EXPECT_EQ(svc->exec_stats().batched_reads, 0u);
  // The adapter's default conflict answer keeps accumulated runs at 1.
  EXPECT_FALSE(svc->may_share_batch(cmds[0], cmds[1]));
}

// --- SchedulerCore run accumulation ---------------------------------------

// Batch-native service that records every batch's size and can gate its
// first execution so a test can fill the worker queue behind it.
class BatchRecordingService : public Service {
 public:
  [[nodiscard]] bool may_share_batch(const Command& x,
                                     const Command& y) const override {
    // Command id 1 shares with itself; id 2 conflicts with everything.
    return x.cmd == 1 && y.cmd == 1;
  }
  [[nodiscard]] std::uint64_t state_digest() const override {
    std::lock_guard lock(mu_);
    return sizes_.size();
  }
  [[nodiscard]] std::vector<std::size_t> sizes() const {
    std::lock_guard lock(mu_);
    return sizes_;
  }
  util::Signal entered;  // notified when the gated batch starts executing
  util::Signal release;  // lets the gated batch proceed
  std::atomic<bool> gate_next{false};

 protected:
  void do_execute_batch(CommandBatch& batch) override {
    if (gate_next.exchange(false)) {
      entered.notify();
      release.wait();
    }
    {
      std::lock_guard lock(mu_);
      sizes_.push_back(batch.size());
    }
    for (std::size_t i = 0; i < batch.size(); ++i) {
      batch.sink->accept(i, {});
    }
  }

 private:
  mutable std::mutex mu_;
  std::vector<std::size_t> sizes_;
};

class SingleGroupCg : public CGFunction {
 public:
  [[nodiscard]] multicast::GroupSet groups(const Command&) const override {
    return multicast::GroupSet::single(0);
  }
  [[nodiscard]] std::size_t mpl() const override { return 1; }
};

void wait_core(const SchedulerCore& core, std::uint64_t n) {
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (core.executed() < n && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

TEST(SchedulerBatching, AccumulatesBoundedRunsAndSplitsOnConflict) {
  transport::Network net;
  auto svc = std::make_unique<BatchRecordingService>();
  auto* svc_ptr = svc.get();
  SchedulerOptions opts;
  opts.run_length = 4;
  SchedulerCore core(net, std::move(svc), std::make_shared<SingleGroupCg>(), 1,
                     "test", opts);
  core.start();

  // Gate the first command's batch so the next seven commands queue behind
  // it, then release: the worker must drain them as [4][2-conflict-split]…
  // exactly per the run-length bound and the may_share_batch relation.
  svc_ptr->gate_next = true;
  core.schedule(make_cmd(1, 1, 1, {}));
  svc_ptr->entered.wait();
  for (Seq s = 2; s <= 5; ++s) core.schedule(make_cmd(1, 1, s, {}));
  core.schedule(make_cmd(2, 1, 6, {}));  // conflicts with everything
  for (Seq s = 7; s <= 8; ++s) core.schedule(make_cmd(1, 1, s, {}));
  svc_ptr->release.notify();
  wait_core(core, 8);
  core.stop();

  auto sizes = svc_ptr->sizes();
  // [1 gated] [2,3,4,5 as a full run of 4] [6 alone] [7,8].
  EXPECT_EQ(sizes, (std::vector<std::size_t>{1, 4, 1, 2}));
  EXPECT_EQ(core.service().exec_stats().max_batch, 4u);
}

TEST(SchedulerBatching, RunLengthOneRestoresSequentialExecution) {
  transport::Network net;
  auto svc = std::make_unique<BatchRecordingService>();
  auto* svc_ptr = svc.get();
  SchedulerOptions opts;
  opts.run_length = 1;
  SchedulerCore core(net, std::move(svc), std::make_shared<SingleGroupCg>(), 1,
                     "test", opts);
  core.start();
  svc_ptr->gate_next = true;
  core.schedule(make_cmd(1, 1, 1, {}));
  svc_ptr->entered.wait();
  for (Seq s = 2; s <= 6; ++s) core.schedule(make_cmd(1, 1, s, {}));
  svc_ptr->release.notify();
  wait_core(core, 6);
  core.stop();
  for (std::size_t size : svc_ptr->sizes()) EXPECT_EQ(size, 1u);
  EXPECT_EQ(core.service().exec_stats().max_batch, 1u);
}

// Two workers: command id 2 goes to every group (a serialized command);
// any other command goes to its client's worker, client % 2.
class SerialIdCg : public CGFunction {
 public:
  [[nodiscard]] multicast::GroupSet groups(const Command& c) const override {
    return c.cmd == 2 ? multicast::GroupSet::all(2)
                      : multicast::GroupSet::single(c.client % 2);
  }
  [[nodiscard]] std::size_t mpl() const override { return 2; }
};

TEST(SchedulerBatching, ScheduleNeverWaitsOnASerializedCommand) {
  transport::Network net;
  auto svc = std::make_unique<BatchRecordingService>();
  auto* svc_ptr = svc.get();
  SchedulerCore core(net, std::move(svc), std::make_shared<SerialIdCg>(), 2,
                     "test");
  core.start();

  // Worker 0's first run is held at the gate, so the serialized command
  // behind it must wait for that run to finish; schedule() must not.
  svc_ptr->gate_next = true;
  core.schedule(make_cmd(1, /*client=*/2, 1, {}));
  svc_ptr->entered.wait();
  auto feed = std::async(std::launch::async, [&] {
    core.schedule(make_cmd(2, 4, 1, {}));  // every group: runs alone
    core.schedule(make_cmd(1, 3, 1, {}));  // worker 1
    core.schedule(make_cmd(1, 5, 1, {}));  // worker 1
  });
  const bool returned =
      feed.wait_for(std::chrono::seconds(1)) == std::future_status::ready;
  svc_ptr->release.notify();  // always, so a blocking schedule() finishes
  feed.wait();
  EXPECT_TRUE(returned) << "schedule() waited for the gated run";
  wait_core(core, 4);
  core.stop();

  // [gated] [serialized alone] [both singletons as one run on worker 1]:
  // the singletons waited for the serialized command, which waited for
  // the gated run.
  EXPECT_EQ(svc_ptr->sizes(), (std::vector<std::size_t>{1, 1, 2}));
}

// --- SchedulerCore dedup bounding (satellite: bound dedup_) ---------------

TEST(SchedulerDedup, EvictsIdleClientsAndStaysBounded) {
  transport::Network net;
  SchedulerOptions opts;
  opts.dedup_idle_window = 16;
  SchedulerCore core(net, std::make_unique<BatchRecordingService>(),
                     std::make_shared<SingleGroupCg>(), 1, "test", opts);
  core.start();

  core.schedule(make_cmd(1, /*client=*/1, /*seq=*/1, {}));
  // Re-submitting the same seq while the entry is live is suppressed.
  core.schedule(make_cmd(1, 1, 1, {}));
  wait_core(core, 1);
  EXPECT_EQ(core.executed(), 1u);

  // 200 commands from other clients push client 1 far past the idle
  // window; the sweep must evict it (and the one-shot clients too), so the
  // map stays bounded instead of growing with every client ever seen.
  for (std::uint64_t c = 2; c <= 201; ++c) {
    core.schedule(make_cmd(1, c, 1, {}));
  }
  wait_core(core, 201);
  EXPECT_LE(core.dedup_size(), opts.dedup_idle_window + opts.dedup_idle_window / 4 + 1);

  // The documented trade-off: an evicted client's stale retransmission is
  // no longer recognized and re-executes.
  core.schedule(make_cmd(1, 1, 1, {}));
  wait_core(core, 202);
  EXPECT_EQ(core.executed(), 202u);
  core.stop();
}

TEST(SchedulerDedup, ZeroWindowDisablesEviction) {
  transport::Network net;
  SchedulerOptions opts;
  opts.dedup_idle_window = 0;
  SchedulerCore core(net, std::make_unique<BatchRecordingService>(),
                     std::make_shared<SingleGroupCg>(), 1, "test", opts);
  core.start();
  for (std::uint64_t c = 1; c <= 100; ++c) {
    core.schedule(make_cmd(1, c, 1, {}));
  }
  wait_core(core, 100);
  EXPECT_EQ(core.dedup_size(), 100u);
  // Suppression still works for every client.
  for (std::uint64_t c = 1; c <= 100; ++c) {
    core.schedule(make_cmd(1, c, 1, {}));
  }
  EXPECT_EQ(core.executed(), 100u);
  core.stop();
}

// --- End-to-end convergence: batched on vs off ----------------------------
// (The disjoint convergence workload lives in test_support and is shared
// with the response-batching suite.)

class ExecConvergence : public ::testing::TestWithParam<Mode> {};

TEST_P(ExecConvergence, BatchedAndSequentialExecutionConverge) {
  const Mode mode = GetParam();
  constexpr int kClients = 3;
  constexpr int kOps = 160;
  const std::uint64_t keys = kClients * 100;

  auto run_with = [&](std::size_t run_length, ExecStats* stats) {
    auto cfg = test_support::kv_config(mode, /*mpl=*/2, keys);
    cfg.exec_run_length = run_length;
    test_support::Cluster cluster(std::move(cfg));
    std::uint64_t digest = test_support::run_disjoint_kv_workload(
        cluster.deployment(), kClients, kOps);
    *stats = cluster->exec_stats();
    return digest;
  };

  ExecStats batched;
  ExecStats sequential;
  std::uint64_t digest_batched = run_with(/*run_length=*/8, &batched);
  std::uint64_t digest_sequential = run_with(/*run_length=*/1, &sequential);

  // Same command history, different batch boundaries, identical state.
  EXPECT_EQ(digest_batched, digest_sequential);

  // The stats plumbing observed every execution, and the forced-off run
  // really was sequential.
  EXPECT_GE(batched.commands, static_cast<std::uint64_t>(kClients * kOps));
  EXPECT_EQ(sequential.max_batch, 1u);
  EXPECT_LE(batched.max_batch, 8u);
  // With 3 clients pipelining 32-deep onto 2 workers the streams must back
  // up at least once: some batch with more than one command formed.
  EXPECT_GT(batched.max_batch, 1u);
  EXPECT_GT(batched.batched_read_share(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(Modes, ExecConvergence,
                         ::testing::Values(Mode::kPsmr, Mode::kSpsmr),
                         [](const auto& info) {
                           return info.param == Mode::kPsmr ? "psmr" : "spsmr";
                         });

}  // namespace
}  // namespace psmr::smr
