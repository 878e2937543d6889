// Shared test infrastructure for the P-SMR suites.
//
// Consolidates the cluster-bring-up boilerplate that was copy-pasted across
// the integration suites: ring configs tuned for a small test host, KV
// deployment configs for every mode, an RAII in-process cluster fixture
// (coordinator + acceptors + replicas), deterministic-seed helpers for the
// randomized stress tests, and schedule/barrier helpers for multi-threaded
// drivers.
#pragma once

#include <gtest/gtest.h>

#include <atomic>
#include <barrier>
#include <chrono>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "smr/runtime.h"
#include "smr/shard_spec.h"
#include "transport/frame_spool.h"
#include "util/sync.h"

namespace psmr::test_support {

// ---------------------------------------------------------------------------
// Deterministic seeds.
//
// Every randomized test must seed its SplitMix64 from test_seed() (or a
// literal).  The default is fixed so two runs of the same binary produce
// identical results; PSMR_TEST_SEED=<n> in the environment overrides it for
// exploratory fuzzing.  logged_seed() additionally records the seed in the
// GoogleTest XML output and prints it, so a failing stress run names the
// seed that reproduces it.
// ---------------------------------------------------------------------------

/// The seed for this test run: `base` unless PSMR_TEST_SEED is set.
std::uint64_t test_seed(std::uint64_t base = 42);

/// test_seed(), but recorded as a test property and printed to stderr.
/// Use in intentionally-randomized stress tests.
std::uint64_t logged_seed(std::uint64_t base = 42);

// ---------------------------------------------------------------------------
// Ring / deployment configuration.
// ---------------------------------------------------------------------------

/// Ring tuning for tests.  This host runs the whole system on very few
/// cores; a too-aggressive skip rate floods it (every idle ring decides a
/// skip, and P-SMR at mpl=8 runs nine rings).  These values keep latency low
/// without saturating the scheduler.
paxos::RingConfig fast_ring(std::size_t num_acceptors = 3);

/// Ring tuning for the fault-injection suites: small batch timeout and an
/// aggressive retransmission timer so drop/crash recovery is quick.
paxos::RingConfig fault_ring(std::size_t num_acceptors = 3);

/// A named aggressive-batching ring config, used to re-run ordering
/// suites under batching extremes.
struct NamedRing {
  const char* name;
  paxos::RingConfig ring;
};

/// The two batching extremes most likely to shake out ordering bugs:
/// "tiny-timeout" (near-zero wait, huge caps: batches seal almost per
/// command) and "tiny-cap" (long wait, cap of 1-2 commands: sealing is
/// driven purely by the caps while commands queue behind them).
std::vector<NamedRing> aggressive_batching_rings();

/// A complete KV deployment config: fast_ring(), KvService /
/// ConcurrentKvService factories preloaded with `initial_keys`, and the
/// keyed C-G function.
smr::DeploymentConfig kv_config(smr::Mode mode, std::size_t mpl,
                                std::uint64_t initial_keys = 0,
                                std::size_t replicas = 2);

/// kv_config with an explicit ring configuration (batching sweeps).
smr::DeploymentConfig kv_config_with_ring(smr::Mode mode, std::size_t mpl,
                                          const paxos::RingConfig& ring,
                                          std::uint64_t initial_keys = 0,
                                          std::size_t replicas = 2);

/// A sharded P-SMR KV deployment built from a shard spec: one worker group
/// (and ring) per shard, fast_ring() tuning, KvService preloaded with
/// `initial_keys`, and the shard-aware C-G over spec.map() — so clients
/// route reads/updates to their key's shard and scans/multi-reads to
/// exactly the shards they cover.
smr::DeploymentConfig sharded_kv_config(const smr::ShardSpec& spec,
                                        std::uint64_t initial_keys = 0);

/// A complete checkpointing KV deployment config: kv_config() plus periodic
/// checkpoint triggers every `interval_commands` commands and log
/// truncation at the all-replicas ack quorum.  interval_commands = 0 keeps
/// checkpointing enabled but manual (Deployment::trigger_checkpoint).
smr::DeploymentConfig checkpointed_kv_config(
    smr::Mode mode, std::size_t mpl, std::uint64_t interval_commands,
    std::uint64_t initial_keys = 0, std::size_t replicas = 2);

/// Blocks until every service instance has executed >= n commands (or the
/// timeout elapses; the caller's subsequent assertions catch a timeout).
void wait_executed(smr::Deployment& d, std::uint64_t n,
                   std::chrono::seconds timeout = std::chrono::seconds(10));

/// Blocks until replica `i` alone has executed >= n commands — the
/// crash/restart variant of wait_executed, which would stall forever on a
/// crashed slot (its executed() reads 0).
void wait_replica_executed(smr::Deployment& d, std::size_t i, std::uint64_t n,
                           std::chrono::seconds timeout =
                               std::chrono::seconds(10));

/// Blocks until every *live* replica has completed >= n checkpoints
/// (Deployment::checkpoints_taken); crashed slots are skipped.
void wait_checkpoints(smr::Deployment& d, std::uint64_t n,
                      std::chrono::seconds timeout = std::chrono::seconds(10));

/// Blocks until replica `i` has converged with replica `ref`: equal
/// executed counts and equal state digests.  Call with the workload
/// quiesced (ref's count stable); returns true on convergence, false on
/// timeout.
bool wait_converged(smr::Deployment& d, std::size_t i, std::size_t ref,
                    std::chrono::seconds timeout = std::chrono::seconds(20));

/// RAII in-process cluster: builds the Deployment (coordinator, acceptors,
/// learners, replicas), starts it on construction and stops it on
/// destruction, so a test that ASSERTs mid-body still joins every thread.
class Cluster {
 public:
  explicit Cluster(smr::DeploymentConfig cfg) : d_(std::move(cfg)) {
    d_.start();
  }
  ~Cluster() { d_.stop(); }

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  smr::Deployment& deployment() { return d_; }
  smr::Deployment* operator->() { return &d_; }
  smr::Deployment& operator*() { return d_; }

 private:
  smr::Deployment d_;
};

/// Cluster pre-wired with the KV service (the common case).
class KvCluster : public Cluster {
 public:
  explicit KvCluster(smr::Mode mode, std::size_t mpl,
                     std::uint64_t initial_keys = 0, std::size_t replicas = 2)
      : Cluster(kv_config(mode, mpl, initial_keys, replicas)) {}
};

// ---------------------------------------------------------------------------
// Schedule helpers.
// ---------------------------------------------------------------------------

/// Reusable cyclic barrier for lock-step thread schedules.  Arrive at the
/// barrier *before* doing anything that can throw (client construction,
/// assertions): a party that fails to arrive would block the rest forever.
using Barrier = std::barrier<>;

/// Runs fn(0..n-1) on n threads and joins them all, even if fn throws
/// a GoogleTest fatal-failure exception on some thread.
void run_threads(int n, const std::function<void(int)>& fn);

/// Drives the flat-combining piggyback on one spool deterministically:
/// `start_drain` (run on a second thread) becomes the active drainer and is
/// parked by the flush-pause hook after its first send; `piggyback` then
/// flushes from this thread and must hand its frame to that drain; only
/// then is the drainer released to send it.
template <typename Key>
void flush_pause_rendezvous(transport::FrameSpool<Key>& spool,
                            const std::function<void()>& start_drain,
                            const std::function<void()>& piggyback) {
  util::Signal drainer_paused;
  util::Signal piggyback_done;
  std::atomic<int> sends{0};
  spool.set_flush_pause([&] {
    // Pause only the first send; the drain of the piggybacked frame must
    // run through.
    if (sends.fetch_add(1) == 0) {
      drainer_paused.notify();
      piggyback_done.wait();
    }
  });
  std::thread drainer(start_drain);
  // Bounded wait so a broken drain fails the test instead of deadlocking
  // it against the suite timeout.
  if (!drainer_paused.wait_for(std::chrono::seconds(5))) {
    piggyback_done.notify();  // unblock the hook if it fires late
    drainer.join();
    spool.set_flush_pause({});
    FAIL() << "drainer never reached the flush-pause rendezvous";
  }
  // The drainer is parked mid-drain: this flush piggybacks by construction.
  piggyback();
  EXPECT_EQ(spool.stats().piggybacked, 1u);
  piggyback_done.notify();
  drainer.join();
  spool.set_flush_pause({});
  // Both frames went out from the drainer thread; the piggybacked flush
  // returned without sending.
  EXPECT_EQ(sends.load(), 2);
  auto s = spool.stats();
  EXPECT_EQ(s.flushes, 2u);
  EXPECT_EQ(s.flushed_commands, 2u);
}

/// Drives a KV deployment with a deterministic convergence workload whose
/// final state is independent of cross-client interleaving: client t
/// updates only keys in its own 100-key range (per-key update order is its
/// submission order, preserved per client) and reads across the whole
/// space, pipelined 32-deep so worker queues and delivery streams back up
/// into multi-command runs.  Waits for every replica to execute all
/// clients*ops commands, EXPECTs equal digests across replicas, and
/// returns replica 0's digest.  The deployment needs clients*100 preloaded
/// keys.  Used by the batching convergence suites (exec + response).
std::uint64_t run_disjoint_kv_workload(smr::Deployment& d, int clients,
                                       int ops);

}  // namespace psmr::test_support
