// Synchronous mode with *subset* destination sets (the general form of
// Algorithm 1): commands multicast to two of k groups must barrier exactly
// the two destination workers, stay ordered against every overlapping
// command, and never deadlock — the per-(sender, receiver) signal matrix in
// PsmrReplica exists precisely for back-to-back subset commands with
// overlapping-but-different destination sets.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <thread>

#include "smr/runtime.h"
#include "test_support.h"
#include "util/hash.h"
#include "util/rng.h"

namespace psmr::smr {
namespace {

enum PairCommand : CommandId {
  kSet = 1,    // set(in: slot, value) — singleton group of slot
  kGet = 2,    // get(in: slot; out: value)
  kSwap = 3,   // swap(in: slot_a, slot_b) — two-group synchronous command
  kTotal = 4,  // sum of all slots — all-group command
};

class SlotService : public SequentialService {
 public:
  explicit SlotService(std::uint64_t slots) {
    for (std::uint64_t s = 0; s < slots; ++s) slots_[s] = 0;
  }

  util::Buffer execute(const Command& cmd) override {
    util::Reader r(cmd.params);
    util::Writer out;
    switch (cmd.cmd) {
      case kSet: {
        std::uint64_t slot = r.u64();
        slots_[slot] = r.i64();
        out.i64(slots_[slot]);
        break;
      }
      case kGet:
        out.i64(slots_[r.u64()]);
        break;
      case kSwap: {
        std::uint64_t a = r.u64();
        std::uint64_t b = r.u64();
        std::swap(slots_[a], slots_[b]);
        out.boolean(true);
        break;
      }
      case kTotal: {
        std::int64_t total = 0;
        for (auto& [s, v] : slots_) total += v;
        out.i64(total);
        break;
      }
    }
    return out.take();
  }

  [[nodiscard]] std::uint64_t state_digest() const override {
    std::uint64_t h = 0;
    for (const auto& [s, v] : slots_) {
      h ^= util::mix64(s * 1000003 + static_cast<std::uint64_t>(v));
    }
    return h;
  }

  [[nodiscard]] bool snapshot_to(util::Writer& w) const override {
    w.u64(slots_.size());
    for (const auto& [s, v] : slots_) {
      w.u64(s);
      w.i64(v);
    }
    return true;
  }
  [[nodiscard]] bool restore_from(util::Reader& r) override {
    try {
      std::map<std::uint64_t, std::int64_t> slots;
      for (std::uint64_t n = r.u64(); n > 0; --n) {
        const std::uint64_t s = r.u64();
        slots[s] = r.i64();
      }
      slots_ = std::move(slots);
      return true;
    } catch (const util::DecodeError&) {
      return false;
    }
  }

 private:
  std::map<std::uint64_t, std::int64_t> slots_;
};

class SlotCg : public CGFunction {
 public:
  explicit SlotCg(std::size_t k) : k_(k) {}
  [[nodiscard]] multicast::GroupSet groups(const Command& c) const override {
    util::Reader r(c.params);
    auto of = [&](std::uint64_t slot) {
      return multicast::GroupSet::single(
          static_cast<multicast::GroupId>(slot % k_));
    };
    switch (c.cmd) {
      case kSwap: {
        auto a = of(r.u64());
        auto b = of(r.u64());
        return a | b;
      }
      case kTotal:
        return multicast::GroupSet::all(k_);
      default:
        return of(r.u64());
    }
  }
  [[nodiscard]] std::size_t mpl() const override { return k_; }

 private:
  std::size_t k_;
};

DeploymentConfig slot_config(std::size_t mpl, std::uint64_t slots,
                             const paxos::RingConfig& ring =
                                 test_support::fast_ring()) {
  DeploymentConfig cfg;
  cfg.mode = Mode::kPsmr;
  cfg.mpl = mpl;
  cfg.replicas = 2;
  cfg.ring = ring;
  cfg.service_factory = [slots] {
    return make_batched(std::make_unique<SlotService>(slots));
  };
  cfg.cg_factory = [](std::size_t k) { return std::make_shared<SlotCg>(k); };
  return cfg;
}

Deployment make_deployment(std::size_t mpl, std::uint64_t slots,
                           const paxos::RingConfig& ring =
                               test_support::fast_ring()) {
  return Deployment(slot_config(mpl, slots, ring));
}

struct SlotClient {
  std::unique_ptr<ClientProxy> proxy;

  std::int64_t set(std::uint64_t slot, std::int64_t v) {
    util::Writer w;
    w.u64(slot);
    w.i64(v);
    return util::Reader(*proxy->call(kSet, w.take())).i64();
  }
  std::int64_t get(std::uint64_t slot) {
    util::Writer w;
    w.u64(slot);
    return util::Reader(*proxy->call(kGet, w.take())).i64();
  }
  /// False if the call timed out.
  bool swap(std::uint64_t a, std::uint64_t b) {
    util::Writer w;
    w.u64(a);
    w.u64(b);
    return proxy->call(kSwap, w.take()).has_value();
  }
  std::int64_t total() {
    return util::Reader(*proxy->call(kTotal, {})).i64();
  }
};

TEST(PsmrSubset, TwoGroupSwapIsAtomic) {
  auto d = make_deployment(4, 8);
  d.start();
  SlotClient c{d.make_client()};
  c.set(1, 111);
  c.set(2, 222);
  c.swap(1, 2);  // slots 1 and 2 live in groups 1 and 2: subset barrier
  EXPECT_EQ(c.get(1), 222);
  EXPECT_EQ(c.get(2), 111);
  EXPECT_EQ(d.state_digest(0), d.state_digest(1));
  d.stop();
}

TEST(PsmrSubset, SameGroupPairDegeneratesToParallelMode) {
  auto d = make_deployment(4, 8);
  d.start();
  SlotClient c{d.make_client()};
  c.set(1, 10);
  c.set(5, 50);  // slot 5 % 4 == group 1 as well
  c.swap(1, 5);  // single-group destination: no barrier needed
  EXPECT_EQ(c.get(1), 50);
  EXPECT_EQ(c.get(5), 10);
  d.stop();
}

TEST(PsmrSubset, OverlappingSubsetChainsDoNotDeadlock) {
  // Back-to-back swaps with overlapping destination pairs: {0,1}, {1,2},
  // {2,3}, {3,0}, ... — the deadlock-freedom theorem of Section IV-E under
  // its hardest pattern, plus interleaved all-group commands.
  auto d = make_deployment(4, 16);
  d.start();
  constexpr int kThreads = 4;
  test_support::Barrier start(kThreads);
  test_support::run_threads(kThreads, [&](int t) {
    // Launch the chains in lock-step so the overlapping destination pairs
    // really are in flight together.
    start.arrive_and_wait();
    SlotClient c{d.make_client()};
    for (int i = 0; i < 40; ++i) {
      std::uint64_t a = static_cast<std::uint64_t>((t + i) % 4);
      std::uint64_t b = static_cast<std::uint64_t>((t + i + 1) % 4);
      c.swap(a, b);
      if (i % 10 == 0) c.total();
    }
  });
  SlotClient c{d.make_client()};
  EXPECT_EQ(c.total(), 0);  // swaps of zeros stay zero: liveness is the test
  EXPECT_EQ(d.state_digest(0), d.state_digest(1));
  d.stop();
}

TEST(PsmrSubset, SubsetBarriersSurviveAggressiveBatching) {
  // Re-run the hard overlapping-chain pattern under both batching extremes:
  // near-zero timeouts decide nearly one command per instance (maximal
  // interleaving of the barrier halves), while cap-driven sealing queues
  // dependent commands behind full batches.  Either way the swaps must stay
  // atomic, deadlock-free and replica-consistent.
  for (const auto& named : test_support::aggressive_batching_rings()) {
    SCOPED_TRACE(named.name);
    auto d = make_deployment(4, 8, named.ring);
    d.start();
    {
      SlotClient init{d.make_client()};
      init.set(1, 111);
      init.set(2, 222);
    }
    constexpr int kThreads = 4;
    test_support::Barrier start(kThreads);
    test_support::run_threads(kThreads, [&](int t) {
      start.arrive_and_wait();
      SlotClient c{d.make_client()};
      for (int i = 0; i < 20; ++i) {
        std::uint64_t a = static_cast<std::uint64_t>((t + i) % 4) + 4;
        std::uint64_t b = static_cast<std::uint64_t>((t + i + 1) % 4) + 4;
        c.swap(a, b);
        if (i % 10 == 0) c.total();
      }
    });
    SlotClient c{d.make_client()};
    // Slots 4..7 held zeros throughout the swap storm; 1 and 2 kept their
    // initial values, so the interleaved chains did not corrupt state.
    EXPECT_EQ(c.total(), 333);
    EXPECT_EQ(d.state_digest(0), d.state_digest(1));
    d.stop();
  }
}

TEST(PsmrSubset, SwapConservesSum) {
  // Money-conservation style invariant under concurrent subset barriers.
  auto d = make_deployment(8, 32);
  d.start();
  {
    SlotClient init{d.make_client()};
    for (std::uint64_t s = 0; s < 32; ++s) init.set(s, 100);
  }
  const std::uint64_t seed = test_support::logged_seed(7);
  test_support::run_threads(3, [&](int t) {
    SlotClient c{d.make_client()};
    util::SplitMix64 rng(seed + static_cast<std::uint64_t>(t));
    for (int i = 0; i < 50; ++i) {
      c.swap(rng.next_below(32), rng.next_below(32));
    }
  });
  SlotClient c{d.make_client()};
  EXPECT_EQ(c.total(), 3200);
  EXPECT_EQ(d.state_digest(0), d.state_digest(1));
  d.stop();
}

TEST(PsmrSubset, ParkedBarriersOutnumberingThePoolNeverBlockIt) {
  // More workers than pool threads, so at times more workers are parked at
  // barriers than there are threads to run them: all-group totals, random
  // two-group swaps and checkpoint markers (periodic and triggered) must
  // all complete.  A worker that blocked its pool thread while waiting for
  // a peer would wedge the deployment here.
  const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
  const std::size_t mpl = std::min<std::size_t>(64, 2 * hw + 1);
  const std::uint64_t slots = 2 * mpl;
  constexpr std::size_t kReplicas = 3;
  DeploymentConfig cfg = slot_config(mpl, slots);
  cfg.replicas = kReplicas;
  cfg.checkpoint.enabled = true;
  cfg.checkpoint.interval_commands = 32;
  Deployment d(std::move(cfg));
  d.start();
  {
    SlotClient init{d.make_client()};
    for (std::uint64_t s = 0; s < slots; ++s) ASSERT_EQ(init.set(s, 100), 100);
  }
  const std::int64_t sum = 100 * static_cast<std::int64_t>(slots);
  const std::uint64_t seed = test_support::logged_seed(21);
  std::atomic<int> timeouts{0};
  std::atomic<int> torn{0};
  test_support::run_threads(4, [&](int t) {
    SlotClient c{d.make_client()};
    util::SplitMix64 rng(seed + static_cast<std::uint64_t>(t));
    for (int i = 0; i < 60; ++i) {
      if (i % 3 == 0) {
        auto out = c.proxy->call(kTotal, {});
        if (!out) {
          ++timeouts;
          return;  // a wedged deployment fails once per client, not 60x
        }
        if (util::Reader(*out).i64() != sum) ++torn;
      } else {
        // Two distinct groups, one slot in each.
        const std::uint64_t ga = rng.next_below(mpl);
        const std::uint64_t gb = (ga + 1 + rng.next_below(mpl - 1)) % mpl;
        if (!c.swap(ga + mpl * rng.next_below(2),
                    gb + mpl * rng.next_below(2))) {
          ++timeouts;
          return;
        }
      }
      if (t == 0 && i % 20 == 10) d.trigger_checkpoint();
    }
  });
  ASSERT_EQ(timeouts.load(), 0);
  EXPECT_EQ(torn.load(), 0) << "a total saw a swap half done";
  SlotClient c{d.make_client()};
  EXPECT_EQ(c.total(), sum);
  // Every replica executes every command once; compare once they all have.
  const std::uint64_t commands = slots + 4 * 60 + 1;
  test_support::wait_executed(d, commands, std::chrono::seconds(10));
  for (std::size_t i = 0; i < kReplicas; ++i) {
    ASSERT_EQ(d.executed(i), commands) << "replica " << i;
    EXPECT_EQ(d.state_digest(i), d.state_digest(0)) << "replica " << i;
    EXPECT_GT(d.checkpoints_taken(i), 0u) << "replica " << i;
  }
  d.stop();
}

}  // namespace
}  // namespace psmr::smr
