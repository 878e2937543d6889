#include "test_support.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <stdexcept>

#include "kvstore/kv_service.h"
#include "util/alloc_hook.h"

// Every test binary links test_support, so every test can meter heap
// traffic through util::allochook (buffer_pool_test asserts the pooled hot
// path stays allocation-free once warm).  Inert under ASan/TSan.
PSMR_DEFINE_ALLOC_HOOK();

namespace psmr::test_support {

std::uint64_t test_seed(std::uint64_t base) {
  if (const char* env = std::getenv("PSMR_TEST_SEED")) {
    char* end = nullptr;
    std::uint64_t v = std::strtoull(env, &end, 10);
    if (end != env && *end == '\0') return v;
  }
  return base;
}

std::uint64_t logged_seed(std::uint64_t base) {
  std::uint64_t seed = test_seed(base);
  ::testing::Test::RecordProperty("psmr_seed", std::to_string(seed));
  std::fprintf(stderr, "[ seed     ] PSMR_TEST_SEED=%llu\n",
               static_cast<unsigned long long>(seed));
  return seed;
}

paxos::RingConfig fast_ring(std::size_t num_acceptors) {
  paxos::RingConfig ring;
  ring.num_acceptors = num_acceptors;
  ring.batch_timeout = std::chrono::microseconds(500);
  ring.skip_interval = std::chrono::microseconds(1500);
  ring.rto = std::chrono::microseconds(10000);
  return ring;
}

paxos::RingConfig fault_ring(std::size_t num_acceptors) {
  paxos::RingConfig ring;
  ring.num_acceptors = num_acceptors;
  ring.batch_timeout = std::chrono::microseconds(300);
  ring.rto = std::chrono::microseconds(3000);
  return ring;
}

std::vector<NamedRing> aggressive_batching_rings() {
  // Tiny timeout, huge caps: nearly every command decides alone, maximal
  // consensus-instance pressure.
  paxos::RingConfig tiny_timeout = fast_ring();
  tiny_timeout.batch_timeout = std::chrono::microseconds(50);
  tiny_timeout.max_batch_bytes = 1 << 20;
  tiny_timeout.max_batch_commands = 100000;

  // Long timeout, tiny cap: sealing is purely cap-driven and commands queue
  // behind full batches.
  paxos::RingConfig tiny_cap = fast_ring();
  tiny_cap.batch_timeout = std::chrono::microseconds(5000);
  tiny_cap.max_batch_commands = 2;

  return {{"tiny-timeout", tiny_timeout}, {"tiny-cap", tiny_cap}};
}

smr::DeploymentConfig kv_config(smr::Mode mode, std::size_t mpl,
                                std::uint64_t initial_keys,
                                std::size_t replicas) {
  return kv_config_with_ring(mode, mpl, fast_ring(), initial_keys, replicas);
}

smr::DeploymentConfig kv_config_with_ring(smr::Mode mode, std::size_t mpl,
                                          const paxos::RingConfig& ring,
                                          std::uint64_t initial_keys,
                                          std::size_t replicas) {
  smr::DeploymentConfig cfg;
  cfg.mode = mode;
  cfg.mpl = mpl;
  cfg.replicas = replicas;
  cfg.ring = ring;
  cfg.service_factory = [initial_keys] {
    return std::make_unique<kvstore::KvService>(initial_keys);
  };
  cfg.shared_service_factory =
      [initial_keys]() -> std::shared_ptr<smr::Service> {
    return std::make_shared<kvstore::ConcurrentKvService>(initial_keys);
  };
  cfg.cg_factory = [](std::size_t k) { return kvstore::kv_keyed_cg(k); };
  return cfg;
}

smr::DeploymentConfig sharded_kv_config(const smr::ShardSpec& spec,
                                        std::uint64_t initial_keys) {
  smr::DeploymentConfig cfg = smr::shard_deployment_config(spec);
  cfg.ring = fast_ring();
  // fast_ring() is tuned for ~9 rings; a many-shard deployment multiplies
  // the idle-skip rate by its ring count, so stretch the interval to keep
  // the aggregate skip load (and this small host) roughly constant.
  if (spec.num_groups() > 8) {
    cfg.ring.skip_interval *= static_cast<int>(spec.num_groups() / 8);
  }
  cfg.service_factory = [initial_keys] {
    return std::make_unique<kvstore::KvService>(initial_keys);
  };
  auto map = spec.map();
  cfg.cg_factory = [map](std::size_t k) {
    // The deployment always asks for k == num shards (mpl); a mismatch
    // means the spec and the deployment drifted apart.
    if (k != map.num_shards()) {
      throw std::invalid_argument("sharded_kv_config: mpl != shard count");
    }
    return kvstore::kv_sharded_cg(map);
  };
  return cfg;
}

smr::DeploymentConfig checkpointed_kv_config(smr::Mode mode, std::size_t mpl,
                                             std::uint64_t interval_commands,
                                             std::uint64_t initial_keys,
                                             std::size_t replicas) {
  smr::DeploymentConfig cfg = kv_config(mode, mpl, initial_keys, replicas);
  cfg.checkpoint.enabled = true;
  cfg.checkpoint.interval_commands = interval_commands;
  return cfg;
}

void wait_executed(smr::Deployment& d, std::uint64_t n,
                   std::chrono::seconds timeout) {
  auto deadline = std::chrono::steady_clock::now() + timeout;
  while (std::chrono::steady_clock::now() < deadline) {
    bool all = true;
    for (std::size_t i = 0; i < d.num_services(); ++i) {
      if (d.executed(i) < n) all = false;
    }
    if (all) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

void wait_replica_executed(smr::Deployment& d, std::size_t i, std::uint64_t n,
                           std::chrono::seconds timeout) {
  auto deadline = std::chrono::steady_clock::now() + timeout;
  while (d.executed(i) < n && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

void wait_checkpoints(smr::Deployment& d, std::uint64_t n,
                      std::chrono::seconds timeout) {
  auto deadline = std::chrono::steady_clock::now() + timeout;
  while (std::chrono::steady_clock::now() < deadline) {
    bool all = true;
    for (std::size_t i = 0; i < d.num_services(); ++i) {
      if (d.psmr_replica(i) != nullptr && d.checkpoints_taken(i) < n) {
        all = false;
      }
    }
    if (all) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

bool wait_converged(smr::Deployment& d, std::size_t i, std::size_t ref,
                    std::chrono::seconds timeout) {
  auto deadline = std::chrono::steady_clock::now() + timeout;
  while (std::chrono::steady_clock::now() < deadline) {
    if (d.executed(i) == d.executed(ref) && d.executed(i) > 0 &&
        d.state_digest(i) == d.state_digest(ref)) {
      return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return false;
}

void run_threads(int n, const std::function<void(int)>& fn) {
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    threads.emplace_back([&fn, i] {
      try {
        fn(i);
      } catch (const std::exception& e) {
        ADD_FAILURE() << "driver thread " << i << " threw: " << e.what();
      } catch (...) {
        ADD_FAILURE() << "driver thread " << i << " threw a non-std exception";
      }
    });
  }
  for (auto& t : threads) t.join();
}

std::uint64_t run_disjoint_kv_workload(smr::Deployment& d, int clients,
                                       int ops) {
  run_threads(clients, [&](int t) {
    auto proxy = d.make_client();
    constexpr int kWindow = 32;
    int submitted = 0;
    int completed = 0;
    auto submit_one = [&](int i) {
      std::uint64_t own = static_cast<std::uint64_t>(t) * 100 +
                          static_cast<std::uint64_t>(i % 100);
      if (i % 4 == 3) {
        EXPECT_TRUE(proxy
                        ->submit(kvstore::kKvUpdate,
                                 kvstore::encode_key_value(
                                     own, static_cast<std::uint64_t>(i) * 1000 +
                                              static_cast<std::uint64_t>(t)))
                        .has_value());
      } else {
        std::uint64_t any = static_cast<std::uint64_t>((i * 37 + t * 11) %
                                                       (clients * 100));
        EXPECT_TRUE(proxy->submit(kvstore::kKvRead, kvstore::encode_key(any))
                        .has_value());
      }
    };
    while (completed < ops) {
      while (submitted < ops && proxy->outstanding() < kWindow) {
        submit_one(submitted++);
      }
      if (proxy->poll(std::chrono::milliseconds(200))) ++completed;
    }
  });
  // Every client saw every response, but only from the fastest replica;
  // wait for the laggard before comparing digests.
  wait_executed(d, static_cast<std::uint64_t>(clients) *
                       static_cast<std::uint64_t>(ops));
  std::uint64_t digest = d.state_digest(0);
  for (std::size_t i = 1; i < d.num_services(); ++i) {
    EXPECT_EQ(d.state_digest(i), digest) << "replica " << i << " diverged";
  }
  return digest;
}

}  // namespace psmr::test_support
