// Unit tests for the key→group sharding layer: ShardMap policies and
// boundary behaviour, the shard-aware C-G function (including its
// per-instance refinement of the conservative multi-key dependencies), and
// the declarative shard-spec parser.
#include "multicast/shard.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "kvstore/kv_service.h"
#include "smr/shard_cg.h"
#include "smr/shard_spec.h"
#include "util/rng.h"

namespace psmr {
namespace {

using multicast::GroupSet;
using multicast::ShardMap;
using multicast::ShardPolicy;

// ---------------------------------------------------------------------------
// ShardMap
// ---------------------------------------------------------------------------

TEST(ShardMap, HashPolicyCoversEveryShardEvenly) {
  ShardMap map(ShardPolicy::kHash, 16, 1 << 16);
  std::vector<std::uint64_t> hits(16, 0);
  for (std::uint64_t k = 0; k < 16000; ++k) {
    auto g = map.group_of(k);
    ASSERT_LT(g, 16u);
    ++hits[g];
  }
  // mix64 spreads sequential keys: every shard gets within 2x of fair share.
  for (auto h : hits) {
    EXPECT_GT(h, 500u);
    EXPECT_LT(h, 2000u);
  }
}

TEST(ShardMap, RangePolicyBoundaries) {
  // keyspace 100, 4 shards -> span 25: [0,24] [25,49] [50,74] [75,...].
  ShardMap map(ShardPolicy::kRange, 4, 100);
  EXPECT_EQ(map.group_of(0), 0u);
  EXPECT_EQ(map.group_of(24), 0u);
  EXPECT_EQ(map.group_of(25), 1u);
  EXPECT_EQ(map.group_of(49), 1u);
  EXPECT_EQ(map.group_of(50), 2u);
  EXPECT_EQ(map.group_of(75), 3u);
  EXPECT_EQ(map.group_of(99), 3u);
  // Keys beyond the declared keyspace clamp to the last shard.
  EXPECT_EQ(map.group_of(100), 3u);
  EXPECT_EQ(map.group_of(~std::uint64_t{0}), 3u);
}

TEST(ShardMap, RangeOfRoundTrips) {
  ShardMap map(ShardPolicy::kRange, 7, 1000);
  for (multicast::GroupId s = 0; s < 7; ++s) {
    auto [lo, hi] = map.range_of(s);
    EXPECT_EQ(map.group_of(lo), s);
    EXPECT_EQ(map.group_of(hi), s);
    if (s > 0) {
      EXPECT_EQ(map.group_of(lo - 1), s - 1);
    }
  }
  // The last shard absorbs the clamped tail.
  EXPECT_EQ(map.range_of(6).second, ~std::uint64_t{0});
}

TEST(ShardMap, GroupsForRangeIsTheExactCover) {
  ShardMap map(ShardPolicy::kRange, 4, 100);
  EXPECT_EQ(map.groups_for_range(0, 24), GroupSet::single(0));
  EXPECT_EQ(map.groups_for_range(10, 30),
            GroupSet::single(0) | GroupSet::single(1));
  EXPECT_EQ(map.groups_for_range(25, 74),
            GroupSet::single(1) | GroupSet::single(2));
  EXPECT_EQ(map.groups_for_range(0, 99), GroupSet::all(4));
  EXPECT_EQ(map.groups_for_range(80, 5000), GroupSet::single(3));
  EXPECT_TRUE(map.groups_for_range(30, 10).empty());  // vacuous range
}

TEST(ShardMap, GroupsForRangeUnderHashIsEverything) {
  // A hashed range may contain keys of any shard, so the cover must be all.
  ShardMap map(ShardPolicy::kHash, 8, 1 << 20);
  EXPECT_EQ(map.groups_for_range(10, 12), GroupSet::all(8));
  EXPECT_TRUE(map.groups_for_range(12, 10).empty());
}

TEST(ShardMap, GroupsForKeysIsTheUnionOfOwners) {
  ShardMap map(ShardPolicy::kRange, 4, 100);
  std::vector<std::uint64_t> keys{3, 26, 27, 99};
  auto cover = map.groups_for_keys(keys);
  EXPECT_EQ(cover,
            GroupSet::single(0) | GroupSet::single(1) | GroupSet::single(3));
  for (auto k : keys) EXPECT_TRUE(cover.contains(map.group_of(k)));
}

TEST(ShardMap, RemapIsDeterministic) {
  // Two independently constructed maps with equal parameters must place
  // every key identically — client proxies and test oracles rely on it.
  for (auto policy : {ShardPolicy::kHash, ShardPolicy::kRange}) {
    ShardMap a(policy, 12, 4096);
    ShardMap b(policy, 12, 4096);
    util::SplitMix64 rng(99);
    for (int i = 0; i < 5000; ++i) {
      std::uint64_t k = rng.next();
      EXPECT_EQ(a.group_of(k), b.group_of(k));
    }
  }
}

// ---------------------------------------------------------------------------
// Shard-aware C-G (via the KV service binding)
// ---------------------------------------------------------------------------

smr::Command kv_cmd(smr::CommandId id, util::Buffer params) {
  smr::Command c;
  c.cmd = id;
  c.client = 7;
  c.seq = 1;
  c.params = std::move(params);
  return c;
}

TEST(ShardedCg, SingleKeyCommandsGoToTheirShard) {
  ShardMap map(ShardPolicy::kRange, 8, 800);
  auto cg = kvstore::kv_sharded_cg(map);
  EXPECT_EQ(cg->mpl(), 8u);
  for (std::uint64_t k : {0ull, 99ull, 100ull, 555ull, 799ull}) {
    auto read = cg->groups(kv_cmd(kvstore::kKvRead, kvstore::encode_key(k)));
    auto update = cg->groups(
        kv_cmd(kvstore::kKvUpdate, kvstore::encode_key_value(k, 1)));
    EXPECT_EQ(read, GroupSet::single(map.group_of(k)));
    EXPECT_EQ(update, read) << "read and update of one key must colocate";
  }
}

TEST(ShardedCg, StructureChangersStayGlobal) {
  ShardMap map(ShardPolicy::kRange, 8, 800);
  auto cg = kvstore::kv_sharded_cg(map);
  EXPECT_EQ(cg->groups(kv_cmd(kvstore::kKvInsert,
                              kvstore::encode_key_value(5, 1))),
            GroupSet::all(8));
  EXPECT_EQ(cg->groups(kv_cmd(kvstore::kKvDelete, kvstore::encode_key(5))),
            GroupSet::all(8));
}

TEST(ShardedCg, ScanCoversExactlyItsShardsUnderRange) {
  ShardMap map(ShardPolicy::kRange, 8, 800);
  auto cg = kvstore::kv_sharded_cg(map);
  auto scan = cg->groups(
      kv_cmd(kvstore::kKvScan, kvstore::encode_key_range(150, 310)));
  // span 100: [100..199]=1, [200..299]=2, [300..399]=3.
  EXPECT_EQ(scan,
            GroupSet::single(1) | GroupSet::single(2) | GroupSet::single(3));
  // A one-shard scan stays in parallel mode (singleton γ).
  EXPECT_EQ(cg->groups(kv_cmd(kvstore::kKvScan,
                              kvstore::encode_key_range(410, 480))),
            GroupSet::single(4));
}

TEST(ShardedCg, ScanUnderHashFallsBackToAllShards) {
  ShardMap map(ShardPolicy::kHash, 8, 800);
  auto cg = kvstore::kv_sharded_cg(map);
  EXPECT_EQ(cg->groups(kv_cmd(kvstore::kKvScan,
                              kvstore::encode_key_range(150, 310))),
            GroupSet::all(8));
}

TEST(ShardedCg, MultiReadCoversItsKeysUnion) {
  for (auto policy : {ShardPolicy::kHash, ShardPolicy::kRange}) {
    ShardMap map(policy, 8, 800);
    auto cg = kvstore::kv_sharded_cg(map);
    std::vector<std::uint64_t> keys{1, 255, 256, 700};
    auto cover = cg->groups(
        kv_cmd(kvstore::kKvMultiRead, kvstore::encode_keys(keys)));
    GroupSet expect;
    for (auto k : keys) expect = expect | GroupSet::single(map.group_of(k));
    EXPECT_EQ(cover, expect);
  }
}

// The refinement's soundness invariant, checked per instance: any two
// dependent commands (per the KV C-Dep) must share at least one group.
TEST(ShardedCg, DependentInstancesAlwaysShareAGroup) {
  util::SplitMix64 rng(0xc0ffee);
  for (auto policy : {ShardPolicy::kHash, ShardPolicy::kRange}) {
    ShardMap map(policy, 16, 1 << 14);
    auto cg = kvstore::kv_sharded_cg(map);
    for (int i = 0; i < 2000; ++i) {
      std::uint64_t key = rng.next_below(1 << 14);
      auto update = cg->groups(
          kv_cmd(kvstore::kKvUpdate, kvstore::encode_key_value(key, 1)));
      // scan [lo, hi] containing `key` conflicts with update(key).
      std::uint64_t lo = key - std::min<std::uint64_t>(key, rng.next_below(500));
      std::uint64_t hi = key + rng.next_below(500);
      auto scan = cg->groups(
          kv_cmd(kvstore::kKvScan, kvstore::encode_key_range(lo, hi)));
      EXPECT_FALSE((scan & update).empty())
          << "scan [" << lo << "," << hi << "] vs update(" << key << ")";
      // multi_read including `key` conflicts with update(key).
      auto mr = cg->groups(kv_cmd(
          kvstore::kKvMultiRead,
          kvstore::encode_keys({rng.next_below(1 << 14), key})));
      EXPECT_FALSE((mr & update).empty());
      // insert/delete conflict with everything.
      auto ins = cg->groups(
          kv_cmd(kvstore::kKvInsert, kvstore::encode_key_value(key, 1)));
      EXPECT_FALSE((ins & scan).empty());
      EXPECT_FALSE((ins & update).empty());
    }
  }
}

// ---------------------------------------------------------------------------
// Shard specs
// ---------------------------------------------------------------------------

constexpr const char* kSampleSpec = R"(# Sharded P-SMR deployment
policy range
keyspace 4096

# Multicast groups: groupId [replica_numbers]
#     (must be defined before referenced in a traffic line)
0 [0 1]
1 [0 1]
2 [0 1]
3 [0 1]

# traffic: m<groupId> <relative_weight>
m0 2.0
m3 0.5
)";

TEST(ShardSpec, ParsesTheDocumentedFormat) {
  auto spec = smr::parse_shard_spec(kSampleSpec);
  EXPECT_EQ(spec.policy, ShardPolicy::kRange);
  EXPECT_EQ(spec.keyspace, 4096u);
  ASSERT_EQ(spec.num_groups(), 4u);
  EXPECT_EQ(spec.num_replicas(), 2u);
  for (std::size_t g = 0; g < 4; ++g) {
    EXPECT_EQ(spec.groups[g].id, g);
    EXPECT_EQ(spec.groups[g].replicas, (std::vector<std::uint32_t>{0, 1}));
  }
  EXPECT_EQ(spec.traffic, (std::vector<double>{2.0, 1.0, 1.0, 0.5}));
  auto map = spec.map();
  EXPECT_EQ(map.num_shards(), 4u);
  EXPECT_EQ(map.group_of(0), 0u);
  EXPECT_EQ(map.group_of(4095), 3u);
}

TEST(ShardSpec, FormatRoundTrips) {
  auto spec = smr::parse_shard_spec(kSampleSpec);
  auto reparsed = smr::parse_shard_spec(smr::format_shard_spec(spec));
  EXPECT_EQ(reparsed.policy, spec.policy);
  EXPECT_EQ(reparsed.keyspace, spec.keyspace);
  ASSERT_EQ(reparsed.num_groups(), spec.num_groups());
  for (std::size_t g = 0; g < spec.num_groups(); ++g) {
    EXPECT_EQ(reparsed.groups[g].replicas, spec.groups[g].replicas);
  }
  EXPECT_EQ(reparsed.traffic, spec.traffic);
}

TEST(ShardSpec, UniformGeneratorScalesToManyGroups) {
  auto spec = smr::make_uniform_shard_spec(32, 2, 1 << 16);
  EXPECT_EQ(spec.num_groups(), 32u);
  EXPECT_EQ(spec.num_replicas(), 2u);
  EXPECT_EQ(spec.traffic.size(), 32u);
  auto cfg = smr::shard_deployment_config(spec);
  EXPECT_EQ(cfg.mode, smr::Mode::kPsmr);
  EXPECT_EQ(cfg.mpl, 32u);
  EXPECT_EQ(cfg.replicas, 2u);
}

TEST(ShardSpec, RejectsMalformedInput) {
  EXPECT_THROW(smr::parse_shard_spec("keyspace 10\n0 [0 1]\n"),
               std::invalid_argument);  // missing policy
  EXPECT_THROW(smr::parse_shard_spec("policy hash\nkeyspace 10\n"),
               std::invalid_argument);  // no groups
  EXPECT_THROW(
      smr::parse_shard_spec("policy hash\nkeyspace 10\n0 [0 1]\n2 [0 1]\n"),
      std::invalid_argument);  // non-dense ids
  EXPECT_THROW(
      smr::parse_shard_spec("policy hash\nkeyspace 10\n0 [0 1]\n1 [0 2]\n"),
      std::invalid_argument);  // non-uniform replica sets
  EXPECT_THROW(
      smr::parse_shard_spec("policy hash\nkeyspace 10\n0 [0 1]\nm4 1.0\n"),
      std::invalid_argument);  // traffic names an undefined group
  EXPECT_THROW(
      smr::parse_shard_spec("policy hash\nkeyspace 1\n0 [0]\n1 [0]\n"),
      std::invalid_argument);  // keyspace smaller than the group count
  EXPECT_THROW(smr::parse_shard_spec("policy hash\nkeyspace 10\n0 [0 0]\n"),
               std::invalid_argument);  // duplicate replica
}

}  // namespace
}  // namespace psmr
