// Micro-benchmarks for the cache-conscious B+-tree execution engine
// (kvstore/btree_core.h) — the replica hot path whose traversal is most of
// the paper's ~1.2us per-command execution cost (Section VII-F).
//
// `BaselineTree` below replicates the seed (pre-PR 3) layout exactly —
// fanout 64, interleaved-array nodes, std::upper_bound descent, no
// prefetch, half splits — so the layout speedup stays measurable in CI
// forever, not just against a historical number.
//
// Besides the usual Google Benchmark output, `--json <path>` writes a
// machine-readable summary (ns/op per benchmark plus the derived layout
// speedups at 10M keys), so CI and future PRs can track the trajectory:
//   bench_micro_btree --json BENCH_btree.json
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "kvstore/bptree.h"
#include "kvstore/concurrent_bptree.h"
#include "util/rng.h"

namespace {

using psmr::kvstore::BPlusTree;
using psmr::kvstore::ConcurrentBPlusTree;
using psmr::util::SplitMix64;

// ---------------------------------------------------------------------------
// Baseline: the seed tree layout (PR 1), kept verbatim for comparison.
// ---------------------------------------------------------------------------

class BaselineTree {
 public:
  static constexpr int kMax = 64;

  BaselineTree() : root_(new Leaf()) {}
  ~BaselineTree() { destroy(root_); }
  BaselineTree(const BaselineTree&) = delete;
  BaselineTree& operator=(const BaselineTree&) = delete;

  void insert(std::uint64_t k, std::uint64_t v) {
    auto split = insert_rec(root_, k, v);
    if (split) {
      auto* nr = new Inner();
      nr->count = 1;
      nr->keys[0] = split->first;
      nr->child[0] = root_;
      nr->child[1] = split->second;
      root_ = nr;
    }
  }

  std::optional<std::uint64_t> find(std::uint64_t k) const {
    Node* node = root_;
    while (!node->leaf) {
      auto* in = static_cast<Inner*>(node);
      node = in->child[std::upper_bound(in->keys, in->keys + in->count, k) -
                       in->keys];
    }
    auto* lf = static_cast<Leaf*>(node);
    auto* it = std::lower_bound(lf->keys, lf->keys + lf->count, k);
    if (it != lf->keys + lf->count && *it == k) {
      return lf->vals[it - lf->keys];
    }
    return std::nullopt;
  }

 private:
  struct Node {
    bool leaf;
    int count = 0;
    explicit Node(bool l) : leaf(l) {}
  };
  struct Leaf : Node {
    std::uint64_t keys[kMax + 1];
    std::uint64_t vals[kMax + 1];
    Leaf() : Node(true) {}
  };
  struct Inner : Node {
    std::uint64_t keys[kMax + 1];
    Node* child[kMax + 2] = {};
    Inner() : Node(false) {}
  };

  static void destroy(Node* n) {
    if (!n->leaf) {
      auto* in = static_cast<Inner*>(n);
      for (int i = 0; i <= in->count; ++i) destroy(in->child[i]);
      delete in;
    } else {
      delete static_cast<Leaf*>(n);
    }
  }

  std::optional<std::pair<std::uint64_t, Node*>> insert_rec(Node* node,
                                                            std::uint64_t k,
                                                            std::uint64_t v) {
    if (node->leaf) {
      auto* lf = static_cast<Leaf*>(node);
      int pos = static_cast<int>(
          std::lower_bound(lf->keys, lf->keys + lf->count, k) - lf->keys);
      for (int i = lf->count; i > pos; --i) {
        lf->keys[i] = lf->keys[i - 1];
        lf->vals[i] = lf->vals[i - 1];
      }
      lf->keys[pos] = k;
      lf->vals[pos] = v;
      ++lf->count;
      if (lf->count <= kMax) return std::nullopt;
      auto* r = new Leaf();
      int keep = lf->count / 2;
      r->count = lf->count - keep;
      std::copy(lf->keys + keep, lf->keys + lf->count, r->keys);
      std::copy(lf->vals + keep, lf->vals + lf->count, r->vals);
      lf->count = keep;
      return std::make_pair(r->keys[0], static_cast<Node*>(r));
    }
    auto* in = static_cast<Inner*>(node);
    int idx = static_cast<int>(
        std::upper_bound(in->keys, in->keys + in->count, k) - in->keys);
    auto split = insert_rec(in->child[idx], k, v);
    if (!split) return std::nullopt;
    for (int i = in->count; i > idx; --i) {
      in->keys[i] = in->keys[i - 1];
      in->child[i + 1] = in->child[i];
    }
    in->keys[idx] = split->first;
    in->child[idx + 1] = split->second;
    ++in->count;
    if (in->count <= kMax) return std::nullopt;
    auto* r = new Inner();
    int mid = in->count / 2;
    std::uint64_t up = in->keys[mid];
    r->count = in->count - mid - 1;
    std::copy(in->keys + mid + 1, in->keys + in->count, r->keys);
    std::copy(in->child + mid + 1, in->child + in->count + 1, r->child);
    in->count = mid;
    return std::make_pair(up, static_cast<Node*>(r));
  }

  Node* root_;
};

// ---------------------------------------------------------------------------
// Shared preloaded trees (building a 10M-key tree takes seconds; Google
// Benchmark re-invokes benchmarks while calibrating, so cache per size).
// ---------------------------------------------------------------------------

const BPlusTree& tree_of(std::uint64_t n) {
  static std::map<std::uint64_t, std::unique_ptr<BPlusTree>> cache;
  auto& slot = cache[n];
  if (!slot) {
    slot = std::make_unique<BPlusTree>();
    for (std::uint64_t k = 0; k < n; ++k) slot->insert(k, k);
  }
  return *slot;
}

const BaselineTree& baseline_of(std::uint64_t n) {
  static std::map<std::uint64_t, std::unique_ptr<BaselineTree>> cache;
  auto& slot = cache[n];
  if (!slot) {
    slot = std::make_unique<BaselineTree>();
    for (std::uint64_t k = 0; k < n; ++k) slot->insert(k, k);
  }
  return *slot;
}

// ---------------------------------------------------------------------------
// JSON summary collection (--json <path>), micro_multicast's pattern.
// ---------------------------------------------------------------------------

struct BenchRecord {
  std::string name;
  std::uint64_t keys = 0;
  std::uint64_t ops = 0;
  double ns_per_op = 0.0;
};

std::vector<BenchRecord>& records() {
  static std::vector<BenchRecord> r;
  return r;
}

// Replaces any earlier same-name entry: only the final calibrated run of a
// benchmark should land in the JSON.
void record(std::string name, std::uint64_t keys, std::uint64_t ops,
            std::chrono::steady_clock::duration elapsed) {
  BenchRecord r;
  r.name = std::move(name);
  r.keys = keys;
  r.ops = ops;
  r.ns_per_op =
      ops == 0 ? 0.0
               : static_cast<double>(
                     std::chrono::duration_cast<std::chrono::nanoseconds>(
                         elapsed)
                         .count()) /
                     static_cast<double>(ops);
  for (auto& existing : records()) {
    if (existing.name == r.name) {
      existing = std::move(r);
      return;
    }
  }
  records().push_back(std::move(r));
}

double ns_of(const char* name) {
  for (const auto& r : records()) {
    if (r.name == name) return r.ns_per_op;
  }
  return 0.0;
}

void write_json(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "micro_btree: cannot open %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"micro_btree\",\n  \"results\": [\n");
  for (std::size_t i = 0; i < records().size(); ++i) {
    const auto& r = records()[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"keys\": %llu, \"ops\": %llu, "
                 "\"ns_per_op\": %.1f}%s\n",
                 r.name.c_str(), static_cast<unsigned long long>(r.keys),
                 static_cast<unsigned long long>(r.ops), r.ns_per_op,
                 i + 1 < records().size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"derived\": {\n");
  // The acceptance headline: random find at 10M keys vs the seed layout,
  // for the single-lookup path and for the pipelined batch path the KV
  // service's multi-read uses.
  double base = ns_of("BaselineFind/10000000");
  double single = ns_of("Find/10000000");
  double batched = ns_of("FindBatch/10000000");
  std::fprintf(f, "    \"baseline_find_10m_ns\": %.1f,\n", base);
  std::fprintf(f, "    \"find_10m_ns\": %.1f,\n", single);
  std::fprintf(f, "    \"find_batch_10m_ns\": %.1f,\n", batched);
  std::fprintf(f, "    \"find_10m_speedup\": %.2f,\n",
               single > 0 ? base / single : 0.0);
  std::fprintf(f, "    \"find_batch_10m_speedup\": %.2f\n",
               batched > 0 ? base / batched : 0.0);
  std::fprintf(f, "  }\n}\n");
  std::fclose(f);
  std::fprintf(stderr, "micro_btree: wrote %s (%zu results)\n", path.c_str(),
               records().size());
}

// ---------------------------------------------------------------------------
// Benchmarks.  Sizes per the ISSUE: 10K (cache-resident), 1M (LLC-edge),
// 10M (the paper's preloaded working set, memory-resident).
// ---------------------------------------------------------------------------

constexpr std::int64_t kSizes[] = {10'000, 1'000'000, 10'000'000};

void BM_Find(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  const BPlusTree& tree = tree_of(n);
  SplitMix64 rng(1);
  std::uint64_t ops = 0;
  auto started = std::chrono::steady_clock::now();
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.find(rng.next_below(n)));
    ++ops;
  }
  record("Find/" + std::to_string(n), n, ops,
         std::chrono::steady_clock::now() - started);
}
BENCHMARK(BM_Find)->Arg(kSizes[0])->Arg(kSizes[1])->Arg(kSizes[2]);

void BM_BaselineFind(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  const BaselineTree& tree = baseline_of(n);
  SplitMix64 rng(1);
  std::uint64_t ops = 0;
  auto started = std::chrono::steady_clock::now();
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.find(rng.next_below(n)));
    ++ops;
  }
  record("BaselineFind/" + std::to_string(n), n, ops,
         std::chrono::steady_clock::now() - started);
}
BENCHMARK(BM_BaselineFind)->Arg(kSizes[0])->Arg(kSizes[1])->Arg(kSizes[2]);

// The pipelined multi-get path (kv_service's kKvMultiRead): one iteration
// resolves kBatchWidth independent keys; ns/op is per key.
void BM_FindBatch(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  const BPlusTree& tree = tree_of(n);
  SplitMix64 rng(2);
  constexpr std::size_t W = BPlusTree::kBatchWidth;
  std::uint64_t keys[W];
  std::optional<std::uint64_t> out[W];
  std::uint64_t ops = 0;
  auto started = std::chrono::steady_clock::now();
  for (auto _ : state) {
    for (auto& k : keys) k = rng.next_below(n);
    tree.find_batch(keys, W, out);
    benchmark::DoNotOptimize(out);
    ops += W;
  }
  record("FindBatch/" + std::to_string(n), n, ops,
         std::chrono::steady_clock::now() - started);
  state.SetItemsProcessed(static_cast<std::int64_t>(ops));
}
BENCHMARK(BM_FindBatch)->Arg(kSizes[0])->Arg(kSizes[1])->Arg(kSizes[2]);

void BM_Update(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  // Updates mutate values in place; shared tree stays valid (value == 42
  // slots are never read back by the other benchmarks' DoNotOptimize).
  auto& tree = const_cast<BPlusTree&>(tree_of(n));
  SplitMix64 rng(3);
  std::uint64_t ops = 0;
  auto started = std::chrono::steady_clock::now();
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.update(rng.next_below(n), 42));
    ++ops;
  }
  record("Update/" + std::to_string(n), n, ops,
         std::chrono::steady_clock::now() - started);
}
BENCHMARK(BM_Update)->Arg(kSizes[0])->Arg(kSizes[1])->Arg(kSizes[2]);

// Leaf-chain range scan, 100-key windows; ns/op is per visited entry.
void BM_RangeScan(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  const BPlusTree& tree = tree_of(n);
  SplitMix64 rng(4);
  const std::uint64_t window = std::min<std::uint64_t>(100, n);
  std::uint64_t visited = 0;
  auto started = std::chrono::steady_clock::now();
  for (auto _ : state) {
    std::uint64_t lo = rng.next_below(n - window + 1);
    std::uint64_t sum = 0;
    visited += tree.range_scan(lo, lo + window - 1,
                               [&sum](std::uint64_t, std::uint64_t v) {
                                 sum += v;
                               });
    benchmark::DoNotOptimize(sum);
  }
  record("RangeScan/" + std::to_string(n), n, visited,
         std::chrono::steady_clock::now() - started);
  state.SetItemsProcessed(static_cast<std::int64_t>(visited));
}
BENCHMARK(BM_RangeScan)->Arg(kSizes[0])->Arg(kSizes[1])->Arg(kSizes[2]);

void BM_InsertErase(benchmark::State& state) {
  BPlusTree tree;
  const auto n = static_cast<std::uint64_t>(state.range(0));
  for (std::uint64_t k = 0; k < n; ++k) tree.insert(k * 2, k);
  SplitMix64 rng(5);
  std::uint64_t ops = 0;
  auto started = std::chrono::steady_clock::now();
  for (auto _ : state) {
    std::uint64_t k = rng.next_below(n) * 2 + 1;  // odd keys churn
    tree.insert(k, k);
    tree.erase(k);
    ops += 2;
  }
  record("InsertErase/" + std::to_string(n), n, ops,
         std::chrono::steady_clock::now() - started);
}
BENCHMARK(BM_InsertErase)->Arg(1'000'000);

void BM_ConcurrentTreeRead(benchmark::State& state) {
  static ConcurrentBPlusTree tree;
  if (state.thread_index() == 0 && tree.size() == 0) {
    for (std::uint64_t k = 0; k < 1'000'000; ++k) tree.insert(k, k);
  }
  SplitMix64 rng(6 + static_cast<std::uint64_t>(state.thread_index()));
  std::uint64_t ops = 0;
  auto started = std::chrono::steady_clock::now();
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.find(rng.next_below(1'000'000)));
    ++ops;
  }
  if (state.thread_index() == 0 && state.threads() == 1) {
    // Multi-threaded variants interleave wall clocks; only the 1-thread
    // run lands in the JSON (Google Benchmark's report covers the rest).
    record("ConcurrentFind/threads1", 1'000'000, ops,
           std::chrono::steady_clock::now() - started);
  }
}
// The latch-crabbing read path: the per-node locking cost is what the
// paper's BDB comparison attributes its slowdown to.
BENCHMARK(BM_ConcurrentTreeRead)->Threads(1)->Threads(4);

}  // namespace

// Custom main: strip `--json <path>` (ours) before Google Benchmark sees
// the command line, run the benchmarks, then write the summary.
int main(int argc, char** argv) {
  std::string json_path;
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--json") && i + 1 < argc) {
      json_path = argv[++i];
      continue;
    }
    args.push_back(argv[i]);
  }
  int filtered_argc = static_cast<int>(args.size());
  benchmark::Initialize(&filtered_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(filtered_argc, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (!json_path.empty()) write_json(json_path);
  return 0;
}
