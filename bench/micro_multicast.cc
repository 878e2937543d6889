// Micro-benchmarks for the real atomic-multicast stack: end-to-end
// submit→deliver throughput through one Paxos ring, the effect of the 8 KB
// batch bound, and paced mpl-4 traffic, where the sparse submits seal each
// batch at once.  Runs the real protocol threads, so absolute numbers
// depend on the host's core count.
//
// Besides the usual Google Benchmark output, `--json <path>` writes a
// machine-readable summary (decided batches, mean commands per batch,
// ns per command) per benchmark, so CI and future PRs can track the
// batching trajectory:
//   bench_micro_multicast --json BENCH_multicast.json
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "multicast/amcast.h"
#include "transport/network.h"

namespace {

using namespace psmr;

// ---------------------------------------------------------------------------
// JSON summary collection (--json <path>).
// ---------------------------------------------------------------------------

struct BenchRecord {
  std::string name;
  std::uint64_t commands = 0;
  std::uint64_t decided_batches = 0;
  std::uint64_t decided_skips = 0;
  double cmds_per_batch = 0.0;
  double ns_per_cmd = 0.0;
};

std::vector<BenchRecord>& records() {
  static std::vector<BenchRecord> r;
  return r;
}

// Records one benchmark's summary, replacing any earlier entry with the
// same name: Google Benchmark re-invokes un-pinned benchmarks while
// calibrating the iteration count, and only the final (fully measured)
// run should land in the JSON.
void record(std::string name, std::uint64_t commands,
            const paxos::CoordinatorStats& s,
            std::chrono::steady_clock::duration elapsed) {
  BenchRecord r;
  r.name = std::move(name);
  r.commands = commands;
  r.decided_batches = s.decided_batches;
  r.decided_skips = s.decided_skips;
  r.cmds_per_batch = s.mean_commands_per_batch();
  r.ns_per_cmd =
      commands == 0
          ? 0.0
          : static_cast<double>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
                    .count()) /
                static_cast<double>(commands);
  for (auto& existing : records()) {
    if (existing.name == r.name) {
      existing = std::move(r);
      return;
    }
  }
  records().push_back(std::move(r));
}

void write_json(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "micro_multicast: cannot open %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"micro_multicast\",\n  \"results\": [\n");
  for (std::size_t i = 0; i < records().size(); ++i) {
    const auto& r = records()[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"commands\": %llu, "
                 "\"decided_batches\": %llu, \"decided_skips\": %llu, "
                 "\"cmds_per_batch\": %.2f, \"ns_per_cmd\": %.1f}%s\n",
                 r.name.c_str(), static_cast<unsigned long long>(r.commands),
                 static_cast<unsigned long long>(r.decided_batches),
                 static_cast<unsigned long long>(r.decided_skips),
                 r.cmds_per_batch, r.ns_per_cmd, i + 1 < records().size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::fprintf(stderr, "micro_multicast: wrote %s (%zu results)\n",
               path.c_str(), records().size());
}

// ---------------------------------------------------------------------------
// Benchmarks.
// ---------------------------------------------------------------------------

void BM_RingThroughput(benchmark::State& state) {
  transport::Network net;
  paxos::RingConfig cfg;
  cfg.batch_timeout = std::chrono::microseconds(200);
  cfg.max_batch_bytes = static_cast<std::size_t>(state.range(0));
  paxos::Ring ring(net, 0, cfg);
  auto learner = ring.subscribe();
  ring.start();
  auto [me, mybox] = net.register_node();

  util::Writer w;
  w.u64(42);
  util::Buffer cmd = w.take();

  std::uint64_t delivered = 0;
  std::uint64_t submitted = 0;
  auto started = std::chrono::steady_clock::now();
  for (auto _ : state) {
    // Keep a pipeline of ~512 outstanding commands.
    while (submitted - delivered < 512) {
      ring.submit(me, cmd);
      ++submitted;
    }
    while (delivered < submitted) {
      auto d = learner->next_for(std::chrono::milliseconds(200));
      if (!d) break;
      if (!d->batch.skip) delivered += d->batch.commands.size();
      if (submitted - delivered < 256) break;
    }
  }
  auto elapsed = std::chrono::steady_clock::now() - started;
  state.SetItemsProcessed(static_cast<std::int64_t>(delivered));
  auto s = ring.stats();
  state.counters["cmds_per_batch"] = s.mean_commands_per_batch();
  record("RingThroughput/" + std::to_string(state.range(0)), delivered, s,
         elapsed);
  ring.stop();
  net.shutdown();
}
// Batch-size ablation: 1KB vs the paper's 8KB vs 64KB.
BENCHMARK(BM_RingThroughput)->Arg(1024)->Arg(8192)->Arg(65536)
    ->Unit(benchmark::kMillisecond);

void BM_BusMulticastSingleGroup(benchmark::State& state) {
  transport::Network net;
  multicast::BusConfig cfg;
  cfg.num_groups = 2;
  cfg.ring.batch_timeout = std::chrono::microseconds(200);
  cfg.ring.skip_interval = std::chrono::microseconds(1000);
  multicast::Bus bus(net, cfg);
  auto sub = bus.subscribe(0);
  bus.start();
  auto [me, mybox] = net.register_node();

  util::Writer w;
  w.u64(7);
  util::Buffer msg = w.take();

  std::uint64_t delivered = 0, submitted = 0;
  for (auto _ : state) {
    while (submitted - delivered < 256) {
      bus.multicast(me, multicast::GroupSet::single(0), msg);
      ++submitted;
    }
    while (delivered < submitted) {
      auto d = sub->next();
      if (!d) break;
      ++delivered;
      if (submitted - delivered < 128) break;
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(delivered));
  bus.stop();
  net.shutdown();
}
// Bounded iterations: merged delivery paces at the skip interval when
// rings idle, so adaptive iteration counts can run very long on slow hosts.
BENCHMARK(BM_BusMulticastSingleGroup)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(300);

// Paced mpl-4 traffic: 4 worker rings each fed one command every ~300us
// against a 150us batch timeout — a trickle that never fills a batch, so
// each ring seals its commands at once instead of waiting.  The headline
// counter is cmds_per_batch, from the real CoordinatorStats of the worker
// rings (skips excluded).
void BM_BusPacedMpl4(benchmark::State& state) {
  constexpr std::size_t kGroups = 4;
  constexpr auto kGap = std::chrono::microseconds(300);

  transport::Network net;
  multicast::BusConfig cfg;
  cfg.num_groups = kGroups;
  cfg.ring.batch_timeout = std::chrono::microseconds(150);
  cfg.ring.skip_interval = std::chrono::microseconds(1500);
  multicast::Bus bus(net, cfg);
  std::vector<std::unique_ptr<multicast::MergeDeliverer>> subs;
  for (multicast::GroupId g = 0; g < kGroups; ++g) {
    subs.push_back(bus.subscribe(g));
  }
  bus.start();
  std::vector<transport::NodeId> senders;
  std::vector<std::shared_ptr<transport::Mailbox>> boxes;
  for (std::size_t g = 0; g < kGroups; ++g) {
    auto [node, box] = net.register_node();
    senders.push_back(node);
    boxes.push_back(std::move(box));
  }

  util::Writer w;
  w.u64(7);
  util::Buffer msg = w.take();

  // One iteration = one paced command to each of the 4 worker rings.
  std::uint64_t submitted_per_group = 0;
  auto started = std::chrono::steady_clock::now();
  for (auto _ : state) {
    for (std::size_t g = 0; g < kGroups; ++g) {
      bus.multicast(senders[g], multicast::GroupSet::single(
                                    static_cast<multicast::GroupId>(g)),
                    msg);
    }
    ++submitted_per_group;
    std::this_thread::sleep_for(kGap);
  }
  // Drain everything so the stats cover the full run.
  std::uint64_t delivered = 0;
  for (auto& sub : subs) {
    for (std::uint64_t i = 0; i < submitted_per_group; ++i) {
      auto d = sub->next();
      if (!d) break;
      ++delivered;
    }
  }
  auto elapsed = std::chrono::steady_clock::now() - started;

  paxos::CoordinatorStats s;
  for (multicast::GroupId g = 0; g < kGroups; ++g) s += bus.ring_stats(g);
  state.SetItemsProcessed(static_cast<std::int64_t>(delivered));
  state.counters["cmds_per_batch"] = s.mean_commands_per_batch();
  record("BusPacedMpl4", delivered, s, elapsed);
  bus.stop();
  net.shutdown();
}
// Fixed iteration count: the loop sleeps by design (paced open-loop load),
// so Google Benchmark's adaptive iteration search would run for minutes.
BENCHMARK(BM_BusPacedMpl4)
    ->Iterations(400)
    ->Unit(benchmark::kMillisecond);

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
