// Figure 3 — performance of independent commands (key-value store, 100%
// reads, uniform keys).
//
// Paper's reported shape: SMR 1x (~850 Kcps), no-rep 1.22x, sP-SMR 1.14x,
// P-SMR 3.15x, BDB 0.2x; P-SMR reaches the highest CPU usage (~8 cores) and,
// at peak load, the highest average latency; the CDF shows a longer tail
// for P-SMR.  Thread counts per technique follow the paper: P-SMR 8,
// sP-SMR/no-rep 2 (workers, excluding the scheduler), SMR 1, BDB 6.
//
// `--json <path>` additionally measures the replica-side batched-execution
// record (PR: batch-aware Service API): the same fig3 mix driven through
// the replica execution pipeline — feeding thread → scheduler → worker →
// B+-tree → marshaled reply — with execution batching on (run length 16,
// reads resolve through the pipelined find_batch lane) vs off (run
// length 1, the pre-batching sequential path), plus a full-deployment
// comparison with ExecStats.  The pipeline ratio is the end-to-end
// acceptance number CI gates (>= 1.3x).
//
// The same flag also measures the response-path record (PR: batched reply
// coalescing): the full sP-SMR deployment at window 50 with the reply
// spool at its default caps vs a response cap of 1 (every reply its own
// wire message, on the same code path) — Kcps, responses per wire message, flush-reason
// counts and latency percentiles — written to BENCH_response.json next to
// the main JSON and gated in CI (>= 2 responses per wire message).
#include <atomic>
#include <thread>

#include "bench_common.h"
#include "smr/scheduler.h"
#include "util/clock.h"
#include "util/rng.h"

using namespace psmr;
using namespace psmr::bench;

namespace {

struct PipelineResult {
  double kcps = 0;
  smr::ExecStats exec;
};

// The replica execution pipeline under the fig3 mix: a single
// thread feeds uniform point reads into a SchedulerCore (the sP-SMR/no-rep
// engine; P-SMR workers run the same accumulate-and-execute loop) and every
// response is marshaled and delivered to a real mailbox.  Command
// construction is done up front so the measurement covers the pipeline, not
// the workload generator.
PipelineResult run_exec_pipeline(std::size_t run_length, std::uint64_t keys,
                                 std::uint64_t commands) {
  transport::Network net;
  smr::SchedulerOptions opts;
  opts.run_length = run_length;
  smr::SchedulerCore core(net, std::make_unique<kvstore::KvService>(keys),
                          kvstore::kv_keyed_cg(1), 1, "exec-pipeline", opts);
  auto [me, mybox] = net.register_node();
  auto box = mybox;  // keep the mailbox alive past the structured binding
  std::thread drainer([box] {
    while (box->pop()) {
    }
  });

  std::vector<smr::Command> cmds;
  cmds.reserve(commands);
  util::SplitMix64 rng(42);
  for (std::uint64_t i = 0; i < commands; ++i) {
    smr::Command c;
    c.cmd = kvstore::kKvRead;
    c.client = 1;
    c.seq = i + 1;
    c.reply_to = me;
    c.params = kvstore::encode_key(rng.next_below(keys));
    cmds.push_back(std::move(c));
  }

  core.start();
  const std::int64_t t0 = util::now_us();
  std::uint64_t submitted = 0;
  for (auto& c : cmds) {
    // Bounded in-flight window: queues stay deep enough to batch but never
    // grow without limit (closed-loop, like the paper's client windows).
    while (submitted - core.executed() > 8192) std::this_thread::yield();
    core.schedule(std::move(c));
    ++submitted;
  }
  while (core.executed() < submitted) std::this_thread::yield();
  const std::int64_t t1 = util::now_us();

  PipelineResult r;
  r.kcps = static_cast<double>(submitted) /
           static_cast<double>(t1 - t0) * 1e3;
  r.exec = core.service().exec_stats();
  core.stop();
  net.shutdown();
  drainer.join();
  return r;
}

/// BENCH_response.json lands next to the main --json file.
std::string response_json_path(const std::string& json) {
  auto slash = json.find_last_of('/');
  std::string dir = slash == std::string::npos ? "" : json.substr(0, slash + 1);
  return dir + "BENCH_response.json";
}

void print_latency(std::FILE* f, const workload::RunResult& r,
                   const char* trailing, const char* key = "latency_us") {
  std::fprintf(f,
               "    \"%s\": {\"avg\": %.1f, \"p50\": %.1f, "
               "\"p95\": %.1f, \"p99\": %.1f}%s\n",
               key, r.avg_latency_us, r.p50_latency_us, r.p95_latency_us,
               r.p99_latency_us, trailing);
}

void write_json(const Options& opt) {
  // Pipeline measurement at the paper's memory-resident working-set scale
  // (batching pays for overlapping DRAM miss chains; a cache-resident tree
  // would understate it).  --quick trims the command count, not the tree.
  const std::uint64_t keys = 8'000'000;
  const std::uint64_t commands = opt.quick ? 400'000 : 2'000'000;
  std::fprintf(stderr, "fig3: measuring exec pipeline (%llu keys)...\n",
               static_cast<unsigned long long>(keys));
  PipelineResult seq = run_exec_pipeline(1, keys, commands);
  PipelineResult batched = run_exec_pipeline(16, keys, commands);
  const double ratio = seq.kcps > 0 ? batched.kcps / seq.kcps : 0;

  // Full-deployment comparison (replication, Paxos, clients included): the
  // same knob end to end.  On few-core hosts ordering dominates, so this
  // is reported, not gated.
  workload::RunResult real_seq;
  workload::RunResult real_batched;
  smr::SpoolStats spool;
  run_real_kv(opt, sim::Tech::kSpsmr, 2, workload::KvMix{100, 0, 0, 0},
              /*zipf=*/false, /*exec_run_length=*/1, &real_seq);
  // Allocation metering (zero-copy pooled buffers PR): heap traffic across
  // the whole coalesced deployment leg — Paxos, batches, responses, clients
  // — divided by completed commands.  Whole-process, so it includes the
  // workload driver itself; the hot-path-only number is bench_micro_codec's.
  util::allochook::AllocWindow alloc_on;
  run_real_kv(opt, sim::Tech::kSpsmr, 2, workload::KvMix{100, 0, 0, 0},
              /*zipf=*/false, /*exec_run_length=*/16, &real_batched,
              smr::ReplyCaps{}.max_responses, &spool);
  const double allocs_per_cmd_on =
      real_batched.completed > 0
          ? static_cast<double>(alloc_on.count()) /
                static_cast<double>(real_batched.completed)
          : 0;

  // Response-path record: the same batched deployment (window 50) with
  // a reply cap of 1 (no coalescing).  real_batched is the coalescing leg.
  std::fprintf(stderr, "fig3: measuring response path (reply cap 1)...\n");
  workload::RunResult resp_off;
  util::allochook::AllocWindow alloc_off;
  run_real_kv(opt, sim::Tech::kSpsmr, 2, workload::KvMix{100, 0, 0, 0},
              /*zipf=*/false, /*exec_run_length=*/16, &resp_off,
              /*reply_cap=*/1);
  const double allocs_per_cmd_off =
      resp_off.completed > 0 ? static_cast<double>(alloc_off.count()) /
                                   static_cast<double>(resp_off.completed)
                             : 0;
  const workload::RunResult& resp_on = real_batched;

  std::FILE* f = std::fopen(opt.json.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "fig3: cannot open %s\n", opt.json.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"fig3_exec_batching\",\n");
  std::fprintf(f, "  \"exec_pipeline\": {\n");
  std::fprintf(f, "    \"keys\": %llu,\n",
               static_cast<unsigned long long>(keys));
  std::fprintf(f, "    \"commands\": %llu,\n",
               static_cast<unsigned long long>(commands));
  std::fprintf(f, "    \"seq_kcps\": %.1f,\n", seq.kcps);
  std::fprintf(f, "    \"batched_kcps\": %.1f,\n", batched.kcps);
  std::fprintf(f, "    \"batched_vs_seq\": %.3f,\n", ratio);
  std::fprintf(f, "    \"mean_commands_per_batch\": %.2f,\n",
               batched.exec.mean_commands_per_batch());
  std::fprintf(f, "    \"batched_read_share\": %.3f,\n",
               batched.exec.batched_read_share());
  std::fprintf(f, "    \"max_batch\": %llu\n",
               static_cast<unsigned long long>(batched.exec.max_batch));
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"deployment_spsmr\": {\n");
  std::fprintf(f, "    \"seq_kcps\": %.1f,\n", real_seq.kcps);
  std::fprintf(f, "    \"batched_kcps\": %.1f,\n", real_batched.kcps);
  std::fprintf(f, "    \"mean_commands_per_batch\": %.2f,\n",
               real_batched.exec.mean_commands_per_batch());
  std::fprintf(f, "    \"batched_read_share\": %.3f,\n",
               real_batched.exec.batched_read_share());
  print_latency(f, real_batched, "");
  std::fprintf(f, "  }\n}\n");
  std::fclose(f);

  const std::string resp_path = response_json_path(opt.json);
  std::FILE* rf = std::fopen(resp_path.c_str(), "w");
  if (!rf) {
    std::fprintf(stderr, "fig3: cannot open %s\n", resp_path.c_str());
    return;
  }
  const double resp_ratio =
      resp_off.kcps > 0 ? resp_on.kcps / resp_off.kcps : 0;
  std::fprintf(rf, "{\n  \"bench\": \"fig3_response_batching\",\n");
  std::fprintf(rf, "  \"deployment_spsmr\": {\n");
  std::fprintf(rf, "    \"window\": 50,\n");
  std::fprintf(rf, "    \"uncoalesced_kcps\": %.1f,\n", resp_off.kcps);
  std::fprintf(rf, "    \"coalesced_kcps\": %.1f,\n", resp_on.kcps);
  std::fprintf(rf, "    \"coalesced_vs_uncoalesced\": %.3f,\n", resp_ratio);
  std::fprintf(rf, "    \"responses_per_message\": %.2f,\n",
               resp_on.response.mean_responses_per_message());
  std::fprintf(rf, "    \"uncoalesced_responses_per_message\": %.2f,\n",
               resp_off.response.mean_responses_per_message());
  std::fprintf(rf, "    \"alloc_hook_active\": %s,\n",
               util::allochook::kAllocHookActive ? "true" : "false");
  std::fprintf(rf, "    \"coalesced_allocs_per_cmd\": %.2f,\n",
               allocs_per_cmd_on);
  std::fprintf(rf, "    \"uncoalesced_allocs_per_cmd\": %.2f,\n",
               allocs_per_cmd_off);
  std::fprintf(rf,
               "    \"spool\": {\"spooled_commands\": %llu, \"flushes\": "
               "%llu, \"mean_commands_per_flush\": %.2f, "
               "\"failed_flush_commands\": %llu},\n",
               static_cast<unsigned long long>(spool.spooled_commands),
               static_cast<unsigned long long>(spool.flushes),
               spool.mean_commands_per_flush(),
               static_cast<unsigned long long>(spool.failed_flush_commands));
  std::fprintf(rf,
               "    \"flush\": {\"batch\": %llu, \"size\": %llu, "
               "\"bytes\": %llu, \"timeout\": %llu},\n",
               static_cast<unsigned long long>(resp_on.response.flush_batch),
               static_cast<unsigned long long>(resp_on.response.flush_size),
               static_cast<unsigned long long>(resp_on.response.flush_bytes),
               static_cast<unsigned long long>(
                   resp_on.response.flush_timeout));
  print_latency(rf, resp_on, ",", "coalesced_latency_us");
  print_latency(rf, resp_off, "", "uncoalesced_latency_us");
  std::fprintf(rf, "  }\n}\n");
  std::fclose(rf);

  std::fprintf(stderr,
               "fig3: exec pipeline %0.f -> %.0f Kcps (%.2fx, %.1f "
               "cmds/batch); wrote %s\n",
               seq.kcps, batched.kcps, ratio,
               batched.exec.mean_commands_per_batch(), opt.json.c_str());
  std::fprintf(stderr,
               "fig3: responses %.1f -> %.1f Kcps (%.2fx, %.1f resp/msg); "
               "wrote %s\n",
               resp_off.kcps, resp_on.kcps, resp_ratio,
               resp_on.response.mean_responses_per_message(),
               resp_path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  Options opt = Options::parse(argc, argv);
  if (!opt.json.empty()) {
    write_json(opt);
    return 0;
  }
  std::printf("=== Figure 3: independent commands (100%% reads) [%s] ===\n",
              opt.real ? "real runtime" : "calibrated simulation");

  struct Row {
    sim::Tech tech;
    int workers;
    int clients;  // scaled to each technique's saturation point
  };
  // Clients chosen so each technique runs at its peak, mirroring the
  // paper's methodology of reporting peak throughput per technique.
  const Row rows[] = {
      {sim::Tech::kNoRep, 2, 70},
      {sim::Tech::kSmr, 1, 60},
      {sim::Tech::kSpsmr, 2, 65},
      {sim::Tech::kPsmr, 8, 190},
      {sim::Tech::kLock, 6, 7},
  };

  double smr_kcps = 0;
  sim::SimResult results[5];
  workload::RunResult raw[5];
  for (int i = 0; i < 5; ++i) {
    const auto& row = rows[i];
    if (opt.real) {
      results[i] = run_real_kv(opt, row.tech, row.workers,
                               workload::KvMix{100, 0, 0, 0}, /*zipf=*/false,
                               /*exec_run_length=*/16, &raw[i]);
    } else {
      auto cfg = base_sim(opt, row.tech, row.workers, row.clients);
      results[i] = sim::simulate(cfg);
    }
    if (row.tech == sim::Tech::kSmr) smr_kcps = results[i].kcps;
  }

  std::printf("%-8s %8s %8s %7s %9s %9s", "tech", "threads", "Kcps", "vsSMR",
              "CPU(%)", "lat(us)");
  if (opt.real) std::printf(" %10s %9s", "cmds/batch", "batched%");
  std::printf("\n");
  for (int i = 0; i < 5; ++i) {
    std::printf("%-8s %8d %8.0f %6.2fx %9.0f %9.0f",
                sim::tech_name(rows[i].tech), rows[i].workers,
                results[i].kcps, results[i].kcps / smr_kcps,
                results[i].cpu_pct, results[i].avg_latency_us);
    if (opt.real) {
      std::printf(" %10.2f %8.1f%%", raw[i].exec.mean_commands_per_batch(),
                  100.0 * raw[i].exec.batched_read_share());
    }
    std::printf("\n");
  }
  for (int i = 0; i < 5; ++i) {
    print_cdf(sim::tech_name(rows[i].tech), results[i].latency);
  }
  return 0;
}
