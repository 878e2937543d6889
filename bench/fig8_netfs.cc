// Figure 8 — NetFS: 1KB read-only and write-only workloads under SMR,
// sP-SMR (8 workers + scheduler) and P-SMR (8 path-range groups + the
// serialized group).
//
// Paper's reported shape: SMR ~100 Kcps reads / ~110 Kcps writes; sP-SMR
// caps at ~116 Kcps for both (1.2x/1.1x — the scheduler saturates before
// using the remaining cores); P-SMR reaches ~309/327 Kcps (3.1x/3.0x).
// Reads take longer than writes because the worker compresses the 1 KB
// response (lz4 compression costs more than decompression), which shows up
// as higher read latency.
#include "netfs/fs_client.h"
#include "bench_common.h"

using namespace psmr;
using namespace psmr::bench;

namespace {

// Live NetFS run: closed-loop clients doing 1 KB reads or writes over a
// preloaded set of files.
workload::RunResult run_real_fs(const Options& opt, smr::Mode mode,
                                int workers, bool reads) {
  smr::DeploymentConfig dcfg;
  dcfg.mode = mode;
  dcfg.mpl = static_cast<std::size_t>(workers);
  dcfg.replicas = 2;
  dcfg.ring.batch_timeout = std::chrono::microseconds(500);
  dcfg.ring.skip_interval = std::chrono::microseconds(1500);
  dcfg.service_factory = [] {
    return smr::make_batched(std::make_unique<netfs::FsService>());
  };
  dcfg.cg_factory = [](std::size_t k) { return netfs::fs_cg(k); };
  smr::Deployment d(std::move(dcfg));
  d.start();

  constexpr int kFiles = 64;
  {
    netfs::FsClient setup(d.make_client());
    util::Buffer block(1024, 0x5a);
    for (int f = 0; f < kFiles; ++f) {
      setup.create("/f" + std::to_string(f));
      setup.write("/f" + std::to_string(f), 0, block);
    }
  }
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> completed{0};
  util::Histogram latency;
  std::mutex lat_mu;
  int nclients = opt.clients_override ? opt.clients_override : 4;
  std::vector<std::thread> clients;
  for (int c = 0; c < nclients; ++c) {
    clients.emplace_back([&, c] {
      netfs::FsClient fs(d.make_client());
      util::SplitMix64 rng(c + 1);
      util::Buffer block(1024, static_cast<std::uint8_t>(c));
      util::Histogram local;
      while (!stop.load(std::memory_order_relaxed)) {
        std::string path = "/f" + std::to_string(rng.next_below(kFiles));
        auto t0 = util::now_us();
        if (reads) {
          util::Buffer out;
          fs.read(path, 0, 1024, out);
        } else {
          fs.write(path, 0, block);
        }
        local.record(static_cast<double>(util::now_us() - t0));
        completed.fetch_add(1, std::memory_order_relaxed);
      }
      std::lock_guard lock(lat_mu);
      latency.merge(local);
    });
  }
  double secs = opt.quick ? 0.5 : 1.5;
  auto t0 = util::now_us();
  std::this_thread::sleep_for(std::chrono::duration<double>(secs));
  stop = true;
  for (auto& t : clients) t.join();
  double elapsed = static_cast<double>(util::now_us() - t0) / 1e6;
  d.stop();

  workload::RunResult out;
  out.completed = completed.load();
  out.kcps = static_cast<double>(out.completed) / elapsed / 1e3;
  out.latency = latency;
  out.avg_latency_us = latency.mean();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt = Options::parse(argc, argv);
  print_title("Figure 8: NetFS 1KB reads and writes");

  const smr::Mode modes[] = {smr::Mode::kSmr, smr::Mode::kSpsmr,
                             smr::Mode::kPsmr};
  std::printf("%-8s %9s %9s %8s %12s %12s\n", "tech", "readKcps", "writeKcps",
              "vsSMR(r)", "read lat(us)", "write lat(us)");
  double smr_reads = 0;
  for (auto mode : modes) {
    int workers = mode == smr::Mode::kSmr ? 1 : 8;
    auto rd = run_real_fs(opt, mode, workers, /*reads=*/true);
    auto wr = run_real_fs(opt, mode, workers, /*reads=*/false);
    if (mode == smr::Mode::kSmr) smr_reads = rd.kcps;
    std::printf("%-8s %9.0f %9.0f %7.2fx %12.0f %12.0f\n",
                smr::mode_name(mode), rd.kcps, wr.kcps, rd.kcps / smr_reads,
                rd.avg_latency_us, wr.avg_latency_us);
  }
  return 0;
}
