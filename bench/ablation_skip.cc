// Ablation: merge lease length, RingConfig::skip_interval (real runtime).
//
// P-SMR's per-thread delivery merges the worker's own ring with the shared
// g_all ring on clock slots.  A command on one ring waits until the other
// ring has leased past its slot; the idle ring proposes that lease SKIP on
// demand, when the busy ring's coordinator nudges it.  A longer lease
// covers more of the peer's traffic per SKIP, so skip traffic shrinks,
// while a command that lands right after its own ring's lease is ordered
// after the lease end.  This bench measures the trade-off on the real
// stack: mean client latency and the skip count for a fixed trickle of
// keyed commands.
#include <thread>

#include "bench_common.h"
#include "kvstore/kv_client.h"

using namespace psmr;
using namespace psmr::bench;

int main(int argc, char** argv) {
  Options opt = Options::parse(argc, argv);
  std::printf("=== Ablation: merge lease length (real runtime) ===\n");
  std::printf("%-14s %12s %12s %14s\n", "skip_us", "mean lat(us)",
              "p99 lat(us)", "skips decided");

  const int skip_intervals[] = {500, 1500, 5000, 15000};
  for (int skip_us : skip_intervals) {
    auto cfg = real_kv_config(smr::Mode::kPsmr, 4, /*keys=*/1024);
    cfg.ring.skip_interval = std::chrono::microseconds(skip_us);
    smr::Deployment d(std::move(cfg));
    d.start();
    kvstore::KvClient kv(d.make_client());

    util::Histogram lat;
    const int ops = opt.quick ? 40 : 150;
    for (int i = 0; i < ops; ++i) {
      auto t0 = util::now_us();
      kv.update(static_cast<std::uint64_t>(i) % 1024, i);
      lat.record(static_cast<double>(util::now_us() - t0));
      // A trickle, not a flood: latency floor is visible when rings idle.
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
    std::uint64_t skips = d.bus()->decided_skips();
    std::printf("%-14d %12.0f %12.0f %14lu\n", skip_us, lat.mean(),
                lat.quantile(0.99), skips);
    d.stop();
  }
  std::printf("(expected: skip traffic shrinks with the lease length; "
              "latency stays near one round-trip)\n");
  return 0;
}
