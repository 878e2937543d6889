// Figure 4 — performance of dependent commands (key-value store, 100%
// inserts+deletes: every command conflicts with everything).
//
// Paper's reported shape: SMR keeps its ~842 Kcps (single thread, no
// synchronization overhead) and tops the chart; P-SMR drops to ~0.5x
// (every command travels through g_all and the synchronous-mode machinery);
// no-rep ~0.32x and sP-SMR ~0.28x (drain-assign-drain scheduler ping-pong);
// BDB ~0.12x (global latching, throughput down from 140K to 105 Kcps).
// Thread counts per the paper: 1 for everything except BDB (4).
#include "bench_common.h"

using namespace psmr;
using namespace psmr::bench;

int main(int argc, char** argv) {
  Options opt = Options::parse(argc, argv);
  print_title("Figure 4: dependent commands (inserts+deletes)");

  struct Row {
    smr::Mode mode;
    int workers;
  };
  const Row rows[] = {
      {smr::Mode::kNoRep, 1}, {smr::Mode::kSmr, 1},
      {smr::Mode::kSpsmr, 1}, {smr::Mode::kPsmr, 1},
      {smr::Mode::kLockServer, 4},
  };

  double smr_kcps = 0;
  workload::RunResult results[5];
  for (int i = 0; i < 5; ++i) {
    results[i] = run_real_kv(opt, rows[i].mode, rows[i].workers,
                             workload::KvMix{0, 0, 50, 50});
    if (rows[i].mode == smr::Mode::kSmr) smr_kcps = results[i].kcps;
  }

  std::printf("%-8s %8s %8s %7s %9s %9s\n", "tech", "threads", "Kcps", "vsSMR",
              "CPU(%)", "lat(us)");
  for (int i = 0; i < 5; ++i) {
    const auto& r = results[i];
    std::printf("%-8s %8d %8.0f %6.2fx %9.0f %9.0f\n",
                smr::mode_name(rows[i].mode), rows[i].workers, r.kcps,
                r.kcps / smr_kcps, r.cpu_pct, r.avg_latency_us);
  }
  for (int i = 0; i < 5; ++i) {
    print_cdf(smr::mode_name(rows[i].mode), results[i].latency);
  }
  return 0;
}
