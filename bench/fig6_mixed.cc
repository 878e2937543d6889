// Figure 6 — mixed workloads: P-SMR (8 workers) vs SMR as the percentage
// of dependent commands (inserts+deletes) grows, 0.001%..10% (log x-axis).
//
// Paper's reported shape: SMR is flat (~842 Kcps) across the whole mix
// (tree traversal dominates either way).  P-SMR starts >3x above and decays
// as synchronization overhead grows; the *breakeven point* — where P-SMR
// stops beating SMR — sits at roughly 10% dependent commands.  P-SMR's
// latency *decreases* with more dependent commands, tracking its falling
// throughput (same client window over fewer commands per second... the
// paper notes the decrease corresponds to the throughput reduction).
//
// Each point runs the live runtime with pct/2 % inserts and pct/2 %
// deletes; KvMix takes fractional percents, so 0.001% is really 0.001%.
#include <cmath>

#include "bench_common.h"

using namespace psmr;
using namespace psmr::bench;

int main(int argc, char** argv) {
  Options opt = Options::parse(argc, argv);
  print_title("Figure 6: mixed workloads, P-SMR vs SMR");

  const double percents[] = {0.001, 0.01, 0.1, 1.0, 5.0, 10.0};

  std::printf("%-10s %12s %12s %14s %14s\n", "dep(%)", "P-SMR Kcps",
              "SMR Kcps", "P-SMR lat(us)", "SMR lat(us)");
  double breakeven = -1;
  double prev_pct = 0, prev_diff = 0;
  for (double pct : percents) {
    const workload::KvMix mix{100 - pct, 0, pct / 2, pct / 2};
    auto psmr_r = run_real_kv(opt, smr::Mode::kPsmr, 8, mix);
    auto smr_r = run_real_kv(opt, smr::Mode::kSmr, 1, mix);
    std::printf("%-10.3f %12.0f %12.0f %14.0f %14.0f\n", pct, psmr_r.kcps,
                smr_r.kcps, psmr_r.avg_latency_us, smr_r.avg_latency_us);
    double diff = psmr_r.kcps - smr_r.kcps;
    if (breakeven < 0 && diff < 0 && prev_diff > 0) {
      // Log-linear interpolation of the crossover.
      double f = prev_diff / (prev_diff - diff);
      breakeven = prev_pct * std::pow(pct / prev_pct, f);
    }
    prev_pct = pct;
    prev_diff = diff;
  }
  if (breakeven > 0) {
    std::printf("breakeven: P-SMR == SMR at ~%.1f%% dependent commands "
                "(paper: ~10%%)\n",
                breakeven);
  } else {
    std::printf("breakeven: not crossed in the sweep range\n");
  }
  return 0;
}
