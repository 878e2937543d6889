// Figure 7 — skewed workloads: P-SMR vs sP-SMR under uniform and Zipf(1)
// key selection (50% updates / 50% reads), threads 1..8; absolute plus
// per-thread normalized throughput.
//
// Paper's reported shape: with uniform keys P-SMR's throughput climbs with
// every added core; with Zipf it is bounded by the most-loaded multicast
// group (visible at 8 threads).  sP-SMR is scheduler-bound either way —
// and with 1-2 threads its *Zipfian* throughput beats its uniform one,
// because hot keys stay cached at the processor.  P-SMR scales better than
// sP-SMR under both distributions (per-thread normalized plot).
//
// Every series uses the keyed C-G.  The load-aware C-G of Section IV-D
// (smr::HotAwareCg, hot keys pinned to distinct groups) has no series here.
#include "bench_common.h"

using namespace psmr;
using namespace psmr::bench;

int main(int argc, char** argv) {
  Options opt = Options::parse(argc, argv);
  print_title("Figure 7: skewed workloads (50% updates / 50% reads)");

  const int thread_counts[] = {1, 2, 4, 6, 8};
  struct Series {
    smr::Mode mode;
    bool zipf;
    const char* label;
  };
  const Series series[] = {
      {smr::Mode::kPsmr, false, "P-SMR:uniform"},
      {smr::Mode::kPsmr, true, "P-SMR:zipf"},
      {smr::Mode::kSpsmr, false, "sP-SMR:uniform"},
      {smr::Mode::kSpsmr, true, "sP-SMR:zipf"},
  };

  double abs_kcps[4][5];
  for (int wi = 0; wi < 5; ++wi) {
    for (int si = 0; si < 4; ++si) {
      abs_kcps[si][wi] =
          run_real_kv(opt, series[si].mode, thread_counts[wi],
                      workload::KvMix{50, 50, 0, 0}, series[si].zipf)
              .kcps;
    }
  }

  std::printf("--- absolute throughput (Kcps) ---\n%-8s", "threads");
  for (const auto& s : series) std::printf(" %15s", s.label);
  std::printf("\n");
  for (int wi = 0; wi < 5; ++wi) {
    std::printf("%-8d", thread_counts[wi]);
    for (int si = 0; si < 4; ++si) std::printf(" %15.0f", abs_kcps[si][wi]);
    std::printf("\n");
  }

  std::printf("--- per-thread normalized throughput ---\n%-8s", "threads");
  for (const auto& s : series) std::printf(" %15s", s.label);
  std::printf("\n");
  for (int wi = 0; wi < 5; ++wi) {
    std::printf("%-8d", thread_counts[wi]);
    for (int si = 0; si < 4; ++si) {
      std::printf(" %15.2f",
                  abs_kcps[si][wi] / thread_counts[wi] / abs_kcps[si][0]);
    }
    std::printf("\n");
  }
  return 0;
}
