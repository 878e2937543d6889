// Latency/goodput vs offered rate — the overload figure the paper doesn't
// have.  Figures 3-8 all measure closed-loop populations at fixed
// multiprogramming levels, which by construction cannot overload the
// system: the window throttles arrivals as soon as latency grows.  This
// bench drives the fig3 independent mix (100% uniform reads) open loop on
// the live runtime (P-SMR, mpl 4) — Poisson arrivals at a held offered
// rate, bounded by the driver's outstanding cap.  The rates are multiples
// (0.5, 1, 1.5, 2x) of the host's own closed-loop capacity, measured
// first, since the core count sets the knee.
//
// Gate (what the live runtime guarantees, at every point): each arrival is
// accounted for (offered == submitted + shed_valve + dispatch_failed), no
// dispatch fails, and goodput is positive.  Shedding and goodput ratios are
// reported, not gated.  The process exits non-zero when the gate fails.
//
// --json FILE writes BENCH_latency.json: the host capacity, per-point
// counters and percentiles, and the gate verdict.
#include "bench_common.h"

#include <vector>

using namespace psmr;
using namespace psmr::bench;

namespace {

struct RatePoint {
  double offered_kcps = 0;
  workload::RunResult r;

  [[nodiscard]] bool pass() const {
    return r.offered == r.submitted + r.shed_valve + r.dispatch_failed &&
           r.dispatch_failed == 0 && r.kcps > 0;
  }
};

/// One open-loop point on the live runtime.
workload::RunResult run_point(const Options& opt, double offered_cps) {
  smr::Deployment d(
      real_kv_config(smr::Mode::kPsmr, /*mpl=*/4, /*keys=*/200'000));
  d.start();
  workload::KvWorkloadSpec spec;
  spec.clients = opt.clients_override ? opt.clients_override : 4;
  spec.duration_s = opt.quick ? 0.5 : 1.5;
  spec.warmup_s = 0.3;
  spec.mix = workload::KvMix{100, 0, 0, 0};  // fig3 independent mix
  spec.keys = 200'000;
  spec.target_rate_cps = offered_cps;
  spec.poisson_arrivals = true;
  auto r = workload::run_kv_workload(d, spec);
  d.stop();
  return r;
}

unsigned long long ull(std::uint64_t v) {
  return static_cast<unsigned long long>(v);
}

}  // namespace

int main(int argc, char** argv) {
  Options opt = Options::parse(argc, argv);

  std::printf(
      "=== Latency/goodput vs offered rate (fig3 mix, open loop, live "
      "P-SMR mpl 4) ===\n");
  const double host_kcps =
      run_real_kv(opt, smr::Mode::kPsmr, 4, workload::KvMix{100, 0, 0, 0})
          .kcps;
  std::printf("host closed-loop capacity %.1f Kcps\n", host_kcps);
  std::printf("%9s | %8s %8s %7s %6s | %8s %9s %9s\n", "offered",
              "offered#", "submit#", "shed_v", "failed", "goodput", "p50us",
              "p99us");

  std::vector<RatePoint> points;
  bool pass = true;
  for (double frac : {0.5, 1.0, 1.5, 2.0}) {
    RatePoint p;
    p.offered_kcps = frac * host_kcps;
    p.r = run_point(opt, p.offered_kcps * 1000.0);
    const auto& r = p.r;
    std::printf("%9.1f | %8llu %8llu %7llu %6llu | %8.1f %9.0f %9.0f%s\n",
                p.offered_kcps, ull(r.offered), ull(r.submitted),
                ull(r.shed_valve), ull(r.dispatch_failed), r.kcps,
                r.p50_latency_us, r.p99_latency_us,
                p.pass() ? "" : "  <- FAIL");
    pass &= p.pass();
    points.push_back(std::move(p));
  }
  std::printf("gate: offered == submitted + shed_valve + dispatch_failed, "
              "dispatch_failed == 0, goodput > 0 at every point: %s\n",
              pass ? "PASS" : "FAIL");

  if (!opt.json.empty()) {
    std::FILE* f = std::fopen(opt.json.c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "cannot write %s\n", opt.json.c_str());
      return 1;
    }
    std::fprintf(f,
                 "{\n  \"latency_rate\": {\n"
                 "    \"source\": \"measured\",\n"
                 "    \"host_capacity_kcps\": %.1f,\n"
                 "    \"points\": [",
                 host_kcps);
    for (std::size_t i = 0; i < points.size(); ++i) {
      const auto& p = points[i];
      const auto& r = p.r;
      std::fprintf(
          f,
          "%s\n      {\"offered_kcps\": %.1f, "
          "\"offered\": %llu, \"submitted\": %llu, \"shed_valve\": %llu, "
          "\"dispatch_failed\": %llu, "
          "\"goodput_kcps\": %.1f, \"p50_us\": %.0f, \"p99_us\": %.0f}",
          i ? "," : "", p.offered_kcps, ull(r.offered), ull(r.submitted),
          ull(r.shed_valve), ull(r.dispatch_failed), r.kcps,
          r.p50_latency_us, r.p99_latency_us);
    }
    std::fprintf(f, "\n    ],\n    \"pass\": %s\n  }\n}\n",
                 pass ? "true" : "false");
    std::fclose(f);
    std::printf("wrote %s\n", opt.json.c_str());
  }
  return pass ? 0 : 1;
}
