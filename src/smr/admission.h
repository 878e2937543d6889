// Per-client admission control at the ClientProxy.
//
// The paper evaluates P-SMR only at fixed multiprogramming levels; past the
// saturation knee an open-loop client queues commands into the multicast
// rings faster than replicas drain them, and every queued command makes the
// ones behind it slower.  Admission control bounds each client instead: a
// token bucket lets a proxy sustain at most `client_rate_cps` commands with
// bursts up to `client_burst`, so one aggressive client cannot starve the
// others.
//
// Each ClientProxy owns its bucket (none when the rate is 0, the default).
// Enforcement happens inside ClientProxy::submit: a throttled command never
// touches the bus or the network — it completes through poll() at once with
// Completion::rejected set, like any other response.
#pragma once

#include <algorithm>
#include <cstdint>

namespace psmr::smr {

struct AdmissionConfig {
  /// Per-client sustained admission rate, commands/sec.  0 turns admission
  /// off.
  double client_rate_cps = 0;
  /// Token bucket capacity (maximum burst).  0 defaults to one batch's
  /// worth: max(1, client_rate_cps / 100).
  double client_burst = 0;
};

/// One client's token bucket; `client_rate_cps` must be positive.  Not
/// thread-safe: its ClientProxy is single-threaded.
class TokenBucket {
 public:
  explicit TokenBucket(const AdmissionConfig& cfg)
      : rate_(cfg.client_rate_cps),
        burst_(cfg.client_burst > 0 ? cfg.client_burst
                                    : std::max(1.0, rate_ / 100.0)) {}

  /// Takes one token at `now_us` (callers pass util::now_us(); tests pass
  /// synthetic clocks).  False means throttled.
  bool take(std::int64_t now_us) {
    if (!primed_) {  // the first command finds a full bucket
      primed_ = true;
      tokens_ = burst_;
      last_us_ = now_us;
    } else if (now_us > last_us_) {
      tokens_ = std::min(
          burst_, tokens_ + static_cast<double>(now_us - last_us_) * 1e-6 *
                                rate_);
      last_us_ = now_us;
    }
    if (tokens_ < 1.0) return false;
    tokens_ -= 1.0;
    return true;
  }

 private:
  const double rate_;
  const double burst_;
  double tokens_ = 0;
  std::int64_t last_us_ = 0;
  bool primed_ = false;
};

}  // namespace psmr::smr
