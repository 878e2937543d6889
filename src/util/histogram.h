// Latency recording for the evaluation harness.
//
// The paper reports average latency, and latency CDFs (Figures 3, 4).  We
// record microsecond latencies into a log-bucketed histogram (HdrHistogram
// style, ~1.6 % relative error) so millions of samples cost a fixed, small
// footprint and merging per-client recorders is cheap.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

namespace psmr::util {

/// Log-bucketed histogram of nonnegative values (we use microseconds).
class Histogram {
 public:
  static constexpr int kSubBuckets = 32;  // per power of two

  void record(double value_us) {
    if (value_us < 0) value_us = 0;
    ++count_;
    sum_ += value_us;
    max_ = std::max(max_, value_us);
    min_ = std::min(min_, value_us);
    ++buckets_[index_for(value_us)];
  }

  /// Adds all samples of another histogram into this one.
  void merge(const Histogram& other) {
    count_ += other.count_;
    sum_ += other.sum_;
    max_ = std::max(max_, other.max_);
    min_ = std::min(min_, other.min_);
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
      buckets_[i] += other.buckets_[i];
    }
  }

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] double mean() const { return count_ ? sum_ / count_ : 0.0; }
  [[nodiscard]] double max() const { return count_ ? max_ : 0.0; }
  [[nodiscard]] double min() const { return count_ ? min_ : 0.0; }

  /// Value at quantile q in [0,1], approximated by bucket midpoint.
  [[nodiscard]] double quantile(double q) const {
    if (count_ == 0) return 0.0;
    const double target = std::max(1.0, q * static_cast<double>(count_));
    double seen = 0;
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
      seen += buckets_[i];
      if (seen >= target) return midpoint(i);
    }
    return max_;
  }

  /// CDF points (value_us, cumulative_fraction) for plotting — the format of
  /// the paper's latency CDF subgraphs.
  [[nodiscard]] std::vector<std::pair<double, double>> cdf() const {
    std::vector<std::pair<double, double>> points;
    if (count_ == 0) return points;
    double seen = 0;
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
      if (buckets_[i] == 0) continue;
      seen += buckets_[i];
      points.emplace_back(midpoint(i), seen / static_cast<double>(count_));
    }
    return points;
  }

 private:
  static std::size_t index_for(double v) {
    if (v < 1.0) return 0;
    int exp;
    double frac = std::frexp(v, &exp);  // v = frac * 2^exp, frac in [0.5,1)
    int sub = static_cast<int>((frac - 0.5) * 2 * kSubBuckets);
    sub = std::clamp(sub, 0, kSubBuckets - 1);
    std::size_t idx = static_cast<std::size_t>(exp) * kSubBuckets +
                      static_cast<std::size_t>(sub);
    return std::min(idx, kNumBuckets - 1);
  }
  static double midpoint(std::size_t idx) {
    int exp = static_cast<int>(idx / kSubBuckets);
    int sub = static_cast<int>(idx % kSubBuckets);
    double lo = std::ldexp(0.5 + static_cast<double>(sub) / (2 * kSubBuckets),
                           exp);
    double hi = std::ldexp(
        0.5 + static_cast<double>(sub + 1) / (2 * kSubBuckets), exp);
    return (lo + hi) / 2;
  }

  static constexpr std::size_t kNumBuckets = 64 * kSubBuckets;
  std::array<std::uint64_t, kNumBuckets> buckets_{};
  std::uint64_t count_ = 0;
  double sum_ = 0;
  double max_ = 0;
  double min_ = 1e300;
};

}  // namespace psmr::util
