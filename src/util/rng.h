// Deterministic pseudo-random number generation and workload distributions.
//
// SplitMix64 is the seed-robust generator used throughout tests and
// workload generators (we avoid std::mt19937 for speed and for a stable
// cross-platform sequence).  Zipf implements the skewed key selection
// of the paper's Section VII-G (exponent 1) using rejection-inversion
// sampling (W. Hörmann & G. Derflinger), which is O(1) per sample even for
// the paper's 10-million-key space.
#pragma once

#include <cassert>
#include <cmath>
#include <cstdint>

namespace psmr::util {

/// Fast 64-bit PRNG with excellent statistical quality for our purposes.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed = 0x9e3779b97f4a7c15ULL)
      : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  /// Uniform integer in [0, bound).  bound must be > 0.
  std::uint64_t next_below(std::uint64_t bound) {
    assert(bound > 0);
    // Lemire's multiply-shift rejection-free-enough reduction.
    return static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(next()) * bound) >> 64);
  }

  /// Uniform double in [0, 1).
  double next_double() {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli trial with probability p.
  bool chance(double p) { return next_double() < p; }

 private:
  std::uint64_t state_;
};

/// Zipf-distributed integers over [0, n) with parameter s (exponent).
///
/// Uses rejection-inversion so sampling is O(1); construction is O(1) too.
/// s == 1 matches the paper's skewed-workload experiment (Section VII-G).
class Zipf {
 public:
  Zipf(std::uint64_t n, double s) : n_(n), s_(s) {
    assert(n >= 1);
    assert(s > 0.0);
    h_x1_ = h(1.5) - std::exp(-s_ * std::log(1.0));
    h_n_ = h(static_cast<double>(n_) + 0.5);
    dist_range_ = h_n_ - h_x1_;
  }

  /// Draws a sample in [0, n); rank 0 is the most popular key.
  std::uint64_t sample(SplitMix64& rng) const {
    while (true) {
      double u = h_x1_ + rng.next_double() * dist_range_;
      double x = h_inv(u);
      std::uint64_t k = static_cast<std::uint64_t>(x + 0.5);
      if (k < 1) k = 1;
      if (k > n_) k = n_;
      double kd = static_cast<double>(k);
      if (u >= h(kd + 0.5) - std::exp(-s_ * std::log(kd))) {
        return k - 1;
      }
    }
  }

 private:
  // H(x) = integral of x^-s; closed forms differ for s == 1.
  [[nodiscard]] double h(double x) const {
    if (s_ == 1.0) return std::log(x);
    return (std::exp((1.0 - s_) * std::log(x)) - 1.0) / (1.0 - s_);
  }
  [[nodiscard]] double h_inv(double u) const {
    if (s_ == 1.0) return std::exp(u);
    return std::exp(std::log(1.0 + u * (1.0 - s_)) / (1.0 - s_));
  }

  std::uint64_t n_;
  double s_;
  double h_x1_;
  double h_n_;
  double dist_range_;
};

}  // namespace psmr::util
