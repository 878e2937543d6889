// Tests for rng/zipf, histogram, hash/crc, sync primitives and clock.
#include <gtest/gtest.h>

#include <cmath>
#include <thread>
#include <vector>

#include "util/bytes.h"
#include "util/hash.h"
#include "util/histogram.h"
#include "util/rng.h"
#include "util/sync.h"

namespace psmr::util {
namespace {

TEST(SplitMix64, Deterministic) {
  SplitMix64 a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(SplitMix64, NextBelowInRange) {
  SplitMix64 rng(1);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
  }
}

TEST(SplitMix64, UniformishDistribution) {
  SplitMix64 rng(42);
  constexpr int kBuckets = 16;
  constexpr int kSamples = 160000;
  std::vector<int> counts(kBuckets, 0);
  for (int i = 0; i < kSamples; ++i) {
    counts[rng.next_below(kBuckets)]++;
  }
  for (int c : counts) {
    // Expect each bucket within 10% of the mean.
    EXPECT_NEAR(c, kSamples / kBuckets, kSamples / kBuckets / 10);
  }
}

TEST(Zipf, RankZeroMostPopular) {
  SplitMix64 rng(3);
  Zipf zipf(1000, 1.0);
  std::vector<int> counts(1000, 0);
  for (int i = 0; i < 200000; ++i) counts[zipf.sample(rng)]++;
  EXPECT_GT(counts[0], counts[10]);
  EXPECT_GT(counts[10], counts[500]);
}

TEST(Zipf, MatchesTheoreticalHeadMass) {
  // For s=1, N=1000: P(rank 0) = 1/H_1000 ≈ 1/7.485 ≈ 0.1336.
  SplitMix64 rng(9);
  Zipf zipf(1000, 1.0);
  int hits = 0;
  constexpr int kSamples = 300000;
  for (int i = 0; i < kSamples; ++i) {
    if (zipf.sample(rng) == 0) ++hits;
  }
  double p = static_cast<double>(hits) / kSamples;
  EXPECT_NEAR(p, 0.1336, 0.01);
}

TEST(Zipf, LargeKeySpace) {
  // The paper's key-value store holds 10M keys; sampling must stay O(1).
  SplitMix64 rng(11);
  Zipf zipf(10'000'000, 1.0);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(zipf.sample(rng), 10'000'000u);
  }
}

TEST(Histogram, BasicStats) {
  Histogram h;
  for (int i = 1; i <= 100; ++i) h.record(i);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_NEAR(h.mean(), 50.5, 0.01);
  EXPECT_NEAR(h.quantile(0.5), 50, 3);
  EXPECT_NEAR(h.quantile(0.99), 99, 4);
  EXPECT_EQ(h.max(), 100);
  EXPECT_EQ(h.min(), 1);
}

TEST(Histogram, MergeEquivalentToCombinedRecording) {
  Histogram a, b, combined;
  SplitMix64 rng(5);
  for (int i = 0; i < 5000; ++i) {
    double v = static_cast<double>(rng.next_below(100000));
    if (i % 2 == 0) {
      a.record(v);
    } else {
      b.record(v);
    }
    combined.record(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), combined.count());
  EXPECT_NEAR(a.mean(), combined.mean(), 1e-9);
  EXPECT_NEAR(a.quantile(0.9), combined.quantile(0.9), 1e-9);
}

TEST(Histogram, CdfIsMonotonic) {
  Histogram h;
  SplitMix64 rng(8);
  for (int i = 0; i < 10000; ++i) {
    h.record(static_cast<double>(rng.next_below(1 << 20)));
  }
  auto cdf = h.cdf();
  ASSERT_FALSE(cdf.empty());
  for (std::size_t i = 1; i < cdf.size(); ++i) {
    EXPECT_GT(cdf[i].first, cdf[i - 1].first);
    EXPECT_GE(cdf[i].second, cdf[i - 1].second);
  }
  EXPECT_NEAR(cdf.back().second, 1.0, 1e-9);
}

TEST(Histogram, QuantileEdgeCases) {
  Histogram empty;
  EXPECT_EQ(empty.quantile(0.0), 0.0);
  EXPECT_EQ(empty.quantile(0.5), 0.0);
  EXPECT_EQ(empty.quantile(1.0), 0.0);
  EXPECT_EQ(empty.count(), 0u);
  EXPECT_EQ(empty.mean(), 0.0);

  Histogram single;
  single.record(42.0);
  // Every quantile of a one-sample distribution is that sample (within the
  // bucket's ~2% midpoint error).
  EXPECT_NEAR(single.quantile(0.0), 42.0, 42.0 * 0.02);
  EXPECT_NEAR(single.quantile(0.5), 42.0, 42.0 * 0.02);
  EXPECT_NEAR(single.quantile(1.0), 42.0, 42.0 * 0.02);

  Histogram spread;
  for (int i = 1; i <= 1000; ++i) spread.record(i);
  // q=0 anchors at the minimum, q=1 at the maximum, and order holds.
  EXPECT_NEAR(spread.quantile(0.0), 1.0, 0.1);
  EXPECT_NEAR(spread.quantile(1.0), 1000.0, 1000.0 * 0.02);
  EXPECT_LE(spread.quantile(0.0), spread.quantile(0.5));
  EXPECT_LE(spread.quantile(0.5), spread.quantile(1.0));
}

TEST(Histogram, QuantilesSurviveMerge) {
  // Merging a low-half and a high-half recorder must reproduce the
  // quantiles of recording the full range into one histogram.
  Histogram low, high, combined;
  for (int i = 1; i <= 500; ++i) {
    low.record(i);
    combined.record(i);
  }
  for (int i = 501; i <= 1000; ++i) {
    high.record(i);
    combined.record(i);
  }
  low.merge(high);
  EXPECT_EQ(low.count(), combined.count());
  for (double q : {0.0, 0.25, 0.5, 0.75, 0.99, 1.0}) {
    EXPECT_NEAR(low.quantile(q), combined.quantile(q), 1e-9) << "q=" << q;
  }
  // Merging an empty histogram is a no-op.
  Histogram empty;
  double before = low.quantile(0.5);
  low.merge(empty);
  EXPECT_EQ(low.quantile(0.5), before);
}

TEST(Histogram, RelativeErrorBounded) {
  Histogram h;
  for (double v : {1.0, 10.0, 100.0, 1000.0, 123456.0}) {
    h.record(v);
  }
  // Each recorded value's bucket midpoint is within ~2% of the value.
  EXPECT_NEAR(h.quantile(0.0), 1.0, 0.05);
  EXPECT_NEAR(h.quantile(1.0), 123456.0, 123456.0 * 0.02);
}

TEST(Hash, Fnv1aStableAndDistinct) {
  EXPECT_EQ(fnv1a("abc"), fnv1a("abc"));
  EXPECT_NE(fnv1a("abc"), fnv1a("abd"));
  EXPECT_NE(fnv1a(""), fnv1a("a"));
}

TEST(Hash, Mix64SpreadsSequentialKeys) {
  // Adjacent keys should land in different mod-8 classes reasonably often.
  int same = 0;
  for (std::uint64_t k = 0; k < 1000; ++k) {
    if (mix64(k) % 8 == mix64(k + 1) % 8) ++same;
  }
  EXPECT_LT(same, 300);  // ~125 expected for uniform
}

TEST(Crc32, KnownVector) {
  // CRC32("123456789") = 0xCBF43926 (IEEE).
  Buffer data;
  for (char c : std::string("123456789")) data.push_back(c);
  EXPECT_EQ(Crc32::of(data), 0xCBF43926u);
}

TEST(Crc32, DetectsCorruption) {
  Buffer data(100, 0x5a);
  auto good = Crc32::of(data);
  data[50] ^= 1;
  EXPECT_NE(Crc32::of(data), good);
}

TEST(Signal, CountingSemantics) {
  Signal s;
  s.notify();
  s.notify();
  s.wait();  // does not block: two signals buffered
  s.wait();
  EXPECT_FALSE(s.wait_for(std::chrono::milliseconds(5)));
}

TEST(Signal, CrossThreadHandshake) {
  Signal ready, resume;
  int stage = 0;
  std::thread peer([&] {
    ready.wait();
    stage = 1;
    resume.notify();
  });
  ready.notify();
  resume.wait();
  EXPECT_EQ(stage, 1);
  peer.join();
}

}  // namespace
}  // namespace psmr::util
