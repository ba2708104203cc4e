// Unit tests for the observability primitives: counters, gauges, the
// fixed-bucket latency histogram (bucket/percentile math) and the registry.
#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

namespace sqlcm::obs {
namespace {

TEST(CounterTest, IncAndValue) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.Inc();
  c.Inc(41);
  EXPECT_EQ(c.value(), 42u);
  c.Reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(GaugeTest, SetAndAdd) {
  Gauge g;
  g.Set(10);
  g.Add(-3);
  EXPECT_EQ(g.value(), 7);
  g.Set(-5);
  EXPECT_EQ(g.value(), -5);
}

TEST(CounterTest, ConcurrentIncrementsAreExact) {
  Counter c;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 100000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kPerThread; ++i) c.Inc();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), static_cast<uint64_t>(kThreads) * kPerThread);
}

TEST(StripedCounterTest, IncValueResetAndTake) {
  StripedCounter c;
  EXPECT_EQ(c.value(), 0u);
  c.Inc();
  c.Inc(41);
  EXPECT_EQ(c.value(), 42u);
  EXPECT_EQ(c.Take(), 42u);
  EXPECT_EQ(c.value(), 0u);
  c.Inc(5);
  c.Reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(StripedCounterTest, ConcurrentIncrementsSumExactlyAndResetClearsAll) {
  // More threads than stripes, so every stripe is written (some by several
  // threads at once) before Reset must clear them all.
  StripedCounter c;
  constexpr int kThreads = static_cast<int>(kCounterStripes) * 2 + 1;
  constexpr int kPerThread = 50000;
  auto hammer = [&c] {
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&c, t] {
        for (int i = 0; i < kPerThread; ++i) c.Inc(t % 2 == 0 ? 1 : 2);
      });
    }
    for (auto& t : threads) t.join();
  };
  constexpr uint64_t kExpected =
      uint64_t{kPerThread} * ((kThreads + 1) / 2 + 2 * (kThreads / 2));
  hammer();
  EXPECT_EQ(c.value(), kExpected);
  c.Reset();
  EXPECT_EQ(c.value(), 0u);
  hammer();
  EXPECT_EQ(c.value(), kExpected);
}

TEST(StripedCounterTest, TakeRacingIncrementsLosesNothing) {
  StripedCounter c;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 100000;
  std::atomic<bool> done{false};
  uint64_t taken = 0;
  std::thread taker([&] {
    while (!done.load(std::memory_order_acquire)) taken += c.Take();
  });
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kPerThread; ++i) c.Inc();
    });
  }
  for (auto& t : threads) t.join();
  done.store(true, std::memory_order_release);
  taker.join();
  taken += c.Take();
  EXPECT_EQ(taken, static_cast<uint64_t>(kThreads) * kPerThread);
}

TEST(RegistryTest, StripedCountersReadLikePlainCounters) {
  MetricsRegistry registry;
  Counter plain;
  StripedCounter striped;
  plain.Inc(3);
  std::thread([&striped] { striped.Inc(4); }).join();
  striped.Inc(5);
  registry.RegisterCounter("plain", &plain);
  registry.RegisterCounter("striped", &striped);
  const auto samples = registry.Snapshot();
  ASSERT_EQ(samples.size(), 2u);
  EXPECT_STREQ(samples[1].kind, "counter");
  EXPECT_DOUBLE_EQ(samples[1].value, 9.0);
  EXPECT_NE(registry.DumpPrometheus().find("sqlcm_striped_total 9\n"),
            std::string::npos);
}

TEST(HistogramTest, EmptyHistogram) {
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum_micros(), 0u);
  EXPECT_EQ(h.max_micros(), 0);
  EXPECT_DOUBLE_EQ(h.Percentile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(h.Percentile(0.99), 0.0);
}

TEST(HistogramTest, CountSumMax) {
  LatencyHistogram h;
  h.Record(10);
  h.Record(20);
  h.Record(30);
  h.Record(0);    // bucket 0
  h.Record(-5);   // clamps to bucket 0, not added to sum
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.sum_micros(), 60u);
  EXPECT_EQ(h.max_micros(), 30);
}

TEST(HistogramTest, BucketBounds) {
  EXPECT_EQ(LatencyHistogram::BucketLowerBound(0), 0);
  EXPECT_EQ(LatencyHistogram::BucketUpperBound(0), 0);
  EXPECT_EQ(LatencyHistogram::BucketLowerBound(1), 1);
  EXPECT_EQ(LatencyHistogram::BucketUpperBound(1), 1);
  EXPECT_EQ(LatencyHistogram::BucketLowerBound(5), 16);
  EXPECT_EQ(LatencyHistogram::BucketUpperBound(5), 31);
}

TEST(HistogramTest, SingleValuedDistributionIsTight) {
  LatencyHistogram h;
  for (int i = 0; i < 100; ++i) h.Record(100);
  // All samples fall in [64, 127] but the observed max clamps the bucket
  // ceiling, so every percentile must land in [64, 100].
  for (double p : {0.5, 0.95, 0.99, 1.0}) {
    EXPECT_GE(h.Percentile(p), 64.0) << p;
    EXPECT_LE(h.Percentile(p), 100.0) << p;
  }
}

TEST(HistogramTest, PercentilesOnUniformRange) {
  LatencyHistogram h;
  for (int v = 1; v <= 100; ++v) h.Record(v);
  // p50 -> rank 50, which lands in bucket [32, 63].
  const double p50 = h.Percentile(0.50);
  EXPECT_GE(p50, 32.0);
  EXPECT_LE(p50, 63.0);
  // p99 -> rank 99, bucket [64, 127] clamped to max 100.
  const double p99 = h.Percentile(0.99);
  EXPECT_GE(p99, 64.0);
  EXPECT_LE(p99, 100.0);
  // Percentiles are monotone in p.
  EXPECT_LE(h.Percentile(0.25), p50);
  EXPECT_LE(p50, h.Percentile(0.95));
  EXPECT_LE(h.Percentile(0.95), h.Percentile(1.0));
}

TEST(HistogramTest, ComputePercentilesMatchesPercentile) {
  LatencyHistogram h;
  for (int v = 1; v <= 1000; ++v) h.Record(v);
  const auto pct = h.ComputePercentiles();
  EXPECT_DOUBLE_EQ(pct.p50, h.Percentile(0.50));
  EXPECT_DOUBLE_EQ(pct.p95, h.Percentile(0.95));
  EXPECT_DOUBLE_EQ(pct.p99, h.Percentile(0.99));
}

TEST(HistogramTest, ConcurrentRecordsKeepTotalsConsistent) {
  LatencyHistogram h;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (int i = 0; i < kPerThread; ++i) h.Record(1 + ((t + i) % 1000));
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(h.count(), static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_GE(h.max_micros(), 900);
  EXPECT_LE(h.max_micros(), 1000);
  EXPECT_GT(h.Percentile(0.5), 0.0);
}

TEST(HistogramTest, ResetClearsEverything) {
  LatencyHistogram h;
  h.Record(5);
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum_micros(), 0u);
  EXPECT_EQ(h.max_micros(), 0);
  EXPECT_DOUBLE_EQ(h.Percentile(0.5), 0.0);
}

TEST(RegistryTest, SnapshotExpandsHistograms) {
  MetricsRegistry registry;
  Counter c;
  Gauge g;
  LatencyHistogram h;
  c.Inc(7);
  g.Set(-2);
  h.Record(10);
  registry.RegisterCounter("my.counter", &c);
  registry.RegisterGauge("my.gauge", &g);
  registry.RegisterHistogram("my.histogram", &h);

  const auto samples = registry.Snapshot();
  // 1 counter + 1 gauge + 5 histogram rows.
  ASSERT_EQ(samples.size(), 7u);
  EXPECT_EQ(samples[0].name, "my.counter");
  EXPECT_STREQ(samples[0].kind, "counter");
  EXPECT_DOUBLE_EQ(samples[0].value, 7.0);
  EXPECT_EQ(samples[1].name, "my.gauge");
  EXPECT_DOUBLE_EQ(samples[1].value, -2.0);
  EXPECT_EQ(samples[2].name, "my.histogram.count");
  EXPECT_DOUBLE_EQ(samples[2].value, 1.0);
  EXPECT_EQ(samples[3].name, "my.histogram.p50_us");
  EXPECT_EQ(samples[6].name, "my.histogram.max_us");
  EXPECT_DOUBLE_EQ(samples[6].value, 10.0);
}

}  // namespace
}  // namespace sqlcm::obs
