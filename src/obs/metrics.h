// Self-monitoring primitives (observability layer).
//
// SQLCM's central claim is low in-server monitoring overhead (paper §2.1,
// §6); this module gives the reproduction the instruments to measure that
// claim about itself. Everything on the update path is lock-free:
//   * Counter / Gauge — single relaxed atomics;
//   * StripedCounter — one relaxed atomic per thread stripe, each on its
//     own cache line, for the counters every rule visit bumps (sessions
//     never write a line another session writes);
//   * LatencyHistogram — fixed power-of-two buckets with p50/p95/p99
//     extraction, a handful of relaxed atomic ops per Record().
// A MetricsRegistry holds non-owning named references so the whole
// inventory can be materialized into the sqlcm_engine_stats system view
// (R-GMA's "monitoring data is itself relational data" move, PAPERS.md).
//
// Threading: Record/Inc/Set are safe from any thread. Snapshot/percentile
// reads are lock-free too and see a near-consistent view (counts may lag
// sums by in-flight updates; a striped counter sums its stripes on read,
// exact once writers quiesce); registry registration is mutex-guarded and
// expected at setup time only.
#ifndef SQLCM_OBS_METRICS_H_
#define SQLCM_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace sqlcm::obs {

/// Monotonic event counter.
class Counter {
 public:
  void Inc(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Stripes per StripedCounter. Stripe indexes are handed out round-robin
/// to threads on first use, so up to this many threads never share one.
inline constexpr size_t kCounterStripes = 8;

namespace internal {
inline std::atomic<size_t> next_counter_stripe{0};
/// The calling thread's stripe, or kCounterStripes until its first striped
/// increment picks one (fixed for the thread's lifetime from then on).
/// Constant-initialized, so reading it is a plain thread-local load rather
/// than a call through the thread-local init wrapper.
inline constinit thread_local size_t thread_counter_stripe = kCounterStripes;
/// Hands the calling thread the next round-robin stripe.
size_t AssignCounterStripe();
inline size_t CounterStripe() {
  const size_t stripe = thread_counter_stripe;
  return stripe < kCounterStripes ? stripe : AssignCounterStripe();
}
}  // namespace internal

/// Monotonic counter for hot paths bumped by many threads at once: each
/// thread adds into its own cache-line-padded stripe, and value() sums the
/// stripes. Threads beyond kCounterStripes share stripes (still exact:
/// every stripe update is an atomic add). Same API as Counter; 512 bytes
/// instead of 8, so use it only where a shared line would bounce.
class StripedCounter {
 public:
  void Inc(uint64_t n = 1) {
    stripes_[internal::CounterStripe()].value.fetch_add(
        n, std::memory_order_relaxed);
  }
  uint64_t value() const {
    uint64_t sum = 0;
    for (const Stripe& s : stripes_) {
      sum += s.value.load(std::memory_order_relaxed);
    }
    return sum;
  }
  void Reset() {
    for (Stripe& s : stripes_) s.value.store(0, std::memory_order_relaxed);
  }
  /// Zeroes every stripe and returns what they held. An Inc racing with
  /// Take lands either in the returned sum or in the next one, never lost.
  uint64_t Take() {
    uint64_t sum = 0;
    for (Stripe& s : stripes_) {
      sum += s.value.exchange(0, std::memory_order_relaxed);
    }
    return sum;
  }

 private:
  struct alignas(64) Stripe {
    std::atomic<uint64_t> value{0};
  };
  std::array<Stripe, kCounterStripes> stripes_{};
};

/// Instantaneous signed level (queue depths, row counts).
class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Fixed-bucket latency histogram over non-negative microsecond samples.
///
/// Bucket i (i >= 1) covers [2^(i-1), 2^i - 1] µs; bucket 0 holds samples
/// <= 0. Record() is a few relaxed atomic ops (bucket, count, sum, max) —
/// cheap enough for monitor hot paths. Percentiles interpolate linearly
/// inside the selected bucket, with the top bound clamped to the maximum
/// sample seen, so single-valued distributions report tight estimates.
class LatencyHistogram {
 public:
  static constexpr size_t kNumBuckets = 34;  // covers up to ~2.4 hours in µs

  void Record(int64_t micros);

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t sum_micros() const { return sum_.load(std::memory_order_relaxed); }
  int64_t max_micros() const { return max_.load(std::memory_order_relaxed); }

  /// p in [0, 1]; 0 when the histogram is empty.
  double Percentile(double p) const;

  struct Percentiles {
    double p50 = 0, p95 = 0, p99 = 0;
  };
  Percentiles ComputePercentiles() const;

  /// Inclusive value range of bucket `i` (exposed for the percentile tests).
  static int64_t BucketLowerBound(size_t i);
  static int64_t BucketUpperBound(size_t i);

  /// Raw per-bucket count (exposition needs the buckets themselves, not
  /// just percentiles).
  uint64_t bucket_count(size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }

  /// Not atomic with respect to concurrent Record(); benches only.
  void Reset();

 private:
  static size_t BucketIndex(int64_t micros);

  std::array<std::atomic<uint64_t>, kNumBuckets> buckets_{};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  std::atomic<int64_t> max_{0};
};

/// Named, non-owning directory of metrics for view materialization.
/// Registered instruments must outlive the registry.
class MetricsRegistry {
 public:
  void RegisterCounter(std::string name, const Counter* counter);
  void RegisterCounter(std::string name, const StripedCounter* counter);
  void RegisterGauge(std::string name, const Gauge* gauge);
  void RegisterHistogram(std::string name, const LatencyHistogram* histogram);

  struct Sample {
    std::string name;
    const char* kind;  // "counter" | "gauge" | "histogram"
    double value;
  };

  /// One sample per counter/gauge; histograms expand to
  /// <name>.count/.p50_us/.p95_us/.p99_us/.max_us.
  std::vector<Sample> Snapshot() const;

  /// Prometheus text exposition (version 0.0.4) of the whole inventory.
  /// Counters get a `_total` suffix, histograms emit cumulative
  /// `_bucket{le="..."}` series (upper bounds from BucketUpperBound, in µs)
  /// plus `_sum`/`_count`. Registered names are sanitized with
  /// PrometheusMetricName under `prefix`. The `+Inf` bucket and `_count`
  /// are both derived from one read of the bucket array, so the series is
  /// internally consistent even against concurrent writers.
  std::string DumpPrometheus(std::string_view prefix = "sqlcm_") const;

 private:
  struct Entry {
    std::string name;
    const Counter* counter = nullptr;
    const StripedCounter* striped_counter = nullptr;
    const Gauge* gauge = nullptr;
    const LatencyHistogram* histogram = nullptr;

    bool is_counter() const {
      return counter != nullptr || striped_counter != nullptr;
    }
    uint64_t counter_value() const {
      return counter != nullptr ? counter->value() : striped_counter->value();
    }
  };
  void Add(Entry entry);
  mutable std::mutex mutex_;
  std::vector<Entry> entries_;
};

/// `prefix` + `name` with every character outside [a-zA-Z0-9_:] replaced by
/// '_' (registry names use '.' separators, which Prometheus forbids).
std::string PrometheusMetricName(std::string_view name,
                                 std::string_view prefix = "sqlcm_");

/// Escapes a HELP-line value: backslash -> `\\`, newline -> `\n`.
std::string PrometheusEscapeHelp(std::string_view text);

}  // namespace sqlcm::obs

#endif  // SQLCM_OBS_METRICS_H_
