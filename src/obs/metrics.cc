#include "obs/metrics.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

namespace sqlcm::obs {

namespace internal {

size_t AssignCounterStripe() {
  thread_counter_stripe =
      next_counter_stripe.fetch_add(1, std::memory_order_relaxed) %
      kCounterStripes;
  return thread_counter_stripe;
}

}  // namespace internal

size_t LatencyHistogram::BucketIndex(int64_t micros) {
  if (micros <= 0) return 0;
  const size_t idx = std::bit_width(static_cast<uint64_t>(micros));
  return std::min(idx, kNumBuckets - 1);
}

int64_t LatencyHistogram::BucketLowerBound(size_t i) {
  if (i == 0) return 0;
  return int64_t{1} << (i - 1);
}

int64_t LatencyHistogram::BucketUpperBound(size_t i) {
  if (i == 0) return 0;
  if (i >= kNumBuckets - 1) return std::numeric_limits<int64_t>::max();
  return (int64_t{1} << i) - 1;
}

void LatencyHistogram::Record(int64_t micros) {
  buckets_[BucketIndex(micros)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  if (micros > 0) {
    sum_.fetch_add(static_cast<uint64_t>(micros), std::memory_order_relaxed);
    int64_t prev = max_.load(std::memory_order_relaxed);
    while (micros > prev &&
           !max_.compare_exchange_weak(prev, micros,
                                       std::memory_order_relaxed)) {
    }
  }
}

double LatencyHistogram::Percentile(double p) const {
  p = std::clamp(p, 0.0, 1.0);
  std::array<uint64_t, kNumBuckets> counts;
  uint64_t total = 0;
  for (size_t i = 0; i < kNumBuckets; ++i) {
    counts[i] = buckets_[i].load(std::memory_order_relaxed);
    total += counts[i];
  }
  if (total == 0) return 0.0;

  const double rank = std::max(1.0, std::ceil(p * static_cast<double>(total)));
  uint64_t cumulative = 0;
  for (size_t i = 0; i < kNumBuckets; ++i) {
    if (counts[i] == 0) continue;
    if (static_cast<double>(cumulative + counts[i]) < rank) {
      cumulative += counts[i];
      continue;
    }
    const double lo = static_cast<double>(BucketLowerBound(i));
    // Clamp the bucket ceiling to the largest sample actually observed so a
    // single-valued distribution does not report the bucket's upper edge.
    double hi = static_cast<double>(BucketUpperBound(i));
    const double observed_max =
        static_cast<double>(max_.load(std::memory_order_relaxed));
    if (observed_max >= lo) hi = std::min(hi, observed_max);
    if (hi < lo) hi = lo;
    const double frac =
        (rank - static_cast<double>(cumulative)) / static_cast<double>(counts[i]);
    return lo + (hi - lo) * frac;
  }
  return static_cast<double>(max_.load(std::memory_order_relaxed));
}

LatencyHistogram::Percentiles LatencyHistogram::ComputePercentiles() const {
  return Percentiles{Percentile(0.50), Percentile(0.95), Percentile(0.99)};
}

void LatencyHistogram::Reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
}

void MetricsRegistry::Add(Entry entry) {
  std::lock_guard<std::mutex> lock(mutex_);
  entries_.push_back(std::move(entry));
}

void MetricsRegistry::RegisterCounter(std::string name, const Counter* counter) {
  Entry e;
  e.name = std::move(name);
  e.counter = counter;
  Add(std::move(e));
}

void MetricsRegistry::RegisterCounter(std::string name,
                                      const StripedCounter* counter) {
  Entry e;
  e.name = std::move(name);
  e.striped_counter = counter;
  Add(std::move(e));
}

void MetricsRegistry::RegisterGauge(std::string name, const Gauge* gauge) {
  Entry e;
  e.name = std::move(name);
  e.gauge = gauge;
  Add(std::move(e));
}

void MetricsRegistry::RegisterHistogram(std::string name,
                                        const LatencyHistogram* histogram) {
  Entry e;
  e.name = std::move(name);
  e.histogram = histogram;
  Add(std::move(e));
}

std::string PrometheusMetricName(std::string_view name,
                                 std::string_view prefix) {
  std::string out(prefix);
  out.reserve(prefix.size() + name.size());
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out.push_back(ok ? c : '_');
  }
  return out;
}

std::string PrometheusEscapeHelp(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out.push_back(c);
    }
  }
  return out;
}

std::string MetricsRegistry::DumpPrometheus(std::string_view prefix) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string out;
  out.reserve(entries_.size() * 128);
  for (const Entry& e : entries_) {
    const std::string help = PrometheusEscapeHelp(e.name);
    if (e.is_counter()) {
      const std::string name = PrometheusMetricName(e.name, prefix) + "_total";
      out += "# HELP " + name + " " + help + "\n";
      out += "# TYPE " + name + " counter\n";
      out += name + " " + std::to_string(e.counter_value()) + "\n";
    } else if (e.gauge != nullptr) {
      const std::string name = PrometheusMetricName(e.name, prefix);
      out += "# HELP " + name + " " + help + "\n";
      out += "# TYPE " + name + " gauge\n";
      out += name + " " + std::to_string(e.gauge->value()) + "\n";
    } else if (e.histogram != nullptr) {
      const std::string name = PrometheusMetricName(e.name, prefix);
      out += "# HELP " + name + " " + help + " (microseconds)\n";
      out += "# TYPE " + name + " histogram\n";
      // One read of the bucket array feeds both the cumulative series and
      // the +Inf/_count samples, so `le="+Inf"` always equals `_count` and
      // the series is monotone regardless of concurrent Record() calls.
      uint64_t cumulative = 0;
      for (size_t i = 0; i < LatencyHistogram::kNumBuckets; ++i) {
        cumulative += e.histogram->bucket_count(i);
        const int64_t upper = LatencyHistogram::BucketUpperBound(i);
        const std::string le = (i + 1 == LatencyHistogram::kNumBuckets)
                                   ? "+Inf"
                                   : std::to_string(upper);
        out += name + "_bucket{le=\"" + le + "\"} " +
               std::to_string(cumulative) + "\n";
      }
      out += name + "_sum " + std::to_string(e.histogram->sum_micros()) + "\n";
      out += name + "_count " + std::to_string(cumulative) + "\n";
    }
  }
  return out;
}

std::vector<MetricsRegistry::Sample> MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Sample> out;
  out.reserve(entries_.size() * 2);
  for (const Entry& e : entries_) {
    if (e.is_counter()) {
      out.push_back({e.name, "counter",
                     static_cast<double>(e.counter_value())});
    } else if (e.gauge != nullptr) {
      out.push_back({e.name, "gauge", static_cast<double>(e.gauge->value())});
    } else if (e.histogram != nullptr) {
      const auto pct = e.histogram->ComputePercentiles();
      out.push_back({e.name + ".count", "histogram",
                     static_cast<double>(e.histogram->count())});
      out.push_back({e.name + ".p50_us", "histogram", pct.p50});
      out.push_back({e.name + ".p95_us", "histogram", pct.p95});
      out.push_back({e.name + ".p99_us", "histogram", pct.p99});
      out.push_back({e.name + ".max_us", "histogram",
                     static_cast<double>(e.histogram->max_micros())});
    }
  }
  return out;
}

}  // namespace sqlcm::obs
