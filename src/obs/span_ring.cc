#include "obs/span_ring.h"

#include <algorithm>

namespace sqlcm::obs {

const char* SpanKindName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kEvent:
      return "event";
    case SpanKind::kCondition:
      return "condition";
    case SpanKind::kAction:
      return "action";
    case SpanKind::kLatUpsert:
      return "lat_upsert";
    case SpanKind::kCheckpoint:
      return "checkpoint";
    case SpanKind::kShip:
      return "ship";
    case SpanKind::kIngest:
      return "ingest";
    case SpanKind::kQueueWait:
      return "queue_wait";
  }
  return "unknown";
}

void SpanRing::Record(const Span& span) {
  ring_.Record({span.trace_id, span.span_id, span.parent_id, span.ref,
                static_cast<uint64_t>(span.start_nanos),
                static_cast<uint64_t>(span.duration_nanos),
                static_cast<uint64_t>(span.kind) |
                    (uint64_t{span.detail} << 8) |
                    (uint64_t{span.depth} << 16)});
}

std::vector<Span> SpanRing::Snapshot() const {
  std::vector<Span> out;
  out.reserve(std::min<uint64_t>(total_recorded(), capacity()));
  ring_.Snapshot([&out](uint64_t, const StampedRing<7>::Words& words) {
    Span span;
    span.trace_id = words[0];
    span.span_id = words[1];
    span.parent_id = words[2];
    span.ref = words[3];
    span.start_nanos = static_cast<int64_t>(words[4]);
    span.duration_nanos = static_cast<int64_t>(words[5]);
    span.kind = static_cast<SpanKind>(words[6] & 0xff);
    span.detail = static_cast<uint8_t>((words[6] >> 8) & 0xff);
    span.depth = static_cast<uint8_t>((words[6] >> 16) & 0xff);
    out.push_back(span);
  });
  return out;
}

SlowTraceTable::SlowTraceTable(size_t k) : k_(k ? k : 1) {}

void SlowTraceTable::Offer(uint64_t trace_id, int64_t total_nanos,
                           const std::vector<Span>& spans) {
  offers_.fetch_add(1, std::memory_order_relaxed);
  const int64_t floor = floor_nanos_.load(std::memory_order_relaxed);
  if (floor >= 0 && total_nanos <= floor) return;

  std::lock_guard<std::mutex> lock(mutex_);
  // Re-check under the lock: the floor may have moved past this trace while
  // we were acquiring.
  if (traces_.size() >= k_) {
    auto cheapest = std::min_element(
        traces_.begin(), traces_.end(),
        [](const Exemplar& a, const Exemplar& b) {
          return a.total_nanos < b.total_nanos;
        });
    if (total_nanos <= cheapest->total_nanos) return;
    traces_.erase(cheapest);
  }
  Exemplar ex;
  ex.trace_id = trace_id;
  ex.total_nanos = total_nanos;
  ex.spans = spans;
  traces_.push_back(std::move(ex));
  admits_.fetch_add(1, std::memory_order_relaxed);
  if (traces_.size() >= k_) {
    int64_t new_floor = traces_.front().total_nanos;
    for (const Exemplar& t : traces_) {
      new_floor = std::min(new_floor, t.total_nanos);
    }
    floor_nanos_.store(new_floor, std::memory_order_relaxed);
  }
}

std::vector<SlowTraceTable::Exemplar> SlowTraceTable::Snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Exemplar> out = traces_;
  std::sort(out.begin(), out.end(), [](const Exemplar& a, const Exemplar& b) {
    return a.total_nanos > b.total_nanos;
  });
  return out;
}

void SlowTraceTable::Clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  traces_.clear();
  floor_nanos_.store(-1, std::memory_order_relaxed);
}

}  // namespace sqlcm::obs
