#include "obs/span_ring.h"

#include <algorithm>
#include <bit>
#include <thread>

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

SpanRing::SpanRing(size_t capacity) {
  if (capacity < 2) capacity = 2;
  capacity_ = std::bit_ceil(capacity);
  mask_ = capacity_ - 1;
  slots_ = std::make_unique<Slot[]>(capacity_);
}

bool SpanRing::ClaimSlot(std::atomic<uint64_t>& stamp, uint64_t target) {
  uint64_t cur = stamp.load(std::memory_order_acquire);
  while (cur < target) {
    if ((cur & 1) != 0) {
      // An older lap is mid-write; its payload stores must not interleave
      // with ours, so wait for it to publish (a handful of stores).
      std::this_thread::yield();
      cur = stamp.load(std::memory_order_acquire);
      continue;
    }
    if (stamp.compare_exchange_weak(cur, target, std::memory_order_acq_rel,
                                    std::memory_order_acquire)) {
      return true;
    }
  }
  return false;
}

void SpanRing::Record(const Span& span) {
  if (!enabled()) return;
  const uint64_t ticket = head_.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = slots_[ticket & mask_];

  // Claim the slot; if a newer lap already owns it, drop this span.
  if (!ClaimSlot(slot.stamp, 2 * ticket + 1)) return;
  // Orders the claim before the payload stores for Snapshot()'s
  // load-payload / acquire-fence / re-check-stamp sequence.
  std::atomic_thread_fence(std::memory_order_release);

  slot.trace_id.store(span.trace_id, std::memory_order_relaxed);
  slot.span_id.store(span.span_id, std::memory_order_relaxed);
  slot.parent_id.store(span.parent_id, std::memory_order_relaxed);
  slot.ref.store(span.ref, std::memory_order_relaxed);
  slot.start_nanos.store(span.start_nanos, std::memory_order_relaxed);
  slot.duration_nanos.store(span.duration_nanos, std::memory_order_relaxed);
  const uint32_t meta = static_cast<uint32_t>(span.kind) |
                        (static_cast<uint32_t>(span.detail) << 8) |
                        (static_cast<uint32_t>(span.depth) << 16);
  slot.meta.store(meta, std::memory_order_relaxed);

  // Publish. The claim is exclusive: no newer lap claims an odd stamp.
  slot.stamp.store(2 * ticket + 2, std::memory_order_release);
}

std::vector<Span> SpanRing::Snapshot() const {
  const uint64_t head = head_.load(std::memory_order_acquire);
  const uint64_t count = std::min<uint64_t>(head, capacity_);
  std::vector<Span> out;
  out.reserve(count);
  for (uint64_t ticket = head - count; ticket < head; ++ticket) {
    const Slot& slot = slots_[ticket & mask_];
    const uint64_t expect = 2 * ticket + 2;
    if (slot.stamp.load(std::memory_order_acquire) != expect) {
      snapshot_drops_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }

    Span span;
    span.trace_id = slot.trace_id.load(std::memory_order_relaxed);
    span.span_id = slot.span_id.load(std::memory_order_relaxed);
    span.parent_id = slot.parent_id.load(std::memory_order_relaxed);
    span.ref = slot.ref.load(std::memory_order_relaxed);
    span.start_nanos = slot.start_nanos.load(std::memory_order_relaxed);
    span.duration_nanos = slot.duration_nanos.load(std::memory_order_relaxed);
    const uint32_t meta = slot.meta.load(std::memory_order_relaxed);
    // Re-check: drop the slot if a concurrent writer touched it mid-read.
    // The acquire fence keeps the payload loads above from being delayed
    // past this stamp load.
    std::atomic_thread_fence(std::memory_order_acquire);
    if (slot.stamp.load(std::memory_order_acquire) != expect) {
      snapshot_drops_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    span.kind = static_cast<SpanKind>(meta & 0xff);
    span.detail = static_cast<uint8_t>((meta >> 8) & 0xff);
    span.depth = static_cast<uint8_t>((meta >> 16) & 0xff);
    out.push_back(span);
  }
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
