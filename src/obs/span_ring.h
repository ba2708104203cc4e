// Causal span plane for the monitor engine: lock-free span ring plus a
// top-K slow-trace exemplar table.
//
// Every monitored event opens a root span whose trace id is the engine's
// global event sequence number; child spans wrap rule-condition evaluation,
// action execution, LAT upserts and checkpoint I/O. Nested FireEvent calls
// (LAT-eviction cascades) carry the parent span id, so a whole cascade
// reconstructs as a tree under one trace id. Spans are fixed-payload —
// strings are referenced by 64-bit FNV-1a hash (common::Fnv1a64) or rule id
// — so producers never allocate.
//
// SpanRing encodes each span into seven words of a StampedRing (see
// stamped_ring.h for the ticket/stamp/claim/snapshot protocol).
//
// SlowTraceTable keeps the K most expensive traces *whole* (every span, not
// just the root) as exemplars; the reject fast path is a single relaxed
// atomic compare against the cheapest retained trace, so the common case —
// an unremarkable event — never takes the mutex.
#ifndef SQLCM_OBS_SPAN_RING_H_
#define SQLCM_OBS_SPAN_RING_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

#include "obs/stamped_ring.h"

namespace sqlcm::obs {

/// What a span measures. Stored untyped (uint8_t) in ring slots.
enum class SpanKind : uint8_t {
  kEvent = 0,      // one FireEvent dispatch (root or cascaded)
  kCondition = 1,  // one rule's condition evaluation
  kAction = 2,     // one rule action's execution
  kLatUpsert = 3,  // LAT insert inside a Query.Insert action
  kCheckpoint = 4, // LAT snapshot write (checkpoint I/O)
  kShip = 5,       // federation delta export + spool publish (src/fed)
  kIngest = 6,     // federation delta ingest + merge (src/fed)
  kQueueWait = 7,  // deferred event's enqueue->drain latency (event_queue)
};

const char* SpanKindName(SpanKind kind);

struct Span {
  uint64_t trace_id = 0;        // global event seq of the root event
  uint64_t span_id = 0;         // engine-wide unique, never 0
  uint64_t parent_id = 0;       // 0 = trace root
  uint64_t ref = 0;             // rule id (condition/action) or name hash
  int64_t start_nanos = 0;      // steady-clock, comparable within a process
  int64_t duration_nanos = 0;
  SpanKind kind = SpanKind::kEvent;
  uint8_t detail = 0;           // EventKind (kEvent) / ActionKind (kAction)
  uint8_t depth = 0;            // cascade depth of the enclosing event
};

class SpanRing {
 public:
  /// Capacity is rounded up to a power of two (minimum 2).
  explicit SpanRing(size_t capacity = 4096) : ring_(capacity) {}

  void set_enabled(bool on) { ring_.set_enabled(on); }
  bool enabled() const { return ring_.enabled(); }

  /// No-op when disabled. Lock-free apart from waiting out an older lap's
  /// in-flight write to the same slot (a handful of stores).
  void Record(const Span& span);

  /// The most recent min(capacity, total recorded) spans, oldest first.
  /// Slots mid-write or reclaimed by a concurrent lap are skipped (and
  /// counted in snapshot_drops()).
  std::vector<Span> Snapshot() const;

  uint64_t total_recorded() const { return ring_.total_recorded(); }
  uint64_t snapshot_drops() const { return ring_.snapshot_drops(); }
  size_t capacity() const { return ring_.capacity(); }

 private:
  // Words: trace, span and parent ids, ref, start, duration, and
  // kind | detail<<8 | depth<<16.
  StampedRing<7> ring_;
};

/// Retains the K most expensive traces whole, spans and all, as exemplars
/// for sqlcm_slow_events. Offer() is called once per finished root trace.
class SlowTraceTable {
 public:
  struct Exemplar {
    uint64_t trace_id = 0;
    int64_t total_nanos = 0;
    std::vector<Span> spans;  // in emission order (parents before children)
  };

  explicit SlowTraceTable(size_t k = 8);

  /// Considers one finished trace. Cheap rejection: when the table is full
  /// and `total_nanos` does not beat the cheapest retained trace, this is a
  /// single relaxed load — no lock, no copy.
  void Offer(uint64_t trace_id, int64_t total_nanos,
             const std::vector<Span>& spans);

  /// Retained exemplars, most expensive first.
  std::vector<Exemplar> Snapshot() const;

  void Clear();

  size_t capacity() const { return k_; }
  uint64_t offers() const { return offers_.load(std::memory_order_relaxed); }
  uint64_t admits() const { return admits_.load(std::memory_order_relaxed); }

 private:
  const size_t k_;
  /// Cheapest retained total when full; -1 while the table has free space
  /// (so every offer is admitted until K traces are held).
  std::atomic<int64_t> floor_nanos_{-1};
  std::atomic<uint64_t> offers_{0};
  std::atomic<uint64_t> admits_{0};
  mutable std::mutex mutex_;
  std::vector<Exemplar> traces_;
};

}  // namespace sqlcm::obs

#endif  // SQLCM_OBS_SPAN_RING_H_
