// Bounded multi-producer event-trace ring for the monitor engine: one
// TraceEvent per dispatched monitor event, encoded into seven words of a
// StampedRing (see stamped_ring.h for the ticket/stamp/claim/snapshot
// protocol).
#ifndef SQLCM_OBS_TRACE_RING_H_
#define SQLCM_OBS_TRACE_RING_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/stamped_ring.h"

namespace sqlcm::obs {

struct TraceEvent {
  uint64_t seq = 0;           // global event index (0-based)
  int64_t ts_micros = 0;      // event timestamp
  uint8_t kind = 0;           // sqlcm::cm::EventKind, stored untyped
  std::string qualifier;      // truncated to kMaxQualifierBytes
  uint64_t qualifier_hash = 0;  // FNV-1a of the *full* qualifier
  uint32_t rules_fired = 0;   // rules whose actions ran for this event
  int64_t dispatch_micros = 0;  // wall time spent dispatching the event
};

class TraceRing {
 public:
  static constexpr size_t kMaxQualifierBytes = 24;

  /// Capacity is rounded up to a power of two (minimum 2).
  explicit TraceRing(size_t capacity = 1024) : ring_(capacity) {}

  void set_enabled(bool on) { ring_.set_enabled(on); }
  bool enabled() const { return ring_.enabled(); }

  /// No-op when disabled. Lock-free unless the ring laps a writer mid-write
  /// (then the newer writer yields until the older one publishes).
  void Record(uint8_t kind, std::string_view qualifier, uint32_t rules_fired,
              int64_t ts_micros, int64_t dispatch_micros);

  /// The most recent min(capacity, total recorded) events, oldest first.
  /// Slots mid-write or reclaimed by a concurrent lap are skipped.
  std::vector<TraceEvent> Snapshot() const;

  uint64_t total_recorded() const { return ring_.total_recorded(); }
  /// Slots a Snapshot() discarded as torn or mid-write (cumulative).
  uint64_t snapshot_drops() const { return ring_.snapshot_drops(); }
  size_t capacity() const { return ring_.capacity(); }

 private:
  // Words: ts, dispatch, qualifier hash, fired | kind<<32 | len<<40, and
  // the qualifier's first kMaxQualifierBytes bytes.
  StampedRing<7> ring_;
};

}  // namespace sqlcm::obs

#endif  // SQLCM_OBS_TRACE_RING_H_
