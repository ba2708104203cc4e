// Bounded multi-producer event-trace ring for the monitor engine.
//
// Producers are session threads dispatching monitor events; a ticket
// counter assigns slots and each slot carries a stamp encoding write
// progress (2*ticket+1 = write begun, 2*ticket+2 = write complete). Stamps
// only move forward (monotonic CAS), so a slow writer whose slot a newer
// lap already claimed drops its event. A claim is exclusive: a writer
// whose slot is still being written by an older lap (odd stamp) yields
// until that write publishes — only possible when the ring wraps within
// one write — so payload stores of two writers never interleave.
// Payload fields are individually-relaxed atomics rather than plain fields
// behind a seqlock — this keeps the protocol free of data races (TSan-clean)
// at the cost of a torn-but-detected read: Snapshot() re-checks the stamp
// and drops any slot that changed mid-read.
#ifndef SQLCM_OBS_TRACE_RING_H_
#define SQLCM_OBS_TRACE_RING_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

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
  explicit TraceRing(size_t capacity = 1024);

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// No-op when disabled. Lock-free unless the ring laps a writer mid-write
  /// (then the newer writer yields until the older one publishes).
  void Record(uint8_t kind, std::string_view qualifier, uint32_t rules_fired,
              int64_t ts_micros, int64_t dispatch_micros);

  /// The most recent min(capacity, total recorded) events, oldest first.
  /// Slots mid-write or reclaimed by a concurrent lap are skipped.
  std::vector<TraceEvent> Snapshot() const;

  uint64_t total_recorded() const {
    return head_.load(std::memory_order_relaxed);
  }
  /// Slots a Snapshot() had to discard because a concurrent writer touched
  /// them mid-read (torn) or still owned them (mid-write). Cumulative across
  /// all snapshots; surfaced in sqlcm_engine_stats so a reader can tell how
  /// lossy its view of a busy ring is.
  uint64_t snapshot_drops() const {
    return snapshot_drops_.load(std::memory_order_relaxed);
  }
  size_t capacity() const { return capacity_; }

 private:
  struct Slot {
    std::atomic<uint64_t> stamp{0};  // 0 = empty; odd = writing; even = done
    std::atomic<int64_t> ts_micros{0};
    std::atomic<int64_t> dispatch_micros{0};
    std::atomic<uint64_t> qualifier_hash{0};
    std::atomic<uint32_t> rules_fired{0};
    std::atomic<uint8_t> kind{0};
    std::atomic<uint8_t> qualifier_len{0};
    std::array<std::atomic<uint64_t>, 3> qualifier_words{};
  };

  /// Moves `stamp` to the odd `target` once no older write is in progress;
  /// returns false when a newer ticket already owns the slot.
  static bool ClaimSlot(std::atomic<uint64_t>& stamp, uint64_t target);

  size_t capacity_;       // power of two
  size_t mask_;
  std::unique_ptr<Slot[]> slots_;
  std::atomic<uint64_t> head_{0};    // next ticket to hand out
  std::atomic<bool> enabled_{false};
  mutable std::atomic<uint64_t> snapshot_drops_{0};
};

}  // namespace sqlcm::obs

#endif  // SQLCM_OBS_TRACE_RING_H_
