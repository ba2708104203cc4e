// Bounded multi-producer overwrite ring of fixed-size payloads: the one
// implementation of the stamp protocol behind the event-trace ring
// (trace_ring.h) and the span ring (span_ring.h), which only encode and
// decode their records to and from kWords 64-bit words.
//
// Producers are session (and monitor worker) threads; a ticket counter
// assigns slots and each slot carries a stamp encoding write progress
// (0 = empty, 2*ticket+1 = write begun, 2*ticket+2 = write complete).
//
// - Stamps only move forward (monotonic CAS), so a slow writer whose slot a
//   newer lap already claimed drops its record.
// - A claim is exclusive: a writer whose slot is still being written by an
//   older lap (odd stamp) yields until that write publishes. That is only
//   possible when the ring wraps within one write, and it means the payload
//   stores of two writers never interleave; otherwise a writer lapped
//   mid-write would go on storing into a slot a newer writer had already
//   published, and a reader would accept that torn slot by its stamp.
// - Payload words are individually relaxed atomics rather than plain
//   fields behind a seqlock. This keeps the protocol free of data races
//   (TSan-clean) at the cost of a torn-but-detected read: Snapshot() loads
//   the words, issues an acquire fence, re-checks the stamp and drops (and
//   counts) any slot that changed mid-read or was still being written.
#ifndef SQLCM_OBS_STAMPED_RING_H_
#define SQLCM_OBS_STAMPED_RING_H_

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <thread>

namespace sqlcm::obs {

template <size_t kWords>
class StampedRing {
 public:
  using Words = std::array<uint64_t, kWords>;

  /// Capacity is rounded up to a power of two (minimum 2).
  explicit StampedRing(size_t capacity)
      : capacity_(std::bit_ceil(std::max<size_t>(capacity, 2))),
        mask_(capacity_ - 1),
        slots_(std::make_unique<Slot[]>(capacity_)) {}

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// No-op when disabled. Lock-free apart from waiting out an older lap's
  /// in-flight write to the same slot (a handful of stores).
  void Record(const Words& words) {
    if (!enabled()) return;
    const uint64_t ticket = head_.fetch_add(1, std::memory_order_relaxed);
    Slot& slot = slots_[ticket & mask_];

    // Claim the slot; if a newer lap already owns it, drop this record.
    if (!Claim(slot.stamp, 2 * ticket + 1)) return;
    // Orders the claim before the payload stores for Snapshot()'s
    // load-payload / acquire-fence / re-check-stamp sequence.
    std::atomic_thread_fence(std::memory_order_release);
    for (size_t i = 0; i < kWords; ++i) {
      slot.words[i].store(words[i], std::memory_order_relaxed);
    }
    // Publish. The claim is exclusive: no newer lap claims an odd stamp.
    slot.stamp.store(2 * ticket + 2, std::memory_order_release);
  }

  /// Calls `visit(ticket, words)` for each of the most recent
  /// min(capacity, total recorded) records, oldest first. Slots mid-write
  /// or reclaimed by a concurrent lap are skipped and counted in
  /// snapshot_drops().
  template <typename Visit>
  void Snapshot(Visit&& visit) const {
    const uint64_t head = head_.load(std::memory_order_acquire);
    const uint64_t count = std::min<uint64_t>(head, capacity_);
    for (uint64_t ticket = head - count; ticket < head; ++ticket) {
      const Slot& slot = slots_[ticket & mask_];
      const uint64_t expect = 2 * ticket + 2;
      if (slot.stamp.load(std::memory_order_acquire) != expect) {
        snapshot_drops_.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      Words words{};
      for (size_t i = 0; i < kWords; ++i) {
        words[i] = slot.words[i].load(std::memory_order_relaxed);
      }
      // Re-check: drop the slot if a concurrent writer touched it mid-read.
      // The acquire fence keeps the payload loads above from being delayed
      // past this stamp load.
      std::atomic_thread_fence(std::memory_order_acquire);
      if (slot.stamp.load(std::memory_order_acquire) != expect) {
        snapshot_drops_.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      visit(ticket, words);
    }
  }

  /// Records handed a ticket (including any a newer lap made a writer drop).
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
  // Cache-line aligned (the stamp and seven payload words fill one line
  // exactly), so writers of neighbouring tickets never share a line.
  struct alignas(64) Slot {
    std::atomic<uint64_t> stamp{0};
    std::array<std::atomic<uint64_t>, kWords> words{};
  };

  /// Moves `stamp` to the odd `target` once no older write is in progress;
  /// returns false when a newer ticket already owns the slot.
  static bool Claim(std::atomic<uint64_t>& stamp, uint64_t target) {
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

  const size_t capacity_;  // power of two
  const size_t mask_;
  const std::unique_ptr<Slot[]> slots_;
  std::atomic<uint64_t> head_{0};  // next ticket to hand out
  std::atomic<bool> enabled_{false};
  mutable std::atomic<uint64_t> snapshot_drops_{0};
};

}  // namespace sqlcm::obs

#endif  // SQLCM_OBS_STAMPED_RING_H_
