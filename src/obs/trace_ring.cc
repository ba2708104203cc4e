#include "obs/trace_ring.h"

#include <bit>
#include <cstring>
#include <thread>

#include "common/string_util.h"

namespace sqlcm::obs {

TraceRing::TraceRing(size_t capacity) {
  if (capacity < 2) capacity = 2;
  capacity_ = std::bit_ceil(capacity);
  mask_ = capacity_ - 1;
  slots_ = std::make_unique<Slot[]>(capacity_);
}

bool TraceRing::ClaimSlot(std::atomic<uint64_t>& stamp, uint64_t target) {
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

void TraceRing::Record(uint8_t kind, std::string_view qualifier,
                       uint32_t rules_fired, int64_t ts_micros,
                       int64_t dispatch_micros) {
  if (!enabled()) return;
  const uint64_t ticket = head_.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = slots_[ticket & mask_];

  // Claim the slot; if a newer lap already owns it, drop this event.
  if (!ClaimSlot(slot.stamp, 2 * ticket + 1)) return;
  // Orders the claim before the payload stores for Snapshot()'s
  // load-payload / acquire-fence / re-check-stamp sequence.
  std::atomic_thread_fence(std::memory_order_release);

  slot.ts_micros.store(ts_micros, std::memory_order_relaxed);
  slot.dispatch_micros.store(dispatch_micros, std::memory_order_relaxed);
  slot.qualifier_hash.store(common::Fnv1a64(qualifier),
                            std::memory_order_relaxed);
  slot.rules_fired.store(rules_fired, std::memory_order_relaxed);
  slot.kind.store(kind, std::memory_order_relaxed);

  const size_t len = std::min(qualifier.size(), kMaxQualifierBytes);
  uint64_t words[3] = {0, 0, 0};
  if (len > 0) std::memcpy(words, qualifier.data(), len);
  for (size_t i = 0; i < 3; ++i) {
    slot.qualifier_words[i].store(words[i], std::memory_order_relaxed);
  }
  slot.qualifier_len.store(static_cast<uint8_t>(len),
                           std::memory_order_relaxed);

  // Publish. The claim is exclusive: no newer lap claims an odd stamp.
  slot.stamp.store(2 * ticket + 2, std::memory_order_release);
}

std::vector<TraceEvent> TraceRing::Snapshot() const {
  const uint64_t head = head_.load(std::memory_order_acquire);
  const uint64_t count = std::min<uint64_t>(head, capacity_);
  std::vector<TraceEvent> out;
  out.reserve(count);
  for (uint64_t ticket = head - count; ticket < head; ++ticket) {
    const Slot& slot = slots_[ticket & mask_];
    const uint64_t expect = 2 * ticket + 2;
    if (slot.stamp.load(std::memory_order_acquire) != expect) {
      snapshot_drops_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }

    TraceEvent ev;
    ev.seq = ticket;
    ev.ts_micros = slot.ts_micros.load(std::memory_order_relaxed);
    ev.dispatch_micros = slot.dispatch_micros.load(std::memory_order_relaxed);
    ev.qualifier_hash = slot.qualifier_hash.load(std::memory_order_relaxed);
    ev.rules_fired = slot.rules_fired.load(std::memory_order_relaxed);
    ev.kind = slot.kind.load(std::memory_order_relaxed);
    const size_t len = std::min<size_t>(
        slot.qualifier_len.load(std::memory_order_relaxed),
        kMaxQualifierBytes);
    uint64_t words[3];
    for (size_t i = 0; i < 3; ++i) {
      words[i] = slot.qualifier_words[i].load(std::memory_order_relaxed);
    }
    // Re-check: drop the slot if a concurrent writer touched it mid-read.
    // The acquire fence keeps the payload loads above from being delayed
    // past this stamp load.
    std::atomic_thread_fence(std::memory_order_acquire);
    if (slot.stamp.load(std::memory_order_acquire) != expect) {
      snapshot_drops_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    ev.qualifier.assign(reinterpret_cast<const char*>(words), len);
    out.push_back(std::move(ev));
  }
  return out;
}

}  // namespace sqlcm::obs
