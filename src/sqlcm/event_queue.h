// Bounded lock-free event queue for the deferred-evaluation pipeline
// (ROADMAP item 1): hooks encode a fixed-size event record and return;
// monitor worker threads drain in batches and evaluate the deferrable
// rules off the query thread.
//
// The queue is a Vyukov-style bounded MPMC ring: every slot carries its own
// sequence stamp, so producers and consumers synchronize per slot with one
// CAS on the shared cursor each — no mutex on either hot path. This grows
// the stamp protocol of the obs rings (obs/stamped_ring.h) into a
// consumable queue: those rings overwrite and never pop; this one hands
// each record to exactly one consumer, in FIFO order per producer, and adds
// a consumer-side batch-pop so workers amortize rule-table dispatch across
// a whole batch.
//
// Blocking coordination (full producers under the kBlock policy, idle
// consumers) uses a mutex+condvar pair on the *slow* path only; both sides
// keep a sleeper count so the lock-free paths skip notification entirely
// while nobody waits.
#ifndef SQLCM_SQLCM_EVENT_QUEUE_H_
#define SQLCM_SQLCM_EVENT_QUEUE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>

#include "sqlcm/rule.h"
#include "sqlcm/schema.h"

namespace sqlcm::cm {

/// One deferred event, captured at hook time. Only terminal events are
/// deferrable (EventKindDeferrable), so the bound record is immutable by
/// enqueue time; the shared_ptr keepalives let the worker evaluate it after
/// the engine registries dropped their references.
struct DeferredEvent {
  EventKind kind = EventKind::kQueryCommit;
  /// Event sequence number allocated by the hook (trace id = seq + 1).
  uint64_t seq = 0;
  /// The hook's single clock read; workers reuse it so deferred rules see
  /// the same event timestamp sync evaluation would have.
  int64_t now_micros = 0;
  /// Steady-clock enqueue time; drain latency = pop time - this.
  int64_t enqueue_nanos = 0;
  /// Span-sampling decision, made once per event at the hook.
  bool sampled = false;
  std::shared_ptr<QueryRecord> query;     // kQuery* events
  std::shared_ptr<TransactionRecord> txn; // kTransaction* events
};

/// Length of the run of consecutive events sharing events[pos].kind, up to
/// `count`. Batch consumers use this to resolve per-kind dispatch state
/// (rule list, predicate index) once per run instead of once per event,
/// without re-sorting the batch — cross-kind order is load-bearing for
/// FIRST/LAST LAT aggregates.
size_t KindRunLength(const DeferredEvent* events, size_t pos, size_t count);

class EventQueue {
 public:
  /// Capacity is rounded up to a power of two (minimum 2).
  explicit EventQueue(size_t capacity);

  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Lock-free enqueue; false when the queue is full (the caller applies
  /// its full-policy: block, drop or shed).
  bool TryPush(DeferredEvent&& ev);

  /// Enqueue, waiting for space when full. Returns false only after
  /// Shutdown() (the event is dropped then).
  bool PushBlocking(DeferredEvent&& ev);

  /// Pops up to `max` events into `out` (which must hold `max` slots).
  /// Returns the number popped (0 = queue empty). Each event is delivered
  /// to exactly one consumer.
  size_t PopBatch(DeferredEvent* out, size_t max);

  /// Blocks the calling consumer until the queue looks non-empty, `micros`
  /// elapsed, or Shutdown(). Returns true when the queue may be non-empty.
  bool WaitNonEmpty(int64_t micros);

  /// Wakes every sleeping producer and consumer, permanently: subsequent
  /// waits return immediately. Pushes after shutdown still succeed while
  /// space remains (workers drain the residue before exiting).
  void Shutdown();
  bool shutdown() const { return shutdown_.load(std::memory_order_acquire); }

  /// Approximate depth (racy by nature; exact when producers/consumers are
  /// quiescent, which is how the drain barrier uses it).
  size_t ApproxDepth() const;
  size_t capacity() const { return capacity_; }

 private:
  struct Slot {
    /// Stamp protocol (per slot, lap-aware like the obs rings):
    ///   stamp == ticket           slot free for the producer with `ticket`
    ///   stamp == ticket + 1       slot filled, ready for that consumer
    ///   stamp == ticket + cap     slot recycled for the next lap
    std::atomic<uint64_t> stamp{0};
    DeferredEvent ev;
  };

  bool TryPop(DeferredEvent* out);
  void NotifyConsumers();
  void NotifyProducers();

  size_t capacity_ = 0;
  uint64_t mask_ = 0;
  std::unique_ptr<Slot[]> slots_;
  alignas(64) std::atomic<uint64_t> head_{0};  // next producer ticket
  alignas(64) std::atomic<uint64_t> tail_{0};  // next consumer ticket

  // Slow-path coordination only; hot paths check the sleeper counts and
  // skip the mutex while nobody waits.
  std::mutex wait_mutex_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::atomic<int> consumer_sleepers_{0};
  std::atomic<int> producer_sleepers_{0};
  std::atomic<bool> shutdown_{false};
};

}  // namespace sqlcm::cm

#endif  // SQLCM_SQLCM_EVENT_QUEUE_H_
