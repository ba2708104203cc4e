// Engine-wide self-monitoring instruments for MonitorEngine.
//
// Answers the paper's own question — how much does the monitor cost? —
// with per-hook call counters + latency histograms, engine counters
// (events, fires, errors, fast-path hits, deferred evictions), the
// signature-computation cost distribution (§4.2) and timer firing drift.
// All instruments live here so the sqlcm_engine_stats system view can
// materialize the whole inventory from one registry.
#ifndef SQLCM_SQLCM_MONITOR_METRICS_H_
#define SQLCM_SQLCM_MONITOR_METRICS_H_

#include <array>
#include <cstddef>

#include "obs/metrics.h"
#include "sqlcm/rule.h"

namespace sqlcm::cm {

/// Instrumented MonitorHooks entry points (and lock-event callbacks).
enum class MonitorHook : size_t {
  kStatementCompiled = 0,
  kQueryStart,
  kQueryCommit,
  kQueryCancel,
  kQueryRollback,
  kTxnBegin,
  kTxnCommit,
  kTxnRollback,
  kBlocked,
  kBlockReleased,
};
inline constexpr size_t kNumMonitorHooks = 10;

const char* MonitorHookName(MonitorHook hook);

struct MonitorMetrics {
  struct HookStats {
    obs::Counter calls;
    obs::LatencyHistogram latency;  // timed only while monitoring is active
  };

  std::array<HookStats, kNumMonitorHooks> hooks;

  // Counters bumped per event or per rule visit are striped per thread so
  // concurrent sessions never write a shared cache line (obs::StripedCounter).
  obs::Counter fast_path_calls;          // hook invocations with monitoring off
  obs::StripedCounter events_processed;  // events with >= 1 registered rule
  obs::StripedCounter rules_fired;       // rules whose actions ran
  /// Dispatch by subscription (predicate_index.h): rules visited (their
  /// breaker gate and condition ran) and rules their rejected access group
  /// answered without a visit. Per event these depend only on the rule
  /// set and the event, so visits per event is a stable per-layer signal.
  obs::StripedCounter rules_visited;
  obs::StripedCounter rules_skipped;
  obs::Counter errors_total;      // condition/action/persist failures
  obs::Counter deferred_events;   // LAT evictions dispatched after unwind
  obs::LatencyHistogram signature_micros;   // per-compile signature cost
  obs::LatencyHistogram timer_drift_micros;  // scheduled-vs-actual firing

  // Robustness layer (docs/ROBUSTNESS.md).
  obs::Counter breaker_trips;        // rule circuit breakers tripped open
  obs::Counter breaker_skips;        // rule evaluations skipped (quarantined)
  obs::Counter events_sampled_out;   // events governor sampling kept from
                                     // deferrable rules
  /// events_sampled_out split by event kind; sqlcm_rule_stats reads each
  /// rule's share from these against a baseline taken at AddRule.
  std::array<obs::Counter, kNumEventKinds> events_sampled_out_by_kind;
  obs::Counter actions_suppressed;   // SendMail/Persist shed by rate limiter
  obs::Counter persist_retries;      // snapshot write retries that ran
  obs::Counter persist_fallbacks;    // restores served from .bak snapshots

  // Deferred-evaluation pipeline (event_queue.h; docs/PERFORMANCE.md
  // §Async pipeline). queue_wait_micros measures enqueue->drain latency.
  obs::Counter queue_enqueued;      // events handed to the worker pool
  obs::Counter queue_dropped;       // enqueues lost to a shutdown race
  obs::Counter queue_shed;          // deferred events kept out by sampling
  obs::Counter queue_batches;       // worker batch drains
  obs::Counter queue_batch_events;  // events across all drained batches
  obs::LatencyHistogram queue_wait_micros;

  // Causal tracing / profiling plane (docs/OBSERVABILITY.md §Tracing).
  // dispatch_nanos accumulates root-span durations of *sampled* events, so
  // per-rule self-times in sqlcm_profile reconcile against it.
  obs::Counter profile_events;          // root event spans recorded (sampled)
  obs::Counter profile_dispatch_nanos;  // total sampled dispatch self-time
  obs::Counter profile_checkpoint_spans;
  obs::Counter profile_checkpoint_nanos;
  obs::Counter profile_queue_spans;      // queue_wait spans (sampled)
  obs::Counter profile_queue_nanos;      // total sampled enqueue->drain wait
  obs::Counter profile_trace_overflows;  // spans dropped by per-trace cap
  obs::Counter metrics_exports;          // Prometheus dumps written

  // Shared predicate index (docs/PERFORMANCE.md
  // §Predicate index). memo_hits / (evals + memo_hits) is the sharing rate.
  obs::StripedCounter predindex_evals;      // distinct predicate evaluations
  obs::StripedCounter predindex_memo_hits;  // conjuncts answered from the memo
  obs::Counter predindex_fallbacks;      // rules replayed naively (error parity)
  // Mid-event LAT-mutation flushes (only when some predicate reads a LAT).
  obs::StripedCounter predindex_invalidations;
  // Per-action-kind attribution across all rules (sampled traces only).
  std::array<obs::Counter, kNumActionKinds> action_kind_spans;
  std::array<obs::Counter, kNumActionKinds> action_kind_nanos;

  obs::MetricsRegistry registry;  // names every instrument above

  MonitorMetrics();
};

}  // namespace sqlcm::cm

#endif  // SQLCM_SQLCM_MONITOR_METRICS_H_
