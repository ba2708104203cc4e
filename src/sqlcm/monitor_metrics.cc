#include "sqlcm/monitor_metrics.h"

#include <string>

#include "common/string_util.h"

namespace sqlcm::cm {

const char* MonitorHookName(MonitorHook hook) {
  switch (hook) {
    case MonitorHook::kStatementCompiled:
      return "on_statement_compiled";
    case MonitorHook::kQueryStart:
      return "on_query_start";
    case MonitorHook::kQueryCommit:
      return "on_query_commit";
    case MonitorHook::kQueryCancel:
      return "on_query_cancel";
    case MonitorHook::kQueryRollback:
      return "on_query_rollback";
    case MonitorHook::kTxnBegin:
      return "on_transaction_begin";
    case MonitorHook::kTxnCommit:
      return "on_transaction_commit";
    case MonitorHook::kTxnRollback:
      return "on_transaction_rollback";
    case MonitorHook::kBlocked:
      return "on_blocked";
    case MonitorHook::kBlockReleased:
      return "on_block_released";
  }
  return "unknown";
}

MonitorMetrics::MonitorMetrics() {
  for (size_t i = 0; i < kNumMonitorHooks; ++i) {
    const std::string base =
        std::string("hook.") + MonitorHookName(static_cast<MonitorHook>(i));
    registry.RegisterCounter(base + ".calls", &hooks[i].calls);
    registry.RegisterHistogram(base, &hooks[i].latency);
  }
  registry.RegisterCounter("engine.fast_path_calls", &fast_path_calls);
  registry.RegisterCounter("engine.events_processed", &events_processed);
  registry.RegisterCounter("engine.rules_fired", &rules_fired);
  registry.RegisterCounter("engine.rules_visited", &rules_visited);
  registry.RegisterCounter("engine.rules_skipped", &rules_skipped);
  registry.RegisterCounter("engine.errors_total", &errors_total);
  registry.RegisterCounter("engine.deferred_events", &deferred_events);
  registry.RegisterHistogram("engine.signature_compute", &signature_micros);
  registry.RegisterHistogram("engine.timer_drift", &timer_drift_micros);
  registry.RegisterCounter("robustness.breaker_trips", &breaker_trips);
  registry.RegisterCounter("robustness.breaker_skips", &breaker_skips);
  registry.RegisterCounter("robustness.events_sampled_out",
                           &events_sampled_out);
  registry.RegisterCounter("robustness.actions_suppressed",
                           &actions_suppressed);
  registry.RegisterCounter("robustness.persist_retries", &persist_retries);
  registry.RegisterCounter("robustness.persist_fallbacks", &persist_fallbacks);
  registry.RegisterCounter("queue.enqueued", &queue_enqueued);
  registry.RegisterCounter("queue.dropped", &queue_dropped);
  registry.RegisterCounter("queue.shed", &queue_shed);
  registry.RegisterCounter("queue.batches", &queue_batches);
  registry.RegisterCounter("queue.batch_events", &queue_batch_events);
  registry.RegisterHistogram("queue.wait", &queue_wait_micros);
  registry.RegisterCounter("profile.events", &profile_events);
  registry.RegisterCounter("profile.dispatch_nanos", &profile_dispatch_nanos);
  registry.RegisterCounter("profile.checkpoint_spans",
                           &profile_checkpoint_spans);
  registry.RegisterCounter("profile.checkpoint_nanos",
                           &profile_checkpoint_nanos);
  registry.RegisterCounter("profile.queue.spans", &profile_queue_spans);
  registry.RegisterCounter("profile.queue.nanos", &profile_queue_nanos);
  registry.RegisterCounter("profile.trace_overflows", &profile_trace_overflows);
  registry.RegisterCounter("profile.metrics_exports", &metrics_exports);
  registry.RegisterCounter("predindex.evals", &predindex_evals);
  registry.RegisterCounter("predindex.memo_hits", &predindex_memo_hits);
  registry.RegisterCounter("predindex.fallbacks", &predindex_fallbacks);
  registry.RegisterCounter("predindex.invalidations", &predindex_invalidations);
  registry.RegisterCounter("predindex.reorders", &predindex_reorders);
  for (size_t i = 0; i < kNumActionKinds; ++i) {
    const std::string base =
        std::string("profile.action.") +
        common::ToLower(ActionKindName(static_cast<ActionKind>(i)));
    registry.RegisterCounter(base + ".spans", &action_kind_spans[i]);
    registry.RegisterCounter(base + ".nanos", &action_kind_nanos[i]);
  }
}

}  // namespace sqlcm::cm
