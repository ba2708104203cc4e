// SQL-queryable system views over the monitor's own state.
//
// The paper turns monitored objects into relational data (Persist, LATs);
// this module closes the loop by doing the same for the monitor itself:
// virtual tables registered in the storage catalog whose contents are
// rebuilt from live monitor state at the start of every scan, so plain
// SELECT — and therefore ECA rules and LATs — can read monitor internals.
//
//   sqlcm_engine_stats  every registered metric, plan-cache stats, trace
//                       status, error totals, and the recent-error ring
//   sqlcm_rule_stats    per-rule evaluations / fires / errors / latency
//   sqlcm_lat_stats     per-LAT rows, evictions, latch contention, latency
//   sqlcm_event_trace   the recent-event ring (when tracing is enabled)
//   sqlcm_trace_spans   the causal span ring: one row per span, with
//                       trace/parent ids so rule cascades rebuild as trees
//   sqlcm_slow_events   the top-K most expensive traces, retained whole
//                       with their full span breakdown
//   sqlcm_profile       per-rule / per-action-kind / per-LAT cumulative
//                       self-time and share of total monitoring overhead
//   sqlcm_rule_predicate_stats
//                       the shared predicate index: one row per distinct
//                       conjunct per event/lane with subscriber count
//                       and eval/pass totals
//
// Refreshes run *before* the table latch is taken (storage::Table virtual
// hook) and only read monitor snapshots, so no monitor mutex is ever held
// while the table latch is, and vice versa.
#ifndef SQLCM_SQLCM_SYSTEM_VIEWS_H_
#define SQLCM_SQLCM_SYSTEM_VIEWS_H_

#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"

namespace sqlcm::engine {
class Database;
}

namespace sqlcm::storage {
class Table;
}

namespace sqlcm::cm {

class MonitorEngine;
struct CompiledRule;

inline constexpr const char* kEngineStatsView = "sqlcm_engine_stats";
inline constexpr const char* kRuleStatsView = "sqlcm_rule_stats";
inline constexpr const char* kLatStatsView = "sqlcm_lat_stats";
inline constexpr const char* kEventTraceView = "sqlcm_event_trace";
inline constexpr const char* kFaultPointsView = "sqlcm_fault_points";
inline constexpr const char* kTraceSpansView = "sqlcm_trace_spans";
inline constexpr const char* kSlowEventsView = "sqlcm_slow_events";
inline constexpr const char* kProfileView = "sqlcm_profile";
inline constexpr const char* kRulePredicateStatsView =
    "sqlcm_rule_predicate_stats";

class SystemViews {
 public:
  /// Creates and registers the views; a view whose name already exists
  /// as a non-virtual table is skipped (reported via monitor error ring).
  SystemViews(MonitorEngine* monitor, engine::Database* db);
  /// Drops every view this instance registered.
  ~SystemViews();

  SystemViews(const SystemViews&) = delete;
  SystemViews& operator=(const SystemViews&) = delete;

 private:
  storage::Table* Register(const std::string& name,
                           std::vector<std::pair<std::string, char>> columns,
                           const std::vector<std::string>& primary_key);

  void RefreshEngineStats(storage::Table* table);
  void RefreshRuleStats(storage::Table* table);
  void RefreshLatStats(storage::Table* table);
  void RefreshEventTrace(storage::Table* table);
  void RefreshFaultPoints(storage::Table* table);
  void RefreshTraceSpans(storage::Table* table);
  void RefreshSlowEvents(storage::Table* table);
  void RefreshProfile(storage::Table* table);
  void RefreshRulePredicateStats(storage::Table* table);
  /// Events of `rule`'s kind the governor's sampling kept from it since it
  /// was added (sqlcm_rule_stats.events_sampled_out).
  int64_t SampledOut(const CompiledRule& rule) const;

  MonitorEngine* monitor_;
  engine::Database* db_;
  std::vector<std::string> registered_;  // names we own and must drop

  /// Serializes all view refreshes (concurrent SELECTs would otherwise
  /// interleave Truncate/Insert).
  std::mutex refresh_mutex_;
};

}  // namespace sqlcm::cm

#endif  // SQLCM_SQLCM_SYSTEM_VIEWS_H_
