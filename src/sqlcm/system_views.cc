#include "sqlcm/system_views.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <unordered_map>
#include <utility>

#include "catalog/schema.h"
#include "common/fault.h"
#include "common/string_util.h"
#include "engine/database.h"
#include "obs/span_ring.h"
#include "sqlcm/monitor_engine.h"
#include "storage/catalog.h"
#include "storage/table.h"

namespace sqlcm::cm {

using common::Row;
using common::Status;
using common::Value;

namespace {

catalog::ColumnType TypeCode(char code) {
  switch (code) {
    case 'i': return catalog::ColumnType::kInt;
    case 'd': return catalog::ColumnType::kDouble;
    case 'b': return catalog::ColumnType::kBool;
    default: return catalog::ColumnType::kString;
  }
}

// 64-bit hashes (qualifier / LAT-name refs) render as fixed-width hex so
// sqlcm_event_trace.qualifier_hash joins against sqlcm_trace_spans.detail
// without signed-overflow surprises.
std::string HexU64(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return std::string(buf);
}

}  // namespace

SystemViews::SystemViews(MonitorEngine* monitor, engine::Database* db)
    : monitor_(monitor), db_(db) {
  if (storage::Table* t = Register(kEngineStatsView,
                                   {{"name", 's'},
                                    {"kind", 's'},
                                    {"value", 'd'},
                                    {"detail", 's'}},
                                   {})) {
    t->SetVirtualRefresh([this, t] {
      std::lock_guard<std::mutex> lock(refresh_mutex_);
      RefreshEngineStats(t);
    });
  }
  if (storage::Table* t = Register(kRuleStatsView,
                                   {{"rule_id", 'i'},
                                    {"name", 's'},
                                    {"event", 's'},
                                    {"enabled", 'b'},
                                    {"evaluations", 'i'},
                                    {"condition_false", 'i'},
                                    {"fires", 'i'},
                                    {"errors", 'i'},
                                    {"action_count", 'i'},
                                    {"action_p50_us", 'd'},
                                    {"action_p95_us", 'd'},
                                    {"action_p99_us", 'd'},
                                    {"action_max_us", 'd'},
                                    {"quarantine_state", 's'},
                                    {"quarantine_trips", 'i'},
                                    {"quarantine_skipped", 'i'},
                                    {"actions_suppressed", 'i'},
                                    {"eval_mode", 's'},
                                    {"inline_reason", 's'},
                                    {"events_sampled_out", 'i'}},
                                   {"rule_id"})) {
    t->SetVirtualRefresh([this, t] {
      std::lock_guard<std::mutex> lock(refresh_mutex_);
      RefreshRuleStats(t);
    });
  }
  if (storage::Table* t = Register(kLatStatsView,
                                   {{"name", 's'},
                                    {"object_class", 's'},
                                    {"rows", 'i'},
                                    {"max_rows", 'i'},
                                    {"approx_bytes", 'i'},
                                    {"inserts", 'i'},
                                    {"evictions", 'i'},
                                    {"latch_acquisitions", 'i'},
                                    {"latch_contention", 'i'},
                                    {"aging_merges", 'i'},
                                    {"sketch_bytes", 'i'},
                                    {"sketch_cells", 'i'},
                                    {"sketch_collapses", 'i'},
                                    {"upsert_count", 'i'},
                                    {"upsert_p50_us", 'd'},
                                    {"upsert_p95_us", 'd'},
                                    {"upsert_p99_us", 'd'},
                                    {"events_sampled_out", 'i'},
                                    {"events_breaker_skipped", 'i'}},
                                   {"name"})) {
    t->SetVirtualRefresh([this, t] {
      std::lock_guard<std::mutex> lock(refresh_mutex_);
      RefreshLatStats(t);
    });
  }
  if (storage::Table* t = Register(kEventTraceView,
                                   {{"seq", 'i'},
                                    {"ts_micros", 'i'},
                                    {"event", 's'},
                                    {"qualifier", 's'},
                                    {"qualifier_hash", 's'},
                                    {"rules_fired", 'i'},
                                    {"dispatch_micros", 'i'}},
                                   {"seq"})) {
    t->SetVirtualRefresh([this, t] {
      std::lock_guard<std::mutex> lock(refresh_mutex_);
      RefreshEventTrace(t);
    });
  }
  if (storage::Table* t = Register(kFaultPointsView,
                                   {{"point", 's'},
                                    {"kind", 's'},
                                    {"probability", 'd'},
                                    {"max_fires", 'i'},
                                    {"hits", 'i'},
                                    {"fires", 'i'}},
                                   {"point"})) {
    t->SetVirtualRefresh([this, t] {
      std::lock_guard<std::mutex> lock(refresh_mutex_);
      RefreshFaultPoints(t);
    });
  }
  if (storage::Table* t = Register(kTraceSpansView,
                                   {{"trace_id", 'i'},
                                    {"span_id", 'i'},
                                    {"parent_id", 'i'},
                                    {"depth", 'i'},
                                    {"kind", 's'},
                                    {"name", 's'},
                                    {"detail", 's'},
                                    {"duration_us", 'd'}},
                                   {"span_id"})) {
    t->SetVirtualRefresh([this, t] {
      std::lock_guard<std::mutex> lock(refresh_mutex_);
      RefreshTraceSpans(t);
    });
  }
  if (storage::Table* t = Register(kSlowEventsView,
                                   {{"rank", 'i'},
                                    {"trace_id", 'i'},
                                    {"total_us", 'd'},
                                    {"span_id", 'i'},
                                    {"parent_id", 'i'},
                                    {"depth", 'i'},
                                    {"kind", 's'},
                                    {"name", 's'},
                                    {"detail", 's'},
                                    {"start_offset_us", 'd'},
                                    {"duration_us", 'd'}},
                                   {})) {
    t->SetVirtualRefresh([this, t] {
      std::lock_guard<std::mutex> lock(refresh_mutex_);
      RefreshSlowEvents(t);
    });
  }
  if (storage::Table* t = Register(kProfileView,
                                   {{"component", 's'},
                                    {"name", 's'},
                                    {"spans", 'i'},
                                    {"self_micros", 'd'},
                                    {"share_pct", 'd'}},
                                   {})) {
    t->SetVirtualRefresh([this, t] {
      std::lock_guard<std::mutex> lock(refresh_mutex_);
      RefreshProfile(t);
    });
  }
  if (storage::Table* t = Register(kRulePredicateStatsView,
                                   {{"event", 's'},
                                    {"lane", 's'},
                                    {"hash", 's'},
                                    {"predicate", 's'},
                                    {"rules", 'i'},
                                    {"eval_count", 'i'},
                                    {"pass_count", 'i'},
                                    {"pass_rate", 'd'}},
                                   {"event", "lane", "hash"})) {
    t->SetVirtualRefresh([this, t] {
      std::lock_guard<std::mutex> lock(refresh_mutex_);
      RefreshRulePredicateStats(t);
    });
  }
}

SystemViews::~SystemViews() {
  for (const std::string& name : registered_) {
    (void)db_->catalog()->DropTable(name);
  }
}

storage::Table* SystemViews::Register(
    const std::string& name,
    std::vector<std::pair<std::string, char>> columns,
    const std::vector<std::string>& primary_key) {
  std::vector<catalog::Column> cols;
  cols.reserve(columns.size());
  for (auto& [col_name, code] : columns) {
    cols.push_back({std::move(col_name), TypeCode(code)});
  }
  auto schema = catalog::TableSchema::Create(name, std::move(cols),
                                             primary_key);
  if (!schema.ok()) return nullptr;
  auto created = db_->catalog()->CreateTable(std::move(*schema));
  if (!created.ok()) {
    // A user table (or an earlier monitor's leftover view) owns the name;
    // don't hijack it.
    return nullptr;
  }
  registered_.push_back(name);
  return *created;
}

void SystemViews::RefreshEngineStats(storage::Table* table) {
  table->Truncate();
  auto add = [table](const std::string& name, const char* kind, double value,
                     std::string detail) {
    Row row;
    row.push_back(Value::String(name));
    row.push_back(Value::String(kind));
    row.push_back(Value::Double(value));
    row.push_back(Value::String(std::move(detail)));
    (void)table->Insert(std::move(row));
  };

  for (const auto& sample : monitor_->metrics().registry.Snapshot()) {
    add(sample.name, sample.kind, sample.value, "");
  }

  const engine::PlanCache* cache = db_->plan_cache();
  add("plan_cache.hits", "counter", static_cast<double>(cache->hits()), "");
  add("plan_cache.misses", "counter", static_cast<double>(cache->misses()),
      "");
  add("plan_cache.evictions", "counter",
      static_cast<double>(cache->evictions()), "");
  add("plan_cache.size", "gauge", static_cast<double>(cache->size()), "");

  add("monitor.active_queries", "gauge",
      static_cast<double>(monitor_->active_query_count()), "");
  add("monitor.rules", "gauge", static_cast<double>(monitor_->rule_count()),
      "");
  add("monitor.lats", "gauge",
      static_cast<double>(monitor_->SnapshotLats().size()), "");
  add("monitor.detailed_timing", "gauge",
      monitor_->detailed_timing() ? 1.0 : 0.0, "");

  const obs::TraceRing& trace = *monitor_->trace_ring();
  add("trace.enabled", "gauge", trace.enabled() ? 1.0 : 0.0, "");
  add("trace.capacity", "gauge", static_cast<double>(trace.capacity()), "");
  add("trace.total_recorded", "counter",
      static_cast<double>(trace.total_recorded()), "");
  add("trace.snapshot_drops", "counter",
      static_cast<double>(trace.snapshot_drops()), "");

  const obs::SpanRing& spans = *monitor_->span_ring();
  add("spans.enabled", "gauge", spans.enabled() ? 1.0 : 0.0, "");
  add("spans.capacity", "gauge", static_cast<double>(spans.capacity()), "");
  add("spans.total_recorded", "counter",
      static_cast<double>(spans.total_recorded()), "");
  add("spans.snapshot_drops", "counter",
      static_cast<double>(spans.snapshot_drops()), "");
  add("spans.sample_rate", "gauge", monitor_->span_sample_rate(), "");

  const obs::SlowTraceTable& slow = *monitor_->slow_traces();
  add("slow_traces.capacity", "gauge", static_cast<double>(slow.capacity()),
      "");
  add("slow_traces.retained", "gauge",
      static_cast<double>(slow.Snapshot().size()), "");
  add("slow_traces.offers", "counter", static_cast<double>(slow.offers()), "");
  add("slow_traces.admits", "counter", static_cast<double>(slow.admits()), "");

  const LoadGovernor& governor = *monitor_->governor();
  add("governor.overhead_fraction", "gauge",
      governor.last_overhead_fraction(), "");
  add("governor.overhead_budget", "gauge",
      governor.options().overhead_budget, "");
  add("governor.forced", "gauge", governor.forced() ? 1.0 : 0.0, "");

  // Deferred-evaluation pipeline gauges (counters surface through the
  // registry snapshot above as queue.*).
  add("queue.depth", "gauge",
      static_cast<double>(monitor_->event_queue_depth()), "");
  add("queue.capacity", "gauge",
      static_cast<double>(monitor_->event_queue_capacity()), "");

  add("errors.total", "counter", static_cast<double>(monitor_->total_errors()),
      "");
  add("errors.dropped", "counter",
      static_cast<double>(monitor_->dropped_errors()), "");
  for (const auto& err : monitor_->recent_errors()) {
    add("error." + std::to_string(err.seq), "error",
        static_cast<double>(err.ts_micros), err.message);
  }
}

void SystemViews::RefreshRuleStats(storage::Table* table) {
  table->Truncate();
  for (const auto& rule : monitor_->SnapshotRules()) {
    const RuleStats& stats = rule->stats;
    const auto pct = stats.action_micros.ComputePercentiles();
    Row row;
    row.push_back(Value::Int(static_cast<int64_t>(rule->id)));
    row.push_back(Value::String(rule->name));
    row.push_back(Value::String(EventKindName(rule->event.kind)));
    row.push_back(Value::Bool(rule->enabled));
    row.push_back(Value::Int(static_cast<int64_t>(stats.evaluations.value())));
    row.push_back(
        Value::Int(static_cast<int64_t>(stats.condition_false.value())));
    row.push_back(Value::Int(static_cast<int64_t>(stats.fires.value())));
    row.push_back(Value::Int(static_cast<int64_t>(stats.errors.value())));
    row.push_back(
        Value::Int(static_cast<int64_t>(stats.action_micros.count())));
    row.push_back(Value::Double(pct.p50));
    row.push_back(Value::Double(pct.p95));
    row.push_back(Value::Double(pct.p99));
    row.push_back(
        Value::Double(static_cast<double>(stats.action_micros.max_micros())));
    row.push_back(Value::String(rule->breaker.state_name()));
    row.push_back(Value::Int(static_cast<int64_t>(rule->breaker.trips())));
    row.push_back(Value::Int(static_cast<int64_t>(rule->breaker.skipped())));
    row.push_back(
        Value::Int(static_cast<int64_t>(stats.actions_suppressed.value())));
    row.push_back(Value::String(rule->deferrable ? "deferred" : "inline"));
    row.push_back(Value::String(rule->inline_reason));
    row.push_back(Value::Int(SampledOut(*rule)));
    (void)table->Insert(std::move(row));
  }
}

void SystemViews::RefreshRulePredicateStats(storage::Table* table) {
  table->Truncate();
  for (const auto& pred : monitor_->SnapshotPredicateStats()) {
    Row row;
    row.push_back(Value::String(pred.event));
    row.push_back(Value::String(pred.lane));
    row.push_back(Value::String(HexU64(pred.hash)));
    row.push_back(Value::String(pred.text));
    row.push_back(Value::Int(static_cast<int64_t>(pred.subscribers)));
    row.push_back(Value::Int(static_cast<int64_t>(pred.evals)));
    row.push_back(Value::Int(static_cast<int64_t>(pred.passes)));
    row.push_back(Value::Double(
        pred.evals == 0 ? 0.0
                        : static_cast<double>(pred.passes) /
                              static_cast<double>(pred.evals)));
    (void)table->Insert(std::move(row));
  }
}

void SystemViews::RefreshFaultPoints(storage::Table* table) {
  table->Truncate();
  for (const auto& point : common::FaultRegistry::Get()->Snapshot()) {
    Row row;
    row.push_back(Value::String(point.point));
    row.push_back(Value::String(common::FaultKindName(point.spec.kind)));
    row.push_back(Value::Double(point.spec.probability));
    row.push_back(Value::Int(point.spec.max_fires));
    row.push_back(Value::Int(static_cast<int64_t>(point.hits)));
    row.push_back(Value::Int(static_cast<int64_t>(point.fires)));
    (void)table->Insert(std::move(row));
  }
}

int64_t SystemViews::SampledOut(const CompiledRule& rule) const {
  // Events of the rule's kind sampled out since it was added; sampling
  // never skips an inline rule.
  if (!rule.deferrable) return 0;
  return static_cast<int64_t>(
      monitor_->metrics()
          .events_sampled_out_by_kind[static_cast<size_t>(rule.event.kind)]
          .value() -
      rule.sampled_out_baseline);
}

void SystemViews::RefreshLatStats(storage::Table* table) {
  table->Truncate();
  // A LAT's fidelity loss: the events_sampled_out of every rule that
  // Inserts into it (inline rules, which sampling never skips, add 0), and
  // the evaluations those rules' circuit breakers skipped.
  struct Loss {
    int64_t sampled_out = 0;
    int64_t breaker_skipped = 0;
  };
  std::unordered_map<const Lat*, Loss> losses;
  for (const auto& rule : monitor_->SnapshotRules()) {
    const int64_t sampled = SampledOut(*rule);
    const auto skipped = static_cast<int64_t>(rule->breaker.skipped());
    std::vector<const Lat*> fed;
    for (const CompiledAction& action : rule->actions) {
      if (action.kind == ActionKind::kInsert &&
          std::find(fed.begin(), fed.end(), action.lat) == fed.end()) {
        fed.push_back(action.lat);
        losses[action.lat].sampled_out += sampled;
        losses[action.lat].breaker_skipped += skipped;
      }
    }
  }
  for (const auto& lat : monitor_->SnapshotLats()) {
    const LatStats& stats = lat->stats();
    const auto pct = stats.upsert_micros.ComputePercentiles();
    Row row;
    row.push_back(Value::String(lat->name()));
    row.push_back(
        Value::String(MonitoredClassName(lat->spec().object_class)));
    row.push_back(Value::Int(static_cast<int64_t>(lat->size())));
    row.push_back(Value::Int(static_cast<int64_t>(lat->spec().max_rows)));
    row.push_back(Value::Int(static_cast<int64_t>(lat->approx_bytes())));
    row.push_back(Value::Int(static_cast<int64_t>(stats.inserts.value())));
    row.push_back(Value::Int(static_cast<int64_t>(stats.evictions.value())));
    row.push_back(
        Value::Int(static_cast<int64_t>(stats.latch_acquisitions.value())));
    row.push_back(
        Value::Int(static_cast<int64_t>(stats.latch_contention.value())));
    row.push_back(
        Value::Int(static_cast<int64_t>(stats.aging_merges.value())));
    size_t sketch_bytes = 0, sketch_cells = 0;
    lat->SketchFootprint(&sketch_bytes, &sketch_cells);
    row.push_back(Value::Int(static_cast<int64_t>(sketch_bytes)));
    row.push_back(Value::Int(static_cast<int64_t>(sketch_cells)));
    row.push_back(
        Value::Int(static_cast<int64_t>(stats.sketch_collapses.value())));
    row.push_back(
        Value::Int(static_cast<int64_t>(stats.upsert_micros.count())));
    row.push_back(Value::Double(pct.p50));
    row.push_back(Value::Double(pct.p95));
    row.push_back(Value::Double(pct.p99));
    const auto it = losses.find(lat.get());
    const Loss loss = it != losses.end() ? it->second : Loss{};
    row.push_back(Value::Int(loss.sampled_out));
    row.push_back(Value::Int(loss.breaker_skipped));
    (void)table->Insert(std::move(row));
  }
}

void SystemViews::RefreshEventTrace(storage::Table* table) {
  table->Truncate();
  for (const auto& ev : monitor_->trace_ring()->Snapshot()) {
    Row row;
    row.push_back(Value::Int(static_cast<int64_t>(ev.seq)));
    row.push_back(Value::Int(ev.ts_micros));
    row.push_back(
        Value::String(EventKindName(static_cast<EventKind>(ev.kind))));
    row.push_back(Value::String(ev.qualifier));
    row.push_back(Value::String(HexU64(ev.qualifier_hash)));
    row.push_back(Value::Int(static_cast<int64_t>(ev.rules_fired)));
    row.push_back(Value::Int(ev.dispatch_micros));
    (void)table->Insert(std::move(row));
  }
}

namespace {

/// Shared name/detail resolution for span rows: rule ids resolve through the
/// rule snapshot, LAT name hashes through Fnv1a64 of the snapshot names.
struct SpanNameResolver {
  std::unordered_map<uint64_t, std::string> rules;
  std::unordered_map<uint64_t, std::string> lats;

  explicit SpanNameResolver(MonitorEngine* monitor) {
    for (const auto& rule : monitor->SnapshotRules()) {
      rules.emplace(rule->id, rule->name);
    }
    for (const auto& lat : monitor->SnapshotLats()) {
      lats.emplace(common::Fnv1a64(lat->lower_name()), lat->name());
    }
  }

  std::string Name(const obs::Span& span) const {
    switch (span.kind) {
      case obs::SpanKind::kEvent:
        return EventKindName(static_cast<EventKind>(span.detail));
      case obs::SpanKind::kCondition:
      case obs::SpanKind::kAction: {
        auto it = rules.find(span.ref);
        if (it != rules.end()) return it->second;
        return "rule#" + std::to_string(span.ref);
      }
      case obs::SpanKind::kLatUpsert:
      case obs::SpanKind::kCheckpoint: {
        auto it = lats.find(span.ref);
        if (it != lats.end()) return it->second;
        return "lat#" + HexU64(span.ref);
      }
      case obs::SpanKind::kShip:
      case obs::SpanKind::kIngest:
        // ref is the federation node-id hash; no local name table.
        return "node#" + HexU64(span.ref);
      case obs::SpanKind::kQueueWait:
        // detail carries the deferred event's kind.
        return EventKindName(static_cast<EventKind>(span.detail));
    }
    return "";
  }

  std::string Detail(const obs::Span& span) const {
    switch (span.kind) {
      case obs::SpanKind::kEvent:
        // ref holds the qualifier hash; joins sqlcm_event_trace.
        return HexU64(span.ref);
      case obs::SpanKind::kAction:
        return ActionKindName(static_cast<ActionKind>(span.detail));
      default:
        return "";
    }
  }
};

}  // namespace

void SystemViews::RefreshTraceSpans(storage::Table* table) {
  table->Truncate();
  const SpanNameResolver resolver(monitor_);
  for (const auto& span : monitor_->span_ring()->Snapshot()) {
    Row row;
    row.push_back(Value::Int(static_cast<int64_t>(span.trace_id)));
    row.push_back(Value::Int(static_cast<int64_t>(span.span_id)));
    row.push_back(Value::Int(static_cast<int64_t>(span.parent_id)));
    row.push_back(Value::Int(span.depth));
    row.push_back(Value::String(obs::SpanKindName(span.kind)));
    row.push_back(Value::String(resolver.Name(span)));
    row.push_back(Value::String(resolver.Detail(span)));
    row.push_back(Value::Double(static_cast<double>(span.duration_nanos) /
                                1000.0));
    (void)table->Insert(std::move(row));
  }
}

void SystemViews::RefreshSlowEvents(storage::Table* table) {
  table->Truncate();
  const SpanNameResolver resolver(monitor_);
  int64_t rank = 0;
  for (const auto& exemplar : monitor_->slow_traces()->Snapshot()) {
    ++rank;
    int64_t base_nanos = 0;
    if (!exemplar.spans.empty()) {
      base_nanos = exemplar.spans.front().start_nanos;
      for (const auto& span : exemplar.spans) {
        base_nanos = std::min(base_nanos, span.start_nanos);
      }
    }
    for (const auto& span : exemplar.spans) {
      Row row;
      row.push_back(Value::Int(rank));
      row.push_back(Value::Int(static_cast<int64_t>(exemplar.trace_id)));
      row.push_back(Value::Double(
          static_cast<double>(exemplar.total_nanos) / 1000.0));
      row.push_back(Value::Int(static_cast<int64_t>(span.span_id)));
      row.push_back(Value::Int(static_cast<int64_t>(span.parent_id)));
      row.push_back(Value::Int(span.depth));
      row.push_back(Value::String(obs::SpanKindName(span.kind)));
      row.push_back(Value::String(resolver.Name(span)));
      row.push_back(Value::String(resolver.Detail(span)));
      row.push_back(Value::Double(
          static_cast<double>(span.start_nanos - base_nanos) / 1000.0));
      row.push_back(Value::Double(static_cast<double>(span.duration_nanos) /
                                  1000.0));
      (void)table->Insert(std::move(row));
    }
  }
}

void SystemViews::RefreshProfile(storage::Table* table) {
  table->Truncate();
  const MonitorMetrics& metrics = monitor_->metrics();
  const double dispatch_nanos =
      static_cast<double>(metrics.profile_dispatch_nanos.value());
  auto add = [table, dispatch_nanos](const char* component,
                                     const std::string& name, uint64_t spans,
                                     double nanos) {
    Row row;
    row.push_back(Value::String(component));
    row.push_back(Value::String(name));
    row.push_back(Value::Int(static_cast<int64_t>(spans)));
    row.push_back(Value::Double(nanos / 1000.0));
    row.push_back(Value::Double(
        dispatch_nanos > 0 ? nanos / dispatch_nanos * 100.0 : 0.0));
    (void)table->Insert(std::move(row));
  };

  add("dispatch", "total", metrics.profile_events.value(), dispatch_nanos);
  for (const auto& rule : monitor_->SnapshotRules()) {
    // Per-rule time is condition + action wall time (inclusive of any LAT
    // upserts the actions performed), so rule rows sum to ~dispatch total.
    add("rule", rule->name, rule->stats.profiled_evals.value(),
        static_cast<double>(rule->stats.condition_nanos.value() +
                            rule->stats.action_nanos.value()));
  }
  for (size_t i = 0; i < kNumActionKinds; ++i) {
    const uint64_t count = metrics.action_kind_spans[i].value();
    if (count == 0) continue;
    add("action", ActionKindName(static_cast<ActionKind>(i)), count,
        static_cast<double>(metrics.action_kind_nanos[i].value()));
  }
  for (const auto& lat : monitor_->SnapshotLats()) {
    const LatStats& stats = lat->stats();
    if (stats.upsert_spans.value() == 0) continue;
    add("lat", lat->name(), stats.upsert_spans.value(),
        static_cast<double>(stats.upsert_nanos.value()));
  }
  // Checkpoint I/O runs on the timer thread, outside event dispatch; its
  // share is still expressed against dispatch time for comparability.
  add("checkpoint", "total", metrics.profile_checkpoint_spans.value(),
      static_cast<double>(metrics.profile_checkpoint_nanos.value()));
  // Deferred-event queue wait (enqueue->drain) is latency, not CPU; like
  // checkpoint it is expressed against dispatch time for comparability.
  add("queue", "wait", metrics.profile_queue_spans.value(),
      static_cast<double>(metrics.profile_queue_nanos.value()));
}

}  // namespace sqlcm::cm
