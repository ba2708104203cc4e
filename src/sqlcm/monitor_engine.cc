#include "sqlcm/monitor_engine.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <deque>
#include <memory>

#include "common/fault.h"
#include "common/string_util.h"
#include "sqlcm/signature.h"
#include "sqlcm/system_views.h"
#include "storage/table_io.h"

namespace sqlcm::cm {

/// Per-thread state of the trace currently being assembled. One frame per
/// thread: a root dispatch activates it, nested (eviction) dispatches inherit
/// it (same trace id, parent span propagated), and the root finalizes it by
/// offering the buffered spans to the slow-trace table. Durations use the
/// raw steady clock (nanoseconds) rather than common::Clock: the db clock
/// has microsecond resolution and may be mocked, while span self-times need
/// real elapsed time at sub-microsecond grain.
struct TraceFrame {
  const void* engine = nullptr;  // frames never cross engines
  bool active = false;
  bool sampled = false;       // child spans + profiling for this trace
  uint64_t trace_id = 0;      // event seq + 1 (0 = "no trace")
  uint64_t parent_span = 0;   // parent for the next span opened
  uint8_t depth = 0;          // tree depth for the next event span
  /// Rolling clock for gapless attribution: each condition/action window
  /// starts where the previous one ended, so per-rule self-times sum to the
  /// enclosing event span by construction (±5% reconciliation criterion).
  int64_t chain_ns = 0;
  int64_t total_nanos = 0;    // sum of event-span durations in this trace
  std::vector<obs::Span> spans;  // buffered for SlowTraceTable::Offer
  bool overflowed = false;
};

using common::Result;
using common::Row;
using common::Status;
using common::ToLower;
using common::Value;
using common::ValueKind;

namespace {

/// Deferred side-effect events (paper §5, rule evaluation order): actions
/// that raise further events — LAT eviction being the one in-thread case —
/// are queued and processed only after the current rule batch completes.
/// The causing action's span id and depth travel with the eviction so the
/// deferred event reconstructs under its true parent in the trace tree.
struct PendingEviction {
  Lat* lat;
  Row row;
  uint64_t parent_span = 0;
  uint8_t depth = 0;
};

int& RuleDepth() {
  thread_local int depth = 0;
  return depth;
}

TraceFrame& CurrentTraceFrame() {
  // Value-type thread_local: destroyed at thread exit.
  thread_local TraceFrame frame;
  return frame;
}

int64_t SteadyNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Where a dispatch's event span ends. A profiled span ends where its last
/// condition/action window closed, so the rules' self-times add up to it
/// exactly; what follows that close (emitting the window's span, its
/// counters) is tracing bookkeeping and stays outside, like the trace-ring
/// write.
int64_t EventSpanEnd(const TraceFrame& frame, int64_t start_nanos) {
  return frame.sampled && frame.chain_ns != start_nanos ? frame.chain_ns
                                                        : SteadyNanos();
}

/// Span-buffer cap per trace (slow-trace exemplars stay bounded even for
/// pathological cascades; overflow is counted in profile.trace_overflows).
constexpr size_t kMaxSpansPerTrace = 2048;

/// Fixed-point scale for the span sampling threshold.
constexpr uint32_t kSpanSampleScale = 1u << 20;

/// Per-thread stack of in-flight query records (statements nest through
/// EXEC). Start and terminal hooks run on the same session thread, so this
/// avoids the global registry when no rule needs cross-query visibility.
std::vector<std::shared_ptr<QueryRecord>>& ThreadQueryStack() {
  // Value-type thread_local: destroyed at thread exit (see above).
  thread_local std::vector<std::shared_ptr<QueryRecord>> stack;
  return stack;
}

std::deque<PendingEviction>& PendingEvictions() {
  // Value-type thread_local: destroyed at thread exit. Safe because the
  // elements hold no references to other thread_local state.
  thread_local std::deque<PendingEviction> pending;
  return pending;
}

/// Cap on the Lat.Evict events one root dispatch drains (guards against
/// rule cycles such as an Evict rule re-inserting into its own LAT).
constexpr size_t kMaxCascadeEvents = 100000;

using BindingItem = std::vector<std::pair<MonitoredClass, const void*>>;

/// Reusable buffers for unbound-class iteration (paper §5.2): one set per
/// (thread, dispatch nesting depth), so the iteration path allocates only
/// until each buffer's high-water capacity is reached. Keepalive vectors
/// are cleared by the caller as soon as iteration finishes so shared
/// ownership of query/transaction records is not stretched across events.
struct IterationScratch {
  std::vector<std::shared_ptr<QueryRecord>> query_keepalive;
  std::vector<std::shared_ptr<TransactionRecord>> txn_keepalive;
  std::vector<TimerRecord> timer_objects;
  std::vector<std::pair<BlockEventView, BlockEventView>> pair_objects;
  std::vector<std::vector<BindingItem>> lists;
  std::vector<size_t> idx;

  void Clear() {
    query_keepalive.clear();
    txn_keepalive.clear();
    timer_objects.clear();
    pair_objects.clear();
    lists.clear();
    idx.clear();
  }
};

IterationScratch& IterationScratchAt(size_t depth) {
  thread_local std::vector<std::unique_ptr<IterationScratch>> pool;
  while (pool.size() <= depth) {
    pool.push_back(std::make_unique<IterationScratch>());
  }
  return *pool[depth];
}

/// The calling thread's snapshot of the rule table of the engine it last
/// dispatched for (see MonitorEngine::ThreadRuleTable). Type-erased because
/// the table type is private to the engine; engine_id 0 = empty. A thread
/// that switches engines replaces the snapshot, so it holds at most one.
struct RuleTableSnapshot {
  uint64_t engine_id = 0;
  uint64_t version = 0;
  std::shared_ptr<const void> table;
};

RuleTableSnapshot& ThreadRuleTableSnapshot() {
  // Value-type thread_local: destroyed at thread exit, releasing the
  // table. Tables reference no engine-owned state on destruction.
  thread_local RuleTableSnapshot snapshot;
  return snapshot;
}

uint64_t NextEngineId() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

/// Per-thread reusable EvalContext for hook dispatch: clearing retains the
/// lat_rows capacity, so steady-state hooks allocate nothing. Nested
/// (eviction) dispatch keeps its own stack context and never touches this.
EvalContext& ThreadEvalScratch() {
  // Value-type thread_local: destroyed at thread exit.
  thread_local EvalContext ctx;
  ctx.ResetForEvent();
  return ctx;
}

catalog::ColumnType ColumnTypeForKind(ValueKind kind) {
  switch (kind) {
    case ValueKind::kInt: return catalog::ColumnType::kInt;
    case ValueKind::kDouble: return catalog::ColumnType::kDouble;
    case ValueKind::kBool: return catalog::ColumnType::kBool;
    default: return catalog::ColumnType::kString;
  }
}

/// Per-hook instrumentation guard: always counts the call; times it (two
/// clock reads) only while monitoring is active, so the no-rules fast path
/// never touches the clock. Timed hooks feed the LoadGovernor's overhead
/// estimate, and honour the `monitor.hook.slow` chaos fault.
class HookTimer {
 public:
  HookTimer(common::Clock* clock, MonitorMetrics::HookStats* stats,
            bool active, LoadGovernor* governor)
      : clock_(clock), stats_(stats), active_(active), governor_(governor) {
    stats_->calls.Inc();
    if (active_) start_ = clock_->NowMicros();
  }
  ~HookTimer() {
    if (!active_) return;
    if (common::FaultFires(kFaultHookSlow)) {
      clock_->SleepMicros(kFaultHookSlowMicros);
    }
    const int64_t end = clock_->NowMicros();
    stats_->latency.Record(end - start_);
    governor_->RecordHook(end - start_, end);
  }
  HookTimer(const HookTimer&) = delete;
  HookTimer& operator=(const HookTimer&) = delete;

 private:
  common::Clock* clock_;
  MonitorMetrics::HookStats* stats_;
  const bool active_;
  LoadGovernor* governor_;
  int64_t start_ = 0;
};

}  // namespace

MonitorEngine::MonitorEngine(engine::Database* db, Options options)
    : db_(db),
      options_(options),
      mailer_(options.mailer != nullptr ? options.mailer : &default_mailer_),
      launcher_(options.launcher != nullptr ? options.launcher
                                            : &default_launcher_),
      timers_(db->clock(),
              [this](const TimerRecord& timer) { HandleTimerAlarm(timer); }),
      rule_table_(std::make_shared<const RuleTable>()),
      engine_id_(NextEngineId()),
      trace_(options.trace_capacity),
      spans_(options.span_capacity),
      slow_traces_(options.slow_trace_k),
      governor_(options.governor) {
  detailed_timing_.store(options.detailed_timing, std::memory_order_relaxed);
  set_span_sampling(options.span_sample_rate);
  governor_.RegisterMetrics(&metrics_.registry);
  timers_.set_drift_histogram(&metrics_.timer_drift_micros);
  db_->set_monitor_hooks(this);
  if (options_.register_system_views) {
    views_ = std::make_unique<SystemViews>(this, db_);
  }
  if (options_.start_timer_thread) timers_.Start();
  if (!options_.metrics_export_path.empty() &&
      options_.metrics_export_interval_secs > 0) {
    exporter_thread_ = std::thread([this] { ExporterLoop(); });
  }
  if (options_.async_rule_eval) {
    event_queue_ = std::make_unique<EventQueue>(options_.event_queue_capacity);
    const size_t n = std::max<size_t>(1, options_.monitor_threads);
    workers_.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      workers_.emplace_back([this] { MonitorWorkerLoop(); });
    }
  }
}

MonitorEngine::~MonitorEngine() {
  if (!workers_.empty()) {
    // Stop the pipeline first so no worker touches registries or views mid
    // teardown. Shutdown wakes sleepers; workers drain the residue before
    // exiting, so every enqueued event is still evaluated.
    workers_stop_.store(true, std::memory_order_release);
    event_queue_->Shutdown();
    for (std::thread& worker : workers_) worker.join();
    workers_.clear();
  }
  if (exporter_thread_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(exporter_mutex_);
      exporter_stop_ = true;
    }
    exporter_cv_.notify_all();
    exporter_thread_.join();
  }
  timers_.Stop();
  db_->set_monitor_hooks(nullptr);
  {
    // Rules may outlive the engine (snapshots); stop them counting into it.
    std::lock_guard<std::mutex> lock(registry_mutex_);
    for (const auto& rule : rules_) rule->breaker.WatchState(nullptr);
  }
  if (views_ != nullptr) {
    views_.reset();
    // Cached plans may reference the just-dropped view tables.
    db_->plan_cache()->Clear();
  }
}

// ---------------------------------------------------------------------------
// LAT administration
// ---------------------------------------------------------------------------

Status MonitorEngine::DefineLat(LatSpec spec) {
  SQLCM_ASSIGN_OR_RETURN(auto created, Lat::Create(std::move(spec)));
  std::shared_ptr<Lat> lat = std::move(created);
  Lat* raw = lat.get();
  // Victims are materialized only while an enabled rule listens to
  // Lat.Evict.
  lat->set_evict_callback(
      [this, raw](Row evicted) { HandleEviction(raw, std::move(evicted)); },
      &has_rules_[static_cast<size_t>(EventKind::kLatEvict)]);
  const std::string key = ToLower(raw->name());
  std::lock_guard<std::mutex> lock(registry_mutex_);
  if (lats_.count(key) != 0) {
    return Status::AlreadyExists("LAT '" + raw->name() + "' already exists");
  }
  lats_.emplace(key, std::move(lat));
  return Status::OK();
}

Status MonitorEngine::DropLat(std::string_view name) {
  const std::string key = ToLower(name);
  std::shared_ptr<Lat> victim;
  {
    std::lock_guard<std::mutex> lock(registry_mutex_);
    auto it = lats_.find(key);
    if (it == lats_.end()) {
      return Status::NotFound("LAT '" + std::string(name) + "' not found");
    }
    for (const auto& rule : rules_) {
      if (std::find(rule->referenced_lats.begin(), rule->referenced_lats.end(),
                    it->second.get()) != rule->referenced_lats.end()) {
        return Status::InvalidArgument("LAT '" + std::string(name) +
                                       "' is referenced by rule '" +
                                       rule->name + "'");
      }
    }
    victim = std::move(it->second);
    lats_.erase(it);
  }
  // In-flight deferred batches may hold rule-table snapshots whose rules
  // predate a RemoveRule that released this LAT: drain them (outside the
  // registry lock) before the last reference dies.
  DrainEventQueue();
  return Status::OK();
}

Lat* MonitorEngine::FindLat(std::string_view name) const {
  const std::string key = ToLower(name);
  std::lock_guard<std::mutex> lock(registry_mutex_);
  auto it = lats_.find(key);
  return it == lats_.end() ? nullptr : it->second.get();
}

std::vector<std::string> MonitorEngine::LatNames() const {
  std::lock_guard<std::mutex> lock(registry_mutex_);
  std::vector<std::string> names;
  for (const auto& [_, lat] : lats_) names.push_back(lat->name());
  return names;
}

Status MonitorEngine::PersistLat(std::string_view lat_name,
                                 const std::string& table_name) {
  Lat* lat = FindLat(lat_name);
  if (lat == nullptr) {
    return Status::NotFound("LAT '" + std::string(lat_name) + "' not found");
  }
  std::vector<std::string> cols = lat->column_names();
  std::vector<ValueKind> kinds = lat->column_kinds();
  cols.push_back("persist_ts");
  kinds.push_back(ValueKind::kInt);
  SQLCM_ASSIGN_OR_RETURN(storage::Table * table,
                         EnsureTable(table_name, cols, kinds));
  const int64_t now = db_->clock()->NowMicros();
  return lat->PersistTo(table, now, now);
}

Status MonitorEngine::SeedLat(std::string_view lat_name,
                              const std::string& table_name) {
  Lat* lat = FindLat(lat_name);
  if (lat == nullptr) {
    return Status::NotFound("LAT '" + std::string(lat_name) + "' not found");
  }
  storage::Table* table = db_->catalog()->GetTable(table_name);
  if (table == nullptr) {
    return Status::NotFound("table '" + table_name + "' not found");
  }
  return lat->SeedFrom(*table, db_->clock()->NowMicros());
}

namespace {

/// The file-boundary staging table of a LAT checkpoint: the state record
/// columns (Lat::StateColumnNames) plus a trailing persist_ts.
Result<std::unique_ptr<storage::Table>> MakeLatStateStagingTable(
    const Lat& lat) {
  std::vector<std::string> cols = lat.StateColumnNames();
  std::vector<ValueKind> kinds = lat.StateColumnKinds();
  cols.push_back("persist_ts");
  kinds.push_back(ValueKind::kInt);
  std::vector<catalog::Column> columns;
  columns.reserve(cols.size());
  for (size_t i = 0; i < cols.size(); ++i) {
    columns.push_back({cols[i], ColumnTypeForKind(kinds[i])});
  }
  SQLCM_ASSIGN_OR_RETURN(
      auto schema, catalog::TableSchema::Create(lat.name() + "_checkpoint",
                                                std::move(columns), {}));
  return std::make_unique<storage::Table>(0, std::move(schema));
}

/// Snapshot version of a LAT's state records: sketch-bearing records carry
/// extra `#sketch` cells, so they are tagged v3 — a reader without sketch
/// support then rejects the file cleanly instead of mis-indexing cells.
int StateSnapshotVersion(const Lat& lat) {
  return lat.HasSketchAggs() ? storage::kSnapshotVersionV3
                             : storage::kSnapshotVersionV2;
}

}  // namespace

Status MonitorEngine::CheckpointLat(std::string_view lat_name,
                                    const std::string& file_path) {
  Lat* lat = FindLat(lat_name);
  if (lat == nullptr) {
    return Status::NotFound("LAT '" + std::string(lat_name) + "' not found");
  }
  SQLCM_ASSIGN_OR_RETURN(auto staging, MakeLatStateStagingTable(*lat));
  const int64_t now = db_->clock()->NowMicros();
  // Checkpoint I/O span: standalone (trace_id 0) — checkpoints run from
  // operator/maintenance threads, outside any event dispatch.
  const bool spans_on = spans_.enabled();
  const int64_t cp_start = spans_on ? SteadyNanos() : 0;
  for (Row& record : lat->ExportState()) {
    record.push_back(Value::Int(now));  // persist_ts
    SQLCM_RETURN_IF_ERROR(staging->Insert(std::move(record)).status());
  }
  int retries = 0;
  Status status = storage::WriteTableCsvWithRetry(
      *staging, file_path, StateSnapshotVersion(*lat),
      options_.persist_attempts, options_.persist_backoff_micros,
      db_->clock(), &retries);
  if (spans_on) {
    const int64_t dur = SteadyNanos() - cp_start;
    obs::Span span;
    span.span_id = NewSpanId();
    span.ref = common::Fnv1a64(lat->lower_name());
    span.start_nanos = cp_start;
    span.duration_nanos = dur;
    span.kind = obs::SpanKind::kCheckpoint;
    spans_.Record(span);
    metrics_.profile_checkpoint_spans.Inc();
    metrics_.profile_checkpoint_nanos.Inc(static_cast<uint64_t>(dur));
  }
  if (retries > 0) {
    metrics_.persist_retries.Inc(static_cast<uint64_t>(retries));
  }
  if (!status.ok()) RecordError(status);
  return status;
}

Status MonitorEngine::RestoreLat(std::string_view lat_name,
                                 const std::string& file_path) {
  Lat* lat = FindLat(lat_name);
  if (lat == nullptr) {
    return Status::NotFound("LAT '" + std::string(lat_name) + "' not found");
  }
  // Only a snapshot of the LAT's own state version loads; any other file
  // (another version, no snapshot header) is rejected and `.bak` is tried.
  SQLCM_ASSIGN_OR_RETURN(auto staging, MakeLatStateStagingTable(*lat));
  storage::SnapshotLoadInfo info;
  Status status = storage::LoadTableCsv(
      staging.get(), file_path, StateSnapshotVersion(*lat), nullptr, &info);
  if (status.ok()) {
    if (info.used_fallback) {
      metrics_.persist_fallbacks.Inc();
      RecordError(Status::IOError("restored LAT '" + std::string(lat_name) +
                                  "' from fallback snapshot '" + file_path +
                                  ".bak'; primary rejected: " +
                                  info.primary_error));
    }
    std::vector<Row> keys, records;
    staging->ScanBatch(std::nullopt, staging->row_count(), &keys, &records);
    for (Row& record : records) record.pop_back();  // persist_ts
    status = lat->ImportState(records, db_->clock()->NowMicros());
  }
  if (!status.ok()) RecordError(status);
  return status;
}

// ---------------------------------------------------------------------------
// Rule administration
// ---------------------------------------------------------------------------

Result<uint64_t> MonitorEngine::AddRule(const RuleSpec& spec) {
  // Compilation resolves LATs/timers through `this` without holding the
  // registry mutex (FindLat/IsTimerName take it internally).
  SQLCM_ASSIGN_OR_RETURN(auto compiled, RuleCompiler::Compile(spec, *this));
  std::shared_ptr<CompiledRule> rule = std::move(compiled);
  rule->breaker.Configure(options_.breaker);
  // Per-rule rate-limit override: >0 replaces the engine-wide cap, <0
  // disables limiting for this rule, 0 keeps the engine default.
  ActionRateLimiter::Options rate_limit = options_.action_rate_limit;
  if (spec.rate_limit_max_actions < 0) {
    rate_limit.max_actions = 0;
  } else if (spec.rate_limit_max_actions > 0) {
    rate_limit.max_actions = spec.rate_limit_max_actions;
    if (spec.rate_limit_window_micros > 0) {
      rate_limit.window_micros = spec.rate_limit_window_micros;
    }
  }
  rule->rate_limiter.Configure(rate_limit);
  rule->breaker.WatchState(&breakers_not_closed_);
  rule->sampled_out_baseline =
      metrics_.events_sampled_out_by_kind[static_cast<size_t>(rule->event.kind)]
          .value();
  std::lock_guard<std::mutex> lock(registry_mutex_);
  rule->id = next_rule_id_++;
  rules_.push_back(rule);
  RebuildRuleTableLocked();
  return rule->id;
}

Status MonitorEngine::RemoveRule(uint64_t rule_id) {
  std::lock_guard<std::mutex> lock(registry_mutex_);
  for (size_t i = 0; i < rules_.size(); ++i) {
    if (rules_[i]->id == rule_id) {
      rules_[i]->breaker.WatchState(nullptr);
      rules_.erase(rules_.begin() + static_cast<long>(i));
      RebuildRuleTableLocked();
      return Status::OK();
    }
  }
  return Status::NotFound("rule #" + std::to_string(rule_id) + " not found");
}

Status MonitorEngine::SetRuleEnabled(uint64_t rule_id, bool enabled) {
  std::lock_guard<std::mutex> lock(registry_mutex_);
  for (const auto& rule : rules_) {
    if (rule->id == rule_id) {
      rule->enabled = enabled;
      RebuildRuleTableLocked();
      return Status::OK();
    }
  }
  return Status::NotFound("rule #" + std::to_string(rule_id) + " not found");
}

size_t MonitorEngine::rule_count() const {
  std::lock_guard<std::mutex> lock(registry_mutex_);
  return rules_.size();
}

Status MonitorEngine::ReinstateRule(uint64_t rule_id) {
  std::lock_guard<std::mutex> lock(registry_mutex_);
  for (const auto& rule : rules_) {
    if (rule->id == rule_id) {
      rule->breaker.Reinstate();
      return Status::OK();
    }
  }
  return Status::NotFound("rule #" + std::to_string(rule_id) + " not found");
}

void MonitorEngine::RebuildRuleTableLocked() {
  auto table = std::make_shared<RuleTable>();
  bool any_enabled = false;
  bool track_txns = false;
  bool track_blocking = false;
  bool track_registry = false;
  bool track_concurrency = false;
  for (const auto& rule : rules_) {
    if (!rule->enabled) continue;
    any_enabled = true;
    // With the async pipeline off every rule dispatches inline, preserving
    // the exact pre-pipeline activation order across the whole event.
    if (options_.async_rule_eval && rule->deferrable) {
      table->deferred_by_event[static_cast<size_t>(rule->event.kind)]
          .push_back(rule);
    } else {
      table->by_event[static_cast<size_t>(rule->event.kind)].push_back(rule);
    }
    if (!rule->deferrable) {
      table->inline_by_event[static_cast<size_t>(rule->event.kind)]
          .push_back(rule);
    }
    switch (rule->event.kind) {
      case EventKind::kTransactionBegin:
      case EventKind::kTransactionCommit:
      case EventKind::kTransactionRollback:
        track_txns = true;
        break;
      case EventKind::kQueryBlocked:
      case EventKind::kQueryBlockReleased:
        track_blocking = true;
        break;
      default:
        break;
    }
    for (MonitoredClass cls : rule->iterate_classes) {
      if (cls == MonitoredClass::kTransaction) track_txns = true;
      if (cls == MonitoredClass::kBlocker || cls == MonitoredClass::kBlocked) {
        track_blocking = true;
      }
      if (cls == MonitoredClass::kQuery) track_registry = true;
    }
    if (rule->needs_blocking_probes) track_blocking = true;
    if (rule->needs_concurrency_probe) track_concurrency = true;
  }
  if (options_.predicate_index) {
    for (size_t kind = 0; kind < kNumEventKinds; ++kind) {
      BuildPredicateIndex(table->by_event[kind], &predicate_stats_,
                          &table->sync_index[kind]);
      BuildPredicateIndex(table->deferred_by_event[kind], &predicate_stats_,
                          &table->deferred_index[kind]);
    }
  }
  for (size_t kind = 0; kind < kNumEventKinds; ++kind) {
    const RuleList& rules = table->deferred_by_event[kind];
    RuleTable::DeferredPlan& plan = table->deferred_plans[kind];
    plan.insert_only.assign(rules.size(), 1);
    for (uint32_t pos = 0; pos < rules.size(); ++pos) {
      for (const CompiledAction& action : rules[pos]->actions) {
        if (action.kind == ActionKind::kReset) plan.has_reset = true;
        if (action.kind != ActionKind::kInsert) {
          plan.insert_only[pos] = 0;
          continue;
        }
        auto feed = std::find_if(
            plan.feeds.begin(), plan.feeds.end(),
            [&action](const auto& f) { return f.lat == action.lat; });
        if (feed == plan.feeds.end()) {
          feed = plan.feeds.insert(plan.feeds.end(), {action.lat, {}});
        }
        if (!feed->feeders.empty() && feed->feeders.back().first == pos) {
          ++feed->feeders.back().second;
        } else {
          feed->feeders.emplace_back(pos, 1);
        }
      }
    }
  }
  for (size_t kind = 0; kind < kNumEventKinds; ++kind) {
    has_rules_[kind].store(!table->by_event[kind].empty() ||
                               !table->deferred_by_event[kind].empty(),
                           std::memory_order_release);
  }
  PublishRuleTable(std::move(table));
  track_transactions_.store(track_txns, std::memory_order_release);
  // Blocking attribution and the concurrency probe both need the global
  // registries.
  track_registry_.store(track_registry || track_blocking || track_concurrency,
                        std::memory_order_release);
  track_concurrency_.store(track_concurrency, std::memory_order_release);
  track_blocking_.store(track_blocking, std::memory_order_release);
  monitoring_active_.store(any_enabled, std::memory_order_release);
}

void MonitorEngine::PublishRuleTable(std::shared_ptr<const RuleTable> table) {
  std::lock_guard<std::mutex> lock(rule_table_mutex_);
  rule_table_.swap(table);
  rule_table_version_.fetch_add(1, std::memory_order_release);
}  // the replaced table is released here, outside the lock

std::shared_ptr<const MonitorEngine::RuleTable> MonitorEngine::LoadRuleTable()
    const {
  std::lock_guard<std::mutex> lock(rule_table_mutex_);
  return rule_table_;
}

const MonitorEngine::RuleTable& MonitorEngine::ThreadRuleTable(
    std::shared_ptr<const RuleTable>* pin) {
  RuleTableSnapshot& snapshot = ThreadRuleTableSnapshot();
  const bool mine = snapshot.engine_id == engine_id_;
  if (RuleDepth() > 0) {
    // Nested dispatch: outer frames on this thread may be iterating the
    // snapshot, so it is not replaced until the outermost event ends.
    if (mine) return *static_cast<const RuleTable*>(snapshot.table.get());
    *pin = LoadRuleTable();
    return **pin;
  }
  // Versions start at 1, so a snapshot of another engine (version reset to
  // 0) always refreshes.
  if (!mine) {
    snapshot.engine_id = engine_id_;
    snapshot.version = 0;
  }
  if (snapshot.version !=
      rule_table_version_.load(std::memory_order_acquire)) {
    // Declared before the lock so the old table is released after it.
    std::shared_ptr<const void> old = std::move(snapshot.table);
    std::lock_guard<std::mutex> lock(rule_table_mutex_);
    snapshot.table = rule_table_;
    snapshot.version = rule_table_version_.load(std::memory_order_relaxed);
  }
  return *static_cast<const RuleTable*>(snapshot.table.get());
}

std::vector<MonitorEngine::PredicateStatRow>
MonitorEngine::SnapshotPredicateStats() const {
  const std::shared_ptr<const RuleTable> table = LoadRuleTable();
  std::vector<PredicateStatRow> out;
  for (size_t kind = 0; kind < kNumEventKinds; ++kind) {
    const struct {
      const PredicateIndex* index;
      const char* lane;
    } lanes[] = {{&table->sync_index[kind], "sync"},
                 {&table->deferred_index[kind], "deferred"}};
    for (const auto& lane : lanes) {
      for (const IndexedPredicate& pred : lane.index->preds) {
        PredicateStatRow row;
        row.event = EventKindName(static_cast<EventKind>(kind));
        row.lane = lane.lane;
        row.text = pred.conjunct->text;
        row.hash = pred.conjunct->hash;
        row.subscribers = pred.subscribers;
        row.evals = pred.stats->evals.value();
        row.passes = pred.stats->passes.value();
        out.push_back(std::move(row));
      }
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Timers
// ---------------------------------------------------------------------------

Status MonitorEngine::CreateTimer(const std::string& name) {
  return timers_.CreateTimer(name);
}

Status MonitorEngine::SetTimer(const std::string& name,
                               double interval_seconds, int64_t repeats) {
  return timers_.Set(name, static_cast<int64_t>(interval_seconds * 1e6),
                     repeats);
}

bool MonitorEngine::IsTimerName(std::string_view name) const {
  return timers_.IsTimerName(name);
}

// ---------------------------------------------------------------------------
// Introspection
// ---------------------------------------------------------------------------

size_t MonitorEngine::active_query_count() const {
  std::lock_guard<std::mutex> lock(objects_mutex_);
  return active_queries_.size();
}

std::vector<std::shared_ptr<const CompiledRule>> MonitorEngine::SnapshotRules()
    const {
  std::lock_guard<std::mutex> lock(registry_mutex_);
  return std::vector<std::shared_ptr<const CompiledRule>>(rules_.begin(),
                                                          rules_.end());
}

std::vector<std::shared_ptr<const Lat>> MonitorEngine::SnapshotLats() const {
  std::lock_guard<std::mutex> lock(registry_mutex_);
  std::vector<std::shared_ptr<const Lat>> out;
  out.reserve(lats_.size());
  for (const auto& [_, lat] : lats_) out.push_back(lat);
  return out;
}

void MonitorEngine::RecordError(const Status& status) {
  metrics_.errors_total.Inc();
  errors_.Record(db_->clock()->NowMicros(), status.ToString());
}

// ---------------------------------------------------------------------------
// Engine hooks
// ---------------------------------------------------------------------------

void MonitorEngine::OnStatementCompiled(engine::CachedPlan* plan) {
  // Signatures are computed regardless of monitoring state (they are cached
  // with the plan for later rule use, §4.2), so this hook bills its
  // already-measured signature cost instead of re-reading the clock.
  metrics_.hooks[static_cast<size_t>(MonitorHook::kStatementCompiled)]
      .calls.Inc();
  // Paper §4.2: signatures are computed during optimization and cached
  // with the plan. signature_micros is what experiment E1 measures against
  // plan->optimize_micros.
  const int64_t start = db_->clock()->NowMicros();
  Signature logical = LogicalQuerySignature(*plan->logical);
  Signature physical = PhysicalPlanSignature(*plan->physical);
  plan->signature_micros = db_->clock()->NowMicros() - start;
  plan->logical_signature = engine::SharedText::Intern(std::move(logical.text));
  plan->physical_signature =
      engine::SharedText::Intern(std::move(physical.text));
  plan->logical_signature_hash = logical.hash;
  plan->physical_signature_hash = physical.hash;
  plan->signatures_computed = true;
  metrics_.signature_micros.Record(plan->signature_micros);
  metrics_.hooks[static_cast<size_t>(MonitorHook::kStatementCompiled)]
      .latency.Record(plan->signature_micros);
}

void MonitorEngine::OnQueryStart(const engine::QueryInfo& info) {
  const bool active = MonitoringActive();
  HookTimer timer(
      db_->clock(),
      &metrics_.hooks[static_cast<size_t>(MonitorHook::kQueryStart)], active, &governor_);
  if (!active) {
    metrics_.fast_path_calls.Inc();
    return;
  }
  auto rec = std::make_shared<QueryRecord>();
  rec->id = info.query_id;
  if (info.plan_ref != nullptr && info.plan_ref->signatures_computed) {
    // Pin the plan-cache entry: text and signatures are read in place.
    rec->plan = info.plan_ref;
    rec->logical_hash = info.plan_ref->logical_signature_hash;
    rec->physical_hash = info.plan_ref->physical_signature_hash;
    rec->number_of_instances =
        static_cast<int64_t>(
            info.plan_ref->execution_count.load(std::memory_order_relaxed)) +
        1;
  } else {
    if (info.text != nullptr) rec->text = *info.text;
    if (info.override_logical_signature != nullptr) {
      rec->logical_signature = *info.override_logical_signature;
      rec->logical_hash = HashSignature(rec->logical_signature);
    }
    if (info.override_physical_signature != nullptr) {
      rec->physical_signature = *info.override_physical_signature;
      rec->physical_hash = HashSignature(rec->physical_signature);
    }
    rec->number_of_instances = 1;
  }
  rec->start_micros = info.start_micros;
  rec->estimated_cost = info.estimated_cost;
  rec->query_type = info.statement_type;
  rec->session_id = info.session_id;
  rec->txn_id = info.txn_id;
  if (info.user != nullptr) rec->user = *info.user;
  if (info.application != nullptr) rec->application = *info.application;
  rec->txn = info.txn;

  ThreadQueryStack().push_back(rec);
  if (track_registry_.load(std::memory_order_acquire)) {
    std::lock_guard<std::mutex> lock(objects_mutex_);
    if (track_concurrency_.load(std::memory_order_acquire)) {
      for (const auto& [_, other] : active_queries_) {
        if (other->user == rec->user) ++rec->concurrent_user_queries;
      }
    }
    active_queries_[rec->id] = rec;
    txn_query_stack_[rec->txn_id].push_back(rec);
  }
  EvalContext& ctx = ThreadEvalScratch();
  ctx.Bind(MonitoredClass::kQuery, rec.get());
  FireEvent(EventKind::kQueryStart, "", &ctx);
}

void MonitorEngine::FinishQuery(const engine::QueryInfo& info,
                                EventKind terminal_event) {
  if (!MonitoringActive()) return;
  // The record travels on the thread-local stack from the Start hook
  // (statements nest through EXEC, hence a search from the top).
  std::shared_ptr<QueryRecord> rec;
  auto& tl_stack = ThreadQueryStack();
  for (size_t i = tl_stack.size(); i-- > 0;) {
    if (tl_stack[i]->id == info.query_id) {
      rec = std::move(tl_stack[i]);
      tl_stack.erase(tl_stack.begin() + static_cast<long>(i));
      break;
    }
  }
  if (rec == nullptr) rec = FindActiveQueryRecord(info.query_id);
  if (rec == nullptr) return;  // monitoring enabled mid-query
  rec->duration_secs = static_cast<double>(info.duration_micros) / 1e6;

  if (terminal_event == EventKind::kQueryCommit &&
      track_transactions_.load(std::memory_order_acquire)) {
    std::lock_guard<std::mutex> lock(objects_mutex_);
    auto it = active_txns_.find(rec->txn_id);
    if (it != active_txns_.end()) {
      TransactionRecord& txn_rec = *it->second;
      txn_rec.logical_seq.push_back(rec->logical_hash);
      txn_rec.physical_seq.push_back(rec->physical_hash);
      ++txn_rec.num_queries;
      if (txn_rec.user.empty()) txn_rec.user = rec->user;
      if (txn_rec.application.empty()) txn_rec.application = rec->application;
    }
  }

  rec->txn = nullptr;  // the Transaction pointer must not outlive the query
  EvalContext& ctx = ThreadEvalScratch();
  ctx.Bind(MonitoredClass::kQuery, rec.get());
  FireEvent(terminal_event, "", &ctx, rec);

  if (!track_registry_.load(std::memory_order_acquire)) return;
  std::lock_guard<std::mutex> lock(objects_mutex_);
  active_queries_.erase(rec->id);
  auto stack_it = txn_query_stack_.find(rec->txn_id);
  if (stack_it != txn_query_stack_.end()) {
    auto& stack = stack_it->second;
    for (size_t i = stack.size(); i-- > 0;) {
      if (stack[i] == rec) {
        stack.erase(stack.begin() + static_cast<long>(i));
        break;
      }
    }
  }
  if (track_blocking_.load(std::memory_order_acquire)) {
    // The record stays reachable for blocker attribution: a transaction
    // can hold locks acquired by a finished statement.
    const txn::TxnId txn_id = rec->txn_id;
    txn_last_query_[txn_id] = std::move(rec);
  }
}

void MonitorEngine::OnQueryCommit(const engine::QueryInfo& info) {
  const bool active = MonitoringActive();
  HookTimer timer(
      db_->clock(),
      &metrics_.hooks[static_cast<size_t>(MonitorHook::kQueryCommit)], active, &governor_);
  if (!active) {
    metrics_.fast_path_calls.Inc();
    return;
  }
  FinishQuery(info, EventKind::kQueryCommit);
}
void MonitorEngine::OnQueryCancel(const engine::QueryInfo& info) {
  const bool active = MonitoringActive();
  HookTimer timer(
      db_->clock(),
      &metrics_.hooks[static_cast<size_t>(MonitorHook::kQueryCancel)], active, &governor_);
  if (!active) {
    metrics_.fast_path_calls.Inc();
    return;
  }
  FinishQuery(info, EventKind::kQueryCancel);
}
void MonitorEngine::OnQueryRollback(const engine::QueryInfo& info) {
  const bool active = MonitoringActive();
  HookTimer timer(
      db_->clock(),
      &metrics_.hooks[static_cast<size_t>(MonitorHook::kQueryRollback)],
      active, &governor_);
  if (!active) {
    metrics_.fast_path_calls.Inc();
    return;
  }
  FinishQuery(info, EventKind::kQueryRollback);
}

void MonitorEngine::OnTransactionBegin(uint64_t session_id,
                                       txn::TxnId txn_id) {
  const bool active = MonitoringActive();
  HookTimer timer(db_->clock(),
                  &metrics_.hooks[static_cast<size_t>(MonitorHook::kTxnBegin)],
                  active, &governor_);
  if (!active) {
    metrics_.fast_path_calls.Inc();
    return;
  }
  if (!track_transactions_.load(std::memory_order_acquire)) return;
  auto rec = std::make_shared<TransactionRecord>();
  rec->id = txn_id;
  rec->session_id = session_id;
  rec->start_micros = db_->clock()->NowMicros();
  {
    std::lock_guard<std::mutex> lock(objects_mutex_);
    active_txns_[txn_id] = rec;
  }
  EvalContext& ctx = ThreadEvalScratch();
  ctx.Bind(MonitoredClass::kTransaction, rec.get());
  FireEvent(EventKind::kTransactionBegin, "", &ctx);
}

namespace {

void FinalizeTxnRecord(TransactionRecord* rec, int64_t duration_micros) {
  rec->duration_secs = static_cast<double>(duration_micros) / 1e6;
  Signature logical = TransactionSignature(rec->logical_seq);
  Signature physical = TransactionSignature(rec->physical_seq);
  rec->logical_signature = std::move(logical.text);
  rec->physical_signature = std::move(physical.text);
}

}  // namespace

void MonitorEngine::OnTransactionCommit(uint64_t session_id,
                                        txn::TxnId txn_id,
                                        int64_t duration_micros) {
  (void)session_id;
  const bool active = MonitoringActive();
  HookTimer timer(db_->clock(),
                  &metrics_.hooks[static_cast<size_t>(MonitorHook::kTxnCommit)],
                  active, &governor_);
  if (!active) {
    metrics_.fast_path_calls.Inc();
    return;
  }
  std::shared_ptr<TransactionRecord> rec;
  {
    std::lock_guard<std::mutex> lock(objects_mutex_);
    auto it = active_txns_.find(txn_id);
    if (it != active_txns_.end()) {
      rec = it->second;
      active_txns_.erase(it);
    }
    txn_query_stack_.erase(txn_id);
    txn_last_query_.erase(txn_id);
    blocker_at_block_time_.erase(txn_id);
  }
  if (rec == nullptr) return;
  FinalizeTxnRecord(rec.get(), duration_micros);
  EvalContext& ctx = ThreadEvalScratch();
  ctx.Bind(MonitoredClass::kTransaction, rec.get());
  FireEvent(EventKind::kTransactionCommit, "", &ctx, nullptr, rec);
}

void MonitorEngine::OnTransactionRollback(uint64_t session_id,
                                          txn::TxnId txn_id,
                                          int64_t duration_micros) {
  (void)session_id;
  const bool active = MonitoringActive();
  HookTimer timer(
      db_->clock(),
      &metrics_.hooks[static_cast<size_t>(MonitorHook::kTxnRollback)], active, &governor_);
  if (!active) {
    metrics_.fast_path_calls.Inc();
    return;
  }
  std::shared_ptr<TransactionRecord> rec;
  {
    std::lock_guard<std::mutex> lock(objects_mutex_);
    auto it = active_txns_.find(txn_id);
    if (it != active_txns_.end()) {
      rec = it->second;
      active_txns_.erase(it);
    }
    txn_query_stack_.erase(txn_id);
    txn_last_query_.erase(txn_id);
  }
  if (rec == nullptr) return;
  FinalizeTxnRecord(rec.get(), duration_micros);
  EvalContext& ctx = ThreadEvalScratch();
  ctx.Bind(MonitoredClass::kTransaction, rec.get());
  FireEvent(EventKind::kTransactionRollback, "", &ctx, nullptr, rec);
}

// ---------------------------------------------------------------------------
// Lock-conflict instrumentation (paper §6.1)
// ---------------------------------------------------------------------------

std::shared_ptr<QueryRecord> MonitorEngine::FindActiveQueryRecord(
    uint64_t query_id) const {
  std::lock_guard<std::mutex> lock(objects_mutex_);
  auto it = active_queries_.find(query_id);
  return it == active_queries_.end() ? nullptr : it->second;
}

std::shared_ptr<QueryRecord> MonitorEngine::CurrentQueryOfTxn(
    txn::TxnId txn_id) const {
  std::lock_guard<std::mutex> lock(objects_mutex_);
  auto it = txn_query_stack_.find(txn_id);
  if (it != txn_query_stack_.end() && !it->second.empty()) {
    return it->second.back();
  }
  auto last = txn_last_query_.find(txn_id);
  return last == txn_last_query_.end() ? nullptr : last->second;
}

void MonitorEngine::OnBlocked(txn::TxnId blocked, txn::TxnId blocker,
                              const txn::ResourceId& resource) {
  const bool active = MonitoringActive();
  HookTimer timer(db_->clock(),
                  &metrics_.hooks[static_cast<size_t>(MonitorHook::kBlocked)],
                  active, &governor_);
  if (!active) {
    metrics_.fast_path_calls.Inc();
    return;
  }
  if (!track_blocking_.load(std::memory_order_acquire)) return;
  std::shared_ptr<QueryRecord> blocked_rec = CurrentQueryOfTxn(blocked);
  if (blocked_rec == nullptr) return;
  ++blocked_rec->times_blocked;
  // A blocker whose statement has already finished still blocks the query
  // (paper §3 defines the event for the blocked query): the event is
  // dispatched with every Blocker probe NULL.
  std::shared_ptr<QueryRecord> blocker_rec =
      blocker != 0 ? CurrentQueryOfTxn(blocker) : nullptr;
  if (blocker_rec != nullptr) {
    ++blocker_rec->queries_blocked;
    std::lock_guard<std::mutex> lock(objects_mutex_);
    blocker_at_block_time_[blocked] = blocker_rec;
  }

  BlockEventView blocker_view{blocker_rec.get(), 0, resource.ToString(),
                              blocker};
  BlockEventView blocked_view{blocked_rec.get(), 0, blocker_view.resource,
                              blocked};
  EvalContext& ctx = ThreadEvalScratch();
  ctx.Bind(MonitoredClass::kBlocker, &blocker_view);
  ctx.Bind(MonitoredClass::kBlocked, &blocked_view);
  FireEvent(EventKind::kQueryBlocked, "", &ctx);
}

void MonitorEngine::OnBlockReleased(txn::TxnId blocked, txn::TxnId blocker,
                                    const txn::ResourceId& resource,
                                    int64_t wait_micros) {
  const bool active = MonitoringActive();
  HookTimer timer(
      db_->clock(),
      &metrics_.hooks[static_cast<size_t>(MonitorHook::kBlockReleased)],
      active, &governor_);
  if (!active) {
    metrics_.fast_path_calls.Inc();
    return;
  }
  if (!track_blocking_.load(std::memory_order_acquire)) return;
  std::shared_ptr<QueryRecord> blocked_rec = CurrentQueryOfTxn(blocked);
  if (blocked_rec == nullptr) return;
  const double wait_secs = static_cast<double>(wait_micros) / 1e6;
  blocked_rec->time_blocked_secs += wait_secs;
  // Prefer the blocker captured at block time (its transaction may have
  // finished since); fall back to a live lookup.
  std::shared_ptr<QueryRecord> blocker_rec;
  {
    std::lock_guard<std::mutex> lock(objects_mutex_);
    auto it = blocker_at_block_time_.find(blocked);
    if (it != blocker_at_block_time_.end()) {
      blocker_rec = std::move(it->second);
      blocker_at_block_time_.erase(it);
    }
  }
  if (blocker_rec == nullptr && blocker != 0) {
    blocker_rec = CurrentQueryOfTxn(blocker);
  }
  if (blocker_rec == nullptr) return;

  BlockEventView blocker_view{blocker_rec.get(), wait_secs,
                              resource.ToString(), blocker_rec->txn_id};
  BlockEventView blocked_view{blocked_rec.get(), wait_secs,
                              blocker_view.resource, blocked};
  EvalContext& ctx = ThreadEvalScratch();
  ctx.Bind(MonitoredClass::kBlocker, &blocker_view);
  ctx.Bind(MonitoredClass::kBlocked, &blocked_view);
  FireEvent(EventKind::kQueryBlockReleased, "", &ctx);
}

// ---------------------------------------------------------------------------
// Event dispatch
// ---------------------------------------------------------------------------

void MonitorEngine::FireEvent(EventKind kind, const std::string& qualifier,
                              EvalContext* base_ctx,
                              std::shared_ptr<QueryRecord> query_keepalive,
                              std::shared_ptr<TransactionRecord> txn_keepalive) {
  const size_t k = static_cast<size_t>(kind);
  if (!has_rules_[k].load(std::memory_order_acquire)) return;
  // The thread's own snapshot of the dispatch table: no mutex and no
  // shared write unless a rule DDL moved the version.
  std::shared_ptr<const RuleTable> pin;
  const RuleTable& table = ThreadRuleTable(&pin);
  const RuleList* rules = &table.by_event[k];
  // Deferral needs a keepalive carrying the bound record's ownership; only
  // terminal events (which always supply one) have deferrable rules.
  bool defer =
      event_queue_ != nullptr && !table.deferred_by_event[k].empty() &&
      (query_keepalive != nullptr || txn_keepalive != nullptr);
  if (rules->empty() && !defer) return;
  const uint64_t seq = event_seq_.fetch_add(1, std::memory_order_relaxed);
  const PredicateIndex* index =
      options_.predicate_index && table.sync_index[k].any_indexed
          ? &table.sync_index[k]
          : nullptr;
  // Overload sampling counts only events some deferrable rule listens to,
  // each kind on its own sequence, so every deferrable rule sees exactly 1
  // in 2^sample_shift events of its kind. Inline rules (Cancel, audit
  // Persist, ...) still see a sampled-out event, dispatched unindexed.
  if (governor_.sample_events() &&
      (defer || table.inline_by_event[k].size() != rules->size()) &&
      !governor_.AdmitEvent(
          sample_seq_[k].fetch_add(1, std::memory_order_relaxed))) {
    metrics_.events_sampled_out.Inc();
    metrics_.events_sampled_out_by_kind[k].Inc();
    if (defer) metrics_.queue_shed.Inc();
    defer = false;
    rules = &table.inline_by_event[k];
    index = nullptr;
    if (rules->empty()) return;
  } else {
    metrics_.events_processed.Inc();
  }

  // One clock read per event; rules reuse it (hot path, Figure 2).
  base_ctx->now_micros = db_->clock()->NowMicros();
  // Profiling is decided once per event, here at the hook, for both lanes.
  const bool sampled = spans_.enabled() && SampleTrace(seq);

  if (defer) {
    // Hand the deferrable rules to the worker pool: the hook's remaining
    // cost for them is this enqueue, regardless of how many are registered.
    DeferredEvent ev;
    ev.kind = kind;
    ev.seq = seq;
    ev.now_micros = base_ctx->now_micros;
    ev.enqueue_nanos = SteadyNanos();
    ev.sampled = sampled;
    ev.query = std::move(query_keepalive);
    ev.txn = std::move(txn_keepalive);
    EnqueueDeferred(std::move(ev));
  }

  if (!rules->empty()) {
    // The sync lane's rules decide the event as a run of one.
    DeferredEvent event;
    event.kind = kind;
    event.seq = seq;
    event.now_micros = base_ctx->now_micros;
    event.sampled = sampled;
    DispatchRun(&event, base_ctx, 1, qualifier, *rules, index, /*plan=*/nullptr,
                spans_.enabled() ? SteadyNanos() : 0);
  }
}

MonitorEngine::EventSpan MonitorEngine::OpenEventSpan(
    EventKind kind, const std::string& qualifier, uint64_t seq, bool sampled,
    int64_t start_nanos, int64_t enqueue_nanos) {
  EventSpan span;
  if (!spans_.enabled()) {
    // Spans were disabled mid-trace: drop the stale frame so the next
    // enablement starts a fresh trace.
    TraceFrame& stale = CurrentTraceFrame();
    if (stale.active && stale.engine == this) {
      stale.active = false;
      stale.spans.clear();
    }
    return span;
  }
  TraceFrame* frame = &CurrentTraceFrame();
  span.frame = frame;
  if (!frame->active || frame->engine != this) {
    frame->engine = this;
    frame->active = true;
    span.root = true;
    frame->trace_id = seq + 1;  // 0 means "no trace" in span payloads
    frame->sampled = sampled;
    frame->parent_span = 0;
    frame->depth = 0;
    frame->total_nanos = 0;
    frame->spans.clear();
    frame->overflowed = false;
  }
  span.id = NewSpanId();
  span.saved_parent = frame->parent_span;
  span.depth = frame->depth;
  frame->parent_span = span.id;
  if (frame->depth < 255) ++frame->depth;
  frame->chain_ns = start_nanos;
  if (enqueue_nanos != 0) {
    // Deferred lane: a queue_wait child span carries the enqueue->drain
    // latency so sqlcm_profile attributes deferred work.
    obs::Span wait;
    wait.trace_id = frame->trace_id;
    wait.span_id = NewSpanId();
    wait.parent_id = span.id;
    wait.ref = common::Fnv1a64(qualifier);
    wait.start_nanos = enqueue_nanos;
    wait.duration_nanos = start_nanos - enqueue_nanos;
    wait.kind = obs::SpanKind::kQueueWait;
    wait.detail = static_cast<uint8_t>(kind);
    wait.depth = frame->depth;
    EmitSpan(frame, wait);
    if (frame->sampled) {
      metrics_.profile_queue_spans.Inc();
      metrics_.profile_queue_nanos.Inc(
          static_cast<uint64_t>(wait.duration_nanos));
    }
  }
  return span;
}

void MonitorEngine::CloseEventSpan(const EventSpan& span, EventKind kind,
                                   const std::string& qualifier,
                                   int64_t start_nanos, int64_t end) {
  TraceFrame* frame = span.frame;
  obs::Span event;
  event.trace_id = frame->trace_id;
  event.span_id = span.id;
  event.parent_id = span.saved_parent;
  event.ref = common::Fnv1a64(qualifier);
  event.start_nanos = start_nanos;
  event.duration_nanos = end - start_nanos;
  event.kind = obs::SpanKind::kEvent;
  event.detail = static_cast<uint8_t>(kind);
  event.depth = span.depth;
  EmitSpan(frame, event);
  frame->total_nanos += event.duration_nanos;
  if (frame->sampled) {
    metrics_.profile_events.Inc();
    metrics_.profile_dispatch_nanos.Inc(
        static_cast<uint64_t>(event.duration_nanos));
  }
  frame->parent_span = span.saved_parent;
  frame->depth = span.depth;
}

void MonitorEngine::FinishTrace(const EventSpan& span) {
  if (!span.root) return;
  // Root finalization: the whole cascade (including deferred events) has
  // dispatched; offer the assembled trace as a slow-event exemplar.
  TraceFrame* frame = span.frame;
  slow_traces_.Offer(frame->trace_id, frame->total_nanos, frame->spans);
  if (frame->overflowed) metrics_.profile_trace_overflows.Inc();
  frame->active = false;
  frame->spans.clear();
}

void MonitorEngine::DrainPendingEvictions(TraceFrame* frame) {
  // Their dispatches run nested, so evictions they raise only queue here;
  // the cap bounds the whole cascade against pathological rule cycles.
  auto& pending = PendingEvictions();
  for (size_t dispatched = 0; !pending.empty(); ++dispatched) {
    if (dispatched == kMaxCascadeEvents) {
      RecordError(Status::ResourceExhausted(
          "deferred-event cascade exceeded " +
          std::to_string(kMaxCascadeEvents) + " events; dropping rest"));
      pending.clear();
      break;
    }
    PendingEviction eviction = std::move(pending.front());
    pending.pop_front();
    metrics_.deferred_events.Inc();
    // Re-seat the trace frame under the action span that caused this
    // eviction, so the deferred event parents correctly in the tree.
    if (frame != nullptr && frame->active) {
      frame->parent_span = eviction.parent_span;
      frame->depth = eviction.depth;
    }
    EvalContext evict_ctx;
    evict_ctx.evicted_lat = eviction.lat;
    evict_ctx.evicted_row = &eviction.row;
    FireEvent(EventKind::kLatEvict, eviction.lat->lower_name(), &evict_ctx);
  }
}

uint32_t MonitorEngine::RunIteratingRule(const CompiledRule& rule,
                                         EvalContext* base_ctx,
                                         TraceFrame* frame) {
  // Bind every combination of live objects of the classes the event did
  // not bind. Blocker/Blocked are iterated as pairs from the lock-resource
  // graph (§6.1). Buffers come from a per-(thread, depth) scratch pool so
  // this path stops allocating once capacities warm up.
  IterationScratch& scratch =
      IterationScratchAt(static_cast<size_t>(RuleDepth()) - 1);
  scratch.Clear();
  auto& lists = scratch.lists;

  bool want_blocker = false, want_blocked = false;
  for (MonitoredClass cls : rule.iterate_classes) {
    if (cls == MonitoredClass::kBlocker) want_blocker = true;
    if (cls == MonitoredClass::kBlocked) want_blocked = true;
  }
  if (want_blocker || want_blocked) {
    // Waits are measured against the event's already-read timestamp (one
    // clock read per event, Figure 2).
    const int64_t now = base_ctx->now_micros;
    for (const txn::BlockedPair& pair :
         db_->txn_manager()->lock_manager()->SnapshotBlockedPairs()) {
      auto blocked_rec = CurrentQueryOfTxn(pair.blocked_txn);
      auto blocker_rec = CurrentQueryOfTxn(pair.blocker_txn);
      if (blocked_rec == nullptr || blocker_rec == nullptr) continue;
      const double wait_secs =
          static_cast<double>(now - pair.waiting_since_micros) / 1e6;
      scratch.query_keepalive.push_back(blocked_rec);
      scratch.query_keepalive.push_back(blocker_rec);
      scratch.pair_objects.emplace_back(
          BlockEventView{blocker_rec.get(), wait_secs,
                         pair.resource.ToString(), pair.blocker_txn},
          BlockEventView{blocked_rec.get(), wait_secs,
                         pair.resource.ToString(), pair.blocked_txn});
    }
    std::vector<BindingItem> items;
    for (const auto& [blocker_view, blocked_view] : scratch.pair_objects) {
      BindingItem item;
      if (want_blocker) {
        item.emplace_back(MonitoredClass::kBlocker, &blocker_view);
      }
      if (want_blocked) {
        item.emplace_back(MonitoredClass::kBlocked, &blocked_view);
      }
      items.push_back(std::move(item));
    }
    lists.push_back(std::move(items));
  }
  for (MonitoredClass cls : rule.iterate_classes) {
    switch (cls) {
      case MonitoredClass::kQuery: {
        std::vector<BindingItem> items;
        {
          std::lock_guard<std::mutex> lock(objects_mutex_);
          for (const auto& [_, rec] : active_queries_) {
            scratch.query_keepalive.push_back(rec);
            items.push_back({{MonitoredClass::kQuery, rec.get()}});
          }
        }
        lists.push_back(std::move(items));
        break;
      }
      case MonitoredClass::kTransaction: {
        std::vector<BindingItem> items;
        {
          std::lock_guard<std::mutex> lock(objects_mutex_);
          for (const auto& [_, rec] : active_txns_) {
            scratch.txn_keepalive.push_back(rec);
            items.push_back({{MonitoredClass::kTransaction, rec.get()}});
          }
        }
        lists.push_back(std::move(items));
        break;
      }
      case MonitoredClass::kTimer: {
        scratch.timer_objects = timers_.Snapshot(db_->clock()->NowMicros());
        std::vector<BindingItem> items;
        for (const TimerRecord& timer : scratch.timer_objects) {
          items.push_back({{MonitoredClass::kTimer, &timer}});
        }
        lists.push_back(std::move(items));
        break;
      }
      default:
        break;  // Blocker/Blocked already handled as pairs
    }
  }

  // Cross product over the lists.
  uint32_t fired = 0;
  auto& idx = scratch.idx;
  idx.assign(lists.size(), 0);
  const bool any_empty = std::any_of(
      lists.begin(), lists.end(), [](const auto& l) { return l.empty(); });
  if (!any_empty) {
    for (;;) {
      EvalContext ctx = *base_ctx;
      for (size_t l = 0; l < lists.size(); ++l) {
        for (const auto& [cls, ptr] : lists[l][idx[l]]) {
          ctx.Bind(cls, ptr);
        }
      }
      if (!rule.breaker.Allow(ctx.now_micros)) {
        metrics_.breaker_skips.Inc();
      } else {
        rule.stats.evaluations.Inc();
        if (ConcludeRule(rule, &ctx, frame,
                         rule.condition != nullptr ? Decision::kEvaluate
                                                   : Decision::kFire,
                         /*fold_inserts=*/false)) {
          ++fired;
        }
      }
      size_t l = 0;
      for (; l < lists.size(); ++l) {
        if (++idx[l] < lists[l].size()) break;
        idx[l] = 0;
      }
      if (l == lists.size()) break;
    }
  }
  // Release record ownership promptly (capacity is retained).
  scratch.Clear();
  return fired;
}

// ---------------------------------------------------------------------------
// Deferred-evaluation pipeline (event_queue.h)
// ---------------------------------------------------------------------------

void MonitorEngine::EnqueueDeferred(DeferredEvent&& ev) {
  // A full queue blocks the hook; the wait is hook time, so under sustained
  // pressure the governor (when enabled) starts sampling.
  if (event_queue_->PushBlocking(std::move(ev))) {
    metrics_.queue_enqueued.Inc();
  } else {
    metrics_.queue_dropped.Inc();  // shutdown raced the enqueue
  }
}

void MonitorEngine::MonitorWorkerLoop() {
  std::vector<DeferredEvent> batch(
      std::max<size_t>(1, options_.drain_batch_size));
  // One evaluation context per batch slot, reused across batches.
  std::vector<EvalContext> ctxs(batch.size());
  for (;;) {
    batches_in_flight_.fetch_add(1, std::memory_order_acq_rel);
    const size_t n = event_queue_->PopBatch(batch.data(), batch.size());
    if (n == 0) {
      batches_in_flight_.fetch_sub(1, std::memory_order_acq_rel);
      {
        // Pair the notify with DrainEventQueue's predicate check.
        std::lock_guard<std::mutex> lock(drain_mutex_);
      }
      drain_cv_.notify_all();
      if (workers_stop_.load(std::memory_order_acquire) &&
          event_queue_->ApproxDepth() == 0) {
        return;  // shutdown and residue drained
      }
      event_queue_->WaitNonEmpty(1000);
      continue;
    }
    metrics_.queue_batches.Inc();
    metrics_.queue_batch_events.Inc(n);
    ProcessDeferredBatch(batch.data(), ctxs.data(), n);
    // Drop record keepalives before signalling the drain barrier.
    for (size_t i = 0; i < n; ++i) batch[i] = DeferredEvent();
    batches_in_flight_.fetch_sub(1, std::memory_order_acq_rel);
    {
      std::lock_guard<std::mutex> lock(drain_mutex_);
    }
    drain_cv_.notify_all();
  }
}

void MonitorEngine::DrainEventQueue() {
  if (event_queue_ == nullptr) return;
  std::unique_lock<std::mutex> lock(drain_mutex_);
  drain_cv_.wait(lock, [this] {
    return event_queue_->ApproxDepth() == 0 &&
           batches_in_flight_.load(std::memory_order_acquire) == 0;
  });
}

void MonitorEngine::ProcessDeferredBatch(DeferredEvent* events,
                                         EvalContext* ctxs, size_t count) {
  static const std::string kNoQualifier;  // terminal events carry none
  // One table snapshot per batch (taken at depth 0, so it may refresh).
  // Each run's eviction cascades dispatch nested (DispatchRun), where the
  // snapshot is never replaced.
  std::shared_ptr<const RuleTable> pin;
  const RuleTable& table = ThreadRuleTable(&pin);
  for (size_t e = 0; e < count; ++e) {
    EvalContext& ctx = ctxs[e];
    ctx.ResetForEvent();
    // Reuse the hook's clock read: deferred rules see the same event
    // timestamp sync evaluation would have.
    ctx.now_micros = events[e].now_micros;
    if (events[e].query != nullptr) {
      ctx.Bind(MonitoredClass::kQuery, events[e].query.get());
    }
    if (events[e].txn != nullptr) {
      ctx.Bind(MonitoredClass::kTransaction, events[e].txn.get());
    }
  }
  // Runs are cut at every kind change, so the rule list and predicate index
  // resolve once per run. Events are NOT re-sorted across kinds: commits
  // and rollbacks feeding one LAT must keep arrival order or FIRST/LAST
  // aggregates would change. Every event of a list that Resets a LAT is a
  // run of its own: Reset is the one mutation a deferred condition can
  // observe mid-batch.
  size_t i = 0;
  while (i < count) {
    const size_t kind = static_cast<size_t>(events[i].kind);
    size_t run = KindRunLength(events, i, count);
    const RuleList& rules = table.deferred_by_event[kind];
    if (rules.empty()) {  // rules removed/disabled since enqueue
      i += run;
      continue;
    }
    const RuleTable::DeferredPlan& plan = table.deferred_plans[kind];
    if (plan.has_reset) run = 1;
    const PredicateIndex* index =
        options_.predicate_index && table.deferred_index[kind].any_indexed
            ? &table.deferred_index[kind]
            : nullptr;
    const int64_t start_nanos = SteadyNanos();
    for (size_t e = i; e < i + run; ++e) {
      metrics_.queue_wait_micros.Record(
          (start_nanos - events[e].enqueue_nanos) / 1000);
    }
    DispatchRun(events + i, ctxs + i, run, kNoQualifier, rules, index, &plan,
                start_nanos);
    i += run;
  }
}

namespace {

/// How DispatchRun handles one rule of a run.
enum RuleMode : uint8_t {
  kBulk,      // walked over the run, accounted with one add per counter
              // (concluded at its turn on a span-sampled event)
  kPerEvent,  // walked over the run, concluded per event
  kStepped,   // walked and concluded per event, at its turn
};

/// A span-sampled event's trace, rooted at the event's turn in a run and
/// closed once the run's folds are done (DispatchRun).
struct HeldTrace {
  size_t event = 0;          // position in the run
  uint64_t trace_id = 0;
  uint64_t span_id = 0;      // the root event span
  int64_t own_nanos = 0;     // the event's turn: its rules' windows
  std::vector<obs::Span> spans;
  bool overflowed = false;
};

/// One (group shape, selection) mapped for a run's LAT folds.
struct RunMapping {
  uint32_t shape = 0;
  /// Keyed by `selection` (a single feeder's events): a later LAT of the
  /// same shape and selection folds this mapping.
  bool shared = false;
  std::vector<EventBitmap> selection;
  std::vector<LatBatchItem> items;
  LatBatchMapping mapping;
};

}  // namespace

/// The working set of one DispatchRun: every vector keeps its capacity
/// across runs, so a steady-state run allocates nothing of its own. There
/// is one per (thread, dispatch depth): the outermost run dispatches its
/// Lat.Evict cascade through DispatchRun one level deeper, and a deferred
/// run still reads its own state after that (its event-trace rows).
/// Per-rule bitmaps are laid out [rule * words, +words) and written only
/// for the rules in `visit` of a run that is not immediate; per-group
/// ones [group * words, +words).
struct DispatchScratch {
  PredicateRun preds;
  std::vector<RuleBitmap> visit;        // rules some event of the run visits
  std::vector<EventBitmap> run;         // every event of the run
  std::vector<EventBitmap> rejected;    // per access group
  std::vector<EventBitmap> masks;       // per rule: events it is visited on
  std::vector<EventBitmap> fires;       // per rule: events it fired on
  std::vector<EventBitmap> errors;      // per rule: events decided naively
  std::vector<EventBitmap> one, one_fire, one_error;  // a stepped walk
  std::vector<uint8_t> modes;           // per rule: RuleMode
  std::vector<uint8_t> watched;         // per group: has a stepwise member
  std::vector<EventBitmap> bound;       // per class: events binding it
  std::vector<uint8_t> bound_known;     // per class: `bound` is filled
  std::vector<EventBitmap> selection;   // one LAT's selected events
  std::vector<EventBitmap> sampled;     // span-sampled events
  std::vector<HeldTrace> held;          // their traces, in event order
  size_t held_count = 0;                // entries of `held` in use
  std::vector<RunMapping> mappings;
  std::vector<uint32_t> fired_per_event;
};

namespace {

DispatchScratch& DispatchScratchAt(size_t depth) {
  thread_local std::vector<std::unique_ptr<DispatchScratch>> pool;
  while (pool.size() <= depth) {
    pool.push_back(std::make_unique<DispatchScratch>());
  }
  return *pool[depth];
}

bool TestBit(const uint64_t* bits, size_t i) {
  return (bits[i / 64] >> (i % 64) & 1) != 0;
}

void AssignBit(uint64_t* bits, size_t i, bool on) {
  const uint64_t bit = uint64_t{1} << (i % 64);
  bits[i / 64] = on ? bits[i / 64] | bit : bits[i / 64] & ~bit;
}

/// Calls fn(i) for every bit i set in `bits`, in ascending order.
template <typename Fn>
void ForEachBit(const uint64_t* bits, size_t words, Fn&& fn) {
  for (size_t w = 0; w < words; ++w) {
    for (uint64_t rest = bits[w]; rest != 0; rest &= rest - 1) {
      fn(w * 64 + static_cast<size_t>(std::countr_zero(rest)));
    }
  }
}

uint64_t CountBits(const EventBitmap* bits, size_t words) {
  uint64_t n = 0;
  for (size_t w = 0; w < words; ++w) {
    n += CountEvents(bits[w]);
  }
  return n;
}

/// Bits set in `bits` and clear in `except`.
uint64_t CountBitsExcept(const EventBitmap* bits, const EventBitmap* except,
                         size_t words) {
  uint64_t n = 0;
  for (size_t w = 0; w < words; ++w) {
    n += CountEvents(bits[w] & ~except[w]);
  }
  return n;
}

/// The run's events (contexts ctxs[0, n)) that bind an object of `cls`,
/// computed once per class and run.
const EventBitmap* BoundEvents(DispatchScratch& s, const EvalContext* ctxs,
                               MonitoredClass cls, size_t n) {
  const size_t words = EventBitmapWords(n);
  EventBitmap* bits = s.bound.data() + static_cast<size_t>(cls) * words;
  if (!s.bound_known[static_cast<size_t>(cls)]) {
    s.bound_known[static_cast<size_t>(cls)] = 1;
    std::fill(bits, bits + words, 0);
    for (size_t e = 0; e < n; ++e) {
      if (ctxs[e].Bound(cls) != nullptr) AssignBit(bits, e, true);
    }
  }
  return bits;
}

/// The record an Insert action folds: the event's object of the LAT's
/// class.
Result<const void*> InsertRecord(const CompiledAction& action,
                                 const EvalContext& ctx) {
  const void* record = ctx.Bound(action.lat->spec().object_class);
  if (record == nullptr) {
    return Status::Internal(
        "Insert: no in-context object of class " +
        std::string(MonitoredClassName(action.lat->spec().object_class)));
  }
  return record;
}

}  // namespace

void MonitorEngine::DispatchRun(const DeferredEvent* events,
                                EvalContext* ctxs, size_t n,
                                const std::string& qualifier,
                                const RuleList& rules,
                                const PredicateIndex* index,
                                const RuleTable::DeferredPlan* plan,
                                int64_t start_nanos) {
  DispatchScratch& s = DispatchScratchAt(static_cast<size_t>(RuleDepth()));
  const EventKind kind = events[0].kind;
  const size_t words = EventBitmapWords(n);
  const size_t count = rules.size();
  const size_t rule_words = RuleBitmapWords(count);
  // A sync event, and a run of a deferred list that Resets a LAT (one
  // event, ProcessDeferredBatch), is immediate: every rule is decided at
  // its turn, its actions, inserts included, run right away, and the run's
  // event span roots the eviction cascade.
  const bool immediate = plan == nullptr || plan->has_reset;

  // Causal span plane: the first dispatch on this thread roots a new trace
  // (id = event seq + 1); nested dispatches attach under the inherited
  // parent.
  const EventSpan span =
      immediate ? OpenEventSpan(kind, qualifier, events[0].seq,
                                events[0].sampled, start_nanos,
                                events[0].enqueue_nanos)
                : EventSpan{};
  TraceFrame* run_profiled =
      span.frame != nullptr && span.frame->sampled ? span.frame : nullptr;
  // A span-sampled event of a longer run stays in it: at its turn every
  // rule visited on it is concluded with condition and action spans.
  s.sampled.assign(words, 0);
  bool any_sampled = false;
  for (size_t e = 0; !immediate && e < n; ++e) {
    if (events[e].sampled) {
      AssignBit(s.sampled.data(), e, true);
      any_sampled = true;
    }
  }

  s.run.assign(words, ~EventBitmap{0});
  if (n % 64 != 0) s.run[words - 1] = (EventBitmap{1} << (n % 64)) - 1;
  const auto mask_of = [&](size_t r) { return s.masks.data() + r * words; };
  const auto fire_of = [&](size_t r) { return s.fires.data() + r * words; };
  const auto error_of = [&](size_t r) { return s.errors.data() + r * words; };
  const auto indexed = [&](size_t r) {
    return index != nullptr && index->entries[r].indexed;
  };

  // Access groups: a group is rejected on the events where its access
  // predicate is FALSE; its members are not visited there. The rules to
  // visit are the ungrouped ones and the members of every group some event
  // of the run keeps; every per-rule pass below walks only them.
  PredWalkCounters walk;
  const AccessGroups* groups = index != nullptr ? index->groups.get() : nullptr;
  const size_t num_groups = groups != nullptr ? groups->size() : 0;
  const auto group_of = [&](size_t r) {
    return groups != nullptr ? groups->group_of(r) : -1;
  };
  if (index != nullptr) s.preds.Begin(*index, ctxs, n);
  s.rejected.resize(num_groups * words);
  s.visit.resize(rule_words);
  if (groups != nullptr) {
    groups->MatchRun(breakers_not_closed_.load(std::memory_order_relaxed) != 0,
                     &s.preds, s.run.data(), s.rejected.data(), s.visit.data(),
                     &walk);
  } else {
    std::fill(s.visit.begin(), s.visit.end(), ~RuleBitmap{0});
    if (count % 64 != 0) {
      s.visit[rule_words - 1] = (RuleBitmap{1} << (count % 64)) - 1;
    }
  }
  const RuleBitmap* visit = s.visit.data();
  // The last rule to visit: a LAT mutation by the rule there needs no memo
  // invalidation, since no later rule reads the memo.
  size_t last_pos = 0;
  for (size_t w = rule_words; w-- > 0;) {
    if (visit[w] != 0) {
      last_pos = w * 64 + 63 - static_cast<size_t>(std::countl_zero(visit[w]));
      break;
    }
  }
  // An immediate run holds one event, on which every visited rule is
  // decided at its turn: no group is rejected on it only in part, and no
  // rule needs per-rule scratch. A longer run walks conditions first.
  bool any_stepwise = immediate || any_sampled;
  const size_t bulk_words = immediate ? 0 : rule_words;  // rules in bulk
  s.watched.assign(num_groups, 0);
  if (!immediate) {
    if (s.masks.size() < count * words) {  // grown only, never re-zeroed
      s.masks.resize(count * words);
      s.fires.resize(count * words);
      s.errors.resize(count * words);
    }
    if (s.modes.size() < count) s.modes.resize(count);

    // Condition pass, rule-major: each rule's conjuncts over its events.
    ForEachBit(visit, rule_words, [&](size_t r) {
      const CompiledRule& rule = *rules[r];
      EventBitmap* mask = mask_of(r);
      EventBitmap* fire = fire_of(r);
      EventBitmap* error = error_of(r);
      const int32_t g = group_of(r);
      for (size_t w = 0; w < words; ++w) {
        mask[w] = s.run[w] & ~(g >= 0 ? s.rejected[g * words + w] : 0);
        fire[w] = 0;
        error[w] = 0;
      }
      // A rule whose breaker is not closed (the breaker must gate each
      // evaluation) waits for its turn.
      if (rule.breaker.state() != RuleBreaker::State::kClosed) {
        s.modes[r] = kStepped;
        return;
      }
      s.modes[r] = kPerEvent;
      if (indexed(r)) {
        s.preds.Walk(index->entries[r], mask, fire, error, &walk);
      } else if (rule.condition == nullptr) {
        std::copy(mask, mask + words, fire);
      } else {
        ForEachBit(mask, words, [&](size_t e) {
          EvalContext& ctx = ctxs[e];
          ctx.lat_rows.clear();
          ctx.lat_row_missing = false;
          const auto pass = rule.condition->EvalCondition(&ctx);
          if (!pass.ok()) {
            AssignBit(error, e, true);
          } else if (*pass) {
            AssignBit(fire, e, true);
          }
        });
      }
    });

    // A rule whose actions are all Inserts of records its fired events
    // bind, and whose walk saw no error, cannot fail: it is accounted in
    // bulk. Its breaker is read again here, since another worker may have
    // tripped it during the walk; an open one must gate each event.
    s.bound_known.assign(kNumMonitoredClasses, 0);
    s.bound.resize(kNumMonitoredClasses * words);
    ForEachBit(visit, rule_words, [&](size_t r) {
      if (s.modes[r] == kPerEvent && plan->insert_only[r] &&
          rules[r]->breaker.state() == RuleBreaker::State::kClosed &&
          CountBits(error_of(r), words) == 0) {
        const EventBitmap* fire = fire_of(r);
        bool binds = true;
        for (const CompiledAction& action : rules[r]->actions) {
          const EventBitmap* bound =
              BoundEvents(s, ctxs, action.lat->spec().object_class, n);
          for (size_t w = 0; w < words; ++w) {
            binds &= (fire[w] & ~bound[w]) == 0;
          }
        }
        if (binds) s.modes[r] = kBulk;
      }
      if (s.modes[r] == kBulk) return;
      any_stepwise = true;
      if (group_of(r) >= 0) s.watched[static_cast<size_t>(group_of(r))] = 1;
    });
  }

  // Every other rule is concluded per event, event-major in rule order, so
  // breakers, rate limiters, side effects and error reports keep the order
  // of per-event dispatch. On a span-sampled event the bulk rules are
  // concluded at their turn too, from their walk's verdicts.
  uint64_t fired = 0;
  uint64_t visited = 0;
  uint64_t skipped = 0;
  s.fired_per_event.assign(n, 0);
  ++RuleDepth();
  if (any_stepwise) {
    s.one.assign(words, 0);
    s.one_fire.resize(words);
    s.one_error.resize(words);
    for (size_t e = 0; e < n; ++e) {
      EvalContext* ctx = &ctxs[e];
      // A group with a stepwise member commits its rejections event by
      // event, as a per-event dispatch does at the event's start: the
      // member's breaker counts each one as a success in order, and a group
      // holding a rule whose breaker opened earlier in the run is visited
      // rule by rule instead.
      for (size_t g = 0; g < num_groups; ++g) {
        EventBitmap* rejected = s.rejected.data() + g * words;
        if (!s.watched[g] || !TestBit(rejected, e)) continue;
        AssignBit(rejected, e, false);
        if (!groups->Unrejectable(
                g, breakers_not_closed_.load(std::memory_order_relaxed) != 0)) {
          skipped += groups->Reject(g, 1);
          continue;
        }
        ForEachBit(groups->members(g), rule_words,
                   [&](size_t r) { AssignBit(mask_of(r), e, true); });
      }
      const bool traced = any_sampled && TestBit(s.sampled.data(), e);
      TraceFrame* profiled = run_profiled;
      EventSpan root;
      int64_t turn_start = 0;
      if (traced) {
        // The event's trace: its queue_wait ends where the run started,
        // and its rules' windows tile its turn.
        turn_start = SteadyNanos();
        root = OpenEventSpan(kind, qualifier, events[e].seq,
                             /*sampled=*/true, start_nanos,
                             events[e].enqueue_nanos);
        if (root.frame != nullptr) root.frame->chain_ns = turn_start;
        profiled = root.frame != nullptr && root.frame->sampled ? root.frame
                                                                : nullptr;
      }
      ForEachBit(visit, rule_words, [&](size_t r) {
        const uint8_t mode = immediate ? uint8_t{kStepped} : s.modes[r];
        if (!immediate &&
            ((mode == kBulk && !traced) || !TestBit(mask_of(r), e))) {
          return;
        }
        const CompiledRule& rule = *rules[r];
        if (!rule.event.qualifier.empty() && rule.event.qualifier != qualifier) {
          return;
        }
        ++visited;
        uint32_t did_fire = 0;
        if (!rule.iterate_classes.empty()) {
          // Unbound-class iteration gates and concludes each binding.
          did_fire = RunIteratingRule(rule, ctx, profiled);
        } else if (!rule.breaker.Allow(ctx->now_micros)) {
          // Quarantine gate: a tripped breaker takes the rule out of
          // dispatch until its cooldown admits a half-open probe (or
          // ReinstateRule intervenes).
          metrics_.breaker_skips.Inc();
        } else {
          rule.stats.evaluations.Inc();
          Decision decision = Decision::kFire;
          if (mode != kStepped) {
            decision = TestBit(error_of(r), e) ? Decision::kEvaluate
                       : TestBit(fire_of(r), e) ? Decision::kFire
                                                : Decision::kReject;
          } else if (indexed(r)) {
            AssignBit(s.one.data(), e, true);
            s.preds.Walk(index->entries[r], s.one.data(), s.one_fire.data(),
                         s.one_error.data(), &walk);
            AssignBit(s.one.data(), e, false);
            decision = TestBit(s.one_error.data(), e) ? Decision::kEvaluate
                       : TestBit(s.one_fire.data(), e) ? Decision::kFire
                                                       : Decision::kReject;
          } else if (rule.condition != nullptr) {
            decision = Decision::kEvaluate;
          }
          // A conjunct errored: the naive evaluator decides the rule, so
          // the error text, stats and breaker accounting match index-off
          // evaluation exactly.
          if (decision == Decision::kEvaluate && indexed(r)) {
            metrics_.predindex_fallbacks.Inc();
          }
          did_fire = ConcludeRule(rule, ctx, profiled, decision, !immediate);
        }
        if (!immediate) AssignBit(fire_of(r), e, did_fire != 0);
        if (did_fire == 0) return;
        fired += did_fire;
        s.fired_per_event[e] += did_fire;
        if (immediate && index != nullptr && index->any_lat_reader &&
            index->entries[r].mutates_lats && r != last_pos) {
          // The fired rule's actions changed LAT state mid-event: memoized
          // LAT-reading conjuncts and the shared row cache no longer match
          // what naive per-rule evaluation would see for the rules still
          // to come. Access predicates read no LAT, so the matcher's
          // verdicts stand.
          s.preds.InvalidateLatReaders(e);
          ctx->lat_rows.clear();
          metrics_.predindex_invalidations.Inc();
        }
      });
      if (root.root) {
        // Held until the run's folds are done (CloseRunTraces).
        TraceFrame* frame = root.frame;
        if (s.held_count == s.held.size()) s.held.emplace_back();
        HeldTrace& held = s.held[s.held_count++];
        held.event = e;
        held.trace_id = frame->trace_id;
        held.span_id = root.id;
        held.own_nanos = frame->chain_ns - turn_start;
        held.spans.swap(frame->spans);
        frame->spans.clear();
        held.overflowed = frame->overflowed;
        frame->active = false;
      }
    }
  }
  ForEachBit(visit, bulk_words, [&](size_t r) {
    if (s.modes[r] != kBulk) return;
    const CompiledRule& rule = *rules[r];
    // Sampled events were concluded at their turn.
    const uint64_t live =
        CountBitsExcept(mask_of(r), s.sampled.data(), words);
    const uint64_t fires =
        CountBitsExcept(fire_of(r), s.sampled.data(), words);
    visited += live;
    fired += fires;
    if (live == 0) return;
    rule.stats.evaluations.Inc(live);
    if (live != fires) rule.stats.condition_false.Inc(live - fires);
    if (fires != 0) rule.stats.fires.Inc(fires);
    rule.breaker.OnSuccess(events[n - 1].now_micros, live);
  });
  for (size_t g = 0; g < num_groups; ++g) {
    const uint64_t rejected = CountBits(s.rejected.data() + g * words, words);
    if (rejected != 0) skipped += groups->Reject(g, rejected);
  }
  walk.memo_hits += skipped;

  if (!immediate) FoldRun(s, events, ctxs, n, *plan);
  if (span.frame != nullptr) {
    CloseEventSpan(span, kind, qualifier, start_nanos,
                   EventSpanEnd(*span.frame, start_nanos));
  } else if (!immediate && (spans_.enabled() || s.held_count != 0)) {
    CloseRunTraces(s, events, n, qualifier, start_nanos);
  }
  // Published after the event spans close: their self-time is split among
  // the rules' condition/action windows, and this is bookkeeping.
  if (walk.evals != 0) metrics_.predindex_evals.Inc(walk.evals);
  if (walk.memo_hits != 0) metrics_.predindex_memo_hits.Inc(walk.memo_hits);
  if (fired != 0) metrics_.rules_fired.Inc(fired);
  if (visited != 0) metrics_.rules_visited.Inc(visited);
  if (skipped != 0) metrics_.rules_skipped.Inc(skipped);
  // The event trace's row per event. The clock read is trace-gated; the
  // untraced path stays at one read per event. Measured from the hook's
  // clock read: a sync event's row precedes its eviction cascade's rows; a
  // deferred event's row is written once the cascade landed too, so it
  // covers the enqueue wait and every effect ("when did this event's
  // effects land"), and reads this depth's scratch after the cascade's
  // nested dispatches ran.
  const auto record_trace = [&] {
    if (!trace_.enabled()) return;
    ForEachBit(visit, bulk_words, [&](size_t r) {
      if (s.modes[r] != kBulk) return;
      const EventBitmap* fire = fire_of(r);
      for (size_t w = 0; w < words; ++w) {
        for (EventBitmap bits = fire[w] & ~s.sampled[w]; bits != 0;
             bits &= bits - 1) {
          ++s.fired_per_event[w * 64 +
                              static_cast<size_t>(std::countr_zero(bits))];
        }
      }
    });
    const int64_t now = db_->clock()->NowMicros();
    for (size_t e = 0; e < n; ++e) {
      trace_.Record(static_cast<uint8_t>(kind), qualifier,
                    s.fired_per_event[e], events[e].now_micros,
                    now - events[e].now_micros);
    }
  };
  const bool sync = plan == nullptr;
  if (sync) record_trace();
  // The Lat.Evict events the run's actions queued dispatch only now that
  // the run completed (paper §5).
  if (RuleDepth() == 1) DrainPendingEvictions(span.frame);
  --RuleDepth();
  FinishTrace(span);
  if (!sync) record_trace();
}

void MonitorEngine::CloseRunTraces(DispatchScratch& s,
                                   const DeferredEvent* events, size_t n,
                                   const std::string& qualifier,
                                   int64_t start_nanos) {
  // Each event of the run roots its own trace. Its event span starts where
  // the run started (its queue_wait ends there) and lasts its share of the
  // run: its own turn when it was span-sampled, plus an equal part of the
  // work the run's events shared (condition pass, bulk accounting, folds).
  // The shares add up to the run's time, so no event's trace, and no
  // sqlcm_slow_events entry, claims the cost of the others.
  const EventKind kind = events[0].kind;
  int64_t own = 0;
  for (size_t h = 0; h < s.held_count; ++h) own += s.held[h].own_nanos;
  const int64_t share =
      std::max<int64_t>(0, SteadyNanos() - start_nanos - own) /
      static_cast<int64_t>(n);
  TraceFrame& frame = CurrentTraceFrame();
  size_t h = 0;
  for (size_t e = 0; e < n; ++e) {
    EventSpan span;
    int64_t length = share;
    if (h < s.held_count && s.held[h].event == e) {
      HeldTrace& held = s.held[h++];
      frame.engine = this;
      frame.active = true;
      frame.sampled = true;
      frame.trace_id = held.trace_id;
      frame.parent_span = held.span_id;
      frame.depth = 1;
      frame.total_nanos = 0;
      frame.spans.swap(held.spans);
      frame.overflowed = held.overflowed;
      span.frame = &frame;
      span.root = true;
      span.id = held.span_id;
      length += held.own_nanos;
    } else {
      span = OpenEventSpan(kind, qualifier, events[e].seq,
                           /*sampled=*/false, start_nanos,
                           events[e].enqueue_nanos);
      if (span.frame == nullptr) continue;  // spans were turned off
    }
    CloseEventSpan(span, kind, qualifier, start_nanos, start_nanos + length);
    FinishTrace(span);
  }
  s.held_count = 0;
}

void MonitorEngine::FoldRun(DispatchScratch& s, const DeferredEvent* events,
                            const EvalContext* ctxs, size_t n,
                            const RuleTable::DeferredPlan& plan) {
  // Each LAT's items are its feeders' fired events in (event, rule,
  // action) order, records re-read from the run's contexts. A LAT fed by
  // one Insert of one rule is keyed by that rule's fired events, so LATs of
  // one group shape fed the same selection fold one mapping
  // (Lat::MapBatch once, Lat::FoldBatch per LAT); the run pins its records
  // until the folds end, and mappings never outlive the run (their keys
  // borrow from the records). Upsert attribution is one span-plane sample
  // and one upsert_micros sample per (run, LAT). A feeder the run never
  // visited (its access group rejected every event) fired on none.
  const size_t words = EventBitmapWords(n);
  const bool profiled = spans_.enabled();
  const bool timed = detailed_timing_.load(std::memory_order_relaxed);
  const auto fired_on = [&](uint32_t pos, size_t e) {
    return TestBit(s.visit.data(), pos) &&
           TestBit(s.fires.data() + pos * words, e);
  };
  size_t used = 0;
  s.selection.resize(words);
  for (const RuleTable::DeferredPlan::Feed& feed : plan.feeds) {
    Lat* lat = feed.lat;
    const MonitoredClass cls = lat->spec().object_class;
    const bool single = feed.feeders.size() == 1 && feed.feeders[0].second == 1;
    EventBitmap* selection = s.selection.data();
    std::fill(selection, selection + words, 0);
    for (const auto& [pos, copies] : feed.feeders) {
      if (!TestBit(s.visit.data(), pos)) continue;
      const EventBitmap* fire = s.fires.data() + pos * words;
      for (size_t w = 0; w < words; ++w) selection[w] |= fire[w];
    }
    const EventBitmap* bound = BoundEvents(s, ctxs, cls, n);
    for (size_t w = 0; w < words; ++w) selection[w] &= bound[w];
    if (CountBits(selection, words) == 0) continue;
    const int64_t start = profiled || timed ? SteadyNanos() : 0;
    RunMapping* mapping = nullptr;
    for (size_t m = 0; m < used && mapping == nullptr && single; ++m) {
      if (s.mappings[m].shared && s.mappings[m].shape == lat->group_shape() &&
          std::equal(selection, selection + words,
                     s.mappings[m].selection.begin())) {
        mapping = &s.mappings[m];
      }
    }
    if (mapping == nullptr) {
      if (used == s.mappings.size()) s.mappings.emplace_back();
      mapping = &s.mappings[used++];
      mapping->shape = lat->group_shape();
      mapping->shared = single;
      mapping->selection.assign(selection, selection + words);
      mapping->items.clear();
      ForEachBit(selection, words, [&](size_t e) {
        const LatBatchItem item{ctxs[e].Bound(cls), events[e].now_micros};
        for (const auto& [pos, copies] : feed.feeders) {
          if (fired_on(pos, e)) {
            mapping->items.insert(mapping->items.end(), copies, item);
          }
        }
      });
      lat->MapBatch(mapping->items.data(), mapping->items.size(),
                    &mapping->mapping);
    }
    lat->FoldBatch(mapping->items.data(), mapping->items.size(),
                   mapping->mapping);
    if (profiled || timed) {
      const int64_t dur = SteadyNanos() - start;
      if (profiled) {
        lat->stats().upsert_spans.Inc();
        lat->stats().upsert_nanos.Inc(static_cast<uint64_t>(dur));
      }
      if (timed) lat->stats().upsert_micros.Record(dur / 1000);
    }
  }
}

bool MonitorEngine::ConcludeRule(const CompiledRule& rule, EvalContext* ctx,
                                 TraceFrame* frame, Decision decision,
                                 bool fold_inserts) {
  bool cond_error = false;
  bool cond_pass = decision == Decision::kFire;
  if (decision == Decision::kEvaluate) {
    ctx->lat_rows.clear();
    ctx->lat_row_missing = false;
    auto pass = rule.condition->EvalCondition(ctx);
    if (!pass.ok()) {
      rule.stats.errors.Inc();
      RecordError(pass.status());
      cond_error = true;
    } else {
      cond_pass = *pass;
    }
  }
  if (frame != nullptr) {
    // Close the condition window against the trace's rolling clock (the
    // window opened where the previous rule's — or the event span's — read
    // ended, so nothing in the dispatch loop escapes attribution).
    const int64_t now = SteadyNanos();
    const int64_t dur = now - frame->chain_ns;
    obs::Span span;
    span.trace_id = frame->trace_id;
    span.span_id = NewSpanId();
    span.parent_id = frame->parent_span;
    span.ref = rule.id;
    span.start_nanos = frame->chain_ns;
    span.duration_nanos = dur;
    span.kind = obs::SpanKind::kCondition;
    span.depth = frame->depth;
    EmitSpan(frame, span);
    rule.stats.profiled_evals.Inc();
    rule.stats.condition_nanos.Inc(static_cast<uint64_t>(dur));
    frame->chain_ns = now;
  }
  if (cond_error) {
    NoteRuleFailure(rule, ctx->now_micros);
    return false;
  }
  if (!cond_pass) {
    rule.stats.condition_false.Inc();
    rule.breaker.OnSuccess(ctx->now_micros);
    return false;
  }
  rule.stats.fires.Inc();
  const bool timed = detailed_timing_.load(std::memory_order_relaxed);
  const int64_t action_start =
      (timed && frame == nullptr) ? db_->clock()->NowMicros() : 0;
  bool any_action_failed = false;
  int64_t actions_nanos = 0;
  for (const CompiledAction& action : rule.actions) {
    // Alert-storm cap: externally visible actions (mail, persisted rows)
    // pass the per-rule trailing-window limiter; a suppressed action is
    // skipped without counting as a failure (the condition legitimately
    // fired — only the side effect is shed).
    if ((action.kind == ActionKind::kSendMail ||
         action.kind == ActionKind::kPersist) &&
        !rule.rate_limiter.Admit(ctx->now_micros)) {
      rule.stats.actions_suppressed.Inc();
      metrics_.actions_suppressed.Inc();
      continue;
    }
    uint64_t action_span = 0;
    uint64_t action_parent = 0;
    if (frame != nullptr) {
      // Allocate the action span id up front: LAT-upsert child spans and
      // any eviction events the upsert defers parent onto it.
      action_span = NewSpanId();
      action_parent = frame->parent_span;
      frame->parent_span = action_span;
    }
    // A folded Insert only checks its record here; its run folds it.
    Status status = fold_inserts && action.kind == ActionKind::kInsert
                        ? InsertRecord(action, *ctx).status()
                        : ExecuteAction(action, ctx, frame);
    if (frame != nullptr) {
      const int64_t now = SteadyNanos();
      const int64_t dur = now - frame->chain_ns;
      obs::Span span;
      span.trace_id = frame->trace_id;
      span.span_id = action_span;
      span.parent_id = action_parent;
      span.ref = rule.id;
      span.start_nanos = frame->chain_ns;
      span.duration_nanos = dur;
      span.kind = obs::SpanKind::kAction;
      span.detail = static_cast<uint8_t>(action.kind);
      span.depth = frame->depth;
      EmitSpan(frame, span);
      const auto k = static_cast<size_t>(action.kind);
      metrics_.action_kind_spans[k].Inc();
      metrics_.action_kind_nanos[k].Inc(static_cast<uint64_t>(dur));
      rule.stats.action_nanos.Inc(static_cast<uint64_t>(dur));
      actions_nanos += dur;
      frame->chain_ns = now;
      frame->parent_span = action_parent;
    }
    if (!status.ok()) {
      rule.stats.errors.Inc();
      RecordError(status);
      any_action_failed = true;
    }
  }
  if (timed) {
    // When profiled, the span windows already measured the actions — reuse
    // them instead of reading the db clock twice more.
    rule.stats.action_micros.Record(
        frame != nullptr ? actions_nanos / 1000
                         : db_->clock()->NowMicros() - action_start);
  }
  if (any_action_failed) {
    NoteRuleFailure(rule, ctx->now_micros);
  } else {
    rule.breaker.OnSuccess(ctx->now_micros);
  }
  return true;
}

void MonitorEngine::NoteRuleFailure(const CompiledRule& rule,
                                    int64_t now_micros) {
  if (rule.breaker.OnFailure(now_micros)) {
    metrics_.breaker_trips.Inc();
    RecordError(Status::ResourceExhausted(
        "rule '" + rule.name +
        "' quarantined: circuit breaker tripped open after repeated "
        "failures"));
  }
}

// ---------------------------------------------------------------------------
// Actions
// ---------------------------------------------------------------------------

Result<storage::Table*> MonitorEngine::EnsureTable(
    const std::string& table_name, const std::vector<std::string>& col_names,
    const std::vector<ValueKind>& kinds) {
  storage::Table* table = db_->catalog()->GetTable(table_name);
  if (table != nullptr) return table;
  std::vector<catalog::Column> columns;
  for (size_t i = 0; i < col_names.size(); ++i) {
    columns.push_back({col_names[i], ColumnTypeForKind(kinds[i])});
  }
  SQLCM_ASSIGN_OR_RETURN(
      auto schema,
      catalog::TableSchema::Create(table_name, std::move(columns), {}));
  auto created = db_->catalog()->CreateTable(std::move(schema));
  if (!created.ok()) {
    // Lost a creation race; the table exists now.
    table = db_->catalog()->GetTable(table_name);
    if (table != nullptr) return table;
    return created.status();
  }
  return *created;
}

Status MonitorEngine::PersistRowToTable(
    const std::string& table_name, const std::vector<std::string>& col_names,
    const std::vector<ValueKind>& kinds, Row row) {
  SQLCM_ASSIGN_OR_RETURN(storage::Table * table,
                         EnsureTable(table_name, col_names, kinds));
  return table->Insert(std::move(row)).status();
}

Status MonitorEngine::ExecuteAction(const CompiledAction& action,
                                    EvalContext* ctx, TraceFrame* frame) {
  switch (action.kind) {
    case ActionKind::kInsert: {
      SQLCM_ASSIGN_OR_RETURN(const void* record, InsertRecord(action, *ctx));
      if (frame != nullptr) {
        // Profiled path: a LAT-upsert child span under the action span,
        // plus nanosecond attribution to the LAT itself. Evictions the
        // upsert defers capture the action span as their parent.
        const int64_t start = SteadyNanos();
        action.lat->Insert(record, ctx->now_micros);
        const int64_t dur = SteadyNanos() - start;
        obs::Span span;
        span.trace_id = frame->trace_id;
        span.span_id = NewSpanId();
        span.parent_id = frame->parent_span;
        span.ref = common::Fnv1a64(action.lat->lower_name());
        span.start_nanos = start;
        span.duration_nanos = dur;
        span.kind = obs::SpanKind::kLatUpsert;
        span.depth = frame->depth;
        EmitSpan(frame, span);
        action.lat->stats().upsert_spans.Inc();
        action.lat->stats().upsert_nanos.Inc(static_cast<uint64_t>(dur));
        if (detailed_timing_.load(std::memory_order_relaxed)) {
          action.lat->stats().upsert_micros.Record(dur / 1000);
        }
      } else if (detailed_timing_.load(std::memory_order_relaxed)) {
        const int64_t start = db_->clock()->NowMicros();
        action.lat->Insert(record, ctx->now_micros);
        action.lat->stats().upsert_micros.Record(db_->clock()->NowMicros() -
                                                 start);
      } else {
        action.lat->Insert(record, ctx->now_micros);
      }
      return Status::OK();
    }
    case ActionKind::kReset:
      action.lat->Reset();
      return Status::OK();
    case ActionKind::kPersist: {
      if (action.lat_source) {
        std::vector<std::string> cols = action.lat->column_names();
        std::vector<ValueKind> kinds = action.lat->column_kinds();
        cols.push_back("persist_ts");
        kinds.push_back(ValueKind::kInt);
        SQLCM_ASSIGN_OR_RETURN(storage::Table * table,
                               EnsureTable(action.table_name, cols, kinds));
        return action.lat->PersistTo(table, ctx->now_micros, ctx->now_micros);
      }
      if (action.evicted_source) {
        if (ctx->evicted_row == nullptr) {
          return Status::Internal("Evicted.Persist without evicted row");
        }
        return PersistRowToTable(action.table_name,
                                 action.lat->column_names(),
                                 action.lat->column_kinds(),
                                 *ctx->evicted_row);
      }
      const void* record = ctx->Bound(action.source_class);
      if (record == nullptr) {
        return Status::Internal(
            std::string("Persist: no in-context object of class ") +
            MonitoredClassName(action.source_class));
      }
      const ObjectSchema& schema = ObjectSchema::Get();
      Row row;
      std::vector<ValueKind> kinds;
      row.reserve(action.attr_indexes.size());
      for (int attr : action.attr_indexes) {
        const AttributeDef& def =
            schema.attributes(action.source_class)[static_cast<size_t>(attr)];
        row.push_back(def.Get(record));
        kinds.push_back(def.kind);
      }
      return PersistRowToTable(action.table_name, action.attr_names, kinds,
                               std::move(row));
    }
    case ActionKind::kSendMail:
      return mailer_->SendMail(SubstituteTemplate(action.text, ctx),
                               action.address);
    case ActionKind::kRunExternal:
      return launcher_->RunExternal(SubstituteTemplate(action.text, ctx));
    case ActionKind::kCancel: {
      const void* record = ctx->Bound(action.source_class);
      if (record == nullptr) {
        return Status::Internal("Cancel: no in-context object");
      }
      // A Blocker/Blocked object names its transaction even when its
      // statement has finished (a null `query`).
      const uint64_t txn_id =
          action.source_class == MonitoredClass::kQuery
              ? static_cast<const QueryRecord*>(record)->txn_id
              : static_cast<const BlockEventView*>(record)->txn_id;
      // Resolve through the transaction manager rather than the raw
      // pointer: the transaction may have finished since the record was
      // assembled.
      txn::Transaction* txn = db_->txn_manager()->FindActive(txn_id);
      if (txn != nullptr) txn->Cancel();
      return Status::OK();
    }
    case ActionKind::kSetTimer: {
      std::string name = action.timer_name;
      if (name.empty()) {
        const void* record = ctx->Bound(MonitoredClass::kTimer);
        if (record == nullptr) {
          return Status::Internal("Set: no in-context timer");
        }
        name = static_cast<const TimerRecord*>(record)->name;
      }
      return timers_.Set(name,
                         static_cast<int64_t>(action.timer_seconds * 1e6),
                         action.timer_repeats);
    }
  }
  return Status::Internal("unhandled action kind");
}

std::string MonitorEngine::SubstituteTemplate(const std::string& text,
                                              EvalContext* ctx) {
  std::string out;
  out.reserve(text.size());
  size_t pos = 0;
  while (pos < text.size()) {
    const size_t open = text.find('{', pos);
    if (open == std::string::npos) {
      out.append(text, pos, std::string::npos);
      break;
    }
    out.append(text, pos, open - pos);
    const size_t close = text.find('}', open);
    if (close == std::string::npos) {
      out.append(text, open, std::string::npos);
      break;
    }
    const std::string ref = text.substr(open + 1, close - open - 1);
    pos = close + 1;
    const size_t dot = ref.find('.');
    bool substituted = false;
    if (dot != std::string::npos) {
      const std::string qualifier = ref.substr(0, dot);
      const std::string name = ref.substr(dot + 1);
      auto cls = ParseMonitoredClassName(qualifier);
      if (cls.ok() && *cls != MonitoredClass::kEvicted) {
        const void* record = ctx->Bound(*cls);
        const int attr = ObjectSchema::Get().FindAttribute(*cls, name);
        if (record != nullptr && attr >= 0) {
          out += ObjectSchema::Get()
                     .GetValue(*cls, attr, record)
                     .ToDisplayString();
          substituted = true;
        }
      } else if (cls.ok() && ctx->evicted_lat != nullptr &&
                 ctx->evicted_row != nullptr) {
        const int col = ctx->evicted_lat->FindColumn(name);
        if (col >= 0) {
          out += (*ctx->evicted_row)[static_cast<size_t>(col)]
                     .ToDisplayString();
          substituted = true;
        }
      } else {
        Lat* lat = FindLat(qualifier);
        if (lat != nullptr) {
          const int col = lat->FindColumn(name);
          const void* record = ctx->Bound(lat->spec().object_class);
          Row row;
          if (col >= 0 && record != nullptr &&
              lat->LookupForObject(record, ctx->now_micros, &row)) {
            out += row[static_cast<size_t>(col)].ToDisplayString();
            substituted = true;
          }
        }
      }
    }
    if (!substituted) {
      out += "{" + ref + "}";
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Deferred events
// ---------------------------------------------------------------------------

void MonitorEngine::HandleEviction(Lat* lat, Row evicted) {
  // Only called while a Lat.Evict rule listens (the LAT's evict gate).
  if (RuleDepth() > 0) {
    PendingEviction eviction{lat, std::move(evicted)};
    if (spans_.enabled()) {
      const TraceFrame& frame = CurrentTraceFrame();
      if (frame.active && frame.engine == this) {
        eviction.parent_span = frame.parent_span;
        eviction.depth = frame.depth;
      }
    }
    PendingEvictions().push_back(std::move(eviction));
    return;
  }
  EvalContext ctx;
  ctx.evicted_lat = lat;
  ctx.evicted_row = &evicted;
  FireEvent(EventKind::kLatEvict, lat->lower_name(), &ctx);
}

void MonitorEngine::HandleTimerAlarm(const TimerRecord& timer) {
  EvalContext ctx;
  ctx.Bind(MonitoredClass::kTimer, &timer);
  FireEvent(EventKind::kTimerAlarm, ToLower(timer.name), &ctx);
}

// ---------------------------------------------------------------------------
// Causal span plane & metrics exposition
// ---------------------------------------------------------------------------

void MonitorEngine::set_span_sampling(double rate) {
  rate = std::clamp(rate, 0.0, 1.0);
  span_sample_threshold_.store(
      static_cast<uint32_t>(rate * kSpanSampleScale),
      std::memory_order_relaxed);
}

double MonitorEngine::span_sample_rate() const {
  return static_cast<double>(
             span_sample_threshold_.load(std::memory_order_relaxed)) /
         kSpanSampleScale;
}

bool MonitorEngine::SampleTrace(uint64_t seq) const {
  const uint32_t threshold =
      span_sample_threshold_.load(std::memory_order_relaxed);
  if (threshold >= kSpanSampleScale) return true;
  if (threshold == 0) return false;
  // Cheap multiplicative hash decorrelates the decision from event-arrival
  // patterns (plain `seq % N` would alias with periodic workloads).
  const uint64_t h = seq * 0x9E3779B97F4A7C15ull;
  return (h >> 44) < threshold;
}

void MonitorEngine::EmitSpan(TraceFrame* frame, const obs::Span& span) {
  spans_.Record(span);
  if (frame->spans.size() < kMaxSpansPerTrace) {
    frame->spans.push_back(span);
  } else {
    frame->overflowed = true;
  }
}

Status MonitorEngine::ExportMetricsNow(const std::string& path) {
  Status status =
      storage::WriteFileAtomic(path, metrics_.registry.DumpPrometheus());
  if (status.ok()) {
    metrics_.metrics_exports.Inc();
  } else {
    RecordError(status);
  }
  return status;
}

void MonitorEngine::ExporterLoop() {
  const auto interval = std::chrono::duration<double>(
      options_.metrics_export_interval_secs);
  std::unique_lock<std::mutex> lock(exporter_mutex_);
  while (!exporter_stop_) {
    exporter_cv_.wait_for(lock, interval, [this] { return exporter_stop_; });
    if (exporter_stop_) break;
    lock.unlock();
    (void)ExportMetricsNow(options_.metrics_export_path);
    lock.lock();
  }
}

}  // namespace sqlcm::cm
