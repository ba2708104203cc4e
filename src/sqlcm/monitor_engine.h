// MonitorEngine: the SQLCM continuous-monitoring engine (paper Figure 1).
//
// Implements the engine's instrumentation hooks (engine::MonitorHooks) and
// the lock manager's conflict observer, assembles monitored objects from
// probes, dispatches ECA rules, and owns the LATs, timers and action
// backends. Rules run in two lanes: sync, in the triggering thread, and
// deferred, in the monitor worker pool (Options::async_rule_eval). One
// routine (DispatchRun) decides every event of both: a sync event is a run
// of one event, a drained batch is cut into runs of same-kind events. It
// walks each rule's conjuncts in authoring order with naive AND semantics
// and concludes the rule with ConcludeRule.
//
// Threading: hook methods run concurrently in session threads. The
// dispatch hot path takes no lock and writes no cache line another session
// writes: each thread dispatches from its own cached snapshot of the
// compiled rule table, refreshed only when the table's version moves, and
// the counters a rule visit bumps are striped per thread. The registry
// mutex guards only the (cold) DBA surface, which rebuilds and republishes
// the table on every change ("rules can be added and removed dynamically",
// §3). LATs use their own fine-grained sharded latches (see lat.h).
#ifndef SQLCM_SQLCM_MONITOR_ENGINE_H_
#define SQLCM_SQLCM_MONITOR_ENGINE_H_

#include <array>
#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "engine/database.h"
#include "engine/monitor_hooks.h"
#include "obs/error_ring.h"
#include "obs/span_ring.h"
#include "obs/trace_ring.h"
#include "sqlcm/actions_io.h"
#include "sqlcm/event_queue.h"
#include "sqlcm/lat.h"
#include "sqlcm/load_governor.h"
#include "sqlcm/monitor_metrics.h"
#include "sqlcm/predicate_index.h"
#include "sqlcm/rule.h"
#include "sqlcm/schema.h"
#include "sqlcm/timer.h"

namespace sqlcm::cm {

class SystemViews;
/// Per-thread causal-trace bookkeeping (defined in monitor_engine.cc).
struct TraceFrame;
/// Per-(thread, dispatch depth) working set of DispatchRun (defined in
/// monitor_engine.cc).
struct DispatchScratch;

/// Fault-injection point honoured by every instrumented hook
/// (common/fault.h): `slow` sleeps the hook for kFaultHookSlowMicros,
/// inflating measured overhead — the chaos lever that drives the
/// LoadGovernor in tests and CI.
inline constexpr char kFaultHookSlow[] = "monitor.hook.slow";
inline constexpr int64_t kFaultHookSlowMicros = 1000;

class MonitorEngine final : public engine::MonitorHooks,
                            public txn::LockEventObserver,
                            public LatResolver {
 public:
  struct Options {
    /// Action backends; null selects internal capturing implementations.
    Mailer* mailer = nullptr;
    ProcessLauncher* launcher = nullptr;
    /// Spawn the 1ms timer-polling thread. Tests usually poll manually.
    bool start_timer_thread = false;
    /// Register the sqlcm_* virtual system views in the database catalog.
    bool register_system_views = true;
    /// Event-trace ring capacity (rounded up to a power of two).
    size_t trace_capacity = 1024;
    /// Span-ring capacity for the causal tracing plane (rounded up to a
    /// power of two). The ring starts disabled, like the event trace.
    size_t span_capacity = 4096;
    /// Fraction [0, 1] of events whose traces record child spans (rule
    /// conditions, actions, LAT upserts) and feed the sqlcm_profile
    /// attribution. Root event spans are always recorded while the span
    /// ring is enabled.
    double span_sample_rate = 1.0;
    /// How many of the most expensive traces sqlcm_slow_events retains
    /// whole (every span) as exemplars.
    size_t slow_trace_k = 8;
    /// When non-empty and the interval is positive, a background thread
    /// dumps the metrics registry in Prometheus text exposition to this
    /// path (atomic tempfile+rename) every interval.
    std::string metrics_export_path;
    double metrics_export_interval_secs = 0;
    /// Time per-rule action latency and per-LAT upsert latency (one extra
    /// clock read each). Off by default to keep fired-rule dispatch at one
    /// clock read per event (paper §6, experiment E2).
    bool detailed_timing = false;
    /// Quarantine thresholds applied to every rule's circuit breaker.
    RuleBreaker::Options breaker;
    /// Alert-storm cap applied to every rule's SendMail/Persist actions
    /// (suppressions surface in sqlcm_rule_stats.actions_suppressed).
    /// Disabled by default: max_actions = 0 admits everything.
    ActionRateLimiter::Options action_rate_limit;
    /// Opt-in overload sampling of deferrable rules (docs/ROBUSTNESS.md
    /// §"Graceful degradation"); off by default.
    LoadGovernor::Options governor;
    /// CheckpointLat retry policy for transient snapshot-write failures.
    int persist_attempts = 3;
    int64_t persist_backoff_micros = 1000;
    /// Deferred-evaluation pipeline (docs/PERFORMANCE.md §Async pipeline).
    /// When on, rules classified deferrable at CREATE RULE time are
    /// evaluated by the monitor worker pool off the query thread; the hook
    /// only enqueues a fixed-size event record. Inline rules (Cancel
    /// actions, non-terminal events, class iteration) keep today's
    /// synchronous path either way.
    bool async_rule_eval = false;
    /// Worker threads draining the event queue. With 1 worker drain order
    /// is FIFO; more workers may interleave events, which is visible only
    /// to order-sensitive aggregates (FIRST/LAST) across concurrent events.
    size_t monitor_threads = 1;
    /// Event-queue capacity (rounded up to a power of two). A hook that
    /// finds the queue full waits for space; the wait counts as hook time,
    /// so the governor sees it.
    size_t event_queue_capacity = 8192;
    /// Max events a worker pops per drain; also the LAT insert batch bound.
    size_t drain_batch_size = 256;
    /// Shared predicate index (docs/PERFORMANCE.md §"Predicate index").
    /// When on, conditions of rules sharing an event are decomposed into
    /// canonicalized conjuncts evaluated at most once per event, with
    /// memoized three-valued outcomes fanned out to every subscriber, and
    /// rules sharing an attribute-only first conjunct are rejected as one
    /// access group (§"Subscription dispatch"). Off = exactly the
    /// historical per-rule evaluation path (differential-oracle toggle).
    /// Either way each rule's conjuncts run in authoring order, and fires,
    /// errors and error text are the same.
    bool predicate_index = true;
  };

  /// Attaches to `db` (registers the hook interface and lock observer).
  MonitorEngine(engine::Database* db, Options options);
  explicit MonitorEngine(engine::Database* db)
      : MonitorEngine(db, Options()) {}
  ~MonitorEngine() override;

  MonitorEngine(const MonitorEngine&) = delete;
  MonitorEngine& operator=(const MonitorEngine&) = delete;

  // -- DBA surface: LATs ----------------------------------------------------

  common::Status DefineLat(LatSpec spec);
  /// Refuses while any rule references the LAT.
  common::Status DropLat(std::string_view name);
  Lat* FindLat(std::string_view name) const override;
  std::vector<std::string> LatNames() const;

  /// Persists a LAT to an engine table (creating the table on first use
  /// with the LAT's columns plus a trailing INT timestamp column).
  common::Status PersistLat(std::string_view lat_name,
                            const std::string& table_name);
  /// Seeds a LAT from a previously persisted table (restart continuity).
  common::Status SeedLat(std::string_view lat_name,
                         const std::string& table_name);

  /// Crash-safe file checkpoint of a LAT: exports the raw aggregation
  /// state (moments + aging blocks) through a transient staging table into
  /// a checksummed atomic snapshot (storage/table_io) — v3 when the LAT
  /// carries sketch aggregates (their records hold extra `#sketch` cells),
  /// v2 otherwise — retrying transient write failures per
  /// Options::persist_attempts. Lossless:
  /// RestoreLat reproduces every aggregate — including STDEV and
  /// mid-window aging variants — bit-exactly.
  common::Status CheckpointLat(std::string_view lat_name,
                               const std::string& file_path);
  /// Restores a LAT from a CheckpointLat snapshot of the LAT's own state
  /// version (v3 with sketch aggregates, v2 without), exactly
  /// (Lat::ImportState). A primary snapshot that is corrupt, truncated, of
  /// another version or without a snapshot header falls back to the
  /// rotated `.bak` copy; the recovery is counted
  /// (robustness.persist_fallbacks) and reported via the error ring.
  common::Status RestoreLat(std::string_view lat_name,
                            const std::string& file_path);

  // -- DBA surface: rules -----------------------------------------------------

  /// Compiles and activates a rule; returns its id. Rules for one event
  /// fire in activation order (paper §5: fixed evaluation order).
  common::Result<uint64_t> AddRule(const RuleSpec& spec);
  common::Status RemoveRule(uint64_t rule_id);
  common::Status SetRuleEnabled(uint64_t rule_id, bool enabled);
  size_t rule_count() const;

  /// Force-closes a quarantined rule's circuit breaker (operator override;
  /// the breaker also re-admits itself via half-open probing after its
  /// cooldown).
  common::Status ReinstateRule(uint64_t rule_id);

  // -- DBA surface: timers ----------------------------------------------------

  common::Status CreateTimer(const std::string& name);
  common::Status SetTimer(const std::string& name, double interval_seconds,
                          int64_t repeats);
  bool IsTimerName(std::string_view name) const override;
  TimerManager* timer_manager() { return &timers_; }

  // -- Introspection ----------------------------------------------------------

  CapturingMailer* capturing_mailer() { return &default_mailer_; }
  CapturingLauncher* capturing_launcher() { return &default_launcher_; }
  size_t active_query_count() const;
  uint64_t events_processed() const {
    return metrics_.events_processed.value();
  }
  uint64_t rules_fired() const { return metrics_.rules_fired.value(); }
  /// Most recent rule-processing error (rules never fail the server; errors
  /// are recorded here). Empty when none.
  std::string last_error() const { return errors_.MostRecent(); }

  // -- Observability ----------------------------------------------------------

  const MonitorMetrics& metrics() const { return metrics_; }
  obs::TraceRing* trace_ring() { return &trace_; }
  const obs::TraceRing& trace_ring() const { return trace_; }
  obs::SpanRing* span_ring() { return &spans_; }
  const obs::SpanRing& span_ring() const { return spans_; }
  obs::SlowTraceTable* slow_traces() { return &slow_traces_; }
  const obs::SlowTraceTable& slow_traces() const { return slow_traces_; }
  LoadGovernor* governor() { return &governor_; }
  const LoadGovernor& governor() const { return governor_; }

  /// Adjusts the per-event child-span sampling rate (see
  /// Options::span_sample_rate) at runtime.
  void set_span_sampling(double rate);
  double span_sample_rate() const;

  /// Dumps the whole metrics registry in Prometheus text exposition to
  /// `path` through an atomic tempfile+rename write (storage/table_io), so
  /// a scraper never observes a partial file. Also runs periodically when
  /// Options::metrics_export_path / metrics_export_interval_secs are set.
  common::Status ExportMetricsNow(const std::string& path);

  std::vector<obs::ErrorRing::Entry> recent_errors() const {
    return errors_.Snapshot();
  }
  uint64_t total_errors() const { return errors_.total(); }
  /// Errors evicted from the recent-error ring by newer entries.
  uint64_t dropped_errors() const { return errors_.dropped(); }

  void set_detailed_timing(bool on) {
    detailed_timing_.store(on, std::memory_order_relaxed);
  }
  bool detailed_timing() const {
    return detailed_timing_.load(std::memory_order_relaxed);
  }

  /// Blocks until every enqueued deferred event has been fully processed
  /// (queue empty and no worker mid-batch). No-op when the async pipeline
  /// is off. Tests and teardown use this as the sync barrier; it must not
  /// be called while holding registry_mutex_.
  void DrainEventQueue();

  /// Deferred-event queue depth / capacity (0 when the pipeline is off).
  size_t event_queue_depth() const {
    return event_queue_ ? event_queue_->ApproxDepth() : 0;
  }
  size_t event_queue_capacity() const {
    return event_queue_ ? event_queue_->capacity() : 0;
  }

  /// Stable snapshots for the system views (short registry lock; the
  /// shared_ptrs keep rules/LATs alive across concurrent Remove/Drop).
  std::vector<std::shared_ptr<const CompiledRule>> SnapshotRules() const;
  std::vector<std::shared_ptr<const Lat>> SnapshotLats() const;

  /// One sqlcm_rule_predicate_stats row: a shared predicate of one
  /// (event kind, dispatch lane) index with its evaluation counts.
  struct PredicateStatRow {
    const char* event = "";
    const char* lane = "";  // "sync" | "deferred"
    std::string text;
    uint64_t hash = 0;
    uint64_t subscribers = 0;
    uint64_t evals = 0;
    uint64_t passes = 0;
  };
  /// Walk of the current rule table's indexes (pinned for the walk).
  std::vector<PredicateStatRow> SnapshotPredicateStats() const;

  // -- engine::MonitorHooks ----------------------------------------------------

  void OnStatementCompiled(engine::CachedPlan* plan) override;
  void OnQueryStart(const engine::QueryInfo& info) override;
  void OnQueryCommit(const engine::QueryInfo& info) override;
  void OnQueryCancel(const engine::QueryInfo& info) override;
  void OnQueryRollback(const engine::QueryInfo& info) override;
  void OnTransactionBegin(uint64_t session_id, txn::TxnId txn_id) override;
  void OnTransactionCommit(uint64_t session_id, txn::TxnId txn_id,
                           int64_t duration_micros) override;
  void OnTransactionRollback(uint64_t session_id, txn::TxnId txn_id,
                             int64_t duration_micros) override;
  txn::LockEventObserver* lock_event_observer() override { return this; }

  // -- txn::LockEventObserver ---------------------------------------------------

  void OnBlocked(txn::TxnId blocked, txn::TxnId blocker,
                 const txn::ResourceId& resource) override;
  void OnBlockReleased(txn::TxnId blocked, txn::TxnId blocker,
                       const txn::ResourceId& resource,
                       int64_t wait_micros) override;

 private:
  using RuleList = std::vector<std::shared_ptr<const CompiledRule>>;

  struct RuleTable {
    /// Rules evaluated synchronously in the hook thread. When the async
    /// pipeline is off, ALL enabled rules live here (classification is
    /// still computed and visible, but dispatch order stays exactly the
    /// pre-pipeline activation order).
    std::array<RuleList, kNumEventKinds> by_event;
    /// Deferrable rules drained by the worker pool (populated only while
    /// Options::async_rule_eval is on).
    std::array<RuleList, kNumEventKinds> deferred_by_event;
    /// The non-deferrable rules, in by_event order: what a sampled-out
    /// event still dispatches (dispatched without the index). With the
    /// async pipeline on this equals by_event.
    std::array<RuleList, kNumEventKinds> inline_by_event;
    /// Shared-conjunct indexes, positionally parallel to the rule vectors
    /// above; built only while Options::predicate_index is on. Part of the
    /// same published snapshot so dispatch always sees rules and index
    /// agree.
    std::array<PredicateIndex, kNumEventKinds> sync_index;
    std::array<PredicateIndex, kNumEventKinds> deferred_index;
    /// What the deferred drain precomputes per deferred_by_event list.
    struct DeferredPlan {
      /// Some rule Resets a LAT: the list drains one event at a time, with
      /// each rule's actions, inserts included, run at its turn.
      bool has_reset = false;
      /// Per rule position: every action is an Insert.
      std::vector<uint8_t> insert_only;
      /// One LAT the list's Insert actions feed, with its feeders in rule
      /// order: (rule position, Inserts into the LAT per firing).
      struct Feed {
        Lat* lat = nullptr;
        std::vector<std::pair<uint32_t, uint32_t>> feeders;
      };
      std::vector<Feed> feeds;  // first-appearance (rule, action) order
    };
    std::array<DeferredPlan, kNumEventKinds> deferred_plans;
  };

  /// How a rule visit's condition was decided before ConcludeRule.
  enum class Decision : uint8_t {
    kFire,
    kReject,
    kEvaluate,  // run the naive evaluator now (no index verdict, or error)
  };

  /// The event span a dispatch opened (all null/0 when spans are off).
  struct EventSpan {
    TraceFrame* frame = nullptr;
    bool root = false;
    uint64_t id = 0;
    uint64_t saved_parent = 0;
    uint8_t depth = 0;
  };

  void RebuildRuleTableLocked();

  /// Publishes `table` as the current dispatch table and moves the version
  /// so every thread refreshes its snapshot at its next outermost event.
  void PublishRuleTable(std::shared_ptr<const RuleTable> table);
  /// The current table, pinned by the returned reference (cold paths).
  std::shared_ptr<const RuleTable> LoadRuleTable() const;
  /// The calling thread's snapshot of the dispatch table. Refreshed only at
  /// RuleDepth() == 0, so a nested (eviction cascade) dispatch keeps the
  /// table its outer frames are iterating. `pin` takes ownership when the
  /// snapshot cannot be cached (nested dispatch on an uncached engine).
  const RuleTable& ThreadRuleTable(std::shared_ptr<const RuleTable>* pin);

  /// Sync-lane entry for one event: asks the governor whether it is
  /// sampled out, enqueues it for the deferred lane when deferrable rules
  /// listen, and dispatches the sync-lane rules as a run of one event
  /// (DispatchRun). A sampled-out event skips the enqueue and dispatches
  /// only inline_by_event. `query_keepalive` / `txn_keepalive` carry the
  /// bound record's owning reference for terminal events so the async
  /// pipeline can evaluate the event after the registries drop it.
  void FireEvent(EventKind kind, const std::string& qualifier,
                 EvalContext* base_ctx,
                 std::shared_ptr<QueryRecord> query_keepalive = nullptr,
                 std::shared_ptr<TransactionRecord> txn_keepalive = nullptr);
  /// Opens an event span at `start_nanos` (rooting a trace when none is
  /// active on this thread); a non-zero `enqueue_nanos` adds the deferred
  /// lane's queue_wait child. With spans off it drops a stale frame.
  EventSpan OpenEventSpan(EventKind kind, const std::string& qualifier,
                          uint64_t seq, bool sampled, int64_t start_nanos,
                          int64_t enqueue_nanos);
  /// Closes `span` as [start_nanos, end) and restores the frame's parent.
  void CloseEventSpan(const EventSpan& span, EventKind kind,
                      const std::string& qualifier, int64_t start_nanos,
                      int64_t end);
  /// Offers a root span's finished trace to the slow-trace table.
  void FinishTrace(const EventSpan& span);
  /// Outermost dispatch on the thread: dispatches the queued Lat.Evict
  /// events (paper §5) in FIFO order, re-seating `frame` under each
  /// eviction's causing action.
  void DrainPendingEvictions(TraceFrame* frame);
  /// Unbound-class iteration (paper §5.2) for one rule: runs it once per
  /// combination of live objects of the classes the event did not bind,
  /// each time through the breaker gate and ConcludeRule. Returns the
  /// number of firings.
  uint32_t RunIteratingRule(const CompiledRule& rule, EvalContext* base_ctx,
                            TraceFrame* frame);

  // -- Deferred-evaluation pipeline (event_queue.h) ---------------------------

  /// Enqueues one deferred event, waiting for space when the queue is full.
  void EnqueueDeferred(DeferredEvent&& ev);
  /// Worker thread body: batch-pop and process until shutdown + drained.
  void MonitorWorkerLoop();
  /// Cuts one drained batch into runs (DispatchRun) against one table
  /// snapshot; `ctxs` holds one context per event.
  void ProcessDeferredBatch(DeferredEvent* events, EvalContext* ctxs,
                            size_t count);
  /// The one dispatch routine of both lanes: decides `rules` for a run of
  /// `n` same-kind events, event i evaluated under ctxs[i]
  /// (docs/PERFORMANCE.md §"Async pipeline"). The sync lane passes each
  /// event as a run of one with no `plan`; the deferred lane passes the
  /// runs of a drained batch with their list's plan. `index` is null when
  /// indexing is off; with one, the subscription matcher first rejects
  /// whole access groups per event, and only the rules of the groups some
  /// event keeps, plus the ungrouped ones, are visited (predicate_index.h).
  /// A rule whose event qualifier differs from `qualifier` is skipped.
  ///
  /// An immediate run (no plan, or a plan whose list Resets a LAT) decides
  /// each rule at its turn and runs its actions, inserts included, right
  /// away, under one event span opened at `start_nanos`. Otherwise
  /// conditions are walked rule-major over the run's event bitmaps, each
  /// distinct predicate once per event; a rule whose breaker is closed,
  /// whose actions are all Inserts and whose walk saw no error is
  /// accounted with one add per counter, every other rule is concluded per
  /// event, event-major; on a span-sampled event every rule is concluded at
  /// its turn, with spans; then each LAT folds the events its feeders
  /// selected. Either way the outermost dispatch on the thread then drains
  /// the Lat.Evict events raised meanwhile (paper §5).
  void DispatchRun(const DeferredEvent* events, EvalContext* ctxs, size_t n,
                   const std::string& qualifier, const RuleList& rules,
                   const PredicateIndex* index,
                   const RuleTable::DeferredPlan* plan, int64_t start_nanos);
  /// Roots each event of a finished run in its own trace (the sampled
  /// events' traces held since their turn), with an event span of the
  /// event's share of the run's time, and offers it to the slow-trace
  /// table.
  void CloseRunTraces(DispatchScratch& s, const DeferredEvent* events,
                      size_t n, const std::string& qualifier,
                      int64_t start_nanos);
  /// Folds each LAT `plan` feeds with the run's fired events, mapping
  /// each (group shape, selection) once (Lat::MapBatch, Lat::FoldBatch).
  void FoldRun(DispatchScratch& s, const DeferredEvent* events,
               const EvalContext* ctxs, size_t n,
               const RuleTable::DeferredPlan& plan);
  /// Concludes an admitted visit (evaluations already counted) whose
  /// condition was decided as `decision`: counts the outcome, runs the
  /// actions and feeds the breaker. `frame` is non-null only when the
  /// trace is sampled for profiling: condition/action child spans are
  /// emitted and self-time is attributed to the rule. With `fold_inserts`
  /// (deferred runs) an Insert action only checks that its record is bound;
  /// the run folds it afterwards. Returns true when the rule fired.
  bool ConcludeRule(const CompiledRule& rule, EvalContext* ctx,
                    TraceFrame* frame, Decision decision, bool fold_inserts);
  common::Status ExecuteAction(const CompiledAction& action, EvalContext* ctx,
                               TraceFrame* frame);
  common::Status PersistRowToTable(const std::string& table_name,
                                   const std::vector<std::string>& col_names,
                                   const std::vector<common::ValueKind>& kinds,
                                   common::Row row);
  common::Result<storage::Table*> EnsureTable(
      const std::string& table_name, const std::vector<std::string>& col_names,
      const std::vector<common::ValueKind>& kinds);

  /// Template substitution for SendMail/RunExternal bodies: replaces
  /// {Class.Attribute} and {Lat.Column} with display values from `ctx`.
  std::string SubstituteTemplate(const std::string& text, EvalContext* ctx);

  void HandleEviction(Lat* lat, common::Row evicted);
  void HandleTimerAlarm(const TimerRecord& timer);
  void RecordError(const common::Status& status);

  /// True when event `seq` gets child spans + profiling attribution.
  bool SampleTrace(uint64_t seq) const;
  /// Engine-wide unique span id; never returns 0 (0 = "no parent").
  uint64_t NewSpanId() {
    return next_span_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  }
  /// Records `span` in the ring and buffers it in `frame` for the slow-trace
  /// exemplar table (bounded; overflow is counted, not fatal).
  void EmitSpan(TraceFrame* frame, const obs::Span& span);
  void ExporterLoop();

  /// Feeds a failed evaluation into the rule's circuit breaker; records the
  /// quarantine when it trips.
  void NoteRuleFailure(const CompiledRule& rule, int64_t now_micros);

  // Query/transaction registries.
  std::shared_ptr<QueryRecord> FindActiveQueryRecord(uint64_t query_id) const;
  std::shared_ptr<QueryRecord> CurrentQueryOfTxn(txn::TxnId txn_id) const;
  void FinishQuery(const engine::QueryInfo& info, EventKind terminal_event);

  /// True when at least one rule exists (events are no-ops otherwise;
  /// paper §2.1: "no monitoring is performed unless it is required").
  bool MonitoringActive() const {
    return monitoring_active_.load(std::memory_order_acquire);
  }

  engine::Database* db_;
  Options options_;
  Mailer* mailer_;
  ProcessLauncher* launcher_;
  CapturingMailer default_mailer_;
  CapturingLauncher default_launcher_;
  TimerManager timers_;

  mutable std::mutex registry_mutex_;  // lats_, rules_ (writers of rule_table_)
  std::unordered_map<std::string, std::shared_ptr<Lat>> lats_;  // lower name
  std::vector<std::shared_ptr<CompiledRule>> rules_;            // fixed order
  /// Publication of the compiled dispatch table: writers rebuild under
  /// registry_mutex_ and swap it under rule_table_mutex_, bumping
  /// rule_table_version_. Dispatch threads keep a per-thread snapshot keyed
  /// by engine_id_ (ThreadRuleTable) and take the mutex only to refresh
  /// after the version moved; a replaced table is freed once every thread
  /// holding it has refreshed (or exited).
  mutable std::mutex rule_table_mutex_;
  std::shared_ptr<const RuleTable> rule_table_;  // guarded by the mutex
  std::atomic<uint64_t> rule_table_version_{1};
  /// Process-unique, never reused (addresses are, across engine lifetimes).
  const uint64_t engine_id_;
  /// Per-predicate evaluation counts keyed by canonical hash; consulted at
  /// every index build (under registry_mutex_) so the counts in
  /// sqlcm_rule_predicate_stats stay cumulative across CREATE/DROP RULE.
  /// Entries are never dropped — the predicate universe is bounded by rule
  /// text ever created.
  PredicateStatsRegistry predicate_stats_;
  /// Rule breakers currently open or half-open (RuleBreaker::WatchState).
  /// While zero, dispatch rejects access groups without looking at their
  /// members' breakers.
  std::atomic<int64_t> breakers_not_closed_{0};
  /// Lock-free per-event fast path: FireEvent returns without touching the
  /// registry mutex when no enabled rule listens to the event kind. The
  /// kLatEvict flag also gates every LAT's victim materialization.
  std::array<std::atomic<bool>, kNumEventKinds> has_rules_{};
  uint64_t next_rule_id_ = 1;
  std::atomic<bool> monitoring_active_{false};
  // Probe-scope gates (paper §2.1: only gather what active rules need):
  // transaction records / signature sequences are maintained only when a
  // rule references the Transaction class; per-transaction last-query
  // bookkeeping (blocker attribution) only when a rule listens to lock
  // conflicts or iterates Blocker/Blocked.
  std::atomic<bool> track_transactions_{false};
  std::atomic<bool> track_blocking_{false};
  // Global active-query registry needed only for unbound-Query iteration,
  // blocking attribution, or the concurrency probe; otherwise a
  // thread-local stack carries the record from Start to the terminal hook.
  std::atomic<bool> track_registry_{false};
  std::atomic<bool> track_concurrency_{false};

  mutable std::mutex objects_mutex_;  // registries below
  std::unordered_map<uint64_t, std::shared_ptr<QueryRecord>> active_queries_;
  std::unordered_map<txn::TxnId, std::vector<std::shared_ptr<QueryRecord>>>
      txn_query_stack_;
  std::unordered_map<txn::TxnId, std::shared_ptr<QueryRecord>> txn_last_query_;
  std::unordered_map<txn::TxnId, std::shared_ptr<TransactionRecord>>
      active_txns_;
  // Blocker captured at block time, keyed by the blocked transaction: the
  // blocker's transaction may commit (and leave the registries) before the
  // waiter thread reports Block_Released.
  std::unordered_map<txn::TxnId, std::shared_ptr<QueryRecord>>
      blocker_at_block_time_;

  // Observability state. metrics_ instruments are updated lock-free from
  // hook threads; errors_ has its own internal mutex (error path only).
  MonitorMetrics metrics_;
  obs::TraceRing trace_;
  obs::ErrorRing errors_{16};
  std::atomic<bool> detailed_timing_{false};

  // Causal tracing plane. The span ring and slow-trace table are written
  // lock-free from hook threads; the sampling threshold is Options::
  // span_sample_rate scaled to [0, kSpanSampleScale].
  obs::SpanRing spans_;
  obs::SlowTraceTable slow_traces_;
  std::atomic<uint32_t> span_sample_threshold_{0};
  std::atomic<uint64_t> next_span_id_{0};

  // Periodic Prometheus exporter (runs only when configured in Options).
  std::thread exporter_thread_;
  std::mutex exporter_mutex_;
  std::condition_variable exporter_cv_;
  bool exporter_stop_ = false;

  // Opt-in overload sampling (robustness layer).
  LoadGovernor governor_;
  std::atomic<uint64_t> event_seq_{0};
  /// Per-kind sequence of the events the governor samples.
  std::array<std::atomic<uint64_t>, kNumEventKinds> sample_seq_{};

  // Deferred-evaluation pipeline: the bounded MPMC queue, its worker pool,
  // and the drain barrier (in-flight batch count + condvar) used by
  // DrainEventQueue / DropLat / teardown.
  std::unique_ptr<EventQueue> event_queue_;
  std::vector<std::thread> workers_;
  std::atomic<bool> workers_stop_{false};
  std::atomic<int> batches_in_flight_{0};
  std::mutex drain_mutex_;
  std::condition_variable drain_cv_;

  /// The sqlcm_* virtual tables; owns their catalog lifetime. Declared
  /// last so view refreshes stop before anything else is torn down.
  std::unique_ptr<SystemViews> views_;
};

}  // namespace sqlcm::cm

#endif  // SQLCM_SQLCM_MONITOR_ENGINE_H_
