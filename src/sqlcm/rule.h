// ECA rules (paper §5): events, the condition expression language, actions,
// and rule compilation.
//
// Rules are specified as text in the paper's style:
//   Event:     Query.Commit
//   Condition: Query.Duration > 5 * Duration_LAT.Avg_Duration
//   Action:    Query.Persist(Outliers, Query_Text, Duration)
// and compiled against the object schema and the currently defined LATs
// into fast dispatchable form. The language deliberately stays small
// (paper §5: "the expressiveness of the rule language is limited to a
// relatively small set of common operations"); anything more complex is
// expected to post-process persisted tables.
#ifndef SQLCM_SQLCM_RULE_H_
#define SQLCM_SQLCM_RULE_H_

#include <array>
#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/value.h"
#include "obs/metrics.h"
#include "sqlcm/lat.h"
#include "sqlcm/schema.h"

namespace sqlcm::cm {

// ---------------------------------------------------------------------------
// Events
// ---------------------------------------------------------------------------

enum class EventKind : uint8_t {
  kQueryStart = 0,
  kQueryCommit,
  kQueryCancel,
  kQueryRollback,
  kQueryBlocked,
  kQueryBlockReleased,
  kTransactionBegin,
  kTransactionCommit,
  kTransactionRollback,
  kTimerAlarm,  // qualifier: timer name ("" = any timer)
  kLatEvict,    // qualifier: LAT name
};
inline constexpr size_t kNumEventKinds = 11;

struct EventKey {
  EventKind kind = EventKind::kQueryCommit;
  std::string qualifier;  // lower-cased timer/LAT name; empty otherwise
};

const char* EventKindName(EventKind kind);

/// Classes bound (available in context) when an event of this kind fires.
std::vector<MonitoredClass> EventBoundClasses(EventKind kind);

// ---------------------------------------------------------------------------
// Condition expressions
// ---------------------------------------------------------------------------

/// Per-evaluation context: which concrete objects are in context, plus the
/// lazily resolved LAT rows for this object combination.
struct EvalContext {
  std::array<const void*, kNumMonitoredClasses> bound = {};
  int64_t now_micros = 0;

  // kLatEvict events: the evicted row and its LAT.
  const Lat* evicted_lat = nullptr;
  const common::Row* evicted_row = nullptr;

  /// Set when a referenced LAT has no row matching the in-context object;
  /// the paper's implicit ∃ then makes the whole condition false (§5.2).
  bool lat_row_missing = false;

  /// Cache of resolved LAT rows for this evaluation.
  struct LatRowEntry {
    const Lat* lat;
    bool present;
    common::Row row;
  };
  std::vector<LatRowEntry> lat_rows;

  const void* Bound(MonitoredClass cls) const {
    return bound[static_cast<size_t>(cls)];
  }
  void Bind(MonitoredClass cls, const void* record) {
    bound[static_cast<size_t>(cls)] = record;
  }

  /// Clears all per-event state while keeping `lat_rows` capacity, so a
  /// thread-local context can be reused across events allocation-free.
  void ResetForEvent() {
    bound.fill(nullptr);
    now_micros = 0;
    evicted_lat = nullptr;
    evicted_row = nullptr;
    lat_row_missing = false;
    lat_rows.clear();
  }
};

/// Compiled condition node.
class CmExpr {
 public:
  enum class Kind : uint8_t { kLiteral, kAttrRef, kLatColRef, kUnary, kBinary };

  /// Evaluates with SQL-style three-valued logic. Missing LAT rows set
  /// ctx->lat_row_missing and yield NULL.
  common::Result<common::Value> Eval(EvalContext* ctx) const;

  /// Evaluates the whole condition as the rule predicate: NULL/FALSE/
  /// missing-LAT-row all reject.
  common::Result<bool> EvalCondition(EvalContext* ctx) const;

  /// Appends the classes referenced by attribute refs (with duplicates).
  void CollectClasses(std::vector<MonitoredClass>* classes) const;
  /// Appends the LATs referenced (with duplicates).
  void CollectLats(std::vector<const Lat*>* lats) const;
  /// Appends every (class, attribute index) referenced (with duplicates;
  /// kEvicted refs are skipped — their indexes are LAT columns).
  void CollectAttrRefs(
      std::vector<std::pair<MonitoredClass, int>>* refs) const;

  Kind kind = Kind::kLiteral;
  common::Value literal;
  // kAttrRef
  MonitoredClass cls = MonitoredClass::kQuery;
  int attr_index = -1;  // for kEvicted: column index into the evicted row
  // kLatColRef
  const Lat* lat = nullptr;
  int lat_col = -1;
  // kUnary / kBinary (operators shared with the SQL AST)
  uint8_t unary_op = 0;   // sql::UnaryOp
  uint8_t binary_op = 0;  // sql::BinaryOp
  std::unique_ptr<CmExpr> left;
  std::unique_ptr<CmExpr> right;
};

// ---------------------------------------------------------------------------
// Actions
// ---------------------------------------------------------------------------

enum class ActionKind : uint8_t {
  kInsert,       // Object.Insert(LatName) / Insert(LatName)
  kReset,        // Reset(LatName)
  kPersist,      // Object.Persist(Table[, Attr...]) / LatName.Persist(Table)
  kSendMail,     // SendMail('text', 'address')
  kRunExternal,  // RunExternal('command')
  kCancel,       // Query.Cancel() / Blocker.Cancel() / Blocked.Cancel()
  kSetTimer,     // TimerName.Set(seconds, number_alarms)
};

const char* ActionKindName(ActionKind kind);

inline constexpr size_t kNumActionKinds = 7;

struct CompiledAction {
  ActionKind kind;
  MonitoredClass source_class = MonitoredClass::kQuery;  // object-attached
  Lat* lat = nullptr;        // kInsert/kReset target; kPersist LAT source
  bool lat_source = false;   // kPersist applied to a LAT
  bool evicted_source = false;  // kPersist/kInsert applied to Evicted
  std::string table_name;    // kPersist
  std::vector<int> attr_indexes;       // kPersist(object) column subset
  std::vector<std::string> attr_names;
  std::string text;     // kSendMail body template / kRunExternal command
  std::string address;  // kSendMail
  std::string timer_name;      // kSetTimer ("" = in-context timer)
  double timer_seconds = 0;    // kSetTimer
  int64_t timer_repeats = 0;   // kSetTimer
};

// ---------------------------------------------------------------------------
// Rules
// ---------------------------------------------------------------------------

/// User-facing rule specification (paper-style text fields).
struct RuleSpec {
  std::string name;
  std::string event;      // "Query.Commit", "Timer.Alarm", "MyLat.Evict", ...
  std::string condition;  // empty = always true
  std::string action;     // ';'-separated action list
  /// Evaluation-mode override for the async pipeline:
  ///   ""         auto-classify (deferrable unless paper semantics require
  ///              the query thread — Cancel, non-terminal events, unbound
  ///              class iteration)
  ///   "inline"   force synchronous evaluation on the triggering thread
  ///   "deferred" require deferral; compilation fails when the rule is not
  ///              eligible so the author learns why instead of silently
  ///              getting inline semantics
  std::string eval_mode;
  /// Per-rule override of the engine-wide SendMail/Persist rate limit
  /// (ActionRateLimiter; RULE_LANGUAGE.md "Action rate limiting"). 0 keeps
  /// the engine default; a negative max_actions disables limiting for this
  /// rule. rate_limit_window_micros applies only when rate_limit_max_actions
  /// is > 0 (0 = keep the engine default window).
  int rate_limit_max_actions = 0;
  int64_t rate_limit_window_micros = 0;
};

/// True for event kinds whose rules may be evaluated off the triggering
/// thread: terminal events whose bound record is immutable once fired.
/// Start/begin/block events describe still-live objects, and timer/evict
/// events already run outside query threads — all stay inline.
bool EventKindDeferrable(EventKind kind);

/// Pre-extracted comparison atom for an indexed conjunct: one probe, read
/// borrowed (string attributes compare in place), against a constant,
/// evaluated without the tree interpreter.
struct FastAtom {
  const AttributeDef* attr = nullptr;
  MonitoredClass cls = MonitoredClass::kQuery;
  uint8_t op = 0;  // sql::BinaryOp (comparison subset)
  common::Value literal;
  bool attr_on_left = true;
};

/// One top-level conjunct of a compiled condition, described once at
/// compile time so index builds only group by hash (no string building per
/// CREATE/DROP RULE). `expr` points into the owning rule's condition tree.
struct CompiledConjunct {
  const CmExpr* expr = nullptr;
  std::string text;   // canonical form (CanonicalPredicateText)
  uint64_t hash = 0;  // Fnv1a64(text)
  /// Attr-vs-literal comparison evaluable without the tree interpreter.
  bool is_fast = false;
  FastAtom atom;
  /// Reads at least one LAT row (its outcome can change mid-event).
  bool reads_lats = false;
  /// Root is OR or NOT: never an access predicate (see predicate_index.h).
  bool boolean_root = false;
};

/// The rejections of one rule by its access groups (dispatch by
/// subscription, predicate_index.h). A group rejected on an event takes one
/// striped add on the group's own tally instead of visiting each member, so
/// a member's share is the sum of the tallies of every group it belongs to:
/// those of index generations still live are read in place, and a retired
/// generation's final tally is folded into `retired_` (exact: no reader is
/// left to add to it). Each rejection stands for one evaluation, one
/// condition_false and one closed-breaker success of the rule.
class GroupRejectionTally {
 public:
  /// A new index generation made `tally` one of the rule's groups.
  void Attach(const obs::StripedCounter* tally);
  /// The generation owning `tally` retired; folds its final value.
  void Retire(const obs::StripedCounter* tally);
  uint64_t value() const;

 private:
  mutable std::mutex mutex_;
  std::vector<const obs::StripedCounter*> live_;
  uint64_t retired_ = 0;
};

/// A per-rule counter bumped on every visit (striped) whose value also
/// counts the rule's group rejections.
class DerivedRuleCounter {
 public:
  explicit DerivedRuleCounter(const GroupRejectionTally* rejections)
      : rejections_(rejections) {}
  void Inc(uint64_t n = 1) { visits_.Inc(n); }
  uint64_t value() const { return visits_.value() + rejections_->value(); }

 private:
  obs::StripedCounter visits_;
  const GroupRejectionTally* rejections_;
};

/// Per-rule runtime statistics, updated lock-free by the dispatch path and
/// surfaced via the sqlcm_rule_stats system view. `action_micros` is only
/// populated when MonitorEngine's detailed timing is on (it needs an extra
/// clock read per action). The counters a rule visit bumps are striped per
/// thread, so concurrent sessions walking the same rules never write a
/// shared cache line, and a rule its access group rejects is not visited
/// at all: `evaluations` and `condition_false` add its group rejections
/// (see GroupRejectionTally). The rest are rare-path single words.
struct RuleStats {
  GroupRejectionTally group_rejections;
  DerivedRuleCounter evaluations{&group_rejections};  // times considered
  DerivedRuleCounter condition_false{&group_rejections};  // rejected
  obs::StripedCounter fires;            // condition passed, actions ran
  obs::Counter errors;                  // condition or action failures
  /// SendMail/Persist actions skipped by the per-rule rate limiter
  /// (alert-storm hygiene; see ActionRateLimiter).
  obs::Counter actions_suppressed;
  obs::LatencyHistogram action_micros;
  // Span-profiling attribution (sampled traces only; see sqlcm_profile).
  // Nanosecond self-time is split between the condition window and the
  // action window so the view can show where a rule's cost goes.
  obs::Counter profiled_evals;    // evaluations covered by a sampled trace
  obs::Counter condition_nanos;   // self-time in condition evaluation
  obs::Counter action_nanos;      // self-time in action execution
};

/// Per-rule circuit breaker (quarantine). A rule whose condition or actions
/// keep failing is taken out of the dispatch path so one bad rule cannot
/// degrade every monitored query (robustness layer; see docs/ROBUSTNESS.md).
///
/// State machine:
///   closed ──(consecutive failures ≥ threshold, or windowed error rate ≥
///             threshold)──▶ open ──(cooldown elapses)──▶ half-open
///   half-open admits exactly one probe evaluation: success closes the
///   breaker, failure re-opens it and restarts the cooldown.
/// `Reinstate()` force-closes it (engine API / operator intervention).
///
/// The closed-state hot path takes no mutex: Allow is one relaxed atomic
/// load, and OnSuccess only bumps a per-thread striped success tally. A
/// rule its access group rejects is a closed-state success too, counted
/// only in its GroupRejectionTally (AttachDerivedSuccesses). The mutex is
/// taken to record failures and transition states; those paths (and
/// consecutive_failures()) first fold both tallies into the window as if
/// each success had been applied eagerly — consecutive failures reset,
/// window_events wrapping at window_size — so every single-threaded
/// outcome sequence trips at exactly the same point as eager accounting.
class RuleBreaker {
 public:
  struct Options {
    /// Consecutive-failure trip wire.
    int consecutive_failure_threshold = 5;
    /// Windowed error-rate trip wire: over each `window_size` evaluations,
    /// trip when errors/evaluations ≥ `error_rate_threshold` (judged only
    /// once the window holds ≥ `min_window_events` outcomes).
    int window_size = 64;
    int min_window_events = 16;
    double error_rate_threshold = 0.5;
    /// How long an open breaker waits before admitting a half-open probe.
    int64_t cooldown_micros = 5'000'000;
  };

  enum class State : uint8_t { kClosed, kOpen, kHalfOpen };

  RuleBreaker() = default;
  explicit RuleBreaker(Options options) : options_(options) {}

  /// Engine-level configuration applied after rule compilation; resets
  /// nothing, so it is safe on a live breaker.
  void Configure(const Options& options);
  /// Counts the rule's group rejections as closed-state successes.
  void AttachDerivedSuccesses(const GroupRejectionTally* rejections);
  /// Keeps `*not_closed` counting this breaker while it is open or
  /// half-open (moving its share off any previous counter); null detaches.
  /// Dispatch reads the counter to know when access groups may be
  /// rejected without checking each member's breaker.
  void WatchState(std::atomic<int64_t>* not_closed);

  /// True when the rule may be evaluated now. Open breakers whose cooldown
  /// has elapsed move to half-open and admit exactly one probe.
  bool Allow(int64_t now_micros);
  /// Records `n` successful evaluations in a row (the deferred drain
  /// reports a run's closed-state successes with one call).
  void OnSuccess(int64_t now_micros, uint64_t n = 1);
  /// Records a failed evaluation; returns true when this failure tripped
  /// (or re-tripped) the breaker.
  bool OnFailure(int64_t now_micros);
  /// Force-closes the breaker and clears the failure window.
  void Reinstate();

  State state() const { return state_.load(std::memory_order_relaxed); }
  const char* state_name() const;
  static const char* StateName(State state);

  int64_t consecutive_failures() const;
  /// Times the breaker tripped open (including half-open probe failures).
  uint64_t trips() const;
  /// Evaluations skipped because the breaker was open.
  uint64_t skipped() const;
  int64_t tripped_at_micros() const;

 private:
  bool ShouldTripLocked() const;
  /// Applies the successes tallied since the last fold.
  void FoldSuccessesLocked();
  /// Drops the unfolded successes (the window restarts).
  void DiscardSuccessesLocked();
  /// Group rejections not yet folded (the tally only grows).
  uint64_t PendingDerivedLocked() const;
  /// Moves the state, keeping the watched not-closed count in step.
  void SetStateLocked(State state);

  std::atomic<State> state_{State::kClosed};
  /// Closed-state successes not yet folded into the window.
  obs::StripedCounter pending_successes_;
  mutable std::mutex mutex_;
  const GroupRejectionTally* derived_successes_ = nullptr;
  uint64_t derived_folded_ = 0;  // derived successes already folded
  std::atomic<int64_t>* not_closed_ = nullptr;
  Options options_;
  int64_t consecutive_failures_ = 0;
  int64_t window_events_ = 0;
  int64_t window_errors_ = 0;
  bool probe_in_flight_ = false;
  int64_t tripped_at_micros_ = 0;
  uint64_t trips_ = 0;
  uint64_t skipped_ = 0;
};

/// Trailing-window rate limiter for a rule's externally visible actions
/// (SendMail / Persist): at most `max_actions` admissions per trailing
/// `window_micros`, everything beyond is suppressed (counted in
/// RuleStats::actions_suppressed and surfaced via sqlcm_rule_stats). This is
/// the alert-storm hygiene of ROADMAP item 3 — a rule whose condition
/// suddenly matches every query must not flood the mailer or fill a persist
/// table; unlike the breaker it caps *successful* actions, not failures.
///
/// Implementation: a circular buffer of the last `max_actions` admission
/// timestamps — admission is O(1) and the window is exact (no bucketing).
class ActionRateLimiter {
 public:
  struct Options {
    /// Maximum admitted actions per trailing window; 0 = unlimited
    /// (limiter disabled, Admit never takes the mutex).
    int max_actions = 0;
    int64_t window_micros = 60'000'000;
  };

  ActionRateLimiter() = default;

  /// Engine-level configuration applied after rule compilation. Clears the
  /// admission history: the window shape changed, and an empty window is
  /// the permissive interpretation a reconfiguration expects.
  void Configure(const Options& options);

  /// True when an action may run now (and records the admission); false
  /// when `max_actions` admissions already happened in the trailing window.
  bool Admit(int64_t now_micros);

  /// Total admissions rejected since construction.
  uint64_t suppressed() const {
    return suppressed_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<bool> enabled_{false};  // hot-path gate; set by Configure
  mutable std::mutex mutex_;
  Options options_;
  std::vector<int64_t> recent_;  // circular buffer of admission timestamps
  size_t next_ = 0;              // index of the oldest admission
  std::atomic<uint64_t> suppressed_{0};
};

struct CompiledRule {
  CompiledRule() { breaker.AttachDerivedSuccesses(&stats.group_rejections); }

  uint64_t id = 0;
  std::string name;
  EventKey event;
  std::unique_ptr<CmExpr> condition;  // null = always true
  /// The condition's top-level AND-chain, left to right (naive evaluation
  /// order), with each conjunct's index key; empty when unconditioned.
  std::vector<CompiledConjunct> conjuncts;
  std::vector<CompiledAction> actions;
  /// Classes referenced by condition/actions but not bound by the event:
  /// the engine iterates over all live objects of these (paper §5.2).
  std::vector<MonitoredClass> iterate_classes;
  /// Every LAT this rule reads or writes (blocks DropLat while referenced).
  std::vector<const Lat*> referenced_lats;
  /// Probe-scope flags (paper §2.1: gather only counters active rules
  /// reference). Computed at compile time from conditions, actions and
  /// referenced LAT specs.
  bool needs_blocking_probes = false;    // Time_Blocked & friends
  bool needs_concurrency_probe = false;  // Concurrent_User_Queries
  /// Inline/deferred classification (async pipeline): true when the rule may
  /// run on a monitor worker thread after the hook returns. Decided at
  /// compile time from the event kind, actions and RuleSpec::eval_mode;
  /// surfaced as sqlcm_rule_stats.eval_mode.
  bool deferrable = false;
  /// Why a non-deferrable rule stays inline ("" when deferrable):
  /// "cancel-action" / "event-kind" / "class-iteration" / "override".
  const char* inline_reason = "";
  /// The engine's sampled-out count for this rule's event kind when the
  /// rule was added (sqlcm_rule_stats.events_sampled_out is the growth
  /// since; always 0 for inline rules, which sampling never skips).
  uint64_t sampled_out_baseline = 0;
  bool enabled = true;
  /// Mutable so the (logically const) dispatch path can update counters.
  mutable RuleStats stats;
  /// Quarantine state; configured by the engine after compilation.
  mutable RuleBreaker breaker;
  /// SendMail/Persist storm cap; configured by the engine after compilation.
  mutable ActionRateLimiter rate_limiter;
};

/// Name-based LAT lookup used during rule compilation.
class LatResolver {
 public:
  virtual ~LatResolver() = default;
  virtual Lat* FindLat(std::string_view name) const = 0;
  virtual bool IsTimerName(std::string_view name) const = 0;
};

/// Evaluates one atom: true iff the bound object passes the comparison
/// (NULL attributes and unbound classes reject, matching the generic
/// evaluator's three-valued outcome for the same comparison).
bool EvalFastAtom(const FastAtom& atom, const EvalContext& ctx);

/// Compiles a single attr-vs-literal comparison with statically comparable
/// kinds into a FastAtom, which the predicate index evaluates for its
/// shared conjuncts. Returns false (leaving *atom untouched) when `expr` is
/// not that shape.
bool TryCompileFastAtom(const CmExpr& expr, FastAtom* atom);

class RuleCompiler {
 public:
  /// Compiles a rule spec; resolves class/attribute names against the
  /// object schema and LAT/timer names against `resolver`.
  static common::Result<std::unique_ptr<CompiledRule>> Compile(
      const RuleSpec& spec, const LatResolver& resolver);

  /// Parses just an event name ("Query.Commit", "MyLat.Evict", ...).
  static common::Result<EventKey> ParseEvent(std::string_view text,
                                             const LatResolver& resolver);
};

}  // namespace sqlcm::cm

#endif  // SQLCM_SQLCM_RULE_H_
