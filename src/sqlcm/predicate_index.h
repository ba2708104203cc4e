// Shared predicate index (ROADMAP item 2; paper §5 evaluates each rule's
// condition independently in authoring order).
//
// Rules on one event class typically share conjuncts — variants of
// `Query.Duration > k * LAT.Avg_Duration` — so the engine decomposes every
// compiled condition into its top-level AND-chain, canonicalizes each
// conjunct to text, and groups rules by conjunct hash. During dispatch each
// distinct conjunct is evaluated at most once per event; its three-valued
// outcome is memoized and fanned out to every subscribing rule. LAT-row
// lookups are likewise shared through the per-event `EvalContext::lat_rows`
// cache, which now survives across rules of one event (it is invalidated
// whenever a fired rule mutates LAT state mid-event, so every rule still
// sees exactly the LAT state naive evaluation would).
//
// Each rule's conjuncts are walked in authoring order with naive AND
// semantics: FALSE short-circuits, NULL and a missing LAT row reject at the
// end of the walk without short-circuiting (§5.2), and any error falls back
// to the naive evaluator, so fires, errors and error text are identical to
// per-rule evaluation.
//
// Dispatch by subscription: the index also clusters rules by an access
// predicate (Fabret et al., SIGMOD 2001), so a predicate that fails rejects
// its whole group in one step instead of visiting every rule. An indexed
// rule without an event qualifier joins the access group of its first walk
// conjunct when that conjunct reads only event attributes (no LAT read, so
// its outcome cannot change mid-event) and is not rooted at OR/NOT. Every
// other rule is residual and always visited. Per event, each group's
// access predicate is evaluated once (through the memo); a group rejected
// on FALSE (exactly where the rule walk would reject on that conjunct)
// takes one striped add on its tally, and only residual rules and members
// of the other groups are visited, in activation order. A group whose
// predicate errored, or that holds a rule whose breaker is not closed, is
// visited rule by rule as before. Members' `evaluations`,
// `condition_false` and breaker successes are derived from the tallies
// (GroupRejectionTally in rule.h). See docs/PERFORMANCE.md
// §"Subscription dispatch".
//
// Dispatch decides a run of same-kind events at a time (a sync event is a
// run of one) with the walk in bitwise form: PredicateRun is the memo,
// keeping each predicate's outcomes over the run's events, and
// AccessGroups::MatchRun rejects groups on the events where their access
// predicate is FALSE.
#ifndef SQLCM_SQLCM_PREDICATE_INDEX_H_
#define SQLCM_SQLCM_PREDICATE_INDEX_H_

#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "sqlcm/rule.h"

namespace sqlcm::cm {

/// Evaluation counts of one canonical predicate, surfaced in
/// sqlcm_rule_predicate_stats. Shared (via shared_ptr) by every index
/// generation containing the predicate.
struct PredicateStats {
  /// Striped per thread: every session evaluates the same access
  /// predicates on every event, so a shared word would bounce.
  obs::StripedCounter evals;   // conjunct evaluations actually run
  obs::StripedCounter passes;  // evaluations that yielded TRUE
};

/// Engine-owned registry keyed by canonical-text hash; read/extended at
/// every index build under the engine's registry mutex. Each CREATE/DROP
/// RULE rebuilds every index, so without it the view's counts would restart
/// from zero at each rule DDL.
using PredicateStatsRegistry =
    std::unordered_map<uint64_t, std::shared_ptr<PredicateStats>>;

/// One shared conjunct. `conjunct` (expression, canonical text, hash,
/// fast atom) lives in the owning rule, which `owner` pins for the life of
/// the index snapshot.
struct IndexedPredicate {
  const CompiledConjunct* conjunct = nullptr;
  std::shared_ptr<const CompiledRule> owner;
  /// conjunct->reads_lats, kept inline for the per-fire invalidation scan:
  /// the memo entry (and the shared lat_rows cache) of a LAT reader must be
  /// dropped when a fired rule mutates LAT state.
  bool reads_lats = false;
  uint32_t subscribers = 0;  // rules in this index containing the conjunct
  std::shared_ptr<PredicateStats> stats;
};

/// Per-rule entry, positionally parallel to the lane's rule vector.
struct IndexedRule {
  /// False = the rule bypasses the index (unbound-class iteration or
  /// evicted-row context) and runs through the naive path unchanged.
  bool indexed = false;
  /// Firing this rule runs an Insert or Reset action, which mutates LAT
  /// state before the next rule of the same event wherever actions run at
  /// each rule's turn (immediate runs: the sync lane, and the deferred
  /// lists that Reset a LAT; other deferred runs fold their inserts after
  /// every rule was decided).
  bool mutates_lats = false;
  /// Predicate ids (indexes into PredicateIndex::preds) in authoring
  /// order.
  std::vector<uint32_t> preds;
};

class AccessGroups;

/// Immutable-once-published index for one (event kind, dispatch lane);
/// embedded in the engine's published rule table and swapped with it.
struct PredicateIndex {
  std::vector<IndexedPredicate> preds;
  std::vector<IndexedRule> entries;
  bool any_indexed = false;
  /// Some predicate reads a LAT row. When none does, a fired rule's LAT
  /// mutation leaves the memo and the shared lat_rows cache valid (only
  /// CmExpr::Eval fills the cache, and the naive path clears it first), so
  /// dispatch skips the invalidation.
  bool any_lat_reader = false;
  /// Subscription matcher; rebuilt with the index, so every published
  /// table has its own.
  std::unique_ptr<const AccessGroups> groups;
};

/// Locally accumulated walk counters, flushed to engine metrics once per
/// dispatch (keeps per-conjunct atomics off the hot path).
struct PredWalkCounters {
  uint64_t evals = 0;      // conjuncts actually evaluated
  uint64_t memo_hits = 0;  // conjunct lookups served from the memo
};

/// Rule positions of one lane's rule vector, one bit each.
using RuleBitmap = uint64_t;
inline size_t RuleBitmapWords(size_t rules) { return (rules + 63) / 64; }

/// The events of one dispatch run, one bit each (bit i = the run's i-th
/// event).
using EventBitmap = uint64_t;
inline size_t EventBitmapWords(size_t events) { return (events + 63) / 64; }
/// Events set in `bits`. A run of one event (every sync event) sets at most
/// one bit and needs no population count, which is a library call on
/// x86-64 builds without POPCNT.
inline uint64_t CountEvents(EventBitmap bits) {
  return (bits & (bits - 1)) == 0 ? uint64_t{bits != 0}
                                  : static_cast<uint64_t>(std::popcount(bits));
}

/// The memo of conjunct outcomes for one dispatch run (a sync event is a
/// run of one; docs/PERFORMANCE.md §"Async pipeline"): each predicate's
/// outcomes over the events of the run, kept as known / FALSE / NULL /
/// error bitmaps and filled only for the events some walk reaches. A walk
/// resolves one conjunct for all its live events before moving to the
/// next, so each distinct predicate is evaluated at most once per event of
/// the run, and the evaluation and memo-hit counts equal those of
/// per-event walks.
class PredicateRun {
 public:
  /// Starts a run of `events` events over `index`'s predicates; event i is
  /// evaluated under ctxs[i], which must stay valid for the run.
  void Begin(const PredicateIndex& index, EvalContext* ctxs, size_t events);
  size_t words() const { return words_; }

  /// Walks `entry`'s conjuncts in authoring order over the events of
  /// `mask`, with naive AND semantics in bitwise form: FALSE
  /// short-circuits, NULL (or a missing LAT row) rejects at the end of the
  /// walk without short-circuiting, since a later conjunct may still raise
  /// the error naive evaluation would report, and an error ends the walk
  /// of that event. Writes the events whose condition passes to `fire` and
  /// those that errored (to be decided by the naive evaluator) to
  /// `error`.
  void Walk(const IndexedRule& entry, const EventBitmap* mask,
            EventBitmap* fire, EventBitmap* error,
            PredWalkCounters* counters);
  /// Writes to `out` the events of `mask` on which predicate `id` is FALSE
  /// (evaluating it where its outcome is not known yet).
  void Falses(uint32_t id, const EventBitmap* mask, EventBitmap* out,
              PredWalkCounters* counters);
  /// Forgets the LAT-reading predicates' outcomes on event `event` (a
  /// fired rule just mutated LAT state).
  void InvalidateLatReaders(size_t event);

 private:
  enum Row : size_t { kFalse, kNull, kError, kRows };  // outcomes but TRUE
  EventBitmap* known(uint32_t id) { return known_.data() + id * words_; }
  EventBitmap* row(uint32_t id, Row r) {
    return bits_.data() + (id * kRows + r) * words_;
  }
  /// Evaluates predicate `id` on the events of `mask` whose outcome is not
  /// known yet.
  void Resolve(uint32_t id, const EventBitmap* mask,
               PredWalkCounters* counters);

  const PredicateIndex* index_ = nullptr;
  EvalContext* ctxs_ = nullptr;
  size_t words_ = 0;
  std::vector<EventBitmap> known_;  // per predicate: events resolved
  std::vector<EventBitmap> bits_;   // per predicate: kRows bitmaps
  std::vector<EventBitmap> live_, nulls_;  // Walk's working masks
};

/// The access groups of one index generation (see the header comment).
/// Each group keeps a bitmap of its members' positions and a striped tally
/// of the events that rejected it; the members' stats read the tallies
/// while the generation is live, and the destructor — run once the table
/// holding the generation is released, so no dispatch can add to a tally
/// any more — folds each final tally into its members.
class AccessGroups {
 public:
  AccessGroups(const std::vector<std::shared_ptr<const CompiledRule>>& rules,
               const PredicateIndex& index);
  ~AccessGroups();
  AccessGroups(const AccessGroups&) = delete;
  AccessGroups& operator=(const AccessGroups&) = delete;

  /// Probes every group's access predicate once per event of `mask` and
  /// writes to rejected[g * run->words(), +run->words()) the events on
  /// which group g's predicate is FALSE — none when `check_breakers` (some
  /// breaker of the engine is not closed) and some member's breaker is not
  /// closed. Writes into `visit` (RuleBitmapWords of the lane's rule
  /// count) the positions dispatch must visit: the residual rules plus the
  /// members of every group some event of `mask` keeps. Tallies nothing:
  /// the caller commits a group's rejections with Reject.
  void MatchRun(bool check_breakers, PredicateRun* run,
                const EventBitmap* mask, EventBitmap* rejected,
                RuleBitmap* visit, PredWalkCounters* counters) const;
  /// Commits `events` rejections of group g (one add on its tally) and
  /// returns the member visits they stand for.
  uint64_t Reject(size_t g, uint64_t events) const;
  /// True when `check_breakers` and some member's breaker is not closed:
  /// such a group is visited rule by rule.
  bool Unrejectable(size_t g, bool check_breakers) const;
  size_t size() const { return preds_.size(); }
  /// Access group of the rule at lane position `pos`; -1 when residual.
  int32_t group_of(size_t pos) const { return group_of_[pos]; }
  /// Group g's members' positions (RuleBitmapWords of the rule count).
  const RuleBitmap* members(size_t g) const { return &bits_[g * words_]; }

 private:

  size_t words_ = 0;
  std::vector<int32_t> group_of_;    // per rule position; -1 = residual
  std::vector<uint32_t> preds_;      // access predicate id per group
  std::vector<RuleBitmap> bits_;     // group g's members: [g * words_, +words_)
  std::vector<RuleBitmap> residual_;
  /// Owning: member rules stay alive until their tallies are folded.
  std::vector<std::vector<std::shared_ptr<const CompiledRule>>> members_;
  std::unique_ptr<obs::StripedCounter[]> tallies_;  // rejections per group
};

/// Canonical text of a predicate subtree. Deterministic under
/// re-compilation; the only normalization applied is mirroring
/// literal-vs-expr comparisons to expr-vs-literal (safe: comparisons
/// evaluate both operands unconditionally). AND/OR operand order is never
/// touched — it is semantically significant (short-circuit vs errors).
std::string CanonicalPredicateText(const CmExpr& expr);

/// Flattens the top-level AND-chain of `expr` into conjuncts, left to
/// right (naive evaluation order).
void CollectConjuncts(const CmExpr* expr, std::vector<const CmExpr*>* out);

/// Builds the index for one lane's rule vector from each rule's compiled
/// conjuncts (grouping by canonical hash). Stats objects are resolved
/// through (and inserted into) `registry` by canonical hash, and the
/// access groups are built last.
void BuildPredicateIndex(
    const std::vector<std::shared_ptr<const CompiledRule>>& rules,
    PredicateStatsRegistry* registry, PredicateIndex* out);

}  // namespace sqlcm::cm

#endif  // SQLCM_SQLCM_PREDICATE_INDEX_H_
