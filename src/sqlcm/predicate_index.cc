#include "sqlcm/predicate_index.h"

#include <algorithm>
#include <bit>
#include <unordered_map>

#include "common/string_util.h"
#include "sql/ast.h"

namespace sqlcm::cm {

namespace {

bool IsComparison(sql::BinaryOp op) {
  switch (op) {
    case sql::BinaryOp::kEq:
    case sql::BinaryOp::kNe:
    case sql::BinaryOp::kLt:
    case sql::BinaryOp::kLe:
    case sql::BinaryOp::kGt:
    case sql::BinaryOp::kGe:
      return true;
    default:
      return false;
  }
}

sql::BinaryOp MirrorComparison(sql::BinaryOp op) {
  switch (op) {
    case sql::BinaryOp::kLt: return sql::BinaryOp::kGt;
    case sql::BinaryOp::kLe: return sql::BinaryOp::kGe;
    case sql::BinaryOp::kGt: return sql::BinaryOp::kLt;
    case sql::BinaryOp::kGe: return sql::BinaryOp::kLe;
    default: return op;  // =, <> are symmetric
  }
}

void AppendCanonical(const CmExpr& e, std::string* out) {
  switch (e.kind) {
    case CmExpr::Kind::kLiteral:
      if (e.literal.is_string()) {
        *out += '\'';
        *out += e.literal.ToString();
        *out += '\'';
      } else {
        *out += e.literal.ToString();
      }
      return;
    case CmExpr::Kind::kAttrRef:
      if (e.cls == MonitoredClass::kEvicted) {
        // Column index is relative to the event's LAT; rules on Lat.Evict
        // events bypass the index, so this spelling never keys a shared
        // predicate.
        *out += "Evicted.#";
        *out += std::to_string(e.attr_index);
        return;
      }
      *out += MonitoredClassName(e.cls);
      *out += '.';
      *out += ObjectSchema::Get()
                  .attributes(e.cls)[static_cast<size_t>(e.attr_index)]
                  .name;
      return;
    case CmExpr::Kind::kLatColRef:
      *out += e.lat->lower_name();
      *out += '.';
      *out += e.lat->column_names()[static_cast<size_t>(e.lat_col)];
      return;
    case CmExpr::Kind::kUnary:
      *out += static_cast<sql::UnaryOp>(e.unary_op) == sql::UnaryOp::kNot
                  ? "NOT ("
                  : "-(";
      AppendCanonical(*e.left, out);
      *out += ')';
      return;
    case CmExpr::Kind::kBinary: {
      auto op = static_cast<sql::BinaryOp>(e.binary_op);
      const CmExpr* l = e.left.get();
      const CmExpr* r = e.right.get();
      // `5 < Query.Duration` and `Query.Duration > 5` are one predicate.
      // Safe for comparisons only: both operands are always evaluated, so
      // mirroring cannot change which errors or NULLs surface. AND/OR (and
      // arithmetic) operand order is semantically significant and is never
      // normalized.
      if (IsComparison(op) && l->kind == CmExpr::Kind::kLiteral &&
          r->kind != CmExpr::Kind::kLiteral) {
        std::swap(l, r);
        op = MirrorComparison(op);
      }
      *out += '(';
      AppendCanonical(*l, out);
      *out += ' ';
      *out += sql::BinaryOpName(op);
      *out += ' ';
      AppendCanonical(*r, out);
      *out += ')';
      return;
    }
  }
}

/// Outcome of one conjunct under one event's context. kFalse and kNull are
/// kept distinct because naive AND evaluation short-circuits on FALSE but
/// keeps evaluating past NULL (a later conjunct may still raise an error);
/// kNull also covers missing-LAT-row (§5.2 both reject). kError sends the
/// whole rule to the naive evaluator.
enum class PredOutcome : uint8_t { kPass, kFalse, kNull, kError };

/// Evaluates one conjunct under ctx and classifies its three-valued
/// outcome. Mirrors the naive AND-chain evaluator exactly:
///   FALSE            → kFalse (naive short-circuits here)
///   NULL / missing   → kNull  (naive keeps walking, rejects at the end)
///   TRUE, row missing→ kNull  (the sticky lat_row_missing flag rejects a
///                              boolean-TRUE condition per §5.2)
///   error / non-bool → kError (caller re-runs the rule naively so error
///                              text, stats and breaker accounting match
///                              bit-for-bit; for the one non-bool-with-
///                              missing single-conjunct corner the naive
///                              rerun yields the FALSE the §5.2 rule
///                              demands rather than an error)
PredOutcome EvaluatePredicate(const CompiledConjunct& conjunct,
                              EvalContext* ctx) {
  if (conjunct.is_fast) {
    return EvalFastAtom(conjunct.atom, *ctx) ? PredOutcome::kPass
                                             : PredOutcome::kFalse;
  }
  ctx->lat_row_missing = false;
  auto result = conjunct.expr->Eval(ctx);
  const bool missing = ctx->lat_row_missing;
  ctx->lat_row_missing = false;
  if (!result.ok()) return PredOutcome::kError;
  const common::Value& v = *result;
  if (v.is_bool()) {
    if (!v.bool_value()) return PredOutcome::kFalse;
    return missing ? PredOutcome::kNull : PredOutcome::kPass;
  }
  if (v.is_null()) return PredOutcome::kNull;
  return PredOutcome::kError;
}

}  // namespace

std::string CanonicalPredicateText(const CmExpr& expr) {
  std::string out;
  AppendCanonical(expr, &out);
  return out;
}

void CollectConjuncts(const CmExpr* expr, std::vector<const CmExpr*>* out) {
  if (expr->kind == CmExpr::Kind::kBinary &&
      static_cast<sql::BinaryOp>(expr->binary_op) == sql::BinaryOp::kAnd) {
    CollectConjuncts(expr->left.get(), out);
    CollectConjuncts(expr->right.get(), out);
    return;
  }
  out->push_back(expr);
}

void BuildPredicateIndex(
    const std::vector<std::shared_ptr<const CompiledRule>>& rules,
    PredicateStatsRegistry* registry, PredicateIndex* out) {
  out->preds.clear();
  out->entries.clear();
  out->any_indexed = false;
  out->any_lat_reader = false;
  out->groups.reset();
  out->entries.resize(rules.size());
  std::unordered_map<uint64_t, uint32_t> by_hash;
  for (size_t i = 0; i < rules.size(); ++i) {
    const std::shared_ptr<const CompiledRule>& rule = rules[i];
    IndexedRule& entry = out->entries[i];
    for (const CompiledAction& action : rule->actions) {
      if (action.kind == ActionKind::kReset ||
          action.kind == ActionKind::kInsert) {
        entry.mutates_lats = true;
      }
    }
    // Unbound-class iteration re-evaluates the condition per object
    // binding, and Lat.Evict conditions read the evicted row (whose column
    // indexes are LAT-relative, not canonicalizable across rules); both
    // keep the naive path.
    if (!rule->iterate_classes.empty() ||
        rule->event.kind == EventKind::kLatEvict) {
      continue;
    }
    entry.indexed = true;
    out->any_indexed = true;
    entry.preds.reserve(rule->conjuncts.size());
    for (const CompiledConjunct& conjunct : rule->conjuncts) {
      auto [it, inserted] = by_hash.try_emplace(
          conjunct.hash, static_cast<uint32_t>(out->preds.size()));
      uint32_t id = it->second;
      if (!inserted && out->preds[id].conjunct->text != conjunct.text) {
        // 64-bit hash collision between distinct predicates: keep them
        // separate (unshared, fresh stats) rather than merge semantics.
        id = static_cast<uint32_t>(out->preds.size());
        inserted = true;
      }
      if (inserted) {
        IndexedPredicate pred;
        pred.conjunct = &conjunct;
        pred.owner = rule;
        pred.reads_lats = conjunct.reads_lats;
        out->any_lat_reader = out->any_lat_reader || conjunct.reads_lats;
        auto [sit, stats_inserted] =
            registry->try_emplace(conjunct.hash, nullptr);
        if (stats_inserted) sit->second = std::make_shared<PredicateStats>();
        pred.stats = sit->second;
        out->preds.push_back(std::move(pred));
      }
      entry.preds.push_back(id);
      ++out->preds[id].subscribers;
    }
  }
  if (out->any_indexed) {
    out->groups = std::make_unique<const AccessGroups>(rules, *out);
  }
}

AccessGroups::AccessGroups(
    const std::vector<std::shared_ptr<const CompiledRule>>& rules,
    const PredicateIndex& index)
    : words_(RuleBitmapWords(rules.size())),
      group_of_(rules.size(), -1),
      residual_(words_, 0) {
  std::unordered_map<uint32_t, size_t> group_of;  // access pred -> group
  for (size_t pos = 0; pos < rules.size(); ++pos) {
    const CompiledRule& rule = *rules[pos];
    const IndexedRule& entry = index.entries[pos];
    const RuleBitmap bit = RuleBitmap{1} << (pos % 64);
    // Qualified rules are skipped by the dispatch loop on a qualifier
    // mismatch without being considered, so they cannot be counted as
    // group-rejected evaluations; they stay residual with the rules the
    // walk cannot reject on one attribute-only conjunct.
    const bool grouped =
        entry.indexed && rule.event.qualifier.empty() &&
        !entry.preds.empty() &&
        !index.preds[entry.preds.front()].conjunct->reads_lats &&
        !index.preds[entry.preds.front()].conjunct->boolean_root;
    if (!grouped) {
      residual_[pos / 64] |= bit;
      continue;
    }
    auto [it, inserted] = group_of.try_emplace(entry.preds.front(),
                                               preds_.size());
    if (inserted) {
      preds_.push_back(entry.preds.front());
      bits_.resize(bits_.size() + words_, 0);
      members_.emplace_back();
    }
    bits_[it->second * words_ + pos / 64] |= bit;
    members_[it->second].push_back(rules[pos]);
    group_of_[pos] = static_cast<int32_t>(it->second);
  }
  tallies_ = std::make_unique<obs::StripedCounter[]>(preds_.size());
  for (size_t g = 0; g < preds_.size(); ++g) {
    for (const auto& rule : members_[g]) {
      rule->stats.group_rejections.Attach(&tallies_[g]);
    }
  }
}

AccessGroups::~AccessGroups() {
  for (size_t g = 0; g < preds_.size(); ++g) {
    for (const auto& rule : members_[g]) {
      rule->stats.group_rejections.Retire(&tallies_[g]);
    }
  }
}

bool AccessGroups::Unrejectable(size_t g, bool check_breakers) const {
  if (!check_breakers) return false;
  // An open or half-open breaker must see the visit (it counts a skip or
  // admits a probe), so such a group is visited rule by rule.
  for (const auto& rule : members_[g]) {
    if (rule->breaker.state() != RuleBreaker::State::kClosed) return true;
  }
  return false;
}

void AccessGroups::MatchRun(bool check_breakers, PredicateRun* run,
                            const EventBitmap* mask, EventBitmap* rejected,
                            RuleBitmap* visit,
                            PredWalkCounters* counters) const {
  const size_t words = run->words();
  std::copy(residual_.begin(), residual_.end(), visit);
  for (size_t g = 0; g < preds_.size(); ++g) {
    // Every group's access predicate is looked up on every event,
    // rejectable or not. It is FALSE exactly where each member's walk
    // would reject on its first conjunct; a NULL one does not
    // short-circuit, since a later conjunct may still raise an error.
    EventBitmap* out = rejected + g * words;
    run->Falses(preds_[g], mask, out, counters);
    if (Unrejectable(g, check_breakers)) std::fill(out, out + words, 0);
    if (std::equal(out, out + words, mask)) continue;  // rejected throughout
    const RuleBitmap* bits = &bits_[g * words_];
    for (size_t w = 0; w < words_; ++w) visit[w] |= bits[w];
  }
}

uint64_t AccessGroups::Reject(size_t g, uint64_t events) const {
  tallies_[g].Inc(events);
  return events * members_[g].size();
}

void PredicateRun::Begin(const PredicateIndex& index, EvalContext* ctxs,
                         size_t events) {
  index_ = &index;
  ctxs_ = ctxs;
  words_ = EventBitmapWords(events);
  known_.assign(index.preds.size() * words_, 0);
  bits_.resize(index.preds.size() * kRows * words_);
  live_.resize(words_);
  nulls_.resize(words_);
}

void PredicateRun::Resolve(uint32_t id, const EventBitmap* mask,
                           PredWalkCounters* counters) {
  EventBitmap* done = known(id);
  const IndexedPredicate& pred = index_->preds[id];
  uint64_t evals = 0;
  uint64_t passes = 0;
  for (size_t w = 0; w < words_; ++w) {
    const EventBitmap todo = mask[w] & ~done[w];
    counters->memo_hits += CountEvents(mask[w] & done[w]);
    if (todo == 0) continue;
    for (size_t r = 0; r < kRows; ++r) {
      row(id, static_cast<Row>(r))[w] &= ~todo;
    }
    for (EventBitmap bits = todo; bits != 0; bits &= bits - 1) {
      const size_t bit = static_cast<size_t>(std::countr_zero(bits));
      Row r = kError;
      switch (EvaluatePredicate(*pred.conjunct, &ctxs_[w * 64 + bit])) {
        case PredOutcome::kPass: ++passes; continue;
        case PredOutcome::kFalse: r = kFalse; break;
        case PredOutcome::kNull: r = kNull; break;
        case PredOutcome::kError: break;
      }
      row(id, r)[w] |= EventBitmap{1} << bit;
    }
    done[w] |= todo;
    evals += CountEvents(todo);
  }
  if (evals != 0) {
    pred.stats->evals.Inc(evals);
    counters->evals += evals;
  }
  if (passes != 0) pred.stats->passes.Inc(passes);
}

void PredicateRun::Walk(const IndexedRule& entry, const EventBitmap* mask,
                        EventBitmap* fire, EventBitmap* error,
                        PredWalkCounters* counters) {
  EventBitmap* live = live_.data();
  EventBitmap* nulls = nulls_.data();
  EventBitmap any = 0;  // some event's walk goes on
  for (size_t w = 0; w < words_; ++w) {
    live[w] = mask[w];
    nulls[w] = 0;
    error[w] = 0;
    any |= mask[w];
  }
  for (uint32_t id : entry.preds) {
    if (any == 0) break;  // every event's walk already ended
    Resolve(id, live, counters);
    const EventBitmap* falses = row(id, kFalse);
    const EventBitmap* nulled = row(id, kNull);
    const EventBitmap* errors = row(id, kError);
    any = 0;
    for (size_t w = 0; w < words_; ++w) {
      error[w] |= live[w] & errors[w];
      live[w] &= ~(falses[w] | errors[w]);
      nulls[w] |= live[w] & nulled[w];
      any |= live[w];
    }
  }
  for (size_t w = 0; w < words_; ++w) fire[w] = live[w] & ~nulls[w];
}

void PredicateRun::Falses(uint32_t id, const EventBitmap* mask,
                          EventBitmap* out, PredWalkCounters* counters) {
  Resolve(id, mask, counters);
  const EventBitmap* falses = row(id, kFalse);
  for (size_t w = 0; w < words_; ++w) out[w] = mask[w] & falses[w];
}

void PredicateRun::InvalidateLatReaders(size_t event) {
  for (uint32_t id = 0; id < index_->preds.size(); ++id) {
    if (index_->preds[id].reads_lats) {
      known(id)[event / 64] &= ~(EventBitmap{1} << (event % 64));
    }
  }
}

}  // namespace sqlcm::cm
