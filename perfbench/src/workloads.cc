#include "workloads.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>

#include "hook_tracer.h"
#include "sqlcm/monitor_metrics.h"
#include "workload/driver.h"

namespace perfbench {

namespace cm = sqlcm::cm;
using sqlcm::common::Random;
using sqlcm::common::Row;
using sqlcm::common::Status;
using sqlcm::common::Value;

namespace {

constexpr char kLineitemPointSql[] =
    "SELECT * FROM lineitem WHERE l_orderkey = @k AND l_linenumber = @l";
constexpr char kOrdersPointSql[] =
    "SELECT * FROM orders WHERE o_orderkey = @k";
constexpr char kJoinSql[] =
    "SELECT l.l_orderkey, l.l_extendedprice, o.o_totalprice, p.p_name "
    "FROM lineitem l "
    "JOIN orders o ON l.l_orderkey = o.o_orderkey "
    "JOIN part p ON l.l_partkey = p.p_partkey "
    "WHERE l.l_orderkey >= @lo AND l.l_orderkey <= @hi";
constexpr char kUpdateSql[] =
    "UPDATE orders SET o_totalprice = o_totalprice + 1.0 "
    "WHERE o_orderkey = @k";
constexpr char kAdhocPrefix[] =
    "SELECT o_custkey, o_totalprice FROM orders WHERE o_orderkey = ";

/// Always-true atoms over query probes, shared by the rules of e2_rules and
/// deferred_fanin so the predicate index sees repeated conjuncts.
const char* const kTrueAtoms[] = {
    "Query.ID > 0",          "Query.Session_ID > 0",
    "Query.Estimated_Cost >= 0", "Query.Number_of_instances > 0",
    "Query.Start_Time >= 0", "Query.Duration >= 0",
    "Query.Query_Type = 'SELECT'"};
constexpr size_t kNumTrueAtoms = sizeof(kTrueAtoms) / sizeof(kTrueAtoms[0]);

/// Rule i's always-true condition: 1 to 3 atoms from the shared pool.
std::string TrueCondition(size_t i) {
  std::string out;
  for (size_t j = 0; j <= i % 3; ++j) {
    if (!out.empty()) out += " AND ";
    out += kTrueAtoms[(i + j * 3) % kNumTrueAtoms];
  }
  return out;
}

Stmt Make(const char* sql, sqlcm::exec::ParamMap params, int tmpl) {
  Stmt stmt;
  stmt.sql = sql;
  stmt.params = std::move(params);
  stmt.tmpl = tmpl;
  return stmt;
}

void Fail(std::vector<std::string>* errors, const std::string& what,
          uint64_t got, uint64_t want) {
  if (got == want) return;
  errors->push_back(what + ": got " + std::to_string(got) + ", want " +
                    std::to_string(want));
}

/// Fires per rule name, read from the rule registry's counters.
std::map<std::string, uint64_t> RuleFires(const cm::MonitorEngine& monitor) {
  std::map<std::string, uint64_t> out;
  for (const auto& rule : monitor.SnapshotRules()) {
    out[rule->name] = rule->stats.fires.value();
  }
  return out;
}

/// Evaluations per rule name (times the rule was considered for an event).
std::map<std::string, uint64_t> RuleEvaluations(
    const cm::MonitorEngine& monitor) {
  std::map<std::string, uint64_t> out;
  for (const auto& rule : monitor.SnapshotRules()) {
    out[rule->name] = rule->stats.evaluations.value();
  }
  return out;
}

uint64_t HookCalls(const cm::MonitorEngine& monitor, cm::MonitorHook hook) {
  return monitor.metrics().hooks[static_cast<size_t>(hook)].calls.value();
}

/// COUNT column summed over a LAT's rows, keyed by the given group columns
/// joined with '|'.
std::map<std::string, uint64_t> LatCounts(
    const cm::MonitorEngine& monitor, const std::string& lat_name,
    const std::vector<std::string>& group_columns,
    const std::string& count_column, std::vector<std::string>* errors) {
  std::map<std::string, uint64_t> out;
  cm::Lat* lat = monitor.FindLat(lat_name);
  if (lat == nullptr) {
    errors->push_back("LAT " + lat_name + " missing");
    return out;
  }
  std::vector<int> group_idx;
  for (const auto& col : group_columns) {
    group_idx.push_back(lat->FindColumn(col));
  }
  const int count_idx = lat->FindColumn(count_column);
  for (const Row& row : lat->Snapshot(0)) {
    std::string key;
    for (size_t i = 0; i < group_idx.size(); ++i) {
      if (i > 0) key += "|";
      key += row[static_cast<size_t>(group_idx[i])].ToDisplayString();
    }
    out[key] += static_cast<uint64_t>(
        row[static_cast<size_t>(count_idx)].int_value());
  }
  return out;
}

void CompareCounts(const std::string& what,
                   const std::map<std::string, uint64_t>& got,
                   const std::map<std::string, uint64_t>& want,
                   std::vector<std::string>* errors) {
  if (got == want) return;
  std::string msg = what + ": per-group COUNT differs from the ledger (" +
                    std::to_string(got.size()) + " groups, want " +
                    std::to_string(want.size()) + ")";
  for (const auto& [key, n] : want) {
    auto it = got.find(key);
    const uint64_t have = it == got.end() ? 0 : it->second;
    if (have != n) {
      msg += "; first mismatch " + key.substr(0, 60) + " got " +
             std::to_string(have) + " want " + std::to_string(n);
      break;
    }
  }
  errors->push_back(msg);
}

uint64_t TableRows(sqlcm::engine::Database* db, const char* name) {
  sqlcm::storage::Table* table = db->catalog()->GetTable(name);
  return table == nullptr ? 0 : table->row_count();
}

/// Clustered-index keys of lineitem rows, drawn by the repo's own point
/// select generator so every key exists.
std::vector<std::pair<int64_t, int64_t>> LineitemKeys(
    const sqlcm::workload::TpchConfig& data, uint64_t seed) {
  std::vector<std::pair<int64_t, int64_t>> keys;
  for (const auto& item :
       sqlcm::workload::GeneratePointSelectWorkload(data, 8192, seed)) {
    keys.emplace_back(item.params.at("k").int_value(),
                      item.params.at("l").int_value());
  }
  return keys;
}

Stmt LineitemPoint(const std::vector<std::pair<int64_t, int64_t>>& keys,
                   Random* rng, int tmpl) {
  const auto& [k, l] = keys[rng->Uniform(keys.size())];
  return Make(kLineitemPointSql, {{"k", Value::Int(k)}, {"l", Value::Int(l)}},
              tmpl);
}

Stmt OrdersPoint(int64_t num_orders, Random* rng, int tmpl) {
  return Make(kOrdersPointSql,
              {{"k", Value::Int(rng->UniformInt(1, num_orders))}}, tmpl);
}

// ---------------------------------------------------------------------------
// e2_rules: paper §6.2.1 (E2). 100 Query.Commit rules that all fire on every
// query, each keeping the last 10 queries in its own LAT, so every insert
// evicts. Hook -> dispatch -> action -> LAT fold/evict is the whole cost.
// ---------------------------------------------------------------------------
class E2Rules final : public Workload {
 public:
  static constexpr size_t kRules = 100;
  static constexpr size_t kLatRows = 10;

  explicit E2Rules(uint64_t seed) : keys_(LineitemKeys(data(), seed)) {}

  const char* name() const override { return "e2_rules"; }
  size_t sessions() const override { return 3; }
  uint64_t warmup_units() const override { return 300; }
  std::vector<TemplateDef> templates() const override {
    return {{"lineitem_point",
             Make(kLineitemPointSql,
                  {{"k", Value::Int(1)}, {"l", Value::Int(1)}}, 0)}};
  }

  void Install(Installer* in, const std::vector<SessionProbes>&,
               const std::vector<TemplateProbes>&) override {
    for (size_t r = 0; r < kRules; ++r) {
      cm::LatSpec lat;
      lat.name = "E2_" + std::to_string(r);
      lat.group_by = {{"ID", ""}};
      lat.aggregates = {{cm::LatAggFunc::kCount, "", "N", false},
                        {cm::LatAggFunc::kLast, "Query_Text", "Text", false},
                        {cm::LatAggFunc::kLast, "Duration", "Dur", false}};
      lat.ordering = {{"ID", true}};  // the last 10 queries seen
      lat.max_rows = kLatRows;
      in->DefineLat(std::move(lat));
      cm::RuleSpec rule;
      rule.name = "e2_" + std::to_string(r);
      rule.event = "Query.Commit";
      rule.condition = TrueCondition(r);
      rule.action = "Query.Insert(E2_" + std::to_string(r) + ")";
      in->AddRule(rule);
    }
  }

  void NextUnit(size_t, Random* rng, Unit* unit) const override {
    unit->stmts.push_back(LineitemPoint(keys_, rng, 0));
    unit->shape = {0};
  }

  void Check(const CheckInput& in,
             std::vector<std::string>* errors) const override {
    const uint64_t queries = in.ledger->TotalQueries();
    Fail(errors, "rules_fired", in.monitor->rules_fired(), kRules * queries);
    const auto fires = RuleFires(*in.monitor);
    std::set<int64_t> first_ids;
    bool survivors_differ = false;
    for (size_t r = 0; r < kRules; ++r) {
      const std::string lat_name = "E2_" + std::to_string(r);
      Fail(errors, "fires of e2_" + std::to_string(r),
           fires.count("e2_" + std::to_string(r))
               ? fires.at("e2_" + std::to_string(r))
               : 0,
           queries);
      cm::Lat* lat = in.monitor->FindLat(lat_name);
      if (lat == nullptr) {
        errors->push_back(lat_name + " missing");
        continue;
      }
      Fail(errors, lat_name + " inserts", lat->stats().inserts.value(),
           queries);
      Fail(errors, lat_name + " evictions", lat->stats().evictions.value(),
           queries - kLatRows);
      const auto rows = lat->Snapshot(0);
      Fail(errors, lat_name + " rows", rows.size(), kLatRows);
      const int id_col = lat->FindColumn("ID");
      const int n_col = lat->FindColumn("N");
      std::set<int64_t> ids;
      for (const Row& row : rows) {
        ids.insert(row[static_cast<size_t>(id_col)].int_value());
        Fail(errors, lat_name + " COUNT per query",
             static_cast<uint64_t>(row[static_cast<size_t>(n_col)].int_value()),
             1);
      }
      // Every rule saw the same queries, so an exact top-10-by-ID would
      // agree across LATs. Concurrent evicting inserts do not guarantee
      // that (a row counted in the budget but not yet in its shard heap is
      // invisible to a concurrent evictor) and PERFORMANCE.md does not
      // promise it, so a difference is reported, not failed (README.md).
      if (r == 0) {
        first_ids = ids;
      } else if (ids != first_ids && !survivors_differ) {
        survivors_differ = true;
        std::fprintf(stderr,
                     "NOTE: %s keeps other queries than E2_0 (concurrent "
                     "eviction is not exact top-k)\n",
                     lat_name.c_str());
      }
    }
  }

 private:
  std::vector<std::pair<int64_t, int64_t>> keys_;
};

// ---------------------------------------------------------------------------
// dba_mix: paper §6.2.2's mixed stream under the paper's DBA rules plus
// ~440 selective rules over shared conjuncts. The only workload with writes,
// lock waits, compilation (ad-hoc literals) and transaction signatures.
// ---------------------------------------------------------------------------
class DbaMix final : public Workload {
 public:
  enum Tmpl : int { kLineitem = 0, kOrders, kJoin, kUpdate, kAdhoc };
  static constexpr size_t kSelectiveRules = 437;
  static constexpr size_t kSelLats = 8;
  static constexpr int64_t kHotRows = 4;

  explicit DbaMix(uint64_t seed) : keys_(LineitemKeys(data(), seed)) {}

  const char* name() const override { return "dba_mix"; }
  size_t sessions() const override { return 3; }
  uint64_t warmup_units() const override { return 1500; }
  std::string application(size_t s) const override {
    return std::string("app_") + static_cast<char>('a' + s);
  }
  std::vector<TemplateDef> templates() const override {
    return {
        {"lineitem_point",
         Make(kLineitemPointSql, {{"k", Value::Int(1)}, {"l", Value::Int(1)}},
              kLineitem)},
        {"orders_point", Make(kOrdersPointSql, {{"k", Value::Int(1)}}, kOrders)},
        {"join3", Make(kJoinSql, {{"lo", Value::Int(1)}, {"hi", Value::Int(2)}},
                       kJoin)},
        {"orders_update",
         Make(kUpdateSql, {{"k", Value::Int(data().num_orders)}}, kUpdate)},
        {"adhoc_orders",
         Make((std::string(kAdhocPrefix) + "1").c_str(), {}, kAdhoc)},
    };
  }

  void Install(Installer* in, const std::vector<SessionProbes>& sessions,
               const std::vector<TemplateProbes>& templates) override {
    // Per-(application, template) usage; the outlier rule reads it.
    cm::LatSpec usage;
    usage.name = "Usage_LAT";
    usage.group_by = {{"Application", "App"}, {"Logical_Signature", "Sig"}};
    usage.aggregates = {{cm::LatAggFunc::kCount, "", "N", false},
                        {cm::LatAggFunc::kAvg, "Duration", "Avg_Duration",
                         false},
                        {cm::LatAggFunc::kSum, "Duration", "Total", false}};
    in->DefineLat(std::move(usage));
    AddRule(in, "usage", "Query.Commit", "", "Query.Insert(Usage_LAT)");
    AddRule(in, "outlier", "Query.Commit",
            "Query.Duration > 5 * Usage_LAT.Avg_Duration",
            "Query.Persist(Outliers, ID, Query_Text, Duration)");

    cm::LatSpec top;
    top.name = "Top_LAT";
    top.group_by = {{"ID", ""}};
    top.aggregates = {{cm::LatAggFunc::kLast, "Duration", "Dur", false},
                      {cm::LatAggFunc::kLast, "Query_Text", "Text", false}};
    top.ordering = {{"Dur", true}};
    top.max_rows = 10;
    in->DefineLat(std::move(top));
    AddRule(in, "top10", "Query.Commit", "", "Query.Insert(Top_LAT)");

    cm::LatSpec blocking;
    blocking.name = "Block_LAT";
    blocking.object_class = cm::MonitoredClass::kBlocker;
    blocking.group_by = {{"Logical_Signature", "Sig"}};
    blocking.aggregates = {{cm::LatAggFunc::kCount, "", "N", false},
                           {cm::LatAggFunc::kSum, "Wait_Secs", "Wait", false}};
    in->DefineLat(std::move(blocking));
    AddRule(in, "blocking", "Query.Block_Released", "",
            "Blocker.Insert(Block_LAT)");

    cm::LatSpec blocked;
    blocked.name = "Blocked_LAT";
    blocked.object_class = cm::MonitoredClass::kBlocked;
    blocked.group_by = {{"Application", "App"}};
    blocked.aggregates = {{cm::LatAggFunc::kCount, "", "N", false}};
    in->DefineLat(std::move(blocked));
    AddRule(in, "blocked", "Query.Blocked", "", "Blocked.Insert(Blocked_LAT)");

    cm::LatSpec txn;
    txn.name = "Txn_LAT";
    txn.object_class = cm::MonitoredClass::kTransaction;
    txn.group_by = {{"Logical_Signature", "Sig"}};
    txn.aggregates = {{cm::LatAggFunc::kCount, "", "N", false},
                      {cm::LatAggFunc::kAvg, "Duration", "Avg_Duration", false}};
    in->DefineLat(std::move(txn));
    AddRule(in, "txn_sig", "Transaction.Commit", "",
            "Transaction.Insert(Txn_LAT)");

    AddRule(in, "audit", "Query.Commit", "Query.Query_Type = 'UPDATE'",
            "Query.Persist(Audit, ID, Application, Query_Text)");

    for (size_t j = 0; j < kSelLats; ++j) {
      cm::LatSpec sel;
      sel.name = "Sel_" + std::to_string(j);
      sel.group_by = {{"Application", "App"}};
      sel.aggregates = {{cm::LatAggFunc::kCount, "", "N", false}};
      in->DefineLat(std::move(sel));
    }
    selective_ = SelectiveConditions(sessions, templates);
    for (size_t r = 0; r < selective_.size(); ++r) {
      AddRule(in, "sel_" + std::to_string(r), "Query.Commit",
              selective_[r].Render(),
              "Query.Insert(Sel_" + std::to_string(r % kSelLats) + ")");
    }
  }

  void NextUnit(size_t, Random* rng, Unit* unit) const override {
    const double draw = rng->NextDouble();
    if (draw < 0.028) {
      // Two hot orders rows, locked in key order: waits but no deadlocks.
      const int64_t a = rng->UniformInt(1, kHotRows);
      int64_t b = rng->UniformInt(1, kHotRows - 1);
      if (b >= a) ++b;
      unit->stmts.push_back(Make("BEGIN", {}, -1));
      unit->stmts.push_back(
          Make(kUpdateSql, {{"k", Value::Int(std::min(a, b))}}, kUpdate));
      unit->stmts.push_back(
          Make(kUpdateSql, {{"k", Value::Int(std::max(a, b))}}, kUpdate));
      unit->stmts.push_back(Make("COMMIT", {}, -1));
      unit->shape = {kUpdate, kUpdate};
      return;
    }
    if (draw < 0.048) {
      // Literal key: a new statement text, so a plan-cache miss + compile.
      const std::string sql =
          kAdhocPrefix + std::to_string(rng->UniformInt(1, data().num_orders));
      unit->stmts.push_back(Make(sql.c_str(), {}, kAdhoc));
      unit->shape = {kAdhoc};
      return;
    }
    if (draw < 0.058) {
      const int64_t span = rng->UniformInt(8, 16);
      const int64_t lo = rng->UniformInt(1, data().num_orders - span);
      unit->stmts.push_back(Make(
          kJoinSql, {{"lo", Value::Int(lo)}, {"hi", Value::Int(lo + span - 1)}},
          kJoin));
      unit->shape = {kJoin};
      return;
    }
    if (rng->OneIn(2)) {
      unit->stmts.push_back(LineitemPoint(keys_, rng, kLineitem));
      unit->shape = {kLineitem};
    } else {
      unit->stmts.push_back(OrdersPoint(data().num_orders, rng, kOrders));
      unit->shape = {kOrders};
    }
  }

  void Check(const CheckInput& in,
             std::vector<std::string>* errors) const override {
    const Ledger& ledger = *in.ledger;
    const auto& sessions = *in.sessions;
    const auto& templates = *in.templates;
    const auto fires = RuleFires(*in.monitor);
    auto fired = [&](const std::string& rule) -> uint64_t {
      auto it = fires.find(rule);
      return it == fires.end() ? 0 : it->second;
    };
    const uint64_t queries = ledger.TotalQueries();
    uint64_t updates = 0;
    for (size_t s = 0; s < ledger.sessions(); ++s) {
      updates += ledger.count(s, kUpdate);
    }

    Fail(errors, "fires of usage", fired("usage"), queries);
    CompareCounts("Usage_LAT",
                  LatCounts(*in.monitor, "Usage_LAT", {"App", "Sig"}, "N",
                            errors),
                  ledger.CountByAppAndSignature(sessions, templates), errors);

    // The outlier rule depends on measured durations: invariants only.
    const uint64_t outliers = fired("outlier");
    Fail(errors, "Outliers rows", TableRows(in.db, "Outliers"), outliers);
    if (outliers > queries) errors->push_back("outlier fired more than queries");

    Fail(errors, "fires of top10", fired("top10"), queries);
    if (cm::Lat* top = in.monitor->FindLat("Top_LAT")) {
      Fail(errors, "Top_LAT rows", top->size(), 10);
      Fail(errors, "Top_LAT evictions", top->stats().evictions.value(),
           top->stats().inserts.value() - 10);
    } else {
      errors->push_back("Top_LAT missing");
    }

    // Lock waits depend on timing, so their rules get invariants: the
    // always-true rules fire on every dispatched event, never on more than
    // the engine raised, and every fire lands in the LAT. The engine drops
    // a Query.Blocked event (and its Block_Released) when the blocker's
    // transaction finished before the hook looked it up; that count is
    // reported, not failed (README.md).
    const uint64_t released =
        HookCalls(*in.monitor, cm::MonitorHook::kBlockReleased);
    const uint64_t blocked_calls =
        HookCalls(*in.monitor, cm::MonitorHook::kBlocked);
    const auto evals = RuleEvaluations(*in.monitor);
    for (const char* rule : {"blocking", "blocked"}) {
      Fail(errors, std::string("fires vs evaluations of ") + rule,
           fired(rule), evals.count(rule) ? evals.at(rule) : 0);
    }
    if (fired("blocking") > released || fired("blocked") > blocked_calls) {
      errors->push_back("blocking rules fired more often than lock waits");
    }
    if (fired("blocked") < blocked_calls) {
      std::fprintf(stderr,
                   "NOTE: %llu of %llu Query.Blocked events not dispatched "
                   "(blocker already finished)\n",
                   static_cast<unsigned long long>(blocked_calls -
                                                   fired("blocked")),
                   static_cast<unsigned long long>(blocked_calls));
    }
    Fail(errors, "Block_LAT COUNT",
         Sum(LatCounts(*in.monitor, "Block_LAT", {"Sig"}, "N", errors)),
         fired("blocking"));
    Fail(errors, "Blocked_LAT COUNT",
         Sum(LatCounts(*in.monitor, "Blocked_LAT", {"App"}, "N", errors)),
         fired("blocked"));

    Fail(errors, "fires of txn_sig", fired("txn_sig"),
         ledger.TotalTransactions());
    CompareCounts("Txn_LAT",
                  LatCounts(*in.monitor, "Txn_LAT", {"Sig"}, "N", errors),
                  ledger.CountByTransactionSignature(templates), errors);

    Fail(errors, "fires of audit", fired("audit"), updates);
    Fail(errors, "Audit rows", TableRows(in.db, "Audit"), updates);

    uint64_t expected_total = 2 * queries + outliers + fired("blocking") +
                              fired("blocked") + ledger.TotalTransactions() +
                              updates;
    std::vector<std::map<std::string, uint64_t>> sel_want(kSelLats);
    for (size_t r = 0; r < selective_.size(); ++r) {
      const uint64_t want =
          ledger.ExpectedFires(selective_[r], sessions, templates);
      expected_total += want;
      Fail(errors, "fires of sel_" + std::to_string(r),
           fired("sel_" + std::to_string(r)), want);
    }
    for (size_t j = 0; j < kSelLats; ++j) {
      std::map<std::string, uint64_t> want;
      for (size_t r = j; r < selective_.size(); r += kSelLats) {
        for (size_t s = 0; s < sessions.size(); ++s) {
          uint64_t n = 0;
          for (size_t t = 0; t < ledger.templates(); ++t) {
            if (selective_[r].Eval(sessions[s], templates[t])) {
              n += ledger.count(s, t);
            }
          }
          if (n > 0) want[sessions[s].application] += n;
        }
      }
      CompareCounts("Sel_" + std::to_string(j),
                    LatCounts(*in.monitor, "Sel_" + std::to_string(j), {"App"},
                              "N", errors),
                    want, errors);
    }
    Fail(errors, "rules_fired", in.monitor->rules_fired(), expected_total);
  }

 private:
  static void AddRule(Installer* in, std::string name, const char* event,
                      std::string condition, std::string action) {
    cm::RuleSpec rule;
    rule.name = std::move(name);
    rule.event = event;
    rule.condition = std::move(condition);
    rule.action = std::move(action);
    in->AddRule(rule);
  }

  static uint64_t Sum(const std::map<std::string, uint64_t>& counts) {
    uint64_t total = 0;
    for (const auto& [_, n] : counts) total += n;
    return total;
  }

  /// ~440 conjunctions of 2-3 atoms. The first atom is rare (an uncommon
  /// template, UPDATE, an unknown application or a cost above every
  /// template's), so most rules reject; the rest repeat across rules, so
  /// the predicate index shares them.
  std::vector<Condition> SelectiveConditions(
      const std::vector<SessionProbes>& sessions,
      const std::vector<TemplateProbes>& templates) const {
    std::vector<Atom> rare;
    std::vector<Atom> common;
    for (int t : {kJoin, kUpdate, kAdhoc}) {
      rare.push_back(Atom::String(Probe::kLogicalSignature, Cmp::kEq,
                                  templates[static_cast<size_t>(t)]
                                      .logical_signature));
    }
    rare.push_back(Atom::String(Probe::kQueryType, Cmp::kEq, "UPDATE"));
    rare.push_back(Atom::String(Probe::kApplication, Cmp::kEq, "etl_batch"));
    std::vector<double> costs;
    for (const auto& t : templates) costs.push_back(t.estimated_cost);
    std::sort(costs.begin(), costs.end());
    rare.push_back(Atom::Number(Probe::kEstimatedCost, Cmp::kGt,
                                costs.back() * 2 + 1));
    for (const auto& s : sessions) {
      common.push_back(
          Atom::String(Probe::kApplication, Cmp::kEq, s.application));
      common.push_back(Atom::Number(Probe::kSessionId, Cmp::kNe,
                                    static_cast<double>(s.session_id)));
    }
    common.push_back(Atom::String(Probe::kQueryType, Cmp::kEq, "SELECT"));
    for (size_t i = 0; i + 1 < costs.size(); ++i) {
      if (costs[i] == costs[i + 1]) continue;
      const double mid = (costs[i] + costs[i + 1]) / 2;
      common.push_back(Atom::Number(Probe::kEstimatedCost, Cmp::kLt, mid));
      common.push_back(Atom::Number(Probe::kEstimatedCost, Cmp::kGt, mid));
    }
    common.push_back(Atom::String(Probe::kLogicalSignature, Cmp::kNe,
                                  templates[kLineitem].logical_signature));

    Random rng(0x5e1ec7);  // fixed: the rule set is part of the workload
    std::vector<Condition> out;
    for (size_t r = 0; r < kSelectiveRules; ++r) {
      Condition cond;
      cond.atoms.push_back(rare[rng.Uniform(rare.size())]);
      const size_t extra = 1 + rng.Uniform(2);
      for (size_t k = 0; k < extra; ++k) {
        cond.atoms.push_back(common[rng.Uniform(common.size())]);
      }
      out.push_back(std::move(cond));
    }
    return out;
  }

  std::vector<std::pair<int64_t, int64_t>> keys_;
  std::vector<Condition> selective_;
};

// ---------------------------------------------------------------------------
// deferred_fanin: async_rule_eval with 2 workers. ~50 deferrable rules fold
// into unbounded (template, application) LATs with moments and sketches; the
// hook only enqueues, the queue, batch drain and InsertBatch do the work.
// ---------------------------------------------------------------------------
class DeferredFanin final : public Workload {
 public:
  static constexpr size_t kRules = 50;

  explicit DeferredFanin(uint64_t seed) : keys_(LineitemKeys(data(), seed)) {}

  const char* name() const override { return "deferred_fanin"; }
  size_t sessions() const override { return 2; }
  size_t monitor_threads() const override { return 2; }
  uint64_t warmup_units() const override { return 3000; }
  std::string application(size_t s) const override {
    return std::string("app_") + static_cast<char>('a' + s);
  }
  std::vector<TemplateDef> templates() const override {
    return {{"lineitem_point",
             Make(kLineitemPointSql,
                  {{"k", Value::Int(1)}, {"l", Value::Int(1)}}, 0)},
            {"orders_point", Make(kOrdersPointSql, {{"k", Value::Int(1)}}, 1)}};
  }

  void Install(Installer* in, const std::vector<SessionProbes>&,
               const std::vector<TemplateProbes>&) override {
    for (size_t r = 0; r < kRules; ++r) {
      cm::LatSpec lat;
      lat.name = "F_" + std::to_string(r);
      lat.group_by = {{"Logical_Signature", "Sig"}, {"Application", "App"}};
      cm::LatAggColumn p90{cm::LatAggFunc::kQuantile, "Duration", "P90", false};
      p90.quantile = 0.9;
      lat.aggregates = {{cm::LatAggFunc::kCount, "", "N", false},
                        {cm::LatAggFunc::kSum, "Duration", "Total", false},
                        {cm::LatAggFunc::kAvg, "Duration", "Avg", false},
                        {cm::LatAggFunc::kMax, "Estimated_Cost", "MaxCost",
                         false},
                        p90,
                        {cm::LatAggFunc::kDistinct, "ID", "Queries", false}};
      in->DefineLat(std::move(lat));
      cm::RuleSpec rule;
      rule.name = "fan_" + std::to_string(r);
      rule.event = "Query.Commit";
      rule.condition = TrueCondition(r);
      rule.action = "Query.Insert(F_" + std::to_string(r) + ")";
      rule.eval_mode = "deferred";
      in->AddRule(rule);
    }
  }

  void NextUnit(size_t, Random* rng, Unit* unit) const override {
    if (rng->OneIn(2)) {
      unit->stmts.push_back(LineitemPoint(keys_, rng, 0));
      unit->shape = {0};
    } else {
      unit->stmts.push_back(OrdersPoint(data().num_orders, rng, 1));
      unit->shape = {1};
    }
  }

  void Check(const CheckInput& in,
             std::vector<std::string>* errors) const override {
    const uint64_t queries = in.ledger->TotalQueries();
    Fail(errors, "rules_fired", in.monitor->rules_fired(), kRules * queries);
    const auto fires = RuleFires(*in.monitor);
    const auto want =
        in.ledger->CountByAppAndSignature(*in.sessions, *in.templates);
    for (size_t r = 0; r < kRules; ++r) {
      const std::string rule = "fan_" + std::to_string(r);
      Fail(errors, "fires of " + rule,
           fires.count(rule) ? fires.at(rule) : 0, queries);
      const std::string lat = "F_" + std::to_string(r);
      CompareCounts(lat,
                    LatCounts(*in.monitor, lat, {"App", "Sig"}, "N", errors),
                    want, errors);
    }
  }

 private:
  std::vector<std::pair<int64_t, int64_t>> keys_;
};

}  // namespace

void Installer::DefineLat(cm::LatSpec spec) {
  const std::string name = spec.name;
  const int64_t start = NowNanos();
  Status s = monitor_->DefineLat(std::move(spec));
  if (tracer_ != nullptr) {
    tracer_->Record(SpanKind::kDefineLat, start, NowNanos());
  }
  if (!s.ok() && status_.ok()) {
    status_ = Status::Internal("DefineLat " + name + ": " + s.ToString());
  }
}

void Installer::AddRule(const cm::RuleSpec& spec) {
  const int64_t start = NowNanos();
  auto id = monitor_->AddRule(spec);
  if (tracer_ != nullptr) {
    tracer_->Record(SpanKind::kAddRule, start, NowNanos());
  }
  if (!id.ok() && status_.ok()) {
    status_ = Status::Internal("AddRule " + spec.name + ": " +
                               id.status().ToString());
  }
}

sqlcm::workload::TpchConfig Workload::data() {
  sqlcm::workload::TpchConfig config;
  config.num_orders = 10'000;  // ~40k lineitem rows
  config.num_parts = 500;
  return config;
}

std::string Workload::application(size_t session) const {
  return std::string(name()) + "_" + std::to_string(session);
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       uint64_t seed) {
  if (name == "e2_rules") return std::make_unique<E2Rules>(seed);
  if (name == "dba_mix") return std::make_unique<DbaMix>(seed);
  if (name == "deferred_fanin") return std::make_unique<DeferredFanin>(seed);
  return nullptr;
}

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {"e2_rules", "dba_mix",
                                                  "deferred_fanin"};
  return kNames;
}

}  // namespace perfbench
