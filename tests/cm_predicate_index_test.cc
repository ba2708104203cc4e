// Differential oracle for the shared predicate index (docs/PERFORMANCE.md
// §Predicate index): randomized rule sets and workloads must produce
// bit-identical firing decisions, rule counters and errors with the index
// off (naive per-rule evaluation) and on — including three-valued edges
// (missing LAT rows, NULL-propagating ORs), mid-event LAT mutation,
// mid-stream CREATE/DROP RULE, and the deferred lane.
#include "sqlcm/predicate_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "engine/session.h"
#include "sqlcm/monitor_engine.h"
#include "sqlcm/system_views.h"

namespace sqlcm::cm {
namespace {

using common::Value;
using exec::ParamMap;
using exec::QueryResult;

/// Per-rule counters that must agree between evaluation strategies. The
/// condition outcome fully determines all four: evaluations (breaker gate),
/// condition_false (reject), fires (pass) and errors (condition faults —
/// the index falls back to naive replay so even those reconcile).
struct RuleOutcome {
  uint64_t evals = 0;
  uint64_t cond_false = 0;
  uint64_t fires = 0;
  uint64_t errors = 0;

  bool operator==(const RuleOutcome& o) const {
    return evals == o.evals && cond_false == o.cond_false &&
           fires == o.fires && errors == o.errors;
  }
};

using OutcomeMap = std::map<std::string, RuleOutcome>;

/// One engine under one Options configuration, with the shared test
/// fixture state (items table) pre-created.
class EngineHarness {
 public:
  explicit EngineHarness(MonitorEngine::Options options) {
    db_ = std::make_unique<engine::Database>();
    monitor_ = std::make_unique<MonitorEngine>(db_.get(), std::move(options));
    session_ = db_->CreateSession();
    Exec("CREATE TABLE items (id INT, grp INT, val FLOAT, PRIMARY KEY(id))");
    for (int i = 0; i < 25; ++i) {
      Exec("INSERT INTO items VALUES (" + std::to_string(i) + ", " +
           std::to_string(i % 5) + ", 1.0)");
    }
  }

  void Exec(const std::string& sql, const ParamMap* params = nullptr) {
    auto result = session_->Execute(sql, params);
    ASSERT_TRUE(result.ok()) << sql << " -> " << result.status();
  }

  QueryResult Query(const std::string& sql) {
    auto result = session_->Execute(sql);
    EXPECT_TRUE(result.ok()) << sql << " -> " << result.status();
    return result.ok() ? *result : QueryResult{};
  }

  void DefineCountLat(const std::string& name) {
    LatSpec spec;
    spec.name = name;
    spec.group_by = {{"Logical_Signature", "Sig"}};
    spec.aggregates = {{LatAggFunc::kCount, "", "N", false}};
    ASSERT_TRUE(monitor_->DefineLat(std::move(spec)).ok());
  }

  void AddRule(const std::string& name, const std::string& condition,
               const std::string& action) {
    RuleSpec spec;
    spec.name = name;
    spec.event = "Query.Commit";
    spec.condition = condition;
    spec.action = action;
    ASSERT_TRUE(monitor_->AddRule(spec).ok()) << name << ": " << condition;
  }

  /// Two query templates (distinct signatures) driven by a deterministic
  /// parameter sequence; every engine given the same `queries` count sees
  /// the same event stream.
  void RunWorkload(int queries) {
    ParamMap params;
    for (int i = 0; i < queries; ++i) {
      params = {{"k", Value::Int(i % 20)}};
      if (i % 3 == 0) {
        Exec("SELECT val FROM items WHERE grp = @k AND val >= 0.0", &params);
      } else {
        Exec("SELECT val FROM items WHERE id = @k", &params);
      }
    }
  }

  OutcomeMap Outcomes() const {
    OutcomeMap out;
    for (const auto& rule : monitor_->SnapshotRules()) {
      RuleOutcome oc;
      oc.evals = rule->stats.evaluations.value();
      oc.cond_false = rule->stats.condition_false.value();
      oc.fires = rule->stats.fires.value();
      oc.errors = rule->stats.errors.value();
      out[rule->name] = oc;
    }
    return out;
  }

  engine::Database* db() { return db_.get(); }
  MonitorEngine* monitor() { return monitor_.get(); }

 private:
  std::unique_ptr<engine::Database> db_;
  std::unique_ptr<MonitorEngine> monitor_;
  std::unique_ptr<engine::Session> session_;
};

MonitorEngine::Options NaiveOptions() {
  MonitorEngine::Options options;
  options.predicate_index = false;
  options.register_system_views = false;
  return options;
}

MonitorEngine::Options IndexedOptions() {
  MonitorEngine::Options options;
  options.predicate_index = true;
  options.register_system_views = false;
  return options;
}

/// Options of differential config `config`: 0 = naive, 1 = indexed.
MonitorEngine::Options ConfigOptions(int config) {
  return config == 0 ? NaiveOptions() : IndexedOptions();
}

/// Deterministic predicate pool: no wall-clock-dependent outcomes (query
/// durations only ever compared against 0 or an unreachable bound), so two
/// engines fed the same workload agree event by event.
const char* const kPredicatePool[] = {
    "Query.ID >= 0",
    "Query.ID < 0",
    "Query.Duration >= 0",
    "Query.Duration > 100000000",
    "NOT (Query.ID < 0)",
    "5 < Query.ID",
    "Query.ID > 5",
    "Count_LAT.N >= 1",
    "Count_LAT.N > 2",
    "Count_LAT.N < 0",
    "Count_LAT.N <= 10000",
    "Count_LAT.N >= 1 OR Query.ID < 0",
    "Sparse_LAT.N >= 0",
};
constexpr size_t kPoolSize = sizeof(kPredicatePool) / sizeof(char*);

/// Builds a seeded random rule set over the pool. The Count_LAT feed rule
/// lands at a random position, so rules ahead of it see a missing LAT row
/// on each template's first event; Sparse_LAT is never fed, so predicates
/// on it exercise the implicit-∃ reject (§5.2) on every event. A random
/// "bump" rule re-inserts into Count_LAT mid-event to exercise memo
/// invalidation under randomized orderings.
void AddSeededRules(EngineHarness* h, uint32_t seed) {
  std::mt19937 rng(seed);
  h->DefineCountLat("Count_LAT");
  h->DefineCountLat("Sparse_LAT");

  const int n_rules = 6 + static_cast<int>(rng() % 5);
  const int feed_pos = static_cast<int>(rng() % n_rules);
  const int bump_pos = static_cast<int>(rng() % n_rules);
  for (int r = 0; r < n_rules; ++r) {
    if (r == feed_pos) {
      h->AddRule("feed", "", "Query.Insert(Count_LAT)");
      continue;
    }
    const int conjuncts = 1 + static_cast<int>(rng() % 3);
    std::string condition;
    for (int c = 0; c < conjuncts; ++c) {
      if (c > 0) condition += " AND ";
      condition += kPredicatePool[rng() % kPoolSize];
    }
    const std::string name = "r" + std::to_string(r);
    if (r == bump_pos) {
      h->AddRule(name, condition, "Query.Insert(Count_LAT)");
    } else {
      h->AddRule(name, condition, "Query.Persist(Sink_" + name + ", ID)");
    }
  }
}

TEST(PredicateIndexDifferentialTest, RandomizedRuleSetsFireIdentically) {
  for (uint32_t seed = 1; seed <= 6; ++seed) {
    std::vector<OutcomeMap> outcomes;
    for (int config = 0; config < 2; ++config) {
      EngineHarness h(ConfigOptions(config));
      AddSeededRules(&h, seed);
      h.RunWorkload(60);
      outcomes.push_back(h.Outcomes());
      if (config > 0) {
        // The index must actually be exercised, or this proves nothing.
        EXPECT_GT(h.monitor()->metrics().predindex_evals.value(), 0u)
            << "seed " << seed;
      }
    }
    EXPECT_EQ(outcomes[0], outcomes[1]) << "naive vs indexed, seed " << seed;
  }
}

TEST(PredicateIndexDifferentialTest, MissingLatRowRejectsWithoutLeaking) {
  // §5.2 implicit ∃: a predicate over a LAT with no matching row rejects
  // even when trivially true of the values — and the sticky missing-row
  // flag must not leak into the NEXT rule sharing the event's context.
  for (int config = 0; config < 2; ++config) {
    EngineHarness h(ConfigOptions(config));
    h.DefineCountLat("Missing_LAT");
    h.AddRule("on_missing", "Missing_LAT.N >= 0",
              "Query.Persist(SinkM, ID)");
    h.AddRule("after_missing", "Query.ID >= 0",
              "Query.Persist(SinkA, ID)");
    h.RunWorkload(12);
    const OutcomeMap oc = h.Outcomes();
    EXPECT_EQ(oc.at("on_missing").fires, 0u) << "config " << config;
    EXPECT_EQ(oc.at("on_missing").cond_false, 12u) << "config " << config;
    EXPECT_EQ(oc.at("after_missing").fires, 12u) << "config " << config;
  }
}

TEST(PredicateIndexDifferentialTest, MidEventLatMutationInvalidatesMemo) {
  // reader1 and reader2 share the conjunct "Count_LAT.N <= 1". Between
  // them, "bump" re-inserts the event's query into Count_LAT, so on every
  // event reader2 must see N one higher than reader1 did. A stale memo
  // would replay reader1's verdict and over-fire reader2.
  std::vector<OutcomeMap> outcomes;
  for (int config = 0; config < 2; ++config) {
    EngineHarness h(ConfigOptions(config));
    h.DefineCountLat("Count_LAT");
    h.AddRule("seed_feed", "", "Query.Insert(Count_LAT)");
    h.AddRule("reader1", "Count_LAT.N <= 1", "Query.Persist(Sink1, ID)");
    h.AddRule("bump", "Count_LAT.N <= 1", "Query.Insert(Count_LAT)");
    h.AddRule("reader2", "Count_LAT.N <= 1", "Query.Persist(Sink2, ID)");
    ParamMap params = {{"k", Value::Int(1)}};
    h.Exec("SELECT val FROM items WHERE id = @k", &params);
    const OutcomeMap oc = h.Outcomes();
    // First event of the template: seed_feed makes N=1, reader1 and bump
    // both see N=1 (fire), bump's insert makes N=2, reader2 must reject.
    EXPECT_EQ(oc.at("reader1").fires, 1u) << "config " << config;
    EXPECT_EQ(oc.at("bump").fires, 1u) << "config " << config;
    EXPECT_EQ(oc.at("reader2").fires, 0u) << "config " << config;
    if (config > 0) {
      EXPECT_GT(h.monitor()->metrics().predindex_invalidations.value(), 0u);
    }
    outcomes.push_back(oc);
  }
  EXPECT_EQ(outcomes[0], outcomes[1]);
}

TEST(PredicateIndexTest, AttributeOnlyConditionsSkipMemoInvalidation) {
  // Count-based: with no LAT-reading predicate in the index, a fired
  // Insert changes nothing any later rule's condition reads, so the memo
  // is never flushed, and every rule still fires on every event.
  constexpr int kRules = 20;
  constexpr int kEvents = 30;
  EngineHarness h(IndexedOptions());
  h.DefineCountLat("Count_LAT");
  for (int r = 0; r < kRules; ++r) {
    h.AddRule("ins" + std::to_string(r),
              r % 2 == 0 ? "Query.ID >= 0" : "Query.Duration >= 0",
              "Query.Insert(Count_LAT)");
  }
  h.RunWorkload(kEvents);
  EXPECT_EQ(h.monitor()->metrics().predindex_invalidations.value(), 0u);
  for (const auto& [name, oc] : h.Outcomes()) {
    EXPECT_EQ(oc.fires, static_cast<uint64_t>(kEvents)) << name;
  }
  int64_t inserted = 0;
  for (const common::Row& row :
       h.monitor()->FindLat("Count_LAT")->Snapshot(0)) {
    inserted += row.back().int_value();
  }
  EXPECT_EQ(inserted, int64_t{kRules} * kEvents);
}

TEST(PredicateIndexDifferentialTest, ThreeValuedOrEdgesAgree) {
  // OR conjuncts interact with the missing-row flag in both operand
  // orders; all strategies must agree (the conjunct is one predicate, so
  // this pins EvaluatePredicate's classification, not just the walk).
  std::vector<OutcomeMap> outcomes;
  for (int config = 0; config < 2; ++config) {
    EngineHarness h(ConfigOptions(config));
    h.DefineCountLat("Missing_LAT");
    h.AddRule("or_left_live", "Query.ID >= 0 OR Missing_LAT.N > 0",
              "Query.Persist(SinkL, ID)");
    h.AddRule("or_right_live", "Missing_LAT.N > 0 OR Query.ID >= 0",
              "Query.Persist(SinkR, ID)");
    h.AddRule("not_wrapped", "NOT (Query.ID < 0) AND Query.Duration >= 0",
              "Query.Persist(SinkN, ID)");
    h.RunWorkload(9);
    outcomes.push_back(h.Outcomes());
    EXPECT_EQ(outcomes.back().at("not_wrapped").fires, 9u)
        << "config " << config;
  }
  EXPECT_EQ(outcomes[0], outcomes[1]);
}

TEST(PredicateIndexDifferentialTest, MidStreamRuleChurnKeepsAgreement) {
  // CREATE/DROP RULE mid-stream republishes the RCU table and rebuilds the
  // index; outcomes must keep matching.
  std::vector<OutcomeMap> outcomes;
  for (int config = 0; config < 2; ++config) {
    EngineHarness h(ConfigOptions(config));
    h.DefineCountLat("Count_LAT");
    h.AddRule("feed", "", "Query.Insert(Count_LAT)");
    RuleSpec dropme;
    dropme.name = "dropme";
    dropme.event = "Query.Commit";
    dropme.condition = "Count_LAT.N >= 1";
    dropme.action = "Query.Persist(SinkD, ID)";
    auto dropme_id = h.monitor()->AddRule(dropme);
    ASSERT_TRUE(dropme_id.ok());
    h.AddRule("keeper", "Count_LAT.N >= 1 AND Query.ID >= 0",
              "Query.Persist(SinkK, ID)");
    h.RunWorkload(30);
    ASSERT_TRUE(h.monitor()->RemoveRule(*dropme_id).ok());
    h.AddRule("late", "Count_LAT.N > 2", "Query.Persist(SinkLate, ID)");
    h.RunWorkload(30);
    outcomes.push_back(h.Outcomes());
    EXPECT_GT(outcomes.back().at("late").fires, 0u) << "config " << config;
  }
  EXPECT_EQ(outcomes[0], outcomes[1]);
}

TEST(PredicateIndexDifferentialTest, DeferredLaneFiresIdentically) {
  // Same oracle through the async pipeline: deferrable rules drain on a
  // single worker (FIFO), with the deferred-lane index on vs off. Deferred
  // Insert actions flush at batch boundaries, so live-LAT conditions are
  // batch-timing-dependent even naively — conditions here stick to event
  // attributes and a never-fed LAT (deterministically missing).
  std::vector<OutcomeMap> outcomes;
  for (int config = 0; config < 2; ++config) {
    MonitorEngine::Options options = ConfigOptions(config);
    options.async_rule_eval = true;
    options.monitor_threads = 1;
    EngineHarness h(options);
    h.DefineCountLat("Count_LAT");
    h.DefineCountLat("Sparse_LAT");
    h.AddRule("feed", "", "Query.Insert(Count_LAT)");
    h.AddRule("d0", "Query.ID >= 0 AND Query.Duration >= 0",
              "Query.Persist(Sink_d0, ID)");
    h.AddRule("d1", "5 < Query.ID AND NOT (Query.ID < 0)",
              "Query.Persist(Sink_d1, ID)");
    h.AddRule("d2", "Sparse_LAT.N >= 0", "Query.Persist(Sink_d2, ID)");
    h.AddRule("d3", "Query.Duration > 100000000 AND Query.ID >= 0",
              "Query.Persist(Sink_d3, ID)");
    h.AddRule("d4", "Query.ID > 5 OR Query.ID < 0",
              "Query.Persist(Sink_d4, ID)");
    h.RunWorkload(60);
    h.monitor()->DrainEventQueue();
    outcomes.push_back(h.Outcomes());
    EXPECT_GT(h.monitor()->metrics().queue_enqueued.value(), 0u)
        << "config " << config;
  }
  EXPECT_EQ(outcomes[0], outcomes[1]);
}

TEST(PredicateIndexTest, SharedConjunctsDeduplicateAcrossRules) {
  EngineHarness h(IndexedOptions());
  h.DefineCountLat("Count_LAT");
  h.AddRule("feed", "", "Query.Insert(Count_LAT)");
  // Same conjunct authored three ways: verbatim, duplicated, and mirrored
  // (literal-first comparison) — canonicalization must fold all of them.
  h.AddRule("a", "Count_LAT.N >= 1 AND Query.ID > 5",
            "Query.Persist(SinkA, ID)");
  h.AddRule("b", "Count_LAT.N >= 1 AND Query.Duration >= 0",
            "Query.Persist(SinkB, ID)");
  h.AddRule("c", "5 < Query.ID", "Query.Persist(SinkC, ID)");
  h.RunWorkload(20);

  bool found_shared_lat = false;
  bool found_mirrored = false;
  for (const auto& row : h.monitor()->SnapshotPredicateStats()) {
    if (row.text == "(count_lat.N >= 1)") {
      found_shared_lat = true;
      EXPECT_EQ(row.subscribers, 2u);
      EXPECT_GT(row.evals, 0u);
    }
    if (row.text == "(Query.ID > 5)") {
      found_mirrored = true;
      EXPECT_EQ(row.subscribers, 2u) << "mirror normalization should fold "
                                        "'5 < Query.ID' into 'Query.ID > 5'";
    }
  }
  EXPECT_TRUE(found_shared_lat);
  EXPECT_TRUE(found_mirrored);
  // Sharing shows up as memo hits: at least the duplicated conjuncts were
  // answered without re-evaluation.
  EXPECT_GT(h.monitor()->metrics().predindex_memo_hits.value(), 0u);
}

TEST(PredicateIndexTest, RulePredicateStatsViewIsQueryable) {
  MonitorEngine::Options options = IndexedOptions();
  options.register_system_views = true;
  EngineHarness h(options);
  h.DefineCountLat("Count_LAT");
  h.AddRule("feed", "", "Query.Insert(Count_LAT)");
  h.AddRule("a", "Count_LAT.N >= 1 AND Query.ID >= 0",
            "Query.Persist(SinkA, ID)");
  h.AddRule("b", "Count_LAT.N >= 1", "Query.Persist(SinkB, ID)");
  h.RunWorkload(20);

  // The eval_count of the shared LAT conjunct, or -1 when it has no row.
  auto shared_evals = [&h] {
    const QueryResult result = h.Query(
        "SELECT event, lane, predicate, rules, eval_count, pass_count, "
        "pass_rate FROM sqlcm_rule_predicate_stats");
    EXPECT_GE(result.rows.size(), 2u);
    int64_t evals = -1;
    for (const auto& row : result.rows) {
      if (row[2].ToDisplayString() != "(count_lat.N >= 1)") continue;
      EXPECT_EQ(row[0].ToDisplayString(), "Query.Commit");
      EXPECT_EQ(row[1].ToDisplayString(), "sync");
      EXPECT_EQ(row[3].int_value(), 2);
      EXPECT_GT(row[6].double_value(), 0.0);  // passes once the row exists
      evals = row[4].int_value();
    }
    return evals;
  };
  const int64_t before = shared_evals();
  EXPECT_GE(before, 20);
  // Rule DDL rebuilds every index; the counts carry over.
  h.AddRule("c", "Query.ID < 0", "Query.Persist(SinkC, ID)");
  h.RunWorkload(1);
  EXPECT_GT(shared_evals(), before);

  const QueryResult all =
      h.Query("SELECT * FROM sqlcm_rule_predicate_stats");
  EXPECT_EQ(all.column_names,
            (std::vector<std::string>{"event", "lane", "hash", "predicate",
                                      "rules", "eval_count", "pass_count",
                                      "pass_rate"}));
}

TEST(PredicateIndexTest, ConcurrentEvalAndRuleChurnIsRaceFree) {
  // TSan target: query threads evaluating through the index while a churn
  // thread's CREATE/DROP RULE republishes the rule table under them.
  EngineHarness h(IndexedOptions());
  h.DefineCountLat("Count_LAT");
  h.AddRule("feed", "", "Query.Insert(Count_LAT)");
  h.AddRule("stable", "Count_LAT.N >= 1 AND Query.Duration >= 0",
            "Query.Persist(SinkS, ID)");

  std::atomic<int> running{3};
  std::vector<std::thread> workers;
  for (int t = 0; t < 3; ++t) {
    workers.emplace_back([&h, &running, t] {
      auto session = h.db()->CreateSession();
      ParamMap params;
      for (int i = 0; i < 200; ++i) {
        params = {{"k", Value::Int((t * 7 + i) % 20)}};
        auto result =
            session->Execute("SELECT val FROM items WHERE id = @k", &params);
        EXPECT_TRUE(result.ok()) << result.status();
      }
      running.fetch_sub(1, std::memory_order_release);
    });
  }
  // Churns until every worker is done, so republishes overlap dispatch.
  std::thread churn([&h, &running] {
    for (int i = 0; i < 40 || running.load(std::memory_order_acquire) > 0;
         ++i) {
      RuleSpec spec;
      spec.name = "churn";
      spec.event = "Query.Commit";
      spec.condition = "Count_LAT.N >= 1";
      spec.action = "Query.Persist(SinkC, ID)";
      auto id = h.monitor()->AddRule(spec);
      ASSERT_TRUE(id.ok());
      ASSERT_TRUE(h.monitor()->RemoveRule(*id).ok());
    }
  });
  for (auto& w : workers) w.join();
  churn.join();

  const OutcomeMap oc = h.Outcomes();
  EXPECT_EQ(oc.at("stable").evals, 600u);
  EXPECT_EQ(oc.at("stable").errors, 0u);
}

// ---------------------------------------------------------------------------
// Dispatch by subscription: access groups must reproduce naive per-rule
// dispatch exactly (fires in activation order, per-rule stats, breakers,
// LAT state) while visiting fewer rules.
// ---------------------------------------------------------------------------

/// Conjuncts over event attributes (group keys when first in a walk),
/// varying per event through Query.ID.
const char* const kAttrPool[] = {
    "Query.ID % 4 = 1",  "Query.ID % 3 = 0",     "Query.ID % 5 < 2",
    "Query.ID % 7 > 8",  "Query.ID > 0",         "Query.Duration > 100000000",
    "Query.ID % 2 = 0",  "Query.Duration >= 0",  "Query.ID > NULL",
};
/// Conjuncts that keep a rule residual when first: LAT reads (one never
/// fed, so NULL by §5.2), OR and NOT roots.
const char* const kResidualPool[] = {
    "Count_LAT.N >= 2",
    "Count_LAT.N < 3",
    "Sparse_LAT.N >= 0",
    "Query.ID % 4 = 1 OR Query.ID % 3 = 0",
    "NOT (Query.ID % 5 < 2)",
};
/// Conjuncts that raise errors: always, or on every third event.
const char* const kErrorPool[] = {
    "Query.ID % 0 = 1",
    "Query.ID / (Query.ID % 3) >= 0",
};
/// Timer-alarm conjuncts (the alarm count falls by one per alarm).
const char* const kTimerPool[] = {
    "Timer.Remaining_Alarms % 2 = 0",
    "Timer.Remaining_Alarms % 3 = 1",
    "Timer.Remaining_Alarms > 1000000",
};

template <size_t N>
const char* Pick(std::mt19937* rng, const char* const (&pool)[N]) {
  return pool[(*rng)() % N];
}

/// What an engine did over one scripted stream.
struct DispatchRecord {
  std::vector<std::string> fires;  // SendMail bodies, in dispatch order
  /// Per rule: evaluations, condition_false, errors, fires, breaker trips,
  /// breaker skips, breaker state.
  std::map<std::string, std::vector<uint64_t>> rules;
  std::map<std::string, std::vector<std::string>> lats;  // sorted rows
  uint64_t visited = 0;
  uint64_t skipped = 0;
  uint64_t evals = 0;      // predindex_evals
  uint64_t memo_hits = 0;  // predindex_memo_hits
  uint64_t total_errors = 0;
  std::vector<std::string> error_messages;  // recent_errors(), sorted
};

class SubscriptionScript {
 public:
  SubscriptionScript(uint32_t seed, bool with_errors)
      : seed_(seed), with_errors_(with_errors) {}

  DispatchRecord Run(MonitorEngine::Options options) {
    // Breakers that trip stay open for the whole run (no time-dependent
    // half-open probe); the script reinstates them mid-stream instead.
    options.breaker.cooldown_micros = int64_t{3600} * 1000 * 1000;
    EngineHarness h(options);
    MonitorEngine* m = h.monitor();
    h.DefineCountLat("Count_LAT");
    h.DefineCountLat("Sparse_LAT");
    EXPECT_TRUE(m->CreateTimer("tick_a").ok());
    EXPECT_TRUE(m->CreateTimer("tick_b").ok());
    EXPECT_TRUE(m->SetTimer("tick_a", 0.001, 100000).ok());
    EXPECT_TRUE(m->SetTimer("tick_b", 0.001, 100000).ok());

    std::mt19937 rng(seed_);
    std::vector<uint64_t> ids;
    const int n_rules = 14 + static_cast<int>(rng() % 8);
    const int feed_pos = static_cast<int>(rng() % n_rules);
    const int trip_pos = static_cast<int>(rng() % n_rules);
    const int null_pos = static_cast<int>(rng() % n_rules);
    for (int r = 0; r < n_rules; ++r) {
      const char* fixed = nullptr;
      if (with_errors_ && r == trip_pos) {
        // Errors on the three events in four its access predicate passes,
        // which trips its breaker (error rate >= 50 %); on the fourth its
        // group is rejected while the breaker is open.
        fixed = "Query.ID % 4 > 0 AND Query.ID % 0 = 1";
      } else if (with_errors_ && r == null_pos) {
        // A NULL access predicate does not reject in authoring order: the
        // walk goes on to the conjunct that errors on every third event.
        fixed = "Query.ID > NULL AND Query.ID / (Query.ID % 3) >= 0";
      }
      ids.push_back(AddRandomRule(m, &rng, r, r == feed_pos, fixed));
    }
    if (with_errors_) {
      // One erroring conjunct shared by two rules: its error is memoized
      // once per event and each rule is replayed naively, which must
      // report exactly what naive dispatch does.
      for (const char* name : {"shared_err_a", "shared_err_b"}) {
        RuleSpec spec;
        spec.name = name;
        spec.event = "Query.Commit";
        spec.condition = "Query.ID / (Query.ID % 3) >= 0 AND Query.ID > 2";
        spec.action = std::string("SendMail('") + name + " {Query.ID}', 'dba')";
        auto id = m->AddRule(spec);
        EXPECT_TRUE(id.ok()) << id.status();
        if (id.ok()) ids.push_back(*id);
      }
    }
    int64_t poll_at = int64_t{1} << 50;
    auto stream = [&](int queries) {
      ParamMap params;
      for (int i = 0; i < queries; ++i) {
        params = {{"k", Value::Int(i % 20)}};
        if (i % 3 == 0) {
          h.Exec("SELECT val FROM items WHERE grp = @k AND val >= 0.0",
                 &params);
        } else {
          h.Exec("SELECT val FROM items WHERE id = @k", &params);
        }
        if (i % 5 == 4) {
          poll_at += int64_t{1000} * 1000 * 1000;
          m->timer_manager()->Poll(poll_at);
        }
      }
    };
    stream(60);
    // Mid-stream DDL: drop two rules, add two, reinstate every breaker.
    for (int d = 0; d < 2; ++d) {
      const size_t victim = rng() % ids.size();
      EXPECT_TRUE(m->RemoveRule(ids[victim]).ok());
      ids.erase(ids.begin() + static_cast<long>(victim));
    }
    for (int r = n_rules; r < n_rules + 2; ++r) {
      ids.push_back(AddRandomRule(m, &rng, r, false, nullptr));
    }
    for (uint64_t id : ids) EXPECT_TRUE(m->ReinstateRule(id).ok());
    stream(60);

    DispatchRecord out;
    for (const auto& mail : m->capturing_mailer()->mails()) {
      out.fires.push_back(mail.body);
    }
    for (const auto& rule : m->SnapshotRules()) {
      out.rules[rule->name] = {
          rule->stats.evaluations.value(),
          rule->stats.condition_false.value(),
          rule->stats.errors.value(),
          rule->stats.fires.value(),
          rule->breaker.trips(),
          rule->breaker.skipped(),
          static_cast<uint64_t>(rule->breaker.state())};
    }
    for (const char* lat : {"Count_LAT", "Sparse_LAT"}) {
      std::vector<std::string>& rows = out.lats[lat];
      for (const common::Row& row : m->FindLat(lat)->Snapshot(0)) {
        std::string text;
        for (const Value& v : row) text += v.ToDisplayString() + "|";
        rows.push_back(std::move(text));
      }
      std::sort(rows.begin(), rows.end());
    }
    out.visited = m->metrics().rules_visited.value();
    out.skipped = m->metrics().rules_skipped.value();
    out.evals = m->metrics().predindex_evals.value();
    out.memo_hits = m->metrics().predindex_memo_hits.value();
    out.total_errors = m->total_errors();
    for (const auto& error : m->recent_errors()) {
      out.error_messages.push_back(error.message);
    }
    std::sort(out.error_messages.begin(), out.error_messages.end());
    return out;
  }

 private:
  /// A random rule, or one with the `fixed` condition when non-null.
  uint64_t AddRandomRule(MonitorEngine* m, std::mt19937* rng, int r,
                         bool feed, const char* fixed) {
    const std::string name = "r" + std::to_string(r);
    RuleSpec spec;
    spec.name = name;
    spec.event = "Query.Commit";
    const std::string mail = "SendMail('" + name + " {Query.ID}', 'dba')";
    spec.action = feed ? mail + "; Query.Insert(Count_LAT)" : mail;
    if (fixed != nullptr) {
      spec.condition = fixed;
    } else if ((*rng)() % 8 == 0) {
      // Timer alarms: unqualified rules can be grouped, qualified ones
      // stay residual.
      const uint32_t kind = (*rng)() % 3;
      spec.event = kind == 0   ? "Timer.Alarm"
                   : kind == 1 ? "tick_a.Alarm"
                               : "tick_b.Alarm";
      spec.condition = Pick(rng, kTimerPool);
      if ((*rng)() % 2 == 0) {
        spec.condition += std::string(" AND ") + Pick(rng, kTimerPool);
      }
      spec.action = "SendMail('" + name +
                    " {Timer.Name} {Timer.Remaining_Alarms}', 'dba')";
    } else if ((*rng)() % 10 != 0) {  // the rest stay unconditioned
      const int conjuncts = 1 + static_cast<int>((*rng)() % 3);
      for (int c = 0; c < conjuncts; ++c) {
        if (c > 0) spec.condition += " AND ";
        const uint32_t draw = (*rng)() % 10;
        if (with_errors_ && draw == 0) {
          spec.condition += Pick(rng, kErrorPool);
        } else if (draw < 4) {
          spec.condition += Pick(rng, kResidualPool);
        } else {
          spec.condition += Pick(rng, kAttrPool);
        }
      }
    }
    auto id = m->AddRule(spec);
    EXPECT_TRUE(id.ok()) << name << ": " << spec.condition << " -> "
                         << id.status();
    return id.ok() ? *id : 0;
  }

  uint32_t seed_;
  bool with_errors_;
};

void ExpectSameDispatch(const DispatchRecord& naive,
                        const DispatchRecord& indexed, const std::string& what) {
  EXPECT_EQ(naive.fires, indexed.fires) << what;
  EXPECT_EQ(naive.rules, indexed.rules) << what;
  EXPECT_EQ(naive.lats, indexed.lats) << what;
  // The error reports themselves, not only the per-rule counts.
  EXPECT_EQ(naive.total_errors, indexed.total_errors) << what;
  EXPECT_EQ(naive.error_messages, indexed.error_messages) << what;
  // Every rule naive dispatch considered was either visited or answered by
  // its group.
  EXPECT_EQ(naive.skipped, 0u) << what;
  EXPECT_EQ(naive.visited, indexed.visited + indexed.skipped) << what;
}

TEST(SubscriptionDispatchTest, IndexMatchesNaiveDispatchWithErrors) {
  // The index walks authoring order, so even erroring conjuncts (and the
  // breaker trips they cause) must agree event by event.
  uint64_t skipped = 0;
  uint64_t trip_skips = 0;
  for (uint32_t seed = 1; seed <= 8; ++seed) {
    SubscriptionScript script(seed, /*with_errors=*/true);
    const DispatchRecord naive = script.Run(NaiveOptions());
    const DispatchRecord indexed = script.Run(IndexedOptions());
    const std::string what = "seed " + std::to_string(seed);
    ExpectSameDispatch(naive, indexed, what);
    EXPECT_GT(indexed.total_errors, 0u) << what;
    skipped += indexed.skipped;
    for (const auto& [name, stats] : indexed.rules) trip_skips += stats[5];
  }
  // The oracle must exercise what it checks: rejected groups, and open
  // breakers inside them.
  EXPECT_GT(skipped, 0u);
  EXPECT_GT(trip_skips, 0u);
}

TEST(SubscriptionDispatchTest, WalkCountsRepeatExactly) {
  // The walk order is the authoring order, so the work the index does
  // depends only on the rule set and the event stream: two engines fed
  // one scripted stream count the same conjunct evaluations, memo hits,
  // visits and skips.
  for (uint32_t seed = 1; seed <= 4; ++seed) {
    SubscriptionScript script(seed, /*with_errors=*/true);
    const DispatchRecord first = script.Run(IndexedOptions());
    const DispatchRecord second = script.Run(IndexedOptions());
    const std::string what = "seed " + std::to_string(seed);
    EXPECT_GT(first.evals, 0u) << what;
    EXPECT_GT(first.skipped, 0u) << what;
    EXPECT_EQ(first.evals, second.evals) << what;
    EXPECT_EQ(first.memo_hits, second.memo_hits) << what;
    EXPECT_EQ(first.visited, second.visited) << what;
    EXPECT_EQ(first.skipped, second.skipped) << what;
  }
}

TEST(SubscriptionDispatchTest, DeferredLaneMatchesNaiveDispatch) {
  // The deferred lane dispatches through the same matcher.
  std::vector<OutcomeMap> outcomes;
  std::vector<uint64_t> skipped;
  for (int config = 0; config < 2; ++config) {
    MonitorEngine::Options options = ConfigOptions(config);
    options.async_rule_eval = true;
    options.monitor_threads = 1;
    EngineHarness h(options);
    h.DefineCountLat("Count_LAT");
    h.AddRule("feed", "", "Query.Insert(Count_LAT)");
    for (int r = 0; r < 12; ++r) {
      h.AddRule("g" + std::to_string(r),
                std::string(kAttrPool[r % 4]) + " AND Query.ID % " +
                    std::to_string(2 + r % 3) + " = 0",
                "Query.Persist(Sink_g" + std::to_string(r) + ", ID)");
    }
    h.RunWorkload(60);
    h.monitor()->DrainEventQueue();
    outcomes.push_back(h.Outcomes());
    skipped.push_back(h.monitor()->metrics().rules_skipped.value());
  }
  EXPECT_EQ(outcomes[0], outcomes[1]);
  EXPECT_EQ(skipped[0], 0u);
  EXPECT_GT(skipped[1], 0u);
}

TEST(SubscriptionDispatchTest, FourSessionsKeepDerivedStatsExact) {
  // Four sessions dispatch while rule DDL republishes the table (retiring
  // access-group generations, whose tallies fold into the rules) and a
  // reader samples the derived counters. At quiescence every count must be
  // exact.
  EngineHarness h(IndexedOptions());
  h.DefineCountLat("Count_LAT");
  h.AddRule("feed", "", "Query.Insert(Count_LAT)");
  for (int r = 0; r < 24; ++r) {
    const char* access = r % 3 == 0   ? "Query.ID < 0"
                         : r % 3 == 1 ? "Query.Duration > 100000000"
                                      : "Query.ID % 2 = 0";
    h.AddRule("s" + std::to_string(r),
              std::string(access) + " AND Query.ID > " + std::to_string(r),
              "Query.Persist(Sink_s" + std::to_string(r % 4) + ", ID)");
  }
  const size_t rule_count = h.monitor()->rule_count();

  constexpr int kSessions = 4;
  constexpr int kQueries = 250;
  std::atomic<bool> done{false};
  std::thread reader([&h, &done] {
    while (!done.load(std::memory_order_acquire)) {
      for (const auto& rule : h.monitor()->SnapshotRules()) {
        (void)rule->stats.evaluations.value();
        (void)rule->stats.condition_false.value();
        (void)rule->breaker.consecutive_failures();
      }
    }
  });
  // CREATE/DROP RULE on an event the sessions never raise: every DDL
  // rebuilds the Query.Commit groups without changing what they dispatch.
  uint64_t churns = 0;
  std::thread churn([&h, &done, &churns] {
    RuleSpec spec;
    spec.name = "churn";
    spec.event = "Query.Cancel";
    spec.condition = "Query.ID < 0";
    spec.action = "Query.Persist(SinkC, ID)";
    while (!done.load(std::memory_order_acquire)) {
      auto id = h.monitor()->AddRule(spec);
      ASSERT_TRUE(id.ok()) << id.status();
      ASSERT_TRUE(h.monitor()->RemoveRule(*id).ok());
      ++churns;
    }
  });
  std::vector<std::thread> sessions;
  for (int t = 0; t < kSessions; ++t) {
    sessions.emplace_back([&h, t] {
      auto session = h.db()->CreateSession();
      ParamMap params;
      for (int i = 0; i < kQueries; ++i) {
        params = {{"k", Value::Int((t * 7 + i) % 20)}};
        auto result =
            session->Execute("SELECT val FROM items WHERE id = @k", &params);
        ASSERT_TRUE(result.ok()) << result.status();
      }
    });
  }
  for (auto& t : sessions) t.join();
  done.store(true, std::memory_order_release);
  reader.join();
  churn.join();

  const uint64_t events = uint64_t{kSessions} * kQueries;
  const MonitorMetrics& metrics = h.monitor()->metrics();
  EXPECT_EQ(metrics.events_processed.value(), events);
  EXPECT_EQ(metrics.rules_visited.value() + metrics.rules_skipped.value(),
            events * rule_count);
  EXPECT_GT(metrics.rules_skipped.value(), 0u);
  EXPECT_GT(churns, 0u);
  uint64_t fires = 0;
  for (const auto& rule : h.monitor()->SnapshotRules()) {
    SCOPED_TRACE(rule->name);
    EXPECT_EQ(rule->stats.evaluations.value(), events);
    EXPECT_EQ(rule->stats.condition_false.value() + rule->stats.fires.value(),
              events);
    EXPECT_EQ(rule->stats.errors.value(), 0u);
    EXPECT_EQ(rule->breaker.state(), RuleBreaker::State::kClosed);
    EXPECT_EQ(rule->breaker.consecutive_failures(), 0);
    fires += rule->stats.fires.value();
  }
  EXPECT_EQ(metrics.rules_fired.value(), fires);
}

TEST(SubscriptionDispatchTest, VisitsPerEventStayFlatAsRejectedRulesGrow) {
  // Count-based, no timing: the rules an event visits are the residual
  // ones plus the members of passing groups, however many rules their
  // rejected groups hold.
  constexpr int kEvents = 20;
  std::vector<uint64_t> visits;
  for (int selective : {7, 437, 2000}) {
    EngineHarness h(IndexedOptions());
    h.DefineCountLat("Count_LAT");
    h.AddRule("feed", "", "Query.Insert(Count_LAT)");
    h.AddRule("reader", "Count_LAT.N >= 1", "Query.Persist(SinkR, ID)");
    h.AddRule("always", "Query.ID > 0", "Query.Persist(SinkA, ID)");
    const char* const rare[] = {"Query.ID < 0", "Query.ID < -1",
                                "Query.Duration > 100000000"};
    for (int r = 0; r < selective; ++r) {
      h.AddRule("sel" + std::to_string(r),
                std::string(rare[r % 3]) + " AND Query.ID > " +
                    std::to_string(r),
                "Query.Persist(SinkS, ID)");
    }
    ParamMap params;
    for (int i = 0; i < kEvents; ++i) {
      params = {{"k", Value::Int(i)}};
      h.Exec("SELECT val FROM items WHERE id = @k", &params);
    }
    const MonitorMetrics& metrics = h.monitor()->metrics();
    ASSERT_EQ(metrics.events_processed.value(), uint64_t{kEvents});
    visits.push_back(metrics.rules_visited.value() / kEvents);
    EXPECT_EQ(metrics.rules_visited.value() % kEvents, 0u);
    EXPECT_EQ(metrics.rules_skipped.value(),
              uint64_t{kEvents} * static_cast<uint64_t>(selective));
    for (const auto& rule : h.monitor()->SnapshotRules()) {
      if (rule->name.rfind("sel", 0) != 0) continue;
      ASSERT_EQ(rule->stats.evaluations.value(), uint64_t{kEvents});
      ASSERT_EQ(rule->stats.condition_false.value(), uint64_t{kEvents});
    }
  }
  EXPECT_EQ(visits[0], 3u);  // feed, reader, always
  EXPECT_EQ(visits[1], visits[0]);
  EXPECT_EQ(visits[2], visits[0]);
}

TEST(SubscriptionDispatchTest, VisitCountersAreExported) {
  MonitorEngine::Options options = IndexedOptions();
  options.register_system_views = true;
  EngineHarness h(options);
  h.AddRule("never", "Query.ID < 0", "Query.Persist(SinkN, ID)");
  h.AddRule("always", "Query.ID > 0", "Query.Persist(SinkA, ID)");
  h.RunWorkload(5);
  const std::string prom = h.monitor()->metrics().registry.DumpPrometheus();
  EXPECT_NE(prom.find("sqlcm_engine_rules_visited_total 5\n"),
            std::string::npos);
  EXPECT_NE(prom.find("sqlcm_engine_rules_skipped_total 5\n"),
            std::string::npos);
  // The view is refreshed before the query that reads it commits.
  const QueryResult result = h.Query(
      "SELECT name, value FROM sqlcm_engine_stats WHERE name = "
      "'engine.rules_visited' OR name = 'engine.rules_skipped'");
  std::map<std::string, double> stats;
  for (const auto& row : result.rows) {
    stats[row[0].ToDisplayString()] = row[1].AsDouble();
  }
  EXPECT_EQ(stats["engine.rules_visited"], 5.0);
  EXPECT_EQ(stats["engine.rules_skipped"], 5.0);
}

}  // namespace
}  // namespace sqlcm::cm
