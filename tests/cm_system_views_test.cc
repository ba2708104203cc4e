// End-to-end tests of the monitor's SQL-queryable system views: live data
// through the normal SQL path, read-only enforcement, trace and error
// surfacing.
#include "sqlcm/system_views.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>

#include "common/string_util.h"
#include "engine/session.h"
#include "sqlcm/monitor_engine.h"

namespace sqlcm::cm {
namespace {

using common::Value;
using exec::ParamMap;
using exec::QueryResult;

class SystemViewsTest : public ::testing::Test {
 protected:
  SystemViewsTest() : monitor_(&db_), session_(db_.CreateSession()) {
    Exec("CREATE TABLE items (id INT, val FLOAT, PRIMARY KEY(id))");
    for (int i = 0; i < 20; ++i) {
      Exec("INSERT INTO items VALUES (" + std::to_string(i) + ", 1.0)");
    }
  }

  void Exec(const std::string& sql) {
    auto result = session_->Execute(sql);
    ASSERT_TRUE(result.ok()) << sql << " -> " << result.status();
  }

  QueryResult Query(const std::string& sql) {
    auto result = session_->Execute(sql);
    EXPECT_TRUE(result.ok()) << sql << " -> " << result.status();
    return result.ok() ? *result : QueryResult{};
  }

  int ColumnIndex(const QueryResult& result, const std::string& name) {
    auto it = std::find(result.column_names.begin(),
                        result.column_names.end(), name);
    return it == result.column_names.end()
               ? -1
               : static_cast<int>(it - result.column_names.begin());
  }

  void AddFeedRule() {
    LatSpec spec;
    spec.name = "ViewLat";
    spec.group_by = {{"Logical_Signature", "Sig"}};
    spec.aggregates = {{LatAggFunc::kCount, "", "N", false}};
    ASSERT_TRUE(monitor_.DefineLat(std::move(spec)).ok());
    RuleSpec feed;
    feed.name = "feed";
    feed.event = "Query.Commit";
    feed.action = "Query.Insert(ViewLat)";
    ASSERT_TRUE(monitor_.AddRule(feed).ok());
  }

  engine::Database db_;
  MonitorEngine monitor_;
  std::unique_ptr<engine::Session> session_;
};

TEST_F(SystemViewsTest, ViewsAreRegisteredAndVirtual) {
  for (const char* name : {kEngineStatsView, kRuleStatsView, kLatStatsView,
                           kEventTraceView, kTraceSpansView, kSlowEventsView,
                           kProfileView}) {
    storage::Table* table = db_.catalog()->GetTable(name);
    ASSERT_NE(table, nullptr) << name;
    EXPECT_TRUE(table->is_virtual()) << name;
  }
}

TEST_F(SystemViewsTest, EngineStatsReturnsMetricInventory) {
  Exec("SELECT val FROM items WHERE id = 1");
  const QueryResult result = Query("SELECT * FROM sqlcm_engine_stats");
  ASSERT_EQ(result.column_names.size(), 4u);
  ASSERT_GT(result.rows.size(), 20u);

  // The fast-path counter must reflect the un-monitored query above.
  bool found_fast_path = false;
  for (const auto& row : result.rows) {
    if (row[0].ToDisplayString() == "engine.fast_path_calls") {
      found_fast_path = true;
      EXPECT_GT(row[2].double_value(), 0.0);
    }
  }
  EXPECT_TRUE(found_fast_path);
}

TEST_F(SystemViewsTest, EngineStatsFilteredByName) {
  const QueryResult result = Query(
      "SELECT value FROM sqlcm_engine_stats WHERE name = 'trace.capacity'");
  ASSERT_EQ(result.rows.size(), 1u);
  EXPECT_DOUBLE_EQ(result.rows[0][0].double_value(), 1024.0);
}

TEST_F(SystemViewsTest, RuleStatsShowsLiveCounts) {
  AddFeedRule();
  for (int i = 0; i < 7; ++i) {
    Exec("SELECT val FROM items WHERE id = " + std::to_string(i));
  }
  const QueryResult result = Query("SELECT * FROM sqlcm_rule_stats");
  ASSERT_EQ(result.rows.size(), 1u);
  const int name_col = ColumnIndex(result, "name");
  const int eval_col = ColumnIndex(result, "evaluations");
  const int fires_col = ColumnIndex(result, "fires");
  const int event_col = ColumnIndex(result, "event");
  ASSERT_GE(name_col, 0);
  ASSERT_GE(eval_col, 0);
  EXPECT_EQ(result.rows[0][name_col].ToDisplayString(), "feed");
  EXPECT_EQ(result.rows[0][event_col].ToDisplayString(), "Query.Commit");
  // The SELECT over the view itself also commits and fires the rule, so
  // at least the 7 item queries must have been counted.
  EXPECT_GE(result.rows[0][eval_col].int_value(), 7);
  EXPECT_EQ(result.rows[0][eval_col].int_value(),
            result.rows[0][fires_col].int_value());
}

// Per-rule fidelity: under forced sampling each deferrable rule reports
// the events of its kind it missed since it was added; inline rules, which
// sampling never skips, report 0.
TEST_F(SystemViewsTest, RuleStatsReportEventsSampledOutPerRule) {
  AddFeedRule();
  RuleSpec audit;
  audit.name = "audit";
  audit.event = "Query.Commit";
  audit.action = "Query.Insert(ViewLat)";
  audit.eval_mode = "inline";
  ASSERT_TRUE(monitor_.AddRule(audit).ok());
  monitor_.governor()->ForceLevel(LoadGovernor::kLevelSampleEvents);
  const int period = 1 << monitor_.governor()->options().sample_shift;

  // Commits 0 .. 2p-1 of the sampled sequence: 0 and p are kept.
  for (int i = 0; i < 2 * period; ++i) {
    Exec("SELECT val FROM items WHERE id = " + std::to_string(i % 20));
  }
  RuleSpec late = audit;
  late.name = "late";
  late.eval_mode = "";
  ASSERT_TRUE(monitor_.AddRule(late).ok());
  // Commits 2p .. 3p-1: 2p is kept.
  for (int i = 0; i < period; ++i) {
    Exec("SELECT val FROM items WHERE id = " + std::to_string(i % 20));
  }

  const QueryResult result = Query(
      "SELECT name, eval_mode, events_sampled_out FROM sqlcm_rule_stats "
      "ORDER BY name");
  ASSERT_EQ(result.rows.size(), 3u);  // audit, feed, late
  EXPECT_EQ(result.rows[0][0].string_value(), "audit");
  EXPECT_EQ(result.rows[0][1].string_value(), "inline");
  EXPECT_EQ(result.rows[0][2].int_value(), 0);
  EXPECT_EQ(result.rows[1][0].string_value(), "feed");
  EXPECT_EQ(result.rows[1][1].string_value(), "deferred");
  EXPECT_EQ(result.rows[1][2].int_value(), 3 * (period - 1));
  EXPECT_EQ(result.rows[2][0].string_value(), "late");
  EXPECT_EQ(result.rows[2][2].int_value(), period - 1);
  EXPECT_EQ(monitor_.metrics().events_sampled_out.value(),
            static_cast<uint64_t>(3 * (period - 1)));
}

TEST_F(SystemViewsTest, RuleStatsAggregatesThroughSql) {
  AddFeedRule();
  RuleSpec never;
  never.name = "never";
  never.event = "Query.Commit";
  never.condition = "Query.Duration > 1000000";
  never.action = "Query.Insert(ViewLat)";
  ASSERT_TRUE(monitor_.AddRule(never).ok());
  for (int i = 0; i < 5; ++i) {
    Exec("SELECT val FROM items WHERE id = " + std::to_string(i));
  }
  const QueryResult count =
      Query("SELECT COUNT(*) FROM sqlcm_rule_stats WHERE fires = 0");
  ASSERT_EQ(count.rows.size(), 1u);
  EXPECT_EQ(count.rows[0][0].int_value(), 1);
}

TEST_F(SystemViewsTest, LatStatsShowsRowsAndInserts) {
  AddFeedRule();
  for (int i = 0; i < 9; ++i) {
    Exec("SELECT val FROM items WHERE id = " + std::to_string(i));
  }
  const QueryResult result = Query(
      "SELECT rows, inserts, latch_acquisitions FROM sqlcm_lat_stats "
      "WHERE name = 'ViewLat'");
  ASSERT_EQ(result.rows.size(), 1u);
  EXPECT_GE(result.rows[0][0].int_value(), 1);  // >= 1 group
  EXPECT_GE(result.rows[0][1].int_value(), 9);  // >= 9 upserts
  // Every insert takes at least the hash and row latches.
  EXPECT_GE(result.rows[0][2].int_value(),
            2 * result.rows[0][1].int_value());
}

TEST_F(SystemViewsTest, LatStatsExposesSketchFootprint) {
  LatSpec spec;
  spec.name = "SketchLat";
  spec.group_by = {{"Logical_Signature", "Sig"}};
  spec.aggregates = {{LatAggFunc::kQuantile, "Duration", "P50", false, 0.5},
                     {LatAggFunc::kDistinct, "Query_Text", "DQ", false}};
  ASSERT_TRUE(monitor_.DefineLat(std::move(spec)).ok());
  RuleSpec feed;
  feed.name = "feed_sketch";
  feed.event = "Query.Commit";
  feed.action = "Query.Insert(SketchLat)";
  ASSERT_TRUE(monitor_.AddRule(feed).ok());
  for (int i = 0; i < 6; ++i) {
    Exec("SELECT val FROM items WHERE id = " + std::to_string(i));
  }
  const QueryResult result = Query(
      "SELECT sketch_bytes, sketch_cells, sketch_collapses FROM "
      "sqlcm_lat_stats WHERE name = 'SketchLat'");
  ASSERT_EQ(result.rows.size(), 1u);
  EXPECT_GT(result.rows[0][0].int_value(), 0);  // live sketch footprint
  EXPECT_GT(result.rows[0][1].int_value(), 0);  // buckets + registers
  EXPECT_GE(result.rows[0][2].int_value(), 0);  // collapse pressure counter
}

TEST_F(SystemViewsTest, EventTraceRecordsWhenEnabled) {
  AddFeedRule();
  // Trace disabled: no rows even though events flow.
  Exec("SELECT val FROM items WHERE id = 1");
  EXPECT_TRUE(Query("SELECT * FROM sqlcm_event_trace").rows.empty());

  monitor_.trace_ring()->set_enabled(true);
  for (int i = 0; i < 4; ++i) {
    Exec("SELECT val FROM items WHERE id = " + std::to_string(i));
  }
  const QueryResult result = Query(
      "SELECT event, rules_fired FROM sqlcm_event_trace");
  ASSERT_GE(result.rows.size(), 4u);
  for (const auto& row : result.rows) {
    EXPECT_EQ(row[0].ToDisplayString(), "Query.Commit");
    EXPECT_EQ(row[1].int_value(), 1);
  }

  monitor_.trace_ring()->set_enabled(false);
  const size_t total = monitor_.trace_ring()->total_recorded();
  Exec("SELECT val FROM items WHERE id = 1");
  EXPECT_EQ(monitor_.trace_ring()->total_recorded(), total);
}

TEST_F(SystemViewsTest, ViewsAreReadOnly) {
  auto insert = session_->Execute(
      "INSERT INTO sqlcm_rule_stats VALUES (1, 'x', 'y', 1, 0, 0, 0, 0, 0, "
      "0.0, 0.0, 0.0, 0.0)");
  EXPECT_FALSE(insert.ok());
  auto update = session_->Execute(
      "UPDATE sqlcm_engine_stats SET value = 0 WHERE name = 'x'");
  EXPECT_FALSE(update.ok());
  auto del = session_->Execute("DELETE FROM sqlcm_event_trace WHERE seq = 0");
  EXPECT_FALSE(del.ok());
  auto drop = session_->Execute("DROP TABLE sqlcm_lat_stats");
  EXPECT_FALSE(drop.ok());
  EXPECT_NE(db_.catalog()->GetTable(kLatStatsView), nullptr);
}

TEST_F(SystemViewsTest, ErrorRingSurfacesThroughEngineStats) {
  // A rule whose action persists into a table with a conflicting schema
  // produces a monitor error without failing the query.
  Exec("CREATE TABLE Clash (only_col INT)");
  RuleSpec bad;
  bad.name = "bad";
  bad.event = "Query.Commit";
  bad.action = "Query.Persist(Clash, ID, Duration)";
  ASSERT_TRUE(monitor_.AddRule(bad).ok());
  Exec("SELECT val FROM items WHERE id = 1");
  EXPECT_FALSE(monitor_.last_error().empty());
  EXPECT_GE(monitor_.total_errors(), 1u);

  const QueryResult errors = Query(
      "SELECT detail FROM sqlcm_engine_stats WHERE kind = 'error'");
  ASSERT_GE(errors.rows.size(), 1u);
  EXPECT_FALSE(errors.rows[0][0].ToDisplayString().empty());
}

TEST_F(SystemViewsTest, ErrorRingIsBoundedButCountsEverything) {
  Exec("CREATE TABLE Clash (only_col INT)");
  RuleSpec bad;
  bad.name = "bad";
  bad.event = "Query.Commit";
  bad.action = "Query.Persist(Clash, ID, Duration)";
  auto added = monitor_.AddRule(bad);
  ASSERT_TRUE(added.ok());
  // Exceed the ring capacity; the ring keeps only the newest entries but the
  // total keeps counting, and last_error() stays the most recent message.
  // Reinstating before each query keeps the circuit breaker from quarantining
  // the rule, so every execution records exactly one error.
  constexpr int kErrors = 40;
  for (int i = 0; i < kErrors; ++i) {
    ASSERT_TRUE(monitor_.ReinstateRule(*added).ok());
    Exec("SELECT val FROM items WHERE id = 1");
  }
  EXPECT_EQ(monitor_.total_errors(), static_cast<uint64_t>(kErrors));
  const auto recent = monitor_.recent_errors();
  EXPECT_LT(recent.size(), static_cast<size_t>(kErrors));
  ASSERT_FALSE(recent.empty());
  EXPECT_EQ(recent.back().seq, static_cast<uint64_t>(kErrors - 1));
  EXPECT_EQ(monitor_.last_error(), recent.back().message);
}

TEST_F(SystemViewsTest, SecondMonitorOnSameDatabaseSkipsViews) {
  // The first monitor owns the view names; a second engine must neither
  // crash nor steal them, and dropping it must leave the views intact.
  {
    MonitorEngine second(&db_);
    EXPECT_NE(db_.catalog()->GetTable(kRuleStatsView), nullptr);
  }
  EXPECT_NE(db_.catalog()->GetTable(kRuleStatsView), nullptr);
  EXPECT_FALSE(Query("SELECT * FROM sqlcm_engine_stats").rows.empty());
}

TEST_F(SystemViewsTest, TraceSpansEmptyWhileRingDisabled) {
  AddFeedRule();
  Exec("SELECT val FROM items WHERE id = 1");
  EXPECT_TRUE(Query("SELECT * FROM sqlcm_trace_spans").rows.empty());
  EXPECT_TRUE(Query("SELECT * FROM sqlcm_slow_events").rows.empty());
}

TEST_F(SystemViewsTest, TraceSpansReconstructEvictionCascadeTree) {
  // A bounded LAT whose evictions fire a rule: each commit dispatch must
  // produce an event span, a condition + action span for the feed rule, a
  // LAT-upsert span under the action, and — once rows start evicting — a
  // deferred Lat.Evict event span parented under the *action* that caused
  // the eviction (depth 1).
  LatSpec top;
  top.name = "TopQ";
  top.group_by = {{"ID", ""}};
  top.aggregates = {{LatAggFunc::kMax, "Duration", "Dur", false}};
  top.ordering = {{"Dur", true}};
  top.max_rows = 1;
  ASSERT_TRUE(monitor_.DefineLat(std::move(top)).ok());
  RuleSpec feed;
  feed.name = "feed";
  feed.event = "Query.Commit";
  feed.action = "Query.Insert(TopQ)";
  ASSERT_TRUE(monitor_.AddRule(feed).ok());
  RuleSpec spill;
  spill.name = "spill";
  spill.event = "TopQ.Evict";
  spill.action = "Evicted.Persist(EvictedQ)";
  ASSERT_TRUE(monitor_.AddRule(spill).ok());

  monitor_.span_ring()->set_enabled(true);
  for (int i = 0; i < 6; ++i) {
    Exec("SELECT val FROM items WHERE id = " + std::to_string(i));
  }

  const QueryResult result = Query("SELECT * FROM sqlcm_trace_spans");
  const int trace_col = ColumnIndex(result, "trace_id");
  const int span_col = ColumnIndex(result, "span_id");
  const int parent_col = ColumnIndex(result, "parent_id");
  const int depth_col = ColumnIndex(result, "depth");
  const int kind_col = ColumnIndex(result, "kind");
  const int name_col = ColumnIndex(result, "name");
  const int dur_col = ColumnIndex(result, "duration_us");
  ASSERT_GE(trace_col, 0);
  ASSERT_GE(span_col, 0);
  ASSERT_GE(parent_col, 0);
  ASSERT_GE(kind_col, 0);
  ASSERT_GE(name_col, 0);
  ASSERT_FALSE(result.rows.empty());

  std::map<int64_t, std::pair<std::string, int64_t>> by_id;  // kind, parent
  std::map<int64_t, int64_t> trace_of;
  for (const auto& row : result.rows) {
    EXPECT_GT(row[trace_col].int_value(), 0);
    EXPECT_GE(row[dur_col].double_value(), 0.0);
    by_id[row[span_col].int_value()] = {row[kind_col].ToDisplayString(),
                                        row[parent_col].int_value()};
    trace_of[row[span_col].int_value()] = row[trace_col].int_value();
  }

  bool saw_cascade = false, saw_upsert = false, saw_condition = false;
  for (const auto& row : result.rows) {
    const std::string kind = row[kind_col].ToDisplayString();
    const int64_t parent = row[parent_col].int_value();
    if (kind == "condition") {
      ASSERT_TRUE(by_id.count(parent));
      EXPECT_EQ(by_id[parent].first, "event");
      saw_condition = true;
    } else if (kind == "lat_upsert") {
      EXPECT_EQ(row[name_col].ToDisplayString(), "TopQ");
      ASSERT_TRUE(by_id.count(parent));
      EXPECT_EQ(by_id[parent].first, "action");
      saw_upsert = true;
    } else if (kind == "event" &&
               row[name_col].ToDisplayString() == "Lat.Evict") {
      // Deferred cascade event: parented under the causing action span, in
      // the same trace, one level deeper than the root.
      EXPECT_EQ(row[depth_col].int_value(), 1);
      if (by_id.count(parent)) {
        EXPECT_EQ(by_id[parent].first, "action");
        EXPECT_EQ(trace_of[parent], row[trace_col].int_value());
        saw_cascade = true;
      }
    }
  }
  EXPECT_TRUE(saw_condition);
  EXPECT_TRUE(saw_upsert);
  EXPECT_TRUE(saw_cascade);
}

TEST(DeferredLaneViewsTest, SpansProfileAndEventTraceCoverDrainedEvents) {
  // The deferred lane's observability: each drained event roots its own
  // trace with a queue_wait child plus the rule's condition and action
  // spans, the queue wait surfaces in sqlcm_profile, and the event trace
  // holds one row per drained event with the deferred fire count.
  engine::Database db;
  MonitorEngine::Options options;
  options.async_rule_eval = true;
  MonitorEngine monitor(&db, options);
  auto session = db.CreateSession();
  auto exec = [&session](const std::string& sql) {
    auto result = session->Execute(sql);
    EXPECT_TRUE(result.ok()) << sql << " -> " << result.status();
    return result.ok() ? *result : QueryResult{};
  };
  exec("CREATE TABLE items (id INT, val FLOAT, PRIMARY KEY(id))");
  for (int i = 0; i < 10; ++i) {
    exec("INSERT INTO items VALUES (" + std::to_string(i) + ", 1.0)");
  }
  LatSpec spec;
  spec.name = "DeferredLat";
  spec.group_by = {{"Logical_Signature", "Sig"}};
  spec.aggregates = {{LatAggFunc::kCount, "", "N", false}};
  ASSERT_TRUE(monitor.DefineLat(std::move(spec)).ok());
  RuleSpec feed;
  feed.name = "deferred_feed";
  feed.event = "Query.Commit";
  feed.condition = "Query.Duration >= 0";
  feed.action = "Query.Insert(DeferredLat)";
  ASSERT_TRUE(monitor.AddRule(feed).ok());
  ASSERT_TRUE(monitor.SnapshotRules()[0]->deferrable);

  monitor.span_ring()->set_enabled(true);
  monitor.trace_ring()->set_enabled(true);
  constexpr int kEvents = 10;
  for (int i = 0; i < kEvents; ++i) {
    exec("SELECT val FROM items WHERE id = " + std::to_string(i));
  }
  monitor.DrainEventQueue();
  const uint64_t fires = monitor.SnapshotRules()[0]->stats.fires.value();
  EXPECT_EQ(fires, static_cast<uint64_t>(kEvents));
  EXPECT_EQ(monitor.metrics().queue_enqueued.value(),
            static_cast<uint64_t>(kEvents));

  // Read first: later view queries are themselves deferred events.
  const QueryResult trace =
      exec("SELECT event, qualifier, rules_fired FROM sqlcm_event_trace");
  ASSERT_EQ(trace.rows.size(), static_cast<size_t>(kEvents));
  int64_t traced_fires = 0;
  for (const auto& row : trace.rows) {
    EXPECT_EQ(row[0].ToDisplayString(), "Query.Commit");
    EXPECT_EQ(row[1].ToDisplayString(), "");
    traced_fires += row[2].int_value();
  }
  EXPECT_EQ(traced_fires, static_cast<int64_t>(fires));

  const QueryResult spans = exec(
      "SELECT span_id, parent_id, kind, name FROM sqlcm_trace_spans");
  std::map<int64_t, std::set<std::string>> children;  // root -> child kinds
  for (const auto& row : spans.rows) {
    if (row[2].ToDisplayString() == "event" && row[1].int_value() == 0 &&
        row[3].ToDisplayString() == "Query.Commit") {
      children[row[0].int_value()];
    }
  }
  for (const auto& row : spans.rows) {
    auto it = children.find(row[1].int_value());
    if (it != children.end()) it->second.insert(row[2].ToDisplayString());
  }
  int complete_roots = 0;
  for (const auto& [root, kinds] : children) {
    if (kinds.count("queue_wait") && kinds.count("condition") &&
        kinds.count("action")) {
      ++complete_roots;
    }
  }
  EXPECT_GE(complete_roots, kEvents);

  const QueryResult profile =
      exec("SELECT component, name, spans FROM sqlcm_profile");
  bool saw_queue = false;
  for (const auto& row : profile.rows) {
    if (row[0].ToDisplayString() == "queue") {
      EXPECT_GE(row[2].int_value(), kEvents);
      saw_queue = true;
    }
  }
  EXPECT_TRUE(saw_queue);
}

TEST_F(SystemViewsTest, SlowEventsRetainWholeTracesRankedByCost) {
  AddFeedRule();
  monitor_.span_ring()->set_enabled(true);
  for (int i = 0; i < 20; ++i) {
    Exec("SELECT val FROM items WHERE id = " + std::to_string(i % 10));
  }
  const QueryResult result = Query("SELECT * FROM sqlcm_slow_events");
  const int rank_col = ColumnIndex(result, "rank");
  const int trace_col = ColumnIndex(result, "trace_id");
  const int total_col = ColumnIndex(result, "total_us");
  const int kind_col = ColumnIndex(result, "kind");
  const int offset_col = ColumnIndex(result, "start_offset_us");
  ASSERT_GE(rank_col, 0);
  ASSERT_FALSE(result.rows.empty());

  // Ranks must be 1..K with non-increasing totals, each retained trace must
  // keep its root event span, and offsets are non-negative.
  std::map<int64_t, double> total_by_rank;
  std::map<int64_t, int64_t> trace_by_rank;
  std::map<int64_t, bool> has_event;
  for (const auto& row : result.rows) {
    const int64_t rank = row[rank_col].int_value();
    EXPECT_GE(rank, 1);
    total_by_rank[rank] = row[total_col].double_value();
    trace_by_rank[rank] = row[trace_col].int_value();
    if (row[kind_col].ToDisplayString() == "event") has_event[rank] = true;
    EXPECT_GE(row[offset_col].double_value(), 0.0);
  }
  EXPECT_LE(total_by_rank.size(), monitor_.slow_traces()->capacity());
  double prev = -1.0;
  int64_t expect_rank = 1;
  for (const auto& [rank, total] : total_by_rank) {
    EXPECT_EQ(rank, expect_rank++);
    if (prev >= 0) EXPECT_LE(total, prev);
    prev = total;
    EXPECT_TRUE(has_event[rank]) << "rank " << rank;
    EXPECT_GT(trace_by_rank[rank], 0);
  }
  EXPECT_GE(monitor_.slow_traces()->offers(), 20u);
}

TEST_F(SystemViewsTest, ProfilePerRuleSelfTimesReconcileWithDispatchTotal) {
  // Three always-firing rules doing real LAT work; with sampling at 1.0 the
  // per-rule condition+action windows chain directly inside each event
  // span, so their sum must land within 5% of total dispatch time
  // (acceptance criterion for the profiling plane).
  AddFeedRule();
  RuleSpec second;
  second.name = "second";
  second.event = "Query.Commit";
  second.condition = "ViewLat.N >= 0";
  second.action = "Query.Insert(ViewLat)";
  ASSERT_TRUE(monitor_.AddRule(second).ok());
  RuleSpec third;
  third.name = "third";
  third.event = "Query.Commit";
  third.condition = "Query.Duration >= 0 AND ViewLat.N >= 1";
  third.action = "Query.Insert(ViewLat)";
  ASSERT_TRUE(monitor_.AddRule(third).ok());

  monitor_.span_ring()->set_enabled(true);
  ASSERT_DOUBLE_EQ(monitor_.span_sample_rate(), 1.0);
  for (int i = 0; i < 80; ++i) {
    Exec("SELECT val FROM items WHERE id = " + std::to_string(i % 20));
  }

  const QueryResult result =
      Query("SELECT component, name, spans, self_micros FROM sqlcm_profile");
  double dispatch_micros = 0.0;
  double rule_micros = 0.0;
  int64_t rule_rows = 0;
  for (const auto& row : result.rows) {
    const std::string component = row[0].ToDisplayString();
    if (component == "dispatch") {
      dispatch_micros = row[3].double_value();
      EXPECT_GE(row[2].int_value(), 80);
    } else if (component == "rule") {
      rule_micros += row[3].double_value();
      ++rule_rows;
      EXPECT_GE(row[2].int_value(), 80);
    }
  }
  EXPECT_EQ(rule_rows, 3);
  ASSERT_GT(dispatch_micros, 0.0);
  EXPECT_GE(rule_micros, 0.95 * dispatch_micros)
      << "rule self-time " << rule_micros << "us vs dispatch "
      << dispatch_micros << "us";
  EXPECT_LE(rule_micros, 1.05 * dispatch_micros);
}

TEST_F(SystemViewsTest, ProfileAttributesActionKindsAndLatUpserts) {
  AddFeedRule();
  monitor_.span_ring()->set_enabled(true);
  for (int i = 0; i < 10; ++i) {
    Exec("SELECT val FROM items WHERE id = " + std::to_string(i));
  }
  const QueryResult result = Query(
      "SELECT component, name, spans, self_micros, share_pct "
      "FROM sqlcm_profile");
  bool saw_insert_kind = false, saw_lat = false;
  for (const auto& row : result.rows) {
    const std::string component = row[0].ToDisplayString();
    EXPECT_GE(row[4].double_value(), 0.0);
    if (component == "action" && row[1].ToDisplayString() == "Insert") {
      EXPECT_GE(row[2].int_value(), 10);
      saw_insert_kind = true;
    }
    if (component == "lat" && row[1].ToDisplayString() == "ViewLat") {
      EXPECT_GE(row[2].int_value(), 10);
      EXPECT_GT(row[3].double_value(), 0.0);
      saw_lat = true;
    }
  }
  EXPECT_TRUE(saw_insert_kind);
  EXPECT_TRUE(saw_lat);
}

TEST_F(SystemViewsTest, EventTraceExposesQualifierHash) {
  LatSpec top;
  top.name = "HashLat";
  top.group_by = {{"ID", ""}};
  top.aggregates = {{LatAggFunc::kMax, "Duration", "Dur", false}};
  top.ordering = {{"Dur", true}};
  top.max_rows = 1;
  ASSERT_TRUE(monitor_.DefineLat(std::move(top)).ok());
  RuleSpec feed;
  feed.name = "feed";
  feed.event = "Query.Commit";
  feed.action = "Query.Insert(HashLat)";
  ASSERT_TRUE(monitor_.AddRule(feed).ok());
  RuleSpec spill;
  spill.name = "spill";
  spill.event = "HashLat.Evict";
  spill.action = "Evicted.Persist(EvictedH)";
  ASSERT_TRUE(monitor_.AddRule(spill).ok());

  monitor_.trace_ring()->set_enabled(true);
  for (int i = 0; i < 4; ++i) {
    Exec("SELECT val FROM items WHERE id = " + std::to_string(i));
  }
  const QueryResult result =
      Query("SELECT qualifier, qualifier_hash FROM sqlcm_event_trace");
  ASSERT_FALSE(result.rows.empty());
  bool saw_nonempty_qualifier = false;
  for (const auto& row : result.rows) {
    const std::string qualifier = row[0].ToDisplayString();
    char expected[17];
    std::snprintf(expected, sizeof(expected), "%016llx",
                  static_cast<unsigned long long>(common::Fnv1a64(qualifier)));
    EXPECT_EQ(row[1].ToDisplayString(), expected) << "qualifier '" << qualifier
                                                  << "'";
    if (!qualifier.empty()) saw_nonempty_qualifier = true;
  }
  // The eviction events carry the LAT name as qualifier, so at least one
  // row exercises a non-trivial hash.
  EXPECT_TRUE(saw_nonempty_qualifier);
}

TEST_F(SystemViewsTest, EngineStatsExposeSpanPlaneAndRingDrops) {
  monitor_.span_ring()->set_enabled(true);
  AddFeedRule();
  Exec("SELECT val FROM items WHERE id = 1");
  auto value_of = [this](const std::string& name) {
    const QueryResult result = Query(
        "SELECT value FROM sqlcm_engine_stats WHERE name = '" + name + "'");
    EXPECT_EQ(result.rows.size(), 1u) << name;
    return result.rows.empty() ? -1.0 : result.rows[0][0].double_value();
  };
  EXPECT_DOUBLE_EQ(value_of("spans.enabled"), 1.0);
  EXPECT_DOUBLE_EQ(value_of("spans.capacity"), 4096.0);
  EXPECT_GT(value_of("spans.total_recorded"), 0.0);
  EXPECT_DOUBLE_EQ(value_of("spans.snapshot_drops"), 0.0);
  EXPECT_DOUBLE_EQ(value_of("spans.sample_rate"), 1.0);
  EXPECT_DOUBLE_EQ(value_of("slow_traces.capacity"), 8.0);
  EXPECT_GT(value_of("slow_traces.offers"), 0.0);
  EXPECT_GT(value_of("slow_traces.admits"), 0.0);
  EXPECT_GE(value_of("slow_traces.retained"), 1.0);
  EXPECT_DOUBLE_EQ(value_of("trace.snapshot_drops"), 0.0);
  EXPECT_DOUBLE_EQ(value_of("errors.dropped"), 0.0);
}

TEST_F(SystemViewsTest, ExportMetricsNowWritesPrometheusFile) {
  AddFeedRule();
  Exec("SELECT val FROM items WHERE id = 1");
  const std::string path = ::testing::TempDir() + "sqlcm_export_test.prom";
  std::remove(path.c_str());
  ASSERT_TRUE(monitor_.ExportMetricsNow(path).ok());

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string content = buffer.str();
  EXPECT_NE(content.find("# TYPE sqlcm_engine_events_processed_total counter"),
            std::string::npos);
  EXPECT_NE(content.find("_bucket{le=\"+Inf\"}"), std::string::npos);
  EXPECT_NE(content.find("sqlcm_profile_metrics_exports_total"),
            std::string::npos);

  // The export itself is counted, and no tempfile is left behind.
  const QueryResult exports = Query(
      "SELECT value FROM sqlcm_engine_stats "
      "WHERE name = 'profile.metrics_exports'");
  ASSERT_EQ(exports.rows.size(), 1u);
  EXPECT_DOUBLE_EQ(exports.rows[0][0].double_value(), 1.0);
  EXPECT_FALSE(std::ifstream(path + ".tmp").good());
  std::remove(path.c_str());
}

TEST(MetricsExporterTest, PeriodicExporterWritesAndStopsCleanly) {
  engine::Database db;
  const std::string path =
      ::testing::TempDir() + "sqlcm_periodic_export.prom";
  std::remove(path.c_str());
  MonitorEngine::Options options;
  options.metrics_export_path = path;
  options.metrics_export_interval_secs = 0.02;
  {
    MonitorEngine monitor(&db, options);
    bool appeared = false;
    for (int i = 0; i < 200 && !appeared; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      appeared = std::ifstream(path).good();
    }
    EXPECT_TRUE(appeared);
    // Destructor must join the exporter thread without hanging.
  }
  EXPECT_TRUE(std::ifstream(path).good());
  std::remove(path.c_str());
}

TEST_F(SystemViewsTest, RuleCanAlarmOnMonitorOverheadViaLatOverViews) {
  // Close the loop from the docs: monitor data is relational data, so a
  // LAT/rule pipeline can watch the monitor itself. Simplest version: a
  // plain SQL aggregation over rule stats drives an operator decision.
  AddFeedRule();
  for (int i = 0; i < 6; ++i) {
    Exec("SELECT val FROM items WHERE id = " + std::to_string(i));
  }
  const QueryResult result = Query(
      "SELECT SUM(fires) FROM sqlcm_rule_stats");
  ASSERT_EQ(result.rows.size(), 1u);
  EXPECT_GE(result.rows[0][0].double_value(), 6.0);
}

}  // namespace
}  // namespace sqlcm::cm
