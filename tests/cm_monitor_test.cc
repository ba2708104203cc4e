// End-to-end tests of the monitoring engine against the paper's example
// applications (§3): outlier detection, blocking monitoring, top-k,
// auditing with timers, and resource governing.
#include "sqlcm/monitor_engine.h"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "engine/session.h"
#include "txn/transaction.h"

namespace sqlcm::cm {
namespace {

using common::Value;
using exec::ParamMap;

class MonitorTest : public ::testing::Test {
 protected:
  MonitorTest() : monitor_(&db_), session_(db_.CreateSession()) {
    Exec("CREATE TABLE items (id INT, grp INT, val FLOAT, PRIMARY KEY(id))");
    for (int i = 0; i < 50; ++i) {
      Exec("INSERT INTO items VALUES (" + std::to_string(i) + ", " +
           std::to_string(i % 5) + ", 1.0)");
    }
  }

  void Exec(const std::string& sql, const ParamMap* params = nullptr) {
    auto result = session_->Execute(sql, params);
    ASSERT_TRUE(result.ok()) << sql << " -> " << result.status();
  }

  void DefineDurationLat() {
    LatSpec spec;
    spec.name = "Duration_LAT";
    spec.group_by = {{"Logical_Signature", "Sig"}};
    spec.aggregates = {{LatAggFunc::kAvg, "Duration", "Avg_Duration", false},
                       {LatAggFunc::kCount, "", "N", false}};
    ASSERT_TRUE(monitor_.DefineLat(std::move(spec)).ok());
  }

  engine::Database db_;
  MonitorEngine monitor_;
  std::unique_ptr<engine::Session> session_;
};

TEST_F(MonitorTest, NoRulesMeansNoMonitoringWork) {
  // Paper §2.1: no monitoring is performed unless a rule requires it.
  Exec("SELECT val FROM items WHERE id = 1");
  EXPECT_EQ(monitor_.events_processed(), 0u);
  EXPECT_EQ(monitor_.active_query_count(), 0u);
}

TEST_F(MonitorTest, SignaturesComputedAndCachedWithPlan) {
  Exec("SELECT val FROM items WHERE id = 1");
  auto plan = db_.plan_cache()->Get("SELECT val FROM items WHERE id = 1");
  ASSERT_NE(plan, nullptr);
  EXPECT_TRUE(plan->signatures_computed);
  EXPECT_FALSE(plan->logical_signature.empty());
  EXPECT_FALSE(plan->physical_signature.empty());
  EXPECT_GT(plan->optimize_micros, 0);

  // Same template, other constant: identical signature, separate entry.
  Exec("SELECT val FROM items WHERE id = 2");
  auto plan2 = db_.plan_cache()->Get("SELECT val FROM items WHERE id = 2");
  ASSERT_NE(plan2, nullptr);
  EXPECT_EQ(plan->logical_signature, plan2->logical_signature);
  EXPECT_EQ(plan->physical_signature_hash, plan2->physical_signature_hash);
}

TEST_F(MonitorTest, CachedPlanKeepsSignaturesButNotTheLogicalPlan) {
  // The logical plan is needed only to compute signatures; once cached,
  // only the physical plan and the signatures remain.
  Exec("SELECT val FROM items WHERE grp = 3");
  auto plan = db_.plan_cache()->Get("SELECT val FROM items WHERE grp = 3");
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(plan->logical, nullptr);
  ASSERT_NE(plan->physical, nullptr);
  EXPECT_TRUE(plan->signatures_computed);
  EXPECT_FALSE(plan->logical_signature.empty());
  EXPECT_NE(plan->logical_signature_hash, 0u);
  EXPECT_NE(plan->physical_signature_hash, 0u);
  // Executing the cached plan again still works without it.
  Exec("SELECT val FROM items WHERE grp = 3");
  EXPECT_EQ(plan->execution_count.load(), 2u);
}

TEST_F(MonitorTest, LatFeedAndGrouping) {
  DefineDurationLat();
  RuleSpec feed;
  feed.name = "feed";
  feed.event = "Query.Commit";
  feed.action = "Query.Insert(Duration_LAT)";
  ASSERT_TRUE(monitor_.AddRule(feed).ok());

  ParamMap params;
  for (int i = 0; i < 10; ++i) {
    params = {{"k", Value::Int(i)}};
    Exec("SELECT val FROM items WHERE id = @k", &params);
  }
  for (int i = 0; i < 4; ++i) {
    params = {{"g", Value::Int(i)}};
    Exec("SELECT val FROM items WHERE grp = @g", &params);
  }
  Lat* lat = monitor_.FindLat("Duration_LAT");
  ASSERT_NE(lat, nullptr);
  // Two templates -> two groups.
  EXPECT_EQ(lat->size(), 2u);
  int64_t total = 0;
  for (const auto& row : lat->Snapshot(0)) total += row[2].int_value();
  EXPECT_EQ(total, 14);
}

TEST_F(MonitorTest, OutlierDetectionEndToEnd) {
  DefineDurationLat();
  RuleSpec feed;
  feed.name = "feed";
  feed.event = "Query.Commit";
  feed.action = "Query.Insert(Duration_LAT)";
  ASSERT_TRUE(monitor_.AddRule(feed).ok());

  // A deliberately absurd threshold that no query meets, then a trivially
  // met one; checks that the LAT-relative condition is actually evaluated.
  RuleSpec never;
  never.name = "never";
  never.event = "Query.Commit";
  never.condition = "Query.Duration > 1000000 * Duration_LAT.Avg_Duration";
  never.action = "Query.Persist(NeverTable, ID)";
  ASSERT_TRUE(monitor_.AddRule(never).ok());

  RuleSpec always;
  always.name = "always";
  always.event = "Query.Commit";
  always.condition =
      "Query.Duration >= 0 AND Duration_LAT.N >= 1";
  always.action = "Query.Persist(Outliers, ID, Query_Text, Duration)";
  ASSERT_TRUE(monitor_.AddRule(always).ok());

  ParamMap params = {{"k", Value::Int(3)}};
  for (int i = 0; i < 5; ++i) {
    Exec("SELECT val FROM items WHERE id = @k", &params);
  }
  EXPECT_EQ(db_.catalog()->GetTable("NeverTable"), nullptr);
  storage::Table* outliers = db_.catalog()->GetTable("Outliers");
  ASSERT_NE(outliers, nullptr);
  EXPECT_EQ(outliers->schema().num_columns(), 3u);
  // Rules fire in activation order: 'feed' inserts the current query into
  // the LAT before 'always' evaluates, so every execution (including the
  // first) sees a matching LAT row.
  EXPECT_EQ(outliers->row_count(), 5u);
  EXPECT_TRUE(monitor_.last_error().empty()) << monitor_.last_error();
}

TEST_F(MonitorTest, TopKLatWithEvictionRule) {
  LatSpec top;
  top.name = "TopQ";
  top.group_by = {{"ID", ""}};
  top.aggregates = {{LatAggFunc::kMax, "Duration", "Dur", false},
                    {LatAggFunc::kFirst, "Query_Text", "Text", false}};
  top.ordering = {{"Dur", true}};
  top.max_rows = 3;
  ASSERT_TRUE(monitor_.DefineLat(std::move(top)).ok());

  RuleSpec feed;
  feed.name = "feed";
  feed.event = "Query.Commit";
  feed.action = "Query.Insert(TopQ)";
  ASSERT_TRUE(monitor_.AddRule(feed).ok());

  RuleSpec on_evict;
  on_evict.name = "spill";
  on_evict.event = "TopQ.Evict";
  on_evict.action = "Evicted.Persist(EvictedQ)";
  ASSERT_TRUE(monitor_.AddRule(on_evict).ok());

  for (int i = 0; i < 10; ++i) {
    Exec("SELECT val FROM items WHERE id = " + std::to_string(i));
  }
  Lat* lat = monitor_.FindLat("TopQ");
  EXPECT_EQ(lat->size(), 3u);
  storage::Table* evicted = db_.catalog()->GetTable("EvictedQ");
  ASSERT_NE(evicted, nullptr);
  EXPECT_EQ(evicted->row_count(), 7u);
  EXPECT_TRUE(monitor_.last_error().empty()) << monitor_.last_error();
}

TEST_F(MonitorTest, BlockingMonitoringExample2) {
  // Blocking LAT: total blocking delay per blocker statement template.
  LatSpec blocking;
  blocking.name = "Blocking_LAT";
  blocking.object_class = MonitoredClass::kBlocker;
  blocking.group_by = {{"Logical_Signature", "Sig"}};
  blocking.aggregates = {{LatAggFunc::kSum, "Wait_Secs", "Total_Wait", false},
                         {LatAggFunc::kCount, "", "Conflicts", false},
                         {LatAggFunc::kFirst, "Query_Text", "Example", false}};
  ASSERT_TRUE(monitor_.DefineLat(std::move(blocking)).ok());

  RuleSpec rule;
  rule.name = "blocking";
  rule.event = "Query.Block_Released";
  rule.action = "Blocker.Insert(Blocking_LAT)";
  ASSERT_TRUE(monitor_.AddRule(rule).ok());

  auto holder = db_.CreateSession();
  ASSERT_TRUE(holder->Begin().ok());
  ASSERT_TRUE(holder->Execute("UPDATE items SET val = 2.0 WHERE id = 1").ok());

  std::thread blocked([this] {
    auto waiter = db_.CreateSession();
    auto result = waiter->Execute("UPDATE items SET val = 3.0 WHERE id = 1");
    EXPECT_TRUE(result.ok()) << result.status();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  ASSERT_TRUE(holder->Commit().ok());
  blocked.join();

  Lat* lat = monitor_.FindLat("Blocking_LAT");
  auto rows = lat->Snapshot(0);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_GE(rows[0][1].AsDouble(), 0.04);  // blocked ≥ 40ms
  EXPECT_EQ(rows[0][2].int_value(), 1);
  EXPECT_NE(rows[0][3].ToDisplayString().find("UPDATE items"),
            std::string::npos);
  EXPECT_TRUE(monitor_.last_error().empty()) << monitor_.last_error();
}

TEST_F(MonitorTest, BlockedEventFiresOnConflict) {
  storage::Table* conflicts = nullptr;
  RuleSpec rule;
  rule.name = "conflicts";
  rule.event = "Query.Blocked";
  rule.action = "Blocked.Persist(Conflicts, ID, Query_Text, Resource)";
  ASSERT_TRUE(monitor_.AddRule(rule).ok());

  auto holder = db_.CreateSession();
  ASSERT_TRUE(holder->Begin().ok());
  ASSERT_TRUE(holder->Execute("UPDATE items SET val = 2.0 WHERE id = 7").ok());
  std::thread blocked([this] {
    auto waiter = db_.CreateSession();
    EXPECT_TRUE(
        waiter->Execute("UPDATE items SET val = 3.0 WHERE id = 7").ok());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  ASSERT_TRUE(holder->Commit().ok());
  blocked.join();

  conflicts = db_.catalog()->GetTable("Conflicts");
  ASSERT_NE(conflicts, nullptr);
  EXPECT_EQ(conflicts->row_count(), 1u);
}

TEST_F(MonitorTest, BlockedEventWithFinishedBlockerReadsNullBlockerProbes) {
  // The holder's statement returns before any rule exists, so the monitor
  // never saw it: when the waiter blocks, the blocker's statement has
  // finished and only its transaction holds the lock. The event still
  // reaches the rules (paper §3 defines it for the blocked query), with
  // every Blocker probe NULL.
  auto holder = db_.CreateSession();
  ASSERT_TRUE(holder->Begin().ok());
  ASSERT_TRUE(holder->Execute("UPDATE items SET val = 2.0 WHERE id = 9").ok());

  RuleSpec blocker_rule;
  blocker_rule.name = "blocker_probes";
  blocker_rule.event = "Query.Blocked";
  blocker_rule.action =
      "Blocker.Persist(BlockerSeen, ID, Query_Text, Duration, Resource)";
  ASSERT_TRUE(monitor_.AddRule(blocker_rule).ok());
  RuleSpec blocked_rule;
  blocked_rule.name = "blocked_probes";
  blocked_rule.event = "Query.Blocked";
  blocked_rule.condition = "Blocked.ID > 0";
  blocked_rule.action =
      "Blocked.Persist(BlockedSeen, ID, Query_Text, Resource)";
  ASSERT_TRUE(monitor_.AddRule(blocked_rule).ok());

  std::thread blocked([this] {
    auto waiter = db_.CreateSession();
    EXPECT_TRUE(
        waiter->Execute("UPDATE items SET val = 3.0 WHERE id = 9").ok());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  ASSERT_TRUE(holder->Commit().ok());
  blocked.join();

  auto blocker_seen = session_->Execute("SELECT * FROM BlockerSeen");
  ASSERT_TRUE(blocker_seen.ok()) << blocker_seen.status();
  ASSERT_EQ(blocker_seen->rows.size(), 1u);
  for (const Value& v : blocker_seen->rows[0]) {
    EXPECT_TRUE(v.is_null()) << v.ToString();
  }
  auto blocked_seen =
      session_->Execute("SELECT ID, Query_Text, Resource FROM BlockedSeen");
  ASSERT_TRUE(blocked_seen.ok()) << blocked_seen.status();
  ASSERT_EQ(blocked_seen->rows.size(), 1u);
  const common::Row& row = blocked_seen->rows[0];
  EXPECT_GT(row[0].int_value(), 0);
  EXPECT_NE(row[1].ToDisplayString().find("UPDATE items"), std::string::npos);
  EXPECT_FALSE(row[2].ToDisplayString().empty());
  EXPECT_TRUE(monitor_.last_error().empty()) << monitor_.last_error();
}

TEST_F(MonitorTest, BlockerCancelWithFinishedBlockerCancelsItsTransaction) {
  // As above, the blocker's statement has finished when the waiter blocks;
  // Blocker.Cancel() still reaches the transaction that holds the lock.
  auto holder = db_.CreateSession();
  ASSERT_TRUE(holder->Begin().ok());
  ASSERT_TRUE(holder->Execute("UPDATE items SET val = 2.0 WHERE id = 9").ok());
  txn::Transaction* holder_txn = holder->current_txn();
  ASSERT_NE(holder_txn, nullptr);

  RuleSpec rule;
  rule.name = "cancel_blocker";
  rule.event = "Query.Blocked";
  rule.action = "Blocker.Cancel()";
  ASSERT_TRUE(monitor_.AddRule(rule).ok());

  std::thread blocked([this] {
    auto waiter = db_.CreateSession();
    EXPECT_TRUE(
        waiter->Execute("UPDATE items SET val = 3.0 WHERE id = 9").ok());
  });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!holder_txn->cancelled() &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(holder_txn->cancelled());
  // The holder's next statement fails, which aborts its transaction and
  // releases the waiter.
  auto next = holder->Execute("SELECT val FROM items WHERE id = 9");
  EXPECT_FALSE(next.ok());
  EXPECT_FALSE(holder->in_transaction());
  blocked.join();
  EXPECT_TRUE(monitor_.last_error().empty()) << monitor_.last_error();
}

TEST_F(MonitorTest, ResourceGoverningCancel) {
  // Example 5(a): cancel queries that block others for too long — here,
  // cancel any UPDATE query as soon as it starts (simplest observable
  // variant of the Cancel action wired through the whole stack).
  RuleSpec rule;
  rule.name = "governor";
  rule.event = "Query.Start";
  rule.condition = "Query.Query_Type = 'UPDATE'";
  rule.action = "Query.Cancel()";
  ASSERT_TRUE(monitor_.AddRule(rule).ok());

  auto result = session_->Execute("UPDATE items SET val = 9.9 WHERE id = 2");
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsCancelled()) << result.status();
  // SELECTs still run.
  auto ok = session_->Execute("SELECT val FROM items WHERE id = 2");
  EXPECT_TRUE(ok.ok());
  EXPECT_DOUBLE_EQ(ok->rows[0][0].double_value(), 1.0);  // update cancelled
}

TEST_F(MonitorTest, TimerDrivenAuditPersist) {
  DefineDurationLat();
  RuleSpec feed;
  feed.name = "feed";
  feed.event = "Query.Commit";
  feed.action = "Query.Insert(Duration_LAT)";
  ASSERT_TRUE(monitor_.AddRule(feed).ok());

  ASSERT_TRUE(monitor_.CreateTimer("audit").ok());
  RuleSpec periodic;
  periodic.name = "audit_persist";
  periodic.event = "audit.Alarm";
  periodic.action = "Duration_LAT.Persist(AuditLog); Reset(Duration_LAT)";
  ASSERT_TRUE(monitor_.AddRule(periodic).ok());
  ASSERT_TRUE(monitor_.SetTimer("audit", /*interval_seconds=*/0.001,
                                /*repeats=*/2).ok());

  Exec("SELECT val FROM items WHERE id = 1");
  Exec("SELECT val FROM items WHERE grp = 1");
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_EQ(monitor_.timer_manager()->Poll(db_.clock()->NowMicros()), 1u);

  storage::Table* audit = db_.catalog()->GetTable("AuditLog");
  ASSERT_NE(audit, nullptr);
  EXPECT_EQ(audit->row_count(), 2u);
  EXPECT_EQ(monitor_.FindLat("Duration_LAT")->size(), 0u);  // Reset ran

  // Second alarm persists nothing new (LAT was reset), third never fires.
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_EQ(monitor_.timer_manager()->Poll(db_.clock()->NowMicros()), 1u);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_EQ(monitor_.timer_manager()->Poll(db_.clock()->NowMicros()), 0u);
}

TEST_F(MonitorTest, TimerRuleIteratesActiveQueries) {
  // Rule over all in-flight queries, triggered by a timer (paper §5.2's
  // unbound-class iteration). A held lock keeps a query in flight.
  ASSERT_TRUE(monitor_.CreateTimer("tick").ok());
  RuleSpec rule;
  rule.name = "inflight";
  rule.event = "tick.Alarm";
  rule.condition = "Query.Duration >= 0 OR Query.Time_Blocked >= 0";
  rule.action = "Query.Persist(InFlight, ID, Query_Text)";
  ASSERT_TRUE(monitor_.AddRule(rule).ok());
  ASSERT_TRUE(monitor_.SetTimer("tick", 0.0005, 1).ok());

  auto holder = db_.CreateSession();
  ASSERT_TRUE(holder->Begin().ok());
  ASSERT_TRUE(holder->Execute("UPDATE items SET val = 5 WHERE id = 30").ok());
  std::thread blocked([this] {
    auto waiter = db_.CreateSession();
    EXPECT_TRUE(waiter->Execute("UPDATE items SET val = 6 WHERE id = 30").ok());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  // The waiter's UPDATE is currently active (blocked); the alarm must see it.
  EXPECT_EQ(monitor_.timer_manager()->Poll(db_.clock()->NowMicros()), 1u);
  storage::Table* inflight = db_.catalog()->GetTable("InFlight");
  ASSERT_NE(inflight, nullptr);
  EXPECT_GE(inflight->row_count(), 1u);
  ASSERT_TRUE(holder->Commit().ok());
  blocked.join();
}

TEST_F(MonitorTest, TransactionSignatureDistinguishesCodePaths) {
  LatSpec txn_lat;
  txn_lat.name = "TxnPaths";
  txn_lat.object_class = MonitoredClass::kTransaction;
  txn_lat.group_by = {{"Logical_Signature", "Path"}};
  txn_lat.aggregates = {{LatAggFunc::kCount, "", "N", false},
                        {LatAggFunc::kAvg, "Duration", "AvgDur", false}};
  ASSERT_TRUE(monitor_.DefineLat(std::move(txn_lat)).ok());
  RuleSpec rule;
  rule.name = "txn_feed";
  rule.event = "Transaction.Commit";
  rule.action = "Transaction.Insert(TxnPaths)";
  ASSERT_TRUE(monitor_.AddRule(rule).ok());

  engine::Procedure proc;
  proc.name = "branchy";
  proc.params = {"flag"};
  proc.body.push_back(engine::ProcStep::If(
      "@flag = 1",
      {engine::ProcStep::Sql("SELECT val FROM items WHERE id = @flag")},
      {engine::ProcStep::Sql("SELECT val FROM items WHERE grp = @flag")}));
  ASSERT_TRUE(db_.CreateProcedure(std::move(proc)).ok());

  Exec("EXEC branchy 1");
  Exec("EXEC branchy 1");
  Exec("EXEC branchy 0");

  Lat* lat = monitor_.FindLat("TxnPaths");
  auto rows = lat->Snapshot(0);
  // Two code paths -> two transaction signatures.
  ASSERT_EQ(rows.size(), 2u);
  int64_t total = 0;
  for (const auto& row : rows) total += row[1].int_value();
  EXPECT_EQ(total, 3);
}

TEST_F(MonitorTest, TransactionAttributesInConditions) {
  // `Transaction.<attribute>` parses in a condition, and `BEGIN
  // TRANSACTION` / `COMMIT TRANSACTION` still delimit a transaction.
  RuleSpec rule;
  rule.name = "multi_query_txn";
  rule.event = "Transaction.Commit";
  rule.condition = "Transaction.Num_Queries >= 2 AND Transaction.User <> ''";
  rule.action =
      "SendMail('txn by {Transaction.User} ran {Transaction.Num_Queries}', "
      "'dba')";
  auto id = monitor_.AddRule(rule);
  ASSERT_TRUE(id.ok()) << id.status();

  Exec("SELECT val FROM items WHERE id = 1");  // one-query transaction
  Exec("BEGIN TRANSACTION");
  Exec("SELECT val FROM items WHERE id = 2");
  Exec("SELECT val FROM items WHERE id = 3");
  Exec("COMMIT TRANSACTION");

  const auto mails = monitor_.capturing_mailer()->mails();
  ASSERT_EQ(mails.size(), 1u);
  EXPECT_EQ(mails[0].body, "txn by dbo ran 2");
  const auto rules = monitor_.SnapshotRules();
  ASSERT_EQ(rules.size(), 1u);
  EXPECT_EQ(rules[0]->stats.fires.value(), 1u);
  EXPECT_EQ(rules[0]->stats.errors.value(), 0u);
}

TEST_F(MonitorTest, SendMailWithTemplateSubstitution) {
  RuleSpec rule;
  rule.name = "mail";
  rule.event = "Query.Commit";
  rule.condition = "Query.Query_Type = 'SELECT'";
  rule.action =
      "SendMail('query {Query.ID} type={Query.Query_Type} took "
      "{Query.Duration}s', 'dba@corp')";
  ASSERT_TRUE(monitor_.AddRule(rule).ok());
  Exec("SELECT val FROM items WHERE id = 4");
  auto mails = monitor_.capturing_mailer()->mails();
  ASSERT_EQ(mails.size(), 1u);
  EXPECT_EQ(mails[0].address, "dba@corp");
  EXPECT_NE(mails[0].body.find("type=SELECT"), std::string::npos);
  EXPECT_EQ(mails[0].body.find("{"), std::string::npos);
}

TEST_F(MonitorTest, RunExternalCaptured) {
  RuleSpec rule;
  rule.name = "run";
  rule.event = "Query.Commit";
  rule.action = "RunExternal('postprocess --id {Query.ID}')";
  ASSERT_TRUE(monitor_.AddRule(rule).ok());
  Exec("SELECT val FROM items WHERE id = 4");
  ASSERT_EQ(monitor_.capturing_launcher()->size(), 1u);
}

TEST_F(MonitorTest, RuleLifecycleDynamics) {
  DefineDurationLat();
  RuleSpec feed;
  feed.name = "feed";
  feed.event = "Query.Commit";
  feed.action = "Query.Insert(Duration_LAT)";
  auto id = monitor_.AddRule(feed);
  ASSERT_TRUE(id.ok());
  Exec("SELECT val FROM items WHERE id = 1");
  EXPECT_EQ(monitor_.FindLat("Duration_LAT")->size(), 1u);

  // Disable: no further inserts.
  ASSERT_TRUE(monitor_.SetRuleEnabled(*id, false).ok());
  Exec("SELECT val FROM items WHERE grp = 1");
  EXPECT_EQ(monitor_.FindLat("Duration_LAT")->size(), 1u);

  ASSERT_TRUE(monitor_.SetRuleEnabled(*id, true).ok());
  Exec("SELECT val FROM items WHERE grp = 1");
  EXPECT_EQ(monitor_.FindLat("Duration_LAT")->size(), 2u);

  // LAT cannot be dropped while referenced.
  EXPECT_FALSE(monitor_.DropLat("Duration_LAT").ok());
  ASSERT_TRUE(monitor_.RemoveRule(*id).ok());
  EXPECT_TRUE(monitor_.DropLat("Duration_LAT").ok());
  EXPECT_TRUE(monitor_.RemoveRule(*id).IsNotFound());
}

TEST_F(MonitorTest, PersistAndSeedLatThroughMonitor) {
  DefineDurationLat();
  RuleSpec feed;
  feed.name = "feed";
  feed.event = "Query.Commit";
  feed.action = "Query.Insert(Duration_LAT)";
  ASSERT_TRUE(monitor_.AddRule(feed).ok());
  Exec("SELECT val FROM items WHERE id = 1");
  ASSERT_TRUE(monitor_.PersistLat("Duration_LAT", "LatSnap").ok());
  storage::Table* snap = db_.catalog()->GetTable("LatSnap");
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->row_count(), 1u);

  // "Restart": a fresh LAT seeded from the table resumes with state.
  ASSERT_TRUE(monitor_.RemoveRule(1).ok() || true);
  monitor_.FindLat("Duration_LAT")->Reset();
  ASSERT_TRUE(monitor_.SeedLat("Duration_LAT", "LatSnap").ok());
  EXPECT_EQ(monitor_.FindLat("Duration_LAT")->size(), 1u);
}

TEST_F(MonitorTest, ExecQueriesGroupByProcedure) {
  DefineDurationLat();
  RuleSpec feed;
  feed.name = "feed";
  feed.event = "Query.Commit";
  feed.condition = "Query.Query_Type = 'EXEC'";
  feed.action = "Query.Insert(Duration_LAT)";
  ASSERT_TRUE(monitor_.AddRule(feed).ok());

  engine::Procedure proc;
  proc.name = "p1";
  proc.params = {"k"};
  proc.body.push_back(
      engine::ProcStep::Sql("SELECT val FROM items WHERE id = @k"));
  ASSERT_TRUE(db_.CreateProcedure(std::move(proc)).ok());
  Exec("EXEC p1 1");
  Exec("EXEC p1 2");
  Exec("EXEC p1 3");

  Lat* lat = monitor_.FindLat("Duration_LAT");
  auto rows = lat->Snapshot(0);
  ASSERT_EQ(rows.size(), 1u);  // all invocations share Exec(p1) signature
  EXPECT_EQ(rows[0][2].int_value(), 3);
}

}  // namespace
}  // namespace sqlcm::cm
