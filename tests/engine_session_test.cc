#include "engine/session.h"

#include <gtest/gtest.h>

#include <thread>

#include "engine/database.h"

namespace sqlcm::engine {
namespace {

using common::Value;
using exec::ParamMap;
using exec::QueryResult;

class SessionTest : public ::testing::Test {
 protected:
  SessionTest() : session_(db_.CreateSession()) {
    Exec("CREATE TABLE t (id INT, grp INT, val FLOAT, name VARCHAR(32), "
         "PRIMARY KEY(id))");
    Exec("CREATE INDEX t_grp ON t (grp)");
    for (int i = 0; i < 20; ++i) {
      Exec("INSERT INTO t VALUES (" + std::to_string(i) + ", " +
           std::to_string(i % 4) + ", " + std::to_string(i * 0.5) + ", 'n" +
           std::to_string(i) + "')");
    }
  }

  QueryResult Exec(const std::string& sql, const ParamMap* params = nullptr) {
    auto result = session_->Execute(sql, params);
    EXPECT_TRUE(result.ok()) << sql << " -> " << result.status();
    return result.ok() ? std::move(*result) : QueryResult{};
  }

  Database db_;
  std::unique_ptr<Session> session_;
};

TEST_F(SessionTest, PointSelect) {
  auto result = Exec("SELECT name, val FROM t WHERE id = 7");
  ASSERT_EQ(result.rows.size(), 1u);
  EXPECT_EQ(result.rows[0][0].string_value(), "n7");
  EXPECT_DOUBLE_EQ(result.rows[0][1].double_value(), 3.5);
  EXPECT_EQ(result.column_names, (std::vector<std::string>{"name", "val"}));
}

TEST_F(SessionTest, SecondaryIndexSelect) {
  auto result = Exec("SELECT id FROM t WHERE grp = 2 ORDER BY id");
  ASSERT_EQ(result.rows.size(), 5u);
  EXPECT_EQ(result.rows[0][0].int_value(), 2);
  EXPECT_EQ(result.rows[4][0].int_value(), 18);
}

TEST_F(SessionTest, JoinsAndExpressions) {
  Exec("CREATE TABLE grp_names (grp INT, label VARCHAR(16), PRIMARY KEY(grp))");
  Exec("INSERT INTO grp_names VALUES (0,'zero'),(1,'one'),(2,'two'),(3,'three')");
  auto result = Exec(
      "SELECT t.id, g.label, t.val * 2 AS doubled FROM t "
      "JOIN grp_names g ON t.grp = g.grp WHERE t.id < 3 ORDER BY t.id");
  ASSERT_EQ(result.rows.size(), 3u);
  EXPECT_EQ(result.rows[1][1].string_value(), "one");
  EXPECT_DOUBLE_EQ(result.rows[2][2].double_value(), 2.0);
}

TEST_F(SessionTest, AggregationWithGroupBy) {
  auto result =
      Exec("SELECT grp, COUNT(*) n, AVG(val) a, MIN(id) lo, MAX(id) hi "
           "FROM t GROUP BY grp ORDER BY grp");
  ASSERT_EQ(result.rows.size(), 4u);
  EXPECT_EQ(result.rows[0][1].int_value(), 5);
  EXPECT_EQ(result.rows[3][3].int_value(), 3);
  EXPECT_EQ(result.rows[3][4].int_value(), 19);
}

TEST_F(SessionTest, GlobalAggregateOnEmptyResult) {
  auto result = Exec("SELECT COUNT(*) c, SUM(val) s FROM t WHERE id > 999");
  ASSERT_EQ(result.rows.size(), 1u);
  EXPECT_EQ(result.rows[0][0].int_value(), 0);
  EXPECT_TRUE(result.rows[0][1].is_null());
}

TEST_F(SessionTest, UpdateAndDelete) {
  auto update = Exec("UPDATE t SET val = val + 100 WHERE grp = 1");
  EXPECT_EQ(update.rows_affected, 5u);
  auto check = Exec("SELECT MIN(val) m FROM t WHERE grp = 1");
  EXPECT_GE(check.rows[0][0].AsDouble(), 100.0);

  auto del = Exec("DELETE FROM t WHERE id >= 16");
  EXPECT_EQ(del.rows_affected, 4u);
  EXPECT_EQ(Exec("SELECT COUNT(*) FROM t").rows[0][0].int_value(), 16);
}

TEST_F(SessionTest, ParameterizedStatementsShareCachedPlan) {
  ParamMap p1 = {{"k", Value::Int(1)}};
  ParamMap p2 = {{"k", Value::Int(2)}};
  const std::string sql = "SELECT name FROM t WHERE id = @k";
  EXPECT_EQ(Exec(sql, &p1).rows[0][0].string_value(), "n1");
  const uint64_t misses = db_.plan_cache()->misses();
  EXPECT_EQ(Exec(sql, &p2).rows[0][0].string_value(), "n2");
  EXPECT_EQ(db_.plan_cache()->misses(), misses);  // second run was a hit
  EXPECT_GE(db_.plan_cache()->hits(), 1u);
}

TEST_F(SessionTest, ExplicitTransactionCommitAndRollback) {
  Exec("BEGIN");
  EXPECT_TRUE(session_->in_transaction());
  Exec("DELETE FROM t WHERE id = 0");
  Exec("COMMIT");
  EXPECT_FALSE(session_->in_transaction());
  EXPECT_EQ(Exec("SELECT COUNT(*) FROM t").rows[0][0].int_value(), 19);

  Exec("BEGIN");
  Exec("DELETE FROM t WHERE id = 1");
  Exec("INSERT INTO t VALUES (100, 0, 0.0, 'temp')");
  Exec("ROLLBACK");
  EXPECT_EQ(Exec("SELECT COUNT(*) FROM t").rows[0][0].int_value(), 19);
  ASSERT_EQ(Exec("SELECT name FROM t WHERE id = 1").rows.size(), 1u);
}

TEST_F(SessionTest, TransactionControlErrors) {
  EXPECT_FALSE(session_->Commit().ok());
  EXPECT_FALSE(session_->Rollback().ok());
  ASSERT_TRUE(session_->Begin().ok());
  EXPECT_FALSE(session_->Begin().ok());
  ASSERT_TRUE(session_->Commit().ok());
}

TEST_F(SessionTest, FailedStatementAbortsTransaction) {
  Exec("BEGIN");
  Exec("DELETE FROM t WHERE id = 5");
  // Duplicate key failure aborts the whole transaction.
  auto dup = session_->Execute("INSERT INTO t VALUES (6, 0, 0.0, 'dup')");
  ASSERT_FALSE(dup.ok());
  EXPECT_FALSE(session_->in_transaction());
  ASSERT_EQ(Exec("SELECT name FROM t WHERE id = 5").rows.size(), 1u);
}

TEST_F(SessionTest, DdlClearsPlanCache) {
  Exec("SELECT id FROM t WHERE id = 1");
  EXPECT_GT(db_.plan_cache()->size(), 0u);
  Exec("CREATE TABLE fresh (a INT, PRIMARY KEY(a))");
  EXPECT_EQ(db_.plan_cache()->size(), 0u);
  Exec("DROP TABLE fresh");
}

std::shared_ptr<CachedPlan> PlanFor(std::string text) {
  auto plan = std::make_shared<CachedPlan>();
  plan->sql_text = std::move(text);
  return plan;
}

TEST(PlanCacheTest, SameTextRePutRekeysOntoTheNewPlan) {
  // Keys view the cached plan's own text, so replacing a plan must move
  // the key onto the new plan before the old one (and its text) dies.
  PlanCache cache(2);
  auto first = PlanFor("SELECT 1");
  cache.Put(first);
  auto second = PlanFor("SELECT 1");
  cache.Put(second);
  first.reset();
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.Get("SELECT 1"), second);

  auto other = PlanFor("SELECT 2");
  cache.Put(other);
  EXPECT_EQ(cache.Get("SELECT 1"), second);  // now most recent
  auto third = PlanFor("SELECT 3");
  cache.Put(third);  // evicts the LRU entry, "SELECT 2"
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(cache.Get("SELECT 2"), nullptr);
  EXPECT_EQ(cache.Get("SELECT 3"), third);

  auto again = PlanFor("SELECT 1");
  cache.Put(again);
  second.reset();
  EXPECT_EQ(cache.Get("SELECT 1"), again);
  EXPECT_EQ(cache.Recheck("SELECT 1"), again);
  EXPECT_EQ(cache.size(), 2u);
}

TEST_F(SessionTest, StoredProcedureWithBranches) {
  Procedure proc;
  proc.name = "touch";
  proc.params = {"key", "mode"};
  proc.body.push_back(ProcStep::If(
      "@mode = 1",
      {ProcStep::Sql("UPDATE t SET val = 1000 WHERE id = @key")},
      {ProcStep::Sql("SELECT name FROM t WHERE id = @key")}));
  ASSERT_TRUE(db_.CreateProcedure(std::move(proc)).ok());

  auto read = Exec("EXEC touch 3, 0");
  ASSERT_EQ(read.rows.size(), 1u);
  EXPECT_EQ(read.rows[0][0].string_value(), "n3");

  Exec("EXEC touch 3, 1");
  EXPECT_DOUBLE_EQ(
      Exec("SELECT val FROM t WHERE id = 3").rows[0][0].double_value(),
      1000.0);
}

TEST_F(SessionTest, ProcedureErrors) {
  EXPECT_TRUE(session_->Execute("EXEC missing").status().IsNotFound());
  Procedure proc;
  proc.name = "two_args";
  proc.params = {"a", "b"};
  proc.body.push_back(ProcStep::Sql("SELECT id FROM t WHERE id = @a"));
  ASSERT_TRUE(db_.CreateProcedure(std::move(proc)).ok());
  EXPECT_TRUE(
      session_->Execute("EXEC two_args 1").status().IsInvalidArgument());
  EXPECT_TRUE(db_.CreateProcedure({"two_args", {}, {}}).IsAlreadyExists());
}

TEST_F(SessionTest, SessionRollsBackOnDestruction) {
  auto other = db_.CreateSession();
  ASSERT_TRUE(other->Begin().ok());
  auto result = other->Execute("DELETE FROM t WHERE id = 9");
  ASSERT_TRUE(result.ok());
  other.reset();  // implicit rollback
  EXPECT_EQ(Exec("SELECT COUNT(*) FROM t").rows[0][0].int_value(), 20);
}

TEST_F(SessionTest, CrossSessionWriteConflictBlocks) {
  auto writer1 = db_.CreateSession();
  auto writer2 = db_.CreateSession();
  ASSERT_TRUE(writer1->Begin().ok());
  ASSERT_TRUE(writer1->Execute("UPDATE t SET val = 1 WHERE id = 2").ok());

  std::atomic<bool> done{false};
  std::thread blocked([&] {
    // Blocks until writer1 commits.
    auto result = writer2->Execute("UPDATE t SET val = 2 WHERE id = 2");
    EXPECT_TRUE(result.ok()) << result.status();
    done.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(done.load());
  ASSERT_TRUE(writer1->Commit().ok());
  blocked.join();
  EXPECT_TRUE(done.load());
  EXPECT_DOUBLE_EQ(
      Exec("SELECT val FROM t WHERE id = 2").rows[0][0].double_value(), 2.0);
}

TEST_F(SessionTest, DeadlockVictimGetsDeadlockStatus) {
  auto s1 = db_.CreateSession();
  auto s2 = db_.CreateSession();
  ASSERT_TRUE(s1->Begin().ok());
  ASSERT_TRUE(s2->Begin().ok());
  ASSERT_TRUE(s1->Execute("UPDATE t SET val = 1 WHERE id = 10").ok());
  ASSERT_TRUE(s2->Execute("UPDATE t SET val = 1 WHERE id = 11").ok());

  std::thread t1([&] {
    // s1 waits on id 11.
    auto result = s1->Execute("UPDATE t SET val = 2 WHERE id = 11");
    // Either granted (after s2 dies) or deadlock victim itself.
    (void)result;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  auto result = s2->Execute("UPDATE t SET val = 2 WHERE id = 10");
  t1.join();
  if (!result.ok()) {
    EXPECT_TRUE(result.status().IsDeadlock()) << result.status();
    EXPECT_FALSE(s2->in_transaction());  // aborted
  }
}

TEST_F(SessionTest, QueryCancellation) {
  auto victim = db_.CreateSession();
  ASSERT_TRUE(victim->Begin().ok());
  victim->current_txn()->Cancel();
  auto result = victim->Execute("SELECT COUNT(*) FROM t");
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsCancelled());
}

}  // namespace
}  // namespace sqlcm::engine
