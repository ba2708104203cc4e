#include "exec/optimizer.h"

#include <gtest/gtest.h>

#include "exec/planner.h"
#include "sql/parser.h"
#include "storage/catalog.h"

namespace sqlcm::exec {
namespace {

using common::Value;

class OptimizerTest : public ::testing::Test {
 protected:
  OptimizerTest() {
    auto t = catalog::TableSchema::Create(
        "t",
        {{"id", catalog::ColumnType::kInt},
         {"grp", catalog::ColumnType::kInt},
         {"val", catalog::ColumnType::kDouble},
         {"name", catalog::ColumnType::kString}},
        {"id"});
    storage::Table* table = *catalog_.CreateTable(std::move(*t));
    EXPECT_TRUE(table->CreateIndex("t_grp", {"grp"}).ok());
    for (int64_t i = 0; i < 100; ++i) {
      EXPECT_TRUE(table->Insert({Value::Int(i), Value::Int(i % 10),
                                 Value::Double(i * 0.5),
                                 Value::String("n" + std::to_string(i))})
                      .ok());
    }
    auto u = catalog::TableSchema::Create(
        "u",
        {{"id", catalog::ColumnType::kInt},
         {"t_id", catalog::ColumnType::kInt}},
        {"id"});
    storage::Table* utable = *catalog_.CreateTable(std::move(*u));
    for (int64_t i = 0; i < 50; ++i) {
      EXPECT_TRUE(utable->Insert({Value::Int(i), Value::Int(i * 2)}).ok());
    }
  }

  std::unique_ptr<PhysicalPlan> Optimize(const std::string& sql) {
    auto stmt = sql::Parser::ParseStatement(sql);
    EXPECT_TRUE(stmt.ok()) << stmt.status();
    Planner planner(&catalog_);
    auto logical = planner.Plan(**stmt);
    EXPECT_TRUE(logical.ok()) << logical.status();
    Optimizer optimizer;
    auto physical = optimizer.Optimize(**logical);
    EXPECT_TRUE(physical.ok()) << physical.status();
    return std::move(*physical);
  }

  /// First node of the given op found by preorder walk; nullptr if none.
  static const PhysicalPlan* FindNode(const PhysicalPlan& plan, PhysOp op) {
    if (plan.op == op) return &plan;
    for (const auto& child : plan.children) {
      if (const PhysicalPlan* found = FindNode(*child, op)) return found;
    }
    return nullptr;
  }

  storage::Catalog catalog_;
};

TEST_F(OptimizerTest, PointSelectUsesClusteredSeek) {
  auto plan = Optimize("SELECT val FROM t WHERE id = 42");
  const PhysicalPlan* seek = FindNode(*plan, PhysOp::kIndexSeek);
  ASSERT_NE(seek, nullptr);
  EXPECT_EQ(seek->access->index_name, "");  // primary
  EXPECT_EQ(seek->access->seek_exprs.size(), 1u);
  EXPECT_DOUBLE_EQ(seek->est_rows, 1.0);
  EXPECT_EQ(FindNode(*plan, PhysOp::kSeqScan), nullptr);
}

TEST_F(OptimizerTest, SecondaryIndexSeek) {
  auto plan = Optimize("SELECT val FROM t WHERE grp = 3");
  const PhysicalPlan* seek = FindNode(*plan, PhysOp::kIndexSeek);
  ASSERT_NE(seek, nullptr);
  EXPECT_EQ(seek->access->index_name, "t_grp");
}

TEST_F(OptimizerTest, RangeOnClusteredKey) {
  auto plan = Optimize("SELECT val FROM t WHERE id >= 10 AND id <= 20");
  const PhysicalPlan* range = FindNode(*plan, PhysOp::kIndexRange);
  ASSERT_NE(range, nullptr);
  EXPECT_NE(range->access->range_lo, nullptr);
  EXPECT_NE(range->access->range_hi, nullptr);
  // Range bounds stay as residual filters for strictness.
  EXPECT_NE(FindNode(*plan, PhysOp::kFilter), nullptr);
}

TEST_F(OptimizerTest, NonSargablePredicateSeqScans) {
  auto plan = Optimize("SELECT val FROM t WHERE val > 10");
  EXPECT_NE(FindNode(*plan, PhysOp::kSeqScan), nullptr);
  EXPECT_NE(FindNode(*plan, PhysOp::kFilter), nullptr);
}

TEST_F(OptimizerTest, ResidualPredicateOnSeek) {
  auto plan = Optimize("SELECT val FROM t WHERE id = 1 AND val > 0");
  EXPECT_NE(FindNode(*plan, PhysOp::kIndexSeek), nullptr);
  const PhysicalPlan* filter = FindNode(*plan, PhysOp::kFilter);
  ASSERT_NE(filter, nullptr);
  EXPECT_EQ(filter->predicates.size(), 1u);
}

TEST_F(OptimizerTest, JoinBecomesIndexNestedLoop) {
  auto plan = Optimize(
      "SELECT t.val FROM u JOIN t ON u.t_id = t.id WHERE u.id = 5");
  const PhysicalPlan* inlj = FindNode(*plan, PhysOp::kIndexNLJoin);
  ASSERT_NE(inlj, nullptr);
  EXPECT_EQ(inlj->table->name(), "t");
  // The u.id = 5 predicate must have been pushed into the outer access.
  const PhysicalPlan* seek = FindNode(*inlj->children[0], PhysOp::kIndexSeek);
  ASSERT_NE(seek, nullptr);
  EXPECT_EQ(seek->table->name(), "u");
}

TEST_F(OptimizerTest, JoinWithoutIndexableKeyUsesHashJoin) {
  // Join on non-indexed columns of both sides.
  auto plan = Optimize("SELECT t.val FROM t JOIN u ON t.val = u.t_id");
  // t.val has no index; u.t_id has none either, but equality exists in
  // both directions — INLJ is impossible, hash join applies.
  EXPECT_NE(FindNode(*plan, PhysOp::kHashJoin), nullptr);
}

TEST_F(OptimizerTest, CrossJoinFallsBackToNestedLoop) {
  auto plan = Optimize("SELECT t.val FROM t JOIN u ON t.val > u.t_id");
  EXPECT_NE(FindNode(*plan, PhysOp::kNestedLoopJoin), nullptr);
}

TEST_F(OptimizerTest, AggregationSortLimitPipeline) {
  auto plan = Optimize(
      "SELECT grp, COUNT(*) c, AVG(val) a FROM t GROUP BY grp "
      "ORDER BY c DESC LIMIT 3");
  EXPECT_EQ(plan->op, PhysOp::kLimit);
  EXPECT_EQ(plan->children[0]->op, PhysOp::kSort);
  EXPECT_NE(FindNode(*plan, PhysOp::kHashAggregate), nullptr);
}

TEST_F(OptimizerTest, UpdateDeleteGetAccessPath) {
  auto update = Optimize("UPDATE t SET val = 0 WHERE id = 3");
  EXPECT_EQ(update->op, PhysOp::kUpdate);
  ASSERT_FALSE(update->children.empty());
  EXPECT_EQ(update->children[0]->op, PhysOp::kIndexSeek);
  EXPECT_EQ(update->access->seek_exprs.size(), 1u);

  auto del = Optimize("DELETE FROM t WHERE val > 100");
  EXPECT_EQ(del->op, PhysOp::kDelete);
  EXPECT_EQ(del->children[0]->op, PhysOp::kSeqScan);
  EXPECT_EQ(del->predicates.size(), 1u);
}

TEST_F(OptimizerTest, EstimatedCostOrdering) {
  auto seek = Optimize("SELECT val FROM t WHERE id = 1");
  auto scan = Optimize("SELECT val FROM t WHERE val > 1");
  EXPECT_LT(seek->est_cost, scan->est_cost);
}

TEST_F(OptimizerTest, SignatureInvariantToConstantsAndPredicateOrder) {
  auto p1 = Optimize("SELECT val FROM t WHERE grp = 3 AND val > 1");
  auto p2 = Optimize("SELECT val FROM t WHERE val > 99 AND grp = 7");
  std::string s1, s2;
  p1->AppendSignature(true, &s1);
  p2->AppendSignature(true, &s2);
  EXPECT_EQ(s1, s2);

  auto p3 = Optimize("SELECT val FROM t WHERE id = 3 AND val > 1");
  std::string s3;
  p3->AppendSignature(true, &s3);
  EXPECT_NE(s1, s3);  // different access path -> different physical sig
}

TEST_F(OptimizerTest, ExplainRendersTree) {
  auto plan = Optimize("SELECT t.val FROM u JOIN t ON u.t_id = t.id");
  const std::string text = plan->Explain();
  EXPECT_NE(text.find("IndexNLJoin"), std::string::npos);
  EXPECT_NE(text.find("rows="), std::string::npos);
}

TEST_F(OptimizerTest, PlannerErrors) {
  Planner planner(&catalog_);
  auto missing_table = sql::Parser::ParseStatement("SELECT x FROM nope");
  EXPECT_TRUE(planner.Plan(**missing_table).status().IsNotFound());

  auto missing_col = sql::Parser::ParseStatement("SELECT nope FROM t");
  EXPECT_TRUE(planner.Plan(**missing_col).status().IsNotFound());

  auto bad_group = sql::Parser::ParseStatement(
      "SELECT val, COUNT(*) FROM t GROUP BY grp");
  EXPECT_TRUE(planner.Plan(**bad_group).status().IsInvalidArgument());

  auto agg_in_where =
      sql::Parser::ParseStatement("SELECT id FROM t WHERE SUM(val) > 1");
  EXPECT_TRUE(planner.Plan(**agg_in_where).status().IsInvalidArgument());
}

}  // namespace
}  // namespace sqlcm::exec
