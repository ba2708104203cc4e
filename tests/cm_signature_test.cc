#include "sqlcm/signature.h"

#include <gtest/gtest.h>
#include <malloc.h>

#include <string>

#include "engine/database.h"
#include "engine/session.h"
#include "exec/optimizer.h"
#include "exec/planner.h"
#include "sql/parser.h"
#include "sqlcm/monitor_engine.h"
#include "storage/catalog.h"

namespace sqlcm::cm {
namespace {

using common::Value;

class SignatureTest : public ::testing::Test {
 protected:
  SignatureTest() {
    auto t = catalog::TableSchema::Create(
        "t",
        {{"id", catalog::ColumnType::kInt},
         {"grp", catalog::ColumnType::kInt},
         {"val", catalog::ColumnType::kDouble}},
        {"id"});
    table_ = *catalog_.CreateTable(std::move(*t));
    EXPECT_TRUE(table_->CreateIndex("t_grp", {"grp"}).ok());
    for (int64_t i = 0; i < 50; ++i) {
      EXPECT_TRUE(
          table_->Insert({Value::Int(i), Value::Int(i % 5), Value::Double(i)})
              .ok());
    }
  }

  struct Compiled {
    std::unique_ptr<exec::LogicalPlan> logical;
    std::unique_ptr<exec::PhysicalPlan> physical;
  };

  Compiled Compile(const std::string& sql) {
    auto stmt = sql::Parser::ParseStatement(sql);
    EXPECT_TRUE(stmt.ok()) << stmt.status();
    exec::Planner planner(&catalog_);
    auto logical = planner.Plan(**stmt);
    EXPECT_TRUE(logical.ok()) << logical.status();
    exec::Optimizer optimizer;
    auto physical = optimizer.Optimize(**logical);
    EXPECT_TRUE(physical.ok()) << physical.status();
    return {std::move(*logical), std::move(*physical)};
  }

  Signature LogicalSig(const std::string& sql) {
    return LogicalQuerySignature(*Compile(sql).logical);
  }
  Signature PhysicalSig(const std::string& sql) {
    return PhysicalPlanSignature(*Compile(sql).physical);
  }

  storage::Catalog catalog_;
  storage::Table* table_;
};

TEST_F(SignatureTest, SameTemplateDifferentConstantsMatch) {
  const auto a = LogicalSig("SELECT val FROM t WHERE id = 1");
  const auto b = LogicalSig("SELECT val FROM t WHERE id = 999");
  EXPECT_EQ(a.text, b.text);
  EXPECT_EQ(a.hash, b.hash);
}

TEST_F(SignatureTest, PredicateOrderInsignificant) {
  const auto a = LogicalSig("SELECT val FROM t WHERE grp = 1 AND val > 2");
  const auto b = LogicalSig("SELECT val FROM t WHERE val > 5 AND grp = 9");
  EXPECT_EQ(a.text, b.text);
}

TEST_F(SignatureTest, DifferentStructureDiffers) {
  const auto a = LogicalSig("SELECT val FROM t WHERE id = 1");
  const auto b = LogicalSig("SELECT val FROM t WHERE grp = 1");
  const auto c = LogicalSig("SELECT id FROM t WHERE id = 1");
  EXPECT_NE(a.text, b.text);
  EXPECT_NE(a.text, c.text);
}

TEST_F(SignatureTest, IdentifiedParametersKeepIdentity) {
  // @a = @a matches, @a vs @b differ (paper §4.2: P_i matches only P_i).
  const auto a1 = LogicalSig("SELECT val FROM t WHERE id = @a");
  const auto a2 = LogicalSig("SELECT val FROM t WHERE id = @a");
  const auto b = LogicalSig("SELECT val FROM t WHERE id = @b");
  EXPECT_EQ(a1.text, a2.text);
  EXPECT_NE(a1.text, b.text);
  // Ad-hoc constants wildcard to the same symbol regardless of value, and
  // differ from named parameters.
  const auto c = LogicalSig("SELECT val FROM t WHERE id = 7");
  EXPECT_NE(a1.text, c.text);
}

TEST_F(SignatureTest, PhysicalDiffersWhenAccessPathDiffers) {
  // Same logical shape (single-table filter select on one column) but
  // different access paths: id is the clustered key, val is unindexed.
  const auto seek = PhysicalSig("SELECT val FROM t WHERE id = 1");
  const auto scan = PhysicalSig("SELECT id FROM t WHERE val = 1");
  EXPECT_NE(seek.text, scan.text);
  EXPECT_NE(seek.text.find("IndexSeek"), std::string::npos);
  EXPECT_NE(scan.text.find("SeqScan"), std::string::npos);
}

TEST_F(SignatureTest, PhysicalStableAcrossConstants) {
  const auto a = PhysicalSig("SELECT val FROM t WHERE id = 1");
  const auto b = PhysicalSig("SELECT val FROM t WHERE id = 2");
  EXPECT_EQ(a.text, b.text);
}

TEST_F(SignatureTest, DmlSignatures) {
  const auto u1 = LogicalSig("UPDATE t SET val = 1 WHERE id = 2");
  const auto u2 = LogicalSig("UPDATE t SET val = 9 WHERE id = 4");
  const auto d = LogicalSig("DELETE FROM t WHERE id = 2");
  EXPECT_EQ(u1.text, u2.text);
  EXPECT_NE(u1.text, d.text);
  const auto i1 = LogicalSig("INSERT INTO t VALUES (100, 1, 0.5)");
  const auto i2 = LogicalSig("INSERT INTO t VALUES (101, 2, 1.5)");
  EXPECT_EQ(i1.text, i2.text);
}

TEST_F(SignatureTest, TransactionSignatureSequencing) {
  const auto q1 = LogicalSig("SELECT val FROM t WHERE id = 1");
  const auto q2 = LogicalSig("SELECT val FROM t WHERE grp = 1");
  const auto ab = TransactionSignature({q1.hash, q2.hash});
  const auto ba = TransactionSignature({q2.hash, q1.hash});
  const auto ab2 = TransactionSignature({q1.hash, q2.hash});
  EXPECT_EQ(ab.text, ab2.text);
  EXPECT_NE(ab.text, ba.text);  // order matters: different code paths
  EXPECT_EQ(TransactionSignature({}).text, "[]");
}

TEST_F(SignatureTest, HashIsStableFnv) {
  EXPECT_EQ(HashSignature("abc"), HashSignature("abc"));
  EXPECT_NE(HashSignature("abc"), HashSignature("abd"));
  EXPECT_EQ(HashSignature(""), 0xcbf29ce484222325ull);
}

TEST_F(SignatureTest, JoinShapeCaptured) {
  auto u = catalog::TableSchema::Create(
      "u", {{"id", catalog::ColumnType::kInt}}, {"id"});
  ASSERT_TRUE(catalog_.CreateTable(std::move(*u)).ok());
  const auto join = LogicalSig("SELECT t.val FROM t JOIN u ON t.id = u.id");
  const auto single = LogicalSig("SELECT t.val FROM t");
  EXPECT_NE(join.text, single.text);
  EXPECT_NE(join.text.find("Join"), std::string::npos);
  EXPECT_NE(join.text.find("u"), std::string::npos);
}

// A plan cache holds thousands of ad-hoc plans, each with its signatures,
// so a cached plan's heap footprint bounds the cache's. Ad-hoc point
// selects that differ only in their literal share their signature texts and
// column layouts; what stays per plan is the text, the two nodes and their
// operands. Measured as the growth of the in-use heap (mallinfo2) across
// 2,000 distinct texts, so it needs glibc's allocator: sanitizer builds
// replace it and are skipped.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define SQLCM_FOREIGN_ALLOCATOR 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define SQLCM_FOREIGN_ALLOCATOR 1
#endif
#endif

TEST(CachedPlanFootprintTest, AdHocPointSelectStaysUnderBound) {
#ifdef SQLCM_FOREIGN_ALLOCATOR
  GTEST_SKIP() << "heap accounting needs glibc malloc (sanitizer build)";
#else
  engine::Database db;
  MonitorEngine::Options options;
  options.register_system_views = false;
  MonitorEngine monitor(&db, options);  // computes and caches signatures
  auto session = db.CreateSession();
  ASSERT_TRUE(session
                  ->Execute("CREATE TABLE orders (o_orderkey INT, o_custkey "
                            "INT, o_orderstatus VARCHAR, o_totalprice FLOAT, "
                            "o_orderdate VARCHAR, o_orderpriority VARCHAR, "
                            "o_clerk VARCHAR, o_shippriority INT, o_comment "
                            "VARCHAR, PRIMARY KEY(o_orderkey))")
                  .ok());
  const std::string prefix =
      "SELECT o_custkey, o_totalprice FROM orders WHERE o_orderkey = ";
  // Warm-up: interned layouts and signatures, cache buckets.
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(session->Execute(prefix + std::to_string(-1 - i)).ok());
  }
  constexpr int kTexts = 2000;
  const size_t before = mallinfo2().uordblks;
  for (int i = 0; i < kTexts; ++i) {
    ASSERT_TRUE(session->Execute(prefix + std::to_string(i)).ok());
  }
  const size_t after = mallinfo2().uordblks;
  ASSERT_GE(db.plan_cache()->size(), static_cast<size_t>(kTexts));
  const double per_plan =
      static_cast<double>(after - before) / static_cast<double>(kTexts);
  EXPECT_LE(per_plan, 1600.0) << "bytes per cached ad-hoc point select";
  auto a = db.plan_cache()->Get(prefix + "1");
  auto b = db.plan_cache()->Get(prefix + "2");
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(&a->logical_signature.str(), &b->logical_signature.str());
  EXPECT_EQ(&a->physical->children[0]->output.columns(),
            &b->physical->children[0]->output.columns());
#endif
}

}  // namespace
}  // namespace sqlcm::cm
