#include "sql/parser.h"

#include <gtest/gtest.h>

#include "sql/lexer.h"

namespace sqlcm::sql {
namespace {

using common::Value;

TEST(LexerTest, BasicTokens) {
  auto tokens = Lexer("SELECT a, 1.5 'x''y' @p <= <> !=").Tokenize();
  ASSERT_TRUE(tokens.ok());
  std::vector<TokenKind> kinds;
  for (const auto& t : *tokens) kinds.push_back(t.kind);
  EXPECT_EQ(kinds,
            (std::vector<TokenKind>{
                TokenKind::kIdentifier, TokenKind::kIdentifier,
                TokenKind::kComma, TokenKind::kFloat, TokenKind::kString,
                TokenKind::kParam, TokenKind::kLe, TokenKind::kNe,
                TokenKind::kNe, TokenKind::kEof}));
  EXPECT_EQ((*tokens)[4].text, "x'y");
  EXPECT_EQ((*tokens)[5].text, "p");
}

TEST(LexerTest, LineCommentsSkipped) {
  auto tokens = Lexer("a -- comment\nb").Tokenize();
  ASSERT_TRUE(tokens.ok());
  ASSERT_EQ(tokens->size(), 3u);
  EXPECT_EQ((*tokens)[1].text, "b");
}

TEST(LexerTest, NumbersWithExponent) {
  auto tokens = Lexer("1e3 2.5e-2 10").Tokenize();
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].kind, TokenKind::kFloat);
  EXPECT_DOUBLE_EQ((*tokens)[0].double_value, 1000.0);
  EXPECT_DOUBLE_EQ((*tokens)[1].double_value, 0.025);
  EXPECT_EQ((*tokens)[2].kind, TokenKind::kInteger);
}

TEST(LexerTest, UnterminatedStringFails) {
  EXPECT_FALSE(Lexer("'abc").Tokenize().ok());
}

TEST(ParserTest, SelectFull) {
  auto stmt = Parser::ParseStatement(
      "SELECT a, b AS bee, t.c FROM t JOIN u ON t.a = u.a "
      "WHERE a > 1 AND b < 2 GROUP BY a, b, t.c ORDER BY a DESC, b LIMIT 5");
  ASSERT_TRUE(stmt.ok()) << stmt.status();
  const auto& select = static_cast<const SelectStmt&>(**stmt);
  EXPECT_EQ(select.items.size(), 3u);
  EXPECT_EQ(select.items[1].alias, "bee");
  EXPECT_EQ(select.from.table, "t");
  ASSERT_EQ(select.joins.size(), 1u);
  EXPECT_EQ(select.joins[0].table.table, "u");
  ASSERT_NE(select.where, nullptr);
  EXPECT_EQ(select.group_by.size(), 3u);
  ASSERT_EQ(select.order_by.size(), 2u);
  EXPECT_TRUE(select.order_by[0].descending);
  EXPECT_FALSE(select.order_by[1].descending);
  EXPECT_EQ(select.limit, 5);
}

TEST(ParserTest, SelectStarAndAlias) {
  auto stmt = Parser::ParseStatement("SELECT * FROM t x");
  ASSERT_TRUE(stmt.ok());
  const auto& select = static_cast<const SelectStmt&>(**stmt);
  EXPECT_TRUE(select.items[0].star);
  EXPECT_EQ(select.from.alias, "x");
}

TEST(ParserTest, ExpressionPrecedence) {
  auto expr = Parser::ParseExpression("1 + 2 * 3 = 7 AND NOT a OR b");
  ASSERT_TRUE(expr.ok());
  // ((((1+(2*3))=7) AND (NOT a)) OR b)
  EXPECT_EQ((*expr)->ToString(),
            "((((1 + (2 * 3)) = 7) AND (NOT a)) OR b)");
}

TEST(ParserTest, UnaryMinusAndParens) {
  auto expr = Parser::ParseExpression("-(1 + 2) * 3");
  ASSERT_TRUE(expr.ok());
  EXPECT_EQ((*expr)->ToString(), "((-(1 + 2)) * 3)");
}

TEST(ParserTest, InsertMultiRow) {
  auto stmt = Parser::ParseStatement(
      "INSERT INTO t (a, b) VALUES (1, 'x'), (2, NULL)");
  ASSERT_TRUE(stmt.ok());
  const auto& insert = static_cast<const InsertStmt&>(**stmt);
  EXPECT_EQ(insert.table, "t");
  EXPECT_EQ(insert.columns, (std::vector<std::string>{"a", "b"}));
  ASSERT_EQ(insert.rows.size(), 2u);
  EXPECT_TRUE(insert.rows[1][1]->literal.is_null());
}

TEST(ParserTest, UpdateAndDelete) {
  auto update = Parser::ParseStatement("UPDATE t SET a = a + 1, b = 2 WHERE c = 3");
  ASSERT_TRUE(update.ok());
  const auto& u = static_cast<const UpdateStmt&>(**update);
  EXPECT_EQ(u.assignments.size(), 2u);
  ASSERT_NE(u.where, nullptr);

  auto del = Parser::ParseStatement("DELETE FROM t");
  ASSERT_TRUE(del.ok());
  EXPECT_EQ(static_cast<const DeleteStmt&>(**del).where, nullptr);
}

TEST(ParserTest, CreateTableWithKeyAndTypes) {
  auto stmt = Parser::ParseStatement(
      "CREATE TABLE t (a INT, b VARCHAR(32), c FLOAT, PRIMARY KEY(a, b))");
  ASSERT_TRUE(stmt.ok());
  const auto& create = static_cast<const CreateTableStmt&>(**stmt);
  ASSERT_EQ(create.columns.size(), 3u);
  EXPECT_EQ(create.columns[1].type_name, "VARCHAR");
  EXPECT_EQ(create.primary_key, (std::vector<std::string>{"a", "b"}));
}

TEST(ParserTest, CreateIndexAndDrop) {
  auto idx = Parser::ParseStatement("CREATE INDEX i ON t (a, b)");
  ASSERT_TRUE(idx.ok());
  const auto& create = static_cast<const CreateIndexStmt&>(**idx);
  EXPECT_EQ(create.index, "i");
  EXPECT_EQ(create.columns.size(), 2u);

  auto drop = Parser::ParseStatement("DROP TABLE t");
  ASSERT_TRUE(drop.ok());
  EXPECT_EQ((*drop)->kind, StatementKind::kDropTable);
}

TEST(ParserTest, TransactionControl) {
  EXPECT_EQ((*Parser::ParseStatement("BEGIN TRANSACTION"))->kind,
            StatementKind::kBegin);
  EXPECT_EQ((*Parser::ParseStatement("begin transaction;"))->kind,
            StatementKind::kBegin);
  EXPECT_EQ((*Parser::ParseStatement("BEGIN"))->kind, StatementKind::kBegin);
  EXPECT_EQ((*Parser::ParseStatement("COMMIT TRANSACTION"))->kind,
            StatementKind::kCommit);
  EXPECT_EQ((*Parser::ParseStatement("commit"))->kind, StatementKind::kCommit);
  EXPECT_EQ((*Parser::ParseStatement("ROLLBACK TRANSACTION"))->kind,
            StatementKind::kRollback);
  EXPECT_EQ((*Parser::ParseStatement("ROLLBACK;"))->kind,
            StatementKind::kRollback);
  auto script = Parser::ParseScript(
      "BEGIN TRANSACTION; SELECT a FROM t; COMMIT TRANSACTION;");
  ASSERT_TRUE(script.ok()) << script.status();
  ASSERT_EQ(script->size(), 3u);
  EXPECT_EQ((*script)[0]->kind, StatementKind::kBegin);
  EXPECT_EQ((*script)[2]->kind, StatementKind::kCommit);
}

TEST(ParserTest, TransactionQualifiesAColumnInExpressions) {
  // Rule conditions reference the monitored class `Transaction`.
  auto expr = Parser::ParseExpression("Transaction.User = ''");
  ASSERT_TRUE(expr.ok()) << expr.status();
  EXPECT_EQ((*expr)->ToString(), "(Transaction.User = '')");
}

TEST(ParserTest, ExecWithArgs) {
  auto stmt = Parser::ParseStatement("EXEC myproc 1, 'x', @p");
  ASSERT_TRUE(stmt.ok());
  const auto& exec = static_cast<const ExecProcedureStmt&>(**stmt);
  EXPECT_EQ(exec.procedure, "myproc");
  EXPECT_EQ(exec.args.size(), 3u);
}

TEST(ParserTest, ScriptSplitsOnSemicolons) {
  auto script = Parser::ParseScript("SELECT a FROM t; SELECT b FROM u;");
  ASSERT_TRUE(script.ok());
  EXPECT_EQ(script->size(), 2u);
}

TEST(ParserTest, FunctionCallNormalized) {
  auto expr = Parser::ParseExpression("count(*)");
  ASSERT_TRUE(expr.ok());
  EXPECT_EQ((*expr)->func_name, "COUNT");
  EXPECT_TRUE((*expr)->star_arg);
}

TEST(ParserTest, ExprClone) {
  auto expr = Parser::ParseExpression("a + 2 * f(x)");
  ASSERT_TRUE(expr.ok());
  auto clone = (*expr)->Clone();
  EXPECT_EQ(clone->ToString(), (*expr)->ToString());
}

struct BadSqlCase {
  const char* sql;
};

class ParserErrorTest : public ::testing::TestWithParam<BadSqlCase> {};

TEST_P(ParserErrorTest, RejectsWithParseError) {
  auto stmt = Parser::ParseStatement(GetParam().sql);
  ASSERT_FALSE(stmt.ok()) << GetParam().sql;
  EXPECT_TRUE(stmt.status().IsParseError()) << stmt.status();
}

INSTANTIATE_TEST_SUITE_P(
    BadStatements, ParserErrorTest,
    ::testing::Values(BadSqlCase{"SELECT"}, BadSqlCase{"SELECT FROM t"},
                      BadSqlCase{"SELECT a FROM"},
                      BadSqlCase{"SELECT a FROM t WHERE"},
                      BadSqlCase{"INSERT INTO t VALUES"},
                      BadSqlCase{"UPDATE t SET"},
                      BadSqlCase{"CREATE TABLE t ()"},
                      BadSqlCase{"SELECT a FROM t extra garbage ,"},
                      BadSqlCase{"SELECT a FROM t LIMIT x"},
                      BadSqlCase{"DELETE t"}));

}  // namespace
}  // namespace sqlcm::sql
