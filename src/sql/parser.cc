#include "sql/parser.h"

#include <array>

#include "common/string_util.h"
#include "sql/lexer.h"

namespace sqlcm::sql {

using common::EqualsIgnoreCase;
using common::Result;
using common::Status;

namespace {

// TRANSACTION is not reserved: it only ever follows BEGIN, COMMIT or
// ROLLBACK (matched there by name), and rule conditions name the
// monitored class `Transaction` in `Transaction.<attribute>` references.
constexpr std::array<std::string_view, 37> kKeywords = {
    "SELECT", "FROM",   "WHERE",  "GROUP",   "BY",     "ORDER",  "ASC",
    "DESC",   "LIMIT",  "JOIN",   "INNER",   "ON",     "AS",     "INSERT",
    "INTO",   "VALUES", "UPDATE", "SET",     "DELETE", "CREATE", "TABLE",
    "INDEX",  "DROP",   "PRIMARY", "KEY",    "BEGIN",  "COMMIT", "ROLLBACK",
    "EXEC",   "EXECUTE", "AND",   "OR",      "NOT",    "BETWEEN", "IN",
    "LIKE",   "DISTINCT",
};

}  // namespace

bool Parser::IsKeyword(std::string_view ident) {
  for (std::string_view kw : kKeywords) {
    if (EqualsIgnoreCase(ident, kw)) return true;
  }
  // Literal keywords usable in expression position.
  return EqualsIgnoreCase(ident, "NULL") || EqualsIgnoreCase(ident, "TRUE") ||
         EqualsIgnoreCase(ident, "FALSE");
}

bool Parser::Match(TokenKind kind) {
  if (!Check(kind)) return false;
  ++pos_;
  return true;
}

bool Parser::CheckKeyword(std::string_view kw) const {
  return Peek().kind == TokenKind::kIdentifier &&
         EqualsIgnoreCase(Peek().text, kw);
}

bool Parser::MatchKeyword(std::string_view kw) {
  if (!CheckKeyword(kw)) return false;
  ++pos_;
  return true;
}

Status Parser::ExpectKeyword(std::string_view kw) {
  if (MatchKeyword(kw)) return Status::OK();
  return Status::ParseError("expected '" + std::string(kw) + "' at offset " +
                            std::to_string(Peek().offset) + ", found '" +
                            Peek().text + "'");
}

Status Parser::Expect(TokenKind kind, const char* what) {
  if (Match(kind)) return Status::OK();
  return Status::ParseError(std::string("expected ") + what + " at offset " +
                            std::to_string(Peek().offset) + ", found " +
                            TokenKindName(Peek().kind));
}

Status Parser::ErrorHere(const std::string& expected) const {
  return Status::ParseError("expected " + expected + " at offset " +
                            std::to_string(Peek().offset) + ", found " +
                            TokenKindName(Peek().kind) +
                            (Peek().text.empty() ? "" : " '" + Peek().text + "'"));
}

Result<std::unique_ptr<Statement>> Parser::ParseStatement(
    std::string_view text) {
  SQLCM_ASSIGN_OR_RETURN(auto tokens, Lexer(text).Tokenize());
  Parser parser(std::move(tokens));
  SQLCM_ASSIGN_OR_RETURN(auto stmt, parser.ParseOneStatement());
  parser.Match(TokenKind::kSemicolon);
  if (!parser.Check(TokenKind::kEof)) {
    return parser.ErrorHere("end of statement");
  }
  return stmt;
}

Result<std::vector<std::unique_ptr<Statement>>> Parser::ParseScript(
    std::string_view text) {
  SQLCM_ASSIGN_OR_RETURN(auto tokens, Lexer(text).Tokenize());
  Parser parser(std::move(tokens));
  std::vector<std::unique_ptr<Statement>> out;
  while (!parser.Check(TokenKind::kEof)) {
    SQLCM_ASSIGN_OR_RETURN(auto stmt, parser.ParseOneStatement());
    out.push_back(std::move(stmt));
    if (!parser.Match(TokenKind::kSemicolon)) break;
  }
  if (!parser.Check(TokenKind::kEof)) {
    return parser.ErrorHere("';' or end of script");
  }
  return out;
}

Result<std::unique_ptr<Expr>> Parser::ParseExpression(std::string_view text) {
  SQLCM_ASSIGN_OR_RETURN(auto tokens, Lexer(text).Tokenize());
  Parser parser(std::move(tokens));
  SQLCM_ASSIGN_OR_RETURN(auto expr, parser.ParseExpr());
  if (!parser.Check(TokenKind::kEof)) {
    return parser.ErrorHere("end of expression");
  }
  return expr;
}

Result<std::unique_ptr<Statement>> Parser::ParseOneStatement() {
  if (CheckKeyword("SELECT")) return ParseSelect();
  if (CheckKeyword("INSERT")) return ParseInsert();
  if (CheckKeyword("UPDATE")) return ParseUpdate();
  if (CheckKeyword("DELETE")) return ParseDelete();
  if (CheckKeyword("CREATE")) return ParseCreate();
  if (CheckKeyword("DROP")) return ParseDrop();
  if (MatchKeyword("BEGIN")) {
    MatchKeyword("TRANSACTION");
    return std::unique_ptr<Statement>(std::make_unique<BeginStmt>());
  }
  if (MatchKeyword("COMMIT")) {
    MatchKeyword("TRANSACTION");
    return std::unique_ptr<Statement>(std::make_unique<CommitStmt>());
  }
  if (MatchKeyword("ROLLBACK")) {
    MatchKeyword("TRANSACTION");
    return std::unique_ptr<Statement>(std::make_unique<RollbackStmt>());
  }
  if (CheckKeyword("EXEC") || CheckKeyword("EXECUTE")) return ParseExec();
  return ErrorHere("a statement");
}

Result<std::string> Parser::ParseIdent(const char* what) {
  if (Peek().kind != TokenKind::kIdentifier || IsKeyword(Peek().text)) {
    return ErrorHere(what);
  }
  return Advance().text;
}

Result<TableRef> Parser::ParseTableRef() {
  TableRef ref;
  SQLCM_ASSIGN_OR_RETURN(ref.table, ParseIdent("table name"));
  if (MatchKeyword("AS")) {
    SQLCM_ASSIGN_OR_RETURN(ref.alias, ParseIdent("table alias"));
  } else if (Peek().kind == TokenKind::kIdentifier && !IsKeyword(Peek().text)) {
    ref.alias = Advance().text;
  }
  if (ref.alias.empty()) ref.alias = ref.table;
  return ref;
}

Result<std::unique_ptr<Statement>> Parser::ParseSelect() {
  SQLCM_RETURN_IF_ERROR(ExpectKeyword("SELECT"));
  auto stmt = std::make_unique<SelectStmt>();
  stmt->distinct = MatchKeyword("DISTINCT");

  do {
    SelectItem item;
    if (Match(TokenKind::kStar)) {
      item.star = true;
    } else {
      SQLCM_ASSIGN_OR_RETURN(item.expr, ParseExpr());
      if (MatchKeyword("AS")) {
        SQLCM_ASSIGN_OR_RETURN(item.alias, ParseIdent("column alias"));
      } else if (Peek().kind == TokenKind::kIdentifier &&
                 !IsKeyword(Peek().text)) {
        item.alias = Advance().text;
      }
    }
    stmt->items.push_back(std::move(item));
  } while (Match(TokenKind::kComma));

  SQLCM_RETURN_IF_ERROR(ExpectKeyword("FROM"));
  SQLCM_ASSIGN_OR_RETURN(stmt->from, ParseTableRef());

  while (CheckKeyword("JOIN") || CheckKeyword("INNER")) {
    MatchKeyword("INNER");
    SQLCM_RETURN_IF_ERROR(ExpectKeyword("JOIN"));
    JoinClause join;
    SQLCM_ASSIGN_OR_RETURN(join.table, ParseTableRef());
    SQLCM_RETURN_IF_ERROR(ExpectKeyword("ON"));
    SQLCM_ASSIGN_OR_RETURN(join.on, ParseExpr());
    stmt->joins.push_back(std::move(join));
  }

  if (MatchKeyword("WHERE")) {
    SQLCM_ASSIGN_OR_RETURN(stmt->where, ParseExpr());
  }
  if (MatchKeyword("GROUP")) {
    SQLCM_RETURN_IF_ERROR(ExpectKeyword("BY"));
    do {
      SQLCM_ASSIGN_OR_RETURN(auto e, ParseExpr());
      stmt->group_by.push_back(std::move(e));
    } while (Match(TokenKind::kComma));
  }
  if (MatchKeyword("ORDER")) {
    SQLCM_RETURN_IF_ERROR(ExpectKeyword("BY"));
    do {
      OrderItem item;
      SQLCM_ASSIGN_OR_RETURN(item.expr, ParseExpr());
      if (MatchKeyword("DESC")) {
        item.descending = true;
      } else {
        MatchKeyword("ASC");
      }
      stmt->order_by.push_back(std::move(item));
    } while (Match(TokenKind::kComma));
  }
  if (MatchKeyword("LIMIT")) {
    if (Peek().kind != TokenKind::kInteger) return ErrorHere("integer limit");
    stmt->limit = Advance().int_value;
  }
  return std::unique_ptr<Statement>(std::move(stmt));
}

Result<std::unique_ptr<Statement>> Parser::ParseInsert() {
  SQLCM_RETURN_IF_ERROR(ExpectKeyword("INSERT"));
  SQLCM_RETURN_IF_ERROR(ExpectKeyword("INTO"));
  auto stmt = std::make_unique<InsertStmt>();
  SQLCM_ASSIGN_OR_RETURN(stmt->table, ParseIdent("table name"));

  if (Match(TokenKind::kLParen)) {
    do {
      SQLCM_ASSIGN_OR_RETURN(auto col, ParseIdent("column name"));
      stmt->columns.push_back(std::move(col));
    } while (Match(TokenKind::kComma));
    SQLCM_RETURN_IF_ERROR(Expect(TokenKind::kRParen, "')'"));
  }

  SQLCM_RETURN_IF_ERROR(ExpectKeyword("VALUES"));
  do {
    SQLCM_RETURN_IF_ERROR(Expect(TokenKind::kLParen, "'('"));
    std::vector<std::unique_ptr<Expr>> row;
    do {
      SQLCM_ASSIGN_OR_RETURN(auto e, ParseExpr());
      row.push_back(std::move(e));
    } while (Match(TokenKind::kComma));
    SQLCM_RETURN_IF_ERROR(Expect(TokenKind::kRParen, "')'"));
    stmt->rows.push_back(std::move(row));
  } while (Match(TokenKind::kComma));
  return std::unique_ptr<Statement>(std::move(stmt));
}

Result<std::unique_ptr<Statement>> Parser::ParseUpdate() {
  SQLCM_RETURN_IF_ERROR(ExpectKeyword("UPDATE"));
  auto stmt = std::make_unique<UpdateStmt>();
  SQLCM_ASSIGN_OR_RETURN(stmt->table, ParseIdent("table name"));
  SQLCM_RETURN_IF_ERROR(ExpectKeyword("SET"));
  do {
    UpdateStmt::Assignment assign;
    SQLCM_ASSIGN_OR_RETURN(assign.column, ParseIdent("column name"));
    SQLCM_RETURN_IF_ERROR(Expect(TokenKind::kEq, "'='"));
    SQLCM_ASSIGN_OR_RETURN(assign.value, ParseExpr());
    stmt->assignments.push_back(std::move(assign));
  } while (Match(TokenKind::kComma));
  if (MatchKeyword("WHERE")) {
    SQLCM_ASSIGN_OR_RETURN(stmt->where, ParseExpr());
  }
  return std::unique_ptr<Statement>(std::move(stmt));
}

Result<std::unique_ptr<Statement>> Parser::ParseDelete() {
  SQLCM_RETURN_IF_ERROR(ExpectKeyword("DELETE"));
  SQLCM_RETURN_IF_ERROR(ExpectKeyword("FROM"));
  auto stmt = std::make_unique<DeleteStmt>();
  SQLCM_ASSIGN_OR_RETURN(stmt->table, ParseIdent("table name"));
  if (MatchKeyword("WHERE")) {
    SQLCM_ASSIGN_OR_RETURN(stmt->where, ParseExpr());
  }
  return std::unique_ptr<Statement>(std::move(stmt));
}

Result<std::unique_ptr<Statement>> Parser::ParseCreate() {
  SQLCM_RETURN_IF_ERROR(ExpectKeyword("CREATE"));
  if (MatchKeyword("TABLE")) {
    auto stmt = std::make_unique<CreateTableStmt>();
    SQLCM_ASSIGN_OR_RETURN(stmt->table, ParseIdent("table name"));
    SQLCM_RETURN_IF_ERROR(Expect(TokenKind::kLParen, "'('"));
    do {
      if (CheckKeyword("PRIMARY")) {
        Advance();
        SQLCM_RETURN_IF_ERROR(ExpectKeyword("KEY"));
        SQLCM_RETURN_IF_ERROR(Expect(TokenKind::kLParen, "'('"));
        do {
          SQLCM_ASSIGN_OR_RETURN(auto col, ParseIdent("key column"));
          stmt->primary_key.push_back(std::move(col));
        } while (Match(TokenKind::kComma));
        SQLCM_RETURN_IF_ERROR(Expect(TokenKind::kRParen, "')'"));
      } else {
        ColumnDef def;
        SQLCM_ASSIGN_OR_RETURN(def.name, ParseIdent("column name"));
        if (Peek().kind != TokenKind::kIdentifier) {
          return ErrorHere("column type");
        }
        def.type_name = common::ToUpper(Advance().text);
        // Accept and ignore a length spec: VARCHAR(32).
        if (Match(TokenKind::kLParen)) {
          if (Peek().kind != TokenKind::kInteger) {
            return ErrorHere("type length");
          }
          Advance();
          SQLCM_RETURN_IF_ERROR(Expect(TokenKind::kRParen, "')'"));
        }
        stmt->columns.push_back(std::move(def));
      }
    } while (Match(TokenKind::kComma));
    SQLCM_RETURN_IF_ERROR(Expect(TokenKind::kRParen, "')'"));
    return std::unique_ptr<Statement>(std::move(stmt));
  }
  if (MatchKeyword("INDEX")) {
    auto stmt = std::make_unique<CreateIndexStmt>();
    SQLCM_ASSIGN_OR_RETURN(stmt->index, ParseIdent("index name"));
    SQLCM_RETURN_IF_ERROR(ExpectKeyword("ON"));
    SQLCM_ASSIGN_OR_RETURN(stmt->table, ParseIdent("table name"));
    SQLCM_RETURN_IF_ERROR(Expect(TokenKind::kLParen, "'('"));
    do {
      SQLCM_ASSIGN_OR_RETURN(auto col, ParseIdent("index column"));
      stmt->columns.push_back(std::move(col));
    } while (Match(TokenKind::kComma));
    SQLCM_RETURN_IF_ERROR(Expect(TokenKind::kRParen, "')'"));
    return std::unique_ptr<Statement>(std::move(stmt));
  }
  return ErrorHere("'TABLE' or 'INDEX'");
}

Result<std::unique_ptr<Statement>> Parser::ParseDrop() {
  SQLCM_RETURN_IF_ERROR(ExpectKeyword("DROP"));
  SQLCM_RETURN_IF_ERROR(ExpectKeyword("TABLE"));
  auto stmt = std::make_unique<DropTableStmt>();
  SQLCM_ASSIGN_OR_RETURN(stmt->table, ParseIdent("table name"));
  return std::unique_ptr<Statement>(std::move(stmt));
}

Result<std::unique_ptr<Statement>> Parser::ParseExec() {
  Advance();  // EXEC / EXECUTE
  auto stmt = std::make_unique<ExecProcedureStmt>();
  SQLCM_ASSIGN_OR_RETURN(stmt->procedure, ParseIdent("procedure name"));
  if (!Check(TokenKind::kEof) && !Check(TokenKind::kSemicolon)) {
    do {
      SQLCM_ASSIGN_OR_RETURN(auto e, ParseExpr());
      stmt->args.push_back(std::move(e));
    } while (Match(TokenKind::kComma));
  }
  return std::unique_ptr<Statement>(std::move(stmt));
}

// --------------------------- expressions ----------------------------------

Result<std::unique_ptr<Expr>> Parser::ParseExpr() { return ParseOr(); }

Result<std::unique_ptr<Expr>> Parser::ParseOr() {
  SQLCM_ASSIGN_OR_RETURN(auto lhs, ParseAnd());
  while (MatchKeyword("OR")) {
    SQLCM_ASSIGN_OR_RETURN(auto rhs, ParseAnd());
    lhs = Expr::Binary(BinaryOp::kOr, std::move(lhs), std::move(rhs));
  }
  return lhs;
}

Result<std::unique_ptr<Expr>> Parser::ParseAnd() {
  SQLCM_ASSIGN_OR_RETURN(auto lhs, ParseNot());
  while (MatchKeyword("AND")) {
    SQLCM_ASSIGN_OR_RETURN(auto rhs, ParseNot());
    lhs = Expr::Binary(BinaryOp::kAnd, std::move(lhs), std::move(rhs));
  }
  return lhs;
}

Result<std::unique_ptr<Expr>> Parser::ParseNot() {
  if (MatchKeyword("NOT")) {
    SQLCM_ASSIGN_OR_RETURN(auto operand, ParseNot());
    return Expr::Unary(UnaryOp::kNot, std::move(operand));
  }
  return ParseCmp();
}

Result<std::unique_ptr<Expr>> Parser::ParseCmp() {
  SQLCM_ASSIGN_OR_RETURN(auto lhs, ParseAdd());

  // Postfix predicate forms: [NOT] BETWEEN / IN / LIKE. BETWEEN and IN are
  // desugared at parse time; LIKE becomes a dedicated operator.
  const bool negated = CheckKeyword("NOT");
  if (negated) {
    // Look ahead: NOT must be followed by BETWEEN/IN/LIKE to bind here
    // (otherwise it belongs to ParseNot and we must not consume it).
    const Token& next = tokens_[pos_ + 1];
    const bool postfix =
        next.kind == TokenKind::kIdentifier &&
        (EqualsIgnoreCase(next.text, "BETWEEN") ||
         EqualsIgnoreCase(next.text, "IN") ||
         EqualsIgnoreCase(next.text, "LIKE"));
    if (!postfix) return lhs;
    Advance();  // NOT
  }
  auto negate = [&](std::unique_ptr<Expr> e) {
    return negated ? Expr::Unary(UnaryOp::kNot, std::move(e)) : std::move(e);
  };
  if (MatchKeyword("BETWEEN")) {
    SQLCM_ASSIGN_OR_RETURN(auto lo, ParseAdd());
    SQLCM_RETURN_IF_ERROR(ExpectKeyword("AND"));
    SQLCM_ASSIGN_OR_RETURN(auto hi, ParseAdd());
    auto ge = Expr::Binary(BinaryOp::kGe, lhs->Clone(), std::move(lo));
    auto le = Expr::Binary(BinaryOp::kLe, std::move(lhs), std::move(hi));
    return negate(Expr::Binary(BinaryOp::kAnd, std::move(ge), std::move(le)));
  }
  if (MatchKeyword("IN")) {
    SQLCM_RETURN_IF_ERROR(Expect(TokenKind::kLParen, "'('"));
    std::unique_ptr<Expr> chain;
    do {
      SQLCM_ASSIGN_OR_RETURN(auto item, ParseExpr());
      auto eq = Expr::Binary(BinaryOp::kEq, lhs->Clone(), std::move(item));
      chain = chain == nullptr
                  ? std::move(eq)
                  : Expr::Binary(BinaryOp::kOr, std::move(chain),
                                 std::move(eq));
    } while (Match(TokenKind::kComma));
    SQLCM_RETURN_IF_ERROR(Expect(TokenKind::kRParen, "')'"));
    return negate(std::move(chain));
  }
  if (MatchKeyword("LIKE")) {
    SQLCM_ASSIGN_OR_RETURN(auto pattern, ParseAdd());
    return negate(
        Expr::Binary(BinaryOp::kLike, std::move(lhs), std::move(pattern)));
  }
  if (negated) {
    return ErrorHere("BETWEEN, IN or LIKE after NOT");
  }

  BinaryOp op;
  switch (Peek().kind) {
    case TokenKind::kEq: op = BinaryOp::kEq; break;
    case TokenKind::kNe: op = BinaryOp::kNe; break;
    case TokenKind::kLt: op = BinaryOp::kLt; break;
    case TokenKind::kLe: op = BinaryOp::kLe; break;
    case TokenKind::kGt: op = BinaryOp::kGt; break;
    case TokenKind::kGe: op = BinaryOp::kGe; break;
    default:
      return lhs;
  }
  Advance();
  SQLCM_ASSIGN_OR_RETURN(auto rhs, ParseAdd());
  return Expr::Binary(op, std::move(lhs), std::move(rhs));
}

Result<std::unique_ptr<Expr>> Parser::ParseAdd() {
  SQLCM_ASSIGN_OR_RETURN(auto lhs, ParseMul());
  for (;;) {
    BinaryOp op;
    if (Check(TokenKind::kPlus)) op = BinaryOp::kAdd;
    else if (Check(TokenKind::kMinus)) op = BinaryOp::kSub;
    else return lhs;
    Advance();
    SQLCM_ASSIGN_OR_RETURN(auto rhs, ParseMul());
    lhs = Expr::Binary(op, std::move(lhs), std::move(rhs));
  }
}

Result<std::unique_ptr<Expr>> Parser::ParseMul() {
  SQLCM_ASSIGN_OR_RETURN(auto lhs, ParseUnary());
  for (;;) {
    BinaryOp op;
    if (Check(TokenKind::kStar)) op = BinaryOp::kMul;
    else if (Check(TokenKind::kSlash)) op = BinaryOp::kDiv;
    else if (Check(TokenKind::kPercent)) op = BinaryOp::kMod;
    else return lhs;
    Advance();
    SQLCM_ASSIGN_OR_RETURN(auto rhs, ParseUnary());
    lhs = Expr::Binary(op, std::move(lhs), std::move(rhs));
  }
}

Result<std::unique_ptr<Expr>> Parser::ParseUnary() {
  if (Match(TokenKind::kMinus)) {
    SQLCM_ASSIGN_OR_RETURN(auto operand, ParseUnary());
    return Expr::Unary(UnaryOp::kNeg, std::move(operand));
  }
  return ParsePrimary();
}

Result<std::unique_ptr<Expr>> Parser::ParsePrimary() {
  const Token& tok = Peek();
  switch (tok.kind) {
    case TokenKind::kInteger: {
      auto e = Expr::Literal(common::Value::Int(tok.int_value));
      Advance();
      return e;
    }
    case TokenKind::kFloat: {
      auto e = Expr::Literal(common::Value::Double(tok.double_value));
      Advance();
      return e;
    }
    case TokenKind::kString: {
      auto e = Expr::Literal(common::Value::String(tok.text));
      Advance();
      return e;
    }
    case TokenKind::kParam: {
      auto e = Expr::Param(tok.text);
      Advance();
      return e;
    }
    case TokenKind::kLParen: {
      Advance();
      SQLCM_ASSIGN_OR_RETURN(auto inner, ParseExpr());
      SQLCM_RETURN_IF_ERROR(Expect(TokenKind::kRParen, "')'"));
      return inner;
    }
    case TokenKind::kIdentifier: {
      if (EqualsIgnoreCase(tok.text, "NULL")) {
        Advance();
        return Expr::Literal(common::Value::Null());
      }
      if (EqualsIgnoreCase(tok.text, "TRUE")) {
        Advance();
        return Expr::Literal(common::Value::Bool(true));
      }
      if (EqualsIgnoreCase(tok.text, "FALSE")) {
        Advance();
        return Expr::Literal(common::Value::Bool(false));
      }
      if (IsKeyword(tok.text)) return ErrorHere("an expression");
      std::string first = Advance().text;
      // Function call?
      if (Match(TokenKind::kLParen)) {
        std::vector<std::unique_ptr<Expr>> args;
        bool star_arg = false;
        if (Match(TokenKind::kStar)) {
          star_arg = true;
        } else if (!Check(TokenKind::kRParen)) {
          do {
            SQLCM_ASSIGN_OR_RETURN(auto arg, ParseExpr());
            args.push_back(std::move(arg));
          } while (Match(TokenKind::kComma));
        }
        SQLCM_RETURN_IF_ERROR(Expect(TokenKind::kRParen, "')'"));
        return Expr::FuncCall(common::ToUpper(first), std::move(args),
                              star_arg);
      }
      // Qualified column?
      if (Match(TokenKind::kDot)) {
        SQLCM_ASSIGN_OR_RETURN(auto col, ParseIdent("column name"));
        return Expr::ColumnRef(std::move(first), std::move(col));
      }
      return Expr::ColumnRef("", std::move(first));
    }
    default:
      return ErrorHere("an expression");
  }
}

}  // namespace sqlcm::sql
