#include "sqlcm/rule.h"

#include <algorithm>

#include "common/string_util.h"
#include "exec/expression.h"
#include "sql/ast.h"
#include "sql/lexer.h"
#include "sql/parser.h"
#include "sqlcm/predicate_index.h"

namespace sqlcm::cm {

using common::EqualsIgnoreCase;
using common::Result;
using common::Status;
using common::ToLower;
using common::Value;

const char* EventKindName(EventKind kind) {
  switch (kind) {
    case EventKind::kQueryStart: return "Query.Start";
    case EventKind::kQueryCommit: return "Query.Commit";
    case EventKind::kQueryCancel: return "Query.Cancel";
    case EventKind::kQueryRollback: return "Query.Rollback";
    case EventKind::kQueryBlocked: return "Query.Blocked";
    case EventKind::kQueryBlockReleased: return "Query.Block_Released";
    case EventKind::kTransactionBegin: return "Transaction.Begin";
    case EventKind::kTransactionCommit: return "Transaction.Commit";
    case EventKind::kTransactionRollback: return "Transaction.Rollback";
    case EventKind::kTimerAlarm: return "Timer.Alarm";
    case EventKind::kLatEvict: return "Lat.Evict";
  }
  return "?";
}

const char* ActionKindName(ActionKind kind) {
  switch (kind) {
    case ActionKind::kInsert: return "Insert";
    case ActionKind::kReset: return "Reset";
    case ActionKind::kPersist: return "Persist";
    case ActionKind::kSendMail: return "SendMail";
    case ActionKind::kRunExternal: return "RunExternal";
    case ActionKind::kCancel: return "Cancel";
    case ActionKind::kSetTimer: return "Set";
  }
  return "?";
}

bool EventKindDeferrable(EventKind kind) {
  switch (kind) {
    case EventKind::kQueryCommit:
    case EventKind::kQueryCancel:
    case EventKind::kQueryRollback:
    case EventKind::kTransactionCommit:
    case EventKind::kTransactionRollback:
      // Terminal events: the bound record is finalized before the event
      // fires, so a worker thread sees an immutable snapshot.
      return true;
    case EventKind::kQueryStart:
    case EventKind::kQueryBlocked:
    case EventKind::kQueryBlockReleased:
    case EventKind::kTransactionBegin:
    case EventKind::kTimerAlarm:
    case EventKind::kLatEvict:
      return false;
  }
  return false;
}

std::vector<MonitoredClass> EventBoundClasses(EventKind kind) {
  switch (kind) {
    case EventKind::kQueryStart:
    case EventKind::kQueryCommit:
    case EventKind::kQueryCancel:
    case EventKind::kQueryRollback:
      return {MonitoredClass::kQuery};
    case EventKind::kQueryBlocked:
    case EventKind::kQueryBlockReleased:
      return {MonitoredClass::kBlocker, MonitoredClass::kBlocked};
    case EventKind::kTransactionBegin:
    case EventKind::kTransactionCommit:
    case EventKind::kTransactionRollback:
      return {MonitoredClass::kTransaction};
    case EventKind::kTimerAlarm:
      return {MonitoredClass::kTimer};
    case EventKind::kLatEvict:
      return {MonitoredClass::kEvicted};
  }
  return {};
}

// ---------------------------------------------------------------------------
// Event parsing
// ---------------------------------------------------------------------------

Result<EventKey> RuleCompiler::ParseEvent(std::string_view text,
                                          const LatResolver& resolver) {
  const std::string_view trimmed = common::Trim(text);
  const size_t dot = trimmed.find('.');
  if (dot == std::string_view::npos) {
    return Status::ParseError("event must have the form Class.Event: '" +
                              std::string(trimmed) + "'");
  }
  const std::string_view first = trimmed.substr(0, dot);
  const std::string_view second = trimmed.substr(dot + 1);

  EventKey key;
  if (EqualsIgnoreCase(first, "Query")) {
    if (EqualsIgnoreCase(second, "Start")) key.kind = EventKind::kQueryStart;
    else if (EqualsIgnoreCase(second, "Commit")) key.kind = EventKind::kQueryCommit;
    else if (EqualsIgnoreCase(second, "Cancel")) key.kind = EventKind::kQueryCancel;
    else if (EqualsIgnoreCase(second, "Rollback")) key.kind = EventKind::kQueryRollback;
    else if (EqualsIgnoreCase(second, "Blocked")) key.kind = EventKind::kQueryBlocked;
    else if (EqualsIgnoreCase(second, "Block_Released")) key.kind = EventKind::kQueryBlockReleased;
    else return Status::ParseError("unknown Query event '" + std::string(second) + "'");
    return key;
  }
  if (EqualsIgnoreCase(first, "Transaction")) {
    if (EqualsIgnoreCase(second, "Begin")) key.kind = EventKind::kTransactionBegin;
    else if (EqualsIgnoreCase(second, "Commit")) key.kind = EventKind::kTransactionCommit;
    else if (EqualsIgnoreCase(second, "Rollback")) key.kind = EventKind::kTransactionRollback;
    else return Status::ParseError("unknown Transaction event '" + std::string(second) + "'");
    return key;
  }
  const bool is_alarm_name =
      EqualsIgnoreCase(second, "Alarm") || EqualsIgnoreCase(second, "Alert");
  if (EqualsIgnoreCase(first, "Timer") && is_alarm_name) {
    key.kind = EventKind::kTimerAlarm;
    return key;  // any timer
  }
  if (is_alarm_name && resolver.IsTimerName(first)) {
    key.kind = EventKind::kTimerAlarm;
    key.qualifier = ToLower(first);
    return key;
  }
  if (EqualsIgnoreCase(second, "Evict")) {
    if (resolver.FindLat(first) == nullptr) {
      return Status::NotFound("LAT '" + std::string(first) +
                              "' in event '" + std::string(trimmed) +
                              "' does not exist");
    }
    key.kind = EventKind::kLatEvict;
    key.qualifier = ToLower(first);
    return key;
  }
  return Status::ParseError("unknown event '" + std::string(trimmed) + "'");
}

// ---------------------------------------------------------------------------
// Condition compilation
// ---------------------------------------------------------------------------

namespace {

Result<std::unique_ptr<CmExpr>> CompileExpr(const sql::Expr& e,
                                            const LatResolver& resolver,
                                            const EventKey& event) {
  auto out = std::make_unique<CmExpr>();
  switch (e.kind) {
    case sql::ExprKind::kLiteral:
      out->kind = CmExpr::Kind::kLiteral;
      out->literal = e.literal;
      return out;
    case sql::ExprKind::kColumnRef: {
      if (e.table.empty()) {
        return Status::ParseError(
            "unqualified reference '" + e.column +
            "' in rule condition; use Class.Attribute or Lat.Column");
      }
      auto cls = ParseMonitoredClassName(e.table);
      if (cls.ok()) {
        out->kind = CmExpr::Kind::kAttrRef;
        out->cls = *cls;
        if (*cls == MonitoredClass::kEvicted) {
          if (event.kind != EventKind::kLatEvict) {
            return Status::ParseError(
                "Evicted.* may only be referenced in <Lat>.Evict rules");
          }
          Lat* lat = resolver.FindLat(event.qualifier);
          const int col = lat->FindColumn(e.column);
          if (col < 0) {
            return Status::NotFound("LAT '" + lat->name() +
                                    "' has no column '" + e.column + "'");
          }
          out->attr_index = col;
          return out;
        }
        const int attr = ObjectSchema::Get().FindAttribute(*cls, e.column);
        if (attr < 0) {
          return Status::NotFound("class " + std::string(e.table) +
                                  " has no attribute '" + e.column + "'");
        }
        out->attr_index = attr;
        return out;
      }
      Lat* lat = resolver.FindLat(e.table);
      if (lat == nullptr) {
        return Status::NotFound("'" + e.table +
                                "' is neither a monitored class nor a LAT");
      }
      const int col = lat->FindColumn(e.column);
      if (col < 0) {
        return Status::NotFound("LAT '" + lat->name() + "' has no column '" +
                                e.column + "'");
      }
      out->kind = CmExpr::Kind::kLatColRef;
      out->lat = lat;
      out->lat_col = col;
      return out;
    }
    case sql::ExprKind::kParam:
      return Status::ParseError("parameters are not allowed in rule conditions");
    case sql::ExprKind::kUnary: {
      out->kind = CmExpr::Kind::kUnary;
      out->unary_op = static_cast<uint8_t>(e.unary_op);
      SQLCM_ASSIGN_OR_RETURN(out->left, CompileExpr(*e.left, resolver, event));
      return out;
    }
    case sql::ExprKind::kBinary: {
      out->kind = CmExpr::Kind::kBinary;
      out->binary_op = static_cast<uint8_t>(e.binary_op);
      SQLCM_ASSIGN_OR_RETURN(out->left, CompileExpr(*e.left, resolver, event));
      SQLCM_ASSIGN_OR_RETURN(out->right, CompileExpr(*e.right, resolver, event));
      return out;
    }
    case sql::ExprKind::kFuncCall:
      return Status::ParseError(
          "function calls are not allowed in rule conditions (use LAT "
          "aggregates instead)");
  }
  return Status::Internal("unhandled expression kind in rule condition");
}

}  // namespace

// ---------------------------------------------------------------------------
// Condition evaluation
// ---------------------------------------------------------------------------

Result<Value> CmExpr::Eval(EvalContext* ctx) const {
  switch (kind) {
    case Kind::kLiteral:
      return literal;
    case Kind::kAttrRef: {
      if (cls == MonitoredClass::kEvicted) {
        if (ctx->evicted_row == nullptr) {
          return Status::Internal("no evicted row in context");
        }
        return (*ctx->evicted_row)[static_cast<size_t>(attr_index)];
      }
      const void* record = ctx->Bound(cls);
      if (record == nullptr) {
        return Status::Internal(std::string("no object of class ") +
                                MonitoredClassName(cls) + " in rule context");
      }
      return ObjectSchema::Get().GetValue(cls, attr_index, record);
    }
    case Kind::kLatColRef: {
      // Resolve (with per-evaluation caching) the LAT row matching the
      // in-context object of the LAT's class.
      for (const auto& entry : ctx->lat_rows) {
        if (entry.lat == lat) {
          if (!entry.present) {
            ctx->lat_row_missing = true;
            return Value::Null();
          }
          return entry.row[static_cast<size_t>(lat_col)];
        }
      }
      EvalContext::LatRowEntry entry;
      entry.lat = lat;
      const void* record = ctx->Bound(lat->spec().object_class);
      entry.present =
          record != nullptr &&
          lat->LookupForObject(record, ctx->now_micros, &entry.row);
      ctx->lat_rows.push_back(entry);
      if (!entry.present) {
        ctx->lat_row_missing = true;
        return Value::Null();
      }
      return entry.row[static_cast<size_t>(lat_col)];
    }
    case Kind::kUnary: {
      SQLCM_ASSIGN_OR_RETURN(Value v, left->Eval(ctx));
      if (static_cast<sql::UnaryOp>(unary_op) == sql::UnaryOp::kNeg) {
        return common::ValueNeg(v);
      }
      if (v.is_null()) return Value::Null();
      if (!v.is_bool()) {
        return Status::TypeError("NOT applied to non-boolean " + v.ToString());
      }
      return Value::Bool(!v.bool_value());
    }
    case Kind::kBinary: {
      const auto op = static_cast<sql::BinaryOp>(binary_op);
      if (op == sql::BinaryOp::kAnd || op == sql::BinaryOp::kOr) {
        SQLCM_ASSIGN_OR_RETURN(Value l, left->Eval(ctx));
        const bool is_and = op == sql::BinaryOp::kAnd;
        if (l.is_bool()) {
          if (is_and && !l.bool_value()) return Value::Bool(false);
          if (!is_and && l.bool_value()) return Value::Bool(true);
        } else if (!l.is_null()) {
          return Status::TypeError("AND/OR on non-boolean " + l.ToString());
        }
        SQLCM_ASSIGN_OR_RETURN(Value r, right->Eval(ctx));
        if (r.is_bool()) {
          if (is_and && !r.bool_value()) return Value::Bool(false);
          if (!is_and && r.bool_value()) return Value::Bool(true);
        } else if (!r.is_null()) {
          return Status::TypeError("AND/OR on non-boolean " + r.ToString());
        }
        if (l.is_null() || r.is_null()) return Value::Null();
        return Value::Bool(is_and ? (l.bool_value() && r.bool_value())
                                  : (l.bool_value() || r.bool_value()));
      }
      SQLCM_ASSIGN_OR_RETURN(Value l, left->Eval(ctx));
      SQLCM_ASSIGN_OR_RETURN(Value r, right->Eval(ctx));
      switch (op) {
        case sql::BinaryOp::kAdd: return common::ValueAdd(l, r);
        case sql::BinaryOp::kSub: return common::ValueSub(l, r);
        case sql::BinaryOp::kMul: return common::ValueMul(l, r);
        case sql::BinaryOp::kDiv: return common::ValueDiv(l, r);
        case sql::BinaryOp::kMod: {
          if (l.is_null() || r.is_null()) return Value::Null();
          if (!l.is_int() || !r.is_int() || r.int_value() == 0) {
            return Status::TypeError("bad %% operands in rule condition");
          }
          return Value::Int(l.int_value() % r.int_value());
        }
        case sql::BinaryOp::kLike:
          return exec::EvalLike(l, r);
        default:
          return exec::EvalComparison(op, l, r);
      }
    }
  }
  return Status::Internal("unhandled rule expression kind");
}

Result<bool> CmExpr::EvalCondition(EvalContext* ctx) const {
  // Self-contained missing-row accounting: a stale flag left by a previous
  // rule sharing this context must never reject this one (the lat_rows
  // cache, by contrast, may be shared deliberately — cached absent rows
  // re-set the flag on hit).
  ctx->lat_row_missing = false;
  SQLCM_ASSIGN_OR_RETURN(Value v, Eval(ctx));
  if (ctx->lat_row_missing) return false;  // implicit ∃ over LAT rows
  if (v.is_null()) return false;
  if (!v.is_bool()) {
    return Status::TypeError("rule condition did not yield a boolean: " +
                             v.ToString());
  }
  return v.bool_value();
}

void CmExpr::CollectClasses(std::vector<MonitoredClass>* classes) const {
  if (kind == Kind::kAttrRef) classes->push_back(cls);
  if (kind == Kind::kLatColRef) classes->push_back(lat->spec().object_class);
  if (left != nullptr) left->CollectClasses(classes);
  if (right != nullptr) right->CollectClasses(classes);
}

void CmExpr::CollectLats(std::vector<const Lat*>* lats) const {
  if (kind == Kind::kLatColRef) lats->push_back(lat);
  if (left != nullptr) left->CollectLats(lats);
  if (right != nullptr) right->CollectLats(lats);
}

void CmExpr::CollectAttrRefs(
    std::vector<std::pair<MonitoredClass, int>>* refs) const {
  if (kind == Kind::kAttrRef && cls != MonitoredClass::kEvicted) {
    refs->emplace_back(cls, attr_index);
  }
  if (left != nullptr) left->CollectAttrRefs(refs);
  if (right != nullptr) right->CollectAttrRefs(refs);
}

// ---------------------------------------------------------------------------
// Action parsing
// ---------------------------------------------------------------------------

namespace {

struct RawArg {
  enum class Kind { kIdent, kString, kNumber };
  Kind kind;
  std::string text;
  double number = 0;
};

struct RawAction {
  std::string target;  // may be empty
  std::string name;
  std::vector<RawArg> args;
};

Result<std::vector<RawAction>> ParseRawActions(std::string_view text) {
  sql::Lexer lexer(text);
  SQLCM_ASSIGN_OR_RETURN(auto tokens, lexer.Tokenize());
  std::vector<RawAction> actions;
  size_t pos = 0;
  auto peek = [&]() -> const sql::Token& { return tokens[pos]; };
  while (peek().kind != sql::TokenKind::kEof) {
    RawAction action;
    if (peek().kind != sql::TokenKind::kIdentifier) {
      return Status::ParseError("expected action name at offset " +
                                std::to_string(peek().offset));
    }
    action.name = tokens[pos++].text;
    if (peek().kind == sql::TokenKind::kDot) {
      ++pos;
      if (peek().kind != sql::TokenKind::kIdentifier) {
        return Status::ParseError("expected action name after '.'");
      }
      action.target = std::move(action.name);
      action.name = tokens[pos++].text;
    }
    if (peek().kind != sql::TokenKind::kLParen) {
      return Status::ParseError("expected '(' after action name '" +
                                action.name + "'");
    }
    ++pos;
    if (peek().kind != sql::TokenKind::kRParen) {
      for (;;) {
        RawArg arg;
        bool negative = false;
        if (peek().kind == sql::TokenKind::kMinus) {
          negative = true;
          ++pos;
        }
        switch (peek().kind) {
          case sql::TokenKind::kIdentifier:
            arg.kind = RawArg::Kind::kIdent;
            arg.text = peek().text;
            break;
          case sql::TokenKind::kString:
            arg.kind = RawArg::Kind::kString;
            arg.text = peek().text;
            break;
          case sql::TokenKind::kInteger:
            arg.kind = RawArg::Kind::kNumber;
            arg.number = static_cast<double>(peek().int_value);
            break;
          case sql::TokenKind::kFloat:
            arg.kind = RawArg::Kind::kNumber;
            arg.number = peek().double_value;
            break;
          default:
            return Status::ParseError("bad action argument at offset " +
                                      std::to_string(peek().offset));
        }
        if (negative) {
          if (arg.kind != RawArg::Kind::kNumber) {
            return Status::ParseError("'-' before non-numeric action argument");
          }
          arg.number = -arg.number;
        }
        ++pos;
        action.args.push_back(std::move(arg));
        if (peek().kind == sql::TokenKind::kComma) {
          ++pos;
          continue;
        }
        break;
      }
    }
    if (peek().kind != sql::TokenKind::kRParen) {
      return Status::ParseError("expected ')' in action '" + action.name + "'");
    }
    ++pos;
    actions.push_back(std::move(action));
    if (peek().kind == sql::TokenKind::kSemicolon) {
      ++pos;
      continue;
    }
    break;
  }
  if (peek().kind != sql::TokenKind::kEof) {
    return Status::ParseError("trailing input after actions");
  }
  if (actions.empty()) {
    return Status::ParseError("rule has no actions");
  }
  return actions;
}

Result<CompiledAction> ResolveAction(const RawAction& raw,
                                     const LatResolver& resolver,
                                     const EventKey& event) {
  CompiledAction action;
  auto need_args = [&raw](size_t min, size_t max) -> Status {
    if (raw.args.size() < min || raw.args.size() > max) {
      return Status::InvalidArgument("action '" + raw.name +
                                     "' has wrong argument count");
    }
    return Status::OK();
  };

  if (EqualsIgnoreCase(raw.name, "Insert")) {
    action.kind = ActionKind::kInsert;
    SQLCM_RETURN_IF_ERROR(need_args(1, 1));
    Lat* lat = resolver.FindLat(raw.args[0].text);
    if (lat == nullptr) {
      return Status::NotFound("LAT '" + raw.args[0].text + "' not found");
    }
    action.lat = lat;
    action.source_class = lat->spec().object_class;
    if (!raw.target.empty()) {
      SQLCM_ASSIGN_OR_RETURN(auto cls, ParseMonitoredClassName(raw.target));
      if (cls != lat->spec().object_class) {
        return Status::TypeError("LAT '" + lat->name() + "' aggregates " +
                                 MonitoredClassName(lat->spec().object_class) +
                                 " objects, not " + raw.target);
      }
    }
    return action;
  }
  if (EqualsIgnoreCase(raw.name, "Reset")) {
    action.kind = ActionKind::kReset;
    SQLCM_RETURN_IF_ERROR(need_args(1, 1));
    Lat* lat = resolver.FindLat(raw.args[0].text);
    if (lat == nullptr) {
      return Status::NotFound("LAT '" + raw.args[0].text + "' not found");
    }
    action.lat = lat;
    return action;
  }
  if (EqualsIgnoreCase(raw.name, "Persist")) {
    action.kind = ActionKind::kPersist;
    SQLCM_RETURN_IF_ERROR(need_args(1, 64));
    action.table_name = raw.args[0].text;
    if (!raw.target.empty()) {
      Lat* lat = resolver.FindLat(raw.target);
      if (lat != nullptr) {
        action.lat = lat;
        action.lat_source = true;
        if (raw.args.size() != 1) {
          return Status::InvalidArgument(
              "Lat.Persist takes only the table name");
        }
        return action;
      }
      SQLCM_ASSIGN_OR_RETURN(auto cls, ParseMonitoredClassName(raw.target));
      action.source_class = cls;
      if (cls == MonitoredClass::kEvicted) {
        action.evicted_source = true;
        if (event.kind != EventKind::kLatEvict) {
          return Status::ParseError(
              "Evicted.Persist is only valid in <Lat>.Evict rules");
        }
        action.lat = resolver.FindLat(event.qualifier);
        if (raw.args.size() != 1) {
          return Status::InvalidArgument(
              "Evicted.Persist takes only the table name (all columns are "
              "persisted)");
        }
        return action;
      }
    } else {
      action.source_class = MonitoredClass::kQuery;
    }
    const ObjectSchema& schema = ObjectSchema::Get();
    for (size_t i = 1; i < raw.args.size(); ++i) {
      const std::string& attr = raw.args[i].text;
      const int idx = schema.FindAttribute(action.source_class, attr);
      if (idx < 0) {
        return Status::NotFound(std::string("class ") +
                                MonitoredClassName(action.source_class) +
                                " has no attribute '" + attr + "'");
      }
      action.attr_indexes.push_back(idx);
      action.attr_names.push_back(attr);
    }
    if (action.attr_indexes.empty()) {
      // Persist every attribute.
      const auto& defs = schema.attributes(action.source_class);
      for (size_t i = 0; i < defs.size(); ++i) {
        action.attr_indexes.push_back(static_cast<int>(i));
        action.attr_names.push_back(defs[i].name);
      }
    }
    return action;
  }
  if (EqualsIgnoreCase(raw.name, "SendMail")) {
    action.kind = ActionKind::kSendMail;
    SQLCM_RETURN_IF_ERROR(need_args(2, 2));
    action.text = raw.args[0].text;
    action.address = raw.args[1].text;
    return action;
  }
  if (EqualsIgnoreCase(raw.name, "RunExternal")) {
    action.kind = ActionKind::kRunExternal;
    SQLCM_RETURN_IF_ERROR(need_args(1, 1));
    action.text = raw.args[0].text;
    return action;
  }
  if (EqualsIgnoreCase(raw.name, "Cancel")) {
    action.kind = ActionKind::kCancel;
    SQLCM_RETURN_IF_ERROR(need_args(0, 0));
    if (raw.target.empty()) {
      action.source_class = MonitoredClass::kQuery;
    } else {
      SQLCM_ASSIGN_OR_RETURN(action.source_class,
                             ParseMonitoredClassName(raw.target));
    }
    if (action.source_class != MonitoredClass::kQuery &&
        action.source_class != MonitoredClass::kBlocker &&
        action.source_class != MonitoredClass::kBlocked) {
      return Status::InvalidArgument(
          "Cancel applies only to Query, Blocker or Blocked objects");
    }
    return action;
  }
  if (EqualsIgnoreCase(raw.name, "Set")) {
    action.kind = ActionKind::kSetTimer;
    SQLCM_RETURN_IF_ERROR(need_args(2, 2));
    if (raw.args[0].kind != RawArg::Kind::kNumber ||
        raw.args[1].kind != RawArg::Kind::kNumber) {
      return Status::InvalidArgument("Set(seconds, number_alarms) expects numbers");
    }
    action.timer_seconds = raw.args[0].number;
    action.timer_repeats = static_cast<int64_t>(raw.args[1].number);
    if (raw.target.empty() || EqualsIgnoreCase(raw.target, "Timer")) {
      action.timer_name = "";  // in-context timer
      action.source_class = MonitoredClass::kTimer;
    } else {
      if (!resolver.IsTimerName(raw.target)) {
        return Status::NotFound("timer '" + raw.target + "' not found");
      }
      action.timer_name = ToLower(raw.target);
    }
    return action;
  }
  return Status::ParseError("unknown action '" + raw.name + "'");
}

}  // namespace

bool TryCompileFastAtom(const CmExpr& expr, FastAtom* out) {
  if (expr.kind != CmExpr::Kind::kBinary) return false;
  switch (static_cast<sql::BinaryOp>(expr.binary_op)) {
    case sql::BinaryOp::kEq:
    case sql::BinaryOp::kNe:
    case sql::BinaryOp::kLt:
    case sql::BinaryOp::kLe:
    case sql::BinaryOp::kGt:
    case sql::BinaryOp::kGe:
      break;
    default:
      return false;
  }
  const CmExpr* attr = nullptr;
  const CmExpr* lit = nullptr;
  bool attr_on_left = true;
  if (expr.left->kind == CmExpr::Kind::kAttrRef &&
      expr.right->kind == CmExpr::Kind::kLiteral) {
    attr = expr.left.get();
    lit = expr.right.get();
  } else if (expr.right->kind == CmExpr::Kind::kAttrRef &&
             expr.left->kind == CmExpr::Kind::kLiteral) {
    attr = expr.right.get();
    lit = expr.left.get();
    attr_on_left = false;
  } else {
    return false;
  }
  if (attr->cls == MonitoredClass::kEvicted) return false;
  const AttributeDef& def =
      ObjectSchema::Get().attributes(attr->cls)[static_cast<size_t>(
          attr->attr_index)];
  // Static comparability: numeric-vs-numeric or same kind.
  const bool attr_numeric = def.kind == common::ValueKind::kInt ||
                            def.kind == common::ValueKind::kDouble;
  const bool comparable =
      (attr_numeric && lit->literal.is_numeric()) ||
      (def.kind == common::ValueKind::kString && lit->literal.is_string()) ||
      (def.kind == common::ValueKind::kBool && lit->literal.is_bool());
  if (!comparable) return false;
  out->attr = &def;
  out->cls = attr->cls;
  out->op = expr.binary_op;
  out->literal = lit->literal;
  out->attr_on_left = attr_on_left;
  return true;
}

bool EvalFastAtom(const FastAtom& atom, const EvalContext& ctx) {
  const void* record = ctx.Bound(atom.cls);
  if (record == nullptr) return false;
  const BorrowedProbe v = atom.attr->Borrow(record);
  if (v.is_null()) return false;
  int cmp = v.Compare(atom.literal);
  if (!atom.attr_on_left) cmp = -cmp;
  switch (static_cast<sql::BinaryOp>(atom.op)) {
    case sql::BinaryOp::kEq: return cmp == 0;
    case sql::BinaryOp::kNe: return cmp != 0;
    case sql::BinaryOp::kLt: return cmp < 0;
    case sql::BinaryOp::kLe: return cmp <= 0;
    case sql::BinaryOp::kGt: return cmp > 0;
    case sql::BinaryOp::kGe: return cmp >= 0;
    default: return false;
  }
}

Result<std::unique_ptr<CompiledRule>> RuleCompiler::Compile(
    const RuleSpec& spec, const LatResolver& resolver) {
  auto rule = std::make_unique<CompiledRule>();
  rule->name = spec.name;
  SQLCM_ASSIGN_OR_RETURN(rule->event, ParseEvent(spec.event, resolver));

  if (!common::Trim(spec.condition).empty()) {
    SQLCM_ASSIGN_OR_RETURN(auto ast,
                           sql::Parser::ParseExpression(spec.condition));
    SQLCM_ASSIGN_OR_RETURN(rule->condition,
                           CompileExpr(*ast, resolver, rule->event));
  }

  if (rule->condition != nullptr) {
    std::vector<const CmExpr*> conjuncts;
    CollectConjuncts(rule->condition.get(), &conjuncts);
    rule->conjuncts.reserve(conjuncts.size());
    std::vector<const Lat*> lats;
    for (const CmExpr* expr : conjuncts) {
      CompiledConjunct c;
      c.expr = expr;
      c.text = CanonicalPredicateText(*expr);
      c.hash = common::Fnv1a64(c.text);
      c.is_fast = TryCompileFastAtom(*expr, &c.atom);
      lats.clear();
      expr->CollectLats(&lats);
      c.reads_lats = !lats.empty();
      c.boolean_root =
          (expr->kind == CmExpr::Kind::kBinary &&
           static_cast<sql::BinaryOp>(expr->binary_op) == sql::BinaryOp::kOr) ||
          (expr->kind == CmExpr::Kind::kUnary &&
           static_cast<sql::UnaryOp>(expr->unary_op) == sql::UnaryOp::kNot);
      rule->conjuncts.push_back(std::move(c));
    }
  }

  SQLCM_ASSIGN_OR_RETURN(auto raw_actions, ParseRawActions(spec.action));
  for (const RawAction& raw : raw_actions) {
    SQLCM_ASSIGN_OR_RETURN(auto action,
                           ResolveAction(raw, resolver, rule->event));
    rule->actions.push_back(std::move(action));
  }

  // Determine which referenced classes the event does not bind; the engine
  // iterates over all live objects of those (paper §5.2).
  std::vector<MonitoredClass> referenced;
  if (rule->condition != nullptr) rule->condition->CollectClasses(&referenced);
  for (const CompiledAction& action : rule->actions) {
    switch (action.kind) {
      case ActionKind::kInsert:
        referenced.push_back(action.lat->spec().object_class);
        break;
      case ActionKind::kPersist:
        if (!action.lat_source && !action.evicted_source) {
          referenced.push_back(action.source_class);
        }
        break;
      case ActionKind::kCancel:
        referenced.push_back(action.source_class);
        break;
      case ActionKind::kSetTimer:
        if (action.timer_name.empty()) {
          referenced.push_back(MonitoredClass::kTimer);
        }
        break;
      default:
        break;
    }
  }
  // Collect LAT references (DropLat refuses while a rule references one).
  std::vector<const Lat*> lats;
  if (rule->condition != nullptr) rule->condition->CollectLats(&lats);
  for (const CompiledAction& action : rule->actions) {
    if (action.lat != nullptr) lats.push_back(action.lat);
  }
  std::sort(lats.begin(), lats.end());
  lats.erase(std::unique(lats.begin(), lats.end()), lats.end());
  rule->referenced_lats = std::move(lats);

  // Probe-scope flags: which optional counters must the monitor maintain
  // for this rule? Collected from attribute references in the condition,
  // Persist column lists, and the attribute sets of referenced LATs.
  {
    std::vector<std::string> attr_names;
    std::vector<std::pair<MonitoredClass, int>> refs;
    if (rule->condition != nullptr) rule->condition->CollectAttrRefs(&refs);
    const ObjectSchema& schema = ObjectSchema::Get();
    for (const auto& [cls, idx] : refs) {
      attr_names.push_back(schema.attributes(cls)[static_cast<size_t>(idx)].name);
    }
    for (const CompiledAction& action : rule->actions) {
      for (const std::string& name : action.attr_names) {
        attr_names.push_back(name);
      }
      if (action.lat != nullptr) {
        for (const auto& col : action.lat->spec().group_by) {
          attr_names.push_back(col.attribute);
        }
        for (const auto& col : action.lat->spec().aggregates) {
          attr_names.push_back(col.attribute);
        }
      }
    }
    auto references = [&attr_names](std::string_view needle) {
      for (const std::string& name : attr_names) {
        if (EqualsIgnoreCase(name, needle)) return true;
      }
      return false;
    };
    rule->needs_blocking_probes =
        references("Time_Blocked") || references("Times_Blocked") ||
        references("Queries_Blocked") || references("Wait_Secs") ||
        references("Resource");
    rule->needs_concurrency_probe = references("Concurrent_User_Queries");
  }

  const std::vector<MonitoredClass> bound = EventBoundClasses(rule->event.kind);
  std::sort(referenced.begin(), referenced.end());
  referenced.erase(std::unique(referenced.begin(), referenced.end()),
                   referenced.end());
  for (MonitoredClass cls : referenced) {
    if (std::find(bound.begin(), bound.end(), cls) != bound.end()) continue;
    if (cls == MonitoredClass::kEvicted) {
      return Status::InvalidArgument(
          "Evicted objects are only available in <Lat>.Evict rules");
    }
    rule->iterate_classes.push_back(cls);
  }

  // Inline-vs-deferred classification (async pipeline, ROADMAP item 1).
  // A rule may run on a monitor worker after the hook returns only when
  // nothing about it needs the triggering thread: Cancel must be able to
  // stop the query synchronously (paper §3), non-terminal events bind
  // still-mutating records, and unbound-class iteration snapshots live
  // registries whose contents are only meaningful at event time.
  const bool has_cancel =
      std::any_of(rule->actions.begin(), rule->actions.end(),
                  [](const CompiledAction& a) {
                    return a.kind == ActionKind::kCancel;
                  });
  if (has_cancel) {
    rule->inline_reason = "cancel-action";
  } else if (!EventKindDeferrable(rule->event.kind)) {
    rule->inline_reason = "event-kind";
  } else if (!rule->iterate_classes.empty()) {
    rule->inline_reason = "class-iteration";
  } else {
    rule->deferrable = true;
  }
  const std::string_view mode = common::Trim(spec.eval_mode);
  if (EqualsIgnoreCase(mode, "inline") || EqualsIgnoreCase(mode, "sync")) {
    if (rule->deferrable) {
      rule->deferrable = false;
      rule->inline_reason = "override";
    }
  } else if (EqualsIgnoreCase(mode, "deferred") ||
             EqualsIgnoreCase(mode, "async")) {
    if (!rule->deferrable) {
      return Status::InvalidArgument(
          "rule '" + spec.name + "' cannot be deferred (" +
          rule->inline_reason +
          "): Cancel actions, non-terminal events and unbound-class "
          "iteration require inline evaluation");
    }
  } else if (!mode.empty() && !EqualsIgnoreCase(mode, "auto")) {
    return Status::InvalidArgument(
        "unknown eval_mode '" + std::string(mode) +
        "' (expected \"\", auto, inline or deferred)");
  }
  return rule;
}

// ---------------------------------------------------------------------------
// RuleBreaker
// ---------------------------------------------------------------------------

const char* RuleBreaker::StateName(State state) {
  switch (state) {
    case State::kClosed: return "closed";
    case State::kOpen: return "open";
    case State::kHalfOpen: return "half_open";
  }
  return "?";
}

const char* RuleBreaker::state_name() const { return StateName(state()); }

void GroupRejectionTally::Attach(const obs::StripedCounter* tally) {
  std::lock_guard<std::mutex> lock(mutex_);
  live_.push_back(tally);
}

void GroupRejectionTally::Retire(const obs::StripedCounter* tally) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = std::find(live_.begin(), live_.end(), tally);
  if (it == live_.end()) return;
  retired_ += tally->value();
  live_.erase(it);
}

uint64_t GroupRejectionTally::value() const {
  std::lock_guard<std::mutex> lock(mutex_);
  uint64_t sum = retired_;
  for (const obs::StripedCounter* tally : live_) sum += tally->value();
  return sum;
}

void RuleBreaker::Configure(const Options& options) {
  std::lock_guard<std::mutex> lock(mutex_);
  FoldSuccessesLocked();  // tallied successes counted under the old window
  options_ = options;
}

void RuleBreaker::AttachDerivedSuccesses(
    const GroupRejectionTally* rejections) {
  std::lock_guard<std::mutex> lock(mutex_);
  FoldSuccessesLocked();
  derived_successes_ = rejections;
  derived_folded_ = rejections != nullptr ? rejections->value() : 0;
}

void RuleBreaker::WatchState(std::atomic<int64_t>* not_closed) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (state_.load(std::memory_order_relaxed) != State::kClosed) {
    if (not_closed_ != nullptr) {
      not_closed_->fetch_sub(1, std::memory_order_relaxed);
    }
    if (not_closed != nullptr) {
      not_closed->fetch_add(1, std::memory_order_relaxed);
    }
  }
  not_closed_ = not_closed;
}

void RuleBreaker::SetStateLocked(State state) {
  const State old = state_.load(std::memory_order_relaxed);
  if (old == state) return;
  state_.store(state, std::memory_order_relaxed);
  if (not_closed_ == nullptr) return;
  if (old == State::kClosed) {
    not_closed_->fetch_add(1, std::memory_order_relaxed);
  } else if (state == State::kClosed) {
    not_closed_->fetch_sub(1, std::memory_order_relaxed);
  }
}

bool RuleBreaker::Allow(int64_t now_micros) {
  if (state_.load(std::memory_order_relaxed) == State::kClosed) return true;
  std::lock_guard<std::mutex> lock(mutex_);
  switch (state_.load(std::memory_order_relaxed)) {
    case State::kClosed:
      return true;  // closed while we waited for the lock
    case State::kOpen:
      if (now_micros - tripped_at_micros_ < options_.cooldown_micros) {
        ++skipped_;
        return false;
      }
      SetStateLocked(State::kHalfOpen);
      probe_in_flight_ = true;
      return true;
    case State::kHalfOpen:
      if (probe_in_flight_) {
        ++skipped_;
        return false;
      }
      probe_in_flight_ = true;
      return true;
  }
  return true;
}

void RuleBreaker::OnSuccess(int64_t, uint64_t n) {
  if (n == 0) return;
  if (state_.load(std::memory_order_relaxed) == State::kClosed) {
    pending_successes_.Inc(n);  // folded by the next locked path
    return;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  if (state_.load(std::memory_order_relaxed) == State::kHalfOpen) {
    // Probe succeeded: the rule has recovered. The window restarts, so
    // any tally left from before the trip is moot.
    SetStateLocked(State::kClosed);
    probe_in_flight_ = false;
    DiscardSuccessesLocked();
    consecutive_failures_ = 0;
    window_events_ = 0;
    window_errors_ = 0;
    if (n > 1) pending_successes_.Inc(n - 1);  // the rest, once closed
  }
}

uint64_t RuleBreaker::PendingDerivedLocked() const {
  return derived_successes_ != nullptr
             ? derived_successes_->value() - derived_folded_
             : 0;
}

void RuleBreaker::DiscardSuccessesLocked() {
  pending_successes_.Take();
  if (derived_successes_ != nullptr) {
    derived_folded_ = derived_successes_->value();
  }
}

void RuleBreaker::FoldSuccessesLocked() {
  const uint64_t derived = PendingDerivedLocked();
  derived_folded_ += derived;
  const uint64_t n = pending_successes_.Take() + derived;
  if (n == 0) return;
  consecutive_failures_ = 0;
  // Each success is one window event, and the window (events and errors)
  // restarts whenever it reaches window_size: the first restart comes
  // after `first_wrap` successes, later ones every window_size.
  const int64_t size = options_.window_size;
  const uint64_t first_wrap =
      static_cast<uint64_t>(std::max<int64_t>(1, size - window_events_));
  if (n < first_wrap) {
    window_events_ += static_cast<int64_t>(n);
    return;
  }
  window_errors_ = 0;
  window_events_ =
      size > 0 ? static_cast<int64_t>((n - first_wrap) %
                                      static_cast<uint64_t>(size))
               : 0;
}

bool RuleBreaker::ShouldTripLocked() const {
  if (consecutive_failures_ >= options_.consecutive_failure_threshold) {
    return true;
  }
  return window_events_ >= options_.min_window_events &&
         static_cast<double>(window_errors_) >=
             options_.error_rate_threshold *
                 static_cast<double>(window_events_);
}

bool RuleBreaker::OnFailure(int64_t now_micros) {
  std::lock_guard<std::mutex> lock(mutex_);
  FoldSuccessesLocked();
  const State state = state_.load(std::memory_order_relaxed);
  if (state == State::kHalfOpen) {
    // Probe failed: straight back to open, cooldown restarts.
    SetStateLocked(State::kOpen);
    probe_in_flight_ = false;
    tripped_at_micros_ = now_micros;
    ++trips_;
    return true;
  }
  if (state == State::kOpen) return false;  // late failure, already tripped
  ++consecutive_failures_;
  ++window_events_;
  ++window_errors_;
  if (!ShouldTripLocked()) {
    if (window_events_ >= options_.window_size) {
      window_events_ = 0;
      window_errors_ = 0;
    }
    return false;
  }
  SetStateLocked(State::kOpen);
  tripped_at_micros_ = now_micros;
  ++trips_;
  return true;
}

void RuleBreaker::Reinstate() {
  std::lock_guard<std::mutex> lock(mutex_);
  SetStateLocked(State::kClosed);
  probe_in_flight_ = false;
  DiscardSuccessesLocked();
  consecutive_failures_ = 0;
  window_events_ = 0;
  window_errors_ = 0;
}

int64_t RuleBreaker::consecutive_failures() const {
  std::lock_guard<std::mutex> lock(mutex_);
  // Folding would only zero the count: any tallied success follows the
  // last failure (failures fold first).
  return pending_successes_.value() > 0 || PendingDerivedLocked() > 0
             ? 0
             : consecutive_failures_;
}

uint64_t RuleBreaker::trips() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return trips_;
}

uint64_t RuleBreaker::skipped() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return skipped_;
}

int64_t RuleBreaker::tripped_at_micros() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return tripped_at_micros_;
}

// ---------------------------------------------------------------------------
// ActionRateLimiter
// ---------------------------------------------------------------------------

void ActionRateLimiter::Configure(const Options& options) {
  std::lock_guard<std::mutex> lock(mutex_);
  options_ = options;
  recent_.clear();
  next_ = 0;
  const bool on = options.max_actions > 0 && options.window_micros > 0;
  if (on) recent_.reserve(static_cast<size_t>(options.max_actions));
  enabled_.store(on, std::memory_order_release);
}

bool ActionRateLimiter::Admit(int64_t now_micros) {
  if (!enabled_.load(std::memory_order_acquire)) return true;
  std::lock_guard<std::mutex> lock(mutex_);
  if (options_.max_actions <= 0 || options_.window_micros <= 0) return true;
  if (recent_.size() < static_cast<size_t>(options_.max_actions)) {
    recent_.push_back(now_micros);
    return true;
  }
  // Buffer full: the slot at next_ holds the oldest of the last
  // `max_actions` admissions. If it fell outside the trailing window, this
  // admission is within budget and takes its slot.
  if (recent_[next_] <= now_micros - options_.window_micros) {
    recent_[next_] = now_micros;
    next_ = (next_ + 1) % recent_.size();
    return true;
  }
  suppressed_.fetch_add(1, std::memory_order_relaxed);
  return false;
}

}  // namespace sqlcm::cm
