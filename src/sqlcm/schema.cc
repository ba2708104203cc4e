#include "sqlcm/schema.h"

#include "common/string_util.h"

namespace sqlcm::cm {

using common::Result;
using common::Status;
using common::Value;
using common::ValueKind;

const char* MonitoredClassName(MonitoredClass cls) {
  switch (cls) {
    case MonitoredClass::kQuery: return "Query";
    case MonitoredClass::kTransaction: return "Transaction";
    case MonitoredClass::kBlocker: return "Blocker";
    case MonitoredClass::kBlocked: return "Blocked";
    case MonitoredClass::kTimer: return "Timer";
    case MonitoredClass::kEvicted: return "Evicted";
  }
  return "?";
}

Result<MonitoredClass> ParseMonitoredClassName(std::string_view name) {
  using common::EqualsIgnoreCase;
  if (EqualsIgnoreCase(name, "Query")) return MonitoredClass::kQuery;
  if (EqualsIgnoreCase(name, "Transaction")) return MonitoredClass::kTransaction;
  if (EqualsIgnoreCase(name, "Blocker")) return MonitoredClass::kBlocker;
  if (EqualsIgnoreCase(name, "Blocked")) return MonitoredClass::kBlocked;
  if (EqualsIgnoreCase(name, "Timer")) return MonitoredClass::kTimer;
  if (EqualsIgnoreCase(name, "Evicted")) return MonitoredClass::kEvicted;
  return Status::NotFound("unknown monitored class '" + std::string(name) +
                          "'");
}

namespace {

using View = std::string_view;

const QueryRecord& AsQuery(const void* record) {
  return *static_cast<const QueryRecord*>(record);
}
const BlockEventView& AsBlock(const void* record) {
  return *static_cast<const BlockEventView*>(record);
}
const TransactionRecord& AsTxn(const void* record) {
  return *static_cast<const TransactionRecord*>(record);
}
const TimerRecord& AsTimer(const void* record) {
  return *static_cast<const TimerRecord*>(record);
}

std::vector<AttributeDef> QueryAttributes() {
  return {
      {"ID", ValueKind::kInt,
       [](const void* r) { return Value::Int(static_cast<int64_t>(AsQuery(r).id)); }},
      {"Query_Text", ValueKind::kString, nullptr,
       [](const void* r) -> View { return AsQuery(r).query_text(); }},
      {"Logical_Signature", ValueKind::kString, nullptr,
       [](const void* r) -> View { return AsQuery(r).logical_sig(); }},
      {"Physical_Signature", ValueKind::kString, nullptr,
       [](const void* r) -> View { return AsQuery(r).physical_sig(); }},
      {"Start_Time", ValueKind::kInt,
       [](const void* r) { return Value::Int(AsQuery(r).start_micros); }},
      {"Duration", ValueKind::kDouble,
       [](const void* r) { return Value::Double(AsQuery(r).duration_secs); }},
      {"Estimated_Cost", ValueKind::kDouble,
       [](const void* r) { return Value::Double(AsQuery(r).estimated_cost); }},
      {"Time_Blocked", ValueKind::kDouble,
       [](const void* r) { return Value::Double(AsQuery(r).time_blocked_secs); }},
      {"Times_Blocked", ValueKind::kInt,
       [](const void* r) { return Value::Int(AsQuery(r).times_blocked); }},
      {"Queries_Blocked", ValueKind::kInt,
       [](const void* r) { return Value::Int(AsQuery(r).queries_blocked); }},
      {"Number_of_instances", ValueKind::kInt,
       [](const void* r) { return Value::Int(AsQuery(r).number_of_instances); }},
      {"Query_Type", ValueKind::kString, nullptr,
       [](const void* r) -> View { return AsQuery(r).query_type; }},
      {"Session_ID", ValueKind::kInt,
       [](const void* r) { return Value::Int(static_cast<int64_t>(AsQuery(r).session_id)); }},
      {"Transaction_ID", ValueKind::kInt,
       [](const void* r) { return Value::Int(static_cast<int64_t>(AsQuery(r).txn_id)); }},
      {"User", ValueKind::kString, nullptr,
       [](const void* r) -> View { return AsQuery(r).user; }},
      {"Application", ValueKind::kString, nullptr,
       [](const void* r) -> View { return AsQuery(r).application; }},
      {"Concurrent_User_Queries", ValueKind::kInt,
       [](const void* r) {
         return Value::Int(AsQuery(r).concurrent_user_queries);
       }},
  };
}

/// Blocker/Blocked: the full Query schema (delegating to the underlying
/// query) plus the conflict context.
std::vector<AttributeDef> BlockAttributes() {
  std::vector<AttributeDef> defs = {
      {"ID", ValueKind::kInt,
       [](const void* r) { return Value::Int(static_cast<int64_t>(AsBlock(r).query->id)); }},
      {"Query_Text", ValueKind::kString, nullptr,
       [](const void* r) -> View { return AsBlock(r).query->query_text(); }},
      {"Logical_Signature", ValueKind::kString, nullptr,
       [](const void* r) -> View { return AsBlock(r).query->logical_sig(); }},
      {"Physical_Signature", ValueKind::kString, nullptr,
       [](const void* r) -> View { return AsBlock(r).query->physical_sig(); }},
      {"Start_Time", ValueKind::kInt,
       [](const void* r) { return Value::Int(AsBlock(r).query->start_micros); }},
      {"Duration", ValueKind::kDouble,
       [](const void* r) { return Value::Double(AsBlock(r).query->duration_secs); }},
      {"Estimated_Cost", ValueKind::kDouble,
       [](const void* r) { return Value::Double(AsBlock(r).query->estimated_cost); }},
      {"Time_Blocked", ValueKind::kDouble,
       [](const void* r) { return Value::Double(AsBlock(r).query->time_blocked_secs); }},
      {"Times_Blocked", ValueKind::kInt,
       [](const void* r) { return Value::Int(AsBlock(r).query->times_blocked); }},
      {"Queries_Blocked", ValueKind::kInt,
       [](const void* r) { return Value::Int(AsBlock(r).query->queries_blocked); }},
      {"Query_Type", ValueKind::kString, nullptr,
       [](const void* r) -> View { return AsBlock(r).query->query_type; }},
      {"Session_ID", ValueKind::kInt,
       [](const void* r) { return Value::Int(static_cast<int64_t>(AsBlock(r).query->session_id)); }},
      {"Transaction_ID", ValueKind::kInt,
       [](const void* r) { return Value::Int(static_cast<int64_t>(AsBlock(r).query->txn_id)); }},
      {"User", ValueKind::kString, nullptr,
       [](const void* r) -> View { return AsBlock(r).query->user; }},
      {"Application", ValueKind::kString, nullptr,
       [](const void* r) -> View { return AsBlock(r).query->application; }},
      // Conflict context.
      {"Wait_Secs", ValueKind::kDouble,
       [](const void* r) { return Value::Double(AsBlock(r).wait_secs); }},
      {"Resource", ValueKind::kString, nullptr,
       [](const void* r) -> View { return AsBlock(r).resource; }},
  };
  for (AttributeDef& def : defs) {
    def.absent = [](const void* r) { return AsBlock(r).query == nullptr; };
  }
  return defs;
}

std::vector<AttributeDef> TransactionAttributes() {
  return {
      {"ID", ValueKind::kInt,
       [](const void* r) { return Value::Int(static_cast<int64_t>(AsTxn(r).id)); }},
      {"Logical_Signature", ValueKind::kString, nullptr,
       [](const void* r) -> View { return AsTxn(r).logical_signature; }},
      {"Physical_Signature", ValueKind::kString, nullptr,
       [](const void* r) -> View { return AsTxn(r).physical_signature; }},
      {"Start_Time", ValueKind::kInt,
       [](const void* r) { return Value::Int(AsTxn(r).start_micros); }},
      {"Duration", ValueKind::kDouble,
       [](const void* r) { return Value::Double(AsTxn(r).duration_secs); }},
      {"Num_Queries", ValueKind::kInt,
       [](const void* r) { return Value::Int(AsTxn(r).num_queries); }},
      {"Session_ID", ValueKind::kInt,
       [](const void* r) { return Value::Int(static_cast<int64_t>(AsTxn(r).session_id)); }},
      {"User", ValueKind::kString, nullptr,
       [](const void* r) -> View { return AsTxn(r).user; }},
      {"Application", ValueKind::kString, nullptr,
       [](const void* r) -> View { return AsTxn(r).application; }},
  };
}

std::vector<AttributeDef> TimerAttributes() {
  return {
      {"Name", ValueKind::kString, nullptr,
       [](const void* r) -> View { return AsTimer(r).name; }},
      {"Current_Time", ValueKind::kDouble,
       [](const void* r) { return Value::Double(AsTimer(r).now_secs); }},
      {"Interval", ValueKind::kDouble,
       [](const void* r) {
         return Value::Double(static_cast<double>(AsTimer(r).interval_micros) /
                              1e6);
       }},
      {"Remaining_Alarms", ValueKind::kInt,
       [](const void* r) { return Value::Int(AsTimer(r).remaining_alarms); }},
  };
}

}  // namespace

ObjectSchema::ObjectSchema() {
  attributes_[static_cast<size_t>(MonitoredClass::kQuery)] = QueryAttributes();
  attributes_[static_cast<size_t>(MonitoredClass::kTransaction)] =
      TransactionAttributes();
  attributes_[static_cast<size_t>(MonitoredClass::kBlocker)] =
      BlockAttributes();
  attributes_[static_cast<size_t>(MonitoredClass::kBlocked)] =
      BlockAttributes();
  attributes_[static_cast<size_t>(MonitoredClass::kTimer)] = TimerAttributes();
  // kEvicted: dynamic (LAT columns); left empty here.
}

const ObjectSchema& ObjectSchema::Get() {
  static const ObjectSchema* const kSchema = new ObjectSchema();
  return *kSchema;
}

int ObjectSchema::FindAttribute(MonitoredClass cls,
                                std::string_view name) const {
  const auto& defs = attributes(cls);
  for (size_t i = 0; i < defs.size(); ++i) {
    if (common::EqualsIgnoreCase(defs[i].name, name)) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

}  // namespace sqlcm::cm
