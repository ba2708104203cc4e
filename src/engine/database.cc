#include "engine/database.h"

#include "common/string_util.h"
#include "engine/session.h"
#include "exec/optimizer.h"
#include "exec/planner.h"

namespace sqlcm::engine {

using common::Result;
using common::Status;

Database::Database(Options options)
    : options_(options),
      clock_(options.clock != nullptr ? options.clock
                                      : common::SystemClock::Get()),
      txn_manager_(clock_, &catalog_),
      plan_cache_(options.plan_cache_capacity) {}

Database::~Database() = default;

std::unique_ptr<Session> Database::CreateSession() {
  return std::unique_ptr<Session>(new Session(this, NextSessionId()));
}

void Database::set_monitor_hooks(MonitorHooks* hooks) {
  hooks_ = hooks;
  txn_manager_.lock_manager()->set_observer(
      hooks != nullptr ? hooks->lock_event_observer() : nullptr);
}

Status Database::CreateProcedure(Procedure proc) {
  const std::string key = common::ToLower(proc.name);
  std::lock_guard<std::mutex> lock(proc_mutex_);
  if (procedures_.count(key) != 0) {
    return Status::AlreadyExists("procedure '" + proc.name +
                                 "' already exists");
  }
  procedures_.emplace(key, std::make_unique<Procedure>(std::move(proc)));
  return Status::OK();
}

Status Database::DropProcedure(std::string_view name) {
  const std::string key = common::ToLower(name);
  std::lock_guard<std::mutex> lock(proc_mutex_);
  if (procedures_.erase(key) == 0) {
    return Status::NotFound("procedure '" + std::string(name) +
                            "' not found");
  }
  return Status::OK();
}

const Procedure* Database::FindProcedure(std::string_view name) const {
  const std::string key = common::ToLower(name);
  std::lock_guard<std::mutex> lock(proc_mutex_);
  auto it = procedures_.find(key);
  return it == procedures_.end() ? nullptr : it->second.get();
}

std::vector<Database::StatementRecord> Database::SnapshotActiveStatements()
    const {
  std::lock_guard<std::mutex> lock(statements_mutex_);
  std::vector<StatementRecord> out;
  out.reserve(active_statements_.size());
  for (const auto& [_, record] : active_statements_) out.push_back(record);
  return out;
}

std::vector<Database::StatementRecord> Database::DrainStatementHistory() {
  std::lock_guard<std::mutex> lock(statements_mutex_);
  std::vector<StatementRecord> out;
  out.swap(statement_history_);
  return out;
}

size_t Database::StatementHistorySize() const {
  std::lock_guard<std::mutex> lock(statements_mutex_);
  return statement_history_.size();
}

void Database::RegisterStatement(const StatementRecord& record) {
  std::lock_guard<std::mutex> lock(statements_mutex_);
  if (options_.enable_statement_snapshot) {
    active_statements_.emplace(record.query_id, record);
  }
  // History entries are appended at completion (UnregisterStatement), but
  // when only history is enabled we still need the start info then; keep
  // the record in the active map in that case too.
  if (options_.enable_statement_history &&
      !options_.enable_statement_snapshot) {
    active_statements_.emplace(record.query_id, record);
  }
}

void Database::UnregisterStatement(uint64_t query_id,
                                   int64_t duration_micros) {
  std::lock_guard<std::mutex> lock(statements_mutex_);
  auto it = active_statements_.find(query_id);
  if (it == active_statements_.end()) return;
  if (options_.enable_statement_history) {
    StatementRecord record = std::move(it->second);
    record.duration_micros = duration_micros;
    statement_history_.push_back(std::move(record));
  }
  active_statements_.erase(it);
}

Result<std::shared_ptr<CachedPlan>> Database::Compile(
    const std::string& sql_text, const sql::Statement& stmt) {
  std::lock_guard<std::mutex> compile_lock(
      compile_mutexes_[std::hash<std::string>{}(sql_text) %
                       compile_mutexes_.size()]);
  if (auto cached = plan_cache_.Recheck(sql_text)) return cached;

  auto plan = std::make_shared<CachedPlan>();
  plan->sql_text = sql_text;

  const int64_t compile_start = clock_->NowMicros();
  exec::Planner planner(&catalog_);
  SQLCM_ASSIGN_OR_RETURN(plan->logical, planner.Plan(stmt));
  exec::Optimizer optimizer;
  SQLCM_ASSIGN_OR_RETURN(plan->physical, optimizer.Optimize(*plan->logical));
  plan->physical->InternLayouts();
  plan->optimize_micros = clock_->NowMicros() - compile_start;

  // The monitor computes signatures here, before the plan is published
  // (paper §4.2: computed during optimization, cached with the plan).
  if (hooks_ != nullptr) {
    hooks_->OnStatementCompiled(plan.get());
  }
  // Only signature computation reads the logical plan; cached plans keep
  // just the physical one (about half a cached plan's footprint).
  plan->logical.reset();
  plan_cache_.Put(plan);
  return plan;
}

}  // namespace sqlcm::engine
