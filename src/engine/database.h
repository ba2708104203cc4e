// Database: the embedded relational engine instance ("kestrel") that SQLCM
// monitors. Owns catalog, transaction manager, plan cache, stored
// procedures and the monitor attachment point.
#ifndef SQLCM_ENGINE_DATABASE_H_
#define SQLCM_ENGINE_DATABASE_H_

#include <array>
#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/clock.h"
#include "common/status.h"
#include "engine/monitor_hooks.h"
#include "engine/plan_cache.h"
#include "engine/procedure.h"
#include "storage/catalog.h"
#include "txn/transaction.h"

namespace sqlcm::engine {

class Session;

class Database {
 public:
  struct Options {
    /// Time source; nullptr selects the real SystemClock.
    common::Clock* clock = nullptr;
    /// SELECTs take shared row locks when true (repeatable-read style);
    /// default is latch-consistent read-committed reads.
    bool lock_rows_for_reads = false;
    /// Lock wait timeout; < 0 waits forever (deadlocks still detected).
    int64_t lock_timeout_micros = -1;
    size_t plan_cache_capacity = 4096;
    /// Maintain a snapshot table of currently executing statements (the
    /// sysprocesses-style view the PULL baseline polls, §6.2.2(b)).
    bool enable_statement_snapshot = false;
    /// Keep a history of completed statements until drained (the
    /// PULL_history baseline, §6.2.2(c)).
    bool enable_statement_history = false;
  };

  /// One row of the active-statement snapshot / completed history.
  struct StatementRecord {
    uint64_t query_id = 0;
    uint64_t session_id = 0;
    std::string text;
    int64_t start_micros = 0;
    int64_t duration_micros = 0;  // history only; 0 while running
  };

  Database() : Database(Options()) {}
  explicit Database(Options options);
  ~Database();
  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  /// Creates a session. Sessions must not outlive the Database.
  std::unique_ptr<Session> CreateSession();

  storage::Catalog* catalog() { return &catalog_; }
  txn::TransactionManager* txn_manager() { return &txn_manager_; }
  PlanCache* plan_cache() { return &plan_cache_; }
  common::Clock* clock() { return clock_; }
  const Options& options() const { return options_; }

  /// Attaches (or detaches, with nullptr) the monitor. Not thread-safe
  /// with respect to concurrently executing sessions; attach during quiesce.
  void set_monitor_hooks(MonitorHooks* hooks);
  MonitorHooks* monitor_hooks() const { return hooks_; }

  // -- Stored procedures ----------------------------------------------------

  common::Status CreateProcedure(Procedure proc);
  common::Status DropProcedure(std::string_view name);
  /// nullptr when absent. Pointers remain valid until DropProcedure.
  const Procedure* FindProcedure(std::string_view name) const;

  // -- Compilation ----------------------------------------------------------

  /// Compiles a plannable statement (SELECT/INSERT/UPDATE/DELETE): plans,
  /// optimizes (timing the whole compilation into optimize_micros), lets
  /// the monitor compute signatures, and publishes to the plan cache.
  /// Call only after a plan-cache miss for `sql_text`. Sessions that miss
  /// on the same text at once compile it once: the rest wait and reuse
  /// the published plan.
  common::Result<std::shared_ptr<CachedPlan>> Compile(
      const std::string& sql_text, const sql::Statement& stmt);

  // -- Polling surfaces (PULL baselines) -------------------------------------

  /// Copy of all currently executing statements (requires
  /// enable_statement_snapshot). The poll itself contends with statement
  /// registration — exactly the overhead the paper attributes to polling.
  std::vector<StatementRecord> SnapshotActiveStatements() const;

  /// Removes and returns the completed-statement history (requires
  /// enable_statement_history).
  std::vector<StatementRecord> DrainStatementHistory();

  /// Current size of the un-drained history (models the paper's note that
  /// infrequent pickup makes historical state consume server memory).
  size_t StatementHistorySize() const;

  // Session-internal registration (public for Session only, in effect).
  void RegisterStatement(const StatementRecord& record);
  void UnregisterStatement(uint64_t query_id, int64_t duration_micros);

  uint64_t NextQueryId() {
    return next_query_id_.fetch_add(1, std::memory_order_relaxed);
  }
  uint64_t NextSessionId() {
    return next_session_id_.fetch_add(1, std::memory_order_relaxed);
  }

 private:
  const Options options_;
  common::Clock* clock_;
  storage::Catalog catalog_;
  txn::TransactionManager txn_manager_;
  PlanCache plan_cache_;
  // Striped by hash of the statement text; serialises concurrent
  // compilations of one text (and, rarely, of two colliding texts).
  std::array<std::mutex, 16> compile_mutexes_;
  MonitorHooks* hooks_ = nullptr;

  mutable std::mutex proc_mutex_;
  std::unordered_map<std::string, std::unique_ptr<Procedure>> procedures_;

  std::atomic<uint64_t> next_query_id_{1};
  std::atomic<uint64_t> next_session_id_{1};

  mutable std::mutex statements_mutex_;
  std::unordered_map<uint64_t, StatementRecord> active_statements_;
  std::vector<StatementRecord> statement_history_;
};

}  // namespace sqlcm::engine

#endif  // SQLCM_ENGINE_DATABASE_H_
