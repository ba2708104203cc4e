// Outside-in tracing for the benchmark's traced run.
//
// HookTracer sits between engine::Database and cm::MonitorEngine (installed
// with Database::set_monitor_hooks) and forwards every MonitorHooks and
// LockEventObserver call unchanged, timing each with a nanosecond steady
// clock. The session loop opens one statement span around each
// Session::Execute call; hook spans recorded on that thread until the
// statement ends become its children and share its id. Spans stay in
// per-thread memory and are summarised or written out after the run, so
// tracing adds no shared writes to the hot path.
#ifndef PERFBENCH_HOOK_TRACER_H_
#define PERFBENCH_HOOK_TRACER_H_

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "engine/monitor_hooks.h"
#include "txn/lock_manager.h"

namespace perfbench {

enum class SpanKind : uint8_t {
  kStatement,  // one Session::Execute call, as the client sees it
  kStatementCompiled,
  kQueryStart,
  kQueryCommit,
  kQueryCancel,
  kQueryRollback,
  kTxnBegin,
  kTxnCommit,
  kTxnRollback,
  kBlocked,
  kBlockReleased,
  // DBA calls made by the benchmark, outside any statement.
  kDefineLat,
  kAddRule,
  kDrainEventQueue,
};
inline constexpr size_t kNumSpanKinds = 14;
const char* SpanKindName(SpanKind kind);
/// True for the kinds that are MonitorHooks / LockEventObserver calls.
bool IsHookSpan(SpanKind kind);

struct Span {
  uint64_t span_id = 0;
  uint64_t parent_id = 0;  // enclosing statement span; 0 for none
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  SpanKind kind = SpanKind::kStatement;
};

/// steady_clock nanoseconds.
int64_t NowNanos();

class HookTracer final : public sqlcm::engine::MonitorHooks,
                         public sqlcm::txn::LockEventObserver {
 public:
  HookTracer();
  HookTracer(const HookTracer&) = delete;
  HookTracer& operator=(const HookTracer&) = delete;

  /// Sets the monitor every hook is forwarded to. Call before installing
  /// the tracer with Database::set_monitor_hooks; `inner` must outlive that
  /// installation.
  void Forward(sqlcm::engine::MonitorHooks* inner);

  /// Opens a statement span on the calling thread and returns its id.
  uint64_t BeginStatement();
  /// Closes the calling thread's open statement span.
  void EndStatement(uint64_t id, int64_t start_ns, int64_t end_ns);
  /// Records a parentless span (a DBA call timed by the benchmark).
  void Record(SpanKind kind, int64_t start_ns, int64_t end_ns);

  struct Summary {
    std::array<uint64_t, kNumSpanKinds> count{};
    std::array<int64_t, kNumSpanKinds> nanos{};
    uint64_t statements = 0;
    int64_t statement_nanos = 0;  // summed Execute wall time
    int64_t statement_self_nanos = 0;  // wall minus child-span coverage
    int64_t hook_nanos = 0;  // all hook spans, inside statements or not
    /// Statements whose child spans cover more than their own interval
    /// (impossible for a correct decorator; checked by the benchmark).
    uint64_t hook_exceeds_wall = 0;
    int64_t block_wait_micros = 0;  // summed OnBlockReleased wait
    int64_t optimize_micros = 0;    // summed CachedPlan::optimize_micros
  };
  /// Aggregates every recorded span. Call only while no thread records.
  Summary Summarize() const;
  /// Writes one CSV line per span. Call only while no thread records.
  sqlcm::common::Status WriteSpans(const std::string& path) const;

  // -- engine::MonitorHooks ---------------------------------------------------
  void OnStatementCompiled(sqlcm::engine::CachedPlan* plan) override;
  void OnQueryStart(const sqlcm::engine::QueryInfo& info) override;
  void OnQueryCommit(const sqlcm::engine::QueryInfo& info) override;
  void OnQueryCancel(const sqlcm::engine::QueryInfo& info) override;
  void OnQueryRollback(const sqlcm::engine::QueryInfo& info) override;
  void OnTransactionBegin(uint64_t session_id,
                          sqlcm::txn::TxnId txn_id) override;
  void OnTransactionCommit(uint64_t session_id, sqlcm::txn::TxnId txn_id,
                           int64_t duration_micros) override;
  void OnTransactionRollback(uint64_t session_id, sqlcm::txn::TxnId txn_id,
                             int64_t duration_micros) override;
  sqlcm::txn::LockEventObserver* lock_event_observer() override;

  // -- txn::LockEventObserver -------------------------------------------------
  void OnBlocked(sqlcm::txn::TxnId blocked, sqlcm::txn::TxnId blocker,
                 const sqlcm::txn::ResourceId& resource) override;
  void OnBlockReleased(sqlcm::txn::TxnId blocked, sqlcm::txn::TxnId blocker,
                       const sqlcm::txn::ResourceId& resource,
                       int64_t wait_micros) override;

 private:
  /// One thread's spans. Only the owning thread writes until Summarize.
  struct Buffer {
    uint64_t id_base = 0;
    uint64_t next_id = 0;
    uint64_t open_statement = 0;
    int64_t block_wait_micros = 0;
    int64_t optimize_micros = 0;
    std::vector<Span> spans;
  };
  Buffer& Local();
  void RecordHook(SpanKind kind, int64_t start_ns);

  sqlcm::engine::MonitorHooks* inner_ = nullptr;
  sqlcm::txn::LockEventObserver* inner_observer_ = nullptr;
  const uint64_t instance_;  // distinguishes tracers in thread-local lookup

  mutable std::mutex buffers_mutex_;  // guards buffers_ (registration only)
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

}  // namespace perfbench

#endif  // PERFBENCH_HOOK_TRACER_H_
