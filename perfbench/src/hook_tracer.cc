#include "hook_tracer.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>

namespace perfbench {

using sqlcm::common::Status;

namespace {

std::atomic<uint64_t> g_next_instance{1};

struct LocalSlot {
  uint64_t instance = 0;
  void* buffer = nullptr;
};
thread_local LocalSlot t_slot;

/// Length of the union of [start, end) intervals.
int64_t Coverage(std::vector<std::pair<int64_t, int64_t>>* intervals) {
  std::sort(intervals->begin(), intervals->end());
  int64_t covered = 0;
  int64_t run_start = 0;
  int64_t run_end = 0;
  bool open = false;
  for (const auto& [start, end] : *intervals) {
    if (!open || start > run_end) {
      if (open) covered += run_end - run_start;
      run_start = start;
      run_end = end;
      open = true;
    } else {
      run_end = std::max(run_end, end);
    }
  }
  if (open) covered += run_end - run_start;
  return covered;
}

}  // namespace

const char* SpanKindName(SpanKind kind) {
  static const char* kNames[kNumSpanKinds] = {
      "statement",     "statement_compiled", "query_start",
      "query_commit",  "query_cancel",       "query_rollback",
      "txn_begin",     "txn_commit",         "txn_rollback",
      "blocked",       "block_released",     "define_lat",
      "add_rule",      "drain_event_queue"};
  return kNames[static_cast<size_t>(kind)];
}

bool IsHookSpan(SpanKind kind) {
  return kind >= SpanKind::kStatementCompiled &&
         kind <= SpanKind::kBlockReleased;
}

int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

HookTracer::HookTracer() : instance_(g_next_instance.fetch_add(1)) {}

void HookTracer::Forward(sqlcm::engine::MonitorHooks* inner) {
  inner_ = inner;
  inner_observer_ = inner->lock_event_observer();
}

HookTracer::Buffer& HookTracer::Local() {
  if (t_slot.instance == instance_) {
    return *static_cast<Buffer*>(t_slot.buffer);
  }
  auto buffer = std::make_unique<Buffer>();
  buffer->spans.reserve(1 << 16);
  Buffer* raw = buffer.get();
  {
    std::lock_guard<std::mutex> lock(buffers_mutex_);
    raw->id_base = static_cast<uint64_t>(buffers_.size() + 1) << 40;
    buffers_.push_back(std::move(buffer));
  }
  t_slot.instance = instance_;
  t_slot.buffer = raw;
  return *raw;
}

uint64_t HookTracer::BeginStatement() {
  Buffer& buf = Local();
  buf.open_statement = buf.id_base | ++buf.next_id;
  return buf.open_statement;
}

void HookTracer::EndStatement(uint64_t id, int64_t start_ns, int64_t end_ns) {
  Buffer& buf = Local();
  buf.spans.push_back(Span{id, 0, start_ns, end_ns, SpanKind::kStatement});
  buf.open_statement = 0;
}

void HookTracer::Record(SpanKind kind, int64_t start_ns, int64_t end_ns) {
  Buffer& buf = Local();
  buf.spans.push_back(
      Span{buf.id_base | ++buf.next_id, 0, start_ns, end_ns, kind});
}

void HookTracer::RecordHook(SpanKind kind, int64_t start_ns) {
  const int64_t end_ns = NowNanos();
  Buffer& buf = Local();
  buf.spans.push_back(Span{buf.id_base | ++buf.next_id, buf.open_statement,
                           start_ns, end_ns, kind});
}

void HookTracer::OnStatementCompiled(sqlcm::engine::CachedPlan* plan) {
  const int64_t start = NowNanos();
  inner_->OnStatementCompiled(plan);
  RecordHook(SpanKind::kStatementCompiled, start);
  Buffer& buf = Local();
  buf.optimize_micros += plan->optimize_micros;
}

void HookTracer::OnQueryStart(const sqlcm::engine::QueryInfo& info) {
  const int64_t start = NowNanos();
  inner_->OnQueryStart(info);
  RecordHook(SpanKind::kQueryStart, start);
}

void HookTracer::OnQueryCommit(const sqlcm::engine::QueryInfo& info) {
  const int64_t start = NowNanos();
  inner_->OnQueryCommit(info);
  RecordHook(SpanKind::kQueryCommit, start);
}

void HookTracer::OnQueryCancel(const sqlcm::engine::QueryInfo& info) {
  const int64_t start = NowNanos();
  inner_->OnQueryCancel(info);
  RecordHook(SpanKind::kQueryCancel, start);
}

void HookTracer::OnQueryRollback(const sqlcm::engine::QueryInfo& info) {
  const int64_t start = NowNanos();
  inner_->OnQueryRollback(info);
  RecordHook(SpanKind::kQueryRollback, start);
}

void HookTracer::OnTransactionBegin(uint64_t session_id,
                                    sqlcm::txn::TxnId txn_id) {
  const int64_t start = NowNanos();
  inner_->OnTransactionBegin(session_id, txn_id);
  RecordHook(SpanKind::kTxnBegin, start);
}

void HookTracer::OnTransactionCommit(uint64_t session_id,
                                     sqlcm::txn::TxnId txn_id,
                                     int64_t duration_micros) {
  const int64_t start = NowNanos();
  inner_->OnTransactionCommit(session_id, txn_id, duration_micros);
  RecordHook(SpanKind::kTxnCommit, start);
}

void HookTracer::OnTransactionRollback(uint64_t session_id,
                                       sqlcm::txn::TxnId txn_id,
                                       int64_t duration_micros) {
  const int64_t start = NowNanos();
  inner_->OnTransactionRollback(session_id, txn_id, duration_micros);
  RecordHook(SpanKind::kTxnRollback, start);
}

sqlcm::txn::LockEventObserver* HookTracer::lock_event_observer() {
  return inner_observer_ != nullptr ? this : nullptr;
}

void HookTracer::OnBlocked(sqlcm::txn::TxnId blocked,
                           sqlcm::txn::TxnId blocker,
                           const sqlcm::txn::ResourceId& resource) {
  const int64_t start = NowNanos();
  inner_observer_->OnBlocked(blocked, blocker, resource);
  RecordHook(SpanKind::kBlocked, start);
}

void HookTracer::OnBlockReleased(sqlcm::txn::TxnId blocked,
                                 sqlcm::txn::TxnId blocker,
                                 const sqlcm::txn::ResourceId& resource,
                                 int64_t wait_micros) {
  const int64_t start = NowNanos();
  inner_observer_->OnBlockReleased(blocked, blocker, resource, wait_micros);
  RecordHook(SpanKind::kBlockReleased, start);
  Local().block_wait_micros += wait_micros;
}

HookTracer::Summary HookTracer::Summarize() const {
  Summary out;
  std::lock_guard<std::mutex> lock(buffers_mutex_);
  std::vector<std::pair<int64_t, int64_t>> children;
  for (const auto& buf : buffers_) {
    out.block_wait_micros += buf->block_wait_micros;
    out.optimize_micros += buf->optimize_micros;
    // A statement's children precede it in its thread's buffer: they are
    // recorded as each hook returns, the statement when Execute returns.
    children.clear();
    for (const Span& span : buf->spans) {
      const auto k = static_cast<size_t>(span.kind);
      out.count[k]++;
      out.nanos[k] += span.end_ns - span.start_ns;
      if (IsHookSpan(span.kind)) {
        out.hook_nanos += span.end_ns - span.start_ns;
        if (span.parent_id != 0) children.emplace_back(span.start_ns,
                                                       span.end_ns);
        continue;
      }
      if (span.kind != SpanKind::kStatement) continue;
      const int64_t wall = span.end_ns - span.start_ns;
      const int64_t covered = Coverage(&children);
      children.clear();
      out.statements++;
      out.statement_nanos += wall;
      out.statement_self_nanos += wall - covered;
      if (covered > wall) out.hook_exceeds_wall++;
    }
  }
  return out;
}

Status HookTracer::WriteSpans(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::IOError("cannot open " + path);
  std::fprintf(f, "kind,span_id,parent_id,start_ns,end_ns\n");
  std::lock_guard<std::mutex> lock(buffers_mutex_);
  for (const auto& buf : buffers_) {
    for (const Span& span : buf->spans) {
      std::fprintf(f, "%s,%llu,%llu,%lld,%lld\n", SpanKindName(span.kind),
                   static_cast<unsigned long long>(span.span_id),
                   static_cast<unsigned long long>(span.parent_id),
                   static_cast<long long>(span.start_ns),
                   static_cast<long long>(span.end_ns));
    }
  }
  if (std::fclose(f) != 0) return Status::IOError("cannot write " + path);
  return Status::OK();
}

}  // namespace perfbench
