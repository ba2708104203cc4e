#include "exec/executor.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

namespace sqlcm::exec {

using common::Result;
using common::Row;
using common::Status;
using common::Value;

namespace {

Status LockOutcomeToStatus(txn::LockOutcome outcome) {
  switch (outcome) {
    case txn::LockOutcome::kGranted:
      return Status::OK();
    case txn::LockOutcome::kDeadlock:
      return Status::Deadlock("transaction chosen as deadlock victim");
    case txn::LockOutcome::kCancelled:
      return Status::Cancelled("query cancelled while waiting for a lock");
    case txn::LockOutcome::kTimeout:
      return Status::Aborted("lock wait timeout");
  }
  return Status::Internal("unknown lock outcome");
}

Status AcquireRowLock(ExecContext* ctx, const storage::Table& table,
                      const Row& key, txn::LockMode mode) {
  txn::ResourceId resource{table.table_id(), key};
  return LockOutcomeToStatus(
      ctx->locks->Acquire(ctx->txn->id(), resource, mode,
                          ctx->txn->cancelled_flag(),
                          ctx->lock_timeout_micros));
}

Status CheckCancelled(const ExecContext& ctx) {
  if (ctx.txn != nullptr && ctx.txn->cancelled()) {
    return Status::Cancelled("query cancelled");
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Iterator operators
// ---------------------------------------------------------------------------

class Operator {
 public:
  virtual ~Operator() = default;
  virtual Status Open() = 0;
  /// Produces the next row into *row; Result is false at end of stream.
  virtual Result<bool> Next(Row* row) = 0;
};

Result<std::unique_ptr<Operator>> BuildOperator(const PhysicalPlan& plan,
                                                ExecContext* ctx);

/// Base for operators that materialize (key,row) pairs from a table access
/// and then emit the rows.
class ScanBase : public Operator {
 public:
  ScanBase(const PhysicalPlan& plan, ExecContext* ctx)
      : plan_(plan), ctx_(ctx) {}

  Result<bool> Next(Row* row) override {
    while (pos_ < rows_.size()) {
      SQLCM_RETURN_IF_ERROR(CheckCancelled(*ctx_));
      const size_t i = pos_++;
      ++ctx_->rows_scanned;
      if (ctx_->lock_rows_for_reads) {
        SQLCM_RETURN_IF_ERROR(AcquireRowLock(ctx_, *plan_.table, keys_[i],
                                             txn::LockMode::kShared));
      }
      *row = rows_[i];
      return true;
    }
    return false;
  }

 protected:
  const PhysicalPlan& plan_;
  ExecContext* ctx_;
  std::vector<Row> keys_;
  std::vector<Row> rows_;
  size_t pos_ = 0;
};

class SeqScanOp final : public ScanBase {
 public:
  using ScanBase::ScanBase;
  Status Open() override {
    // Batched copy-out; the table latch is released between batches.
    std::optional<Row> after;
    std::vector<Row> batch_keys, batch_rows;
    for (;;) {
      SQLCM_RETURN_IF_ERROR(CheckCancelled(*ctx_));
      batch_keys.clear();
      batch_rows.clear();
      if (plan_.table->ScanBatch(after, 1024, &batch_keys, &batch_rows) == 0) {
        break;
      }
      after = batch_keys.back();
      for (size_t i = 0; i < batch_keys.size(); ++i) {
        keys_.push_back(std::move(batch_keys[i]));
        rows_.push_back(std::move(batch_rows[i]));
      }
    }
    return Status::OK();
  }
};

class IndexSeekOp final : public ScanBase {
 public:
  using ScanBase::ScanBase;
  Status Open() override {
    Row prefix;
    const PhysicalPlan::Access& access = *plan_.access;
    prefix.reserve(access.seek_exprs.size());
    for (const auto& e : access.seek_exprs) {
      SQLCM_ASSIGN_OR_RETURN(Value v, e->Eval({}, ctx_->params));
      prefix.push_back(std::move(v));
    }
    return plan_.table->IndexPrefixLookup(access.index_name, prefix, &keys_,
                                          &rows_);
  }
};

class IndexRangeOp final : public ScanBase {
 public:
  using ScanBase::ScanBase;
  Status Open() override {
    const PhysicalPlan::Access& access = *plan_.access;
    std::optional<Value> lo, hi;
    if (access.range_lo != nullptr) {
      SQLCM_ASSIGN_OR_RETURN(Value v, access.range_lo->Eval({}, ctx_->params));
      lo = std::move(v);
    }
    if (access.range_hi != nullptr) {
      SQLCM_ASSIGN_OR_RETURN(Value v, access.range_hi->Eval({}, ctx_->params));
      hi = std::move(v);
    }
    return plan_.table->IndexRangeLookup(access.index_name, lo, hi, &keys_,
                                         &rows_);
  }
};

class FilterOp final : public Operator {
 public:
  FilterOp(const PhysicalPlan& plan, ExecContext* ctx,
           std::unique_ptr<Operator> child)
      : plan_(plan), ctx_(ctx), child_(std::move(child)) {}

  Status Open() override { return child_->Open(); }

  Result<bool> Next(Row* row) override {
    for (;;) {
      SQLCM_ASSIGN_OR_RETURN(bool has, child_->Next(row));
      if (!has) return false;
      bool pass = true;
      for (const auto& pred : plan_.predicates) {
        SQLCM_ASSIGN_OR_RETURN(pass, pred->EvalBool(*row, ctx_->params));
        if (!pass) break;
      }
      if (pass) return true;
    }
  }

 private:
  const PhysicalPlan& plan_;
  ExecContext* ctx_;
  std::unique_ptr<Operator> child_;
};

class ProjectOp final : public Operator {
 public:
  ProjectOp(const PhysicalPlan& plan, ExecContext* ctx,
            std::unique_ptr<Operator> child)
      : plan_(plan), ctx_(ctx), child_(std::move(child)) {}

  Status Open() override { return child_->Open(); }

  Result<bool> Next(Row* row) override {
    Row input;
    SQLCM_ASSIGN_OR_RETURN(bool has, child_->Next(&input));
    if (!has) return false;
    row->clear();
    row->reserve(plan_.project_exprs.size());
    for (const auto& e : plan_.project_exprs) {
      SQLCM_ASSIGN_OR_RETURN(Value v, e->Eval(input, ctx_->params));
      row->push_back(std::move(v));
    }
    return true;
  }

 private:
  const PhysicalPlan& plan_;
  ExecContext* ctx_;
  std::unique_ptr<Operator> child_;
};

class NestedLoopJoinOp final : public Operator {
 public:
  NestedLoopJoinOp(const PhysicalPlan& plan, ExecContext* ctx,
                   std::unique_ptr<Operator> left,
                   std::unique_ptr<Operator> right)
      : plan_(plan), ctx_(ctx), left_(std::move(left)),
        right_(std::move(right)) {}

  Status Open() override {
    SQLCM_RETURN_IF_ERROR(left_->Open());
    SQLCM_RETURN_IF_ERROR(right_->Open());
    // Materialize the inner side once.
    Row row;
    for (;;) {
      auto has = right_->Next(&row);
      if (!has.ok()) return has.status();
      if (!*has) break;
      inner_.push_back(row);
    }
    return Status::OK();
  }

  Result<bool> Next(Row* row) override {
    for (;;) {
      SQLCM_RETURN_IF_ERROR(CheckCancelled(*ctx_));
      if (!outer_valid_) {
        SQLCM_ASSIGN_OR_RETURN(outer_valid_, left_->Next(&outer_));
        if (!outer_valid_) return false;
        inner_pos_ = 0;
      }
      while (inner_pos_ < inner_.size()) {
        const Row& inner = inner_[inner_pos_++];
        Row combined = outer_;
        combined.insert(combined.end(), inner.begin(), inner.end());
        bool pass = true;
        for (const auto& pred : plan_.predicates) {
          SQLCM_ASSIGN_OR_RETURN(pass, pred->EvalBool(combined, ctx_->params));
          if (!pass) break;
        }
        if (pass) {
          *row = std::move(combined);
          return true;
        }
      }
      outer_valid_ = false;
    }
  }

 private:
  const PhysicalPlan& plan_;
  ExecContext* ctx_;
  std::unique_ptr<Operator> left_;
  std::unique_ptr<Operator> right_;
  std::vector<Row> inner_;
  Row outer_;
  bool outer_valid_ = false;
  size_t inner_pos_ = 0;
};

class IndexNLJoinOp final : public Operator {
 public:
  IndexNLJoinOp(const PhysicalPlan& plan, ExecContext* ctx,
                std::unique_ptr<Operator> outer)
      : plan_(plan), ctx_(ctx), outer_op_(std::move(outer)) {}

  Status Open() override { return outer_op_->Open(); }

  Result<bool> Next(Row* row) override {
    for (;;) {
      SQLCM_RETURN_IF_ERROR(CheckCancelled(*ctx_));
      while (match_pos_ < matches_.size()) {
        const Row& inner = matches_[match_pos_++];
        Row combined = outer_;
        combined.insert(combined.end(), inner.begin(), inner.end());
        bool pass = true;
        for (const auto& pred : plan_.predicates) {
          SQLCM_ASSIGN_OR_RETURN(pass, pred->EvalBool(combined, ctx_->params));
          if (!pass) break;
        }
        if (pass) {
          *row = std::move(combined);
          return true;
        }
      }
      SQLCM_ASSIGN_OR_RETURN(bool has, outer_op_->Next(&outer_));
      if (!has) return false;
      // Seek the inner table with values computed from the outer row.
      Row prefix;
      prefix.reserve(plan_.access->seek_exprs.size());
      for (const auto& e : plan_.access->seek_exprs) {
        SQLCM_ASSIGN_OR_RETURN(Value v, e->Eval(outer_, ctx_->params));
        prefix.push_back(std::move(v));
      }
      matches_.clear();
      match_keys_.clear();
      match_pos_ = 0;
      SQLCM_RETURN_IF_ERROR(plan_.table->IndexPrefixLookup(
          plan_.access->index_name, prefix, &match_keys_, &matches_));
      ctx_->rows_scanned += matches_.size();
      if (ctx_->lock_rows_for_reads) {
        for (const Row& key : match_keys_) {
          SQLCM_RETURN_IF_ERROR(
              AcquireRowLock(ctx_, *plan_.table, key, txn::LockMode::kShared));
        }
      }
    }
  }

 private:
  const PhysicalPlan& plan_;
  ExecContext* ctx_;
  std::unique_ptr<Operator> outer_op_;
  Row outer_;
  std::vector<Row> match_keys_;
  std::vector<Row> matches_;
  size_t match_pos_ = 0;
};

class HashJoinOp final : public Operator {
 public:
  HashJoinOp(const PhysicalPlan& plan, ExecContext* ctx,
             std::unique_ptr<Operator> left, std::unique_ptr<Operator> right)
      : plan_(plan), ctx_(ctx), left_(std::move(left)),
        right_(std::move(right)) {}

  Status Open() override {
    SQLCM_RETURN_IF_ERROR(left_->Open());
    SQLCM_RETURN_IF_ERROR(right_->Open());
    // Build side: right child.
    Row row;
    for (;;) {
      auto has = right_->Next(&row);
      if (!has.ok()) return has.status();
      if (!*has) break;
      Row key;
      key.reserve(plan_.hash_keys->right_keys.size());
      for (const auto& e : plan_.hash_keys->right_keys) {
        auto v = e->Eval(row, ctx_->params);
        if (!v.ok()) return v.status();
        key.push_back(std::move(*v));
      }
      build_[std::move(key)].push_back(row);
    }
    return Status::OK();
  }

  Result<bool> Next(Row* row) override {
    for (;;) {
      SQLCM_RETURN_IF_ERROR(CheckCancelled(*ctx_));
      while (bucket_ != nullptr && bucket_pos_ < bucket_->size()) {
        const Row& inner = (*bucket_)[bucket_pos_++];
        Row combined = outer_;
        combined.insert(combined.end(), inner.begin(), inner.end());
        bool pass = true;
        for (const auto& pred : plan_.predicates) {
          SQLCM_ASSIGN_OR_RETURN(pass, pred->EvalBool(combined, ctx_->params));
          if (!pass) break;
        }
        if (pass) {
          *row = std::move(combined);
          return true;
        }
      }
      SQLCM_ASSIGN_OR_RETURN(bool has, left_->Next(&outer_));
      if (!has) return false;
      Row key;
      key.reserve(plan_.hash_keys->left_keys.size());
      for (const auto& e : plan_.hash_keys->left_keys) {
        SQLCM_ASSIGN_OR_RETURN(Value v, e->Eval(outer_, ctx_->params));
        key.push_back(std::move(v));
      }
      auto it = build_.find(key);
      bucket_ = it == build_.end() ? nullptr : &it->second;
      bucket_pos_ = 0;
    }
  }

 private:
  const PhysicalPlan& plan_;
  ExecContext* ctx_;
  std::unique_ptr<Operator> left_;
  std::unique_ptr<Operator> right_;
  std::unordered_map<Row, std::vector<Row>, common::RowHasher, common::RowEq>
      build_;
  Row outer_;
  const std::vector<Row>* bucket_ = nullptr;
  size_t bucket_pos_ = 0;
};

/// Aggregation state for one (group, aggregate) cell.
struct AggState {
  int64_t count = 0;
  double sum = 0;
  bool any = false;
  Value min, max;
};

class HashAggregateOp final : public Operator {
 public:
  HashAggregateOp(const PhysicalPlan& plan, ExecContext* ctx,
                  std::unique_ptr<Operator> child)
      : plan_(plan), ctx_(ctx), child_(std::move(child)) {}

  Status Open() override {
    SQLCM_RETURN_IF_ERROR(child_->Open());
    const PhysicalPlan::ExprList& group_exprs =
        plan_.aggregation->group_exprs;
    const std::vector<AggSpec>& aggregates = plan_.aggregation->aggregates;
    Row row;
    std::unordered_map<Row, std::vector<AggState>, common::RowHasher,
                       common::RowEq>
        groups;
    for (;;) {
      auto has = child_->Next(&row);
      if (!has.ok()) return has.status();
      if (!*has) break;
      Row key;
      key.reserve(group_exprs.size());
      for (const auto& e : group_exprs) {
        auto v = e->Eval(row, ctx_->params);
        if (!v.ok()) return v.status();
        key.push_back(std::move(*v));
      }
      auto [it, inserted] =
          groups.try_emplace(std::move(key), aggregates.size());
      std::vector<AggState>& states = it->second;
      for (size_t a = 0; a < aggregates.size(); ++a) {
        const AggSpec& spec = aggregates[a];
        AggState& state = states[a];
        if (spec.star) {
          ++state.count;
          continue;
        }
        auto v = spec.arg->Eval(row, ctx_->params);
        if (!v.ok()) return v.status();
        if (v->is_null()) continue;  // SQL: NULLs ignored by aggregates
        ++state.count;
        if (v->is_numeric()) state.sum += v->AsDouble();
        if (!state.any || v->Compare(state.min) < 0) state.min = *v;
        if (!state.any || v->Compare(state.max) > 0) state.max = *v;
        state.any = true;
      }
    }
    // Global aggregation over empty input still yields one row.
    if (groups.empty() && group_exprs.empty()) {
      groups.try_emplace(Row{}, aggregates.size());
    }
    for (auto& [key, states] : groups) {
      Row out = key;
      for (size_t a = 0; a < aggregates.size(); ++a) {
        const AggSpec& spec = aggregates[a];
        const AggState& st = states[a];
        switch (spec.func) {
          case AggFunc::kCount:
            out.push_back(Value::Int(st.count));
            break;
          case AggFunc::kSum:
            out.push_back(st.count > 0 ? Value::Double(st.sum) : Value::Null());
            break;
          case AggFunc::kAvg:
            out.push_back(st.count > 0
                              ? Value::Double(st.sum /
                                              static_cast<double>(st.count))
                              : Value::Null());
            break;
          case AggFunc::kMin:
            out.push_back(st.any ? st.min : Value::Null());
            break;
          case AggFunc::kMax:
            out.push_back(st.any ? st.max : Value::Null());
            break;
        }
      }
      results_.push_back(std::move(out));
    }
    return Status::OK();
  }

  Result<bool> Next(Row* row) override {
    if (pos_ >= results_.size()) return false;
    *row = std::move(results_[pos_++]);
    return true;
  }

 private:
  const PhysicalPlan& plan_;
  ExecContext* ctx_;
  std::unique_ptr<Operator> child_;
  std::vector<Row> results_;
  size_t pos_ = 0;
};

class SortOp final : public Operator {
 public:
  SortOp(const PhysicalPlan& plan, ExecContext* ctx,
         std::unique_ptr<Operator> child)
      : plan_(plan), ctx_(ctx), child_(std::move(child)) {}

  Status Open() override {
    SQLCM_RETURN_IF_ERROR(child_->Open());
    Row row;
    for (;;) {
      auto has = child_->Next(&row);
      if (!has.ok()) return has.status();
      if (!*has) break;
      rows_.push_back(std::move(row));
    }
    // Precompute sort keys per row to keep the comparator cheap and
    // error-free.
    std::vector<std::pair<Row, size_t>> keyed;
    keyed.reserve(rows_.size());
    for (size_t i = 0; i < rows_.size(); ++i) {
      Row key;
      key.reserve(plan_.sort_keys.size());
      for (const auto& sk : plan_.sort_keys) {
        auto v = sk.expr->Eval(rows_[i], ctx_->params);
        if (!v.ok()) return v.status();
        key.push_back(std::move(*v));
      }
      keyed.emplace_back(std::move(key), i);
    }
    const auto& sort_keys = plan_.sort_keys;
    std::stable_sort(keyed.begin(), keyed.end(),
                     [&sort_keys](const auto& a, const auto& b) {
                       for (size_t k = 0; k < sort_keys.size(); ++k) {
                         int c = a.first[k].Compare(b.first[k]);
                         if (sort_keys[k].descending) c = -c;
                         if (c != 0) return c < 0;
                       }
                       return false;
                     });
    std::vector<Row> sorted;
    sorted.reserve(rows_.size());
    for (const auto& [key, idx] : keyed) sorted.push_back(std::move(rows_[idx]));
    rows_ = std::move(sorted);
    return Status::OK();
  }

  Result<bool> Next(Row* row) override {
    if (pos_ >= rows_.size()) return false;
    *row = std::move(rows_[pos_++]);
    return true;
  }

 private:
  const PhysicalPlan& plan_;
  ExecContext* ctx_;
  std::unique_ptr<Operator> child_;
  std::vector<Row> rows_;
  size_t pos_ = 0;
};

class DistinctOp final : public Operator {
 public:
  explicit DistinctOp(std::unique_ptr<Operator> child)
      : child_(std::move(child)) {}

  Status Open() override { return child_->Open(); }

  Result<bool> Next(Row* row) override {
    for (;;) {
      SQLCM_ASSIGN_OR_RETURN(bool has, child_->Next(row));
      if (!has) return false;
      if (seen_.insert(*row).second) return true;
    }
  }

 private:
  std::unique_ptr<Operator> child_;
  std::unordered_set<Row, common::RowHasher, common::RowEq> seen_;
};

class LimitOp final : public Operator {
 public:
  LimitOp(const PhysicalPlan& plan, std::unique_ptr<Operator> child)
      : plan_(plan), child_(std::move(child)) {}

  Status Open() override { return child_->Open(); }

  Result<bool> Next(Row* row) override {
    if (emitted_ >= plan_.limit) return false;
    SQLCM_ASSIGN_OR_RETURN(bool has, child_->Next(row));
    if (!has) return false;
    ++emitted_;
    return true;
  }

 private:
  const PhysicalPlan& plan_;
  std::unique_ptr<Operator> child_;
  int64_t emitted_ = 0;
};

Result<std::unique_ptr<Operator>> BuildOperator(const PhysicalPlan& plan,
                                                ExecContext* ctx) {
  switch (plan.op) {
    case PhysOp::kSeqScan:
      return std::unique_ptr<Operator>(new SeqScanOp(plan, ctx));
    case PhysOp::kIndexSeek:
      return std::unique_ptr<Operator>(new IndexSeekOp(plan, ctx));
    case PhysOp::kIndexRange:
      return std::unique_ptr<Operator>(new IndexRangeOp(plan, ctx));
    case PhysOp::kFilter: {
      SQLCM_ASSIGN_OR_RETURN(auto child, BuildOperator(*plan.children[0], ctx));
      return std::unique_ptr<Operator>(
          new FilterOp(plan, ctx, std::move(child)));
    }
    case PhysOp::kProject: {
      SQLCM_ASSIGN_OR_RETURN(auto child, BuildOperator(*plan.children[0], ctx));
      return std::unique_ptr<Operator>(
          new ProjectOp(plan, ctx, std::move(child)));
    }
    case PhysOp::kNestedLoopJoin: {
      SQLCM_ASSIGN_OR_RETURN(auto left, BuildOperator(*plan.children[0], ctx));
      SQLCM_ASSIGN_OR_RETURN(auto right, BuildOperator(*plan.children[1], ctx));
      return std::unique_ptr<Operator>(
          new NestedLoopJoinOp(plan, ctx, std::move(left), std::move(right)));
    }
    case PhysOp::kIndexNLJoin: {
      SQLCM_ASSIGN_OR_RETURN(auto outer, BuildOperator(*plan.children[0], ctx));
      return std::unique_ptr<Operator>(
          new IndexNLJoinOp(plan, ctx, std::move(outer)));
    }
    case PhysOp::kHashJoin: {
      SQLCM_ASSIGN_OR_RETURN(auto left, BuildOperator(*plan.children[0], ctx));
      SQLCM_ASSIGN_OR_RETURN(auto right, BuildOperator(*plan.children[1], ctx));
      return std::unique_ptr<Operator>(
          new HashJoinOp(plan, ctx, std::move(left), std::move(right)));
    }
    case PhysOp::kHashAggregate: {
      SQLCM_ASSIGN_OR_RETURN(auto child, BuildOperator(*plan.children[0], ctx));
      return std::unique_ptr<Operator>(
          new HashAggregateOp(plan, ctx, std::move(child)));
    }
    case PhysOp::kSort: {
      SQLCM_ASSIGN_OR_RETURN(auto child, BuildOperator(*plan.children[0], ctx));
      return std::unique_ptr<Operator>(new SortOp(plan, ctx, std::move(child)));
    }
    case PhysOp::kLimit: {
      SQLCM_ASSIGN_OR_RETURN(auto child, BuildOperator(*plan.children[0], ctx));
      return std::unique_ptr<Operator>(new LimitOp(plan, std::move(child)));
    }
    case PhysOp::kDistinct: {
      SQLCM_ASSIGN_OR_RETURN(auto child, BuildOperator(*plan.children[0], ctx));
      return std::unique_ptr<Operator>(new DistinctOp(std::move(child)));
    }
    default:
      return Status::Internal("BuildOperator on DML node");
  }
}

// ---------------------------------------------------------------------------
// DML
// ---------------------------------------------------------------------------

Result<size_t> ExecuteInsert(const PhysicalPlan& plan, ExecContext* ctx) {
  size_t inserted = 0;
  for (const auto& row_exprs : plan.modification->insert_rows) {
    SQLCM_RETURN_IF_ERROR(CheckCancelled(*ctx));
    Row row;
    row.reserve(row_exprs.size());
    for (const auto& e : row_exprs) {
      SQLCM_ASSIGN_OR_RETURN(Value v, e->Eval({}, ctx->params));
      row.push_back(std::move(v));
    }
    if (plan.table->schema().has_primary_key()) {
      SQLCM_ASSIGN_OR_RETURN(Row validated,
                             plan.table->schema().ValidateRow(row));
      const Row key = plan.table->schema().KeyOf(validated);
      SQLCM_RETURN_IF_ERROR(
          AcquireRowLock(ctx, *plan.table, key, txn::LockMode::kExclusive));
      SQLCM_ASSIGN_OR_RETURN(Row stored_key,
                             plan.table->Insert(std::move(validated)));
      ctx->txn->LogInsert(plan.table->table_id(), stored_key);
    } else {
      SQLCM_ASSIGN_OR_RETURN(Row stored_key, plan.table->Insert(std::move(row)));
      // Fresh rowid: no conflict possible, lock after the fact for 2PL
      // consistency with updates/deletes.
      SQLCM_RETURN_IF_ERROR(AcquireRowLock(ctx, *plan.table, stored_key,
                                           txn::LockMode::kExclusive));
      ctx->txn->LogInsert(plan.table->table_id(), stored_key);
    }
    ++inserted;
  }
  return inserted;
}

/// Enumerates candidate (key, row) pairs for UPDATE/DELETE using the access
/// path folded into the DML node (children[0] is a marker carrying the
/// chosen access shape).
Status CollectDmlCandidates(const PhysicalPlan& plan, ExecContext* ctx,
                            std::vector<Row>* keys, std::vector<Row>* rows) {
  const PhysOp access = plan.children.empty() ? PhysOp::kSeqScan
                                              : plan.children[0]->op;
  switch (access) {
    case PhysOp::kIndexSeek: {
      Row prefix;
      for (const auto& e : plan.access->seek_exprs) {
        SQLCM_ASSIGN_OR_RETURN(Value v, e->Eval({}, ctx->params));
        prefix.push_back(std::move(v));
      }
      return plan.table->IndexPrefixLookup(plan.access->index_name, prefix,
                                           keys, rows);
    }
    case PhysOp::kIndexRange: {
      const PhysicalPlan::Access& path = *plan.access;
      std::optional<Value> lo, hi;
      if (path.range_lo != nullptr) {
        SQLCM_ASSIGN_OR_RETURN(Value v, path.range_lo->Eval({}, ctx->params));
        lo = std::move(v);
      }
      if (path.range_hi != nullptr) {
        SQLCM_ASSIGN_OR_RETURN(Value v, path.range_hi->Eval({}, ctx->params));
        hi = std::move(v);
      }
      return plan.table->IndexRangeLookup(path.index_name, lo, hi, keys, rows);
    }
    default: {
      std::optional<Row> after;
      std::vector<Row> bkeys, brows;
      for (;;) {
        SQLCM_RETURN_IF_ERROR(CheckCancelled(*ctx));
        bkeys.clear();
        brows.clear();
        if (plan.table->ScanBatch(after, 1024, &bkeys, &brows) == 0) break;
        after = bkeys.back();
        for (size_t i = 0; i < bkeys.size(); ++i) {
          keys->push_back(std::move(bkeys[i]));
          rows->push_back(std::move(brows[i]));
        }
      }
      return Status::OK();
    }
  }
}

/// Lock-then-recheck loop shared by UPDATE and DELETE: candidates were
/// collected without locks, so after acquiring the X lock the row is
/// re-read and the predicate re-verified (it may have changed or vanished).
Result<size_t> ExecuteUpdateOrDelete(const PhysicalPlan& plan,
                                     ExecContext* ctx) {
  std::vector<Row> keys, rows;
  SQLCM_RETURN_IF_ERROR(CollectDmlCandidates(plan, ctx, &keys, &rows));
  ctx->rows_scanned += rows.size();

  size_t affected = 0;
  for (size_t i = 0; i < keys.size(); ++i) {
    SQLCM_RETURN_IF_ERROR(CheckCancelled(*ctx));
    // Cheap pre-filter on the (possibly stale) candidate row to avoid
    // locking rows that obviously do not qualify.
    bool maybe = true;
    for (const auto& pred : plan.predicates) {
      SQLCM_ASSIGN_OR_RETURN(maybe, pred->EvalBool(rows[i], ctx->params));
      if (!maybe) break;
    }
    if (!maybe) continue;

    SQLCM_RETURN_IF_ERROR(
        AcquireRowLock(ctx, *plan.table, keys[i], txn::LockMode::kExclusive));
    auto current = plan.table->Get(keys[i]);
    if (!current.has_value()) continue;  // deleted before we locked
    bool pass = true;
    for (const auto& pred : plan.predicates) {
      SQLCM_ASSIGN_OR_RETURN(pass, pred->EvalBool(*current, ctx->params));
      if (!pass) break;
    }
    if (!pass) continue;

    if (plan.op == PhysOp::kDelete) {
      SQLCM_ASSIGN_OR_RETURN(Row old_row, plan.table->Delete(keys[i]));
      ctx->txn->LogDelete(plan.table->table_id(), keys[i], std::move(old_row));
    } else {
      Row new_row = *current;
      for (const auto& [ordinal, expr] : plan.modification->assignments) {
        SQLCM_ASSIGN_OR_RETURN(Value v, expr->Eval(*current, ctx->params));
        new_row[ordinal] = std::move(v);
      }
      SQLCM_ASSIGN_OR_RETURN(Row old_row,
                             plan.table->Update(keys[i], std::move(new_row)));
      ctx->txn->LogUpdate(plan.table->table_id(), keys[i], std::move(old_row));
    }
    ++affected;
  }
  return affected;
}

}  // namespace

Result<QueryResult> Executor::Execute(const PhysicalPlan& plan,
                                      ExecContext* ctx) {
  QueryResult result;
  switch (plan.op) {
    case PhysOp::kInsert: {
      SQLCM_ASSIGN_OR_RETURN(result.rows_affected, ExecuteInsert(plan, ctx));
      return result;
    }
    case PhysOp::kUpdate:
    case PhysOp::kDelete: {
      SQLCM_ASSIGN_OR_RETURN(result.rows_affected,
                             ExecuteUpdateOrDelete(plan, ctx));
      return result;
    }
    default: {
      for (const auto& col : plan.output.columns()) {
        result.column_names.push_back(col.name);
      }
      SQLCM_ASSIGN_OR_RETURN(auto root, BuildOperator(plan, ctx));
      SQLCM_RETURN_IF_ERROR(root->Open());
      Row row;
      for (;;) {
        SQLCM_ASSIGN_OR_RETURN(bool has, root->Next(&row));
        if (!has) break;
        result.rows.push_back(std::move(row));
      }
      return result;
    }
  }
}

}  // namespace sqlcm::exec
