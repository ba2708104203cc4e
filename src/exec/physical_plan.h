// Physical (execution) plans produced by the optimizer.
//
// A PhysicalPlan is immutable, shareable data: plan-cache entries hold one
// plan that many executions interpret concurrently (each execution carries
// its own runtime state). The physical plan signature (paper §4.2) is
// computed from this tree.
#ifndef SQLCM_EXEC_PHYSICAL_PLAN_H_
#define SQLCM_EXEC_PHYSICAL_PLAN_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "exec/expression.h"
#include "exec/logical_plan.h"
#include "exec/row_schema.h"
#include "storage/table.h"

namespace sqlcm::exec {

enum class PhysOp : uint8_t {
  kSeqScan,
  kIndexSeek,    // equality on a key prefix
  kIndexRange,   // range on the first key column
  kFilter,
  kProject,
  kNestedLoopJoin,
  kIndexNLJoin,  // per outer row, index seek into the inner table
  kHashJoin,
  kHashAggregate,
  kSort,
  kLimit,
  kDistinct,
  kInsert,
  kUpdate,
  kDelete,
};

const char* PhysOpName(PhysOp op);

/// One operator of a physical plan. Common fields are inline; operands
/// that only some operator kinds use live out of line and are allocated by
/// those kinds alone, so a cached plan's nodes cost what their operators
/// need (a plan cache holds thousands of plans).
struct PhysicalPlan {
  using ExprList = std::vector<std::unique_ptr<BoundExpr>>;

  /// Access path into `table`: kIndexSeek / kIndexRange (and the same
  /// operands folded into kUpdate / kDelete), kIndexNLJoin's inner seek.
  struct Access {
    std::string index_name;  // empty = primary (clustered) index
    /// kIndexSeek: equality values for a key prefix. Constant expressions,
    /// except in kIndexNLJoin where they are bound against the OUTER schema.
    ExprList seek_exprs;
    /// kIndexRange: bounds on the first key column (constants; may be null).
    std::unique_ptr<BoundExpr> range_lo;
    std::unique_ptr<BoundExpr> range_hi;
  };

  /// kHashJoin equality keys (left over the left schema, right over the
  /// right one).
  struct HashKeys {
    ExprList left_keys;
    ExprList right_keys;
  };

  /// kHashAggregate.
  struct Aggregation {
    ExprList group_exprs;
    std::vector<AggSpec> aggregates;
  };

  /// kInsert rows; kUpdate assignments.
  struct Modification {
    std::vector<ExprList> insert_rows;
    std::vector<std::pair<size_t, std::unique_ptr<BoundExpr>>> assignments;
  };

  PhysOp op;
  RowSchema output;  // shared with identical layouts once interned
  std::vector<std::unique_ptr<PhysicalPlan>> children;

  // Optimizer estimates (Query.Estimated_Cost probes the root's est_cost).
  double est_rows = 0;
  double est_cost = 0;

  // Scans, kIndexNLJoin's inner table and DML targets.
  storage::Table* table = nullptr;

  // kFilter / scan and join residuals / DML WHERE (conjuncts over this
  // node's input; for joins, over the concatenated left++right schema).
  ExprList predicates;

  // kProject (output names are in `output`)
  ExprList project_exprs;

  // kSort
  std::vector<SortKey> sort_keys;

  // kLimit
  int64_t limit = -1;

  // Out-of-line operands (null unless this operator kind uses them).
  std::unique_ptr<Access> access;
  std::unique_ptr<HashKeys> hash_keys;
  std::unique_ptr<Aggregation> aggregation;
  std::unique_ptr<Modification> modification;

  /// The operand groups, allocated on first use (plan construction).
  Access& MutableAccess();
  HashKeys& MutableHashKeys();
  Aggregation& MutableAggregation();
  Modification& MutableModification();

  /// Statement kind ("SELECT"/"INSERT"/"UPDATE"/"DELETE").
  const char* StatementType() const;

  /// Canonical linearization for the physical plan signature: operator
  /// names, access paths (table + index), and argument expressions with
  /// constants wildcarded when requested. Conjunct lists are sorted.
  void AppendSignature(bool wildcard_constants, std::string* out) const;

  /// Indented operator-tree rendering (EXPLAIN-style) for diagnostics.
  std::string Explain() const;

  /// Shares every node's output layout with identical layouts of other
  /// plans (RowSchema::Intern); run once before the plan is cached.
  void InternLayouts();
};

}  // namespace sqlcm::exec

#endif  // SQLCM_EXEC_PHYSICAL_PLAN_H_
