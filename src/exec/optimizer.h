// Cost-based optimizer: logical plan -> physical plan.
//
// Scope (documented in DESIGN.md): access-path selection (clustered/
// secondary index seek, first-column range, sequential scan), predicate
// pushdown through left-deep join trees, and join-algorithm choice
// (index nested-loop, hash, nested-loop). No join reordering.
#ifndef SQLCM_EXEC_OPTIMIZER_H_
#define SQLCM_EXEC_OPTIMIZER_H_

#include <memory>

#include "exec/logical_plan.h"
#include "exec/physical_plan.h"

namespace sqlcm::exec {

class Optimizer {
 public:
  struct Options {
    /// Ablation switch: disable the join-order enumerator and keep the
    /// user-written join order (bench/bench_join_ordering.cc measures the
    /// difference).
    bool enable_join_reordering = true;
  };

  Optimizer() = default;
  explicit Optimizer(Options options) : options_(options) {}

  /// Produces a physical plan. The logical plan is not consumed: the
  /// physical plan owns copies of everything it needs, so callers may free
  /// the logical plan afterwards (plan-cache entries keep only the
  /// physical plan).
  common::Result<std::unique_ptr<PhysicalPlan>> Optimize(
      const LogicalPlan& logical);

 private:
  using ExprVec = std::vector<std::unique_ptr<BoundExpr>>;

  /// Optimizes a relational subtree (Get/Filter/Join) with predicates
  /// pushed down from above (bound against `rel`'s output schema).
  common::Result<std::unique_ptr<PhysicalPlan>> OptimizeRel(
      const LogicalPlan& rel, ExprVec preds);

  /// Picks the access path for one base table given conjuncts over its
  /// schema; wraps residual conjuncts in a Filter node.
  common::Result<std::unique_ptr<PhysicalPlan>> ChooseAccessPath(
      const LogicalPlan& get, ExprVec conjuncts);

  /// Join optimization: flattens the join tree and runs Selinger-style
  /// left-deep dynamic programming over relation orders (up to
  /// kMaxDpRelations); larger queries fall back to the pairwise path that
  /// keeps the user-written order.
  common::Result<std::unique_ptr<PhysicalPlan>> OptimizeJoin(
      const LogicalPlan& join, ExprVec preds);

  /// Pairwise fallback: joins children in the order written.
  common::Result<std::unique_ptr<PhysicalPlan>> PairwiseJoin(
      const LogicalPlan& join, ExprVec preds);

  static constexpr size_t kMaxDpRelations = 8;

  Options options_;
};

}  // namespace sqlcm::exec

#endif  // SQLCM_EXEC_OPTIMIZER_H_
