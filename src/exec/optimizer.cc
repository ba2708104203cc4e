#include "exec/optimizer.h"

#include <algorithm>
#include <cmath>
#include <functional>

namespace sqlcm::exec {

using common::Result;
using common::Status;

namespace {

// Selectivity guesses (no histograms; see DESIGN.md).
constexpr double kEqSelectivity = 0.05;
constexpr double kRangeSelectivity = 0.3;
constexpr double kFilterSelectivity = 0.2;
constexpr double kJoinSelectivity = 0.1;

/// If `pred` is `slot = const` (either side), returns the slot and clones
/// the constant side into *constant.
bool MatchEqConst(const BoundExpr& pred, size_t* slot,
                  std::unique_ptr<BoundExpr>* constant) {
  if (pred.kind() != BoundExpr::Kind::kBinary ||
      pred.binary_op() != sql::BinaryOp::kEq) {
    return false;
  }
  const BoundExpr* l = pred.left();
  const BoundExpr* r = pred.right();
  if (l->kind() == BoundExpr::Kind::kSlot && r->IsConstant()) {
    *slot = l->slot();
    *constant = r->CloneShifted(0);
    return true;
  }
  if (r->kind() == BoundExpr::Kind::kSlot && l->IsConstant()) {
    *slot = r->slot();
    *constant = l->CloneShifted(0);
    return true;
  }
  return false;
}

/// If `pred` is a range comparison between a slot and a constant, returns
/// the slot, the constant, and whether the constant is a lower bound for
/// the slot (slot > c / slot >= c / c < slot / c <= slot).
bool MatchRangeConst(const BoundExpr& pred, size_t* slot,
                     std::unique_ptr<BoundExpr>* constant, bool* is_lower) {
  if (pred.kind() != BoundExpr::Kind::kBinary) return false;
  const sql::BinaryOp op = pred.binary_op();
  if (op != sql::BinaryOp::kLt && op != sql::BinaryOp::kLe &&
      op != sql::BinaryOp::kGt && op != sql::BinaryOp::kGe) {
    return false;
  }
  const BoundExpr* l = pred.left();
  const BoundExpr* r = pred.right();
  const bool gt_like = op == sql::BinaryOp::kGt || op == sql::BinaryOp::kGe;
  if (l->kind() == BoundExpr::Kind::kSlot && r->IsConstant()) {
    *slot = l->slot();
    *constant = r->CloneShifted(0);
    *is_lower = gt_like;  // slot > c  => c is lower bound
    return true;
  }
  if (r->kind() == BoundExpr::Kind::kSlot && l->IsConstant()) {
    *slot = r->slot();
    *constant = l->CloneShifted(0);
    *is_lower = !gt_like;  // c > slot => c is upper bound
    return true;
  }
  return false;
}

/// [min_slot, max_slot] over every slot referenced; {-1,-1} if none.
std::pair<int, int> SlotRange(const BoundExpr& expr) {
  std::vector<size_t> slots;
  expr.CollectSlots(&slots);
  if (slots.empty()) return {-1, -1};
  const auto [mn, mx] = std::minmax_element(slots.begin(), slots.end());
  return {static_cast<int>(*mn), static_cast<int>(*mx)};
}

using ExprVec = std::vector<std::unique_ptr<BoundExpr>>;

std::unique_ptr<PhysicalPlan> WrapFilter(std::unique_ptr<PhysicalPlan> child,
                                         ExprVec residual) {
  if (residual.empty()) return child;
  auto filter = std::make_unique<PhysicalPlan>();
  filter->op = PhysOp::kFilter;
  filter->output = child->output;
  filter->predicates = std::move(residual);
  filter->est_rows = std::max(
      1.0, child->est_rows *
               std::pow(kFilterSelectivity,
                        static_cast<double>(filter->predicates.size())));
  filter->est_cost = child->est_cost + child->est_rows * 0.01;
  filter->children.push_back(std::move(child));
  return filter;
}

}  // namespace

Result<std::unique_ptr<PhysicalPlan>> Optimizer::Optimize(
    const LogicalPlan& logical) {
  switch (logical.op) {
    case LogicalOp::kGet:
    case LogicalOp::kFilter:
    case LogicalOp::kJoin:
      return OptimizeRel(logical, {});

    case LogicalOp::kProject: {
      SQLCM_ASSIGN_OR_RETURN(auto child, Optimize(*logical.children[0]));
      auto node = std::make_unique<PhysicalPlan>();
      node->op = PhysOp::kProject;
      node->output = logical.output;
      for (const auto& e : logical.project_exprs) {
        node->project_exprs.push_back(e->CloneShifted(0));
      }
      node->est_rows = child->est_rows;
      node->est_cost = child->est_cost + child->est_rows * 0.005;
      node->children.push_back(std::move(child));
      return node;
    }
    case LogicalOp::kAggregate: {
      SQLCM_ASSIGN_OR_RETURN(auto child, Optimize(*logical.children[0]));
      auto node = std::make_unique<PhysicalPlan>();
      node->op = PhysOp::kHashAggregate;
      node->output = logical.output;
      PhysicalPlan::Aggregation& aggregation = node->MutableAggregation();
      for (const auto& e : logical.group_exprs) {
        aggregation.group_exprs.push_back(e->CloneShifted(0));
      }
      for (const auto& spec : logical.aggregates) {
        AggSpec copy;
        copy.func = spec.func;
        copy.star = spec.star;
        copy.output_name = spec.output_name;
        if (spec.arg != nullptr) copy.arg = spec.arg->CloneShifted(0);
        aggregation.aggregates.push_back(std::move(copy));
      }
      node->est_rows =
          logical.group_exprs.empty() ? 1 : std::max(1.0, child->est_rows / 10);
      node->est_cost = child->est_cost + child->est_rows * 0.02;
      node->children.push_back(std::move(child));
      return node;
    }
    case LogicalOp::kSort: {
      SQLCM_ASSIGN_OR_RETURN(auto child, Optimize(*logical.children[0]));
      auto node = std::make_unique<PhysicalPlan>();
      node->op = PhysOp::kSort;
      node->output = logical.output;
      for (const auto& key : logical.sort_keys) {
        SortKey copy;
        copy.expr = key.expr->CloneShifted(0);
        copy.descending = key.descending;
        node->sort_keys.push_back(std::move(copy));
      }
      const double n = std::max(1.0, child->est_rows);
      node->est_rows = n;
      node->est_cost = child->est_cost + n * std::log2(n + 1) * 0.01;
      node->children.push_back(std::move(child));
      return node;
    }
    case LogicalOp::kDistinct: {
      SQLCM_ASSIGN_OR_RETURN(auto child, Optimize(*logical.children[0]));
      auto node = std::make_unique<PhysicalPlan>();
      node->op = PhysOp::kDistinct;
      node->output = logical.output;
      node->est_rows = std::max(1.0, child->est_rows / 2);
      node->est_cost = child->est_cost + child->est_rows * 0.02;
      node->children.push_back(std::move(child));
      return node;
    }
    case LogicalOp::kLimit: {
      SQLCM_ASSIGN_OR_RETURN(auto child, Optimize(*logical.children[0]));
      auto node = std::make_unique<PhysicalPlan>();
      node->op = PhysOp::kLimit;
      node->output = logical.output;
      node->limit = logical.limit;
      node->est_rows =
          std::min(child->est_rows, static_cast<double>(logical.limit));
      node->est_cost = child->est_cost;
      node->children.push_back(std::move(child));
      return node;
    }
    case LogicalOp::kInsert: {
      auto node = std::make_unique<PhysicalPlan>();
      node->op = PhysOp::kInsert;
      node->table = logical.table;
      auto& insert_rows = node->MutableModification().insert_rows;
      for (const auto& row : logical.insert_rows) {
        std::vector<std::unique_ptr<BoundExpr>> copy;
        copy.reserve(row.size());
        for (const auto& e : row) copy.push_back(e->CloneShifted(0));
        insert_rows.push_back(std::move(copy));
      }
      node->est_rows = static_cast<double>(insert_rows.size());
      node->est_cost = node->est_rows *
                       std::log2(logical.table->row_count() + 2.0) * 0.01;
      return node;
    }
    case LogicalOp::kUpdate:
    case LogicalOp::kDelete: {
      // Reuse access-path selection: build a synthetic Get for the target,
      // choose the path, then fold the scan fields into the DML node so the
      // executor can pair storage keys with qualifying rows.
      LogicalPlan get;
      get.op = LogicalOp::kGet;
      get.table = logical.table;
      get.alias = logical.alias;
      ExprVec preds;
      for (const auto& p : logical.predicates) {
        preds.push_back(p->CloneShifted(0));
      }
      SQLCM_ASSIGN_OR_RETURN(auto access,
                             ChooseAccessPath(get, std::move(preds)));
      auto node = std::make_unique<PhysicalPlan>();
      node->op = logical.op == LogicalOp::kUpdate ? PhysOp::kUpdate
                                                  : PhysOp::kDelete;
      node->table = logical.table;
      // Flatten Filter(Scan) / Scan into the DML node.
      PhysicalPlan* scan = access.get();
      if (scan->op == PhysOp::kFilter) {
        node->predicates = std::move(scan->predicates);
        scan = scan->children[0].get();
      }
      node->access = std::move(scan->access);  // null for a sequential scan
      // Remember which access shape was chosen via a child marker node.
      auto marker = std::make_unique<PhysicalPlan>();
      marker->op = scan->op;
      marker->table = logical.table;
      if (node->access != nullptr) {
        marker->MutableAccess().index_name = node->access->index_name;
      }
      marker->est_rows = scan->est_rows;
      marker->est_cost = scan->est_cost;
      node->est_rows = access->est_rows;
      node->est_cost = access->est_cost + access->est_rows * 0.05;
      node->children.push_back(std::move(marker));
      if (node->op == PhysOp::kUpdate) {
        auto& assignments = node->MutableModification().assignments;
        for (const auto& [ordinal, expr] : logical.assignments) {
          assignments.emplace_back(ordinal, expr->CloneShifted(0));
        }
      }
      return node;
    }
  }
  return Status::Internal("unhandled logical operator");
}

Result<std::unique_ptr<PhysicalPlan>> Optimizer::OptimizeRel(
    const LogicalPlan& rel, ExprVec preds) {
  switch (rel.op) {
    case LogicalOp::kGet:
      return ChooseAccessPath(rel, std::move(preds));
    case LogicalOp::kFilter: {
      for (const auto& p : rel.predicates) {
        preds.push_back(p->CloneShifted(0));
      }
      return OptimizeRel(*rel.children[0], std::move(preds));
    }
    case LogicalOp::kJoin:
      return OptimizeJoin(rel, std::move(preds));
    default:
      return Status::Internal(
          "OptimizeRel called on non-relational operator");
  }
}

Result<std::unique_ptr<PhysicalPlan>> Optimizer::PairwiseJoin(
    const LogicalPlan& join, ExprVec preds) {
  const LogicalPlan& left = *join.children[0];
  const LogicalPlan& right = *join.children[1];
  const int left_width = static_cast<int>(left.output.size());

  for (const auto& p : join.predicates) {
    preds.push_back(p->CloneShifted(0));
  }

  // Partition conjuncts by the side(s) they reference.
  ExprVec left_preds;
  ExprVec right_preds_shifted;  // for pushing into a standalone right scan
  ExprVec right_preds_combined;  // unshifted, for INLJ residual use
  ExprVec cross;
  for (auto& p : preds) {
    const auto [mn, mx] = SlotRange(*p);
    if (mx < left_width) {  // includes constant-only preds (mn = mx = -1)
      left_preds.push_back(std::move(p));
    } else if (mn >= left_width) {
      right_preds_shifted.push_back(p->CloneShifted(-left_width));
      right_preds_combined.push_back(std::move(p));
    } else {
      cross.push_back(std::move(p));
    }
  }

  SQLCM_ASSIGN_OR_RETURN(auto left_phys,
                         OptimizeRel(left, std::move(left_preds)));

  // --- Try index nested-loop: an equi-conjunct whose inner side is a slot
  // with an index (or clustered key) on it.
  if (right.op == LogicalOp::kGet) {
    for (size_t ci = 0; ci < cross.size(); ++ci) {
      const BoundExpr& p = *cross[ci];
      if (p.kind() != BoundExpr::Kind::kBinary ||
          p.binary_op() != sql::BinaryOp::kEq) {
        continue;
      }
      const BoundExpr* a = p.left();
      const BoundExpr* b = p.right();
      if (a->kind() != BoundExpr::Kind::kSlot ||
          b->kind() != BoundExpr::Kind::kSlot) {
        continue;
      }
      const BoundExpr* outer = nullptr;
      const BoundExpr* inner = nullptr;
      if (static_cast<int>(a->slot()) < left_width &&
          static_cast<int>(b->slot()) >= left_width) {
        outer = a;
        inner = b;
      } else if (static_cast<int>(b->slot()) < left_width &&
                 static_cast<int>(a->slot()) >= left_width) {
        outer = b;
        inner = a;
      } else {
        continue;
      }
      const size_t inner_col = inner->slot() - static_cast<size_t>(left_width);
      auto index = right.table->FindIndexOnColumn(inner_col);
      if (!index.has_value()) continue;

      auto node = std::make_unique<PhysicalPlan>();
      node->op = PhysOp::kIndexNLJoin;
      node->table = right.table;
      node->output = join.output;
      PhysicalPlan::Access& path = node->MutableAccess();
      path.index_name = *index;
      path.seek_exprs.push_back(outer->CloneShifted(0));
      // Residuals: remaining cross conjuncts + right-only conjuncts, all
      // over the combined schema.
      for (size_t cj = 0; cj < cross.size(); ++cj) {
        if (cj != ci) node->predicates.push_back(std::move(cross[cj]));
      }
      for (auto& rp : right_preds_combined) {
        node->predicates.push_back(std::move(rp));
      }
      const double inner_rows = std::max(
          1.0, static_cast<double>(right.table->row_count()) * kEqSelectivity);
      node->est_rows = std::max(1.0, left_phys->est_rows * inner_rows *
                                         (node->predicates.empty() ? 1.0
                                                                   : 0.5));
      node->est_cost =
          left_phys->est_cost +
          left_phys->est_rows *
              (std::log2(right.table->row_count() + 2.0) * 0.01 + inner_rows);
      node->children.push_back(std::move(left_phys));
      return node;
    }
  }

  // --- Hash join on equi-conjuncts with disjoint sides.
  ExprVec left_keys, right_keys, residual;
  for (auto& p : cross) {
    if (p == nullptr) continue;
    bool used = false;
    if (p->kind() == BoundExpr::Kind::kBinary &&
        p->binary_op() == sql::BinaryOp::kEq) {
      const auto [lmn, lmx] = SlotRange(*p->left());
      const auto [rmn, rmx] = SlotRange(*p->right());
      if (lmx < left_width && lmn >= 0 && rmn >= left_width) {
        left_keys.push_back(p->left()->CloneShifted(0));
        right_keys.push_back(p->right()->CloneShifted(-left_width));
        used = true;
      } else if (rmx < left_width && rmn >= 0 && lmn >= left_width) {
        left_keys.push_back(p->right()->CloneShifted(0));
        right_keys.push_back(p->left()->CloneShifted(-left_width));
        used = true;
      }
    }
    if (!used) residual.push_back(std::move(p));
  }

  SQLCM_ASSIGN_OR_RETURN(auto right_phys,
                         OptimizeRel(right, std::move(right_preds_shifted)));

  auto node = std::make_unique<PhysicalPlan>();
  node->output = join.output;
  if (!left_keys.empty()) {
    node->op = PhysOp::kHashJoin;
    PhysicalPlan::HashKeys& keys = node->MutableHashKeys();
    keys.left_keys = std::move(left_keys);
    keys.right_keys = std::move(right_keys);
    node->predicates = std::move(residual);
    node->est_rows = std::max(
        1.0, left_phys->est_rows * right_phys->est_rows * kJoinSelectivity *
                 kEqSelectivity);
    node->est_cost = left_phys->est_cost + right_phys->est_cost +
                     left_phys->est_rows + right_phys->est_rows;
  } else {
    node->op = PhysOp::kNestedLoopJoin;
    node->predicates = std::move(residual);
    node->est_rows = std::max(1.0, left_phys->est_rows *
                                       right_phys->est_rows *
                                       kJoinSelectivity);
    node->est_cost = left_phys->est_cost +
                     left_phys->est_rows * std::max(1.0, right_phys->est_cost);
  }
  node->children.push_back(std::move(left_phys));
  node->children.push_back(std::move(right_phys));
  return node;
}

Result<std::unique_ptr<PhysicalPlan>> Optimizer::ChooseAccessPath(
    const LogicalPlan& get, ExprVec conjuncts) {
  storage::Table* table = get.table;
  const double table_rows = static_cast<double>(table->row_count());

  // Equality candidates: column ordinal -> conjunct index.
  struct EqCandidate {
    size_t conjunct_idx;
    std::unique_ptr<BoundExpr> constant;
  };
  std::vector<std::pair<size_t, EqCandidate>> eq;  // (ordinal, candidate)
  for (size_t i = 0; i < conjuncts.size(); ++i) {
    size_t slot;
    std::unique_ptr<BoundExpr> constant;
    if (MatchEqConst(*conjuncts[i], &slot, &constant)) {
      eq.emplace_back(slot, EqCandidate{i, std::move(constant)});
    }
  }
  auto find_eq = [&eq](size_t ordinal) -> EqCandidate* {
    for (auto& [col, cand] : eq) {
      if (col == ordinal && cand.constant != nullptr) return &cand;
    }
    return nullptr;
  };

  // Longest usable key prefix per index; primary ("") first so ties prefer
  // the clustered index.
  struct PathChoice {
    std::string index_name;
    std::vector<size_t> prefix_cols;
    bool unique_full_key = false;
  };
  PathChoice best;
  auto consider = [&](const std::string& index_name,
                      const std::vector<size_t>& key_cols, bool can_be_unique) {
    std::vector<size_t> prefix;
    for (size_t col : key_cols) {
      if (find_eq(col) == nullptr) break;
      prefix.push_back(col);
    }
    if (prefix.size() > best.prefix_cols.size()) {
      best.index_name = index_name;
      best.prefix_cols = std::move(prefix);
      best.unique_full_key =
          can_be_unique && best.prefix_cols.size() == key_cols.size();
    }
  };
  if (table->schema().has_primary_key()) {
    consider("", table->schema().primary_key(), /*can_be_unique=*/true);
  }
  for (const auto& info : table->indexes()) {
    consider(info.name, info.columns, /*can_be_unique=*/false);
  }

  auto scan = std::make_unique<PhysicalPlan>();
  scan->table = table;
  scan->output = get.output;

  std::vector<bool> consumed(conjuncts.size(), false);
  if (!best.prefix_cols.empty()) {
    scan->op = PhysOp::kIndexSeek;
    PhysicalPlan::Access& path = scan->MutableAccess();
    path.index_name = best.index_name;
    for (size_t col : best.prefix_cols) {
      EqCandidate* cand = find_eq(col);
      path.seek_exprs.push_back(std::move(cand->constant));
      consumed[cand->conjunct_idx] = true;
    }
    scan->est_rows =
        best.unique_full_key
            ? 1.0
            : std::max(1.0, table_rows * std::pow(kEqSelectivity,
                                                  static_cast<double>(
                                                      best.prefix_cols.size())));
    scan->est_cost = std::log2(table_rows + 2.0) * 0.01 + scan->est_rows;
  } else {
    // Range on the first column of some index?
    struct RangeChoice {
      std::string index_name;
      std::unique_ptr<BoundExpr> lo, hi;
      bool found = false;
    };
    RangeChoice range;
    auto try_range_on = [&](const std::string& index_name, size_t first_col) {
      if (range.found) return;
      std::unique_ptr<BoundExpr> lo, hi;
      for (auto& c : conjuncts) {
        size_t slot;
        std::unique_ptr<BoundExpr> constant;
        bool is_lower;
        if (MatchRangeConst(*c, &slot, &constant, &is_lower) &&
            slot == first_col) {
          if (is_lower && lo == nullptr) lo = std::move(constant);
          else if (!is_lower && hi == nullptr) hi = std::move(constant);
        }
      }
      if (lo != nullptr || hi != nullptr) {
        range.index_name = index_name;
        range.lo = std::move(lo);
        range.hi = std::move(hi);
        range.found = true;
      }
    };
    if (table->schema().has_primary_key()) {
      try_range_on("", table->schema().primary_key()[0]);
    }
    for (const auto& info : table->indexes()) {
      try_range_on(info.name, info.columns[0]);
    }
    if (range.found) {
      scan->op = PhysOp::kIndexRange;
      PhysicalPlan::Access& path = scan->MutableAccess();
      path.index_name = range.index_name;
      path.range_lo = std::move(range.lo);
      path.range_hi = std::move(range.hi);
      const bool both = path.range_lo != nullptr && path.range_hi != nullptr;
      scan->est_rows = std::max(
          1.0, table_rows * (both ? kRangeSelectivity * kRangeSelectivity
                                  : kRangeSelectivity));
      scan->est_cost = std::log2(table_rows + 2.0) * 0.01 + scan->est_rows;
      // Range conjuncts stay as residuals for exact (strict) bounds.
    } else {
      scan->op = PhysOp::kSeqScan;
      scan->est_rows = std::max(1.0, table_rows);
      scan->est_cost = std::max(1.0, table_rows);
    }
  }

  ExprVec residual;
  for (size_t i = 0; i < conjuncts.size(); ++i) {
    if (!consumed[i] && conjuncts[i] != nullptr) {
      residual.push_back(std::move(conjuncts[i]));
    }
  }
  return WrapFilter(std::move(scan), std::move(residual));
}

// ---------------------------------------------------------------------------
// Join-order enumeration (Selinger-style left-deep dynamic programming)
// ---------------------------------------------------------------------------

namespace {

/// One base relation of a flattened join tree.
struct RelInfo {
  const LogicalPlan* get = nullptr;
  size_t offset = 0;  // slot offset in the original (as-written) layout
  size_t width = 0;
};

/// A predicate over the original layout plus the set of relations it
/// references.
struct TaggedPred {
  std::unique_ptr<BoundExpr> expr;  // original-layout slots
  uint32_t mask = 0;
};

/// Collects base relations and all join predicates of a join subtree.
/// Every predicate in the tree is bound against a prefix of the original
/// concatenated layout, so they share one slot space.
Status FlattenJoinTree(const LogicalPlan& node,
                       std::vector<const LogicalPlan*>* rels,
                       ExprVec* preds) {
  if (node.op == LogicalOp::kGet) {
    rels->push_back(&node);
    return Status::OK();
  }
  if (node.op == LogicalOp::kJoin) {
    SQLCM_RETURN_IF_ERROR(FlattenJoinTree(*node.children[0], rels, preds));
    SQLCM_RETURN_IF_ERROR(FlattenJoinTree(*node.children[1], rels, preds));
    for (const auto& p : node.predicates) preds->push_back(p->CloneShifted(0));
    return Status::OK();
  }
  return Status::Internal("unexpected operator inside a join tree");
}

/// Relation index owning an original-layout slot.
size_t OwnerRelation(const std::vector<RelInfo>& rels, size_t slot) {
  for (size_t i = 0; i < rels.size(); ++i) {
    if (slot >= rels[i].offset && slot < rels[i].offset + rels[i].width) {
      return i;
    }
  }
  return rels.size();  // unreachable for well-formed plans
}

uint32_t PredMask(const std::vector<RelInfo>& rels, const BoundExpr& expr) {
  std::vector<size_t> slots;
  expr.CollectSlots(&slots);
  uint32_t mask = 0;
  for (size_t slot : slots) {
    mask |= 1u << OwnerRelation(rels, slot);
  }
  return mask;
}

/// Slot mapping original-layout -> candidate layout for a relation order.
std::vector<int> LayoutMapping(const std::vector<RelInfo>& rels,
                               const std::vector<size_t>& order,
                               size_t total_width) {
  std::vector<int> mapping(total_width, -1);
  size_t cursor = 0;
  for (size_t rel : order) {
    for (size_t k = 0; k < rels[rel].width; ++k) {
      mapping[rels[rel].offset + k] = static_cast<int>(cursor + k);
    }
    cursor += rels[rel].width;
  }
  return mapping;
}

enum class JoinAlgo : uint8_t { kIndexNL, kHash, kNestedLoop };

/// Cost/row estimates (and, when `build`, the physical node) for joining
/// `left` with base relation `rel_idx`. `eligible` are the join conjuncts
/// applied at this step (original layout); `inner_single` are the inner
/// relation's single-relation conjuncts (original layout) that become
/// residuals when the inner side is accessed by index seek.
struct JoinStep {
  JoinAlgo algo = JoinAlgo::kNestedLoop;
  double cost = 0;
  double rows = 0;
  std::unique_ptr<PhysicalPlan> plan;  // only when build
};

}  // namespace

Result<std::unique_ptr<PhysicalPlan>> Optimizer::OptimizeJoin(
    const LogicalPlan& join, ExprVec preds) {
  std::vector<const LogicalPlan*> rel_nodes;
  ExprVec all_preds = std::move(preds);
  SQLCM_RETURN_IF_ERROR(FlattenJoinTree(join, &rel_nodes, &all_preds));
  const size_t n = rel_nodes.size();
  if (!options_.enable_join_reordering || n < 2 || n > kMaxDpRelations) {
    // Fallback keeps the user-written order. all_preds contains flattened
    // copies of the join-tree conjuncts, which PairwiseJoin re-derives from
    // the tree itself; applying a conjunct twice is semantically a no-op,
    // so simply hand everything down.
    return PairwiseJoin(join, std::move(all_preds));
  }

  std::vector<RelInfo> rels(n);
  size_t total_width = 0;
  for (size_t i = 0; i < n; ++i) {
    rels[i].get = rel_nodes[i];
    rels[i].offset = total_width;
    rels[i].width = rel_nodes[i]->output.size();
    total_width += rels[i].width;
  }

  // Classify predicates.
  std::vector<ExprVec> single_rel(n);  // original layout
  std::vector<TaggedPred> join_preds;
  ExprVec const_preds;
  for (auto& p : all_preds) {
    const uint32_t mask = PredMask(rels, *p);
    const int bits = __builtin_popcount(mask);
    if (bits == 0) {
      const_preds.push_back(std::move(p));
    } else if (bits == 1) {
      const size_t rel = static_cast<size_t>(__builtin_ctz(mask));
      single_rel[rel].push_back(std::move(p));
    } else {
      join_preds.push_back({std::move(p), mask});
    }
  }

  // Base access paths (estimates now; plans consumed during reconstruction).
  std::vector<std::unique_ptr<PhysicalPlan>> base_plans(n);
  std::vector<double> base_cost(n), base_rows(n);
  for (size_t i = 0; i < n; ++i) {
    ExprVec local;
    for (const auto& p : single_rel[i]) {
      local.push_back(p->CloneShifted(-static_cast<int>(rels[i].offset)));
    }
    SQLCM_ASSIGN_OR_RETURN(base_plans[i],
                           ChooseAccessPath(*rels[i].get, std::move(local)));
    base_cost[i] = base_plans[i]->est_cost;
    base_rows[i] = base_plans[i]->est_rows;
  }

  // Evaluates (or builds) the step joining `left_order` with relation `i`.
  auto EvaluateStep = [&](const std::vector<size_t>& left_order,
                          double left_cost, double left_rows, size_t i,
                          uint32_t subset_mask, bool build,
                          std::unique_ptr<PhysicalPlan> left_plan)
      -> Result<JoinStep> {
    JoinStep step;
    // Candidate layout = left_order ++ [i].
    std::vector<size_t> order = left_order;
    order.push_back(i);
    const std::vector<int> mapping = LayoutMapping(rels, order, total_width);

    // Conjuncts applied at this step: they touch relation i and only
    // relations inside the subset.
    std::vector<const TaggedPred*> eligible;
    for (const TaggedPred& tp : join_preds) {
      if ((tp.mask & (1u << i)) == 0) continue;
      if ((tp.mask & ~subset_mask) != 0) continue;
      eligible.push_back(&tp);
    }

    // Try index nested-loop: an equi-conjunct slot(outer) = slot(inner)
    // where the inner column has an index.
    const TaggedPred* inl_pred = nullptr;
    std::string inl_index;
    std::unique_ptr<BoundExpr> inl_outer;
    for (const TaggedPred* tp : eligible) {
      const BoundExpr& p = *tp->expr;
      if (p.kind() != BoundExpr::Kind::kBinary ||
          p.binary_op() != sql::BinaryOp::kEq) {
        continue;
      }
      const BoundExpr* a = p.left();
      const BoundExpr* b = p.right();
      if (a->kind() != BoundExpr::Kind::kSlot ||
          b->kind() != BoundExpr::Kind::kSlot) {
        continue;
      }
      const BoundExpr* outer = nullptr;
      const BoundExpr* inner = nullptr;
      if (OwnerRelation(rels, a->slot()) == i &&
          OwnerRelation(rels, b->slot()) != i) {
        inner = a;
        outer = b;
      } else if (OwnerRelation(rels, b->slot()) == i &&
                 OwnerRelation(rels, a->slot()) != i) {
        inner = b;
        outer = a;
      } else {
        continue;
      }
      const size_t inner_col = inner->slot() - rels[i].offset;
      auto index = rels[i].get->table->FindIndexOnColumn(inner_col);
      if (!index.has_value()) continue;
      inl_pred = tp;
      inl_index = *index;
      inl_outer = outer->CloneRemapped(mapping);
      break;
    }

    storage::Table* inner_table = rels[i].get->table;
    const double inner_n = static_cast<double>(inner_table->row_count());

    if (inl_pred != nullptr) {
      step.algo = JoinAlgo::kIndexNL;
      // Seeking the full (single-column) primary key yields exactly one row.
      const bool unique_seek =
          inl_index.empty() &&
          inner_table->schema().primary_key().size() == 1;
      const double eq_rows =
          unique_seek ? 1.0 : std::max(1.0, inner_n * kEqSelectivity);
      const size_t residual_count =
          eligible.size() - 1 + single_rel[i].size();
      step.rows = std::max(
          1.0, left_rows * eq_rows * (residual_count > 0 ? 0.5 : 1.0));
      step.cost = left_cost +
                  left_rows * (std::log2(inner_n + 2.0) * 0.01 + eq_rows);
      if (build) {
        auto node = std::make_unique<PhysicalPlan>();
        node->op = PhysOp::kIndexNLJoin;
        node->table = inner_table;
        PhysicalPlan::Access& path = node->MutableAccess();
        path.index_name = inl_index;
        for (const auto& col : left_plan->output.columns()) {
          node->output.Append(col);
        }
        node->output.AppendAll(rels[i].get->output);
        path.seek_exprs.push_back(std::move(inl_outer));
        for (const TaggedPred* tp : eligible) {
          if (tp == inl_pred) continue;
          node->predicates.push_back(tp->expr->CloneRemapped(mapping));
        }
        for (const auto& p : single_rel[i]) {
          node->predicates.push_back(p->CloneRemapped(mapping));
        }
        node->est_rows = step.rows;
        node->est_cost = step.cost;
        node->children.push_back(std::move(left_plan));
        step.plan = std::move(node);
      }
      return step;
    }

    // Hash join on equi-conjuncts with disjoint sides; otherwise NLJ.
    std::vector<const TaggedPred*> hash_eqs;
    for (const TaggedPred* tp : eligible) {
      const BoundExpr& p = *tp->expr;
      if (p.kind() == BoundExpr::Kind::kBinary &&
          p.binary_op() == sql::BinaryOp::kEq) {
        // One side must reference only relation i, the other only left
        // relations.
        const uint32_t lmask = PredMask(rels, *p.left());
        const uint32_t rmask = PredMask(rels, *p.right());
        const bool left_is_inner = lmask == (1u << i) && rmask != 0 &&
                                   (rmask & (1u << i)) == 0;
        const bool right_is_inner = rmask == (1u << i) && lmask != 0 &&
                                    (lmask & (1u << i)) == 0;
        if (left_is_inner || right_is_inner) hash_eqs.push_back(tp);
      }
    }

    if (!hash_eqs.empty()) {
      step.algo = JoinAlgo::kHash;
      step.rows = std::max(1.0, left_rows * base_rows[i] * kJoinSelectivity *
                                    kEqSelectivity);
      step.cost = left_cost + base_cost[i] + left_rows + base_rows[i];
    } else {
      step.algo = JoinAlgo::kNestedLoop;
      step.rows = std::max(1.0, left_rows * base_rows[i] * kJoinSelectivity);
      step.cost = left_cost + left_rows * std::max(1.0, base_cost[i]);
    }
    if (build) {
      // The inner side is the base access path for relation i; its layout
      // is relation-local, which matches the candidate layout's suffix.
      std::unique_ptr<PhysicalPlan> right_plan;
      if (base_plans[i] != nullptr) {
        right_plan = std::move(base_plans[i]);
      } else {
        ExprVec local;
        for (const auto& p : single_rel[i]) {
          local.push_back(p->CloneShifted(-static_cast<int>(rels[i].offset)));
        }
        SQLCM_ASSIGN_OR_RETURN(
            right_plan, ChooseAccessPath(*rels[i].get, std::move(local)));
      }
      auto node = std::make_unique<PhysicalPlan>();
      node->op = step.algo == JoinAlgo::kHash ? PhysOp::kHashJoin
                                              : PhysOp::kNestedLoopJoin;
      for (const auto& col : left_plan->output.columns()) {
        node->output.Append(col);
      }
      node->output.AppendAll(right_plan->output);
      if (step.algo == JoinAlgo::kHash) {
        for (const TaggedPred* tp : hash_eqs) {
          const BoundExpr& p = *tp->expr;
          const uint32_t lmask = PredMask(rels, *p.left());
          const BoundExpr* inner_side =
              lmask == (1u << i) ? p.left() : p.right();
          const BoundExpr* outer_side =
              lmask == (1u << i) ? p.right() : p.left();
          PhysicalPlan::HashKeys& keys = node->MutableHashKeys();
          keys.left_keys.push_back(outer_side->CloneRemapped(mapping));
          // Right keys are bound against the inner relation's local layout.
          keys.right_keys.push_back(
              inner_side->CloneShifted(-static_cast<int>(rels[i].offset)));
        }
        for (const TaggedPred* tp : eligible) {
          if (std::find(hash_eqs.begin(), hash_eqs.end(), tp) !=
              hash_eqs.end()) {
            continue;
          }
          node->predicates.push_back(tp->expr->CloneRemapped(mapping));
        }
      } else {
        for (const TaggedPred* tp : eligible) {
          node->predicates.push_back(tp->expr->CloneRemapped(mapping));
        }
      }
      node->est_rows = step.rows;
      node->est_cost = step.cost;
      node->children.push_back(std::move(left_plan));
      node->children.push_back(std::move(right_plan));
      step.plan = std::move(node);
    }
    return step;
  };

  // --- DP over subsets (left-deep). ---
  struct DpEntry {
    bool valid = false;
    double cost = 0;
    double rows = 0;
    size_t last = 0;  // relation joined last
    std::vector<size_t> order;
  };
  std::vector<DpEntry> dp(1u << n);
  for (size_t i = 0; i < n; ++i) {
    DpEntry& e = dp[1u << i];
    e.valid = true;
    e.cost = base_cost[i];
    e.rows = base_rows[i];
    e.last = i;
    e.order = {i};
  }
  for (uint32_t subset = 1; subset < (1u << n); ++subset) {
    if (__builtin_popcount(subset) < 2) continue;
    DpEntry& entry = dp[subset];
    for (size_t i = 0; i < n; ++i) {
      if ((subset & (1u << i)) == 0) continue;
      const DpEntry& left = dp[subset ^ (1u << i)];
      if (!left.valid) continue;
      SQLCM_ASSIGN_OR_RETURN(
          JoinStep step,
          EvaluateStep(left.order, left.cost, left.rows, i, subset,
                       /*build=*/false, nullptr));
      if (!entry.valid || step.cost < entry.cost) {
        entry.valid = true;
        entry.cost = step.cost;
        entry.rows = step.rows;
        entry.last = i;
        entry.order = left.order;
        entry.order.push_back(i);
      }
    }
  }

  // --- Reconstruct the winning plan. ---
  const uint32_t full = (1u << n) - 1;
  std::function<Result<std::unique_ptr<PhysicalPlan>>(uint32_t)> build_plan =
      [&](uint32_t subset) -> Result<std::unique_ptr<PhysicalPlan>> {
    const DpEntry& entry = dp[subset];
    if (__builtin_popcount(subset) == 1) {
      return std::move(base_plans[entry.last]);
    }
    const uint32_t left_subset = subset ^ (1u << entry.last);
    SQLCM_ASSIGN_OR_RETURN(auto left_plan, build_plan(left_subset));
    const DpEntry& left = dp[left_subset];
    SQLCM_ASSIGN_OR_RETURN(
        JoinStep step,
        EvaluateStep(left.order, left.cost, left.rows, entry.last, subset,
                     /*build=*/true, std::move(left_plan)));
    return std::move(step.plan);
  };
  SQLCM_ASSIGN_OR_RETURN(auto plan, build_plan(full));

  // Constant-only conjuncts apply once on top.
  if (!const_preds.empty()) {
    plan = WrapFilter(std::move(plan), std::move(const_preds));
  }

  // Restore the as-written column layout if the enumerator reordered
  // relations (parents bound their expressions against that layout).
  const std::vector<size_t>& final_order = dp[full].order;
  bool identity = true;
  for (size_t i = 0; i < final_order.size(); ++i) {
    if (final_order[i] != i) identity = false;
  }
  if (identity) {
    plan->output = join.output;
    return plan;
  }
  const std::vector<int> mapping =
      LayoutMapping(rels, final_order, total_width);
  auto project = std::make_unique<PhysicalPlan>();
  project->op = PhysOp::kProject;
  project->output = join.output;
  for (size_t slot = 0; slot < total_width; ++slot) {
    project->project_exprs.push_back(
        BoundExpr::MakeSlot(static_cast<size_t>(mapping[slot])));
  }
  project->est_rows = plan->est_rows;
  project->est_cost = plan->est_cost + plan->est_rows * 0.005;
  project->children.push_back(std::move(plan));
  return std::unique_ptr<PhysicalPlan>(std::move(project));
}

}  // namespace sqlcm::exec
