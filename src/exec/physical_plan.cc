#include "exec/physical_plan.h"

#include <algorithm>
#include <sstream>

namespace sqlcm::exec {

const char* PhysOpName(PhysOp op) {
  switch (op) {
    case PhysOp::kSeqScan: return "SeqScan";
    case PhysOp::kIndexSeek: return "IndexSeek";
    case PhysOp::kIndexRange: return "IndexRange";
    case PhysOp::kFilter: return "Filter";
    case PhysOp::kProject: return "Project";
    case PhysOp::kNestedLoopJoin: return "NestedLoopJoin";
    case PhysOp::kIndexNLJoin: return "IndexNLJoin";
    case PhysOp::kHashJoin: return "HashJoin";
    case PhysOp::kHashAggregate: return "HashAggregate";
    case PhysOp::kSort: return "Sort";
    case PhysOp::kLimit: return "Limit";
    case PhysOp::kDistinct: return "Distinct";
    case PhysOp::kInsert: return "Insert";
    case PhysOp::kUpdate: return "Update";
    case PhysOp::kDelete: return "Delete";
  }
  return "?";
}

const char* PhysicalPlan::StatementType() const {
  switch (op) {
    case PhysOp::kInsert: return "INSERT";
    case PhysOp::kUpdate: return "UPDATE";
    case PhysOp::kDelete: return "DELETE";
    default: return "SELECT";
  }
}

namespace {

void AppendSortedConjuncts(
    const std::vector<std::unique_ptr<BoundExpr>>& conjuncts,
    bool wildcard_constants, std::string* out) {
  std::vector<std::string> rendered;
  rendered.reserve(conjuncts.size());
  for (const auto& pred : conjuncts) {
    std::string s;
    pred->AppendSignature(wildcard_constants, &s);
    rendered.push_back(std::move(s));
  }
  std::sort(rendered.begin(), rendered.end());
  for (size_t i = 0; i < rendered.size(); ++i) {
    if (i > 0) *out += "&";
    *out += rendered[i];
  }
}

void AppendExprList(const std::vector<std::unique_ptr<BoundExpr>>& exprs,
                    bool wildcard_constants, std::string* out) {
  for (size_t i = 0; i < exprs.size(); ++i) {
    if (i > 0) *out += ",";
    exprs[i]->AppendSignature(wildcard_constants, out);
  }
}

}  // namespace

namespace {

template <typename T>
T& Ensure(std::unique_ptr<T>* operands) {
  if (*operands == nullptr) *operands = std::make_unique<T>();
  return **operands;
}

}  // namespace

PhysicalPlan::Access& PhysicalPlan::MutableAccess() { return Ensure(&access); }
PhysicalPlan::HashKeys& PhysicalPlan::MutableHashKeys() {
  return Ensure(&hash_keys);
}
PhysicalPlan::Aggregation& PhysicalPlan::MutableAggregation() {
  return Ensure(&aggregation);
}
PhysicalPlan::Modification& PhysicalPlan::MutableModification() {
  return Ensure(&modification);
}

void PhysicalPlan::AppendSignature(bool wildcard_constants,
                                   std::string* out) const {
  *out += PhysOpName(op);
  *out += "(";
  if (table != nullptr) {
    *out += table->name();
    if (access != nullptr && !access->index_name.empty()) {
      *out += "@";
      *out += access->index_name;
    }
    *out += ";";
  }
  switch (op) {
    case PhysOp::kIndexSeek:
    case PhysOp::kIndexNLJoin:
      *out += "seek=";
      AppendExprList(access->seek_exprs, wildcard_constants, out);
      if (!predicates.empty()) {
        *out += ";resid=";
        AppendSortedConjuncts(predicates, wildcard_constants, out);
      }
      break;
    case PhysOp::kIndexRange:
      *out += "lo=";
      if (access->range_lo != nullptr) {
        access->range_lo->AppendSignature(wildcard_constants, out);
      }
      *out += ";hi=";
      if (access->range_hi != nullptr) {
        access->range_hi->AppendSignature(wildcard_constants, out);
      }
      break;
    case PhysOp::kFilter:
    case PhysOp::kNestedLoopJoin:
      AppendSortedConjuncts(predicates, wildcard_constants, out);
      break;
    case PhysOp::kHashJoin:
      *out += "l=";
      AppendExprList(hash_keys->left_keys, wildcard_constants, out);
      *out += ";r=";
      AppendExprList(hash_keys->right_keys, wildcard_constants, out);
      if (!predicates.empty()) {
        *out += ";resid=";
        AppendSortedConjuncts(predicates, wildcard_constants, out);
      }
      break;
    case PhysOp::kProject:
      AppendExprList(project_exprs, wildcard_constants, out);
      break;
    case PhysOp::kHashAggregate: {
      AppendExprList(aggregation->group_exprs, wildcard_constants, out);
      *out += ";";
      const std::vector<AggSpec>& aggregates = aggregation->aggregates;
      for (size_t i = 0; i < aggregates.size(); ++i) {
        if (i > 0) *out += ",";
        *out += AggFuncName(aggregates[i].func);
        *out += "(";
        if (aggregates[i].star) {
          *out += "*";
        } else {
          aggregates[i].arg->AppendSignature(wildcard_constants, out);
        }
        *out += ")";
      }
      break;
    }
    case PhysOp::kSort:
      for (size_t i = 0; i < sort_keys.size(); ++i) {
        if (i > 0) *out += ",";
        sort_keys[i].expr->AppendSignature(wildcard_constants, out);
        *out += sort_keys[i].descending ? " DESC" : " ASC";
      }
      break;
    case PhysOp::kLimit:
      *out += wildcard_constants ? "?" : std::to_string(limit);
      break;
    case PhysOp::kInsert:
      *out += "rows=";
      *out += wildcard_constants
                  ? "?"
                  : std::to_string(modification->insert_rows.size());
      break;
    case PhysOp::kUpdate: {
      *out += "set=";
      const auto& assignments = modification->assignments;
      for (size_t i = 0; i < assignments.size(); ++i) {
        if (i > 0) *out += ",";
        *out += "#" + std::to_string(assignments[i].first) + "=";
        assignments[i].second->AppendSignature(wildcard_constants, out);
      }
      *out += ";where=";
      AppendSortedConjuncts(predicates, wildcard_constants, out);
      break;
    }
    case PhysOp::kDelete:
      *out += "where=";
      AppendSortedConjuncts(predicates, wildcard_constants, out);
      break;
    case PhysOp::kSeqScan:
      if (!predicates.empty()) {
        *out += "resid=";
        AppendSortedConjuncts(predicates, wildcard_constants, out);
      }
      break;
    case PhysOp::kDistinct:
      break;  // no arguments
  }
  *out += ")";
  if (!children.empty()) {
    *out += "[";
    for (size_t i = 0; i < children.size(); ++i) {
      if (i > 0) *out += ",";
      children[i]->AppendSignature(wildcard_constants, out);
    }
    *out += "]";
  }
}

namespace {

void ExplainRec(const PhysicalPlan& plan, int depth, std::ostringstream* out) {
  for (int i = 0; i < depth; ++i) *out << "  ";
  *out << PhysOpName(plan.op);
  if (plan.table != nullptr) {
    *out << " " << plan.table->name();
    if (plan.access != nullptr && !plan.access->index_name.empty()) {
      *out << " (index " << plan.access->index_name << ")";
    }
  }
  *out << "  [rows=" << plan.est_rows << " cost=" << plan.est_cost << "]";
  if (!plan.predicates.empty()) {
    *out << " pred=";
    std::string s;
    AppendSortedConjuncts(plan.predicates, false, &s);
    *out << s;
  }
  *out << "\n";
  for (const auto& child : plan.children) {
    ExplainRec(*child, depth + 1, out);
  }
}

}  // namespace

std::string PhysicalPlan::Explain() const {
  std::ostringstream out;
  ExplainRec(*this, 0, &out);
  return out.str();
}

void PhysicalPlan::InternLayouts() {
  output.Intern();
  for (auto& child : children) child->InternLayouts();
}

}  // namespace sqlcm::exec
