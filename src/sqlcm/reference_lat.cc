#include "sqlcm/reference_lat.h"

#include <algorithm>
#include <cmath>

#include "common/string_util.h"

namespace sqlcm::cm {

using common::Result;
using common::Row;
using common::Status;
using common::Value;

Result<std::unique_ptr<ReferenceLat>> ReferenceLat::Create(LatSpec spec) {
  if (spec.max_bytes > 0) {
    return Status::InvalidArgument(
        "ReferenceLat does not model byte budgets");
  }
  auto ref = std::unique_ptr<ReferenceLat>(new ReferenceLat(std::move(spec)));
  const LatSpec& s = ref->spec_;
  const ObjectSchema& schema = ObjectSchema::Get();
  std::vector<std::string> column_names;
  for (const LatGroupColumn& col : s.group_by) {
    const int attr = schema.FindAttribute(s.object_class, col.attribute);
    if (attr < 0) {
      return Status::NotFound("ReferenceLat '" + s.name +
                              "': no attribute '" + col.attribute + "'");
    }
    ref->group_attrs_.push_back(&schema.attributes(s.object_class)[attr]);
    column_names.push_back(col.alias.empty() ? col.attribute : col.alias);
  }
  for (const LatAggColumn& col : s.aggregates) {
    const AttributeDef* def = nullptr;
    if (!col.attribute.empty()) {
      const int attr = schema.FindAttribute(s.object_class, col.attribute);
      if (attr < 0) {
        return Status::NotFound("ReferenceLat '" + s.name +
                                "': no attribute '" + col.attribute + "'");
      }
      def = &schema.attributes(s.object_class)[attr];
    }
    if (col.aging && LatAggFuncIsSketch(col.func)) {
      return Status::InvalidArgument(
          "ReferenceLat '" + s.name + "': " + LatAggFuncName(col.func) +
          " has no aging variant");
    }
    ref->agg_attrs_.push_back(def);
    std::string name = col.alias;
    if (name.empty()) {
      name = std::string(LatAggFuncName(col.func)) +
             (col.attribute.empty() ? "" : "_" + col.attribute);
    }
    column_names.push_back(std::move(name));
  }
  for (const LatOrdering& ord : s.ordering) {
    int idx = -1;
    for (size_t i = 0; i < column_names.size(); ++i) {
      if (common::EqualsIgnoreCase(column_names[i], ord.column)) {
        idx = static_cast<int>(i);
        break;
      }
    }
    if (idx < 0) {
      return Status::NotFound("ReferenceLat '" + s.name +
                              "': ordering column '" + ord.column +
                              "' does not exist");
    }
    const size_t groups = s.group_by.size();
    if (static_cast<size_t>(idx) >= groups &&
        s.aggregates[static_cast<size_t>(idx) - groups].aging) {
      return Status::InvalidArgument(
          "ReferenceLat '" + s.name +
          "': aging ordering columns are out of the oracle's scope");
    }
    if (static_cast<size_t>(idx) >= groups &&
        LatAggFuncIsSketch(
            s.aggregates[static_cast<size_t>(idx) - groups].func)) {
      // The production LAT orders by its *approximate* sketch answers; an
      // exact recompute would evict different rows, so sketch-ordered
      // eviction cannot be oracled.
      return Status::InvalidArgument(
          "ReferenceLat '" + s.name +
          "': sketch ordering columns are out of the oracle's scope");
    }
    ref->ordering_columns_.push_back(idx);
  }
  return ref;
}

void ReferenceLat::Insert(const void* record, int64_t now_micros) {
  Row key;
  key.reserve(group_attrs_.size());
  for (const AttributeDef* def : group_attrs_) key.push_back(def->Get(record));
  Entry entry;
  entry.now_micros = now_micros;
  entry.values.reserve(agg_attrs_.size());
  for (const AttributeDef* def : agg_attrs_) {
    entry.values.push_back(def != nullptr ? def->Get(record) : Value::Int(1));
  }
  groups_[std::move(key)].entries.push_back(std::move(entry));
  EvictOverBudget(now_micros);
}

Value ReferenceLat::AggValueFor(const Group& group, size_t agg,
                                int64_t now_micros) const {
  const LatAggFunc func = spec_.aggregates[agg].func;
  const bool aging = spec_.aggregates[agg].aging;

  int64_t count = 0;
  double sum = 0, sumsq = 0;
  Value min, max, first, last;
  bool any = false;

  if (!aging) {
    for (const Entry& e : group.entries) {
      const Value& v = e.values[agg];
      ++count;
      if (v.is_numeric()) {
        const double d = v.AsDouble();
        sum += d;
        sumsq += d * d;
      }
      if (!v.is_null()) {
        if (!any) first = v;
        if (!any || v.Compare(min) < 0) min = v;
        if (!any || v.Compare(max) > 0) max = v;
        any = true;
        last = v;
      }
    }
  } else {
    // Rebuild the §4.3 block decomposition the production LAT maintains
    // online: entries bucket into Δ-wide blocks by their fold timestamp, a
    // whole block either counts (its end lies past now - t) or not. Fold
    // per block first, then across blocks, matching the production LAT's
    // floating-point summation order.
    struct Block {
      int64_t start = 0;
      int64_t count = 0;
      double sum = 0, sumsq = 0;
      Value min, max;
      bool any = false;
    };
    std::vector<Block> blocks;
    for (const Entry& e : group.entries) {
      const int64_t start =
          e.now_micros - (e.now_micros % spec_.aging_block_micros);
      if (blocks.empty() || blocks.back().start != start) {
        Block b;
        b.start = start;
        blocks.push_back(std::move(b));
      }
      Block& b = blocks.back();
      const Value& v = e.values[agg];
      ++b.count;
      if (v.is_numeric()) {
        const double d = v.AsDouble();
        b.sum += d;
        b.sumsq += d * d;
      }
      if (!v.is_null()) {
        if (!b.any || v.Compare(b.min) < 0) b.min = v;
        if (!b.any || v.Compare(b.max) > 0) b.max = v;
        b.any = true;
      }
    }
    const int64_t horizon = now_micros - spec_.aging_window_micros;
    for (const Block& b : blocks) {
      if (b.start + spec_.aging_block_micros <= horizon) continue;
      count += b.count;
      sum += b.sum;
      sumsq += b.sumsq;
      if (b.any) {
        if (!any || b.min.Compare(min) < 0) min = b.min;
        if (!any || b.max.Compare(max) > 0) max = b.max;
        any = true;
      }
    }
  }

  switch (func) {
    case LatAggFunc::kCount:
      return Value::Int(count);
    case LatAggFunc::kSum:
      return count > 0 ? Value::Double(sum) : Value::Null();
    case LatAggFunc::kAvg:
      return count > 0 ? Value::Double(sum / static_cast<double>(count))
                       : Value::Null();
    case LatAggFunc::kStdev: {
      if (count < 2) return Value::Double(0);
      const double n = static_cast<double>(count);
      const double variance =
          std::max(0.0, (sumsq - sum * sum / n) / (n - 1));
      return Value::Double(std::sqrt(variance));
    }
    case LatAggFunc::kMin:
      return any ? min : Value::Null();
    case LatAggFunc::kMax:
      return any ? max : Value::Null();
    case LatAggFunc::kFirst:
      return first;
    case LatAggFunc::kLast:
      return last;
    case LatAggFunc::kQuantile: {
      // Exact rank-⌊q·(n−1)⌋ of the same multiset the sketch folds
      // (numeric, non-NaN); the differential oracle asserts the production
      // answer lands within the sketch's documented relative-error bound.
      std::vector<double> values;
      for (const Entry& e : group.entries) {
        const Value& v = e.values[agg];
        if (v.is_numeric() && !std::isnan(v.AsDouble())) {
          values.push_back(v.AsDouble());
        }
      }
      if (values.empty()) return Value::Null();
      std::sort(values.begin(), values.end());
      const double q = std::clamp(spec_.aggregates[agg].quantile, 0.0, 1.0);
      const size_t rank = static_cast<size_t>(std::floor(
          q * static_cast<double>(values.size() - 1)));
      return Value::Double(values[rank]);
    }
    case LatAggFunc::kDistinct: {
      // Exact cardinality under the sketch's own equality (hash collisions
      // excepted): DistinctValueHash canonicalizes -0.0 and integral
      // doubles exactly like the production HLL fold.
      std::vector<uint64_t> hashes;
      for (const Entry& e : group.entries) {
        const Value& v = e.values[agg];
        if (!v.is_null()) hashes.push_back(DistinctValueHash(v));
      }
      std::sort(hashes.begin(), hashes.end());
      hashes.erase(std::unique(hashes.begin(), hashes.end()), hashes.end());
      return Value::Int(static_cast<int64_t>(hashes.size()));
    }
  }
  return Value::Null();
}

bool ReferenceLat::LookupByKey(const Row& group_key, int64_t now_micros,
                               Row* out) const {
  const auto it = groups_.find(group_key);
  if (it == groups_.end()) return false;
  Row row = group_key;
  row.reserve(group_key.size() + spec_.aggregates.size());
  for (size_t a = 0; a < spec_.aggregates.size(); ++a) {
    row.push_back(AggValueFor(it->second, a, now_micros));
  }
  *out = std::move(row);
  return true;
}

std::vector<Row> ReferenceLat::LiveKeys() const {
  std::vector<Row> keys;
  keys.reserve(groups_.size());
  for (const auto& [key, _] : groups_) keys.push_back(key);
  return keys;
}

Row ReferenceLat::OrderingKeyFor(const Row& key, const Group& group,
                                 int64_t now_micros) const {
  Row out;
  out.reserve(ordering_columns_.size());
  const size_t groups = spec_.group_by.size();
  for (int col : ordering_columns_) {
    const size_t c = static_cast<size_t>(col);
    if (c < groups) {
      out.push_back(key[c]);
    } else {
      out.push_back(AggValueFor(group, c - groups, now_micros));
    }
  }
  return out;
}

bool ReferenceLat::LessImportant(const Row& a, const Row& b) const {
  for (size_t i = 0; i < spec_.ordering.size(); ++i) {
    const int c = a[i].Compare(b[i]);
    if (c == 0) continue;
    return spec_.ordering[i].descending ? c < 0 : c > 0;
  }
  return false;
}

void ReferenceLat::EvictOverBudget(int64_t now_micros) {
  if (spec_.max_rows == 0) return;
  while (groups_.size() > spec_.max_rows) {
    const Row* victim = nullptr;
    Row victim_key_row;
    for (const auto& [key, group] : groups_) {
      Row ordering = OrderingKeyFor(key, group, now_micros);
      if (victim == nullptr || LessImportant(ordering, victim_key_row)) {
        victim = &key;
        victim_key_row = std::move(ordering);
      }
    }
    groups_.erase(*victim);
  }
}

}  // namespace sqlcm::cm
