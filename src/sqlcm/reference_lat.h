// Reference model of the light-weight aggregation table (test oracle).
//
// A deliberately naive, single-threaded re-implementation of Lat used as
// the oracle in differential tests (tests/cm_lat_differential_test.cc). It
// stores the full insertion history per group and recomputes every
// aggregate from first principles on read — no shards, no latches, no
// incremental moments, no aging deques — so a bookkeeping bug in the
// production LAT cannot also hide here.
//
// Scope: the model implements the documented *read* semantics only —
// block-quantized aging windows (§4.3), least-important eviction, Reset.
// Overload shedding and checkpoint/restore are required to be invisible to
// readers, so the model deliberately ignores them: any divergence from the
// production LAT after a shed episode or a snapshot round-trip is a bug in
// the production LAT. Out of scope (rejected by Create): byte budgets and
// orderings over aging aggregates — the production LAT evicts on ordering
// keys cached at each row's last update, and only group columns and
// non-aging aggregates keep those caches always current.
#ifndef SQLCM_SQLCM_REFERENCE_LAT_H_
#define SQLCM_SQLCM_REFERENCE_LAT_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/value.h"
#include "sqlcm/lat.h"
#include "sqlcm/schema.h"

namespace sqlcm::cm {

class ReferenceLat {
 public:
  /// Resolves the spec against the object schema like Lat::Create (pass the
  /// same spec to both). Rejects max_bytes and aging ordering columns.
  static common::Result<std::unique_ptr<ReferenceLat>> Create(LatSpec spec);

  const LatSpec& spec() const { return spec_; }
  size_t size() const { return groups_.size(); }

  /// Records the probe values of `record` in its group's history and runs
  /// least-important eviction when the row budget is exceeded.
  void Insert(const void* record, int64_t now_micros);

  void Reset() { groups_.clear(); }

  /// Materializes the row for `group_key`, recomputing every aggregate from
  /// the stored history. Returns false when the group does not exist (never
  /// inserted, evicted, or reset away).
  bool LookupByKey(const common::Row& group_key, int64_t now_micros,
                   common::Row* out) const;

  /// All group keys currently live (unordered).
  std::vector<common::Row> LiveKeys() const;

 private:
  /// One recorded insertion: the fold timestamp plus the probe value seen
  /// by each aggregate column.
  struct Entry {
    int64_t now_micros = 0;
    std::vector<common::Value> values;
  };
  struct Group {
    std::vector<Entry> entries;
  };

  explicit ReferenceLat(LatSpec spec) : spec_(std::move(spec)) {}

  common::Value AggValueFor(const Group& group, size_t agg,
                            int64_t now_micros) const;
  common::Row OrderingKeyFor(const common::Row& key, const Group& group,
                             int64_t now_micros) const;
  bool LessImportant(const common::Row& a, const common::Row& b) const;
  void EvictOverBudget(int64_t now_micros);

  LatSpec spec_;
  std::vector<const AttributeDef*> group_attrs_;
  std::vector<const AttributeDef*> agg_attrs_;  // null entry for plain COUNT
  std::vector<int> ordering_columns_;  // indexes into the materialized row
  std::unordered_map<common::Row, Group, common::RowHasher, common::RowEq>
      groups_;
};

}  // namespace sqlcm::cm

#endif  // SQLCM_SQLCM_REFERENCE_LAT_H_
