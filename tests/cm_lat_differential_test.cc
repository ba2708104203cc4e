// Randomized differential test: the production sharded LAT against the
// naive recompute-from-history ReferenceLat oracle (SQLancer-style).
//
// A single driver interleaves inserts, mock-clock advances, batch flushes,
// Resets and full checkpoint/restore cycles (ExportState → versioned
// snapshot file (v3 when sketch cells are present, v2 otherwise) →
// LoadTableCsv → ImportState into a fresh Lat), then
// periodically compares every group's materialized row between the two
// implementations. Batched configs route production inserts through
// Lat::InsertBatch (the async pipeline's vectorized flush) against the
// same per-op oracle, proving deferred drain reaches the sync end state. Doubles must agree within 1 ulp (in practice they are
// bit-exact: the oracle replicates the production fold order); everything
// else must match exactly. Snapshot round-trips are invisible to the
// oracle by design, so any post-restore divergence is a production bug.
//
// Budget and seed are environment-overridable for CI fuzzing:
//   SQLCM_DIFF_OPS   ops per test case (default 4000; CI runs >= 100000)
//   SQLCM_DIFF_SEED  PRNG seed (default fixed; CI logs a random one)

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "catalog/schema.h"
#include "common/clock.h"
#include "common/random.h"
#include "common/value.h"
#include "sqlcm/lat.h"
#include "sqlcm/reference_lat.h"
#include "sqlcm/sketch.h"
#include "storage/table.h"
#include "storage/table_io.h"

namespace sqlcm::cm {
namespace {

using common::Row;
using common::Value;
using common::ValueKind;

constexpr int64_t kBlockMicros = 1000;
constexpr int64_t kWindowMicros = 10 * kBlockMicros;

uint64_t EnvOr(const char* name, uint64_t fallback) {
  const char* env = std::getenv(name);
  if (env == nullptr || *env == '\0') return fallback;
  return std::strtoull(env, nullptr, 10);
}

bool WithinOneUlp(double a, double b) {
  if (std::isnan(a) || std::isnan(b)) return std::isnan(a) && std::isnan(b);
  if (a == b) return true;  // covers +0.0 vs -0.0 (display-equal)
  return std::nextafter(a, b) == b;
}

bool ValuesAgree(const Value& a, const Value& b) {
  if (a.kind() != b.kind()) return false;
  if (a.is_double()) return WithinOneUlp(a.double_value(), b.double_value());
  if (a.is_null()) return true;
  return a.Compare(b) == 0;
}

catalog::ColumnType TypeForKind(ValueKind kind) {
  switch (kind) {
    case ValueKind::kInt: return catalog::ColumnType::kInt;
    case ValueKind::kDouble: return catalog::ColumnType::kDouble;
    case ValueKind::kBool: return catalog::ColumnType::kBool;
    default: return catalog::ColumnType::kString;
  }
}

/// The snapshot file's staging table: the LAT's state record columns.
std::unique_ptr<storage::Table> MakeStateTable(const Lat& lat) {
  const std::vector<std::string> cols = lat.StateColumnNames();
  const std::vector<ValueKind> kinds = lat.StateColumnKinds();
  std::vector<catalog::Column> columns;
  columns.reserve(cols.size());
  for (size_t i = 0; i < cols.size(); ++i) {
    columns.push_back({cols[i], TypeForKind(kinds[i])});
  }
  auto schema =
      catalog::TableSchema::Create("diff_state", std::move(columns), {});
  EXPECT_TRUE(schema.ok()) << schema.status().ToString();
  return std::make_unique<storage::Table>(0, std::move(*schema));
}

/// Eviction ordering of a bounded case. The first ordering column drives
/// the rank that short-cuts Lat's heap compares, so the variants
/// cover an exact INT rank, an ASC DOUBLE rank over negatives and signed
/// zeros, and a string column whose ranks always tie.
enum class DiffOrder {
  kCountDesc,      // COUNT DESC, Sig DESC
  kMinDoubleAsc,   // MIN(Duration) ASC, Sig DESC
  kLastStringDesc  // LAST(Query_Text) DESC, Sig ASC
};

LatSpec DiffSpec(bool bounded, size_t shard_count, bool sketch,
                 size_t sketch_budget, DiffOrder order = DiffOrder::kCountDesc) {
  LatSpec spec;
  spec.name = "Diff";
  spec.object_class = MonitoredClass::kQuery;
  spec.group_by = {{"Logical_Signature", "Sig"}};
  spec.aggregates = {{LatAggFunc::kCount, "", "N", false},
                     {LatAggFunc::kSum, "Duration", "SumDur", false},
                     {LatAggFunc::kAvg, "Duration", "AvgDur", false},
                     {LatAggFunc::kStdev, "Duration", "SdDur", false},
                     {LatAggFunc::kMin, "Duration", "MinDur", false},
                     {LatAggFunc::kMax, "Duration", "MaxDur", false},
                     {LatAggFunc::kFirst, "Query_Text", "FirstText", false},
                     {LatAggFunc::kLast, "Query_Text", "LastText", false},
                     {LatAggFunc::kCount, "", "AgN", true},
                     {LatAggFunc::kSum, "Duration", "AgSum", true},
                     {LatAggFunc::kAvg, "Duration", "AgAvg", true},
                     {LatAggFunc::kStdev, "Duration", "AgSd", true},
                     {LatAggFunc::kMin, "Duration", "AgMin", true},
                     {LatAggFunc::kMax, "Duration", "AgMax", true},
                     {LatAggFunc::kMin, "Query_Text", "AgMinText", true}};
  if (sketch) {
    // Sketch aggregates are non-aging by contract; the aging classic
    // aggregates above still exercise block rotation in the same spec.
    spec.aggregates.push_back({LatAggFunc::kQuantile, "Duration", "P50",
                               false, 0.5});
    spec.aggregates.push_back({LatAggFunc::kQuantile, "Duration", "P90",
                               false, 0.9});
    spec.aggregates.push_back({LatAggFunc::kDistinct, "Query_Text", "DText",
                               false});
    spec.aggregates.push_back({LatAggFunc::kDistinct, "Duration", "DDur",
                               false});
    spec.quantile_sketch_bytes = sketch_budget;  // 0 = unbounded
  }
  spec.aging_window_micros = kWindowMicros;
  spec.aging_block_micros = kBlockMicros;
  spec.shard_count = shard_count;
  if (bounded) {
    // Non-aging COUNT + group-column ordering: the production LAT's cached
    // ordering keys are always current for these, so eviction choices are
    // deterministic and comparable (see reference_lat.h on scope).
    switch (order) {
      case DiffOrder::kCountDesc:
        spec.ordering = {{"N", true}, {"Sig", true}};
        break;
      case DiffOrder::kMinDoubleAsc:
        spec.ordering = {{"MinDur", false}, {"Sig", true}};
        break;
      case DiffOrder::kLastStringDesc:
        spec.ordering = {{"LastText", true}, {"Sig", false}};
        break;
    }
    spec.max_rows = 24;
  }
  return spec;
}

struct DiffCase {
  bool bounded;
  size_t shard_count;
  /// Drive the production LAT through InsertBatch (the async pipeline's
  /// vectorized flush path) while the oracle applies the same records
  /// per-op: proves batched ≡ per-item end state, 1-ulp, including across
  /// Reset and checkpoint/restore. Unbounded configs only — bounded
  /// eviction is batch-granular by design (one EvictOverBudget per batch),
  /// so per-item stepwise eviction is not the same contract.
  bool batched = false;
  /// Append QUANTILE(P50/P90 over Duration) and DISTINCT(Query_Text,
  /// Duration) columns. These are compared against the oracle's exact
  /// recompute within documented error bounds instead of 1 ulp.
  bool sketch = false;
  /// LatSpec::quantile_sketch_bytes for sketch configs. 0 keeps the sketch
  /// unbounded (level 0, alpha = kBaseAlpha, hostile duration shapes). A
  /// positive budget forces observable collapse; those configs use tame
  /// positive durations so the worst-case collapse level — and hence the
  /// quantile error bound — stays derivable in the test.
  size_t sketch_budget = 0;
  /// Eviction ordering (bounded configs only).
  DiffOrder order = DiffOrder::kCountDesc;
  /// Every insert opens a new group (batched configs: every batch item is
  /// its own group, InsertBatch's G = N case). Comparisons then walk the
  /// oracle's live groups instead of the fixed key pool.
  bool fresh_groups = false;
};

class LatDifferentialTest : public ::testing::TestWithParam<DiffCase> {};

TEST_P(LatDifferentialTest, ProductionMatchesReferenceOracle) {
  const DiffCase& param = GetParam();
  const uint64_t ops = EnvOr("SQLCM_DIFF_OPS", 4000);
  const uint64_t seed = EnvOr("SQLCM_DIFF_SEED", 0xD1FFBEEF);
  // Always print the seed so any failure is reproducible via
  // SQLCM_DIFF_SEED (PR-2 seed-logging convention).
  std::fprintf(stderr,
               "[differential] ops=%llu seed=%llu bounded=%d shards=%zu "
               "batched=%d sketch=%d budget=%zu order=%d fresh=%d\n",
               static_cast<unsigned long long>(ops),
               static_cast<unsigned long long>(seed), param.bounded ? 1 : 0,
               param.shard_count, param.batched ? 1 : 0,
               param.sketch ? 1 : 0, param.sketch_budget,
               static_cast<int>(param.order), param.fresh_groups ? 1 : 0);
  RecordProperty("sqlcm_diff_seed", std::to_string(seed));

  const LatSpec spec = DiffSpec(param.bounded, param.shard_count,
                                param.sketch, param.sketch_budget,
                                param.order);
  auto lat_or = Lat::Create(spec);
  ASSERT_TRUE(lat_or.ok()) << lat_or.status().ToString();
  std::unique_ptr<Lat> lat = std::move(*lat_or);
  auto ref_or = ReferenceLat::Create(spec);
  ASSERT_TRUE(ref_or.ok()) << ref_or.status().ToString();
  std::unique_ptr<ReferenceLat> ref = std::move(*ref_or);

  // Sketch columns are approximate by contract: compare them against the
  // oracle's exact recompute within documented error bounds instead of the
  // 1-ulp rule used everywhere else.
  enum class ColBound { kExact, kQuantile, kDistinct };
  std::vector<ColBound> col_bounds(
      spec.group_by.size() + spec.aggregates.size(), ColBound::kExact);
  for (size_t a = 0; a < spec.aggregates.size(); ++a) {
    if (spec.aggregates[a].func == LatAggFunc::kQuantile) {
      col_bounds[spec.group_by.size() + a] = ColBound::kQuantile;
    } else if (spec.aggregates[a].func == LatAggFunc::kDistinct) {
      col_bounds[spec.group_by.size() + a] = ColBound::kDistinct;
    }
  }
  // Unbounded sketches stay at level 0: relative error kBaseAlpha. Budgeted
  // configs feed log-uniform durations over an ln-range of 13.8 (see the
  // insert arm), so collapse stops by level 4 (bucket width 0.02 * 2^4
  // covers the range in <= 46 buckets, well inside a 4096-byte budget);
  // alpha(4) = tanh(0.02 * 16 / 2) ~= 0.159.
  const double quantile_rel_bound =
      param.sketch_budget > 0 ? 0.17 : QuantileSketch::kBaseAlpha + 1e-6;
  // HLL at kDefaultPrecision=10 has stderr 1.04/sqrt(1024) ~= 3.25%; allow
  // 4 sigma plus absolute slack for the small-cardinality regime.
  auto distinct_abs_bound = [](double exact) {
    return std::max(5.0, 0.13 * exact + 3.0);
  };

  common::Random rng(seed);
  common::MockClock clock(1);
  const std::string snapshot_path =
      ::testing::TempDir() + "/lat_differential_" +
      std::to_string(param.bounded) + "_" +
      std::to_string(param.shard_count) + "_" +
      std::to_string(param.sketch) + "_" +
      std::to_string(param.sketch_budget) + "_" +
      std::to_string(static_cast<int>(param.order)) + "_" +
      std::to_string(param.fresh_groups) + ".snap";
  std::remove(snapshot_path.c_str());
  std::remove((snapshot_path + ".bak").c_str());

  constexpr size_t kKeyPool = 40;
  // Texts include the state-codec delimiters and CSV metacharacters so a
  // checkpoint cycle exercises both escaping layers.
  const std::vector<std::string> kTexts = {
      "plain", "with space", "a:b;c%d", "quote'quote", "comma,semi;",
      "100%:done", "", "NULL"};

  // Batched mode: inserts buffer here (the oracle still applies per-op)
  // and flush through InsertBatch before any state-visible operation —
  // exactly the async pipeline's worker-drain pattern. A deque keeps the
  // record pointers stable while buffered.
  std::deque<QueryRecord> pending_records;
  std::vector<LatBatchItem> pending_items;
  auto flush_batch = [&] {
    if (pending_items.empty()) return;
    lat->InsertBatch(pending_items.data(), pending_items.size());
    pending_items.clear();
    pending_records.clear();
  };
  uint64_t next_fresh_group = kKeyPool;
  auto compare_all = [&](uint64_t op) {
    ASSERT_EQ(lat->size(), ref->size()) << "row-count divergence at op " << op;
    const int64_t now = clock.NowMicros();
    std::vector<Row> keys;
    if (param.fresh_groups) {
      // Equal sizes plus every oracle group found equal: same group sets.
      keys = ref->LiveKeys();
    } else {
      for (size_t k = 0; k < kKeyPool; ++k) {
        keys.push_back({Value::String("sig" + std::to_string(k))});
      }
    }
    for (const Row& key : keys) {
      const std::string k = key[0].string_value().substr(3);
      Row got, want;
      const bool in_lat = lat->LookupByKey(key, now, &got);
      const bool in_ref = ref->LookupByKey(key, now, &want);
      ASSERT_EQ(in_lat, in_ref)
          << "liveness divergence for sig" << k << " at op " << op
          << " (seed " << seed << ")";
      if (!in_lat) continue;
      ASSERT_EQ(got.size(), want.size());
      for (size_t c = 0; c < got.size(); ++c) {
        const auto context = [&]() {
          return "at op " + std::to_string(op) + " (seed " +
                 std::to_string(seed) + ") key sig" + k +
                 " column '" + lat->column_names()[c] +
                 "': production=" + got[c].ToString() +
                 " reference=" + want[c].ToString();
        };
        if (col_bounds[c] == ColBound::kQuantile) {
          ASSERT_EQ(got[c].is_null(), want[c].is_null())
              << "quantile nullness divergence " << context();
          if (got[c].is_null()) continue;
          const double g = got[c].double_value();
          const double w = want[c].double_value();
          ASSERT_LE(std::abs(g - w),
                    quantile_rel_bound * std::abs(w) + 1e-9)
              << "quantile out of error bound " << context();
        } else if (col_bounds[c] == ColBound::kDistinct) {
          const double g = static_cast<double>(got[c].int_value());
          const double w = static_cast<double>(want[c].int_value());
          ASSERT_LE(std::abs(g - w), distinct_abs_bound(w))
              << "distinct out of error bound " << context();
        } else {
          ASSERT_TRUE(ValuesAgree(got[c], want[c]))
              << "divergence " << context();
        }
      }
    }
  };

  for (uint64_t op = 0; op < ops; ++op) {
    const uint64_t r = rng.Uniform(1000);
    if (r < 700) {
      QueryRecord rec;
      rec.logical_signature =
          "sig" + std::to_string(param.fresh_groups ? next_fresh_group++
                                                    : rng.Uniform(kKeyPool));
      rec.text = kTexts[rng.Uniform(kTexts.size())];
      const uint64_t shape = rng.Uniform(16);
      if (param.sketch_budget > 0) {
        // Tame positive log-uniform range [~1e-3, 1e3]: ln-range 13.8 keeps
        // the worst-case collapse level — and hence quantile_rel_bound —
        // derivable. Other configs keep the hostile shapes below.
        rec.duration_secs = std::exp(rng.NextDouble() * 13.8 - 6.9);
      } else if (shape == 0) {
        rec.duration_secs = -rng.NextDouble() * 1e3;  // negative
      } else if (shape == 1) {
        rec.duration_secs = rng.NextDouble() * 1e300;  // huge magnitude
      } else if (shape == 2) {
        rec.duration_secs = 5e-324 * static_cast<double>(rng.Uniform(64));
      } else if (shape == 3) {
        rec.duration_secs = static_cast<double>(rng.UniformInt(-50, 50));
      } else if (shape == 4 && param.order == DiffOrder::kMinDoubleAsc) {
        // Signed zeros tie under Value::Compare, so they must tie in rank.
        rec.duration_secs = rng.Uniform(2) == 0 ? -0.0 : 0.0;
      } else {
        rec.duration_secs = rng.NextDouble() * 1e3;
      }
      const int64_t now = clock.NowMicros();
      if (param.batched) {
        pending_records.push_back(rec);
        pending_items.push_back({&pending_records.back(), now});
        // Uneven flush threshold: batches of many sizes get exercised.
        if (pending_items.size() >= 37) flush_batch();
      } else {
        lat->Insert(&rec, now);
      }
      ref->Insert(&rec, now);
    } else if (r < 870) {
      clock.Advance(rng.UniformInt(1, 2500));
    } else if (r < 920) {
      flush_batch();
    } else if (r < 923 ||
               (param.fresh_groups && ref->size() >= 2 * kKeyPool)) {
      // Fresh-group configs also reset once 80 groups are live, so the
      // checkpoint cycles stay as cheap as with the key pool.
      flush_batch();  // the engine drains the queue before a Reset
      lat->Reset();
      ref->Reset();
    } else if (r < 960) {
      flush_batch();
      // Full checkpoint/restore cycle through the versioned snapshot
      // container (v3 when sketch cells are present, v2 otherwise):
      // raw state -> CSV file -> fresh staging table -> fresh Lat.
      const int snap_version = lat->HasSketchAggs()
                                   ? storage::kSnapshotVersionV3
                                   : storage::kSnapshotVersionV2;
      ASSERT_EQ(lat->HasSketchAggs(), param.sketch);
      const int64_t now = clock.NowMicros();
      auto staging = MakeStateTable(*lat);
      for (Row& record : lat->ExportState()) {
        ASSERT_TRUE(staging->Insert(std::move(record)).ok());
      }
      auto status =
          storage::WriteTableCsv(*staging, snapshot_path, snap_version);
      ASSERT_TRUE(status.ok()) << status.ToString();
      auto loaded = MakeStateTable(*lat);
      status = storage::LoadTableCsv(loaded.get(), snapshot_path, snap_version);
      ASSERT_TRUE(status.ok()) << status.ToString();
      std::vector<Row> keys, records;
      loaded->ScanBatch(std::nullopt, loaded->row_count(), &keys, &records);
      auto fresh = Lat::Create(spec);
      ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
      status = (*fresh)->ImportState(records, now);
      ASSERT_TRUE(status.ok()) << status.ToString();
      lat = std::move(*fresh);
      ASSERT_NO_FATAL_FAILURE(compare_all(op)) << "post-restore";
    }
    if (op % 64 == 63) {
      flush_batch();
      ASSERT_NO_FATAL_FAILURE(compare_all(op));
    }
  }
  flush_batch();
  ASSERT_NO_FATAL_FAILURE(compare_all(ops));
  std::remove(snapshot_path.c_str());
  std::remove((snapshot_path + ".bak").c_str());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, LatDifferentialTest,
    // A bounded LAT has one shard whatever its spec asks for, so bounded
    // cases name 1 or the automatic count only.
    ::testing::Values(DiffCase{false, 1}, DiffCase{false, 8},
                      DiffCase{true, 1},
                      DiffCase{false, 1, true}, DiffCase{false, 8, true},
                      DiffCase{false, 1, false, true},
                      DiffCase{true, 1, false, true},
                      DiffCase{false, 8, true, true},
                      DiffCase{false, 8, false, true, 4096},
                      DiffCase{true, 1, false, false, 0,
                               DiffOrder::kMinDoubleAsc},
                      DiffCase{true, 1, false, false, 0,
                               DiffOrder::kLastStringDesc},
                      DiffCase{false, 8, true, false, 0,
                               DiffOrder::kCountDesc, /*fresh_groups=*/true},
                      // Every insert once the LAT is full is a new group
                      // decided against the heap root in place, which it
                      // sometimes beats and sometimes loses to.
                      DiffCase{true, 0, false, false, 0,
                               DiffOrder::kCountDesc, /*fresh_groups=*/true},
                      DiffCase{true, 0, false, false, 0,
                               DiffOrder::kMinDoubleAsc,
                               /*fresh_groups=*/true}),
    [](const ::testing::TestParamInfo<DiffCase>& info) {
      std::string name =
          std::string(info.param.bounded ? "Bounded" : "Unbounded") +
          "Shards" +
          (info.param.shard_count == 0
               ? std::string("Auto")
               : std::to_string(info.param.shard_count));
      if (info.param.batched) name += "Batched";
      if (info.param.fresh_groups) name += "FreshGroups";
      if (info.param.sketch) {
        name += info.param.sketch_budget > 0 ? "SketchBudgeted" : "Sketch";
      }
      if (info.param.order == DiffOrder::kMinDoubleAsc) name += "MinDoubleAsc";
      if (info.param.order == DiffOrder::kLastStringDesc) {
        name += "LastStringDesc";
      }
      return name;
    });

}  // namespace
}  // namespace sqlcm::cm
