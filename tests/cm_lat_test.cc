#include "sqlcm/lat.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "catalog/schema.h"
#include "common/random.h"
#include "common/value.h"
#include "storage/catalog.h"
#include "storage/table.h"

namespace sqlcm::cm {
namespace {

using common::Row;
using common::Value;

QueryRecord MakeQuery(const std::string& sig, double duration,
                      const std::string& text = "q") {
  QueryRecord rec;
  rec.logical_signature = sig;
  rec.duration_secs = duration;
  rec.text = text;
  rec.id = 1;
  return rec;
}

LatSpec BasicSpec() {
  LatSpec spec;
  spec.name = "L";
  spec.object_class = MonitoredClass::kQuery;
  spec.group_by = {{"Logical_Signature", "Sig"}};
  spec.aggregates = {{LatAggFunc::kCount, "", "N", false},
                     {LatAggFunc::kAvg, "Duration", "AvgDur", false},
                     {LatAggFunc::kSum, "Duration", "SumDur", false},
                     {LatAggFunc::kStdev, "Duration", "SdDur", false},
                     {LatAggFunc::kMin, "Duration", "MinDur", false},
                     {LatAggFunc::kMax, "Duration", "MaxDur", false},
                     {LatAggFunc::kFirst, "Query_Text", "FirstText", false},
                     {LatAggFunc::kLast, "Query_Text", "LastText", false}};
  return spec;
}

TEST(LatTest, AllAggregateFunctions) {
  auto lat = *Lat::Create(BasicSpec());
  auto q1 = MakeQuery("s", 1.0, "first");
  auto q2 = MakeQuery("s", 3.0, "second");
  auto q3 = MakeQuery("s", 5.0, "third");
  lat->Insert(&q1, 0);
  lat->Insert(&q2, 0);
  lat->Insert(&q3, 0);

  Row row;
  ASSERT_TRUE(lat->LookupForObject(&q1, 0, &row));
  ASSERT_EQ(row.size(), 9u);
  EXPECT_EQ(row[0].string_value(), "s");
  EXPECT_EQ(row[1].int_value(), 3);                    // COUNT
  EXPECT_DOUBLE_EQ(row[2].double_value(), 3.0);        // AVG
  EXPECT_DOUBLE_EQ(row[3].double_value(), 9.0);        // SUM
  EXPECT_DOUBLE_EQ(row[4].double_value(), 2.0);        // STDEV of {1,3,5}
  EXPECT_DOUBLE_EQ(row[5].AsDouble(), 1.0);            // MIN
  EXPECT_DOUBLE_EQ(row[6].AsDouble(), 5.0);            // MAX
  EXPECT_EQ(row[7].string_value(), "first");           // FIRST
  EXPECT_EQ(row[8].string_value(), "third");           // LAST
}

TEST(LatTest, GroupsAreIndependent) {
  auto lat = *Lat::Create(BasicSpec());
  auto a = MakeQuery("a", 1.0);
  auto b = MakeQuery("b", 10.0);
  lat->Insert(&a, 0);
  lat->Insert(&b, 0);
  lat->Insert(&b, 0);
  EXPECT_EQ(lat->size(), 2u);
  Row row;
  ASSERT_TRUE(lat->LookupForObject(&a, 0, &row));
  EXPECT_EQ(row[1].int_value(), 1);
  ASSERT_TRUE(lat->LookupByKey({Value::String("b")}, 0, &row));
  EXPECT_EQ(row[1].int_value(), 2);
  EXPECT_FALSE(lat->LookupByKey({Value::String("missing")}, 0, &row));
}

TEST(LatTest, FindColumnCaseInsensitive) {
  auto lat = *Lat::Create(BasicSpec());
  EXPECT_EQ(lat->FindColumn("sig"), 0);
  EXPECT_EQ(lat->FindColumn("AVGDUR"), 2);
  EXPECT_EQ(lat->FindColumn("nope"), -1);
  EXPECT_EQ(lat->group_width(), 1u);
}

TEST(LatTest, TopKEvictionKeepsLargest) {
  LatSpec spec;
  spec.name = "Top";
  spec.group_by = {{"ID", ""}};
  spec.aggregates = {{LatAggFunc::kMax, "Duration", "Dur", false}};
  spec.ordering = {{"Dur", true}};  // DESC: keep largest, evict smallest
  spec.max_rows = 3;
  auto lat = *Lat::Create(std::move(spec));

  std::vector<Row> evicted;
  lat->set_evict_callback([&](Row row) { evicted.push_back(std::move(row)); });

  for (int i = 1; i <= 10; ++i) {
    QueryRecord rec;
    rec.id = static_cast<uint64_t>(i);
    rec.duration_secs = static_cast<double>(i % 7);  // durations 1..6,0,...
    lat->Insert(&rec, 0);
  }
  EXPECT_EQ(lat->size(), 3u);
  EXPECT_EQ(evicted.size(), 7u);
  auto rows = lat->Snapshot(0);
  ASSERT_EQ(rows.size(), 3u);
  // Durations inserted: 1,2,3,4,5,6,0,1,2,3 -> top3 = 6,5,4.
  EXPECT_DOUBLE_EQ(rows[0][1].AsDouble(), 6.0);
  EXPECT_DOUBLE_EQ(rows[1][1].AsDouble(), 5.0);
  EXPECT_DOUBLE_EQ(rows[2][1].AsDouble(), 4.0);
}

TEST(LatTest, AscendingOrderingEvictsLargest) {
  LatSpec spec;
  spec.name = "Bottom";
  spec.group_by = {{"ID", ""}};
  spec.aggregates = {{LatAggFunc::kMax, "Duration", "Dur", false}};
  spec.ordering = {{"Dur", false}};  // ASC: keep smallest
  spec.max_rows = 2;
  auto lat = *Lat::Create(std::move(spec));
  for (int i = 1; i <= 5; ++i) {
    QueryRecord rec;
    rec.id = static_cast<uint64_t>(i);
    rec.duration_secs = static_cast<double>(i);
    lat->Insert(&rec, 0);
  }
  auto rows = lat->Snapshot(0);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_DOUBLE_EQ(rows[0][1].AsDouble(), 1.0);
  EXPECT_DOUBLE_EQ(rows[1][1].AsDouble(), 2.0);
}

TEST(LatTest, UpdatedGroupRepositionsInHeap) {
  LatSpec spec;
  spec.name = "Top";
  spec.group_by = {{"Logical_Signature", "Sig"}};
  spec.aggregates = {{LatAggFunc::kSum, "Duration", "Total", false}};
  spec.ordering = {{"Total", true}};
  spec.max_rows = 2;
  auto lat = *Lat::Create(std::move(spec));

  auto a = MakeQuery("a", 1.0);
  auto b = MakeQuery("b", 5.0);
  auto c = MakeQuery("c", 3.0);
  lat->Insert(&a, 0);
  lat->Insert(&b, 0);
  // 'a' grows past 'c' before 'c' arrives.
  lat->Insert(&a, 0);
  lat->Insert(&a, 0);  // a total = 3.0... equal; add more
  lat->Insert(&a, 0);  // a total = 4.0
  lat->Insert(&c, 0);  // c=3.0 is now least important -> evicted
  auto rows = lat->Snapshot(0);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][0].string_value(), "b");
  EXPECT_EQ(rows[1][0].string_value(), "a");
}

TEST(LatTest, ResetClears) {
  auto lat = *Lat::Create(BasicSpec());
  auto q = MakeQuery("s", 1.0);
  lat->Insert(&q, 0);
  lat->Reset();
  EXPECT_EQ(lat->size(), 0u);
  Row row;
  EXPECT_FALSE(lat->LookupForObject(&q, 0, &row));
}

TEST(LatTest, AgingWindowDropsOldValues) {
  LatSpec spec;
  spec.name = "Aging";
  spec.group_by = {{"Logical_Signature", "Sig"}};
  spec.aggregates = {{LatAggFunc::kAvg, "Duration", "AvgDur", true},
                     {LatAggFunc::kCount, "", "N", true},
                     {LatAggFunc::kMax, "Duration", "MaxDur", true},
                     {LatAggFunc::kAvg, "Duration", "AvgAll", false}};
  spec.aging_window_micros = 10'000'000;  // t = 10s
  spec.aging_block_micros = 1'000'000;    // Δ = 1s
  auto lat = *Lat::Create(std::move(spec));

  auto q_old = MakeQuery("s", 100.0);
  auto q_new = MakeQuery("s", 2.0);
  lat->Insert(&q_old, /*now=*/0);
  lat->Insert(&q_new, /*now=*/15'000'000);  // 15s: first value aged out

  Row row;
  ASSERT_TRUE(lat->LookupForObject(&q_new, 15'000'000, &row));
  EXPECT_DOUBLE_EQ(row[1].double_value(), 2.0);  // aging AVG sees only new
  EXPECT_EQ(row[2].int_value(), 1);              // aging COUNT
  EXPECT_DOUBLE_EQ(row[3].AsDouble(), 2.0);      // aging MAX
  EXPECT_DOUBLE_EQ(row[4].double_value(), 51.0); // non-aging AVG sees both

  // Within the window, both values are visible.
  lat->Reset();
  lat->Insert(&q_old, 0);
  lat->Insert(&q_new, 5'000'000);
  ASSERT_TRUE(lat->LookupForObject(&q_new, 5'000'000, &row));
  EXPECT_EQ(row[2].int_value(), 2);
  EXPECT_DOUBLE_EQ(row[1].double_value(), 51.0);
}

TEST(LatTest, AgingBlockCountBounded) {
  LatSpec spec;
  spec.name = "Aging";
  spec.group_by = {{"Logical_Signature", "Sig"}};
  spec.aggregates = {{LatAggFunc::kCount, "", "N", true}};
  spec.aging_window_micros = 1'000'000;
  spec.aging_block_micros = 100'000;
  auto lat = *Lat::Create(std::move(spec));
  auto q = MakeQuery("s", 1.0);
  // Insert over a long time range; per-row storage must stay bounded by
  // ~2t/Δ blocks (paper §4.3) because expired blocks are pruned on insert.
  for (int64_t now = 0; now < 100'000'000; now += 50'000) {
    lat->Insert(&q, now);
  }
  Row row;
  ASSERT_TRUE(lat->LookupForObject(&q, 100'000'000, &row));
  // Window = 1s, inserts every 50ms -> about 20 in window.
  EXPECT_NEAR(static_cast<double>(row[1].int_value()), 20.0, 3.0);
}

TEST(LatTest, SpecValidation) {
  LatSpec no_group = BasicSpec();
  no_group.group_by.clear();
  EXPECT_FALSE(Lat::Create(std::move(no_group)).ok());

  LatSpec bad_attr = BasicSpec();
  bad_attr.group_by = {{"NoSuchAttr", ""}};
  EXPECT_TRUE(Lat::Create(std::move(bad_attr)).status().IsNotFound());

  LatSpec sum_of_string = BasicSpec();
  sum_of_string.aggregates = {{LatAggFunc::kSum, "Query_Text", "S", false}};
  EXPECT_TRUE(Lat::Create(std::move(sum_of_string)).status().IsTypeError());

  LatSpec size_without_ordering = BasicSpec();
  size_without_ordering.max_rows = 5;
  EXPECT_FALSE(Lat::Create(std::move(size_without_ordering)).ok());

  LatSpec bad_ordering = BasicSpec();
  bad_ordering.max_rows = 5;
  bad_ordering.ordering = {{"nope", true}};
  EXPECT_TRUE(Lat::Create(std::move(bad_ordering)).status().IsNotFound());

  LatSpec aging_without_params = BasicSpec();
  aging_without_params.aggregates = {{LatAggFunc::kAvg, "Duration", "A", true}};
  EXPECT_FALSE(Lat::Create(std::move(aging_without_params)).ok());

  LatSpec dup_cols = BasicSpec();
  dup_cols.aggregates = {{LatAggFunc::kAvg, "Duration", "X", false},
                         {LatAggFunc::kMax, "Duration", "x", false}};
  EXPECT_FALSE(Lat::Create(std::move(dup_cols)).ok());
}

TEST(LatTest, PersistAndSeedRoundTrip) {
  storage::Catalog catalog;
  auto schema = catalog::TableSchema::Create(
      "snap",
      {{"Sig", catalog::ColumnType::kString},
       {"N", catalog::ColumnType::kInt},
       {"AvgDur", catalog::ColumnType::kDouble},
       {"ts", catalog::ColumnType::kInt}},
      {});
  storage::Table* table = *catalog.CreateTable(std::move(*schema));

  LatSpec spec;
  spec.name = "L";
  spec.group_by = {{"Logical_Signature", "Sig"}};
  spec.aggregates = {{LatAggFunc::kCount, "", "N", false},
                     {LatAggFunc::kAvg, "Duration", "AvgDur", false}};
  auto lat = *Lat::Create(spec);
  auto a = MakeQuery("a", 2.0);
  auto b = MakeQuery("b", 4.0);
  lat->Insert(&a, 0);
  lat->Insert(&a, 0);
  lat->Insert(&b, 0);
  ASSERT_TRUE(lat->PersistTo(table, 12345, 0).ok());
  EXPECT_EQ(table->row_count(), 2u);

  auto restored = *Lat::Create(spec);
  ASSERT_TRUE(restored->SeedFrom(*table, 0).ok());
  EXPECT_EQ(restored->size(), 2u);
  Row row;
  ASSERT_TRUE(restored->LookupByKey({Value::String("a")}, 0, &row));
  EXPECT_EQ(row[1].int_value(), 2);
  EXPECT_DOUBLE_EQ(row[2].double_value(), 2.0);
  // Seeded AVG keeps evolving with the reconstructed count.
  restored->Insert(&a, 0);  // a: count 3, sum was 4.0 + 2.0 = 6.0
  ASSERT_TRUE(restored->LookupByKey({Value::String("a")}, 0, &row));
  EXPECT_EQ(row[1].int_value(), 3);
  EXPECT_DOUBLE_EQ(row[2].double_value(), 2.0);
}

class LatPropertyTest : public ::testing::TestWithParam<uint64_t> {};

// Property: for any random insert stream, every aggregate matches a
// straightforward reference computation.
TEST_P(LatPropertyTest, AggregatesMatchReference) {
  auto lat = *Lat::Create(BasicSpec());
  common::Random rng(GetParam());

  struct Ref {
    int64_t count = 0;
    double sum = 0, sumsq = 0;
    double min = 0, max = 0;
    std::string first, last;
    bool any = false;
  };
  std::map<std::string, Ref> reference;

  const int inserts = 500;
  for (int i = 0; i < inserts; ++i) {
    const std::string sig = "sig" + std::to_string(rng.Uniform(5));
    const double duration = static_cast<double>(rng.UniformInt(0, 1000)) / 8.0;
    const std::string text = "q" + std::to_string(i);
    auto rec = MakeQuery(sig, duration, text);
    lat->Insert(&rec, 0);

    Ref& ref = reference[sig];
    ++ref.count;
    ref.sum += duration;
    ref.sumsq += duration * duration;
    if (!ref.any || duration < ref.min) ref.min = duration;
    if (!ref.any || duration > ref.max) ref.max = duration;
    if (!ref.any) ref.first = text;
    ref.last = text;
    ref.any = true;
  }

  ASSERT_EQ(lat->size(), reference.size());
  for (const auto& [sig, ref] : reference) {
    Row row;
    ASSERT_TRUE(lat->LookupByKey({Value::String(sig)}, 0, &row)) << sig;
    EXPECT_EQ(row[1].int_value(), ref.count);
    EXPECT_NEAR(row[2].double_value(), ref.sum / ref.count, 1e-9);
    EXPECT_NEAR(row[3].double_value(), ref.sum, 1e-9);
    const double n = static_cast<double>(ref.count);
    const double variance =
        ref.count > 1 ? std::max(0.0, (ref.sumsq - ref.sum * ref.sum / n) /
                                          (n - 1))
                      : 0.0;
    EXPECT_NEAR(row[4].double_value(), std::sqrt(variance), 1e-6);
    EXPECT_DOUBLE_EQ(row[5].AsDouble(), ref.min);
    EXPECT_DOUBLE_EQ(row[6].AsDouble(), ref.max);
    EXPECT_EQ(row[7].string_value(), ref.first);
    EXPECT_EQ(row[8].string_value(), ref.last);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LatPropertyTest,
                         ::testing::Values(1u, 2u, 3u, 42u, 1234u));

class LatTopKPropertyTest : public ::testing::TestWithParam<uint64_t> {};

// Property: a size-limited LAT always holds exactly the top-k groups under
// its ordering, for any insertion order.
TEST_P(LatTopKPropertyTest, RetainsExactTopK) {
  LatSpec spec;
  spec.name = "Top";
  spec.group_by = {{"ID", ""}};
  spec.aggregates = {{LatAggFunc::kMax, "Duration", "Dur", false}};
  spec.ordering = {{"Dur", true}};
  spec.max_rows = 8;
  auto lat = *Lat::Create(std::move(spec));

  common::Random rng(GetParam());
  std::vector<double> durations;
  const int n = 200;
  for (int i = 1; i <= n; ++i) {
    QueryRecord rec;
    rec.id = static_cast<uint64_t>(i);
    // Unique durations so the top-8 set is unambiguous.
    rec.duration_secs =
        static_cast<double>(i) + static_cast<double>(rng.Uniform(100)) * 1000.0;
    durations.push_back(rec.duration_secs);
    lat->Insert(&rec, 0);
  }
  std::sort(durations.rbegin(), durations.rend());
  auto rows = lat->Snapshot(0);
  ASSERT_EQ(rows.size(), 8u);
  for (size_t i = 0; i < 8; ++i) {
    EXPECT_DOUBLE_EQ(rows[i][1].AsDouble(), durations[i]) << "rank " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LatTopKPropertyTest,
                         ::testing::Values(7u, 8u, 9u));

TEST(LatTest, ConcurrentInsertsAreConsistent) {
  LatSpec spec;
  spec.name = "Conc";
  spec.group_by = {{"Logical_Signature", "Sig"}};
  spec.aggregates = {{LatAggFunc::kCount, "", "N", false},
                     {LatAggFunc::kSum, "Duration", "S", false}};
  auto lat = *Lat::Create(std::move(spec));

  constexpr int kThreads = 8;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&lat, t] {
      common::Random rng(static_cast<uint64_t>(t));
      for (int i = 0; i < kPerThread; ++i) {
        QueryRecord rec;
        rec.logical_signature = "sig" + std::to_string(rng.Uniform(4));
        rec.duration_secs = 1.0;
        lat->Insert(&rec, 0);
      }
    });
  }
  for (auto& t : threads) t.join();

  // Total inserts are conserved across groups.
  int64_t total = 0;
  double sum = 0;
  for (const Row& row : lat->Snapshot(0)) {
    total += row[1].int_value();
    sum += row[2].AsDouble();
  }
  EXPECT_EQ(total, kThreads * kPerThread);
  EXPECT_DOUBLE_EQ(sum, static_cast<double>(kThreads * kPerThread));
}

TEST(LatTest, ConcurrentInsertsWithEviction) {
  LatSpec spec;
  spec.name = "ConcEvict";
  spec.group_by = {{"ID", ""}};
  spec.aggregates = {{LatAggFunc::kMax, "Duration", "D", false}};
  spec.ordering = {{"D", true}};
  spec.max_rows = 16;
  auto lat = *Lat::Create(std::move(spec));
  std::atomic<size_t> evictions{0};
  lat->set_evict_callback([&](Row) { evictions.fetch_add(1); });

  constexpr int kThreads = 8;
  constexpr int kPerThread = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&lat, t] {
      for (int i = 0; i < kPerThread; ++i) {
        QueryRecord rec;
        rec.id = static_cast<uint64_t>(t * kPerThread + i + 1);
        rec.duration_secs = static_cast<double>(rec.id % 997);
        lat->Insert(&rec, 0);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_LE(lat->size(), 16u);
  EXPECT_EQ(lat->Snapshot(0).size(), lat->size());
  EXPECT_GE(evictions.load(), kThreads * kPerThread - 16u);
}

// ---------------------------------------------------------------------------
// v2 raw-state snapshots (ExportState / ImportState)
// ---------------------------------------------------------------------------

catalog::ColumnType StateTypeFor(common::ValueKind kind) {
  switch (kind) {
    case common::ValueKind::kInt: return catalog::ColumnType::kInt;
    case common::ValueKind::kDouble: return catalog::ColumnType::kDouble;
    case common::ValueKind::kBool: return catalog::ColumnType::kBool;
    default: return catalog::ColumnType::kString;
  }
}

std::unique_ptr<storage::Table> MakeV1Table(const Lat& lat) {
  std::vector<catalog::Column> columns;
  for (size_t i = 0; i < lat.num_columns(); ++i) {
    columns.push_back(
        {lat.column_names()[i], StateTypeFor(lat.column_kinds()[i])});
  }
  auto schema = catalog::TableSchema::Create("v1", std::move(columns), {});
  EXPECT_TRUE(schema.ok()) << schema.status().ToString();
  return std::make_unique<storage::Table>(0, std::move(*schema));
}

/// Order-independent rendering of rows. Doubles render with the
/// shortest exact spelling, so string equality here is bit equality.
std::string RenderRows(const std::vector<Row>& rows) {
  std::vector<std::string> lines;
  for (const Row& row : rows) {
    std::string line;
    for (const Value& v : row) {
      line += v.ToString();
      line += '|';
    }
    lines.push_back(std::move(line));
  }
  std::sort(lines.begin(), lines.end());
  std::string out;
  for (const std::string& line : lines) {
    out += line;
    out += '\n';
  }
  return out;
}

LatSpec StateSpec(bool aging, size_t shards) {
  LatSpec spec = BasicSpec();
  spec.name = "S";
  spec.shard_count = shards;
  if (aging) {
    spec.aggregates.push_back({LatAggFunc::kCount, "", "AgN", true});
    spec.aggregates.push_back({LatAggFunc::kSum, "Duration", "AgSum", true});
    spec.aggregates.push_back({LatAggFunc::kAvg, "Duration", "AgAvg", true});
    spec.aggregates.push_back({LatAggFunc::kStdev, "Duration", "AgSd", true});
    spec.aggregates.push_back({LatAggFunc::kMin, "Duration", "AgMin", true});
    spec.aggregates.push_back({LatAggFunc::kMax, "Duration", "AgMax", true});
    spec.aging_window_micros = 10'000;
    spec.aging_block_micros = 1'000;
  }
  return spec;
}

class LatStateSnapshotTest
    : public ::testing::TestWithParam<std::tuple<bool, size_t>> {};

// Every aggregate function — including STDEV and mid-window aging variants —
// must read identically after a state round-trip, and a second checkpoint
// of the restored LAT must reproduce the first snapshot exactly.
TEST_P(LatStateSnapshotTest, CheckpointRestoreCheckpointIsIdempotent) {
  const bool aging = std::get<0>(GetParam());
  const size_t shards = std::get<1>(GetParam());
  const LatSpec spec = StateSpec(aging, shards);
  auto lat = *Lat::Create(spec);
  common::Random rng(7);
  int64_t now = 0;
  for (int i = 0; i < 400; ++i) {
    auto q = MakeQuery("sig" + std::to_string(rng.Uniform(7)),
                       rng.NextDouble() * 100 - 50, "t" + std::to_string(i));
    lat->Insert(&q, now);
    now += static_cast<int64_t>(rng.Uniform(700));
  }

  const std::vector<Row> first = lat->ExportState();
  EXPECT_EQ(first.size(), lat->size());

  auto restored = *Lat::Create(spec);
  ASSERT_TRUE(restored->ImportState(first, now).ok());
  EXPECT_EQ(restored->size(), lat->size());

  for (int k = 0; k < 7; ++k) {
    const Row key = {Value::String("sig" + std::to_string(k))};
    Row a, b;
    const bool in_orig = lat->LookupByKey(key, now, &a);
    ASSERT_EQ(in_orig, restored->LookupByKey(key, now, &b));
    if (!in_orig) continue;
    ASSERT_EQ(a.size(), b.size());
    for (size_t c = 0; c < a.size(); ++c) {
      EXPECT_EQ(a[c].ToString(), b[c].ToString())
          << "column " << lat->column_names()[c];
    }
  }

  EXPECT_EQ(RenderRows(first), RenderRows(restored->ExportState()));
}

INSTANTIATE_TEST_SUITE_P(AgingAndShards, LatStateSnapshotTest,
                         ::testing::Combine(::testing::Bool(),
                                            ::testing::Values<size_t>(1, 8)));

// The tagged-value codec must survive payloads containing its own
// delimiters, quotes and the literal "NULL".
TEST(LatTest, RecycledSlotExportsLikeAFreshRow) {
  // A seeded row carries values in cells its aggregate does not maintain
  // (SeedFrom fills a LAST column's min/max/first too). Once it is evicted,
  // the group that reuses its slot must export exactly what a fresh LAT
  // exports for that group.
  LatSpec spec;
  spec.name = "recycle";
  spec.group_by = {{"ID", ""}};
  spec.aggregates = {{LatAggFunc::kCount, "", "N", false},
                     {LatAggFunc::kLast, "Query_Text", "Text", false}};
  spec.ordering = {{"ID", true}};
  spec.max_rows = 1;
  auto lat = *Lat::Create(spec);
  ASSERT_EQ(lat->shard_count(), 1u);
  storage::Catalog catalog;
  auto schema = catalog::TableSchema::Create(
      "seed",
      {{"ID", catalog::ColumnType::kInt},
       {"N", catalog::ColumnType::kInt},
       {"Text", catalog::ColumnType::kString}},
      {});
  storage::Table* seed = *catalog.CreateTable(std::move(*schema));
  ASSERT_TRUE(
      seed->Insert({Value::Int(1), Value::Int(5), Value::String("seeded")})
          .ok());
  ASSERT_TRUE(lat->SeedFrom(*seed, 0).ok());
  QueryRecord rec;
  rec.text = "fresh";
  rec.id = 2;
  lat->Insert(&rec, 0);  // evicts the seeded row, freeing its slot
  rec.id = 3;
  lat->Insert(&rec, 0);  // takes the seeded row's slot
  auto fresh = *Lat::Create(spec);
  fresh->Insert(&rec, 0);

  auto export_of = [](const Lat& l) {
    const std::vector<Row> rows = l.ExportState();
    EXPECT_EQ(rows.size(), 1u);
    return rows.empty() ? Row() : rows[0];
  };
  const Row got = export_of(*lat);
  const Row want = export_of(*fresh);
  ASSERT_EQ(got.size(), want.size());
  for (size_t c = 0; c < got.size(); ++c) {
    EXPECT_EQ(got[c].ToString(), want[c].ToString())
        << lat->StateColumnNames()[c];
  }
}

TEST(LatTest, ByteChargeIndependentOfSlotHistory) {
  // A row's byte charge counts its strings' lengths, not the capacity its
  // slot kept from earlier occupants: a byte-bounded LAT fed texts of
  // varying length, whose recycled slots keep long strings' capacity,
  // charges its survivors what a fresh LAT charges for the same rows.
  LatSpec spec;
  spec.name = "bytes";
  spec.group_by = {{"Logical_Signature", "Sig"}};
  spec.aggregates = {{LatAggFunc::kMax, "Duration", "Dur", false},
                     {LatAggFunc::kLast, "Query_Text", "Text", false}};
  spec.ordering = {{"Dur", true}};
  spec.max_bytes = 8192;
  auto lat = *Lat::Create(spec);
  common::Random rng(23);
  for (int i = 1; i <= 3000; ++i) {
    QueryRecord rec;
    rec.logical_signature = "sig" + std::to_string(rng.Uniform(200));
    rec.text = std::string(1 + rng.Uniform(300), 'x');
    rec.duration_secs = static_cast<double>(rng.Uniform(1000)) * 10000.0 + i;
    lat->Insert(&rec, 0);
  }
  EXPECT_GT(lat->stats().evictions.value(), 0u);
  EXPECT_LE(lat->approx_bytes(), spec.max_bytes);
  auto fresh = *Lat::Create(spec);
  ASSERT_TRUE(fresh->ImportState(lat->ExportState(), 0).ok());
  EXPECT_EQ(fresh->size(), lat->size());
  EXPECT_EQ(fresh->approx_bytes(), lat->approx_bytes());
}

TEST(LatTest, RecycledSlotSketchesActLikeAbsentOnes) {
  // A recycled slot keeps its sketches emptied rather than freed. A group
  // merged into that slot without sketch data must read, export, merge and
  // be charged bytes exactly like the same group in a fresh LAT, where the
  // sketches were never allocated.
  LatSpec spec;
  spec.name = "sketchy";
  spec.group_by = {{"ID", ""}};
  spec.aggregates = {{LatAggFunc::kCount, "", "N", false},
                     {LatAggFunc::kQuantile, "Duration", "P50", false, 0.5},
                     {LatAggFunc::kDistinct, "Query_Text", "DQ", false}};
  spec.ordering = {{"ID", true}};
  spec.max_rows = 1;
  spec.max_bytes = 1 << 20;  // keeps approx_bytes() maintained
  auto lat = *Lat::Create(spec);
  auto fresh = *Lat::Create(spec);
  // A state record for group `id` with one observation and no sketch cells
  // (what a federation delta carries for a group whose inputs were NULL).
  const auto bare_record = [&spec](int64_t id) {
    Row record = {Value::Int(id)};
    for (const LatAggColumn& col : spec.aggregates) {
      record.insert(record.end(), {Value::Int(1), Value::Double(0),
                                   Value::Double(0), Value::Bool(false),
                                   Value::Null(), Value::Null(), Value::Null(),
                                   Value::Null(), Value::String("")});
      if (LatAggFuncIsSketch(col.func)) record.push_back(Value::String(""));
    }
    return std::vector<Row>{std::move(record)};
  };
  QueryRecord rec;
  rec.id = 1;
  rec.duration_secs = 2.5;
  rec.text = "filled";
  lat->Insert(&rec, 0);  // slot 0: both sketches hold data
  ASSERT_TRUE(lat->MergeState(bare_record(2), 0).ok());  // evicts group 1
  ASSERT_TRUE(lat->MergeState(bare_record(3), 0).ok());  // reuses slot 0
  ASSERT_TRUE(fresh->MergeState(bare_record(3), 0).ok());
  const auto expect_same = [&](const char* when) {
    SCOPED_TRACE(when);
    EXPECT_EQ(RenderRows(lat->Snapshot(0)), RenderRows(fresh->Snapshot(0)));
    EXPECT_EQ(RenderRows(lat->ExportState()), RenderRows(fresh->ExportState()));
    EXPECT_EQ(lat->approx_bytes(), fresh->approx_bytes());
    size_t got_bytes = 1, got_cells = 1, want_bytes = 0, want_cells = 0;
    lat->SketchFootprint(&got_bytes, &got_cells);
    fresh->SketchFootprint(&want_bytes, &want_cells);
    EXPECT_EQ(got_bytes, want_bytes);
    EXPECT_EQ(got_cells, want_cells);
  };
  expect_same("emptied");
  Row row;
  ASSERT_TRUE(lat->LookupByKey({Value::Int(3)}, 0, &row));
  EXPECT_TRUE(row[2].is_null());     // QUANTILE of nothing
  EXPECT_EQ(row[3].int_value(), 0);  // DISTINCT of nothing

  // Merging real sketch state into the emptied sketches equals merging it
  // into absent ones.
  LatSpec source_spec = spec;
  source_spec.name = "source";
  auto source = *Lat::Create(source_spec);
  rec.id = 3;
  for (int i = 0; i < 20; ++i) {
    rec.duration_secs = 0.5 * i;
    rec.text = "t" + std::to_string(i % 7);
    source->Insert(&rec, 0);
  }
  const std::vector<Row> shipped = source->ExportState();
  ASSERT_TRUE(lat->MergeState(shipped, 0).ok());
  ASSERT_TRUE(fresh->MergeState(shipped, 0).ok());
  expect_same("merged");
}

TEST(LatTest, StateRoundTripPreservesHostileStrings) {
  LatSpec spec = BasicSpec();
  auto lat = *Lat::Create(spec);
  auto q1 = MakeQuery("s", 1.0, "a:b;c%d");
  auto q2 = MakeQuery("s", 2.0, "NULL");
  lat->Insert(&q1, 0);
  lat->Insert(&q2, 0);

  auto restored = *Lat::Create(spec);
  ASSERT_TRUE(restored->ImportState(lat->ExportState(), 0).ok());
  Row row;
  ASSERT_TRUE(restored->LookupByKey({Value::String("s")}, 0, &row));
  EXPECT_EQ(row[7].string_value(), "a:b;c%d");  // FIRST
  EXPECT_EQ(row[8].string_value(), "NULL");     // LAST (the string, not SQL NULL)
}

// Materialized-row seeding (SeedFrom): STDEV round-trips through the
// documented moment reconstruction instead of resetting to 0, and the
// seeded moments keep evolving consistently.
TEST(LatTest, SeedFromReconstructsStdevFromMaterializedRow) {
  auto lat = *Lat::Create(BasicSpec());
  for (const double d : {1.0, 3.0, 5.0}) {
    auto q = MakeQuery("s", d);
    lat->Insert(&q, 0);
  }
  auto table = MakeV1Table(*lat);
  ASSERT_TRUE(lat->PersistTo(table.get(), 0, 0).ok());

  auto restored = *Lat::Create(BasicSpec());
  ASSERT_TRUE(restored->SeedFrom(*table, 0).ok());
  Row row;
  ASSERT_TRUE(restored->LookupByKey({Value::String("s")}, 0, &row));
  EXPECT_EQ(row[1].int_value(), 3);
  EXPECT_DOUBLE_EQ(row[2].double_value(), 3.0);  // AVG
  EXPECT_DOUBLE_EQ(row[3].double_value(), 9.0);  // SUM
  EXPECT_DOUBLE_EQ(row[4].double_value(), 2.0);  // STDEV of {1,3,5}

  auto q = MakeQuery("s", 3.0);
  restored->Insert(&q, 0);
  ASSERT_TRUE(restored->LookupByKey({Value::String("s")}, 0, &row));
  EXPECT_EQ(row[1].int_value(), 4);
  EXPECT_DOUBLE_EQ(row[2].double_value(), 3.0);
  // {1,3,5,3}: sumsq 44, sum 12 -> variance (44 - 144/4)/3 = 8/3.
  EXPECT_DOUBLE_EQ(row[4].double_value(), std::sqrt(8.0 / 3.0));
}

// Two sessions folding with out-of-order `now` across a block boundary
// push a fresh aging block at every alternation; the insert-path cap bounds
// the deque by merging same-label blocks, so window reads stay exact.
TEST(LatTest, OutOfOrderAgingInsertsStayExactAndBounded) {
  LatSpec spec;
  spec.name = "Aged";
  spec.group_by = {{"Logical_Signature", "Sig"}};
  spec.aggregates = {{LatAggFunc::kCount, "", "AgN", true},
                     {LatAggFunc::kSum, "Duration", "AgSum", true}};
  spec.aging_window_micros = 10'000;
  spec.aging_block_micros = 1'000;
  auto lat = *Lat::Create(spec);
  auto q = MakeQuery("s", 1.0);
  for (int k = 0; k < 100; ++k) {
    lat->Insert(&q, 5'500);  // block 5000
    lat->Insert(&q, 4'900);  // block 4000, folded after the newer one
  }
  EXPECT_GT(lat->stats().aging_merges.value(), 0u);

  Row row;
  // Both blocks inside the window: every insert counts.
  for (const int64_t now : {5'500, 14'500}) {
    ASSERT_TRUE(lat->LookupByKey({Value::String("s")}, now, &row));
    EXPECT_EQ(row[1].int_value(), 200) << now;
    EXPECT_DOUBLE_EQ(row[2].double_value(), 200.0) << now;
  }
  // Block 4000 has left the window, block 5000 has not.
  ASSERT_TRUE(lat->LookupByKey({Value::String("s")}, 15'500, &row));
  EXPECT_EQ(row[1].int_value(), 100);
  EXPECT_DOUBLE_EQ(row[2].double_value(), 100.0);
}

// ---------------------------------------------------------------------------
// Sketch aggregates (QUANTILE / DISTINCT)
// ---------------------------------------------------------------------------

LatSpec SketchSpec() {
  LatSpec spec;
  spec.name = "Sk";
  spec.object_class = MonitoredClass::kQuery;
  spec.group_by = {{"Logical_Signature", "Sig"}};
  spec.aggregates = {{LatAggFunc::kCount, "", "N", false},
                     {LatAggFunc::kQuantile, "Duration", "P50", false, 0.5},
                     {LatAggFunc::kQuantile, "Duration", "P95", false, 0.95},
                     {LatAggFunc::kDistinct, "Query_Text", "DText", false},
                     {LatAggFunc::kDistinct, "Duration", "DDur", false}};
  return spec;
}

// A fully collapsed sketch still keeps buckets {0, 1} per sign, so a
// budget below kMinBudgetBytes could never be met.
TEST(LatTest, QuantileSketchBudgetBelowCollapsedSizeIsRejected) {
  LatSpec spec = SketchSpec();
  spec.quantile_sketch_bytes = 150;
  EXPECT_FALSE(Lat::Create(spec).ok());
  spec.quantile_sketch_bytes = QuantileSketch::kMinBudgetBytes - 1;
  EXPECT_FALSE(Lat::Create(spec).ok());

  spec.quantile_sketch_bytes = 320;
  ASSERT_EQ(QuantileSketch::kMinBudgetBytes, 320u);
  auto lat = Lat::Create(spec);
  ASSERT_TRUE(lat.ok()) << lat.status();
  for (const double d : {1.0, 1000.0}) {
    auto q = MakeQuery("s", d);
    (*lat)->Insert(&q, 0);
  }
  EXPECT_EQ((*lat)->stats().sketch_collapses.value(), 0u);  // level 0
}

TEST(LatSketchTest, QuantileAndDistinctFoldAndRead) {
  LatSpec spec = SketchSpec();
  spec.quantile_sketch_bytes = 0;  // unbounded: level-0 accuracy applies
  auto lat = *Lat::Create(spec);
  EXPECT_TRUE(lat->HasSketchAggs());
  for (int i = 1; i <= 200; ++i) {
    auto q = MakeQuery("s", static_cast<double>(i),
                       "t" + std::to_string(i % 50));
    lat->Insert(&q, 0);
  }
  Row row;
  ASSERT_TRUE(lat->LookupByKey({Value::String("s")}, 0, &row));
  EXPECT_EQ(row[1].int_value(), 200);  // COUNT
  // Exact p50 of {1..200} is 100 (rank ⌊0.5·199⌋); p95 is 190. The sketch
  // promises relative error alpha (1% at level 0, plus slack for the
  // deterministic bucket rounding).
  EXPECT_NEAR(row[2].double_value(), 100.0, 100.0 * 0.011);
  EXPECT_NEAR(row[3].double_value(), 190.0, 190.0 * 0.011);
  // 50 distinct texts / 200 distinct durations: small enough that the HLL
  // linear-counting regime is near-exact.
  EXPECT_NEAR(static_cast<double>(row[4].int_value()), 50.0, 3.0);
  EXPECT_NEAR(static_cast<double>(row[5].int_value()), 200.0, 12.0);
}

// QUANTILE answers NULL while no numeric value has entered the sketch (NaN
// has no rank) — while COUNT and DISTINCT keep counting the folds.
TEST(LatSketchTest, QuantileIsNullWhenOnlyNanFolded) {
  auto lat = *Lat::Create(SketchSpec());
  auto q = MakeQuery("s", std::nan(""), "text");
  lat->Insert(&q, 0);
  Row row;
  ASSERT_TRUE(lat->LookupByKey({Value::String("s")}, 0, &row));
  EXPECT_EQ(row[1].int_value(), 1);
  EXPECT_TRUE(row[2].is_null());  // P50
  EXPECT_TRUE(row[3].is_null());  // P95
  EXPECT_EQ(row[4].int_value(), 1);
  EXPECT_EQ(row[5].int_value(), 1);  // NaN is non-null: it counts as a value
}

// A restored record whose #sketch cells are empty (a group whose sketches
// never folded anything) must read as the documented empty answers —
// QUANTILE NULL, DISTINCT 0 — not garbage or a crash.
TEST(LatSketchTest, EmptySketchCellsRestoreToNullAndZero) {
  auto lat = *Lat::Create(SketchSpec());
  auto q = MakeQuery("s", 7.0, "text");
  lat->Insert(&q, 0);
  const std::vector<std::string> names = lat->StateColumnNames();
  std::vector<Row> blanked = lat->ExportState();
  for (Row& record : blanked) {
    for (size_t i = 0; i < names.size(); ++i) {
      if (names[i].size() > 7 &&
          names[i].compare(names[i].size() - 7, 7, "#sketch") == 0) {
        record[i] = Value::String("");
      }
    }
  }
  auto restored = *Lat::Create(SketchSpec());
  ASSERT_TRUE(restored->ImportState(blanked, 0).ok());
  Row row;
  ASSERT_TRUE(restored->LookupByKey({Value::String("s")}, 0, &row));
  EXPECT_EQ(row[1].int_value(), 1);   // fold count survives
  EXPECT_TRUE(row[2].is_null());      // QUANTILE: NULL on empty
  EXPECT_TRUE(row[3].is_null());
  EXPECT_EQ(row[4].int_value(), 0);   // DISTINCT: 0 on empty
  EXPECT_EQ(row[5].int_value(), 0);
}

// A corrupt sketch cell must fail the import loudly, not restore silently.
TEST(LatSketchTest, CorruptSketchCellRejectsImport) {
  auto lat = *Lat::Create(SketchSpec());
  auto q = MakeQuery("s", 7.0, "text");
  lat->Insert(&q, 0);
  const std::vector<std::string> names = lat->StateColumnNames();
  std::vector<Row> corrupted = lat->ExportState();
  for (Row& record : corrupted) {
    for (size_t i = 0; i < names.size(); ++i) {
      if (names[i] == "P50#sketch") record[i] = Value::String("garbage");
    }
  }
  auto restored = *Lat::Create(SketchSpec());
  EXPECT_FALSE(restored->ImportState(corrupted, 0).ok());
}

// A failed import adopts nothing: every record is decoded before the first
// one lands, so a bad last record leaves the LAT empty rather than holding
// the records before it.
TEST(LatSketchTest, FailedImportLeavesLatEmpty) {
  auto lat = *Lat::Create(SketchSpec());
  for (int g = 0; g < 8; ++g) {
    auto q = MakeQuery("sig" + std::to_string(g), 1.0 + g, "text");
    lat->Insert(&q, 0);
  }
  std::vector<Row> records = lat->ExportState();
  ASSERT_EQ(records.size(), 8u);
  const std::vector<std::string> names = lat->StateColumnNames();
  const size_t p50 = static_cast<size_t>(
      std::find(names.begin(), names.end(), "P50#sketch") - names.begin());
  ASSERT_LT(p50, names.size());
  records.back()[p50] = Value::String("garbage");

  auto restored = *Lat::Create(SketchSpec());
  EXPECT_FALSE(restored->ImportState(records, 0).ok());
  EXPECT_EQ(restored->size(), 0u);
  auto merged = *Lat::Create(SketchSpec());
  EXPECT_FALSE(merged->MergeState(records, 0).ok());
  EXPECT_EQ(merged->size(), 0u);
}

// v3 state snapshots must round-trip sketch-bearing LATs bit-exactly, even
// after budget collapses raised the quantile sketch's level.
TEST(LatSketchTest, SketchStateRoundTripIsIdempotent) {
  LatSpec spec = SketchSpec();
  spec.quantile_sketch_bytes = 1024;  // force mid-stream collapses
  auto lat = *Lat::Create(spec);
  common::Random rng(17);
  for (int i = 0; i < 600; ++i) {
    auto q = MakeQuery("sig" + std::to_string(rng.Uniform(5)),
                       std::exp(rng.NextDouble() * 16.0 - 8.0),
                       "t" + std::to_string(rng.Uniform(400)));
    lat->Insert(&q, 0);
  }
  EXPECT_GT(lat->stats().sketch_collapses.value(), 0u);

  const std::vector<Row> first = lat->ExportState();
  auto restored = *Lat::Create(spec);
  ASSERT_TRUE(restored->ImportState(first, 0).ok());
  EXPECT_EQ(restored->size(), lat->size());

  for (int k = 0; k < 5; ++k) {
    const Row key = {Value::String("sig" + std::to_string(k))};
    Row a, b;
    const bool in_orig = lat->LookupByKey(key, 0, &a);
    ASSERT_EQ(in_orig, restored->LookupByKey(key, 0, &b));
    if (!in_orig) continue;
    ASSERT_EQ(a.size(), b.size());
    for (size_t c = 0; c < a.size(); ++c) {
      EXPECT_EQ(a[c].ToString(), b[c].ToString())
          << "column " << lat->column_names()[c];
    }
  }
  EXPECT_EQ(RenderRows(first), RenderRows(restored->ExportState()));
}

// Fleet-merge: folding one node's state export into another must read
// exactly like a single LAT that saw every insert — including when budget
// collapses happened at different points on each side (level-based collapse
// commutes with merge).
TEST(LatSketchTest, MergeStateFoldsSketchesExactly) {
  LatSpec spec = SketchSpec();
  spec.quantile_sketch_bytes = 2048;
  auto whole = *Lat::Create(spec);
  auto node_a = *Lat::Create(spec);
  auto node_b = *Lat::Create(spec);
  common::Random rng(23);
  for (int i = 0; i < 500; ++i) {
    auto q = MakeQuery("sig" + std::to_string(rng.Uniform(6)),
                       std::exp(rng.NextDouble() * 12.0 - 6.0),
                       "t" + std::to_string(rng.Uniform(300)));
    whole->Insert(&q, 0);
    (i % 2 == 0 ? node_a : node_b)->Insert(&q, 0);
  }
  ASSERT_TRUE(node_a->MergeState(node_b->ExportState(), 0).ok());
  EXPECT_EQ(node_a->size(), whole->size());
  for (int k = 0; k < 6; ++k) {
    const Row key = {Value::String("sig" + std::to_string(k))};
    Row merged, mono;
    ASSERT_TRUE(whole->LookupByKey(key, 0, &mono));
    ASSERT_TRUE(node_a->LookupByKey(key, 0, &merged));
    for (size_t c = 0; c < mono.size(); ++c) {
      EXPECT_EQ(merged[c].ToString(), mono[c].ToString())
          << "column " << whole->column_names()[c];
    }
  }
}

TEST(LatSketchTest, SpecValidationAndParseAliases) {
  EXPECT_EQ(*ParseLatAggFunc("QUANTILE"), LatAggFunc::kQuantile);
  EXPECT_EQ(*ParseLatAggFunc("percentile"), LatAggFunc::kQuantile);
  EXPECT_EQ(*ParseLatAggFunc("DISTINCT"), LatAggFunc::kDistinct);
  EXPECT_EQ(*ParseLatAggFunc("Count_Distinct"), LatAggFunc::kDistinct);

  LatSpec aging_sketch = SketchSpec();
  aging_sketch.aggregates = {{LatAggFunc::kQuantile, "Duration", "P", true, 0.5}};
  aging_sketch.aging_window_micros = 10'000;
  aging_sketch.aging_block_micros = 1'000;
  EXPECT_FALSE(Lat::Create(std::move(aging_sketch)).ok());

  LatSpec bad_q = SketchSpec();
  bad_q.aggregates = {{LatAggFunc::kQuantile, "Duration", "P", false, 1.5}};
  EXPECT_FALSE(Lat::Create(std::move(bad_q)).ok());

  LatSpec nan_q = SketchSpec();
  nan_q.aggregates = {
      {LatAggFunc::kQuantile, "Duration", "P", false, std::nan("")}};
  EXPECT_FALSE(Lat::Create(std::move(nan_q)).ok());

  LatSpec string_quantile = SketchSpec();
  string_quantile.aggregates = {
      {LatAggFunc::kQuantile, "Query_Text", "P", false, 0.5}};
  EXPECT_TRUE(Lat::Create(std::move(string_quantile)).status().IsTypeError());
}

// The per-cell byte budget must hold under a wide dynamic range, with the
// pressure observable through stats and the footprint probe.
TEST(LatSketchTest, QuantileBudgetCollapseIsObservableAndBounded) {
  LatSpec spec;
  spec.name = "Budget";
  spec.group_by = {{"Logical_Signature", "Sig"}};
  spec.aggregates = {{LatAggFunc::kQuantile, "Duration", "P90", false, 0.9}};
  spec.quantile_sketch_bytes = 512;
  auto lat = *Lat::Create(spec);
  common::Random rng(31);
  for (int i = 0; i < 3000; ++i) {
    auto q = MakeQuery("s", std::exp(rng.NextDouble() * 14.0 - 7.0));
    lat->Insert(&q, 0);
  }
  EXPECT_GT(lat->stats().sketch_collapses.value(), 0u);
  size_t bytes = 0, cells = 0;
  lat->SketchFootprint(&bytes, &cells);
  EXPECT_GT(cells, 0u);
  EXPECT_LE(bytes, spec.quantile_sketch_bytes);  // one group, one sketch cell
  Row row;
  ASSERT_TRUE(lat->LookupByKey({Value::String("s")}, 0, &row));
  EXPECT_FALSE(row[1].is_null());
  EXPECT_GT(row[1].double_value(), 0.0);

  // A sketch-free LAT reports a zero footprint.
  auto plain = *Lat::Create(BasicSpec());
  EXPECT_FALSE(plain->HasSketchAggs());
  plain->SketchFootprint(&bytes, &cells);
  EXPECT_EQ(bytes, 0u);
  EXPECT_EQ(cells, 0u);
}

// Legacy v1 materialized rows cannot reconstruct sketch state; SeedFrom must
// reject the spec up front instead of silently zeroing the sketches.
TEST(LatSketchTest, SeedFromRejectsSketchBearingSpec) {
  auto lat = *Lat::Create(SketchSpec());
  auto q = MakeQuery("s", 1.0, "t");
  lat->Insert(&q, 0);
  auto table = MakeV1Table(*lat);
  ASSERT_TRUE(lat->PersistTo(table.get(), 0, 0).ok());

  auto restored = *Lat::Create(SketchSpec());
  const auto status = restored->SeedFrom(*table, 0);
  EXPECT_TRUE(status.IsInvalidArgument()) << status.ToString();
  EXPECT_EQ(restored->size(), 0u);
}

// ---------------------------------------------------------------------------
// Aggregate empty-window semantics (NULL-vs-0 audit)
// ---------------------------------------------------------------------------

// A row whose aging blocks have all expired and a restored row whose block
// deque was never allocated are the same empty window: every aggregate must
// answer identically on both (COUNT 0, STDEV 0, SUM/AVG/MIN/MAX NULL).
TEST(LatTest, AgingEmptyWindowMatchesUnallocatedDeque) {
  LatSpec spec;
  spec.name = "Empty";
  spec.group_by = {{"Logical_Signature", "Sig"}};
  spec.aggregates = {{LatAggFunc::kCount, "", "AgN", true},
                     {LatAggFunc::kSum, "Duration", "AgSum", true},
                     {LatAggFunc::kAvg, "Duration", "AgAvg", true},
                     {LatAggFunc::kStdev, "Duration", "AgSd", true},
                     {LatAggFunc::kMin, "Duration", "AgMin", true},
                     {LatAggFunc::kMax, "Duration", "AgMax", true}};
  spec.aging_window_micros = 10'000;
  spec.aging_block_micros = 1'000;
  auto expired = *Lat::Create(spec);
  auto q = MakeQuery("s", 5.0);
  expired->Insert(&q, 0);

  // Build the unallocated-deque twin by restoring the same record with its
  // #blocks cells blanked (how a group that never folded an aging value
  // round-trips through the state codec).
  const std::vector<std::string> names = expired->StateColumnNames();
  std::vector<Row> blanked = expired->ExportState();
  for (Row& record : blanked) {
    for (size_t i = 0; i < names.size(); ++i) {
      if (names[i].size() > 7 &&
          names[i].compare(names[i].size() - 7, 7, "#blocks") == 0) {
        record[i] = Value::String("");
      }
    }
  }
  auto unallocated = *Lat::Create(spec);
  ASSERT_TRUE(unallocated->ImportState(blanked, 0).ok());

  const int64_t later = 1'000'000;  // far past the 10ms window
  Row a, b;
  ASSERT_TRUE(expired->LookupByKey({Value::String("s")}, later, &a));
  ASSERT_TRUE(unallocated->LookupByKey({Value::String("s")}, later, &b));
  ASSERT_EQ(a.size(), b.size());
  for (size_t c = 0; c < a.size(); ++c) {
    EXPECT_EQ(a[c].ToString(), b[c].ToString())
        << "column " << expired->column_names()[c];
  }
  EXPECT_EQ(a[1].int_value(), 0);          // COUNT: 0, never NULL
  EXPECT_TRUE(a[2].is_null());             // SUM
  EXPECT_TRUE(a[3].is_null());             // AVG
  EXPECT_DOUBLE_EQ(a[4].double_value(), 0.0);  // STDEV: 0 under 2 samples
  EXPECT_TRUE(a[5].is_null());             // MIN
  EXPECT_TRUE(a[6].is_null());             // MAX
}

TEST(LatEvictionRankTest, RanksAgreeWithValueCompare) {
  // For every pair of ranked values: a lower rank means strictly less
  // important under the column's direction, and Compare ties rank equal.
  using common::ValueKind;
  const double kInf = std::numeric_limits<double>::infinity();
  const std::vector<Value> doubles = {
      Value::Null(),         Value::Double(-kInf),  Value::Double(-1e300),
      Value::Double(-2.5),   Value::Double(-5e-324), Value::Double(-0.0),
      Value::Double(0.0),    Value::Double(5e-324), Value::Double(1.0),
      Value::Int(1),         Value::Double(1e300),  Value::Double(kInf)};
  const std::vector<Value> ints = {
      Value::Null(), Value::Int(INT64_MIN + 1), Value::Int(-7), Value::Int(0),
      Value::Int(1), Value::Int(INT64_MAX - 1)};
  const std::vector<Value> strings = {Value::Null(), Value::String(""),
                                      Value::String("a"), Value::String("b")};
  for (const bool desc : {true, false}) {
    for (const auto& [kind, values] :
         {std::pair{ValueKind::kDouble, doubles},
          std::pair{ValueKind::kInt, ints},
          std::pair{ValueKind::kString, strings}}) {
      for (const Value& a : values) {
        for (const Value& b : values) {
          const uint64_t ra = LatEvictionRank(a, kind, desc);
          const uint64_t rb = LatEvictionRank(b, kind, desc);
          ASSERT_LE(ra, kLatRankMax) << a.ToString();
          const int c = a.Compare(b);
          const std::string what = a.ToString() + " vs " + b.ToString() +
                                   (desc ? " DESC" : " ASC");
          if (c == 0) EXPECT_EQ(ra, rb) << what;
          // Less important: smaller under DESC, larger under ASC.
          if (ra < rb) EXPECT_TRUE(desc ? c < 0 : c > 0) << what;
        }
      }
    }
  }
  // Non-NULL strings share one rank, above NULL's under DESC.
  EXPECT_EQ(LatEvictionRank(Value::String("a"), ValueKind::kString, true),
            LatEvictionRank(Value::String("z"), ValueKind::kString, true));
  EXPECT_LT(LatEvictionRank(Value::Null(), ValueKind::kString, true),
            LatEvictionRank(Value::String("a"), ValueKind::kString, true));
  // Values no single rank can order join every tie-break.
  EXPECT_EQ(LatEvictionRank(Value::Double(std::nan("")), ValueKind::kDouble,
                            true),
            kLatRankUnordered);
  EXPECT_EQ(LatEvictionRank(Value::Double(1.5), ValueKind::kInt, true),
            kLatRankUnordered);
}

TEST(LatTest, FoldsOnlyTheMomentsAColumnReads) {
  // LAST keeps no first/min/max copies: those state cells export NULL,
  // while count still moves (the federation delta's no-change test).
  LatSpec spec;
  spec.name = "moments";
  spec.group_by = {{"Logical_Signature", "Sig"}};
  spec.aggregates = {{LatAggFunc::kLast, "Query_Text", "LastText", false},
                     {LatAggFunc::kMin, "Query_Text", "MinText", false},
                     {LatAggFunc::kFirst, "Query_Text", "FirstText", false}};
  auto lat = *Lat::Create(spec);
  for (const char* text : {"m", "b", "z"}) {
    auto rec = MakeQuery("s", 1.0, text);
    lat->Insert(&rec, 0);
  }
  Row row;
  ASSERT_TRUE(lat->LookupByKey({Value::String("s")}, 0, &row));
  EXPECT_EQ(row[1].string_value(), "z");
  EXPECT_EQ(row[2].string_value(), "b");
  EXPECT_EQ(row[3].string_value(), "m");

  const auto names = lat->StateColumnNames();
  const std::vector<Row> rows = lat->ExportState();
  ASSERT_EQ(rows.size(), 1u);
  auto cell = [&](const std::string& name) {
    const auto it = std::find(names.begin(), names.end(), name);
    return rows[0][static_cast<size_t>(it - names.begin())].string_value();
  };
  EXPECT_EQ(rows[0][1].int_value(), 3);  // LastText#count
  EXPECT_EQ(cell("LastText#min"), "N");
  EXPECT_EQ(cell("LastText#max"), "N");
  EXPECT_EQ(cell("LastText#first"), "N");
  EXPECT_EQ(cell("LastText#last"), "Sz");
  EXPECT_EQ(cell("MinText#min"), "Sb");
  EXPECT_EQ(cell("MinText#max"), "N");
  EXPECT_EQ(cell("FirstText#first"), "Sm");
  EXPECT_EQ(cell("FirstText#min"), "N");

  // The state round-trips through a fresh LAT unchanged.
  auto restored = *Lat::Create(spec);
  ASSERT_TRUE(restored->ImportState(rows, 0).ok());
  Row again;
  ASSERT_TRUE(restored->LookupByKey({Value::String("s")}, 0, &again));
  EXPECT_EQ(again, row);
}

TEST(LatTest, EvictCallbackGatedOnListener) {
  // With a listener flag installed, victims are materialized and reported
  // only while the flag reads true; eviction itself never waits on it.
  LatSpec spec;
  spec.name = "gated";
  spec.group_by = {{"Logical_Signature", "Sig"}};
  spec.aggregates = {{LatAggFunc::kMax, "Duration", "D", false}};
  spec.ordering = {{"D", true}};
  spec.max_rows = 2;
  auto lat = *Lat::Create(spec);
  std::atomic<bool> listening{false};
  int reported = 0;
  lat->set_evict_callback([&](Row) { ++reported; }, &listening);
  for (int i = 0; i < 5; ++i) {
    auto rec = MakeQuery("s" + std::to_string(i), i);
    lat->Insert(&rec, 0);
  }
  EXPECT_EQ(lat->stats().evictions.value(), 3u);
  EXPECT_EQ(reported, 0);
  listening.store(true);
  auto rec = MakeQuery("s9", 9.0);
  lat->Insert(&rec, 0);
  EXPECT_EQ(lat->stats().evictions.value(), 4u);
  EXPECT_EQ(reported, 1);
}

/// Two records of every monitored class whose string attributes differ
/// pairwise, each leaving some of them empty. Query 0 is plan-backed (its
/// text and signatures come from the plan's shared strings), query 1 is
/// plan-less.
struct ProbeRecords {
  std::shared_ptr<engine::CachedPlan> plan =
      std::make_shared<engine::CachedPlan>();
  QueryRecord query[2];
  BlockEventView block[2];
  TransactionRecord txn[2];
  TimerRecord timer[2];

  ProbeRecords() {
    plan->sql_text = "SELECT a FROM t WHERE id = ?";
    plan->logical_signature = engine::SharedText::Intern("Filter(t.id=?)");
    plan->physical_signature = engine::SharedText::Intern("");
    query[0].plan = plan;
    query[0].text = query[0].logical_signature = "ignored: plan wins";
    query[0].physical_signature = "ignored too";
    query[0].query_type = "SELECT";
    query[0].user = "alice";
    query[0].application = "";
    query[1].id = 2;
    query[1].text = "";
    query[1].logical_signature = "L";
    query[1].physical_signature = "P";
    query[1].query_type = "";
    query[1].user = "";
    query[1].application = "app";
    block[0] = {&query[0], 0.5, "row:t/1"};
    block[1] = {&query[1], 0, ""};
    txn[0].logical_signature = "[1,2]";
    txn[0].user = "bob";
    txn[1].physical_signature = "[3]";
    txn[1].application = "app2";
    timer[0].name = "t1";
  }

  const void* Record(MonitoredClass cls, int i) const {
    switch (cls) {
      case MonitoredClass::kQuery: return &query[i];
      case MonitoredClass::kBlocker:
      case MonitoredClass::kBlocked: return &block[i];
      case MonitoredClass::kTransaction: return &txn[i];
      case MonitoredClass::kTimer: return &timer[i];
      default: return nullptr;
    }
  }
};

constexpr MonitoredClass kProbedClasses[] = {
    MonitoredClass::kQuery, MonitoredClass::kBlocker, MonitoredClass::kBlocked,
    MonitoredClass::kTransaction, MonitoredClass::kTimer};

int Sign(int v) { return (v > 0) - (v < 0); }

TEST(BorrowedProbeTest, EveryStringAttributeProbesLikeItsValue) {
  // Each string attribute's borrowed probe hashes like HashRow of the
  // materialised key (alone and next to an INT column), equals it, and
  // orders against other values exactly as Value::Compare does.
  const ProbeRecords recs;
  const ObjectSchema& schema = ObjectSchema::Get();
  size_t strings = 0;
  for (const MonitoredClass cls : kProbedClasses) {
    for (const AttributeDef& def : schema.attributes(cls)) {
      if (def.kind != common::ValueKind::kString) {
        EXPECT_EQ(def.view, nullptr) << def.name;
        continue;
      }
      ++strings;
      ASSERT_NE(def.view, nullptr) << def.name;
      for (int i = 0; i < 2; ++i) {
        SCOPED_TRACE(std::string(MonitoredClassName(cls)) + "." + def.name +
                     " record " + std::to_string(i));
        const void* record = recs.Record(cls, i);
        const Value value = def.Get(record);
        const BorrowedProbe probe = def.Borrow(record);
        ASSERT_TRUE(probe.is_text);
        ASSERT_TRUE(value.is_string());
        EXPECT_EQ(probe.text, value.string_value());
        EXPECT_EQ(HashProbes(&probe, 1), common::HashRow({value}));
        const BorrowedProbe pair[] = {probe, BorrowedProbe::Of(Value::Int(7))};
        EXPECT_EQ(HashProbes(pair, 2), common::HashRow({value, Value::Int(7)}));
        EXPECT_EQ(probe.Materialize(), value);
        EXPECT_TRUE(probe == BorrowedProbe::Of(value));
        const Value other = def.Get(recs.Record(cls, 1 - i));
        for (const Value& against :
             {value, other, Value::String(value.string_value() + "x"),
              Value::String(""), Value::Null(), Value::Int(0),
              Value::Double(1.5), Value::Bool(true)}) {
          EXPECT_EQ(Sign(probe.Compare(against)), Sign(value.Compare(against)))
              << "against " << against.ToString();
        }
      }
      // The pair differs in every string attribute.
      EXPECT_NE(def.Borrow(recs.Record(cls, 0)).text,
                def.Borrow(recs.Record(cls, 1)).text)
          << def.name;
    }
  }
  // Query 6, Blocker/Blocked 7 each (Query's plus Resource), Transaction
  // 4, Timer 1.
  EXPECT_EQ(strings, 6u + 7u + 7u + 4u + 1u);
  // Plan-backed probes read the plan's shared strings in place.
  const AttributeDef& sig = schema.attributes(MonitoredClass::kQuery)[
      static_cast<size_t>(schema.FindAttribute(MonitoredClass::kQuery,
                                               "Logical_Signature"))];
  EXPECT_EQ(sig.Borrow(&recs.query[0]).text.data(),
            recs.plan->logical_signature.str().data());
}

TEST(BorrowedProbeTest, EveryStringAttributeKeysALatAgainstStoredKeys) {
  // A LAT grouped by each string attribute (and by it next to an INT
  // column): per-item Insert and the batched fold find the groups they
  // created, LookupForObject probes them in place, and LookupByKey's
  // materialised key meets the same rows.
  const ProbeRecords recs;
  const ObjectSchema& schema = ObjectSchema::Get();
  for (const MonitoredClass cls : kProbedClasses) {
    for (const AttributeDef& def : schema.attributes(cls)) {
      if (def.kind != common::ValueKind::kString) continue;
      for (const bool with_int : {false, true}) {
        SCOPED_TRACE(std::string(MonitoredClassName(cls)) + "." + def.name +
                     (with_int ? " + int" : ""));
        LatSpec spec;
        spec.name = "probe";
        spec.object_class = cls;
        spec.group_by = {{def.name, "K"}};
        const char* int_attr =
            cls == MonitoredClass::kTimer ? "Remaining_Alarms" : "Session_ID";
        if (with_int) spec.group_by.push_back({int_attr, "I"});
        spec.aggregates = {{LatAggFunc::kCount, "", "N", false}};
        auto lat = *Lat::Create(spec);
        const void* a = recs.Record(cls, 0);
        const void* b = recs.Record(cls, 1);
        const LatBatchItem items[] = {{a, 1}, {b, 2}, {a, 3}};
        lat->InsertBatch(items, 3);
        lat->Insert(b, 4);
        EXPECT_EQ(lat->size(), 2u);
        for (const void* record : {a, b}) {
          Row row;
          ASSERT_TRUE(lat->LookupForObject(record, 0, &row));
          EXPECT_EQ(row.back(), Value::Int(2));
          Row key = {def.Get(record)};
          if (with_int) {
            const AttributeDef& i = schema.attributes(cls)[static_cast<size_t>(
                schema.FindAttribute(cls, int_attr))];
            key.push_back(i.Get(record));
          }
          Row by_key;
          ASSERT_TRUE(lat->LookupByKey(key, 0, &by_key));
          EXPECT_EQ(by_key, row);
          key[0] = Value::String(key[0].string_value() + "x");
          EXPECT_FALSE(lat->LookupByKey(key, 0, &by_key));
        }
      }
    }
  }
}

}  // namespace
}  // namespace sqlcm::cm
