// Multi-threaded LAT stress over the sharded directory (§6.1): concurrent
// inserts, evictions, snapshots, resets and checkpoint/restore racing across
// shard boundaries. CI runs this binary under ThreadSanitizer (the
// `concurrency` filter of the tsan job), so the assertions here are mostly
// "invariants hold"; the interleavings themselves are the test.
//
// Also proves the determinism contract of LatSpec::shard_count: the shard
// count changes contention behaviour only, never aggregate results.
#include "sqlcm/lat.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "storage/catalog.h"

namespace sqlcm::cm {
namespace {

using common::Row;
using common::Value;

QueryRecord MakeQuery(const std::string& sig, double duration) {
  QueryRecord rec;
  rec.logical_signature = sig;
  rec.duration_secs = duration;
  rec.text = "q";
  rec.id = 1;
  return rec;
}

LatSpec CountSumSpec(const std::string& name, size_t shard_count) {
  LatSpec spec;
  spec.name = name;
  spec.group_by = {{"Logical_Signature", "Sig"}};
  spec.aggregates = {{LatAggFunc::kCount, "", "N", false},
                     {LatAggFunc::kSum, "Duration", "S", false}};
  spec.shard_count = shard_count;
  return spec;
}

// ---------------------------------------------------------------------------
// Determinism: shard count never changes results
// ---------------------------------------------------------------------------

std::vector<Row> SortedByKey(std::vector<Row> rows) {
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    return a[0].string_value() < b[0].string_value();
  });
  return rows;
}

TEST(LatShardDeterminismTest, AggregatesIndependentOfShardCount) {
  auto one = *Lat::Create(CountSumSpec("one", 1));
  auto many = *Lat::Create(CountSumSpec("many", 8));
  EXPECT_EQ(one->shard_count(), 1u);
  EXPECT_EQ(many->shard_count(), 8u);

  common::Random rng(7);
  for (int i = 0; i < 2000; ++i) {
    auto rec = MakeQuery("sig" + std::to_string(rng.Uniform(64)),
                         static_cast<double>(rng.UniformInt(0, 100)) / 4.0);
    one->Insert(&rec, 0);
    many->Insert(&rec, 0);
  }

  ASSERT_EQ(one->size(), many->size());
  const auto rows1 = SortedByKey(one->Snapshot(0));
  const auto rows8 = SortedByKey(many->Snapshot(0));
  ASSERT_EQ(rows1.size(), rows8.size());
  for (size_t i = 0; i < rows1.size(); ++i) {
    ASSERT_EQ(rows1[i].size(), rows8[i].size());
    EXPECT_EQ(rows1[i][0].string_value(), rows8[i][0].string_value());
    EXPECT_EQ(rows1[i][1].int_value(), rows8[i][1].int_value());
    EXPECT_DOUBLE_EQ(rows1[i][2].AsDouble(), rows8[i][2].AsDouble());
  }
}

TEST(LatShardDeterminismTest, AutomaticShardCountFollowsMaxRows) {
  // Every LAT with a row or byte budget has one shard, even when its spec
  // asks for more; an unbounded LAT keeps the default or its explicit count.
  const auto shards = [](size_t max_rows, size_t max_bytes,
                         size_t shard_count) {
    LatSpec spec = CountSumSpec("auto", shard_count);
    spec.ordering = {{"N", true}};
    spec.max_rows = max_rows;
    spec.max_bytes = max_bytes;
    return (*Lat::Create(std::move(spec)))->shard_count();
  };
  for (const size_t requested : {size_t{0}, size_t{8}}) {
    EXPECT_EQ(shards(10, 0, requested), 1u);
    EXPECT_EQ(shards(127, 0, requested), 1u);
    EXPECT_EQ(shards(128, 0, requested), 1u);
    EXPECT_EQ(shards(1000, 0, requested), 1u);
    EXPECT_EQ(shards(0, 4096, requested), 1u);
    EXPECT_EQ(shards(1000, 4096, requested), 1u);
  }
  EXPECT_GE(shards(0, 0, 0), 16u);
  EXPECT_EQ(shards(0, 0, 8), 8u);
}

// ---------------------------------------------------------------------------
// Cross-shard races
// ---------------------------------------------------------------------------

TEST(LatConcurrencyTest, InsertSnapshotResetRace) {
  auto spec = CountSumSpec("race", 8);
  auto lat = *Lat::Create(std::move(spec));

  constexpr int kWriters = 4;
  constexpr int kPerWriter = 4000;
  std::atomic<bool> done{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kWriters; ++t) {
    threads.emplace_back([&lat, t] {
      common::Random rng(static_cast<uint64_t>(t) + 1);
      for (int i = 0; i < kPerWriter; ++i) {
        auto rec = MakeQuery("sig" + std::to_string(rng.Uniform(32)), 1.0);
        lat->Insert(&rec, 0);
      }
    });
  }
  // Reader thread: snapshots and point lookups racing the writers.
  threads.emplace_back([&lat, &done] {
    Row row;
    while (!done.load(std::memory_order_acquire)) {
      const auto rows = lat->Snapshot(0);
      ASSERT_LE(rows.size(), 32u);
      for (const Row& r : rows) {
        ASSERT_EQ(r.size(), 3u);
        ASSERT_GE(r[1].int_value(), 1);
      }
      lat->LookupByKey({Value::String("sig0")}, 0, &row);
    }
  });
  // Reset thread: periodically drops everything mid-stream.
  threads.emplace_back([&lat, &done] {
    int resets = 0;
    while (!done.load(std::memory_order_acquire) && resets < 50) {
      lat->Reset();
      ++resets;
      std::this_thread::yield();
    }
  });
  for (int t = 0; t < kWriters; ++t) threads[static_cast<size_t>(t)].join();
  done.store(true, std::memory_order_release);
  for (size_t t = kWriters; t < threads.size(); ++t) threads[t].join();

  // Post-race coherence: counters balance and a final Reset empties it.
  EXPECT_LE(lat->size(), 32u);
  EXPECT_EQ(lat->Snapshot(0).size(), lat->size());
  lat->Reset();
  EXPECT_EQ(lat->size(), 0u);
  EXPECT_EQ(lat->approx_bytes(), 0u);
  auto rec = MakeQuery("fresh", 2.0);
  lat->Insert(&rec, 0);
  Row row;
  ASSERT_TRUE(lat->LookupForObject(&rec, 0, &row));
  EXPECT_EQ(row[1].int_value(), 1);
}

TEST(LatConcurrencyTest, EvictionRaceAcrossShards) {
  LatSpec spec;
  spec.name = "evict";
  spec.group_by = {{"ID", ""}};
  spec.aggregates = {{LatAggFunc::kMax, "Duration", "D", false}};
  spec.ordering = {{"D", true}};
  spec.max_rows = 24;
  auto lat = *Lat::Create(std::move(spec));
  std::atomic<size_t> evictions{0};
  lat->set_evict_callback([&](Row row) {
    ASSERT_EQ(row.size(), 2u);
    evictions.fetch_add(1, std::memory_order_relaxed);
  });

  constexpr int kThreads = 6;
  constexpr int kPerThread = 3000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&lat, t] {
      for (int i = 0; i < kPerThread; ++i) {
        QueryRecord rec;
        rec.id = static_cast<uint64_t>(t * kPerThread + i + 1);
        rec.duration_secs = static_cast<double>(rec.id % 4093);
        lat->Insert(&rec, 0);
      }
    });
  }
  // A racing resetter makes eviction contend with wholesale teardown.
  threads.emplace_back([&lat] {
    for (int i = 0; i < 20; ++i) {
      lat->Reset();
      std::this_thread::yield();
    }
  });
  for (auto& t : threads) t.join();

  EXPECT_LE(lat->size(), 24u);
  EXPECT_EQ(lat->Snapshot(0).size(), lat->size());
  EXPECT_GT(evictions.load(), 0u);
}

TEST(LatConcurrencyTest, ByteBudgetRace) {
  LatSpec spec;
  spec.name = "bytes";
  spec.group_by = {{"Logical_Signature", "Sig"}};
  spec.aggregates = {{LatAggFunc::kCount, "", "N", false}};
  spec.ordering = {{"N", true}};
  spec.max_bytes = 4096;
  auto lat = *Lat::Create(std::move(spec));

  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&lat, t] {
      for (int i = 0; i < 3000; ++i) {
        auto rec = MakeQuery(
            "thread" + std::to_string(t) + "_key" + std::to_string(i % 512),
            1.0);
        lat->Insert(&rec, 0);
      }
    });
  }
  for (auto& t : threads) t.join();
  // Each insert evicts down to the budget in its own latch hold, so the
  // budget holds as soon as the inserting threads have joined.
  EXPECT_LE(lat->approx_bytes(), 4096u);
  EXPECT_GE(lat->size(), 1u);
  EXPECT_GT(lat->stats().evictions.value(), 0u);
}

TEST(LatConcurrencyTest, CheckpointRestoreRace) {
  storage::Catalog catalog;
  auto schema = catalog::TableSchema::Create(
      "snap",
      {{"Sig", catalog::ColumnType::kString},
       {"N", catalog::ColumnType::kInt},
       {"S", catalog::ColumnType::kDouble},
       {"ts", catalog::ColumnType::kInt}},
      {});
  storage::Table* table = *catalog.CreateTable(std::move(*schema));

  auto lat = *Lat::Create(CountSumSpec("ckpt", 8));
  std::atomic<bool> done{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&lat, t] {
      for (int i = 0; i < 4000; ++i) {
        auto rec = MakeQuery("sig" + std::to_string((t * 7 + i) % 48), 0.5);
        lat->Insert(&rec, 0);
      }
    });
  }
  // Checkpointer: persists the live LAT and restores into a fresh one while
  // writers keep mutating rows across every shard.
  threads.emplace_back([&lat, table, &done] {
    while (!done.load(std::memory_order_acquire)) {
      ASSERT_TRUE(lat->PersistTo(table, /*timestamp=*/1, 0).ok());
      auto restored = *Lat::Create(CountSumSpec("restored", 2));
      ASSERT_TRUE(restored->SeedFrom(*table, 0).ok());
      // The restore is a coherent point-in-time image: every seeded group
      // has a positive count.
      for (const Row& row : restored->Snapshot(0)) {
        ASSERT_GE(row[1].int_value(), 1);
      }
      table->Truncate();
      std::this_thread::yield();
    }
  });
  for (int t = 0; t < 3; ++t) threads[static_cast<size_t>(t)].join();
  done.store(true, std::memory_order_release);
  threads.back().join();

  // Quiesced totals are exact: 3 writers x 4000 inserts.
  int64_t total = 0;
  for (const Row& row : lat->Snapshot(0)) total += row[1].int_value();
  EXPECT_EQ(total, 3 * 4000);
}

TEST(LatConcurrencyTest, HeapSkipOnUnchangedOrderingKey) {
  LatSpec spec;
  spec.name = "skip";
  spec.group_by = {{"Logical_Signature", "Sig"}};
  spec.aggregates = {{LatAggFunc::kMax, "Duration", "MaxDur", false}};
  spec.ordering = {{"MaxDur", true}};
  spec.max_rows = 4;
  auto lat = *Lat::Create(std::move(spec));

  auto hi = MakeQuery("a", 5.0);
  auto lo = MakeQuery("a", 3.0);
  lat->Insert(&hi, 0);  // creates the row: full heap maintenance
  EXPECT_EQ(lat->stats().heap_skips.value(), 0u);
  lat->Insert(&lo, 0);  // MAX unchanged -> ordering key unchanged -> skip
  EXPECT_EQ(lat->stats().heap_skips.value(), 1u);
  lat->Insert(&hi, 0);  // still unchanged
  EXPECT_EQ(lat->stats().heap_skips.value(), 2u);
  auto higher = MakeQuery("a", 9.0);
  lat->Insert(&higher, 0);  // key changes -> maintenance runs
  EXPECT_EQ(lat->stats().heap_skips.value(), 2u);

  // The skipped maintenance must not have stranded the row: it still
  // evicts in the right order.
  Row row;
  ASSERT_TRUE(lat->LookupForObject(&hi, 0, &row));
  EXPECT_DOUBLE_EQ(row[1].AsDouble(), 9.0);
}

TEST(LatConcurrencyTest, ShardCountRoundedUpAndClamped) {
  // An unbounded LAT's spec.shard_count is rounded up to a power of two
  // and clamped to [1, 1024].
  auto spec = CountSumSpec("clamp", 5);
  auto lat = *Lat::Create(std::move(spec));
  EXPECT_EQ(lat->shard_count(), 8u);

  auto big = CountSumSpec("big", 100000);
  auto lat2 = *Lat::Create(std::move(big));
  EXPECT_EQ(lat2->shard_count(), 1024u);
}


// ---------------------------------------------------------------------------
// Evicting inserts into shared LATs (perfbench e2_rules' shape)
// ---------------------------------------------------------------------------

LatSpec EvictSpec(const std::string& name, size_t max_rows = 10) {
  LatSpec spec;
  spec.name = name;
  spec.group_by = {{"ID", ""}};
  spec.aggregates = {{LatAggFunc::kCount, "", "N", false},
                     {LatAggFunc::kLast, "Query_Text", "Text", false},
                     {LatAggFunc::kLast, "Duration", "Dur", false}};
  spec.ordering = {{"ID", true}};
  spec.max_rows = max_rows;
  return spec;
}

/// Like EvictSpec but ordered by a heavily tied DOUBLE first (ASC), so most
/// victims are chosen by the full compare of the second column.
LatSpec TiedEvictSpec(const std::string& name) {
  LatSpec spec = EvictSpec(name);
  spec.ordering = {{"Dur", false}, {"ID", true}};
  return spec;
}

QueryRecord EvictRecord(uint64_t id) {
  static const double kDurations[] = {-0.0, 0.0, -2.5, 1.0, 3.5, -1e300};
  QueryRecord rec;
  rec.id = id;
  rec.text = "q" + std::to_string(id % 13);
  rec.duration_secs = kDurations[id % 6];
  return rec;
}

std::vector<int64_t> SurvivorIds(const Lat& lat) {
  std::vector<int64_t> ids;
  for (const Row& row : lat.Snapshot(0)) ids.push_back(row[0].int_value());
  std::sort(ids.begin(), ids.end());
  return ids;
}

TEST(LatConcurrencyTest, EvictingInsertsIntoSharedLats) {
  // Three threads raise statements with fresh IDs and insert each into
  // every shared 10-row LAT, so every insert creates a row and evicts one
  // while the other threads do the same on the same LATs. Each LAT has one
  // shard, and each new group is decided against the heap root in place,
  // with an evict listener on every LAT and a reader thread taking
  // snapshots and lookups throughout.
  constexpr int kThreads = 3;
  constexpr int kLats = 20;
  constexpr uint64_t kPerThread = 1500;
  const uint64_t inserts = kThreads * kPerThread;
  std::vector<std::unique_ptr<Lat>> lats;
  std::vector<std::mutex> evicted_mu(kLats);
  std::vector<std::vector<int64_t>> evicted_ids(kLats);
  for (int i = 0; i < kLats; ++i) {
    const std::string name = "shared" + std::to_string(i);
    lats.push_back(*Lat::Create(i % 2 == 0 ? EvictSpec(name)
                                           : TiedEvictSpec(name)));
    lats.back()->set_evict_callback([&evicted_mu, &evicted_ids, i](Row row) {
      std::lock_guard<std::mutex> lock(evicted_mu[i]);
      evicted_ids[i].push_back(row[0].int_value());
    });
  }
  EXPECT_EQ(lats[0]->shard_count(), 1u);
  std::atomic<bool> done{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&lats, t] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        const QueryRecord rec = EvictRecord(1 + i * kThreads + t);
        for (auto& lat : lats) lat->Insert(&rec, 0);
      }
    });
  }
  std::thread reader([&lats, &done] {
    size_t round = 0;
    while (!done.load(std::memory_order_acquire)) {
      const Lat& lat = *lats[round++ % lats.size()];
      for (const Row& row : lat.Snapshot(0)) {
        ASSERT_EQ(row[1].int_value(), 1);  // every ID is inserted once
        QueryRecord probe;
        probe.id = static_cast<uint64_t>(row[0].int_value());
        Row found;
        if (lat.LookupForObject(&probe, 0, &found)) {
          ASSERT_EQ(found[0].int_value(), row[0].int_value());
        }
      }
    }
  });
  for (auto& t : threads) t.join();
  done.store(true, std::memory_order_release);
  reader.join();

  for (int i = 0; i < kLats; ++i) {
    const Lat& lat = *lats[static_cast<size_t>(i)];
    EXPECT_EQ(lat.stats().inserts.value(), inserts) << lat.name();
    EXPECT_EQ(lat.stats().evictions.value(), inserts - 10) << lat.name();
    EXPECT_EQ(evicted_ids[static_cast<size_t>(i)].size(), inserts - 10)
        << lat.name();
    EXPECT_EQ(lat.size(), lat.spec().max_rows) << lat.name();
    EXPECT_EQ(lat.Snapshot(0).size(), lat.spec().max_rows) << lat.name();
    // No evicted ID is still live.
    std::vector<int64_t> evicted = evicted_ids[static_cast<size_t>(i)];
    std::sort(evicted.begin(), evicted.end());
    for (const int64_t id : SurvivorIds(lat)) {
      EXPECT_FALSE(std::binary_search(evicted.begin(), evicted.end(), id))
          << lat.name() << " id=" << id;
    }
  }
}

TEST(LatConcurrencyTest, ConcurrentFreshIdsKeepTheExactTopTen) {
  // Three threads insert disjoint fresh IDs, each in its own shuffled
  // order, into one bounded LAT ordered by ID DESC, at 10 and at 256 rows.
  // Its one shard decides every new group under its latch, so concurrent
  // eviction is an exact top-k: the survivors are the largest IDs.
  constexpr int kThreads = 3;
  constexpr uint64_t kPerThread = 3000;
  for (const size_t max_rows : {size_t{10}, size_t{256}}) {
    auto lat = *Lat::Create(EvictSpec("topk", max_rows));
    ASSERT_EQ(lat->shard_count(), 1u);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&lat, t] {
        std::vector<uint64_t> ids;
        for (uint64_t i = 0; i < kPerThread; ++i) {
          ids.push_back(1 + i * kThreads + t);
        }
        common::Random rng(static_cast<uint64_t>(t) + 7);
        for (size_t i = ids.size(); i > 1; --i) {
          std::swap(ids[i - 1], ids[rng.Uniform(i)]);
        }
        for (const uint64_t id : ids) {
          const QueryRecord rec = EvictRecord(id);
          lat->Insert(&rec, 0);
        }
      });
    }
    for (auto& t : threads) t.join();
    const auto total = static_cast<int64_t>(kThreads * kPerThread);
    const auto kept = static_cast<int64_t>(max_rows);
    std::vector<int64_t> want;
    for (int64_t id = total - kept + 1; id <= total; ++id) want.push_back(id);
    EXPECT_EQ(SurvivorIds(*lat), want) << "max_rows=" << max_rows;
    EXPECT_EQ(lat->stats().evictions.value(),
              static_cast<uint64_t>(total - kept))
        << "max_rows=" << max_rows;
  }
}

TEST(LatConcurrencyTest, SnapshotNeverExceedsMaxRows) {
  // Writers insert fresh IDs (each evicts) and repeat recent ones (hits)
  // into one 256-row LAT while a reader takes snapshots: an insert evicts
  // in the latch hold that put the LAT over its bound, so no snapshot ever
  // sees more than max_rows rows.
  constexpr size_t kMaxRows = 256;
  constexpr int kThreads = 3;
  constexpr uint64_t kPerThread = 6000;
  auto lat = *Lat::Create(EvictSpec("bound", kMaxRows));
  std::atomic<bool> done{false};
  std::atomic<size_t> snapshots{0};
  std::thread reader([&] {
    while (!done.load(std::memory_order_acquire)) {
      ASSERT_LE(lat->Snapshot(0).size(), kMaxRows);
      ASSERT_LE(lat->size(), kMaxRows);
      snapshots.fetch_add(1, std::memory_order_relaxed);
    }
  });
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&lat, t] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        // Every fourth insert repeats an ID this thread inserted lately.
        const uint64_t step = i % 4 == 3 ? i - 3 : i;
        const QueryRecord rec = EvictRecord(1 + step * kThreads + t);
        lat->Insert(&rec, 0);
      }
    });
  }
  for (auto& t : threads) t.join();
  done.store(true, std::memory_order_release);
  reader.join();
  EXPECT_GT(snapshots.load(), 0u);
  EXPECT_EQ(lat->size(), kMaxRows);
  EXPECT_EQ(lat->Snapshot(0).size(), kMaxRows);
}

TEST(LatConcurrencyTest, BatchNeverExceedsMaxRows) {
  // A writer folds 64 fresh IDs per InsertBatch into a 10-row LAT (every
  // item a new group) while a reader polls size() and takes snapshots. Each
  // new group enters the LAT in the latch hold that evicts for it, so no
  // reader ever sees more than max_rows rows.
  constexpr size_t kMaxRows = 10;
  constexpr size_t kBatch = 64;
  constexpr uint64_t kBatches = 400;
  auto lat = *Lat::Create(EvictSpec("batch_bound", kMaxRows));
  std::atomic<bool> done{false};
  std::atomic<size_t> polls{0};
  std::atomic<size_t> worst{0};
  std::thread reader([&] {
    while (!done.load(std::memory_order_acquire)) {
      size_t seen = lat->size();
      if (polls.load(std::memory_order_relaxed) % 8 == 0) {
        seen = std::max(seen, lat->Snapshot(0).size());
      }
      if (seen > worst.load(std::memory_order_relaxed)) {
        worst.store(seen, std::memory_order_relaxed);
      }
      polls.fetch_add(1, std::memory_order_relaxed);
    }
  });
  std::vector<QueryRecord> records(kBatch);
  std::vector<LatBatchItem> items(kBatch);
  for (uint64_t b = 0; b < kBatches; ++b) {
    for (size_t i = 0; i < kBatch; ++i) {
      records[i] = EvictRecord(1 + b * kBatch + i);
      items[i] = {&records[i], 0};
    }
    lat->InsertBatch(items.data(), items.size());
  }
  done.store(true, std::memory_order_release);
  reader.join();
  EXPECT_GT(polls.load(), 0u);
  EXPECT_LE(worst.load(), kMaxRows);
  EXPECT_EQ(lat->size(), kMaxRows);
  const auto total = static_cast<int64_t>(kBatches * kBatch);
  std::vector<int64_t> want;
  for (int64_t id = total - static_cast<int64_t>(kMaxRows) + 1; id <= total;
       ++id) {
    want.push_back(id);
  }
  EXPECT_EQ(SurvivorIds(*lat), want);
}

TEST(LatShardDeterminismTest, TieEvictsTheResidentRoot) {
  // In a one-shard LAT a new group that ties the heap root evicts the
  // root; one that sorts strictly after it is evicted itself. The
  // automatic count (one shard at 3 rows) decides it in place.
  for (const size_t shards : {size_t{0}, size_t{1}}) {
    LatSpec spec;
    spec.name = "tie";
    spec.group_by = {{"ID", ""}};
    spec.aggregates = {{LatAggFunc::kMax, "Duration", "D", false}};
    spec.ordering = {{"D", true}};
    spec.max_rows = 3;
    spec.shard_count = shards;
    auto lat = *Lat::Create(std::move(spec));
    std::vector<int64_t> evicted;
    lat->set_evict_callback(
        [&evicted](Row row) { evicted.push_back(row[0].int_value()); });
    auto insert = [&lat](uint64_t id, double duration) {
      QueryRecord rec;
      rec.id = id;
      rec.duration_secs = duration;
      lat->Insert(&rec, 0);
    };
    insert(1, 5.0);
    insert(2, 1.0);  // the root: least important
    insert(3, 7.0);
    insert(4, 1.0);  // ties the root: the resident root goes
    EXPECT_EQ(evicted, std::vector<int64_t>({2})) << "shards=" << shards;
    EXPECT_EQ(SurvivorIds(*lat), std::vector<int64_t>({1, 3, 4}))
        << "shards=" << shards;
    insert(5, 0.5);  // sorts after the root: evicted itself
    EXPECT_EQ(evicted, std::vector<int64_t>({2, 5})) << "shards=" << shards;
    EXPECT_EQ(SurvivorIds(*lat), std::vector<int64_t>({1, 3, 4}))
        << "shards=" << shards;
    EXPECT_EQ(lat->stats().evictions.value(), 2u);
  }
}

TEST(LatShardDeterminismTest, SeededNullAndSignedZeroRanksIndependentOfShardCount) {
  // Query probes never yield NULL, so NULL ordering values come in through
  // SeedFrom. ASC over a DOUBLE column with NULL (most important under
  // ASC), negatives, −0.0 and +0.0 (which tie) and a DESC string second
  // column: the survivors match a full sort.
  storage::Catalog catalog;
  auto schema = catalog::TableSchema::Create(
      "seed",
      {{"Sig", catalog::ColumnType::kString},
       {"MinDur", catalog::ColumnType::kDouble}},
      {});
  storage::Table* table = *catalog.CreateTable(std::move(*schema));
  const Value kValues[] = {Value::Null(),       Value::Double(-0.0),
                           Value::Double(0.0),  Value::Double(-2.5),
                           Value::Double(7.25), Value::Double(-1e300)};
  std::vector<Row> seeded;
  for (int i = 0; i < 60; ++i) {
    Row row = {Value::String("sig" + std::to_string(i)), kValues[(i * 7) % 6]};
    seeded.push_back(row);
    ASSERT_TRUE(table->Insert(std::move(row)).ok());
  }
  LatSpec spec;
  spec.name = "seeded";
  spec.group_by = {{"Logical_Signature", "Sig"}};
  spec.aggregates = {{LatAggFunc::kMin, "Duration", "MinDur", false}};
  spec.ordering = {{"MinDur", false}, {"Sig", true}};
  spec.max_rows = 9;
  // Most important first: smaller MinDur (NULL smallest), then larger Sig.
  std::sort(seeded.begin(), seeded.end(), [](const Row& a, const Row& b) {
    const int c = a[1].Compare(b[1]);
    if (c != 0) return c < 0;
    return a[0].Compare(b[0]) > 0;
  });
  std::vector<std::string> want;
  for (size_t i = 0; i < 9; ++i) want.push_back(seeded[i][0].string_value());
  std::sort(want.begin(), want.end());
  auto lat = *Lat::Create(std::move(spec));
  ASSERT_TRUE(lat->SeedFrom(*table, 0).ok());
  std::vector<std::string> got;
  for (const Row& row : lat->Snapshot(0)) {
    got.push_back(row[0].string_value());
  }
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, want);
}

}  // namespace
}  // namespace sqlcm::cm
