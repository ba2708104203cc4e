// E5 (supporting §6.1): LAT microbenchmarks — insert cost by shape and the
// "latching does not introduce a new hotspot even under severe stress"
// claim, via multi-threaded insert scaling.
//
//   build/bench/bench_lat            # google-benchmark micro cases
//   build/bench/bench_lat --sweep    # 1..N-thread sharded-vs-single sweep,
//                                    # one BENCH_JSON line per cell
//   build/bench/bench_lat --sweep --quick   # CI-sized sweep
//
// The sweep ends with the sketch row, the shared bounded-LAT cells
// ("lat_evict": 100 ten-row LATs at 1 and 3 threads, the shape of
// perfbench's e2_rules; ten 1,000-row LATs at 3 threads; and one 256- or
// 1,000-row LAT at 1 and 3 threads under evicting and hit-heavy traffic,
// unpaced and paced) and the batched-insert cells ("lat_batch", the
// map-once fold on deferred_fanin's LAT). Those two report the median of 3
// repetitions (lat_evict also the fastest and slowest) and the
// steady-state heap allocations per item, counted by the operator new this
// binary replaces.
//
// The lat_sweep cells measure the same unbounded LAT twice: once with the
// directory forced to a single shard (LatSpec::shard_count = 1) and once
// with the automatic shard count, so one binary produces both sides of the
// comparison in the same run. A bounded LAT always has one shard.
// docs/PERFORMANCE.md documents the output schema.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "sqlcm/lat.h"
#include "sqlcm/sketch.h"

// Heap allocations made by the calling thread (every operator new in this
// binary counts; aligned and array forms end here or are not used on the
// measured paths). Thread-local, so the multi-threaded cells do not share
// a counter's cache line.
constinit thread_local uint64_t t_allocs = 0;

// GCC pairs the free() below with the `new` of every inlined delete site.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t size) {
  ++t_allocs;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace sqlcm::cm {
namespace {

QueryRecord MakeRecord(uint64_t id, const std::string& sig, double duration) {
  QueryRecord rec;
  rec.id = id;
  rec.logical_signature = sig;
  rec.duration_secs = duration;
  rec.text = "SELECT * FROM t WHERE id = ?";
  return rec;
}

std::unique_ptr<Lat> MakeAggLat(bool aging, size_t shard_count = 0) {
  LatSpec spec;
  spec.name = "bench";
  spec.group_by = {{"Logical_Signature", "Sig"}};
  spec.aggregates = {{LatAggFunc::kCount, "", "N", aging},
                     {LatAggFunc::kAvg, "Duration", "Avg", aging},
                     {LatAggFunc::kStdev, "Duration", "Sd", aging}};
  if (aging) {
    spec.aging_window_micros = 1'000'000;
    spec.aging_block_micros = 100'000;
  }
  spec.shard_count = shard_count;
  return std::move(*Lat::Create(std::move(spec)));
}

/// Upsert into an existing group (the hot path of Figure 2's workload).
void BM_LatInsertExistingGroup(benchmark::State& state) {
  auto lat = MakeAggLat(false);
  auto rec = MakeRecord(1, "sig", 1.0);
  for (auto _ : state) {
    lat->Insert(&rec, 0);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LatInsertExistingGroup);

void BM_LatInsertManyGroups(benchmark::State& state) {
  auto lat = MakeAggLat(false);
  uint64_t i = 0;
  for (auto _ : state) {
    auto rec = MakeRecord(i, "sig" + std::to_string(i % 1024), 1.0);
    lat->Insert(&rec, 0);
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LatInsertManyGroups);

void BM_LatInsertAging(benchmark::State& state) {
  auto lat = MakeAggLat(true);
  auto rec = MakeRecord(1, "sig", 1.0);
  int64_t now = 0;
  for (auto _ : state) {
    lat->Insert(&rec, now);
    now += 1'000;  // 1ms per insert -> block churn
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LatInsertAging);

/// Size-limited LAT with churn: every insert displaces a row (the eviction
/// path that dominates the Figure 2 overhead).
void BM_LatInsertWithEviction(benchmark::State& state) {
  LatSpec spec;
  spec.name = "topk";
  spec.group_by = {{"ID", ""}};
  spec.aggregates = {{LatAggFunc::kMax, "Duration", "Dur", false}};
  spec.ordering = {{"Dur", true}};
  spec.max_rows = 10;
  auto lat = std::move(*Lat::Create(std::move(spec)));
  uint64_t i = 0;
  for (auto _ : state) {
    ++i;
    auto rec = MakeRecord(i, "s", static_cast<double>(i % 97));
    lat->Insert(&rec, 0);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LatInsertWithEviction);

std::unique_ptr<Lat> MakeSketchLat(size_t quantile_budget) {
  LatSpec spec;
  spec.name = "bench_sketch";
  spec.group_by = {{"Logical_Signature", "Sig"}};
  spec.aggregates = {{LatAggFunc::kCount, "", "N", false},
                     {LatAggFunc::kQuantile, "Duration", "P50", false, 0.5},
                     {LatAggFunc::kQuantile, "Duration", "P95", false, 0.95},
                     {LatAggFunc::kDistinct, "Query_Text", "DQ", false}};
  spec.quantile_sketch_bytes = quantile_budget;
  return std::move(*Lat::Create(std::move(spec)));
}

/// Sketch fold path: every insert updates two log-bucketed quantile
/// sketches (with budget-collapse checks) and one HLL register array on
/// top of the classic cells.
void BM_LatInsertSketch(benchmark::State& state) {
  auto lat = MakeSketchLat(static_cast<size_t>(state.range(0)));
  uint64_t i = 0;
  for (auto _ : state) {
    auto rec = MakeRecord(i, "sig" + std::to_string(i % 64),
                          static_cast<double>((i % 9973) + 1) * 1e-3);
    lat->Insert(&rec, 0);
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LatInsertSketch)->Arg(0)->Arg(4096)->Arg(512);

void BM_LatLookup(benchmark::State& state) {
  auto lat = MakeAggLat(false);
  for (int i = 0; i < 256; ++i) {
    auto rec = MakeRecord(1, "sig" + std::to_string(i), 1.0);
    lat->Insert(&rec, 0);
  }
  auto probe = MakeRecord(1, "sig128", 0);
  common::Row row;
  for (auto _ : state) {
    benchmark::DoNotOptimize(lat->LookupForObject(&probe, 0, &row));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LatLookup);

/// The §6.1 latching claim: concurrent inserts into one LAT. Throughput
/// per thread should not collapse as threads are added (threads hit
/// different rows; hash and heap latches are held for ~ns).
void BM_LatConcurrentInsert(benchmark::State& state) {
  static Lat* lat = nullptr;
  if (state.thread_index() == 0) {
    lat = MakeAggLat(false).release();
  }
  auto rec = MakeRecord(1, "sig" + std::to_string(state.thread_index() % 64),
                        1.0);
  for (auto _ : state) {
    lat->Insert(&rec, 0);
  }
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) {
    // Leak-free teardown after all threads stop.
  }
}
BENCHMARK(BM_LatConcurrentInsert)->Threads(1)->Threads(4)->Threads(8);

/// Severe stress: all threads update the SAME row (worst-case latch
/// contention).
void BM_LatConcurrentSameRow(benchmark::State& state) {
  static Lat* lat = nullptr;
  if (state.thread_index() == 0) {
    lat = MakeAggLat(false).release();
  }
  auto rec = MakeRecord(1, "hot", 1.0);
  for (auto _ : state) {
    lat->Insert(&rec, 0);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LatConcurrentSameRow)->Threads(1)->Threads(4)->Threads(8);

// ---------------------------------------------------------------------------
// --sweep: sharded-vs-single insert scaling, BENCH_JSON output
// ---------------------------------------------------------------------------

struct SweepCell {
  const char* config;   // "single" | "sharded"
  size_t shards;        // resolved shard count
  int threads;
  const char* dist;     // "contended" | "uniform"
  double inserts_per_sec;
  double contention_pct;  // latch_contention / latch_acquisitions
};

/// Runs `threads` workers, each inserting `ops_per_thread` pre-built records
/// into one LAT, and returns the measured cell. `contended` draws every
/// thread's keys from the same 64 groups (shard/row latch pressure);
/// otherwise each thread works a private 1024-group key range.
SweepCell RunSweepCell(const char* config, size_t shard_count, int threads,
                       bool contended, uint64_t ops_per_thread) {
  auto lat = MakeAggLat(false, shard_count);

  // Pre-build the per-thread record cycles outside the timed region.
  std::vector<std::vector<QueryRecord>> records(
      static_cast<size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    const int keys = contended ? 64 : 1024;
    records[static_cast<size_t>(t)].reserve(static_cast<size_t>(keys));
    for (int k = 0; k < keys; ++k) {
      const std::string sig =
          contended ? "sig" + std::to_string(k)
                    : "t" + std::to_string(t) + "_" + std::to_string(k);
      records[static_cast<size_t>(t)].push_back(
          MakeRecord(static_cast<uint64_t>(k), sig, 1.0));
    }
  }

  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> workers;
  workers.reserve(static_cast<size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      auto& cycle = records[static_cast<size_t>(t)];
      ready.fetch_add(1, std::memory_order_acq_rel);
      while (!go.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      const size_t n = cycle.size();
      for (uint64_t i = 0; i < ops_per_thread; ++i) {
        lat->Insert(&cycle[i % n], 0);
      }
    });
  }
  while (ready.load(std::memory_order_acquire) != threads) {
    std::this_thread::yield();
  }
  const auto start = std::chrono::steady_clock::now();
  go.store(true, std::memory_order_release);
  for (auto& w : workers) w.join();
  const auto stop = std::chrono::steady_clock::now();

  const double secs =
      std::chrono::duration<double>(stop - start).count();
  const double total_ops =
      static_cast<double>(ops_per_thread) * static_cast<double>(threads);
  const uint64_t acq = lat->stats().latch_acquisitions.value();
  const uint64_t con = lat->stats().latch_contention.value();
  SweepCell cell;
  cell.config = config;
  cell.shards = lat->shard_count();
  cell.threads = threads;
  cell.dist = contended ? "contended" : "uniform";
  cell.inserts_per_sec = secs > 0 ? total_ops / secs : 0;
  cell.contention_pct =
      acq > 0 ? 100.0 * static_cast<double>(con) / static_cast<double>(acq)
              : 0;
  return cell;
}

void PrintSweepCell(const SweepCell& c) {
  std::printf(
      "BENCH_JSON {\"bench\":\"lat_sweep\",\"config\":\"%s\","
      "\"shards\":%zu,\"threads\":%d,\"dist\":\"%s\","
      "\"inserts_per_sec\":%.0f,\"latch_contention_pct\":%.3f}\n",
      c.config, c.shards, c.threads, c.dist, c.inserts_per_sec,
      c.contention_pct);
  std::fflush(stdout);
}

/// Sketch-bearing insert + merge throughput, one BENCH_JSON row. Inserts
/// spread log-uniform-ish durations over `groups` groups so quantile
/// sketches fill many buckets (and collapse under the byte budget), then
/// measures repeated pairwise QuantileSketch merges — the FleetAggregator's
/// delta-fold hot path.
void RunSketchBench(bool quick) {
  const uint64_t ops = quick ? 200'000 : 1'000'000;
  const size_t groups = 64;
  const size_t budget = 4096;

  auto lat = MakeSketchLat(budget);
  std::vector<QueryRecord> cycle;
  // 256 distinct durations per group: enough occupied buckets that the
  // 4096-byte budget forces observable collapse.
  cycle.reserve(groups * 256);
  for (size_t k = 0; k < groups * 256; ++k) {
    // Durations span ~6 decades, like real query latency tails.
    const double dur = 1e-4 * static_cast<double>((k * 2654435761u) % 9973 + 1)
                       * static_cast<double>(k % 97 + 1);
    cycle.push_back(MakeRecord(k, "sig" + std::to_string(k % groups), dur));
  }
  const auto start = std::chrono::steady_clock::now();
  for (uint64_t i = 0; i < ops; ++i) {
    lat->Insert(&cycle[i % cycle.size()], 0);
  }
  const auto stop = std::chrono::steady_clock::now();
  const double insert_secs =
      std::chrono::duration<double>(stop - start).count();

  size_t sketch_bytes = 0, sketch_cells = 0;
  lat->SketchFootprint(&sketch_bytes, &sketch_cells);
  const uint64_t collapses = lat->stats().sketch_collapses.value();

  // Merge throughput: two populated sketches folded repeatedly (merge is
  // idempotent in shape, so the target stays at steady-state size).
  QuantileSketch a, b;
  for (uint64_t i = 0; i < 100'000; ++i) {
    a.Add(1e-4 * static_cast<double>(i % 9973 + 1));
    b.Add(1e-3 * static_cast<double>(i % 7919 + 1));
  }
  const uint64_t merge_iters = quick ? 2'000 : 10'000;
  const auto mstart = std::chrono::steady_clock::now();
  for (uint64_t i = 0; i < merge_iters; ++i) {
    QuantileSketch target = a;
    target.Merge(b);
    benchmark::DoNotOptimize(target);
  }
  const auto mstop = std::chrono::steady_clock::now();
  const double merge_secs =
      std::chrono::duration<double>(mstop - mstart).count();

  std::printf(
      "BENCH_JSON {\"bench\":\"lat_sketch\",\"ops\":%llu,\"groups\":%zu,"
      "\"quantile_budget_bytes\":%zu,\"inserts_per_sec\":%.0f,"
      "\"sketch_bytes\":%zu,\"sketch_cells\":%zu,\"collapses\":%llu,"
      "\"sketch_merges_per_sec\":%.0f}\n",
      static_cast<unsigned long long>(ops), groups, budget,
      insert_secs > 0 ? static_cast<double>(ops) / insert_secs : 0,
      sketch_bytes, sketch_cells,
      static_cast<unsigned long long>(collapses),
      merge_secs > 0 ? static_cast<double>(merge_iters) / merge_secs : 0);
  std::fflush(stdout);
}

/// Shared bounded-LAT cell: `threads` workers raise statements, and every
/// statement inserts into all `lats` LATs (group by ID; COUNT,
/// LAST(Query_Text), LAST(Duration); `max_rows` rows). All threads share
/// the LATs.
///   evicting   each statement has a fresh ID and the LATs are ordered by
///              ID DESC, so every insert creates a row and evicts one (the
///              shape of perfbench's e2_rules). Each worker first raises
///              `max_rows` + 1 warm-up statements with lower IDs, untimed.
///   hits       the LATs are ordered by N DESC and hold the IDs
///              1..`max_rows`, inserted once, untimed; every statement then
///              hits one of them, so every insert folds into a resident
///              row and moves it in the heap.
/// The warm-up fills the LATs, so `allocs` counts the steady state. A
/// positive `pace_ns` spins that long before each statement, so inserts
/// from different threads meet less often. `ns_per_insert` is wall time ×
/// threads / inserts (thread-time per insert, the spin included) over the
/// timed statements.
enum class Traffic { kEvicting, kHits };

struct EvictShape {
  size_t lats;
  size_t max_rows;
  int threads;
  Traffic traffic = Traffic::kEvicting;
  int pace_ns = 0;
};

/// Busy-waits `ns` nanoseconds (no sleep: a sleeping thread would leave
/// its core and come back cold).
void Spin(int ns) {
  const auto until =
      std::chrono::steady_clock::now() + std::chrono::nanoseconds(ns);
  while (std::chrono::steady_clock::now() < until) {
  }
}

struct EvictCell {
  size_t shards = 0;
  uint64_t inserts = 0;
  double secs = 0;
  uint64_t evictions = 0, acq = 0, con = 0, allocs = 0;
  bool exact = true;
  double ns_per_insert = 0;
};

EvictCell RunEvictCell(const EvictShape& shape, bool quick) {
  const uint64_t stmts_per_thread = quick ? 5'000 : 50'000;
  const bool hits = shape.traffic == Traffic::kHits;
  const int threads = shape.threads;
  const uint64_t max_rows = shape.max_rows;
  std::vector<std::unique_ptr<Lat>> lats;
  for (size_t i = 0; i < shape.lats; ++i) {
    LatSpec spec;
    spec.name = "evict_" + std::to_string(i);
    spec.group_by = {{"ID", ""}};
    spec.aggregates = {{LatAggFunc::kCount, "", "N", false},
                       {LatAggFunc::kLast, "Query_Text", "Text", false},
                       {LatAggFunc::kLast, "Duration", "Dur", false}};
    spec.ordering = {{hits ? "N" : "ID", true}};
    spec.max_rows = shape.max_rows;
    lats.push_back(std::move(*Lat::Create(std::move(spec))));
  }

  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::atomic<uint64_t> allocs{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      QueryRecord rec = MakeRecord(0, "sig", 1.0);
      rec.text =
          "SELECT L_QUANTITY, L_EXTENDEDPRICE FROM LINEITEM WHERE "
          "L_ORDERKEY = 4711 AND L_LINENUMBER = 3";
      // Thread-interleaved IDs: all fresh when evicting, else the
      // resident 1..max_rows in turn.
      const auto id_of = [&](uint64_t i) {
        const uint64_t n =
            i * static_cast<uint64_t>(threads) + static_cast<uint64_t>(t);
        return 1 + (hits ? n % max_rows : n);
      };
      const uint64_t warmup = hits ? max_rows : max_rows + 1;
      for (uint64_t i = 0; i < warmup; ++i) {
        rec.id = id_of(i);
        for (auto& lat : lats) lat->Insert(&rec, 0);
      }
      ready.fetch_add(1, std::memory_order_acq_rel);
      while (!go.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      const uint64_t allocs_before = t_allocs;
      for (uint64_t i = warmup; i < warmup + stmts_per_thread; ++i) {
        if (shape.pace_ns > 0) Spin(shape.pace_ns);
        rec.id = id_of(i);
        for (auto& lat : lats) lat->Insert(&rec, 0);
      }
      allocs.fetch_add(t_allocs - allocs_before, std::memory_order_relaxed);
    });
  }
  while (ready.load(std::memory_order_acquire) != threads) {
    std::this_thread::yield();
  }
  uint64_t inserts_before = 0, evictions_before = 0, acq_before = 0,
           con_before = 0;
  for (const auto& lat : lats) {
    inserts_before += lat->stats().inserts.value();
    evictions_before += lat->stats().evictions.value();
    acq_before += lat->stats().latch_acquisitions.value();
    con_before += lat->stats().latch_contention.value();
  }
  const auto start = std::chrono::steady_clock::now();
  go.store(true, std::memory_order_release);
  for (auto& w : workers) w.join();
  const auto stop = std::chrono::steady_clock::now();

  EvictCell cell;
  cell.shards = lats[0]->shard_count();
  cell.secs = std::chrono::duration<double>(stop - start).count();
  cell.allocs = allocs.load(std::memory_order_relaxed);
  for (const auto& lat : lats) {
    cell.inserts += lat->stats().inserts.value();
    cell.evictions += lat->stats().evictions.value();
    cell.acq += lat->stats().latch_acquisitions.value();
    cell.con += lat->stats().latch_contention.value();
    cell.exact = cell.exact && lat->size() == max_rows;
  }
  cell.inserts -= inserts_before;
  cell.evictions -= evictions_before;
  cell.acq -= acq_before;
  cell.con -= con_before;
  const double n = static_cast<double>(cell.inserts);
  cell.ns_per_insert = n > 0 ? 1e9 * cell.secs * threads / n : 0;
  return cell;
}

/// Index of the median of `values` (the lower middle for even sizes).
size_t MedianIndex(const std::vector<double>& values) {
  std::vector<size_t> order(values.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return values[a] < values[b]; });
  return order[(order.size() - 1) / 2];
}

/// Repetitions per cell, quick or full: one run on a shared host is
/// mostly noise, so every cell reports the median of three.
constexpr int kCellReps = 3;

/// One BENCH_JSON row for a shared bounded-LAT cell (RunEvictCell): the
/// median repetition, with the fastest and slowest repetitions'
/// `ns_per_insert` beside it; `sizes_exact` holds only if every repetition
/// ended at the row budget.
void RunEvictBench(const EvictShape& shape, bool quick) {
  std::vector<EvictCell> cells;
  std::vector<double> ns;
  bool exact = true;
  for (int r = 0; r < kCellReps; ++r) {
    cells.push_back(RunEvictCell(shape, quick));
    ns.push_back(cells.back().ns_per_insert);
    exact = exact && cells.back().exact;
  }
  const EvictCell& c = cells[MedianIndex(ns)];
  const double n = static_cast<double>(c.inserts);
  std::printf(
      "BENCH_JSON {\"bench\":\"lat_evict\",\"lats\":%zu,\"max_rows\":%zu,"
      "\"traffic\":\"%s\",\"pace_ns\":%d,"
      "\"shards\":%zu,\"threads\":%d,\"reps\":%d,\"inserts\":%llu,"
      "\"inserts_per_sec\":%.0f,\"ns_per_insert\":%.1f,"
      "\"ns_per_insert_min\":%.1f,\"ns_per_insert_max\":%.1f,"
      "\"evictions_per_insert\":%.4f,\"latch_acq_per_insert\":%.3f,"
      "\"latch_contention_pct\":%.3f,\"allocs_per_item\":%.3g,"
      "\"sizes_exact\":%s}\n",
      shape.lats, shape.max_rows,
      shape.traffic == Traffic::kHits ? "hits" : "evicting", shape.pace_ns,
      c.shards, shape.threads, kCellReps,
      static_cast<unsigned long long>(c.inserts),
      c.secs > 0 ? n / c.secs : 0, c.ns_per_insert,
      *std::min_element(ns.begin(), ns.end()),
      *std::max_element(ns.begin(), ns.end()),
      n > 0 ? static_cast<double>(c.evictions) / n : 0,
      n > 0 ? static_cast<double>(c.acq) / n : 0,
      c.acq > 0
          ? 100.0 * static_cast<double>(c.con) / static_cast<double>(c.acq)
          : 0,
      n > 0 ? static_cast<double>(c.allocs) / n : 0,
      exact ? "true" : "false");
  std::fflush(stdout);
}

/// deferred_fanin's LAT (perfbench): grouped by (signature, application)
/// with COUNT, SUM, AVG, MAX, QUANTILE and DISTINCT. `max_rows` > 0 bounds
/// it, ordered by N DESC, Sig DESC.
std::unique_ptr<Lat> MakeFaninLat(size_t max_rows) {
  LatSpec spec;
  spec.name = "fanin";
  spec.group_by = {{"Logical_Signature", "Sig"}, {"Application", "App"}};
  LatAggColumn p90{LatAggFunc::kQuantile, "Duration", "P90", false};
  p90.quantile = 0.9;
  spec.aggregates = {{LatAggFunc::kCount, "", "N", false},
                     {LatAggFunc::kSum, "Duration", "Total", false},
                     {LatAggFunc::kAvg, "Duration", "Avg", false},
                     {LatAggFunc::kMax, "Estimated_Cost", "MaxCost", false},
                     p90,
                     {LatAggFunc::kDistinct, "ID", "Queries", false}};
  if (max_rows > 0) {
    spec.ordering = {{"N", true}, {"Sig", true}};
    spec.max_rows = max_rows;
  }
  return std::move(*Lat::Create(std::move(spec)));
}

struct BatchCell {
  double batch_ns_per_item = 0;
  double insert_ns_per_item = 0;
  uint64_t latch_acq = 0;
  double allocs_per_item = 0;
  bool exact = true;
};

/// Feeds the same record stream to `lat_count` LATs through the batched
/// path (each 256-item batch mapped once, then folded into every LAT, as
/// the deferred drain does; timed) and to as many through per-item Insert
/// (timed separately), then compares each pair's end states cell by cell.
/// One warm-up pass over the pooled batches precedes the timed rounds, so
/// `allocs_per_item` counts steady-state allocations of the batched path.
BatchCell RunBatchCell(const std::vector<std::vector<QueryRecord>>& batches,
                       size_t max_rows, size_t lat_count, uint64_t rounds,
                       const std::vector<QueryRecord>& seed_records) {
  std::vector<std::unique_ptr<Lat>> batched, reference;
  for (size_t l = 0; l < lat_count; ++l) {
    batched.push_back(MakeFaninLat(max_rows));
    reference.push_back(MakeFaninLat(max_rows));
    for (const QueryRecord& rec : seed_records) {
      batched[l]->Insert(&rec, 0);
      reference[l]->Insert(&rec, 0);
    }
  }
  std::vector<std::vector<LatBatchItem>> items(batches.size());
  uint64_t n = 0;
  for (size_t b = 0; b < batches.size(); ++b) {
    for (const QueryRecord& rec : batches[b]) {
      items[b].push_back({&rec, static_cast<int64_t>(++n)});
    }
  }
  LatBatchMapping mapping;
  const auto run_batched = [&](const std::vector<LatBatchItem>& batch) {
    batched[0]->MapBatch(batch.data(), batch.size(), &mapping);
    for (auto& lat : batched) {
      lat->FoldBatch(batch.data(), batch.size(), mapping);
    }
  };
  const auto run_reference = [&](const std::vector<LatBatchItem>& batch) {
    for (auto& lat : reference) {
      for (const LatBatchItem& item : batch) {
        lat->Insert(item.record, item.now_micros);
      }
    }
  };
  for (const auto& batch : items) {
    run_batched(batch);
    run_reference(batch);
  }

  const uint64_t latches_before =
      batched[0]->stats().latch_acquisitions.value();
  const uint64_t allocs_before = t_allocs;
  uint64_t total = 0;
  auto start = std::chrono::steady_clock::now();
  for (uint64_t r = 0; r < rounds; ++r) {
    const auto& batch = items[r % items.size()];
    run_batched(batch);
    total += batch.size() * lat_count;
  }
  const double batch_secs = std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - start)
                                .count();
  BatchCell cell;
  cell.allocs_per_item = static_cast<double>(t_allocs - allocs_before) /
                         static_cast<double>(total);
  cell.latch_acq =
      batched[0]->stats().latch_acquisitions.value() - latches_before;
  start = std::chrono::steady_clock::now();
  for (uint64_t r = 0; r < rounds; ++r) run_reference(items[r % items.size()]);
  const double insert_secs = std::chrono::duration<double>(
                                 std::chrono::steady_clock::now() - start)
                                 .count();
  cell.batch_ns_per_item = 1e9 * batch_secs / static_cast<double>(total);
  cell.insert_ns_per_item = 1e9 * insert_secs / static_cast<double>(total);
  for (size_t l = 0; l < lat_count; ++l) {
    const auto want = reference[l]->Snapshot(0);
    const auto got = batched[l]->Snapshot(0);
    cell.exact = cell.exact && got.size() == want.size();
    for (size_t row = 0; cell.exact && row < want.size(); ++row) {
      for (size_t c = 0; c < want[row].size(); ++c) {
        cell.exact =
            cell.exact && got[row][c].ToString() == want[row][c].ToString();
      }
    }
  }
  return cell;
}

/// Batched-insert cost on deferred_fanin's LAT, one BENCH_JSON row per
/// shape:
///   fanin_g4     4 groups per 256-item batch (2 signatures × 2
///                applications), deferred_fanin's drain shape;
///   fanin_g256   every item of a batch in its own group (the same 256
///                groups recur across batches);
///   fanin_shared the fanin_g4 batches folded into 50 LATs with one GROUP
///                BY through one mapping per batch, as the drain folds
///                deferred_fanin's 50 rules (per-item figures are per
///                (item, LAT) fold);
///   bounded_10   a 10-row LAT whose 10 heavy groups take 240 items per
///                batch, plus 16 single-item groups that sort last and are
///                evicted (by either path) before the batch ends.
/// `exact` compares the end state with per-item Insert of the same stream.
void RunBatchBench(bool quick) {
  constexpr size_t kBatch = 256;
  constexpr size_t kPool = 16;  // distinct batches, cycled
  const uint64_t rounds = quick ? 400 : 4000;
  // Plan-text-like signatures: about as long as the engine's.
  const std::string sig_base =
      "Project(L_QUANTITY,L_EXTENDEDPRICE)<-Filter(L_ORDERKEY=?,"
      "L_LINENUMBER=?)<-IndexScan(LINEITEM,PK)#";
  auto make = [&](uint64_t id, const std::string& sig, const char* app) {
    const double duration =
        1e-6 * static_cast<double>((id * 2654435761u) % 5000 + 1);
    QueryRecord rec = MakeRecord(id, sig, duration);
    rec.application = app;
    rec.estimated_cost = static_cast<double>(id % 997);
    return rec;
  };
  struct Shape {
    const char* name;
    size_t groups;
    size_t max_rows;
    size_t lats;
  };
  for (const Shape& shape :
       {Shape{"fanin_g4", 4, 0, 1}, Shape{"fanin_g256", 256, 0, 1},
        Shape{"fanin_shared", 4, 0, 50}, Shape{"bounded_10", 26, 10, 1}}) {
    std::vector<std::vector<QueryRecord>> batches(kPool);
    std::vector<QueryRecord> seed_records;
    uint64_t id = 0;
    for (size_t b = 0; b < kPool; ++b) {
      for (size_t i = 0; i < kBatch; ++i) {
        ++id;
        if (shape.max_rows == 0) {
          const size_t g = i % shape.groups;
          batches[b].push_back(make(id, sig_base + std::to_string(g / 2),
                                    g % 2 == 0 ? "app_a" : "app_b"));
        } else if (i % 16 == 15) {
          // Single-item group, fresh in every pooled batch: "a..." sorts
          // below the heavy "h..." groups under Sig DESC.
          batches[b].push_back(make(
              id, "a" + std::to_string(b * kBatch + i), "app_a"));
        } else {
          batches[b].push_back(make(id, "h" + std::to_string(i % 10), "app_a"));
        }
      }
    }
    if (shape.max_rows > 0) {
      // Open every heavy group first, so single-item groups never outrank one.
      for (size_t h = 0; h < 10; ++h) {
        seed_records.push_back(make(++id, "h" + std::to_string(h), "app_a"));
      }
    }
    // Fifty LATs fold fifty times the items: fewer rounds keep the cell
    // about as long as the others.
    const uint64_t shape_rounds = shape.lats > 1 ? rounds / 10 : rounds;
    std::vector<BatchCell> cells;
    std::vector<double> ns;
    bool exact = true;
    for (int r = 0; r < kCellReps; ++r) {
      cells.push_back(RunBatchCell(batches, shape.max_rows, shape.lats,
                                   shape_rounds, seed_records));
      ns.push_back(cells.back().batch_ns_per_item);
      exact = exact && cells.back().exact;
    }
    const BatchCell& c = cells[MedianIndex(ns)];
    std::printf(
        "BENCH_JSON {\"bench\":\"lat_batch\",\"shape\":\"%s\","
        "\"batch_items\":%zu,\"groups\":%zu,\"max_rows\":%zu,\"lats\":%zu,"
        "\"reps\":%d,\"batches\":%llu,\"batch_ns_per_item\":%.1f,"
        "\"insert_ns_per_item\":%.1f,\"latch_acq_per_batch\":%.2f,"
        "\"allocs_per_item\":%.3g,\"exact\":%s}\n",
        shape.name, kBatch, shape.groups, shape.max_rows, shape.lats,
        kCellReps, static_cast<unsigned long long>(shape_rounds),
        c.batch_ns_per_item, c.insert_ns_per_item,
        static_cast<double>(c.latch_acq) / static_cast<double>(shape_rounds),
        c.allocs_per_item, exact ? "true" : "false");
    std::fflush(stdout);
  }
}

int RunSweep(bool quick) {
  const std::vector<int> thread_counts =
      quick ? std::vector<int>{1, 8} : std::vector<int>{1, 2, 4, 8};
  const uint64_t ops_per_thread = quick ? 50'000 : 200'000;

  std::printf("lat insert sweep: single-shard vs auto-sharded directory\n");
  std::printf("(ops/thread=%llu)\n",
              static_cast<unsigned long long>(ops_per_thread));

  double single_1t_contended = 0, sharded_1t_contended = 0;
  double single_8t_contended = 0, sharded_8t_contended = 0;
  for (const bool contended : {true, false}) {
    for (const int threads : thread_counts) {
      // Single-shard layout first, then the auto (sharded) layout, in the
      // same process so the comparison shares one build + machine state.
      const SweepCell single = RunSweepCell("single", /*shard_count=*/1,
                                            threads, contended,
                                            ops_per_thread);
      const SweepCell sharded = RunSweepCell("sharded", /*shard_count=*/0,
                                             threads, contended,
                                             ops_per_thread);
      PrintSweepCell(single);
      PrintSweepCell(sharded);
      if (contended && threads == 1) {
        single_1t_contended = single.inserts_per_sec;
        sharded_1t_contended = sharded.inserts_per_sec;
      }
      if (contended && threads == 8) {
        single_8t_contended = single.inserts_per_sec;
        sharded_8t_contended = sharded.inserts_per_sec;
      }
    }
  }
  if (single_8t_contended > 0 && single_1t_contended > 0) {
    std::printf(
        "BENCH_JSON {\"bench\":\"lat_sweep_summary\","
        "\"contended_8t_speedup\":%.2f,"
        "\"single_thread_ratio\":%.3f}\n",
        sharded_8t_contended / single_8t_contended,
        sharded_1t_contended / single_1t_contended);
  }
  RunSketchBench(quick);
  // e2_rules' shape (100 ten-row LATs) at 1 and 3 threads, ten 1,000-row
  // LATs at 3 threads, then one shared 256- or 1,000-row LAT under each
  // traffic, unpaced and with about 3 µs between statements.
  for (const int threads : {1, 3}) RunEvictBench({100, 10, threads}, quick);
  RunEvictBench({10, 1000, 3}, quick);
  for (const size_t max_rows : {size_t{256}, size_t{1000}}) {
    for (const Traffic traffic : {Traffic::kEvicting, Traffic::kHits}) {
      for (const int pace_ns : {0, 3000}) {
        for (const int threads : {1, 3}) {
          RunEvictBench({1, max_rows, threads, traffic, pace_ns}, quick);
        }
      }
    }
  }
  RunBatchBench(quick);
  return 0;
}

}  // namespace
}  // namespace sqlcm::cm

int main(int argc, char** argv) {
  bool sweep = false, quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--sweep") == 0) sweep = true;
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }
  if (sweep) return sqlcm::cm::RunSweep(quick);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
