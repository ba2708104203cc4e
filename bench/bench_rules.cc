// E6 (supporting §5): rule-engine microbenchmarks — per-invocation cost of
// condition evaluation as a function of condition complexity (the paper
// claims overhead "does not vary significantly between rules of different
// complexity") and the cost of LAT-referencing conditions.
//
// On top of the google-benchmark micro suite, the binary carries the
// predicate-index acceptance harness (docs/PERFORMANCE.md §"Predicate
// index"): a 120-rule Query.Commit workload whose conditions are drawn
// Zipf-skewed from a small shared pool — every rule is `<expensive
// LAT-arithmetic conjunct> AND <cheap always-false rejector>`, authored
// worst-case-first — measured three ways over an identical TPC-H
// point-select stream:
//
//   naive     Options::predicate_index = false (historical per-rule path)
//   indexed   shared index on (conjuncts walked in authoring order)
//   deferred  indexed, with async_rule_eval and one monitor worker: the
//             run-at-a-time drain (docs/PERFORMANCE.md §"Async pipeline"),
//             timed until DrainEventQueue returns
//
// The final stdout line is a machine-readable `BENCH_JSON
// {"bench":"rule_predicate_index",...}` row with per-mode wall time,
// added-us-per-query, wall ns per (event × rule) and condition-eval
// throughput. The binary exits non-zero if indexed-over-naive speedup
// falls below the 2.0x acceptance floor, so CI enforces the bar via the
// exit code; the deferred row is reported only.
//
//   build/bench/bench_rules [--quick] [--micro-only] [gbench flags...]
//
//   --quick       2k-query predicate-index harness only (CI bench-smoke)
//   --micro-only  skip the harness, run only the micro benchmarks
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "common/string_util.h"
#include "engine/database.h"
#include "engine/session.h"
#include "sqlcm/monitor_engine.h"
#include "sqlcm/rule.h"
#include "workload/driver.h"
#include "workload/tpch_gen.h"

namespace sqlcm::cm {
namespace {

class BenchResolver final : public LatResolver {
 public:
  BenchResolver() {
    LatSpec spec;
    spec.name = "Duration_LAT";
    spec.group_by = {{"Logical_Signature", "Sig"}};
    spec.aggregates = {{LatAggFunc::kAvg, "Duration", "Avg_Duration", false}};
    lat_ = std::move(*Lat::Create(std::move(spec)));
    QueryRecord seed;
    seed.logical_signature = "sig";
    seed.duration_secs = 1.0;
    lat_->Insert(&seed, 0);
  }
  Lat* FindLat(std::string_view name) const override {
    return common::EqualsIgnoreCase(name, "Duration_LAT") ? lat_.get()
                                                          : nullptr;
  }
  bool IsTimerName(std::string_view) const override { return false; }

 private:
  std::unique_ptr<Lat> lat_;
};

std::string ConditionWithAtoms(int n) {
  static const char* kAtoms[] = {
      "Query.Duration >= 0",      "Query.Estimated_Cost >= 0",
      "Query.Times_Blocked >= 0", "Query.ID > 0",
      "Query.Time_Blocked >= 0",  "Query.Session_ID > 0",
  };
  std::string out;
  for (int i = 0; i < n; ++i) {
    if (i > 0) out += " AND ";
    out += kAtoms[i % 6];
  }
  return out;
}

/// Condition evaluation cost vs number of atomic conditions (paper: nearly
/// flat — each atom is a handful of loads and one compare).
void BM_ConditionEval(benchmark::State& state) {
  BenchResolver resolver;
  RuleSpec spec;
  spec.event = "Query.Commit";
  spec.condition = ConditionWithAtoms(static_cast<int>(state.range(0)));
  spec.action = "Reset(Duration_LAT)";
  auto rule = std::move(*RuleCompiler::Compile(spec, resolver));

  QueryRecord rec;
  rec.id = 7;
  rec.duration_secs = 1.5;
  rec.estimated_cost = 10;
  rec.session_id = 3;
  for (auto _ : state) {
    EvalContext ctx;
    ctx.Bind(MonitoredClass::kQuery, &rec);
    benchmark::DoNotOptimize(rule->condition->EvalCondition(&ctx));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ConditionEval)->Arg(1)->Arg(5)->Arg(10)->Arg(20);

/// The compiled fast atoms of an AND-chain of attribute-vs-constant
/// comparisons (what Figure 2's rules use), as the predicate index
/// evaluates them. Compare with BM_ConditionEval: this is why condition
/// complexity has "very little impact" (§6.2.1).
void BM_FastConditionEval(benchmark::State& state) {
  BenchResolver resolver;
  RuleSpec spec;
  spec.event = "Query.Commit";
  spec.condition = ConditionWithAtoms(static_cast<int>(state.range(0)));
  spec.action = "Reset(Duration_LAT)";
  auto rule = std::move(*RuleCompiler::Compile(spec, resolver));
  for (const CompiledConjunct& c : rule->conjuncts) {
    if (!c.is_fast) {
      state.SkipWithError("conjunct not compiled to a fast atom");
      return;
    }
  }
  QueryRecord rec;
  rec.id = 7;
  rec.duration_secs = 1.5;
  rec.estimated_cost = 10;
  rec.session_id = 3;
  EvalContext ctx;
  ctx.Bind(MonitoredClass::kQuery, &rec);
  for (auto _ : state) {
    bool pass = true;
    for (const CompiledConjunct& c : rule->conjuncts) {
      if (!EvalFastAtom(c.atom, ctx)) {
        pass = false;
        break;
      }
    }
    benchmark::DoNotOptimize(pass);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FastConditionEval)->Arg(1)->Arg(5)->Arg(10)->Arg(20);

/// Conditions that join against a LAT row (outlier-detection shape).
void BM_ConditionEvalWithLatRef(benchmark::State& state) {
  BenchResolver resolver;
  RuleSpec spec;
  spec.event = "Query.Commit";
  spec.condition = "Query.Duration > 5 * Duration_LAT.Avg_Duration";
  spec.action = "Reset(Duration_LAT)";
  auto rule = std::move(*RuleCompiler::Compile(spec, resolver));

  QueryRecord rec;
  rec.logical_signature = "sig";
  rec.duration_secs = 2.0;
  for (auto _ : state) {
    EvalContext ctx;
    ctx.Bind(MonitoredClass::kQuery, &rec);
    benchmark::DoNotOptimize(rule->condition->EvalCondition(&ctx));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ConditionEvalWithLatRef);

/// Full rule compilation cost (happens once per AddRule, not per event —
/// included to show why compile-once dispatch-many is the right design).
void BM_RuleCompile(benchmark::State& state) {
  BenchResolver resolver;
  RuleSpec spec;
  spec.event = "Query.Commit";
  spec.condition = ConditionWithAtoms(5);
  spec.action = "Query.Insert(Duration_LAT); Query.Persist(T, ID, Duration)";
  for (auto _ : state) {
    benchmark::DoNotOptimize(RuleCompiler::Compile(spec, resolver));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RuleCompile);

/// Probe extraction through the attribute registry (one getter call).
void BM_ProbeGetter(benchmark::State& state) {
  const ObjectSchema& schema = ObjectSchema::Get();
  const int attr = schema.FindAttribute(MonitoredClass::kQuery, "Duration");
  QueryRecord rec;
  rec.duration_secs = 1.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        schema.GetValue(MonitoredClass::kQuery, attr, &rec));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ProbeGetter);

// ---------------------------------------------------------------------------
// Predicate-index acceptance harness.
// ---------------------------------------------------------------------------

constexpr int kHarnessRules = 120;
constexpr double kSpeedupFloor = 2.0;

/// Expensive conjuncts: LAT-row lookup plus an arithmetic chain over the
/// looked-up aggregates. All evaluate TRUE once the LAT row exists, so the
/// cheap rejector is always the deciding conjunct.
std::vector<std::string> ExpensivePredicatePool() {
  std::vector<std::string> pool;
  for (int i = 0; i < 12; ++i) {
    std::string chain = "PI_LAT.Avg_Dur";
    for (int j = 0; j <= i; ++j) {
      chain += " + PI_LAT.Avg_Dur * " + std::to_string(j + 2);
    }
    pool.push_back("(" + chain + " + Query.Duration >= 0)");
  }
  return pool;
}

/// Cheap rejectors: single attribute-vs-constant compares that are FALSE
/// for every event the workload produces.
std::vector<std::string> CheapRejectorPool() {
  return {"Query.ID < 0",          "Query.Duration < 0",
          "Query.Session_ID < 0",  "Query.Times_Blocked < 0",
          "Query.Estimated_Cost < 0", "Query.Time_Blocked < 0"};
}

/// Zipf-skewed index into [0, n): weight of rank k is 1/(k+1)^1.1, so a few
/// predicates are shared by most rules — the regime where a shared index
/// pays off (and real monitoring rule sets cluster the same way).
size_t ZipfPick(std::mt19937& rng, size_t n) {
  static std::vector<double> weights;
  if (weights.size() != n) {
    weights.clear();
    for (size_t k = 0; k < n; ++k) {
      weights.push_back(1.0 / std::pow(static_cast<double>(k + 1), 1.1));
    }
  }
  std::discrete_distribution<size_t> dist(weights.begin(), weights.end());
  return dist(rng);
}

struct ModeResult {
  const char* mode;
  double wall_ms;
  double added_us_per_query;
  double ns_per_event_rule;  // monitored wall time per (event × rule)
  double cond_evals_per_sec;  // naive-equivalent rule-conditions decided/s
  uint64_t predindex_evals;
  uint64_t memo_hits;
};

std::string JsonNum(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return buf;
}

/// Runs the 120-rule Zipf workload under one Options config and returns the
/// measured wall time plus index counters. Each mode gets a fresh engine
/// (only one may hook a Database at a time) and a warmup pass that feeds
/// the LAT row before measurement. A deferred mode's monitored run lasts
/// until the event queue has drained.
/// The added cost is the median over `rounds` of (monitored run − an
/// unmonitored run taken right before it, hooks detached): a baseline
/// measured once drifts with host load and once made the difference
/// negative.
ModeResult RunPredicateIndexMode(
    const char* mode, engine::Database* db, engine::Session* session,
    const std::vector<workload::WorkloadItem>& items, int64_t num_queries,
    int rounds, bool index_on, bool deferred) {
  MonitorEngine::Options options;
  options.register_system_views = false;
  options.predicate_index = index_on;
  options.async_rule_eval = deferred;
  options.monitor_threads = 1;
  auto monitor = std::make_unique<MonitorEngine>(db, options);

  LatSpec lat;
  lat.name = "PI_LAT";
  lat.group_by = {{"Logical_Signature", "Sig"}};
  lat.aggregates = {{LatAggFunc::kAvg, "Duration", "Avg_Dur", false},
                    {LatAggFunc::kCount, "ID", "N", false}};
  if (auto s = monitor->DefineLat(std::move(lat)); !s.ok()) {
    std::fprintf(stderr, "lat: %s\n", s.ToString().c_str());
    std::exit(1);
  }

  // Feed rule: populates PI_LAT for the workload's signature during warmup
  // so the expensive conjuncts read a live row. Removed before measurement
  // (its Insert would otherwise invalidate LAT-reader memos every event).
  RuleSpec feed;
  feed.name = "pi_feed";
  feed.event = "Query.Commit";
  feed.condition = "Query.ID >= 0";
  feed.action = "Query.Insert(PI_LAT)";
  auto feed_id = monitor->AddRule(feed);
  if (!feed_id.ok()) {
    std::fprintf(stderr, "feed rule: %s\n",
                 feed_id.status().ToString().c_str());
    std::exit(1);
  }

  std::mt19937 rng(271828);  // same seed => identical rule set per mode
  const std::vector<std::string> expensive = ExpensivePredicatePool();
  const std::vector<std::string> cheap = CheapRejectorPool();
  for (int r = 0; r < kHarnessRules; ++r) {
    RuleSpec rule;
    rule.name = "pi_r" + std::to_string(r);
    rule.event = "Query.Commit";
    // Worst-case authoring order: the expensive conjunct first, the cheap
    // always-false rejector second. The index must amortize the expensive
    // eval via sharing.
    rule.condition = expensive[ZipfPick(rng, expensive.size())] + " AND " +
                     cheap[ZipfPick(rng, cheap.size())];
    rule.action = "Query.Insert(PI_LAT)";
    if (auto id = monitor->AddRule(rule); !id.ok()) {
      std::fprintf(stderr, "rule: %s\n", id.status().ToString().c_str());
      std::exit(1);
    }
  }

  auto run_once = [&]() -> double {
    const auto start = std::chrono::steady_clock::now();
    auto stats = workload::RunWorkload(session, items);
    if (!stats.ok()) {
      std::fprintf(stderr, "workload: %s\n",
                   stats.status().ToString().c_str());
      std::exit(1);
    }
    monitor->DrainEventQueue();  // deferred work counts until it landed
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - start)
        .count();
  };

  run_once();  // warmup: feeds PI_LAT, warms caches
  (void)monitor->RemoveRule(*feed_id);

  const uint64_t evals_before = monitor->metrics().predindex_evals.value();
  const uint64_t hits_before = monitor->metrics().predindex_memo_hits.value();
  std::vector<double> walls, added;
  for (int r = 0; r < rounds; ++r) {
    db->set_monitor_hooks(nullptr);
    const double baseline_us = run_once();
    db->set_monitor_hooks(monitor.get());
    const double wall_us = run_once();
    walls.push_back(wall_us);
    added.push_back(wall_us - baseline_us);
  }
  auto median = [](std::vector<double> v) {
    std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
    return v[v.size() / 2];
  };
  const double wall_us = median(walls);
  const double added_us = median(added);

  ModeResult out;
  out.mode = mode;
  out.wall_ms = wall_us / 1000.0;
  out.added_us_per_query = added_us / static_cast<double>(num_queries);
  out.ns_per_event_rule =
      wall_us * 1000.0 / (static_cast<double>(num_queries) * kHarnessRules);
  // Throughput in naive-equivalent units: every event decides all rules'
  // conditions, however few predicate evals the index actually spent.
  out.cond_evals_per_sec =
      added_us > 0.0
          ? static_cast<double>(num_queries) * kHarnessRules / (added_us / 1e6)
          : 0.0;
  // Per monitored run (every round replays the same stream).
  out.predindex_evals =
      (monitor->metrics().predindex_evals.value() - evals_before) /
      static_cast<uint64_t>(rounds);
  out.memo_hits =
      (monitor->metrics().predindex_memo_hits.value() - hits_before) /
      static_cast<uint64_t>(rounds);
  return out;
}

/// One `BENCH_JSON {"bench":"rule_predicate_index",...}` line; returns the
/// process exit code (non-zero when the indexed speedup misses the floor).
int RunPredicateIndexComparison(bool quick) {
  engine::Database db;
  workload::TpchConfig tpch;
  tpch.num_orders = 25'000;
  tpch.num_parts = 500;
  if (!workload::LoadTpch(&db, tpch).ok()) {
    std::fprintf(stderr, "tpch load failed\n");
    return 1;
  }
  const int64_t num_queries = quick ? 2'000 : 10'000;
  const int rounds = quick ? 3 : 5;
  auto items = workload::GeneratePointSelectWorkload(tpch, num_queries, 17);
  auto session = db.CreateSession();

  auto run_once = [&]() -> double {
    auto stats = workload::RunWorkload(session.get(), items);
    if (!stats.ok()) {
      std::fprintf(stderr, "workload: %s\n",
                   stats.status().ToString().c_str());
      std::exit(1);
    }
    return static_cast<double>(stats->wall_micros);
  };
  run_once();  // warm plan cache and page in the tree
  const double baseline_us = run_once();

  std::printf(
      "Predicate index: %d Zipf-shared rules, "
      "%lld point selects (baseline %.2f us/query)\n",
      kHarnessRules, static_cast<long long>(num_queries),
      baseline_us / static_cast<double>(num_queries));
  std::printf("%10s %12s %16s %14s %20s %14s %12s\n", "mode", "wall(ms)",
              "us/query added", "ns/(ev*rule)", "cond evals/sec",
              "index evals", "memo hits");

  std::vector<ModeResult> modes;
  modes.push_back(RunPredicateIndexMode("naive", &db, session.get(), items,
                                        num_queries, rounds,
                                        /*index_on=*/false,
                                        /*deferred=*/false));
  modes.push_back(RunPredicateIndexMode("indexed", &db, session.get(), items,
                                        num_queries, rounds,
                                        /*index_on=*/true,
                                        /*deferred=*/false));
  modes.push_back(RunPredicateIndexMode("deferred", &db, session.get(), items,
                                        num_queries, rounds,
                                        /*index_on=*/true,
                                        /*deferred=*/true));
  for (const ModeResult& m : modes) {
    std::printf("%10s %12.1f %16.3f %14.1f %20.0f %14llu %12llu\n", m.mode,
                m.wall_ms, m.added_us_per_query, m.ns_per_event_rule,
                m.cond_evals_per_sec,
                static_cast<unsigned long long>(m.predindex_evals),
                static_cast<unsigned long long>(m.memo_hits));
  }

  const double speedup_indexed =
      modes[1].added_us_per_query > 0.0
          ? modes[0].added_us_per_query / modes[1].added_us_per_query
          : 0.0;
  std::printf("\nspeedup over naive: indexed %.2fx (floor %.1fx)\n",
              speedup_indexed, kSpeedupFloor);

  std::string out = "BENCH_JSON {\"bench\":\"rule_predicate_index\"";
  out += ",\"rules\":" + std::to_string(kHarnessRules);
  out += ",\"queries\":" + std::to_string(num_queries);
  out += ",\"baseline_us_per_query\":" +
         JsonNum(baseline_us / static_cast<double>(num_queries));
  out += ",\"modes\":[";
  for (size_t i = 0; i < modes.size(); ++i) {
    const ModeResult& m = modes[i];
    if (i > 0) out += ",";
    out += std::string("{\"mode\":\"") + m.mode + "\"";
    out += ",\"wall_ms\":" + JsonNum(m.wall_ms);
    out += ",\"added_us_per_query\":" + JsonNum(m.added_us_per_query);
    out += ",\"ns_per_event_rule\":" + JsonNum(m.ns_per_event_rule);
    out += ",\"cond_evals_per_sec\":" + JsonNum(m.cond_evals_per_sec);
    out += ",\"predindex_evals\":" + std::to_string(m.predindex_evals);
    out += ",\"memo_hits\":" + std::to_string(m.memo_hits) + "}";
  }
  out += "],\"speedup_indexed\":" + JsonNum(speedup_indexed);
  out += ",\"floor\":" + JsonNum(kSpeedupFloor);
  out += "}";
  std::printf("%s\n", out.c_str());

  if (speedup_indexed < kSpeedupFloor) {
    std::fprintf(stderr,
                 "FAIL: indexed speedup %.2fx below the %.1fx acceptance "
                 "floor\n",
                 speedup_indexed, kSpeedupFloor);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace sqlcm::cm

int main(int argc, char** argv) {
  bool quick = false;
  bool micro_only = false;
  std::vector<char*> gbench_args;
  gbench_args.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--micro-only") == 0) {
      micro_only = true;
    } else {
      gbench_args.push_back(argv[i]);
    }
  }

  if (!micro_only) {
    if (int rc = sqlcm::cm::RunPredicateIndexComparison(quick); rc != 0) {
      return rc;
    }
    if (quick) return 0;  // CI bench-smoke: harness + BENCH_JSON only
  }

  int gbench_argc = static_cast<int>(gbench_args.size());
  benchmark::Initialize(&gbench_argc, gbench_args.data());
  if (benchmark::ReportUnrecognizedArguments(gbench_argc,
                                             gbench_args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
