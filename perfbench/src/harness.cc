#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <thread>

#include "sqlcm/monitor_metrics.h"
#include "workload/tpch_gen.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace cm = sqlcm::cm;
namespace engine = sqlcm::engine;
using sqlcm::common::Random;
using sqlcm::common::Row;

namespace {

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

/// Nearest-rank percentile of `values` (reordered in place).
double Percentile(std::vector<int64_t>* values, double q) {
  if (values->empty()) return 0;
  size_t rank = static_cast<size_t>(q * static_cast<double>(values->size()));
  rank = std::min(rank, values->size() - 1);
  std::nth_element(values->begin(), values->begin() + static_cast<long>(rank),
                   values->end());
  return static_cast<double>((*values)[rank]);
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Set-ups per run (setup_s is their median) and timed phases per set-up.
constexpr int kSetups = 5;
constexpr int kPhasesPerSetup = 3;

/// Runs a read-only statement with the monitor detached, so reading the
/// monitor's views neither fires rules nor enters the ledger.
std::vector<Row> ReadView(Instance* inst, const std::string& sql,
                          std::vector<std::string>* errors) {
  engine::MonitorHooks* hooks = inst->db->monitor_hooks();
  inst->db->set_monitor_hooks(nullptr);
  auto result = inst->dba->Execute(sql);
  inst->db->set_monitor_hooks(hooks);
  if (!result.ok()) {
    errors->push_back(sql + ": " + result.status().ToString());
    return {};
  }
  return std::move(result->rows);
}

/// Nanosecond sums and counts the traced run differences across its phase.
struct Counters {
  uint64_t events = 0;
  uint64_t fired = 0;
  uint64_t pred_evals = 0;
  uint64_t pred_memo_hits = 0;
  uint64_t pred_fallbacks = 0;
  uint64_t batches = 0;
  uint64_t batch_events = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  std::array<uint64_t, cm::kNumMonitorHooks> hook_calls{};
  // sqlcm_profile
  double dispatch_us = 0;
  double rule_us = 0;
  double action_us = 0;
  double lat_us = 0;
  double queue_us = 0;
  double queue_spans = 0;
  // sqlcm_lat_stats
  double lat_inserts = 0;
  double lat_evictions = 0;
  double lat_latches = 0;
  double lat_bytes = 0;
  double lat_collapses = 0;
};

Counters ReadCounters(Instance* inst, std::vector<std::string>* errors) {
  Counters c;
  const cm::MonitorMetrics& m = inst->monitor->metrics();
  c.events = m.events_processed.value();
  c.fired = m.rules_fired.value();
  c.pred_evals = m.predindex_evals.value();
  c.pred_memo_hits = m.predindex_memo_hits.value();
  c.pred_fallbacks = m.predindex_fallbacks.value();
  c.batches = m.queue_batches.value();
  c.batch_events = m.queue_batch_events.value();
  c.cache_hits = inst->db->plan_cache()->hits();
  c.cache_misses = inst->db->plan_cache()->misses();
  for (size_t h = 0; h < cm::kNumMonitorHooks; ++h) {
    c.hook_calls[h] = m.hooks[h].calls.value();
  }
  for (const Row& row : ReadView(
           inst, "SELECT component, name, spans, self_micros FROM sqlcm_profile",
           errors)) {
    const std::string& component = row[0].string_value();
    const double spans = row[2].AsDouble();
    const double us = row[3].AsDouble();
    if (component == "dispatch") c.dispatch_us += us;
    if (component == "rule") c.rule_us += us;
    if (component == "action") c.action_us += us;
    if (component == "lat") c.lat_us += us;
    if (component == "queue") {
      c.queue_us += us;
      c.queue_spans += spans;
    }
  }
  for (const Row& row : ReadView(
           inst,
           "SELECT inserts, evictions, latch_acquisitions, approx_bytes, "
           "sketch_bytes, sketch_collapses FROM sqlcm_lat_stats",
           errors)) {
    c.lat_inserts += row[0].AsDouble();
    c.lat_evictions += row[1].AsDouble();
    c.lat_latches += row[2].AsDouble();
    c.lat_bytes += row[3].AsDouble() + row[4].AsDouble();
    c.lat_collapses += row[5].AsDouble();
  }
  // approx_bytes is tracked only for byte-bounded LATs, so add the
  // footprint of the materialized rows of every other LAT.
  for (const auto& lat : inst->monitor->SnapshotLats()) {
    if (lat->spec().max_bytes > 0) continue;
    for (const Row& row : lat->Snapshot(0)) {
      for (const auto& value : row) {
        c.lat_bytes += static_cast<double>(value.ApproxBytes());
      }
    }
  }
  return c;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += ch;
  }
  return out + "\"";
}

}  // namespace

Instance::~Instance() {
  // Sessions before the monitor, the monitor before the database.
  dba.reset();
  sessions.clear();
  monitor.reset();
  db.reset();
}

std::unique_ptr<Instance> SetUp(Workload* workload, size_t sessions,
                                uint64_t seed, HookTracer* dba_spans,
                                std::string* error) {
  const int64_t start = NowNanos();
  auto inst = std::make_unique<Instance>();
  inst->db = std::make_unique<engine::Database>();
  auto loaded = sqlcm::workload::LoadTpch(inst->db.get(), workload->data());
  if (!loaded.ok()) {
    *error = "data load: " + loaded.ToString();
    return nullptr;
  }
  inst->load_s = static_cast<double>(NowNanos() - start) / 1e9;

  cm::MonitorEngine::Options options;
  options.governor.overhead_budget = 0;  // every event reaches every rule
  options.async_rule_eval = workload->monitor_threads() > 0;
  options.monitor_threads = std::max<size_t>(1, workload->monitor_threads());
  inst->monitor = std::make_unique<cm::MonitorEngine>(inst->db.get(), options);

  for (size_t s = 0; s < sessions; ++s) {
    auto session = inst->db->CreateSession();
    session->set_application(workload->application(s));
    inst->session_probes.push_back(
        {workload->application(s), static_cast<int64_t>(session->id())});
    inst->sessions.push_back(std::move(session));
    inst->rngs.emplace_back(seed * 0x9e3779b97f4a7c15ull + s + 1);
  }
  inst->dba = inst->db->CreateSession();
  inst->dba->set_application("perfbench_dba");

  // Compile each template once (no rules yet, so nothing fires) and read the
  // probes the ledger needs from the cached plan.
  const auto templates = workload->templates();
  for (const TemplateDef& def : templates) {
    const Stmt& rep = def.representative;
    auto result = inst->dba->Execute(rep.sql,
                                     rep.params.empty() ? nullptr : &rep.params);
    auto plan = inst->db->plan_cache()->Get(rep.sql);
    if (!result.ok() || plan == nullptr || !plan->signatures_computed) {
      *error = "template " + def.name + " did not compile: " +
               (result.ok() ? "no cached plan" : result.status().ToString());
      return nullptr;
    }
    inst->template_probes.push_back(
        {plan->physical->StatementType(), plan->logical_signature,
         plan->logical_signature_hash, plan->physical->est_cost});
  }
  inst->ledger = std::make_unique<Ledger>(sessions, templates.size());

  const int64_t ddl_start = NowNanos();
  Installer installer(inst->monitor.get(), dba_spans);
  workload->Install(&installer, inst->session_probes, inst->template_probes);
  if (!installer.status().ok()) {
    *error = installer.status().ToString();
    return nullptr;
  }
  inst->rule_ddl_ms = static_cast<double>(NowNanos() - ddl_start) / 1e6;

  RunPhase(inst.get(), *workload, workload->warmup_units(), 0, nullptr);
  inst->setup_s = static_cast<double>(NowNanos() - start) / 1e9;
  return inst;
}

PhaseResult RunPhase(Instance* inst, const Workload& workload, uint64_t units,
                     double seconds, HookTracer* tracer) {
  const size_t n = inst->sessions.size();
  std::atomic<size_t> ready{0};
  std::atomic<bool> go{false};
  std::atomic<bool> stop{false};
  std::vector<PhaseResult> per_thread(n);
  std::vector<std::string> first_failure(n);
  std::vector<std::thread> threads;
  for (size_t s = 0; s < n; ++s) {
    threads.emplace_back([&, s] {
      engine::Session* session = inst->sessions[s].get();
      Random* rng = &inst->rngs[s];
      Ledger* ledger = inst->ledger.get();
      PhaseResult& out = per_thread[s];
      if (units == 0) out.latency_ns.reserve(1 << 18);
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      Unit unit;
      for (uint64_t u = 0;
           units > 0 ? u < units : !stop.load(std::memory_order_relaxed);
           ++u) {
        unit.stmts.clear();
        unit.shape.clear();
        workload.NextUnit(s, rng, &unit);
        bool unit_ok = true;
        for (const Stmt& stmt : unit.stmts) {
          const uint64_t span = tracer != nullptr ? tracer->BeginStatement() : 0;
          const int64_t t0 = NowNanos();
          auto result = session->Execute(
              stmt.sql, stmt.params.empty() ? nullptr : &stmt.params);
          const int64_t t1 = NowNanos();
          if (tracer != nullptr) tracer->EndStatement(span, t0, t1);
          if (units == 0) out.latency_ns.push_back(t1 - t0);
          ++out.statements;
          if (!result.ok()) {
            ++out.failed;
            unit_ok = false;
            if (first_failure[s].empty()) {
              first_failure[s] = stmt.sql + ": " + result.status().ToString();
            }
          } else if (stmt.tmpl >= 0) {
            ledger->AddStatement(s, static_cast<size_t>(stmt.tmpl));
          }
        }
        if (unit_ok) ledger->AddTransaction(s, unit.shape);
      }
    });
  }
  while (ready.load() < n) std::this_thread::yield();
  const int64_t start = NowNanos();
  go.store(true, std::memory_order_release);
  if (units == 0) {
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
    stop.store(true);
  }
  for (auto& t : threads) t.join();
  // Deferred work counts until it has drained (no-op for the sync lane).
  const int64_t drain_start = NowNanos();
  inst->monitor->DrainEventQueue();
  const int64_t end = NowNanos();
  if (tracer != nullptr) {
    tracer->Record(SpanKind::kDrainEventQueue, drain_start, end);
  }

  PhaseResult result;
  result.wall_s = static_cast<double>(end - start) / 1e9;
  result.drain_ns = end - drain_start;
  for (size_t s = 0; s < n; ++s) {
    result.statements += per_thread[s].statements;
    result.failed += per_thread[s].failed;
    result.latency_ns.insert(result.latency_ns.end(),
                             per_thread[s].latency_ns.begin(),
                             per_thread[s].latency_ns.end());
    if (inst->first_failure.empty()) inst->first_failure = first_failure[s];
  }
  inst->attempted += result.statements;
  inst->failed += result.failed;
  return result;
}

void CheckInstance(const Workload& workload, Instance* inst,
                   std::vector<std::string>* errors) {
  const cm::MonitorMetrics& m = inst->monitor->metrics();
  auto zero = [errors](const char* what, uint64_t value) {
    if (value != 0) {
      errors->push_back(std::string(what) + " = " + std::to_string(value) +
                        ", want 0");
    }
  };
  zero("events_sampled_out", m.events_sampled_out.value());
  zero("queue.dropped", m.queue_dropped.value());
  zero("queue.shed", m.queue_shed.value());
  zero("monitor errors", m.errors_total.value());
  zero("breaker trips", m.breaker_trips.value());
  zero("breaker skips", m.breaker_skips.value());
  zero("actions suppressed", m.actions_suppressed.value());
  zero("predindex fallbacks", m.predindex_fallbacks.value());
  zero("failed statements", inst->failed);
  if (!inst->first_failure.empty()) {
    errors->push_back("first failed statement: " + inst->first_failure);
  }
  if (inst->monitor->total_errors() != 0) {
    errors->push_back("monitor error: " + inst->monitor->last_error());
  }
  workload.Check({inst->db.get(), inst->monitor.get(), inst->ledger.get(),
                  &inst->session_probes, &inst->template_probes},
                 errors);
}

RunReport RunBenchmark(const RunOptions& options) {
  RunReport report;
  auto workload = MakeWorkload(options.workload, options.seed);
  if (workload == nullptr) {
    report.errors.push_back("unknown workload " + options.workload);
    return report;
  }
  const size_t nproc = std::max(1u, std::thread::hardware_concurrency());
  // Sessions and monitor workers together use at most nproc threads.
  const size_t workers = workload->monitor_threads();
  const size_t sessions = std::max<size_t>(
      1, std::min(workload->sessions(), nproc > workers ? nproc - workers : 1));

  // Traced runs record the timed set-up's DBA calls as spans too.
  std::unique_ptr<HookTracer> tracer;
  if (options.trace) tracer = std::make_unique<HookTracer>();
  auto add = [&report](const char* name, double value, const char* unit) {
    report.metrics.push_back({name, value, unit});
  };
  // Untraced: every set-up gets its own share of the timed window, split
  // into closed-loop phases (each drained), and every figure is the median
  // across all phases. Fresh instances average out allocation layout, and
  // short phases keep one disturbed stretch of a shared host from moving
  // the result. Traced: the last set-up runs the two traced-run phases.
  const double phase_seconds = options.seconds / (kSetups * kPhasesPerSetup);
  std::vector<double> setup_s, load_s, ddl_ms, rates, p50s, p90s, p99s;
  uint64_t timed_statements = 0;
  std::string phase_rates;  // JSON list, for judging run-to-run noise
  std::unique_ptr<Instance> inst;
  for (int i = 0; i < kSetups; ++i) {
    if (inst != nullptr) {
      CheckInstance(*workload, inst.get(), &report.errors);
      report.attempted += inst->attempted;
      report.failed += inst->failed;
      inst.reset();
    }
    std::string error;
    inst = SetUp(workload.get(), sessions, options.seed,
                 i + 1 == kSetups ? tracer.get() : nullptr, &error);
    if (inst == nullptr) {
      report.errors.push_back("set-up: " + error);
      return report;
    }
    setup_s.push_back(inst->setup_s);
    load_s.push_back(inst->load_s);
    ddl_ms.push_back(inst->rule_ddl_ms);
    for (int r = 0; !options.trace && r < kPhasesPerSetup; ++r) {
      PhaseResult phase =
          RunPhase(inst.get(), *workload, 0, phase_seconds, nullptr);
      timed_statements += phase.statements;
      rates.push_back(
          Ratio(static_cast<double>(phase.statements), phase.wall_s));
      p50s.push_back(Percentile(&phase.latency_ns, 0.50) / 1000.0);
      p90s.push_back(Percentile(&phase.latency_ns, 0.90) / 1000.0);
      p99s.push_back(Percentile(&phase.latency_ns, 0.99) / 1000.0);
      if (!phase_rates.empty()) phase_rates += ',';
      phase_rates += std::to_string(static_cast<int64_t>(rates.back()));
    }
  }

  if (!options.trace) {
    add("setup_s", Median(setup_s), "s");
    add("stmt_per_s", Median(rates), "1/s");
    add("stmt_p50_us", Median(p50s), "us");
    add("stmt_p90_us", Median(p90s), "us");
  } else {
    // Untraced half first: the baseline for trace.overhead_pct.
    PhaseResult plain = RunPhase(inst.get(), *workload, 0,
                                 options.seconds / 2, nullptr);
    const double plain_rate =
        Ratio(static_cast<double>(plain.statements), plain.wall_s);

    const Counters before = ReadCounters(inst.get(), &report.errors);
    tracer->Forward(inst->monitor.get());
    inst->db->set_monitor_hooks(tracer.get());
    inst->monitor->span_ring()->set_enabled(true);
    inst->monitor->set_span_sampling(1.0);
    PhaseResult traced = RunPhase(inst.get(), *workload, 0,
                                  options.seconds / 2, tracer.get());
    inst->monitor->span_ring()->set_enabled(false);
    inst->db->set_monitor_hooks(inst->monitor.get());
    const Counters after = ReadCounters(inst.get(), &report.errors);
    timed_statements = plain.statements + traced.statements;

    const HookTracer::Summary sum = tracer->Summarize();
    auto kind = [](SpanKind k) { return static_cast<size_t>(k); };
    auto mean_ns = [&](SpanKind k) {
      return Ratio(static_cast<double>(sum.nanos[kind(k)]),
                   static_cast<double>(sum.count[kind(k)]));
    };
    const double stmts = static_cast<double>(traced.statements);
    const double events = static_cast<double>(after.events - before.events);
    const double fired = static_cast<double>(after.fired - before.fired);
    const double evals =
        static_cast<double>(after.pred_evals - before.pred_evals);
    const double memo = static_cast<double>(after.pred_memo_hits -
                                            before.pred_memo_hits);
    const double hits =
        static_cast<double>(after.cache_hits - before.cache_hits);
    const double misses =
        static_cast<double>(after.cache_misses - before.cache_misses);
    const double compiles =
        static_cast<double>(sum.count[kind(SpanKind::kStatementCompiled)]);
    const double commits =
        static_cast<double>(sum.count[kind(SpanKind::kQueryCommit)]);
    const double rules = static_cast<double>(inst->monitor->rule_count());
    const double action_ns = (after.action_us - before.action_us) * 1000;
    const double inserts = after.lat_inserts - before.lat_inserts;

    add("engine.self_us_per_stmt",
        Ratio(static_cast<double>(sum.statement_self_nanos), stmts) / 1000,
        "us");
    add("engine.plan_cache_hit_ratio", Ratio(hits, hits + misses), "ratio");
    add("engine.compile_us",
        Ratio(static_cast<double>(sum.optimize_micros), compiles), "us");
    add("txn.blocks_per_kstmt",
        Ratio(static_cast<double>(sum.count[kind(SpanKind::kBlocked)]) * 1000,
              stmts),
        "count");
    add("txn.wait_us_mean",
        Ratio(static_cast<double>(sum.block_wait_micros),
              static_cast<double>(sum.count[kind(SpanKind::kBlockReleased)])),
        "us");
    add("signature.us_per_compile",
        mean_ns(SpanKind::kStatementCompiled) / 1000, "us");
    add("hooks.query_start_ns", mean_ns(SpanKind::kQueryStart), "ns");
    add("hooks.query_commit_ns", mean_ns(SpanKind::kQueryCommit), "ns");
    add("hooks.txn_commit_ns", mean_ns(SpanKind::kTxnCommit), "ns");
    add("hooks.block_released_ns", mean_ns(SpanKind::kBlockReleased), "ns");
    add("hooks.ns_per_stmt", Ratio(static_cast<double>(sum.hook_nanos), stmts),
        "ns");
    add("hooks.ns_per_query_rule",
        Ratio(static_cast<double>(sum.hook_nanos), commits * rules), "ns");
    add("rules.condition_ns_per_event",
        Ratio((after.rule_us - before.rule_us) * 1000 - action_ns, events),
        "ns");
    add("rules.fired_per_event", Ratio(fired, events), "count");
    add("predindex.evals_per_event", Ratio(evals, events), "count");
    add("predindex.sharing_ratio", Ratio(memo, evals + memo), "ratio");
    add("predindex.fallbacks",
        static_cast<double>(after.pred_fallbacks - before.pred_fallbacks),
        "count");
    add("actions.ns_per_fire", Ratio(action_ns, fired), "ns");
    // Per inserted item: a batched upsert span covers many items.
    add("lat.upsert_ns", Ratio((after.lat_us - before.lat_us) * 1000, inserts),
        "ns");
    add("lat.evictions_per_insert",
        Ratio(after.lat_evictions - before.lat_evictions, inserts), "ratio");
    add("lat.latch_acq_per_insert",
        Ratio(after.lat_latches - before.lat_latches, inserts), "count");
    add("lat.bytes", after.lat_bytes, "bytes");
    add("lat.sketch_collapses", after.lat_collapses - before.lat_collapses,
        "count");
    add("queue.batch_mean",
        Ratio(static_cast<double>(after.batch_events - before.batch_events),
              static_cast<double>(after.batches - before.batches)),
        "count");
    add("queue.wait_us_mean",
        Ratio(after.queue_us - before.queue_us,
              after.queue_spans - before.queue_spans),
        "us");
    add("queue.drain_tail_ms", static_cast<double>(traced.drain_ns) / 1e6, "ms");
    add("setup.load_s", Median(load_s), "s");
    add("setup.rule_ddl_ms", Median(ddl_ms), "ms");
    const double traced_rate = Ratio(stmts, traced.wall_s);
    add("trace.overhead_pct",
        Ratio(plain_rate - traced_rate, plain_rate) * 100, "%");
    add("trace.coverage",
        Ratio((after.dispatch_us - before.dispatch_us) * 1000,
              static_cast<double>(sum.hook_nanos)),
        "ratio");

    // The decorator must forward every hook the engine raised.
    static const std::pair<SpanKind, cm::MonitorHook> kForwarded[] = {
        {SpanKind::kStatementCompiled, cm::MonitorHook::kStatementCompiled},
        {SpanKind::kQueryStart, cm::MonitorHook::kQueryStart},
        {SpanKind::kQueryCommit, cm::MonitorHook::kQueryCommit},
        {SpanKind::kQueryCancel, cm::MonitorHook::kQueryCancel},
        {SpanKind::kQueryRollback, cm::MonitorHook::kQueryRollback},
        {SpanKind::kTxnBegin, cm::MonitorHook::kTxnBegin},
        {SpanKind::kTxnCommit, cm::MonitorHook::kTxnCommit},
        {SpanKind::kTxnRollback, cm::MonitorHook::kTxnRollback},
        {SpanKind::kBlocked, cm::MonitorHook::kBlocked},
        {SpanKind::kBlockReleased, cm::MonitorHook::kBlockReleased}};
    for (const auto& [span_kind, hook] : kForwarded) {
      const size_t h = static_cast<size_t>(hook);
      const uint64_t engine_calls = after.hook_calls[h] - before.hook_calls[h];
      if (sum.count[kind(span_kind)] != engine_calls) {
        report.errors.push_back(
            std::string("decorator forwarded ") +
            std::to_string(sum.count[kind(span_kind)]) + " " +
            SpanKindName(span_kind) + " calls, monitor counted " +
            std::to_string(engine_calls));
      }
    }
    if (sum.hook_exceeds_wall != 0) {
      report.errors.push_back(std::to_string(sum.hook_exceeds_wall) +
                              " statements with hook time above Execute wall");
    }
    if (!options.span_out.empty()) {
      auto written = tracer->WriteSpans(options.span_out);
      if (!written.ok()) report.errors.push_back(written.ToString());
    }
  }
  CheckInstance(*workload, inst.get(), &report.errors);
  report.attempted += inst->attempted;
  report.failed += inst->failed;
  if (!options.trace) add("peak_rss_mb", PeakRssMb(), "MB");

  char info[1024];
  std::snprintf(
      info, sizeof(info),
      "{\"workload\":%s,\"seed\":%llu,\"trace\":%d,\"nproc\":%zu,"
      "\"build_type\":%s,\"sessions\":%zu,\"monitor_threads\":%zu,"
      "\"setups\":%d,\"rules\":%zu,\"timed_statements\":%llu,"
      "\"ledger_queries\":%llu,\"ledger_transactions\":%llu,"
      "\"rules_fired\":%llu,\"stmt_p99_us\":%.1f,"
      "\"phase_stmt_per_s\":[%s]}",
      JsonString(options.workload).c_str(),
      static_cast<unsigned long long>(options.seed), options.trace ? 1 : 0,
      nproc, JsonString(PERFBENCH_BUILD_TYPE).c_str(), sessions, workers,
      kSetups, inst->monitor->rule_count(),
      static_cast<unsigned long long>(timed_statements),
      static_cast<unsigned long long>(inst->ledger->TotalQueries()),
      static_cast<unsigned long long>(inst->ledger->TotalTransactions()),
      static_cast<unsigned long long>(inst->monitor->rules_fired()),
      Median(p99s), phase_rates.c_str());
  report.info = info;
  report.correct = report.errors.empty() && report.failed == 0;
  return report;
}

}  // namespace perfbench
