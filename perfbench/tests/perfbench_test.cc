// Tests of the benchmark's own parts: the ledger's expected-fire arithmetic,
// the forwarding hook decorator and the per-statement span reconciliation.
//
//   cmake --build .bench_build --target perfbench_test
//   .bench_build/perfbench_test
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "engine/database.h"
#include "engine/session.h"
#include "harness.h"
#include "hook_tracer.h"
#include "ledger.h"
#include "sqlcm/monitor_engine.h"
#include "sqlcm/monitor_metrics.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace cm = sqlcm::cm;

TEST(LedgerTest, ExpectedFiresOnKnownCounts) {
  const std::vector<SessionProbes> sessions = {{"app_a", 1}, {"app_b", 2}};
  const std::vector<TemplateProbes> templates = {
      {"SELECT", "sig_select", 11, 2.0}, {"UPDATE", "sig_update", 22, 9.0}};
  Ledger ledger(2, 2);
  for (int i = 0; i < 5; ++i) ledger.AddStatement(0, 0);
  for (int i = 0; i < 2; ++i) ledger.AddStatement(0, 1);
  for (int i = 0; i < 3; ++i) ledger.AddStatement(1, 0);
  ledger.AddTransaction(0, {1, 1});
  ledger.AddTransaction(1, {0});
  ledger.AddTransaction(1, {0});

  EXPECT_EQ(ledger.TotalQueries(), 10u);
  EXPECT_EQ(ledger.TotalTransactions(), 3u);
  EXPECT_EQ(ledger.ExpectedFires(Condition{}, sessions, templates), 10u);
  const Condition app_b{{Atom::String(Probe::kApplication, Cmp::kEq, "app_b")}};
  EXPECT_EQ(ledger.ExpectedFires(app_b, sessions, templates), 3u);
  const Condition updates_of_a{
      {Atom::String(Probe::kQueryType, Cmp::kEq, "UPDATE"),
       Atom::Number(Probe::kSessionId, Cmp::kEq, 1)}};
  EXPECT_EQ(ledger.ExpectedFires(updates_of_a, sessions, templates), 2u);
  const Condition cheap_not_a{
      {Atom::Number(Probe::kEstimatedCost, Cmp::kLt, 5),
       Atom::Number(Probe::kSessionId, Cmp::kNe, 1)}};
  EXPECT_EQ(ledger.ExpectedFires(cheap_not_a, sessions, templates), 3u);
  const Condition never{
      {Atom::String(Probe::kLogicalSignature, Cmp::kEq, "sig_update"),
       Atom::String(Probe::kApplication, Cmp::kEq, "app_b")}};
  EXPECT_EQ(ledger.ExpectedFires(never, sessions, templates), 0u);

  const auto by_group = ledger.CountByAppAndSignature(sessions, templates);
  EXPECT_EQ(by_group.at("app_a|sig_select"), 5u);
  EXPECT_EQ(by_group.at("app_a|sig_update"), 2u);
  EXPECT_EQ(by_group.at("app_b|sig_select"), 3u);
  const auto by_txn = ledger.CountByTransactionSignature(templates);
  EXPECT_EQ(by_txn.at("[22,22]"), 1u);
  EXPECT_EQ(by_txn.at("[11]"), 2u);
}

TEST(LedgerTest, RenderedAtomsQuoteStrings) {
  EXPECT_EQ(Atom::String(Probe::kLogicalSignature, Cmp::kNe, "a'b").Render(),
            "Query.Logical_Signature <> 'a''b'");
  EXPECT_EQ(Atom::Number(Probe::kEstimatedCost, Cmp::kGt, 2.5).Render(),
            "Query.Estimated_Cost > 2.5");
}

// The ledger's prediction agrees with the monitor on a small run whose
// answer is also known by hand.
TEST(LedgerTest, MatchesMonitorOnSmallRun) {
  sqlcm::engine::Database db;
  cm::MonitorEngine::Options options;
  options.governor.overhead_budget = 0;
  cm::MonitorEngine monitor(&db, options);
  auto setup = db.CreateSession();
  ASSERT_TRUE(setup->Execute("CREATE TABLE t (id INT, v FLOAT, PRIMARY KEY(id))")
                  .ok());
  for (int i = 1; i <= 20; ++i) {
    ASSERT_TRUE(setup->Execute("INSERT INTO t VALUES (" + std::to_string(i) +
                               ", 1.0)")
                    .ok());
  }
  auto a = db.CreateSession();
  auto b = db.CreateSession();
  a->set_application("app_a");
  b->set_application("app_b");
  const std::vector<SessionProbes> sessions = {
      {"app_a", static_cast<int64_t>(a->id())},
      {"app_b", static_cast<int64_t>(b->id())}};

  const std::string select_sql = "SELECT v FROM t WHERE id = @k";
  const std::string update_sql = "UPDATE t SET v = v + 1.0 WHERE id = @k";
  const sqlcm::exec::ParamMap one = {{"k", sqlcm::common::Value::Int(1)}};
  ASSERT_TRUE(setup->Execute(select_sql, &one).ok());
  ASSERT_TRUE(setup->Execute(update_sql, &one).ok());
  std::vector<TemplateProbes> templates;
  for (const std::string* sql : {&select_sql, &update_sql}) {
    auto plan = db.plan_cache()->Get(*sql);
    ASSERT_NE(plan, nullptr);
    templates.push_back({plan->physical->StatementType(),
                         plan->logical_signature, plan->logical_signature_hash,
                         plan->physical->est_cost});
  }

  const std::vector<Condition> conditions = {
      Condition{},
      {{Atom::String(Probe::kApplication, Cmp::kEq, "app_a")}},
      {{Atom::String(Probe::kQueryType, Cmp::kEq, "UPDATE")}},
      {{Atom::String(Probe::kLogicalSignature, Cmp::kEq,
                     templates[0].logical_signature),
        Atom::Number(Probe::kSessionId, Cmp::kEq,
                     static_cast<double>(b->id()))}},
      {{Atom::Number(Probe::kEstimatedCost, Cmp::kGt, 1e12)}},
  };
  const std::vector<uint64_t> by_hand = {10, 7, 2, 3, 0};
  for (size_t i = 0; i < conditions.size(); ++i) {
    cm::RuleSpec rule;
    rule.name = "r" + std::to_string(i);
    rule.event = "Query.Commit";
    rule.condition = conditions[i].Render();
    rule.action = "Query.Persist(Sink" + std::to_string(i) + ", ID)";
    ASSERT_TRUE(monitor.AddRule(rule).ok()) << rule.condition;
  }

  Ledger ledger(2, 2);
  auto run = [&](size_t s, sqlcm::engine::Session* session, size_t tmpl,
                 int times) {
    for (int i = 0; i < times; ++i) {
      const sqlcm::exec::ParamMap k = {{"k", sqlcm::common::Value::Int(i + 2)}};
      ASSERT_TRUE(
          session->Execute(tmpl == 0 ? select_sql : update_sql, &k).ok());
      ledger.AddStatement(s, tmpl);
    }
  };
  run(0, a.get(), 0, 5);
  run(0, a.get(), 1, 2);
  run(1, b.get(), 0, 3);

  std::map<std::string, uint64_t> fires;
  for (const auto& rule : monitor.SnapshotRules()) {
    fires[rule->name] = rule->stats.fires.value();
  }
  for (size_t i = 0; i < conditions.size(); ++i) {
    const uint64_t predicted =
        ledger.ExpectedFires(conditions[i], sessions, templates);
    EXPECT_EQ(predicted, by_hand[i]) << conditions[i].Render();
    EXPECT_EQ(fires["r" + std::to_string(i)], predicted)
        << conditions[i].Render();
  }
}

struct TracedRun {
  HookTracer tracer;  // declared first: outlives the database using it
  std::unique_ptr<Workload> workload;
  std::unique_ptr<Instance> inst;
  std::array<uint64_t, cm::kNumMonitorHooks> calls_before{};
};

void StartTraced(TracedRun* run, const char* name) {
  run->workload = MakeWorkload(name, 3);
  ASSERT_NE(run->workload, nullptr);
  std::string error;
  run->inst = perfbench::SetUp(run->workload.get(), run->workload->sessions(),
                               3, nullptr, &error);
  ASSERT_NE(run->inst, nullptr) << error;
  for (size_t h = 0; h < cm::kNumMonitorHooks; ++h) {
    run->calls_before[h] = run->inst->monitor->metrics().hooks[h].calls.value();
  }
  run->tracer.Forward(run->inst->monitor.get());
  run->inst->db->set_monitor_hooks(&run->tracer);
}

// Every hook the engine raises reaches the monitor through the decorator
// exactly once, and plans compiled behind it still get their signatures.
TEST(HookTracerTest, ForwardsEveryHook) {
  TracedRun run;
  StartTraced(&run, "dba_mix");
  RunPhase(run.inst.get(), *run.workload, 400, 0, &run.tracer);
  auto probe = run.inst->sessions[0]->Execute(
      "SELECT o_custkey, o_totalprice FROM orders WHERE o_orderkey = 4242");
  ASSERT_TRUE(probe.ok());
  run.inst->db->set_monitor_hooks(run.inst->monitor.get());

  const HookTracer::Summary sum = run.tracer.Summarize();
  static const std::pair<SpanKind, cm::MonitorHook> kPairs[] = {
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
  for (const auto& [kind, hook] : kPairs) {
    const size_t h = static_cast<size_t>(hook);
    EXPECT_EQ(sum.count[static_cast<size_t>(kind)],
              run.inst->monitor->metrics().hooks[h].calls.value() -
                  run.calls_before[h])
        << SpanKindName(kind);
  }
  EXPECT_GT(sum.count[static_cast<size_t>(SpanKind::kQueryCommit)], 0u);
  EXPECT_GT(sum.count[static_cast<size_t>(SpanKind::kStatementCompiled)], 0u);
  auto plan = run.inst->db->plan_cache()->Get(
      "SELECT o_custkey, o_totalprice FROM orders WHERE o_orderkey = 4242");
  ASSERT_NE(plan, nullptr);
  EXPECT_TRUE(plan->signatures_computed);
  EXPECT_FALSE(plan->logical_signature.empty());

  // The probe is one more ad-hoc statement (template 4) of session 0.
  run.inst->ledger->AddStatement(0, 4);
  run.inst->ledger->AddTransaction(0, {4});
  std::vector<std::string> errors;
  CheckInstance(*run.workload, run.inst.get(), &errors);
  for (const std::string& e : errors) ADD_FAILURE() << e;
}

// Hook time is part of each statement's Execute call, so the child spans of
// a statement never cover more than the statement itself, and self time
// plus hook time adds back up to Execute wall time.
TEST(HookTracerTest, HookTimeNeverExceedsExecuteWall) {
  for (const char* name : {"e2_rules", "dba_mix", "deferred_fanin"}) {
    TracedRun run;
    StartTraced(&run, name);
    RunPhase(run.inst.get(), *run.workload, 200, 0, &run.tracer);
    run.inst->db->set_monitor_hooks(run.inst->monitor.get());
    const HookTracer::Summary sum = run.tracer.Summarize();
    EXPECT_GT(sum.statements, 0u) << name;
    EXPECT_EQ(sum.hook_exceeds_wall, 0u) << name;
    EXPECT_LE(sum.statement_self_nanos, sum.statement_nanos) << name;
    EXPECT_GE(sum.statement_self_nanos, 0) << name;
    EXPECT_LE(sum.statement_nanos - sum.statement_self_nanos, sum.hook_nanos)
        << name;
  }
}

// A short run of each workload passes every exact check.
TEST(WorkloadTest, ShortRunsPassTheirChecks) {
  for (const std::string& name : WorkloadNames()) {
    auto workload = MakeWorkload(name, 11);
    std::string error;
    auto inst = perfbench::SetUp(workload.get(), workload->sessions(), 11,
                                 nullptr, &error);
    ASSERT_NE(inst, nullptr) << error;
    RunPhase(inst.get(), *workload, 300, 0, nullptr);
    std::vector<std::string> errors;
    CheckInstance(*workload, inst.get(), &errors);
    for (const std::string& e : errors) ADD_FAILURE() << name << ": " << e;
    EXPECT_GT(inst->ledger->TotalQueries(), 0u) << name;
  }
}

}  // namespace
}  // namespace perfbench
