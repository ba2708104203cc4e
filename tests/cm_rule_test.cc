#include "sqlcm/rule.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/random.h"
#include "common/string_util.h"

namespace sqlcm::cm {
namespace {

using common::Value;

/// Minimal resolver with one LAT and one timer for compilation tests.
class TestResolver final : public LatResolver {
 public:
  TestResolver() {
    LatSpec spec;
    spec.name = "Duration_LAT";
    spec.object_class = MonitoredClass::kQuery;
    spec.group_by = {{"Logical_Signature", "Sig"}};
    spec.aggregates = {{LatAggFunc::kAvg, "Duration", "Avg_Duration", false},
                       {LatAggFunc::kCount, "", "N", false}};
    lat_ = std::move(*Lat::Create(std::move(spec)));
  }

  Lat* FindLat(std::string_view name) const override {
    return common::EqualsIgnoreCase(name, "Duration_LAT") ? lat_.get()
                                                          : nullptr;
  }
  bool IsTimerName(std::string_view name) const override {
    return common::EqualsIgnoreCase(name, "T1");
  }

  Lat* lat() const { return lat_.get(); }

 private:
  std::unique_ptr<Lat> lat_;
};

class RuleTest : public ::testing::Test {
 protected:
  TestResolver resolver_;
};

TEST_F(RuleTest, EventParsing) {
  auto check = [&](const std::string& text, EventKind kind,
                   const std::string& qualifier) {
    auto key = RuleCompiler::ParseEvent(text, resolver_);
    ASSERT_TRUE(key.ok()) << text << ": " << key.status();
    EXPECT_EQ(key->kind, kind) << text;
    EXPECT_EQ(key->qualifier, qualifier) << text;
  };
  check("Query.Commit", EventKind::kQueryCommit, "");
  check("query.start", EventKind::kQueryStart, "");
  check("Query.Blocked", EventKind::kQueryBlocked, "");
  check("Query.Block_Released", EventKind::kQueryBlockReleased, "");
  check("Transaction.Commit", EventKind::kTransactionCommit, "");
  check("Timer.Alarm", EventKind::kTimerAlarm, "");
  check("T1.Alarm", EventKind::kTimerAlarm, "t1");
  check("Duration_LAT.Evict", EventKind::kLatEvict, "duration_lat");

  EXPECT_FALSE(RuleCompiler::ParseEvent("Query", resolver_).ok());
  EXPECT_FALSE(RuleCompiler::ParseEvent("Query.Nope", resolver_).ok());
  EXPECT_FALSE(RuleCompiler::ParseEvent("Missing.Evict", resolver_).ok());
  EXPECT_FALSE(RuleCompiler::ParseEvent("T2.Alarm", resolver_).ok());
}

TEST_F(RuleTest, CompileOutlierRule) {
  RuleSpec spec;
  spec.name = "outlier";
  spec.event = "Query.Commit";
  spec.condition = "Query.Duration > 5 * Duration_LAT.Avg_Duration";
  spec.action = "Query.Persist(Outliers, Query_Text, Duration)";
  auto rule = RuleCompiler::Compile(spec, resolver_);
  ASSERT_TRUE(rule.ok()) << rule.status();
  EXPECT_EQ((*rule)->event.kind, EventKind::kQueryCommit);
  ASSERT_NE((*rule)->condition, nullptr);
  EXPECT_TRUE((*rule)->iterate_classes.empty());
  ASSERT_EQ((*rule)->actions.size(), 1u);
  EXPECT_EQ((*rule)->actions[0].kind, ActionKind::kPersist);
  EXPECT_EQ((*rule)->actions[0].attr_names.size(), 2u);
  EXPECT_EQ((*rule)->referenced_lats.size(), 1u);
}

TEST_F(RuleTest, ConditionEvaluation) {
  RuleSpec spec;
  spec.event = "Query.Commit";
  spec.condition = "Query.Duration > 2 AND Query.Query_Type = 'SELECT'";
  spec.action = "Query.Insert(Duration_LAT)";
  auto rule = *RuleCompiler::Compile(spec, resolver_);

  QueryRecord fast;
  fast.duration_secs = 1.0;
  fast.query_type = "SELECT";
  QueryRecord slow = fast;
  slow.duration_secs = 3.0;
  QueryRecord slow_update = slow;
  slow_update.query_type = "UPDATE";

  EvalContext ctx;
  ctx.Bind(MonitoredClass::kQuery, &fast);
  EXPECT_FALSE(*rule->condition->EvalCondition(&ctx));
  ctx = EvalContext();
  ctx.Bind(MonitoredClass::kQuery, &slow);
  EXPECT_TRUE(*rule->condition->EvalCondition(&ctx));
  ctx = EvalContext();
  ctx.Bind(MonitoredClass::kQuery, &slow_update);
  EXPECT_FALSE(*rule->condition->EvalCondition(&ctx));
}

TEST_F(RuleTest, MissingLatRowMakesConditionFalse) {
  RuleSpec spec;
  spec.event = "Query.Commit";
  // With an empty LAT, the ∃-quantified reference must yield false even
  // though the comparison would be "NULL > ..." (paper §5.2).
  spec.condition = "Query.Duration > Duration_LAT.Avg_Duration OR 1 = 1";
  spec.action = "Query.Insert(Duration_LAT)";
  auto rule = *RuleCompiler::Compile(spec, resolver_);

  QueryRecord rec;
  rec.logical_signature = "not-in-lat";
  rec.duration_secs = 100;
  EvalContext ctx;
  ctx.Bind(MonitoredClass::kQuery, &rec);
  auto pass = rule->condition->EvalCondition(&ctx);
  ASSERT_TRUE(pass.ok());
  EXPECT_FALSE(*pass);  // missing row dominates even the OR 1=1 branch

  // Once the row exists the condition evaluates normally.
  QueryRecord seed;
  seed.logical_signature = "not-in-lat";
  seed.duration_secs = 1.0;
  resolver_.lat()->Insert(&seed, 0);
  ctx = EvalContext();
  ctx.Bind(MonitoredClass::kQuery, &rec);
  EXPECT_TRUE(*rule->condition->EvalCondition(&ctx));
}

TEST_F(RuleTest, IterateClassesDerivedFromUnboundRefs) {
  RuleSpec spec;
  spec.name = "stuck";
  spec.event = "Timer.Alarm";
  spec.condition = "Query.Time_Blocked > 10";
  spec.action = "Query.Persist(StuckQueries, ID, Query_Text)";
  auto rule = *RuleCompiler::Compile(spec, resolver_);
  ASSERT_EQ(rule->iterate_classes.size(), 1u);
  EXPECT_EQ(rule->iterate_classes[0], MonitoredClass::kQuery);
}

TEST_F(RuleTest, BlockerBlockedBoundByBlockEvents) {
  RuleSpec spec;
  spec.event = "Query.Block_Released";
  spec.condition = "Blocked.Wait_Secs > 0.5";
  spec.action = "Blocker.Insert(Duration_LAT)";
  auto rule = RuleCompiler::Compile(spec, resolver_);
  // Blocker.Insert targets a Query-class LAT -> type error.
  ASSERT_FALSE(rule.ok());
  EXPECT_TRUE(rule.status().IsTypeError());

  spec.action = "Blocked.Persist(Waits, Query_Text, Wait_Secs)";
  auto ok_rule = RuleCompiler::Compile(spec, resolver_);
  ASSERT_TRUE(ok_rule.ok()) << ok_rule.status();
  EXPECT_TRUE((*ok_rule)->iterate_classes.empty());
}

TEST_F(RuleTest, ActionParsingVariants) {
  RuleSpec spec;
  spec.event = "Query.Commit";
  spec.action =
      "Query.Insert(Duration_LAT); Reset(Duration_LAT); "
      "SendMail('q {Query.ID} slow', 'dba@example.com'); "
      "RunExternal('analyze.sh'); Query.Cancel(); T1.Set(30, -1); "
      "Duration_LAT.Persist(Snapshot)";
  auto rule = RuleCompiler::Compile(spec, resolver_);
  ASSERT_TRUE(rule.ok()) << rule.status();
  ASSERT_EQ((*rule)->actions.size(), 7u);
  EXPECT_EQ((*rule)->actions[0].kind, ActionKind::kInsert);
  EXPECT_EQ((*rule)->actions[1].kind, ActionKind::kReset);
  EXPECT_EQ((*rule)->actions[2].kind, ActionKind::kSendMail);
  EXPECT_EQ((*rule)->actions[2].address, "dba@example.com");
  EXPECT_EQ((*rule)->actions[3].kind, ActionKind::kRunExternal);
  EXPECT_EQ((*rule)->actions[4].kind, ActionKind::kCancel);
  EXPECT_EQ((*rule)->actions[5].kind, ActionKind::kSetTimer);
  EXPECT_EQ((*rule)->actions[5].timer_repeats, -1);
  EXPECT_DOUBLE_EQ((*rule)->actions[5].timer_seconds, 30.0);
  EXPECT_EQ((*rule)->actions[6].kind, ActionKind::kPersist);
  EXPECT_TRUE((*rule)->actions[6].lat_source);
}

TEST_F(RuleTest, PersistDefaultsToAllAttributes) {
  RuleSpec spec;
  spec.event = "Query.Commit";
  spec.action = "Query.Persist(Everything)";
  auto rule = *RuleCompiler::Compile(spec, resolver_);
  EXPECT_EQ(rule->actions[0].attr_names.size(),
            ObjectSchema::Get().attributes(MonitoredClass::kQuery).size());
}

/// True when every top-level conjunct compiled to a FastAtom.
bool AllConjunctsFast(const CompiledRule& rule) {
  return std::all_of(rule.conjuncts.begin(), rule.conjuncts.end(),
                     [](const CompiledConjunct& c) { return c.is_fast; });
}

TEST_F(RuleTest, FastConditionPathMatchesGenericPath) {
  // Property: for eligible conditions, AND-ing the conjuncts' fast-atom
  // evaluations must agree with the generic interpreter on every record.
  const std::vector<std::string> conditions = {
      "Query.Duration > 2",
      "Query.Duration >= 2 AND Query.Query_Type = 'SELECT'",
      "Query.ID != 5 AND Query.Duration < 100 AND Query.Times_Blocked = 0",
      "3 < Query.Duration",  // literal on the left
      "Query.Query_Type = 'UPDATE' AND Query.Estimated_Cost <= 50",
  };
  common::Random rng(2024);
  for (const std::string& condition : conditions) {
    RuleSpec spec;
    spec.event = "Query.Commit";
    spec.condition = condition;
    spec.action = "Reset(Duration_LAT)";
    auto rule = RuleCompiler::Compile(spec, resolver_);
    ASSERT_TRUE(rule.ok()) << condition;
    ASSERT_TRUE(AllConjunctsFast(**rule)) << condition;
    for (int i = 0; i < 200; ++i) {
      QueryRecord rec;
      rec.id = static_cast<uint64_t>(rng.UniformInt(0, 10));
      rec.duration_secs = static_cast<double>(rng.UniformInt(0, 8)) / 2.0;
      rec.times_blocked = rng.UniformInt(0, 2);
      rec.estimated_cost = static_cast<double>(rng.UniformInt(0, 100));
      rec.query_type = rng.OneIn(2) ? "SELECT" : "UPDATE";
      EvalContext ctx;
      ctx.Bind(MonitoredClass::kQuery, &rec);
      bool fast = true;
      for (const CompiledConjunct& c : (*rule)->conjuncts) {
        fast = fast && EvalFastAtom(c.atom, ctx);
      }
      EvalContext ctx2;
      ctx2.Bind(MonitoredClass::kQuery, &rec);
      auto generic = (*rule)->condition->EvalCondition(&ctx2);
      ASSERT_TRUE(generic.ok());
      EXPECT_EQ(fast, *generic) << condition << " iteration " << i;
    }
  }
}

TEST_F(RuleTest, FastStringAtomsThroughViewsMatchGenericPath) {
  // String atoms compare the borrowed view in place; every comparison
  // operator, with the literal on either side, must agree with the tree
  // interpreter (which materialises the probe) on plan-backed and
  // plan-less queries, on Transaction/Blocker/Blocked/Timer string
  // attributes, and on empty strings.
  auto plan = std::make_shared<engine::CachedPlan>();
  plan->sql_text = "SELECT 1 FROM t";
  plan->logical_signature = engine::SharedText::Intern("abc");
  const std::vector<std::string> texts = {"", "ab", "abc", "abd", "b"};
  struct Target {
    std::string event;
    std::string attr;  // Class.Attribute
  };
  const std::vector<Target> targets = {
      {"Query.Commit", "Query.Logical_Signature"},
      {"Query.Commit", "Query.Application"},
      {"Query.Commit", "Query.Query_Text"},
      {"Transaction.Commit", "Transaction.User"},
      {"Query.Blocked", "Blocker.Resource"},
      {"Query.Blocked", "Blocked.User"},
      {"Timer.Alarm", "Timer.Name"},
  };
  const std::vector<std::string> ops = {"=", "<>", "<", "<=", ">", ">="};
  size_t checked = 0;
  for (const Target& target : targets) {
    for (const std::string& op : ops) {
      for (const char* literal : {"", "abc", "b"}) {
        for (const bool attr_left : {true, false}) {
          const std::string lit = std::string("'") + literal + "'";
          RuleSpec spec;
          spec.event = target.event;
          spec.condition = attr_left ? target.attr + " " + op + " " + lit
                                     : lit + " " + op + " " + target.attr;
          spec.action = "Reset(Duration_LAT)";
          auto rule = RuleCompiler::Compile(spec, resolver_);
          ASSERT_TRUE(rule.ok()) << spec.condition << ": " << rule.status();
          ASSERT_TRUE(AllConjunctsFast(**rule)) << spec.condition;
          const FastAtom& atom = (*rule)->conjuncts[0].atom;
          for (const std::string& text : texts) {
            for (const bool planned : {false, true}) {
              QueryRecord query;
              query.text = text;
              query.logical_signature = text;
              query.application = text;
              query.user = text;
              if (planned) {
                // The plan supplies text and signature; only "abc" can
                // come from it, so other texts stay plan-less.
                if (text != "abc") continue;
                query.plan = plan;
                query.text = query.logical_signature = "stale";
              }
              BlockEventView block{&query, 0.25, text};
              TimerRecord timer;
              timer.name = text;
              TransactionRecord txn;
              txn.user = text;
              EvalContext ctx;
              ctx.Bind(MonitoredClass::kQuery, &query);
              ctx.Bind(MonitoredClass::kTransaction, &txn);
              ctx.Bind(MonitoredClass::kBlocker, &block);
              ctx.Bind(MonitoredClass::kBlocked, &block);
              ctx.Bind(MonitoredClass::kTimer, &timer);
              auto generic = (*rule)->condition->EvalCondition(&ctx);
              ASSERT_TRUE(generic.ok()) << spec.condition;
              EXPECT_EQ(EvalFastAtom(atom, ctx), *generic)
                  << spec.condition << " on '" << text << "'"
                  << (planned ? " (plan-backed)" : "");
              ++checked;
            }
          }
        }
      }
    }
  }
  // Per atom: every text plan-less, plus "abc" plan-backed.
  EXPECT_EQ(checked, targets.size() * ops.size() * 3 * 2 * (texts.size() + 1));
}

TEST_F(RuleTest, FastPathNotUsedForComplexConditions) {
  const std::vector<std::string> generic_only = {
      "Query.Duration > 5 * Duration_LAT.Avg_Duration",  // LAT reference
      "Query.Duration > 1 OR Query.ID = 2",              // OR
      "NOT Query.Duration > 1",                          // NOT
      "Query.Duration + 1 > 2",                          // arithmetic
      "Query.Duration > Query.Estimated_Cost",           // attr vs attr
  };
  for (const std::string& condition : generic_only) {
    RuleSpec spec;
    spec.event = "Query.Commit";
    spec.condition = condition;
    spec.action = "Reset(Duration_LAT)";
    auto rule = RuleCompiler::Compile(spec, resolver_);
    ASSERT_TRUE(rule.ok()) << condition;
    EXPECT_FALSE(AllConjunctsFast(**rule)) << condition;
  }
}

struct BadRuleCase {
  const char* name;
  const char* event;
  const char* condition;
  const char* action;
};

class RuleCompileErrorTest : public ::testing::TestWithParam<BadRuleCase> {
 protected:
  TestResolver resolver_;
};

TEST_P(RuleCompileErrorTest, Rejected) {
  const auto& param = GetParam();
  RuleSpec spec;
  spec.name = param.name;
  spec.event = param.event;
  spec.condition = param.condition;
  spec.action = param.action;
  auto rule = RuleCompiler::Compile(spec, resolver_);
  EXPECT_FALSE(rule.ok()) << param.name;
}

INSTANTIATE_TEST_SUITE_P(
    BadRules, RuleCompileErrorTest,
    ::testing::Values(
        BadRuleCase{"bad-event", "Nope.Commit", "", "Reset(Duration_LAT)"},
        BadRuleCase{"bad-class-attr", "Query.Commit", "Query.Nope > 1",
                    "Reset(Duration_LAT)"},
        BadRuleCase{"bad-lat", "Query.Commit", "Nope_LAT.X > 1",
                    "Reset(Duration_LAT)"},
        BadRuleCase{"bad-lat-col", "Query.Commit", "Duration_LAT.Nope > 1",
                    "Reset(Duration_LAT)"},
        BadRuleCase{"unqualified", "Query.Commit", "Duration > 1",
                    "Reset(Duration_LAT)"},
        BadRuleCase{"no-action", "Query.Commit", "Query.Duration > 1", ""},
        BadRuleCase{"bad-action", "Query.Commit", "", "Explode(Now)"},
        BadRuleCase{"insert-missing-lat", "Query.Commit", "",
                    "Query.Insert(Nope)"},
        BadRuleCase{"cancel-txn", "Transaction.Commit", "",
                    "Transaction.Cancel()"},
        BadRuleCase{"evicted-outside-evict", "Query.Commit",
                    "Evicted.Sig = 'x'", "Reset(Duration_LAT)"},
        BadRuleCase{"func-in-condition", "Query.Commit",
                    "SUM(Query.Duration) > 1", "Reset(Duration_LAT)"},
        BadRuleCase{"param-in-condition", "Query.Commit", "Query.Duration > @p",
                    "Reset(Duration_LAT)"}));

TEST_F(RuleTest, EvictRuleBindsEvictedColumns) {
  RuleSpec spec;
  spec.event = "Duration_LAT.Evict";
  spec.condition = "Evicted.N > 2";
  spec.action = "Evicted.Persist(EvictedRows)";
  auto rule = RuleCompiler::Compile(spec, resolver_);
  ASSERT_TRUE(rule.ok()) << rule.status();

  common::Row evicted = {Value::String("sig"), Value::Double(1.5),
                         Value::Int(5)};
  EvalContext ctx;
  ctx.evicted_lat = resolver_.lat();
  ctx.evicted_row = &evicted;
  EXPECT_TRUE(*(*rule)->condition->EvalCondition(&ctx));
}

// ---------------------------------------------------------------------------
// RuleBreaker (quarantine circuit breaker)
// ---------------------------------------------------------------------------

RuleBreaker::Options TightBreaker() {
  RuleBreaker::Options options;
  options.consecutive_failure_threshold = 3;
  options.window_size = 8;
  options.min_window_events = 4;
  options.error_rate_threshold = 0.5;
  options.cooldown_micros = 100;
  return options;
}

TEST(RuleBreakerTest, TripsOnConsecutiveFailures) {
  RuleBreaker breaker(TightBreaker());
  int64_t now = 0;
  EXPECT_TRUE(breaker.Allow(now));
  EXPECT_FALSE(breaker.OnFailure(++now));
  EXPECT_FALSE(breaker.OnFailure(++now));
  EXPECT_TRUE(breaker.OnFailure(++now));  // third consecutive failure trips
  EXPECT_EQ(breaker.state(), RuleBreaker::State::kOpen);
  EXPECT_EQ(breaker.trips(), 1u);
  EXPECT_FALSE(breaker.Allow(++now));  // inside cooldown
  EXPECT_EQ(breaker.skipped(), 1u);
}

TEST(RuleBreakerTest, SuccessResetsConsecutiveCount) {
  RuleBreaker::Options options = TightBreaker();
  options.min_window_events = 1000;  // isolate the consecutive-failure wire
  RuleBreaker breaker(options);
  int64_t now = 0;
  for (int i = 0; i < 10; ++i) {
    EXPECT_FALSE(breaker.OnFailure(++now));
    EXPECT_FALSE(breaker.OnFailure(++now));
    breaker.OnSuccess(++now);  // never three in a row
  }
  EXPECT_EQ(breaker.state(), RuleBreaker::State::kClosed);
}

TEST(RuleBreakerTest, WindowedErrorRateTrips) {
  RuleBreaker::Options options = TightBreaker();
  options.consecutive_failure_threshold = 1000;  // only the rate wire active
  RuleBreaker breaker(options);
  int64_t now = 0;
  // Alternate success/failure: 50% error rate meets the ≥0.5 threshold once
  // min_window_events outcomes accumulate.
  bool tripped = false;
  for (int i = 0; i < 8 && !tripped; ++i) {
    breaker.OnSuccess(++now);
    tripped = breaker.OnFailure(++now);
  }
  EXPECT_TRUE(tripped);
  EXPECT_EQ(breaker.state(), RuleBreaker::State::kOpen);
}

TEST(RuleBreakerTest, HalfOpenProbeSuccessCloses) {
  RuleBreaker breaker(TightBreaker());
  int64_t now = 0;
  for (int i = 0; i < 3; ++i) breaker.OnFailure(++now);
  ASSERT_EQ(breaker.state(), RuleBreaker::State::kOpen);

  now += 200;  // past cooldown
  EXPECT_TRUE(breaker.Allow(now));  // admits exactly one probe
  EXPECT_EQ(breaker.state(), RuleBreaker::State::kHalfOpen);
  EXPECT_FALSE(breaker.Allow(now));  // concurrent probe rejected
  breaker.OnSuccess(++now);
  EXPECT_EQ(breaker.state(), RuleBreaker::State::kClosed);
  EXPECT_TRUE(breaker.Allow(++now));
}

TEST(RuleBreakerTest, HalfOpenProbeFailureReopens) {
  RuleBreaker breaker(TightBreaker());
  int64_t now = 0;
  for (int i = 0; i < 3; ++i) breaker.OnFailure(++now);
  now += 200;
  ASSERT_TRUE(breaker.Allow(now));
  EXPECT_TRUE(breaker.OnFailure(++now));  // probe failure re-trips
  EXPECT_EQ(breaker.state(), RuleBreaker::State::kOpen);
  EXPECT_EQ(breaker.trips(), 2u);
  EXPECT_FALSE(breaker.Allow(++now));  // cooldown restarts
}

TEST(RuleBreakerTest, ReinstateForceCloses) {
  RuleBreaker breaker(TightBreaker());
  int64_t now = 0;
  for (int i = 0; i < 3; ++i) breaker.OnFailure(++now);
  ASSERT_EQ(breaker.state(), RuleBreaker::State::kOpen);
  breaker.Reinstate();
  EXPECT_EQ(breaker.state(), RuleBreaker::State::kClosed);
  EXPECT_EQ(breaker.consecutive_failures(), 0);
  // The cleared window means two fresh failures do not trip again.
  EXPECT_FALSE(breaker.OnFailure(++now));
  EXPECT_FALSE(breaker.OnFailure(++now));
  EXPECT_EQ(breaker.state(), RuleBreaker::State::kClosed);
}

/// Reference model: the breaker's accounting applied eagerly, one outcome
/// at a time under one lock — what RuleBreaker computed before closed-state
/// successes became a lock-free tally folded on the locked paths.
class EagerBreakerModel {
 public:
  using State = RuleBreaker::State;

  explicit EagerBreakerModel(RuleBreaker::Options options)
      : options_(options) {}

  void Configure(RuleBreaker::Options options) { options_ = options; }

  bool Allow(int64_t now) {
    switch (state) {
      case State::kClosed:
        return true;
      case State::kOpen:
        if (now - tripped_at_ < options_.cooldown_micros) {
          ++skipped;
          return false;
        }
        state = State::kHalfOpen;
        probe_in_flight_ = true;
        return true;
      case State::kHalfOpen:
        if (probe_in_flight_) {
          ++skipped;
          return false;
        }
        probe_in_flight_ = true;
        return true;
    }
    return true;
  }

  void OnSuccess() {
    if (state == State::kClosed) {
      consecutive_failures = 0;
      if (++window_events_ >= options_.window_size) {
        window_events_ = 0;
        window_errors_ = 0;
      }
    } else if (state == State::kHalfOpen) {
      state = State::kClosed;
      probe_in_flight_ = false;
      consecutive_failures = 0;
      window_events_ = 0;
      window_errors_ = 0;
    }
  }

  bool OnFailure(int64_t now) {
    if (state == State::kHalfOpen) {
      state = State::kOpen;
      probe_in_flight_ = false;
      tripped_at_ = now;
      ++trips;
      return true;
    }
    if (state == State::kOpen) return false;
    ++consecutive_failures;
    ++window_events_;
    ++window_errors_;
    const bool trip =
        consecutive_failures >= options_.consecutive_failure_threshold ||
        (window_events_ >= options_.min_window_events &&
         static_cast<double>(window_errors_) >=
             options_.error_rate_threshold *
                 static_cast<double>(window_events_));
    if (!trip) {
      if (window_events_ >= options_.window_size) {
        window_events_ = 0;
        window_errors_ = 0;
      }
      return false;
    }
    state = State::kOpen;
    tripped_at_ = now;
    ++trips;
    return true;
  }

  void Reinstate() {
    state = State::kClosed;
    probe_in_flight_ = false;
    consecutive_failures = 0;
    window_events_ = 0;
    window_errors_ = 0;
  }

  State state = State::kClosed;
  int64_t consecutive_failures = 0;
  uint64_t trips = 0;
  uint64_t skipped = 0;

 private:
  RuleBreaker::Options options_;
  int64_t window_events_ = 0;
  int64_t window_errors_ = 0;
  bool probe_in_flight_ = false;
  int64_t tripped_at_ = 0;
};

TEST(RuleBreakerTest, TalliedSuccessesMatchEagerModelOnRandomSequences) {
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    common::Random rng(seed);
    RuleBreaker::Options options;
    options.consecutive_failure_threshold =
        static_cast<int>(rng.UniformInt(1, 8));
    options.window_size = static_cast<int>(rng.UniformInt(1, 24));
    options.min_window_events = static_cast<int>(rng.UniformInt(1, 16));
    options.error_rate_threshold =
        0.1 * static_cast<double>(rng.UniformInt(1, 9));
    options.cooldown_micros = rng.UniformInt(0, 200);
    RuleBreaker breaker(options);
    EagerBreakerModel model(options);

    int64_t now = 0;
    // Phases with different error rates; success runs long enough to wrap
    // the window several times between folds.
    double error_rate = 0.2;
    for (int step = 0; step < 4000; ++step) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " step " +
                   std::to_string(step));
      now += rng.UniformInt(0, 40);
      if (rng.OneIn(200)) error_rate = rng.NextDouble();
      if (rng.OneIn(500)) {
        breaker.Reinstate();
        model.Reinstate();
      } else if (rng.OneIn(700)) {
        options.window_size = static_cast<int>(rng.UniformInt(1, 24));
        breaker.Configure(options);
        model.Configure(options);
      } else {
        const bool allowed = model.Allow(now);
        ASSERT_EQ(breaker.Allow(now), allowed);
        if (allowed) {
          if (rng.NextDouble() < error_rate) {
            ASSERT_EQ(breaker.OnFailure(now), model.OnFailure(now));
          } else {
            const int64_t run = rng.OneIn(10) ? rng.UniformInt(1, 100) : 1;
            for (int64_t i = 0; i < run; ++i) {
              breaker.OnSuccess(now);
              model.OnSuccess();
            }
          }
        }
      }
      ASSERT_EQ(breaker.state(), model.state);
      ASSERT_EQ(breaker.consecutive_failures(), model.consecutive_failures);
      ASSERT_EQ(breaker.trips(), model.trips);
      ASSERT_EQ(breaker.skipped(), model.skipped);
    }
  }
}

TEST(ActionRateLimiterTest, CapsAdmissionsPerTrailingWindow) {
  ActionRateLimiter limiter;
  limiter.Configure({.max_actions = 3, .window_micros = 1'000});
  EXPECT_TRUE(limiter.Admit(0));
  EXPECT_TRUE(limiter.Admit(10));
  EXPECT_TRUE(limiter.Admit(20));
  EXPECT_FALSE(limiter.Admit(30));  // fourth inside the window
  EXPECT_FALSE(limiter.Admit(999));
  EXPECT_EQ(limiter.suppressed(), 2u);
  // The window is exact: once the oldest admission (t=0) falls out, a slot
  // frees up, but only one until t=10 ages out too.
  EXPECT_TRUE(limiter.Admit(1'001));
  EXPECT_FALSE(limiter.Admit(1'002));
  EXPECT_EQ(limiter.suppressed(), 3u);
}

// The trailing window is half-open (now − window, now]: an admission that
// happened at exactly now − window has aged out and frees its slot.
TEST(ActionRateLimiterTest, AdmissionAtExactlyWindowEdgeIsExcluded) {
  ActionRateLimiter limiter;
  limiter.Configure({.max_actions = 1, .window_micros = 1'000});
  EXPECT_TRUE(limiter.Admit(0));
  EXPECT_FALSE(limiter.Admit(999));   // t=0 still inside (-1, 999]
  EXPECT_TRUE(limiter.Admit(1'000));  // t=0 is exactly now − window: aged out
  EXPECT_FALSE(limiter.Admit(1'999));
  EXPECT_TRUE(limiter.Admit(2'000));
  EXPECT_EQ(limiter.suppressed(), 2u);
}

TEST(ActionRateLimiterTest, ZeroMaxActionsDisablesLimiting) {
  ActionRateLimiter limiter;  // default options: max_actions = 0
  for (int64_t t = 0; t < 100; ++t) EXPECT_TRUE(limiter.Admit(t));
  EXPECT_EQ(limiter.suppressed(), 0u);
}

TEST(ActionRateLimiterTest, ReconfigureClearsAdmissionHistory) {
  ActionRateLimiter limiter;
  limiter.Configure({.max_actions = 1, .window_micros = 1'000'000});
  EXPECT_TRUE(limiter.Admit(0));
  EXPECT_FALSE(limiter.Admit(1));
  limiter.Configure({.max_actions = 2, .window_micros = 1'000'000});
  // History cleared: the window shape changed, so start permissive.
  EXPECT_TRUE(limiter.Admit(2));
  EXPECT_TRUE(limiter.Admit(3));
  EXPECT_FALSE(limiter.Admit(4));
}

}  // namespace
}  // namespace sqlcm::cm
