// Deferred-evaluation pipeline tests (docs/PERFORMANCE.md §Async
// pipeline), built to run under TSan: the Vyukov MPMC event queue's FIFO /
// capacity / shutdown contract and multi-producer multi-consumer delivery,
// the batched LAT insert path's latch-count guarantee, and the engine-level
// invariants — deferred evaluation reaches the same LAT state as sync,
// Cancel rules stay synchronous, and classification is visible in
// sqlcm_rule_stats.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "engine/session.h"
#include "sqlcm/event_queue.h"
#include "sqlcm/lat.h"
#include "sqlcm/monitor_engine.h"

namespace sqlcm::cm {
namespace {

using common::Value;
using exec::ParamMap;

DeferredEvent Event(uint64_t seq) {
  DeferredEvent ev;
  ev.kind = EventKind::kQueryCommit;
  ev.seq = seq;
  ev.query = std::make_shared<QueryRecord>();
  ev.query->id = seq;
  return ev;
}

TEST(EventQueueTest, FifoSingleThread) {
  EventQueue queue(8);
  EXPECT_EQ(queue.capacity(), 8u);
  for (uint64_t i = 0; i < 5; ++i) ASSERT_TRUE(queue.TryPush(Event(i)));
  EXPECT_EQ(queue.ApproxDepth(), 5u);
  DeferredEvent out[8];
  ASSERT_EQ(queue.PopBatch(out, 8), 5u);
  for (uint64_t i = 0; i < 5; ++i) {
    EXPECT_EQ(out[i].seq, i);
    ASSERT_NE(out[i].query, nullptr);
    EXPECT_EQ(out[i].query->id, i);
  }
  EXPECT_EQ(queue.ApproxDepth(), 0u);
}

TEST(EventQueueTest, TryPushFailsOnlyWhenFull) {
  EventQueue queue(4);
  for (uint64_t i = 0; i < 4; ++i) ASSERT_TRUE(queue.TryPush(Event(i)));
  EXPECT_FALSE(queue.TryPush(Event(99)));
  DeferredEvent out[1];
  ASSERT_EQ(queue.PopBatch(out, 1), 1u);
  EXPECT_EQ(out[0].seq, 0u);
  EXPECT_TRUE(queue.TryPush(Event(4)));  // the freed slot is reusable
  EXPECT_FALSE(queue.TryPush(Event(99)));
}

TEST(EventQueueTest, PopBatchHonoursMax) {
  EventQueue queue(16);
  for (uint64_t i = 0; i < 10; ++i) ASSERT_TRUE(queue.TryPush(Event(i)));
  DeferredEvent out[4];
  ASSERT_EQ(queue.PopBatch(out, 4), 4u);
  EXPECT_EQ(out[3].seq, 3u);
  ASSERT_EQ(queue.PopBatch(out, 4), 4u);
  EXPECT_EQ(out[3].seq, 7u);
  ASSERT_EQ(queue.PopBatch(out, 4), 2u);
  EXPECT_EQ(queue.PopBatch(out, 4), 0u);
}

TEST(EventQueueTest, ShutdownWakesWaitersAndKeepsResidueDrainable) {
  EventQueue queue(4);
  ASSERT_TRUE(queue.TryPush(Event(1)));
  std::thread waiter([&] {
    // Woken by Shutdown, not the timeout.
    queue.WaitNonEmpty(60'000'000);
  });
  queue.Shutdown();
  waiter.join();
  EXPECT_TRUE(queue.shutdown());
  // Residue still drains, and pushes still land while space remains.
  EXPECT_TRUE(queue.TryPush(Event(2)));
  DeferredEvent out[4];
  EXPECT_EQ(queue.PopBatch(out, 4), 2u);
  // PushBlocking on a full queue cannot wait forever after shutdown.
  for (uint64_t i = 0; i < 4; ++i) ASSERT_TRUE(queue.TryPush(Event(i)));
  EXPECT_FALSE(queue.PushBlocking(Event(99)));
}

TEST(EventQueueTest, MpmcDeliversEveryEventExactlyOnce) {
  constexpr int kProducers = 4;
  constexpr int kConsumers = 3;
  constexpr uint64_t kPerProducer = 5000;
  EventQueue queue(256);
  std::atomic<bool> done{false};
  std::vector<std::vector<uint64_t>> received(kConsumers);
  std::vector<std::thread> consumers;
  for (int c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&, c] {
      DeferredEvent batch[32];
      for (;;) {
        const size_t n = queue.PopBatch(batch, 32);
        for (size_t i = 0; i < n; ++i) received[c].push_back(batch[i].seq);
        if (n == 0) {
          if (done.load(std::memory_order_acquire) &&
              queue.ApproxDepth() == 0) {
            return;
          }
          queue.WaitNonEmpty(1000);
        }
      }
    });
  }
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (uint64_t i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(queue.PushBlocking(
            Event(static_cast<uint64_t>(p) * kPerProducer + i)));
      }
    });
  }
  for (auto& t : producers) t.join();
  done.store(true, std::memory_order_release);
  queue.Shutdown();  // wake consumers parked in WaitNonEmpty
  for (auto& t : consumers) t.join();

  std::set<uint64_t> seen;
  size_t total = 0;
  for (const auto& per_consumer : received) {
    total += per_consumer.size();
    seen.insert(per_consumer.begin(), per_consumer.end());
  }
  EXPECT_EQ(total, kProducers * kPerProducer);       // nothing duplicated
  EXPECT_EQ(seen.size(), kProducers * kPerProducer); // nothing lost
}

TEST(LatInsertBatchTest, MatchesPerItemInsertAndBoundsLatches) {
  struct Case {
    std::string name;
    bool group_by_id = false;  // one group per item (G = N)
    size_t items = 64;
    size_t groups = 6;  // signature groups when not ID-keyed
    size_t max_rows = 0;
  };
  // The bounded case seeds 10 heavy groups (3 inserts each) that every
  // batch revisits, and adds light groups that sort last under N DESC, Sig
  // DESC and each appear twice in the batch. Per-item inserts evict a light
  // group at once and evict it again after it is re-created; the batch
  // folds both items and evicts it at the end. Either way the light groups
  // are gone and the heavy rows hold the same state.
  const std::vector<Case> cases = {
      {"six_groups"},
      {"group_per_item", /*group_by_id=*/true},
      {"one_group", false, 64, 1},
      {"bounded_10", false, 64, 0, /*max_rows=*/10},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    auto make_spec = [&c] {
      LatSpec spec;
      spec.name = "Batch_LAT";
      spec.group_by = {{c.group_by_id ? "ID" : "Logical_Signature", "Sig"}};
      spec.aggregates = {{LatAggFunc::kCount, "", "N", false},
                         {LatAggFunc::kSum, "Duration", "SumDur", false},
                         {LatAggFunc::kMin, "Duration", "MinDur", false},
                         {LatAggFunc::kMax, "Duration", "MaxDur", false},
                         {LatAggFunc::kFirst, "Duration", "FirstDur", false},
                         {LatAggFunc::kLast, "Duration", "LastDur", false}};
      spec.shard_count = 4;
      if (c.max_rows > 0) {
        spec.ordering = {{"N", true}, {"Sig", true}};
        spec.max_rows = c.max_rows;
      }
      return spec;
    };
    auto batched = std::move(*Lat::Create(make_spec()));
    auto reference = std::move(*Lat::Create(make_spec()));

    std::vector<QueryRecord> seeds;
    std::vector<QueryRecord> records(c.items);
    std::set<std::string> batch_groups;
    for (size_t i = 0; i < c.items; ++i) {
      QueryRecord& rec = records[i];
      rec.id = 1000 + i;
      if (c.max_rows > 0) {
        // Items 2k and 2k+1 with k % 4 == 3 share one light group.
        rec.logical_signature =
            (i / 2) % 4 == 3 ? "a" + std::to_string(i / 2)
                             : "h" + std::to_string(i % 10);
      } else {
        rec.logical_signature = "sig" + std::to_string(i % c.groups);
      }
      rec.duration_secs = static_cast<double>(i) * 0.25;
      batch_groups.insert(c.group_by_id ? std::to_string(rec.id)
                                        : rec.logical_signature);
    }
    if (c.max_rows > 0) {
      for (int round = 0; round < 3; ++round) {
        for (size_t h = 0; h < c.max_rows; ++h) {
          QueryRecord seed;
          seed.logical_signature = "h" + std::to_string(h);
          seed.duration_secs = 100.0 + static_cast<double>(round);
          seeds.push_back(seed);
        }
      }
    }
    for (const QueryRecord& seed : seeds) {
      batched->Insert(&seed, 500);
      reference->Insert(&seed, 500);
    }

    std::vector<LatBatchItem> items(c.items);
    for (size_t i = 0; i < c.items; ++i) {
      items[i] = {&records[i], static_cast<int64_t>(1000 + i)};
      reference->Insert(&records[i], items[i].now_micros);
    }

    const uint64_t latches_before =
        batched->stats().latch_acquisitions.value();
    batched->InsertBatch(items.data(), items.size());
    const uint64_t latch_delta =
        batched->stats().latch_acquisitions.value() - latches_before;

    // One map latch per touched shard (S <= min(shards, G)) plus one row
    // latch per distinct group (G) — never the 2N the per-item path takes.
    // A bounded LAT also takes a group's heap latch when its ordering moved.
    const size_t g = batch_groups.size();
    const size_t s = std::min(batched->shard_count(), g);
    EXPECT_LE(latch_delta, s + (c.max_rows > 0 ? 2 * g : g));
    EXPECT_GE(latch_delta, 1u + g);
    EXPECT_LT(latch_delta, 2 * c.items);

    // End state identical to per-item inserts, including the order-sensitive
    // FIRST/LAST aggregates (arrival order is preserved within the batch).
    EXPECT_EQ(batched->size(), c.max_rows > 0 ? c.max_rows : g);
    EXPECT_EQ(batched->stats().inserts.value(),
              reference->stats().inserts.value());
    const auto want = reference->Snapshot(0);
    const auto got = batched->Snapshot(0);
    ASSERT_EQ(got.size(), want.size());
    for (size_t r = 0; r < want.size(); ++r) {
      ASSERT_EQ(got[r].size(), want[r].size());
      for (size_t col = 0; col < want[r].size(); ++col) {
        EXPECT_EQ(got[r][col].ToString(), want[r][col].ToString())
            << "row " << r << " col " << col;
      }
    }
  }
}

class EventPipelineTest : public ::testing::Test {
 protected:
  void StartEngine(MonitorEngine::Options options) {
    session_.reset();
    monitor_.reset();
    db_ = std::make_unique<engine::Database>();
    monitor_ = std::make_unique<MonitorEngine>(db_.get(), std::move(options));
    session_ = db_->CreateSession();
    Exec("CREATE TABLE items (id INT, val FLOAT, PRIMARY KEY(id))");
    for (int i = 0; i < 20; ++i) {
      Exec("INSERT INTO items VALUES (" + std::to_string(i) + ", 1.0)");
    }
  }

  void Exec(const std::string& sql, const ParamMap* params = nullptr) {
    auto result = session_->Execute(sql, params);
    ASSERT_TRUE(result.ok()) << sql << " -> " << result.status();
  }

  void DefineDurationLat() {
    LatSpec spec;
    spec.name = "Duration_LAT";
    spec.group_by = {{"Logical_Signature", "Sig"}};
    spec.aggregates = {{LatAggFunc::kAvg, "Duration", "Avg_Duration", false},
                       {LatAggFunc::kCount, "", "N", false}};
    ASSERT_TRUE(monitor_->DefineLat(std::move(spec)).ok());
  }

  void AddFeedRule() {
    RuleSpec feed;
    feed.name = "feed";
    feed.event = "Query.Commit";
    feed.action = "Query.Insert(Duration_LAT)";
    ASSERT_TRUE(monitor_->AddRule(feed).ok());
  }

  void RunWorkload(engine::Session* session, int queries) {
    ParamMap params;
    for (int i = 0; i < queries; ++i) {
      params = {{"k", Value::Int(i % 20)}};
      auto result =
          session->Execute("SELECT val FROM items WHERE id = @k", &params);
      ASSERT_TRUE(result.ok()) << result.status();
    }
  }

  std::unique_ptr<engine::Database> db_;
  std::unique_ptr<MonitorEngine> monitor_;
  std::unique_ptr<engine::Session> session_;
};

TEST_F(EventPipelineTest, DeferredDrainMatchesSyncLatState) {
  // Same workload through a sync engine and a deferred one (1 worker =
  // FIFO drain): identical LAT end-state after the drain barrier.
  std::vector<std::vector<common::Row>> snapshots;
  for (const bool async : {false, true}) {
    MonitorEngine::Options options;
    options.async_rule_eval = async;
    options.monitor_threads = 1;
    StartEngine(options);
    DefineDurationLat();
    AddFeedRule();
    RunWorkload(session_.get(), 40);
    monitor_->DrainEventQueue();
    Lat* lat = monitor_->FindLat("Duration_LAT");
    ASSERT_NE(lat, nullptr);
    snapshots.push_back(lat->Snapshot(0));
    if (async) {
      EXPECT_GT(monitor_->metrics().queue_enqueued.value(), 0u);
      EXPECT_EQ(monitor_->event_queue_depth(), 0u);
    }
  }
  // Wall-clock durations differ between two live runs, so compare the
  // deterministic shape: same groups, same event counts, both averages
  // computed from real observations. (Bit-exact sync ≡ batched-insert
  // equivalence is proven by cm_lat_differential_test's oracle.)
  ASSERT_EQ(snapshots[0].size(), snapshots[1].size());
  for (size_t r = 0; r < snapshots[0].size(); ++r) {
    ASSERT_EQ(snapshots[0][r].size(), snapshots[1][r].size());
    EXPECT_EQ(snapshots[0][r][0].ToString(), snapshots[1][r][0].ToString());
    EXPECT_GT(snapshots[0][r][1].AsDouble(), 0.0);
    EXPECT_GT(snapshots[1][r][1].AsDouble(), 0.0);
    EXPECT_EQ(snapshots[0][r][2].int_value(),
              snapshots[1][r][2].int_value())
        << "row " << r;
  }
}

TEST_F(EventPipelineTest, EvictionCascadeInsideDeferredDrainMatchesSync) {
  // Deferred inserts feed a 3-row LAT keyed by query ID, so the drain's
  // InsertBatch evicts, and the LAT's inline Evict rule inserts every timer
  // into a second LAT. That dispatch runs nested inside InsertBatch's evict
  // callback on the worker thread, while the drain is still between LATs
  // of its batch. Both LATs and every rule's stats must end as in the sync
  // engine (ID-keyed rows: batched and per-item eviction pick the same
  // victims). Twenty filler rules slow the worker so batches hold several
  // events; the async run repeats rounds until one did, and the sync run
  // replays the same number of rounds. The fillers' FIRST/LAST(ID) pin the
  // drain's arrival order within each LAT.
  constexpr int kPads = 20;
  constexpr int kQueriesPerRound = 40;
  struct EndState {
    std::vector<common::Row> top, spill, pads;
    std::vector<std::string> stats;
  };
  std::vector<EndState> states;
  int rounds = 0;
  for (const bool async : {true, false}) {
    MonitorEngine::Options options;
    options.async_rule_eval = async;
    options.monitor_threads = 1;
    StartEngine(options);
    ASSERT_TRUE(monitor_->CreateTimer("t1").ok());
    ASSERT_TRUE(monitor_->CreateTimer("t2").ok());
    LatSpec top;
    top.name = "TopQ";
    top.group_by = {{"ID", ""}};
    top.aggregates = {{LatAggFunc::kCount, "", "N", false},
                      {LatAggFunc::kFirst, "Query_Text", "Text", false}};
    top.ordering = {{"ID", true}};
    top.max_rows = 3;
    ASSERT_TRUE(monitor_->DefineLat(std::move(top)).ok());
    LatSpec spill;
    spill.name = "Spill";
    spill.object_class = MonitoredClass::kTimer;
    spill.group_by = {{"Name", ""}};
    spill.aggregates = {{LatAggFunc::kCount, "", "N", false}};
    ASSERT_TRUE(monitor_->DefineLat(std::move(spill)).ok());
    RuleSpec feed;
    feed.name = "feed";
    feed.event = "Query.Commit";
    feed.action = "Query.Insert(TopQ)";
    ASSERT_TRUE(monitor_->AddRule(feed).ok());
    for (int p = 0; p < kPads; ++p) {
      LatSpec pad;
      pad.name = "Pad_" + std::to_string(p);
      pad.group_by = {{"Logical_Signature", "Sig"}};
      pad.aggregates = {{LatAggFunc::kCount, "", "N", false},
                        {LatAggFunc::kFirst, "ID", "FirstId", false},
                        {LatAggFunc::kLast, "ID", "LastId", false}};
      ASSERT_TRUE(monitor_->DefineLat(std::move(pad)).ok());
      RuleSpec pad_rule;
      pad_rule.name = "pad_" + std::to_string(p);
      pad_rule.event = "Query.Commit";
      pad_rule.action = "Query.Insert(Pad_" + std::to_string(p) + ")";
      ASSERT_TRUE(monitor_->AddRule(pad_rule).ok());
    }
    RuleSpec on_evict;
    on_evict.name = "on_evict";
    on_evict.event = "TopQ.Evict";
    on_evict.action = "Timer.Insert(Spill)";
    ASSERT_TRUE(monitor_->AddRule(on_evict).ok());

    if (async) {
      // Until some batch carried more than one event (bounded).
      const auto& m = monitor_->metrics();
      while (rounds < 50 &&
             m.queue_batch_events.value() == m.queue_batches.value()) {
        RunWorkload(session_.get(), kQueriesPerRound);
        monitor_->DrainEventQueue();
        ++rounds;
      }
      EXPECT_GT(m.queue_batch_events.value(), m.queue_batches.value());
    } else {
      for (int r = 0; r < rounds; ++r) {
        RunWorkload(session_.get(), kQueriesPerRound);
      }
    }
    EndState state;
    state.top = monitor_->FindLat("TopQ")->Snapshot(0);
    state.spill = monitor_->FindLat("Spill")->Snapshot(0);
    for (int p = 0; p < kPads; ++p) {
      for (auto& row :
           monitor_->FindLat("Pad_" + std::to_string(p))->Snapshot(0)) {
        state.pads.push_back(std::move(row));
      }
    }
    for (const auto& rule : monitor_->SnapshotRules()) {
      state.stats.push_back(
          rule->name + " evaluations=" +
          std::to_string(rule->stats.evaluations.value()) +
          " fires=" + std::to_string(rule->stats.fires.value()));
    }
    EXPECT_EQ(monitor_->total_errors(), 0u) << monitor_->last_error();
    states.push_back(std::move(state));
  }
  const auto as_text = [](const std::vector<common::Row>& rows) {
    std::vector<std::string> out;
    for (const auto& row : rows) {
      std::string line;
      for (const auto& v : row) line += v.ToString() + "|";
      out.push_back(line);
    }
    return out;
  };
  ASSERT_EQ(states[1].top.size(), 3u);
  EXPECT_EQ(as_text(states[0].top), as_text(states[1].top));
  ASSERT_EQ(states[1].spill.size(), 2u);
  // Every query past the third evicted one row, and each eviction
  // inserted both timers.
  EXPECT_EQ(states[1].spill[0][1].int_value(), rounds * kQueriesPerRound - 3);
  EXPECT_EQ(as_text(states[0].spill), as_text(states[1].spill));
  ASSERT_EQ(states[1].pads.size(), static_cast<size_t>(kPads));
  EXPECT_EQ(as_text(states[0].pads), as_text(states[1].pads));
  EXPECT_EQ(states[0].stats, states[1].stats);
}

TEST_F(EventPipelineTest, CancelRulesStaySynchronous) {
  MonitorEngine::Options options;
  options.async_rule_eval = true;
  StartEngine(options);
  // A Cancel action must see a still-live query, so its rule is classified
  // inline even with the async pipeline on — and keeps blocking semantics:
  // the very query that triggered it observes the cancellation.
  RuleSpec cancel;
  cancel.name = "cancel_all";
  cancel.event = "Query.Start";
  cancel.action = "Query.Cancel()";
  ASSERT_TRUE(monitor_->AddRule(cancel).ok());
  auto result = session_->Execute("SELECT val FROM items WHERE id = 1");
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(monitor_->metrics().queue_enqueued.value(), 0u);
}

TEST_F(EventPipelineTest, ClassificationVisibleInRuleStats) {
  MonitorEngine::Options options;
  options.async_rule_eval = true;
  StartEngine(options);
  DefineDurationLat();
  AddFeedRule();  // Query.Commit + Insert: deferrable
  RuleSpec cancel;
  cancel.name = "cancel";
  cancel.event = "Query.Commit";
  cancel.condition = "Query.Duration > 100";
  cancel.action = "Query.Cancel()";
  ASSERT_TRUE(monitor_->AddRule(cancel).ok());
  RuleSpec start;
  start.name = "start";
  start.event = "Query.Start";
  start.action = "SendMail('hi', 'dba@x')";
  ASSERT_TRUE(monitor_->AddRule(start).ok());
  RuleSpec pinned;
  pinned.name = "pinned";
  pinned.event = "Query.Commit";
  pinned.action = "SendMail('hi', 'dba@x')";
  pinned.eval_mode = "inline";
  ASSERT_TRUE(monitor_->AddRule(pinned).ok());

  auto rows = session_->Execute(
      "SELECT name, eval_mode, inline_reason FROM sqlcm_rule_stats "
      "ORDER BY name");
  ASSERT_TRUE(rows.ok()) << rows.status();
  ASSERT_EQ(rows->rows.size(), 4u);  // alphabetical: cancel feed pinned start
  EXPECT_EQ(rows->rows[0][0].string_value(), "cancel");
  EXPECT_EQ(rows->rows[0][1].string_value(), "inline");
  EXPECT_EQ(rows->rows[0][2].string_value(), "cancel-action");
  EXPECT_EQ(rows->rows[1][0].string_value(), "feed");
  EXPECT_EQ(rows->rows[1][1].string_value(), "deferred");
  EXPECT_EQ(rows->rows[2][0].string_value(), "pinned");
  EXPECT_EQ(rows->rows[2][1].string_value(), "inline");
  EXPECT_EQ(rows->rows[2][2].string_value(), "override");
  EXPECT_EQ(rows->rows[3][0].string_value(), "start");
  EXPECT_EQ(rows->rows[3][1].string_value(), "inline");
  EXPECT_EQ(rows->rows[3][2].string_value(), "event-kind");

  // "deferred" on an ineligible rule fails loudly instead of silently
  // degrading to inline semantics.
  RuleSpec bad;
  bad.name = "bad";
  bad.event = "Query.Start";
  bad.action = "SendMail('hi', 'dba@x')";
  bad.eval_mode = "deferred";
  EXPECT_FALSE(monitor_->AddRule(bad).ok());
}

TEST_F(EventPipelineTest, MultiProducerDrainIsRaceFreeAndLossless) {
  MonitorEngine::Options options;
  options.async_rule_eval = true;
  options.monitor_threads = 2;
  options.event_queue_capacity = 64;  // force backpressure under load
  options.drain_batch_size = 16;
  StartEngine(options);
  DefineDurationLat();
  AddFeedRule();

  constexpr int kThreads = 4;
  constexpr int kQueriesPerThread = 50;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      auto session = db_->CreateSession();
      RunWorkload(session.get(), kQueriesPerThread);
    });
  }
  for (auto& t : threads) t.join();
  monitor_->DrainEventQueue();

  Lat* lat = monitor_->FindLat("Duration_LAT");
  ASSERT_NE(lat, nullptr);
  int64_t total = 0;
  for (const auto& row : lat->Snapshot(0)) total += row[2].int_value();
  // A full queue blocks: every commit event was enqueued and drained.
  EXPECT_EQ(total, kThreads * kQueriesPerThread);
  EXPECT_EQ(monitor_->metrics().queue_dropped.value(), 0u);
  EXPECT_EQ(monitor_->metrics().queue_shed.value(), 0u);
  EXPECT_GT(monitor_->metrics().queue_batches.value(), 0u);
}

}  // namespace
}  // namespace sqlcm::cm
