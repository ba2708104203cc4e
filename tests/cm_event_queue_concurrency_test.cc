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
#include <chrono>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "engine/session.h"
#include "sqlcm/actions_io.h"
#include "sqlcm/event_queue.h"
#include "sqlcm/lat.h"
#include "sqlcm/monitor_engine.h"
#include "storage/catalog.h"
#include "storage/table.h"

namespace sqlcm::cm {
namespace {

using common::Value;
using exec::ParamMap;

/// The steady clock span timestamps are read from, in nanoseconds.
int64_t SteadyNanosNow() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

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
  // fold evicts, and the LAT's inline Evict rule inserts every timer into a
  // second LAT. Those Lat.Evict events queue while the drain folds a run
  // and dispatch on the worker thread once the run's folds are done (paper
  // §5). Both LATs and every rule's stats must end as in the sync
  // engine (ID-keyed rows: batched and per-item eviction pick the same
  // victims). Twenty filler rules slow the worker so batches hold several
  // events; the async run repeats rounds until one did, and the sync run
  // replays the same number of rounds. The fillers' FIRST/LAST(ID) pin the
  // drain's arrival order within each LAT.
  constexpr int kPads = 20;
  constexpr int kQueriesPerRound = 40;
  const std::string shape_a = "SELECT id FROM items WHERE id = @k";
  const std::string shape_b = "SELECT val FROM items WHERE id = @k";
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

TEST_F(EventPipelineTest, SharedGroupMappingsMatchSync) {
  // The drain maps each (GROUP BY, selection) of a run once and folds it
  // into every LAT sharing both. Here the bounded, evicting ID-keyed LAT
  // comes first in each run, and its inline Evict rule inserts both timers
  // into Spill once the run's folds are done; later ID-keyed LATs fold the
  // same mapping. Signature-keyed LATs share a GROUP BY but see different
  // selections (selective conditions, one of them identical to another's),
  // and one
  // LAT groups the same records by (Sig, Type). The statement shapes
  // alternate, so the two shape-selective LATs get runs of equal size but
  // different records. Every LAT and every rule's
  // stats must end as in the sync engine; rounds repeat until some batch
  // held more than one event, and the sync run replays as many.
  constexpr int kQueriesPerRound = 40;
  const std::string shape_a = "SELECT id FROM items WHERE id = @k";
  const std::string shape_b = "SELECT val FROM items WHERE id = @k";
  struct Feed {
    std::string lat;
    std::vector<std::pair<std::string, std::string>> group_by;
    std::string condition;
    size_t max_rows = 0;
  };
  const std::vector<Feed> feeds = {
      {"TopId", {{"ID", ""}}, "", 3},
      {"IdA", {{"ID", ""}}, ""},
      {"IdB", {{"ID", ""}}, ""},
      {"IdLate", {{"ID", ""}}, "Query.ID >= 50"},
      {"SigA", {{"Logical_Signature", "Sig"}}, ""},
      {"SigB", {{"Logical_Signature", "Sig"}}, ""},
      {"SigLate", {{"Logical_Signature", "Sig"}}, "Query.ID > 60"},
      {"SigLate2", {{"Logical_Signature", "Sig"}}, "Query.ID > 60"},
      {"SigEarly", {{"Logical_Signature", "Sig"}}, "Query.ID <= 60"},
      {"SigShapeA",
       {{"Logical_Signature", "Sig"}},
       "Query.Query_Text = '" + shape_a + "'"},
      {"SigShapeB",
       {{"Logical_Signature", "Sig"}},
       "Query.Query_Text = '" + shape_b + "'"},
      {"SigType",
       {{"Logical_Signature", "Sig"}, {"Query_Type", "Type"}},
       ""},
  };
  std::vector<std::vector<std::string>> states;
  int rounds = 0;
  for (const bool async : {true, false}) {
    MonitorEngine::Options options;
    options.async_rule_eval = async;
    options.monitor_threads = 1;
    StartEngine(options);
    ASSERT_TRUE(monitor_->CreateTimer("t1").ok());
    ASSERT_TRUE(monitor_->CreateTimer("t2").ok());
    LatSpec spill;
    spill.name = "Spill";
    spill.object_class = MonitoredClass::kTimer;
    spill.group_by = {{"Name", ""}};
    spill.aggregates = {{LatAggFunc::kCount, "", "N", false}};
    ASSERT_TRUE(monitor_->DefineLat(std::move(spill)).ok());
    for (const Feed& feed : feeds) {
      LatSpec spec;
      spec.name = feed.lat;
      for (const auto& [attr, alias] : feed.group_by) {
        spec.group_by.push_back({attr, alias});
      }
      spec.aggregates = {{LatAggFunc::kCount, "", "N", false},
                         {LatAggFunc::kFirst, "ID", "FirstId", false},
                         {LatAggFunc::kLast, "ID", "LastId", false},
                         {LatAggFunc::kLast, "Query_Text", "Text", false}};
      if (feed.max_rows > 0) {
        spec.ordering = {{"ID", true}};
        spec.max_rows = feed.max_rows;
      }
      ASSERT_TRUE(monitor_->DefineLat(std::move(spec)).ok());
      RuleSpec rule;
      rule.name = "feed_" + feed.lat;
      rule.event = "Query.Commit";
      rule.condition = feed.condition;
      rule.action = "Query.Insert(" + feed.lat + ")";
      ASSERT_TRUE(monitor_->AddRule(rule).ok());
    }
    RuleSpec on_evict;
    on_evict.name = "on_evict";
    on_evict.event = "TopId.Evict";
    on_evict.action = "Timer.Insert(Spill)";
    ASSERT_TRUE(monitor_->AddRule(on_evict).ok());

    // Two statement shapes, so the signature-keyed LATs hold two groups.
    const auto run_round = [&] {
      ParamMap params;
      for (int i = 0; i < kQueriesPerRound; ++i) {
        params = {{"k", Value::Int(i % 20)}};
        ASSERT_TRUE(
            session_->Execute(i % 2 == 0 ? shape_a : shape_b, &params).ok());
      }
    };
    if (async) {
      const auto& m = monitor_->metrics();
      while (rounds < 50 &&
             m.queue_batch_events.value() == m.queue_batches.value()) {
        run_round();
        monitor_->DrainEventQueue();
        ++rounds;
      }
      EXPECT_GT(m.queue_batch_events.value(), m.queue_batches.value());
    } else {
      for (int r = 0; r < rounds; ++r) run_round();
    }
    std::vector<std::string> state;
    std::vector<std::string> lat_names = {"Spill"};
    for (const Feed& feed : feeds) lat_names.push_back(feed.lat);
    for (const std::string& name : lat_names) {
      std::vector<std::string> rows;
      for (const auto& row : monitor_->FindLat(name)->Snapshot(0)) {
        std::string line = name + ":";
        for (const auto& v : row) line += v.ToString() + "|";
        rows.push_back(std::move(line));
      }
      std::sort(rows.begin(), rows.end());
      state.insert(state.end(), rows.begin(), rows.end());
    }
    for (const auto& rule : monitor_->SnapshotRules()) {
      state.push_back(rule->name + " evaluations=" +
                      std::to_string(rule->stats.evaluations.value()) +
                      " fires=" + std::to_string(rule->stats.fires.value()));
    }
    EXPECT_EQ(monitor_->total_errors(), 0u) << monitor_->last_error();
    EXPECT_EQ(monitor_->FindLat("TopId")->size(), 3u);
    EXPECT_EQ(monitor_->FindLat("Spill")->size(), 2u);
    EXPECT_EQ(monitor_->FindLat("SigShapeA")->size(), 1u);
    EXPECT_EQ(monitor_->FindLat("SigShapeB")->size(), 1u);
    states.push_back(std::move(state));
  }
  EXPECT_EQ(states[0], states[1]);
}

/// Holds every RunExternal call until Open(): with async_rule_eval, the
/// worker stalls inside the first drained event while the test enqueues
/// the rest, so the next batch holds them all.
class GateLauncher final : public ProcessLauncher {
 public:
  common::Status RunExternal(const std::string&) override {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this] { return open_; });
    return common::Status::OK();
  }
  void Open() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      open_ = true;
    }
    cv_.notify_all();
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool open_ = false;
};

TEST_F(EventPipelineTest, RunDrainMatchesSync) {
  // The deferred drain decides a run of same-kind events at a time:
  // conditions rule-major over the run's event bitmaps, counters in bulk
  // where no rule can fail, every other rule concluded per event,
  // event-major. This rule mix must leave every LAT, rule counter, breaker,
  // Persist table and the error log exactly as the sync engine does:
  //  - feed_sel (every third ID) and feed_all feed Feed, in that order, so
  //    a rule-major item order would move FIRST(ID);
  //  - snapshot persists Feed and Resets it at every transaction commit, so
  //    Feed's FIRST/LAST are captured per transaction (and the
  //    Transaction.Commit list drains one event at a time);
  //  - rate_limited persists at most five rows;
  //  - trip_mod and trip_div error on three events in four, trip their
  //    breakers (windowed error rate over 50 %) and report their errors
  //    event-major, interleaved; their shared access group rejects the
  //    fourth event, which an open breaker must see as a skip instead;
  //  - sparse's access group rejects nine events in ten;
  //  - pads feed LATs of one shape from equal selections (one mapping);
  //  - gate runs an external command, which holds the worker in the first
  //    event until every other event is queued: they drain as one batch.
  // One event in ten is span-sampled: it stays in its run, and its trace
  // holds a condition span per visited rule and an action span per action,
  // as in the sync engine. Every event's root span reports its share of
  // its run, so the root spans drained after the gate opened add up to no
  // more than the time the drain took.
  constexpr int kPads = 3;
  constexpr int kTxns = 4;
  constexpr int kQueriesPerTxn = 20;
  const std::string shape_a = "SELECT id FROM items WHERE id = @k";
  const std::string shape_b = "SELECT val FROM items WHERE id = @k";
  struct EndState {
    std::vector<std::string> lats, tables, rules, errors;
    uint64_t total_errors = 0;
    // (trace, span kind, rule) of every condition and action span under a
    // root event span.
    std::set<std::tuple<uint64_t, int, uint64_t>> profiled;
  };
  std::vector<EndState> states;
  uint64_t async_skipped = 0;
  GateLauncher gates[2];
  gates[1].Open();  // the sync engine runs the command in the session
  for (const bool async : {true, false}) {
    MonitorEngine::Options options;
    options.async_rule_eval = async;
    options.monitor_threads = 1;
    options.launcher = &gates[async ? 0 : 1];
    options.span_capacity = 1 << 16;
    options.span_sample_rate = 0.1;
    options.breaker.cooldown_micros = int64_t{3600} * 1000 * 1000;
    StartEngine(options);
    const auto define = [&](const std::string& name, bool first_last) {
      LatSpec spec;
      spec.name = name;
      spec.group_by = {{"Logical_Signature", "Sig"}};
      spec.aggregates = {{LatAggFunc::kCount, "", "N", false}};
      if (first_last) {
        spec.aggregates.push_back({LatAggFunc::kFirst, "ID", "FirstId", false});
        spec.aggregates.push_back({LatAggFunc::kLast, "ID", "LastId", false});
      }
      ASSERT_TRUE(monitor_->DefineLat(std::move(spec)).ok()) << name;
    };
    const auto rule = [](const std::string& name, const std::string& event,
                         const std::string& condition,
                         const std::string& action) {
      RuleSpec spec;
      spec.name = name;
      spec.event = event;
      spec.condition = condition;
      spec.action = action;
      return spec;
    };
    const auto add = [&](const RuleSpec& spec) {
      ASSERT_TRUE(monitor_->AddRule(spec).ok()) << spec.name;
    };
    std::vector<std::string> lat_names = {"Feed", "Trips", "Sparse"};
    define("Feed", true);
    define("Trips", false);
    define("Sparse", false);
    const std::string commit = "Query.Commit";
    add(rule("gate", commit, "", "RunExternal('gate')"));
    add(rule("feed_sel", commit, "Query.ID % 3 = 0", "Query.Insert(Feed)"));
    add(rule("feed_all", commit, "", "Query.Insert(Feed)"));
    RuleSpec rate_limited = rule("rate_limited", commit, "Query.ID >= 0",
                                 "Query.Persist(RateLog, ID)");
    rate_limited.rate_limit_max_actions = 5;
    add(rate_limited);
    add(rule("trip_mod", commit, "Query.ID % 4 > 0 AND Query.ID % 0 = 1",
             "Query.Insert(Trips)"));
    add(rule("trip_div", commit, "Query.ID % 4 > 0 AND Query.ID / 0 > 1",
             "Query.Insert(Trips)"));
    add(rule("sparse", commit, "Query.ID % 10 = 0 AND Query.ID >= 0",
             "Query.Insert(Sparse)"));
    for (int p = 0; p < kPads; ++p) {
      lat_names.push_back("Pad_" + std::to_string(p));
      define(lat_names.back(), true);
      add(rule("pad_" + std::to_string(p), commit, "",
               "Query.Insert(" + lat_names.back() + ")"));
    }
    add(rule("snapshot", "Transaction.Commit", "",
             "Feed.Persist(FeedLog); Reset(Feed)"));
    monitor_->span_ring()->set_enabled(true);

    ParamMap params;
    for (int t = 0; t < kTxns; ++t) {
      Exec("BEGIN TRANSACTION");
      for (int q = 0; q < kQueriesPerTxn; ++q) {
        params = {{"k", Value::Int(q % 20)}};
        ASSERT_TRUE(
            session_->Execute(q % 2 == 0 ? shape_a : shape_b, &params).ok());
      }
      Exec("COMMIT TRANSACTION");
    }
    int64_t open_nanos = 0;
    int64_t drained_nanos = 0;
    if (async) {
      open_nanos = SteadyNanosNow();
      gates[0].Open();
      monitor_->DrainEventQueue();
      drained_nanos = SteadyNanosNow();
      // The batch the gate stalled, then the rest of the events at once.
      const auto& m = monitor_->metrics();
      EXPECT_LE(m.queue_batches.value(), 2u);
      async_skipped = m.rules_skipped.value();
    }

    EndState state;
    const auto rows_of = [](const std::string& name,
                            const std::vector<common::Row>& rows,
                            size_t drop_last, std::vector<std::string>* out) {
      for (const auto& row : rows) {
        std::string line = name + ":";
        for (size_t c = 0; c + drop_last < row.size(); ++c) {
          line += row[c].ToString() + "|";
        }
        out->push_back(std::move(line));
      }
    };
    for (const std::string& name : lat_names) {
      rows_of(name, monitor_->FindLat(name)->Snapshot(0), 0, &state.lats);
    }
    std::sort(state.lats.begin(), state.lats.end());
    // Persisted rows in insertion order; FeedLog's trailing persist_ts is
    // the commit's wall-clock time, which differs between the two runs.
    for (const auto& [table, drop_last] :
         {std::pair<std::string, size_t>{"RateLog", 0}, {"FeedLog", 1}}) {
      storage::Table* t = db_->catalog()->GetTable(table);
      ASSERT_NE(t, nullptr) << table;
      std::vector<common::Row> keys, rows;
      while (t->ScanBatch(keys.empty() ? std::nullopt
                                       : std::optional(keys.back()),
                          256, &keys, &rows) > 0) {
      }
      rows_of(table, rows, drop_last, &state.tables);
    }
    for (const auto& rule : monitor_->SnapshotRules()) {
      const RuleStats& st = rule->stats;
      state.rules.push_back(
          rule->name +
          " evaluations=" + std::to_string(st.evaluations.value()) +
          " condition_false=" + std::to_string(st.condition_false.value()) +
          " fires=" + std::to_string(st.fires.value()) +
          " errors=" + std::to_string(st.errors.value()) +
          " suppressed=" + std::to_string(st.actions_suppressed.value()) +
          " trips=" + std::to_string(rule->breaker.trips()) +
          " skipped=" + std::to_string(rule->breaker.skipped()) +
          " state=" + rule->breaker.state_name());
    }
    for (const auto& error : monitor_->recent_errors()) {
      state.errors.push_back(error.message);
    }
    state.total_errors = monitor_->total_errors();
    std::map<uint64_t, uint64_t> roots;  // root span id -> trace id
    const std::vector<obs::Span> spans = monitor_->span_ring()->Snapshot();
    EXPECT_LT(spans.size(), monitor_->span_ring()->capacity());
    int64_t drained_root_nanos = 0;
    for (const obs::Span& span : spans) {
      if (span.kind == obs::SpanKind::kEvent && span.parent_id == 0 &&
          (span.detail == static_cast<uint8_t>(EventKind::kQueryCommit) ||
           span.detail ==
               static_cast<uint8_t>(EventKind::kTransactionCommit))) {
        roots[span.span_id] = span.trace_id;
        if (async && span.start_nanos >= open_nanos) {
          drained_root_nanos += span.duration_nanos;
        }
      }
    }
    for (const obs::Span& span : spans) {
      auto root = roots.find(span.parent_id);
      if ((span.kind == obs::SpanKind::kCondition ||
           span.kind == obs::SpanKind::kAction) &&
          root != roots.end()) {
        state.profiled.emplace(root->second, static_cast<int>(span.kind),
                               span.ref);
      }
    }
    if (async) {
      EXPECT_GT(drained_root_nanos, 0);
      EXPECT_LE(drained_root_nanos, drained_nanos - open_nanos);
    }
    states.push_back(std::move(state));
  }
  // The mix exercised what it pins.
  EXPECT_GT(async_skipped, 0u);
  EXPECT_FALSE(states[1].profiled.empty());
  EXPECT_NE(std::find_if(states[1].rules.begin(), states[1].rules.end(),
                         [](const std::string& r) {
                           return r.rfind("trip_mod", 0) == 0 &&
                                  r.find(" trips=1 ") != std::string::npos;
                         }),
            states[1].rules.end());
  EXPECT_EQ(states[0].lats, states[1].lats);
  EXPECT_EQ(states[0].tables, states[1].tables);
  EXPECT_EQ(states[0].rules, states[1].rules);
  // Error reports land event-major, as the sync engine writes them.
  EXPECT_EQ(states[0].errors, states[1].errors);
  EXPECT_EQ(states[0].total_errors, states[1].total_errors);
  EXPECT_EQ(states[0].profiled, states[1].profiled);
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
