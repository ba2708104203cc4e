// Tests for the causal span plane: SpanRing (stamp-CAS MPSC protocol,
// enable gating, wraparound, multi-threaded consistency) and SlowTraceTable
// (top-K retention, floor rejection, whole-trace exemplars).
#include "obs/span_ring.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

namespace sqlcm::obs {
namespace {

Span MakeSpan(uint64_t trace_id, uint64_t span_id, uint64_t parent_id,
              SpanKind kind, int64_t duration_nanos) {
  Span s;
  s.trace_id = trace_id;
  s.span_id = span_id;
  s.parent_id = parent_id;
  s.kind = kind;
  s.duration_nanos = duration_nanos;
  return s;
}

TEST(SpanRingTest, DisabledRecordsNothing) {
  SpanRing ring(8);
  EXPECT_FALSE(ring.enabled());
  ring.Record(MakeSpan(1, 1, 0, SpanKind::kEvent, 100));
  EXPECT_EQ(ring.total_recorded(), 0u);
  EXPECT_TRUE(ring.Snapshot().empty());
}

TEST(SpanRingTest, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(SpanRing(5).capacity(), 8u);
  EXPECT_EQ(SpanRing(16).capacity(), 16u);
  EXPECT_EQ(SpanRing(1).capacity(), 2u);
}

TEST(SpanRingTest, RecordsAllFieldsInOrder) {
  SpanRing ring(8);
  ring.set_enabled(true);
  for (uint64_t i = 1; i <= 5; ++i) {
    Span s = MakeSpan(i, i * 10, i * 10 - 1, SpanKind::kCondition,
                      static_cast<int64_t>(i) * 1000);
    s.ref = i * 7;
    s.start_nanos = static_cast<int64_t>(i) * 100;
    s.detail = static_cast<uint8_t>(i);
    s.depth = static_cast<uint8_t>(i + 1);
    ring.Record(s);
  }
  const auto spans = ring.Snapshot();
  ASSERT_EQ(spans.size(), 5u);
  for (size_t i = 0; i < spans.size(); ++i) {
    const uint64_t n = i + 1;
    EXPECT_EQ(spans[i].trace_id, n);
    EXPECT_EQ(spans[i].span_id, n * 10);
    EXPECT_EQ(spans[i].parent_id, n * 10 - 1);
    EXPECT_EQ(spans[i].ref, n * 7);
    EXPECT_EQ(spans[i].start_nanos, static_cast<int64_t>(n) * 100);
    EXPECT_EQ(spans[i].duration_nanos, static_cast<int64_t>(n) * 1000);
    EXPECT_EQ(spans[i].kind, SpanKind::kCondition);
    EXPECT_EQ(spans[i].detail, static_cast<uint8_t>(n));
    EXPECT_EQ(spans[i].depth, static_cast<uint8_t>(n + 1));
  }
}

TEST(SpanRingTest, WrapsAroundKeepingNewest) {
  SpanRing ring(4);
  ring.set_enabled(true);
  for (uint64_t i = 1; i <= 10; ++i) {
    ring.Record(MakeSpan(i, i, 0, SpanKind::kEvent, 0));
  }
  EXPECT_EQ(ring.total_recorded(), 10u);
  const auto spans = ring.Snapshot();
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(spans.front().trace_id, 7u);
  EXPECT_EQ(spans.back().trace_id, 10u);
}

TEST(SpanRingTest, SpanKindNamesAreStable) {
  EXPECT_STREQ(SpanKindName(SpanKind::kEvent), "event");
  EXPECT_STREQ(SpanKindName(SpanKind::kCondition), "condition");
  EXPECT_STREQ(SpanKindName(SpanKind::kAction), "action");
  EXPECT_STREQ(SpanKindName(SpanKind::kLatUpsert), "lat_upsert");
  EXPECT_STREQ(SpanKindName(SpanKind::kCheckpoint), "checkpoint");
}

// Concurrent writers + a racing reader: every snapshotted span must be
// internally consistent (payload fields all derive from span_id), and after
// quiescing the ring must hold capacity distinct spans. Run under TSan in CI.
TEST(SpanRingTest, ConcurrentWritersProduceConsistentSlots) {
  constexpr size_t kWriters = 4;
  constexpr uint64_t kPerWriter = 20000;
  SpanRing ring(1024);
  ring.set_enabled(true);

  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      for (const Span& s : ring.Snapshot()) {
        // A torn slot would break these invariants; Snapshot must have
        // dropped it instead.
        ASSERT_EQ(s.trace_id, s.span_id * 3);
        ASSERT_EQ(s.ref, s.span_id * 7);
        ASSERT_EQ(s.duration_nanos, static_cast<int64_t>(s.span_id % 4096));
      }
    }
  });

  std::vector<std::thread> writers;
  for (size_t w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (uint64_t i = 0; i < kPerWriter; ++i) {
        const uint64_t id = w * kPerWriter + i + 1;
        Span s = MakeSpan(id * 3, id, 0, SpanKind::kAction,
                          static_cast<int64_t>(id % 4096));
        s.ref = id * 7;
        ring.Record(s);
      }
    });
  }
  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_relaxed);
  reader.join();

  EXPECT_EQ(ring.total_recorded(), kWriters * kPerWriter);
  const auto spans = ring.Snapshot();
  ASSERT_EQ(spans.size(), ring.capacity());
  std::set<uint64_t> ids;
  for (const Span& s : spans) ids.insert(s.span_id);
  EXPECT_EQ(ids.size(), spans.size());
}

// Writers lapping each other in a tiny ring: a writer whose slot a newer lap
// wants must finish its payload stores before that lap claims the slot, so
// no published slot ever mixes two spans (the TraceRing protocol). A racing
// reader checks every snapshotted span; after quiescing, the final snapshot
// must be full, consistent and in ticket order.
TEST(SpanRingTest, LappingWritersNeverPublishTornSlots) {
  constexpr size_t kWriters = 4;
  constexpr uint64_t kPerWriter = 20000;
  SpanRing ring(4);
  ring.set_enabled(true);

  std::atomic<bool> stop{false};
  std::atomic<int> bad_payload{0};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      for (const Span& s : ring.Snapshot()) {
        if (s.trace_id != s.span_id * 3 || s.parent_id != s.span_id + 5 ||
            s.ref != s.span_id * 7 ||
            s.start_nanos != static_cast<int64_t>(s.span_id * 11) ||
            s.duration_nanos != static_cast<int64_t>(s.span_id % 4096) ||
            s.depth != static_cast<uint8_t>(s.span_id % 200)) {
          bad_payload.fetch_add(1, std::memory_order_relaxed);
        }
      }
    }
  });

  std::vector<std::thread> writers;
  for (size_t w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (uint64_t i = 0; i < kPerWriter; ++i) {
        const uint64_t id = w * kPerWriter + i + 1;
        Span s = MakeSpan(id * 3, id, id + 5, SpanKind::kCondition,
                          static_cast<int64_t>(id % 4096));
        s.ref = id * 7;
        s.start_nanos = static_cast<int64_t>(id * 11);
        s.depth = static_cast<uint8_t>(id % 200);
        ring.Record(s);
      }
    });
  }
  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_release);
  reader.join();

  EXPECT_EQ(bad_payload.load(), 0);
  EXPECT_EQ(ring.total_recorded(), kWriters * kPerWriter);
  // Quiesced: the newest capacity() tickets all published, none dropped.
  const auto spans = ring.Snapshot();
  ASSERT_EQ(spans.size(), ring.capacity());
  std::set<uint64_t> ids;
  for (const Span& s : spans) {
    EXPECT_EQ(s.trace_id, s.span_id * 3);
    EXPECT_EQ(s.ref, s.span_id * 7);
    ids.insert(s.span_id);
  }
  EXPECT_EQ(ids.size(), spans.size());
}

// Many threads each emit a full cascade trace (event -> condition -> action
// -> nested events, depth 0..3); after quiescing, every trace in the ring
// must reconstruct as a tree whose parent links and depths are intact.
TEST(SpanRingTest, ConcurrentCascadesReconstructAsTreesAtDepth3) {
  constexpr size_t kThreads = 4;
  constexpr uint64_t kTracesPerThread = 500;
  constexpr uint64_t kSpansPerTrace = 8;  // id block per trace (6 used)
  SpanRing ring(4096);
  ring.set_enabled(true);
  std::atomic<uint64_t> next_span{1};

  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (uint64_t i = 0; i < kTracesPerThread; ++i) {
        const uint64_t trace_id = t * kTracesPerThread + i + 1;
        // Root event, condition + action under it, then a chain of nested
        // (cascaded) events each one level deeper, as the engine emits for
        // LAT-eviction cascades.
        const uint64_t root = next_span.fetch_add(kSpansPerTrace);
        ring.Record(MakeSpan(trace_id, root, 0, SpanKind::kEvent, 100));
        ring.Record(
            MakeSpan(trace_id, root + 1, root, SpanKind::kCondition, 10));
        Span action = MakeSpan(trace_id, root + 2, root, SpanKind::kAction, 50);
        action.depth = 1;
        ring.Record(action);
        uint64_t parent = root + 2;
        for (uint8_t depth = 1; depth <= 3; ++depth) {
          Span nested = MakeSpan(trace_id, root + 2 + depth, parent,
                                 SpanKind::kEvent, 20);
          nested.depth = depth;
          ring.Record(nested);
          parent = nested.span_id;
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  // Group the retained spans by trace and validate each complete trace.
  std::map<uint64_t, std::vector<Span>> traces;
  for (const Span& s : ring.Snapshot()) traces[s.trace_id].push_back(s);
  size_t complete = 0;
  for (const auto& [trace_id, spans] : traces) {
    if (spans.size() < 6) continue;  // truncated by ring wraparound
    ++complete;
    std::map<uint64_t, const Span*> by_id;
    for (const Span& s : spans) by_id[s.span_id] = &s;
    uint8_t max_depth = 0;
    for (const Span& s : spans) {
      max_depth = std::max(max_depth, s.depth);
      if (s.parent_id == 0) {
        EXPECT_EQ(s.kind, SpanKind::kEvent);
        continue;
      }
      // Every non-root span's parent must be in the same trace, one of the
      // event/action spans, and no deeper than its child.
      auto it = by_id.find(s.parent_id);
      ASSERT_NE(it, by_id.end()) << "dangling parent in trace " << trace_id;
      EXPECT_EQ(it->second->trace_id, trace_id);
      EXPECT_LE(it->second->depth, s.depth);
    }
    EXPECT_GE(max_depth, 3u) << "trace " << trace_id;
  }
  EXPECT_GT(complete, 0u);
}

TEST(SlowTraceTableTest, AdmitsEverythingUntilFull) {
  SlowTraceTable table(3);
  std::vector<Span> spans = {MakeSpan(1, 1, 0, SpanKind::kEvent, 10)};
  table.Offer(1, 10, spans);
  table.Offer(2, 5, spans);
  table.Offer(3, 20, spans);
  const auto snap = table.Snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].trace_id, 3u);
  EXPECT_EQ(snap[0].total_nanos, 20);
  EXPECT_EQ(snap[2].trace_id, 2u);
  EXPECT_EQ(table.offers(), 3u);
  EXPECT_EQ(table.admits(), 3u);
}

TEST(SlowTraceTableTest, EvictsCheapestWhenFull) {
  SlowTraceTable table(2);
  std::vector<Span> spans;
  table.Offer(1, 100, spans);
  table.Offer(2, 200, spans);
  table.Offer(3, 50, spans);   // below floor: rejected
  table.Offer(4, 150, spans);  // evicts trace 1
  const auto snap = table.Snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0].trace_id, 2u);
  EXPECT_EQ(snap[1].trace_id, 4u);
  EXPECT_EQ(table.offers(), 4u);
  EXPECT_EQ(table.admits(), 3u);
}

TEST(SlowTraceTableTest, RetainsWholeSpanVector) {
  SlowTraceTable table(1);
  std::vector<Span> spans = {
      MakeSpan(7, 1, 0, SpanKind::kCondition, 5),
      MakeSpan(7, 2, 1, SpanKind::kAction, 15),
      MakeSpan(7, 3, 0, SpanKind::kEvent, 30),
  };
  table.Offer(7, 30, spans);
  const auto snap = table.Snapshot();
  ASSERT_EQ(snap.size(), 1u);
  ASSERT_EQ(snap[0].spans.size(), 3u);
  EXPECT_EQ(snap[0].spans[1].parent_id, 1u);
  EXPECT_EQ(snap[0].spans[2].kind, SpanKind::kEvent);
}

TEST(SlowTraceTableTest, ClearResetsRetention) {
  SlowTraceTable table(2);
  std::vector<Span> spans;
  table.Offer(1, 100, spans);
  table.Offer(2, 200, spans);
  table.Clear();
  EXPECT_TRUE(table.Snapshot().empty());
  // Floor must reset too: a cheap trace is admitted again post-Clear.
  table.Offer(3, 1, spans);
  ASSERT_EQ(table.Snapshot().size(), 1u);
}

TEST(SlowTraceTableTest, ConcurrentOffersKeepTopK) {
  constexpr size_t kThreads = 4;
  constexpr int64_t kPerThread = 5000;
  SlowTraceTable table(8);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::vector<Span> spans;
      for (int64_t i = 1; i <= kPerThread; ++i) {
        const int64_t cost = static_cast<int64_t>(t) * kPerThread + i;
        table.Offer(static_cast<uint64_t>(cost), cost, spans);
      }
    });
  }
  for (auto& t : threads) t.join();
  const auto snap = table.Snapshot();
  ASSERT_EQ(snap.size(), 8u);
  // The global top-8 costs are the 8 largest of thread 3's range; every
  // retained trace must at least beat all of threads 0-2.
  for (const auto& e : snap) {
    EXPECT_GT(e.total_nanos, 3 * kPerThread);
  }
  EXPECT_EQ(snap.front().total_nanos, 4 * kPerThread);
}

}  // namespace
}  // namespace sqlcm::obs
