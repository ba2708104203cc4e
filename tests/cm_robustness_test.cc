// Robustness-layer tests (docs/ROBUSTNESS.md): the fault-injection
// registry itself, crash-safe snapshot persistence with last-good-fallback
// recovery, LAT checkpoint/restore continuity under injected faults, rule
// quarantine inside the live engine, and graceful degradation under
// overload. Every injection point defined by the robustness layer is
// exercised at least once here (ISSUE 2 acceptance criteria).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/fault.h"
#include "engine/session.h"
#include "sqlcm/actions_io.h"
#include "sqlcm/lat.h"
#include "sqlcm/load_governor.h"
#include "sqlcm/monitor_engine.h"
#include "sqlcm/system_views.h"
#include "storage/catalog.h"
#include "storage/table_io.h"

namespace sqlcm::cm {
namespace {

using common::FaultKind;
using common::FaultRegistry;
using common::MockClock;
using common::Row;
using common::Value;
using exec::QueryResult;
using storage::LoadTableCsv;
using storage::SnapshotLoadInfo;
using storage::Table;
using storage::WriteTableCsv;
using storage::WriteTableCsvWithRetry;

/// Every fixture below arms process-global fault points; reset on both ends
/// so tests stay hermetic in any order.
class FaultFixture : public ::testing::Test {
 protected:
  FaultFixture() { FaultRegistry::Get()->Reset(); }
  ~FaultFixture() override { FaultRegistry::Get()->Reset(); }
};

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << content;
}

bool FileExists(const std::string& path) {
  return std::ifstream(path).good();
}

// ---------------------------------------------------------------------------
// FaultRegistry
// ---------------------------------------------------------------------------

using FaultRegistryTest = FaultFixture;

TEST_F(FaultRegistryTest, ArmFromSpecParsesAndArms) {
  auto* reg = FaultRegistry::Get();
  ASSERT_TRUE(
      reg->ArmFromSpec("a.b=io_error; c.d = slow:0.5:3 ;;e.f=crash_rename")
          .ok());
  const auto points = reg->Snapshot();
  ASSERT_EQ(points.size(), 3u);
  EXPECT_TRUE(reg->FireKind("a.b") == FaultKind::kIOError);
  for (const auto& point : points) {
    if (point.point == "c.d") {
      EXPECT_EQ(point.spec.kind, FaultKind::kSlow);
      EXPECT_DOUBLE_EQ(point.spec.probability, 0.5);
      EXPECT_EQ(point.spec.max_fires, 3);
    }
  }
}

TEST_F(FaultRegistryTest, ArmFromSpecRejectsMalformedEntries) {
  auto* reg = FaultRegistry::Get();
  EXPECT_FALSE(reg->ArmFromSpec("a.b").ok());                // no '='
  EXPECT_FALSE(reg->ArmFromSpec("a.b=frobnicate").ok());     // unknown kind
  EXPECT_FALSE(reg->ArmFromSpec("a.b=io_error:1:2:3").ok()); // extra field
  EXPECT_FALSE(reg->ArmFromSpec("=io_error").ok());          // empty point
}

TEST_F(FaultRegistryTest, MaxFiresSelfDisarms) {
  auto* reg = FaultRegistry::Get();
  reg->Arm("p", {FaultKind::kIOError, 1.0, /*max_fires=*/2});
  EXPECT_TRUE(reg->Fire("p"));
  EXPECT_TRUE(reg->Fire("p"));
  EXPECT_FALSE(reg->Fire("p"));  // budget exhausted
  EXPECT_EQ(reg->fires("p"), 2u);
  EXPECT_EQ(reg->hits("p"), 3u);
}

TEST_F(FaultRegistryTest, ProbabilityIsSeededAndCounted) {
  auto* reg = FaultRegistry::Get();
  reg->Seed(12345);
  reg->Arm("p", {FaultKind::kIOError, 0.5, -1});
  for (int i = 0; i < 1000; ++i) (void)reg->Fire("p");
  EXPECT_EQ(reg->hits("p"), 1000u);
  EXPECT_GT(reg->fires("p"), 350u);
  EXPECT_LT(reg->fires("p"), 650u);

  // The same seed replays the same firing sequence (CI reproducibility).
  const uint64_t first_run = reg->fires("p");
  reg->Reset();
  reg->Seed(12345);
  reg->Arm("p", {FaultKind::kIOError, 0.5, -1});
  for (int i = 0; i < 1000; ++i) (void)reg->Fire("p");
  EXPECT_EQ(reg->fires("p"), first_run);
}

TEST_F(FaultRegistryTest, DisarmStopsFiringButKeepsCounters) {
  auto* reg = FaultRegistry::Get();
  reg->Arm("p", {FaultKind::kIOError, 1.0, -1});
  reg->Arm("other", {FaultKind::kIOError, 1.0, -1});  // keeps registry active
  EXPECT_TRUE(reg->Fire("p"));
  reg->Disarm("p");
  EXPECT_FALSE(reg->Fire("p"));
  EXPECT_EQ(reg->fires("p"), 1u);
  EXPECT_EQ(reg->hits("p"), 2u);
}

// ---------------------------------------------------------------------------
// Crash-safe snapshots (storage/table_io) under injected faults
// ---------------------------------------------------------------------------

class SnapshotFaultTest : public FaultFixture {
 protected:
  SnapshotFaultTest()
      : path_(::testing::TempDir() + "/robustness_snapshot.csv") {
    CleanupFiles();
  }
  ~SnapshotFaultTest() override { CleanupFiles(); }

  void CleanupFiles() {
    std::remove(path_.c_str());
    std::remove((path_ + ".bak").c_str());
    std::remove((path_ + ".tmp").c_str());
  }

  catalog::TableSchema MakeSchema() {
    auto schema = catalog::TableSchema::Create(
        "t",
        {{"id", catalog::ColumnType::kInt},
         {"name", catalog::ColumnType::kString}},
        {"id"});
    EXPECT_TRUE(schema.ok());
    return std::move(schema).value();
  }

  /// Writes a snapshot holding ids [1..rows].
  void WriteSnapshot(int rows) {
    Table table(1, MakeSchema());
    for (int i = 1; i <= rows; ++i) {
      ASSERT_TRUE(
          table.Insert({Value::Int(i), Value::String("r" + std::to_string(i))})
              .ok());
    }
    ASSERT_TRUE(WriteTableCsv(table, path_).ok());
  }

  size_t LoadedRowCount(SnapshotLoadInfo* info = nullptr) {
    Table table(2, MakeSchema());
    const auto status = LoadTableCsv(&table, path_, nullptr, info);
    EXPECT_TRUE(status.ok()) << status;
    return status.ok() ? table.row_count() : 0;
  }

  std::string path_;
};

TEST_F(SnapshotFaultTest, InjectedIoErrorLeavesPreviousSnapshotIntact) {
  WriteSnapshot(2);
  FaultRegistry::Get()->Arm(storage::kFaultSnapshotWrite,
                            {FaultKind::kIOError, 1.0, -1});
  Table bigger(1, MakeSchema());
  ASSERT_TRUE(bigger.Insert({Value::Int(9), Value::String("x")}).ok());
  EXPECT_FALSE(WriteTableCsv(bigger, path_).ok());
  FaultRegistry::Get()->Reset();
  EXPECT_EQ(LoadedRowCount(), 2u);  // the old snapshot survived untouched
}

TEST_F(SnapshotFaultTest, ShortWriteTearsTmpButNotPrimary) {
  WriteSnapshot(2);
  FaultRegistry::Get()->Arm(storage::kFaultSnapshotWrite,
                            {FaultKind::kShortWrite, 1.0, -1});
  Table bigger(1, MakeSchema());
  for (int i = 1; i <= 5; ++i) {
    ASSERT_TRUE(
        bigger.Insert({Value::Int(i), Value::String("new")}).ok());
  }
  EXPECT_FALSE(WriteTableCsv(bigger, path_).ok());
  FaultRegistry::Get()->Reset();
  // The torn bytes landed in .tmp only; the published snapshot still loads.
  EXPECT_TRUE(FileExists(path_ + ".tmp"));
  EXPECT_EQ(LoadedRowCount(), 2u);
  // And the torn tmp itself is rejected by verification, not half-loaded.
  Table scratch(3, MakeSchema());
  EXPECT_FALSE(LoadTableCsv(&scratch, path_ + ".tmp").ok());
  EXPECT_EQ(scratch.row_count(), 0u);
}

TEST_F(SnapshotFaultTest, CrashBeforeRenameKeepsPreviousSnapshot) {
  WriteSnapshot(2);
  FaultRegistry::Get()->Arm(storage::kFaultSnapshotWrite,
                            {FaultKind::kCrashRename, 1.0, -1});
  Table bigger(1, MakeSchema());
  ASSERT_TRUE(bigger.Insert({Value::Int(7), Value::String("x")}).ok());
  EXPECT_FALSE(WriteTableCsv(bigger, path_).ok());
  FaultRegistry::Get()->Reset();
  EXPECT_TRUE(FileExists(path_ + ".tmp"));  // durable but unpublished
  EXPECT_EQ(LoadedRowCount(), 2u);
}

TEST_F(SnapshotFaultTest, CorruptCrcFallsBackToLastGoodSnapshot) {
  WriteSnapshot(1);
  WriteSnapshot(3);  // rotates the 1-row snapshot to .bak
  std::string content = ReadFile(path_);
  ASSERT_FALSE(content.empty());
  content.back() = content.back() == 'X' ? 'Y' : 'X';  // same length, bad CRC
  WriteFile(path_, content);

  SnapshotLoadInfo info;
  EXPECT_EQ(LoadedRowCount(&info), 1u);  // served from .bak
  EXPECT_TRUE(info.used_fallback);
  EXPECT_NE(info.primary_error.find("corrupt"), std::string::npos)
      << info.primary_error;
}

TEST_F(SnapshotFaultTest, TruncatedFileFallsBackToLastGoodSnapshot) {
  WriteSnapshot(1);
  WriteSnapshot(3);
  const std::string content = ReadFile(path_);
  // Drop the tail of the body (the header line stays intact, so this is a
  // clean truncation rather than a malformed header).
  WriteFile(path_, content.substr(0, content.size() - 4));

  SnapshotLoadInfo info;
  EXPECT_EQ(LoadedRowCount(&info), 1u);
  EXPECT_TRUE(info.used_fallback);
  EXPECT_NE(info.primary_error.find("truncated"), std::string::npos)
      << info.primary_error;
}

TEST_F(SnapshotFaultTest, CorruptionWithoutBackupIsAnErrorNotAHalfLoad) {
  WriteSnapshot(3);
  const std::string content = ReadFile(path_);
  WriteFile(path_, content.substr(0, content.size() - 2));

  Table table(2, MakeSchema());
  EXPECT_FALSE(LoadTableCsv(&table, path_).ok());
  EXPECT_EQ(table.row_count(), 0u);  // nothing seeded from the bad file
}

TEST_F(SnapshotFaultTest, InjectedReadErrorFallsBackToBak) {
  WriteSnapshot(1);
  WriteSnapshot(3);
  // First read (the primary) fails; the .bak read is allowed through.
  FaultRegistry::Get()->Arm(storage::kFaultSnapshotRead,
                            {FaultKind::kIOError, 1.0, /*max_fires=*/1});
  SnapshotLoadInfo info;
  EXPECT_EQ(LoadedRowCount(&info), 1u);
  EXPECT_TRUE(info.used_fallback);
}

TEST_F(SnapshotFaultTest, WriteRetriesTransientFailuresWithBackoff) {
  FaultRegistry::Get()->Arm(storage::kFaultSnapshotWrite,
                            {FaultKind::kIOError, 1.0, /*max_fires=*/2});
  Table table(1, MakeSchema());
  ASSERT_TRUE(table.Insert({Value::Int(1), Value::String("a")}).ok());

  MockClock clock;
  int retries = 0;
  const auto status = WriteTableCsvWithRetry(table, path_, /*attempts=*/4,
                                             /*backoff_micros=*/100, &clock,
                                             &retries);
  EXPECT_TRUE(status.ok()) << status;
  EXPECT_EQ(retries, 2);
  EXPECT_EQ(clock.NowMicros(), 100 + 200);  // doubling backoff between tries
  EXPECT_EQ(LoadedRowCount(), 1u);

  // With fewer attempts than failures, the last error is surfaced.
  FaultRegistry::Get()->Reset();
  FaultRegistry::Get()->Arm(storage::kFaultSnapshotWrite,
                            {FaultKind::kIOError, 1.0, -1});
  EXPECT_FALSE(
      WriteTableCsvWithRetry(table, path_, 2, 100, &clock, &retries).ok());
  EXPECT_EQ(retries, 1);
}

// ---------------------------------------------------------------------------
// LAT checkpoint / restore continuity (paper §4.3) under faults
// ---------------------------------------------------------------------------

class LatCheckpointTest : public FaultFixture {
 protected:
  LatCheckpointTest()
      : path_(::testing::TempDir() + "/robustness_lat.csv") {
    std::remove(path_.c_str());
    std::remove((path_ + ".bak").c_str());
    std::remove((path_ + ".tmp").c_str());
  }

  /// A database + monitor with Duration_LAT fed on every commit.
  struct Node {
    engine::Database db;
    MonitorEngine monitor;
    std::unique_ptr<engine::Session> session;

    Node() : monitor(&db), session(db.CreateSession()) {
      // Set up the schema before the feed rule exists, so only the
      // deliberately-run queries land in the LAT.
      Exec("CREATE TABLE items (id INT, val FLOAT, PRIMARY KEY(id))");
      Exec("INSERT INTO items VALUES (1, 1.0)");
      LatSpec spec;
      spec.name = "Duration_LAT";
      spec.group_by = {{"Logical_Signature", "Sig"}};
      spec.aggregates = {{LatAggFunc::kAvg, "Duration", "Avg_Duration", false},
                         {LatAggFunc::kCount, "", "N", false}};
      EXPECT_TRUE(monitor.DefineLat(std::move(spec)).ok());
      RuleSpec feed;
      feed.name = "feed";
      feed.event = "Query.Commit";
      feed.action = "Query.Insert(Duration_LAT)";
      EXPECT_TRUE(monitor.AddRule(feed).ok());
    }

    void Exec(const std::string& sql) {
      auto result = session->Execute(sql);
      ASSERT_TRUE(result.ok()) << sql << " -> " << result.status();
    }

    /// Distinct statement templates => distinct signatures => LAT groups.
    void RunDistinctQueries(int n, int offset = 0) {
      for (int i = 0; i < n; ++i) {
        std::string cols = "val";
        for (int j = 0; j < i + offset; ++j) cols += ", val";
        Exec("SELECT " + cols + " FROM items WHERE id = 1");
      }
    }

    size_t LatSize() {
      Lat* lat = monitor.FindLat("Duration_LAT");
      EXPECT_NE(lat, nullptr);
      return lat == nullptr ? 0 : lat->size();
    }
  };

  std::string path_;
};

TEST_F(LatCheckpointTest, CheckpointRestoreRoundTripAcrossEngines) {
  Node writer;
  writer.RunDistinctQueries(3);
  ASSERT_EQ(writer.LatSize(), 3u);
  ASSERT_TRUE(writer.monitor.CheckpointLat("Duration_LAT", path_).ok());

  Node reader;  // a "restarted server"
  EXPECT_EQ(reader.LatSize(), 0u);
  ASSERT_TRUE(reader.monitor.RestoreLat("Duration_LAT", path_).ok());
  EXPECT_EQ(reader.LatSize(), 3u);
  EXPECT_EQ(reader.monitor.metrics().persist_fallbacks.value(), 0u);
}

TEST_F(LatCheckpointTest, RestoreFallsBackAfterCorruptionAndRecordsIt) {
  Node writer;
  writer.RunDistinctQueries(2);
  ASSERT_TRUE(writer.monitor.CheckpointLat("Duration_LAT", path_).ok());
  writer.RunDistinctQueries(2, /*offset=*/2);  // now 4 groups
  ASSERT_TRUE(writer.monitor.CheckpointLat("Duration_LAT", path_).ok());

  // Corrupt the primary snapshot; the 2-group .bak remains good.
  std::string content = ReadFile(path_);
  content.back() = content.back() == 'X' ? 'Y' : 'X';
  WriteFile(path_, content);

  Node reader;
  ASSERT_TRUE(reader.monitor.RestoreLat("Duration_LAT", path_).ok());
  EXPECT_EQ(reader.LatSize(), 2u);  // last good snapshot, not garbage
  EXPECT_EQ(reader.monitor.metrics().persist_fallbacks.value(), 1u);
  // The recovery is reported, not silent: error ring names the fallback.
  EXPECT_NE(reader.monitor.last_error().find("fallback"), std::string::npos)
      << reader.monitor.last_error();
}

TEST_F(LatCheckpointTest, CrashBeforeRenameLeavesPriorCheckpointRestorable) {
  Node writer;
  writer.RunDistinctQueries(2);
  ASSERT_TRUE(writer.monitor.CheckpointLat("Duration_LAT", path_).ok());

  FaultRegistry::Get()->Arm(storage::kFaultSnapshotWrite,
                            {FaultKind::kCrashRename, 1.0, -1});
  writer.RunDistinctQueries(2, /*offset=*/2);
  EXPECT_FALSE(writer.monitor.CheckpointLat("Duration_LAT", path_).ok());
  EXPECT_GT(writer.monitor.total_errors(), 0u);  // failure was recorded
  FaultRegistry::Get()->Reset();

  Node reader;
  ASSERT_TRUE(reader.monitor.RestoreLat("Duration_LAT", path_).ok());
  EXPECT_EQ(reader.LatSize(), 2u);
}

TEST_F(LatCheckpointTest, CheckpointRetriesTransientFaultsAndCountsThem) {
  Node writer;
  writer.RunDistinctQueries(2);
  FaultRegistry::Get()->Arm(storage::kFaultSnapshotWrite,
                            {FaultKind::kIOError, 1.0, /*max_fires=*/1});
  ASSERT_TRUE(writer.monitor.CheckpointLat("Duration_LAT", path_).ok());
  EXPECT_EQ(writer.monitor.metrics().persist_retries.value(), 1u);
}

TEST_F(LatCheckpointTest, RestoreLoadsLegacyV1Snapshot) {
  // A server upgraded to raw-state (v2) checkpoints must still load
  // snapshots written by the previous release: v1 materialized rows in the
  // old {group, aggregates..., persist_ts} schema, seeded through the
  // documented lossy path (COUNT drives the seed count; AVG reconstructs
  // the sum).
  auto schema = catalog::TableSchema::Create(
      "legacy",
      {{"Sig", catalog::ColumnType::kString},
       {"Avg_Duration", catalog::ColumnType::kDouble},
       {"N", catalog::ColumnType::kInt},
       {"persist_ts", catalog::ColumnType::kInt}},
      {});
  ASSERT_TRUE(schema.ok()) << schema.status().ToString();
  Table legacy(0, std::move(*schema));
  ASSERT_TRUE(legacy
                  .Insert({Value::String("legacy_sig"), Value::Double(2.5),
                           Value::Int(4), Value::Int(99)})
                  .ok());
  ASSERT_TRUE(
      WriteTableCsv(legacy, path_, storage::kSnapshotVersionV1).ok());

  Node reader;
  ASSERT_TRUE(reader.monitor.RestoreLat("Duration_LAT", path_).ok());
  EXPECT_EQ(reader.LatSize(), 1u);
  Lat* lat = reader.monitor.FindLat("Duration_LAT");
  ASSERT_NE(lat, nullptr);
  Row row;
  ASSERT_TRUE(lat->LookupByKey({Value::String("legacy_sig")}, 0, &row));
  EXPECT_DOUBLE_EQ(row[1].double_value(), 2.5);  // AVG preserved
  EXPECT_EQ(row[2].int_value(), 4);              // COUNT drives the seed
  // A clean v1 load is version negotiation, not a .bak recovery.
  EXPECT_EQ(reader.monitor.metrics().persist_fallbacks.value(), 0u);
}

TEST_F(LatCheckpointTest, CorruptV2HeaderFallsBackToBak) {
  Node writer;
  writer.RunDistinctQueries(2);
  ASSERT_TRUE(writer.monitor.CheckpointLat("Duration_LAT", path_).ok());
  writer.RunDistinctQueries(2, /*offset=*/2);  // now 4 groups
  ASSERT_TRUE(writer.monitor.CheckpointLat("Duration_LAT", path_).ok());

  // Mangle the snapshot header's version tag ("v=2" -> "v=7"); the body is
  // untouched, so only header validation can reject this file.
  std::string content = ReadFile(path_);
  const size_t tag = content.find("v=2");
  ASSERT_NE(tag, std::string::npos) << content.substr(0, 64);
  content[tag + 2] = '7';
  WriteFile(path_, content);

  Node reader;
  ASSERT_TRUE(reader.monitor.RestoreLat("Duration_LAT", path_).ok());
  EXPECT_EQ(reader.LatSize(), 2u);  // the 2-group .bak, not garbage
  EXPECT_EQ(reader.monitor.metrics().persist_fallbacks.value(), 1u);
  EXPECT_NE(reader.monitor.last_error().find("fallback"), std::string::npos)
      << reader.monitor.last_error();
}

// ---------------------------------------------------------------------------
// Sketch-bearing LAT checkpoints (v3 snapshot codec)
// ---------------------------------------------------------------------------

class SketchCheckpointTest : public FaultFixture {
 protected:
  SketchCheckpointTest()
      : path_(::testing::TempDir() + "/robustness_sketch_lat.csv") {
    std::remove(path_.c_str());
    std::remove((path_ + ".bak").c_str());
    std::remove((path_ + ".tmp").c_str());
  }

  /// A database + monitor with a sketch-bearing Sketch_LAT fed on commit.
  struct Node {
    engine::Database db;
    MonitorEngine monitor;
    std::unique_ptr<engine::Session> session;

    Node() : monitor(&db), session(db.CreateSession()) {
      Exec("CREATE TABLE items (id INT, val FLOAT, PRIMARY KEY(id))");
      Exec("INSERT INTO items VALUES (1, 1.0)");
      LatSpec spec;
      spec.name = "Sketch_LAT";
      spec.group_by = {{"Logical_Signature", "Sig"}};
      spec.aggregates = {{LatAggFunc::kCount, "", "N", false},
                         {LatAggFunc::kQuantile, "Duration", "P50", false, 0.5},
                         {LatAggFunc::kDistinct, "Query_Text", "DQ", false}};
      EXPECT_TRUE(monitor.DefineLat(std::move(spec)).ok());
      RuleSpec feed;
      feed.name = "feed";
      feed.event = "Query.Commit";
      feed.action = "Query.Insert(Sketch_LAT)";
      EXPECT_TRUE(monitor.AddRule(feed).ok());
    }

    void Exec(const std::string& sql) {
      auto result = session->Execute(sql);
      ASSERT_TRUE(result.ok()) << sql << " -> " << result.status();
    }

    void RunDistinctQueries(int n, int offset = 0) {
      for (int i = 0; i < n; ++i) {
        std::string cols = "val";
        for (int j = 0; j < i + offset; ++j) cols += ", val";
        Exec("SELECT " + cols + " FROM items WHERE id = 1");
      }
    }

    Lat* lat() { return monitor.FindLat("Sketch_LAT"); }
  };

  /// A v1 legacy snapshot in Sketch_LAT's *materialized* schema — the shape
  /// an old release (or a mis-pointed restore path) would hand us.
  void WriteLegacyV1Snapshot() {
    auto schema = catalog::TableSchema::Create(
        "legacy",
        {{"Sig", catalog::ColumnType::kString},
         {"N", catalog::ColumnType::kInt},
         {"P50", catalog::ColumnType::kDouble},
         {"DQ", catalog::ColumnType::kInt},
         {"persist_ts", catalog::ColumnType::kInt}},
        {});
    ASSERT_TRUE(schema.ok()) << schema.status().ToString();
    Table legacy(0, std::move(*schema));
    ASSERT_TRUE(legacy
                    .Insert({Value::String("legacy_sig"), Value::Int(4),
                             Value::Double(2.5), Value::Int(3), Value::Int(9)})
                    .ok());
    ASSERT_TRUE(
        WriteTableCsv(legacy, path_, storage::kSnapshotVersionV1).ok());
  }

  std::string path_;
};

TEST_F(SketchCheckpointTest, CheckpointWritesV3AndRoundTripsSketches) {
  Node writer;
  writer.RunDistinctQueries(3);
  ASSERT_TRUE(writer.monitor.CheckpointLat("Sketch_LAT", path_).ok());
  // Sketch-bearing state carries the extra #sketch cells -> v3 header.
  EXPECT_NE(ReadFile(path_).find("v=3"), std::string::npos);

  Node reader;
  ASSERT_TRUE(reader.monitor.RestoreLat("Sketch_LAT", path_).ok());
  ASSERT_EQ(reader.lat()->size(), writer.lat()->size());
  for (const Row& expect : writer.lat()->Snapshot(0)) {
    Row got;
    ASSERT_TRUE(reader.lat()->LookupByKey({expect[0]}, 0, &got));
    ASSERT_EQ(got.size(), expect.size());
    for (size_t c = 0; c < expect.size(); ++c) {
      EXPECT_EQ(got[c].ToString(), expect[c].ToString())
          << "column " << writer.lat()->column_names()[c];
    }
  }
  EXPECT_EQ(reader.monitor.metrics().persist_fallbacks.value(), 0u);
}

TEST_F(SketchCheckpointTest, V1SnapshotIsRejectedNotSilentlyZeroed) {
  WriteLegacyV1Snapshot();
  Node reader;
  const common::Status status = reader.monitor.RestoreLat("Sketch_LAT", path_);
  EXPECT_TRUE(status.IsInvalidArgument()) << status.ToString();
  // No half-restored garbage: the LAT stays empty and the failure is
  // reported through the error ring.
  EXPECT_EQ(reader.lat()->size(), 0u);
  EXPECT_FALSE(reader.monitor.last_error().empty());
}

TEST_F(SketchCheckpointTest, V1PrimaryFallsBackToV3Bak) {
  Node writer;
  writer.RunDistinctQueries(2);
  ASSERT_TRUE(writer.monitor.CheckpointLat("Sketch_LAT", path_).ok());
  writer.RunDistinctQueries(2, /*offset=*/2);
  ASSERT_TRUE(writer.monitor.CheckpointLat("Sketch_LAT", path_).ok());
  ASSERT_TRUE(FileExists(path_ + ".bak"));
  // An old release clobbers the primary with a v1 materialized snapshot
  // (rotating the 4-group v3 snapshot into .bak); restore must reject the
  // v1 primary and serve the last good v3 snapshot from .bak instead.
  WriteLegacyV1Snapshot();

  Node reader;
  ASSERT_TRUE(reader.monitor.RestoreLat("Sketch_LAT", path_).ok());
  EXPECT_EQ(reader.lat()->size(), 4u);
  EXPECT_EQ(reader.monitor.metrics().persist_fallbacks.value(), 1u);
  EXPECT_NE(reader.monitor.last_error().find("fallback"), std::string::npos)
      << reader.monitor.last_error();
}

// ---------------------------------------------------------------------------
// Rule quarantine in the live engine
// ---------------------------------------------------------------------------

class QuarantineTest : public ::testing::Test {
 protected:
  static MonitorEngine::Options TightBreakerOptions() {
    MonitorEngine::Options options;
    options.breaker.consecutive_failure_threshold = 3;
    options.breaker.window_size = 8;
    options.breaker.min_window_events = 1000;  // consecutive wire only
    options.breaker.cooldown_micros = 3'600'000'000;  // no half-open in test
    return options;
  }

  QuarantineTest()
      : monitor_(&db_, TightBreakerOptions()),
        session_(db_.CreateSession()) {
    Exec("CREATE TABLE items (id INT, val FLOAT, PRIMARY KEY(id))");
    Exec("INSERT INTO items VALUES (1, 1.0)");
    // The bad rule persists two attributes into a one-column table, which
    // fails on every fire; the good rule feeds a LAT and always succeeds.
    Exec("CREATE TABLE Clash (only_col INT)");
    LatSpec spec;
    spec.name = "GoodLat";
    spec.group_by = {{"Logical_Signature", "Sig"}};
    spec.aggregates = {{LatAggFunc::kCount, "", "N", false}};
    EXPECT_TRUE(monitor_.DefineLat(std::move(spec)).ok());

    RuleSpec bad;
    bad.name = "bad";
    bad.event = "Query.Commit";
    bad.action = "Query.Persist(Clash, ID, Duration)";
    auto bad_added = monitor_.AddRule(bad);
    EXPECT_TRUE(bad_added.ok());
    bad_id_ = *bad_added;

    RuleSpec good;
    good.name = "good";
    good.event = "Query.Commit";
    good.action = "Query.Insert(GoodLat)";
    EXPECT_TRUE(monitor_.AddRule(good).ok());
  }

  void Exec(const std::string& sql) {
    auto result = session_->Execute(sql);
    ASSERT_TRUE(result.ok()) << sql << " -> " << result.status();
  }

  QueryResult Query(const std::string& sql) {
    auto result = session_->Execute(sql);
    EXPECT_TRUE(result.ok()) << sql << " -> " << result.status();
    return result.ok() ? *result : QueryResult{};
  }

  uint64_t GoodRuleFires() {
    for (const auto& rule : monitor_.SnapshotRules()) {
      if (rule->name == "good") return rule->stats.fires.value();
    }
    return 0;
  }

  engine::Database db_;
  MonitorEngine monitor_;
  std::unique_ptr<engine::Session> session_;
  uint64_t bad_id_ = 0;
};

TEST_F(QuarantineTest, FailingRuleIsQuarantinedWhileOthersKeepFiring) {
  constexpr int kQueries = 10;
  for (int i = 0; i < kQueries; ++i) Exec("SELECT val FROM items WHERE id = 1");

  const auto& metrics = monitor_.metrics();
  // Three consecutive failures trip the breaker; later events skip the rule
  // instead of failing, so the error total stays bounded.
  EXPECT_EQ(metrics.breaker_trips.value(), 1u);
  EXPECT_EQ(metrics.breaker_skips.value(), static_cast<uint64_t>(kQueries - 3));
  // 3 action errors + 1 quarantine notice.
  EXPECT_EQ(monitor_.total_errors(), 4u);
  EXPECT_NE(monitor_.last_error().find("quarantined"), std::string::npos)
      << monitor_.last_error();
  // The rest of the rule set kept firing on every event.
  EXPECT_EQ(GoodRuleFires(), static_cast<uint64_t>(kQueries));

  // The quarantine is visible through the normal SQL path.
  const QueryResult result = Query(
      "SELECT name, quarantine_state, quarantine_trips, quarantine_skipped "
      "FROM sqlcm_rule_stats");
  ASSERT_EQ(result.rows.size(), 2u);
  for (const Row& row : result.rows) {
    if (row[0].string_value() == "bad") {
      EXPECT_EQ(row[1].string_value(), "open");
      EXPECT_EQ(row[2].int_value(), 1);
      EXPECT_GT(row[3].int_value(), 0);
    } else {
      EXPECT_EQ(row[1].string_value(), "closed");
      EXPECT_EQ(row[2].int_value(), 0);
    }
  }
}

TEST_F(QuarantineTest, ReinstateRuleClosesTheBreakerAndResumesEvaluation) {
  for (int i = 0; i < 5; ++i) Exec("SELECT val FROM items WHERE id = 1");
  ASSERT_EQ(monitor_.metrics().breaker_trips.value(), 1u);
  const uint64_t errors_while_open = monitor_.total_errors();

  ASSERT_TRUE(monitor_.ReinstateRule(bad_id_).ok());
  EXPECT_TRUE(monitor_.ReinstateRule(9999).IsNotFound());

  // The rule is evaluated again (and fails again — fresh errors prove the
  // breaker actually re-admitted it).
  Exec("SELECT val FROM items WHERE id = 1");
  EXPECT_GT(monitor_.total_errors(), errors_while_open);
}

// ---------------------------------------------------------------------------
// Breaker and rule stats under concurrent dispatch
// ---------------------------------------------------------------------------

TEST(BreakerConcurrencyTest, ConcurrentSuccessesAllFoldBeforeTheNextFailure) {
  // Only the rate wire is live. 4 x 10003 closed-state successes wrap the
  // 10-event window 4001 times and leave 2 events in it, so (eagerly) the
  // first failure gives 1 error in 3 (< 0.5) and the second 2 in 4 (trip).
  // One success lost or double-counted moves the trip point.
  RuleBreaker::Options options;
  options.consecutive_failure_threshold = 1000;
  options.window_size = 10;
  options.min_window_events = 1;
  options.error_rate_threshold = 0.5;
  options.cooldown_micros = 3'600'000'000;
  RuleBreaker breaker(options);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&breaker] {
      for (int i = 0; i < 10003; ++i) breaker.OnSuccess(i);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(breaker.consecutive_failures(), 0);
  EXPECT_FALSE(breaker.OnFailure(1));
  EXPECT_EQ(breaker.consecutive_failures(), 1);
  EXPECT_TRUE(breaker.OnFailure(2));
  EXPECT_EQ(breaker.state(), RuleBreaker::State::kOpen);
}

TEST(BreakerConcurrencyTest, MixedOutcomesTripProbeAndReinstateConcurrently) {
  // TSan target: lock-free successes racing failures, half-open probes
  // (zero cooldown) and operator reinstates on one breaker.
  RuleBreaker::Options options;
  options.consecutive_failure_threshold = 3;
  options.window_size = 16;
  options.min_window_events = 8;
  options.error_rate_threshold = 0.5;
  options.cooldown_micros = 0;
  RuleBreaker breaker(options);
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&breaker, t] {
      uint64_t x = 0x9e3779b97f4a7c15ull * static_cast<uint64_t>(t + 1);
      for (int64_t now = 0; now < 20000; ++now) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        if (!breaker.Allow(now)) continue;
        if (x % 3 == 0) {
          breaker.OnFailure(now);
        } else {
          breaker.OnSuccess(now);
        }
        if (x % 64 == 0) (void)breaker.consecutive_failures();
      }
    });
  }
  std::thread operator_thread([&breaker, &stop] {
    while (!stop.load(std::memory_order_acquire)) {
      breaker.Reinstate();
      std::this_thread::yield();
    }
  });
  for (auto& t : threads) t.join();
  stop.store(true, std::memory_order_release);
  operator_thread.join();
  EXPECT_GT(breaker.trips(), 0u);

  // Quiesced: the breaker is coherent again — a reinstate clears it and
  // the consecutive wire trips on exactly the third failure.
  breaker.Reinstate();
  EXPECT_EQ(breaker.consecutive_failures(), 0);
  breaker.OnSuccess(0);
  EXPECT_FALSE(breaker.OnFailure(1));
  EXPECT_FALSE(breaker.OnFailure(2));
  EXPECT_TRUE(breaker.OnFailure(3));
}

TEST(BreakerConcurrencyTest, ConcurrentSessionsKeepRuleStatsExact) {
  // Striped per-rule and engine counters summed on read must equal what
  // every session sent, with the breakers never leaving the closed state.
  engine::Database db;
  MonitorEngine::Options options;
  options.register_system_views = false;
  MonitorEngine monitor(&db, options);
  {
    auto setup = db.CreateSession();
    ASSERT_TRUE(
        setup->Execute("CREATE TABLE items (id INT, val FLOAT, PRIMARY KEY(id))")
            .ok());
    ASSERT_TRUE(setup->Execute("INSERT INTO items VALUES (1, 1.0)").ok());
  }
  LatSpec spec;
  spec.name = "SigLat";
  spec.group_by = {{"Logical_Signature", "Sig"}};
  spec.aggregates = {{LatAggFunc::kCount, "", "N", false}};
  ASSERT_TRUE(monitor.DefineLat(std::move(spec)).ok());
  RuleSpec pass;
  pass.name = "pass";
  pass.event = "Query.Commit";
  pass.condition = "Query.ID >= 0";
  pass.action = "Query.Insert(SigLat)";
  ASSERT_TRUE(monitor.AddRule(pass).ok());
  RuleSpec reject;
  reject.name = "reject";
  reject.event = "Query.Commit";
  reject.condition = "Query.ID < 0";
  reject.action = "Query.Insert(SigLat)";
  ASSERT_TRUE(monitor.AddRule(reject).ok());

  constexpr int kSessions = 4;
  constexpr int kQueries = 300;
  std::vector<std::thread> sessions;
  for (int s = 0; s < kSessions; ++s) {
    sessions.emplace_back([&db] {
      auto session = db.CreateSession();
      for (int i = 0; i < kQueries; ++i) {
        auto result = session->Execute("SELECT val FROM items WHERE id = 1");
        ASSERT_TRUE(result.ok()) << result.status();
      }
    });
  }
  for (auto& t : sessions) t.join();

  constexpr uint64_t kEvents = uint64_t{kSessions} * kQueries;
  EXPECT_EQ(monitor.events_processed(), kEvents);
  EXPECT_EQ(monitor.rules_fired(), kEvents);
  for (const auto& rule : monitor.SnapshotRules()) {
    SCOPED_TRACE(rule->name);
    EXPECT_EQ(rule->stats.evaluations.value(), kEvents);
    const bool passes = rule->name == "pass";
    EXPECT_EQ(rule->stats.fires.value(), passes ? kEvents : 0u);
    EXPECT_EQ(rule->stats.condition_false.value(), passes ? 0u : kEvents);
    EXPECT_EQ(rule->breaker.state(), RuleBreaker::State::kClosed);
    EXPECT_EQ(rule->breaker.consecutive_failures(), 0);
  }
  EXPECT_EQ(monitor.FindLat("SigLat")->stats().inserts.value(), kEvents);
}

// ---------------------------------------------------------------------------
// LoadGovernor (unit)
// ---------------------------------------------------------------------------

LoadGovernor::Options TightGovernor() {
  LoadGovernor::Options options;
  options.overhead_budget = 0.10;
  options.recover_ratio = 0.5;
  options.window_micros = 1000;
  options.min_hooks_per_window = 2;
  return options;
}

/// Feeds one full window of hooks at the given busy fraction.
void FeedWindow(LoadGovernor* governor, int64_t* now, double fraction) {
  const int64_t window = governor->options().window_micros;
  // Four hooks spread across the window, then one past its end to roll it.
  for (int i = 0; i < 4; ++i) {
    *now += window / 4;
    governor->RecordHook(static_cast<int64_t>(fraction * window / 4), *now);
  }
  *now += 1;
  governor->RecordHook(0, *now);
}

TEST(LoadGovernorTest, OffByDefault) {
  LoadGovernor governor;
  EXPECT_EQ(governor.options().overhead_budget, 0.0);
  int64_t now = 1;
  governor.RecordHook(0, now);
  for (int i = 0; i < 5; ++i) FeedWindow(&governor, &now, 0.9);
  EXPECT_EQ(governor.level(), LoadGovernor::kLevelFull);
  EXPECT_EQ(governor.level_raises(), 0u);
}

TEST(LoadGovernorTest, SamplesUnderPressureAndRecoversWithHysteresis) {
  LoadGovernor governor(TightGovernor());
  int64_t now = 1;
  governor.RecordHook(0, now);  // establishes the first window start

  // One window over budget enters sampling; staying over it holds there.
  FeedWindow(&governor, &now, 0.5);
  EXPECT_EQ(governor.level(), LoadGovernor::kLevelSampleEvents);
  FeedWindow(&governor, &now, 0.5);
  EXPECT_EQ(governor.level(), LoadGovernor::kLevelSampleEvents);
  EXPECT_EQ(governor.level_raises(), 1u);
  EXPECT_GT(governor.last_overhead_fraction(), 0.10);

  // 8% overhead is below budget but above budget*recover_ratio: hold.
  FeedWindow(&governor, &now, 0.08);
  FeedWindow(&governor, &now, 0.08);
  EXPECT_EQ(governor.level(), LoadGovernor::kLevelSampleEvents);

  // A near-idle window returns to full fidelity.
  FeedWindow(&governor, &now, 0.01);
  EXPECT_EQ(governor.level(), LoadGovernor::kLevelFull);
  EXPECT_EQ(governor.level_drops(), 1u);
}

TEST(LoadGovernorTest, CountersAndGaugeSeeEveryTransition) {
  LoadGovernor governor(TightGovernor());
  obs::MetricsRegistry registry;
  governor.RegisterMetrics(&registry);
  auto sample = [&](const std::string& name) {
    for (const auto& s : registry.Snapshot()) {
      if (s.name == name) return s.value;
    }
    ADD_FAILURE() << "missing metric " << name;
    return -1.0;
  };
  governor.ForceLevel(LoadGovernor::kLevelSampleEvents);
  governor.ForceLevel(LoadGovernor::kLevelSampleEvents);  // no-op, not counted
  EXPECT_EQ(sample("robustness.governor_level"), 1.0);
  governor.ForceLevel(7);  // clamped to the sampling state
  EXPECT_EQ(governor.level(), LoadGovernor::kLevelSampleEvents);
  governor.ForceLevel(LoadGovernor::kLevelFull);
  EXPECT_EQ(sample("robustness.governor_level"), 0.0);
  EXPECT_EQ(sample("robustness.governor_raises"), 1.0);
  EXPECT_EQ(sample("robustness.governor_drops"), 1.0);
}

TEST(LoadGovernorTest, ForcedLevelIgnoresMeasurement) {
  LoadGovernor governor(TightGovernor());
  governor.ForceLevel(LoadGovernor::kLevelFull);
  int64_t now = 1;
  governor.RecordHook(0, now);
  for (int i = 0; i < 5; ++i) FeedWindow(&governor, &now, 0.9);
  EXPECT_EQ(governor.level(), LoadGovernor::kLevelFull);  // pinned
  EXPECT_TRUE(governor.forced());
  governor.ClearForce();
  for (int i = 0; i < 5; ++i) FeedWindow(&governor, &now, 0.9);
  EXPECT_EQ(governor.level(), LoadGovernor::kLevelSampleEvents);
}

TEST(LoadGovernorTest, AdmitEventSamplesOnlyWhileSampling) {
  LoadGovernor::Options options = TightGovernor();
  options.sample_shift = 3;  // 1 in 8
  LoadGovernor governor(options);
  for (uint64_t seq = 0; seq < 16; ++seq) EXPECT_TRUE(governor.AdmitEvent(seq));
  governor.ForceLevel(LoadGovernor::kLevelSampleEvents);
  int admitted = 0;
  for (uint64_t seq = 0; seq < 64; ++seq) {
    if (governor.AdmitEvent(seq)) ++admitted;
  }
  EXPECT_EQ(admitted, 8);
}

// ---------------------------------------------------------------------------
// Sampling wired through the engine
// ---------------------------------------------------------------------------

class GovernorIntegrationTest : public FaultFixture {
 protected:
  static constexpr int kSampleShift = 2;  // deferrable rules see 1 in 4
  static constexpr int kQueries = 32;     // a multiple of 1 << kSampleShift

  /// Starts the engine, a 100-row table, and three rules: paper Example
  /// 5(a)'s Query.Start Cancel of runaway queries (inline by its action),
  /// an eval_mode = 'inline' Persist audit of every committed query, and a
  /// deferrable rule feeding FeedLat.
  void Start(MonitorEngine::Options options) {
    engine::Database::Options db_options;
    db_options.clock = &clock_;
    db_ = std::make_unique<engine::Database>(db_options);
    monitor_ = std::make_unique<MonitorEngine>(db_.get(), options);
    session_ = db_->CreateSession();
    Exec("CREATE TABLE items (id INT, val FLOAT, PRIMARY KEY(id))");
    for (int i = 0; i < 100; ++i) {
      Exec("INSERT INTO items VALUES (" + std::to_string(i) + ", 1.0)");
    }
    LatSpec spec;
    spec.name = "FeedLat";
    spec.group_by = {{"Logical_Signature", "Sig"}};
    spec.aggregates = {{LatAggFunc::kCount, "", "N", false}};
    ASSERT_TRUE(monitor_->DefineLat(std::move(spec)).ok());

    RuleSpec runaway;
    runaway.name = "runaway";
    runaway.event = "Query.Start";
    runaway.condition = "Query.Estimated_Cost > 50";  // full scans only
    runaway.action = "Query.Cancel()";
    RuleSpec audit;
    audit.name = "audit";
    audit.event = "Query.Commit";
    audit.action = "Query.Persist(AuditLog, ID, Duration)";
    audit.eval_mode = "inline";
    RuleSpec feed;
    feed.name = "feed";
    feed.event = "Query.Commit";
    feed.action = "Query.Insert(FeedLat)";
    for (const RuleSpec& rule : {runaway, audit, feed}) {
      ASSERT_TRUE(monitor_->AddRule(rule).ok()) << rule.name;
    }
  }

  static MonitorEngine::Options SamplingOptions(bool async) {
    MonitorEngine::Options options;
    options.governor.sample_shift = kSampleShift;
    options.async_rule_eval = async;
    return options;
  }

  void Exec(const std::string& sql) {
    auto result = session_->Execute(sql);
    ASSERT_TRUE(result.ok()) << sql << " -> " << result.status();
  }

  /// Alternates runaway full scans with point queries; every runaway must
  /// be cancelled and every point query must commit.
  void RunWorkload() {
    for (int i = 0; i < kQueries; ++i) {
      auto runaway =
          session_->Execute("SELECT COUNT(*) FROM items WHERE val > 0.0");
      ASSERT_FALSE(runaway.ok()) << "runaway query " << i << " ran";
      EXPECT_TRUE(runaway.status().IsCancelled()) << runaway.status();
      Exec("SELECT val FROM items WHERE id = " + std::to_string(i));
    }
  }

  int64_t FeedCount() const {
    int64_t total = 0;
    for (const auto& row : monitor_->FindLat("FeedLat")->Snapshot(0)) {
      total += row[1].int_value();
    }
    return total;
  }

  size_t AuditRows() const {
    Table* audit = db_->catalog()->GetTable("AuditLog");
    return audit == nullptr ? 0 : audit->row_count();
  }

  MockClock clock_;
  std::unique_ptr<engine::Database> db_;
  std::unique_ptr<MonitorEngine> monitor_;
  std::unique_ptr<engine::Session> session_;
};

TEST_F(GovernorIntegrationTest, DefaultOptionsKeepFullFidelityUnderSlowHooks) {
  Start(MonitorEngine::Options{});
  // Chaos lever: every timed hook sleeps 1ms on the (mock) clock, so hook
  // time is most of wall time; with the default (zero) budget nothing
  // samples.
  FaultRegistry::Get()->Arm(kFaultHookSlow, {FaultKind::kSlow, 1.0, -1});
  ASSERT_NO_FATAL_FAILURE(RunWorkload());
  EXPECT_GT(FaultRegistry::Get()->fires(kFaultHookSlow), 0u);
  EXPECT_EQ(monitor_->governor()->level(), LoadGovernor::kLevelFull);
  EXPECT_EQ(monitor_->metrics().events_sampled_out.value(), 0u);
  EXPECT_EQ(FeedCount(), kQueries);
  EXPECT_EQ(AuditRows(), static_cast<size_t>(kQueries));
}

TEST_F(GovernorIntegrationTest, SyncSamplingSkipsOnlyDeferrableRules) {
  Start(SamplingOptions(/*async=*/false));
  monitor_->governor()->ForceLevel(LoadGovernor::kLevelSampleEvents);
  ASSERT_NO_FATAL_FAILURE(RunWorkload());
  // Inline rules saw every event: every runaway was cancelled (checked in
  // RunWorkload) and every committed query was audited.
  EXPECT_EQ(AuditRows(), static_cast<size_t>(kQueries));
  // The deferrable feed saw exactly 1 in 2^sample_shift commits.
  constexpr int kKept = kQueries >> kSampleShift;
  EXPECT_EQ(FeedCount(), kKept);
  const auto& metrics = monitor_->metrics();
  EXPECT_EQ(metrics.events_sampled_out.value(),
            static_cast<uint64_t>(kQueries - kKept));
  EXPECT_EQ(metrics.queue_shed.value(), 0u);  // no deferred lane
}

TEST_F(GovernorIntegrationTest, AsyncSamplingShedsOnlyTheDeferredLane) {
  Start(SamplingOptions(/*async=*/true));
  monitor_->governor()->ForceLevel(LoadGovernor::kLevelSampleEvents);
  ASSERT_NO_FATAL_FAILURE(RunWorkload());
  monitor_->DrainEventQueue();
  EXPECT_EQ(AuditRows(), static_cast<size_t>(kQueries));
  constexpr int kKept = kQueries >> kSampleShift;
  EXPECT_EQ(FeedCount(), kKept);
  // queue.shed accounts for every commit the deferred lane did not get.
  const auto& metrics = monitor_->metrics();
  EXPECT_EQ(metrics.queue_enqueued.value(), static_cast<uint64_t>(kKept));
  EXPECT_EQ(metrics.queue_shed.value(),
            static_cast<uint64_t>(kQueries - kKept));
  EXPECT_EQ(metrics.queue_dropped.value(), 0u);
}

TEST_F(GovernorIntegrationTest, EachEventKindIsSampledOnItsOwnSequence) {
  // Every point query raises Query.Commit then Transaction.Commit. On one
  // shared sequence the two kinds would alias (one kind kept twice as
  // often, the other never); per kind, each deferrable rule keeps exactly
  // 1 in 2^sample_shift.
  Start(SamplingOptions(/*async=*/false));
  RuleSpec txn_feed;
  txn_feed.name = "txn_feed";
  txn_feed.event = "Transaction.Commit";
  txn_feed.action = "SendMail('committed', 'dba@example.com')";
  ASSERT_TRUE(monitor_->AddRule(txn_feed).ok());
  monitor_->governor()->ForceLevel(LoadGovernor::kLevelSampleEvents);
  ASSERT_NO_FATAL_FAILURE(RunWorkload());
  constexpr uint64_t kKept = kQueries >> kSampleShift;
  EXPECT_EQ(FeedCount(), static_cast<int64_t>(kKept));
  uint64_t txn_fires = 0;
  for (const auto& rule : monitor_->SnapshotRules()) {
    if (rule->name == "txn_feed") txn_fires = rule->stats.fires.value();
  }
  EXPECT_EQ(txn_fires, kKept);
  EXPECT_EQ(monitor_->capturing_mailer()->size(), kKept);
}

TEST_F(GovernorIntegrationTest, SlowHookFaultDrivesAnEnabledGovernor) {
  MonitorEngine::Options options = SamplingOptions(/*async=*/false);
  options.governor.overhead_budget = 0.05;
  options.governor.window_micros = 4000;
  options.governor.min_hooks_per_window = 2;
  Start(options);
  FaultRegistry::Get()->Arm(kFaultHookSlow, {FaultKind::kSlow, 1.0, -1});
  ASSERT_NO_FATAL_FAILURE(RunWorkload());
  EXPECT_GT(FaultRegistry::Get()->fires(kFaultHookSlow), 0u);
  EXPECT_EQ(monitor_->governor()->level(), LoadGovernor::kLevelSampleEvents);
  EXPECT_GT(monitor_->governor()->level_raises(), 0u);
  EXPECT_GT(monitor_->governor()->last_overhead_fraction(), 0.05);
  EXPECT_GT(monitor_->metrics().events_sampled_out.value(), 0u);
  EXPECT_EQ(AuditRows(), static_cast<size_t>(kQueries));
}

// ---------------------------------------------------------------------------
// Remaining injection points: LAT latch, action sink, sync log, view
// ---------------------------------------------------------------------------

using MiscFaultTest = FaultFixture;

TEST_F(MiscFaultTest, LatLatchStallCountsAsContention) {
  LatSpec spec;
  spec.name = "L";
  spec.object_class = MonitoredClass::kQuery;
  spec.group_by = {{"Logical_Signature", "Sig"}};
  spec.aggregates = {{LatAggFunc::kCount, "", "N", false}};
  auto lat = *Lat::Create(spec);

  QueryRecord rec;
  rec.logical_signature = "s";
  lat->Insert(&rec, 0);
  EXPECT_EQ(lat->stats().latch_contention.value(), 0u);

  FaultRegistry::Get()->Arm(kFaultLatLatch,
                            {FaultKind::kLatchStall, 1.0, /*max_fires=*/1});
  lat->Insert(&rec, 0);
  EXPECT_EQ(lat->stats().latch_contention.value(), 1u);
  EXPECT_EQ(lat->size(), 1u);  // the insert itself still succeeded
}

TEST_F(MiscFaultTest, ActionFileAppendFaultFailsTheSink) {
  const std::string path = ::testing::TempDir() + "/robustness_sink.log";
  std::remove(path.c_str());
  FileAppendingSink sink(path);
  ASSERT_TRUE(sink.SendMail("body", "dba@example.com").ok());

  FaultRegistry::Get()->Arm(kFaultActionAppend,
                            {FaultKind::kIOError, 1.0, -1});
  EXPECT_FALSE(sink.SendMail("body", "dba@example.com").ok());
  EXPECT_FALSE(sink.RunExternal("restat items").ok());
  FaultRegistry::Get()->Reset();
  // Only the pre-fault line landed.
  std::ifstream in(path);
  std::string line;
  size_t lines = 0;
  while (std::getline(in, line)) ++lines;
  EXPECT_EQ(lines, 1u);
  std::remove(path.c_str());
}

TEST_F(MiscFaultTest, SyncLogWriteFaultFailsAppendRow) {
  const std::string path = ::testing::TempDir() + "/robustness_synclog.csv";
  std::remove(path.c_str());
  auto writer = storage::SyncCsvWriter::Open(path, /*sync_every_row=*/true);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->AppendRow({Value::Int(1)}).ok());

  FaultRegistry::Get()->Arm(storage::kFaultSyncLogWrite,
                            {FaultKind::kIOError, 1.0, -1});
  EXPECT_FALSE((*writer)->AppendRow({Value::Int(2)}).ok());
  std::remove(path.c_str());
}

TEST_F(MiscFaultTest, FaultPointsViewShowsLiveCounters) {
  engine::Database db;
  MonitorEngine monitor(&db);
  auto session = db.CreateSession();

  FaultRegistry::Get()->Arm("storage.snapshot.write",
                            {FaultKind::kIOError, 0.25, 7});
  (void)FaultRegistry::Get()->Fire("storage.snapshot.write");

  auto result = session->Execute(
      "SELECT kind, probability, max_fires, hits FROM sqlcm_fault_points "
      "WHERE point = 'storage.snapshot.write'");
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->rows.size(), 1u);
  const Row& row = result->rows[0];
  EXPECT_EQ(row[0].string_value(), "io_error");
  EXPECT_DOUBLE_EQ(row[1].double_value(), 0.25);
  EXPECT_EQ(row[2].int_value(), 7);
  EXPECT_GE(row[3].int_value(), 1);
}

}  // namespace
}  // namespace sqlcm::cm
