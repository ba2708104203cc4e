#include "storage/table.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "storage/catalog.h"
#include "storage/table_io.h"

namespace sqlcm::storage {
namespace {

using common::Row;
using common::Value;

catalog::TableSchema MakeSchema() {
  auto schema = catalog::TableSchema::Create(
      "t",
      {{"id", catalog::ColumnType::kInt},
       {"name", catalog::ColumnType::kString},
       {"score", catalog::ColumnType::kDouble}},
      {"id"});
  EXPECT_TRUE(schema.ok());
  return std::move(schema).value();
}

Row MakeRow(int64_t id, const std::string& name, double score) {
  return {Value::Int(id), Value::String(name), Value::Double(score)};
}

TEST(TableTest, InsertGetDelete) {
  Table table(1, MakeSchema());
  auto key = table.Insert(MakeRow(1, "a", 1.5));
  ASSERT_TRUE(key.ok());
  EXPECT_EQ((*key)[0].int_value(), 1);
  EXPECT_EQ(table.row_count(), 1u);

  auto row = table.Get(*key);
  ASSERT_TRUE(row.has_value());
  EXPECT_EQ((*row)[1].string_value(), "a");

  auto old_row = table.Delete(*key);
  ASSERT_TRUE(old_row.ok());
  EXPECT_EQ(table.row_count(), 0u);
  EXPECT_FALSE(table.Get(*key).has_value());
}

TEST(TableTest, DuplicateKeyRejected) {
  Table table(1, MakeSchema());
  ASSERT_TRUE(table.Insert(MakeRow(1, "a", 0)).ok());
  auto dup = table.Insert(MakeRow(1, "b", 0));
  ASSERT_FALSE(dup.ok());
  EXPECT_TRUE(dup.status().IsAlreadyExists());
}

TEST(TableTest, TypeValidationAndCoercion) {
  Table table(1, MakeSchema());
  // Int into FLOAT column widens.
  auto key = table.Insert({Value::Int(1), Value::String("a"), Value::Int(3)});
  ASSERT_TRUE(key.ok());
  EXPECT_TRUE(table.Get(*key)->at(2).is_double());
  // String into INT column fails.
  auto bad = table.Insert({Value::String("x"), Value::String("a"), Value::Int(0)});
  ASSERT_FALSE(bad.ok());
  EXPECT_TRUE(bad.status().IsTypeError());
  // NULL primary key fails.
  auto null_key = table.Insert({Value::Null(), Value::String("a"), Value::Int(0)});
  EXPECT_FALSE(null_key.ok());
  // Wrong arity fails.
  EXPECT_FALSE(table.Insert({Value::Int(2)}).ok());
}

TEST(TableTest, UpdateKeepsKeyAndMaintainsIndexes) {
  Table table(1, MakeSchema());
  ASSERT_TRUE(table.CreateIndex("by_name", {"name"}).ok());
  auto key = table.Insert(MakeRow(1, "old", 1.0));
  ASSERT_TRUE(key.ok());

  auto old_row = table.Update(*key, MakeRow(1, "new", 2.0));
  ASSERT_TRUE(old_row.ok());
  EXPECT_EQ((*old_row)[1].string_value(), "old");

  std::vector<Row> keys, rows;
  ASSERT_TRUE(
      table.IndexPrefixLookup("by_name", {Value::String("new")}, &keys, &rows)
          .ok());
  ASSERT_EQ(rows.size(), 1u);
  keys.clear();
  rows.clear();
  ASSERT_TRUE(
      table.IndexPrefixLookup("by_name", {Value::String("old")}, &keys, &rows)
          .ok());
  EXPECT_TRUE(rows.empty());

  // Changing the PK through Update is rejected.
  auto bad = table.Update(*key, MakeRow(99, "x", 0));
  ASSERT_FALSE(bad.ok());
  EXPECT_TRUE(bad.status().IsInvalidArgument());
}

TEST(TableTest, ImplicitRowidTables) {
  auto schema = catalog::TableSchema::Create(
      "log", {{"msg", catalog::ColumnType::kString}}, {});
  ASSERT_TRUE(schema.ok());
  Table table(2, std::move(*schema));
  EXPECT_TRUE(table.uses_implicit_rowid());
  auto k1 = table.Insert({Value::String("a")});
  auto k2 = table.Insert({Value::String("b")});
  ASSERT_TRUE(k1.ok());
  ASSERT_TRUE(k2.ok());
  EXPECT_LT((*k1)[0].int_value(), (*k2)[0].int_value());
}

TEST(TableTest, ScanBatchResumes) {
  Table table(1, MakeSchema());
  for (int64_t i = 0; i < 25; ++i) {
    ASSERT_TRUE(table.Insert(MakeRow(i, "r", 0)).ok());
  }
  std::optional<Row> after;
  std::vector<Row> keys, rows;
  int64_t seen = 0;
  for (;;) {
    keys.clear();
    rows.clear();
    if (table.ScanBatch(after, 10, &keys, &rows) == 0) break;
    for (const Row& key : keys) {
      EXPECT_EQ(key[0].int_value(), seen);
      ++seen;
    }
    after = keys.back();
  }
  EXPECT_EQ(seen, 25);
}

TEST(TableTest, SecondaryPrefixAndRangeLookup) {
  Table table(1, MakeSchema());
  ASSERT_TRUE(table.CreateIndex("by_name", {"name"}).ok());
  for (int64_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(
        table.Insert(MakeRow(i, i % 2 == 0 ? "even" : "odd", i * 1.0)).ok());
  }
  std::vector<Row> keys, rows;
  ASSERT_TRUE(
      table.IndexPrefixLookup("by_name", {Value::String("even")}, &keys, &rows)
          .ok());
  EXPECT_EQ(rows.size(), 5u);

  keys.clear();
  rows.clear();
  // Primary range on id in [3, 6].
  ASSERT_TRUE(table
                  .IndexRangeLookup("", Value::Int(3), Value::Int(6), &keys,
                                    &rows)
                  .ok());
  EXPECT_EQ(rows.size(), 4u);

  keys.clear();
  rows.clear();
  // Open-ended range.
  ASSERT_TRUE(
      table.IndexRangeLookup("", Value::Int(8), std::nullopt, &keys, &rows)
          .ok());
  EXPECT_EQ(rows.size(), 2u);

  EXPECT_TRUE(table.IndexPrefixLookup("nope", {}, &keys, &rows)
                  .IsNotFound());
}

TEST(TableTest, IndexBuildOverExistingData) {
  Table table(1, MakeSchema());
  for (int64_t i = 0; i < 20; ++i) {
    ASSERT_TRUE(table.Insert(MakeRow(i, "n" + std::to_string(i % 4), 0)).ok());
  }
  ASSERT_TRUE(table.CreateIndex("by_name", {"name"}).ok());
  std::vector<Row> keys, rows;
  ASSERT_TRUE(
      table.IndexPrefixLookup("by_name", {Value::String("n1")}, &keys, &rows)
          .ok());
  EXPECT_EQ(rows.size(), 5u);
  EXPECT_TRUE(table.CreateIndex("by_name", {"name"}).IsAlreadyExists());
}

TEST(TableTest, FindIndexOnColumn) {
  Table table(1, MakeSchema());
  ASSERT_TRUE(table.CreateIndex("by_name", {"name"}).ok());
  auto primary = table.FindIndexOnColumn(0);
  ASSERT_TRUE(primary.has_value());
  EXPECT_EQ(*primary, "");
  auto secondary = table.FindIndexOnColumn(1);
  ASSERT_TRUE(secondary.has_value());
  EXPECT_EQ(*secondary, "by_name");
  EXPECT_FALSE(table.FindIndexOnColumn(2).has_value());
}

TEST(CatalogTest, CreateGetDrop) {
  Catalog catalog;
  auto t1 = catalog.CreateTable(MakeSchema());
  ASSERT_TRUE(t1.ok());
  EXPECT_TRUE(catalog.CreateTable(MakeSchema()).status().IsAlreadyExists());
  EXPECT_EQ(catalog.GetTable("T"), *t1);  // case-insensitive
  EXPECT_EQ(catalog.GetTableById((*t1)->table_id()), *t1);
  ASSERT_TRUE(catalog.DropTable("t").ok());
  EXPECT_EQ(catalog.GetTable("t"), nullptr);
  EXPECT_TRUE(catalog.DropTable("t").IsNotFound());
}

TEST(TableIoTest, CsvRoundTrip) {
  Table table(1, MakeSchema());
  ASSERT_TRUE(table.Insert(MakeRow(1, "plain", 1.5)).ok());
  ASSERT_TRUE(table.Insert(MakeRow(2, "with,comma \"q\"", -2.0)).ok());

  const std::string path = ::testing::TempDir() + "/table_io_test.csv";
  ASSERT_TRUE(WriteTableCsv(table, path, kSnapshotVersionV2).ok());

  Table restored(2, MakeSchema());
  size_t skipped = 0;
  ASSERT_TRUE(
      LoadTableCsv(&restored, path, kSnapshotVersionV2, &skipped).ok());
  EXPECT_EQ(skipped, 0u);
  ASSERT_EQ(restored.row_count(), 2u);
  auto row = restored.Get({Value::Int(2)});
  ASSERT_TRUE(row.has_value());
  EXPECT_EQ((*row)[1].string_value(), "with,comma \"q\"");
  EXPECT_DOUBLE_EQ((*row)[2].double_value(), -2.0);

  // Loading again skips duplicates.
  ASSERT_TRUE(
      LoadTableCsv(&restored, path, kSnapshotVersionV2, &skipped).ok());
  EXPECT_EQ(skipped, 2u);
  std::remove(path.c_str());
}

TEST(TableIoTest, CsvRoundTripsEmbeddedNewlines) {
  Table table(1, MakeSchema());
  ASSERT_TRUE(table.Insert(MakeRow(1, "line one\nline two", 0.5)).ok());
  ASSERT_TRUE(table.Insert(MakeRow(2, "trailing\n", 1.0)).ok());
  ASSERT_TRUE(table.Insert(MakeRow(3, "quotes \"and\"\nbreaks, too", 2.0)).ok());

  const std::string path = ::testing::TempDir() + "/table_io_newline.csv";
  ASSERT_TRUE(WriteTableCsv(table, path, kSnapshotVersionV2).ok());

  Table restored(2, MakeSchema());
  ASSERT_TRUE(LoadTableCsv(&restored, path, kSnapshotVersionV2).ok());
  ASSERT_EQ(restored.row_count(), 3u);
  EXPECT_EQ((*restored.Get({Value::Int(1)}))[1].string_value(),
            "line one\nline two");
  EXPECT_EQ((*restored.Get({Value::Int(2)}))[1].string_value(), "trailing\n");
  EXPECT_EQ((*restored.Get({Value::Int(3)}))[1].string_value(),
            "quotes \"and\"\nbreaks, too");
  std::remove(path.c_str());
  std::remove((path + ".bak").c_str());
}

TEST(TableIoTest, SnapshotWritesHeaderAndRotatesBackup) {
  Table table(1, MakeSchema());
  ASSERT_TRUE(table.Insert(MakeRow(1, "first", 1.0)).ok());
  const std::string path = ::testing::TempDir() + "/table_io_rotate.csv";
  std::remove(path.c_str());
  std::remove((path + ".bak").c_str());
  ASSERT_TRUE(WriteTableCsv(table, path, kSnapshotVersionV2).ok());

  std::ifstream in(path);
  std::string header;
  ASSERT_TRUE(static_cast<bool>(std::getline(in, header)));
  EXPECT_EQ(header.rfind("#sqlcm-snapshot v=2 crc=", 0), 0u) << header;

  // A second write rotates the first snapshot to .bak.
  ASSERT_TRUE(table.Insert(MakeRow(2, "second", 2.0)).ok());
  ASSERT_TRUE(WriteTableCsv(table, path, kSnapshotVersionV2).ok());
  Table from_bak(2, MakeSchema());
  ASSERT_TRUE(
      LoadTableCsv(&from_bak, path + ".bak", kSnapshotVersionV2).ok());
  EXPECT_EQ(from_bak.row_count(), 1u);
  Table from_primary(3, MakeSchema());
  ASSERT_TRUE(LoadTableCsv(&from_primary, path, kSnapshotVersionV2).ok());
  EXPECT_EQ(from_primary.row_count(), 2u);
  std::remove(path.c_str());
  std::remove((path + ".bak").c_str());
}

TEST(TableIoTest, SyncCsvWriter) {
  const std::string path = ::testing::TempDir() + "/sync_writer_test.csv";
  auto writer = SyncCsvWriter::Open(path, /*sync_every_row=*/true);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->AppendRow({Value::Int(1), Value::String("x")}).ok());
  ASSERT_TRUE((*writer)->AppendRow({Value::Int(2), Value::String("y")}).ok());
  EXPECT_EQ((*writer)->rows_written(), 2u);
  writer->reset();

  std::ifstream in(path);
  std::string line;
  int lines = 0;
  while (std::getline(in, line)) ++lines;
  EXPECT_EQ(lines, 2);
  std::remove(path.c_str());
}

TEST(TableTest, Truncate) {
  Table table(1, MakeSchema());
  ASSERT_TRUE(table.CreateIndex("by_name", {"name"}).ok());
  for (int64_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(table.Insert(MakeRow(i, "x", 0)).ok());
  }
  table.Truncate();
  EXPECT_EQ(table.row_count(), 0u);
  std::vector<Row> keys, rows;
  ASSERT_TRUE(
      table.IndexPrefixLookup("by_name", {Value::String("x")}, &keys, &rows)
          .ok());
  EXPECT_TRUE(rows.empty());
}

}  // namespace
}  // namespace sqlcm::storage
