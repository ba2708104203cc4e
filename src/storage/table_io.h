// Crash-safe CSV persist / restore for tables.
//
// Used for (a) persisting LAT contents across server restarts (paper §4.3:
// "it is possible to maintain LAT data over multiple restarts of the
// database server, by uploading the contents of a table to a specific LAT
// at database startup time") and (b) the Query_logging baseline's forced
// synchronous writes.
//
// Snapshot file format (docs/ROBUSTNESS.md):
//   #sqlcm-snapshot v=<2|3> crc=<8 hex digits> len=<body bytes>
//   <CSV header row>
//   <CSV data rows...>
// The CRC-32 and byte length cover everything after the header line, so a
// truncated or bit-flipped file is detected before any row is seeded.
// Writes go to `path.tmp` + fsync + atomic rename; the previous snapshot is
// rotated to `path.bak` first, and loads fall back to it when the primary
// is missing, truncated, corrupt, of another version than the reader asks
// for, or has no snapshot header.
#ifndef SQLCM_STORAGE_TABLE_IO_H_
#define SQLCM_STORAGE_TABLE_IO_H_

#include <string>
#include <string_view>

#include "common/clock.h"
#include "common/status.h"
#include "storage/table.h"

namespace sqlcm::storage {

/// Fault-injection point names honoured by this module (common/fault.h).
inline constexpr char kFaultSnapshotWrite[] = "storage.snapshot.write";
inline constexpr char kFaultSnapshotRead[] = "storage.snapshot.read";
inline constexpr char kFaultSyncLogWrite[] = "storage.synclog.write";

/// Snapshot container versions. The container layout (header + CRC + CSV
/// body) is identical for both; the version tags what the *rows* mean, and
/// a reader loads only the version it asks for:
///   v2  raw aggregation-state rows (moments + aging blocks; see
///       Lat::ExportState and docs/ROBUSTNESS.md)
///   v3  v2 plus per-sketch-aggregate `#sketch` cells (QUANTILE/DISTINCT
///       payloads) — written whenever the LAT has sketch aggregates, so a
///       v2 reader rejects the file instead of mis-indexing cells
inline constexpr int kSnapshotVersionV2 = 2;
inline constexpr int kSnapshotVersionV3 = 3;

/// Writes the full table to `path` as a checksummed snapshot tagged with
/// `version`. The write is atomic: content goes to `path.tmp` (fsync) and
/// is renamed over `path` only when complete, so a failure at any point
/// leaves the previous snapshot intact. An existing `path` is rotated to
/// `path.bak` first.
common::Status WriteTableCsv(const Table& table, const std::string& path,
                             int version);

/// Atomically replaces `path` with `content`: writes to `path.tmp`, fsyncs
/// and renames over `path` (then fsyncs the parent directory so the rename
/// itself is durable), so a reader never observes a partial file and a
/// crash immediately after publish cannot lose the entry. No .bak rotation
/// or snapshot header — this is the publish primitive for derived
/// artifacts regenerated wholesale (e.g. the Prometheus metrics exposition
/// dump) and for federation spool deltas, not for recoverable state with
/// history.
common::Status WriteFileAtomic(const std::string& path,
                               std::string_view content);

/// fsyncs the directory containing `path`, making a just-completed
/// rename/unlink of that entry durable. POSIX requires this extra step:
/// fsync of the file alone does not persist the directory entry.
common::Status FsyncParentDir(const std::string& path);

/// WriteTableCsv with bounded retry/backoff for transient failures:
/// up to `attempts` tries, sleeping `backoff_micros` (doubling each retry)
/// between them. `*retries` (optional) reports how many retries ran.
common::Status WriteTableCsvWithRetry(const Table& table,
                                      const std::string& path, int version,
                                      int attempts, int64_t backoff_micros,
                                      common::Clock* clock,
                                      int* retries = nullptr);

/// Outcome detail for LoadTableCsv: whether the last-good fallback
/// snapshot was used and why the primary was rejected.
struct SnapshotLoadInfo {
  bool used_fallback = false;
  std::string primary_error;  // set when used_fallback is true
};

/// Loads rows from a snapshot file of `version` into `table`. Column order
/// in the file must match the table schema. The whole file is verified and
/// parsed before the first insert, so a corrupt file never half-loads; when
/// verification fails (including a file of another version, or one without
/// the snapshot header — InvalidArgument) `path.bak` is tried. Rows whose
/// primary key already exists are skipped (count reported via *skipped).
common::Status LoadTableCsv(Table* table, const std::string& path,
                            int version, size_t* skipped = nullptr,
                            SnapshotLoadInfo* info = nullptr);

/// Append-only CSV sink with optional per-row fsync; models the "forced
/// synchronous writes" of the Query_logging baseline (§6.2.2(a)).
class SyncCsvWriter {
 public:
  /// Opens `path` for appending (a crashed-and-restarted baseline keeps its
  /// prior log); pass `truncate=true` to start a fresh log instead.
  /// `sync_every_row` forces fdatasync per AppendRow.
  static common::Result<std::unique_ptr<SyncCsvWriter>> Open(
      const std::string& path, bool sync_every_row, bool truncate = false);

  ~SyncCsvWriter();
  SyncCsvWriter(const SyncCsvWriter&) = delete;
  SyncCsvWriter& operator=(const SyncCsvWriter&) = delete;

  common::Status AppendRow(const common::Row& row);
  common::Status Flush();

  size_t rows_written() const { return rows_written_; }

 private:
  SyncCsvWriter(int fd, bool sync_every_row)
      : fd_(fd), sync_every_row_(sync_every_row) {}

  int fd_;
  bool sync_every_row_;
  size_t rows_written_ = 0;
  std::string buffer_;
};

}  // namespace sqlcm::storage

#endif  // SQLCM_STORAGE_TABLE_IO_H_
