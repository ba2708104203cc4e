#include "storage/table_io.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <vector>

#include "common/crc32.h"
#include "common/fault.h"
#include "common/string_util.h"

namespace sqlcm::storage {

using common::CsvEscape;
using common::CsvParseLine;
using common::CsvRecordComplete;
using common::FaultKind;
using common::FaultRegistry;
using common::Result;
using common::Row;
using common::Status;
using common::Value;

namespace {

constexpr std::string_view kSnapshotMagic = "#sqlcm-snapshot";

std::string RowToCsv(const Row& row) {
  std::string line;
  for (size_t i = 0; i < row.size(); ++i) {
    if (i > 0) line += ',';
    // Strings are written raw (CSV-escaped), other values via ToString().
    const Value& v = row[i];
    line += CsvEscape(v.is_string() ? v.string_value() : v.ToString());
  }
  line += '\n';
  return line;
}

/// CSV body of the table: header row of column names, then every row.
std::string TableToCsvBody(const Table& table) {
  std::string body;
  const auto& schema = table.schema();
  for (size_t i = 0; i < schema.num_columns(); ++i) {
    if (i > 0) body += ',';
    body += CsvEscape(schema.column(i).name);
  }
  body += '\n';
  std::optional<Row> after;
  std::vector<Row> keys, rows;
  for (;;) {
    keys.clear();
    rows.clear();
    if (table.ScanBatch(after, 1024, &keys, &rows) == 0) break;
    for (const Row& row : rows) body += RowToCsv(row);
    after = keys.back();
  }
  return body;
}

Status WriteAll(int fd, std::string_view data, const std::string& path) {
  size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::write(fd, data.data() + off, data.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError("write('" + path +
                             "'): " + std::strerror(errno));
    }
    off += static_cast<size_t>(n);
  }
  return Status::OK();
}

/// Reads one logical CSV record: physical lines are joined (with their
/// newlines restored) until every opened quote is closed.
bool ReadCsvRecord(std::istream& in, std::string* record) {
  if (!std::getline(in, *record)) return false;
  while (!CsvRecordComplete(*record)) {
    std::string next;
    if (!std::getline(in, next)) break;  // unterminated quote: caller decides
    *record += '\n';
    *record += next;
  }
  return true;
}

/// Fully parses and validates a snapshot file of `version` into rows
/// matching `table`'s schema. Nothing is inserted here, so a corrupt file
/// can be rejected wholesale and a fallback tried.
Status ParseSnapshotFile(const Table& table, const std::string& path,
                         int version, std::vector<Row>* out) {
  if (FaultRegistry::Get()->Fire(kFaultSnapshotRead)) {
    return Status::IOError("fault injected: read of '" + path + "' failed");
  }
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::IOError("cannot open '" + path + "' for reading");
  }
  std::string line;
  if (!std::getline(in, line)) {
    return Status::IOError("'" + path + "' is empty (missing header)");
  }

  if (!common::StartsWith(line, kSnapshotMagic)) {
    return Status::InvalidArgument("'" + path + "' has no snapshot header");
  }
  // "#sqlcm-snapshot v=2 crc=xxxxxxxx len=123"
  int file_version = -1;
  unsigned long crc = 0;
  unsigned long long len = 0;
  if (std::sscanf(line.c_str(), "#sqlcm-snapshot v=%d crc=%8lx len=%llu",
                  &file_version, &crc, &len) != 3) {
    return Status::IOError("'" + path + "' has a malformed snapshot header");
  }
  if (file_version != version) {
    return Status::InvalidArgument(
        "'" + path + "' is a v" + std::to_string(file_version) +
        " snapshot; expected v" + std::to_string(version));
  }
  std::ostringstream rest;
  rest << in.rdbuf();
  const std::string body = rest.str();
  if (body.size() != len) {
    return Status::IOError(
        "'" + path + "' is truncated: header says " + std::to_string(len) +
        " body bytes, file has " + std::to_string(body.size()));
  }
  const uint32_t actual = common::Crc32(body);
  if (actual != static_cast<uint32_t>(crc)) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "crc mismatch: header %08lx, body %08x",
                  crc, actual);
    return Status::IOError("'" + path + "' is corrupt (" + buf + ")");
  }

  std::istringstream body_in(body);
  std::string record;
  if (!ReadCsvRecord(body_in, &record)) {
    return Status::IOError("'" + path + "' is empty (missing header)");
  }
  const auto header = CsvParseLine(record);
  const auto& schema = table.schema();
  if (header.size() != schema.num_columns()) {
    return Status::InvalidArgument(
        "'" + path + "' has " + std::to_string(header.size()) +
        " columns, table '" + table.name() + "' has " +
        std::to_string(schema.num_columns()));
  }
  size_t record_no = 1;
  while (ReadCsvRecord(body_in, &record)) {
    ++record_no;
    if (record.empty()) continue;
    if (!CsvRecordComplete(record)) {
      return Status::ParseError("'" + path + "' record " +
                                std::to_string(record_no) +
                                ": unterminated quoted field");
    }
    const auto fields = CsvParseLine(record);
    if (fields.size() != schema.num_columns()) {
      return Status::ParseError("'" + path + "' record " +
                                std::to_string(record_no) + ": wrong arity");
    }
    Row row;
    row.reserve(fields.size());
    for (size_t i = 0; i < fields.size(); ++i) {
      SQLCM_ASSIGN_OR_RETURN(
          auto v, catalog::ParseValueText(fields[i], schema.column(i).type));
      row.push_back(std::move(v));
    }
    out->push_back(std::move(row));
  }
  return Status::OK();
}

}  // namespace

Status FsyncParentDir(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : (slash == 0 ? "/" : path.substr(0, slash));
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) {
    return Status::IOError("open('" + dir + "'): " + std::strerror(errno));
  }
  Status status;
  if (::fsync(fd) != 0) {
    status = Status::IOError("fsync('" + dir + "'): " + std::strerror(errno));
  }
  ::close(fd);
  return status;
}

Status WriteFileAtomic(const std::string& path, std::string_view content) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::IOError("open('" + tmp + "'): " + std::strerror(errno));
  }
  Status write_status = WriteAll(fd, content, tmp);
  if (write_status.ok() && ::fsync(fd) != 0) {
    write_status =
        Status::IOError("fsync('" + tmp + "'): " + std::strerror(errno));
  }
  ::close(fd);
  if (!write_status.ok()) {
    ::unlink(tmp.c_str());
    return write_status;
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    return Status::IOError("rename('" + tmp + "' -> '" + path +
                           "'): " + std::strerror(errno));
  }
  // Without this the rename may still sit only in the directory's page
  // cache: a crash right after publish could lose the new entry (or, for
  // spool files, the whole delta) even though the data blocks are durable.
  return FsyncParentDir(path);
}

Status WriteTableCsv(const Table& table, const std::string& path,
                     int version) {
  if (version < kSnapshotVersionV2 || version > kSnapshotVersionV3) {
    return Status::InvalidArgument("unsupported snapshot version " +
                                   std::to_string(version));
  }
  const FaultKind fault = FaultRegistry::Get()->FireKind(kFaultSnapshotWrite);
  if (fault == FaultKind::kIOError) {
    // Failure before any byte reaches disk; destination left untouched.
    return Status::IOError("fault injected: write of '" + path + "' failed");
  }

  std::string body = TableToCsvBody(table);
  char header[64];
  std::snprintf(header, sizeof(header), "%s v=%d crc=%08x len=%zu\n",
                std::string(kSnapshotMagic).c_str(), version,
                common::Crc32(body), body.size());

  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::IOError("open('" + tmp + "'): " + std::strerror(errno));
  }
  if (fault == FaultKind::kShortWrite) {
    // Torn write: half the payload lands, then the "disk" fails. The tmp
    // file is left behind exactly as a crashed writer would leave it.
    (void)WriteAll(fd, std::string(header) + body.substr(0, body.size() / 2),
                   tmp);
    ::close(fd);
    return Status::IOError("fault injected: short write to '" + tmp + "'");
  }
  Status write_status = WriteAll(fd, header, tmp);
  if (write_status.ok()) write_status = WriteAll(fd, body, tmp);
  if (write_status.ok() && ::fsync(fd) != 0) {
    write_status =
        Status::IOError("fsync('" + tmp + "'): " + std::strerror(errno));
  }
  ::close(fd);
  if (!write_status.ok()) {
    ::unlink(tmp.c_str());
    return write_status;
  }
  if (fault == FaultKind::kCrashRename) {
    // The durable tmp exists but the process "crashed" before publishing
    // it; the previous snapshot at `path` remains the valid one.
    return Status::IOError("fault injected: crash before rename of '" + tmp +
                           "'");
  }
  // Rotate the previous good snapshot to .bak, then publish atomically.
  // (A crash between the two renames leaves only .bak, which LoadTableCsv
  // falls back to.)
  if (::access(path.c_str(), F_OK) == 0) {
    const std::string bak = path + ".bak";
    if (::rename(path.c_str(), bak.c_str()) != 0) {
      return Status::IOError("rename('" + path + "' -> '" + bak +
                             "'): " + std::strerror(errno));
    }
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    return Status::IOError("rename('" + tmp + "' -> '" + path +
                           "'): " + std::strerror(errno));
  }
  // Make both renames (the .bak rotation and the publish) durable; a crash
  // after a non-synced rename could otherwise roll the directory back to a
  // state where neither the new snapshot nor the rotated .bak survives.
  return FsyncParentDir(path);
}

Status WriteTableCsvWithRetry(const Table& table, const std::string& path,
                              int version, int attempts,
                              int64_t backoff_micros, common::Clock* clock,
                              int* retries) {
  if (retries != nullptr) *retries = 0;
  Status status;
  int64_t backoff = backoff_micros;
  for (int attempt = 0; attempt < std::max(1, attempts); ++attempt) {
    if (attempt > 0) {
      if (retries != nullptr) ++*retries;
      if (clock != nullptr && backoff > 0) clock->SleepMicros(backoff);
      backoff *= 2;
    }
    status = WriteTableCsv(table, path, version);
    if (status.ok()) return status;
  }
  return status;
}

Status LoadTableCsv(Table* table, const std::string& path, int version,
                    size_t* skipped, SnapshotLoadInfo* info) {
  std::vector<Row> rows;
  Status status = ParseSnapshotFile(*table, path, version, &rows);
  if (!status.ok()) {
    // Primary unusable; fall back to the last good rotated snapshot.
    const std::string bak = path + ".bak";
    std::vector<Row> bak_rows;
    if (::access(bak.c_str(), F_OK) == 0 &&
        ParseSnapshotFile(*table, bak, version, &bak_rows).ok()) {
      rows = std::move(bak_rows);
      if (info != nullptr) {
        info->used_fallback = true;
        info->primary_error = status.ToString();
      }
    } else {
      return status;
    }
  }
  size_t skipped_local = 0;
  for (Row& row : rows) {
    auto result = table->Insert(std::move(row));
    if (!result.ok()) {
      if (result.status().IsAlreadyExists()) {
        ++skipped_local;
        continue;
      }
      return result.status();
    }
  }
  if (skipped != nullptr) *skipped = skipped_local;
  return Status::OK();
}

Result<std::unique_ptr<SyncCsvWriter>> SyncCsvWriter::Open(
    const std::string& path, bool sync_every_row, bool truncate) {
  const int flags = O_WRONLY | O_CREAT | (truncate ? O_TRUNC : O_APPEND);
  const int fd = ::open(path.c_str(), flags, 0644);
  if (fd < 0) {
    return Status::IOError("open('" + path + "'): " + std::strerror(errno));
  }
  return std::unique_ptr<SyncCsvWriter>(new SyncCsvWriter(fd, sync_every_row));
}

SyncCsvWriter::~SyncCsvWriter() {
  if (fd_ >= 0) {
    Flush();
    ::close(fd_);
  }
}

Status SyncCsvWriter::AppendRow(const Row& row) {
  buffer_ += RowToCsv(row);
  ++rows_written_;
  if (sync_every_row_ || buffer_.size() > (1u << 16)) {
    SQLCM_RETURN_IF_ERROR(Flush());
    if (sync_every_row_ && ::fdatasync(fd_) != 0) {
      return Status::IOError(std::string("fdatasync: ") + std::strerror(errno));
    }
  }
  return Status::OK();
}

Status SyncCsvWriter::Flush() {
  if (FaultRegistry::Get()->Fire(kFaultSyncLogWrite)) {
    return Status::IOError("fault injected: sync-log write failed");
  }
  size_t off = 0;
  while (off < buffer_.size()) {
    const ssize_t n = ::write(fd_, buffer_.data() + off, buffer_.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(std::string("write: ") + std::strerror(errno));
    }
    off += static_cast<size_t>(n);
  }
  buffer_.clear();
  return Status::OK();
}

}  // namespace sqlcm::storage
