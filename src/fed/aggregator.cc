#include "fed/aggregator.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>

#include "common/fault.h"
#include "common/string_util.h"
#include "storage/table_io.h"

namespace sqlcm::fed {

using common::Result;
using common::Row;
using common::Status;

namespace {

constexpr char kCheckpointMagic[] = "#sqlcm-fedckpt";
constexpr char kJournalEntryPrefix[] = "#entry len=";

Status EnsureDir(const std::string& dir) {
  if (::mkdir(dir.c_str(), 0755) == 0 || errno == EEXIST) return Status::OK();
  return Status::IOError("mkdir('" + dir + "'): " + std::strerror(errno));
}

Result<int64_t> ParseInt64(std::string_view s, const char* what) {
  int64_t value = 0;
  bool negative = false;
  size_t i = 0;
  if (i < s.size() && s[i] == '-') {
    negative = true;
    ++i;
  }
  if (i >= s.size()) {
    return Status::ParseError(std::string("empty ") + what);
  }
  for (; i < s.size(); ++i) {
    if (s[i] < '0' || s[i] > '9') {
      return Status::ParseError(std::string("bad ") + what + ": '" +
                                std::string(s) + "'");
    }
    value = value * 10 + (s[i] - '0');
  }
  return negative ? -value : value;
}

/// `key=value` field extractor over a space-separated line.
std::optional<std::string_view> FieldAfter(std::string_view line,
                                           std::string_view key) {
  size_t pos = 0;
  while (pos < line.size()) {
    const size_t end = line.find(' ', pos);
    const std::string_view field =
        line.substr(pos, end == std::string_view::npos ? end : end - pos);
    if (field.size() > key.size() &&
        field.substr(0, key.size()) == key && field[key.size()] == '=') {
      return field.substr(key.size() + 1);
    }
    if (end == std::string_view::npos) break;
    pos = end + 1;
  }
  return std::nullopt;
}

/// Pulls node= out of a payload that failed full decoding, so decode
/// failures can still be attributed to a peer when the line survived.
std::string BestEffortNodeId(std::string_view payload) {
  size_t pos = payload.find("\nnode=");
  if (pos == std::string_view::npos) return "";
  pos += 6;
  const size_t end = payload.find('\n', pos);
  auto unescaped = UnescapeFedText(payload.substr(
      pos, end == std::string_view::npos ? end : end - pos));
  return unescaped.ok() ? *unescaped : "";
}

}  // namespace

void FleetAggregator::PeerState::MarkApplied(int64_t epoch) {
  if (epoch <= hwm) return;
  if (epoch != hwm + 1) {
    applied_above.insert(epoch);
    return;
  }
  hwm = epoch;
  auto it = applied_above.begin();
  while (it != applied_above.end() && *it == hwm + 1) {
    hwm = *it;
    it = applied_above.erase(it);
  }
}

FleetAggregator::FleetAggregator(Options options,
                                 std::vector<cm::Lat*> fleet_lats)
    : options_(std::move(options)),
      clock_(options_.clock != nullptr ? options_.clock
                                       : common::SystemClock::Get()) {
  lats_.reserve(fleet_lats.size());
  for (cm::Lat* lat : fleet_lats) lats_.push_back({lat});
}

FleetAggregator::~FleetAggregator() {
  if (journal_fd_ >= 0) ::close(journal_fd_);
}

Result<std::unique_ptr<FleetAggregator>> FleetAggregator::Open(
    Options options, std::vector<cm::Lat*> fleet_lats) {
  if (options.dir.empty()) {
    return Status::InvalidArgument("fleet aggregator needs a directory");
  }
  auto agg = std::unique_ptr<FleetAggregator>(
      new FleetAggregator(std::move(options), std::move(fleet_lats)));
  SQLCM_RETURN_IF_ERROR(EnsureDir(agg->options_.dir));
  SQLCM_RETURN_IF_ERROR(agg->LoadCheckpoint());
  SQLCM_RETURN_IF_ERROR(agg->ReplayJournal());
  SQLCM_RETURN_IF_ERROR(agg->OpenJournal(/*truncate=*/false));
  return agg;
}

FleetAggregator::FleetLat* FleetAggregator::FindLat(std::string_view name) {
  for (FleetLat& fl : lats_) {
    if (fl.lat->name() == name) return &fl;
  }
  return nullptr;
}

Status FleetAggregator::Ingest(std::string_view payload) {
  const int64_t start_micros = clock_->NowMicros();
  if (common::FaultFires(kFaultFedIngest)) {
    return Status::IOError("fault injected: fleet ingest");
  }
  Result<Delta> delta = DecodeDelta(payload);
  if (!delta.ok()) {
    stats_.decode_failures.Inc();
    const std::string node = BestEffortNodeId(payload);
    if (!node.empty()) ++peers_[node].decode_failures;
    return delta.status();
  }
  SQLCM_RETURN_IF_ERROR(ApplyDelta(*delta, /*replay=*/false, payload));
  const int64_t end_micros = clock_->NowMicros();
  stats_.ingest_micros.Record(end_micros - start_micros);
  if (options_.spans != nullptr && options_.spans->enabled()) {
    obs::Span span;
    span.span_id = span_seq_.fetch_add(1, std::memory_order_relaxed) + 1;
    span.ref = common::Fnv1a64(delta->node_id);
    span.start_nanos = start_micros * 1000;
    span.duration_nanos = (end_micros - start_micros) * 1000;
    span.kind = obs::SpanKind::kIngest;
    span.detail = static_cast<uint8_t>(delta->lats.size());
    options_.spans->Record(span);
  }
  return Status::OK();
}

Status FleetAggregator::ApplyDelta(const Delta& delta, bool replay,
                                   std::string_view payload) {
  const int64_t now_micros = clock_->NowMicros();
  PeerState& peer = peers_[delta.node_id];
  // Restart detection runs before dedup: a new incarnation is health
  // signal even when its first delta is a duplicate epoch number.
  if (delta.incarnation != 0) {
    if (peer.incarnation != 0 && peer.incarnation != delta.incarnation) {
      ++peer.restarts;
      stats_.node_restarts.Inc();
    }
    peer.incarnation = delta.incarnation;
  }
  if (peer.Seen(delta.epoch)) {
    // Exactly-once effect: a re-send (lost ack, sender crash) or an
    // already-applied reorder acknowledges without touching any LAT.
    ++peer.duplicates;
    stats_.duplicates.Inc();
    if (!replay) peer.last_ingest_micros = now_micros;
    return Status::OK();
  }
  if (!replay && options_.late_window_micros > 0 &&
      now_micros - delta.created_micros > options_.late_window_micros) {
    // Too old to merge honestly; ack it and remember it as applied so the
    // sender stops re-shipping. No journal entry needed — replaying the
    // drop would drop again.
    peer.MarkApplied(delta.epoch);
    peer.last_epoch = std::max(peer.last_epoch, delta.epoch);
    ++peer.late_dropped;
    stats_.late_dropped.Inc();
    peer.last_ingest_micros = now_micros;
    return Status::OK();
  }
  // Validation pass: check every record of every section before merging
  // anything, so a bad record can never leave the fleet LATs partially
  // updated; MergeState below then cannot fail.
  std::vector<std::pair<FleetLat*, std::vector<Row>>> staged;
  staged.reserve(delta.lats.size());
  for (const LatSection& section : delta.lats) {
    FleetLat* fl = FindLat(section.lat_name);
    if (fl == nullptr) {
      return Status::InvalidArgument("delta for unknown fleet LAT '" +
                                     section.lat_name + "'");
    }
    std::vector<Row> records;
    records.reserve(section.records.size());
    for (const DeltaRecord& record : section.records) {
      SQLCM_RETURN_IF_ERROR(fl->lat->CheckStateRecord(record.cells));
      records.push_back(record.cells);
    }
    staged.emplace_back(fl, std::move(records));
  }
  // Durability before effect: once journaled (fsync'd), the delta survives
  // an aggregator crash even though the ack races the merge.
  if (!replay) SQLCM_RETURN_IF_ERROR(AppendJournal(payload));
  for (auto& [fl, records] : staged) {
    SQLCM_RETURN_IF_ERROR(fl->lat->MergeState(records, now_micros));
    ++fl->deltas_applied;
    fl->records_merged += records.size();
    fl->last_ingest_micros = now_micros;
  }
  if (delta.epoch < peer.last_epoch) {
    ++peer.reorders;
    stats_.reorders.Inc();
  }
  peer.MarkApplied(delta.epoch);
  peer.last_epoch = std::max(peer.last_epoch, delta.epoch);
  ++peer.applied;
  if (!replay) peer.last_ingest_micros = now_micros;
  stats_.deltas_ingested.Inc();
  return Status::OK();
}

Status FleetAggregator::OpenJournal(bool truncate) {
  if (journal_fd_ >= 0) {
    ::close(journal_fd_);
    journal_fd_ = -1;
  }
  const int flags =
      O_WRONLY | O_CREAT | O_APPEND | (truncate ? O_TRUNC : 0);
  journal_fd_ = ::open(journal_path().c_str(), flags, 0644);
  if (journal_fd_ < 0) {
    return Status::IOError("open('" + journal_path() +
                           "'): " + std::strerror(errno));
  }
  return Status::OK();
}

Status FleetAggregator::AppendJournal(std::string_view payload) {
  std::string framed;
  framed.reserve(payload.size() + 32);
  framed.append(kJournalEntryPrefix);
  framed.append(std::to_string(payload.size()));
  framed.push_back('\n');
  framed.append(payload);
  framed.push_back('\n');
  size_t written = 0;
  while (written < framed.size()) {
    const ssize_t n = ::write(journal_fd_, framed.data() + written,
                              framed.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError("write('" + journal_path() +
                             "'): " + std::strerror(errno));
    }
    written += static_cast<size_t>(n);
  }
  if (::fsync(journal_fd_) != 0) {
    return Status::IOError("fsync('" + journal_path() +
                           "'): " + std::strerror(errno));
  }
  stats_.journal_appends.Inc();
  return Status::OK();
}

Status FleetAggregator::ReplayJournal() {
  std::ifstream in(journal_path(), std::ios::binary);
  if (!in.is_open()) return Status::OK();  // no journal yet
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) {
    return Status::IOError("read('" + journal_path() + "') failed");
  }
  const std::string content = buffer.str();
  const size_t prefix_len = sizeof(kJournalEntryPrefix) - 1;
  size_t pos = 0;
  while (pos < content.size()) {
    const size_t header_end = content.find('\n', pos);
    if (header_end == std::string::npos ||
        content.compare(pos, prefix_len, kJournalEntryPrefix) != 0) {
      break;  // torn tail from a crashed append: everything before it holds
    }
    auto len = ParseInt64(
        std::string_view(content).substr(pos + prefix_len,
                                         header_end - pos - prefix_len),
        "journal frame length");
    if (!len.ok() || *len < 0) break;
    const size_t body_start = header_end + 1;
    if (body_start + static_cast<size_t>(*len) > content.size()) break;
    const std::string_view payload =
        std::string_view(content).substr(body_start,
                                         static_cast<size_t>(*len));
    pos = body_start + static_cast<size_t>(*len);
    if (pos < content.size() && content[pos] == '\n') ++pos;
    Result<Delta> delta = DecodeDelta(payload);
    if (!delta.ok()) {
      // A framed-but-corrupt entry: skip it, keep replaying later entries.
      stats_.decode_failures.Inc();
      continue;
    }
    SQLCM_RETURN_IF_ERROR(ApplyDelta(*delta, /*replay=*/true, {}));
  }
  return Status::OK();
}

Status FleetAggregator::Checkpoint() {
  const int64_t now_micros = clock_->NowMicros();
  std::string body;
  body.append("ts=").append(std::to_string(now_micros)).push_back('\n');
  for (const auto& [node_id, peer] : peers_) {
    body.append("peer=").append(EscapeFedText(node_id));
    body.append(" hwm=").append(std::to_string(peer.hwm));
    body.append(" last=").append(std::to_string(peer.last_epoch));
    body.append(" ingest=").append(std::to_string(peer.last_ingest_micros));
    body.append(" applied=").append(std::to_string(peer.applied));
    body.append(" dup=").append(std::to_string(peer.duplicates));
    body.append(" reorder=").append(std::to_string(peer.reorders));
    body.append(" late=").append(std::to_string(peer.late_dropped));
    body.append(" decode=").append(std::to_string(peer.decode_failures));
    body.append(" inc=").append(std::to_string(peer.incarnation));
    body.append(" restarts=").append(std::to_string(peer.restarts));
    body.append(" above=");
    if (peer.applied_above.empty()) {
      body.push_back('-');
    } else {
      bool first = true;
      for (const int64_t epoch : peer.applied_above) {
        if (!first) body.push_back('|');
        body.append(std::to_string(epoch));
        first = false;
      }
    }
    body.push_back('\n');
  }
  // Embedded fleet state: one mode-F record per group, same container the
  // nodes ship, so restore is just MergeState into empty LATs.
  Delta state;
  state.node_id = "fleet";
  state.created_micros = now_micros;
  for (FleetLat& fl : lats_) {
    LatSection section;
    section.lat_name = fl.lat->name();
    for (Row& record : fl.lat->ExportState()) {
      section.records.push_back(
          {cm::Lat::StateDeltaMode::kFresh, std::move(record)});
    }
    if (!section.records.empty()) state.lats.push_back(std::move(section));
  }
  const std::string encoded = EncodeDelta(state);
  body.append("state len=").append(std::to_string(encoded.size()));
  body.push_back('\n');
  body.append(encoded);
  SQLCM_RETURN_IF_ERROR(storage::WriteFileAtomic(
      checkpoint_path(), WrapChecksummed(kCheckpointMagic, body)));
  // The checkpoint covers every journaled entry (journal before apply,
  // apply before checkpoint), so the journal can restart empty. A crash
  // between the two steps merely replays entries the peer marks dedup.
  SQLCM_RETURN_IF_ERROR(OpenJournal(/*truncate=*/true));
  stats_.checkpoints.Inc();
  return Status::OK();
}

Status FleetAggregator::LoadCheckpoint() {
  std::ifstream in(checkpoint_path(), std::ios::binary);
  if (!in.is_open()) return Status::OK();  // first boot
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) {
    return Status::IOError("read('" + checkpoint_path() + "') failed");
  }
  const std::string content = buffer.str();
  SQLCM_ASSIGN_OR_RETURN(std::string_view body,
                         UnwrapChecksummed(kCheckpointMagic, content));
  size_t pos = 0;
  while (pos < body.size()) {
    const size_t eol = body.find('\n', pos);
    const std::string_view line =
        body.substr(pos, eol == std::string_view::npos ? eol : eol - pos);
    pos = eol == std::string_view::npos ? body.size() : eol + 1;
    if (line.substr(0, 5) == "peer=") {
      auto id_field = FieldAfter(line, "peer");
      if (!id_field) return Status::ParseError("checkpoint peer line");
      SQLCM_ASSIGN_OR_RETURN(const std::string node_id,
                             UnescapeFedText(*id_field));
      PeerState& peer = peers_[node_id];
      const struct {
        const char* key;
        int64_t* i64 = nullptr;
        uint64_t* u64 = nullptr;
      } fields[] = {
          {"hwm", &peer.hwm},
          {"last", &peer.last_epoch},
          {"ingest", &peer.last_ingest_micros},
          {"applied", nullptr, &peer.applied},
          {"dup", nullptr, &peer.duplicates},
          {"reorder", nullptr, &peer.reorders},
          {"late", nullptr, &peer.late_dropped},
          {"decode", nullptr, &peer.decode_failures},
      };
      for (const auto& f : fields) {
        auto field = FieldAfter(line, f.key);
        if (!field) {
          return Status::ParseError(std::string("checkpoint peer field ") +
                                    f.key);
        }
        SQLCM_ASSIGN_OR_RETURN(const int64_t value,
                               ParseInt64(*field, f.key));
        if (f.i64 != nullptr) *f.i64 = value;
        if (f.u64 != nullptr) *f.u64 = static_cast<uint64_t>(value);
      }
      // Incarnation fields are optional: checkpoints written before the
      // nonce existed simply leave them at their zero defaults.
      if (auto inc = FieldAfter(line, "inc")) {
        SQLCM_ASSIGN_OR_RETURN(peer.incarnation, ParseInt64(*inc, "inc"));
      }
      if (auto restarts = FieldAfter(line, "restarts")) {
        SQLCM_ASSIGN_OR_RETURN(const int64_t value,
                               ParseInt64(*restarts, "restarts"));
        peer.restarts = static_cast<uint64_t>(value);
      }
      auto above = FieldAfter(line, "above");
      if (!above) return Status::ParseError("checkpoint peer above field");
      if (*above != "-") {
        std::string_view rest = *above;
        while (!rest.empty()) {
          const size_t bar = rest.find('|');
          SQLCM_ASSIGN_OR_RETURN(
              const int64_t epoch,
              ParseInt64(rest.substr(0, bar), "above epoch"));
          peer.applied_above.insert(epoch);
          if (bar == std::string_view::npos) break;
          rest = rest.substr(bar + 1);
        }
      }
      continue;
    }
    if (line.substr(0, 10) == "state len=") {
      SQLCM_ASSIGN_OR_RETURN(const int64_t len,
                             ParseInt64(line.substr(10), "state length"));
      if (len < 0 || pos + static_cast<size_t>(len) > body.size()) {
        return Status::ParseError("checkpoint state truncated");
      }
      SQLCM_ASSIGN_OR_RETURN(
          Delta state, DecodeDelta(body.substr(pos, static_cast<size_t>(len))));
      const int64_t now_micros = clock_->NowMicros();
      for (LatSection& section : state.lats) {
        FleetLat* fl = FindLat(section.lat_name);
        if (fl == nullptr) continue;  // LAT retired since the checkpoint
        std::vector<Row> records;
        records.reserve(section.records.size());
        for (DeltaRecord& record : section.records) {
          records.push_back(std::move(record.cells));
        }
        SQLCM_RETURN_IF_ERROR(fl->lat->MergeState(records, now_micros));
      }
      pos += static_cast<size_t>(len);
    }
  }
  return Status::OK();
}

std::vector<NodeHealth> FleetAggregator::SnapshotNodes() const {
  const int64_t now_micros = clock_->NowMicros();
  std::vector<NodeHealth> out;
  out.reserve(peers_.size());
  for (const auto& [node_id, peer] : peers_) {
    NodeHealth health;
    health.node_id = node_id;
    health.last_epoch = peer.last_epoch;
    health.hwm = peer.hwm;
    health.lag_micros = now_micros - peer.last_ingest_micros;
    health.applied = peer.applied;
    health.duplicates = peer.duplicates;
    health.reorders = peer.reorders;
    health.late_dropped = peer.late_dropped;
    health.decode_failures = peer.decode_failures;
    health.restarts = peer.restarts;
    health.state = health.lag_micros > options_.dead_after_micros ? "dead"
                   : health.lag_micros > options_.stale_after_micros
                       ? "stale"
                       : "up";
    out.push_back(std::move(health));
  }
  return out;
}

std::vector<FleetLatStats> FleetAggregator::SnapshotLats() const {
  std::vector<FleetLatStats> out;
  out.reserve(lats_.size());
  for (const FleetLat& fl : lats_) {
    FleetLatStats stats;
    stats.lat = fl.lat->name();
    stats.rows = static_cast<int64_t>(fl.lat->size());
    stats.deltas_applied = fl.deltas_applied;
    stats.records_merged = fl.records_merged;
    stats.last_ingest_micros = fl.last_ingest_micros;
    out.push_back(std::move(stats));
  }
  return out;
}

void FleetAggregator::RegisterMetrics(obs::MetricsRegistry* registry) const {
  registry->RegisterCounter("fed.agg.deltas_ingested",
                            &stats_.deltas_ingested);
  registry->RegisterCounter("fed.agg.duplicates", &stats_.duplicates);
  registry->RegisterCounter("fed.agg.reorders", &stats_.reorders);
  registry->RegisterCounter("fed.agg.late_dropped", &stats_.late_dropped);
  registry->RegisterCounter("fed.agg.decode_failures",
                            &stats_.decode_failures);
  registry->RegisterCounter("fed.agg.node_restarts",
                            &stats_.node_restarts);
  registry->RegisterCounter("fed.agg.journal_appends",
                            &stats_.journal_appends);
  registry->RegisterCounter("fed.agg.checkpoints", &stats_.checkpoints);
  registry->RegisterHistogram("fed.agg.ingest", &stats_.ingest_micros);
}

}  // namespace sqlcm::fed
