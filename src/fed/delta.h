// Federation delta container (docs/FEDERATION.md).
//
// A *delta* is one node's epoch-numbered shipment of LAT state changes: for
// every LAT the node exports, the state records (the rows Lat::ExportState
// returns — raw moments, aging-block deques and sketch payloads, the same
// records a v2/v3 checkpoint holds) whose additive
// moments are increments since the previous epoch's baseline, while the
// fold-stable fields (min/max/first/last/any) stay cumulative. Each record
// carries its Lat::StateDeltaMode so baseline repair after a crash knows
// whether to add or replace.
//
// Wire format (one file per epoch in the spool, one payload per send):
//   #sqlcm-fed v=1 crc=<8 hex> len=<body bytes>
//   node=<escaped id>
//   epoch=<n>
//   ts=<created micros>
//   lat=<escaped name> records=<m>
//   <I|F>,<cell>,<cell>,...          (m record lines)
//   ... further lat sections ...
// The CRC-32 and length cover everything after the header line, so a torn
// or bit-flipped delta is rejected before any record is decoded. Cells use
// a self-describing tagged codec (kind survives the round trip) with
// %-escaping of the delimiters, so framing never depends on payload text.
#ifndef SQLCM_FED_DELTA_H_
#define SQLCM_FED_DELTA_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "common/value.h"
#include "sqlcm/lat.h"

namespace sqlcm::fed {

inline constexpr char kFedMagic[] = "#sqlcm-fed";
inline constexpr int kFedVersion = 1;

/// One shipped state record: the full state-schema row (group cells, then
/// 9 codec cells per aggregate — 10 for sketch-bearing QUANTILE/DISTINCT
/// aggregates, whose `#sketch` cell ships the sketch codec payload) plus
/// how its additive moments relate to the baseline (incremental diff vs
/// cumulative fresh restart). Quantile sketch payloads are additive like
/// #sum (the delta carries bucket-count increments); DISTINCT payloads are
/// fold-stable like #min/#max (cumulative registers, duplicate-safe).
struct DeltaRecord {
  cm::Lat::StateDeltaMode mode = cm::Lat::StateDeltaMode::kIncremental;
  common::Row cells;
};

struct LatSection {
  std::string lat_name;
  std::vector<DeltaRecord> records;
};

struct Delta {
  std::string node_id;
  int64_t epoch = 0;
  int64_t created_micros = 0;
  /// Per-Open incarnation nonce of the shipping node (0 = unknown/legacy).
  /// A change between consecutive deltas from one node tells the
  /// aggregator the node restarted — even when a reset landed on counts
  /// identical to the baseline, which the delta arithmetic alone cannot
  /// detect (docs/FEDERATION.md §Reset detection).
  int64_t incarnation = 0;
  /// Empty for a pure heartbeat epoch (nothing changed; still ships so the
  /// aggregator's liveness tracking sees the node).
  std::vector<LatSection> lats;
};

std::string EncodeDelta(const Delta& delta);
/// Verifies the container (magic, version, CRC, length) and decodes every
/// record. ParseError is permanent: the sender quarantines rather than
/// retries a payload that fails here.
common::Result<Delta> DecodeDelta(std::string_view text);

// -- Shared primitives (also used by the aggregator checkpoint format) ----

/// %-escapes text so it can live in one comma/space/newline-framed field:
/// '%'->%25, ','->%2C, ' '->%20, '\n'->%0A, '\r'->%0D.
std::string EscapeFedText(std::string_view s);
common::Result<std::string> UnescapeFedText(std::string_view s);

/// Self-describing cell codec: N (null), B0/B1, I<decimal>,
/// D<shortest round-trip double>, S<escaped text>.
std::string EncodeCell(const common::Value& v);
common::Result<common::Value> DecodeCell(std::string_view s);

/// Renders/parses one record line (`<I|F>,<cell>,...`).
std::string EncodeRecordLine(const DeltaRecord& record);
common::Result<DeltaRecord> DecodeRecordLine(std::string_view line);

/// Wraps `body` in a checksummed container headed by `magic` / parses it
/// back, verifying CRC and length. Shared by deltas, node baselines and
/// aggregator checkpoints so every durable federation artifact detects
/// truncation the same way.
std::string WrapChecksummed(std::string_view magic, std::string_view body);
common::Result<std::string_view> UnwrapChecksummed(std::string_view magic,
                                                   std::string_view text);

}  // namespace sqlcm::fed

#endif  // SQLCM_FED_DELTA_H_
