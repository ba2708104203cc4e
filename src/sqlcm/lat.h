// Light-weight aggregation tables (paper §4.3).
//
// An in-memory GROUP-BY container over probes of one monitored class:
//   * grouping columns + aggregation functions (COUNT/SUM/AVG/STDEV/MIN/
//     MAX/FIRST/LAST), each optionally in an *aging* variant that reflects
//     only the last `t` time units, bucketed into blocks of width `Δ`
//     (storage ≤ 2t/Δ blocks per aggregate, §4.3), plus the mergeable
//     sketch aggregates QUANTILE(expr, q) and DISTINCT(expr) (sketch.h;
//     non-aging only);
//   * a maximum size (rows) with ordering columns: when an insertion
//     violates the size bound the "least important" row (the one that
//     sorts last under the declared ordering) is evicted, and the evicted
//     row is exposed as a monitored object via the evict callback;
//   * persist-to-table and seed-from-table (restart continuity).
//
// Concurrency (paper §6.1): rule evaluation and LAT updates run in the
// threads that trigger events. A LAT keeps its rows in shards; each shard
// holds a slab of fixed-width slots (group key, aggregate states, one
// ordering key and its rank), an open-addressing index from hash to slot and
// an eviction heap of slots, all guarded by the one shard latch: there is no
// per-row latch. This departs from the paper's per-row latching: an insert
// holds its shard latch for a single fold, and one latch per insert costs
// less than the map, row and heap latches it replaced (bench_lat's lat_evict
// rows, PERFORMANCE.md).
// A bounded LAT (max_rows or max_bytes) has exactly one shard, the paper's
// one hash index and one heap. Every eviction is decided under its latch, in
// the same latch hold as the insert, seed or merge that went over budget, so
// the survivors are an exact top-k however many threads insert. A
// row-bounded LAT at its bound decides a new group against the heap root:
// the loser is evicted and its slot takes the next new group in place. An
// unbounded LAT never evicts, so its directory is split into 2^k
// latch-striped shards selected by a precomputed 64-bit group-key hash.
// bench/bench_lat.cc --sweep measures both (see docs/PERFORMANCE.md).
#ifndef SQLCM_SQLCM_LAT_H_
#define SQLCM_SQLCM_LAT_H_

#include <atomic>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/latch.h"
#include "common/status.h"
#include "common/value.h"
#include "obs/metrics.h"
#include "sqlcm/schema.h"
#include "sqlcm/sketch.h"
#include "storage/table.h"

namespace sqlcm::cm {

/// Fault-injection point honoured by the Insert latch path (common/fault.h):
/// `latch_stall` makes an uncontended acquisition report as contention,
/// exercising the contention-accounting path deterministically.
inline constexpr char kFaultLatLatch[] = "lat.latch";

enum class LatAggFunc : uint8_t {
  kCount,
  kSum,
  kAvg,
  kStdev,
  kMin,
  kMax,
  kFirst,
  kLast,
  /// QUANTILE(attr, q): DDSketch-style log-bucketed histogram with a
  /// relative-error guarantee (sketch.h); NULL while no numeric value has
  /// been folded. No aging variant (per-block sketch budgets are a
  /// follow-on); LatAggColumn::quantile carries q.
  kQuantile,
  /// DISTINCT(attr): HLL-style register array (sketch.h); 0 while no
  /// non-NULL value has been folded. No aging variant.
  kDistinct,
};

const char* LatAggFuncName(LatAggFunc func);
common::Result<LatAggFunc> ParseLatAggFunc(std::string_view name);

/// True for the sketch-backed aggregates whose per-cell state is a mergeable
/// summary rather than scalar moments (QUANTILE/DISTINCT). Their v3 state
/// records carry a 10th `#sketch` codec cell (see StateColumnNames).
inline bool LatAggFuncIsSketch(LatAggFunc func) {
  return func == LatAggFunc::kQuantile || func == LatAggFunc::kDistinct;
}

/// Ranks (LatEvictionRank): smaller ranks are less important. A value the
/// encoding cannot order (NaN, or a kind foreign to the column) ranks
/// kLatRankUnordered, which sends every compare to the full ordering key.
/// Real ranks lie in [0, kLatRankMax].
inline constexpr uint64_t kLatRankUnordered = UINT64_MAX;
inline constexpr uint64_t kLatRankMax = UINT64_MAX - 1;

/// Order-preserving rank of an ordering value in a column of
/// `column_kind`, with the column's direction applied: if a ranks below b
/// then a is strictly less important (evicted first), and values that
/// Value::Compare ties rank equal. INT columns encode exactly (up to the
/// two ends of the int64 range, which share ranks with their neighbours);
/// DOUBLE columns use the sign-flip encoding of the IEEE bits with −0.0
/// folded onto +0.0; NULL takes Compare's lowest position; every other
/// non-NULL value shares one constant rank, so those ties always go to the
/// full compare.
uint64_t LatEvictionRank(const common::Value& v, common::ValueKind column_kind,
                         bool descending);

/// One element of a vectorized insert (Lat::InsertBatch): the probed record
/// plus the event timestamp it carried, so batched folds see exactly the
/// clock values the per-row path would have.
struct LatBatchItem {
  const void* record = nullptr;
  int64_t now_micros = 0;
};

/// A batch's items mapped to their distinct groups (Lat::MapBatch): groups
/// numbered in first-appearance order, each with its directory hash, its
/// key as borrowed probes and an arrival-order chain of its items. It
/// depends only on the records and the LAT's group shape, so every LAT of
/// that shape folds the same mapping of the same items (Lat::FoldBatch).
/// The borrowed keys follow schema.h's lifetime rule: a mapping is valid
/// only while the batch's records are, and is rebuilt for every batch.
/// Every vector keeps its capacity across batches.
class LatBatchMapping {
 public:
  size_t groups() const { return hashes_.size(); }

 private:
  friend class Lat;
  static constexpr uint32_t kNoItem = UINT32_MAX;

  uint32_t shape_ = UINT32_MAX;  // Lat::group_shape() it was mapped for
  std::vector<BorrowedProbe> keys_;  // group g's key at [g·width, +width)
  std::vector<uint64_t> hashes_;     // per group: directory hash
  std::vector<uint32_t> first_;      // per group: its first item
  std::vector<uint32_t> last_;       // per group: its last item so far
  std::vector<uint32_t> next_;       // per item: next item of its group
  std::vector<uint32_t> slots_;      // open addressing: group + 1, 0 = empty
};

struct LatGroupColumn {
  std::string attribute;  // attribute of the LAT's object class
  std::string alias;      // output column name; empty -> attribute name
};

struct LatAggColumn {
  LatAggFunc func = LatAggFunc::kCount;
  std::string attribute;  // input probe; may be empty for COUNT
  std::string alias;      // output column name; empty -> FUNC_attribute
  bool aging = false;     // moving-window variant
  /// kQuantile only: the rank fraction q in [0, 1] (0.5 = median).
  double quantile = 0.5;
};

struct LatOrdering {
  std::string column;  // output column name (group or aggregate alias)
  bool descending = true;
};

struct LatSpec {
  std::string name;
  MonitoredClass object_class = MonitoredClass::kQuery;
  std::vector<LatGroupColumn> group_by;
  std::vector<LatAggColumn> aggregates;
  /// Eviction ordering; required when max_rows > 0.
  std::vector<LatOrdering> ordering;
  /// 0 = unbounded.
  size_t max_rows = 0;
  /// Alternative/additional bound on the approximate total byte footprint
  /// of stored rows (paper §4.3: size limits "in terms of the number of
  /// rows stored or the overall row size"). A row is charged its slot's
  /// fixed width, the length of each string it holds and the size of its
  /// sketches and aging blocks. 0 = unbounded. Requires ordering columns,
  /// like max_rows.
  size_t max_bytes = 0;
  /// Aging parameters (apply to aggregates flagged `aging`).
  int64_t aging_window_micros = 0;  // t
  int64_t aging_block_micros = 0;   // Δ
  /// Directory shard count of an unbounded LAT. 0 = automatic: 4 per
  /// hardware thread, at least 16. Rounded up to a power of two and clamped
  /// to [1, 1024]. Aggregate results are independent of the shard count
  /// (only contention behaviour changes). Ignored when max_rows or max_bytes
  /// is set: a bounded LAT always has one shard, so that eviction is exact.
  size_t shard_count = 0;
  /// Per-cell byte budget for each QUANTILE sketch: when a fold pushes a
  /// cell's sketch over this, it collapses (level-up, halving resolution
  /// but widening the documented relative-error bound, sketch.h) until it
  /// fits. 0 = unbounded. Counted in LatStats::sketch_collapses.
  size_t quantile_sketch_bytes = 4096;
  /// HLL precision p for DISTINCT aggregates (2^p one-byte registers per
  /// cell; standard error ~1.04/sqrt(2^p)). Clamped to [4, 16].
  int distinct_precision = 10;
};

/// Per-LAT runtime statistics (surfaced via sqlcm_lat_stats). Latch counters
/// cover the shard latches of the Insert hot path only — the paper's §6.1
/// claim is precisely that these latches are not a hotspot, and
/// `latch_contention` measures it.
/// `upsert_micros` is populated only under MonitorEngine detailed timing.
///
/// The counters every insert bumps are striped (obs::StripedCounter): the
/// threads inserting into one LAT would otherwise share their cache lines.
struct LatStats {
  obs::StripedCounter inserts;
  obs::StripedCounter evictions;
  obs::StripedCounter latch_acquisitions;
  obs::StripedCounter latch_contention;  // try_lock failed, had to spin
  /// Heap maintenance skipped because the recomputed ordering key matched
  /// the previous one (common for MIN/MAX/FIRST orderings).
  obs::StripedCounter heap_skips;
  /// Oldest aging blocks merged to keep a block deque within the §4.3
  /// ⌈2t/Δ⌉ bound. Concurrent sessions that fold with out-of-order `now`
  /// across a block boundary open a fresh block each time they alternate,
  /// which pruning alone does not bound.
  obs::Counter aging_merges;
  /// QUANTILE sketch level-ups forced by LatSpec::quantile_sketch_bytes
  /// (each halves the cell's bucket resolution; surfaced per LAT via
  /// sqlcm_lat_stats so budget pressure is observable).
  obs::Counter sketch_collapses;
  obs::LatencyHistogram upsert_micros;
  // Span-profiling attribution (sampled traces only; see sqlcm_profile).
  obs::Counter upsert_spans;
  obs::Counter upsert_nanos;
};

class Lat {
 public:
  /// Invoked (outside all LAT latches) with the materialized evicted row.
  using EvictCallback = std::function<void(common::Row evicted)>;

  /// Validates the spec against the object schema (attributes exist,
  /// SUM/AVG/STDEV inputs are numeric, ordering columns resolve, aging
  /// parameters sane) and pre-resolves all probe getters.
  static common::Result<std::unique_ptr<Lat>> Create(LatSpec spec);

  ~Lat() = default;
  Lat(const Lat&) = delete;
  Lat& operator=(const Lat&) = delete;

  const LatSpec& spec() const { return spec_; }
  const std::string& name() const { return spec_.name; }
  /// Cached lower-cased name (event qualifiers are lower-cased; caching
  /// avoids a string allocation per eviction event).
  const std::string& lower_name() const { return lower_name_; }
  /// Resolved directory shard count (power of two).
  size_t shard_count() const { return shard_count_; }
  /// Interned group shape: LATs over the same class grouped by the same
  /// attributes (aliases aside) share it, and so share batch mappings.
  uint32_t group_shape() const { return group_shape_; }

  // -- Column metadata (group columns first, then aggregate columns) -------
  size_t num_columns() const { return column_names_.size(); }
  size_t group_width() const { return spec_.group_by.size(); }
  const std::vector<std::string>& column_names() const { return column_names_; }
  const std::vector<common::ValueKind>& column_kinds() const {
    return column_kinds_;
  }
  /// Case-insensitive; -1 when absent.
  int FindColumn(std::string_view name) const;

  /// Installs the eviction listener. When `listening` is non-null, victims
  /// are materialized (and the callback runs) only while it reads true, so
  /// an engine with no Lat.Evict rule skips the row copy entirely; the flag
  /// must outlive the LAT.
  void set_evict_callback(EvictCallback callback,
                          const std::atomic<bool>* listening = nullptr) {
    evict_callback_ = std::move(callback);
    evict_listening_ = listening;
  }

  // -- Mutation --------------------------------------------------------------

  /// The Insert action (§5.3): upserts the group for `record` (a record of
  /// spec().object_class) and folds its probe values into every aggregate.
  void Insert(const void* record, int64_t now_micros);

  /// Vectorized Insert for the deferred-evaluation pipeline: MapBatch then
  /// FoldBatch through a per-thread mapping.
  void InsertBatch(const LatBatchItem* items, size_t count);

  /// First step of a vectorized insert: maps `items` to the batch's
  /// distinct groups through an open-addressing table keyed by the
  /// group-key hash (an in-place compare of the borrowed keys confirms each
  /// hit). Reads nothing of the LAT but its group attributes.
  void MapBatch(const LatBatchItem* items, size_t count,
                LatBatchMapping* mapping) const;

  /// Second step: folds `items` through `mapping`, which MapBatch built
  /// from the same records for a LAT of this group shape (any such LAT).
  /// The directory is consulted once per distinct group, not once per item:
  /// each touched shard's latch is taken once to resolve (find or create)
  /// its groups' slots, then once per distinct group to fold that group's
  /// items in arrival order (so FIRST/LAST match a sequential replay), so
  /// no batch holds a shard latch across many groups' folds. A slot freed
  /// in between (eviction, Reset) is resolved again. Aggregate results are
  /// identical to calling Insert() per item; only the latch schedule
  /// changes — with S touched shards and G distinct groups the
  /// latch-acquisition count is S + G versus `count` for the per-row path
  /// (observable via LatStats::latch_acquisitions). A bounded LAT's
  /// resolve step only looks groups up: each group settles in the hold
  /// that folds it, as one Insert would (a new group at a full row-bounded
  /// LAT replaces the root or loses to it in place; otherwise the LAT
  /// evicts down to its budget), so no reader sees it over budget. The
  /// evict callback runs after the last read of `mapping` and of the
  /// per-thread scratch (the callback may re-enter LATs).
  void FoldBatch(const LatBatchItem* items, size_t count,
                 const LatBatchMapping& mapping);

  /// The Reset action (§5.3): drops every row and frees memory.
  void Reset();

  // -- Reads -----------------------------------------------------------------

  /// Materializes the row whose grouping columns equal the corresponding
  /// probe values of `record` (rule-condition LAT references, §5.2).
  /// Returns false when no such group exists (the rule's implicit ∃).
  bool LookupForObject(const void* record, int64_t now_micros,
                       common::Row* out) const;

  bool LookupByKey(const common::Row& group_key, int64_t now_micros,
                   common::Row* out) const;

  /// All rows, sorted by the declared ordering when one exists.
  std::vector<common::Row> Snapshot(int64_t now_micros) const;

  size_t size() const {
    return total_rows_.load(std::memory_order_acquire);
  }

  /// Approximate bytes across all rows (maintained when a byte limit is
  /// configured; 0 otherwise).
  size_t approx_bytes() const {
    return total_bytes_.load(std::memory_order_acquire);
  }

  /// Runtime statistics; mutable through a const Lat because the insert
  /// path is logically const for readers.
  LatStats& stats() const { return stats_; }

  /// True when any aggregate is sketch-backed (QUANTILE/DISTINCT). Such
  /// LATs need the v3 state-snapshot codec: materialized (v1/plain-CSV)
  /// restores cannot reconstruct sketch state and are rejected by SeedFrom.
  bool HasSketchAggs() const { return has_sketch_; }

  /// Sums the live sketch footprint across all rows (for sqlcm_lat_stats):
  /// approximate bytes and the total bucket/register cell count. Takes each
  /// shard latch briefly; both outputs may be null.
  void SketchFootprint(size_t* sketch_bytes, size_t* sketch_cells) const;

  /// Monotone count of Reset() calls. Federation export snapshots it per
  /// epoch: a change forces a full (mode-F) ship even when the post-reset
  /// additive counts happen to match the baseline — the delta arithmetic
  /// alone cannot distinguish that from "no change" (docs/FEDERATION.md).
  uint64_t reset_generation() const {
    return reset_generation_.load(std::memory_order_acquire);
  }

  // -- Persistence (§4.3) ------------------------------------------------------

  /// Appends every row to `table` (schema: LAT columns + trailing INT
  /// timestamp column when the table is one column wider).
  common::Status PersistTo(storage::Table* table, int64_t timestamp_micros,
                           int64_t now_micros) const;

  /// Seeds rows from previously persisted *materialized* values (legacy v1
  /// snapshots / user tables). Reconstruction is documented and
  /// deterministic but lossy:
  ///   * COUNT/SUM/MIN/MAX/FIRST/LAST seed exactly from their columns;
  ///   * the first non-aging COUNT column, when present, drives the seed
  ///     count `n` for SUM/AVG/STDEV (n = 1 when absent);
  ///   * AVG seeds sum = avg·n;
  ///   * STDEV seeds moments so the materialized value round-trips:
  ///     sum from a same-attribute non-aging AVG (avg·n) or SUM column
  ///     when one exists (0 otherwise), sumsq = s²(n−1) + sum²/n;
  ///   * aging aggregates are NOT reconstructed (their windowed history is
  ///     not present in a materialized row) — use the v2 state snapshot
  ///     (ExportState/ImportState) for lossless restarts.
  common::Status SeedFrom(const storage::Table& table, int64_t now_micros);

  // -- Raw-state persistence (v2 snapshots; lossless restart) -----------------

  /// Schema of the raw state record: the group columns, then for every
  /// aggregate column `A` the raw moments `A#count` (INT), `A#sum`,
  /// `A#sumsq` (DOUBLE), `A#any` (BOOL), `A#min`, `A#max`, `A#first`,
  /// `A#last` (STRING, kind-tagged codec) and `A#blocks` (STRING, the
  /// aging-block deque codec; empty for non-aging aggregates). Sketch
  /// aggregates (QUANTILE/DISTINCT) append a 10th `A#sketch` cell (STRING,
  /// the sketch codec from sketch.h) — such snapshots are written as v3
  /// (docs/ROBUSTNESS.md) so older readers fail cleanly instead of
  /// mis-parsing.
  std::vector<std::string> StateColumnNames() const;
  std::vector<common::ValueKind> StateColumnKinds() const;

  /// Appends one state record per group row to `table` (schema:
  /// StateColumnNames + trailing INT timestamp column when the table is
  /// one column wider). Lossless: together with ImportState every
  /// aggregate — including STDEV and mid-window aging variants — restores
  /// bit-exactly.
  common::Status ExportState(storage::Table* table,
                             int64_t timestamp_micros) const;

  /// Seeds rows from an ExportState table, restoring the raw moments and
  /// aging-block deques exactly. Rows whose group already exists live are
  /// skipped (live data wins), matching SeedFrom.
  common::Status ImportState(const storage::Table& table, int64_t now_micros);

  // -- Federation state arithmetic (delta shipping; src/fed) -----------------
  //
  // A *delta* is a state record (same schema as ExportState) whose additive
  // moments (#count/#sum/#sumsq, and the per-block count/sum/sumsq inside
  // #blocks) are increments since a baseline record, while the fold-stable
  // fields (#any/#min/#max/#first/#last and per-block min/max/any) stay
  // cumulative — folding a cumulative min/max twice is a no-op, so those
  // fields survive duplicate delivery without increment bookkeeping.
  // docs/FEDERATION.md describes the shipping protocol built on these.

  /// How a delta record relates to its baseline (returned by DiffStateRecord
  /// and consumed by CombineStateRecords; shipped in the delta container so
  /// baseline repair after a crash applies the right arithmetic).
  enum class StateDeltaMode {
    kNone,         ///< no change since baseline; nothing to ship
    kIncremental,  ///< additive moments are increments over the baseline
    kFresh,        ///< group restarted (Reset/eviction): record is cumulative
  };

  /// Computes the delta of `current` (a state record of this LAT) against
  /// `baseline` (the state record shipped for the same group last epoch, or
  /// null when the group is new). kFresh is returned when the group was
  /// reset or evicted and re-created since the baseline (any additive count
  /// went backwards): the delta then carries the full cumulative record and
  /// the new incarnation's observations count again fleet-wide — ingest is
  /// monotone by design. On kNone `*delta` is left empty.
  common::Result<StateDeltaMode> DiffStateRecord(const common::Row& current,
                                                 const common::Row* baseline,
                                                 common::Row* delta) const;

  /// Reconstructs the `current` record that produced `delta` from the
  /// baseline record it was diffed against: adds the additive increments and
  /// adopts the cumulative fields (kFresh replaces the record wholesale).
  /// Used for baseline repair after a node crash between spool-put and
  /// baseline-write. Blocks present in `base` but absent from `delta` are
  /// kept — the true current may have pruned them, but a stale expired block
  /// in a baseline never produces increments on a later diff.
  common::Result<common::Row> CombineStateRecords(const common::Row& base,
                                                  const common::Row& delta,
                                                  StateDeltaMode mode) const;

  /// Folds every state record of `table` (deltas or full exports) into the
  /// live directory: additive moments add, min/max fold by comparison,
  /// FIRST keeps the existing value once set, LAST adopts the incoming one,
  /// and aging blocks merge-join by block_start (then prune/cap against
  /// `now_micros` like the insert path). Unlike ImportState, existing groups
  /// merge rather than win — this is the aggregator's ingest primitive.
  common::Status MergeState(const storage::Table& table, int64_t now_micros);

 private:
  struct AgingBlock {
    int64_t block_start = 0;
    int64_t count = 0;
    double sum = 0;
    double sumsq = 0;
    common::Value min, max;
    bool any = false;
  };

  /// One aggregate cell. min/max/first/last hold a value only while `any`
  /// is set (a non-NULL value was folded); otherwise they may keep a
  /// previous occupant's value, whose string capacity the next fold reuses,
  /// and every reader treats them as NULL.
  struct AggState {
    // What every fold writes comes first, so a fold touches one or two
    // cache lines of the cell.
    int64_t count = 0;
    double sum = 0;
    double sumsq = 0;
    bool any = false;
    common::Value last;
    common::Value first, min, max;
    /// Aging variant only; lazily allocated (a default-constructed deque
    /// allocates, and non-aging rows are the hot path).
    std::unique_ptr<std::deque<AgingBlock>> blocks;
    /// kQuantile only; lazily allocated on the first numeric fold. A slot
    /// taken by a new group keeps its sketch emptied, which reads, exports,
    /// merges and is charged like no sketch.
    std::unique_ptr<QuantileSketch> qsketch;
    /// kDistinct only; lazily allocated on the first non-NULL fold, and
    /// emptied in place like qsketch.
    std::unique_ptr<HllSketch> hll;
  };

  static constexpr uint32_t kNoSlot = UINT32_MAX;

  /// Bookkeeping of one slot.
  struct SlotMeta {
    uint64_t hash = 0;
    uint64_t rank = kLatRankUnordered;  // LatEvictionRank of the ordering key
    /// Per-shard occupancy number (0 while free); a new occupant never
    /// takes the number of one a batch may still hold.
    uint32_t tenure = 0;
    uint32_t heap_index = kNoSlot;
    uint32_t approx_bytes = 0;  // accounted share of total_bytes_
  };

  /// Directory entry: slot + 1 (0 = empty) and the hash's high 32 bits,
  /// whose top bits are the entry's home position.
  struct IndexEntry {
    uint32_t slot1 = 0;
    uint32_t tag = 0;
  };

  /// One directory stripe and the row store of its groups, all guarded by
  /// `latch`. Rows live in fixed-width slots: slot s owns cells
  /// [s·cell_width_, +cell_width_) (its group key, then its one ordering
  /// key) and aggs [s·A, +A) for A aggregates. The index maps a group-key
  /// hash to its slot by open addressing (linear probing, backward-shift
  /// erase, load ≤ 1/2); the heap orders the slots of a bounded LAT with
  /// the least important row at the root. A freed slot keeps its values and
  /// their string capacity for the next group it takes. Padded so
  /// neighbouring shards' latches do not share a cache line.
  struct alignas(64) Shard {
    // What an evicting insert writes shares the latch's cache line.
    mutable common::SpinLatch latch;
    uint32_t index_live = 0;
    uint32_t next_tenure = 1;
    std::vector<uint32_t> free;  // unoccupied slots
    std::vector<uint32_t> heap;  // min-heap: root = least important
    std::vector<IndexEntry> index;  // power-of-two size, or empty
    std::vector<SlotMeta> meta;
    std::vector<common::Value> cells;
    std::vector<AggState> aggs;
    common::Row scratch;  // a recomputed ordering key, compared in place
  };

  /// Per-thread working set of FoldBatch (defined in lat.cc).
  struct FoldScratch;

  explicit Lat(LatSpec spec) : spec_(std::move(spec)) {}

  size_t ShardIndex(uint64_t hash) const { return hash & (shard_count_ - 1); }
  Shard& ShardFor(uint64_t hash) const { return shards_[ShardIndex(hash)]; }
  bool bounded() const { return spec_.max_rows > 0 || spec_.max_bytes > 0; }

  /// The key-probe helper behind every directory lookup (Insert, MapBatch,
  /// LookupForObject): reads `record`'s group key as group_width() borrowed
  /// probes into `key` and returns its 64-bit directory hash (also the
  /// shard selector). The hash is the mixed HashRow of the materialised
  /// key, so keys probed from records and from rows (below) meet.
  uint64_t ProbeKey(const void* record, BorrowedProbe* key) const;
  /// The same for a materialised group key (seeding, merging, LookupByKey);
  /// the probes borrow `key`'s strings.
  uint64_t ProbeKey(const common::Row& key, BorrowedProbe* probes) const;

  // Slot store; caller holds the shard latch.
  common::Value* KeyCells(Shard& shard, uint32_t slot) const {
    return shard.cells.data() + slot * cell_width_;
  }
  common::Value* OrderCells(Shard& shard, uint32_t slot) const {
    return KeyCells(shard, slot) + group_width();
  }
  AggState* SlotAggs(Shard& shard, uint32_t slot) const {
    return shard.aggs.data() + slot * spec_.aggregates.size();
  }
  /// The slot holding (hash, key), comparing the borrowed key in place, or
  /// kNoSlot.
  uint32_t FindLocked(const Shard& shard, uint64_t hash,
                      const BorrowedProbe* key) const;
  /// Takes a free slot (growing the slab when none is left) for the group
  /// (hash, key): writes its key into the slot's kept cells and empties its
  /// aggregates. The slot is neither indexed nor in the heap yet.
  uint32_t TakeSlotLocked(Shard* shard, uint64_t hash,
                          const BorrowedProbe* key);
  /// Empties `aggs` for a new group, keeping the values (and string
  /// capacity) of the cells each aggregate maintains and the capacity of
  /// its sketches.
  void ClearAggs(AggState* aggs) const;
  /// Empties the cells and side structures each aggregate of `aggs` does
  /// not maintain (say, a LAST column's min), which seeded or merged state
  /// may have set, so a slot only ever holds stale values where `any`
  /// hides them.
  void DropUnmaintained(AggState* aggs) const;
  void IndexInsertLocked(Shard* shard, uint32_t slot);
  void IndexEraseLocked(Shard* shard, uint32_t slot);
  /// TakeSlotLocked + IndexInsertLocked + a counted row, for a group not
  /// in the shard.
  uint32_t CreateLocked(Shard* shard, uint64_t hash, const BorrowedProbe* key);
  /// FindLocked, else CreateLocked.
  uint32_t FindOrCreateLocked(Shard* shard, uint64_t hash,
                              const BorrowedProbe* key);
  /// Unindexes an occupied slot (out of the heap already) and frees it,
  /// releasing its rows and bytes from the budgets.
  void FreeSlotLocked(Shard* shard, uint32_t slot);
  /// LookupForObject/LookupByKey once the key is probed.
  bool LookupProbed(uint64_t hash, const BorrowedProbe* key,
                    int64_t now_micros, common::Row* out) const;

  /// Folds one record's probes into every aggregate of `aggs`.
  void FoldRecord(AggState* aggs, const void* record, int64_t now_micros);
  void FoldValue(AggState* state, const LatAggColumn& col,
                 const BorrowedProbe& v, int64_t now_micros);
  /// Recomputes `slot`'s ordering key and byte charge after folds into a
  /// bounded LAT and applies them to the heap. Returns false, counting a
  /// heap skip, when the key is unchanged and no byte budget applies.
  bool RefreshOrderingLocked(Shard& shard, uint32_t slot,
                             int64_t now_micros);
  /// Ordering column `i` of the row (key, aggs) into `*out`; a stored
  /// string is copied into `out`'s kept capacity.
  void OrderingValueInto(const common::Value* key, const AggState* aggs,
                         size_t i, int64_t now_micros,
                         common::Value* out) const;

  /// Shared raw-state codec: parses the aggregate cells of a state record
  /// (starting at group_width()) into `*aggs` / appends them to `*record`.
  /// Used by Import/Export/Merge/Diff/Combine so every consumer agrees on
  /// one encoding. Members (not statics): sketch-bearing aggregates add a
  /// 10th `#sketch` cell, so the per-aggregate stride depends on the spec.
  common::Status ParseStateAggs(const common::Row& record,
                                std::vector<AggState>* aggs) const;
  void AppendStateAggs(const AggState* aggs, common::Row* record) const;
  /// Verifies `record` has exactly the state-record width (no timestamp).
  common::Status CheckStateRecordWidth(const common::Row& record) const;
  /// Total state-record width (group columns + per-aggregate codec cells).
  size_t state_width() const { return state_width_; }
  /// Folds `src` into `dst` under fleet-merge semantics (see MergeState).
  /// Member: sketch merges honour the spec's byte budget (and count
  /// collapses in stats_).
  void FoldAggState(AggState* dst, const AggState& src);
  /// Post-merge aging hygiene: prune expired blocks, cap the deque like the
  /// insert path (merging the oldest pair when over ⌈2t/Δ⌉ + slack).
  void PruneMergedBlocks(AggState* state, int64_t now_micros);
  /// Stores a reconstructed row (from SeedFrom/ImportState) in its shard
  /// unless the group already exists live, then runs the bounded-size
  /// bookkeeping. Returns false when live data won.
  bool AdoptSeededRow(const common::Row& group_key,
                      std::vector<AggState>* aggs, int64_t now_micros);
  common::Value AggValue(const AggState& state, const LatAggColumn& col,
                         int64_t now_micros) const;
  common::Row MaterializeLocked(Shard& shard, uint32_t slot,
                                int64_t now_micros) const;
  size_t ApproxSlotBytesLocked(Shard& shard, uint32_t slot) const;

  /// True if the ordering key `a` is less important than `b` (i.e. `a`
  /// sorts later under the declared ordering and is the eviction candidate).
  bool LessImportant(const common::Value* a, const common::Value* b) const;
  /// LessImportant on slots: decided by their ranks when those differ, by
  /// the full ordering keys otherwise. Caller holds the shard latch.
  bool SlotLessImportant(Shard& shard, uint32_t a, uint32_t b) const {
    const uint64_t ra = shard.meta[a].rank;
    const uint64_t rb = shard.meta[b].rank;
    if (ra != rb && ra != kLatRankUnordered && rb != kLatRankUnordered) {
      return ra < rb;
    }
    return LessImportant(OrderCells(shard, a), OrderCells(shard, b));
  }
  /// Rank of an ordering key's first column.
  uint64_t RankOf(const common::Value& first) const {
    return LatEvictionRank(first, rank_kind_, spec_.ordering[0].descending);
  }
  /// A new group arriving at a full row-bounded LAT, decided under the
  /// shard latch: `slot` (folded, not indexed) gets its ordering key and
  /// rank, and is evicted itself when it sorts after the heap root;
  /// otherwise, and on a tie, it takes the root's place. The victim's slot
  /// is freed for the next new group, after being materialized onto
  /// `*evicted` when that is non-null.
  void ReplaceRootLocked(Shard* shard, uint32_t slot, int64_t now_micros,
                         std::vector<common::Row>* evicted);
  /// True when a new group must replace the heap root in place: the LAT is
  /// row-bounded and full (see ReplaceRootLocked).
  bool FullLocked(const Shard& shard) const;
  /// Settles `slot` after folds, under its shard latch: with `replace` (a
  /// new group taken by TakeSlotLocked at a full LAT) ReplaceRootLocked
  /// decides it; otherwise a bounded LAT refreshes the slot's ordering and
  /// evicts down to its budget. Returns the number of victims.
  size_t SettleLocked(Shard* shard, uint32_t slot, bool replace,
                      int64_t now_micros, std::vector<common::Row>* evicted);
  /// True when a Lat.Evict listener wants victims materialized.
  bool Listening() const {
    return evict_callback_ &&
           (evict_listening_ == nullptr ||
            evict_listening_->load(std::memory_order_acquire));
  }
  /// While over the row/byte budget, evicts the heap root of a bounded
  /// LAT's one shard; caller holds its latch. Appends each victim,
  /// materialized, to `*evicted` when that is non-null, and returns how
  /// many it evicted.
  size_t EvictOverBudgetLocked(Shard* shard, int64_t now_micros,
                               std::vector<common::Row>* evicted);
  /// Counts `victims` evictions and hands the materialized rows, if any,
  /// to the evict callback; runs outside all latches (the callback may
  /// re-enter LATs).
  void NotifyEvicted(size_t victims, std::vector<common::Row>* evicted);
  bool OverBudget() const {
    const size_t rows = total_rows_.load(std::memory_order_acquire);
    if (spec_.max_rows > 0 && rows > spec_.max_rows) return true;
    return spec_.max_bytes > 0 && rows > 1 &&
           total_bytes_.load(std::memory_order_acquire) > spec_.max_bytes;
  }

  // Heap helpers; caller holds the shard latch.
  void HeapInsertLocked(Shard* shard, uint32_t slot);
  void HeapEraseLocked(Shard* shard, uint32_t slot);
  void HeapSetLocked(Shard* shard, size_t i, uint32_t slot) const {
    shard->heap[i] = slot;
    shard->meta[slot].heap_index = static_cast<uint32_t>(i);
  }
  void SiftUpLocked(Shard* shard, size_t i) const;
  void SiftDownLocked(Shard* shard, size_t i) const;

  LatSpec spec_;
  std::string lower_name_;
  std::vector<std::string> column_names_;
  std::vector<common::ValueKind> column_kinds_;
  std::vector<const AttributeDef*> group_attrs_;
  std::vector<const AttributeDef*> agg_attrs_;  // null entry for plain COUNT
  uint32_t group_shape_ = 0;
  std::vector<int> ordering_columns_;          // indexes into materialized row
  /// Cells per slot: the group key, then (bounded LATs) the ordering key.
  size_t cell_width_ = 0;
  /// Kind of the first ordering column (selects the rank encoding).
  common::ValueKind rank_kind_ = common::ValueKind::kNull;
  EvictCallback evict_callback_;
  const std::atomic<bool>* evict_listening_ = nullptr;

  size_t shard_count_ = 1;  // power of two
  /// A row-bounded LAT without a byte budget: a new group at the bound
  /// replaces the heap root in place.
  bool replace_in_place_ = false;
  /// Any QUANTILE/DISTINCT aggregate in the spec (state records then use
  /// the v3 codec with `#sketch` cells and SeedFrom is rejected).
  bool has_sketch_ = false;
  /// HLL precision after clamping (single source for folds and decode
  /// validation).
  int distinct_precision_ = HllSketch::kDefaultPrecision;
  /// State-record geometry: total width and the first codec cell of each
  /// aggregate (stride 9, or 10 for sketch-bearing aggregates).
  size_t state_width_ = 0;
  std::vector<size_t> state_agg_base_;
  /// Hard cap on a per-aggregate aging-block deque: when rotation would
  /// exceed it the two oldest blocks merge (§4.3 bound ⌈2t/Δ⌉; the +3 slack
  /// guarantees merged blocks are already outside the window). 0 when the
  /// spec has no aging aggregates.
  size_t max_aging_blocks_ = 0;
  std::unique_ptr<Shard[]> shards_;

  /// The budgets get their own cache line: every insert reads shards_
  /// above, and inserts into an unbounded LAT's shards all bump
  /// total_rows_. A bounded LAT changes them only under its one latch.
  alignas(64) std::atomic<size_t> total_rows_{0};
  std::atomic<size_t> total_bytes_{0};
  std::atomic<uint64_t> reset_generation_{0};

  alignas(64) mutable LatStats stats_;
};

}  // namespace sqlcm::cm

#endif  // SQLCM_SQLCM_LAT_H_
