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
// threads that trigger events, so the directory is split into 2^k
// latch-striped shards selected by a precomputed 64-bit group-key hash;
// each shard has its own hash map (keyed by that hash, so eviction erase
// and lookups never rehash the group key) and its own eviction heap. Rows
// keep individual latches, and the global row/byte budgets are atomics, so
// an insert holds at most one latch at a time outside eviction. Eviction is
// not rare: every insert into a bounded LAT at its budget evicts. It is
// serialized by a dedicated evict latch and picks the cross-shard victim
// from published root ranks (an order-preserving 64-bit encoding of each
// shard heap root's first ordering value, see LatEvictionRank), latching
// only the winning shard's heap; shards whose ranks tie fall back to a
// latched compare of their roots. The hierarchy evict > {map, heap, row} is
// acyclic, so the scheme stays deadlock-free by construction.
// bench/bench_lat.cc --sweep measures the scaling (see docs/PERFORMANCE.md).
#ifndef SQLCM_SQLCM_LAT_H_
#define SQLCM_SQLCM_LAT_H_

#include <atomic>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
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

/// Root ranks (LatEvictionRank): smaller ranks are less important. An empty
/// shard heap publishes kLatRankEmpty; a value the encoding cannot order
/// (NaN, or a kind foreign to the column) ranks kLatRankUnordered, which
/// joins every latched tie-break. Real ranks lie in [0, kLatRankMax].
inline constexpr uint64_t kLatRankEmpty = UINT64_MAX;
inline constexpr uint64_t kLatRankUnordered = UINT64_MAX - 1;
inline constexpr uint64_t kLatRankMax = UINT64_MAX - 2;

/// Order-preserving rank of an ordering value in a column of
/// `column_kind`, with the column's direction applied: if a ranks below b
/// then a is strictly less important (evicted first), and values that
/// Value::Compare ties rank equal. INT columns encode exactly (up to the
/// two ends of the int64 range, which share ranks with their neighbours);
/// DOUBLE columns use the sign-flip encoding of the IEEE bits with −0.0
/// folded onto +0.0; NULL takes Compare's lowest position; every other
/// non-NULL value shares one constant rank, so those ties always go to the
/// latched compare.
uint64_t LatEvictionRank(const common::Value& v, common::ValueKind column_kind,
                         bool descending);

/// One element of a vectorized insert (Lat::InsertBatch): the probed record
/// plus the event timestamp it carried, so batched folds see exactly the
/// clock values the per-row path would have.
struct LatBatchItem {
  const void* record = nullptr;
  int64_t now_micros = 0;
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
  /// rows stored or the overall row size"). 0 = unbounded. Requires
  /// ordering columns, like max_rows.
  size_t max_bytes = 0;
  /// Aging parameters (apply to aggregates flagged `aging`).
  int64_t aging_window_micros = 0;  // t
  int64_t aging_block_micros = 0;   // Δ
  /// Directory shard count. 0 = automatic: the SQLCM_LAT_SHARDS environment
  /// override when set, otherwise scaled to hardware concurrency. Rounded
  /// up to a power of two and clamped to [1, 1024]. Aggregate results are
  /// independent of the shard count (only contention behaviour changes).
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
/// cover the Insert hot path only — the paper's §6.1 claim is precisely that
/// these latches are not a hotspot, and `latch_contention` measures it.
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

  /// Vectorized Insert for the deferred-evaluation pipeline. Items are
  /// first mapped to the batch's distinct groups through a per-thread
  /// open-addressing table keyed by the group-key hash (a key compare
  /// confirms each hit), so the directory is consulted once per distinct
  /// group, not once per item: each touched shard's map latch is taken
  /// once, and each distinct group's row latch once, folding that group's
  /// items in arrival order (so FIRST/LAST match a sequential replay).
  /// Aggregate results are identical to calling Insert() per item; only the
  /// latch schedule changes — with S touched shards and G distinct groups
  /// the unbounded-LAT latch-acquisition count is S + G versus 2·count for
  /// the per-row path (observable via LatStats::latch_acquisitions). The
  /// scratch keeps its capacity across calls, so a batch allocates nothing
  /// of its own per item. Bounded LATs additionally run heap maintenance
  /// per changed group and a single budget-eviction pass at the end, after
  /// the scratch is released (the evict callback may re-enter LATs).
  void InsertBatch(const LatBatchItem* items, size_t count);

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
  /// row latch briefly; both outputs may be null.
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

  struct AggState {
    int64_t count = 0;
    double sum = 0;
    double sumsq = 0;
    common::Value min, max, first, last;
    bool any = false;
    /// Aging variant only; lazily allocated (a default-constructed deque
    /// allocates, and non-aging rows are the hot path).
    std::unique_ptr<std::deque<AgingBlock>> blocks;
    /// kQuantile only; lazily allocated on the first numeric fold.
    std::unique_ptr<QuantileSketch> qsketch;
    /// kDistinct only; lazily allocated on the first non-NULL fold.
    std::unique_ptr<HllSketch> hll;
  };

  /// One group row. Field guards (latch hierarchy in the file comment):
  ///   hash, group_key    immutable after publication in the shard map
  ///   next               the owning shard's map latch
  ///   aggs, ordering_cache                     the row latch
  ///   ordering_key, rank, heap_index,
  ///   approx_bytes, evicted                    the owning shard's heap latch
  ///   in_heap            atomic (written under the heap latch)
  struct LatRow {
    uint64_t hash = 0;
    common::Row group_key;
    std::shared_ptr<LatRow> next;  // same-hash collision chain
    std::vector<AggState> aggs;
    common::Row ordering_cache;  // last key computed by an insert
    common::Row ordering_key;    // key the heap position reflects
    uint64_t rank = kLatRankUnordered;  // LatEvictionRank of ordering_key
    size_t heap_index = SIZE_MAX;
    size_t approx_bytes = 0;  // accounted share of total_bytes_
    bool evicted = false;
    std::atomic<bool> in_heap{false};
    mutable common::SpinLatch latch;
  };

  /// One directory stripe: a hash-keyed map (collision chains run through
  /// LatRow::next) and the eviction heap over this stripe's rows. Padded so
  /// neighbouring shards' latches do not share a cache line. The root's rank
  /// lives in Lat::root_ranks_, packed apart from the latches, so the
  /// evictor reads every shard's rank from a few cache lines (eight ranks
  /// each) that only root changes write.
  struct alignas(64) Shard {
    mutable common::SpinLatch map_latch;
    std::unordered_map<uint64_t, std::shared_ptr<LatRow>> map;
    mutable common::SpinLatch heap_latch;
    std::vector<LatRow*> heap;  // min-heap: root = least important
  };

  /// Per-thread working set of InsertBatch (defined in lat.cc).
  struct BatchScratch;

  explicit Lat(LatSpec spec) : spec_(std::move(spec)) {}

  size_t ShardIndex(uint64_t hash) const { return hash & (shard_count_ - 1); }
  Shard& ShardFor(uint64_t hash) const { return shards_[ShardIndex(hash)]; }
  /// 64-bit mixed hash of a group key (also the shard selector).
  uint64_t HashGroupKey(const common::Row& key) const;

  /// Walks the shard's collision chain for (hash, key); caller holds the
  /// shard map latch. Returns the chain entry or null.
  std::shared_ptr<LatRow> FindInShardLocked(const Shard& shard, uint64_t hash,
                                            const common::Row& key) const;
  /// Finds or creates+links the row for (hash, key); caller holds the shard
  /// map latch. Sets `*created` when a new row was linked.
  std::shared_ptr<LatRow> FindOrCreateLocked(Shard* shard, uint64_t hash,
                                             const common::Row& key,
                                             bool* created);
  /// Unlinks `row` from its shard's collision chain and returns the strong
  /// reference that kept it there; caller holds the shard map latch.
  static std::shared_ptr<LatRow> UnlinkLocked(Shard* shard, LatRow* row);

  common::Row GroupKeyFor(const void* record) const;
  void FoldValue(AggState* state, const LatAggColumn& col, common::Value v,
                 int64_t now_micros);
  /// Shared raw-state codec: parses the aggregate cells of a state record
  /// (starting at group_width()) into `*aggs` / appends them to `*record`.
  /// Used by Import/Export/Merge/Diff/Combine so every consumer agrees on
  /// one encoding. Members (not statics): sketch-bearing aggregates add a
  /// 10th `#sketch` cell, so the per-aggregate stride depends on the spec.
  common::Status ParseStateAggs(const common::Row& record,
                                std::vector<AggState>* aggs) const;
  void AppendStateAggs(const std::vector<AggState>& aggs,
                       common::Row* record) const;
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
  /// Links a reconstructed row (from SeedFrom/ImportState) into its shard
  /// unless the group already exists live, then runs the bounded-size
  /// bookkeeping. Returns false when live data won.
  bool AdoptSeededRow(std::shared_ptr<LatRow> row, int64_t now_micros);
  common::Value AggValue(const AggState& state, const LatAggColumn& col,
                         int64_t now_micros) const;
  common::Row MaterializeLocked(const LatRow& row, int64_t now_micros) const;
  common::Row OrderingKeyLocked(const LatRow& row, int64_t now_micros) const;
  static size_t ApproxRowBytesLocked(const LatRow& row);

  /// True if `a` is less important than `b` (i.e. `a` sorts later under the
  /// declared ordering and is the eviction candidate).
  bool LessImportant(const common::Row& a, const common::Row& b) const;
  /// LessImportant on heap rows: decided by their ranks when those differ,
  /// by the full ordering keys otherwise. Caller holds the heap latch.
  bool RowLessImportant(const LatRow& a, const LatRow& b) const {
    if (a.rank != b.rank && a.rank != kLatRankUnordered &&
        b.rank != kLatRankUnordered) {
      return a.rank < b.rank;
    }
    return LessImportant(a.ordering_key, b.ordering_key);
  }
  /// Rank of an ordering key's first column.
  uint64_t RankOf(const common::Row& ordering_key) const {
    return LatEvictionRank(ordering_key[0], rank_kind_,
                           spec_.ordering[0].descending);
  }
  /// Republishes shard `s`'s root rank; caller holds its heap latch.
  void PublishRootLocked(size_t s) {
    const std::vector<LatRow*>& heap = shards_[s].heap;
    const uint64_t rank = heap.empty() ? kLatRankEmpty : heap[0]->rank;
    if (root_ranks_[s].load(std::memory_order_relaxed) != rank) {
      root_ranks_[s].store(rank, std::memory_order_release);
    }
  }
  /// The shard holding the globally least-important heap root, or SIZE_MAX
  /// when every heap is empty. Reads the published ranks without latching;
  /// only shards tied at the lowest rank (or unordered) are latched and
  /// compared. Caller holds the evict latch.
  size_t PickVictimShard() const;

  /// Applies the (re)computed ordering key and byte accounting for `row`
  /// under its shard's heap latch.
  void MaintainHeap(const std::shared_ptr<LatRow>& row,
                    common::Row ordering_key, size_t row_bytes);
  /// While over the row/byte budget, evicts the globally least-important
  /// row (PickVictimShard, under the evict latch). Materializes and
  /// notifies victims via the evict callback when `notify` is set and the
  /// listener flag, if any, reads true.
  void EvictOverBudget(int64_t now_micros, bool notify);
  bool OverBudget() const {
    const size_t rows = total_rows_.load(std::memory_order_acquire);
    if (spec_.max_rows > 0 && rows > spec_.max_rows) return true;
    return spec_.max_bytes > 0 && rows > 1 &&
           total_bytes_.load(std::memory_order_acquire) > spec_.max_bytes;
  }

  // Heap helpers; caller holds the shard's heap_latch.
  void HeapInsertLocked(Shard* shard, LatRow* row);
  void HeapRepositionLocked(Shard* shard, LatRow* row);
  void HeapEraseLocked(Shard* shard, LatRow* row);
  void HeapSwapLocked(Shard* shard, size_t i, size_t j);
  void SiftUpLocked(Shard* shard, size_t i);
  void SiftDownLocked(Shard* shard, size_t i);

  LatSpec spec_;
  std::string lower_name_;
  std::vector<std::string> column_names_;
  std::vector<common::ValueKind> column_kinds_;
  std::vector<AttributeGetter> group_getters_;
  std::vector<AttributeGetter> agg_getters_;  // null entry for plain COUNT
  std::vector<int> ordering_columns_;          // indexes into materialized row
  /// Kind of the first ordering column (selects the rank encoding).
  common::ValueKind rank_kind_ = common::ValueKind::kNull;
  EvictCallback evict_callback_;
  const std::atomic<bool>* evict_listening_ = nullptr;

  size_t shard_count_ = 1;  // power of two
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
  /// Published heap-root rank per shard (PublishRootLocked), written under
  /// that shard's heap latch and read without latching by the evictor.
  std::unique_ptr<std::atomic<uint64_t>[]> root_ranks_;

  /// Serializes cross-shard eviction and Reset; never acquired while any
  /// other LAT latch is held.
  mutable common::SpinLatch evict_latch_;
  std::atomic<size_t> total_rows_{0};
  std::atomic<size_t> total_bytes_{0};

  std::atomic<uint64_t> reset_generation_{0};
  mutable LatStats stats_;
};

}  // namespace sqlcm::cm

#endif  // SQLCM_SQLCM_LAT_H_
