// Mergeable sketch summaries backing the QUANTILE and DISTINCT LAT
// aggregates (ROADMAP item 3; docs/RULE_LANGUAGE.md documents the SQL-facing
// semantics).
//
// Both sketches are designed around the same contract the v2 raw-moment
// codec established for the classic aggregates:
//   * merging is associative and commutative, so aggregation order —
//     per-thread folds, cross-shard batches, federated delta fold at the
//     FleetAggregator — never changes the answer;
//   * the full state round-trips losslessly through a printable encoding
//     (Encode/Decode), so checkpoint→restore and delta shipping preserve
//     the sketch bit-exactly;
//   * the error bound is *documented and stable*: QuantileSketch guarantees
//     relative error `alpha()` for every rank at its current collapse
//     level, and HllSketch the standard ~1.04/sqrt(2^p) cardinality error
//     (exact in the linear-counting regime that small groups live in).
//
// QuantileSketch is a DDSketch-style log-bucketed histogram: value v > 0
// lands in bucket ⌈log_γ v⌉ so every bucket spans a constant relative
// width. Collapse under a byte budget is *level-based*: level k uses
// γ_k = γ₀^(2^k), and raising the level re-indexes buckets by i ↦ ⌈i/2⌉ —
// bucket boundaries at level k+1 are a subset of level k's, which is what
// makes two sketches at different levels mergeable (align the finer one
// up, then add counts). Negative values mirror into a second store keyed
// by |v|; exact zeros count separately.
//
// HllSketch is a classic HyperLogLog register array with max-merge (fold
// order irrelevant, duplicate delivery a no-op) and the linear-counting
// small-range correction. Hashing is process-independent (FNV-1a over a
// canonical byte rendering + splitmix64 finalizer) so registers computed on
// different fleet nodes agree on equal values.
#ifndef SQLCM_SQLCM_SKETCH_H_
#define SQLCM_SQLCM_SKETCH_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/value.h"

namespace sqlcm::cm {

/// Process-independent 64-bit hash of a Value for DISTINCT counting:
/// FNV-1a over a kind tag + canonical payload bytes (int64/double bit
/// patterns little-endian, raw string bytes), splitmix64-finalized.
/// -0.0 normalizes to +0.0 and an integral double hashes like the equal
/// int, so 2 and 2.0 count as one distinct value (Value::Compare agrees).
uint64_t DistinctValueHash(const common::Value& v);

class QuantileSketch {
 public:
  /// Relative accuracy at level 0: γ₀ = (1+α₀)/(1−α₀). Collapsing squares
  /// γ, so the documented bound at level k is alpha() below.
  static constexpr double kBaseAlpha = 0.01;
  /// Bytes charged against the byte budget: a fixed header plus a fixed
  /// amount per bucket. Both are the sizes of the tree-based layout the
  /// buckets used to live in (a 128-byte object; key + count + node
  /// overhead per bucket), not of the contiguous store (80 bytes; 16 per
  /// bucket), so collapse points and reported sketch bytes stay where they
  /// were and snapshots taken before the change collapse identically.
  static constexpr size_t kHeaderBytes = 128;
  static constexpr size_t kBytesPerBucket = 48;
  /// Smallest budget a sketch can always meet: fully collapsed, each
  /// sign's store still holds buckets {0, 1} (i ↦ ⌈i/2⌉ never merges
  /// them). Below it CollapseToBudget climbs to the level cap.
  static constexpr size_t kMinBudgetBytes = kHeaderBytes + 4 * kBytesPerBucket;

  QuantileSketch() = default;

  /// Folds one value. NaN is ignored (it has no rank); ±0 counts in the
  /// exact-zero bucket.
  void Add(double v);

  /// Merges `other` in: aligns both sketches to max(level, other.level)
  /// and adds bucket counts. Associative and commutative.
  void Merge(const QuantileSketch& other);

  /// Subtracts `baseline` (a previous snapshot of this sketch) after
  /// aligning it up to this sketch's level; used to build federation
  /// deltas. Counts never go negative when `baseline` really is a past
  /// state of `this` (bucket counts are monotone under Add/Merge).
  void Subtract(const QuantileSketch& baseline);

  /// q ∈ [0,1]; the value at rank ⌊q·(count−1)⌋ of the folded multiset,
  /// within alpha() relative error (exact for zeros). Requires count() > 0.
  double Quantile(double q) const;

  int64_t count() const { return zero_count_ + neg_count_ + pos_count_; }
  bool empty() const { return count() == 0; }
  size_t bucket_count() const { return neg_.size() + pos_.size(); }
  size_t ApproxBytes() const {
    return kHeaderBytes + bucket_count() * kBytesPerBucket;
  }
  int level() const { return level_; }
  /// Documented relative-error bound at the current level.
  double alpha() const;

  /// Collapses (level-up) until ApproxBytes() <= max_bytes or a single
  /// bucket remains per store. Returns the number of level-ups performed.
  /// 0 = unbounded (no-op).
  int CollapseToBudget(size_t max_bytes) {
    // Inline fast path: almost every fold leaves the sketch within budget.
    if (max_bytes == 0 || ApproxBytes() <= max_bytes) return 0;
    return CollapseOverBudget(max_bytes);
  }

  /// Printable, CSV-safe state: "Q1 <level> <zero> <nneg> <npos> i:c ...".
  /// Empty sketches encode to "" so untouched cells stay compact.
  std::string Encode() const;
  static common::Result<QuantileSketch> Decode(std::string_view s);

  bool operator==(const QuantileSketch& other) const {
    return level_ == other.level_ && zero_count_ == other.zero_count_ &&
           neg_ == other.neg_ && pos_ == other.pos_;
  }

 private:
  int32_t IndexFor(double magnitude) const;
  double EstimateFor(int32_t index) const;
  void LevelUp();
  int CollapseOverBudget(size_t max_bytes);
  /// (index, count) pairs sorted by index, every count positive.
  using Buckets = std::vector<std::pair<int32_t, int64_t>>;

  /// Adds `count` to bucket `index`, inserting it in order if absent.
  static void AddToBucket(Buckets* buckets, int32_t index, int64_t count);
  /// Raises a bucket store by `levels` levels in place (i ↦ ⌈i/2⌉ per
  /// level; the map is monotone, so merged buckets stay adjacent).
  static void AlignUp(Buckets* buckets, int levels);

  int level_ = 0;
  int64_t zero_count_ = 0;
  int64_t neg_count_ = 0;  // cached sum of neg_ counts
  int64_t pos_count_ = 0;  // cached sum of pos_ counts
  Buckets neg_;  // keyed by index of |v|
  Buckets pos_;
};

class HllSketch {
 public:
  /// precision p: 2^p byte registers. Clamped to [4, 16] by Create/Decode.
  static constexpr int kDefaultPrecision = 10;

  explicit HllSketch(int precision = kDefaultPrecision);

  /// Folds one pre-hashed value (DistinctValueHash).
  void AddHash(uint64_t hash);

  /// Register-wise max; associative, commutative and idempotent (merging
  /// the same sketch twice is a no-op — the fold-stable property the
  /// federation delta grammar relies on).
  common::Status Merge(const HllSketch& other);

  /// Cardinality estimate with the linear-counting small-range correction;
  /// exact up to rounding while any register is still zero and the true
  /// cardinality is well under 2^p.
  int64_t Estimate() const;

  int precision() const { return precision_; }
  size_t register_count() const { return registers_.size(); }
  size_t ApproxBytes() const {
    return sizeof(HllSketch) + registers_.size();
  }
  /// Documented relative standard error: 1.04 / sqrt(2^p).
  double StandardError() const;

  /// Printable, CSV-safe state: "H1 <p> <hex registers>". A sketch with
  /// every register zero encodes to "" so untouched cells stay compact.
  std::string Encode() const;
  static common::Result<HllSketch> Decode(std::string_view s);

  bool operator==(const HllSketch& other) const {
    return precision_ == other.precision_ && registers_ == other.registers_;
  }

 private:
  int precision_ = kDefaultPrecision;
  std::vector<uint8_t> registers_;
};

}  // namespace sqlcm::cm

#endif  // SQLCM_SQLCM_SKETCH_H_
