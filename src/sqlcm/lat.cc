#include "sqlcm/lat.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <mutex>
#include <numeric>
#include <thread>

#include "common/fault.h"
#include "common/string_util.h"

namespace sqlcm::cm {

using common::Result;
using common::Row;
using common::Status;
using common::Value;
using common::ValueKind;

const char* LatAggFuncName(LatAggFunc func) {
  switch (func) {
    case LatAggFunc::kCount: return "COUNT";
    case LatAggFunc::kSum: return "SUM";
    case LatAggFunc::kAvg: return "AVG";
    case LatAggFunc::kStdev: return "STDEV";
    case LatAggFunc::kMin: return "MIN";
    case LatAggFunc::kMax: return "MAX";
    case LatAggFunc::kFirst: return "FIRST";
    case LatAggFunc::kLast: return "LAST";
    case LatAggFunc::kQuantile: return "QUANTILE";
    case LatAggFunc::kDistinct: return "DISTINCT";
  }
  return "?";
}

Result<LatAggFunc> ParseLatAggFunc(std::string_view name) {
  using common::EqualsIgnoreCase;
  if (EqualsIgnoreCase(name, "COUNT")) return LatAggFunc::kCount;
  if (EqualsIgnoreCase(name, "SUM")) return LatAggFunc::kSum;
  if (EqualsIgnoreCase(name, "AVG") || EqualsIgnoreCase(name, "AVERAGE")) {
    return LatAggFunc::kAvg;
  }
  if (EqualsIgnoreCase(name, "STDEV")) return LatAggFunc::kStdev;
  if (EqualsIgnoreCase(name, "MIN")) return LatAggFunc::kMin;
  if (EqualsIgnoreCase(name, "MAX")) return LatAggFunc::kMax;
  if (EqualsIgnoreCase(name, "FIRST")) return LatAggFunc::kFirst;
  if (EqualsIgnoreCase(name, "LAST")) return LatAggFunc::kLast;
  if (EqualsIgnoreCase(name, "QUANTILE") ||
      EqualsIgnoreCase(name, "PERCENTILE")) {
    return LatAggFunc::kQuantile;
  }
  if (EqualsIgnoreCase(name, "DISTINCT") ||
      EqualsIgnoreCase(name, "COUNT_DISTINCT")) {
    return LatAggFunc::kDistinct;
  }
  return Status::NotFound("unknown LAT aggregation function '" +
                          std::string(name) + "'");
}

namespace {

bool NeedsNumericInput(LatAggFunc func) {
  return func == LatAggFunc::kSum || func == LatAggFunc::kAvg ||
         func == LatAggFunc::kStdev || func == LatAggFunc::kQuantile;
}

/// splitmix64 finalizer: decorrelates HashRow's low bits before they are
/// reused as both the shard selector and the directory key.
uint64_t MixHash(uint64_t h) {
  h += 0x9e3779b97f4a7c15ull;
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ull;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebull;
  return h ^ (h >> 31);
}

size_t NextPowerOfTwo(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

/// Resolves LatSpec::shard_count: explicit spec value, else the
/// SQLCM_LAT_SHARDS environment override, else 4 stripes per hardware
/// thread (≥16: containers often under-report concurrency, and idle
/// stripes cost ~100 bytes each).
size_t ResolveShardCount(size_t requested) {
  size_t n = requested;
  if (n == 0) {
    if (const char* env = std::getenv("SQLCM_LAT_SHARDS")) {
      n = static_cast<size_t>(std::strtoul(env, nullptr, 10));
    }
  }
  if (n == 0) {
    const size_t hw = std::thread::hardware_concurrency();
    n = std::max<size_t>(16, 4 * hw);
  }
  return NextPowerOfTwo(std::clamp<size_t>(n, 1, 1024));
}

/// Thread-local scratch row for group keys: the Insert/Lookup hot path
/// refills it instead of allocating a fresh Row per call. Each use is
/// complete before any callback that could re-enter a LAT runs.
Row& ScratchKey() {
  thread_local Row key;
  return key;
}

}  // namespace

uint64_t LatEvictionRank(const Value& v, ValueKind column_kind,
                         bool descending) {
  // Encode in value order first (NULL lowest, as in Value::Compare), then
  // flip for ASC columns, where the larger value is the less important.
  constexpr uint64_t kSign = uint64_t{1} << 63;
  uint64_t enc;
  if (v.is_null()) {
    enc = 0;
  } else if (column_kind == ValueKind::kInt) {
    if (!v.is_int()) return kLatRankUnordered;
    enc = std::clamp<uint64_t>(static_cast<uint64_t>(v.int_value()) ^ kSign,
                               1, kLatRankMax);
  } else if (column_kind == ValueKind::kDouble) {
    // Compare orders every numeric by AsDouble, so INT values in a DOUBLE
    // column rank through the same encoding.
    if (!v.is_numeric()) return kLatRankUnordered;
    const double d = v.AsDouble();
    // NaN ties every number under Compare: no single rank can say so.
    if (std::isnan(d)) return kLatRankUnordered;
    const uint64_t bits = std::bit_cast<uint64_t>(d == 0.0 ? 0.0 : d);
    enc = std::clamp<uint64_t>((bits & kSign) != 0 ? ~bits : bits | kSign, 1,
                               kLatRankMax);
  } else {
    enc = 1;
  }
  return descending ? enc : kLatRankMax - enc;
}

Result<std::unique_ptr<Lat>> Lat::Create(LatSpec spec) {
  if (spec.name.empty()) {
    return Status::InvalidArgument("LAT must have a name");
  }
  if (spec.object_class == MonitoredClass::kEvicted) {
    return Status::InvalidArgument(
        "LATs over evicted rows are not supported; persist them instead");
  }
  if (spec.group_by.empty()) {
    return Status::InvalidArgument("LAT '" + spec.name +
                                   "' needs at least one grouping column");
  }
  if ((spec.max_rows > 0 || spec.max_bytes > 0) && spec.ordering.empty()) {
    return Status::InvalidArgument(
        "LAT '" + spec.name +
        "' declares a size limit but no ordering columns for eviction");
  }
  const bool any_aging = std::any_of(spec.aggregates.begin(),
                                     spec.aggregates.end(),
                                     [](const LatAggColumn& c) { return c.aging; });
  if (spec.quantile_sketch_bytes != 0 &&
      spec.quantile_sketch_bytes < QuantileSketch::kMinBudgetBytes) {
    return Status::InvalidArgument(
        "LAT '" + spec.name +
        "': quantile_sketch_bytes must be 0 or at least " +
        std::to_string(QuantileSketch::kMinBudgetBytes));
  }
  if (any_aging) {
    if (spec.aging_window_micros <= 0 || spec.aging_block_micros <= 0 ||
        spec.aging_block_micros > spec.aging_window_micros) {
      return Status::InvalidArgument(
          "LAT '" + spec.name +
          "' has aging aggregates but invalid aging window/block sizes");
    }
  }

  auto lat = std::unique_ptr<Lat>(new Lat(std::move(spec)));
  const LatSpec& s = lat->spec_;
  const ObjectSchema& schema = ObjectSchema::Get();
  lat->lower_name_ = common::ToLower(s.name);
  lat->shard_count_ = ResolveShardCount(s.shard_count);
  lat->shards_ = std::make_unique<Shard[]>(lat->shard_count_);
  lat->root_ranks_ =
      std::make_unique<std::atomic<uint64_t>[]>(lat->shard_count_);
  for (size_t i = 0; i < lat->shard_count_; ++i) {
    lat->root_ranks_[i].store(kLatRankEmpty, std::memory_order_relaxed);
  }
  if (any_aging) {
    // §4.3 bound ⌈2t/Δ⌉, with enough slack (t/Δ + 3) that in-order folds,
    // which pruning keeps within t/Δ + 2 blocks, never reach it.
    const int64_t t = s.aging_window_micros;
    const int64_t d = s.aging_block_micros;
    lat->max_aging_blocks_ =
        static_cast<size_t>(std::max((2 * t + d - 1) / d, t / d + 3));
  }

  for (const LatGroupColumn& col : s.group_by) {
    const int attr = schema.FindAttribute(s.object_class, col.attribute);
    if (attr < 0) {
      return Status::NotFound("LAT '" + s.name + "': class " +
                              MonitoredClassName(s.object_class) +
                              " has no attribute '" + col.attribute + "'");
    }
    const AttributeDef& def = schema.attributes(s.object_class)[attr];
    lat->group_getters_.push_back(def.getter);
    lat->column_names_.push_back(col.alias.empty() ? col.attribute : col.alias);
    lat->column_kinds_.push_back(def.kind);
  }
  for (const LatAggColumn& col : s.aggregates) {
    AttributeGetter getter = nullptr;
    ValueKind input_kind = ValueKind::kInt;
    if (!col.attribute.empty()) {
      const int attr = schema.FindAttribute(s.object_class, col.attribute);
      if (attr < 0) {
        return Status::NotFound("LAT '" + s.name + "': class " +
                                MonitoredClassName(s.object_class) +
                                " has no attribute '" + col.attribute + "'");
      }
      const AttributeDef& def = schema.attributes(s.object_class)[attr];
      getter = def.getter;
      input_kind = def.kind;
    } else if (col.func != LatAggFunc::kCount) {
      return Status::InvalidArgument(
          "LAT '" + s.name + "': " + LatAggFuncName(col.func) +
          " needs an input attribute");
    }
    if (NeedsNumericInput(col.func) && input_kind != ValueKind::kInt &&
        input_kind != ValueKind::kDouble) {
      return Status::TypeError("LAT '" + s.name + "': " +
                               LatAggFuncName(col.func) +
                               " requires a numeric attribute, got '" +
                               col.attribute + "'");
    }
    if (col.aging &&
        (col.func == LatAggFunc::kFirst || col.func == LatAggFunc::kLast)) {
      return Status::InvalidArgument(
          "LAT '" + s.name + "': FIRST/LAST have no aging variant");
    }
    if (col.aging && LatAggFuncIsSketch(col.func)) {
      return Status::InvalidArgument(
          "LAT '" + s.name + "': " + LatAggFuncName(col.func) +
          " has no aging variant (per-block sketches are not supported)");
    }
    if (col.func == LatAggFunc::kQuantile &&
        !(col.quantile >= 0.0 && col.quantile <= 1.0)) {
      return Status::InvalidArgument(
          "LAT '" + s.name + "': QUANTILE rank fraction must be in [0, 1]");
    }
    lat->agg_getters_.push_back(getter);
    std::string name = col.alias;
    if (name.empty()) {
      name = std::string(LatAggFuncName(col.func)) +
             (col.attribute.empty() ? "" : "_" + col.attribute);
    }
    lat->column_names_.push_back(std::move(name));
    ValueKind out_kind;
    switch (col.func) {
      case LatAggFunc::kCount:
        out_kind = ValueKind::kInt;
        break;
      case LatAggFunc::kSum:
      case LatAggFunc::kAvg:
      case LatAggFunc::kStdev:
      case LatAggFunc::kQuantile:
        out_kind = ValueKind::kDouble;
        break;
      case LatAggFunc::kDistinct:
        out_kind = ValueKind::kInt;
        break;
      default:
        out_kind = input_kind;
    }
    lat->column_kinds_.push_back(out_kind);
  }

  // State-record geometry: per-aggregate base offsets (sketch-bearing
  // aggregates carry a 10th `#sketch` codec cell).
  lat->distinct_precision_ = std::clamp(s.distinct_precision, 4, 16);
  size_t state_offset = lat->group_width();
  for (const LatAggColumn& col : s.aggregates) {
    lat->state_agg_base_.push_back(state_offset);
    state_offset += LatAggFuncIsSketch(col.func) ? 10 : 9;
    if (LatAggFuncIsSketch(col.func)) lat->has_sketch_ = true;
  }
  lat->state_width_ = state_offset;

  // Column names must be unique.
  for (size_t i = 0; i < lat->column_names_.size(); ++i) {
    for (size_t j = i + 1; j < lat->column_names_.size(); ++j) {
      if (common::EqualsIgnoreCase(lat->column_names_[i],
                                   lat->column_names_[j])) {
        return Status::InvalidArgument("LAT '" + s.name +
                                       "': duplicate column name '" +
                                       lat->column_names_[i] + "'");
      }
    }
  }

  for (const LatOrdering& ord : s.ordering) {
    const int idx = lat->FindColumn(ord.column);
    if (idx < 0) {
      return Status::NotFound("LAT '" + s.name + "': ordering column '" +
                              ord.column + "' does not exist");
    }
    lat->ordering_columns_.push_back(idx);
  }
  if (!lat->ordering_columns_.empty()) {
    lat->rank_kind_ =
        lat->column_kinds_[static_cast<size_t>(lat->ordering_columns_[0])];
  }
  return lat;
}

int Lat::FindColumn(std::string_view name) const {
  for (size_t i = 0; i < column_names_.size(); ++i) {
    if (common::EqualsIgnoreCase(column_names_[i], name)) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

Row Lat::GroupKeyFor(const void* record) const {
  Row key;
  key.reserve(group_getters_.size());
  for (AttributeGetter getter : group_getters_) key.push_back(getter(record));
  return key;
}

uint64_t Lat::HashGroupKey(const Row& key) const {
  return MixHash(static_cast<uint64_t>(common::HashRow(key)));
}

std::shared_ptr<Lat::LatRow> Lat::FindInShardLocked(const Shard& shard,
                                                    uint64_t hash,
                                                    const Row& key) const {
  auto it = shard.map.find(hash);
  if (it == shard.map.end()) return nullptr;
  for (const std::shared_ptr<LatRow>* p = &it->second; *p != nullptr;
       p = &(*p)->next) {
    if (common::RowEq()((*p)->group_key, key)) return *p;
  }
  return nullptr;
}

std::shared_ptr<Lat::LatRow> Lat::FindOrCreateLocked(Shard* shard,
                                                     uint64_t hash,
                                                     const Row& key,
                                                     bool* created) {
  auto [it, _] = shard->map.try_emplace(hash);
  for (const std::shared_ptr<LatRow>* p = &it->second; *p != nullptr;
       p = &(*p)->next) {
    if (common::RowEq()((*p)->group_key, key)) {
      *created = false;
      return *p;
    }
  }
  auto row = std::make_shared<LatRow>();
  row->hash = hash;
  row->group_key = key;
  row->aggs.resize(spec_.aggregates.size());
  row->next = std::move(it->second);
  it->second = row;
  *created = true;
  return row;
}

std::shared_ptr<Lat::LatRow> Lat::UnlinkLocked(Shard* shard, LatRow* row) {
  auto it = shard->map.find(row->hash);
  if (it == shard->map.end()) return nullptr;
  std::shared_ptr<LatRow> unlinked;
  for (std::shared_ptr<LatRow>* p = &it->second; *p != nullptr;
       p = &(*p)->next) {
    if (p->get() == row) {
      unlinked = *p;
      std::shared_ptr<LatRow> next = std::move((*p)->next);
      *p = std::move(next);
      break;
    }
  }
  if (it->second == nullptr) shard->map.erase(it);
  return unlinked;
}

void Lat::FoldValue(AggState* state, const LatAggColumn& col, Value v,
                    int64_t now_micros) {
  if (LatAggFuncIsSketch(col.func)) {
    // Sketch aggregates keep only count + sketch (count drives the
    // federation delta's fresh/changed detection; the scalar moments stay
    // zero so the classic codec cells remain cheap).
    ++state->count;
    if (col.func == LatAggFunc::kQuantile) {
      if (v.is_numeric()) {
        if (state->qsketch == nullptr) {
          state->qsketch = std::make_unique<QuantileSketch>();
        }
        state->qsketch->Add(v.AsDouble());
        const int ups =
            state->qsketch->CollapseToBudget(spec_.quantile_sketch_bytes);
        if (ups > 0) stats_.sketch_collapses.Inc(static_cast<uint64_t>(ups));
      }
    } else if (!v.is_null()) {
      if (state->hll == nullptr) {
        state->hll = std::make_unique<HllSketch>(distinct_precision_);
      }
      state->hll->AddHash(DistinctValueHash(v));
    }
    return;
  }
  if (col.aging) {
    // Locate (or open) the block for `now`; prune expired blocks.
    if (state->blocks == nullptr) {
      state->blocks = std::make_unique<std::deque<AgingBlock>>();
    }
    std::deque<AgingBlock>& blocks = *state->blocks;
    const int64_t block_start =
        now_micros - (now_micros % spec_.aging_block_micros);
    while (!blocks.empty() &&
           blocks.front().block_start + spec_.aging_block_micros <=
               now_micros - spec_.aging_window_micros) {
      blocks.pop_front();
    }
    if (blocks.empty() || blocks.back().block_start != block_start) {
      AgingBlock block;
      block.block_start = block_start;
      blocks.push_back(std::move(block));
      // Sessions folding with out-of-order `now` across a block boundary
      // push a fresh block at every alternation, and pruning stops at the
      // first unexpired front block, so nothing else bounds the deque. Cap
      // it by folding the oldest block into a later block with the same
      // label (invisible to reads), else into its neighbour. In-order folds
      // never reach the cap: pruning keeps at most t/Δ + 2 blocks.
      while (blocks.size() > max_aging_blocks_) {
        const AgingBlock& oldest = blocks[0];
        size_t into_pos = 1;
        for (size_t i = 1; i < blocks.size(); ++i) {
          if (blocks[i].block_start == oldest.block_start) {
            into_pos = i;
            break;
          }
        }
        AgingBlock& into = blocks[into_pos];
        into.count += oldest.count;
        into.sum += oldest.sum;
        into.sumsq += oldest.sumsq;
        if (oldest.any) {
          if (!into.any || oldest.min.Compare(into.min) < 0) {
            into.min = oldest.min;
          }
          if (!into.any || oldest.max.Compare(into.max) > 0) {
            into.max = oldest.max;
          }
          into.any = true;
        }
        blocks.pop_front();
        stats_.aging_merges.Inc();
      }
    }
    AgingBlock& block = blocks.back();
    ++block.count;
    if (v.is_numeric()) {
      const double d = v.AsDouble();
      block.sum += d;
      block.sumsq += d * d;
    }
    if (!v.is_null()) {
      if (!block.any || v.Compare(block.min) < 0) block.min = v;
      if (!block.any || v.Compare(block.max) > 0) block.max = v;
      block.any = true;
    }
    return;
  }
  // `count` always moves: DiffStateRecord's no-change test relies on it.
  // The first/min/max moments are kept only for the functions that read
  // them, so they stay NULL elsewhere (no value copies on, say, a LAST
  // over query text).
  ++state->count;
  if (v.is_numeric()) {
    const double d = v.AsDouble();
    state->sum += d;
    state->sumsq += d * d;
  }
  if (!v.is_null()) {
    switch (col.func) {
      case LatAggFunc::kFirst:
        if (!state->any) state->first = v;
        break;
      case LatAggFunc::kMin:
        if (!state->any || v.Compare(state->min) < 0) state->min = v;
        break;
      case LatAggFunc::kMax:
        if (!state->any || v.Compare(state->max) > 0) state->max = v;
        break;
      default:
        break;
    }
    state->any = true;
    state->last = std::move(v);  // last use; avoids a copy for strings
  } else if (!state->any && col.func == LatAggFunc::kFirst) {
    // FIRST retains the first inserted value even when NULL.
    state->first = v;
  }
}

Value Lat::AggValue(const AggState& state, const LatAggColumn& col,
                    int64_t now_micros) const {
  int64_t count = state.count;
  double sum = state.sum;
  double sumsq = state.sumsq;
  Value min = state.min, max = state.max;
  bool any = state.any;
  if (col.aging) {
    // An unallocated block deque and a deque whose blocks have all aged
    // out are the same empty window: both fall through to the shared
    // switch with count = 0 / any = false, so every aggregate's
    // empty-window answer (COUNT 0, STDEV 0, SUM/AVG/MIN/MAX NULL) comes
    // from exactly one code path. (A duplicated early return here once
    // disagreed with the aged-out path for aging STDEV — PR 7 — and the
    // duplication itself was the bug class.)
    count = 0;
    sum = sumsq = 0;
    any = false;
    min = max = Value::Null();
    if (state.blocks != nullptr) {
      const int64_t horizon = now_micros - spec_.aging_window_micros;
      for (const AgingBlock& block : *state.blocks) {
        if (block.block_start + spec_.aging_block_micros <= horizon) continue;
        count += block.count;
        sum += block.sum;
        sumsq += block.sumsq;
        if (block.any) {
          if (!any || block.min.Compare(min) < 0) min = block.min;
          if (!any || block.max.Compare(max) > 0) max = block.max;
          any = true;
        }
      }
    }
  }
  switch (col.func) {
    case LatAggFunc::kCount:
      return Value::Int(count);
    case LatAggFunc::kSum:
      return count > 0 ? Value::Double(sum) : Value::Null();
    case LatAggFunc::kAvg:
      return count > 0 ? Value::Double(sum / static_cast<double>(count))
                       : Value::Null();
    case LatAggFunc::kStdev: {
      if (count < 2) return Value::Double(0);
      const double n = static_cast<double>(count);
      const double variance = std::max(0.0, (sumsq - sum * sum / n) / (n - 1));
      return Value::Double(std::sqrt(variance));
    }
    case LatAggFunc::kMin:
      return any ? min : Value::Null();
    case LatAggFunc::kMax:
      return any ? max : Value::Null();
    case LatAggFunc::kFirst:
      return state.first;
    case LatAggFunc::kLast:
      return state.last;
    case LatAggFunc::kQuantile:
      // NULL until a numeric value has been folded (NaN/NULL inputs do not
      // enter the sketch), mirroring SUM/AVG's empty answer.
      return state.qsketch != nullptr && !state.qsketch->empty()
                 ? Value::Double(state.qsketch->Quantile(col.quantile))
                 : Value::Null();
    case LatAggFunc::kDistinct:
      // 0 (not NULL) for an empty set, matching COUNT's convention.
      return Value::Int(state.hll != nullptr ? state.hll->Estimate() : 0);
  }
  return Value::Null();
}

Row Lat::MaterializeLocked(const LatRow& row, int64_t now_micros) const {
  Row out = row.group_key;
  out.reserve(num_columns());
  for (size_t a = 0; a < spec_.aggregates.size(); ++a) {
    out.push_back(AggValue(row.aggs[a], spec_.aggregates[a], now_micros));
  }
  return out;
}

Row Lat::OrderingKeyLocked(const LatRow& row, int64_t now_micros) const {
  Row key;
  key.reserve(ordering_columns_.size());
  const size_t groups = group_width();
  for (int col : ordering_columns_) {
    const size_t c = static_cast<size_t>(col);
    if (c < groups) {
      key.push_back(row.group_key[c]);
    } else {
      const size_t a = c - groups;
      key.push_back(AggValue(row.aggs[a], spec_.aggregates[a], now_micros));
    }
  }
  return key;
}

bool Lat::LessImportant(const Row& a, const Row& b) const {
  for (size_t i = 0; i < spec_.ordering.size(); ++i) {
    const int c = a[i].Compare(b[i]);
    if (c == 0) continue;
    // DESC ordering: smaller value = less important (evicted first).
    // ASC ordering: larger value = less important.
    return spec_.ordering[i].descending ? c < 0 : c > 0;
  }
  return false;
}

size_t Lat::ApproxRowBytesLocked(const LatRow& row) {
  size_t bytes = sizeof(LatRow);
  for (const Value& v : row.group_key) bytes += v.ApproxBytes();
  for (const AggState& state : row.aggs) {
    bytes += sizeof(AggState);
    bytes += state.min.ApproxBytes() + state.max.ApproxBytes() +
             state.first.ApproxBytes() + state.last.ApproxBytes();
    if (state.blocks != nullptr) {
      bytes += state.blocks->size() * sizeof(AgingBlock);
    }
    if (state.qsketch != nullptr) bytes += state.qsketch->ApproxBytes();
    if (state.hll != nullptr) bytes += state.hll->ApproxBytes();
  }
  return bytes;
}

void Lat::SketchFootprint(size_t* sketch_bytes, size_t* sketch_cells) const {
  size_t bytes = 0;
  size_t cells = 0;
  if (has_sketch_) {
    std::vector<std::shared_ptr<LatRow>> rows;
    rows.reserve(size());
    for (size_t s = 0; s < shard_count_; ++s) {
      const Shard& shard = shards_[s];
      std::lock_guard<common::SpinLatch> map_guard(shard.map_latch);
      for (const auto& [_, head] : shard.map) {
        for (std::shared_ptr<LatRow> row = head; row != nullptr;
             row = row->next) {
          rows.push_back(row);
        }
      }
    }
    for (const auto& row : rows) {
      std::lock_guard<common::SpinLatch> row_guard(row->latch);
      for (const AggState& state : row->aggs) {
        if (state.qsketch != nullptr) {
          bytes += state.qsketch->ApproxBytes();
          cells += state.qsketch->bucket_count();
        }
        if (state.hll != nullptr) {
          bytes += state.hll->ApproxBytes();
          cells += state.hll->register_count();
        }
      }
    }
  }
  if (sketch_bytes != nullptr) *sketch_bytes = bytes;
  if (sketch_cells != nullptr) *sketch_cells = cells;
}

namespace {

/// Latch guard for the Insert hot path that feeds LatStats: every
/// acquisition is counted, and a failed try_lock (another thread holds the
/// latch, we must spin) counts as contention.
class CountedLatchGuard {
 public:
  CountedLatchGuard(common::SpinLatch& latch, LatStats& stats)
      : latch_(latch) {
    stats.latch_acquisitions.Inc();
    if (!latch_.try_lock()) {
      stats.latch_contention.Inc();
      latch_.lock();
    } else if (common::FaultFires(kFaultLatLatch)) {
      // Injected stall: account an uncontended acquisition as contention so
      // tests can drive the contention path without real thread races.
      stats.latch_contention.Inc();
    }
  }
  ~CountedLatchGuard() { latch_.unlock(); }
  CountedLatchGuard(const CountedLatchGuard&) = delete;
  CountedLatchGuard& operator=(const CountedLatchGuard&) = delete;

 private:
  common::SpinLatch& latch_;
};

}  // namespace

void Lat::Insert(const void* record, int64_t now_micros) {
  stats_.inserts.Inc();
  // Probe with the thread-local scratch key: no Row allocation on the hit
  // path, and the directory compares against it lazily (hash first, values
  // only on a chain hit).
  Row& key = ScratchKey();
  key.clear();
  for (AttributeGetter getter : group_getters_) key.push_back(getter(record));
  const uint64_t hash = HashGroupKey(key);
  Shard& shard = ShardFor(hash);

  std::shared_ptr<LatRow> row;
  bool created = false;
  {
    CountedLatchGuard map_guard(shard.map_latch, stats_);
    row = FindOrCreateLocked(&shard, hash, key, &created);
  }
  if (created) total_rows_.fetch_add(1, std::memory_order_acq_rel);

  const bool bounded = spec_.max_rows > 0 || spec_.max_bytes > 0;
  Row ordering_key;
  size_t row_bytes = 0;
  bool skip_heap = false;
  {
    CountedLatchGuard row_guard(row->latch, stats_);
    for (size_t a = 0; a < spec_.aggregates.size(); ++a) {
      Value v = agg_getters_[a] != nullptr ? agg_getters_[a](record)
                                           : Value::Int(1);
      FoldValue(&row->aggs[a], spec_.aggregates[a], std::move(v), now_micros);
    }
    if (bounded) {
      ordering_key = OrderingKeyLocked(*row, now_micros);
      if (spec_.max_bytes > 0) {
        row_bytes = ApproxRowBytesLocked(*row);
      } else if (row->in_heap.load(std::memory_order_acquire) &&
                 common::RowEq()(ordering_key, row->ordering_cache)) {
        // Ordering unchanged (common for MIN/MAX/FIRST orderings) and no
        // byte accounting to refresh: the heap position is already right
        // and the budgets did not move, so skip the heap latch entirely.
        skip_heap = true;
        stats_.heap_skips.Inc();
      }
      if (!skip_heap) row->ordering_cache = ordering_key;
    }
  }

  if (!bounded || skip_heap) return;

  MaintainHeap(row, std::move(ordering_key), row_bytes);
  EvictOverBudget(now_micros, /*notify=*/true);
}

/// InsertBatch's working set. Every vector keeps its capacity across
/// calls, so once a thread has seen its largest batch the fold path
/// allocates nothing of its own (attribute getters may still copy string
/// probes). Groups are numbered 0..G-1 in first-appearance order.
struct Lat::BatchScratch {
  static constexpr uint32_t kNoItem = UINT32_MAX;

  Row probe;                      // group key of the item being mapped
  std::vector<Row> keys;          // per group: its key (rows are reused)
  std::vector<uint64_t> hashes;   // per group: HashGroupKey of its key
  std::vector<uint32_t> first;    // per group: its first item
  std::vector<uint32_t> last;     // per group: its last item so far
  std::vector<uint32_t> next;     // per item: next item of its group
  std::vector<uint32_t> slots;    // open addressing: group + 1, 0 = empty
  std::vector<uint32_t> by_shard; // groups ordered by (shard, group)
  std::vector<std::shared_ptr<LatRow>> rows;  // per group: resolved row
};

void Lat::InsertBatch(const LatBatchItem* items, size_t count) {
  if (count == 0) return;
  if (count == 1) {
    Insert(items[0].record, items[0].now_micros);
    return;
  }
  stats_.inserts.Inc(count);
  // No callback runs until the scratch is released below, so nothing can
  // re-enter InsertBatch on this thread while it is in use.
  thread_local BatchScratch sc;
  sc.hashes.clear();
  sc.first.clear();
  sc.last.clear();
  sc.next.assign(count, BatchScratch::kNoItem);
  // Load factor <= 1/2 even when every item is its own group.
  const size_t table_bits = std::bit_width(2 * count - 1);
  sc.slots.assign(size_t{1} << table_bits, 0);
  const size_t slot_mask = sc.slots.size() - 1;

  // Phase 1 (latch-free): map every item to its batch-local group. The
  // table is indexed by the hash's high bits (the low bits pick the shard).
  for (size_t i = 0; i < count; ++i) {
    Row& probe = sc.probe;
    probe.clear();
    for (AttributeGetter getter : group_getters_) {
      probe.push_back(getter(items[i].record));
    }
    const uint64_t hash = HashGroupKey(probe);
    size_t slot = static_cast<size_t>(hash >> (64 - table_bits));
    for (; sc.slots[slot] != 0; slot = (slot + 1) & slot_mask) {
      const uint32_t g = sc.slots[slot] - 1;
      if (sc.hashes[g] == hash && common::RowEq()(sc.keys[g], probe)) break;
    }
    const auto item = static_cast<uint32_t>(i);
    if (sc.slots[slot] != 0) {  // a repeat: chain it after the group's last
      const uint32_t g = sc.slots[slot] - 1;
      sc.next[sc.last[g]] = item;
      sc.last[g] = item;
      continue;
    }
    const auto g = static_cast<uint32_t>(sc.hashes.size());
    sc.slots[slot] = g + 1;
    if (g < sc.keys.size()) {
      sc.keys[g].swap(probe);  // hands probe the old key's buffer
    } else {
      sc.keys.push_back(std::move(probe));
    }
    sc.hashes.push_back(hash);
    sc.first.push_back(item);
    sc.last.push_back(item);
  }
  const size_t groups = sc.hashes.size();

  // Phase 2: resolve each distinct group's row once, shard by shard, so
  // each touched shard's map latch is taken exactly once. Within a shard
  // groups are created in first-appearance order, as per-item inserts
  // would create them.
  sc.by_shard.resize(groups);
  std::iota(sc.by_shard.begin(), sc.by_shard.end(), 0u);
  std::sort(sc.by_shard.begin(), sc.by_shard.end(),
            [&](uint32_t a, uint32_t b) {
              const size_t sa = ShardIndex(sc.hashes[a]);
              const size_t sb = ShardIndex(sc.hashes[b]);
              return sa != sb ? sa < sb : a < b;
            });
  sc.rows.resize(groups);
  size_t created_rows = 0;
  for (size_t pos = 0; pos < groups;) {
    const size_t shard_idx = ShardIndex(sc.hashes[sc.by_shard[pos]]);
    Shard& shard = shards_[shard_idx];
    CountedLatchGuard map_guard(shard.map_latch, stats_);
    for (; pos < groups &&
           ShardIndex(sc.hashes[sc.by_shard[pos]]) == shard_idx;
         ++pos) {
      const uint32_t g = sc.by_shard[pos];
      bool created = false;
      sc.rows[g] = FindOrCreateLocked(&shard, sc.hashes[g], sc.keys[g],
                                      &created);
      if (created) ++created_rows;
    }
  }
  if (created_rows > 0) {
    total_rows_.fetch_add(created_rows, std::memory_order_acq_rel);
  }

  // Phase 3: fold per distinct group in first-appearance order — one row
  // latch per group, that group's items in arrival order.
  const bool bounded = spec_.max_rows > 0 || spec_.max_bytes > 0;
  for (size_t g = 0; g < groups; ++g) {
    const std::shared_ptr<LatRow>& row = sc.rows[g];
    Row ordering_key;
    size_t row_bytes = 0;
    bool skip_heap = false;
    {
      CountedLatchGuard row_guard(row->latch, stats_);
      for (uint32_t i = sc.first[g]; i != BatchScratch::kNoItem;
           i = sc.next[i]) {
        for (size_t a = 0; a < spec_.aggregates.size(); ++a) {
          Value v = agg_getters_[a] != nullptr ? agg_getters_[a](items[i].record)
                                               : Value::Int(1);
          FoldValue(&row->aggs[a], spec_.aggregates[a], std::move(v),
                    items[i].now_micros);
        }
      }
      if (bounded) {
        ordering_key = OrderingKeyLocked(*row, items[sc.last[g]].now_micros);
        if (spec_.max_bytes > 0) {
          row_bytes = ApproxRowBytesLocked(*row);
        } else if (row->in_heap.load(std::memory_order_acquire) &&
                   common::RowEq()(ordering_key, row->ordering_cache)) {
          skip_heap = true;
          stats_.heap_skips.Inc();
        }
        if (!skip_heap) row->ordering_cache = ordering_key;
      }
    }
    if (bounded && !skip_heap) {
      MaintainHeap(row, std::move(ordering_key), row_bytes);
    }
  }
  // Release the row references before eviction may unlink (and its
  // callback re-enter) anything.
  sc.rows.clear();
  if (bounded) {
    EvictOverBudget(items[count - 1].now_micros, /*notify=*/true);
  }
}

void Lat::MaintainHeap(const std::shared_ptr<LatRow>& row, Row ordering_key,
                       size_t row_bytes) {
  const size_t s = ShardIndex(row->hash);
  Shard* shard = &shards_[s];
  CountedLatchGuard heap_guard(shard->heap_latch, stats_);
  if (row->evicted) {
    // Racing update to a row already chosen for eviction: drop it.
    return;
  }
  row->rank = RankOf(ordering_key);
  row->ordering_key = std::move(ordering_key);
  if (spec_.max_bytes > 0) {
    // Unsigned wrap-around of the delta is fine: the global sum stays
    // coherent because every delta is eventually balanced.
    total_bytes_.fetch_add(row_bytes - row->approx_bytes,
                           std::memory_order_acq_rel);
    row->approx_bytes = row_bytes;
  }
  if (row->heap_index == SIZE_MAX) {
    HeapInsertLocked(shard, row.get());
    row->in_heap.store(true, std::memory_order_release);
  } else {
    HeapRepositionLocked(shard, row.get());
  }
  PublishRootLocked(s);
}

size_t Lat::PickVictimShard() const {
  // Lowest published rank wins outright. Rows leave heaps only under the
  // evict latch, so a rank read here can have moved only by a concurrent
  // insert or update, exactly as a latched scan could have raced one.
  uint64_t best_rank = kLatRankEmpty;
  size_t best_shard = SIZE_MAX;
  size_t ties = 0;
  bool unordered = false;
  for (size_t s = 0; s < shard_count_; ++s) {
    const uint64_t rank = root_ranks_[s].load(std::memory_order_acquire);
    if (rank == kLatRankUnordered) {
      unordered = true;
    } else if (rank < best_rank) {
      best_rank = rank;
      best_shard = s;
      ties = 1;
    } else if (rank == best_rank && rank != kLatRankEmpty) {
      ++ties;
    }
  }
  if (ties <= 1 && !unordered) return best_shard;
  // Tied (or unordered) roots: compare their full ordering keys under each
  // heap latch, first shard winning a full tie.
  best_shard = SIZE_MAX;
  Row best_key;
  for (size_t s = 0; s < shard_count_; ++s) {
    const uint64_t rank = root_ranks_[s].load(std::memory_order_acquire);
    if (rank > best_rank && rank != kLatRankUnordered) continue;
    std::lock_guard<common::SpinLatch> heap_guard(shards_[s].heap_latch);
    if (shards_[s].heap.empty()) continue;
    const Row& root_key = shards_[s].heap[0]->ordering_key;
    if (best_shard == SIZE_MAX || LessImportant(root_key, best_key)) {
      best_shard = s;
      best_key = root_key;
    }
  }
  return best_shard;
}

void Lat::EvictOverBudget(int64_t now_micros, bool notify) {
  if (!OverBudget()) return;

  // Per-thread scratch, so an evicting insert allocates no victim list. It
  // is emptied before any callback runs, and callbacks may re-enter.
  thread_local std::vector<std::shared_ptr<LatRow>> victims;
  {
    // The evict latch serializes budget enforcement so concurrent inserters
    // do not over-evict. Every insert into a full bounded LAT gets here.
    std::lock_guard<common::SpinLatch> evict_guard(evict_latch_);
    while (OverBudget()) {
      const size_t best_shard = PickVictimShard();
      if (best_shard == SIZE_MAX) break;  // every heap empty: nothing to evict
      Shard& shard = shards_[best_shard];
      LatRow* victim;
      {
        std::lock_guard<common::SpinLatch> heap_guard(shard.heap_latch);
        if (shard.heap.empty()) continue;
        victim = shard.heap[0];
        HeapEraseLocked(&shard, victim);
        PublishRootLocked(best_shard);
        victim->evicted = true;
        victim->in_heap.store(false, std::memory_order_release);
        total_bytes_.fetch_sub(victim->approx_bytes,
                               std::memory_order_acq_rel);
        total_rows_.fetch_sub(1, std::memory_order_acq_rel);
      }
      // Unlink from the directory while still under the evict latch (which
      // also excludes Reset) so the strong reference below cannot race a
      // concurrent teardown of the map.
      std::lock_guard<common::SpinLatch> map_guard(shard.map_latch);
      if (std::shared_ptr<LatRow> strong = UnlinkLocked(&shard, victim)) {
        victims.push_back(std::move(strong));
      }
    }
  }
  if (victims.empty()) return;
  stats_.evictions.Inc(victims.size());

  // Materialize victims (row latch only) when anyone listens, then notify
  // outside all latches.
  std::vector<Row> evicted_rows;
  if (notify && evict_callback_ &&
      (evict_listening_ == nullptr ||
       evict_listening_->load(std::memory_order_acquire))) {
    evicted_rows.reserve(victims.size());
    for (const auto& victim : victims) {
      std::lock_guard<common::SpinLatch> row_guard(victim->latch);
      evicted_rows.push_back(MaterializeLocked(*victim, now_micros));
    }
  }
  victims.clear();
  for (Row& evicted : evicted_rows) evict_callback_(std::move(evicted));
}

void Lat::Reset() {
  std::lock_guard<common::SpinLatch> evict_guard(evict_latch_);
  size_t removed_rows = 0;
  size_t removed_bytes = 0;
  for (size_t s = 0; s < shard_count_; ++s) {
    Shard& shard = shards_[s];
    // Map latch nests the heap latch (fixed order, matching Reset's
    // pre-shard behaviour); no other path holds both.
    std::lock_guard<common::SpinLatch> map_guard(shard.map_latch);
    std::lock_guard<common::SpinLatch> heap_guard(shard.heap_latch);
    for (auto& [_, head] : shard.map) {
      for (LatRow* row = head.get(); row != nullptr; row = row->next.get()) {
        // Mark rows dead so a racing inserter holding a reference drops
        // its heap maintenance instead of sifting a cleared heap.
        row->evicted = true;
        row->heap_index = SIZE_MAX;
        row->in_heap.store(false, std::memory_order_release);
        ++removed_rows;
        removed_bytes += row->approx_bytes;
      }
    }
    shard.map.clear();
    shard.heap.clear();
    PublishRootLocked(s);
  }
  // Subtract what was actually removed (rather than storing zero) so rows
  // added concurrently in already-cleared shards stay accounted.
  total_rows_.fetch_sub(removed_rows, std::memory_order_acq_rel);
  total_bytes_.fetch_sub(removed_bytes, std::memory_order_acq_rel);
  reset_generation_.fetch_add(1, std::memory_order_acq_rel);
}

bool Lat::LookupForObject(const void* record, int64_t now_micros,
                          Row* out) const {
  Row& key = ScratchKey();
  key.clear();
  for (AttributeGetter getter : group_getters_) key.push_back(getter(record));
  return LookupByKey(key, now_micros, out);
}

bool Lat::LookupByKey(const Row& group_key, int64_t now_micros,
                      Row* out) const {
  const uint64_t hash = HashGroupKey(group_key);
  Shard& shard = ShardFor(hash);
  std::shared_ptr<LatRow> row;
  {
    std::lock_guard<common::SpinLatch> map_guard(shard.map_latch);
    row = FindInShardLocked(shard, hash, group_key);
  }
  if (row == nullptr) return false;
  std::lock_guard<common::SpinLatch> row_guard(row->latch);
  *out = MaterializeLocked(*row, now_micros);
  return true;
}

std::vector<Row> Lat::Snapshot(int64_t now_micros) const {
  std::vector<std::shared_ptr<LatRow>> rows;
  rows.reserve(size());
  for (size_t s = 0; s < shard_count_; ++s) {
    const Shard& shard = shards_[s];
    std::lock_guard<common::SpinLatch> map_guard(shard.map_latch);
    for (const auto& [_, head] : shard.map) {
      for (std::shared_ptr<LatRow> row = head; row != nullptr;
           row = row->next) {
        rows.push_back(row);
      }
    }
  }
  std::vector<Row> out;
  out.reserve(rows.size());
  for (const auto& row : rows) {
    std::lock_guard<common::SpinLatch> row_guard(row->latch);
    out.push_back(MaterializeLocked(*row, now_micros));
  }
  if (!ordering_columns_.empty()) {
    const auto& ordering_cols = ordering_columns_;
    std::stable_sort(out.begin(), out.end(),
                     [this, &ordering_cols](const Row& a, const Row& b) {
                       Row ka, kb;
                       for (int c : ordering_cols) {
                         ka.push_back(a[static_cast<size_t>(c)]);
                         kb.push_back(b[static_cast<size_t>(c)]);
                       }
                       // Most important first.
                       return LessImportant(kb, ka);
                     });
  }
  return out;
}

// ---------------------------------------------------------------------------
// Heap (min-heap on importance; root is the eviction candidate)
// ---------------------------------------------------------------------------

void Lat::HeapInsertLocked(Shard* shard, LatRow* row) {
  row->heap_index = shard->heap.size();
  shard->heap.push_back(row);
  SiftUpLocked(shard, row->heap_index);
}

void Lat::HeapRepositionLocked(Shard* shard, LatRow* row) {
  SiftUpLocked(shard, row->heap_index);
  SiftDownLocked(shard, row->heap_index);
}

void Lat::HeapEraseLocked(Shard* shard, LatRow* row) {
  const size_t i = row->heap_index;
  HeapSwapLocked(shard, i, shard->heap.size() - 1);
  shard->heap.pop_back();
  row->heap_index = SIZE_MAX;
  if (i < shard->heap.size()) {
    SiftUpLocked(shard, i);
    SiftDownLocked(shard, i);
  }
}

void Lat::HeapSwapLocked(Shard* shard, size_t i, size_t j) {
  if (i == j) return;
  std::swap(shard->heap[i], shard->heap[j]);
  shard->heap[i]->heap_index = i;
  shard->heap[j]->heap_index = j;
}

void Lat::SiftUpLocked(Shard* shard, size_t i) {
  while (i > 0) {
    const size_t parent = (i - 1) / 2;
    if (!RowLessImportant(*shard->heap[i], *shard->heap[parent])) {
      break;
    }
    HeapSwapLocked(shard, i, parent);
    i = parent;
  }
}

void Lat::SiftDownLocked(Shard* shard, size_t i) {
  for (;;) {
    const size_t left = 2 * i + 1;
    const size_t right = 2 * i + 2;
    size_t smallest = i;
    if (left < shard->heap.size() &&
        RowLessImportant(*shard->heap[left], *shard->heap[smallest])) {
      smallest = left;
    }
    if (right < shard->heap.size() &&
        RowLessImportant(*shard->heap[right], *shard->heap[smallest])) {
      smallest = right;
    }
    if (smallest == i) break;
    HeapSwapLocked(shard, i, smallest);
    i = smallest;
  }
}

// ---------------------------------------------------------------------------
// Persistence
// ---------------------------------------------------------------------------

namespace {

/// %-escapes the v2 state-codec delimiters so tagged values can be embedded
/// in the `:`/`;`-delimited blocks codec (and so the codec survives any
/// payload text).
std::string EscapeStateText(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '%': out += "%25"; break;
      case ':': out += "%3A"; break;
      case ';': out += "%3B"; break;
      default: out += c;
    }
  }
  return out;
}

Result<std::string> UnescapeStateText(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '%') {
      out += s[i];
      continue;
    }
    const std::string_view code =
        i + 2 < s.size() ? s.substr(i + 1, 2) : std::string_view();
    if (code == "25") out += '%';
    else if (code == "3A") out += ':';
    else if (code == "3B") out += ';';
    else return Status::ParseError("bad escape in state text '" +
                                   std::string(s) + "'");
    i += 2;
  }
  return out;
}

Result<int64_t> ParseStateInt(std::string_view s) {
  const std::string text(s);
  char* end = nullptr;
  const int64_t v = std::strtoll(text.c_str(), &end, 10);
  if (end == nullptr || *end != '\0' || text.empty()) {
    return Status::ParseError("bad integer in LAT state: '" + text + "'");
  }
  return v;
}

Result<double> ParseStateDouble(std::string_view s) {
  const std::string text(s);
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (end == nullptr || *end != '\0' || text.empty()) {
    return Status::ParseError("bad double in LAT state: '" + text + "'");
  }
  return v;
}

/// Kind-tagged rendering of an arbitrary Value for v2 state columns:
/// N (null), B0/B1, I<decimal>, D<shortest round-trip double>,
/// S<escaped text>. Unlike Value::ToString this is unambiguous per kind, so
/// MIN/MAX/FIRST/LAST restore with their exact original kind.
std::string EncodeTaggedValue(const Value& v) {
  switch (v.kind()) {
    case ValueKind::kNull:
      return "N";
    case ValueKind::kBool:
      return v.bool_value() ? "B1" : "B0";
    case ValueKind::kInt:
      return "I" + std::to_string(v.int_value());
    case ValueKind::kDouble:
      return "D" + common::FormatDoubleShortest(v.double_value());
    case ValueKind::kString:
      return "S" + EscapeStateText(v.string_value());
  }
  return "N";
}

Result<Value> DecodeTaggedValue(std::string_view s) {
  if (s.empty()) return Status::ParseError("empty tagged value in LAT state");
  const std::string_view payload = s.substr(1);
  switch (s[0]) {
    case 'N':
      return Value::Null();
    case 'B':
      return Value::Bool(payload == "1");
    case 'I': {
      SQLCM_ASSIGN_OR_RETURN(const int64_t v, ParseStateInt(payload));
      return Value::Int(v);
    }
    case 'D': {
      SQLCM_ASSIGN_OR_RETURN(const double v, ParseStateDouble(payload));
      return Value::Double(v);
    }
    case 'S': {
      SQLCM_ASSIGN_OR_RETURN(std::string text, UnescapeStateText(payload));
      return Value::String(std::move(text));
    }
    default:
      return Status::ParseError("bad tagged value '" + std::string(s) +
                                "' in LAT state");
  }
}

std::vector<std::string_view> SplitStateField(std::string_view s, char sep) {
  std::vector<std::string_view> parts;
  size_t start = 0;
  for (;;) {
    const size_t pos = s.find(sep, start);
    if (pos == std::string_view::npos) {
      parts.push_back(s.substr(start));
      return parts;
    }
    parts.push_back(s.substr(start, pos - start));
    start = pos + 1;
  }
}

}  // namespace

Status Lat::PersistTo(storage::Table* table, int64_t timestamp_micros,
                      int64_t now_micros) const {
  const size_t width = table->schema().num_columns();
  const bool with_timestamp = width == num_columns() + 1;
  if (!with_timestamp && width != num_columns()) {
    return Status::InvalidArgument(
        "table '" + table->name() + "' has " + std::to_string(width) +
        " columns; LAT '" + name() + "' produces " +
        std::to_string(num_columns()) + " (+1 optional timestamp)");
  }
  for (Row& row : Snapshot(now_micros)) {
    if (with_timestamp) row.push_back(Value::Int(timestamp_micros));
    SQLCM_RETURN_IF_ERROR(table->Insert(std::move(row)).status());
  }
  return Status::OK();
}

bool Lat::AdoptSeededRow(std::shared_ptr<LatRow> row, int64_t now_micros) {
  const uint64_t hash = row->hash;
  Shard& shard = ShardFor(hash);
  {
    std::lock_guard<common::SpinLatch> map_guard(shard.map_latch);
    if (FindInShardLocked(shard, hash, row->group_key) != nullptr) {
      return false;  // live data wins
    }
    row->next = std::move(shard.map[hash]);
    shard.map[hash] = row;
  }
  total_rows_.fetch_add(1, std::memory_order_acq_rel);
  if (spec_.max_rows > 0 || spec_.max_bytes > 0) {
    Row ordering_key;
    {
      std::lock_guard<common::SpinLatch> row_guard(row->latch);
      ordering_key = OrderingKeyLocked(*row, now_micros);
      row->ordering_cache = ordering_key;
    }
    const size_t row_bytes =
        spec_.max_bytes > 0 ? ApproxRowBytesLocked(*row) : 0;
    MaintainHeap(row, std::move(ordering_key), row_bytes);
    EvictOverBudget(now_micros, /*notify=*/false);
  }
  return true;
}

Status Lat::SeedFrom(const storage::Table& table, int64_t now_micros) {
  if (has_sketch_) {
    // A materialized row carries only the sketch's point answer (one
    // quantile / one estimate); reconstructing sketch state from it via the
    // COUNT-driven ladder would seed garbage that then merges and ships as
    // if it were real history. Fail cleanly instead — sketch-bearing LATs
    // restore from v3 state snapshots (ImportState) only.
    return Status::InvalidArgument(
        "LAT '" + name() +
        "' has sketch aggregates (QUANTILE/DISTINCT); materialized rows "
        "cannot reconstruct sketch state — restore from a v3 state "
        "snapshot (ImportState) instead");
  }
  const size_t width = table.schema().num_columns();
  const bool with_timestamp = width == num_columns() + 1;
  if (!with_timestamp && width != num_columns()) {
    return Status::InvalidArgument(
        "table '" + table.name() + "' has " + std::to_string(width) +
        " columns; LAT '" + name() + "' expects " +
        std::to_string(num_columns()) + " (+1 optional timestamp)");
  }
  // The first non-aging COUNT column drives the seed count n for
  // SUM/AVG/STDEV reconstruction (n = 1 when absent).
  int count_col = -1;
  for (size_t a = 0; a < spec_.aggregates.size(); ++a) {
    if (spec_.aggregates[a].func == LatAggFunc::kCount &&
        !spec_.aggregates[a].aging) {
      count_col = static_cast<int>(group_width() + a);
      break;
    }
  }
  // For every STDEV aggregate, a same-attribute non-aging AVG (preferred)
  // or SUM column recovers the first moment; without one the sum seeds 0.
  // Either way sumsq is derived so the materialized STDEV value
  // round-trips: variance = (sumsq - sum²/n)/(n-1) = s².
  std::vector<int> stdev_source(spec_.aggregates.size(), -1);
  std::vector<bool> stdev_source_is_avg(spec_.aggregates.size(), false);
  for (size_t a = 0; a < spec_.aggregates.size(); ++a) {
    if (spec_.aggregates[a].func != LatAggFunc::kStdev ||
        spec_.aggregates[a].aging) {
      continue;
    }
    for (size_t b = 0; b < spec_.aggregates.size(); ++b) {
      const LatAggColumn& src = spec_.aggregates[b];
      if (src.aging || src.attribute != spec_.aggregates[a].attribute) {
        continue;
      }
      if (src.func == LatAggFunc::kAvg) {
        stdev_source[a] = static_cast<int>(group_width() + b);
        stdev_source_is_avg[a] = true;
        break;  // AVG preferred; stop looking
      }
      if (src.func == LatAggFunc::kSum && stdev_source[a] < 0) {
        stdev_source[a] = static_cast<int>(group_width() + b);
      }
    }
  }

  std::optional<Row> after;
  std::vector<Row> keys, rows;
  for (;;) {
    keys.clear();
    rows.clear();
    if (table.ScanBatch(after, 256, &keys, &rows) == 0) break;
    after = keys.back();
    for (Row& persisted : rows) {
      Row group_key(persisted.begin(),
                    persisted.begin() + static_cast<long>(group_width()));
      auto row = std::make_shared<LatRow>();
      row->hash = HashGroupKey(group_key);
      row->group_key = std::move(group_key);
      row->aggs.resize(spec_.aggregates.size());
      int64_t seed_count = 1;
      if (count_col >= 0 &&
          persisted[static_cast<size_t>(count_col)].is_int()) {
        seed_count =
            std::max<int64_t>(1, persisted[static_cast<size_t>(count_col)]
                                     .int_value());
      }
      for (size_t a = 0; a < spec_.aggregates.size(); ++a) {
        const LatAggColumn& col = spec_.aggregates[a];
        if (col.aging) {
          // A materialized row holds only the windowed output value, not
          // the block history; reconstruction would mislabel old data as
          // current. v2 state snapshots (ImportState) restore these.
          continue;
        }
        const Value& v = persisted[group_width() + a];
        AggState& state = row->aggs[a];
        switch (col.func) {
          case LatAggFunc::kCount:
            state.count = v.is_int() ? v.int_value() : 0;
            break;
          case LatAggFunc::kSum:
            state.count = seed_count;
            state.sum = v.is_numeric() ? v.AsDouble() : 0;
            break;
          case LatAggFunc::kAvg:
            state.count = seed_count;
            state.sum =
                v.is_numeric() ? v.AsDouble() * static_cast<double>(seed_count)
                               : 0;
            break;
          case LatAggFunc::kStdev: {
            state.count = seed_count;
            double sum = 0;
            if (stdev_source[a] >= 0) {
              const Value& src = persisted[static_cast<size_t>(stdev_source[a])];
              if (src.is_numeric()) {
                sum = stdev_source_is_avg[a]
                          ? src.AsDouble() * static_cast<double>(seed_count)
                          : src.AsDouble();
              }
            }
            const double s = v.is_numeric() ? v.AsDouble() : 0;
            const double n = static_cast<double>(seed_count);
            state.sum = sum;
            state.sumsq =
                seed_count >= 2 ? s * s * (n - 1) + sum * sum / n : sum * sum;
            break;
          }
          case LatAggFunc::kMin:
          case LatAggFunc::kMax:
          case LatAggFunc::kFirst:
          case LatAggFunc::kLast:
            state.min = state.max = state.first = state.last = v;
            state.any = !v.is_null();
            break;
          case LatAggFunc::kQuantile:
          case LatAggFunc::kDistinct:
            break;  // unreachable: sketch-bearing specs rejected above
        }
      }
      AdoptSeededRow(std::move(row), now_micros);
    }
  }
  return Status::OK();
}

std::vector<std::string> Lat::StateColumnNames() const {
  std::vector<std::string> names(
      column_names_.begin(),
      column_names_.begin() + static_cast<long>(group_width()));
  for (size_t a = 0; a < spec_.aggregates.size(); ++a) {
    const std::string& alias = column_names_[group_width() + a];
    for (const char* part : {"#count", "#sum", "#sumsq", "#any", "#min",
                             "#max", "#first", "#last", "#blocks"}) {
      names.push_back(alias + part);
    }
    if (LatAggFuncIsSketch(spec_.aggregates[a].func)) {
      names.push_back(alias + "#sketch");
    }
  }
  return names;
}

std::vector<ValueKind> Lat::StateColumnKinds() const {
  std::vector<ValueKind> kinds(
      column_kinds_.begin(),
      column_kinds_.begin() + static_cast<long>(group_width()));
  for (size_t a = 0; a < spec_.aggregates.size(); ++a) {
    kinds.push_back(ValueKind::kInt);     // #count
    kinds.push_back(ValueKind::kDouble);  // #sum
    kinds.push_back(ValueKind::kDouble);  // #sumsq
    kinds.push_back(ValueKind::kBool);    // #any
    for (int i = 0; i < 5; ++i) {
      kinds.push_back(ValueKind::kString);  // #min/#max/#first/#last/#blocks
    }
    if (LatAggFuncIsSketch(spec_.aggregates[a].func)) {
      kinds.push_back(ValueKind::kString);  // #sketch
    }
  }
  return kinds;
}

Status Lat::ExportState(storage::Table* table,
                        int64_t timestamp_micros) const {
  const size_t state_width = this->state_width();
  const size_t width = table->schema().num_columns();
  const bool with_timestamp = width == state_width + 1;
  if (!with_timestamp && width != state_width) {
    return Status::InvalidArgument(
        "table '" + table->name() + "' has " + std::to_string(width) +
        " columns; LAT '" + name() + "' state records have " +
        std::to_string(state_width) + " (+1 optional timestamp)");
  }
  std::vector<std::shared_ptr<LatRow>> lat_rows;
  lat_rows.reserve(size());
  for (size_t s = 0; s < shard_count_; ++s) {
    const Shard& shard = shards_[s];
    std::lock_guard<common::SpinLatch> map_guard(shard.map_latch);
    for (const auto& [_, head] : shard.map) {
      for (std::shared_ptr<LatRow> row = head; row != nullptr;
           row = row->next) {
        lat_rows.push_back(row);
      }
    }
  }
  for (const auto& row : lat_rows) {
    Row record;
    record.reserve(width);
    {
      std::lock_guard<common::SpinLatch> row_guard(row->latch);
      record.insert(record.end(), row->group_key.begin(),
                    row->group_key.end());
      AppendStateAggs(row->aggs, &record);
    }
    if (with_timestamp) record.push_back(Value::Int(timestamp_micros));
    SQLCM_RETURN_IF_ERROR(table->Insert(std::move(record)).status());
  }
  return Status::OK();
}

void Lat::AppendStateAggs(const std::vector<AggState>& aggs,
                          Row* record) const {
  for (size_t a = 0; a < aggs.size(); ++a) {
    const AggState& state = aggs[a];
    record->push_back(Value::Int(state.count));
    record->push_back(Value::Double(state.sum));
    record->push_back(Value::Double(state.sumsq));
    record->push_back(Value::Bool(state.any));
    record->push_back(Value::String(EncodeTaggedValue(state.min)));
    record->push_back(Value::String(EncodeTaggedValue(state.max)));
    record->push_back(Value::String(EncodeTaggedValue(state.first)));
    record->push_back(Value::String(EncodeTaggedValue(state.last)));
    std::string blocks;
    if (state.blocks != nullptr) {
      for (const AgingBlock& block : *state.blocks) {
        if (!blocks.empty()) blocks += ';';
        blocks += std::to_string(block.block_start);
        blocks += ':';
        blocks += std::to_string(block.count);
        blocks += ':';
        blocks += common::FormatDoubleShortest(block.sum);
        blocks += ':';
        blocks += common::FormatDoubleShortest(block.sumsq);
        blocks += ':';
        blocks += block.any ? '1' : '0';
        blocks += ':';
        blocks += EncodeTaggedValue(block.min);
        blocks += ':';
        blocks += EncodeTaggedValue(block.max);
      }
    }
    record->push_back(Value::String(std::move(blocks)));
    if (LatAggFuncIsSketch(spec_.aggregates[a].func)) {
      // Empty sketches (no pointer yet) encode to "" so untouched cells
      // stay compact; the codecs never emit `,`/`"`/newline, so the cell is
      // CSV-safe without escaping.
      std::string sketch;
      if (state.qsketch != nullptr) sketch = state.qsketch->Encode();
      if (state.hll != nullptr) sketch = state.hll->Encode();
      record->push_back(Value::String(std::move(sketch)));
    }
  }
}

Status Lat::ImportState(const storage::Table& table, int64_t now_micros) {
  const size_t state_width = this->state_width();
  const size_t width = table.schema().num_columns();
  const bool with_timestamp = width == state_width + 1;
  if (!with_timestamp && width != state_width) {
    return Status::InvalidArgument(
        "table '" + table.name() + "' has " + std::to_string(width) +
        " columns; LAT '" + name() + "' state records have " +
        std::to_string(state_width) + " (+1 optional timestamp)");
  }
  std::optional<Row> after;
  std::vector<Row> keys, rows;
  for (;;) {
    keys.clear();
    rows.clear();
    if (table.ScanBatch(after, 256, &keys, &rows) == 0) break;
    after = keys.back();
    for (Row& persisted : rows) {
      Row group_key(persisted.begin(),
                    persisted.begin() + static_cast<long>(group_width()));
      auto row = std::make_shared<LatRow>();
      row->hash = HashGroupKey(group_key);
      row->group_key = std::move(group_key);
      SQLCM_RETURN_IF_ERROR(ParseStateAggs(persisted, &row->aggs));
      AdoptSeededRow(std::move(row), now_micros);
    }
  }
  return Status::OK();
}

Status Lat::ParseStateAggs(const Row& record,
                           std::vector<AggState>* aggs) const {
  aggs->clear();
  aggs->resize(spec_.aggregates.size());
  for (size_t a = 0; a < spec_.aggregates.size(); ++a) {
    const size_t base = state_agg_base_[a];
    AggState& state = (*aggs)[a];
    const Value& count_v = record[base];
    const Value& sum_v = record[base + 1];
    const Value& sumsq_v = record[base + 2];
    const Value& any_v = record[base + 3];
    state.count = count_v.is_int() ? count_v.int_value() : 0;
    state.sum = sum_v.is_numeric() ? sum_v.AsDouble() : 0;
    state.sumsq = sumsq_v.is_numeric() ? sumsq_v.AsDouble() : 0;
    state.any = any_v.is_bool() && any_v.bool_value();
    Value* const dest[4] = {&state.min, &state.max, &state.first,
                            &state.last};
    for (int i = 0; i < 4; ++i) {
      const Value& cell = record[base + 4 + static_cast<size_t>(i)];
      if (cell.is_null()) continue;
      if (!cell.is_string()) {
        return Status::ParseError("LAT '" + name() +
                                  "' state: expected tagged value");
      }
      SQLCM_ASSIGN_OR_RETURN(*dest[i],
                             DecodeTaggedValue(cell.string_value()));
    }
    const Value& blocks_v = record[base + 8];
    if (blocks_v.is_string() && !blocks_v.string_value().empty()) {
      auto blocks = std::make_unique<std::deque<AgingBlock>>();
      for (std::string_view part :
           SplitStateField(blocks_v.string_value(), ';')) {
        const auto fields = SplitStateField(part, ':');
        if (fields.size() != 7) {
          return Status::ParseError("LAT '" + name() +
                                    "' state: bad aging-block record");
        }
        AgingBlock block;
        SQLCM_ASSIGN_OR_RETURN(block.block_start, ParseStateInt(fields[0]));
        SQLCM_ASSIGN_OR_RETURN(block.count, ParseStateInt(fields[1]));
        SQLCM_ASSIGN_OR_RETURN(block.sum, ParseStateDouble(fields[2]));
        SQLCM_ASSIGN_OR_RETURN(block.sumsq, ParseStateDouble(fields[3]));
        block.any = fields[4] == "1";
        SQLCM_ASSIGN_OR_RETURN(block.min, DecodeTaggedValue(fields[5]));
        SQLCM_ASSIGN_OR_RETURN(block.max, DecodeTaggedValue(fields[6]));
        blocks->push_back(std::move(block));
      }
      state.blocks = std::move(blocks);
    }
    if (LatAggFuncIsSketch(spec_.aggregates[a].func)) {
      const Value& sketch_v = record[base + 9];
      if (sketch_v.is_string() && !sketch_v.string_value().empty()) {
        if (spec_.aggregates[a].func == LatAggFunc::kQuantile) {
          SQLCM_ASSIGN_OR_RETURN(
              QuantileSketch sketch,
              QuantileSketch::Decode(sketch_v.string_value()));
          state.qsketch = std::make_unique<QuantileSketch>(std::move(sketch));
        } else {
          SQLCM_ASSIGN_OR_RETURN(HllSketch sketch,
                                 HllSketch::Decode(sketch_v.string_value()));
          if (sketch.precision() != distinct_precision_) {
            // Mixed precisions cannot max-merge; surfacing the mismatch at
            // decode keeps every later fold infallible.
            return Status::ParseError(
                "LAT '" + name() + "' state: DISTINCT sketch precision " +
                std::to_string(sketch.precision()) + " does not match spec " +
                std::to_string(distinct_precision_));
          }
          state.hll = std::make_unique<HllSketch>(std::move(sketch));
        }
      }
    }
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Federation state arithmetic (delta shipping; src/fed, docs/FEDERATION.md)
// ---------------------------------------------------------------------------

Status Lat::CheckStateRecordWidth(const Row& record) const {
  const size_t state_width = this->state_width();
  if (record.size() != state_width) {
    return Status::InvalidArgument(
        "state record has " + std::to_string(record.size()) +
        " cells; LAT '" + name() + "' state records have " +
        std::to_string(state_width));
  }
  return Status::OK();
}

void Lat::FoldAggState(AggState* dst, const AggState& src) {
  dst->count += src.count;
  dst->sum += src.sum;
  dst->sumsq += src.sumsq;
  if (src.any) {
    if (!dst->any) dst->first = src.first;
    if (!dst->any || src.min.Compare(dst->min) < 0) dst->min = src.min;
    if (!dst->any || src.max.Compare(dst->max) > 0) dst->max = src.max;
    dst->last = src.last;
    dst->any = true;
  }
  if (src.qsketch != nullptr) {
    if (dst->qsketch == nullptr) {
      dst->qsketch = std::make_unique<QuantileSketch>(*src.qsketch);
    } else {
      dst->qsketch->Merge(*src.qsketch);
    }
    const int ups =
        dst->qsketch->CollapseToBudget(spec_.quantile_sketch_bytes);
    if (ups > 0) stats_.sketch_collapses.Inc(static_cast<uint64_t>(ups));
  }
  if (src.hll != nullptr) {
    if (dst->hll == nullptr) {
      dst->hll = std::make_unique<HllSketch>(*src.hll);
    } else {
      // Same-precision by construction: ParseStateAggs rejects records
      // whose HLL precision differs from this LAT's spec.
      (void)dst->hll->Merge(*src.hll);
    }
  }
  if (src.blocks == nullptr) return;
  if (dst->blocks == nullptr) {
    dst->blocks = std::make_unique<std::deque<AgingBlock>>();
  }
  // Merge-join by block_start; both deques are ascending (blocks are
  // created in time order and shipped in deque order).
  std::deque<AgingBlock> merged;
  auto di = dst->blocks->begin();
  const auto dend = dst->blocks->end();
  for (const AgingBlock& sb : *src.blocks) {
    while (di != dend && di->block_start < sb.block_start) {
      merged.push_back(std::move(*di++));
    }
    if (di != dend && di->block_start == sb.block_start) {
      AgingBlock b = std::move(*di++);
      b.count += sb.count;
      b.sum += sb.sum;
      b.sumsq += sb.sumsq;
      if (sb.any) {
        if (!b.any || sb.min.Compare(b.min) < 0) b.min = sb.min;
        if (!b.any || sb.max.Compare(b.max) > 0) b.max = sb.max;
        b.any = true;
      }
      merged.push_back(std::move(b));
    } else {
      merged.push_back(sb);
    }
  }
  while (di != dend) merged.push_back(std::move(*di++));
  *dst->blocks = std::move(merged);
}

void Lat::PruneMergedBlocks(AggState* state, int64_t now_micros) {
  if (state->blocks == nullptr) return;
  std::deque<AgingBlock>& blocks = *state->blocks;
  while (!blocks.empty() &&
         blocks.front().block_start + spec_.aging_block_micros <=
             now_micros - spec_.aging_window_micros) {
    blocks.pop_front();
  }
  while (blocks.size() > std::max<size_t>(max_aging_blocks_, 1)) {
    const AgingBlock& oldest = blocks[0];
    AgingBlock& into = blocks[1];
    into.count += oldest.count;
    into.sum += oldest.sum;
    into.sumsq += oldest.sumsq;
    if (oldest.any) {
      if (!into.any || oldest.min.Compare(into.min) < 0) into.min = oldest.min;
      if (!into.any || oldest.max.Compare(into.max) > 0) into.max = oldest.max;
      into.any = true;
    }
    blocks.pop_front();
    stats_.aging_merges.Inc();
  }
}

Result<Lat::StateDeltaMode> Lat::DiffStateRecord(const Row& current,
                                                 const Row* baseline,
                                                 Row* delta) const {
  SQLCM_RETURN_IF_ERROR(CheckStateRecordWidth(current));
  delta->clear();
  std::vector<AggState> cur;
  SQLCM_RETURN_IF_ERROR(ParseStateAggs(current, &cur));

  // No baseline (new group) and a restarted group (any additive count went
  // backwards) both ship the full cumulative record.
  bool fresh = baseline == nullptr;
  std::vector<AggState> base;
  if (!fresh) {
    SQLCM_RETURN_IF_ERROR(CheckStateRecordWidth(*baseline));
    SQLCM_RETURN_IF_ERROR(ParseStateAggs(*baseline, &base));
    for (size_t a = 0; a < cur.size() && !fresh; ++a) {
      if (cur[a].count < base[a].count) fresh = true;
      if (cur[a].blocks == nullptr || base[a].blocks == nullptr) continue;
      auto bi = base[a].blocks->begin();
      const auto bend = base[a].blocks->end();
      for (const AgingBlock& cb : *cur[a].blocks) {
        while (bi != bend && bi->block_start < cb.block_start) ++bi;
        if (bi != bend && bi->block_start == cb.block_start &&
            cb.count < bi->count) {
          fresh = true;
          break;
        }
      }
    }
  }
  if (fresh) {
    bool any_data = false;
    for (const AggState& state : cur) {
      if (state.count != 0 || state.any) any_data = true;
      if (state.blocks != nullptr && !state.blocks->empty()) any_data = true;
    }
    if (!any_data) return StateDeltaMode::kNone;
    *delta = current;
    return StateDeltaMode::kFresh;
  }

  // Incremental: additive moments diff; cumulative fields pass through.
  // Every state mutation increments an additive count (top-level or block),
  // so "all count increments are zero" is a complete no-change test.
  bool changed = false;
  std::vector<AggState> diff(cur.size());
  for (size_t a = 0; a < cur.size(); ++a) {
    AggState& d = diff[a];
    d.count = cur[a].count - base[a].count;
    d.sum = cur[a].sum - base[a].sum;
    d.sumsq = cur[a].sumsq - base[a].sumsq;
    d.any = cur[a].any;
    d.min = cur[a].min;
    d.max = cur[a].max;
    d.first = cur[a].first;
    d.last = cur[a].last;
    if (d.count != 0) changed = true;
    if (cur[a].qsketch != nullptr) {
      // Quantile sketches are additive: ship the bucket-count increments
      // since the baseline (Subtract aligns the baseline up to the current
      // collapse level first, so a mid-epoch collapse still diffs cleanly).
      auto dq = std::make_unique<QuantileSketch>(*cur[a].qsketch);
      if (base[a].qsketch != nullptr) dq->Subtract(*base[a].qsketch);
      if (!dq->empty()) d.qsketch = std::move(dq);
    }
    if (cur[a].hll != nullptr) {
      // HLL registers are fold-stable (max-merge is idempotent): the delta
      // carries the cumulative register array, like #min/#max.
      d.hll = std::make_unique<HllSketch>(*cur[a].hll);
    }
    if (cur[a].blocks == nullptr) continue;
    auto bi = base[a].blocks != nullptr ? base[a].blocks->begin()
                                        : std::deque<AgingBlock>::iterator();
    const auto bend = base[a].blocks != nullptr
                          ? base[a].blocks->end()
                          : std::deque<AgingBlock>::iterator();
    std::deque<AgingBlock> shipped;
    for (const AgingBlock& cb : *cur[a].blocks) {
      while (bi != bend && bi->block_start < cb.block_start) ++bi;
      if (bi != bend && bi->block_start == cb.block_start) {
        if (cb.count == bi->count) continue;  // untouched since baseline
        AgingBlock inc = cb;  // cumulative min/max/any pass through
        inc.count = cb.count - bi->count;
        inc.sum = cb.sum - bi->sum;
        inc.sumsq = cb.sumsq - bi->sumsq;
        shipped.push_back(std::move(inc));
      } else {
        shipped.push_back(cb);  // block opened since baseline: whole block
      }
      changed = true;
    }
    if (!shipped.empty()) {
      d.blocks = std::make_unique<std::deque<AgingBlock>>(std::move(shipped));
    }
  }
  if (!changed) return StateDeltaMode::kNone;
  delta->reserve(current.size());
  delta->insert(delta->end(), current.begin(),
                current.begin() + static_cast<long>(group_width()));
  AppendStateAggs(diff, delta);
  return StateDeltaMode::kIncremental;
}

Result<Row> Lat::CombineStateRecords(const Row& base, const Row& delta,
                                     StateDeltaMode mode) const {
  if (mode == StateDeltaMode::kNone) return base;
  if (mode == StateDeltaMode::kFresh) {
    SQLCM_RETURN_IF_ERROR(CheckStateRecordWidth(delta));
    return delta;
  }
  SQLCM_RETURN_IF_ERROR(CheckStateRecordWidth(base));
  SQLCM_RETURN_IF_ERROR(CheckStateRecordWidth(delta));
  std::vector<AggState> out, inc;
  SQLCM_RETURN_IF_ERROR(ParseStateAggs(base, &out));
  SQLCM_RETURN_IF_ERROR(ParseStateAggs(delta, &inc));
  for (size_t a = 0; a < out.size(); ++a) {
    AggState& r = out[a];
    const AggState& d = inc[a];
    r.count += d.count;
    r.sum += d.sum;
    r.sumsq += d.sumsq;
    // Cumulative fields: the delta carries the diffed record's values
    // verbatim, so they replace (any never regresses outside kFresh).
    r.any = d.any;
    r.min = d.min;
    r.max = d.max;
    r.first = d.first;
    r.last = d.last;
    if (d.qsketch != nullptr) {
      // Additive: add the shipped increments onto the baseline's sketch.
      if (r.qsketch == nullptr) {
        r.qsketch = std::make_unique<QuantileSketch>(*d.qsketch);
      } else {
        r.qsketch->Merge(*d.qsketch);
      }
    }
    if (d.hll != nullptr) {
      // Cumulative: the delta's register array replaces, like #min/#max.
      r.hll = std::make_unique<HllSketch>(*d.hll);
    }
    if (d.blocks == nullptr) continue;
    if (r.blocks == nullptr) {
      r.blocks = std::make_unique<std::deque<AgingBlock>>();
    }
    std::deque<AgingBlock> merged;
    auto bi = r.blocks->begin();
    const auto bend = r.blocks->end();
    for (const AgingBlock& db : *d.blocks) {
      while (bi != bend && bi->block_start < db.block_start) {
        merged.push_back(std::move(*bi++));
      }
      if (bi != bend && bi->block_start == db.block_start) {
        AgingBlock b = std::move(*bi++);
        b.count += db.count;
        b.sum += db.sum;
        b.sumsq += db.sumsq;
        b.min = db.min;  // cumulative per block in the delta
        b.max = db.max;
        b.any = db.any;
        merged.push_back(std::move(b));
      } else {
        merged.push_back(db);
      }
    }
    while (bi != bend) merged.push_back(std::move(*bi++));
    *r.blocks = std::move(merged);
  }
  Row combined;
  combined.reserve(base.size());
  combined.insert(combined.end(), delta.begin(),
                  delta.begin() + static_cast<long>(group_width()));
  AppendStateAggs(out, &combined);
  return combined;
}

Status Lat::MergeState(const storage::Table& table, int64_t now_micros) {
  const size_t state_width = this->state_width();
  const size_t width = table.schema().num_columns();
  const bool with_timestamp = width == state_width + 1;
  if (!with_timestamp && width != state_width) {
    return Status::InvalidArgument(
        "table '" + table.name() + "' has " + std::to_string(width) +
        " columns; LAT '" + name() + "' state records have " +
        std::to_string(state_width) + " (+1 optional timestamp)");
  }
  const bool bounded = spec_.max_rows > 0 || spec_.max_bytes > 0;
  std::optional<Row> after;
  std::vector<Row> keys, rows;
  for (;;) {
    keys.clear();
    rows.clear();
    if (table.ScanBatch(after, 256, &keys, &rows) == 0) break;
    after = keys.back();
    for (Row& persisted : rows) {
      std::vector<AggState> incoming;
      SQLCM_RETURN_IF_ERROR(ParseStateAggs(persisted, &incoming));
      Row key(persisted.begin(),
              persisted.begin() + static_cast<long>(group_width()));
      const uint64_t hash = HashGroupKey(key);
      Shard& shard = ShardFor(hash);
      std::shared_ptr<LatRow> row;
      bool created = false;
      {
        std::lock_guard<common::SpinLatch> map_guard(shard.map_latch);
        row = FindOrCreateLocked(&shard, hash, key, &created);
      }
      if (created) total_rows_.fetch_add(1, std::memory_order_acq_rel);
      Row ordering_key;
      size_t row_bytes = 0;
      {
        std::lock_guard<common::SpinLatch> row_guard(row->latch);
        for (size_t a = 0; a < row->aggs.size(); ++a) {
          FoldAggState(&row->aggs[a], incoming[a]);
          PruneMergedBlocks(&row->aggs[a], now_micros);
        }
        if (bounded) {
          ordering_key = OrderingKeyLocked(*row, now_micros);
          row->ordering_cache = ordering_key;
          if (spec_.max_bytes > 0) row_bytes = ApproxRowBytesLocked(*row);
        }
      }
      if (bounded) {
        MaintainHeap(row, std::move(ordering_key), row_bytes);
        EvictOverBudget(now_micros, /*notify=*/false);
      }
    }
  }
  return Status::OK();
}

}  // namespace sqlcm::cm
