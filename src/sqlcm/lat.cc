#include "sqlcm/lat.h"

#include <algorithm>
#include <bit>
#include <cassert>
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

/// Resolves LatSpec::shard_count: one shard for a bounded LAT, whose
/// evictions are then decided under one latch; else the explicit spec
/// value, else 4 stripes per hardware thread (≥16: containers often
/// under-report concurrency, and idle stripes cost ~200 bytes each).
size_t ResolveShardCount(const LatSpec& spec) {
  if (spec.max_rows > 0 || spec.max_bytes > 0) return 1;
  size_t n = spec.shard_count;
  if (n == 0) {
    n = std::max<size_t>(16, 4 * std::thread::hardware_concurrency());
  }
  return NextPowerOfTwo(std::clamp<size_t>(n, 1, 1024));
}

/// Thread-local probe buffer of at least `width` entries for one key
/// lookup, so the Insert/Lookup hot path allocates no key. Each use is
/// complete before any callback that could re-enter a LAT runs.
BorrowedProbe* KeyScratch(size_t width) {
  thread_local std::vector<BorrowedProbe> key;
  if (key.size() < width) key.resize(width);
  return key.data();
}

/// Value equality of a borrowed key with a stored group key.
bool KeyMatches(const BorrowedProbe* key, const Value* stored, size_t width) {
  for (size_t c = 0; c < width; ++c) {
    if (key[c].Compare(stored[c]) != 0) return false;
  }
  return true;
}

/// Interns a group shape. The attribute definitions belong to one class's
/// registry, so equal (class, attributes) means equal probes for any
/// record: LATs of one shape map a batch to the same groups.
uint32_t InternGroupShape(MonitoredClass cls,
                          const std::vector<const AttributeDef*>& attrs) {
  using Shape = std::pair<MonitoredClass, std::vector<const AttributeDef*>>;
  static std::mutex mu;
  static std::vector<Shape>* const shapes = new std::vector<Shape>();
  std::lock_guard<std::mutex> lock(mu);
  for (size_t i = 0; i < shapes->size(); ++i) {
    if ((*shapes)[i].first == cls && (*shapes)[i].second == attrs) {
      return static_cast<uint32_t>(i);
    }
  }
  shapes->emplace_back(cls, attrs);
  return static_cast<uint32_t>(shapes->size() - 1);
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
  lat->shard_count_ = ResolveShardCount(s);
  lat->replace_in_place_ = s.max_rows > 0 && s.max_bytes == 0;
  lat->shards_ = std::make_unique<Shard[]>(lat->shard_count_);
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
    lat->group_attrs_.push_back(&def);
    lat->column_names_.push_back(col.alias.empty() ? col.attribute : col.alias);
    lat->column_kinds_.push_back(def.kind);
  }
  lat->group_shape_ = InternGroupShape(s.object_class, lat->group_attrs_);
  for (const LatAggColumn& col : s.aggregates) {
    const AttributeDef* input = nullptr;
    ValueKind input_kind = ValueKind::kInt;
    if (!col.attribute.empty()) {
      const int attr = schema.FindAttribute(s.object_class, col.attribute);
      if (attr < 0) {
        return Status::NotFound("LAT '" + s.name + "': class " +
                                MonitoredClassName(s.object_class) +
                                " has no attribute '" + col.attribute + "'");
      }
      input = &schema.attributes(s.object_class)[attr];
      input_kind = input->kind;
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
    lat->agg_attrs_.push_back(input);
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
  lat->cell_width_ =
      lat->group_width() + (lat->bounded() ? lat->ordering_columns_.size() : 0);
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

uint64_t Lat::ProbeKey(const void* record, BorrowedProbe* key) const {
  const size_t width = group_attrs_.size();
  for (size_t c = 0; c < width; ++c) key[c] = group_attrs_[c]->Borrow(record);
  return MixHash(static_cast<uint64_t>(HashProbes(key, width)));
}

uint64_t Lat::ProbeKey(const Row& key, BorrowedProbe* probes) const {
  for (size_t c = 0; c < key.size(); ++c) {
    probes[c] = BorrowedProbe::Of(key[c]);
  }
  return MixHash(static_cast<uint64_t>(HashProbes(probes, key.size())));
}

namespace {

/// Home position of an index entry in a power-of-two table of `size`
/// entries: the tag's top bits (the hash's low bits select the shard).
size_t IndexHome(uint32_t tag, size_t size) {
  return static_cast<size_t>((uint64_t{tag} * size) >> 32);
}

/// Copies a probe into a stored cell; a string goes into the cell's kept
/// capacity.
void AssignProbe(Value* dst, const BorrowedProbe& probe) {
  if (probe.is_text) {
    dst->AssignString(probe.text);
  } else {
    *dst = probe.scalar;
  }
}

/// A cell value an AggState holds only while a non-NULL value was folded.
const Value& Held(const Value& v, bool any) {
  static const Value kNull;
  return any ? v : kNull;
}

/// A cell's sketch, or null while it holds none: an emptied sketch (kept
/// by a recycled slot) counts as none.
template <typename Sketch>
const Sketch* HeldSketch(const std::unique_ptr<Sketch>& sketch) {
  return sketch != nullptr && !sketch->empty() ? sketch.get() : nullptr;
}

}  // namespace

uint32_t Lat::FindLocked(const Shard& shard, uint64_t hash,
                         const BorrowedProbe* key) const {
  if (shard.index.empty()) return kNoSlot;
  const size_t mask = shard.index.size() - 1;
  const auto tag = static_cast<uint32_t>(hash >> 32);
  for (size_t i = IndexHome(tag, shard.index.size());; i = (i + 1) & mask) {
    const IndexEntry& e = shard.index[i];
    if (e.slot1 == 0) return kNoSlot;
    const uint32_t slot = e.slot1 - 1;
    if (e.tag == tag && shard.meta[slot].hash == hash &&
        KeyMatches(key, shard.cells.data() + slot * cell_width_,
                   group_width())) {
      return slot;
    }
  }
}

uint32_t Lat::TakeSlotLocked(Shard* shard, uint64_t hash,
                             const BorrowedProbe* key) {
  uint32_t slot;
  if (!shard->free.empty()) {
    slot = shard->free.back();
    shard->free.pop_back();
  } else {
    slot = static_cast<uint32_t>(shard->meta.size());
    shard->meta.emplace_back();
    shard->cells.resize(shard->cells.size() + cell_width_);
    shard->aggs.resize(shard->aggs.size() + spec_.aggregates.size());
  }
  SlotMeta& meta = shard->meta[slot];
  meta.hash = hash;
  meta.rank = kLatRankUnordered;
  meta.tenure = shard->next_tenure++;
  if (shard->next_tenure == 0) shard->next_tenure = 1;  // 0 marks free
  meta.heap_index = kNoSlot;
  meta.approx_bytes = 0;
  Value* cells = KeyCells(*shard, slot);
  for (size_t c = 0; c < group_width(); ++c) AssignProbe(&cells[c], key[c]);
  ClearAggs(SlotAggs(*shard, slot));
  return slot;
}

void Lat::ClearAggs(AggState* aggs) const {
  for (size_t a = 0; a < spec_.aggregates.size(); ++a) {
    // The cells the aggregate maintains keep the previous occupant's values
    // (and string capacity); `any` hides them until the first fold. Its
    // side structures are emptied in place, keeping their capacity. The
    // others are empty (DropUnmaintained), so only a column that uses a
    // side structure reads its pointer, and a plain column's reset writes
    // one cache line.
    AggState& state = aggs[a];
    state.count = 0;
    state.sum = state.sumsq = 0;
    state.any = false;
    const LatAggColumn& col = spec_.aggregates[a];
    if (col.aging && state.blocks != nullptr) state.blocks->clear();
    if (col.func == LatAggFunc::kQuantile && state.qsketch != nullptr) {
      state.qsketch->Clear();
    }
    if (col.func == LatAggFunc::kDistinct && state.hll != nullptr) {
      state.hll->Clear();
    }
  }
}

void Lat::DropUnmaintained(AggState* aggs) const {
  for (size_t a = 0; a < spec_.aggregates.size(); ++a) {
    AggState& state = aggs[a];
    const LatAggColumn& col = spec_.aggregates[a];
    if (!col.aging) state.blocks.reset();
    if (col.func != LatAggFunc::kQuantile) state.qsketch.reset();
    if (col.func != LatAggFunc::kDistinct) state.hll.reset();
    const bool scalar = !col.aging && !LatAggFuncIsSketch(col.func);
    if (!scalar) state.last = Value();
    if (!scalar || col.func != LatAggFunc::kFirst) state.first = Value();
    if (!scalar || col.func != LatAggFunc::kMin) state.min = Value();
    if (!scalar || col.func != LatAggFunc::kMax) state.max = Value();
  }
}

void Lat::IndexInsertLocked(Shard* shard, uint32_t slot) {
  std::vector<IndexEntry>& index = shard->index;
  const auto place = [&index](IndexEntry e) {
    size_t i = IndexHome(e.tag, index.size());
    while (index[i].slot1 != 0) i = (i + 1) & (index.size() - 1);
    index[i] = e;
  };
  if (2 * (shard->index_live + 1) > index.size()) {
    std::vector<IndexEntry> old = std::move(index);
    index.assign(std::max<size_t>(8, 2 * old.size()), IndexEntry{});
    for (const IndexEntry& e : old) {
      if (e.slot1 != 0) place(e);
    }
  }
  const auto tag = static_cast<uint32_t>(shard->meta[slot].hash >> 32);
  place(IndexEntry{slot + 1, tag});
  ++shard->index_live;
}

void Lat::IndexEraseLocked(Shard* shard, uint32_t slot) {
  std::vector<IndexEntry>& index = shard->index;
  const size_t mask = index.size() - 1;
  const auto tag = static_cast<uint32_t>(shard->meta[slot].hash >> 32);
  size_t i = IndexHome(tag, index.size());
  while (index[i].slot1 != slot + 1) i = (i + 1) & mask;
  // Backward-shift deletion: pull each later entry of the run into the
  // hole when the hole lies between its home and its position.
  for (size_t j = (i + 1) & mask; index[j].slot1 != 0; j = (j + 1) & mask) {
    const size_t home = IndexHome(index[j].tag, index.size());
    if (((j - home) & mask) >= ((j - i) & mask)) {
      index[i] = index[j];
      i = j;
    }
  }
  index[i] = IndexEntry{};
  --shard->index_live;
}

uint32_t Lat::CreateLocked(Shard* shard, uint64_t hash,
                           const BorrowedProbe* key) {
  const uint32_t slot = TakeSlotLocked(shard, hash, key);
  IndexInsertLocked(shard, slot);
  total_rows_.fetch_add(1, std::memory_order_acq_rel);
  return slot;
}

uint32_t Lat::FindOrCreateLocked(Shard* shard, uint64_t hash,
                                 const BorrowedProbe* key) {
  const uint32_t slot = FindLocked(*shard, hash, key);
  return slot != kNoSlot ? slot : CreateLocked(shard, hash, key);
}

void Lat::FreeSlotLocked(Shard* shard, uint32_t slot) {
  IndexEraseLocked(shard, slot);
  SlotMeta& meta = shard->meta[slot];
  if (spec_.max_bytes > 0) {
    total_bytes_.fetch_sub(meta.approx_bytes, std::memory_order_acq_rel);
  }
  meta.tenure = 0;
  shard->free.push_back(slot);
  total_rows_.fetch_sub(1, std::memory_order_acq_rel);
}

void Lat::FoldValue(AggState* state, const LatAggColumn& col,
                    const BorrowedProbe& v, int64_t now_micros) {
  const bool numeric = !v.is_text && v.scalar.is_numeric();
  if (LatAggFuncIsSketch(col.func)) {
    // Sketch aggregates keep only count + sketch (count drives the
    // federation delta's fresh/changed detection; the scalar moments stay
    // zero so the classic codec cells remain cheap).
    ++state->count;
    if (col.func == LatAggFunc::kQuantile) {
      if (numeric) {
        if (state->qsketch == nullptr) {
          state->qsketch = std::make_unique<QuantileSketch>();
        }
        state->qsketch->Add(v.scalar.AsDouble());
        const int ups =
            state->qsketch->CollapseToBudget(spec_.quantile_sketch_bytes);
        if (ups > 0) stats_.sketch_collapses.Inc(static_cast<uint64_t>(ups));
      }
    } else if (!v.is_null()) {
      if (state->hll == nullptr) {
        state->hll = std::make_unique<HllSketch>(distinct_precision_);
      }
      state->hll->AddHash(DistinctValueHash(v.is_text ? v.Materialize()
                                                      : v.scalar));
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
    if (numeric) {
      const double d = v.scalar.AsDouble();
      block.sum += d;
      block.sumsq += d * d;
    }
    if (!v.is_null()) {
      if (!block.any || v.Compare(block.min) < 0) AssignProbe(&block.min, v);
      if (!block.any || v.Compare(block.max) > 0) AssignProbe(&block.max, v);
      block.any = true;
    }
    return;
  }
  // `count` always moves: DiffStateRecord's no-change test relies on it.
  // The first/min/max moments are kept only for the functions that read
  // them (no value copies on, say, a LAST over query text), and every
  // string is copied into the cell's kept capacity.
  ++state->count;
  if (numeric) {
    const double d = v.scalar.AsDouble();
    state->sum += d;
    state->sumsq += d * d;
  }
  if (v.is_null()) return;
  switch (col.func) {
    case LatAggFunc::kFirst:
      if (!state->any) AssignProbe(&state->first, v);
      break;
    case LatAggFunc::kMin:
      if (!state->any || v.Compare(state->min) < 0) {
        AssignProbe(&state->min, v);
      }
      break;
    case LatAggFunc::kMax:
      if (!state->any || v.Compare(state->max) > 0) {
        AssignProbe(&state->max, v);
      }
      break;
    default:
      break;
  }
  state->any = true;
  AssignProbe(&state->last, v);
}

Value Lat::AggValue(const AggState& state, const LatAggColumn& col,
                    int64_t now_micros) const {
  int64_t count = state.count;
  double sum = state.sum;
  double sumsq = state.sumsq;
  bool any = state.any;
  const Value* min = &state.min;
  const Value* max = &state.max;
  Value window_min, window_max;
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
    min = &window_min;
    max = &window_max;
    if (state.blocks != nullptr) {
      const int64_t horizon = now_micros - spec_.aging_window_micros;
      for (const AgingBlock& block : *state.blocks) {
        if (block.block_start + spec_.aging_block_micros <= horizon) continue;
        count += block.count;
        sum += block.sum;
        sumsq += block.sumsq;
        if (block.any) {
          if (!any || block.min.Compare(window_min) < 0) {
            window_min = block.min;
          }
          if (!any || block.max.Compare(window_max) > 0) {
            window_max = block.max;
          }
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
      return Held(*min, any);
    case LatAggFunc::kMax:
      return Held(*max, any);
    case LatAggFunc::kFirst:
      return Held(state.first, state.any);
    case LatAggFunc::kLast:
      return Held(state.last, state.any);
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

Row Lat::MaterializeLocked(Shard& shard, uint32_t slot,
                           int64_t now_micros) const {
  const Value* key = KeyCells(shard, slot);
  const AggState* aggs = SlotAggs(shard, slot);
  Row out;
  out.reserve(num_columns());
  out.insert(out.end(), key, key + group_width());
  for (size_t a = 0; a < spec_.aggregates.size(); ++a) {
    out.push_back(AggValue(aggs[a], spec_.aggregates[a], now_micros));
  }
  return out;
}

void Lat::OrderingValueInto(const Value* key, const AggState* aggs, size_t i,
                            int64_t now_micros, Value* out) const {
  const auto c = static_cast<size_t>(ordering_columns_[i]);
  if (c < group_width()) {
    *out = key[c];
    return;
  }
  const size_t a = c - group_width();
  const AggState& state = aggs[a];
  const LatAggColumn& col = spec_.aggregates[a];
  if (!col.aging && state.any) {
    // A stored value: copy it into `out`'s capacity rather than through a
    // materialised temporary.
    switch (col.func) {
      case LatAggFunc::kMin: *out = state.min; return;
      case LatAggFunc::kMax: *out = state.max; return;
      case LatAggFunc::kFirst: *out = state.first; return;
      case LatAggFunc::kLast: *out = state.last; return;
      default: break;
    }
  }
  *out = AggValue(state, col, now_micros);
}

bool Lat::LessImportant(const Value* a, const Value* b) const {
  for (size_t i = 0; i < spec_.ordering.size(); ++i) {
    const int c = a[i].Compare(b[i]);
    if (c == 0) continue;
    // DESC ordering: smaller value = less important (evicted first).
    // ASC ordering: larger value = less important.
    return spec_.ordering[i].descending ? c < 0 : c > 0;
  }
  return false;
}

namespace {

/// A cell's share of a byte budget: its string's length, not the capacity
/// a recycled slot kept from an earlier occupant.
size_t LiveBytes(const Value& v) {
  return v.is_string() ? v.string_value().size() : 0;
}

}  // namespace

size_t Lat::ApproxSlotBytesLocked(Shard& shard, uint32_t slot) const {
  // A function of the row's contents only, so a budget holds the same rows
  // whatever the shard count or the slot's history: the slot's fixed
  // width, the group key's strings and the strings of the cells each
  // aggregate holds (the ordering key repeats some of them and is not
  // charged again).
  size_t bytes = sizeof(SlotMeta) + cell_width_ * sizeof(Value);
  const Value* key = KeyCells(shard, slot);
  for (size_t c = 0; c < group_width(); ++c) bytes += LiveBytes(key[c]);
  const AggState* aggs = SlotAggs(shard, slot);
  for (size_t a = 0; a < spec_.aggregates.size(); ++a) {
    const AggState& state = aggs[a];
    bytes += sizeof(AggState);
    if (state.any) {
      // Cells DropUnmaintained emptied, and those no fold wrote, are NULL.
      bytes += LiveBytes(state.min) + LiveBytes(state.max) +
               LiveBytes(state.first) + LiveBytes(state.last);
    }
    if (state.blocks != nullptr) {
      bytes += state.blocks->size() * sizeof(AgingBlock);
    }
    if (const auto* q = HeldSketch(state.qsketch)) bytes += q->ApproxBytes();
    if (const auto* h = HeldSketch(state.hll)) bytes += h->ApproxBytes();
  }
  return bytes;
}

void Lat::SketchFootprint(size_t* sketch_bytes, size_t* sketch_cells) const {
  size_t bytes = 0;
  size_t cells = 0;
  for (size_t s = 0; has_sketch_ && s < shard_count_; ++s) {
    Shard& shard = shards_[s];
    std::lock_guard<common::SpinLatch> guard(shard.latch);
    for (const IndexEntry& e : shard.index) {
      if (e.slot1 == 0) continue;
      const AggState* aggs = SlotAggs(shard, e.slot1 - 1);
      for (size_t a = 0; a < spec_.aggregates.size(); ++a) {
        if (const auto* q = HeldSketch(aggs[a].qsketch)) {
          bytes += q->ApproxBytes();
          cells += q->bucket_count();
        }
        if (const auto* h = HeldSketch(aggs[a].hll)) {
          bytes += h->ApproxBytes();
          cells += h->register_count();
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

void Lat::FoldRecord(AggState* aggs, const void* record, int64_t now_micros) {
  static const BorrowedProbe kOne{Value::Int(1), {}, false};
  for (size_t a = 0; a < spec_.aggregates.size(); ++a) {
    const AttributeDef* attr = agg_attrs_[a];
    FoldValue(&aggs[a], spec_.aggregates[a],
              attr != nullptr ? attr->Borrow(record) : kOne, now_micros);
  }
}

bool Lat::RefreshOrderingLocked(Shard& shard, uint32_t slot,
                                int64_t now_micros) {
  const size_t width = ordering_columns_.size();
  Row& fresh = shard.scratch;
  fresh.resize(width);
  for (size_t i = 0; i < width; ++i) {
    OrderingValueInto(KeyCells(shard, slot), SlotAggs(shard, slot), i,
                      now_micros, &fresh[i]);
  }
  Value* order = OrderCells(shard, slot);
  const bool in_heap = shard.meta[slot].heap_index != kNoSlot;
  if (spec_.max_bytes == 0 && in_heap &&
      std::equal(fresh.begin(), fresh.end(), order)) {
    // Ordering unchanged (common for MIN/MAX/FIRST orderings) and no byte
    // accounting to refresh: the heap position is already right.
    stats_.heap_skips.Inc();
    return false;
  }
  for (size_t i = 0; i < width; ++i) std::swap(fresh[i], order[i]);
  SlotMeta& meta = shard.meta[slot];
  meta.rank = RankOf(order[0]);
  if (spec_.max_bytes > 0) {
    // Unsigned wrap-around of the delta is fine: the global sum stays
    // coherent because every delta is eventually balanced.
    const auto bytes = static_cast<uint32_t>(
        std::min<size_t>(ApproxSlotBytesLocked(shard, slot), UINT32_MAX));
    total_bytes_.fetch_add(size_t{bytes} - meta.approx_bytes,
                           std::memory_order_acq_rel);
    meta.approx_bytes = bytes;
  }
  if (!in_heap) {
    HeapInsertLocked(&shard, slot);
  } else {
    SiftUpLocked(&shard, meta.heap_index);
    SiftDownLocked(&shard, meta.heap_index);
  }
  return true;
}

void Lat::ReplaceRootLocked(Shard* shard, uint32_t slot, int64_t now_micros,
                            std::vector<Row>* evicted) {
  Value* order = OrderCells(*shard, slot);
  for (size_t i = 0; i < ordering_columns_.size(); ++i) {
    OrderingValueInto(KeyCells(*shard, slot), SlotAggs(*shard, slot), i,
                      now_micros, &order[i]);
  }
  shard->meta[slot].rank = RankOf(order[0]);
  const uint32_t root = shard->heap[0];
  uint32_t victim = slot;
  if (!SlotLessImportant(*shard, slot, root)) {
    victim = root;
    IndexEraseLocked(shard, root);
    IndexInsertLocked(shard, slot);
    shard->meta[root].heap_index = kNoSlot;
    HeapSetLocked(shard, 0, slot);
    SiftDownLocked(shard, 0);
  }
  if (evicted != nullptr) {
    evicted->push_back(MaterializeLocked(*shard, victim, now_micros));
  }
  shard->meta[victim].tenure = 0;
  shard->free.push_back(victim);
}

size_t Lat::EvictOverBudgetLocked(Shard* shard, int64_t now_micros,
                                  std::vector<Row>* evicted) {
  size_t victims = 0;
  while (OverBudget() && !shard->heap.empty()) {
    const uint32_t victim = shard->heap[0];
    HeapEraseLocked(shard, victim);
    if (evicted != nullptr) {
      evicted->push_back(MaterializeLocked(*shard, victim, now_micros));
    }
    FreeSlotLocked(shard, victim);
    ++victims;
  }
  return victims;
}

void Lat::NotifyEvicted(size_t victims, std::vector<Row>* evicted) {
  if (victims == 0) return;
  stats_.evictions.Inc(victims);
  if (evicted == nullptr) return;
  for (Row& row : *evicted) evict_callback_(std::move(row));
}

void Lat::Insert(const void* record, int64_t now_micros) {
  stats_.inserts.Inc();
  // Probe with borrowed keys: no allocation on the hit path, and the
  // directory compares against them in place.
  BorrowedProbe* key = KeyScratch(group_width());
  const uint64_t hash = ProbeKey(record, key);
  Shard& shard = ShardFor(hash);

  size_t victims = 0;
  std::vector<Row> evicted;  // filled only while someone listens
  {
    CountedLatchGuard guard(shard.latch, stats_);
    std::vector<Row>* out = bounded() && Listening() ? &evicted : nullptr;
    uint32_t slot = FindLocked(shard, hash, key);
    const bool replace = slot == kNoSlot && FullLocked(shard);
    if (slot == kNoSlot) {
      slot = replace ? TakeSlotLocked(&shard, hash, key)
                     : CreateLocked(&shard, hash, key);
    }
    FoldRecord(SlotAggs(shard, slot), record, now_micros);
    victims = SettleLocked(&shard, slot, replace, now_micros, out);
  }
  NotifyEvicted(victims, &evicted);
}

bool Lat::FullLocked(const Shard& shard) const {
  return replace_in_place_ && !shard.heap.empty() &&
         total_rows_.load(std::memory_order_relaxed) >= spec_.max_rows;
}

size_t Lat::SettleLocked(Shard* shard, uint32_t slot, bool replace,
                         int64_t now_micros, std::vector<Row>* evicted) {
  if (replace) {
    // A full row-bounded LAT: the new group and the root it would displace
    // are decided here, and the loser's slot takes the next new group.
    ReplaceRootLocked(shard, slot, now_micros, evicted);
    return 1;
  }
  if (bounded() && RefreshOrderingLocked(*shard, slot, now_micros)) {
    return EvictOverBudgetLocked(shard, now_micros, evicted);
  }
  return 0;
}

/// FoldBatch's per-LAT working set. Every vector keeps its capacity across
/// calls, so a fold allocates nothing of its own.
struct Lat::FoldScratch {
  std::vector<uint32_t> by_shard;  // groups ordered by (shard, group)
  std::vector<uint32_t> slots;     // per group: its resolved slot
  std::vector<uint32_t> tenures;   // per group: that slot's tenure
};

void Lat::InsertBatch(const LatBatchItem* items, size_t count) {
  // FoldBatch reads the mapping only before its evict callback can run, so
  // a re-entrant InsertBatch on this thread finds it free.
  thread_local LatBatchMapping mapping;
  MapBatch(items, count, &mapping);
  FoldBatch(items, count, mapping);
}

void Lat::MapBatch(const LatBatchItem* items, size_t count,
                   LatBatchMapping* mapping) const {
  LatBatchMapping& m = *mapping;
  const size_t width = group_width();
  m.shape_ = group_shape_;
  m.hashes_.clear();
  m.first_.clear();
  m.last_.clear();
  m.next_.assign(count, LatBatchMapping::kNoItem);
  if (count == 0) return;
  // Room for every item's key: group g's probes stay at [g·width, +width),
  // and an item is probed into the next group's place before it is known
  // to be a repeat.
  if (m.keys_.size() < count * width) m.keys_.resize(count * width);
  // Load factor <= 1/2 even when every item is its own group. The table is
  // indexed by the hash's high bits (the low bits pick the shard).
  const size_t table_bits = std::bit_width(2 * count - 1);
  m.slots_.assign(size_t{1} << table_bits, 0);
  const size_t slot_mask = m.slots_.size() - 1;
  for (size_t i = 0; i < count; ++i) {
    const auto fresh = static_cast<uint32_t>(m.hashes_.size());
    BorrowedProbe* probe = &m.keys_[fresh * width];
    const uint64_t hash = ProbeKey(items[i].record, probe);
    size_t slot = static_cast<size_t>(hash >> (64 - table_bits));
    for (; m.slots_[slot] != 0; slot = (slot + 1) & slot_mask) {
      const uint32_t g = m.slots_[slot] - 1;
      if (m.hashes_[g] == hash &&
          std::equal(probe, probe + width, &m.keys_[g * width])) {
        break;
      }
    }
    const auto item = static_cast<uint32_t>(i);
    if (m.slots_[slot] != 0) {  // a repeat: chain it after the group's last
      const uint32_t g = m.slots_[slot] - 1;
      m.next_[m.last_[g]] = item;
      m.last_[g] = item;
      continue;
    }
    m.slots_[slot] = fresh + 1;
    m.hashes_.push_back(hash);
    m.first_.push_back(item);
    m.last_.push_back(item);
  }
}

void Lat::FoldBatch(const LatBatchItem* items, size_t count,
                    const LatBatchMapping& mapping) {
  assert(mapping.shape_ == group_shape_ && mapping.next_.size() == count);
  if (count == 0) return;
  stats_.inserts.Inc(count);
  const LatBatchMapping& m = mapping;
  const size_t width = group_width();
  const size_t groups = m.groups();
  // No callback runs until the scratch is released below, so nothing can
  // re-enter FoldBatch on this thread while it is in use.
  thread_local FoldScratch sc;

  // Resolve each distinct group's slot once, shard by shard, so each
  // touched shard's latch is taken once for the lookups. Within a shard
  // groups are created in first-appearance order, as per-item inserts
  // would create them. A bounded LAT only looks its groups up here: a new
  // group enters in the hold that folds it and evicts for it, so the LAT
  // never holds more than its budget between two holds.
  const bool bounded_lat = bounded();
  sc.by_shard.resize(groups);
  std::iota(sc.by_shard.begin(), sc.by_shard.end(), 0u);
  std::sort(sc.by_shard.begin(), sc.by_shard.end(),
            [&](uint32_t a, uint32_t b) {
              const size_t sa = ShardIndex(m.hashes_[a]);
              const size_t sb = ShardIndex(m.hashes_[b]);
              return sa != sb ? sa < sb : a < b;
            });
  sc.slots.resize(groups);
  sc.tenures.resize(groups);
  for (size_t pos = 0; pos < groups;) {
    const size_t shard_idx = ShardIndex(m.hashes_[sc.by_shard[pos]]);
    Shard& shard = shards_[shard_idx];
    CountedLatchGuard guard(shard.latch, stats_);
    for (; pos < groups &&
           ShardIndex(m.hashes_[sc.by_shard[pos]]) == shard_idx;
         ++pos) {
      const uint32_t g = sc.by_shard[pos];
      const BorrowedProbe* key = &m.keys_[g * width];
      const uint32_t slot = bounded_lat
                                ? FindLocked(shard, m.hashes_[g], key)
                                : FindOrCreateLocked(&shard, m.hashes_[g], key);
      sc.slots[g] = slot;
      sc.tenures[g] = slot != kNoSlot ? shard.meta[slot].tenure : 0;
    }
  }

  // Fold per distinct group in first-appearance order — one latch per
  // group, that group's items in arrival order. A slot freed since it was
  // resolved (its tenure moved on) is resolved again. In a bounded LAT each
  // group then settles as one Insert would: a new group arriving at a full
  // row-bounded LAT is decided against the heap root in place, any other
  // evicts down to the budget in the same hold.
  size_t victims = 0;
  std::vector<Row> evicted;  // filled only while someone listens
  std::vector<Row>* out = bounded_lat && Listening() ? &evicted : nullptr;
  for (size_t g = 0; g < groups; ++g) {
    Shard& shard = ShardFor(m.hashes_[g]);
    CountedLatchGuard guard(shard.latch, stats_);
    const BorrowedProbe* key = &m.keys_[g * width];
    uint32_t slot = sc.slots[g];
    if (slot >= shard.meta.size() ||
        shard.meta[slot].tenure != sc.tenures[g]) {
      slot = FindLocked(shard, m.hashes_[g], key);
    }
    const bool replace = slot == kNoSlot && FullLocked(shard);
    if (slot == kNoSlot) {
      slot = replace ? TakeSlotLocked(&shard, m.hashes_[g], key)
                     : CreateLocked(&shard, m.hashes_[g], key);
    }
    AggState* aggs = SlotAggs(shard, slot);
    for (uint32_t i = m.first_[g]; i != LatBatchMapping::kNoItem;
         i = m.next_[i]) {
      FoldRecord(aggs, items[i].record, items[i].now_micros);
    }
    victims += SettleLocked(&shard, slot, replace,
                            items[m.last_[g]].now_micros, out);
  }
  NotifyEvicted(victims, &evicted);
}

void Lat::Reset() {
  size_t removed_rows = 0;
  size_t removed_bytes = 0;
  for (size_t s = 0; s < shard_count_; ++s) {
    Shard& shard = shards_[s];
    std::lock_guard<common::SpinLatch> guard(shard.latch);
    removed_rows += shard.index_live;
    for (const IndexEntry& e : shard.index) {
      if (e.slot1 != 0) removed_bytes += shard.meta[e.slot1 - 1].approx_bytes;
    }
    // Free the slab; next_tenure survives, so a batch's resolved slot
    // never matches a later occupant.
    shard.index_live = 0;
    shard.index = std::vector<IndexEntry>();
    shard.meta = std::vector<SlotMeta>();
    shard.cells = std::vector<Value>();
    shard.aggs = std::vector<AggState>();
    shard.free = std::vector<uint32_t>();
    shard.heap = std::vector<uint32_t>();
  }
  // Subtract what was actually removed (rather than storing zero) so rows
  // added concurrently in already-cleared shards stay accounted.
  total_rows_.fetch_sub(removed_rows, std::memory_order_acq_rel);
  if (spec_.max_bytes > 0) {
    total_bytes_.fetch_sub(removed_bytes, std::memory_order_acq_rel);
  }
  reset_generation_.fetch_add(1, std::memory_order_acq_rel);
}

bool Lat::LookupForObject(const void* record, int64_t now_micros,
                          Row* out) const {
  BorrowedProbe* key = KeyScratch(group_width());
  return LookupProbed(ProbeKey(record, key), key, now_micros, out);
}

bool Lat::LookupByKey(const Row& group_key, int64_t now_micros,
                      Row* out) const {
  if (group_key.size() != group_width()) return false;
  BorrowedProbe* key = KeyScratch(group_width());
  return LookupProbed(ProbeKey(group_key, key), key, now_micros, out);
}

bool Lat::LookupProbed(uint64_t hash, const BorrowedProbe* key,
                       int64_t now_micros, Row* out) const {
  Shard& shard = ShardFor(hash);
  std::lock_guard<common::SpinLatch> guard(shard.latch);
  const uint32_t slot = FindLocked(shard, hash, key);
  if (slot == kNoSlot) return false;
  *out = MaterializeLocked(shard, slot, now_micros);
  return true;
}

std::vector<Row> Lat::Snapshot(int64_t now_micros) const {
  std::vector<Row> out;
  out.reserve(size());
  for (size_t s = 0; s < shard_count_; ++s) {
    Shard& shard = shards_[s];
    std::lock_guard<common::SpinLatch> guard(shard.latch);
    for (const IndexEntry& e : shard.index) {
      if (e.slot1 != 0) {
        out.push_back(MaterializeLocked(shard, e.slot1 - 1, now_micros));
      }
    }
  }
  if (!ordering_columns_.empty()) {
    // Most important first.
    std::stable_sort(out.begin(), out.end(), [this](const Row& a,
                                                    const Row& b) {
      for (size_t i = 0; i < ordering_columns_.size(); ++i) {
        const auto col = static_cast<size_t>(ordering_columns_[i]);
        const int c = a[col].Compare(b[col]);
        if (c != 0) return spec_.ordering[i].descending ? c > 0 : c < 0;
      }
      return false;
    });
  }
  return out;
}

// ---------------------------------------------------------------------------
// Heap of slots (min-heap on importance; root is the eviction candidate)
// ---------------------------------------------------------------------------

void Lat::HeapInsertLocked(Shard* shard, uint32_t slot) {
  shard->heap.push_back(slot);
  HeapSetLocked(shard, shard->heap.size() - 1, slot);
  SiftUpLocked(shard, shard->heap.size() - 1);
}

void Lat::HeapEraseLocked(Shard* shard, uint32_t slot) {
  const size_t i = shard->meta[slot].heap_index;
  const uint32_t last = shard->heap.back();
  shard->heap.pop_back();
  shard->meta[slot].heap_index = kNoSlot;
  if (i < shard->heap.size()) {
    HeapSetLocked(shard, i, last);
    SiftUpLocked(shard, i);
    SiftDownLocked(shard, shard->meta[last].heap_index);
  }
}

void Lat::SiftUpLocked(Shard* shard, size_t i) const {
  const uint32_t slot = shard->heap[i];
  while (i > 0) {
    const size_t parent = (i - 1) / 2;
    if (!SlotLessImportant(*shard, slot, shard->heap[parent])) break;
    HeapSetLocked(shard, i, shard->heap[parent]);
    i = parent;
  }
  HeapSetLocked(shard, i, slot);
}

void Lat::SiftDownLocked(Shard* shard, size_t i) const {
  const uint32_t slot = shard->heap[i];
  const size_t n = shard->heap.size();
  for (;;) {
    size_t child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n &&
        SlotLessImportant(*shard, shard->heap[child + 1], shard->heap[child])) {
      ++child;
    }
    if (!SlotLessImportant(*shard, shard->heap[child], slot)) break;
    HeapSetLocked(shard, i, shard->heap[child]);
    i = child;
  }
  HeapSetLocked(shard, i, slot);
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

bool Lat::AdoptSeededRow(const Row& group_key, std::vector<AggState>* aggs,
                         int64_t now_micros) {
  BorrowedProbe* key = KeyScratch(group_width());
  const uint64_t hash = ProbeKey(group_key, key);
  Shard& shard = ShardFor(hash);
  size_t victims = 0;
  {
    std::lock_guard<common::SpinLatch> guard(shard.latch);
    if (FindLocked(shard, hash, key) != kNoSlot) return false;  // live wins
    const uint32_t slot = CreateLocked(&shard, hash, key);
    AggState* dst = SlotAggs(shard, slot);
    for (size_t a = 0; a < spec_.aggregates.size(); ++a) {
      dst[a] = std::move((*aggs)[a]);
    }
    DropUnmaintained(dst);
    if (bounded()) {
      RefreshOrderingLocked(shard, slot, now_micros);
      victims = EvictOverBudgetLocked(&shard, now_micros, nullptr);
    }
  }
  NotifyEvicted(victims, nullptr);
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
      const Row group_key(persisted.begin(),
                          persisted.begin() + static_cast<long>(group_width()));
      std::vector<AggState> aggs(spec_.aggregates.size());
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
        AggState& state = aggs[a];
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
      AdoptSeededRow(group_key, &aggs, now_micros);
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
  std::vector<Row> records;
  records.reserve(size());
  for (size_t s = 0; s < shard_count_; ++s) {
    Shard& shard = shards_[s];
    std::lock_guard<common::SpinLatch> guard(shard.latch);
    for (const IndexEntry& e : shard.index) {
      if (e.slot1 == 0) continue;
      const Value* key = KeyCells(shard, e.slot1 - 1);
      Row& record = records.emplace_back();
      record.reserve(width);
      record.insert(record.end(), key, key + group_width());
      AppendStateAggs(SlotAggs(shard, e.slot1 - 1), &record);
    }
  }
  for (Row& record : records) {
    if (with_timestamp) record.push_back(Value::Int(timestamp_micros));
    SQLCM_RETURN_IF_ERROR(table->Insert(std::move(record)).status());
  }
  return Status::OK();
}

void Lat::AppendStateAggs(const AggState* aggs, Row* record) const {
  for (size_t a = 0; a < spec_.aggregates.size(); ++a) {
    const AggState& state = aggs[a];
    record->push_back(Value::Int(state.count));
    record->push_back(Value::Double(state.sum));
    record->push_back(Value::Double(state.sumsq));
    record->push_back(Value::Bool(state.any));
    for (const Value* v : {&state.min, &state.max, &state.first, &state.last}) {
      record->push_back(Value::String(EncodeTaggedValue(Held(*v, state.any))));
    }
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
      const Row group_key(persisted.begin(),
                          persisted.begin() + static_cast<long>(group_width()));
      std::vector<AggState> aggs;
      SQLCM_RETURN_IF_ERROR(ParseStateAggs(persisted, &aggs));
      AdoptSeededRow(group_key, &aggs, now_micros);
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
  AppendStateAggs(diff.data(), delta);
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
  AppendStateAggs(out.data(), &combined);
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
  const bool bounded_lat = bounded();
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
      BorrowedProbe* probes = KeyScratch(group_width());
      const uint64_t hash = ProbeKey(key, probes);
      Shard& shard = ShardFor(hash);
      size_t victims = 0;
      {
        std::lock_guard<common::SpinLatch> guard(shard.latch);
        const uint32_t slot = FindOrCreateLocked(&shard, hash, probes);
        AggState* aggs = SlotAggs(shard, slot);
        for (size_t a = 0; a < spec_.aggregates.size(); ++a) {
          FoldAggState(&aggs[a], incoming[a]);
          PruneMergedBlocks(&aggs[a], now_micros);
        }
        DropUnmaintained(aggs);
        if (bounded_lat) {
          RefreshOrderingLocked(shard, slot, now_micros);
          victims = EvictOverBudgetLocked(&shard, now_micros, nullptr);
        }
      }
      NotifyEvicted(victims, nullptr);
    }
  }
  return Status::OK();
}

}  // namespace sqlcm::cm
