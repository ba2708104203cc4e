#include "sqlcm/sketch.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <limits>

#include "common/string_util.h"

namespace sqlcm::cm {

using common::Result;
using common::Status;
using common::Value;
using common::ValueKind;

namespace {

/// Collapse cap: ln γ at level k is ln γ₀ · 2^k, so by level 24 a single
/// bucket spans the entire double range and further level-ups cannot merge
/// anything. Bounds CollapseToBudget against a budget below one bucket.
constexpr int kMaxQuantileLevel = 24;

double LnGamma0() {
  static const double v =
      std::log((1.0 + QuantileSketch::kBaseAlpha) /
               (1.0 - QuantileSketch::kBaseAlpha));
  return v;
}

/// ln γ at every level, computed once (each entry is exactly
/// LnGamma0() · 2^level): the fold path reads it per value.
double LnGammaAt(int level) {
  static const auto table = [] {
    std::array<double, kMaxQuantileLevel + 1> t{};
    for (int k = 0; k <= kMaxQuantileLevel; ++k) {
      t[static_cast<size_t>(k)] = LnGamma0() * std::ldexp(1.0, k);
    }
    return t;
  }();
  return table[static_cast<size_t>(level)];
}

uint64_t Fnv1a64Bytes(const void* data, size_t len, uint64_t h) {
  const auto* p = static_cast<const uint8_t*>(data);
  for (size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

uint64_t SplitMix64(uint64_t h) {
  h += 0x9e3779b97f4a7c15ull;
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ull;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebull;
  return h ^ (h >> 31);
}

Result<int64_t> ParseSketchInt(std::string_view s) {
  const std::string text(s);
  char* end = nullptr;
  const long long v = std::strtoll(text.c_str(), &end, 10);
  if (text.empty() || end == nullptr || *end != '\0') {
    return Status::ParseError("bad integer in sketch state: '" + text + "'");
  }
  return static_cast<int64_t>(v);
}

std::vector<std::string_view> SplitSketchFields(std::string_view s,
                                                char sep) {
  std::vector<std::string_view> parts;
  size_t start = 0;
  while (start <= s.size()) {
    const size_t pos = s.find(sep, start);
    if (pos == std::string_view::npos) {
      parts.push_back(s.substr(start));
      break;
    }
    parts.push_back(s.substr(start, pos - start));
    start = pos + 1;
  }
  return parts;
}

}  // namespace

uint64_t DistinctValueHash(const Value& v) {
  uint64_t h = 0xcbf29ce484222325ull;  // FNV offset basis
  const auto mix_tag_and_bytes = [&h](uint8_t tag, const void* data,
                                      size_t len) {
    h = Fnv1a64Bytes(&tag, 1, h);
    h = Fnv1a64Bytes(data, len, h);
  };
  switch (v.kind()) {
    case ValueKind::kNull: {
      const uint8_t tag = 0;
      h = Fnv1a64Bytes(&tag, 1, h);
      break;
    }
    case ValueKind::kBool: {
      const uint8_t payload = v.bool_value() ? 1 : 0;
      mix_tag_and_bytes(1, &payload, 1);
      break;
    }
    case ValueKind::kInt: {
      const int64_t payload = v.int_value();
      mix_tag_and_bytes(2, &payload, sizeof(payload));
      break;
    }
    case ValueKind::kDouble: {
      double d = v.double_value();
      if (d == 0.0) d = 0.0;  // -0.0 → +0.0 (one bit pattern per value)
      // Integral doubles hash as the equal int so DISTINCT agrees with
      // Value::Compare's cross-kind numeric equality.
      if (std::nearbyint(d) == d && std::abs(d) <= 9.007199254740992e15) {
        const int64_t as_int = static_cast<int64_t>(d);
        mix_tag_and_bytes(2, &as_int, sizeof(as_int));
      } else {
        uint64_t bits = 0;
        std::memcpy(&bits, &d, sizeof(bits));
        mix_tag_and_bytes(3, &bits, sizeof(bits));
      }
      break;
    }
    case ValueKind::kString: {
      const std::string& s = v.string_value();
      mix_tag_and_bytes(4, s.data(), s.size());
      break;
    }
  }
  return SplitMix64(h);
}

// ---------------------------------------------------------------------------
// QuantileSketch
// ---------------------------------------------------------------------------

int32_t QuantileSketch::IndexFor(double magnitude) const {
  return static_cast<int32_t>(
      std::ceil(std::log(magnitude) / LnGammaAt(level_)));
}

double QuantileSketch::EstimateFor(int32_t index) const {
  // 2·γ^i/(γ+1) computed in log space so extreme levels/indexes neither
  // overflow nor collapse to 0: ln est = (i−1)·lnγ + ln2 − ln(1 + γ⁻¹).
  const double ln_gamma = LnGammaAt(level_);
  const double ln_est = (static_cast<double>(index) - 1.0) * ln_gamma +
                        std::log(2.0) - std::log1p(std::exp(-ln_gamma));
  const double est = std::exp(ln_est);
  if (std::isinf(est)) return std::numeric_limits<double>::max();
  return est;
}

double QuantileSketch::alpha() const {
  // (γ−1)/(γ+1) = tanh(lnγ / 2); saturates at 1 for extreme levels.
  return std::tanh(LnGammaAt(level_) / 2.0);
}

void QuantileSketch::Add(double v) {
  if (std::isnan(v)) return;
  if (v == 0.0) {
    ++zero_count_;
  } else if (v > 0.0) {
    AddToBucket(&pos_, IndexFor(v), 1);
    ++pos_count_;
  } else {
    AddToBucket(&neg_, IndexFor(-v), 1);
    ++neg_count_;
  }
}

void QuantileSketch::AddToBucket(Buckets* buckets, int32_t index,
                                 int64_t count) {
  // Occupied indexes are usually contiguous, so the offset from the first
  // index is usually the bucket's position; search only when it is not.
  if (!buckets->empty()) {
    const int64_t guess =
        static_cast<int64_t>(index) - buckets->front().first;
    if (guess >= 0 && guess < static_cast<int64_t>(buckets->size()) &&
        (*buckets)[static_cast<size_t>(guess)].first == index) {
      (*buckets)[static_cast<size_t>(guess)].second += count;
      return;
    }
  }
  auto it = std::lower_bound(buckets->begin(), buckets->end(), index,
                             [](const std::pair<int32_t, int64_t>& b,
                                int32_t i) { return b.first < i; });
  if (it != buckets->end() && it->first == index) {
    it->second += count;
  } else {
    buckets->insert(it, {index, count});
  }
}

void QuantileSketch::AlignUp(Buckets* buckets, int levels) {
  for (int step = 0; step < levels && !buckets->empty(); ++step) {
    size_t out = 0;
    for (size_t in = 0; in < buckets->size(); ++in) {
      const auto [index, count] = (*buckets)[in];
      // ⌈i/2⌉: level-(k+1) bucket boundaries are the even level-k ones.
      const int32_t parent = index >= 0 ? (index + 1) / 2 : -((-index) / 2);
      if (out > 0 && (*buckets)[out - 1].first == parent) {
        (*buckets)[out - 1].second += count;
      } else {
        (*buckets)[out++] = {parent, count};
      }
    }
    buckets->resize(out);
  }
}

void QuantileSketch::LevelUp() {
  AlignUp(&neg_, 1);
  AlignUp(&pos_, 1);
  ++level_;
}

namespace {

/// Adds every bucket of `src` into `dst`; both sorted by index.
void MergeBuckets(std::vector<std::pair<int32_t, int64_t>>* dst,
                  const std::vector<std::pair<int32_t, int64_t>>& src) {
  if (src.empty()) return;
  std::vector<std::pair<int32_t, int64_t>> out;
  out.reserve(dst->size() + src.size());
  size_t i = 0, j = 0;
  while (i < dst->size() || j < src.size()) {
    if (j == src.size() ||
        (i < dst->size() && (*dst)[i].first < src[j].first)) {
      out.push_back((*dst)[i++]);
    } else if (i == dst->size() || src[j].first < (*dst)[i].first) {
      out.push_back(src[j++]);
    } else {
      out.push_back({(*dst)[i].first, (*dst)[i].second + src[j].second});
      ++i;
      ++j;
    }
  }
  *dst = std::move(out);
}

/// Subtracts the counts of `sub` from the matching buckets of `dst`,
/// dropping buckets that reach zero; buckets absent from `dst` are skipped.
void SubtractBuckets(std::vector<std::pair<int32_t, int64_t>>* dst,
                     const std::vector<std::pair<int32_t, int64_t>>& sub) {
  size_t j = 0;
  for (auto& bucket : *dst) {
    while (j < sub.size() && sub[j].first < bucket.first) ++j;
    if (j < sub.size() && sub[j].first == bucket.first) {
      bucket.second -= sub[j].second;
    }
  }
  std::erase_if(*dst, [](const std::pair<int32_t, int64_t>& b) {
    return b.second <= 0;
  });
}

}  // namespace

void QuantileSketch::Merge(const QuantileSketch& other) {
  while (level_ < other.level_) LevelUp();
  Buckets other_neg = other.neg_;
  Buckets other_pos = other.pos_;
  AlignUp(&other_neg, level_ - other.level_);
  AlignUp(&other_pos, level_ - other.level_);
  MergeBuckets(&neg_, other_neg);
  MergeBuckets(&pos_, other_pos);
  zero_count_ += other.zero_count_;
  neg_count_ += other.neg_count_;
  pos_count_ += other.pos_count_;
}

void QuantileSketch::Subtract(const QuantileSketch& baseline) {
  while (level_ < baseline.level_) LevelUp();
  Buckets base_neg = baseline.neg_;
  Buckets base_pos = baseline.pos_;
  AlignUp(&base_neg, level_ - baseline.level_);
  AlignUp(&base_pos, level_ - baseline.level_);
  SubtractBuckets(&neg_, base_neg);
  SubtractBuckets(&pos_, base_pos);
  zero_count_ = std::max<int64_t>(0, zero_count_ - baseline.zero_count_);
  neg_count_ = 0;
  pos_count_ = 0;
  for (const auto& [_, count] : neg_) neg_count_ += count;
  for (const auto& [_, count] : pos_) pos_count_ += count;
}

double QuantileSketch::Quantile(double q) const {
  const int64_t n = count();
  if (n <= 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  const int64_t rank =
      static_cast<int64_t>(std::floor(q * static_cast<double>(n - 1)));
  // Ascending value order: negatives (largest |v| first), zeros, positives.
  int64_t cum = 0;
  for (auto it = neg_.rbegin(); it != neg_.rend(); ++it) {
    cum += it->second;
    if (cum > rank) return -EstimateFor(it->first);
  }
  cum += zero_count_;
  if (cum > rank) return 0.0;
  for (const auto& [index, count] : pos_) {
    cum += count;
    if (cum > rank) return EstimateFor(index);
  }
  // Unreachable when the cached counts are consistent; return the max
  // bucket estimate defensively.
  return pos_.empty() ? 0.0 : EstimateFor(pos_.back().first);
}

int QuantileSketch::CollapseOverBudget(size_t max_bytes) {
  int collapses = 0;
  while (ApproxBytes() > max_bytes && bucket_count() > 1 &&
         level_ < kMaxQuantileLevel) {
    LevelUp();
    ++collapses;
  }
  return collapses;
}

std::string QuantileSketch::Encode() const {
  if (empty()) return "";
  std::string out = "Q1 " + std::to_string(level_) + ' ' +
                    std::to_string(zero_count_) + ' ' +
                    std::to_string(neg_.size()) + ' ' +
                    std::to_string(pos_.size());
  for (const auto* store : {&neg_, &pos_}) {
    for (const auto& [index, count] : *store) {
      out += ' ';
      out += std::to_string(index);
      out += ':';
      out += std::to_string(count);
    }
  }
  return out;
}

Result<QuantileSketch> QuantileSketch::Decode(std::string_view s) {
  QuantileSketch sketch;
  if (s.empty()) return sketch;
  const auto fields = SplitSketchFields(s, ' ');
  if (fields.size() < 5 || fields[0] != "Q1") {
    return Status::ParseError("bad quantile sketch header in '" +
                              std::string(s) + "'");
  }
  SQLCM_ASSIGN_OR_RETURN(const int64_t level, ParseSketchInt(fields[1]));
  SQLCM_ASSIGN_OR_RETURN(const int64_t zero, ParseSketchInt(fields[2]));
  SQLCM_ASSIGN_OR_RETURN(const int64_t nneg, ParseSketchInt(fields[3]));
  SQLCM_ASSIGN_OR_RETURN(const int64_t npos, ParseSketchInt(fields[4]));
  if (level < 0 || level > kMaxQuantileLevel || zero < 0 || nneg < 0 ||
      npos < 0 ||
      fields.size() != 5 + static_cast<size_t>(nneg) +
                           static_cast<size_t>(npos)) {
    return Status::ParseError("bad quantile sketch shape in '" +
                              std::string(s) + "'");
  }
  sketch.level_ = static_cast<int>(level);
  sketch.zero_count_ = zero;
  for (size_t i = 5; i < fields.size(); ++i) {
    const auto pair = SplitSketchFields(fields[i], ':');
    if (pair.size() != 2) {
      return Status::ParseError("bad quantile sketch bucket '" +
                                std::string(fields[i]) + "'");
    }
    SQLCM_ASSIGN_OR_RETURN(const int64_t index, ParseSketchInt(pair[0]));
    SQLCM_ASSIGN_OR_RETURN(const int64_t count, ParseSketchInt(pair[1]));
    if (count <= 0 || index < INT32_MIN || index > INT32_MAX) {
      return Status::ParseError("bad quantile sketch bucket '" +
                                std::string(fields[i]) + "'");
    }
    const bool is_neg = i < 5 + static_cast<size_t>(nneg);
    AddToBucket(is_neg ? &sketch.neg_ : &sketch.pos_,
                static_cast<int32_t>(index), count);
    (is_neg ? sketch.neg_count_ : sketch.pos_count_) += count;
  }
  return sketch;
}

// ---------------------------------------------------------------------------
// HllSketch
// ---------------------------------------------------------------------------

HllSketch::HllSketch(int precision)
    : precision_(std::clamp(precision, 4, 16)) {
  registers_.assign(static_cast<size_t>(1) << precision_, 0);
}

void HllSketch::AddHash(uint64_t hash) {
  const size_t index = static_cast<size_t>(hash >> (64 - precision_));
  const uint64_t w = hash << precision_;
  const uint8_t rho =
      w == 0 ? static_cast<uint8_t>(64 - precision_ + 1)
             : static_cast<uint8_t>(__builtin_clzll(w) + 1);
  if (rho > registers_[index]) registers_[index] = rho;
}

Status HllSketch::Merge(const HllSketch& other) {
  if (other.precision_ != precision_) {
    return Status::InvalidArgument(
        "cannot merge HLL sketches of different precision (" +
        std::to_string(precision_) + " vs " +
        std::to_string(other.precision_) + ")");
  }
  for (size_t i = 0; i < registers_.size(); ++i) {
    registers_[i] = std::max(registers_[i], other.registers_[i]);
  }
  return Status::OK();
}

int64_t HllSketch::Estimate() const {
  const double m = static_cast<double>(registers_.size());
  double sum = 0;
  size_t zeros = 0;
  for (const uint8_t reg : registers_) {
    sum += std::ldexp(1.0, -static_cast<int>(reg));
    if (reg == 0) ++zeros;
  }
  double alpha;
  if (registers_.size() <= 16) alpha = 0.673;
  else if (registers_.size() <= 32) alpha = 0.697;
  else if (registers_.size() <= 64) alpha = 0.709;
  else alpha = 0.7213 / (1.0 + 1.079 / m);
  double estimate = alpha * m * m / sum;
  if (estimate <= 2.5 * m && zeros > 0) {
    // Linear counting: near-exact while the register array is sparse.
    estimate = m * std::log(m / static_cast<double>(zeros));
  }
  return static_cast<int64_t>(std::llround(estimate));
}

double HllSketch::StandardError() const {
  return 1.04 / std::sqrt(static_cast<double>(registers_.size()));
}

std::string HllSketch::Encode() const {
  bool any = false;
  for (const uint8_t reg : registers_) {
    if (reg != 0) {
      any = true;
      break;
    }
  }
  if (!any) return "";
  static const char kHex[] = "0123456789abcdef";
  std::string out = "H1 " + std::to_string(precision_) + ' ';
  out.reserve(out.size() + 2 * registers_.size());
  for (const uint8_t reg : registers_) {
    out += kHex[reg >> 4];
    out += kHex[reg & 0xF];
  }
  return out;
}

Result<HllSketch> HllSketch::Decode(std::string_view s) {
  if (s.empty()) return HllSketch();
  const auto fields = SplitSketchFields(s, ' ');
  if (fields.size() != 3 || fields[0] != "H1") {
    return Status::ParseError("bad HLL sketch header in '" + std::string(s) +
                              "'");
  }
  SQLCM_ASSIGN_OR_RETURN(const int64_t p, ParseSketchInt(fields[1]));
  if (p < 4 || p > 16) {
    return Status::ParseError("bad HLL precision in '" + std::string(s) +
                              "'");
  }
  HllSketch sketch(static_cast<int>(p));
  const std::string_view hex = fields[2];
  if (hex.size() != 2 * sketch.registers_.size()) {
    return Status::ParseError("bad HLL register payload in '" +
                              std::string(s) + "'");
  }
  const auto nibble = [](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    return -1;
  };
  const int max_rho = 64 - sketch.precision_ + 1;
  for (size_t i = 0; i < sketch.registers_.size(); ++i) {
    const int hi = nibble(hex[2 * i]);
    const int lo = nibble(hex[2 * i + 1]);
    if (hi < 0 || lo < 0) {
      return Status::ParseError("bad HLL register hex in '" +
                                std::string(s) + "'");
    }
    const int reg = (hi << 4) | lo;
    if (reg > max_rho) {
      return Status::ParseError("HLL register out of range in '" +
                                std::string(s) + "'");
    }
    sketch.registers_[i] = static_cast<uint8_t>(reg);
  }
  return sketch;
}

}  // namespace sqlcm::cm
