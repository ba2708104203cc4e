// Plan cache: SQL text -> compiled plan (+ cached query signatures).
//
// Paper §4.2: "The logical query signature is computed during query
// optimization and stored as part of the query plan; thus, if a query plan
// is cached, so is its signature, thereby avoiding the need to recompute it
// often." CachedPlan carries monitor-filled signature fields so exactly
// that happens: the monitor computes signatures once at compile time and
// every later execution of the cached plan reuses them.
#ifndef SQLCM_ENGINE_PLAN_CACHE_H_
#define SQLCM_ENGINE_PLAN_CACHE_H_

#include <atomic>
#include <list>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <unordered_map>

#include "exec/logical_plan.h"
#include "exec/physical_plan.h"

namespace sqlcm::engine {

/// An immutable string shared by every holder of the same text: cached
/// plans of one statement shape (ad-hoc texts differing only in literals)
/// keep one copy of their signatures. Reads as a `const std::string&`.
class SharedText {
 public:
  SharedText() = default;
  /// The process-wide shared copy of `text`.
  static SharedText Intern(std::string text);

  const std::string& str() const;
  operator const std::string&() const { return str(); }  // NOLINT
  size_t size() const { return str().size(); }
  bool empty() const { return str().empty(); }

  friend bool operator==(const SharedText& a, const SharedText& b) {
    return a.str() == b.str();
  }
  friend std::ostream& operator<<(std::ostream& os, const SharedText& t) {
    return os << t.str();
  }

 private:
  std::shared_ptr<const std::string> text_;
};

/// One compiled statement. Immutable after compilation except the
/// monitor-owned signature fields (written once, before the entry is
/// published to the cache) and the execution counter.
struct CachedPlan {
  std::string sql_text;
  /// Read only while computing signatures (OnStatementCompiled);
  /// Database::Compile releases it before the plan is cached, since the
  /// physical plan owns copies of everything execution needs.
  std::unique_ptr<exec::LogicalPlan> logical;
  std::unique_ptr<exec::PhysicalPlan> physical;

  int64_t optimize_micros = 0;  // planning + optimization wall time

  // --- Monitor-owned (filled by MonitorHooks::OnStatementCompiled) ---
  bool signatures_computed = false;
  SharedText logical_signature;  // canonical linearization (paper: BLOB)
  SharedText physical_signature;
  uint64_t logical_signature_hash = 0;
  uint64_t physical_signature_hash = 0;
  int64_t signature_micros = 0;      // cost of computing both signatures

  /// Number of executions of this plan (Query.Number_of_instances probe).
  std::atomic<uint64_t> execution_count{0};
};

/// Thread-safe LRU cache keyed by exact SQL text. The text is stored once,
/// in the plan: map keys are views into CachedPlan::sql_text.
class PlanCache {
 public:
  explicit PlanCache(size_t capacity) : capacity_(capacity) {}
  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  /// nullptr on miss; refreshes LRU position on hit.
  std::shared_ptr<CachedPlan> Get(const std::string& sql_text);

  /// Second lookup by a caller whose Get just missed and who now holds the
  /// compile lock for this text: on a hit (another session compiled it in
  /// the meantime) the earlier miss is recounted as a hit; a miss counts
  /// nothing. Keeps misses equal to the compilations they cause.
  std::shared_ptr<CachedPlan> Recheck(const std::string& sql_text);

  /// Inserts (replacing any same-text entry) and evicts LRU overflow.
  void Put(std::shared_ptr<CachedPlan> plan);

  /// Drops everything (called on DDL).
  void Clear();

  size_t size() const;
  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }
  uint64_t evictions() const {
    return evictions_.load(std::memory_order_relaxed);
  }

 private:
  const size_t capacity_;
  mutable std::mutex mutex_;
  using Lru = std::list<std::shared_ptr<CachedPlan>>;
  /// Refreshes `it`'s LRU position and returns its plan.
  std::shared_ptr<CachedPlan> Touch(Lru::iterator it);

  // LRU list front = most recent. Each map key views the sql_text of the
  // plan its list node holds, so a key must leave the map before its plan
  // leaves the list.
  Lru lru_;
  std::unordered_map<std::string_view, Lru::iterator> map_;
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> evictions_{0};
};

}  // namespace sqlcm::engine

#endif  // SQLCM_ENGINE_PLAN_CACHE_H_
