// The SQLCM schema (paper §2.2, Appendix A): monitored classes, their
// probe attributes, and the record types the monitor assembles from engine
// instrumentation.
//
// Probes are exposed through a registry of (name, type, getter) attribute
// definitions per class, so new monitored objects and probes can be added
// without touching the rule engine (paper §4.1: "SQLCM offers a generic
// interface to integrate new monitored objects, events and probes into the
// schema"). All probe values are cast to engine Value types, enabling every
// aggregation function of the server for LAT aggregation as well.
#ifndef SQLCM_SQLCM_SCHEMA_H_
#define SQLCM_SQLCM_SCHEMA_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "common/value.h"
#include "engine/plan_cache.h"
#include "txn/transaction.h"

namespace sqlcm::cm {

enum class MonitoredClass : uint8_t {
  kQuery = 0,
  kTransaction,
  kBlocker,  // query holding a lock another query waits on
  kBlocked,  // query waiting on a lock
  kTimer,
  kEvicted,  // row evicted from a LAT (attributes are the LAT's columns)
};
inline constexpr size_t kNumMonitoredClasses = 6;

const char* MonitoredClassName(MonitoredClass cls);
common::Result<MonitoredClass> ParseMonitoredClassName(std::string_view name);

// ---------------------------------------------------------------------------
// Record types assembled by the monitor
// ---------------------------------------------------------------------------

/// One statement execution, live from Query.Start until its terminal event.
///
/// Probe strings (text, signatures) are not copied per execution: when the
/// statement ran from a cached plan, `plan` pins the plan-cache entry and
/// the accessors below read the strings in place (hot path of Figure 2/3).
/// The string fields are authoritative only when `plan` is null (EXEC
/// wrapper queries, hand-built records in tests).
struct QueryRecord {
  uint64_t id = 0;
  std::shared_ptr<const engine::CachedPlan> plan;
  std::string text;
  std::string logical_signature;
  std::string physical_signature;
  uint64_t logical_hash = 0;
  uint64_t physical_hash = 0;
  int64_t start_micros = 0;
  double duration_secs = 0;      // filled at the terminal event
  double estimated_cost = 0;
  double time_blocked_secs = 0;  // accumulated lock-wait time
  int64_t times_blocked = 0;
  int64_t queries_blocked = 0;   // how many queries this one has blocked
  int64_t number_of_instances = 0;  // executions of the cached plan
  std::string query_type;        // SELECT/INSERT/UPDATE/DELETE/EXEC
  uint64_t session_id = 0;
  uint64_t txn_id = 0;
  std::string user;
  std::string application;
  /// Number of queries by the same user (including this one) that were
  /// executing when this query started — the probe behind per-user MPL
  /// limits (paper §3 Example 5(b)).
  int64_t concurrent_user_queries = 1;
  /// For the Cancel action; valid while the query is live.
  txn::Transaction* txn = nullptr;

  const std::string& query_text() const {
    return plan != nullptr ? plan->sql_text : text;
  }
  const std::string& logical_sig() const {
    return plan != nullptr ? plan->logical_signature.str() : logical_signature;
  }
  const std::string& physical_sig() const {
    return plan != nullptr ? plan->physical_signature.str()
                           : physical_signature;
  }
};

/// Blocker/Blocked objects: a query plus the lock-conflict context. The
/// underlying query attributes are exposed directly on these classes
/// (Appendix A: "they have the same schema as the Query object") plus
/// Wait_Secs (the wait involved in this conflict) and Resource.
/// A null `query` (the blocker's statement had finished before the block
/// was seen) makes every attribute read NULL; `txn_id` still names the
/// transaction that holds (Blocker) or waits for (Blocked) the lock, which
/// is what a Cancel action on the object cancels.
struct BlockEventView {
  const QueryRecord* query = nullptr;
  double wait_secs = 0;
  std::string resource;
  uint64_t txn_id = 0;
};

struct TransactionRecord {
  uint64_t id = 0;
  uint64_t session_id = 0;
  int64_t start_micros = 0;
  double duration_secs = 0;
  int64_t num_queries = 0;
  std::vector<uint64_t> logical_seq;   // per-query logical signature hashes
  std::vector<uint64_t> physical_seq;
  std::string logical_signature;       // "[h1,h2,...]" (paper: list of ints)
  std::string physical_signature;
  std::string user;
  std::string application;
};

struct TimerRecord {
  std::string name;
  int64_t interval_micros = 0;
  /// Alarms left; 0 = disabled, negative = infinite (paper §5.3 Set()).
  int64_t remaining_alarms = 0;
  int64_t next_due_micros = 0;
  /// Filled by the monitor just before rule evaluation so the Current_Time
  /// attribute probe needs no clock access.
  double now_secs = 0;
};

// ---------------------------------------------------------------------------
// Attribute registry
// ---------------------------------------------------------------------------

/// Probe accessor: extracts one attribute from a record (the void* is the
/// record type of the attribute's class).
using AttributeGetter = common::Value (*)(const void* record);

/// Borrowed accessor of a string attribute: a view of the bytes in the
/// record, or in the pinned plan's SharedText (QueryRecord::plan).
///
/// Lifetime rule: a view is valid while its record is bound to the
/// evaluation context that read it, or, for a deferred batch, while the
/// batch's keepalives hold the record (the whole flush). Anything kept
/// longer (a LAT group key, a persisted row, a mail body) must be
/// materialised through AttributeDef::Get.
using AttributeView = std::string_view (*)(const void* record);

/// One probe read without copying: a string borrows its bytes (see the
/// lifetime rule above); every other kind is held by value, which never
/// allocates. Hash() and Compare() agree exactly with Value::Hash and
/// Value::Compare of the materialised value (std::hash<std::string_view>
/// equals std::hash<std::string> on the same bytes).
struct BorrowedProbe {
  common::Value scalar;   // every kind but STRING
  std::string_view text;  // STRING
  bool is_text = false;

  /// Borrows `v`'s string (valid while `v` is).
  static BorrowedProbe Of(const common::Value& v) {
    if (!v.is_string()) return BorrowedProbe{v, {}, false};
    return BorrowedProbe{common::Value(), v.string_value(), true};
  }
  bool is_null() const { return !is_text && scalar.is_null(); }
  size_t Hash() const {
    return is_text ? std::hash<std::string_view>()(text) : scalar.Hash();
  }
  /// Value::Compare(materialised, v), without materialising.
  int Compare(const common::Value& v) const {
    if (!is_text) return scalar.Compare(v);
    if (!v.is_string()) {
      return static_cast<int>(common::ValueKind::kString) <
                     static_cast<int>(v.kind())
                 ? -1
                 : 1;
    }
    return text.compare(v.string_value());
  }
  common::Value Materialize() const {
    return is_text ? common::Value::String(std::string(text)) : scalar;
  }
  /// Equality of the materialised values.
  friend bool operator==(const BorrowedProbe& a, const BorrowedProbe& b) {
    if (a.is_text || b.is_text) {
      return a.is_text && b.is_text && a.text == b.text;
    }
    return a.scalar == b.scalar;
  }
};

/// HashRow of the materialised key, computed from its borrowed probes.
inline size_t HashProbes(const BorrowedProbe* probes, size_t count) {
  size_t h = common::kHashRowSeed;
  for (size_t i = 0; i < count; ++i) {
    h = common::HashRowStep(h, probes[i].Hash());
  }
  return h;
}

/// One attribute of a monitored class. String attributes are read through
/// `view` (getter null); every other kind through `getter` (view null).
struct AttributeDef {
  const char* name;
  common::ValueKind kind;
  AttributeGetter getter = nullptr;
  AttributeView view = nullptr;
  /// When set and true for a record, the probe reads NULL without calling
  /// getter or view (a Blocker whose statement has already finished).
  bool (*absent)(const void* record) = nullptr;

  /// The probe as a Value; copies a string attribute's bytes. For what
  /// outlives the record: Persist, SendMail, ReferenceLat, new group keys.
  common::Value Get(const void* record) const {
    if (absent != nullptr && absent(record)) return common::Value();
    return view != nullptr ? common::Value::String(std::string(view(record)))
                           : getter(record);
  }
  /// The probe without copying: key lookups and fast condition atoms.
  BorrowedProbe Borrow(const void* record) const {
    if (absent != nullptr && absent(record)) return BorrowedProbe{};
    if (view == nullptr) return BorrowedProbe{getter(record), {}, false};
    return BorrowedProbe{common::Value(), view(record), true};
  }
};

/// Immutable registry of the static classes' attributes (kEvicted is
/// resolved dynamically against a LAT's columns by the rule compiler).
class ObjectSchema {
 public:
  /// Process-wide schema instance.
  static const ObjectSchema& Get();

  const std::vector<AttributeDef>& attributes(MonitoredClass cls) const {
    return attributes_[static_cast<size_t>(cls)];
  }

  /// Case-insensitive; -1 when absent.
  int FindAttribute(MonitoredClass cls, std::string_view name) const;

  common::Value GetValue(MonitoredClass cls, int attr_index,
                         const void* record) const {
    return attributes(cls)[static_cast<size_t>(attr_index)].Get(record);
  }

 private:
  ObjectSchema();
  std::vector<AttributeDef> attributes_[kNumMonitoredClasses];
};

}  // namespace sqlcm::cm

#endif  // SQLCM_SQLCM_SCHEMA_H_
