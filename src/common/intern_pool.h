// Process-wide interning of immutable values that many long-lived objects
// repeat (cached plans of one statement shape share their signatures and
// column layouts).
#ifndef SQLCM_COMMON_INTERN_POOL_H_
#define SQLCM_COMMON_INTERN_POOL_H_

#include <algorithm>
#include <cstddef>
#include <memory>
#include <mutex>
#include <unordered_map>

namespace sqlcm::common {

/// Hands out one shared copy per distinct value. Entries are weak: a value
/// lives as long as some holder uses it, and expired entries are swept
/// whenever the pool doubles past its last live size. Callers must never
/// write through a returned pointer. Thread-safe (one mutex; interning is
/// a compile-time path, not a per-execution one).
template <typename T, typename Hash, typename Equal>
class InternPool {
 public:
  /// The shared copy of `*value` (registering `value` itself when the pool
  /// has none). `value` must not be reachable by any other writer.
  std::shared_ptr<T> Intern(std::shared_ptr<T> value) {
    const size_t hash = Hash()(*value);
    std::lock_guard<std::mutex> lock(mutex_);
    auto range = entries_.equal_range(hash);
    for (auto it = range.first; it != range.second; ++it) {
      std::shared_ptr<T> shared = it->second.lock();
      if (shared != nullptr && Equal()(*shared, *value)) return shared;
    }
    if (entries_.size() >= sweep_at_) {
      std::erase_if(entries_,
                    [](const auto& entry) { return entry.second.expired(); });
      sweep_at_ = std::max<size_t>(kMinSweep, 2 * entries_.size());
    }
    entries_.emplace(hash, value);
    return value;
  }

 private:
  static constexpr size_t kMinSweep = 64;
  std::mutex mutex_;
  std::unordered_multimap<size_t, std::weak_ptr<T>> entries_;
  size_t sweep_at_ = kMinSweep;
};

}  // namespace sqlcm::common

#endif  // SQLCM_COMMON_INTERN_POOL_H_
