#include "sqlcm/load_governor.h"

#include <algorithm>

namespace sqlcm::cm {

void LoadGovernor::RecordHook(int64_t hook_micros, int64_t now_micros) {
  if (options_.overhead_budget <= 0.0) return;
  busy_micros_.fetch_add(hook_micros, std::memory_order_relaxed);
  hook_count_.fetch_add(1, std::memory_order_relaxed);

  int64_t start = window_start_micros_.load(std::memory_order_relaxed);
  if (start == 0) {
    window_start_micros_.compare_exchange_strong(start, now_micros,
                                                 std::memory_order_relaxed);
    return;
  }
  const int64_t elapsed = now_micros - start;
  if (elapsed < options_.window_micros) return;

  // Window is full. One thread rolls it; others carry on.
  std::unique_lock<std::mutex> lock(roll_mutex_, std::try_to_lock);
  if (!lock.owns_lock()) return;
  start = window_start_micros_.load(std::memory_order_relaxed);
  if (now_micros - start < options_.window_micros) return;  // already rolled

  const int64_t busy = busy_micros_.exchange(0, std::memory_order_relaxed);
  const int64_t hooks = hook_count_.exchange(0, std::memory_order_relaxed);
  window_start_micros_.store(now_micros, std::memory_order_relaxed);

  const int64_t wall = std::max<int64_t>(now_micros - start, 1);
  const double fraction = static_cast<double>(busy) / static_cast<double>(wall);
  last_fraction_ = fraction;
  if (hooks < options_.min_hooks_per_window) return;
  if (forced_.load(std::memory_order_relaxed)) return;

  if (fraction > options_.overhead_budget) {
    TransitionTo(kLevelSampleEvents);
  } else if (fraction < options_.overhead_budget * options_.recover_ratio) {
    TransitionTo(kLevelFull);
  }
}

void LoadGovernor::TransitionTo(int new_level) {
  new_level = std::clamp(new_level, static_cast<int>(kLevelFull),
                         static_cast<int>(kLevelSampleEvents));
  const int old_level = level();
  if (old_level == new_level) return;
  level_.Set(new_level);
  (new_level > old_level ? raises_ : drops_).Inc();
}

void LoadGovernor::ForceLevel(int level) {
  std::lock_guard<std::mutex> lock(roll_mutex_);
  forced_.store(true, std::memory_order_relaxed);
  TransitionTo(level);
}

void LoadGovernor::ClearForce() {
  forced_.store(false, std::memory_order_relaxed);
}

double LoadGovernor::last_overhead_fraction() const {
  std::lock_guard<std::mutex> lock(roll_mutex_);
  return last_fraction_;
}

void LoadGovernor::RegisterMetrics(obs::MetricsRegistry* registry) const {
  registry->RegisterGauge("robustness.governor_level", &level_);
  registry->RegisterCounter("robustness.governor_raises", &raises_);
  registry->RegisterCounter("robustness.governor_drops", &drops_);
}

}  // namespace sqlcm::cm
