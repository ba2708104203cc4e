#include "engine/plan_cache.h"

namespace sqlcm::engine {

std::shared_ptr<CachedPlan> PlanCache::Get(const std::string& sql_text) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = map_.find(sql_text);
  if (it == map_.end()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  hits_.fetch_add(1, std::memory_order_relaxed);
  lru_.splice(lru_.begin(), lru_, it->second.lru_it);
  return it->second.plan;
}

std::shared_ptr<CachedPlan> PlanCache::Recheck(const std::string& sql_text) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = map_.find(sql_text);
  if (it == map_.end()) return nullptr;
  misses_.fetch_sub(1, std::memory_order_relaxed);
  hits_.fetch_add(1, std::memory_order_relaxed);
  lru_.splice(lru_.begin(), lru_, it->second.lru_it);
  return it->second.plan;
}

void PlanCache::Put(std::shared_ptr<CachedPlan> plan) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = map_.find(plan->sql_text);
  if (it != map_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second.lru_it);
    it->second.plan = std::move(plan);
    return;
  }
  const std::string key = plan->sql_text;
  lru_.push_front(key);
  map_.emplace(key, Slot{std::move(plan), lru_.begin()});
  while (map_.size() > capacity_ && !lru_.empty()) {
    map_.erase(lru_.back());
    lru_.pop_back();
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
}

void PlanCache::Clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  map_.clear();
  lru_.clear();
}

size_t PlanCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return map_.size();
}

}  // namespace sqlcm::engine
