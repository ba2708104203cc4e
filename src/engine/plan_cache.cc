#include "engine/plan_cache.h"

#include "common/intern_pool.h"

namespace sqlcm::engine {

SharedText SharedText::Intern(std::string text) {
  // Never destroyed: plans may be released during static destruction.
  static auto* pool = new common::InternPool<std::string, std::hash<std::string>,
                                             std::equal_to<std::string>>();
  SharedText out;
  out.text_ = pool->Intern(std::make_shared<std::string>(std::move(text)));
  return out;
}

const std::string& SharedText::str() const {
  static const std::string kEmpty;
  return text_ != nullptr ? *text_ : kEmpty;
}

std::shared_ptr<CachedPlan> PlanCache::Touch(Lru::iterator it) {
  lru_.splice(lru_.begin(), lru_, it);
  return *it;
}

std::shared_ptr<CachedPlan> PlanCache::Get(const std::string& sql_text) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = map_.find(sql_text);
  if (it == map_.end()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  hits_.fetch_add(1, std::memory_order_relaxed);
  return Touch(it->second);
}

std::shared_ptr<CachedPlan> PlanCache::Recheck(const std::string& sql_text) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = map_.find(sql_text);
  if (it == map_.end()) return nullptr;
  misses_.fetch_sub(1, std::memory_order_relaxed);
  hits_.fetch_add(1, std::memory_order_relaxed);
  return Touch(it->second);
}

void PlanCache::Put(std::shared_ptr<CachedPlan> plan) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = map_.find(plan->sql_text);
  if (it != map_.end()) {
    // Same text: re-key onto the new plan's text before the old plan (and
    // the string the current key views) is dropped.
    const Lru::iterator node = it->second;
    map_.erase(it);
    lru_.splice(lru_.begin(), lru_, node);
    *node = std::move(plan);
    map_.emplace((*node)->sql_text, node);
    return;
  }
  lru_.push_front(std::move(plan));
  map_.emplace(lru_.front()->sql_text, lru_.begin());
  while (map_.size() > capacity_ && !lru_.empty()) {
    map_.erase(lru_.back()->sql_text);
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
