#include "search/frontier_cache.h"

#include "util/hash.h"

namespace galvatron {

void DpFrontierKey::Finalize() { hash = HashWords(words); }

DpFrontierCache::DpFrontierCache(size_t capacity) : capacity_(capacity) {}

std::shared_ptr<const DpFrontierEntry> DpFrontierCache::Lookup(
    const DpFrontierKey& key) {
  if (capacity_ == 0) return nullptr;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it == index_.end()) return nullptr;
  lru_.splice(lru_.begin(), lru_, it->second);
  return it->second->second;
}

void DpFrontierCache::Insert(const DpFrontierKey& key,
                             std::shared_ptr<const DpFrontierEntry> entry) {
  if (capacity_ == 0 || entry == nullptr) return;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it != index_.end()) {
    // Concurrent cold Runs over the same signature are deterministic, so
    // entries at the same budget are interchangeable; keep the wider one.
    if (it->second->second->budget_units >= entry->budget_units) return;
    it->second->second = std::move(entry);
    lru_.splice(lru_.begin(), lru_, it->second);
    ++insertions_;
    return;
  }
  lru_.emplace_front(key, std::move(entry));
  index_[lru_.front().first] = lru_.begin();
  ++insertions_;
  if (lru_.size() > capacity_) {
    index_.erase(lru_.back().first);
    lru_.pop_back();
    ++evictions_;
  }
}

DpFrontierCacheStats DpFrontierCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  DpFrontierCacheStats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.insertions = insertions_;
  s.evictions = evictions_;
  s.size = lru_.size();
  s.capacity = capacity_;
  return s;
}

}  // namespace galvatron
