#include "search/frontier_cache.h"

namespace galvatron {

namespace {

/// SplitMix64-style mixing of one more word into a running hash — the same
/// scheme the shared cost cache uses, so both key families disperse alike.
inline size_t HashCombine(size_t h, uint64_t v) {
  v += 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  v = (v ^ (v >> 30)) * 0xbf58476d1ce4e5b9ULL;
  v = (v ^ (v >> 27)) * 0x94d049bb133111ebULL;
  return static_cast<size_t>(v ^ (v >> 31)) ^ h;
}

}  // namespace

void DpFrontierKey::Finalize() {
  size_t h = HashCombine(0, words.size());
  size_t i = 0;
  for (; i + 1 < words.size(); i += 2) {
    h = HashCombine(
        h, (static_cast<uint64_t>(static_cast<uint32_t>(words[i])) << 32) |
               static_cast<uint32_t>(words[i + 1]));
  }
  if (i < words.size()) {
    h = HashCombine(h, static_cast<uint32_t>(words[i]));
  }
  hash = h;
}

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
