#include "search/frontier_cache.h"

#include <algorithm>

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

size_t DpFrontierCache::StageSlot(const DpFrontierKey& key) const {
  const size_t mask = stage_slots_.size() - 1;
  for (size_t slot = key.hash & mask;; slot = (slot + 1) & mask) {
    const int32_t index = stage_slots_[slot];
    if (index < 0) return slot;
    const StageRecord& record = stage_records_[static_cast<size_t>(index)];
    if (record.hash == key.hash && record.key_size == key.words.size() &&
        std::equal(key.words.begin(), key.words.end(),
                   stage_key_words_.begin() + record.key_begin)) {
      return slot;
    }
  }
}

bool DpFrontierCache::FindStage(const DpFrontierKey& key,
                                DpStageFacts* facts) const {
  std::lock_guard<std::mutex> lock(stage_mu_);
  if (stage_records_.empty()) return false;
  const int32_t index = stage_slots_[StageSlot(key)];
  if (index < 0) return false;
  const StageRecord& record = stage_records_[static_cast<size_t>(index)];
  facts->min_units = record.min_units;
  facts->max_transient = record.max_transient;
  facts->base_seconds = record.base_seconds;
  const auto segments = stage_segments_.begin() + record.segment_begin;
  facts->segments.assign(segments, segments + record.num_segments);
  const auto seconds = stage_uniform_seconds_.begin() + record.row_begin;
  facts->uniform_seconds.assign(seconds, seconds + record.num_rows);
  const auto peaks = stage_uniform_peaks_.begin() + record.row_begin;
  facts->uniform_peak_bytes.assign(peaks, peaks + record.num_rows);
  return true;
}

void DpFrontierCache::InsertStage(const DpFrontierKey& key,
                                  const DpStageFacts& facts) {
  std::lock_guard<std::mutex> lock(stage_mu_);
  if (!stage_records_.empty() && stage_slots_[StageSlot(key)] >= 0) return;
  if (stage_records_.size() >= kMaxStageEntries) {
    stage_records_.clear();
    stage_key_words_.clear();
    stage_uniform_seconds_.clear();
    stage_uniform_peaks_.clear();
    stage_segments_.clear();
    std::fill(stage_slots_.begin(), stage_slots_.end(), -1);
  }
  if (2 * (stage_records_.size() + 1) > stage_slots_.size()) {
    stage_slots_.assign(std::max<size_t>(64, 2 * stage_slots_.size()), -1);
    const size_t mask = stage_slots_.size() - 1;
    for (size_t i = 0; i < stage_records_.size(); ++i) {
      size_t slot = stage_records_[i].hash & mask;
      while (stage_slots_[slot] >= 0) slot = (slot + 1) & mask;
      stage_slots_[slot] = static_cast<int32_t>(i);
    }
  }
  const size_t slot = StageSlot(key);
  StageRecord record;
  record.hash = key.hash;
  record.key_begin = static_cast<uint32_t>(stage_key_words_.size());
  record.key_size = static_cast<uint32_t>(key.words.size());
  record.row_begin = static_cast<uint32_t>(stage_uniform_seconds_.size());
  record.num_rows = static_cast<uint32_t>(facts.uniform_seconds.size());
  record.segment_begin = static_cast<uint32_t>(stage_segments_.size());
  record.num_segments = static_cast<uint32_t>(facts.segments.size());
  record.min_units = facts.min_units;
  record.max_transient = facts.max_transient;
  record.base_seconds = facts.base_seconds;
  stage_key_words_.insert(stage_key_words_.end(), key.words.begin(),
                          key.words.end());
  stage_uniform_seconds_.insert(stage_uniform_seconds_.end(),
                                facts.uniform_seconds.begin(),
                                facts.uniform_seconds.end());
  stage_uniform_peaks_.insert(stage_uniform_peaks_.end(),
                              facts.uniform_peak_bytes.begin(),
                              facts.uniform_peak_bytes.end());
  stage_segments_.insert(stage_segments_.end(), facts.segments.begin(),
                         facts.segments.end());
  stage_slots_[slot] = static_cast<int32_t>(stage_records_.size());
  stage_records_.push_back(record);
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
  std::lock_guard<std::mutex> stage_lock(stage_mu_);
  s.stage_entries = stage_records_.size();
  s.stage_bytes =
      stage_records_.capacity() * sizeof(StageRecord) +
      stage_key_words_.capacity() * sizeof(int32_t) +
      stage_uniform_seconds_.capacity() * sizeof(double) +
      stage_uniform_peaks_.capacity() * sizeof(int64_t) +
      stage_segments_.capacity() * sizeof(DpLpSegment) +
      stage_slots_.capacity() * sizeof(int32_t);
  return s;
}

}  // namespace galvatron
