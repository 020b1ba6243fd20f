#include "search/frontier_cache.h"

#include <algorithm>
#include <utility>

#include "util/hash.h"

namespace galvatron {

void DpFrontierKey::Finalize() { hash = HashWords(words); }

size_t DpFrontierCache::Slot(const DpFrontierKey& key) const {
  const size_t mask = slots_.size() - 1;
  for (size_t slot = key.hash & mask;; slot = (slot + 1) & mask) {
    const int32_t index = slots_[slot];
    if (index < 0) return slot;
    const Record& record = records_[static_cast<size_t>(index)];
    if (record.hash == key.hash && record.key_size == key.words.size() &&
        std::equal(key.words.begin(), key.words.end(),
                   key_words_.begin() + record.key_begin)) {
      return slot;
    }
  }
}

bool DpFrontierCache::Find(
    const DpFrontierKey& key, DpStageFacts* facts,
    std::shared_ptr<const DpFrontierEntry>* frontier) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (records_.empty()) return false;
  const int32_t index = slots_[Slot(key)];
  if (index < 0) return false;
  const Record& record = records_[static_cast<size_t>(index)];
  facts->min_units = record.min_units;
  facts->max_transient = record.max_transient;
  facts->base_seconds = record.base_seconds;
  const auto segments = segments_.begin() + record.segment_begin;
  facts->segments.assign(segments, segments + record.num_segments);
  const auto seconds = uniform_seconds_.begin() + record.row_begin;
  facts->uniform_seconds.assign(seconds, seconds + record.num_rows);
  const auto peaks = uniform_peaks_.begin() + record.row_begin;
  facts->uniform_peak_bytes.assign(peaks, peaks + record.num_rows);
  if (frontier != nullptr) *frontier = record.frontier;
  return true;
}

void DpFrontierCache::Widen(Record& record,
                            std::shared_ptr<const DpFrontierEntry> frontier) {
  if (frontier == nullptr) return;
  if (record.frontier != nullptr) {
    // Concurrent cold Runs over the same signature are deterministic, so
    // frontiers at the same budget are interchangeable; keep the wider one.
    if (record.frontier->budget_units >= frontier->budget_units) return;
  } else {
    ++frontiers_;
  }
  record.frontier = std::move(frontier);
  ++insertions_;
}

void DpFrontierCache::Insert(const DpFrontierKey& key,
                             const DpStageFacts& facts,
                             std::shared_ptr<const DpFrontierEntry> frontier) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!records_.empty()) {
    const int32_t index = slots_[Slot(key)];
    if (index >= 0) {
      Widen(records_[static_cast<size_t>(index)], std::move(frontier));
      return;
    }
  }
  if (records_.size() >= kMaxStageEntries) {
    // Readers keep the frontiers they took: each is its own shared_ptr.
    records_.clear();
    key_words_.clear();
    uniform_seconds_.clear();
    uniform_peaks_.clear();
    segments_.clear();
    std::fill(slots_.begin(), slots_.end(), -1);
    frontiers_ = 0;
  }
  if (2 * (records_.size() + 1) > slots_.size()) {
    slots_.assign(std::max<size_t>(64, 2 * slots_.size()), -1);
    const size_t mask = slots_.size() - 1;
    for (size_t i = 0; i < records_.size(); ++i) {
      size_t slot = records_[i].hash & mask;
      while (slots_[slot] >= 0) slot = (slot + 1) & mask;
      slots_[slot] = static_cast<int32_t>(i);
    }
  }
  const size_t slot = Slot(key);
  Record record;
  record.hash = key.hash;
  record.key_begin = static_cast<uint32_t>(key_words_.size());
  record.key_size = static_cast<uint32_t>(key.words.size());
  record.row_begin = static_cast<uint32_t>(uniform_seconds_.size());
  record.num_rows = static_cast<uint32_t>(facts.uniform_seconds.size());
  record.segment_begin = static_cast<uint32_t>(segments_.size());
  record.num_segments = static_cast<uint32_t>(facts.segments.size());
  record.min_units = facts.min_units;
  record.max_transient = facts.max_transient;
  record.base_seconds = facts.base_seconds;
  Widen(record, std::move(frontier));
  key_words_.insert(key_words_.end(), key.words.begin(), key.words.end());
  uniform_seconds_.insert(uniform_seconds_.end(),
                          facts.uniform_seconds.begin(),
                          facts.uniform_seconds.end());
  uniform_peaks_.insert(uniform_peaks_.end(),
                        facts.uniform_peak_bytes.begin(),
                        facts.uniform_peak_bytes.end());
  segments_.insert(segments_.end(), facts.segments.begin(),
                   facts.segments.end());
  slots_[slot] = static_cast<int32_t>(records_.size());
  records_.push_back(std::move(record));
}

DpFrontierCacheStats DpFrontierCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  DpFrontierCacheStats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.insertions = insertions_;
  s.size = frontiers_;
  s.stage_entries = records_.size();
  s.stage_bytes = records_.capacity() * sizeof(Record) +
                  key_words_.capacity() * sizeof(int32_t) +
                  uniform_seconds_.capacity() * sizeof(double) +
                  uniform_peaks_.capacity() * sizeof(int64_t) +
                  segments_.capacity() * sizeof(DpLpSegment) +
                  slots_.capacity() * sizeof(int32_t);
  return s;
}

}  // namespace galvatron
