#include "search/cost_cache.h"

#include <vector>

#include "parallel/transformation.h"
#include "util/hash.h"
#include "util/logging.h"
#include "util/math_util.h"
#include "util/string_util.h"

namespace galvatron {

size_t LayerCostKeyHash::operator()(const LayerCostKey& k) const {
  size_t h = HashCombine(0, (static_cast<uint64_t>(
                                 static_cast<uint32_t>(k.layer_sig))
                             << 32) |
                                static_cast<uint32_t>(k.strategy));
  h = HashCombine(h, (static_cast<uint64_t>(
                          static_cast<uint32_t>(k.fingerprint))
                      << 32) |
                         static_cast<uint32_t>(k.batch_per_group));
  h = HashCombine(h, (static_cast<uint64_t>(
                          static_cast<uint32_t>(k.micro_batches))
                      << 32) |
                         static_cast<uint32_t>(k.resident_micro_batches));
  return HashCombine(h, static_cast<uint32_t>(k.recompute));
}

size_t TransformCostKeyHash::operator()(const TransformCostKey& k) const {
  size_t h = HashCombine(
      0, (static_cast<uint64_t>(static_cast<uint32_t>(k.prev_sig)) << 32) |
             static_cast<uint32_t>(k.next_sig));
  h = HashCombine(h, (static_cast<uint64_t>(
                          static_cast<uint32_t>(k.prev_strategy))
                      << 32) |
                         static_cast<uint32_t>(k.next_strategy));
  return HashCombine(h, (static_cast<uint64_t>(
                             static_cast<uint32_t>(k.fingerprint))
                         << 32) |
                            static_cast<uint32_t>(k.mb_size));
}

SharedCostCache::SharedCostCache(const CostEstimator* estimator,
                                 const ModelSpec* model)
    : estimator_(estimator), model_(model) {
  GALVATRON_CHECK(estimator != nullptr);
  GALVATRON_CHECK(model != nullptr);
  layer_sig_ids_.reserve(static_cast<size_t>(model->num_layers()));
  for (int l = 0; l < model->num_layers(); ++l) {
    layer_sig_ids_.push_back(Intern(model->layer(l).signature()));
  }
}

std::string SharedCostCache::BlockFingerprint(const ClusterSpec& cluster,
                                              int first_device, int span) {
  // Per hierarchy level, the block either lies inside one level block
  // ("u") or crosses boundaries whose in-block positions are determined by
  // first_device mod the level span. Equal fingerprints => the blocks see
  // the same link at every group shape a strategy can form.
  std::string fp;
  for (const TopologyLevel& level : cluster.levels()) {
    const int offset = first_device % level.span;
    if (offset + span <= level.span) {
      fp += "u;";
    } else {
      fp += StrFormat("o%d;", offset);
    }
  }
  // Mixed-generation or graph-priced clusters: costs depend on the absolute
  // device position (per-range throughput, graph contention), not just the
  // level offsets — pin the fingerprint to the position so distinct blocks
  // never alias. Homogeneous level-priced clusters keep sharing.
  if (cluster.topology() != nullptr || !cluster.HasUniformCompute()) {
    fp += StrFormat("@%d;", first_device);
  }
  return fp;
}

size_t SharedCostCache::WordsHash::operator()(
    const std::vector<int32_t>& words) const {
  return HashWords(words);
}

int32_t SharedCostCache::Intern(const std::string& text) {
  std::lock_guard<std::mutex> lock(intern_mu_);
  return InternLocked(text);
}

int32_t SharedCostCache::InternLocked(const std::string& text) {
  // Look up before inserting: emplace would build a node for every repeat.
  auto it = intern_ids_.find(text);
  if (it != intern_ids_.end()) return it->second;
  const int32_t id = static_cast<int32_t>(intern_ids_.size());
  intern_ids_.emplace(text, id);
  return id;
}

int32_t SharedCostCache::InternStrategy(const HybridStrategy& strategy) {
  // A reusable buffer for the lookup key, not a cache: the ids live in
  // strategy_ids_.
  thread_local std::vector<int32_t> words;
  words.clear();
  for (const ParallelComponent& level : strategy.levels()) {
    words.push_back(static_cast<int32_t>(level.dim));
    words.push_back(level.degree);
  }
  std::lock_guard<std::mutex> lock(intern_mu_);
  auto it = strategy_ids_.find(words);
  if (it != strategy_ids_.end()) return it->second;
  const int32_t id = InternLocked(strategy.ToString());
  strategy_ids_.emplace(words, id);
  return id;
}

int32_t SharedCostCache::InternFingerprint(int first_device, int span) {
  return Intern(
      BlockFingerprint(estimator_->cluster(), first_device, span));
}

void SharedCostCache::InternCandidates(
    const std::vector<HybridStrategy>& candidates, int stage_first_device,
    CandidateKeys* keys) {
  keys->strategy.clear();
  keys->fingerprint.clear();
  int last_span = -1;
  int32_t last_fp = -1;
  for (const HybridStrategy& s : candidates) {
    keys->strategy.push_back(InternStrategy(s));
    // Candidates of one stage share their footprint, so the fingerprint is
    // formatted once per distinct span, not once per candidate.
    const int span = s.TotalDegree() > 0 ? s.TotalDegree() : 1;
    if (span != last_span) {
      last_span = span;
      last_fp = InternFingerprint(stage_first_device, span);
    }
    keys->fingerprint.push_back(last_fp);
  }
}

CachedPlanSource::CachedPlanSource(SharedCostCache* cache,
                                   const std::vector<IndexedStage>* stages,
                                   int global_batch, int num_micro_batches,
                                   PipelineSchedule schedule)
    : cache_(cache),
      stages_(stages),
      global_batch_(global_batch),
      num_micro_batches_(num_micro_batches),
      mb_size_(static_cast<int>(CeilDiv(global_batch, num_micro_batches))),
      schedule_(schedule) {}

PlanCostSource::Stage CachedPlanSource::StageAt(int stage) const {
  const IndexedStage& s = (*stages_)[static_cast<size_t>(stage)];
  return Stage{s.first_device, s.num_devices, s.first_layer, s.num_layers};
}

Result<LayerCost> CachedPlanSource::Layer(int stage, int layer) {
  const IndexedStage& s = (*stages_)[static_cast<size_t>(stage)];
  const int i = layer - s.first_layer;
  const size_t option = static_cast<size_t>(s.options[i]);
  LayerCostKey key;
  key.layer_sig = cache_->InternSignature(layer);
  key.strategy = s.keys->strategy[option];
  key.fingerprint = s.keys->fingerprint[option];
  key.batch_per_group = global_batch_;
  key.micro_batches = num_micro_batches_;
  key.resident_micro_batches =
      InFlightMicroBatches(schedule_, num_micro_batches_, num_stages(), stage);
  key.recompute = s.RecomputeAt(i) ? 1 : 0;
  if (has_last_layer_ && key == last_layer_key_) return last_layer_cost_;
  GALVATRON_ASSIGN_OR_RETURN(
      last_layer_cost_,
      cache_->Layer(key, layer, (*s.candidates)[option], s.first_device));
  last_layer_key_ = key;
  has_last_layer_ = true;
  return last_layer_cost_;
}

Result<double> CachedPlanSource::TransformSeconds(int stage, int layer) {
  const IndexedStage& s = (*stages_)[static_cast<size_t>(stage)];
  const int i = layer - s.first_layer;
  const size_t prev = static_cast<size_t>(s.options[i - 1]);
  const size_t next = static_cast<size_t>(s.options[i]);
  // Local slicing costs nothing; no estimator call to look up. A layer
  // that keeps its predecessor's strategy is the common case of that.
  if (prev == next ||
      IsFreeSlicing((*s.candidates)[prev], (*s.candidates)[next])) {
    return 0.0;
  }
  TransformCostKey key;
  key.prev_sig = cache_->InternSignature(layer - 1);
  key.next_sig = cache_->InternSignature(layer);
  key.prev_strategy = TransformClassOf((*s.candidates)[prev]);
  key.next_strategy = TransformClassOf((*s.candidates)[next]);
  key.fingerprint = s.keys->fingerprint[prev];
  key.mb_size = mb_size_;
  return cache_->TransformSeconds(key, layer, (*s.candidates)[prev],
                                  (*s.candidates)[next], s.first_device);
}

Result<LayerCost> SharedCostCache::Layer(const LayerCostKey& key,
                                         int layer_index,
                                         const HybridStrategy& strategy,
                                         int stage_first_device) {
  Shard& shard = ShardFor(LayerCostKeyHash{}(key));
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.layers.find(key);
    if (it != shard.layers.end()) {
      layer_hits_.fetch_add(1, std::memory_order_relaxed);
      return it->second;
    }
  }
  layer_misses_.fetch_add(1, std::memory_order_relaxed);
  GALVATRON_ASSIGN_OR_RETURN(
      LayerCost cost,
      estimator_->EstimateLayer(model_->layer(layer_index), strategy,
                                stage_first_device, key.batch_per_group,
                                key.micro_batches, key.recompute != 0,
                                key.resident_micro_batches));
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.layers.emplace(key, cost);
  }
  return cost;
}

Result<double> SharedCostCache::TransformSeconds(
    const TransformCostKey& key, int layer_index,
    const HybridStrategy& prev_strategy, const HybridStrategy& next_strategy,
    int stage_first_device) {
  GALVATRON_CHECK_GT(layer_index, 0);
  Shard& shard = ShardFor(TransformCostKeyHash{}(key));
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.transforms.find(key);
    if (it != shard.transforms.end()) {
      transform_hits_.fetch_add(1, std::memory_order_relaxed);
      return it->second;
    }
  }
  transform_misses_.fetch_add(1, std::memory_order_relaxed);
  GALVATRON_ASSIGN_OR_RETURN(
      TransformationCost cost,
      ComputeTransformationCost(model_->layer(layer_index - 1),
                                model_->layer(layer_index), prev_strategy,
                                next_strategy, stage_first_device,
                                key.mb_size, estimator_->cluster()));
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.transforms.emplace(key, cost.seconds);
  }
  return cost.seconds;
}

CostCacheStats SharedCostCache::stats() const {
  CostCacheStats stats;
  stats.layer_hits = layer_hits_.load(std::memory_order_relaxed);
  stats.layer_misses = layer_misses_.load(std::memory_order_relaxed);
  stats.transform_hits = transform_hits_.load(std::memory_order_relaxed);
  stats.transform_misses = transform_misses_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace galvatron
