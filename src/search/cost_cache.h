#ifndef GALVATRON_SEARCH_COST_CACHE_H_
#define GALVATRON_SEARCH_COST_CACHE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "estimator/cost_estimator.h"
#include "ir/model.h"
#include "parallel/plan.h"
#include "parallel/strategy.h"
#include "util/result.h"

namespace galvatron {

/// Hit/miss counters of a SharedCostCache (SearchStats reports the sums).
struct CostCacheStats {
  int64_t layer_hits = 0;
  int64_t layer_misses = 0;
  int64_t transform_hits = 0;
  int64_t transform_misses = 0;

  int64_t hits() const { return layer_hits + transform_hits; }
  int64_t misses() const { return layer_misses + transform_misses; }
};

/// Interned composite key of a memoized per-layer cost c(l, s). The
/// string-valued parts (layer signature, strategy text, block fingerprint)
/// are interned to dense ids via SharedCostCache::Intern* — once per
/// DpSearch::Run, not once per lookup — so the hot path hashes a handful of
/// ints instead of formatting and hashing a composite string.
struct LayerCostKey {
  int32_t layer_sig = -1;
  int32_t strategy = -1;
  int32_t fingerprint = -1;
  int32_t batch_per_group = 0;
  int32_t micro_batches = 0;
  int32_t resident_micro_batches = 0;
  int32_t recompute = 0;

  friend bool operator==(const LayerCostKey&, const LayerCostKey&) = default;
};

/// Interned key of a memoized transformation cost R(L, S_prev, S_next).
/// Carries BOTH boundary layers' signatures — the predecessor alone aliases
/// boundaries whose successor layers differ in input shape. The strategies
/// enter NOT by identity but as their transformation class
/// (TotalDegree << 16) | BatchSplit — ComputeTransformationCost's
/// documented contract is that R depends on nothing else of a strategy, so
/// the S^2 strategy pairs of a candidate set collapse to the few distinct
/// (degree, batch-split) class pairs and the estimator runs once per class.
struct TransformCostKey {
  int32_t prev_sig = -1;
  int32_t next_sig = -1;
  int32_t prev_strategy = -1;  // transformation class of S_prev (see above)
  int32_t next_strategy = -1;  // transformation class of S_next
  int32_t fingerprint = -1;
  int32_t mb_size = 0;

  friend bool operator==(const TransformCostKey&,
                         const TransformCostKey&) = default;
};

/// The transformation class word TransformCostKey stores per strategy.
inline int32_t TransformClassOf(const HybridStrategy& s) {
  const int32_t degree = s.TotalDegree() > 0 ? s.TotalDegree() : 1;
  return (degree << 16) | static_cast<int32_t>(s.BatchSplit());
}

struct LayerCostKeyHash {
  size_t operator()(const LayerCostKey& k) const;
};
struct TransformCostKeyHash {
  size_t operator()(const TransformCostKey& k) const;
};

/// The interned key parts of one stage's candidate strategies: per
/// candidate its strategy id and the fingerprint of its footprint on the
/// stage block. DpSearch::Run's lookups and CachedPlanSource
/// build their LayerCostKey / TransformCostKey from these, so both name
/// every cost by the same key.
struct CandidateKeys {
  std::vector<int32_t> strategy;
  std::vector<int32_t> fingerprint;
};

/// One pipeline stage of a plan named by candidate indices — the form the
/// sweep ranks and prices plans in without materializing them.
struct IndexedStage {
  int first_device = 0;
  int num_devices = 1;
  int first_layer = 0;
  int num_layers = 0;
  const std::vector<HybridStrategy>* candidates = nullptr;
  /// InternCandidates(*candidates, first_device) of the pricing cache.
  const CandidateKeys* keys = nullptr;
  /// Candidate index per stage layer.
  const int32_t* options = nullptr;
  /// Checkpointing flag per stage layer; nullptr = none.
  const uint8_t* recompute = nullptr;

  bool RecomputeAt(int i) const {
    return recompute != nullptr && recompute[i] != 0;
  }
};

/// A sweep-wide, thread-safe memoization layer over the cost estimator.
///
/// One instance lives for a whole Optimizer::Optimize call and is shared by
/// every DpSearch::Run it issues (across PP degrees, batches, micro-batch
/// counts, pipeline stages, worker threads and co-optimization rounds), so
/// a repeated Transformer block is estimated once per distinct
///   (layer signature, strategy, recompute, batch_per_group, micro_batches,
///    resident_micro_batches)
/// combination per sweep instead of once per Run. Transformation costs
/// R(L, S_i, S_j) are keyed by BOTH boundary layers' signatures — keying on
/// the predecessor alone aliases boundaries whose successor layers differ
/// in input shape. A caller may lend one instance to many sweeps through
/// SearchHooks (the serving daemon's warm contexts); no entry depends on
/// the memory budget.
///
/// It holds these two kinds of term and nothing else: the sweep prices
/// whole plans by composing them (CachedPlanSource into
/// CostEstimator::ComposePlanCost), and no plan cost is stored.
///
/// Keys additionally carry a topology fingerprint of the stage's device
/// block, so stages whose blocks are topologically isomorphic (all aligned
/// equal-span blocks of the hierarchical clusters here) share entries while
/// blocks that straddle interconnect boundaries differently do not.
///
/// The table is keyed by interned ids (LayerCostKey / TransformCostKey).
/// Callers (RunCostCache inside DpSearch::Run, and CachedPlanSource)
/// intern the string parts once per Run or per degree with the Intern*
/// helpers and pass ready-made keys; RunCostCache's per-Run slots and
/// CachedPlanSource's last-key memo absorb repeat lookups before they reach
/// this table. The same interner supplies the layer-signature ids of
/// DpFrontierCache keys.
///
/// Thread-safety: all methods may be called concurrently. The cost table
/// is split into 16 shards by key hash, each behind its own mutex, so
/// sweep workers pricing different keys rarely meet on one lock (a single
/// mutex over costs and interner measured about 2x slower on cold plans).
/// The interner is one mutex over two maps, string -> id and strategy
/// level structure -> id; ids are dense in first-intern order. The
/// estimator is never invoked under a lock. Concurrent misses on one key
/// may estimate it twice; the estimator is deterministic, so both writers
/// store the same value. Estimator errors are returned uncached. Hit/miss
/// counters are exact: every lookup is counted once, via relaxed atomics.
class SharedCostCache {
 public:
  /// `estimator` and `model` must outlive this object, and the estimator's
  /// configuration (options, profile table) must not change while searches
  /// are running against this cache.
  SharedCostCache(const CostEstimator* estimator, const ModelSpec* model);

  SharedCostCache(const SharedCostCache&) = delete;
  SharedCostCache& operator=(const SharedCostCache&) = delete;

  const CostEstimator& estimator() const { return *estimator_; }
  const ModelSpec& model() const { return *model_; }

  /// Interns an arbitrary string to a small integer id, stable for this
  /// cache's lifetime. Equal strings always receive equal ids (distinct
  /// strings distinct ids); the id VALUES depend on interleaving and must
  /// only be compared for equality. Thread-safe.
  int32_t Intern(const std::string& text);

  /// Convenience interners for the three string-valued key parts. Layer
  /// signatures are interned once, when the cache is built, so
  /// InternSignature is an array read — frontier keys call it per layer
  /// on every DpSearch::Run.
  int32_t InternSignature(int layer_index) const {
    return layer_sig_ids_[static_cast<size_t>(layer_index)];
  }
  /// A strategy's id. Ids are remembered by the strategy's level
  /// structure, so a repeat lookup formats no text.
  int32_t InternStrategy(const HybridStrategy& strategy);
  int32_t InternFingerprint(int first_device, int span);
  /// Both ids for every candidate of a stage starting at
  /// `stage_first_device` (one fingerprint per distinct footprint), into
  /// `keys`, reusing its capacity.
  void InternCandidates(const std::vector<HybridStrategy>& candidates,
                        int stage_first_device, CandidateKeys* keys);

  /// Memoized c(l, s) with a caller-built interned key. The key must have
  /// been built with this cache's Intern* ids and must describe the same
  /// (layer, strategy, ...) tuple as the explicit arguments.
  Result<LayerCost> Layer(const LayerCostKey& key, int layer_index,
                          const HybridStrategy& strategy,
                          int stage_first_device);

  /// Memoized R(L, S_prev, S_next) with a caller-built interned key, for
  /// the boundary entering layer `layer_index` (its predecessor is
  /// layer_index - 1), for ONE application at the key's mb_size. Callers
  /// scale by 2 * micro_batches (forward + mirrored backward, per
  /// micro-batch).
  Result<double> TransformSeconds(const TransformCostKey& key,
                                  int layer_index,
                                  const HybridStrategy& prev_strategy,
                                  const HybridStrategy& next_strategy,
                                  int stage_first_device);

  CostCacheStats stats() const;

  /// Canonical interconnect fingerprint of the device block
  /// [first_device, first_device + span): two blocks with equal
  /// fingerprints see identical link hierarchies, so per-layer and
  /// transformation costs on them are identical.
  static std::string BlockFingerprint(const ClusterSpec& cluster,
                                      int first_device, int span);

 private:
  static constexpr int kNumShards = 16;

  struct Shard {
    std::mutex mu;
    std::unordered_map<LayerCostKey, LayerCost, LayerCostKeyHash> layers;
    std::unordered_map<TransformCostKey, double, TransformCostKeyHash>
        transforms;
  };

  struct WordsHash {
    size_t operator()(const std::vector<int32_t>& words) const;
  };

  /// Intern with intern_mu_ held.
  int32_t InternLocked(const std::string& text);

  Shard& ShardFor(size_t hash) {
    return shards_[hash % static_cast<size_t>(kNumShards)];
  }

  const CostEstimator* estimator_;
  const ModelSpec* model_;
  Shard shards_[kNumShards];

  std::mutex intern_mu_;
  std::unordered_map<std::string, int32_t> intern_ids_;
  /// InternStrategy's ids by level structure (per level: dim, degree).
  std::unordered_map<std::vector<int32_t>, int32_t, WordsHash> strategy_ids_;
  /// Per model layer: the interned id of its signature.
  std::vector<int32_t> layer_sig_ids_;

  std::atomic<int64_t> layer_hits_{0};
  std::atomic<int64_t> layer_misses_{0};
  std::atomic<int64_t> transform_hits_{0};
  std::atomic<int64_t> transform_misses_{0};
};

/// A plan whose stages are `stages` (covering the model in order) at
/// (`global_batch`, `num_micro_batches`, `schedule`), as a PlanCostSource
/// that reads every term through `cache` by the keys DpSearch::Run builds —
/// pricing a plan whose stages were just searched calls no estimator and
/// materializes nothing. Feed it to CostEstimator::ComposePlanCost: for a
/// structurally valid plan (what TrainingPlan::Validate checks) the result
/// equals EstimatePlan on the materialized plan bit for bit, with the same
/// `check_memory`. Estimator errors are returned as is. A source prices
/// one plan: it remembers the last layer cost it read, so consecutive
/// layers with one cost key (the repeated blocks of a Transformer stack)
/// cost one cache lookup.
class CachedPlanSource : public PlanCostSource {
 public:
  /// `cache` and `stages` must outlive the source.
  CachedPlanSource(SharedCostCache* cache,
                   const std::vector<IndexedStage>* stages, int global_batch,
                   int num_micro_batches, PipelineSchedule schedule);

  int num_stages() const override {
    return static_cast<int>(stages_->size());
  }
  Stage StageAt(int stage) const override;
  Result<LayerCost> Layer(int stage, int layer) override;
  Result<double> TransformSeconds(int stage, int layer) override;

 private:
  SharedCostCache* cache_;
  const std::vector<IndexedStage>* stages_;
  int global_batch_;
  int num_micro_batches_;
  int mb_size_;
  PipelineSchedule schedule_;
  /// The key and answer of the last successful Layer lookup.
  bool has_last_layer_ = false;
  LayerCostKey last_layer_key_;
  LayerCost last_layer_cost_;
};

}  // namespace galvatron

#endif  // GALVATRON_SEARCH_COST_CACHE_H_
