#ifndef GALVATRON_API_GALVATRON_H_
#define GALVATRON_API_GALVATRON_H_

/// \file
/// Galvatron-CPP public API: automatic hybrid-parallel training plans for
/// Transformer models over multi-GPU clusters (PVLDB 16(3), 2022).
///
/// Quickstart:
///
///   ClusterSpec cluster = MakeTitanNode8(16 * kGiB);
///   ModelSpec model = BuildModel(ModelId::kBertHuge32);
///   GALVATRON_ASSIGN_OR_RETURN(TrainedPlan result,
///                              Galvatron::Plan(model, cluster));
///   std::cout << result.plan.ToString();
///
/// See examples/quickstart.cc for a complete program.

#include <functional>
#include <string>

#include "baselines/baselines.h"
#include "cluster/cluster.h"
#include "estimator/cost_estimator.h"
#include "ir/model.h"
#include "ir/model_zoo.h"
#include "parallel/plan.h"
#include "search/cost_cache.h"
#include "search/optimizer.h"
#include "sim/simulator.h"
#include "util/result.h"

namespace galvatron {

/// A plan together with its estimated and (optionally) simulated
/// performance.
struct TrainedPlan {
  TrainingPlan plan;
  PlanCost estimated;
  SearchStats search_stats;
  /// Filled by Galvatron::Measure / PlanAndMeasure.
  SimMetrics measured;
  bool has_measurement = false;
};

/// Long-lived planning state for callers that issue many Plan calls over
/// one (model, cluster, estimator-options) triple — the serving daemon
/// keeps one per distinct request signature. Owns stable copies of the
/// specs plus a SharedCostCache and a DpFrontierCache whose entries persist
/// across calls (Galvatron::Plan takes them as SearchHooks), so a repeat
/// request with, say, a different memory budget re-prices nothing the
/// caches already hold. Thread-safe for concurrent Plan calls (the caches
/// are internally locked and the estimator is const).
class PlanningContext {
 public:
  PlanningContext(ModelSpec model, ClusterSpec cluster,
                  EstimatorOptions estimator_options = {});

  PlanningContext(const PlanningContext&) = delete;
  PlanningContext& operator=(const PlanningContext&) = delete;

  const ModelSpec& model() const { return model_; }
  const ClusterSpec& cluster() const { return cluster_; }
  const CostEstimator& estimator() const { return estimator_; }
  SharedCostCache* cache() { return &cache_; }
  DpFrontierCache* frontier_cache() { return &frontier_cache_; }

 private:
  // Declaration order is load-bearing: estimator_ points at cluster_,
  // cache_ points at estimator_ and model_.
  ModelSpec model_;
  ClusterSpec cluster_;
  CostEstimator estimator_;
  SharedCostCache cache_;
  // Completed per-stage Pareto frontiers, reused across Plan calls so a
  // repeat request that differs only in memory budget (or batch envelope)
  // warm-starts the DP instead of re-running it (see DpFrontierCache).
  DpFrontierCache frontier_cache_;
};

/// Facade over the optimizer, estimator and simulator. All methods are
/// stateless conveniences; power users can drive Optimizer / CostEstimator
/// / Simulator directly.
class Galvatron {
 public:
  /// Searches the hybrid-parallelism space (Algorithm 1) and returns the
  /// highest-throughput plan for `model` on `cluster`.
  ///
  /// `hooks` (optional; see Optimizer::Optimize) lend the search
  /// caller-owned caches and a cancel check. The serving daemon passes a
  /// PlanningContext's caches, optimizing against the REQUEST's cluster:
  /// requests whose cluster differs from the context's ONLY in per-device
  /// memory share one context, because per-layer costs never depend on the
  /// memory budget; feasibility is re-checked against `cluster` exactly.
  /// The caches' model and cluster must match `model` and `cluster` in
  /// every other respect, and `options.estimator` must equal the
  /// context's estimator options.
  static Result<TrainedPlan> Plan(const ModelSpec& model,
                                  const ClusterSpec& cluster,
                                  const OptimizerOptions& options = {},
                                  const SearchHooks& hooks = {});

  /// Runs one simulated training iteration of `plan` and fills
  /// `measured`. The simulator stands in for the paper's real GPU testbeds
  /// (see DESIGN.md). With `options.record_trace` set, `sim_trace` also
  /// receives the execution trace (see SimOptions::record_trace and
  /// src/trace/ for the recorder/analyzer/exporters that consume it).
  static Result<SimMetrics> Measure(const ModelSpec& model,
                                    const TrainingPlan& plan,
                                    const ClusterSpec& cluster,
                                    const SimOptions& options = {},
                                    SimTrace* sim_trace = nullptr);

  /// Plan + Measure in one call.
  static Result<TrainedPlan> PlanAndMeasure(
      const ModelSpec& model, const ClusterSpec& cluster,
      const OptimizerOptions& optimizer_options = {},
      const SimOptions& sim_options = {});

  /// Library version string.
  static std::string Version();
};

}  // namespace galvatron

#endif  // GALVATRON_API_GALVATRON_H_
