#include "baselines/baselines.h"

#include <algorithm>
#include <chrono>

#include "parallel/pipeline_partition.h"
#include "parallel/plan.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace galvatron {

std::string_view BaselineKindToString(BaselineKind kind) {
  switch (kind) {
    case BaselineKind::kPureDp:
      return "PyTorch DDP (DP)";
    case BaselineKind::kPureTp:
      return "Megatron (TP)";
    case BaselineKind::kPurePp:
      return "PyTorch GPipe (PP)";
    case BaselineKind::kPureSdp:
      return "FSDP/ZeRO-3 (SDP)";
    case BaselineKind::kDeepSpeed3d:
      return "DeepSpeed 3D";
    case BaselineKind::kAutoDpTp:
      return "Galvatron (DP+TP)";
    case BaselineKind::kAutoDpPp:
      return "Galvatron (DP+PP)";
    case BaselineKind::kGalvatron:
      return "Galvatron (ours)";
  }
  return "?";
}

std::vector<BaselineKind> AllBaselineKinds() {
  return {BaselineKind::kPureDp,      BaselineKind::kPureTp,
          BaselineKind::kPurePp,      BaselineKind::kPureSdp,
          BaselineKind::kDeepSpeed3d, BaselineKind::kAutoDpTp,
          BaselineKind::kAutoDpPp,    BaselineKind::kGalvatron};
}

namespace {

/// Sweeps batch size (and micro-batch count for pipelined plans) for a
/// fixed (pp_degree, per-stage strategy) configuration; returns the best
/// estimated plan.
Result<OptimizationResult> SweepFixedStrategy(const ModelSpec& model,
                                              const ClusterSpec& cluster,
                                              const OptimizerOptions& options,
                                              int pp_degree,
                                              const HybridStrategy& strategy) {
  const auto start = std::chrono::steady_clock::now();
  CostEstimator estimator(&cluster, options.estimator);
  GALVATRON_ASSIGN_OR_RETURN(
      std::vector<int> stage_sizes,
      PartitionPipeline(model, pp_degree, options.partition_policy));

  OptimizationResult best;
  bool have_best = false;
  SearchStats stats;
  stats.num_candidate_strategies = 1;

  for (int batch = options.batch_step; batch <= options.max_batch;
       batch += options.batch_step) {
    std::vector<int> micro_counts;
    if (pp_degree == 1) {
      micro_counts.push_back(1);
    } else {
      for (int mult : options.micro_batch_multipliers) {
        const int m = pp_degree * mult;
        if (m <= batch) micro_counts.push_back(m);
      }
      if (micro_counts.empty() && pp_degree <= batch) {
        micro_counts.push_back(pp_degree);
      }
    }
    // The batch is still too small to fill the pipeline: keep growing it
    // rather than concluding the configuration is infeasible.
    if (micro_counts.empty()) continue;
    bool any_feasible = false;
    for (int micro : micro_counts) {
      ++stats.configs_explored;
      auto plan = MakeUniformPlan(model, cluster.num_devices(), pp_degree,
                                  stage_sizes, strategy, batch, micro);
      if (!plan.ok()) continue;
      auto cost = estimator.EstimatePlan(model, *plan);
      if (!cost.ok()) {
        if (cost.status().IsOutOfMemory()) continue;
        return cost.status();
      }
      any_feasible = true;
      if (!have_best ||
          cost->throughput_samples_per_sec >
              best.estimated.throughput_samples_per_sec) {
        best.plan = *std::move(plan);
        best.estimated = *std::move(cost);
        have_best = true;
      }
    }
    if (!any_feasible) break;
  }
  if (!have_best) {
    return Status::Infeasible(
        StrFormat("%s does not fit", strategy.ToString().c_str()));
  }
  stats.search_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  best.stats = stats;
  return best;
}

Result<HybridStrategy> SingleDim(ParallelDim dim, int degree) {
  if (degree == 1) return HybridStrategy();
  return HybridStrategy::Create({{dim, degree}});
}

}  // namespace

Result<OptimizationResult> RunBaseline(BaselineKind kind,
                                       const ModelSpec& model,
                                       const ClusterSpec& cluster,
                                       const OptimizerOptions& options) {
  const int n = cluster.num_devices();
  switch (kind) {
    case BaselineKind::kPureDp: {
      GALVATRON_ASSIGN_OR_RETURN(HybridStrategy s,
                                 SingleDim(ParallelDim::kData, n));
      return SweepFixedStrategy(model, cluster, options, /*pp_degree=*/1, s);
    }
    case BaselineKind::kPureTp: {
      GALVATRON_ASSIGN_OR_RETURN(HybridStrategy s,
                                 SingleDim(ParallelDim::kTensor, n));
      return SweepFixedStrategy(model, cluster, options, /*pp_degree=*/1, s);
    }
    case BaselineKind::kPureSdp: {
      GALVATRON_ASSIGN_OR_RETURN(HybridStrategy s,
                                 SingleDim(ParallelDim::kShardedData, n));
      return SweepFixedStrategy(model, cluster, options, /*pp_degree=*/1, s);
    }
    case BaselineKind::kPurePp: {
      // N-way pipeline, one device per stage, serial within stages.
      if (n > model.num_layers()) {
        return Status::Infeasible("more stages than layers");
      }
      return SweepFixedStrategy(model, cluster, options, /*pp_degree=*/n,
                                HybridStrategy());
    }
    case BaselineKind::kDeepSpeed3d: {
      // The officially-suggested fixed 3D recipe: 2-way TP (innermost,
      // fastest links), 2-way PP, data parallelism on the rest.
      if (n < 8) {
        return Status::InvalidArgument("DeepSpeed 3D preset needs >= 8 GPUs");
      }
      const int dp = n / 4;
      GALVATRON_ASSIGN_OR_RETURN(
          HybridStrategy s,
          HybridStrategy::Create(
              {{ParallelDim::kTensor, 2}, {ParallelDim::kData, dp}}));
      return SweepFixedStrategy(model, cluster, options, /*pp_degree=*/2, s);
    }
    case BaselineKind::kAutoDpTp: {
      OptimizerOptions opt = options;
      opt.tree.allow_sdp = false;
      opt.tree.fixed_order = true;
      opt.pp_degrees = {1};
      return Optimizer(&cluster, opt).Optimize(model);
    }
    case BaselineKind::kAutoDpPp: {
      OptimizerOptions opt = options;
      opt.tree.allow_sdp = false;
      opt.tree.allow_tp = false;
      opt.tree.fixed_order = true;
      return Optimizer(&cluster, opt).Optimize(model);
    }
    case BaselineKind::kGalvatron:
      return Optimizer(&cluster, options).Optimize(model);
  }
  return Status::InvalidArgument("unknown baseline");
}

}  // namespace galvatron
