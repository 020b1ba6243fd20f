#include "search/optimizer.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <utility>

#include "search/cost_cache.h"
#include "util/alloc_counter.h"
#include "util/logging.h"
#include "util/math_util.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace galvatron {

namespace {

/// PP degrees to try: powers of two dividing the device count, capped by
/// the layer count (stages must be non-empty).
std::vector<int> DefaultPipelineDegrees(int num_devices, int num_layers) {
  std::vector<int> degrees;
  for (int p = 1; p <= num_devices; p *= 2) {
    if (num_devices % p == 0 && p <= num_layers) degrees.push_back(p);
  }
  return degrees;
}

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Everything the sweep needs per PP degree, enumerated once up front
/// (B-independent): the stage geometry, per-stage candidate strategies,
/// the pipeline partition, and pre-built uniform single-strategy plan
/// templates. Equal-split degrees share one candidate vector across all
/// stages; uneven degrees (heterogeneous islands) carry one per width.
struct PerDegree {
  int pp = 1;
  /// Device block of each stage. Equal-split entries use {s*span, span};
  /// island-proportional entries may differ per stage.
  std::vector<StageGeometry> geometry;
  /// Candidate strategies per stage, shared between stages of one width.
  std::vector<std::shared_ptr<const std::vector<HybridStrategy>>>
      stage_candidates;
  std::vector<int> stage_sizes;
  /// Rank of the DP plan within a configuration: after every uniform
  /// candidate (the widest stage's count on uneven entries).
  int dp_rank = 0;
  /// True when every stage is num_devices/pp wide — the only shape
  /// MakeUniformPlan templates cover.
  bool equal_split = true;
  /// (candidate index, fully-built uniform plan) per structurally valid
  /// candidate. Built once per degree; the per-configuration loop patches
  /// the batch fields into a thread-local scratch copy instead of
  /// re-allocating every stage's strategy vector for every configuration.
  std::vector<std::pair<int, TrainingPlan>> uniform_templates;
};

/// One pipeline stage of a DP result, as indices into the owning
/// PerDegree's candidate vector. Two ints per layer instead of a
/// materialized HybridStrategy — the sweep ranks thousands of these and
/// materializes only the single committed winner.
struct StageDraft {
  int first_layer = 0;
  int num_layers = 0;
  std::vector<int32_t> options;    // candidate strategy index per layer
  std::vector<uint8_t> recompute;  // empty unless allow_recompute
};

/// A configuration's winning plan by reference: the degree it came from,
/// the batch shape, the shared cost entry, and either a uniform-template
/// index or a draft of candidate indices. No TrainingPlan is materialized
/// until the sweep commits its single winner (and the per-degree
/// alternates) — comparison needs only the cached cost and the ordinals.
struct RankedPlan {
  const PerDegree* degree = nullptr;
  int batch = 1;
  int micro = 1;
  int pp = 1;
  std::shared_ptr<const PlanCost> cost;
  /// Within one configuration: uniform single-strategy candidates get their
  /// enumeration index, the DP plan gets candidates.size() — matching the
  /// order the serial sweep considered them in.
  int candidate_rank = 0;
  /// Global enumeration ordinal of the (batch, degree, micro) configuration.
  int config_ordinal = 0;
  /// >= 0: the winner is degree->uniform_templates[uniform_template] with
  /// the batch fields patched; -1: the DP plan described by `stages`.
  int uniform_template = -1;
  std::vector<StageDraft> stages;
};

/// Total order over plans: higher estimated throughput wins; exact ties
/// resolve to the lower PP degree, then the earlier-enumerated
/// configuration, then the earlier-considered candidate. Because no term
/// depends on evaluation timing, the merged winner is byte-identical
/// whether configurations were evaluated serially or by racing workers.
bool BetterPlan(const RankedPlan& a, const RankedPlan& b) {
  if (a.cost->throughput_samples_per_sec !=
      b.cost->throughput_samples_per_sec) {
    return a.cost->throughput_samples_per_sec >
           b.cost->throughput_samples_per_sec;
  }
  if (a.pp != b.pp) return a.pp < b.pp;
  if (a.config_ordinal != b.config_ordinal) {
    return a.config_ordinal < b.config_ordinal;
  }
  return a.candidate_rank < b.candidate_rank;
}

/// Everything one worker produces for one configuration. Merged serially in
/// ordinal order after each wave.
struct ConfigOutcome {
  bool feasible = false;  // at least one plan passed EstimatePlan
  bool has_best = false;
  RankedPlan best;
  int64_t dp_states = 0;
  int64_t dp_breakpoints = 0;
  int64_t dp_pruned = 0;
  int64_t dp_frontier_hits = 0;    // stage searches replayed from cache
  int64_t dp_frontier_misses = 0;  // stage searches that ran cold
  int64_t dp_allocations = 0;      // heap allocations inside DpSearch::Run
  int64_t sweep_allocations = 0;   // heap allocations of the whole evaluate
  Status error;  // non-OK only on fatal (non-OOM, non-infeasible) errors
};

/// Appends one stage's identity to a plan-cost memo key. Strategy levels
/// encode structurally — NOT via InternStrategy: interning formats the
/// strategy string first, and that formatting dominated the whole warm
/// sweep when profiled. Consecutive layers with one (strategy, recompute)
/// pair compress to a single run — uniform plans, the bulk of the sweep's
/// evaluations, shrink from O(layers) to O(1) words. Maximal runs partition
/// a stage's layers deterministically, so the encoding stays injective.
///
/// `layer(l)` returns (strategy pointer, recompute flag) for stage-local
/// layer l; runs compare strategies by VALUE, so a key built from a
/// StageDraft's candidate indices and one built from a materialized plan's
/// layer_strategies are word-identical — the draft path and the plan path
/// share one memo.
template <typename LayerFn>
void AppendStageKey(PlanCostKey& key, int first_device, int num_devices,
                    int first_layer, int num_layers, const LayerFn& layer) {
  key.words.push_back(first_device);
  key.words.push_back(num_devices);
  key.words.push_back(first_layer);
  key.words.push_back(num_layers);
  for (int l = 0; l < num_layers;) {
    const auto [strat, recompute] = layer(l);
    int run = l + 1;
    while (run < num_layers) {
      const auto [next, next_recompute] = layer(run);
      if (!(*next == *strat) || next_recompute != recompute) break;
      ++run;
    }
    key.words.push_back(run - l);
    key.words.push_back((strat->num_levels() << 1) | recompute);
    for (const ParallelComponent& level : strat->levels()) {
      key.words.push_back((static_cast<int32_t>(level.dim) << 16) |
                          level.degree);
    }
    l = run;
  }
}

}  // namespace

Optimizer::Optimizer(const ClusterSpec* cluster, OptimizerOptions options)
    : cluster_(cluster),
      options_(std::move(options)),
      estimator_(cluster, options_.estimator) {
  GALVATRON_CHECK(cluster != nullptr);
}

Result<OptimizationResult> Optimizer::Optimize(
    const ModelSpec& model, const SearchHooks& hooks) const {
  // Options validation. A negative thread count is a caller bug, not a
  // request for serial search — clamping it silently used to mask e.g.
  // sign errors in CLI/serve plumbing.
  if (options_.search_threads < 0) {
    return Status::InvalidArgument(StrFormat(
        "search_threads must be >= 0 (0 = all hardware threads), got %d",
        options_.search_threads));
  }
  if (hooks.frontier_cache != nullptr && hooks.cost_cache == nullptr) {
    return Status::InvalidArgument(
        "a frontier cache needs the cost cache that interns its keys");
  }
  const auto start = std::chrono::steady_clock::now();
  const int num_devices = cluster_->num_devices();

  std::vector<int> pp_degrees = options_.pp_degrees;
  if (pp_degrees.empty()) {
    pp_degrees = DefaultPipelineDegrees(num_devices, model.num_layers());
  }

  DpSearchOptions dp_options;
  dp_options.memory_granularity = options_.memory_granularity;
  dp_options.allow_recompute = options_.allow_recompute;
  DpSearch search(&estimator_, dp_options);

  // Sweep-wide memo over the estimator: every stage search of every
  // configuration (and every worker thread) shares it, so a repeated
  // Transformer block is estimated once per distinct shape per sweep. A
  // caller-provided cache extends the sharing across runs (the serving
  // daemon's warm path); its entries carry no memory budget, so reuse
  // across budget variants is sound.
  std::optional<SharedCostCache> local_cache;
  if (hooks.cost_cache == nullptr) local_cache.emplace(&estimator_, &model);
  SharedCostCache* cache = hooks.cost_cache != nullptr ? hooks.cost_cache
                                                       : &*local_cache;
  const CostCacheStats cache_stats_before = cache->stats();

  // Run-local frontier sharing: even with no caller-provided cache, the
  // sweep keeps one for the duration of this run. Under GPipe every
  // stage of a configuration holds the same resident micro-batch count, so
  // the P stages of a P-deep pipeline share one Run signature per distinct
  // layer block — one cold kernel run serves all of them, and repeated
  // signatures across (batch, micro) configurations replay too (the
  // frontier prefix property keeps the answers byte-identical; see
  // frontier_cache.h). Warm replays report zero states/breakpoints.
  std::unique_ptr<DpFrontierCache> local_frontier;
  if (hooks.frontier_cache == nullptr) {
    local_frontier = std::make_unique<DpFrontierCache>();
  }
  SearchHooks run_hooks;
  run_hooks.cost_cache = cache;
  run_hooks.frontier_cache = hooks.frontier_cache != nullptr
                                 ? hooks.frontier_cache
                                 : local_frontier.get();
  // The caller's cancel hook, latched: once it reports cancellation the
  // sweep's remaining polls answer true without calling it again.
  std::atomic<bool> cancel_seen{false};
  if (hooks.cancel) {
    run_hooks.cancel = [&hooks, &cancel_seen] {
      if (cancel_seen.load(std::memory_order_relaxed)) return true;
      if (!hooks.cancel()) return false;
      cancel_seen.store(true, std::memory_order_relaxed);
      return true;
    };
  }
  const auto cancelled = [&run_hooks] {
    return run_hooks.cancel && run_hooks.cancel();
  };

  std::vector<PerDegree> degrees;
  // batch=1/micro=1 satisfies every batch-dependent Validate check, so a
  // template failure here is structural and holds for every configuration.
  auto build_uniform_templates = [&](PerDegree& d) {
    if (!d.equal_split) return;  // templates require equal stage widths
    const std::vector<HybridStrategy>& candidates = *d.stage_candidates.front();
    for (size_t c = 0; c < candidates.size(); ++c) {
      auto uniform = MakeUniformPlan(model, num_devices, d.pp, d.stage_sizes,
                                     candidates[c], /*global_batch=*/1,
                                     /*num_micro_batches=*/1);
      if (!uniform.ok()) continue;
      uniform->schedule = options_.schedule;
      d.uniform_templates.emplace_back(static_cast<int>(c),
                                       *std::move(uniform));
    }
  };
  std::set<std::string> candidate_names;
  // Candidate sets are pure functions of the stage width; uneven degrees
  // revisit widths, so enumerate each width once.
  std::map<int, std::shared_ptr<const std::vector<HybridStrategy>>>
      width_candidates;
  auto candidates_for_width = [&](int width)
      -> Result<std::shared_ptr<const std::vector<HybridStrategy>>> {
    auto it = width_candidates.find(width);
    if (it != width_candidates.end()) return it->second;
    GALVATRON_ASSIGN_OR_RETURN(
        std::vector<HybridStrategy> enumerated,
        EnumerateSingleLayerStrategies(width, options_.tree));
    auto shared = std::make_shared<const std::vector<HybridStrategy>>(
        std::move(enumerated));
    for (const HybridStrategy& s : *shared) {
      candidate_names.insert(s.ToString());
    }
    width_candidates.emplace(width, shared);
    return shared;
  };
  for (int pp : pp_degrees) {
    if (pp < 1 || num_devices % pp != 0 || pp > model.num_layers()) continue;
    PerDegree d;
    d.pp = pp;
    const int span = num_devices / pp;
    GALVATRON_ASSIGN_OR_RETURN(
        std::shared_ptr<const std::vector<HybridStrategy>> candidates,
        candidates_for_width(span));
    d.geometry.reserve(static_cast<size_t>(pp));
    for (int s = 0; s < pp; ++s) {
      d.geometry.push_back(StageGeometry{s * span, span});
    }
    d.stage_candidates.assign(static_cast<size_t>(pp), candidates);
    d.dp_rank = static_cast<int>(candidates->size());
    GALVATRON_ASSIGN_OR_RETURN(
        d.stage_sizes,
        PartitionPipeline(model, pp, options_.partition_policy));
    // Heterogeneous clusters: also try a capacity-aware partition that
    // hands roomier islands proportionally more layers.
    if (pp > 1 && !cluster_->HasUniformMemory()) {
      PerDegree hetero = d;
      std::vector<double> capacities;
      for (int s = 0; s < pp; ++s) {
        capacities.push_back(static_cast<double>(
            cluster_->MinMemoryInRange(s * span, span)));
      }
      auto sizes = PartitionPipelineHeterogeneous(
          model, options_.partition_policy, capacities);
      if (sizes.ok() && *sizes != d.stage_sizes) {
        hetero.stage_sizes = *std::move(sizes);
        build_uniform_templates(hetero);
        degrees.push_back(std::move(hetero));
      }
    }
    build_uniform_templates(d);
    degrees.push_back(std::move(d));
  }
  // Mixed-generation (or graph-backed) clusters: island-proportional
  // uneven stage splits, appended after the equal-split entries so
  // homogeneous enumeration ordinals are untouched. Faster islands get
  // more stages (and the layer partition then weighs stages by their
  // block's throughput), which no equal split can express when islands
  // differ in width or speed.
  const bool graph_or_mixed =
      cluster_->topology() != nullptr || !cluster_->HasUniformCompute();
  if (options_.allow_uneven_stages && graph_or_mixed) {
    const std::vector<DeviceIsland> islands = cluster_->ComputeIslands();
    if (islands.size() > 1) {
      std::set<int> uneven_pps(pp_degrees.begin(), pp_degrees.end());
      uneven_pps.insert(static_cast<int>(islands.size()));
      for (const int pp : uneven_pps) {
        if (pp < 2 || pp > model.num_layers() || pp > num_devices) continue;
        auto geo = ProportionalStageGeometry(islands, pp);
        if (!geo.ok()) continue;
        PerDegree d;
        d.pp = pp;
        d.geometry = *std::move(geo);
        d.equal_split =
            num_devices % pp == 0 &&
            std::all_of(d.geometry.begin(), d.geometry.end(),
                        [&](const StageGeometry& g) {
                          return g.num_devices == num_devices / pp;
                        });
        bool enumerated_ok = true;
        std::vector<double> capacities;
        for (const StageGeometry& g : d.geometry) {
          auto candidates = candidates_for_width(g.num_devices);
          if (!candidates.ok()) {
            enumerated_ok = false;
            break;
          }
          d.stage_candidates.push_back(*std::move(candidates));
          d.dp_rank = std::max(
              d.dp_rank,
              static_cast<int>(d.stage_candidates.back()->size()));
          capacities.push_back(
              g.num_devices *
              cluster_->MinSustainedFlopsInRange(g.first_device,
                                                 g.num_devices));
        }
        if (!enumerated_ok) continue;
        auto sizes = PartitionPipelineHeterogeneous(
            model, options_.partition_policy, capacities);
        if (!sizes.ok()) {
          sizes = PartitionPipeline(model, pp, options_.partition_policy);
        }
        if (!sizes.ok()) continue;
        d.stage_sizes = *std::move(sizes);
        const bool duplicate = std::any_of(
            degrees.begin(), degrees.end(), [&](const PerDegree& existing) {
              return existing.pp == d.pp &&
                     existing.geometry == d.geometry &&
                     existing.stage_sizes == d.stage_sizes;
            });
        if (duplicate) continue;
        build_uniform_templates(d);
        degrees.push_back(std::move(d));
      }
    }
  }
  if (degrees.empty()) {
    return Status::InvalidArgument("no valid pipeline degrees");
  }

  SearchStats stats;
  stats.num_candidate_strategies = static_cast<int>(candidate_names.size());
  stats.enumerate_seconds = SecondsSince(start);

  int threads = options_.search_threads;
  if (threads == 0) threads = ThreadPool::HardwareThreads();
  // The sweep is CPU-bound, so a pool wider than the physical core count
  // only buys thread start-up and context-switch cost; cap it so asking
  // for 4 threads on a smaller host is never slower than asking for 1.
  threads = std::min(threads, ThreadPool::HardwareThreads());
  stats.search_threads_used = threads;
  std::unique_ptr<ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<ThreadPool>(threads);

  // Whole-plan cost memo. EstimatePlan is budget-independent except for
  // the per-stage peak-vs-budget comparison, so the cost is computed once
  // with the check deferred, published to the (possibly cross-request)
  // cache, and the comparison re-applied here per call — with the same
  // stage order, short-circuiting, and error text as the checked call.
  // Keys are built into thread-local scratch (one sweep issues hundreds of
  // lookups, mostly hits, which need no owned copy) via AppendStageKey,
  // from a materialized plan or straight from a StageDraft's candidate
  // indices — both spell identical keys.
  auto plan_cost_key = [&](const TrainingPlan& plan) -> const PlanCostKey& {
    thread_local PlanCostKey key;
    key.words.clear();
    key.words.push_back(static_cast<int32_t>(plan.schedule));
    key.words.push_back(plan.global_batch);
    key.words.push_back(plan.num_micro_batches);
    for (const StagePlan& stage : plan.stages) {
      AppendStageKey(
          key, stage.first_device, stage.num_devices, stage.first_layer,
          stage.num_layers, [&](int l) {
            return std::pair<const HybridStrategy*, int32_t>(
                &stage.layer_strategies[static_cast<size_t>(l)],
                !stage.recompute.empty() &&
                        stage.recompute[static_cast<size_t>(l)] != 0
                    ? 1
                    : 0);
          });
    }
    key.Finalize();
    return key;
  };
  auto draft_cost_key = [&](const PerDegree& degree, int batch, int micro,
                            const std::vector<StageDraft>& stages)
      -> const PlanCostKey& {
    thread_local PlanCostKey key;
    key.words.clear();
    key.words.push_back(static_cast<int32_t>(options_.schedule));
    key.words.push_back(batch);
    key.words.push_back(micro);
    for (size_t s = 0; s < stages.size(); ++s) {
      const StageDraft& d = stages[s];
      const StageGeometry& geom = degree.geometry[s];
      const std::vector<HybridStrategy>& candidates =
          *degree.stage_candidates[s];
      AppendStageKey(
          key, geom.first_device, geom.num_devices, d.first_layer,
          d.num_layers, [&](int l) {
            return std::pair<const HybridStrategy*, int32_t>(
                &candidates[static_cast<size_t>(
                    d.options[static_cast<size_t>(l)])],
                !d.recompute.empty() &&
                        d.recompute[static_cast<size_t>(l)] != 0
                    ? 1
                    : 0);
          });
    }
    key.Finalize();
    return key;
  };
  auto lookup_or_estimate = [&](const PlanCostKey& key,
                                const TrainingPlan& plan)
      -> Result<std::shared_ptr<const PlanCost>> {
    std::shared_ptr<const PlanCost> cost = cache->LookupPlan(key);
    if (cost == nullptr) {
      auto unchecked =
          estimator_.EstimatePlan(model, plan, /*check_memory=*/false);
      // Estimation errors stay uncached and are re-raised through the
      // checked call, so failure semantics match the unmemoized path.
      if (!unchecked.ok()) {
        auto checked = estimator_.EstimatePlan(model, plan);
        if (!checked.ok()) return checked.status();
        return std::shared_ptr<const PlanCost>(
            std::make_shared<PlanCost>(*std::move(checked)));
      }
      cost = cache->InsertPlan(key, *std::move(unchecked));
    }
    return cost;
  };
  auto check_plan_memory = [&](const TrainingPlan& plan,
                               const PlanCost& cost) -> Status {
    for (size_t i = 0; i < plan.stages.size(); ++i) {
      const StagePlan& stage = plan.stages[i];
      const int64_t budget = cluster_->MinMemoryInRange(
          stage.first_device, stage.layer_strategies.front().TotalDegree());
      const int64_t peak = cost.stages[i].peak_memory_bytes;
      if (peak > budget) {
        return Status::OutOfMemory(StrFormat(
            "stage needs %s but budget is %s",
            HumanBytes(static_cast<double>(peak)).c_str(),
            HumanBytes(static_cast<double>(budget)).c_str()));
      }
    }
    return Status::OK();
  };
  auto estimate_plan = [&](const TrainingPlan& plan)
      -> Result<std::shared_ptr<const PlanCost>> {
    GALVATRON_ASSIGN_OR_RETURN(
        std::shared_ptr<const PlanCost> cost,
        lookup_or_estimate(plan_cost_key(plan), plan));
    GALVATRON_RETURN_IF_ERROR(check_plan_memory(plan, *cost));
    return cost;
  };

  // Materializes a draft into `plan`, reusing its nested buffers — the
  // only place full strategy vectors are built for DP plans, reached on a
  // plan-memo miss and when the sweep commits a winner.
  auto materialize_draft = [&](const PerDegree& degree, int batch, int micro,
                               const std::vector<StageDraft>& stages,
                               TrainingPlan& plan) {
    plan.model_name = model.name();
    plan.global_batch = batch;
    plan.num_micro_batches = micro;
    plan.schedule = options_.schedule;
    plan.stages.resize(stages.size());
    for (size_t s = 0; s < stages.size(); ++s) {
      const StageDraft& d = stages[s];
      StagePlan& stage = plan.stages[s];
      const StageGeometry& geom = degree.geometry[s];
      const std::vector<HybridStrategy>& candidates =
          *degree.stage_candidates[s];
      stage.first_device = geom.first_device;
      stage.num_devices = geom.num_devices;
      stage.first_layer = d.first_layer;
      stage.num_layers = d.num_layers;
      stage.layer_strategies.clear();
      stage.layer_strategies.reserve(d.options.size());
      for (const int32_t o : d.options) {
        stage.layer_strategies.push_back(candidates[static_cast<size_t>(o)]);
      }
      stage.recompute.assign(d.recompute.begin(), d.recompute.end());
    }
  };
  // Estimates a DP draft without materializing it: the memo key comes
  // straight from the candidate indices, so a sweep whose plan costs are
  // already memoized never copies a strategy at all. Only a memo miss
  // materializes the draft, into a thread-local scratch plan whose buffers
  // are reused across configurations. The memory check reads each stage's
  // leading strategy (its TotalDegree picks the budget row) and the cached
  // per-stage peaks — same order, short-circuiting, and message as
  // check_plan_memory.
  auto estimate_draft = [&](const PerDegree& degree, int batch, int micro,
                            const std::vector<StageDraft>& stages)
      -> Result<std::shared_ptr<const PlanCost>> {
    const PlanCostKey& key = draft_cost_key(degree, batch, micro, stages);
    std::shared_ptr<const PlanCost> cost = cache->LookupPlan(key);
    if (cost == nullptr) {
      static thread_local TrainingPlan scratch;
      materialize_draft(degree, batch, micro, stages, scratch);
      GALVATRON_ASSIGN_OR_RETURN(cost, lookup_or_estimate(key, scratch));
    }
    for (size_t s = 0; s < stages.size(); ++s) {
      const StageDraft& d = stages[s];
      const int64_t budget = cluster_->MinMemoryInRange(
          degree.geometry[s].first_device,
          (*degree.stage_candidates[s])[static_cast<size_t>(
                                            d.options.front())]
              .TotalDegree());
      const int64_t peak = cost->stages[s].peak_memory_bytes;
      if (peak > budget) {
        return Status::OutOfMemory(StrFormat(
            "stage needs %s but budget is %s",
            HumanBytes(static_cast<double>(peak)).c_str(),
            HumanBytes(static_cast<double>(budget)).c_str()));
      }
    }
    return cost;
  };

  // Evaluates one (batch, degree, micro) configuration. Pure function of
  // its arguments plus the (thread-safe, const) estimator and shared
  // caches — safe to run on any worker.
  auto evaluate = [&](const PerDegree& degree, int batch, int micro,
                      int config_ordinal) -> ConfigOutcome {
    ConfigOutcome out;
    if (cancelled()) {
      out.error = Status::Cancelled("strategy sweep cancelled");
      return out;
    }
    // Best plan of THIS configuration, tracked without materializing
    // anything: a uniform-template index or a draft of candidate indices,
    // plus the shared cost entry. Within one configuration the PP degree
    // and ordinal are fixed, so BetterPlan reduces to strictly higher
    // throughput (earlier candidates keep ties); nothing is deep-copied —
    // the sweep materializes only its single committed winner.
    std::shared_ptr<const PlanCost> best_cost;
    int best_rank = 0;
    int best_template = -1;
    std::vector<StageDraft> draft;
    auto commit_best = [&] {
      if (best_cost == nullptr) return;
      out.best.degree = &degree;
      out.best.batch = batch;
      out.best.micro = micro;
      out.best.pp = degree.pp;
      out.best.cost = std::move(best_cost);
      out.best.candidate_rank = best_rank;
      out.best.config_ordinal = config_ordinal;
      out.best.uniform_template = best_template;
      if (best_template < 0) out.best.stages = std::move(draft);
      out.has_best = true;
    };
    // Uniform single-strategy plans first: they are points of the same
    // search space, and evaluating them through the exact estimator
    // guarantees the search never loses to a pure baseline because of
    // DP-table memory quantization. The structure comes from the pre-built
    // per-degree template; only the batch fields differ per configuration,
    // patched into a thread-local scratch whose nested vectors are reused
    // across configurations. The guard reproduces exactly the
    // batch-dependent Validate failures MakeUniformPlan would hit.
    if (batch >= 1 && micro >= 1 && micro <= batch) {
      static thread_local TrainingPlan uniform_scratch;
      for (size_t t = 0; t < degree.uniform_templates.size(); ++t) {
        uniform_scratch = degree.uniform_templates[t].second;
        uniform_scratch.global_batch = batch;
        uniform_scratch.num_micro_batches = micro;
        auto uniform_cost = estimate_plan(uniform_scratch);
        if (!uniform_cost.ok()) continue;
        out.feasible = true;
        if (best_cost == nullptr ||
            (*uniform_cost)->throughput_samples_per_sec >
                best_cost->throughput_samples_per_sec) {
          best_cost = *std::move(uniform_cost);
          best_rank = degree.uniform_templates[t].first;
          best_template = static_cast<int>(t);
        }
      }
    }

    // Per-stage DP, collected as a draft of candidate indices (the search
    // returns index chains only). The probe plan carries just the schedule
    // shape InFlightForDegree reads.
    TrainingPlan probe;
    probe.global_batch = batch;
    probe.num_micro_batches = micro;
    probe.schedule = options_.schedule;

    bool oom = false;
    int first_layer = 0;
    draft.reserve(static_cast<size_t>(degree.pp));
    for (int s = 0; s < degree.pp && !oom; ++s) {
      if (cancelled()) {
        out.error = Status::Cancelled("strategy sweep cancelled");
        return out;
      }
      const int stage_layers = degree.stage_sizes[static_cast<size_t>(s)];
      const StageGeometry& geom = degree.geometry[static_cast<size_t>(s)];
      const int64_t stage_budget =
          cluster_->MinMemoryInRange(geom.first_device, geom.num_devices);
      auto result = search.Run(model, first_layer, stage_layers,
                               *degree.stage_candidates[static_cast<size_t>(s)],
                               geom.first_device,
                               batch, micro, stage_budget,
                               probe.InFlightForDegree(degree.pp, s),
                               run_hooks);
      // Warm infeasible answers are invisible here (no DpSearchResult to
      // carry the flag) and count as misses; the cache's own stats() still
      // record them as hits.
      if (result.ok() && result->frontier_hit) {
        ++out.dp_frontier_hits;
      } else {
        ++out.dp_frontier_misses;
      }
      if (!result.ok()) {
        if (result.status().IsInfeasible() ||
            result.status().IsOutOfMemory()) {
          oom = true;
          break;
        }
        out.error = result.status();
        return out;
      }
      out.dp_states += result->states_explored;
      out.dp_breakpoints += result->breakpoints_emitted;
      out.dp_pruned += result->options_pruned;
      out.dp_allocations += result->allocations;
      StageDraft d;
      d.first_layer = first_layer;
      d.num_layers = stage_layers;
      d.options = std::move(result->per_layer_option);
      if (options_.allow_recompute) {
        d.recompute = std::move(result->per_layer_recompute);
      }
      draft.push_back(std::move(d));
      first_layer += stage_layers;
    }
    if (oom) {
      commit_best();
      return out;
    }

    auto cost = estimate_draft(degree, batch, micro, draft);
    if (!cost.ok()) {
      if (!cost.status().IsOutOfMemory()) out.error = cost.status();
      commit_best();
      return out;
    }
    out.feasible = true;
    // The DP plan carries the highest candidate rank, so it too replaces
    // only on strictly higher throughput.
    if (best_cost == nullptr ||
        (*cost)->throughput_samples_per_sec >
            best_cost->throughput_samples_per_sec) {
      best_cost = *std::move(cost);
      best_rank = degree.dp_rank;
      best_template = -1;
    }
    commit_best();
    return out;
  };

  // Materializes a RankedPlan into a full TrainingPlan — called once for
  // the winner and once per alternate, after the sweep has settled.
  auto materialize_plan = [&](const RankedPlan& ranked) -> TrainingPlan {
    TrainingPlan plan;
    if (ranked.uniform_template >= 0) {
      plan = ranked.degree
                 ->uniform_templates[static_cast<size_t>(
                     ranked.uniform_template)]
                 .second;
      plan.global_batch = ranked.batch;
      plan.num_micro_batches = ranked.micro;
      return plan;
    }
    materialize_draft(*ranked.degree, ranked.batch, ranked.micro,
                      ranked.stages, plan);
    return plan;
  };

  RankedPlan best;
  bool have_best = false;
  // Best plan per PP degree, kept as alternates.
  std::map<int, RankedPlan> best_per_degree;
  int next_ordinal = 0;

  // Wave dispatch is adaptive: handing a wave to the pool costs futex
  // round-trips that dwarf a fully warm wave's compute (frontier + plan
  // memos make it microseconds), so a wave that finishes under the
  // threshold runs the NEXT wave inline, and a slow inline wave switches
  // back. Only latency changes — the ordinal-ordered merge below makes the
  // result identical however a wave was executed.
  constexpr double kInlineWaveSeconds = 250e-6;
  bool wave_inline = false;

  // Algorithm 1: grow the batch until every PP degree is out of memory.
  // The batch loop stays serial (its exit condition depends on this wave's
  // feasibility); within a wave, the independent (degree, micro)
  // configurations fan out across the pool and are merged in enumeration
  // order below.
  for (int batch = options_.batch_step;
       batch <= options_.max_batch; batch += options_.batch_step) {
    if (cancelled()) return Status::Cancelled("strategy sweep cancelled");
    bool any_pending = false;  // degrees whose pipelines the batch can't fill yet
    struct ConfigTask {
      const PerDegree* degree;
      int micro;
      int ordinal;
    };
    std::vector<ConfigTask> tasks;
    for (const PerDegree& degree : degrees) {
      // Micro-batch counts: 1 for the non-pipelined case, else multiples of
      // the stage count (GPipe needs m >= P to fill the pipe).
      std::vector<int> micro_counts;
      if (degree.pp == 1) {
        micro_counts.push_back(1);
      } else {
        for (int mult : options_.micro_batch_multipliers) {
          const int m = degree.pp * mult;
          if (m <= batch) micro_counts.push_back(m);
        }
        if (micro_counts.empty() && degree.pp <= batch) {
          micro_counts.push_back(degree.pp);
        }
        if (micro_counts.empty()) any_pending = true;
      }
      for (int micro : micro_counts) {
        tasks.push_back(ConfigTask{&degree, micro, next_ordinal++});
      }
    }

    std::vector<ConfigOutcome> outcomes(tasks.size());
    const auto wave_start = std::chrono::steady_clock::now();
    ParallelFor(wave_inline ? nullptr : pool.get(),
                static_cast<int>(tasks.size()), [&](int i) {
      const ConfigTask& task = tasks[static_cast<size_t>(i)];
      ConfigOutcome& out = outcomes[static_cast<size_t>(i)];
      // Allocation telemetry: evaluate runs entirely on this worker, so a
      // thread-local counter delta captures its heap traffic exactly.
      const int64_t allocs_before = CurrentThreadAllocCount();
      out = evaluate(*task.degree, batch, task.micro, task.ordinal);
      out.sweep_allocations = CurrentThreadAllocCount() - allocs_before;
    });
    wave_inline = SecondsSince(wave_start) < kInlineWaveSeconds;

    // Deterministic merge: walk outcomes in enumeration order; the first
    // fatal error (by ordinal) is returned, exactly as the serial sweep
    // would have surfaced it.
    bool any_feasible = false;
    for (ConfigOutcome& out : outcomes) {
      if (!out.error.ok()) return out.error;
      ++stats.configs_explored;
      stats.dp_states_explored += out.dp_states;
      stats.dp_breakpoints_emitted += out.dp_breakpoints;
      stats.dp_options_pruned += out.dp_pruned;
      stats.dp_frontier_hits += out.dp_frontier_hits;
      stats.dp_frontier_misses += out.dp_frontier_misses;
      stats.dp_allocations += out.dp_allocations;
      stats.sweep_allocations += out.sweep_allocations;
      any_feasible = any_feasible || out.feasible;
      if (!out.has_best) continue;
      const int pp = out.best.pp;
      auto it = best_per_degree.find(pp);
      if (it == best_per_degree.end() || BetterPlan(out.best, it->second)) {
        best_per_degree[pp] = out.best;
      }
      if (!have_best || BetterPlan(out.best, best)) {
        best = std::move(out.best);
        have_best = true;
      }
    }
    if (!any_feasible && !any_pending) {
      break;  // larger batches only use more memory
    }
  }
  stats.sweep_seconds = SecondsSince(start) - stats.enumerate_seconds;

  if (!have_best) {
    return Status::Infeasible(StrFormat(
        "%s does not fit %d devices with %s each", model.name().c_str(),
        num_devices,
        HumanBytes(static_cast<double>(
                       cluster_->MinMemoryInRange(0, num_devices)))
            .c_str()));
  }

  OptimizationResult result;
  result.plan = materialize_plan(best);
  result.estimated = PlanCost(*best.cost);

  // Co-optimization: feed the winning plan's measured per-layer times back
  // into the pipeline partitioner and re-search each stage.
  const auto co_optimize_start = std::chrono::steady_clock::now();
  for (int round = 0;
       round < options_.co_optimize_rounds && result.plan.pp_degree() > 1 &&
       !cancelled();
       ++round) {
    const int pp = result.plan.pp_degree();
    std::vector<double> layer_seconds;
    bool measured = true;
    for (const StagePlan& stage : result.plan.stages) {
      auto cost = estimator_.EstimateStage(
          model, stage.first_layer, stage.num_layers, stage.layer_strategies,
          stage.first_device, result.plan.global_batch,
          result.plan.num_micro_batches, stage.recompute,
          result.plan.InFlightMicroBatches(
              static_cast<int>(&stage - result.plan.stages.data())));
      if (!cost.ok()) {
        measured = false;
        break;
      }
      layer_seconds.insert(layer_seconds.end(),
                           cost->per_layer_seconds.begin(),
                           cost->per_layer_seconds.end());
    }
    if (!measured) break;
    Result<std::vector<int>> sizes = Status::Internal("unset");
    if (!graph_or_mixed) {
      sizes = PartitionByWeights(layer_seconds, pp);
    } else {
      // Mixed compute: weigh each layer by the throughput of the stage it
      // ran on (seconds x FLOP/s = flop-equivalents) and partition against
      // per-stage block throughput, so faster blocks absorb more layers.
      std::vector<double> capacities;
      std::vector<double> weights = layer_seconds;
      size_t l = 0;
      for (const StagePlan& stage : result.plan.stages) {
        const double throughput =
            stage.num_devices *
            cluster_->MinSustainedFlopsInRange(stage.first_device,
                                               stage.num_devices);
        capacities.push_back(throughput);
        for (int i = 0; i < stage.num_layers; ++i) {
          weights[l++] *= throughput;
        }
      }
      sizes = PartitionByWeightsWithCapacities(weights, capacities);
    }
    if (!sizes.ok()) break;
    bool same = true;
    for (int s = 0; s < pp; ++s) {
      if ((*sizes)[static_cast<size_t>(s)] !=
          result.plan.stages[static_cast<size_t>(s)].num_layers) {
        same = false;
      }
    }
    if (same) break;

    TrainingPlan refined;
    refined.model_name = model.name();
    refined.global_batch = result.plan.global_batch;
    refined.num_micro_batches = result.plan.num_micro_batches;
    refined.schedule = result.plan.schedule;
    int first_layer = 0;
    bool oom = false;
    for (int s = 0; s < pp && !oom; ++s) {
      // Device blocks come from the winning plan itself — uneven splits
      // keep their geometry across co-optimization rounds.
      const StagePlan& block = result.plan.stages[static_cast<size_t>(s)];
      auto candidates = candidates_for_width(block.num_devices);
      if (!candidates.ok()) {
        oom = true;
        break;
      }
      const int stage_layers = (*sizes)[static_cast<size_t>(s)];
      const int64_t stage_budget = cluster_->MinMemoryInRange(
          block.first_device, block.num_devices);
      auto stage_result =
          search.Run(model, first_layer, stage_layers, **candidates,
                     block.first_device, refined.global_batch,
                     refined.num_micro_batches, stage_budget,
                     refined.InFlightForDegree(pp, s), run_hooks);
      if (!stage_result.ok()) {
        oom = true;
        break;
      }
      // This stage is being committed, so fill per_layer from the index
      // chain.
      MaterializeDpSearchResult(**candidates, &*stage_result);
      StagePlan stage;
      stage.first_device = block.first_device;
      stage.num_devices = block.num_devices;
      stage.first_layer = first_layer;
      stage.num_layers = stage_layers;
      stage.layer_strategies = std::move(stage_result->per_layer);
      if (options_.allow_recompute) {
        stage.recompute = std::move(stage_result->per_layer_recompute);
      }
      refined.stages.push_back(std::move(stage));
      first_layer += stage_layers;
    }
    if (oom) break;
    auto cost = estimator_.EstimatePlan(model, refined);
    if (!cost.ok() || cost->throughput_samples_per_sec <=
                          result.estimated.throughput_samples_per_sec) {
      break;
    }
    result.plan = std::move(refined);
    result.estimated = *std::move(cost);
  }
  stats.co_optimize_seconds = SecondsSince(co_optimize_start);

  for (const auto& [pp, entry] : best_per_degree) {
    if (pp != result.plan.pp_degree()) {
      result.alternates.push_back(materialize_plan(entry));
    }
  }
  const CostCacheStats cache_stats = cache->stats();
  stats.cost_cache_hits = cache_stats.hits() - cache_stats_before.hits();
  stats.cost_cache_misses =
      cache_stats.misses() - cache_stats_before.misses();
  stats.cost_cache_lifetime_hits = cache_stats.hits();
  stats.cost_cache_lifetime_misses = cache_stats.misses();
  stats.used_external_cost_cache = hooks.cost_cache != nullptr;
  stats.search_seconds = SecondsSince(start);
  result.stats = stats;
  return result;
}

}  // namespace galvatron
