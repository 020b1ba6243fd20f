#include "search/optimizer.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <deque>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <set>
#include <utility>

#include "search/cost_cache.h"
#include "search/wave_pipeline.h"
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
  /// MakeUniformPlan covers.
  bool equal_split = true;
  /// Candidates whose uniform single-strategy plan every configuration
  /// prices, in enumeration order: all of them on an equal split whose
  /// structure validates, none otherwise. Priced by index; none is
  /// materialized unless it wins.
  std::vector<int> uniform_candidates;
  /// Per stage: the cost cache's interned ids of the stage's candidates
  /// (what CachedPlanSource keys its lookups by) and the
  /// tightest memory budget of the stage's block.
  std::vector<CandidateKeys> stage_keys;
  std::vector<int64_t> stage_budgets;
  /// Per stage: its devices and layers, as the throughput bound reads them.
  std::vector<PlanCostSource::Stage> stage_extents;
  /// OK when every plan of this degree passes TrainingPlan::Validate at
  /// any valid batch shape — the precondition of pricing from the cache —
  /// else the error pricing any of its plans returns.
  Status structure;
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
/// the batch shape, its estimated throughput, and either a uniform
/// candidate index or a draft of candidate indices. No TrainingPlan is
/// materialized and no PlanCost kept until the sweep commits its single
/// winner (and the per-degree alternates) — comparison needs only the
/// throughput and the ordinals.
struct RankedPlan {
  const PerDegree* degree = nullptr;
  int batch = 1;
  int micro = 1;
  int pp = 1;
  double throughput = 0.0;
  /// Within one configuration: uniform single-strategy candidates get their
  /// enumeration index, the DP plan gets candidates.size() — matching the
  /// order the serial sweep considered them in.
  int candidate_rank = 0;
  /// Global enumeration ordinal of the (batch, degree, micro) configuration.
  int config_ordinal = 0;
  /// >= 0: every layer runs this candidate (the uniform plan); -1: the DP
  /// plan described by `stages`.
  int uniform_candidate = -1;
  std::vector<StageDraft> stages;
};

/// Total order over plans: higher estimated throughput wins; exact ties
/// resolve to the lower PP degree, then the earlier-enumerated
/// configuration, then the earlier-considered candidate. Because no term
/// depends on evaluation timing, the merged winner is byte-identical
/// whether configurations were evaluated serially or by racing workers.
bool BetterPlan(const RankedPlan& a, const RankedPlan& b) {
  if (a.throughput != b.throughput) return a.throughput > b.throughput;
  if (a.pp != b.pp) return a.pp < b.pp;
  if (a.config_ordinal != b.config_ordinal) {
    return a.config_ordinal < b.config_ordinal;
  }
  return a.candidate_rank < b.candidate_rank;
}

/// Everything one worker produces for one configuration. Merged serially in
/// ordinal order, one wave at a time.
struct ConfigOutcome {
  bool feasible = false;  // at least one plan fit its memory budget
  bool has_best = false;
  RankedPlan best;
  int64_t dp_states = 0;
  int64_t dp_breakpoints = 0;
  int64_t dp_pruned = 0;
  int64_t dp_frontier_hits = 0;    // stage searches replayed from cache
  int64_t dp_frontier_misses = 0;  // stage searches that ran cold
  int64_t dp_infeasible_skipped = 0;  // cold ones the feasibility test ended
  bool pruned = false;             // the throughput bound skipped the DPs
  bool draft_over_budget = false;  // the memory check rejected the DP plan
  int64_t dp_allocations = 0;      // heap allocations inside DpSearch::Run
  int64_t sweep_allocations = 0;   // heap allocations of the whole evaluate
  Status error;  // non-OK only on fatal (non-OOM, non-infeasible) errors
};

/// One (degree, micro-batch count) configuration of a wave.
struct ConfigTask {
  const PerDegree* degree = nullptr;
  int micro = 1;
  int ordinal = 0;
  /// Throughput of the best plan merged for the degree's PP degree when
  /// the wave was enumerated (0 when none): the incumbent the
  /// configuration's DP plan must beat to matter.
  double incumbent = 0.0;
};

/// One batch size's configurations — a wave of Algorithm 1's sweep — and,
/// once run, their outcomes (indexed like `tasks`).
struct Wave : PipelineWave {
  int batch = 0;
  /// Some degree's pipeline cannot be filled at this batch yet.
  bool any_pending = false;
  std::vector<ConfigTask> tasks;
  std::vector<ConfigOutcome> outcomes;
};

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
  int threads = options_.search_threads;
  if (threads == 0) threads = ThreadPool::HardwareThreads();
  // The sweep is CPU-bound, so a pool wider than the physical core count
  // only buys thread start-up and context-switch cost; cap it so asking
  // for 4 threads on a smaller host is never slower than asking for 1.
  threads = std::min(threads, ThreadPool::HardwareThreads());

  // The caller's cancel hook, latched: once it reports cancellation the
  // sweep's remaining polls answer true without calling it again. A
  // threaded sweep also answers true while it abandons the configurations
  // it ran ahead on (see WavePipeline::Stop); the user's hook is not
  // consulted then.
  std::atomic<bool> cancel_seen{false};
  std::atomic<bool> abandon{false};
  if (hooks.cancel || threads > 1) {
    run_hooks.cancel = [&hooks, &cancel_seen, &abandon] {
      if (abandon.load(std::memory_order_relaxed)) return true;
      if (!hooks.cancel) return false;
      if (cancel_seen.load(std::memory_order_relaxed)) return true;
      if (!hooks.cancel()) return false;
      cancel_seen.store(true, std::memory_order_relaxed);
      return true;
    };
  }
  const auto cancelled = [&run_hooks] {
    return run_hooks.cancel && run_hooks.cancel();
  };

  // Materializes a plan given by reference — a uniform candidate (>= 0,
  // every layer of every stage) or a DP draft — into `plan`, reusing its
  // nested buffers. Reached for the committed winner and alternates and
  // for each degree's structure probe.
  auto materialize = [&](const PerDegree& degree, int batch, int micro,
                         int uniform_candidate,
                         const std::vector<StageDraft>* draft,
                         TrainingPlan& plan) {
    plan.model_name = model.name();
    plan.global_batch = batch;
    plan.num_micro_batches = micro;
    plan.schedule = options_.schedule;
    plan.stages.resize(degree.geometry.size());
    int first_layer = 0;
    for (size_t s = 0; s < plan.stages.size(); ++s) {
      StagePlan& stage = plan.stages[s];
      const StageGeometry& geom = degree.geometry[s];
      const std::vector<HybridStrategy>& candidates =
          *degree.stage_candidates[s];
      stage.first_device = geom.first_device;
      stage.num_devices = geom.num_devices;
      stage.layer_strategies.clear();
      stage.recompute.clear();
      if (uniform_candidate >= 0) {
        stage.first_layer = first_layer;
        stage.num_layers = degree.stage_sizes[s];
        stage.layer_strategies.assign(
            static_cast<size_t>(stage.num_layers),
            candidates[static_cast<size_t>(uniform_candidate)]);
      } else {
        const StageDraft& d = (*draft)[s];
        stage.first_layer = d.first_layer;
        stage.num_layers = d.num_layers;
        stage.layer_strategies.reserve(d.options.size());
        for (const int32_t o : d.options) {
          stage.layer_strategies.push_back(
              candidates[static_cast<size_t>(o)]);
        }
        stage.recompute.assign(d.recompute.begin(), d.recompute.end());
      }
      first_layer += stage.num_layers;
    }
  };

  std::vector<PerDegree> degrees;
  // Completes a degree before it joins the sweep: its stages' interned
  // candidate ids and budgets, whether its structure validates, and its
  // uniform candidates. batch=1/micro=1 satisfies every batch-dependent
  // Validate check, so a failure here is structural and holds for every
  // configuration.
  auto finish_degree = [&](PerDegree& d) {
    bool footprints_match = d.stage_sizes.size() == d.geometry.size();
    int first_layer = 0;
    for (size_t s = 0; s < d.geometry.size(); ++s) {
      const StageGeometry& geom = d.geometry[s];
      cache->InternCandidates(*d.stage_candidates[s], geom.first_device,
                              &d.stage_keys.emplace_back());
      d.stage_budgets.push_back(
          cluster_->MinMemoryInRange(geom.first_device, geom.num_devices));
      if (d.stage_sizes.size() == d.geometry.size()) {
        d.stage_extents.push_back(PlanCostSource::Stage{
            geom.first_device, geom.num_devices, first_layer,
            d.stage_sizes[s]});
        first_layer += d.stage_sizes[s];
      }
      footprints_match &= !d.stage_candidates[s]->empty();
      for (const HybridStrategy& candidate : *d.stage_candidates[s]) {
        footprints_match &= candidate.TotalDegree() == geom.num_devices;
      }
    }
    if (!footprints_match) {
      d.structure = Status::InvalidArgument(StrFormat(
          "pipeline degree %d: stage sizes or candidate footprints do not "
          "match its stage geometry",
          d.pp));
      return;
    }
    TrainingPlan probe;
    materialize(d, /*batch=*/1, /*micro=*/1, /*uniform_candidate=*/0,
                nullptr, probe);
    d.structure = probe.Validate(model, num_devices);
    // Every candidate spans its stage, so on a valid equal split each
    // one's uniform plan is exactly what MakeUniformPlan would build.
    if (d.structure.ok() && d.equal_split) {
      d.uniform_candidates.resize(d.stage_candidates.front()->size());
      std::iota(d.uniform_candidates.begin(), d.uniform_candidates.end(), 0);
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
        finish_degree(hetero);
        degrees.push_back(std::move(hetero));
      }
    }
    finish_degree(d);
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
        finish_degree(d);
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
  stats.search_threads_used = threads;

  // Prices a plan given by reference (see `materialize`) into `cost`: the
  // one composition (ComposePlanCost) over the cost cache's entries by
  // candidate index (CachedPlanSource: the entries the stage searches
  // fill, nothing materialized), with the memory check applied stage by
  // stage — a plan that runs out of memory stops at the failing stage.
  // The degree's structure must validate.
  auto compose = [&](const PerDegree& degree, int batch, int micro,
                     int uniform_candidate,
                     const std::vector<StageDraft>* draft, PlanCost* cost) {
    thread_local std::vector<IndexedStage> stages;
    stages.resize(degree.geometry.size());
    int first_layer = 0;
    for (size_t s = 0; s < stages.size(); ++s) {
      IndexedStage& stage = stages[s];
      stage.first_device = degree.geometry[s].first_device;
      stage.num_devices = degree.geometry[s].num_devices;
      stage.candidates = degree.stage_candidates[s].get();
      stage.keys = &degree.stage_keys[s];
      if (uniform_candidate >= 0) {
        stage.first_layer = first_layer;
        stage.num_layers = degree.stage_sizes[s];
        stage.options = nullptr;
        stage.uniform_option = uniform_candidate;
        stage.recompute = nullptr;
      } else {
        const StageDraft& d = (*draft)[s];
        stage.first_layer = d.first_layer;
        stage.num_layers = d.num_layers;
        stage.options = d.options.data();
        stage.recompute = d.recompute.empty() ? nullptr : d.recompute.data();
      }
      first_layer += stage.num_layers;
    }
    CachedPlanSource source(cache, &stages, batch, micro, options_.schedule);
    return estimator_.ComposePlanCost(model, batch, micro, source,
                                      /*check_memory=*/true, cost);
  };
  // A plan's estimated throughput, or why it cannot run: OutOfMemory for a
  // stage over its budget, else the degree's structure error or the
  // estimator's. The cost itself goes to per-thread scratch whose buffers
  // every plan the thread prices reuses; the sweep keeps only the number.
  auto price = [&](const PerDegree& degree, int batch, int micro,
                   int uniform_candidate,
                   const std::vector<StageDraft>* draft) -> Result<double> {
    if (!degree.structure.ok()) return degree.structure;
    thread_local PlanCost scratch;
    GALVATRON_RETURN_IF_ERROR(
        compose(degree, batch, micro, uniform_candidate, draft, &scratch));
    return scratch.throughput_samples_per_sec;
  };

  // Evaluates one (batch, degree, micro) configuration against the
  // incumbent throughput of its PP degree (see ConfigTask). Pure function
  // of its arguments plus the (thread-safe, const) estimator and shared
  // caches — safe to run on any worker.
  auto evaluate = [&](const PerDegree& degree, int batch, int micro,
                      int config_ordinal, double incumbent) -> ConfigOutcome {
    ConfigOutcome out;
    if (cancelled()) {
      out.error = Status::Cancelled("strategy sweep cancelled");
      return out;
    }
    // Best plan of THIS configuration, tracked without materializing
    // anything: a uniform candidate or a draft of candidate indices, plus
    // its throughput. Within one configuration the PP degree and ordinal
    // are fixed, so BetterPlan reduces to strictly higher throughput
    // (earlier candidates keep ties); nothing is deep-copied — the sweep
    // materializes only its single committed winner.
    bool have_best = false;
    double best_throughput = 0.0;
    int best_rank = 0;
    int best_uniform = -1;
    std::vector<StageDraft> draft;
    auto commit_best = [&] {
      if (!have_best) return;
      out.best.degree = &degree;
      out.best.batch = batch;
      out.best.micro = micro;
      out.best.pp = degree.pp;
      out.best.throughput = best_throughput;
      out.best.candidate_rank = best_rank;
      out.best.config_ordinal = config_ordinal;
      out.best.uniform_candidate = best_uniform;
      if (best_uniform < 0) out.best.stages = std::move(draft);
      out.has_best = true;
    };
    // Uniform single-strategy plans first: they are points of the same
    // search space, and pricing them exactly guarantees the search never
    // loses to a pure baseline because of DP-table memory quantization.
    // The guard reproduces exactly the batch-dependent Validate failures
    // MakeUniformPlan would hit.
    if (batch >= 1 && micro >= 1 && micro <= batch) {
      for (const int c : degree.uniform_candidates) {
        const Result<double> throughput =
            price(degree, batch, micro, c, nullptr);
        if (!throughput.ok()) continue;
        out.feasible = true;
        if (!have_best || *throughput > best_throughput) {
          have_best = true;
          best_throughput = *throughput;
          best_rank = c;
          best_uniform = c;
        }
      }
    }

    // The stage searches (DpSearch::Run or DpSearch::Bound) of stage s,
    // whose layers start at first_layer. The probe plan carries just the
    // schedule shape InFlightForDegree reads.
    TrainingPlan probe;
    probe.global_batch = batch;
    probe.num_micro_batches = micro;
    probe.schedule = options_.schedule;
    auto stage_search = [&](auto method, int s, int first_layer) {
      const size_t i = static_cast<size_t>(s);
      return (search.*method)(model, first_layer, degree.stage_sizes[i],
                              *degree.stage_candidates[i],
                              degree.geometry[i].first_device, batch, micro,
                              degree.stage_budgets[i],
                              probe.InFlightForDegree(degree.pp, s),
                              run_hooks);
    };
    // Warm infeasible answers are invisible here (no DpSearchResult to
    // carry the flag) and count as misses; the cache's own stats() still
    // record them as hits.
    auto count_stage = [&](const Result<DpSearchResult>& result) {
      if (result.ok() && result->frontier_hit) {
        ++out.dp_frontier_hits;
      } else {
        ++out.dp_frontier_misses;
      }
    };

    // Cross-configuration bound. Once a uniform plan fits, the DP plan
    // changes the merged result only if it beats both that plan and the
    // incumbent, the best plan already merged for this PP degree: it ranks
    // after every uniform candidate and after the incumbent's earlier
    // ordinal, so it loses ties to both. Each stage is bounded first (a
    // frontier-cache hit answers the stage outright and is kept for the
    // DP below), the bounds compose into a throughput upper bound, and
    // when that cannot beat either plan the stage DPs are skipped. The
    // configuration keeps its uniform best and its feasibility. The
    // relative slack absorbs summation-order rounding between the bound
    // and the priced plan. (A uniform plan that fits means the degree's
    // structure validates.)
    thread_local std::vector<DpStageBound> bounds;
    thread_local std::vector<double> lower_seconds;
    bounds.clear();
    bounds.resize(static_cast<size_t>(degree.pp));
    if (have_best) {
      lower_seconds.clear();
      int first_layer = 0;
      for (int s = 0; s < degree.pp; ++s) {
        Result<DpStageBound> bound =
            stage_search(&DpSearch::Bound, s, first_layer);
        if (!bound.ok()) break;
        DpStageBound& stage = bounds[static_cast<size_t>(s)];
        stage = *std::move(bound);
        if (!stage.bounded) break;
        lower_seconds.push_back(stage.lower_seconds);
        first_layer += degree.stage_sizes[static_cast<size_t>(s)];
      }
      if (lower_seconds.size() == bounds.size()) {
        const double upper = estimator_.PipelineThroughputBound(
            model, batch, micro, degree.stage_extents, lower_seconds);
        const double to_beat = std::max(best_throughput, incumbent);
        if (upper * (1.0 + 1e-9) <= to_beat) {
          for (const DpStageBound& stage : bounds) {
            if (!stage.answer.has_value()) continue;
            count_stage(*stage.answer);
            out.dp_allocations += (*stage.answer)->allocations;
          }
          out.pruned = true;
          commit_best();
          return out;
        }
      }
    }

    // Per-stage DP, collected as a draft of candidate indices (the search
    // returns index chains only). Stages the bound pass answered from the
    // frontier cache reuse that answer.
    bool oom = false;
    int first_layer = 0;
    draft.reserve(static_cast<size_t>(degree.pp));
    for (int s = 0; s < degree.pp && !oom; ++s) {
      if (cancelled()) {
        out.error = Status::Cancelled("strategy sweep cancelled");
        return out;
      }
      const int stage_layers = degree.stage_sizes[static_cast<size_t>(s)];
      std::optional<Result<DpSearchResult>>& answered =
          bounds[static_cast<size_t>(s)].answer;
      Result<DpSearchResult> result =
          answered.has_value() ? *std::move(answered)
                               : stage_search(&DpSearch::Run, s, first_layer);
      count_stage(result);
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

    const Result<double> throughput =
        price(degree, batch, micro, /*uniform_candidate=*/-1, &draft);
    if (!throughput.ok()) {
      if (throughput.status().IsOutOfMemory()) {
        out.draft_over_budget = true;
      } else {
        out.error = throughput.status();
      }
      commit_best();
      return out;
    }
    out.feasible = true;
    // The DP plan carries the highest candidate rank, so it too replaces
    // only on strictly higher throughput.
    if (!have_best || *throughput > best_throughput) {
      have_best = true;
      best_throughput = *throughput;
      best_rank = degree.dp_rank;
      best_uniform = -1;
    }
    commit_best();
    return out;
  };

  // Materializes a RankedPlan into a full TrainingPlan — called once for
  // the winner and once per alternate, after the sweep has settled.
  auto materialize_plan = [&](const RankedPlan& ranked) -> TrainingPlan {
    TrainingPlan plan;
    materialize(*ranked.degree, ranked.batch, ranked.micro,
                ranked.uniform_candidate, &ranked.stages, plan);
    return plan;
  };

  RankedPlan best;
  bool have_best = false;
  // Best plan per PP degree, kept as alternates.
  std::map<int, RankedPlan> best_per_degree;
  int next_ordinal = 0;
  int next_batch = options_.batch_step;

  // Algorithm 1: grow the batch until every PP degree is out of memory.
  // Each batch is one wave of independent (degree, micro) configurations,
  // enumerated with their ordinals in batch order. Returns null past
  // max_batch.
  auto enumerate_wave = [&]() -> std::unique_ptr<Wave> {
    if (next_batch > options_.max_batch) return nullptr;
    auto wave = std::make_unique<Wave>();
    wave->batch = next_batch;
    next_batch += options_.batch_step;
    for (const PerDegree& degree : degrees) {
      // Micro-batch counts: 1 for the non-pipelined case, else multiples of
      // the stage count (GPipe needs m >= P to fill the pipe).
      std::vector<int> micro_counts;
      if (degree.pp == 1) {
        micro_counts.push_back(1);
      } else {
        for (int mult : options_.micro_batch_multipliers) {
          const int m = degree.pp * mult;
          if (m <= wave->batch) micro_counts.push_back(m);
        }
        if (micro_counts.empty() && degree.pp <= wave->batch) {
          micro_counts.push_back(degree.pp);
        }
        if (micro_counts.empty()) wave->any_pending = true;
      }
      // The incumbent is snapshotted here, at enumeration: inline that is
      // after every earlier wave merged, under the one-wave lookahead after
      // all but the previous one — fixed for each thread count either way.
      const auto incumbent = best_per_degree.find(degree.pp);
      const double incumbent_throughput =
          incumbent == best_per_degree.end() ? 0.0
                                             : incumbent->second.throughput;
      for (int micro : micro_counts) {
        wave->tasks.push_back(ConfigTask{&degree, micro, next_ordinal++,
                                         incumbent_throughput});
      }
    }
    wave->outcomes.resize(wave->tasks.size());
    wave->num_tasks = wave->tasks.size();
    return wave;
  };

  // The wave pipeline: with workers, the next wave is published before the
  // current one is merged (a fixed lookahead of one wave), so configurations
  // of batch B+1 fill the cores the slowest configuration of batch B leaves
  // idle. The merge below walks waves strictly in batch order; a wave that
  // stops the sweep discards the one run ahead, so no outcome of it reaches
  // the result, the error or the work counters. Inline (one thread) the
  // same loop runs each wave on the caller with no lookahead.
  std::unique_ptr<ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<ThreadPool>(threads);
  const size_t max_open_waves = pool != nullptr ? 2 : 1;
  std::deque<std::unique_ptr<Wave>> waves;
  WavePipeline pipeline(pool.get(), &abandon, [&](PipelineWave& run,
                                                   size_t i) {
    Wave& wave = static_cast<Wave&>(run);
    const ConfigTask& task = wave.tasks[i];
    ConfigOutcome& out = wave.outcomes[i];
    // Allocation and feasibility-test telemetry: evaluate runs entirely on
    // this thread, so thread-local counter deltas capture it exactly.
    const int64_t allocs_before = CurrentThreadAllocCount();
    const int64_t skips_before = CurrentThreadDpInfeasibleSkips();
    out = evaluate(*task.degree, wave.batch, task.micro, task.ordinal,
                   task.incumbent);
    out.sweep_allocations = CurrentThreadAllocCount() - allocs_before;
    out.dp_infeasible_skipped =
        CurrentThreadDpInfeasibleSkips() - skips_before;
  });
  auto open_wave = [&] {
    std::unique_ptr<Wave> wave = enumerate_wave();
    if (wave == nullptr) return false;
    pipeline.Publish(wave.get());
    waves.push_back(std::move(wave));
    return true;
  };

  open_wave();
  while (!waves.empty()) {
    if (cancelled()) return Status::Cancelled("strategy sweep cancelled");
    while (waves.size() < max_open_waves && open_wave()) {
    }
    Wave& wave = *waves.front();
    pipeline.Finish(&wave);

    // Deterministic merge: walk outcomes in enumeration order; the first
    // fatal error (by ordinal) is returned, exactly as the serial sweep
    // would have surfaced it.
    bool any_feasible = false;
    for (ConfigOutcome& out : wave.outcomes) {
      if (!out.error.ok()) return out.error;
      ++stats.configs_explored;
      stats.dp_states_explored += out.dp_states;
      stats.dp_breakpoints_emitted += out.dp_breakpoints;
      stats.dp_options_pruned += out.dp_pruned;
      stats.dp_frontier_hits += out.dp_frontier_hits;
      stats.dp_frontier_misses += out.dp_frontier_misses;
      stats.dp_infeasible_skipped += out.dp_infeasible_skipped;
      stats.configs_pruned += out.pruned ? 1 : 0;
      stats.dp_drafts_over_budget += out.draft_over_budget ? 1 : 0;
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
    if (!any_feasible && !wave.any_pending) {
      break;  // larger batches only use more memory
    }
    waves.pop_front();
    if (waves.empty()) open_wave();
  }
  pipeline.Stop();
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
  // The winner's cost, composed once more from the entries that priced it.
  GALVATRON_RETURN_IF_ERROR(compose(*best.degree, best.batch, best.micro,
                                    best.uniform_candidate, &best.stages,
                                    &result.estimated));

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
