#include "search/optimizer.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <deque>
#include <limits>
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

/// Relative slack on a throughput bound before it is compared: absorbs
/// summation-order rounding between the bound and the priced plan.
constexpr double kBoundSlack = 1e-9;

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

/// Everything one worker produces for one configuration. Merged serially:
/// pass 1 in ordinal order, one wave at a time; pass 2 in its waves' order.
struct ConfigOutcome {
  bool feasible = false;  // at least one plan fit its memory budget
  bool has_best = false;
  RankedPlan best;
  int64_t dp_states = 0;
  int64_t dp_pruned = 0;
  int64_t dp_frontier_hits = 0;    // stage searches replayed from cache
  int64_t dp_frontier_misses = 0;  // stage searches that ran cold
  int64_t dp_infeasible_skipped = 0;  // cold ones the feasibility test ended
  int64_t stage_table_hits = 0;    // stage-table lookups with an entry
  int64_t stage_table_misses = 0;  // and without one
  bool pruned = false;             // the throughput bound skipped the DPs
  /// Pass 1: the stage DPs wait for pass 2. `best` is the uniform best and
  /// `upper` the DP plan's throughput bound.
  bool deferred = false;
  double upper = 0.0;
  /// Pass 1: pruned or deferred with no fitting uniform plan, so whether
  /// the configuration fits only its DPs can tell.
  bool fit_unknown = false;
  bool draft_over_budget = false;  // the memory check rejected the DP plan
  int64_t dp_allocations = 0;      // heap allocations inside DpSearch::Run
  int64_t sweep_allocations = 0;   // heap allocations of the whole evaluate
  Status error;  // non-OK only on fatal (non-OOM, non-infeasible) errors
};

/// One (batch, degree, micro-batch count) configuration of a wave.
struct ConfigTask {
  const PerDegree* degree = nullptr;
  int batch = 1;
  int micro = 1;
  int ordinal = 0;
  /// Pass 1: throughput of the best plan merged for the degree's PP degree
  /// when the wave was enumerated (0 when none), the incumbent the
  /// configuration's DP plan must beat to matter. (Pass 2 reads its
  /// incumbent at enumeration and prunes there.)
  double incumbent = 0.0;
  /// Pass 2: the throughput of the configuration's uniform best (merged in
  /// pass 1) and the bound its DP plan cannot exceed.
  double uniform_best = 0.0;
  double upper = 0.0;
};

/// A wave of the sweep and, once run, its outcomes (indexed like `tasks`).
/// Pass 1's waves are Algorithm 1's batch sizes, one each; pass 2's run
/// deferred stage DPs, best bound first. Wave objects are recycled.
struct Wave : PipelineWave {
  bool deferred_pass = false;
  /// Pass 1: some degree's pipeline cannot be filled at this batch yet.
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
  // The stage searches size their scratch by budget units: refuse a
  // granularity too fine for the budgets before any search runs.
  for (const PerDegree& degree : degrees) {
    for (const int64_t budget : degree.stage_budgets) {
      GALVATRON_RETURN_IF_ERROR(
          ValidateBudgetUnits(budget, options_.memory_granularity));
    }
  }

  SearchStats stats;
  stats.num_candidate_strategies = static_cast<int>(candidate_names.size());
  stats.enumerate_seconds = SecondsSince(start);
  stats.search_threads_used = threads;

  // Prices a plan given by its stage drafts into `cost`: the one
  // composition (ComposePlanCost) over the cost cache's entries by
  // candidate index (CachedPlanSource: the entries the stage searches
  // fill, nothing materialized), with the memory check applied stage by
  // stage — a plan that runs out of memory stops at the failing stage,
  // with OutOfMemory, or by setting `*over_budget` when that is given. The
  // degree's structure must validate.
  auto compose = [&](const PerDegree& degree, int batch, int micro,
                     const std::vector<StageDraft>& draft, PlanCost* cost,
                     bool* over_budget) {
    thread_local std::vector<IndexedStage> stages;
    stages.resize(degree.geometry.size());
    for (size_t s = 0; s < stages.size(); ++s) {
      IndexedStage& stage = stages[s];
      const StageDraft& d = draft[s];
      stage.first_device = degree.geometry[s].first_device;
      stage.num_devices = degree.geometry[s].num_devices;
      stage.first_layer = d.first_layer;
      stage.num_layers = d.num_layers;
      stage.candidates = degree.stage_candidates[s].get();
      stage.keys = &degree.stage_keys[s];
      stage.options = d.options.data();
      stage.recompute = d.recompute.empty() ? nullptr : d.recompute.data();
    }
    CachedPlanSource source(cache, &stages, batch, micro, options_.schedule);
    return estimator_.ComposePlanCost(model, batch, micro, source,
                                      /*check_memory=*/true, cost,
                                      over_budget);
  };
  // A DP plan's estimated throughput, nullopt when a stage is over its
  // memory budget, or why it cannot be priced: the degree's structure
  // error or the estimator's. The cost itself goes to per-thread scratch
  // whose buffers every plan the thread prices reuses; the sweep keeps
  // only the number. Plans that do not fit allocate nothing.
  auto price = [&](const PerDegree& degree, int batch, int micro,
                   const std::vector<StageDraft>& draft)
      -> Result<std::optional<double>> {
    if (!degree.structure.ok()) return degree.structure;
    thread_local PlanCost scratch;
    bool over_budget = false;
    GALVATRON_RETURN_IF_ERROR(
        compose(degree, batch, micro, draft, &scratch, &over_budget));
    if (over_budget) return std::optional<double>();
    return std::optional<double>(scratch.throughput_samples_per_sec);
  };
  // The throughput of uniform candidate `c`'s plan from its stages' facts
  // (DpSearch::StageFacts: each stage's seconds and exact peak with every
  // layer on `c`, as ComposeStage sums them), nullopt when a stage is over
  // its block's tightest budget: ComposePlanCost's answer, bit for bit,
  // with the pipeline half (ComposePipeline) its own.
  auto price_uniform = [&](const PerDegree& degree, int batch, int micro,
                           int c, const DpStageFacts* facts)
      -> std::optional<double> {
    thread_local PlanCost scratch;
    scratch.stages.resize(degree.geometry.size());
    for (size_t s = 0; s < scratch.stages.size(); ++s) {
      const int64_t peak =
          facts[s].uniform_peak_bytes[static_cast<size_t>(c)];
      if (peak > degree.stage_budgets[s]) return std::nullopt;
      scratch.stages[s].seconds =
          facts[s].uniform_seconds[static_cast<size_t>(c)];
      scratch.stages[s].peak_memory_bytes = peak;
    }
    estimator_.ComposePipeline(model, batch, micro, degree.stage_extents,
                               &scratch);
    return scratch.throughput_samples_per_sec;
  };

  // The micro-batches stage s of `task`'s pipeline keeps resident.
  auto in_flight = [&](const ConfigTask& task, int s) {
    return InFlightMicroBatches(options_.schedule, task.micro,
                                task.degree->pp, s);
  };

  // Best plan of one configuration, tracked without materializing
  // anything: a uniform candidate or the DP draft, plus its throughput.
  // Within one configuration the PP degree and ordinal are fixed, so
  // BetterPlan reduces to strictly higher throughput (earlier candidates
  // keep ties).
  struct ConfigBest {
    bool have = false;
    double throughput = 0.0;
    int rank = 0;
    int uniform = -1;  // see RankedPlan::uniform_candidate
  };
  auto commit = [](const ConfigTask& task, const ConfigBest& best,
                   std::vector<StageDraft>& draft, ConfigOutcome& out) {
    if (!best.have) return;
    out.best.degree = task.degree;
    out.best.batch = task.batch;
    out.best.micro = task.micro;
    out.best.pp = task.degree->pp;
    out.best.throughput = best.throughput;
    out.best.candidate_rank = best.rank;
    out.best.config_ordinal = task.ordinal;
    out.best.uniform_candidate = best.uniform;
    if (best.uniform < 0) out.best.stages = std::move(draft);
    out.has_best = true;
  };

  // Runs a configuration's per-stage DPs into `draft` (candidate indices:
  // the search returns index chains only; a stage whose record holds a
  // covering frontier replays it) and prices the plan. The DP plan carries
  // the highest candidate rank, so it replaces `best` only on strictly
  // higher throughput. Fatal errors go to `out.error`; a stage or plan that
  // does not fit leaves `best` as it was.
  auto run_dps = [&](const ConfigTask& task, ConfigBest& best,
                     std::vector<StageDraft>& draft, ConfigOutcome& out) {
    const PerDegree& degree = *task.degree;
    int first_layer = 0;
    draft.reserve(static_cast<size_t>(degree.pp));
    for (int s = 0; s < degree.pp; ++s) {
      if (cancelled()) {
        out.error = Status::Cancelled("strategy sweep cancelled");
        return;
      }
      const size_t i = static_cast<size_t>(s);
      const int stage_layers = degree.stage_sizes[i];
      Result<DpSearchResult> result = search.Run(
          model, first_layer, stage_layers, *degree.stage_candidates[i],
          degree.geometry[i].first_device, task.batch, task.micro,
          degree.stage_budgets[i], in_flight(task, s), run_hooks);
      // A warm Infeasible answer carries no frontier_hit flag and counts as
      // a miss here; the store's own stats() count it as a hit.
      ++(result.ok() && result->frontier_hit ? out.dp_frontier_hits
                                             : out.dp_frontier_misses);
      if (!result.ok()) {
        if (!result.status().IsInfeasible() &&
            !result.status().IsOutOfMemory()) {
          out.error = result.status();
        }
        return;
      }
      out.dp_states += result->states_explored;
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
    const Result<std::optional<double>> throughput =
        price(degree, task.batch, task.micro, draft);
    if (!throughput.ok()) {
      out.error = throughput.status();
      return;
    }
    if (!throughput->has_value()) {
      out.draft_over_budget = true;
      return;
    }
    out.feasible = true;
    if (!best.have || **throughput > best.throughput) {
      best = ConfigBest{true, **throughput, degree.dp_rank, -1};
    }
  };

  // Pass 1 of one configuration: its uniform plans, then the bound on its
  // DP plan, which prunes it or defers its DPs to pass 2. A stage whose DP
  // fits no plan settles it from the stage table alone; only a degree whose
  // structure fails Validate, or a stage the estimator cannot price, runs
  // the DPs now. Pure function of its argument plus the (thread-safe,
  // const) estimator and shared caches — safe to run on any worker.
  auto evaluate = [&](const ConfigTask& task) -> ConfigOutcome {
    ConfigOutcome out;
    if (cancelled()) {
      out.error = Status::Cancelled("strategy sweep cancelled");
      return out;
    }
    const PerDegree& degree = *task.degree;
    ConfigBest best;
    std::vector<StageDraft> draft;
    // Each stage's facts come from its record in the stage store (one probe
    // per stage, which also returns the record's frontier for the bound; a
    // miss builds the facts once for every stage and request of the same
    // signature), stage by stage while some uniform plan or the DP plan may
    // still fit. Each stage is bounded from what its probe returned (a
    // covering frontier gives the stage's exact optimum) until one is
    // unfit: no bound, the stage's Run finds no plan. An estimator error,
    // which the stage's Run would return, sends the configuration to its
    // DPs.
    thread_local std::vector<DpStageFacts> facts;
    if (facts.size() < static_cast<size_t>(degree.pp)) {
      facts.resize(static_cast<size_t>(degree.pp));
    }
    thread_local PlanCost bound;
    bound.stages.resize(static_cast<size_t>(degree.pp));
    // Per uniform candidate: whether its plan fits every stage so far.
    thread_local std::vector<uint8_t> fits;
    fits.assign(degree.uniform_candidates.size(), 1);
    bool any_fits = !fits.empty();
    bool unfit = false;
    bool have_facts = degree.structure.ok() && task.batch >= 1 &&
                      task.micro >= 1 && task.micro <= task.batch;
    int first_layer = 0;
    for (int s = 0; s < degree.pp && have_facts && (any_fits || !unfit);
         ++s) {
      const size_t i = static_cast<size_t>(s);
      std::shared_ptr<const DpFrontierEntry> frontier;
      have_facts = search
                       .StageFacts(model, first_layer, degree.stage_sizes[i],
                                   *degree.stage_candidates[i],
                                   degree.geometry[i].first_device,
                                   task.batch, task.micro, in_flight(task, s),
                                   run_hooks, &facts[i], &frontier)
                       .ok();
      if (!have_facts) break;
      first_layer += degree.stage_sizes[i];
      bool fits_here = false;
      for (size_t c = 0; c < fits.size(); ++c) {
        fits[c] &= facts[i].uniform_peak_bytes[c] <= degree.stage_budgets[i];
        fits_here |= fits[c] != 0;
      }
      any_fits = any_fits && fits_here;
      if (unfit) continue;
      const std::optional<double> stage_bound = search.BoundStage(
          facts[i], frontier.get(), degree.stage_budgets[i]);
      unfit = !stage_bound.has_value();
      if (!unfit) bound.stages[i].seconds = *stage_bound;
    }
    if (!have_facts) {
      run_dps(task, best, draft, out);
      commit(task, best, draft, out);
      return out;
    }
    // Uniform single-strategy plans: points of the same search space,
    // priced exactly so the search never loses to a pure baseline because
    // of DP-table memory quantization. The guard above reproduces exactly
    // the batch-dependent Validate failures MakeUniformPlan would hit.
    for (const int c : degree.uniform_candidates) {
      if (!any_fits) break;
      const std::optional<double> throughput =
          price_uniform(degree, task.batch, task.micro, c, facts.data());
      if (!throughput.has_value()) continue;
      out.feasible = true;
      if (!best.have || *throughput > best.throughput) {
        best = ConfigBest{true, *throughput, c, c};
      }
    }
    if (unfit) {
      // The stage table's verdict: the DP plan cannot fit.
      ++out.dp_infeasible_skipped;
      commit(task, best, draft, out);
      return out;
    }

    // Cross-configuration bound. The DP plan changes the merged result only
    // if it beats both the uniform best and the incumbent, the best plan
    // already merged for this PP degree: it ranks after every uniform
    // candidate and after the incumbent's earlier ordinal, so it loses ties
    // to both. The stage bounds compose, as stage seconds through the
    // plans' own pipeline formula (ComposePipeline), into a throughput
    // upper bound. When that cannot beat either plan the configuration is
    // pruned; else its DPs wait for pass 2, where stronger incumbents prune
    // most of them. Either way it keeps its uniform best, and with none its
    // fit stays unknown until the batch loop's exit test needs it.
    estimator_.ComposePipeline(model, task.batch, task.micro,
                               degree.stage_extents, &bound);
    out.upper = bound.throughput_samples_per_sec;
    out.pruned = out.upper * (1.0 + kBoundSlack) <=
                 std::max(best.throughput, task.incumbent);
    out.deferred = !out.pruned;
    out.fit_unknown = !best.have;
    commit(task, best, draft, out);
    return out;
  };

  // Pass 2 of a deferred configuration its bound did not prune: its stage
  // DPs. The outcome carries a plan only when the DP plan beats the
  // uniform best, which pass 1 merged.
  auto evaluate_deferred = [&](const ConfigTask& task) -> ConfigOutcome {
    ConfigOutcome out;
    if (cancelled()) {
      out.error = Status::Cancelled("strategy sweep cancelled");
      return out;
    }
    // Only the uniform best's throughput matters here: it is not merged
    // again.
    ConfigBest best{true, task.uniform_best, 0, 0};
    std::vector<StageDraft> draft;
    run_dps(task, best, draft, out);
    if (best.uniform < 0) commit(task, best, draft, out);
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
  auto incumbent_of = [&](int pp) {
    const auto it = best_per_degree.find(pp);
    return it == best_per_degree.end() ? 0.0 : it->second.throughput;
  };
  // BetterPlan is a total order, so the merged winner and alternates do
  // not depend on the order plans are merged in.
  auto merge_plan = [&](RankedPlan& plan) {
    auto it = best_per_degree.find(plan.pp);
    if (it == best_per_degree.end() || BetterPlan(plan, it->second)) {
      best_per_degree[plan.pp] = plan;
    }
    if (!have_best || BetterPlan(plan, best)) {
      best = std::move(plan);
      have_best = true;
    }
  };
  auto merge_counters = [&](const ConfigOutcome& out) {
    stats.dp_states_explored += out.dp_states;
    stats.dp_options_pruned += out.dp_pruned;
    stats.dp_frontier_hits += out.dp_frontier_hits;
    stats.dp_frontier_misses += out.dp_frontier_misses;
    stats.dp_infeasible_skipped += out.dp_infeasible_skipped;
    stats.stage_table_hits += out.stage_table_hits;
    stats.stage_table_misses += out.stage_table_misses;
    stats.configs_pruned += out.pruned ? 1 : 0;
    stats.dp_drafts_over_budget += out.draft_over_budget ? 1 : 0;
    stats.dp_allocations += out.dp_allocations;
    stats.sweep_allocations += out.sweep_allocations;
  };
  // The fatal error with the lowest ordinal either pass has met: the one a
  // sweep in ordinal order meets first.
  Status error;
  int error_ordinal = std::numeric_limits<int>::max();
  auto fail = [&](const Status& status, int ordinal) {
    if (ordinal >= error_ordinal) return;
    error = status;
    error_ordinal = ordinal;
  };

  // Pass 2's tasks: per-sweep storage the pass-1 merge fills.
  std::vector<ConfigTask> deferred;

  // Waves are recycled: a merged one goes back to `spare` with its
  // buffers.
  std::deque<std::unique_ptr<Wave>> waves;  // published, oldest first
  std::vector<std::unique_ptr<Wave>> spare;
  auto take_wave = [&](bool deferred_pass) {
    std::unique_ptr<Wave> wave;
    if (spare.empty()) {
      wave = std::make_unique<Wave>();
    } else {
      wave = std::move(spare.back());
      spare.pop_back();
      static_cast<PipelineWave&>(*wave) = PipelineWave();
      wave->tasks.clear();
    }
    wave->deferred_pass = deferred_pass;
    wave->any_pending = false;
    return wave;
  };
  auto seal_wave = [](Wave& wave) {
    wave.outcomes.resize(wave.tasks.size());
    wave.num_tasks = wave.tasks.size();
  };

  // Pass 1's waves — Algorithm 1: grow the batch until every PP degree is
  // out of memory. Each batch is one wave of independent (degree, micro)
  // configurations, enumerated with their ordinals in batch order. Returns
  // null past max_batch.
  int next_ordinal = 0;
  int next_batch = options_.batch_step;
  auto enumerate_wave = [&]() -> std::unique_ptr<Wave> {
    if (next_batch > options_.max_batch) return nullptr;
    std::unique_ptr<Wave> wave = take_wave(/*deferred_pass=*/false);
    const int batch = next_batch;
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
          if (m <= batch) micro_counts.push_back(m);
        }
        if (micro_counts.empty() && degree.pp <= batch) {
          micro_counts.push_back(degree.pp);
        }
        if (micro_counts.empty()) wave->any_pending = true;
      }
      // The incumbent is snapshotted here, at enumeration: inline that is
      // after every earlier wave merged, under the one-wave lookahead after
      // all but the previous one — fixed for each thread count either way.
      const double incumbent = incumbent_of(degree.pp);
      for (int micro : micro_counts) {
        wave->tasks.push_back(
            ConfigTask{&degree, batch, micro, next_ordinal++, incumbent});
      }
    }
    seal_wave(*wave);
    return wave;
  };

  // Pass 2's waves: the deferred configurations in descending bound order
  // (ties by ordinal), `threads` at a time. Each is bounded here, at
  // enumeration, against its PP degree's incumbent, and only the ones the
  // bound cannot prune go to the workers. The prune test keeps pass 1's
  // `<=` against the uniform best, which wins ties, but the incumbent may
  // come from a later ordinal, which loses ties to this configuration's DP
  // plan, so only a bound strictly below it prunes. Configurations past a
  // fatal error's ordinal are skipped: nothing they find is returned.
  size_t next_deferred = 0;
  auto enumerate_deferred_wave = [&]() -> std::unique_ptr<Wave> {
    std::unique_ptr<Wave> wave;
    while (next_deferred < deferred.size() &&
           (wave == nullptr ||
            wave->tasks.size() < static_cast<size_t>(threads))) {
      const ConfigTask& task = deferred[next_deferred++];
      if (task.ordinal > error_ordinal) continue;
      const double upper = task.upper * (1.0 + kBoundSlack);
      if (upper <= task.uniform_best ||
          upper < incumbent_of(task.degree->pp)) {
        ++stats.configs_pruned;
        continue;
      }
      if (wave == nullptr) wave = take_wave(/*deferred_pass=*/true);
      wave->tasks.push_back(task);
    }
    if (wave != nullptr) seal_wave(*wave);
    return wave;
  };

  // The wave pipeline: with workers, pass 1 publishes the next wave before
  // it merges the current one (a fixed lookahead of one wave), so the next
  // batch's configurations fill the cores the slowest configuration of the
  // current one leaves idle. Pass 2 runs no wave ahead: a deferred DP is
  // worth running only against the incumbents the waves before it leave.
  // Each pass merges its waves strictly in order; a wave run ahead of the
  // one that ends pass 1 is discarded, so no outcome of it reaches the
  // result, the error or the work counters. Inline (one thread) the same
  // loop runs each wave on the caller with no lookahead.
  std::unique_ptr<ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<ThreadPool>(threads);
  // Adds the allocation, feasibility-test and stage-table telemetry of
  // `run` to `out`: it runs entirely on this thread, so thread-local
  // counter deltas capture it exactly.
  auto measured = [](ConfigOutcome& out, auto run) {
    const int64_t allocs_before = CurrentThreadAllocCount();
    const int64_t skips_before = CurrentThreadDpInfeasibleSkips();
    const StageTableCounts table_before = CurrentThreadStageTableCounts();
    run();
    out.sweep_allocations += CurrentThreadAllocCount() - allocs_before;
    out.dp_infeasible_skipped +=
        CurrentThreadDpInfeasibleSkips() - skips_before;
    const StageTableCounts table_after = CurrentThreadStageTableCounts();
    out.stage_table_hits += table_after.hits - table_before.hits;
    out.stage_table_misses += table_after.misses - table_before.misses;
  };
  WavePipeline pipeline(pool.get(), &abandon, [&](PipelineWave& run,
                                                   size_t i) {
    Wave& wave = static_cast<Wave&>(run);
    const ConfigTask& task = wave.tasks[i];
    ConfigOutcome& out = wave.outcomes[i];
    measured(out, [&] {
      out = wave.deferred_pass ? evaluate_deferred(task) : evaluate(task);
    });
  });
  // Publishes and merges one pass's waves (`enumerate` opens the next, or
  // returns null when the pass has none left), up to `max_open_waves` at a
  // time, until none is left or `merge` returns false; a wave run ahead of
  // that one stays published.
  auto run_pass = [&](size_t max_open_waves, auto enumerate,
                      auto merge) -> Status {
    auto open_wave = [&] {
      std::unique_ptr<Wave> wave = enumerate();
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
      pipeline.Finish(waves.front().get());
      const bool more = merge(*waves.front());
      spare.push_back(std::move(waves.front()));
      waves.pop_front();
      if (!more) break;
      if (waves.empty()) open_wave();
    }
    return Status::OK();
  };

  // The exit test of a wave none of whose configurations is known to fit:
  // the DPs of those whose fit pass 1 left unknown, deepest pipeline first,
  // then latest ordinal, until one fits. They run on the caller, in the
  // same order at every thread count, and each replaces its
  // configuration's pass-1 outcome, so its plan merges now and it leaves
  // pass 2.
  std::vector<size_t> unknown_fit;
  auto resolve_fit = [&](Wave& wave) {
    unknown_fit.clear();
    for (size_t i = 0; i < wave.tasks.size(); ++i) {
      if (wave.outcomes[i].fit_unknown) unknown_fit.push_back(i);
    }
    std::sort(unknown_fit.begin(), unknown_fit.end(), [&](size_t a, size_t b) {
      const ConfigTask& x = wave.tasks[a];
      const ConfigTask& y = wave.tasks[b];
      if (x.degree->pp != y.degree->pp) return x.degree->pp > y.degree->pp;
      return x.ordinal > y.ordinal;
    });
    for (const size_t i : unknown_fit) {
      const ConfigTask& task = wave.tasks[i];
      ConfigOutcome& out = wave.outcomes[i];
      out.pruned = out.deferred = out.fit_unknown = false;
      measured(out, [&] {
        ConfigBest best;
        std::vector<StageDraft> draft;
        run_dps(task, best, draft, out);
        commit(task, best, draft, out);
      });
      if (out.feasible || !out.error.ok()) return out.feasible;
    }
    return false;
  };

  // Pass 1: every configuration's uniform plans and bound, batch by batch.
  // The merge walks outcomes in enumeration order. Deferred configurations
  // merge their uniform best now and leave their bound for pass 2. The
  // exit test sees exactly what the one-pass sweep saw: larger batches
  // only use more memory, so the loop ends at the first wave with every
  // degree's pipeline filled and nothing that fits.
  auto merge_batch = [&](Wave& wave) {
    bool more = wave.any_pending ||
                std::any_of(wave.outcomes.begin(), wave.outcomes.end(),
                            [](const ConfigOutcome& out) {
                              return out.feasible;
                            });
    if (!more) more = resolve_fit(wave);
    for (size_t i = 0; i < wave.tasks.size(); ++i) {
      const ConfigTask& task = wave.tasks[i];
      ConfigOutcome& out = wave.outcomes[i];
      if (!out.error.ok()) {
        fail(out.error, task.ordinal);
        return false;
      }
      ++stats.configs_explored;
      merge_counters(out);
      if (out.deferred) {
        ConfigTask& later = deferred.emplace_back(task);
        later.uniform_best = out.best.throughput;
        later.upper = out.upper;
      }
      if (out.has_best) merge_plan(out.best);
    }
    return more;
  };
  GALVATRON_RETURN_IF_ERROR(
      run_pass(pool != nullptr ? 2 : 1, enumerate_wave, merge_batch));
  if (!waves.empty()) {
    pipeline.Discard(waves.front().get());
    spare.push_back(std::move(waves.front()));
    waves.pop_front();
  }

  // Pass 2: the deferred stage DPs, best bound first, against incumbents
  // that now hold every batch's uniform best.
  std::sort(deferred.begin(), deferred.end(),
            [](const ConfigTask& a, const ConfigTask& b) {
              if (a.upper != b.upper) return a.upper > b.upper;
              return a.ordinal < b.ordinal;
            });
  auto merge_deferred = [&](Wave& wave) {
    for (size_t i = 0; i < wave.tasks.size(); ++i) {
      ConfigOutcome& out = wave.outcomes[i];
      if (!out.error.ok()) {
        fail(out.error, wave.tasks[i].ordinal);
        continue;
      }
      merge_counters(out);
      if (out.has_best) merge_plan(out.best);
    }
    return true;
  };
  GALVATRON_RETURN_IF_ERROR(
      run_pass(1, enumerate_deferred_wave, merge_deferred));
  pipeline.Stop();
  if (!error.ok()) return error;
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
  // The winner's cost, composed in full from the cost cache's entries; a
  // uniform winner as the draft running its candidate on every layer.
  if (best.uniform_candidate >= 0) {
    int first_layer = 0;
    for (size_t s = 0; s < best.degree->geometry.size(); ++s) {
      StageDraft& d = best.stages.emplace_back();
      d.first_layer = first_layer;
      d.num_layers = best.degree->stage_sizes[s];
      d.options.assign(static_cast<size_t>(d.num_layers),
                       best.uniform_candidate);
      first_layer += d.num_layers;
    }
  }
  GALVATRON_RETURN_IF_ERROR(compose(*best.degree, best.batch, best.micro,
                                    best.stages, &result.estimated,
                                    /*over_budget=*/nullptr));

  // Co-optimization: feed the winning plan's per-layer times, which its
  // cost already holds, back into the pipeline partitioner and search the
  // re-partitioned pipeline as one more configuration of the sweep: the
  // winner's device blocks, candidates and batch shape with the new stage
  // sizes. Its DP plan replaces the winner only when strictly faster, and
  // the next round starts from it, so the rounds' degrees live in a deque
  // that keeps their addresses.
  const auto co_optimize_start = std::chrono::steady_clock::now();
  std::deque<PerDegree> round_degrees;
  for (int round = 0; round < options_.co_optimize_rounds &&
                      best.degree->pp > 1 && !cancelled();
       ++round) {
    const PerDegree& winner = *best.degree;
    std::vector<double> layer_seconds;
    for (const StageCost& stage : result.estimated.stages) {
      layer_seconds.insert(layer_seconds.end(),
                           stage.per_layer_seconds.begin(),
                           stage.per_layer_seconds.end());
    }
    Result<std::vector<int>> sizes = Status::Internal("unset");
    if (!graph_or_mixed) {
      sizes = PartitionByWeights(layer_seconds, winner.pp);
    } else {
      // Mixed compute: weigh each layer by the throughput of the stage it
      // ran on (seconds x FLOP/s = flop-equivalents) and partition against
      // per-stage block throughput, so faster blocks absorb more layers.
      std::vector<double> capacities;
      size_t l = 0;
      for (size_t s = 0; s < winner.geometry.size(); ++s) {
        const StageGeometry& block = winner.geometry[s];
        const double throughput =
            block.num_devices *
            cluster_->MinSustainedFlopsInRange(block.first_device,
                                               block.num_devices);
        capacities.push_back(throughput);
        for (int i = 0; i < winner.stage_sizes[s]; ++i) {
          layer_seconds[l++] *= throughput;
        }
      }
      sizes = PartitionByWeightsWithCapacities(layer_seconds, capacities);
    }
    if (!sizes.ok() || *sizes == winner.stage_sizes) break;

    PerDegree& degree = round_degrees.emplace_back();
    degree.pp = winner.pp;
    degree.geometry = winner.geometry;
    degree.stage_candidates = winner.stage_candidates;
    degree.stage_sizes = *std::move(sizes);
    finish_degree(degree);
    const ConfigTask task{&degree, best.batch, best.micro,
                          best.config_ordinal};
    ConfigBest incumbent{true, result.estimated.throughput_samples_per_sec, 0,
                         0};
    std::vector<StageDraft> draft;
    ConfigOutcome out;
    run_dps(task, incumbent, draft, out);
    if (incumbent.uniform >= 0) break;
    best.degree = &degree;
    best.uniform_candidate = -1;
    best.stages = std::move(draft);
    materialize(degree, best.batch, best.micro, -1, &best.stages,
                result.plan);
    GALVATRON_RETURN_IF_ERROR(compose(degree, best.batch, best.micro,
                                      best.stages, &result.estimated,
                                      /*over_budget=*/nullptr));
  }
  stats.co_optimize_seconds = SecondsSince(co_optimize_start);

  for (const auto& [pp, entry] : best_per_degree) {
    if (pp != best.pp) {
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
