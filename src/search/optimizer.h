#ifndef GALVATRON_SEARCH_OPTIMIZER_H_
#define GALVATRON_SEARCH_OPTIMIZER_H_

#include <cstdint>
#include <vector>

#include "cluster/cluster.h"
#include "estimator/cost_estimator.h"
#include "ir/model.h"
#include "parallel/decision_tree.h"
#include "parallel/pipeline_partition.h"
#include "parallel/plan.h"
#include "search/dp_search.h"
#include "util/result.h"

namespace galvatron {

/// Knobs of the Algorithm-1 optimization workflow.
struct OptimizerOptions {
  DecisionTreeOptions tree;
  PartitionPolicy partition_policy = PartitionPolicy::kFlops;
  EstimatorOptions estimator;
  int64_t memory_granularity = int64_t{32} * 1024 * 1024;

  /// Batch sweep: B = batch_step, 2*batch_step, ... until every PP degree
  /// is out of memory (Algorithm 1's loop) or max_batch is hit.
  int batch_step = 8;
  int max_batch = 4096;

  /// PP degrees to explore; empty means all powers of two dividing the
  /// device count (Algorithm 1 line 4). {1} disables PP — the paper's
  /// DP+TP auxiliary mode.
  std::vector<int> pp_degrees;

  /// Micro-batch counts tried per PP degree ("we manually tune the number
  /// of micro-batches", Sec 5.1). Multipliers of the PP degree; 4x is the
  /// classic GPipe bubble sweet spot.
  std::vector<int> micro_batch_multipliers = {1, 2, 4, 8};

  /// Pipeline schedule for the produced plans. GPipe is the paper's
  /// default; 1F1B caps in-flight micro-batches and frees memory for
  /// deeper pipelines (the paper's PipeDream future-work direction).
  PipelineSchedule schedule = PipelineSchedule::kGPipe;

  /// Let the per-layer search also choose activation checkpointing
  /// (doubles the option space; off to match the paper's setup).
  bool allow_recompute = false;

  /// On heterogeneous clusters (mixed device generations or an attached
  /// TopologyGraph), additionally sweep island-proportional uneven stage
  /// splits: stage device counts track each island's aggregate throughput
  /// instead of forcing num_devices/pp everywhere. No effect on uniform
  /// clusters — the equal-split enumeration is untouched either way.
  bool allow_uneven_stages = true;

  /// Alpa/Unity-style co-optimization rounds (Sec 3.3: "it is also possible
  /// to co-optimize by repeatedly interacting with the search inside each
  /// stage"): after the sweep, re-partition the pipeline using the winning
  /// plan's own per-layer times and re-run the per-stage search, keeping
  /// improvements. 0 reproduces the paper's one-shot workflow.
  int co_optimize_rounds = 0;

  /// Worker threads for the strategy sweep. The independent (PP degree,
  /// micro-batch count) configurations of each batch wave fan out across
  /// this many worker threads, which also run one wave ahead while the
  /// calling thread merges the current one, and then run the deferred
  /// stage DPs this many at a time; 1 keeps the sweep serial,
  /// 0 uses the machine's hardware concurrency, and a negative value makes
  /// Optimize return InvalidArgument (it is a caller bug, not a request for
  /// serial search). The result is bit-identical for every valid value —
  /// outcomes are merged wave by wave in enumeration order with total-order
  /// tie-breaking, never first-finished-wins, and a wave run ahead of a
  /// stopping one is discarded.
  int search_threads = 1;
};

/// Telemetry of one optimizer run (Figure 4 reports search time).
struct SearchStats {
  double search_seconds = 0.0;
  int configs_explored = 0;        // (B, P, m) triples evaluated
  /// Explored configurations whose per-stage DPs were skipped because a
  /// throughput upper bound proved their DP plan cannot beat the better
  /// of the configuration's best uniform plan, if any, and the best plan
  /// already merged for its PP degree (see Optimize): pruned in the
  /// sweep's first pass, or deferred there and pruned in the second, and
  /// not run by the batch loop's exit test. They keep their uniform best
  /// and count in configs_explored.
  int configs_pruned = 0;
  /// DP states materialized across all per-stage searches: Pareto
  /// breakpoints (see DpSearchResult).
  int64_t dp_states_explored = 0;
  /// Per-layer options the same-class domination prune dropped, summed
  /// over per-stage searches.
  int64_t dp_options_pruned = 0;
  /// Cold per-stage searches answered Infeasible by the feasibility test
  /// (the per-layer smallest options already exceed the budget) without
  /// building a frontier; see DpSearch::Run. A configuration the test
  /// settles from the stage table in the first pass, before any Run,
  /// counts once.
  int64_t dp_infeasible_skipped = 0;
  /// Stage-table lookups of the sweep's stage searches (uniform plans,
  /// bounds and feasibility tests; see DpSearch::StageFacts): answered
  /// from a stored entry, or not, when the searcher built the facts and
  /// stored them. A warm re-plan over a context's frontier cache shows
  /// misses only for signatures no earlier request met.
  int64_t stage_table_hits = 0;
  int64_t stage_table_misses = 0;
  /// DP plans the exact memory check rejected after their stage searches
  /// accepted them: the searches round each layer's units to the nearest
  /// granule and the budget up, so a plan can fit the quantized budget but
  /// not the real one.
  int64_t dp_drafts_over_budget = 0;
  int num_candidate_strategies = 0;

  /// Wall time per phase: candidate/partition enumeration, the batch/degree
  /// sweep (the parallel part), and co-optimization rounds.
  double enumerate_seconds = 0.0;
  double sweep_seconds = 0.0;
  double co_optimize_seconds = 0.0;

  /// Shared cost-cache counters, summed over layer and transformation
  /// lookups. A miss is one estimator invocation. These are per-call deltas:
  /// with an external cache (SearchHooks::cost_cache) they count only
  /// this run's lookups, so a fully warm cache shows misses == 0. Being
  /// cache deltas, they include the lookups of configurations a threaded
  /// sweep ran ahead on and discarded; the per-outcome counters below
  /// (configs, DP states, frontier, allocations) do not.
  int64_t cost_cache_hits = 0;
  int64_t cost_cache_misses = 0;

  /// Cumulative counters of the cost cache at the end of this run. Equal to
  /// the per-call deltas for the run-local cache; monotone across runs for
  /// an external cache (the serving /metrics endpoint exports them).
  int64_t cost_cache_lifetime_hits = 0;
  int64_t cost_cache_lifetime_misses = 0;

  /// DP frontier-cache counters for this run: stage searches the sweep ran
  /// (DpSearch::Run) that replayed a cached Pareto frontier vs. those that
  /// did not. A stage bounded from a frontier but never searched, because
  /// its configuration was pruned, counts in neither. With a
  /// caller-provided frontier cache the replays span requests; without
  /// one, the sweep still uses a run-local cache, so the identical
  /// pipeline stages of one configuration — and repeated signatures across
  /// configurations — run the cold kernel once and replay everywhere else.
  int64_t dp_frontier_hits = 0;
  int64_t dp_frontier_misses = 0;

  /// Allocation telemetry (counted by util/alloc_counter, per worker
  /// thread, summed deterministically at the merge): heap allocations
  /// performed inside DpSearch::Run across all per-stage searches, and
  /// across entire configuration evaluations (DP + plan estimation +
  /// bookkeeping). The perf tripwires bound these: a warm sweep's DP path
  /// must stay allocation-free up to the returned result vectors.
  int64_t dp_allocations = 0;
  int64_t sweep_allocations = 0;

  /// True when the run reused a caller-provided SharedCostCache instead of
  /// building its own.
  bool used_external_cost_cache = false;

  /// Worker threads the sweep actually used: search_threads with 0
  /// resolved to the hardware concurrency, then capped at the hardware
  /// concurrency (an oversized pool cannot help a CPU-bound sweep).
  int search_threads_used = 1;
};

/// A plan with its estimated performance. `alternates` holds the best plan
/// of every other explored PP degree (estimation error is a few percent, so
/// callers with a measurement channel — the simulator here, profiling runs
/// in the paper's setting — can re-rank the finalists).
struct OptimizationResult {
  TrainingPlan plan;
  PlanCost estimated;
  SearchStats stats;
  std::vector<TrainingPlan> alternates;
};

/// Algorithm 1: sweep batch size and PP degree, partition the model,
/// enumerate the per-stage decision tree, run the per-stage DP search, and
/// keep the plan with the highest estimated throughput B / C_opt. The
/// sweep runs in two passes: the batch loop prices every configuration's
/// uniform plans and bounds its DP plan, then the stage DPs the bounds
/// could not rule out run best bound first (docs/parallel_search.md).
class Optimizer {
 public:
  /// `cluster` must outlive this object.
  Optimizer(const ClusterSpec* cluster, OptimizerOptions options = {});

  /// Finds the best plan for `model` on the cluster. Returns Infeasible if
  /// no batch size / strategy combination fits the memory budget.
  ///
  /// `hooks` (optional, see SearchHooks) carry the serving daemon's state:
  ///
  /// - `cost_cache` is reused across runs — the cross-request warm path.
  ///   Its estimator/model must describe the same model, cluster topology
  ///   and estimator options as this optimizer's; entries are keyed by
  ///   batch/micro/strategy/topology but NOT by memory budget, so
  ///   budget-only variations share entries by design. Without one the run
  ///   builds its own.
  /// - `frontier_cache`: the stage store. Per-stage searches whose
  ///   signature already has a record read its facts instead of pricing
  ///   the stage again, and those whose record holds a Pareto frontier at
  ///   a covering budget replay the answer instead of running the kernel —
  ///   the warm-start path for requests that differ only in memory budget
  ///   or batch envelope. It must be
  ///   scoped with the cost cache, and requires one (InvalidArgument
  ///   otherwise). Without one the run keeps its own for its duration.
  /// - `cancel` is polled between batch waves, configuration evaluations,
  ///   pipeline stages and DP layer columns; once it returns true the
  ///   sweep stops polling it and returns Status::Cancelled. Used for
  ///   per-request deadlines.
  ///
  /// Thread-safe: concurrent Optimize runs may share one set of caches.
  Result<OptimizationResult> Optimize(const ModelSpec& model,
                                      const SearchHooks& hooks = {}) const;

 private:
  const ClusterSpec* cluster_;
  OptimizerOptions options_;
  CostEstimator estimator_;
};

}  // namespace galvatron

#endif  // GALVATRON_SEARCH_OPTIMIZER_H_
