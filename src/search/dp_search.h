#ifndef GALVATRON_SEARCH_DP_SEARCH_H_
#define GALVATRON_SEARCH_DP_SEARCH_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "estimator/cost_estimator.h"
#include "ir/model.h"
#include "parallel/strategy.h"
#include "search/cost_cache.h"
#include "search/frontier_cache.h"
#include "util/result.h"

namespace galvatron {

/// Knobs of the dynamic-programming search (Sec 3.3).
struct DpSearchOptions {
  /// Memory quantization E is bucketed by. Coarser is faster, finer is
  /// tighter; Sec 3.3's complexity note suggests "large memory granularity"
  /// as the lever for huge budgets.
  int64_t memory_granularity = int64_t{32} * 1024 * 1024;
  /// Add per-layer activation checkpointing as a second search dimension
  /// (doubles the option count per layer). Off by default — the paper
  /// disables recompute (Sec 5.1) and leaves it as future work.
  bool allow_recompute = false;
};

/// Caller-owned state a search may borrow; every member is optional.
///
/// - `cost_cache`: a memo over the estimator shared across searches (one
///   sweep, or many requests of one PlanningContext). It must describe
///   the same model, cluster topology and estimator options as the search;
///   per-device memory budgets may differ.
/// - `frontier_cache`: the stage store — per search signature, its
///   budget-free facts and completed Pareto frontier, read by later
///   searches over the same signature (see DpFrontierCache). Its keys hold
///   layer-signature ids interned by `cost_cache`, so it requires one:
///   ids from two cost caches are not comparable, and a long-lived
///   frontier cache keyed by a per-run cache's ids would serve wrong
///   frontiers. Searches given a frontier cache without a cost cache
///   return InvalidArgument.
/// - `cancel`: polled between units of work; once it returns true the
///   search stops with Status::Cancelled. Serving threads a per-request
///   deadline through it.
struct SearchHooks {
  SharedCostCache* cost_cache = nullptr;
  DpFrontierCache* frontier_cache = nullptr;
  std::function<bool()> cancel;
};

/// Output of one per-stage search: the per-layer strategies minimizing the
/// stage execution time under the memory budget.
struct DpSearchResult {
  double stage_seconds = 0.0;  // sum of c(l, s) + transformation costs
  /// Per layer: the index into the search's `candidates` of the chosen
  /// strategy. Together with per_layer_recompute it identifies the plan
  /// completely; callers copy out the strategies of the plans they commit.
  std::vector<int32_t> per_layer_option;
  /// Per-layer checkpointing choice (empty unless allow_recompute).
  std::vector<uint8_t> per_layer_recompute;
  int64_t resident_memory_bytes = 0;
  /// DP states materialized (Fig 4 metric): Pareto breakpoints emitted.
  /// DenseDpSearch reports the table cells it touched instead — never
  /// fewer, since each breakpoint is a distinct budget level of one dense
  /// column.
  int64_t states_explored = 0;
  /// Per-layer options dropped because their (units, seconds) were
  /// dominated by a lower-index option of the same transformation class.
  /// Zero for the reference searchers.
  int64_t options_pruned = 0;
  /// True when the answer was reconstructed from a cached frontier (see
  /// DpFrontierCache) instead of a fresh kernel run. Warm answers report
  /// zero new states: nothing was materialized.
  bool frontier_hit = false;
  /// Heap allocations the Run performed on the calling thread (operator
  /// new calls, counted by util/alloc_counter). Telemetry for the
  /// allocation-budget tripwire: a warm Run should stay within a small
  /// fixed budget (the result's own vectors), independent of model size or
  /// budget.
  int64_t allocations = 0;
};

/// Number of cold DpSearch::Run calls on this thread that returned
/// Infeasible from the feasibility test, before building any frontier.
/// Callers measure a scope by differencing, like CurrentThreadAllocCount.
int64_t CurrentThreadDpInfeasibleSkips();

/// Stage-store lookups on this thread (DpSearch::StageFacts and Run, given
/// a frontier cache) that read or built a stage's facts:
/// answered by a stored record, or not (the caller then built the facts
/// and stored them). A Run its record's frontier answers counts as a
/// frontier hit instead. Differenced by callers like
/// CurrentThreadDpInfeasibleSkips.
struct StageTableCounts {
  int64_t hits = 0;
  int64_t misses = 0;
};
StageTableCounts CurrentThreadStageTableCounts();

/// Most budget units — a memory budget over the memory granularity,
/// rounded up — one stage search accepts. The kernel's merge scratch holds
/// a row per unit, so the cap bounds what one request can allocate: 256
/// GiB at a 1 MiB granularity, 8 TiB at the default 32 MiB.
inline constexpr int64_t kMaxBudgetUnits = int64_t{1} << 18;

/// InvalidArgument when `memory_budget` is more than kMaxBudgetUnits
/// granules of `memory_granularity` (which must be positive).
Status ValidateBudgetUnits(int64_t memory_budget, int64_t memory_granularity);

/// The dynamic-programming search of Eq. (1):
///
///   C(L, E) = min_{S_j} { C(L-1, E - O(L, S_j)) + c(L, S_j) + R(L, S_i, S_j) }
///
/// Because the transformation term R couples neighbouring layers, the state
/// carries the previous layer's strategy: C(L, E, S). Memory is quantized
/// into `memory_granularity` buckets; per-layer costs and R entries are
/// memoized by layer signature so models with repeated blocks (all of the
/// paper's models) pay the estimator only once per distinct shape, and the
/// R matrix of a boundary is built once per distinct signature pair per Run
/// and reused across repeated identical block boundaries.
///
/// The kernel exploits that C(L, e, S) is a non-increasing step function of
/// the budget e: each (layer, option) column is a Pareto frontier of
/// (units, cost, parent) breakpoints. Layer l combines the columns of layer
/// l-1 once per transformation class, in one pass over their breakpoints,
/// and stores each option's column as a view of its class frontier
/// (shifted by the option's units, biased by its layer cost). Work is
/// O(L * K * sum_s |frontier_s|) with K the used transformation classes
/// and |frontier| bounded by the number of distinct cost levels (<= E,
/// typically orders of magnitude less). DenseDpSearch below sweeps every
/// (budget granule, option) cell of the same recurrence and returns
/// byte-identical plans; tests compare the two.
///
/// Returns Infeasible when no assignment fits the budget (Algorithm 1
/// treats that as C = infinity). The memory constraint is a plain sum of
/// per-layer units, so a Run whose per-layer smallest options already
/// exceed the budget returns that verdict before building any column.
class DpSearch {
 public:
  /// `estimator` and `model` must outlive this object.
  DpSearch(const CostEstimator* estimator, DpSearchOptions options = {});

  /// Searches layers [first_layer, first_layer + num_layers) of `model`
  /// running on the stage block starting at `stage_first_device`, with the
  /// stage processing `batch_per_group` samples in `micro_batches`
  /// micro-batches, under `memory_budget` bytes per device.
  /// `resident_micro_batches`: how many micro-batches' activations the
  /// pipeline schedule keeps live on this stage (-1 = all, i.e. GPipe).
  /// Run is const and thread-safe, so independent configurations may Run
  /// concurrently against shared hooks.
  ///
  /// Tie-breaking is deterministic: on equal cost the DP keeps the lowest
  /// option index (lowest strategy index, recompute variants after plain
  /// ones), so the returned plan is byte-stable across runs and thread
  /// counts, and equal to DenseDpSearch's.
  ///
  /// Returns InvalidArgument when the expanded option count exceeds
  /// INT16_MAX, or the budget is more than kMaxBudgetUnits granules: the
  /// option count multiplies every column's work and the budget sizes its
  /// scratch, so the caps bound what one request can cost.
  ///
  /// `hooks` (see SearchHooks): with a frontier cache, the Run builds its
  /// signature's key and makes one probe of the store for its record.
  /// When the record's frontier was built at a budget >= the requested
  /// one, the answer is reconstructed directly from it — no estimator
  /// calls, no merging — and is byte-identical to a cold run (the frontier
  /// prefix property; see frontier_cache.h). Otherwise the record's facts
  /// answer the feasibility test (see StageFacts), or the Run computes and
  /// stores them, and a feasible cold run publishes its frontier into the
  /// record. The caches must only be shared across Runs whose model,
  /// cluster topology and estimator agree (the PlanningContext contract).
  /// The cancel hook is polled between layer columns and between layers of
  /// the cost-estimation pass.
  Result<DpSearchResult> Run(const ModelSpec& model, int first_layer,
                             int num_layers,
                             const std::vector<HybridStrategy>& candidates,
                             int stage_first_device, int batch_per_group,
                             int micro_batches, int64_t memory_budget,
                             int resident_micro_batches = -1,
                             const SearchHooks& hooks = {}) const;

  /// The budget-free facts of the Run with the same arguments, the memory
  /// budget aside, into `*facts` (its vectors keep their capacity): what
  /// its feasibility test, its bound and the stage's uniform plans need at
  /// any budget (see DpStageFacts). Exact: the uniform seconds and peaks
  /// are ComposeStage's sums over the same cached layer costs, in its
  /// layer order, and the LP parts are summed in BoundStage's order.
  ///
  /// With a frontier cache the facts come from the stage's record, found
  /// in one probe that also hands the record's frontier to `*frontier`
  /// when given (null when no Run published one), or are computed from the
  /// Run's cost tables and stored as a new record (so the identical stages
  /// of one pipeline, and every later request of a context, compute them
  /// once). Errors are those of the Run's cost estimation.
  Status StageFacts(const ModelSpec& model, int first_layer, int num_layers,
                    const std::vector<HybridStrategy>& candidates,
                    int stage_first_device, int batch_per_group,
                    int micro_batches, int resident_micro_batches,
                    const SearchHooks& hooks, DpStageFacts* facts,
                    std::shared_ptr<const DpFrontierEntry>* frontier =
                        nullptr) const;

  /// A lower bound on the stage seconds of the Run at `memory_budget`
  /// (which ValidateBudgetUnits accepts), from what StageFacts returned for
  /// its stage, without another probe; nullopt exactly when that Run finds
  /// no plan.
  ///
  /// - A `frontier` built at a budget >= the requested one gives the Run's
  ///   optimum itself, bit for bit its `stage_seconds`. No plan is
  ///   rebuilt and no hit is counted: the Run that may follow replays the
  ///   frontier and counts its own.
  /// - Otherwise the bound is the LP relaxation of the stage's
  ///   memory-constrained choice, read from `facts`: per distinct cost
  ///   row, the lower convex hull of its options' (units, seconds); every
  ///   layer starts at its smallest-units point and the remaining budget
  ///   units buy the steepest hull segments first, the last one
  ///   fractionally. Transformation costs are bounded by 0. The LP optimum
  ///   is at most the DP optimum; unlike the memory-free sum of per-layer
  ///   minima, it stays tight where memory binds.
  std::optional<double> BoundStage(const DpStageFacts& facts,
                                   const DpFrontierEntry* frontier,
                                   int64_t memory_budget) const;

 private:
  const CostEstimator* estimator_;
  DpSearchOptions options_;
};

// Reference searchers, tests only. Both search the same option space as
// DpSearch::Run (every candidate strategy, plus its checkpointed variant
// when `options.allow_recompute`) with identical cost accounting —
// including the budget quantization, which rounds the effective budget up
// with CeilDiv — so all three explore the same feasible set.

/// Exhaustively enumerates all assignments. Exponential.
Result<DpSearchResult> BruteForceSearch(
    const CostEstimator& estimator, const ModelSpec& model, int first_layer,
    int num_layers, const std::vector<HybridStrategy>& candidates,
    int stage_first_device, int batch_per_group, int micro_batches,
    int64_t memory_budget, DpSearchOptions options = {},
    SharedCostCache* shared_cache = nullptr);

/// Sweeps every (budget granule, option) cell of Eq. (1):
/// O(L * E * S^2) with E = budget / granularity. Returns the plan
/// DpSearch::Run returns, byte for byte; states_explored counts the table
/// cells touched.
Result<DpSearchResult> DenseDpSearch(
    const CostEstimator& estimator, const ModelSpec& model, int first_layer,
    int num_layers, const std::vector<HybridStrategy>& candidates,
    int stage_first_device, int batch_per_group, int micro_batches,
    int64_t memory_budget, DpSearchOptions options = {},
    SharedCostCache* shared_cache = nullptr, int resident_micro_batches = -1);

}  // namespace galvatron

#endif  // GALVATRON_SEARCH_DP_SEARCH_H_
