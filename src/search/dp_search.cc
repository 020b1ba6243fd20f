#include "search/dp_search.h"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster.h"
#include "parallel/transformation.h"
#include "util/alloc_counter.h"
#include "util/logging.h"
#include "util/math_util.h"
#include "util/string_util.h"

namespace galvatron {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// The per-Run buffers of a RunCostCache. DpSearch keeps one per thread
/// (in DpScratch), so a warm thread sets up a Run's cache without heap
/// allocations; the reference searchers own theirs.
struct RunCostStorage {
  CandidateKeys keys;                   // interned ids per candidate
  std::vector<int> local_sig;           // per layer in range -> distinct id
  std::vector<int32_t> shared_sig_ids;  // distinct id -> shared intern id
  std::vector<int> row_first;           // distinct id -> its first layer
  std::vector<std::optional<LayerCost>> layer_slots;
};

/// Per-Run slots over the sweep-wide SharedCostCache. At construction it
/// interns the run's layer signatures, candidate strategy texts and block
/// fingerprints (once per Run, not once per lookup), dedupes the layer
/// range to its distinct signatures, and then serves:
///
/// - per-layer costs from a flat slot array indexed by
///   (distinct signature, strategy, recompute) — repeated identical
///   Transformer blocks resolve without hashing anything;
/// - transformation matrices built once per distinct
///   (predecessor-signature, successor-signature) boundary and shared by
///   every repeated identical block boundary of the run.
///
/// First touches fall through to the shared cache (which memoizes across
/// Runs, stages, configurations and threads) with pre-interned integer
/// keys; only a shared-cache miss reaches the estimator.
class RunCostCache {
 public:
  RunCostCache(const CostEstimator* estimator, const ModelSpec* model,
               const std::vector<HybridStrategy>* candidates, int first_layer,
               int num_layers, int stage_first_device, int batch_per_group,
               int micro_batches, int resident_micro_batches,
               SharedCostCache* shared, RunCostStorage* storage)
      : candidates_(candidates),
        first_layer_(first_layer),
        stage_first_device_(stage_first_device),
        batch_per_group_(batch_per_group),
        micro_batches_(micro_batches),
        resident_micro_batches_(resident_micro_batches),
        shared_(shared),
        keys_(storage->keys),
        local_sig_(storage->local_sig),
        shared_sig_ids_(storage->shared_sig_ids),
        row_first_(storage->row_first),
        layer_slots_(storage->layer_slots) {
    if (shared_ == nullptr) {
      owned_ = std::make_unique<SharedCostCache>(estimator, model);
      shared_ = owned_.get();
    }
    mb_size_ = static_cast<int>(CeilDiv(batch_per_group_, micro_batches_));
    num_strategies_ = static_cast<int>(candidates_->size());
    shared_->InternCandidates(*candidates_, stage_first_device_, &keys_);
    // Dedupe the layer range to distinct signatures (equal interned ids):
    // a 24-layer model with one repeated block shape costs one slot row,
    // not 24. Stages hold a handful of distinct shapes, so a scan beats a
    // map.
    local_sig_.resize(static_cast<size_t>(num_layers));
    shared_sig_ids_.clear();
    row_first_.clear();
    for (int l = 0; l < num_layers; ++l) {
      const int32_t sig = shared_->InternSignature(first_layer + l);
      const auto it =
          std::find(shared_sig_ids_.begin(), shared_sig_ids_.end(), sig);
      local_sig_[static_cast<size_t>(l)] =
          static_cast<int>(it - shared_sig_ids_.begin());
      if (it == shared_sig_ids_.end()) {
        shared_sig_ids_.push_back(sig);
        row_first_.push_back(first_layer + l);
      }
    }
    layer_slots_.assign(
        shared_sig_ids_.size() * static_cast<size_t>(num_strategies_) * 2,
        std::nullopt);
  }

  /// c(l, s) pieces; slotted by (distinct signature, strategy, recompute).
  Result<LayerCost> Layer(int layer_index, int strategy_index,
                          bool recompute = false) {
    const int sig = local_sig_[static_cast<size_t>(layer_index - first_layer_)];
    const size_t slot =
        (static_cast<size_t>(sig) * static_cast<size_t>(num_strategies_) +
         static_cast<size_t>(strategy_index)) *
            2 +
        (recompute ? 1 : 0);
    if (layer_slots_[slot].has_value()) return *layer_slots_[slot];
    LayerCostKey key;
    key.layer_sig = shared_sig_ids_[static_cast<size_t>(sig)];
    key.strategy = keys_.strategy[static_cast<size_t>(strategy_index)];
    key.fingerprint = keys_.fingerprint[static_cast<size_t>(strategy_index)];
    key.batch_per_group = batch_per_group_;
    key.micro_batches = micro_batches_;
    key.resident_micro_batches = resident_micro_batches_;
    key.recompute = recompute ? 1 : 0;
    GALVATRON_ASSIGN_OR_RETURN(
        LayerCost cost,
        shared_->Layer(key, layer_index,
                       (*candidates_)[static_cast<size_t>(strategy_index)],
                       stage_first_device_));
    layer_slots_[slot] = cost;
    return cost;
  }

  /// R(l, s_prev, s): Slice-Gather between layer_index-1 and layer_index,
  /// applied forward + backward per micro-batch, for candidate STRATEGY
  /// indices. One element of the boundary's matrix, filled lazily (the
  /// brute-force searcher probes single elements).
  Result<double> TransformSeconds(int layer_index, int prev_strategy,
                                  int strategy) {
    Boundary& boundary = BoundaryFor(layer_index);
    const size_t e = static_cast<size_t>(prev_strategy) *
                         static_cast<size_t>(num_strategies_) +
                     static_cast<size_t>(strategy);
    if (!boundary.filled[e]) {
      GALVATRON_RETURN_IF_ERROR(
          FillElement(boundary, layer_index, prev_strategy, strategy));
    }
    return boundary.r[e];
  }

  /// The full R matrix of the boundary entering `layer_index`, indexed by
  /// (prev strategy * num_strategies + strategy). Built once per distinct
  /// (predecessor, successor) signature pair per Run — the repeated
  /// identical block boundaries of a Transformer stack all share one
  /// matrix. The pointer stays valid for this cache's lifetime.
  Result<const std::vector<double>*> BoundaryMatrix(int layer_index) {
    Boundary& boundary = BoundaryFor(layer_index);
    if (!boundary.complete) {
      for (int sp = 0; sp < num_strategies_; ++sp) {
        for (int s = 0; s < num_strategies_; ++s) {
          if (!boundary.filled[static_cast<size_t>(sp) *
                                   static_cast<size_t>(num_strategies_) +
                               static_cast<size_t>(s)]) {
            GALVATRON_RETURN_IF_ERROR(
                FillElement(boundary, layer_index, sp, s));
          }
        }
      }
      boundary.complete = true;
    }
    return &boundary.r;
  }

  const CostEstimator& estimator() const { return shared_->estimator(); }

  /// The distinct-signature row of `layer_index`: layers sharing a row read
  /// bitwise-equal cost-table rows (their costs come from one slot row).
  int RowOf(int layer_index) const {
    return local_sig_[static_cast<size_t>(layer_index - first_layer_)];
  }
  int num_rows() const { return static_cast<int>(shared_sig_ids_.size()); }
  /// The first layer (model index) of distinct-signature row `row`.
  int FirstLayerOfRow(int row) const {
    return row_first_[static_cast<size_t>(row)];
  }

 private:
  struct Boundary {
    std::vector<double> r;        // scaled seconds, strategy-pair indexed
    std::vector<uint8_t> filled;  // per-element fill flags
    bool complete = false;
  };

  Boundary& BoundaryFor(int layer_index) {
    const int l = layer_index - first_layer_;
    const std::pair<int, int> key(local_sig_[static_cast<size_t>(l - 1)],
                                  local_sig_[static_cast<size_t>(l)]);
    auto [it, inserted] =
        boundary_index_.emplace(key, static_cast<int>(boundaries_.size()));
    if (inserted) {
      // Deque-like stability is not needed: no Boundary reference is held
      // across a BoundaryFor call.
      boundaries_.emplace_back(std::make_unique<Boundary>());
      Boundary& b = *boundaries_.back();
      const size_t n = static_cast<size_t>(num_strategies_) *
                       static_cast<size_t>(num_strategies_);
      b.r.assign(n, 0.0);
      b.filled.assign(n, 0);
    }
    return *boundaries_[static_cast<size_t>(it->second)];
  }

  Status FillElement(Boundary& boundary, int layer_index, int prev_strategy,
                     int strategy) {
    const size_t e = static_cast<size_t>(prev_strategy) *
                         static_cast<size_t>(num_strategies_) +
                     static_cast<size_t>(strategy);
    // Local slicing costs nothing (the value a lookup would return).
    if (IsFreeSlicing((*candidates_)[static_cast<size_t>(prev_strategy)],
                      (*candidates_)[static_cast<size_t>(strategy)])) {
      boundary.r[e] = 0.0;
      boundary.filled[e] = 1;
      return Status::OK();
    }
    const int l = layer_index - first_layer_;
    TransformCostKey key;
    key.prev_sig = shared_sig_ids_[static_cast<size_t>(
        local_sig_[static_cast<size_t>(l - 1)])];
    key.next_sig =
        shared_sig_ids_[static_cast<size_t>(local_sig_[static_cast<size_t>(l)])];
    // Keyed by transformation CLASS, not strategy identity: equal
    // (degree, batch-split) pairs share one estimator call (the
    // ComputeTransformationCost contract; see transformation.h).
    key.prev_strategy =
        TransformClassOf((*candidates_)[static_cast<size_t>(prev_strategy)]);
    key.next_strategy =
        TransformClassOf((*candidates_)[static_cast<size_t>(strategy)]);
    key.fingerprint = keys_.fingerprint[static_cast<size_t>(prev_strategy)];
    key.mb_size = mb_size_;
    GALVATRON_ASSIGN_OR_RETURN(
        double once,
        shared_->TransformSeconds(
            key, layer_index,
            (*candidates_)[static_cast<size_t>(prev_strategy)],
            (*candidates_)[static_cast<size_t>(strategy)],
            stage_first_device_));
    boundary.r[e] = 2.0 * micro_batches_ * once;
    boundary.filled[e] = 1;
    return Status::OK();
  }

  const std::vector<HybridStrategy>* candidates_;
  int first_layer_;
  int stage_first_device_;
  int batch_per_group_;
  int micro_batches_;
  int resident_micro_batches_;
  int mb_size_ = 1;
  int num_strategies_ = 0;

  SharedCostCache* shared_;
  std::unique_ptr<SharedCostCache> owned_;

  CandidateKeys& keys_;
  std::vector<int>& local_sig_;
  std::vector<int32_t>& shared_sig_ids_;
  std::vector<int>& row_first_;
  std::vector<std::optional<LayerCost>>& layer_slots_;
  std::map<std::pair<int, int>, int> boundary_index_;
  std::vector<std::unique_ptr<Boundary>> boundaries_;
};

/// The per-layer option space: every candidate strategy as-is, then
/// (when allow_recompute) every strategy's checkpointed variant. The order
/// is a convention, not a table — plain options occupy [0, num_strategies)
/// and recompute variants [num_strategies, 2 * num_strategies), so ties
/// preferring the lower option index never let a recompute variant
/// displace an equal-cost plain strategy, and option decoding is two
/// inlined expressions instead of an allocated LayerOption list.
inline int ExpandedOptionCount(int num_strategies, bool allow_recompute) {
  return allow_recompute ? 2 * num_strategies : num_strategies;
}
inline int OptionStrategy(int option, int num_strategies) {
  return option < num_strategies ? option : option - num_strategies;
}
inline bool OptionRecompute(int option, int num_strategies) {
  return option >= num_strategies;
}

/// Everything the searchers need, precomputed identically by BuildDpWork so
/// they explore the same quantized feasible set. The per-(layer, option)
/// cost tables are flat [layer * num_candidates + option] views into
/// caller storage (DpSearch::Run: thread-local scratch, see DpScratch) — no
/// nested vectors, no per-Run table allocations once a thread is warm.
struct DpWork {
  int num_candidates = 0;
  int num_strategies = 0;
  int num_layers = 0;
  int first_layer = 0;
  int budget_units = 0;
  int64_t gran = 0;
  /// Transient headroom reserved off the budget (2x the largest transient
  /// any option needs).
  int64_t max_transient = 0;
  // Quantized resident memory and scalar cost per (layer, option);
  // infeasible options (estimator errors other than OOM propagate) get
  // +inf seconds.
  const int32_t* units = nullptr;
  const double* seconds = nullptr;
};

/// Polled between layer columns: a serving deadline that expires mid-DP
/// stops the kernel within one column instead of finishing the table.
bool CancelRequested(const std::function<bool()>& cancel) {
  return cancel && cancel();
}

/// The Infeasible verdict DpSearch::Run and DenseDpSearch return when no
/// assignment fits.
Status NoAssignmentFits(int64_t memory_budget) {
  return Status::Infeasible(
      StrFormat("no strategy assignment fits %s per device",
                HumanBytes(static_cast<double>(memory_budget)).c_str()));
}

/// Argument checks shared by DpSearch::Run and the reference searchers.
Status ValidateSearch(const ModelSpec& model, int first_layer, int num_layers,
                      const std::vector<HybridStrategy>& candidates,
                      const DpSearchOptions& options, int64_t memory_budget) {
  if (options.memory_granularity <= 0) {
    return Status::InvalidArgument("memory granularity must be positive");
  }
  GALVATRON_RETURN_IF_ERROR(
      ValidateBudgetUnits(memory_budget, options.memory_granularity));
  if (num_layers < 1 || first_layer < 0 ||
      first_layer + num_layers > model.num_layers()) {
    return Status::InvalidArgument("layer range out of bounds");
  }
  if (candidates.empty()) {
    return Status::InvalidArgument("no candidate strategies");
  }
  // The option count multiplies the work of every column, so the cap
  // bounds what one request can cost. DenseDpSearch's parent table stores
  // int16 option indices and relies on it too.
  const int num_candidates = ExpandedOptionCount(
      static_cast<int>(candidates.size()), options.allow_recompute);
  if (num_candidates > std::numeric_limits<int16_t>::max()) {
    return Status::InvalidArgument(StrFormat(
        "%d expanded options exceed the search's cap of %d", num_candidates,
        static_cast<int>(std::numeric_limits<int16_t>::max())));
  }
  return Status::OK();
}

/// A layer's resident memory in granules, rounded to the nearest one and
/// saturated just past kMaxBudgetUnits: an option that large fits no
/// budget a search accepts, and per-layer sums stay far from overflow.
int32_t ResidentUnits(int64_t resident_bytes, int64_t gran) {
  return static_cast<int32_t>(
      std::min((resident_bytes + gran / 2) / gran, kMaxBudgetUnits + 1));
}

/// The prelude every searcher shares: fills the quantized per-(layer,
/// option) cost tables into `units` / `seconds` and finds the largest
/// transient (SDP weight gather) any candidate might need. Budget-free:
/// QuantizeBudget then sets the budget. `cancel` is polled between layers.
Result<DpWork> BuildCostTables(RunCostCache& cache,
                               const CostEstimator& estimator,
                               const DpSearchOptions& options,
                               int first_layer, int num_layers,
                               int num_strategies, int micro_batches,
                               const std::function<bool()>& cancel,
                               std::vector<int32_t>* units,
                               std::vector<double>* seconds) {
  DpWork w;
  w.num_strategies = num_strategies;
  w.num_candidates =
      ExpandedOptionCount(num_strategies, options.allow_recompute);
  w.num_layers = num_layers;
  w.first_layer = first_layer;
  w.gran = options.memory_granularity;
  const size_t table = static_cast<size_t>(num_layers) *
                       static_cast<size_t>(w.num_candidates);
  units->assign(table, 0);
  seconds->assign(table, kInf);
  const size_t row_size = static_cast<size_t>(w.num_candidates);
  for (int l = 0; l < num_layers; ++l) {
    if (CancelRequested(cancel)) {
      return Status::Cancelled("per-stage search cancelled");
    }
    // Layers of one distinct-signature row read one slot row of the
    // cache, so their table rows are bitwise equal: a repeat copies the
    // row's first layer.
    const int source =
        cache.FirstLayerOfRow(cache.RowOf(first_layer + l)) - first_layer;
    if (source < l) {
      const size_t from = static_cast<size_t>(source) * row_size;
      const size_t to = static_cast<size_t>(l) * row_size;
      std::copy_n(units->begin() + from, row_size, units->begin() + to);
      std::copy_n(seconds->begin() + from, row_size, seconds->begin() + to);
      continue;
    }
    for (int s = 0; s < w.num_candidates; ++s) {
      GALVATRON_ASSIGN_OR_RETURN(
          LayerCost cost,
          cache.Layer(first_layer + l, OptionStrategy(s, num_strategies),
                      OptionRecompute(s, num_strategies)));
      // x2: ZeRO-3 prefetch holds two layers' gathered weights.
      w.max_transient =
          std::max(w.max_transient, 2 * cost.transient_memory_bytes);
      const size_t e = static_cast<size_t>(l) *
                           static_cast<size_t>(w.num_candidates) +
                       static_cast<size_t>(s);
      (*units)[e] = ResidentUnits(cost.resident_memory_bytes, w.gran);
      (*seconds)[e] =
          cost.IterationSeconds(micro_batches, estimator.effective_options());
    }
  }
  w.units = units->data();
  w.seconds = seconds->data();
  return w;
}

/// The DP budget of `memory_budget`: what the transient headroom leaves,
/// in granules rounded up, or -1 when it leaves nothing. Rounding up is
/// optimistic, and safe: the optimizer re-validates marginal acceptances
/// exactly when it prices the plan, while pessimism would shrink the
/// search space below the baselines'. Budgets are validated against
/// kMaxBudgetUnits first, so the result fits an int.
int BudgetUnits(int64_t memory_budget, int64_t max_transient, int64_t gran) {
  const int64_t effective = memory_budget - max_transient;
  return effective > 0 ? static_cast<int>(CeilDiv(effective, gran)) : -1;
}

/// The verdict of a budget the transient headroom takes entirely.
Status BelowTransientHeadroom() {
  return Status::Infeasible("memory budget below transient headroom");
}

/// Sets w->budget_units for `memory_budget` (see BudgetUnits).
Status QuantizeBudget(int64_t memory_budget, DpWork* w) {
  w->budget_units = BudgetUnits(memory_budget, w->max_transient, w->gran);
  if (w->budget_units < 0) return BelowTransientHeadroom();
  return Status::OK();
}

/// BuildCostTables then QuantizeBudget: the reference searchers' prelude.
Result<DpWork> BuildDpWork(RunCostCache& cache, const CostEstimator& estimator,
                           const DpSearchOptions& options, int first_layer,
                           int num_layers, int num_strategies,
                           int micro_batches, int64_t memory_budget,
                           std::vector<int32_t>* units,
                           std::vector<double>* seconds) {
  GALVATRON_ASSIGN_OR_RETURN(
      DpWork w, BuildCostTables(cache, estimator, options, first_layer,
                                num_layers, num_strategies, micro_batches,
                                /*cancel=*/{}, units, seconds));
  GALVATRON_RETURN_IF_ERROR(QuantizeBudget(memory_budget, &w));
  return w;
}

/// Reusable per-thread workspace of the sparse kernel. Every buffer keeps
/// its capacity across Runs, so a warm thread's Run performs no heap
/// allocations on the DP path: the cost tables, the merge slots, the
/// touched list, the frontier arrays and the cache key all reuse prior
/// capacity. DpSearch::Run is const and thread-safe; the scratch is
/// thread-local, never shared.
struct DpScratch {
  RunCostStorage run_cost;
  // Flat cost tables [layer * num_candidates + option].
  std::vector<int32_t> units;
  std::vector<double> seconds;
  // Merge slots of the fused combine (see BuildSparseFrontiers): one row
  // per units level, one slot per used class, [units * used + j]. Rows are
  // lazily reset via per-units generation stamps; slot_cost/slot_parent
  // hold garbage from prior generations by design — reads are gated on
  // slot_gen.
  std::vector<double> slot_cost;
  std::vector<int32_t> slot_parent;
  std::vector<uint32_t> slot_gen;
  uint32_t generation = 0;
  std::vector<int32_t> touched;
  // Class-frontier breakpoints of every layer, structure-of-arrays, and the
  // per-(layer, option) column views over them — the layout
  // DpFrontierEntry stores, so a cold publish is four flat copies.
  std::vector<int32_t> bp_units;
  std::vector<double> bp_cost;
  std::vector<int32_t> bp_parent;
  std::vector<DpColumnSpan> spans;
  // Transformation-class grouping (see BuildSparseFrontiers): class_of maps
  // a strategy to its class, class_rep holds one representative strategy
  // per class; per layer, used_classes lists the classes some admissible
  // option needs, class_spans locates their frontiers and r_row holds one
  // predecessor's R entries toward them.
  std::vector<int32_t> class_of;
  std::vector<int32_t> class_words;
  std::vector<int32_t> class_rep;
  std::vector<uint8_t> class_used;
  std::vector<int32_t> used_classes;
  std::vector<DpColumnSpan> class_spans;
  std::vector<double> r_row;
  // Same-class domination prune, per distinct cost-table row (see
  // BuildSparseFrontiers): row_pruned[row * num_candidates + option] is
  // valid once row_built[row] is set.
  std::vector<uint8_t> row_pruned;
  std::vector<uint8_t> row_built;
  // Frontier-cache key scratch.
  DpFrontierKey key;
  std::vector<int32_t> distinct_spans;
  // Stage facts (see FillStageFacts): per distinct cost row its layer
  // count, one row's (units, seconds) points and their lower hull, and
  // the facts Run reads.
  std::vector<int32_t> row_layers;
  std::vector<std::pair<int32_t, double>> lp_points;
  std::vector<std::pair<int32_t, double>> lp_hull;
  DpStageFacts facts;
  // Cold Runs this thread answered Infeasible by the feasibility test
  // (see CurrentThreadDpInfeasibleSkips), and its stage-table lookups.
  int64_t infeasible_skipped = 0;
  StageTableCounts stage_table;
};

DpScratch& ScratchForThisThread() {
  thread_local DpScratch scratch;
  return scratch;
}

/// Builds the frontier-cache key of one Run into scratch.key: everything
/// that shapes the frontiers except the memory budget (model/cluster/
/// estimator identity is the cache owner's contract — see DpFrontierCache).
/// Layer signatures enter as ids interned by `cost_cache`, the cache the
/// frontier cache is paired with.
///
/// Two deliberate generalizations over the raw Run arguments widen sharing
/// without losing exactness:
///
/// - The layer range appends as a run-length encoding of layer-signature
///   ids, not as (first_layer, num_layers): per-layer and transformation
///   costs are memoized by signature (the SharedCostCache contract), so two
///   ranges with the same signature sequence build identical frontiers.
///   Every pipeline stage of a uniform Transformer stack collapses to one
///   encoding.
/// - The stage's position appends as the block FINGERPRINT of each distinct
///   candidate footprint (per topology level: -1 when
///   [first_device, first_device + span) sits inside one level block, else
///   first_device mod the level span), not as stage_first_device: all cost
///   lookups depend on the device block only through this fingerprint
///   (SharedCostCache::BlockFingerprint), so stages whose blocks see the
///   same links at every group shape — e.g. all P stages of an even split
///   across uniform islands — share one key and therefore one cold DP run
///   per sweep.
void BuildFrontierKey(DpScratch& scratch, SharedCostCache& cost_cache,
                      const ClusterSpec& cluster,
                      const std::vector<HybridStrategy>& candidates,
                      int first_layer, int num_layers, int stage_first_device,
                      int batch_per_group, int micro_batches,
                      int resident_micro_batches, int64_t gran,
                      bool allow_recompute) {
  DpFrontierKey& key = scratch.key;
  key.Clear();
  key.Append(batch_per_group);
  key.Append(micro_batches);
  key.Append(resident_micro_batches);
  key.Append(static_cast<int32_t>(gran & 0xffffffff));
  key.Append(static_cast<int32_t>(gran >> 32));
  key.Append(allow_recompute ? 1 : 0);
  key.Append(num_layers);

  // Layer signatures, run-length encoded; count first.
  const size_t run_count_pos = key.words.size();
  key.Append(0);
  int32_t num_runs = 0;
  int32_t run_sig = -1;
  int32_t run_len = 0;
  for (int l = 0; l < num_layers; ++l) {
    const int32_t sig = cost_cache.InternSignature(first_layer + l);
    if (sig == run_sig) {
      ++run_len;
      continue;
    }
    if (run_len > 0) {
      key.Append(run_sig);
      key.Append(run_len);
      ++num_runs;
    }
    run_sig = sig;
    run_len = 1;
  }
  if (run_len > 0) {
    key.Append(run_sig);
    key.Append(run_len);
    ++num_runs;
  }
  key.words[run_count_pos] = num_runs;

  // Candidates, structurally: equal level lists <=> equal cost behavior.
  key.Append(static_cast<int32_t>(candidates.size()));
  for (const HybridStrategy& s : candidates) {
    key.Append(s.num_levels());
    for (const ParallelComponent& level : s.levels()) {
      key.Append((static_cast<int32_t>(level.dim) << 16) | level.degree);
    }
  }

  // Block fingerprints of the distinct candidate footprints (ascending).
  std::vector<int32_t>& spans = scratch.distinct_spans;
  spans.clear();
  for (const HybridStrategy& s : candidates) {
    spans.push_back(s.TotalDegree() > 0 ? s.TotalDegree() : 1);
  }
  std::sort(spans.begin(), spans.end());
  spans.erase(std::unique(spans.begin(), spans.end()), spans.end());
  key.Append(static_cast<int32_t>(spans.size()));
  key.Append(static_cast<int32_t>(cluster.levels().size()));
  for (const int32_t span : spans) {
    key.Append(span);
    for (const TopologyLevel& level : cluster.levels()) {
      const int offset = stage_first_device % level.span;
      key.Append(offset + span <= level.span ? -1 : offset);
    }
  }
  // Heterogeneous or graph-priced clusters: the level fingerprint no longer
  // determines the costs (device throughput and graph contention depend on
  // the absolute position), so the stage position itself joins the key.
  // Homogeneous level-priced clusters keep the positionless key — their
  // cross-stage sharing is exactly why the fingerprint exists.
  if (cluster.topology() != nullptr || !cluster.HasUniformCompute()) {
    key.Append(-2);
    key.Append(stage_first_device);
  }
  key.Finalize();
}

/// DenseDpSearch's kernel: sweeps every (budget granule, option) cell.
/// dp[e][s]: min cost of the layers so far using <= e units, last layer on
/// strategy s. parent[l][e][s]: the previous layer's option index.
Result<DpSearchResult> RunDenseKernel(const DpWork& w, RunCostCache& cache,
                                      int64_t memory_budget) {
  const int num_candidates = w.num_candidates;
  const int num_layers = w.num_layers;
  const int budget_units = w.budget_units;
  DpSearchResult result;

  const size_t row = static_cast<size_t>(budget_units + 1) *
                     static_cast<size_t>(num_candidates);
  std::vector<double> prev_dp(row, kInf);
  std::vector<double> cur_dp(row, kInf);
  std::vector<int16_t> parent(static_cast<size_t>(num_layers) * row, -1);
  auto idx = [&](int e, int s) {
    return static_cast<size_t>(e) * static_cast<size_t>(num_candidates) +
           static_cast<size_t>(s);
  };
  auto cell = [&](int l, int s) {
    return static_cast<size_t>(l) * static_cast<size_t>(num_candidates) +
           static_cast<size_t>(s);
  };

  // Layer 0: no transformation, no predecessor. Options whose seconds are
  // +inf never seed a state (and are not counted) — matching the skip the
  // l>=1 loop applies.
  for (int s = 0; s < num_candidates; ++s) {
    const double c = w.seconds[cell(0, s)];
    if (c == kInf) continue;
    const int o = w.units[cell(0, s)];
    for (int e = o; e <= budget_units; ++e) {
      if (c < prev_dp[idx(e, s)]) {
        prev_dp[idx(e, s)] = c;
      }
    }
    result.states_explored += std::max(0, budget_units - o + 1);
  }

  for (int l = 1; l < num_layers; ++l) {
    std::fill(cur_dp.begin(), cur_dp.end(), kInf);
    // The boundary's transformation matrix, shared across the run's
    // repeated identical boundaries; indexed by strategy pair (recompute
    // variants share their plain twin's entries).
    GALVATRON_ASSIGN_OR_RETURN(const std::vector<double>* transform,
                               cache.BoundaryMatrix(w.first_layer + l));
    for (int s = 0; s < num_candidates; ++s) {
      const int o = w.units[cell(l, s)];
      const double c = w.seconds[cell(l, s)];
      if (c == kInf) continue;
      const int cs = OptionStrategy(s, w.num_strategies);
      for (int e = o; e <= budget_units; ++e) {
        const int pe = e - o;
        double best = kInf;
        int best_sp = -1;
        // The predecessor argmin compares prior + R; the layer's own cost
        // c is added AFTER the winner is chosen. The sparse kernel's
        // class-combined merge compares candidates at exactly this stage
        // (before + c), so the two kernels agree bit-for-bit even where
        // rounding of the final sum would collapse a strict ordering.
        // Strict < keeps the LOWEST predecessor option index on equal
        // cost: deterministic tie-breaking so the reconstructed plan is
        // byte-stable across runs and thread counts.
        for (int sp = 0; sp < num_candidates; ++sp) {
          const double prior = prev_dp[idx(pe, sp)];
          if (prior == kInf) continue;
          const double candidate =
              prior +
              (*transform)[static_cast<size_t>(
                               OptionStrategy(sp, w.num_strategies)) *
                               static_cast<size_t>(w.num_strategies) +
                           static_cast<size_t>(cs)];
          if (candidate < best) {
            best = candidate;
            best_sp = sp;
          }
        }
        ++result.states_explored;
        if (best < kInf) {
          cur_dp[idx(e, s)] = best + c;
          parent[static_cast<size_t>(l) * row + idx(e, s)] =
              static_cast<int16_t>(best_sp);
        }
      }
    }
    std::swap(prev_dp, cur_dp);
  }

  // Answer: best over strategies at the full budget. Strict < again keeps
  // the lowest option index on ties.
  double best = kInf;
  int best_s = -1;
  for (int s = 0; s < num_candidates; ++s) {
    if (prev_dp[idx(budget_units, s)] < best) {
      best = prev_dp[idx(budget_units, s)];
      best_s = s;
    }
  }
  if (best_s < 0) return NoAssignmentFits(memory_budget);

  // Reconstruct: walk parents backwards. dp uses "<= e" semantics, so the
  // exact units consumed by the suffix are recovered by subtracting each
  // chosen layer's units from the running budget.
  result.stage_seconds = best;
  result.per_layer_option.assign(static_cast<size_t>(num_layers), 0);
  if (num_candidates > w.num_strategies) {
    result.per_layer_recompute.assign(static_cast<size_t>(num_layers), 0);
  }
  int e = budget_units;
  int s = best_s;
  for (int l = num_layers - 1; l >= 0; --l) {
    result.per_layer_option[static_cast<size_t>(l)] =
        OptionStrategy(s, w.num_strategies);
    if (!result.per_layer_recompute.empty()) {
      result.per_layer_recompute[static_cast<size_t>(l)] =
          OptionRecompute(s, w.num_strategies) ? 1 : 0;
    }
    result.resident_memory_bytes +=
        static_cast<int64_t>(w.units[cell(l, s)]) * w.gran;
    if (l > 0) {
      const int sp = parent[static_cast<size_t>(l) * row + idx(e, s)];
      GALVATRON_CHECK_GE(sp, 0);
      e -= w.units[cell(l, s)];
      s = sp;
    }
  }
  return result;
}

struct SparseStats {
  int64_t breakpoints_emitted = 0;
  int64_t options_pruned = 0;
};

/// The sparse Pareto-frontier kernel's build phase. Exploits that dp[e][s]
/// is a non-increasing step function of the budget e: each column keeps
/// only its breakpoints, and layer l is computed from layer l-1's columns
/// combined per transformation class (bias R(sp, class)); every option's
/// column is then a view of its class frontier, shifted by the option's
/// units and biased by its layer cost c(l, s). Work scales with the number
/// of DISTINCT cost levels instead of the granule count. The produced
/// columns (written into scratch's structure-of-arrays buffers) yield plans
/// byte-identical to RunDenseKernel — at w.budget_units AND at every
/// smaller budget (the prefix property AnswerFromFrontiers and the frontier
/// cache rely on).
Result<SparseStats> BuildSparseFrontiers(
    const DpWork& w, RunCostCache& cache,
    const std::vector<HybridStrategy>& candidates, DpScratch& scratch,
    const std::function<bool()>& cancel) {
  const int num_candidates = w.num_candidates;
  const int num_strategies = w.num_strategies;
  const int num_layers = w.num_layers;
  const int budget_units = w.budget_units;
  SparseStats stats;

  auto cell = [&](int l, int s) {
    return static_cast<size_t>(l) * static_cast<size_t>(num_candidates) +
           static_cast<size_t>(s);
  };

  // The class grouping is a function of the candidate set alone, so it is
  // computed once per Run, not per boundary (see the combine below).
  scratch.class_of.assign(static_cast<size_t>(num_strategies), -1);
  scratch.class_words.clear();
  scratch.class_rep.clear();
  int num_classes = 0;
  for (int cs = 0; cs < num_strategies; ++cs) {
    const int32_t word = TransformClassOf(candidates[static_cast<size_t>(cs)]);
    int k = 0;
    for (; k < num_classes; ++k) {
      if (scratch.class_words[static_cast<size_t>(k)] == word) break;
    }
    if (k == num_classes) {
      scratch.class_words.push_back(word);
      scratch.class_rep.push_back(cs);
      ++num_classes;
    }
    scratch.class_of[static_cast<size_t>(cs)] = k;
  }
  auto class_of_option = [&](int s) {
    return scratch.class_of[static_cast<size_t>(
        OptionStrategy(s, num_strategies))];
  };

  // Same-class domination: an option s is dropped when a lower option
  // t < s of the same transformation class needs no more quantized units
  // and no more seconds. Equal class means bitwise-equal R rows and
  // columns (the TransformCostKey contract), so s's column is pointwise
  // no better than t's at every budget, and the lower index wins every
  // exact tie: s is never a parent and never the answer, and dropping it
  // keeps plans byte-identical (DenseDpSearch, unpruned, is the check).
  // The verdict depends only on the layer's cost-table row, so it is
  // computed once per distinct row (layers of one signature share it).
  scratch.row_pruned.resize(static_cast<size_t>(cache.num_rows()) *
                            static_cast<size_t>(num_candidates));
  scratch.row_built.assign(static_cast<size_t>(cache.num_rows()), 0);
  auto pruned_row = [&](int l) -> const uint8_t* {
    const size_t row = static_cast<size_t>(cache.RowOf(w.first_layer + l));
    uint8_t* const pruned =
        scratch.row_pruned.data() + row * static_cast<size_t>(num_candidates);
    if (scratch.row_built[row] == 0) {
      scratch.row_built[row] = 1;
      const int32_t* const units = w.units + cell(l, 0);
      const double* const seconds = w.seconds + cell(l, 0);
      for (int s = 0; s < num_candidates; ++s) {
        pruned[s] = 0;
        const int k = class_of_option(s);
        for (int t = 0; t < s; ++t) {
          if (class_of_option(t) == k && units[t] <= units[s] &&
              seconds[t] <= seconds[s]) {
            pruned[s] = 1;
            break;
          }
        }
      }
    }
    return pruned;
  };

  // Class frontiers live in contiguous structure-of-arrays buffers, one
  // layer after another; every (layer, option) column is a DpColumnSpan
  // view into them. Appends are always at the end, the combine streams
  // each array with unit-stride loads, and warm threads reuse the buffers'
  // capacity outright.
  scratch.bp_units.clear();
  scratch.bp_cost.clear();
  scratch.bp_parent.clear();
  scratch.spans.assign(static_cast<size_t>(num_layers) *
                           static_cast<size_t>(num_candidates),
                       DpColumnSpan{});
  auto span_of = [&](int l, int s) -> DpColumnSpan& {
    return scratch.spans[cell(l, s)];
  };
  // Whether option s gets a column at layer l: finite seconds, not
  // dominated (a dominated option is counted when `count` is set), and
  // within the budget on its own.
  auto admissible = [&](int l, int s, const uint8_t* pruned, bool count) {
    if (w.seconds[cell(l, s)] == kInf) return false;
    if (pruned[s] != 0) {
      if (count) ++stats.options_pruned;
      return false;
    }
    return w.units[cell(l, s)] <= budget_units;
  };

  // Layer 0: one breakpoint per admissible option — the cost is constant in
  // the budget, so the dense row [o, budget] collapses to a single step.
  // Every layer-0 column views one seed breakpoint (0 units, 0.0 cost, no
  // parent) through its own shift and bias: 0 + o and 0.0 + c are exactly
  // o and c.
  scratch.bp_units.push_back(0);
  scratch.bp_cost.push_back(0.0);
  scratch.bp_parent.push_back(-1);
  const uint8_t* const pruned0 = pruned_row(0);
  for (int s = 0; s < num_candidates; ++s) {
    if (!admissible(0, s, pruned0, /*count=*/true)) continue;
    span_of(0, s) =
        DpColumnSpan{0, 1, w.units[cell(0, s)], w.seconds[cell(0, s)]};
    ++stats.breakpoints_emitted;
  }

  // Merge scratch, shared by every layer: per units level, one slot per
  // used class holding that class's best candidate, lazily reset via
  // per-units generation stamps so clearing costs nothing. A column never
  // emits more than one breakpoint per distinct units value, and the one
  // it emits is the (cost, parent)-lexicographic minimum among that units
  // level's candidates — so bucketing candidates by units and keeping the
  // per-bucket minimum replaces a comparison sort of (units, cost, parent)
  // structs with an ordering pass over the touched units.
  const size_t num_slots = static_cast<size_t>(budget_units) + 1;
  if (scratch.slot_gen.size() < num_slots) {
    scratch.slot_gen.resize(num_slots, 0);
    scratch.touched.resize(num_slots);
  }
  const size_t slot_cells = num_slots * static_cast<size_t>(num_classes);
  if (scratch.slot_cost.size() < slot_cells) {
    scratch.slot_cost.resize(slot_cells);
    scratch.slot_parent.resize(slot_cells);
  }
  double* const slot_cost = scratch.slot_cost.data();
  int32_t* const slot_parent = scratch.slot_parent.data();
  uint32_t* const slot_gen = scratch.slot_gen.data();
  int32_t* const touched = scratch.touched.data();
  scratch.class_spans.resize(static_cast<size_t>(num_classes));
  scratch.r_row.resize(static_cast<size_t>(num_classes));
  double* const r_row = scratch.r_row.data();

  // Per layer, the merge runs in two phases instead of one merge per
  // option. Phase 1 exploits that the bias R[sp][s] depends on s only
  // through its transformation CLASS: the boundary matrix is filled from
  // cache entries keyed by (class(sp), class(s)) (RunCostCache::
  // FillElement), so strategies of equal TransformClassOf hold
  // bitwise-equal matrix columns by construction — and by the
  // ComputeTransformationCost contract (transformation.h) when no shared
  // cache is attached. One fused pass scans every predecessor breakpoint
  // once and updates the slot of every used class at its units level, so
  // each class's slots see the same sp-ascending candidate sequence a
  // per-class pass would; the touched units are then ordered once and
  // each class's lower envelope emitted as its class frontier of
  // lex-minimal (prior + R, sp) pairs. Phase 2 makes every option's column
  // a view of its class frontier, shifted by units o and biased by the
  // layer cost c — V_s(e) = W_class(s)(e - o) + c holds exactly, so no
  // second envelope pass and no copy are needed. This turns the S columns
  // x S predecessors quadratic merge into one pass over the predecessors
  // with K slot updates per breakpoint (K = used classes: ~4 on an 8-device
  // stage, ~10 on a 512-device one) plus S binary searches.
  //
  // Bit-identity with the dense kernel: both kernels compare predecessor
  // candidates as prior + R (the class frontier's stored cost) and add c
  // only after the argmin, so ordering never depends on how the final sum
  // rounds. A view's cost is computed as class cost + c, the very sum the
  // dense kernel stores. The class frontier keeps an entry on equal cost
  // with a lower sp as well — that reproduces the dense lowest-index
  // tie-break at every budget, and duplicate-cost entries after + c are
  // kept deliberately: they mark budgets where the dense parent changes
  // while the value does not.
  for (int l = 1; l < num_layers; ++l) {
    if (CancelRequested(cancel)) {
      return Status::Cancelled("per-stage DP cancelled");
    }
    GALVATRON_ASSIGN_OR_RETURN(const std::vector<double>* transform,
                               cache.BoundaryMatrix(w.first_layer + l));
    const double* const m = transform->data();
    const uint8_t* const pruned = pruned_row(l);

    // Only classes with at least one admissible option this layer are
    // combined; slot j of a units row belongs to used_classes[j]. The
    // pruned counter is phase 2's — counting here would double it.
    scratch.class_used.assign(static_cast<size_t>(num_classes), 0);
    for (int s = 0; s < num_candidates; ++s) {
      if (admissible(l, s, pruned, /*count=*/false)) {
        scratch.class_used[static_cast<size_t>(class_of_option(s))] = 1;
      }
    }
    scratch.used_classes.clear();
    for (int k = 0; k < num_classes; ++k) {
      if (scratch.class_used[static_cast<size_t>(k)] != 0) {
        scratch.used_classes.push_back(k);
      }
    }
    const int used = static_cast<int>(scratch.used_classes.size());
    if (used == 0) continue;  // no admissible option: the layer is empty

    // Phase 1: the fused combine.
    if (scratch.generation == std::numeric_limits<uint32_t>::max()) {
      std::fill(scratch.slot_gen.begin(), scratch.slot_gen.end(), 0);
      scratch.generation = 0;
    }
    const uint32_t gen = ++scratch.generation;
    int tc = 0;
    int32_t min_u = std::numeric_limits<int32_t>::max();
    int32_t max_u = -1;
    const int32_t* const arena_units = scratch.bp_units.data();
    const double* const arena_cost = scratch.bp_cost.data();
    for (int sp = 0; sp < num_candidates; ++sp) {
      const DpColumnSpan prev = span_of(l - 1, sp);
      if (prev.size == 0) continue;
      const double* const r_from =
          m + static_cast<size_t>(OptionStrategy(sp, num_strategies)) *
                  static_cast<size_t>(num_strategies);
      for (int j = 0; j < used; ++j) {
        r_row[j] = r_from[scratch.class_rep[static_cast<size_t>(
            scratch.used_classes[static_cast<size_t>(j)])]];
      }
      const int32_t* const pu = arena_units + prev.begin;
      const double* const pc = arena_cost + prev.begin;
      // Branch-free slot updates: no data-dependent branches, so the
      // compiler can unroll/vectorize and the hard-to-predict
      // cost-comparison branch stays out of the loop.
      //
      // Two invariants make the simplified update exact:
      // - `fresh` forces `better`, so the stale slot_cost reads (prior
      //   generations' leftovers, gated off by slot_gen) never affect the
      //   outcome;
      // - sp strictly ascends and each u appears at most once per sp
      //   (units are unique within a column), so an equal-cost candidate
      //   can never carry a LOWER parent than the slot — the dense
      //   tie-break needs no equality arm here.
      for (int32_t i = 0; i < prev.size; ++i) {
        const int32_t u = pu[i] + prev.shift;
        const double prior = pc[i] + prev.bias;
        const bool fresh = slot_gen[u] != gen;
        slot_gen[u] = gen;
        touched[tc] = u;
        tc += fresh;
        min_u = u < min_u ? u : min_u;
        max_u = u > max_u ? u : max_u;
        double* const row_cost = slot_cost + static_cast<size_t>(u) * used;
        int32_t* const row_parent =
            slot_parent + static_cast<size_t>(u) * used;
        for (int j = 0; j < used; ++j) {
          const double cost = prior + r_row[j];
          const bool better = fresh | (cost < row_cost[j]);
          row_cost[j] = better ? cost : row_cost[j];
          row_parent[j] = better ? sp : row_parent[j];
        }
      }
    }

    // Ascending order of the touched units, two ways: when they are dense
    // in [min_u, max_u], sweeping the range and testing generation stamps
    // is branch-friendlier and cheaper than sorting; a sparse spread falls
    // back to sorting the touched list.
    if (static_cast<int64_t>(max_u) - min_u < static_cast<int64_t>(tc) * 4) {
      int n = 0;
      for (int32_t u = min_u; u <= max_u; ++u) {
        if (slot_gen[u] == gen) touched[n++] = u;
      }
    } else {
      std::sort(touched, touched + tc);
    }

    // Lower envelope per used class over ascending units: a units level
    // extends the class frontier iff its best candidate strictly improves
    // the running best cost, or matches it through a lower predecessor
    // option index — the latter reproduces the dense kernel's lowest-index
    // tie-break at every budget, not just where the cost changes.
    for (int j = 0; j < used; ++j) {
      DpColumnSpan& out = scratch.class_spans[static_cast<size_t>(
          scratch.used_classes[static_cast<size_t>(j)])];
      out.begin = static_cast<int64_t>(scratch.bp_units.size());
      double best_cost = kInf;
      int32_t best_parent = std::numeric_limits<int32_t>::max();
      for (int t = 0; t < tc; ++t) {
        const int32_t u = touched[t];
        const size_t slot = static_cast<size_t>(u) * used + j;
        const double cost = slot_cost[slot];
        const int32_t parent = slot_parent[slot];
        if (cost < best_cost ||
            (cost == best_cost && parent < best_parent)) {
          best_cost = cost;
          best_parent = parent;
          scratch.bp_units.push_back(u);
          scratch.bp_cost.push_back(cost);
          scratch.bp_parent.push_back(parent);
        }
      }
      out.size = static_cast<int32_t>(
          static_cast<int64_t>(scratch.bp_units.size()) - out.begin);
    }

    // Phase 2: every option's column views its class frontier, shifted by
    // the option's units and biased by its layer cost. The over-budget
    // tail is cut by one upper_bound (units ascend strictly within a
    // frontier).
    for (int s = 0; s < num_candidates; ++s) {
      if (!admissible(l, s, pruned, /*count=*/true)) continue;
      const int o = w.units[cell(l, s)];
      const DpColumnSpan klass =
          scratch.class_spans[static_cast<size_t>(class_of_option(s))];
      const int32_t* const wu = scratch.bp_units.data() + klass.begin;
      const int32_t cut = static_cast<int32_t>(
          std::upper_bound(wu, wu + klass.size, budget_units - o) - wu);
      span_of(l, s) = DpColumnSpan{klass.begin, cut, o, w.seconds[cell(l, s)]};
      stats.breakpoints_emitted += cut;
    }
  }
  return stats;
}

/// A read-only view over built frontier columns — either this thread's
/// scratch (cold run) or a cached DpFrontierEntry (warm hit); both store
/// the same structure-of-arrays layout.
struct FrontierView {
  const int32_t* bp_units = nullptr;
  const double* bp_cost = nullptr;
  const int32_t* bp_parent = nullptr;
  const DpColumnSpan* spans = nullptr;
  int num_layers = 0;
  int num_strategies = 0;
  int num_candidates = 0;
};

/// Views the frontier columns held by `columns`: this thread's DpScratch or
/// a cached DpFrontierEntry, which name their arrays alike.
template <typename Columns>
FrontierView ViewOf(const Columns& columns, int num_layers,
                    int num_strategies, int num_candidates) {
  FrontierView view;
  view.bp_units = columns.bp_units.data();
  view.bp_cost = columns.bp_cost.data();
  view.bp_parent = columns.bp_parent.data();
  view.spans = columns.spans.data();
  view.num_layers = num_layers;
  view.num_strategies = num_strategies;
  view.num_candidates = num_candidates;
  return view;
}

/// The budget-free facts of a Run (see DpStageFacts) from its cost tables
/// into `*facts`.
///
/// - min_units: the feasibility test's sum. The DP's memory constraint is
///   a plain sum of per-layer units, so some assignment fits iff the one
///   taking every layer's smallest option (over options with finite
///   seconds) fits; transformation costs are finite, so the frontier
///   build finds a plan exactly when min_units <= budget_units.
/// - The LP bound's budget-free part. DpSearch::BoundStage's LP bound is the
///   LP relaxation of choosing one option per layer within the budget
///   units, transformation costs dropped (they are never negative). Layers
///   of one distinct cost row share every option's units and seconds, so
///   the work is per row: the options' (units, seconds) points reduce to
///   their lower convex hull, from the smallest-units point down to the
///   cheapest. The relaxation starts every layer at its smallest-units
///   point (base_seconds, min_units) and spends the spare units on hull
///   segments, steepest saving per unit first, the last one fractionally
///   (LpStageBound). Each row's hull is convex, so this greedy solves the
///   relaxation exactly (the multiple-choice knapsack LP), and the
///   relaxation's optimum is at most the seconds of any assignment that
///   fits — the DP's optimum included.
/// - The uniform plans' stage seconds, summed in layer order from the
///   cost tables' seconds (each one IterationSeconds of the layer cost, as
///   ComposeStage computes it; its transformations between equal
///   strategies add +0.0), and their exact peaks from the cached layer
///   costs.
void FillStageFacts(const DpWork& w, RunCostCache& cache, DpScratch& scratch,
                    DpStageFacts* facts) {
  const size_t num_rows = static_cast<size_t>(cache.num_rows());
  scratch.row_layers.assign(num_rows, 0);
  for (int l = 0; l < w.num_layers; ++l) {
    ++scratch.row_layers[static_cast<size_t>(cache.RowOf(w.first_layer + l))];
  }
  facts->max_transient = w.max_transient;
  facts->min_units = 0;
  facts->base_seconds = 0.0;
  std::vector<DpLpSegment>& segments = facts->segments;
  segments.clear();
  std::vector<std::pair<int32_t, double>>& points = scratch.lp_points;
  std::vector<std::pair<int32_t, double>>& hull = scratch.lp_hull;
  for (size_t row = 0; row < num_rows; ++row) {
    const int64_t layers = scratch.row_layers[row];
    const size_t first =
        static_cast<size_t>(cache.FirstLayerOfRow(static_cast<int>(row)) -
                            w.first_layer) *
        static_cast<size_t>(w.num_candidates);
    points.clear();
    for (int s = 0; s < w.num_candidates; ++s) {
      const double seconds = w.seconds[first + static_cast<size_t>(s)];
      if (seconds != kInf) {
        points.emplace_back(w.units[first + static_cast<size_t>(s)], seconds);
      }
    }
    if (points.empty()) {
      // No option of this row can run: no assignment fits any budget.
      facts->min_units = std::numeric_limits<int64_t>::max();
      facts->base_seconds = 0.0;
      segments.clear();
      break;
    }
    std::sort(points.begin(), points.end());
    hull.clear();
    for (const auto& p : points) {
      // Only points cheaper than every smaller-units one can be on the
      // descending hull (this also drops equal-units duplicates).
      if (!hull.empty() && p.second >= hull.back().second) continue;
      while (hull.size() >= 2) {
        const auto& a = hull[hull.size() - 2];
        const auto& b = hull.back();
        // b stays iff the saving per unit shrinks past it:
        // slope(a, b) < slope(b, p), cross-multiplied by the positive
        // units steps.
        if ((b.second - a.second) * (p.first - b.first) <
            (p.second - b.second) * (b.first - a.first)) {
          break;
        }
        hull.pop_back();
      }
      hull.push_back(p);
    }
    facts->base_seconds += static_cast<double>(layers) * hull.front().second;
    facts->min_units += layers * hull.front().first;
    for (size_t i = 1; i < hull.size(); ++i) {
      const int64_t du = hull[i].first - hull[i - 1].first;
      const double dc = hull[i].second - hull[i - 1].second;
      segments.push_back(DpLpSegment{dc / static_cast<double>(du),
                                     layers * du,
                                     static_cast<double>(layers) * dc});
    }
  }
  std::sort(segments.begin(), segments.end(),
            [](const DpLpSegment& a, const DpLpSegment& b) {
              return a.rate < b.rate;
            });

  const size_t num_strategies = static_cast<size_t>(w.num_strategies);
  facts->uniform_seconds.assign(num_strategies, 0.0);
  facts->uniform_peak_bytes.assign(num_strategies, 0);
  for (size_t c = 0; c < num_strategies; ++c) {
    double seconds = 0.0;
    for (int l = 0; l < w.num_layers; ++l) {
      seconds += w.seconds[static_cast<size_t>(l) *
                               static_cast<size_t>(w.num_candidates) +
                           c];
    }
    int64_t resident = 0;
    int64_t max_transient = 0;
    for (size_t row = 0; row < num_rows; ++row) {
      // The tables are built, so this reads the Run's cost slot.
      const LayerCost cost =
          *cache.Layer(cache.FirstLayerOfRow(static_cast<int>(row)),
                       static_cast<int>(c));
      resident += scratch.row_layers[row] * cost.resident_memory_bytes;
      max_transient =
          std::max(max_transient, 2 * cost.transient_memory_bytes);
    }
    facts->uniform_seconds[c] = seconds;
    facts->uniform_peak_bytes[c] = resident + max_transient;
  }
}

/// The LP bound of a stage at `budget_units` from its facts (see
/// FillStageFacts): the smallest-units assignment, then the hull segments
/// the spare units buy, steepest first, the last one fractionally.
/// Requires facts.min_units <= budget_units.
double LpStageBound(const DpStageFacts& facts, int64_t budget_units) {
  double lower = facts.base_seconds;
  int64_t spare = budget_units - facts.min_units;
  for (const DpLpSegment& segment : facts.segments) {
    if (spare <= 0) break;
    if (segment.units <= spare) {
      lower += segment.seconds;
      spare -= segment.units;
    } else {
      lower += segment.rate * static_cast<double>(spare);
      spare = 0;
    }
  }
  return lower;
}

/// Column `s` of layer `l` in `v`.
const DpColumnSpan& ColumnOf(const FrontierView& v, int l, int s) {
  return v.spans[static_cast<size_t>(l) *
                     static_cast<size_t>(v.num_candidates) +
                 static_cast<size_t>(s)];
}

/// Class-frontier index of column `f`'s last breakpoint with units <= e
/// (class units <= e - shift), or -1 when even the column's cheapest step
/// is over budget.
int64_t ActiveBreakpoint(const FrontierView& v, const DpColumnSpan& f,
                         int e) {
  const int32_t* begin = v.bp_units + f.begin;
  const int32_t* it = std::upper_bound(begin, begin + f.size, e - f.shift);
  return it == begin ? -1 : f.begin + (it - begin) - 1;
}

/// The optimum of built frontier columns at `budget_units`: the best
/// final-layer column at the budget. Strict < keeps the lowest option index
/// on ties, like the dense kernel.
struct FrontierOptimum {
  double seconds = kInf;
  int option = -1;  // -1: no assignment fits
};
FrontierOptimum BestFinalColumn(const FrontierView& v, int budget_units) {
  FrontierOptimum best;
  for (int s = 0; s < v.num_candidates; ++s) {
    const DpColumnSpan& f = ColumnOf(v, v.num_layers - 1, s);
    if (f.size == 0) continue;
    const int64_t bp = ActiveBreakpoint(v, f, budget_units);
    if (bp < 0) continue;
    const double cost = v.bp_cost[bp] + f.bias;
    if (cost < best.seconds) {
      best.seconds = cost;
      best.option = s;
    }
  }
  return best;
}

/// Extracts the optimal assignment at `budget_units` from built frontier
/// columns. `budget_units` may be SMALLER than the budget the columns were
/// built at: truncating a Pareto column to units <= U is identical to
/// building it at U directly (no merge decision at a level ever depends on
/// a higher level), so the answer — costs, parents, tie-breaks — is
/// byte-identical to a cold run at `budget_units`. This one routine serves
/// both the cold path (budget == build budget, where upper_bound lands on
/// the last breakpoint) and frontier-cache warm hits at near-miss budgets.
///
/// Assembly is index-based: the walk down the (breakpoint, parent) chain
/// records candidate INDICES into per_layer_option; no HybridStrategy is
/// copied here.
Result<DpSearchResult> AnswerFromFrontiers(const FrontierView& v, int64_t gran,
                                           int budget_units,
                                           int64_t memory_budget) {
  const FrontierOptimum best = BestFinalColumn(v, budget_units);
  if (best.option < 0) return NoAssignmentFits(memory_budget);
  const int num_layers = v.num_layers;

  // Reconstruct: at each layer, the breakpoint active at the remaining
  // budget names the predecessor option; subtracting the layer's units
  // (its column's shift) recovers the exact budget the prefix ran under
  // ("<= e" semantics).
  DpSearchResult result;
  result.stage_seconds = best.seconds;
  result.per_layer_option.assign(static_cast<size_t>(num_layers), 0);
  if (v.num_candidates > v.num_strategies) {
    result.per_layer_recompute.assign(static_cast<size_t>(num_layers), 0);
  }
  int e = budget_units;
  int s = best.option;
  for (int l = num_layers - 1; l >= 0; --l) {
    const DpColumnSpan& f = ColumnOf(v, l, s);
    result.per_layer_option[static_cast<size_t>(l)] =
        OptionStrategy(s, v.num_strategies);
    if (!result.per_layer_recompute.empty()) {
      result.per_layer_recompute[static_cast<size_t>(l)] =
          OptionRecompute(s, v.num_strategies) ? 1 : 0;
    }
    result.resident_memory_bytes += static_cast<int64_t>(f.shift) * gran;
    if (l > 0) {
      // The chosen breakpoint was generated from a predecessor breakpoint
      // at exactly (units - this layer's units), so the walk never falls
      // off a column's front even at truncated budgets.
      const int64_t bp = ActiveBreakpoint(v, f, e);
      GALVATRON_CHECK_GE(bp, 0);
      e -= f.shift;
      s = v.bp_parent[bp];
    }
  }
  return result;
}

/// DpSearch's shared argument checks: Run's, and StageFacts' (no budget:
/// `memory_budget` 0).
Status ValidateRun(const ModelSpec& model, int first_layer, int num_layers,
                   const std::vector<HybridStrategy>& candidates,
                   const DpSearchOptions& options, int64_t memory_budget,
                   const SearchHooks& hooks) {
  GALVATRON_RETURN_IF_ERROR(ValidateSearch(model, first_layer, num_layers,
                                           candidates, options,
                                           memory_budget));
  if (hooks.frontier_cache != nullptr && hooks.cost_cache == nullptr) {
    return Status::InvalidArgument(
        "a frontier cache needs the cost cache that interns its keys");
  }
  return Status::OK();
}

}  // namespace

Status ValidateBudgetUnits(int64_t memory_budget,
                           int64_t memory_granularity) {
  if (memory_budget > 0 &&
      CeilDiv(memory_budget, memory_granularity) > kMaxBudgetUnits) {
    return Status::InvalidArgument(StrFormat(
        "a memory budget of %s at a memory granularity of %lld bytes is "
        "%lld units, above the search's cap of %lld; use a coarser "
        "granularity",
        HumanBytes(static_cast<double>(memory_budget)).c_str(),
        static_cast<long long>(memory_granularity),
        static_cast<long long>(CeilDiv(memory_budget, memory_granularity)),
        static_cast<long long>(kMaxBudgetUnits)));
  }
  return Status::OK();
}

int64_t CurrentThreadDpInfeasibleSkips() {
  return ScratchForThisThread().infeasible_skipped;
}

StageTableCounts CurrentThreadStageTableCounts() {
  return ScratchForThisThread().stage_table;
}

DpSearch::DpSearch(const CostEstimator* estimator, DpSearchOptions options)
    : estimator_(estimator), options_(options) {
  GALVATRON_CHECK(estimator != nullptr);
  GALVATRON_CHECK_GT(options_.memory_granularity, 0);
}

Result<DpSearchResult> DpSearch::Run(
    const ModelSpec& model, int first_layer, int num_layers,
    const std::vector<HybridStrategy>& candidates, int stage_first_device,
    int batch_per_group, int micro_batches, int64_t memory_budget,
    int resident_micro_batches, const SearchHooks& hooks) const {
  const int64_t alloc_start = CurrentThreadAllocCount();
  GALVATRON_RETURN_IF_ERROR(ValidateRun(model, first_layer, num_layers,
                                        candidates, options_, memory_budget,
                                        hooks));
  DpFrontierCache* const frontier_cache = hooks.frontier_cache;
  const int num_strategies = static_cast<int>(candidates.size());
  const int num_candidates =
      ExpandedOptionCount(num_strategies, options_.allow_recompute);
  DpScratch& scratch = ScratchForThisThread();
  // Feasibility before the build, from the stage's facts: the budget must
  // cover the transient headroom, and a Run no assignment can fit returns
  // the verdict the built frontiers would have given, without building or
  // publishing them. A later Run of this signature at a larger budget
  // misses the frontier cache and builds cold, as it would anyway.
  const auto feasible = [&]() -> Status {
    const int budget_units = BudgetUnits(
        memory_budget, scratch.facts.max_transient, options_.memory_granularity);
    if (budget_units < 0) return BelowTransientHeadroom();
    if (scratch.facts.min_units > budget_units) {
      ++scratch.infeasible_skipped;
      return NoAssignmentFits(memory_budget);
    }
    return Status::OK();
  };
  bool stored = false;
  if (frontier_cache != nullptr) {
    BuildFrontierKey(scratch, *hooks.cost_cache, estimator_->cluster(),
                     candidates, first_layer, num_layers, stage_first_device,
                     batch_per_group, micro_batches, resident_micro_batches,
                     options_.memory_granularity, options_.allow_recompute);
    std::shared_ptr<const DpFrontierEntry> frontier;
    stored = frontier_cache->Find(scratch.key, &scratch.facts, &frontier);
    // The warm path: a frontier built at a budget >= this one answers
    // without touching the estimator or the kernel — the repeated
    // near-miss serving workload (identical request, different memory
    // budget) and the repeated identical pipeline stages of one sweep skip
    // the entire cold pipeline. A narrower one leaves the Run cold, which
    // publishes the wider frontier.
    if (frontier != nullptr) {
      const int budget_units = BudgetUnits(
          memory_budget, frontier->max_transient, options_.memory_granularity);
      if (budget_units <= frontier->budget_units) {
        frontier_cache->CountHit();
        if (budget_units < 0) return BelowTransientHeadroom();
        Result<DpSearchResult> out = AnswerFromFrontiers(
            ViewOf(*frontier, frontier->num_layers, frontier->num_strategies,
                   frontier->num_candidates),
            options_.memory_granularity, budget_units, memory_budget);
        if (out.ok()) {
          out->frontier_hit = true;
          out->allocations = CurrentThreadAllocCount() - alloc_start;
        }
        return out;
      }
    }
    frontier_cache->CountMiss();
    ++(stored ? scratch.stage_table.hits : scratch.stage_table.misses);
    // With the facts stored, a Run the test rejects builds no cost table.
    if (stored) GALVATRON_RETURN_IF_ERROR(feasible());
  }

  RunCostCache cache(estimator_, &model, &candidates, first_layer, num_layers,
                     stage_first_device, batch_per_group, micro_batches,
                     resident_micro_batches, hooks.cost_cache,
                     &scratch.run_cost);
  GALVATRON_ASSIGN_OR_RETURN(
      DpWork w,
      BuildCostTables(cache, *estimator_, options_, first_layer, num_layers,
                      num_strategies, micro_batches, hooks.cancel,
                      &scratch.units, &scratch.seconds));
  if (!stored) {
    FillStageFacts(w, cache, scratch, &scratch.facts);
    if (frontier_cache != nullptr) {
      frontier_cache->Insert(scratch.key, scratch.facts);
    }
    GALVATRON_RETURN_IF_ERROR(feasible());
  }
  GALVATRON_RETURN_IF_ERROR(QuantizeBudget(memory_budget, &w));
  GALVATRON_ASSIGN_OR_RETURN(
      SparseStats stats,
      BuildSparseFrontiers(w, cache, candidates, scratch, hooks.cancel));
  if (frontier_cache != nullptr) {
    auto entry = std::make_shared<DpFrontierEntry>();
    entry->budget_units = w.budget_units;
    entry->max_transient = w.max_transient;
    entry->num_layers = num_layers;
    entry->num_strategies = num_strategies;
    entry->num_candidates = num_candidates;
    entry->bp_units = scratch.bp_units;
    entry->bp_cost = scratch.bp_cost;
    entry->bp_parent = scratch.bp_parent;
    entry->spans = scratch.spans;
    frontier_cache->Insert(scratch.key, scratch.facts, std::move(entry));
  }
  Result<DpSearchResult> out = AnswerFromFrontiers(
      ViewOf(scratch, num_layers, num_strategies, num_candidates), w.gran,
      w.budget_units, memory_budget);
  if (out.ok()) {
    out->states_explored = stats.breakpoints_emitted;
    out->options_pruned = stats.options_pruned;
    out->allocations = CurrentThreadAllocCount() - alloc_start;
  }
  return out;
}

std::optional<double> DpSearch::BoundStage(const DpStageFacts& facts,
                                           const DpFrontierEntry* frontier,
                                           int64_t memory_budget) const {
  const int budget_units = BudgetUnits(memory_budget, facts.max_transient,
                                       options_.memory_granularity);
  if (budget_units < 0) return std::nullopt;
  if (frontier != nullptr && budget_units <= frontier->budget_units) {
    const FrontierOptimum best = BestFinalColumn(
        ViewOf(*frontier, frontier->num_layers, frontier->num_strategies,
               frontier->num_candidates),
        budget_units);
    if (best.option < 0) return std::nullopt;
    return best.seconds;
  }
  if (facts.min_units > budget_units) return std::nullopt;
  return LpStageBound(facts, budget_units);
}

Status DpSearch::StageFacts(
    const ModelSpec& model, int first_layer, int num_layers,
    const std::vector<HybridStrategy>& candidates, int stage_first_device,
    int batch_per_group, int micro_batches, int resident_micro_batches,
    const SearchHooks& hooks, DpStageFacts* facts,
    std::shared_ptr<const DpFrontierEntry>* frontier) const {
  GALVATRON_RETURN_IF_ERROR(ValidateRun(model, first_layer, num_layers,
                                        candidates, options_,
                                        /*memory_budget=*/0, hooks));
  DpScratch& scratch = ScratchForThisThread();
  DpFrontierCache* const store = hooks.frontier_cache;
  if (store != nullptr) {
    BuildFrontierKey(scratch, *hooks.cost_cache, estimator_->cluster(),
                     candidates, first_layer, num_layers, stage_first_device,
                     batch_per_group, micro_batches, resident_micro_batches,
                     options_.memory_granularity, options_.allow_recompute);
    const bool found = store->Find(scratch.key, facts, frontier);
    ++(found ? scratch.stage_table.hits : scratch.stage_table.misses);
    if (found) return Status::OK();
  }
  if (frontier != nullptr) frontier->reset();
  RunCostCache cache(estimator_, &model, &candidates, first_layer, num_layers,
                     stage_first_device, batch_per_group, micro_batches,
                     resident_micro_batches, hooks.cost_cache,
                     &scratch.run_cost);
  GALVATRON_ASSIGN_OR_RETURN(
      const DpWork w,
      BuildCostTables(cache, *estimator_, options_, first_layer, num_layers,
                      static_cast<int>(candidates.size()), micro_batches,
                      hooks.cancel, &scratch.units, &scratch.seconds));
  FillStageFacts(w, cache, scratch, facts);
  if (store != nullptr) store->Insert(scratch.key, *facts);
  return Status::OK();
}

Result<DpSearchResult> DenseDpSearch(
    const CostEstimator& estimator, const ModelSpec& model, int first_layer,
    int num_layers, const std::vector<HybridStrategy>& candidates,
    int stage_first_device, int batch_per_group, int micro_batches,
    int64_t memory_budget, DpSearchOptions options,
    SharedCostCache* shared_cache, int resident_micro_batches) {
  GALVATRON_RETURN_IF_ERROR(
      ValidateSearch(model, first_layer, num_layers, candidates, options,
                     memory_budget));
  RunCostStorage storage;
  RunCostCache cache(&estimator, &model, &candidates, first_layer, num_layers,
                     stage_first_device, batch_per_group, micro_batches,
                     resident_micro_batches, shared_cache, &storage);
  std::vector<int32_t> units;
  std::vector<double> seconds;
  GALVATRON_ASSIGN_OR_RETURN(
      const DpWork w,
      BuildDpWork(cache, estimator, options, first_layer, num_layers,
                  static_cast<int>(candidates.size()), micro_batches,
                  memory_budget, &units, &seconds));
  return RunDenseKernel(w, cache, memory_budget);
}

Result<DpSearchResult> BruteForceSearch(
    const CostEstimator& estimator, const ModelSpec& model, int first_layer,
    int num_layers, const std::vector<HybridStrategy>& candidates,
    int stage_first_device, int batch_per_group, int micro_batches,
    int64_t memory_budget, DpSearchOptions options,
    SharedCostCache* shared_cache) {
  GALVATRON_RETURN_IF_ERROR(
      ValidateSearch(model, first_layer, num_layers, candidates, options,
                     memory_budget));
  const int num_strategies = static_cast<int>(candidates.size());
  RunCostStorage storage;
  RunCostCache cache(&estimator, &model, &candidates, first_layer, num_layers,
                     stage_first_device, batch_per_group, micro_batches,
                     /*resident_micro_batches=*/-1, shared_cache, &storage);
  std::vector<int32_t> units;
  std::vector<double> seconds;
  GALVATRON_ASSIGN_OR_RETURN(
      const DpWork w,
      BuildDpWork(cache, estimator, options, first_layer, num_layers,
                  num_strategies, micro_batches, memory_budget, &units,
                  &seconds));
  auto cell = [&](int l, int s) {
    return static_cast<size_t>(l) * static_cast<size_t>(w.num_candidates) +
           static_cast<size_t>(s);
  };

  DpSearchResult best;
  best.stage_seconds = kInf;
  std::vector<int> assignment(static_cast<size_t>(num_layers), 0);
  std::vector<int> best_assignment;

  // Depth-first enumeration with cost/memory pruning. The >= prune keeps
  // the first optimum in option order — the lexicographically smallest
  // assignment, mirroring the DP's lowest-index tie-breaking.
  std::function<Status(int, int, double)> recurse =
      [&](int l, int used, double cost) -> Status {
    if (cost >= best.stage_seconds) return Status::OK();  // prune
    if (l == num_layers) {
      best.stage_seconds = cost;
      best_assignment = assignment;
      return Status::OK();
    }
    for (int s = 0; s < w.num_candidates; ++s) {
      const int o = units[cell(l, s)];
      if (used + o > w.budget_units) continue;
      double step = seconds[cell(l, s)];
      if (l > 0) {
        const int prev_option = assignment[static_cast<size_t>(l) - 1];
        auto r = cache.TransformSeconds(
            first_layer + l, OptionStrategy(prev_option, num_strategies),
            OptionStrategy(s, num_strategies));
        if (!r.ok()) return r.status();
        step += *r;
      }
      assignment[static_cast<size_t>(l)] = s;
      GALVATRON_RETURN_IF_ERROR(recurse(l + 1, used + o, cost + step));
    }
    return Status::OK();
  };
  GALVATRON_RETURN_IF_ERROR(recurse(0, 0, 0.0));

  if (best_assignment.empty()) {
    return Status::Infeasible("no assignment fits the budget");
  }
  for (int l = 0; l < num_layers; ++l) {
    const int s = best_assignment[static_cast<size_t>(l)];
    best.per_layer_option.push_back(OptionStrategy(s, num_strategies));
    if (options.allow_recompute) {
      best.per_layer_recompute.push_back(
          OptionRecompute(s, num_strategies) ? 1 : 0);
    }
    best.resident_memory_bytes +=
        static_cast<int64_t>(units[cell(l, s)]) * w.gran;
  }
  return best;
}

}  // namespace galvatron
