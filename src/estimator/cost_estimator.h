#ifndef GALVATRON_ESTIMATOR_COST_ESTIMATOR_H_
#define GALVATRON_ESTIMATOR_COST_ESTIMATOR_H_

#include <cstdint>
#include <vector>

#include "calibrate/profile.h"
#include "cluster/cluster.h"
#include "ir/model.h"
#include "parallel/layer_cost_model.h"
#include "parallel/plan.h"
#include "parallel/strategy.h"
#include "util/result.h"

namespace galvatron {

/// Estimator knobs (Sec 3.4). The overlap slowdown models the GPU SM
/// contention between compute kernels and NCCL collectives that previous
/// systems ignore; the paper measures ~1.3x on both sides. Disabling
/// `model_overlap_slowdown` reproduces the naive max(comp, comm) estimator
/// of Figure 3(b).
struct EstimatorOptions {
  bool model_overlap_slowdown = true;
  double overlap_slowdown = 1.3;
  /// Megatron-LM sequence parallelism for every TP region: same
  /// communication volume, activations fully sharded across the TP group.
  bool tp_sequence_parallel = false;
  /// Optional trace-fitted correction layer (src/calibrate/). When set,
  /// each communication term is multiplied by the profile's fitted scale
  /// for its (link class, collective kind, size bucket), and a non-zero
  /// fitted overlap slowdown overrides `overlap_slowdown`. Must outlive
  /// the estimator. nullptr (the default) leaves every estimate
  /// byte-identical to the uncalibrated analytic model — enforced by the
  /// CalibrationIdentity fuzz invariant.
  const calibrate::CalibrationProfile* calibration = nullptr;
};

/// Time/memory estimate of one layer under one strategy, at micro-batch
/// granularity. Fields are per device (devices of a group are symmetric).
struct LayerCost {
  /// Per micro-batch: forward compute + blocking forward collectives.
  double fwd_mb_sec = 0.0;
  /// Per micro-batch backward compute (2x forward compute).
  double bwd_compute_mb_sec = 0.0;
  /// Per micro-batch blocking backward collectives (TP all-reduce).
  double bwd_blocking_mb_sec = 0.0;
  /// Per micro-batch overlappable backward comm (SDP weight re-gather).
  double ovl_mb_sec = 0.0;
  /// Once-per-iteration overlappable comm (DP all-reduce, SDP
  /// reduce-scatter of gradients).
  double iter_comm_sec = 0.0;

  /// Resident memory with the full per-group batch (GPipe keeps every
  /// micro-batch's activations live until its backward).
  int64_t resident_memory_bytes = 0;
  int64_t transient_memory_bytes = 0;

  /// Total layer time across an iteration of `micro_batches` micro-batches,
  /// with the backward overlap model applied (Eq. below):
  ///   t = m*(fwd + bwd_blocking) + Overlap(m*bwd_compute, m*ovl + iter).
  double IterationSeconds(int micro_batches, const EstimatorOptions&) const;
};

/// Estimated cost of one pipeline stage across a full iteration.
struct StageCost {
  double seconds = 0.0;          // total stage busy time per iteration
  int64_t peak_memory_bytes = 0; // max over devices? devices symmetric: per device
  std::vector<double> per_layer_seconds;
};

/// Estimated cost of a whole plan.
struct PlanCost {
  double iteration_seconds = 0.0;
  double throughput_samples_per_sec = 0.0;
  int64_t peak_memory_bytes = 0;  // max over stages
  std::vector<StageCost> stages;
};

/// Where ComposePlanCost reads a plan from: its stage extents, each
/// layer's c(l, s) and each Slice-Gather transformation. EstimatePlan
/// answers from the estimator; the search sweep answers from its
/// SharedCostCache (CachedPlanSource). Both feed the one
/// composition, so they agree bit for bit whenever their per-layer terms do.
class PlanCostSource {
 public:
  /// Extent of one pipeline stage. `num_devices` picks the budget row of
  /// the memory check.
  struct Stage {
    int first_device = 0;
    int num_devices = 1;
    int first_layer = 0;
    int num_layers = 0;
  };

  virtual ~PlanCostSource() = default;
  virtual int num_stages() const = 0;
  virtual Stage StageAt(int stage) const = 0;
  /// c(l, s) of model layer `layer` in `stage`, at the plan's batch and the
  /// stage's in-flight micro-batch count.
  virtual Result<LayerCost> Layer(int stage, int layer) = 0;
  /// ONE Slice-Gather application entering model layer `layer` (from
  /// `layer` - 1, both in `stage`), at the plan's micro-batch size.
  virtual Result<double> TransformSeconds(int stage, int layer) = 0;
};

/// The analytic cost estimator of Sec 3.4: memory from tensor shapes,
/// compute from FLOPs over sustained device throughput, communication from
/// payload over bottleneck bandwidth, with the compute/communication
/// overlap slowdown applied in backward.
///
/// Combining rule for backward overlap: running compute and communication
/// concurrently slows both by k (= overlap_slowdown), so the overlapped
/// span costs k * min(comp, comm) and the residual runs alone:
///   Overlap(comp, comm) = max(comp, comm) + (k - 1) * min(comp, comm).
/// With modelling disabled this degrades to the classic max(comp, comm)
/// (PipeDream's choice, per the paper).
///
/// Thread-safety: all Estimate* methods are const, touch no mutable state,
/// and may be called concurrently from the parallel search sweep — provided
/// set_profile() is not called while estimates are in flight (configure the
/// estimator fully, then search).
class CostEstimator {
 public:
  /// `cluster` must outlive this object.
  CostEstimator(const ClusterSpec* cluster, EstimatorOptions options = {});

  const EstimatorOptions& options() const { return options_; }
  /// options() with the calibration profile's fitted overlap slowdown
  /// substituted in; identical to options() when no profile is installed.
  /// Pass this (not options()) to LayerCost::IterationSeconds so recombined
  /// layer costs match EstimatePlan under calibration.
  const EstimatorOptions& effective_options() const {
    return effective_options_;
  }
  const ClusterSpec& cluster() const { return *cluster_; }

  /// Feeds measured per-layer timings into the underlying cost model (the
  /// paper profiles real layer execution and estimates from it, Sec 3.4).
  /// `profile` must outlive this estimator; nullptr reverts to analytic.
  void set_profile(const ProfileTable* profile) {
    layer_model_.set_profile(profile);
  }

  /// Installs (or clears) the trace-fitted calibration profile. Same
  /// lifetime and thread-safety contract as set_profile: configure before
  /// searching. With nullptr every estimate is byte-identical to the
  /// uncalibrated estimator.
  void set_calibration(const calibrate::CalibrationProfile* calibration);
  const calibrate::CalibrationProfile* calibration() const {
    return calibration_;
  }

  /// Overlap(comp, comm) as defined above.
  double CombineOverlap(double compute_sec, double comm_sec) const;

  /// Estimates c(l, s): one layer under one strategy on the stage block
  /// starting at `stage_first_device`. `batch_per_group` is the stage's
  /// full batch; `micro_batches` divides it (1 for non-pipelined stages).
  /// `recompute` enables activation checkpointing for this layer.
  /// `resident_micro_batches` is how many micro-batches' activations stay
  /// live at peak (-1: all of them — the GPipe schedule; 1F1B caps it).
  Result<LayerCost> EstimateLayer(const LayerSpec& layer,
                                  const HybridStrategy& strategy,
                                  int stage_first_device, int batch_per_group,
                                  int micro_batches, bool recompute = false,
                                  int resident_micro_batches = -1) const;

  /// Estimates a full plan: per stage, the sum of per-layer iteration costs
  /// plus Slice-Gather transformation costs at strategy changes (2x per
  /// micro-batch: forward and its mirrored backward), then GPipe
  /// pipelining of the stage costs,
  ///   iter = sum_i u_i + (m - 1) * max_i u_i,   u_i = stage_i / m.
  /// Returns OutOfMemory if any stage exceeds its budget. `check_memory` =
  /// false skips ONLY the budget comparisons — peaks are still computed and
  /// recorded — so callers caching results across memory-budget variants
  /// (the costs never depend on the budget) can re-apply the check against
  /// their own cluster.
  Result<PlanCost> EstimatePlan(const ModelSpec& model,
                                const TrainingPlan& plan,
                                bool check_memory = true) const;

  /// The plan-cost composition EstimatePlan runs, over terms read from
  /// `source`, into `*cost`: per stage the layer iteration seconds and
  /// Slice-Gather transformations (2x per micro-batch) summed in layer
  /// order, the peak memory, then the p2p boundary transfer and the GPipe
  /// bubble formula. The plan's structure is the caller's to have
  /// validated. With `check_memory` each stage's peak is compared to its
  /// block's tightest budget before the next stage is read, exactly as
  /// EstimatePlan does, and the first stage over it ends the composition
  /// with OutOfMemory. Given `over_budget`, that stage instead sets
  /// `*over_budget` (cleared otherwise) and returns OK without building a
  /// message or allocating: the search sweep prices thousands of plans
  /// that do not fit. Every field of `*cost` is overwritten and its
  /// vectors keep their capacity, so a caller pricing many plans reuses
  /// one PlanCost; after an error or an over-budget stage its contents
  /// are unspecified.
  Status ComposePlanCost(const ModelSpec& model, int global_batch,
                         int num_micro_batches, PlanCostSource& source,
                         bool check_memory, PlanCost* cost,
                         bool* over_budget = nullptr) const;

  /// The pipeline half of ComposePlanCost: given each stage's seconds and
  /// peak in `total->stages` (one per extent), adds the p2p boundary
  /// transfers to both neighbours and fills the plan's peak, iteration
  /// seconds and throughput by the GPipe bubble formula. The sweep feeds
  /// it stage costs from its stage table (see DpStageFacts); for stage
  /// costs ComposeStage would compose, the result is ComposePlanCost's bit
  /// for bit. Fed lower bounds on the stage seconds, it bounds the
  /// throughput of every plan with those extents from above: the sweep's
  /// configuration bound. No memory check is applied.
  void ComposePipeline(const ModelSpec& model, int global_batch,
                       int num_micro_batches,
                       const std::vector<PlanCostSource::Stage>& extents,
                       PlanCost* total) const;

 private:
  /// The pipeline boundary transfer between consecutive stages `prev` and
  /// `next` across one iteration: per micro-batch, forward activations in
  /// and gradient activations back out, each a point-to-point send plus
  /// the pipeline RPC overhead, calibration applied. ComposePlanCost
  /// charges it to both neighbours.
  double BoundaryTransferSeconds(const ModelSpec& model,
                                 const PlanCostSource::Stage& prev,
                                 const PlanCostSource::Stage& next,
                                 int global_batch,
                                 int num_micro_batches) const;

  /// One stage of ComposePlanCost, into `*stage` under the same reuse and
  /// `over_budget` contract.
  Status ComposeStage(int stage_index, const PlanCostSource::Stage& extent,
                      int num_micro_batches, PlanCostSource& source,
                      bool check_memory, StageCost* stage,
                      bool* over_budget = nullptr) const;

  /// ComposePipeline over extents `extent_at(i)`, i < total->stages.size().
  template <typename ExtentAt>
  void ComposePipelineOf(const ModelSpec& model, int global_batch,
                         int num_micro_batches, ExtentAt extent_at,
                         PlanCost* total) const;

  /// task.Time() with the calibration scale applied; exactly task.Time()
  /// when no profile is installed (no multiply happens, so the result is
  /// bit-identical, not merely equal).
  double CommTaskSeconds(const CommTask& task) const;

  const ClusterSpec* cluster_;
  LayerCostModel layer_model_;
  EstimatorOptions options_;
  const calibrate::CalibrationProfile* calibration_ = nullptr;
  /// options_ with the profile's fitted overlap slowdown substituted in
  /// (a verbatim copy when calibration_ is nullptr or its slowdown unset);
  /// the copy used by CombineOverlap and IterationSeconds.
  EstimatorOptions effective_options_;
};

}  // namespace galvatron

#endif  // GALVATRON_ESTIMATOR_COST_ESTIMATOR_H_
