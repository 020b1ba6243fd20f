#include "estimator/cost_estimator.h"

#include <algorithm>
#include <utility>

#include "parallel/transformation.h"
#include "util/logging.h"
#include "util/math_util.h"
#include "util/string_util.h"

namespace galvatron {

double LayerCost::IterationSeconds(int micro_batches,
                                   const EstimatorOptions& options) const {
  const double m = micro_batches;
  const double comp = m * bwd_compute_mb_sec;
  const double comm = m * ovl_mb_sec + iter_comm_sec;
  double bwd;
  if (options.model_overlap_slowdown) {
    bwd = std::max(comp, comm) +
          (options.overlap_slowdown - 1.0) * std::min(comp, comm);
  } else {
    bwd = std::max(comp, comm);
  }
  return m * (fwd_mb_sec + bwd_blocking_mb_sec) + bwd;
}

CostEstimator::CostEstimator(const ClusterSpec* cluster,
                             EstimatorOptions options)
    : cluster_(cluster), layer_model_(cluster), options_(options),
      effective_options_(options) {
  GALVATRON_CHECK(cluster != nullptr);
  set_calibration(options.calibration);
}

void CostEstimator::set_calibration(
    const calibrate::CalibrationProfile* calibration) {
  calibration_ = calibration;
  effective_options_ = options_;
  if (calibration_ != nullptr && calibration_->overlap_slowdown > 0.0) {
    effective_options_.overlap_slowdown = calibration_->overlap_slowdown;
  }
}

double CostEstimator::CommTaskSeconds(const CommTask& task) const {
  const double analytic = task.Time();
  if (calibration_ == nullptr) return analytic;
  return analytic *
         calibration_->CommScale(task.link.cls, task.kind, task.bytes);
}

double CostEstimator::CombineOverlap(double compute_sec,
                                     double comm_sec) const {
  if (!effective_options_.model_overlap_slowdown) {
    return std::max(compute_sec, comm_sec);
  }
  return std::max(compute_sec, comm_sec) +
         (effective_options_.overlap_slowdown - 1.0) *
             std::min(compute_sec, comm_sec);
}

Result<LayerCost> CostEstimator::EstimateLayer(
    const LayerSpec& layer, const HybridStrategy& strategy,
    int stage_first_device, int batch_per_group, int micro_batches,
    bool recompute, int resident_micro_batches) const {
  if (micro_batches < 1 || micro_batches > batch_per_group) {
    return Status::InvalidArgument(StrFormat(
        "micro_batches %d invalid for batch %d", micro_batches,
        batch_per_group));
  }
  if (resident_micro_batches < 0 || resident_micro_batches > micro_batches) {
    resident_micro_batches = micro_batches;
  }
  const int mb_size =
      static_cast<int>(CeilDiv(batch_per_group, micro_batches));

  // Per-micro-batch timing and memory; the schedule keeps
  // `resident_micro_batches` micro-batches' activations live simultaneously,
  // so resident memory scales the per-micro-batch activation stash by that
  // count — exactly how the simulator charges it. (Analyzing once at
  // mb_size * resident samples is NOT equivalent: it rounds the per-device
  // batch up once instead of per micro-batch, and it scales the recompute
  // transient by the resident count even though only one micro-batch's
  // internals are ever rebuilt at a time.)
  GALVATRON_ASSIGN_OR_RETURN(
      LayerExecution mb,
      layer_model_.Analyze(layer, strategy, stage_first_device, mb_size,
                           recompute, options_.tp_sequence_parallel));

  LayerCost cost;
  cost.fwd_mb_sec = mb.fwd_compute_sec;
  for (const CommTask& task : mb.fwd_comms) {
    cost.fwd_mb_sec += CommTaskSeconds(task);  // forward comms all block
  }
  cost.bwd_compute_mb_sec = mb.bwd_compute_sec;
  for (const CommTask& task : mb.bwd_comms) {
    if (!task.overlappable) {
      cost.bwd_blocking_mb_sec += CommTaskSeconds(task);
    } else if (task.frequency == CommFrequency::kPerMicroBatch) {
      cost.ovl_mb_sec += CommTaskSeconds(task);
    } else {
      cost.iter_comm_sec += CommTaskSeconds(task);
    }
  }
  cost.resident_memory_bytes =
      mb.state_memory_bytes +
      static_cast<int64_t>(resident_micro_batches) *
          mb.activation_memory_bytes;
  cost.transient_memory_bytes = mb.transient_memory_bytes;
  return cost;
}

namespace {

/// The estimator's own answers for stages given by explicit per-layer
/// strategies: the source of EstimatePlan.
class StrategySource : public PlanCostSource {
 public:
  struct StageView {
    Stage extent;
    const std::vector<HybridStrategy>* strategies = nullptr;
    const std::vector<uint8_t>* recompute = nullptr;  // empty = none
    int resident_micro_batches = -1;
  };

  StrategySource(const CostEstimator* estimator, const ModelSpec* model,
                 std::vector<StageView> stages, int batch_per_group,
                 int micro_batches)
      : estimator_(estimator),
        model_(model),
        stages_(std::move(stages)),
        batch_per_group_(batch_per_group),
        micro_batches_(micro_batches) {}

  int num_stages() const override { return static_cast<int>(stages_.size()); }
  Stage StageAt(int stage) const override {
    return stages_[static_cast<size_t>(stage)].extent;
  }

  Result<LayerCost> Layer(int stage, int layer) override {
    const StageView& view = stages_[static_cast<size_t>(stage)];
    const size_t i = static_cast<size_t>(layer - view.extent.first_layer);
    return estimator_->EstimateLayer(
        model_->layer(layer), (*view.strategies)[i], view.extent.first_device,
        batch_per_group_, micro_batches_,
        !view.recompute->empty() && (*view.recompute)[i] != 0,
        view.resident_micro_batches);
  }

  Result<double> TransformSeconds(int stage, int layer) override {
    const StageView& view = stages_[static_cast<size_t>(stage)];
    const size_t i = static_cast<size_t>(layer - view.extent.first_layer);
    GALVATRON_ASSIGN_OR_RETURN(
        TransformationCost transform,
        ComputeTransformationCost(
            model_->layer(layer - 1), model_->layer(layer),
            (*view.strategies)[i - 1], (*view.strategies)[i],
            view.extent.first_device,
            static_cast<int>(CeilDiv(batch_per_group_, micro_batches_)),
            estimator_->cluster()));
    return transform.seconds;
  }

 private:
  const CostEstimator* estimator_;
  const ModelSpec* model_;
  std::vector<StageView> stages_;
  int batch_per_group_;
  int micro_batches_;
};

}  // namespace

Status CostEstimator::ComposeStage(int stage_index,
                                   const PlanCostSource::Stage& extent,
                                   int num_micro_batches,
                                   PlanCostSource& source, bool check_memory,
                                   StageCost* stage, bool* over_budget) const {
  stage->seconds = 0.0;
  stage->per_layer_seconds.clear();
  stage->per_layer_seconds.reserve(static_cast<size_t>(extent.num_layers));
  int64_t resident = 0;
  int64_t max_transient = 0;
  for (int i = 0; i < extent.num_layers; ++i) {
    const int layer = extent.first_layer + i;
    GALVATRON_ASSIGN_OR_RETURN(LayerCost cost,
                               source.Layer(stage_index, layer));
    const double seconds =
        cost.IterationSeconds(num_micro_batches, effective_options_);
    stage->per_layer_seconds.push_back(seconds);
    stage->seconds += seconds;
    resident += cost.resident_memory_bytes;
    // ZeRO-3 prefetching keeps the gathered weights of two layers live
    // (current + prefetched next), so reserve twice the largest transient.
    max_transient = std::max(max_transient, 2 * cost.transient_memory_bytes);

    if (i > 0) {
      // Slice-Gather at the strategy boundary, forward and backward, per
      // micro-batch.
      GALVATRON_ASSIGN_OR_RETURN(const double once,
                                 source.TransformSeconds(stage_index, layer));
      stage->seconds += 2.0 * num_micro_batches * once;
    }
  }
  stage->peak_memory_bytes = resident + max_transient;
  if (check_memory) {
    // Heterogeneous clusters: the stage is limited by its tightest device.
    const int64_t budget =
        cluster_->MinMemoryInRange(extent.first_device, extent.num_devices);
    if (stage->peak_memory_bytes > budget) {
      if (over_budget != nullptr) {
        *over_budget = true;
        return Status::OK();
      }
      return Status::OutOfMemory(StrFormat(
          "stage needs %s but budget is %s",
          HumanBytes(static_cast<double>(stage->peak_memory_bytes)).c_str(),
          HumanBytes(static_cast<double>(budget)).c_str()));
    }
  }
  return Status::OK();
}

Result<PlanCost> CostEstimator::EstimatePlan(const ModelSpec& model,
                                             const TrainingPlan& plan,
                                             bool check_memory) const {
  GALVATRON_RETURN_IF_ERROR(plan.Validate(model, cluster_->num_devices()));
  std::vector<StrategySource::StageView> stages;
  stages.reserve(plan.stages.size());
  for (const StagePlan& stage : plan.stages) {
    stages.push_back(
        {{stage.first_device, stage.num_devices, stage.first_layer,
          stage.num_layers},
         &stage.layer_strategies,
         &stage.recompute,
         plan.InFlightMicroBatches(static_cast<int>(stages.size()))});
  }
  StrategySource source(this, &model, std::move(stages), plan.global_batch,
                        plan.num_micro_batches);
  PlanCost cost;
  GALVATRON_RETURN_IF_ERROR(ComposePlanCost(model, plan.global_batch,
                                            plan.num_micro_batches, source,
                                            check_memory, &cost));
  return cost;
}

template <typename ExtentAt>
void CostEstimator::ComposePipelineOf(const ModelSpec& model,
                                      int global_batch, int num_micro_batches,
                                      ExtentAt extent_at,
                                      PlanCost* total) const {
  total->peak_memory_bytes = 0;
  double sum_u = 0.0;
  double max_u = 0.0;
  PlanCostSource::Stage prev;
  for (size_t i = 0; i < total->stages.size(); ++i) {
    const PlanCostSource::Stage stage = extent_at(static_cast<int>(i));
    StageCost& cost = total->stages[i];
    if (i > 0) {
      // The DP search excludes the boundary transfer (Sec 3.3, "we exclude
      // the boundary layers' activation transferring costs"); the
      // plan-level estimate includes it so pipelining is not free.
      const double p2p = BoundaryTransferSeconds(model, prev, stage,
                                                 global_batch,
                                                 num_micro_batches);
      // The transfer occupies both neighbours' comm streams.
      StageCost& before = total->stages[i - 1];
      cost.seconds += p2p;
      before.seconds += p2p;
      sum_u += p2p / num_micro_batches;
      max_u = std::max(max_u, before.seconds / num_micro_batches);
    }
    const double u = cost.seconds / num_micro_batches;
    sum_u += u;
    max_u = std::max(max_u, u);
    total->peak_memory_bytes =
        std::max(total->peak_memory_bytes, cost.peak_memory_bytes);
    prev = stage;
  }
  // GPipe schedule: fill/drain bubbles cost (m - 1) extra slots of the
  // bottleneck stage.
  total->iteration_seconds = sum_u + (num_micro_batches - 1) * max_u;
  total->throughput_samples_per_sec = global_batch / total->iteration_seconds;
}

Status CostEstimator::ComposePlanCost(const ModelSpec& model,
                                      int global_batch, int num_micro_batches,
                                      PlanCostSource& source,
                                      bool check_memory, PlanCost* total,
                                      bool* over_budget) const {
  if (over_budget != nullptr) *over_budget = false;
  total->stages.resize(static_cast<size_t>(source.num_stages()));
  for (int i = 0; i < source.num_stages(); ++i) {
    GALVATRON_RETURN_IF_ERROR(
        ComposeStage(i, source.StageAt(i), num_micro_batches, source,
                     check_memory, &total->stages[static_cast<size_t>(i)],
                     over_budget));
    if (over_budget != nullptr && *over_budget) return Status::OK();
  }
  ComposePipelineOf(model, global_batch, num_micro_batches,
                    [&source](int i) { return source.StageAt(i); }, total);
  return Status::OK();
}

void CostEstimator::ComposePipeline(
    const ModelSpec& model, int global_batch, int num_micro_batches,
    const std::vector<PlanCostSource::Stage>& extents, PlanCost* total) const {
  ComposePipelineOf(model, global_batch, num_micro_batches,
                    [&extents](int i) {
                      return extents[static_cast<size_t>(i)];
                    },
                    total);
}

double CostEstimator::BoundaryTransferSeconds(
    const ModelSpec& model, const PlanCostSource::Stage& prev,
    const PlanCostSource::Stage& next, int global_batch,
    int num_micro_batches) const {
  const LinkSpec& link = cluster_->LinkBetween(
      prev.first_device + prev.num_devices - 1, next.first_device);
  const int64_t bytes =
      model.layer(next.first_layer).input_bytes() *
      static_cast<int>(CeilDiv(global_batch, num_micro_batches));
  double once = CollectiveTime(CollectiveKind::kPointToPoint, bytes, 2, link) +
                cluster_->pipeline_rpc_overhead_sec();
  if (calibration_ != nullptr) {
    once *= calibration_->CommScale(link.cls, CollectiveKind::kPointToPoint,
                                    bytes);
  }
  return 2.0 * num_micro_batches * once;
}

}  // namespace galvatron
