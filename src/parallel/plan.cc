#include "parallel/plan.h"

#include <algorithm>
#include <numeric>
#include <sstream>

#include "util/math_util.h"
#include "util/string_util.h"

namespace galvatron {

std::string_view PipelineScheduleToString(PipelineSchedule schedule) {
  switch (schedule) {
    case PipelineSchedule::kGPipe:
      return "gpipe";
    case PipelineSchedule::k1F1B:
      return "1f1b";
  }
  return "?";
}

int InFlightMicroBatches(PipelineSchedule schedule, int num_micro_batches,
                         int pp_degree, int stage_index) {
  if (schedule == PipelineSchedule::kGPipe) return num_micro_batches;
  const int cap = pp_degree - stage_index;
  return std::min(num_micro_batches, std::max(cap, 1));
}

int TrainingPlan::InFlightMicroBatches(int stage_index) const {
  return galvatron::InFlightMicroBatches(schedule, num_micro_batches,
                                         pp_degree(), stage_index);
}

int TrainingPlan::MicroBatchSize() const {
  return static_cast<int>(CeilDiv(global_batch, num_micro_batches));
}

Status TrainingPlan::Validate(const ModelSpec& model, int num_devices) const {
  if (stages.empty()) return Status::InvalidArgument("plan has no stages");
  if (global_batch < 1 || num_micro_batches < 1) {
    return Status::InvalidArgument("batch and micro-batch count must be >= 1");
  }
  if (num_micro_batches > global_batch) {
    return Status::InvalidArgument(
        "more micro-batches than samples in the batch");
  }

  int next_layer = 0;
  int next_device = 0;
  for (size_t s = 0; s < stages.size(); ++s) {
    const StagePlan& stage = stages[s];
    if (stage.first_layer != next_layer) {
      return Status::InvalidArgument(
          StrFormat("stage %zu does not start at layer %d", s, next_layer));
    }
    if (stage.num_layers < 1) {
      return Status::InvalidArgument(StrFormat("stage %zu is empty", s));
    }
    if (stage.first_device != next_device) {
      return Status::InvalidArgument(StrFormat(
          "stage %zu does not start at device %d", s, next_device));
    }
    if (static_cast<int>(stage.layer_strategies.size()) != stage.num_layers) {
      return Status::InvalidArgument(StrFormat(
          "stage %zu has %zu strategies for %d layers", s,
          stage.layer_strategies.size(), stage.num_layers));
    }
    if (!stage.recompute.empty() &&
        static_cast<int>(stage.recompute.size()) != stage.num_layers) {
      return Status::InvalidArgument(StrFormat(
          "stage %zu has %zu recompute flags for %d layers", s,
          stage.recompute.size(), stage.num_layers));
    }
    for (const HybridStrategy& strategy : stage.layer_strategies) {
      if (strategy.TotalDegree() != stage.num_devices) {
        return Status::InvalidArgument(StrFormat(
            "stage %zu strategy %s does not span its %d devices", s,
            strategy.ToString().c_str(), stage.num_devices));
      }
    }
    next_layer += stage.num_layers;
    next_device += stage.num_devices;
  }
  if (next_layer != model.num_layers()) {
    return Status::InvalidArgument(StrFormat(
        "plan covers %d of %d layers", next_layer, model.num_layers()));
  }
  if (next_device != num_devices) {
    return Status::InvalidArgument(StrFormat(
        "plan occupies %d of %d devices", next_device, num_devices));
  }
  return Status::OK();
}

std::string TrainingPlan::ToString() const {
  std::ostringstream os;
  os << "plan for " << model_name << ": batch " << global_batch << ", "
     << num_micro_batches << " micro-batch(es), PP degree " << pp_degree()
     << "\n";
  for (size_t s = 0; s < stages.size(); ++s) {
    const StagePlan& stage = stages[s];
    os << "  stage" << s << "[gpu" << stage.first_device << "-"
       << stage.first_device + stage.num_devices - 1 << "]:";
    // Compress runs of identical (strategy, recompute) pairs (the paper's
    // "xN" notation, "+ckpt" marking checkpointed layers).
    int i = 0;
    while (i < stage.num_layers) {
      int j = i;
      while (j < stage.num_layers &&
             stage.layer_strategies[static_cast<size_t>(j)] ==
                 stage.layer_strategies[static_cast<size_t>(i)] &&
             stage.RecomputeAt(j) == stage.RecomputeAt(i)) {
        ++j;
      }
      os << " "
         << stage.layer_strategies[static_cast<size_t>(i)].ToString();
      if (stage.RecomputeAt(i)) os << "+ckpt";
      os << " x" << (j - i);
      i = j;
    }
    os << "\n";
  }
  return os.str();
}

Result<TrainingPlan> MakeUniformPlan(const ModelSpec& model, int num_devices,
                                     int pp_degree,
                                     const std::vector<int>& stage_layers,
                                     const HybridStrategy& strategy,
                                     int global_batch, int num_micro_batches) {
  if (pp_degree < 1 || num_devices % pp_degree != 0) {
    return Status::InvalidArgument(StrFormat(
        "pp degree %d does not divide %d devices", pp_degree, num_devices));
  }
  if (static_cast<int>(stage_layers.size()) != pp_degree) {
    return Status::InvalidArgument("stage_layers size != pp_degree");
  }
  const int devices_per_stage = num_devices / pp_degree;
  if (strategy.TotalDegree() != devices_per_stage) {
    return Status::InvalidArgument(StrFormat(
        "strategy %s spans %d devices but stages have %d",
        strategy.ToString().c_str(), strategy.TotalDegree(),
        devices_per_stage));
  }
  const int total_layers =
      std::accumulate(stage_layers.begin(), stage_layers.end(), 0);
  if (total_layers != model.num_layers()) {
    return Status::InvalidArgument(StrFormat(
        "stage layer counts sum to %d, model has %d", total_layers,
        model.num_layers()));
  }

  TrainingPlan plan;
  plan.model_name = model.name();
  plan.global_batch = global_batch;
  plan.num_micro_batches = num_micro_batches;
  int layer = 0;
  for (int s = 0; s < pp_degree; ++s) {
    StagePlan stage;
    stage.first_device = s * devices_per_stage;
    stage.num_devices = devices_per_stage;
    stage.first_layer = layer;
    stage.num_layers = stage_layers[static_cast<size_t>(s)];
    stage.layer_strategies.assign(
        static_cast<size_t>(stage.num_layers), strategy);
    layer += stage.num_layers;
    plan.stages.push_back(std::move(stage));
  }
  GALVATRON_RETURN_IF_ERROR(plan.Validate(model, num_devices));
  return plan;
}

}  // namespace galvatron
