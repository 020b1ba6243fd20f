#ifndef GALVATRON_PARALLEL_PLAN_H_
#define GALVATRON_PARALLEL_PLAN_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "ir/model.h"
#include "parallel/strategy.h"
#include "util/result.h"

namespace galvatron {

/// One pipeline stage of a training plan: a contiguous layer range mapped
/// onto a contiguous device block, with a per-layer intra-stage strategy.
struct StagePlan {
  int first_device = 0;
  int num_devices = 1;
  int first_layer = 0;
  int num_layers = 0;
  /// One strategy per layer in [first_layer, first_layer + num_layers).
  std::vector<HybridStrategy> layer_strategies;
  /// Per-layer activation checkpointing (empty = none). The paper disables
  /// recompute and leaves it as future work (Sec 5.1); this implementation
  /// supports it as an additional per-layer search dimension.
  std::vector<uint8_t> recompute;

  bool RecomputeAt(int layer_offset) const {
    return !recompute.empty() &&
           recompute[static_cast<size_t>(layer_offset)] != 0;
  }
};

/// Pipeline execution schedules. GPipe (the paper's default) flushes all
/// forwards before any backward and keeps every micro-batch's activations
/// live; 1F1B (PipeDream-Flush, the paper's "future work" alternative)
/// bounds stage s's in-flight micro-batches by (stages - s), trading no
/// extra bubble time for much lower activation memory.
enum class PipelineSchedule {
  kGPipe,
  k1F1B,
};

std::string_view PipelineScheduleToString(PipelineSchedule schedule);

/// Micro-batches whose activations stage `stage_index` of a `pp_degree`-
/// stage pipeline holds at peak: all `num_micro_batches` under GPipe,
/// min(m, pp_degree - stage_index) under 1F1B.
int InFlightMicroBatches(PipelineSchedule schedule, int num_micro_batches,
                         int pp_degree, int stage_index);

/// A complete hybrid-parallel training plan: PP stage layout, per-layer
/// strategies, global batch and micro-batch count. This is what the
/// optimizer emits and the simulator executes.
struct TrainingPlan {
  std::string model_name;
  int global_batch = 1;
  int num_micro_batches = 1;
  PipelineSchedule schedule = PipelineSchedule::kGPipe;
  std::vector<StagePlan> stages;

  /// The free InFlightMicroBatches for this plan's schedule and stages.
  int InFlightMicroBatches(int stage_index) const;

  int pp_degree() const { return static_cast<int>(stages.size()); }

  /// Samples per micro-batch (global batch split across micro-batches;
  /// every stage sees every micro-batch).
  int MicroBatchSize() const;

  /// Validates internal consistency against the model and a device count:
  /// stages cover all layers exactly once, device blocks are disjoint and
  /// within range, strategy degrees match stage widths.
  Status Validate(const ModelSpec& model, int num_devices) const;

  /// Figure-5 style rendering: one line per run of consecutive layers with
  /// the same strategy, e.g. "stage0[gpu0-3]: layers 0-15 tp2-dp2 x16".
  std::string ToString() const;
};

/// Builds the common "uniform" plan: every layer uses `strategy`, model
/// partitioned into `pp_degree` equal-device stages with `stage_layers`
/// layers per stage. Used by baselines and tests.
Result<TrainingPlan> MakeUniformPlan(const ModelSpec& model, int num_devices,
                                     int pp_degree,
                                     const std::vector<int>& stage_layers,
                                     const HybridStrategy& strategy,
                                     int global_batch, int num_micro_batches);

}  // namespace galvatron

#endif  // GALVATRON_PARALLEL_PLAN_H_
