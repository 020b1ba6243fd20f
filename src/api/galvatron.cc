#include "api/galvatron.h"

#include <utility>

namespace galvatron {

PlanningContext::PlanningContext(ModelSpec model, ClusterSpec cluster,
                                 EstimatorOptions estimator_options)
    : model_(std::move(model)),
      cluster_(std::move(cluster)),
      estimator_(&cluster_, estimator_options),
      cache_(&estimator_, &model_) {}

Result<TrainedPlan> Galvatron::Plan(const ModelSpec& model,
                                    const ClusterSpec& cluster,
                                    const OptimizerOptions& options,
                                    const SearchHooks& hooks) {
  Optimizer optimizer(&cluster, options);
  GALVATRON_ASSIGN_OR_RETURN(OptimizationResult result,
                             optimizer.Optimize(model, hooks));
  TrainedPlan out;
  out.plan = std::move(result.plan);
  out.estimated = std::move(result.estimated);
  out.search_stats = result.stats;
  return out;
}

Result<SimMetrics> Galvatron::Measure(const ModelSpec& model,
                                      const TrainingPlan& plan,
                                      const ClusterSpec& cluster,
                                      const SimOptions& options,
                                      SimTrace* sim_trace) {
  Simulator simulator(&cluster, options);
  return simulator.Run(model, plan, sim_trace);
}

Result<TrainedPlan> Galvatron::PlanAndMeasure(
    const ModelSpec& model, const ClusterSpec& cluster,
    const OptimizerOptions& optimizer_options, const SimOptions& sim_options) {
  GALVATRON_ASSIGN_OR_RETURN(TrainedPlan result,
                             Plan(model, cluster, optimizer_options));
  GALVATRON_ASSIGN_OR_RETURN(
      result.measured, Measure(model, result.plan, cluster, sim_options));
  result.has_measurement = true;
  return result;
}

std::string Galvatron::Version() { return "galvatron-cpp 1.0.0"; }

}  // namespace galvatron
