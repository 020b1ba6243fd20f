#ifndef GALVATRON_BENCH_BENCH_COMMON_H_
#define GALVATRON_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <string>

#include "api/galvatron.h"
#include "util/string_util.h"

namespace galvatron {
namespace bench {

/// One Table-1/3/4 cell: runs `kind`'s configuration search on
/// (model, cluster), executes the chosen plan on the simulator, and formats
/// "throughput (batch)" the way the paper prints it, or "OOM".
inline std::string MeasuredCell(BaselineKind kind, const ModelSpec& model,
                                const ClusterSpec& cluster,
                                const OptimizerOptions& options = {}) {
  auto result = RunBaseline(kind, model, cluster, options);
  if (!result.ok()) return "OOM";
  // Measure the winner and its per-PP-degree alternates; estimation error
  // is a few percent, so the measurement channel picks the finalist (the
  // paper validates finalists by profiling).
  double best_tput = 0;
  int best_batch = 0;
  std::vector<const TrainingPlan*> plans = {&result->plan};
  for (const TrainingPlan& alt : result->alternates) plans.push_back(&alt);
  for (const TrainingPlan* plan : plans) {
    auto metrics = Galvatron::Measure(model, *plan, cluster);
    if (!metrics.ok() || metrics->oom) continue;
    if (metrics->throughput_samples_per_sec > best_tput) {
      best_tput = metrics->throughput_samples_per_sec;
      best_batch = plan->global_batch;
    }
  }
  if (best_tput == 0) return "OOM";
  return StrFormat("%.2f (%d)", best_tput, best_batch);
}

/// Parses the throughput back out of a MeasuredCell string (0 for OOM).
inline double CellThroughput(const std::string& cell) {
  if (cell == "OOM" || cell.rfind("error", 0) == 0) return 0.0;
  return std::atof(cell.c_str());
}

}  // namespace bench
}  // namespace galvatron

#endif  // GALVATRON_BENCH_BENCH_COMMON_H_
