#ifndef GALVATRON_BASELINES_BASELINES_H_
#define GALVATRON_BASELINES_BASELINES_H_

#include <string>
#include <string_view>
#include <vector>

#include "cluster/cluster.h"
#include "ir/model.h"
#include "search/optimizer.h"
#include "util/result.h"

namespace galvatron {

/// The competing systems of Table 1/3/4 (Sec 5.1), re-implemented over the
/// same cost substrate:
///   - kPureDp:   PyTorch DDP — N-way data parallelism.
///   - kPureTp:   Megatron — N-way tensor parallelism.
///   - kPurePp:   PyTorch GPipe — N-way pipeline parallelism.
///   - kPureSdp:  FairScale FSDP / DeepSpeed ZeRO-3 — N-way sharded DP.
///   - kDeepSpeed3d: the expert-designed fixed 3D combination (2-way
///     DP x TP x PP on 8 GPUs, scaled as dp = N/4 beyond).
///   - kAutoDpTp: automatic search restricted to DP+TP (OptCNN/FlexFlow-
///     style, "Galvatron (DP+TP)").
///   - kAutoDpPp: automatic search restricted to DP+PP (PipeDream/DAPPLE-
///     style, "Galvatron (DP+PP)").
///   - kGalvatron: the full search.
enum class BaselineKind {
  kPureDp,
  kPureTp,
  kPurePp,
  kPureSdp,
  kDeepSpeed3d,
  kAutoDpTp,
  kAutoDpPp,
  kGalvatron,
};

std::string_view BaselineKindToString(BaselineKind kind);
std::vector<BaselineKind> AllBaselineKinds();

/// Finds `kind`'s best feasible configuration on (model, cluster): sweeps
/// the batch size (and micro-batches / partitioning where applicable) and
/// returns the plan maximizing estimated throughput. Returns Infeasible
/// when nothing fits — the "OOM" cells of Table 1. The searched kinds run
/// the optimizer with `options`, restricted to their tree and PP degrees;
/// the fixed-strategy kinds read its estimator, batch loop, partition
/// policy and micro-batch multipliers.
Result<OptimizationResult> RunBaseline(BaselineKind kind,
                                       const ModelSpec& model,
                                       const ClusterSpec& cluster,
                                       const OptimizerOptions& options = {});

}  // namespace galvatron

#endif  // GALVATRON_BASELINES_BASELINES_H_
