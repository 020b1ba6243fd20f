#ifndef GALVATRON_PARALLEL_TRANSFORMATION_H_
#define GALVATRON_PARALLEL_TRANSFORMATION_H_

#include <cstdint>

#include "cluster/cluster.h"
#include "ir/layer.h"
#include "parallel/strategy.h"
#include "util/result.h"

namespace galvatron {

/// The Slice-Gather transformation cost R(L, S_prev, S_next) of Eq. (1) /
/// Sec 4: when two neighbouring layers use different strategies, the
/// previous layer's output activation must be re-laid-out for the next
/// layer.
///
/// At a layer boundary the activation of a group running strategy S is
/// batch-split m = dp*sdp ways and replicated across the remaining t ranks
/// (TP's trailing all-reduce leaves boundary activations replicated inside
/// the TP group). Moving to a layout with more batch splitting
/// (m_next >= m_prev) only requires local slicing — zero communication;
/// this includes the paper's "4-way TP -> 4-way DP" free case. Moving to
/// less batch splitting requires gathering the missing sample shards:
/// an all-gather of the next layer's input across groups of
/// r = m_prev / m_next devices.
struct TransformationCost {
  int64_t gathered_bytes = 0;  // bytes each device must end up with
  int gather_group = 1;        // r above; 1 means free slicing
  double seconds = 0.0;
};

/// Computes R for the boundary between `prev_layer` (running `prev`) and
/// `next_layer` (running `next`) on a stage block starting at
/// `stage_first_device`. `batch_per_group` is the stage's batch. The tensor
/// being re-laid-out is the activation the successor consumes
/// (`next_layer.input_bytes()`), so R depends on BOTH boundary layers —
/// caches must key on both signatures.
///
/// CONTRACT (load-bearing for SharedCostCache::TransformSeconds): the
/// result depends on the strategies ONLY through TotalDegree() (the
/// group-size validation and the bottleneck-link scan) and BatchSplit()
/// (m_prev / m_next). Strategies agreeing on both are interchangeable
/// here — the equal-strategy early-out is subsumed, since prev == next
/// implies m_next >= m_prev, the zero-cost branch. The shared cost cache
/// keys transformation entries by those two scalars instead of by full
/// strategy identity, collapsing the O(S^2) strategy-pair matrix to the
/// handful of distinct (degree, batch-split) classes; widening this
/// function's strategy dependence requires widening that key in step.
/// True when R(L, prev, next) is zero whatever the layers, block and
/// batch: equal group sizes and no less batch splitting downstream, so the
/// re-layout is local slicing. ComputeTransformationCost returns zero
/// seconds for exactly these pairs; callers may skip it for them.
inline bool IsFreeSlicing(const HybridStrategy& prev,
                          const HybridStrategy& next) {
  return prev.TotalDegree() == next.TotalDegree() &&
         next.BatchSplit() >= prev.BatchSplit();
}

Result<TransformationCost> ComputeTransformationCost(
    const LayerSpec& prev_layer, const LayerSpec& next_layer,
    const HybridStrategy& prev, const HybridStrategy& next,
    int stage_first_device, int batch_per_group, const ClusterSpec& cluster);

}  // namespace galvatron

#endif  // GALVATRON_PARALLEL_TRANSFORMATION_H_
