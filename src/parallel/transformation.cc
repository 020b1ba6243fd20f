#include "parallel/transformation.h"

#include "comm/collective.h"
#include "util/math_util.h"
#include "util/string_util.h"

namespace galvatron {

Result<TransformationCost> ComputeTransformationCost(
    const LayerSpec& /*prev_layer*/, const LayerSpec& next_layer,
    const HybridStrategy& prev, const HybridStrategy& next,
    int stage_first_device, int batch_per_group, const ClusterSpec& cluster) {
  if (prev.TotalDegree() != next.TotalDegree()) {
    return Status::InvalidArgument(StrFormat(
        "strategies %s and %s occupy different group sizes (%d vs %d)",
        prev.ToString().c_str(), next.ToString().c_str(), prev.TotalDegree(),
        next.TotalDegree()));
  }

  // Same layout, or more (or equal) batch splitting downstream: every
  // device already holds a superset of the sample shard it needs — pure
  // local slicing, no communication. This covers the paper's "4-way TP ->
  // 4-way DP" example.
  TransformationCost cost;
  if (IsFreeSlicing(prev, next)) return cost;

  const int m_prev = prev.BatchSplit();
  const int m_next = next.BatchSplit();

  // Less batch splitting: each device must gather the sample shards it is
  // missing from r = m_prev / m_next peers. The gathered tensor is the
  // activation the successor layer reads at the boundary.
  const int r = m_prev / m_next;
  const int64_t needed_bytes = next_layer.input_bytes() *
                               CeilDiv(batch_per_group, m_next);
  cost.gathered_bytes = needed_bytes;
  cost.gather_group = r;

  const int group_size = prev.TotalDegree();
  if (group_size >= 2) {
    // The group is the contiguous stage block, so its extremes decide the
    // bottleneck (no device-id vector per call).
    const LinkSpec link = cluster.GroupBottleneckLink(
        stage_first_device, stage_first_device + group_size - 1);
    cost.seconds =
        CollectiveTime(CollectiveKind::kAllGather, needed_bytes, r, link);
  }
  return cost;
}

}  // namespace galvatron
