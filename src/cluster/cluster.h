#ifndef GALVATRON_CLUSTER_CLUSTER_H_
#define GALVATRON_CLUSTER_CLUSTER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cluster/link.h"
#include "topology/topology.h"
#include "util/result.h"
#include "util/status.h"

namespace galvatron {

/// One GPU. `sustained_flops` is the achievable dense-matmul throughput,
/// not the datasheet peak; `small_batch_half_life` 0 inherits the
/// cluster-wide default (see ClusterSpec::small_batch_half_life). Mixed
/// generations give different devices different values.
struct Device {
  int id = 0;
  int64_t memory_bytes = 0;    // usable budget E (the paper varies this)
  double sustained_flops = 0;  // FLOP/s achievable on dense kernels
  double small_batch_half_life = 0;  // 0 = cluster default
};

/// One level of the bandwidth hierarchy: devices whose ids fall in the same
/// contiguous block of `span` share this link (and all faster inner links).
/// Levels are ordered innermost (smallest span, fastest) to outermost; the
/// last level spans the whole cluster.
struct TopologyLevel {
  int span = 0;
  LinkSpec link;
};

/// A GPU cluster with a hierarchical interconnect.
///
/// Device ids are 0..n-1 and the hierarchy is expressed by contiguous
/// blocks: e.g. 16 GPUs as {span 8, PCIe3}, {span 16, IB} means ids 0-7 and
/// 8-15 are the two PCIe "islands" bridged by InfiniBand — exactly the
/// island structure Takeaway #1 keys on. A cluster may additionally carry
/// an explicit TopologyGraph (CreateFromTopology / WithTopology); link
/// queries then price over the graph's crossed edges instead of the
/// innermost containing level, and devices may differ in throughput and
/// memory per island. Clusters without a graph price exactly as before.
class ClusterSpec {
 public:
  /// Validates and builds a cluster. Errors if spans are not ascending,
  /// not divisors of each other, or the last span != num_devices.
  static Result<ClusterSpec> Create(std::string name, int num_devices,
                                    int64_t device_memory_bytes,
                                    double sustained_flops,
                                    std::vector<TopologyLevel> levels);

  /// Builds a cluster from per-device tables in one pass: device i gets
  /// `memory_bytes[i]`, `device_flops[i]` and `device_half_life[i]`. Empty
  /// compute arrays give every device `sustained_flops` and the cluster
  /// default half-life (0). Equivalent to Create followed by one
  /// WithDeviceMemoryRange / WithDeviceComputeRange per differing device,
  /// without copying the cluster per call. Levels are validated as in
  /// Create; non-empty compute arrays must hold one entry per device.
  static Result<ClusterSpec> CreateWithDevices(
      std::string name, const std::vector<int64_t>& memory_bytes,
      double sustained_flops, const std::vector<double>& device_flops,
      const std::vector<double>& device_half_life,
      std::vector<TopologyLevel> levels);

  /// Builds a cluster straight from an interconnect graph: devices take
  /// their memory/throughput/half-life from the graph's islands, and a
  /// single whole-cluster level mirroring the root fabric keeps the
  /// level-based accessors meaningful.
  static Result<ClusterSpec> CreateFromTopology(
      std::string name, std::shared_ptr<const TopologyGraph> graph);

  const std::string& name() const { return name_; }
  int num_devices() const { return static_cast<int>(devices_.size()); }
  const std::vector<Device>& devices() const { return devices_; }
  const Device& device(int id) const { return devices_[static_cast<size_t>(id)]; }
  const std::vector<TopologyLevel>& levels() const { return levels_; }

  /// The attached interconnect graph, or nullptr for level-priced clusters.
  const TopologyGraph* topology() const { return topology_.get(); }

  /// Whole-cluster accessors. These are only meaningful when every device
  /// agrees and CHECK-fail otherwise — silently returning device 0's value
  /// mispriced every heterogeneous caller. Use MinMemoryInRange /
  /// MinSustainedFlopsInRange (or devices()) on mixed clusters.
  int64_t device_memory_bytes() const;
  double sustained_flops() const;

  /// Fixed CPU/driver cost per kernel launch. Small micro-batches pay it
  /// per op per micro-batch, which is what keeps GPipe from profitably
  /// splitting batches into ever-smaller slivers.
  double kernel_launch_overhead_sec() const {
    return kernel_launch_overhead_sec_;
  }
  void set_kernel_launch_overhead_sec(double seconds) {
    kernel_launch_overhead_sec_ = seconds;
  }

  /// Small-batch GEMM efficiency: a kernel over b local samples achieves
  /// eff(b) = b / (b + small_batch_half_life) of sustained throughput
  /// (under-filled tiles / low occupancy). 1.0 means batch-1 runs at half
  /// throughput, which matches fp32 Transformer layers on these parts.
  /// Devices with a non-zero per-device half-life override this default.
  double small_batch_half_life() const { return small_batch_half_life_; }
  void set_small_batch_half_life(double samples) {
    small_batch_half_life_ = samples;
  }

  /// Per-micro-batch, per-boundary scheduling overhead of the pipeline
  /// runtime (PyTorch GPipe drives stages over RPC).
  double pipeline_rpc_overhead_sec() const {
    return pipeline_rpc_overhead_sec_;
  }
  void set_pipeline_rpc_overhead_sec(double seconds) {
    pipeline_rpc_overhead_sec_ = seconds;
  }

  /// Returns a copy with every device's memory budget replaced — Table 1/3/4
  /// sweep the budget E on fixed hardware.
  ClusterSpec WithMemoryBudget(int64_t memory_bytes) const;

  /// Returns a copy with devices [first, first + count) given a different
  /// memory budget — heterogeneous-memory clusters (the paper's future-work
  /// direction). The search gives each pipeline stage the minimum budget of
  /// its device block.
  ClusterSpec WithDeviceMemoryRange(int first, int count,
                                    int64_t memory_bytes) const;

  /// Returns a copy with devices [first, first + count) given a different
  /// generation: sustained throughput and (optionally, non-zero)
  /// small-batch half-life.
  ClusterSpec WithDeviceComputeRange(int first, int count,
                                     double sustained_flops,
                                     double small_batch_half_life = 0) const;

  /// Returns a copy pricing links over `graph` (which must cover the same
  /// device count). Device memory/throughput are left as they are — the
  /// graph's islands only describe hardware when building via
  /// CreateFromTopology.
  Result<ClusterSpec> WithTopology(
      std::shared_ptr<const TopologyGraph> graph) const;

  /// The tightest memory budget among devices [first, first + count).
  int64_t MinMemoryInRange(int first, int count) const;

  /// The slowest sustained throughput among devices [first, first + count)
  /// — a group computes in lockstep at its slowest member's pace.
  double MinSustainedFlopsInRange(int first, int count) const;

  /// The worst (largest) small-batch half-life in the range, with 0-valued
  /// devices falling back to the cluster default.
  double SmallBatchHalfLifeInRange(int first, int count) const;

  /// True if every device has the same budget.
  bool HasUniformMemory() const;

  /// True if every device has the same throughput and half-life.
  bool HasUniformCompute() const;

  /// Maximal contiguous runs of identical devices (throughput, half-life,
  /// memory). Prefers the attached topology's islands when present (they
  /// carry names); otherwise derived from the device table.
  std::vector<DeviceIsland> ComputeIslands() const;

  /// The link connecting two distinct devices: the innermost level whose
  /// block contains both, or the graph bottleneck of [min, max] when a
  /// topology is attached.
  LinkSpec LinkBetween(int device_a, int device_b) const;

  /// The bottleneck link of a device group: the innermost level containing
  /// all of them (a ring over the group cannot beat its slowest hop).
  LinkSpec GroupBottleneckLink(const std::vector<int>& device_ids) const;

  /// Bottleneck link of a group given only its extreme members. Topology
  /// levels are contiguous id ranges, so a block containing `first_device`
  /// and `last_device` contains everything between — equivalent to the
  /// vector overload for any group whose ids lie in [first, last], without
  /// materializing the ids (the cost model resolves links once per layer
  /// analysis, under the allocation tripwires).
  LinkSpec GroupBottleneckLink(int first_device, int last_device) const;

  /// Bottleneck of the collective group {stage_first_device + i*stride}
  /// inside a `stage_width`-wide stage. Level-priced clusters reduce this
  /// to GroupBottleneckLink over the group's extremes (bit-for-bit the old
  /// pricing); graph-backed clusters additionally divide each crossed
  /// uplink's bandwidth among the stage's sibling groups sharing it.
  LinkSpec CollectiveLink(int stage_first_device, int stride, int degree,
                          int stage_width) const;

  /// True if all ids fall inside one block of `levels()[level_index]`.
  bool SameBlock(int level_index, const std::vector<int>& device_ids) const;

  std::string ToString() const;

 private:
  ClusterSpec() = default;

  std::string name_;
  std::vector<Device> devices_;
  std::vector<TopologyLevel> levels_;
  std::shared_ptr<const TopologyGraph> topology_;
  /// Conservative fast path for HasUniformCompute: construction leaves it
  /// true; WithDeviceComputeRange / CreateFromTopology clear it, after
  /// which uniformity is re-derived by scanning.
  bool maybe_mixed_compute_ = false;
  double kernel_launch_overhead_sec_ = 15e-6;
  double small_batch_half_life_ = 1.0;
  double pipeline_rpc_overhead_sec_ = 3e-3;
};

/// Rebuilds a cluster's contiguous levels as an explicit graph: one node
/// per level block, each child uplinking through its parent level's fabric,
/// islands from the device table. The graph prices the true min over
/// crossed edges, so it matches level pricing exactly when bandwidths are
/// non-increasing outward (and is the physically-accurate answer when they
/// are not — a PCIe host ring crossing a faster NIC stays PCIe-bound).
Result<TopologyGraph> MakeMirrorTopology(const ClusterSpec& cluster);

/// The paper's 8x RTX TITAN 24GB PCIe-3.0 single node (Sec 5.1).
ClusterSpec MakeTitanNode8(int64_t memory_budget_bytes);

/// The paper's 16-GPU testbed: two TITAN nodes over 100 Gb InfiniBand.
ClusterSpec MakeTitanCluster16(int64_t memory_budget_bytes);

/// The paper's 64x A100 cluster: 8 NVLink nodes over 100 Gb InfiniBand.
ClusterSpec MakeA100Cluster64(int64_t memory_budget_bytes);

/// Generic helper: `num_nodes` islands of `gpus_per_node` with the given
/// intra/inter links.
ClusterSpec MakeHomogeneousCluster(std::string name, int num_nodes,
                                   int gpus_per_node,
                                   int64_t memory_budget_bytes,
                                   double sustained_flops,
                                   LinkClass intra_link, LinkClass inter_link);

constexpr int64_t kGiB = int64_t{1} << 30;
/// Decimal gigabyte — the unit of the paper's memory budgets (8G/12G/...).
constexpr int64_t kGB = int64_t{1000000000};

}  // namespace galvatron

#endif  // GALVATRON_CLUSTER_CLUSTER_H_
