#include "cluster/cluster.h"

#include <algorithm>
#include <sstream>

#include "util/logging.h"
#include "util/string_util.h"

namespace galvatron {

Result<ClusterSpec> ClusterSpec::Create(std::string name, int num_devices,
                                        int64_t device_memory_bytes,
                                        double sustained_flops,
                                        std::vector<TopologyLevel> levels) {
  if (num_devices <= 0) {
    return Status::InvalidArgument("num_devices must be positive");
  }
  return CreateWithDevices(
      std::move(name),
      std::vector<int64_t>(static_cast<size_t>(num_devices),
                           device_memory_bytes),
      sustained_flops, {}, {}, std::move(levels));
}

Result<ClusterSpec> ClusterSpec::CreateWithDevices(
    std::string name, const std::vector<int64_t>& memory_bytes,
    double sustained_flops, const std::vector<double>& device_flops,
    const std::vector<double>& device_half_life,
    std::vector<TopologyLevel> levels) {
  const int num_devices = static_cast<int>(memory_bytes.size());
  if (num_devices <= 0) {
    return Status::InvalidArgument("num_devices must be positive");
  }
  if ((!device_flops.empty() && device_flops.size() != memory_bytes.size()) ||
      (!device_half_life.empty() &&
       device_half_life.size() != memory_bytes.size())) {
    return Status::InvalidArgument(
        "per-device compute arrays need one entry per device");
  }
  if (levels.empty()) {
    return Status::InvalidArgument("topology needs at least one level");
  }
  int prev_span = 1;
  for (const TopologyLevel& level : levels) {
    if (level.span <= prev_span && !(prev_span == 1 && level.span == 1)) {
      return Status::InvalidArgument(
          StrFormat("level spans must be strictly ascending (%d after %d)",
                    level.span, prev_span));
    }
    if (level.span % prev_span != 0) {
      return Status::InvalidArgument(StrFormat(
          "level span %d is not a multiple of inner span %d", level.span,
          prev_span));
    }
    if (level.link.bandwidth_bytes_per_sec <= 0) {
      return Status::InvalidArgument("link bandwidth must be positive");
    }
    prev_span = level.span;
  }
  if (levels.back().span != num_devices) {
    return Status::InvalidArgument(StrFormat(
        "outermost span %d must equal num_devices %d", levels.back().span,
        num_devices));
  }

  ClusterSpec cluster;
  cluster.name_ = std::move(name);
  cluster.levels_ = std::move(levels);
  cluster.devices_.resize(static_cast<size_t>(num_devices));
  for (int i = 0; i < num_devices; ++i) {
    const size_t d = static_cast<size_t>(i);
    Device& device = cluster.devices_[d];
    device = Device{i, memory_bytes[d], sustained_flops};
    if (!device_flops.empty()) {
      if (!(device_flops[d] > 0)) {
        return Status::InvalidArgument("device throughput must be positive");
      }
      device.sustained_flops = device_flops[d];
    }
    if (!device_half_life.empty()) {
      if (!(device_half_life[d] >= 0)) {
        return Status::InvalidArgument("device half-life must be >= 0");
      }
      device.small_batch_half_life = device_half_life[d];
    }
    // Only per-device compute can make devices differ; the O(1) range
    // queries rely on this flag staying false otherwise.
    if (!device_flops.empty() || !device_half_life.empty()) {
      cluster.maybe_mixed_compute_ |=
          device.sustained_flops != sustained_flops ||
          device.small_batch_half_life != 0;
    }
  }
  return cluster;
}

Result<ClusterSpec> ClusterSpec::CreateFromTopology(
    std::string name, std::shared_ptr<const TopologyGraph> graph) {
  if (graph == nullptr) {
    return Status::InvalidArgument("topology graph must not be null");
  }
  const TopologyNode& root =
      graph->nodes()[static_cast<size_t>(graph->root())];
  std::vector<TopologyLevel> levels;
  levels.push_back(TopologyLevel{graph->num_devices(), root.internal});
  GALVATRON_ASSIGN_OR_RETURN(
      ClusterSpec cluster,
      Create(std::move(name), graph->num_devices(),
             graph->islands().front().memory_bytes,
             graph->islands().front().sustained_flops, std::move(levels)));
  for (const DeviceIsland& island : graph->islands()) {
    for (int i = island.first_device;
         i < island.first_device + island.num_devices; ++i) {
      Device& d = cluster.devices_[static_cast<size_t>(i)];
      d.memory_bytes = island.memory_bytes;
      d.sustained_flops = island.sustained_flops;
      d.small_batch_half_life = island.small_batch_half_life;
    }
  }
  cluster.topology_ = std::move(graph);
  cluster.maybe_mixed_compute_ = true;
  return cluster;
}

Result<ClusterSpec> ClusterSpec::WithTopology(
    std::shared_ptr<const TopologyGraph> graph) const {
  if (graph == nullptr) {
    return Status::InvalidArgument("topology graph must not be null");
  }
  if (graph->num_devices() != num_devices()) {
    return Status::InvalidArgument(StrFormat(
        "topology covers %d devices but cluster has %d",
        graph->num_devices(), num_devices()));
  }
  ClusterSpec copy = *this;
  copy.topology_ = std::move(graph);
  return copy;
}

ClusterSpec ClusterSpec::WithMemoryBudget(int64_t memory_bytes) const {
  ClusterSpec copy = *this;
  for (Device& d : copy.devices_) d.memory_bytes = memory_bytes;
  return copy;
}

ClusterSpec ClusterSpec::WithDeviceMemoryRange(int first, int count,
                                               int64_t memory_bytes) const {
  GALVATRON_CHECK_GE(first, 0);
  GALVATRON_CHECK_LE(first + count, num_devices());
  ClusterSpec copy = *this;
  for (int i = first; i < first + count; ++i) {
    copy.devices_[static_cast<size_t>(i)].memory_bytes = memory_bytes;
  }
  return copy;
}

ClusterSpec ClusterSpec::WithDeviceComputeRange(
    int first, int count, double sustained_flops,
    double small_batch_half_life) const {
  GALVATRON_CHECK_GE(first, 0);
  GALVATRON_CHECK_LE(first + count, num_devices());
  GALVATRON_CHECK_GT(sustained_flops, 0);
  GALVATRON_CHECK_GE(small_batch_half_life, 0);
  ClusterSpec copy = *this;
  for (int i = first; i < first + count; ++i) {
    Device& d = copy.devices_[static_cast<size_t>(i)];
    d.sustained_flops = sustained_flops;
    d.small_batch_half_life = small_batch_half_life;
  }
  copy.maybe_mixed_compute_ = true;
  return copy;
}

int64_t ClusterSpec::device_memory_bytes() const {
  GALVATRON_CHECK(HasUniformMemory())
      << "device_memory_bytes() on a mixed-memory cluster; use "
         "MinMemoryInRange";
  return devices_.front().memory_bytes;
}

double ClusterSpec::sustained_flops() const {
  GALVATRON_CHECK(HasUniformCompute())
      << "sustained_flops() on a mixed-generation cluster; use "
         "MinSustainedFlopsInRange";
  return devices_.front().sustained_flops;
}

int64_t ClusterSpec::MinMemoryInRange(int first, int count) const {
  GALVATRON_CHECK_GE(first, 0);
  GALVATRON_CHECK_GE(count, 1);
  GALVATRON_CHECK_LE(first + count, num_devices());
  int64_t min_memory = devices_[static_cast<size_t>(first)].memory_bytes;
  for (int i = first + 1; i < first + count; ++i) {
    min_memory =
        std::min(min_memory, devices_[static_cast<size_t>(i)].memory_bytes);
  }
  return min_memory;
}

double ClusterSpec::MinSustainedFlopsInRange(int first, int count) const {
  GALVATRON_CHECK_GE(first, 0);
  GALVATRON_CHECK_GE(count, 1);
  GALVATRON_CHECK_LE(first + count, num_devices());
  // Compute never set per device: every device holds the front's value.
  if (!maybe_mixed_compute_) return devices_.front().sustained_flops;
  double min_flops = devices_[static_cast<size_t>(first)].sustained_flops;
  for (int i = first + 1; i < first + count; ++i) {
    min_flops = std::min(min_flops,
                         devices_[static_cast<size_t>(i)].sustained_flops);
  }
  return min_flops;
}

double ClusterSpec::SmallBatchHalfLifeInRange(int first, int count) const {
  GALVATRON_CHECK_GE(first, 0);
  GALVATRON_CHECK_GE(count, 1);
  GALVATRON_CHECK_LE(first + count, num_devices());
  if (!maybe_mixed_compute_) {
    const double h = devices_.front().small_batch_half_life;
    return std::max(0.0, h != 0 ? h : small_batch_half_life_);
  }
  double worst = 0;
  for (int i = first; i < first + count; ++i) {
    const double h = devices_[static_cast<size_t>(i)].small_batch_half_life;
    worst = std::max(worst, h != 0 ? h : small_batch_half_life_);
  }
  return worst;
}

bool ClusterSpec::HasUniformMemory() const {
  return MinMemoryInRange(0, num_devices()) ==
         devices_.front().memory_bytes &&
         std::all_of(devices_.begin(), devices_.end(), [&](const Device& d) {
           return d.memory_bytes == devices_.front().memory_bytes;
         });
}

bool ClusterSpec::HasUniformCompute() const {
  if (!maybe_mixed_compute_) return true;
  const Device& front = devices_.front();
  return std::all_of(devices_.begin(), devices_.end(), [&](const Device& d) {
    return d.sustained_flops == front.sustained_flops &&
           d.small_batch_half_life == front.small_batch_half_life;
  });
}

std::vector<DeviceIsland> ClusterSpec::ComputeIslands() const {
  if (topology_ != nullptr) return topology_->islands();
  std::vector<DeviceIsland> islands;
  for (int i = 0; i < num_devices();) {
    const Device& d = devices_[static_cast<size_t>(i)];
    int run = i + 1;
    while (run < num_devices()) {
      const Device& next = devices_[static_cast<size_t>(run)];
      if (next.sustained_flops != d.sustained_flops ||
          next.small_batch_half_life != d.small_batch_half_life ||
          next.memory_bytes != d.memory_bytes) {
        break;
      }
      ++run;
    }
    DeviceIsland island;
    island.name = StrFormat("island-%d", static_cast<int>(islands.size()));
    island.first_device = i;
    island.num_devices = run - i;
    island.sustained_flops = d.sustained_flops;
    island.memory_bytes = d.memory_bytes;
    island.small_batch_half_life = d.small_batch_half_life;
    islands.push_back(std::move(island));
    i = run;
  }
  return islands;
}

LinkSpec ClusterSpec::LinkBetween(int device_a, int device_b) const {
  GALVATRON_CHECK_NE(device_a, device_b);
  if (topology_ != nullptr) {
    return topology_->RangeBottleneck(std::min(device_a, device_b),
                                      std::max(device_a, device_b));
  }
  for (const TopologyLevel& level : levels_) {
    if (device_a / level.span == device_b / level.span) return level.link;
  }
  GALVATRON_CHECK(false) << "devices outside cluster";
  return levels_.back().link;
}

LinkSpec ClusterSpec::GroupBottleneckLink(int first_device,
                                          int last_device) const {
  GALVATRON_CHECK_LT(first_device, last_device);
  if (topology_ != nullptr) {
    return topology_->RangeBottleneck(first_device, last_device);
  }
  return LinkBetween(first_device, last_device);
}

LinkSpec ClusterSpec::GroupBottleneckLink(
    const std::vector<int>& device_ids) const {
  GALVATRON_CHECK_GE(device_ids.size(), 2u);
  if (topology_ != nullptr) {
    const auto [lo, hi] =
        std::minmax_element(device_ids.begin(), device_ids.end());
    return topology_->RangeBottleneck(*lo, *hi);
  }
  for (const TopologyLevel& level : levels_) {
    if (SameBlock(/*level_index=*/static_cast<int>(&level - levels_.data()),
                  device_ids)) {
      return level.link;
    }
  }
  GALVATRON_CHECK(false) << "group outside cluster";
  return levels_.back().link;
}

LinkSpec ClusterSpec::CollectiveLink(int stage_first_device, int stride,
                                     int degree, int stage_width) const {
  if (degree < 2) return LinkSpec{};
  if (topology_ != nullptr) {
    return topology_->CollectiveBottleneck(stage_first_device, stride, degree,
                                           stage_width);
  }
  return GroupBottleneckLink(stage_first_device,
                             stage_first_device + (degree - 1) * stride);
}

bool ClusterSpec::SameBlock(int level_index,
                            const std::vector<int>& device_ids) const {
  const int span = levels_[static_cast<size_t>(level_index)].span;
  const int block = device_ids.front() / span;
  return std::all_of(device_ids.begin(), device_ids.end(),
                     [&](int id) { return id / span == block; });
}

std::string ClusterSpec::ToString() const {
  std::ostringstream os;
  os << name_ << ": " << num_devices() << " devices, ";
  if (HasUniformMemory() && HasUniformCompute()) {
    os << HumanBytes(static_cast<double>(devices_.front().memory_bytes))
       << "/device, "
       << StrFormat("%.1f", devices_.front().sustained_flops / 1e12)
       << " TFLOP/s sustained;";
  } else {
    os << "mixed:";
    for (const DeviceIsland& island : ComputeIslands()) {
      os << " (" << island.num_devices << "x "
         << HumanBytes(static_cast<double>(island.memory_bytes)) << " "
         << StrFormat("%.1f", island.sustained_flops / 1e12) << " TFLOP/s)";
    }
    os << ";";
  }
  for (const TopologyLevel& level : levels_) {
    os << " [span " << level.span << ": " << LinkClassToString(level.link.cls)
       << " " << StrFormat("%.1f", level.link.bandwidth_bytes_per_sec / 1e9)
       << " GB/s]";
  }
  if (topology_ != nullptr) {
    os << " graph{" << topology_->ToString() << "}";
  }
  return os.str();
}

Result<TopologyGraph> MakeMirrorTopology(const ClusterSpec& cluster) {
  // Outermost level first so parents get smaller indices than children and
  // min-bandwidth ties resolve to the enclosing fabric.
  std::vector<TopologyNode> nodes;
  const std::vector<TopologyLevel>& levels = cluster.levels();
  const int n = cluster.num_devices();
  std::vector<int> level_first_node(levels.size(), -1);
  for (int li = static_cast<int>(levels.size()) - 1; li >= 0; --li) {
    const TopologyLevel& level = levels[static_cast<size_t>(li)];
    level_first_node[static_cast<size_t>(li)] =
        static_cast<int>(nodes.size());
    for (int block = 0; block * level.span < n; ++block) {
      TopologyNode node;
      node.name = StrFormat("L%d-%d", li, block);
      node.first_device = block * level.span;
      node.num_devices = std::min(level.span, n - node.first_device);
      node.internal = level.link;
      if (li + 1 < static_cast<int>(levels.size())) {
        const TopologyLevel& outer = levels[static_cast<size_t>(li) + 1];
        node.parent = level_first_node[static_cast<size_t>(li) + 1] +
                      node.first_device / outer.span;
        node.uplink = outer.link;
      } else {
        node.parent = -1;
      }
      nodes.push_back(std::move(node));
    }
  }
  return TopologyGraph::Create(n, std::move(nodes),
                               cluster.ComputeIslands());
}

namespace {

// Sustained dense-matmul throughput (FLOP/s) used for calibration; see
// EXPERIMENTS.md. RTX TITAN: 16.3 TF peak fp32, ~35% achieved in training.
constexpr double kTitanSustainedFlops = 6.5e12;
// A100: the paper's 64-GPU throughputs imply ~12+ TF/s sustained per GPU,
// i.e. TF32 tensor-core execution (156 TF peak) at a realistic fraction.
constexpr double kA100SustainedFlops = 17e12;

}  // namespace

ClusterSpec MakeHomogeneousCluster(std::string name, int num_nodes,
                                   int gpus_per_node,
                                   int64_t memory_budget_bytes,
                                   double sustained_flops, LinkClass intra_link,
                                   LinkClass inter_link) {
  std::vector<TopologyLevel> levels;
  levels.push_back(TopologyLevel{gpus_per_node, DefaultLinkSpec(intra_link)});
  if (num_nodes > 1) {
    levels.push_back(
        TopologyLevel{num_nodes * gpus_per_node, DefaultLinkSpec(inter_link)});
  }
  auto result = ClusterSpec::Create(std::move(name),
                                    num_nodes * gpus_per_node,
                                    memory_budget_bytes, sustained_flops,
                                    std::move(levels));
  GALVATRON_CHECK(result.ok()) << result.status();
  return *std::move(result);
}

ClusterSpec MakeTitanNode8(int64_t memory_budget_bytes) {
  return MakeHomogeneousCluster("titan-node-8", /*num_nodes=*/1,
                                /*gpus_per_node=*/8, memory_budget_bytes,
                                kTitanSustainedFlops, LinkClass::kPcie3,
                                LinkClass::kInfiniBand100);
}

ClusterSpec MakeTitanCluster16(int64_t memory_budget_bytes) {
  return MakeHomogeneousCluster("titan-cluster-16", /*num_nodes=*/2,
                                /*gpus_per_node=*/8, memory_budget_bytes,
                                kTitanSustainedFlops, LinkClass::kPcie3,
                                LinkClass::kInfiniBand100);
}

ClusterSpec MakeA100Cluster64(int64_t memory_budget_bytes) {
  ClusterSpec cluster = MakeHomogeneousCluster(
      "a100-cluster-64", /*num_nodes=*/8,
      /*gpus_per_node=*/8, memory_budget_bytes, kA100SustainedFlops,
      LinkClass::kNvLink, LinkClass::kInfiniBand100);
  cluster.set_kernel_launch_overhead_sec(12e-6);
  return cluster;
}

}  // namespace galvatron
