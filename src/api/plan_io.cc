#include "api/plan_io.h"

#include <cmath>
#include <memory>
#include <sstream>
#include <utility>
#include <vector>

#include "cluster/link.h"
#include "ir/layer.h"
#include "ir/op.h"
#include "util/string_util.h"

namespace galvatron {

std::string EscapeJson(const std::string& s) { return JsonEscape(s); }

// ---------------------------------------------------------------------
// TrainingPlan
// ---------------------------------------------------------------------

std::string PlanToJson(const TrainingPlan& plan) {
  std::ostringstream os;
  os << "{\n";
  os << "  \"model\": \"" << EscapeJson(plan.model_name) << "\",\n";
  os << "  \"global_batch\": " << plan.global_batch << ",\n";
  os << "  \"micro_batches\": " << plan.num_micro_batches << ",\n";
  os << "  \"schedule\": \"" << PipelineScheduleToString(plan.schedule)
     << "\",\n";
  os << "  \"stages\": [";
  for (size_t s = 0; s < plan.stages.size(); ++s) {
    const StagePlan& stage = plan.stages[s];
    if (s > 0) os << ",";
    os << "\n    {\n";
    os << "      \"first_device\": " << stage.first_device << ",\n";
    os << "      \"num_devices\": " << stage.num_devices << ",\n";
    os << "      \"first_layer\": " << stage.first_layer << ",\n";
    os << "      \"num_layers\": " << stage.num_layers << ",\n";
    os << "      \"layers\": [";
    for (int i = 0; i < stage.num_layers; ++i) {
      if (i > 0) os << ",";
      os << "\n        {\"strategy\": \""
         << stage.layer_strategies[static_cast<size_t>(i)].ToString()
         << "\", \"recompute\": "
         << (stage.RecomputeAt(i) ? "true" : "false") << "}";
    }
    os << "\n      ]\n    }";
  }
  os << "\n  ]\n}\n";
  return os.str();
}

Result<TrainingPlan> PlanFromJsonValue(const JsonValue& root) {
  if (root.kind != JsonValue::Kind::kObject) {
    return Status::InvalidArgument("plan JSON must be an object");
  }

  TrainingPlan plan;
  GALVATRON_ASSIGN_OR_RETURN(plan.model_name, GetString(root, "model"));
  GALVATRON_ASSIGN_OR_RETURN(plan.global_batch,
                             GetInt(root, "global_batch", /*min_value=*/1));
  GALVATRON_ASSIGN_OR_RETURN(plan.num_micro_batches,
                             GetInt(root, "micro_batches", /*min_value=*/1));
  GALVATRON_ASSIGN_OR_RETURN(std::string schedule,
                             GetString(root, "schedule"));
  if (schedule == "gpipe") {
    plan.schedule = PipelineSchedule::kGPipe;
  } else if (schedule == "1f1b") {
    plan.schedule = PipelineSchedule::k1F1B;
  } else {
    return Status::InvalidArgument(
        StrFormat("unknown schedule '%s'", schedule.c_str()));
  }

  GALVATRON_ASSIGN_OR_RETURN(
      const JsonValue* stages,
      GetMember(root, "stages", JsonValue::Kind::kArray));
  for (const JsonValue& stage_json : stages->array) {
    if (stage_json.kind != JsonValue::Kind::kObject) {
      return Status::InvalidArgument("stage must be an object");
    }
    StagePlan stage;
    GALVATRON_ASSIGN_OR_RETURN(
        stage.first_device, GetInt(stage_json, "first_device", /*min_value=*/0));
    GALVATRON_ASSIGN_OR_RETURN(
        stage.num_devices, GetInt(stage_json, "num_devices", /*min_value=*/1));
    GALVATRON_ASSIGN_OR_RETURN(
        stage.first_layer, GetInt(stage_json, "first_layer", /*min_value=*/0));
    GALVATRON_ASSIGN_OR_RETURN(
        stage.num_layers, GetInt(stage_json, "num_layers", /*min_value=*/1));
    GALVATRON_ASSIGN_OR_RETURN(
        const JsonValue* layers,
        GetMember(stage_json, "layers", JsonValue::Kind::kArray));
    bool any_recompute = false;
    std::vector<uint8_t> recompute;
    for (const JsonValue& layer_json : layers->array) {
      if (layer_json.kind != JsonValue::Kind::kObject) {
        return Status::InvalidArgument("layer entry must be an object");
      }
      GALVATRON_ASSIGN_OR_RETURN(std::string strategy_text,
                                 GetString(layer_json, "strategy"));
      GALVATRON_ASSIGN_OR_RETURN(HybridStrategy strategy,
                                 HybridStrategy::Parse(strategy_text));
      stage.layer_strategies.push_back(std::move(strategy));
      GALVATRON_ASSIGN_OR_RETURN(bool flag, GetBool(layer_json, "recompute"));
      recompute.push_back(flag ? 1 : 0);
      any_recompute |= flag;
    }
    if (static_cast<int>(stage.layer_strategies.size()) !=
        stage.num_layers) {
      return Status::InvalidArgument(
          "layers array length disagrees with num_layers");
    }
    if (any_recompute) stage.recompute = std::move(recompute);
    plan.stages.push_back(std::move(stage));
  }
  return plan;
}

Result<TrainingPlan> ParsePlanJson(const std::string& json) {
  GALVATRON_ASSIGN_OR_RETURN(JsonValue root, ParseJson(json));
  return PlanFromJsonValue(root);
}

// ---------------------------------------------------------------------
// ModelSpec
// ---------------------------------------------------------------------

std::string ModelSpecToJson(const ModelSpec& model) {
  std::ostringstream os;
  os << "{\n";
  os << "  \"name\": \"" << JsonEscape(model.name()) << "\",\n";
  os << "  \"layers\": [";
  for (size_t l = 0; l < model.layers().size(); ++l) {
    const LayerSpec& layer = model.layers()[l];
    if (l > 0) os << ",";
    os << "\n    {\n";
    os << "      \"name\": \"" << JsonEscape(layer.name()) << "\",\n";
    os << "      \"kind\": \"" << LayerKindToString(layer.kind()) << "\",\n";
    os << "      \"input_bytes\": " << layer.input_bytes() << ",\n";
    os << "      \"output_bytes\": " << layer.output_bytes() << ",\n";
    os << "      \"ops\": [";
    for (size_t o = 0; o < layer.ops().size(); ++o) {
      const OpSpec& op = layer.ops()[o];
      if (o > 0) os << ",";
      os << "\n        {\"name\": \"" << JsonEscape(op.name)
         << "\", \"kind\": \"" << OpKindToString(op.kind)
         << "\", \"tp_pattern\": \"" << TpPatternToString(op.tp_pattern)
         << "\", \"param_count\": " << op.param_count
         << ", \"fwd_flops\": " << JsonNumber(op.fwd_flops)
         << ", \"saved_activation_bytes\": " << op.saved_activation_bytes
         << ", \"output_bytes\": " << op.output_bytes
         << ", \"input_bytes\": " << op.input_bytes
         << ", \"tp_shards_saved_activation\": "
         << (op.tp_shards_saved_activation ? "true" : "false") << "}";
    }
    os << "\n      ]\n    }";
  }
  os << "\n  ]\n}\n";
  return os.str();
}

Result<ModelSpec> ModelSpecFromJsonValue(const JsonValue& root) {
  if (root.kind != JsonValue::Kind::kObject) {
    return Status::InvalidArgument("model JSON must be an object");
  }
  GALVATRON_ASSIGN_OR_RETURN(std::string name, GetString(root, "name"));
  GALVATRON_ASSIGN_OR_RETURN(
      const JsonValue* layers,
      GetMember(root, "layers", JsonValue::Kind::kArray));
  if (layers->array.empty()) {
    return Status::InvalidArgument("model must have at least one layer");
  }
  std::vector<LayerSpec> specs;
  specs.reserve(layers->array.size());
  for (const JsonValue& layer_json : layers->array) {
    if (layer_json.kind != JsonValue::Kind::kObject) {
      return Status::InvalidArgument("layer must be an object");
    }
    GALVATRON_ASSIGN_OR_RETURN(std::string layer_name,
                               GetString(layer_json, "name"));
    GALVATRON_ASSIGN_OR_RETURN(std::string kind_name,
                               GetString(layer_json, "kind"));
    GALVATRON_ASSIGN_OR_RETURN(LayerKind kind,
                               LayerKindFromString(kind_name));
    GALVATRON_ASSIGN_OR_RETURN(
        int64_t input_bytes,
        GetInt64(layer_json, "input_bytes", /*min_value=*/0));
    GALVATRON_ASSIGN_OR_RETURN(
        int64_t output_bytes,
        GetInt64(layer_json, "output_bytes", /*min_value=*/0));
    GALVATRON_ASSIGN_OR_RETURN(
        const JsonValue* ops,
        GetMember(layer_json, "ops", JsonValue::Kind::kArray));
    std::vector<OpSpec> op_specs;
    op_specs.reserve(ops->array.size());
    for (const JsonValue& op_json : ops->array) {
      if (op_json.kind != JsonValue::Kind::kObject) {
        return Status::InvalidArgument("op must be an object");
      }
      OpSpec op;
      GALVATRON_ASSIGN_OR_RETURN(op.name, GetString(op_json, "name"));
      GALVATRON_ASSIGN_OR_RETURN(std::string op_kind,
                                 GetString(op_json, "kind"));
      GALVATRON_ASSIGN_OR_RETURN(op.kind, OpKindFromString(op_kind));
      GALVATRON_ASSIGN_OR_RETURN(std::string tp_pattern,
                                 GetString(op_json, "tp_pattern"));
      GALVATRON_ASSIGN_OR_RETURN(op.tp_pattern,
                                 TpPatternFromString(tp_pattern));
      GALVATRON_ASSIGN_OR_RETURN(
          op.param_count, GetInt64(op_json, "param_count", /*min_value=*/0));
      GALVATRON_ASSIGN_OR_RETURN(op.fwd_flops,
                                 GetDouble(op_json, "fwd_flops"));
      if (op.fwd_flops < 0) {
        return Status::InvalidArgument("op fwd_flops must be >= 0");
      }
      GALVATRON_ASSIGN_OR_RETURN(
          op.saved_activation_bytes,
          GetInt64(op_json, "saved_activation_bytes", /*min_value=*/0));
      GALVATRON_ASSIGN_OR_RETURN(
          op.output_bytes, GetInt64(op_json, "output_bytes", /*min_value=*/0));
      GALVATRON_ASSIGN_OR_RETURN(
          op.input_bytes, GetInt64(op_json, "input_bytes", /*min_value=*/0));
      GALVATRON_ASSIGN_OR_RETURN(
          op.tp_shards_saved_activation,
          GetBool(op_json, "tp_shards_saved_activation"));
      op_specs.push_back(std::move(op));
    }
    specs.emplace_back(std::move(layer_name), kind, std::move(op_specs),
                       input_bytes, output_bytes);
  }
  return ModelSpec(std::move(name), std::move(specs));
}

Result<ModelSpec> ParseModelSpecJson(const std::string& json) {
  GALVATRON_ASSIGN_OR_RETURN(JsonValue root, ParseJson(json));
  return ModelSpecFromJsonValue(root);
}

// ---------------------------------------------------------------------
// ClusterSpec
// ---------------------------------------------------------------------

namespace {

void AppendLinkJson(std::ostringstream& os, const LinkSpec& link) {
  os << "{\"class\": \"" << LinkClassToString(link.cls)
     << "\", \"bandwidth_bytes_per_sec\": "
     << JsonNumber(link.bandwidth_bytes_per_sec)
     << ", \"latency_sec\": " << JsonNumber(link.latency_sec) << "}";
}

Result<LinkSpec> LinkSpecFromJsonValue(const JsonValue& link_json,
                                       const char* what) {
  if (link_json.kind != JsonValue::Kind::kObject) {
    return Status::InvalidArgument(StrFormat("%s must be an object", what));
  }
  LinkSpec link;
  GALVATRON_ASSIGN_OR_RETURN(std::string cls_name,
                             GetString(link_json, "class"));
  GALVATRON_ASSIGN_OR_RETURN(link.cls, LinkClassFromString(cls_name));
  GALVATRON_ASSIGN_OR_RETURN(link.bandwidth_bytes_per_sec,
                             GetDouble(link_json, "bandwidth_bytes_per_sec"));
  GALVATRON_ASSIGN_OR_RETURN(link.latency_sec,
                             GetDouble(link_json, "latency_sec"));
  return link;
}

}  // namespace

std::string TopologyGraphToJson(const TopologyGraph& graph) {
  std::ostringstream os;
  os << "{\n    \"nodes\": [";
  for (size_t i = 0; i < graph.nodes().size(); ++i) {
    const TopologyNode& node = graph.nodes()[i];
    if (i > 0) os << ",";
    os << "\n      {\"name\": \"" << JsonEscape(node.name)
       << "\", \"first_device\": " << node.first_device
       << ", \"num_devices\": " << node.num_devices
       << ", \"parent\": " << node.parent << ",\n       \"internal\": ";
    AppendLinkJson(os, node.internal);
    os << ",\n       \"uplink\": ";
    AppendLinkJson(os, node.uplink);
    os << "}";
  }
  os << "\n    ],\n    \"islands\": [";
  for (size_t i = 0; i < graph.islands().size(); ++i) {
    const DeviceIsland& island = graph.islands()[i];
    if (i > 0) os << ",";
    os << "\n      {\"name\": \"" << JsonEscape(island.name)
       << "\", \"first_device\": " << island.first_device
       << ", \"num_devices\": " << island.num_devices
       << ",\n       \"sustained_flops\": "
       << JsonNumber(island.sustained_flops)
       << ", \"memory_bytes\": " << island.memory_bytes
       << ", \"small_batch_half_life\": "
       << JsonNumber(island.small_batch_half_life) << "}";
  }
  os << "\n    ]\n  }";
  return os.str();
}

Result<TopologyGraph> TopologyGraphFromJsonValue(const JsonValue& root,
                                                 int num_devices) {
  if (root.kind != JsonValue::Kind::kObject) {
    return Status::InvalidArgument("topology must be an object");
  }
  GALVATRON_ASSIGN_OR_RETURN(
      const JsonValue* nodes_json,
      GetMember(root, "nodes", JsonValue::Kind::kArray));
  std::vector<TopologyNode> nodes;
  for (const JsonValue& node_json : nodes_json->array) {
    if (node_json.kind != JsonValue::Kind::kObject) {
      return Status::InvalidArgument("topology node must be an object");
    }
    TopologyNode node;
    GALVATRON_ASSIGN_OR_RETURN(node.name, GetString(node_json, "name"));
    GALVATRON_ASSIGN_OR_RETURN(
        node.first_device, GetInt(node_json, "first_device", /*min_value=*/0));
    GALVATRON_ASSIGN_OR_RETURN(
        node.num_devices, GetInt(node_json, "num_devices", /*min_value=*/1));
    GALVATRON_ASSIGN_OR_RETURN(node.parent,
                               GetInt(node_json, "parent", /*min_value=*/-1));
    GALVATRON_ASSIGN_OR_RETURN(
        const JsonValue* internal_json,
        GetMember(node_json, "internal", JsonValue::Kind::kObject));
    GALVATRON_ASSIGN_OR_RETURN(
        node.internal, LinkSpecFromJsonValue(*internal_json, "node internal"));
    // The root's uplink is unused, so hand-written files may omit it.
    if (const JsonValue* uplink_json = FindMember(node_json, "uplink")) {
      GALVATRON_ASSIGN_OR_RETURN(
          node.uplink, LinkSpecFromJsonValue(*uplink_json, "node uplink"));
    }
    nodes.push_back(std::move(node));
  }
  GALVATRON_ASSIGN_OR_RETURN(
      const JsonValue* islands_json,
      GetMember(root, "islands", JsonValue::Kind::kArray));
  std::vector<DeviceIsland> islands;
  int island_devices = 0;
  for (const JsonValue& island_json : islands_json->array) {
    if (island_json.kind != JsonValue::Kind::kObject) {
      return Status::InvalidArgument("device island must be an object");
    }
    DeviceIsland island;
    GALVATRON_ASSIGN_OR_RETURN(island.name, GetString(island_json, "name"));
    GALVATRON_ASSIGN_OR_RETURN(
        island.first_device,
        GetInt(island_json, "first_device", /*min_value=*/0));
    GALVATRON_ASSIGN_OR_RETURN(
        island.num_devices,
        GetInt(island_json, "num_devices", /*min_value=*/1));
    GALVATRON_ASSIGN_OR_RETURN(island.sustained_flops,
                               GetDouble(island_json, "sustained_flops"));
    GALVATRON_ASSIGN_OR_RETURN(
        island.memory_bytes,
        GetInt64(island_json, "memory_bytes", /*min_value=*/1));
    if (const JsonValue* half_life =
            FindMember(island_json, "small_batch_half_life")) {
      GALVATRON_ASSIGN_OR_RETURN(
          island.small_batch_half_life,
          GetDouble(island_json, "small_batch_half_life"));
      (void)half_life;
    }
    island_devices += island.num_devices;
    islands.push_back(std::move(island));
  }
  // Structural validation (coverage, cycles, bandwidths) happens in Create.
  const int n = num_devices > 0 ? num_devices : island_devices;
  return TopologyGraph::Create(n, std::move(nodes), std::move(islands));
}

std::string ClusterSpecToJson(const ClusterSpec& cluster) {
  std::ostringstream os;
  os << "{\n";
  os << "  \"name\": \"" << JsonEscape(cluster.name()) << "\",\n";
  os << "  \"sustained_flops\": "
     << JsonNumber(cluster.device(0).sustained_flops) << ",\n";
  os << "  \"device_memory_bytes\": [";
  for (int d = 0; d < cluster.num_devices(); ++d) {
    if (d > 0) os << ", ";
    os << cluster.device(d).memory_bytes;
  }
  os << "],\n";
  // Mixed-generation fields are additive: homogeneous clusters serialize
  // exactly as before, so pre-topology documents stay byte-identical.
  bool mixed_flops = false;
  bool any_half_life = false;
  for (int d = 0; d < cluster.num_devices(); ++d) {
    mixed_flops |= cluster.device(d).sustained_flops !=
                   cluster.device(0).sustained_flops;
    any_half_life |= cluster.device(d).small_batch_half_life != 0;
  }
  if (mixed_flops) {
    os << "  \"device_sustained_flops\": [";
    for (int d = 0; d < cluster.num_devices(); ++d) {
      if (d > 0) os << ", ";
      os << JsonNumber(cluster.device(d).sustained_flops);
    }
    os << "],\n";
  }
  if (any_half_life) {
    os << "  \"device_small_batch_half_life\": [";
    for (int d = 0; d < cluster.num_devices(); ++d) {
      if (d > 0) os << ", ";
      os << JsonNumber(cluster.device(d).small_batch_half_life);
    }
    os << "],\n";
  }
  os << "  \"levels\": [";
  for (size_t i = 0; i < cluster.levels().size(); ++i) {
    const TopologyLevel& level = cluster.levels()[i];
    if (i > 0) os << ",";
    os << "\n    {\"span\": " << level.span << ", \"link\": {\"class\": \""
       << LinkClassToString(level.link.cls)
       << "\", \"bandwidth_bytes_per_sec\": "
       << JsonNumber(level.link.bandwidth_bytes_per_sec)
       << ", \"latency_sec\": " << JsonNumber(level.link.latency_sec)
       << "}}";
  }
  os << "\n  ],\n";
  if (cluster.topology() != nullptr) {
    os << "  \"topology\": " << TopologyGraphToJson(*cluster.topology())
       << ",\n";
  }
  os << "  \"kernel_launch_overhead_sec\": "
     << JsonNumber(cluster.kernel_launch_overhead_sec()) << ",\n";
  os << "  \"small_batch_half_life\": "
     << JsonNumber(cluster.small_batch_half_life()) << ",\n";
  os << "  \"pipeline_rpc_overhead_sec\": "
     << JsonNumber(cluster.pipeline_rpc_overhead_sec()) << "\n";
  os << "}\n";
  return os.str();
}

Result<ClusterSpec> ClusterSpecFromJsonValue(const JsonValue& root) {
  if (root.kind != JsonValue::Kind::kObject) {
    return Status::InvalidArgument("cluster JSON must be an object");
  }
  GALVATRON_ASSIGN_OR_RETURN(std::string name, GetString(root, "name"));
  GALVATRON_ASSIGN_OR_RETURN(double sustained_flops,
                             GetDouble(root, "sustained_flops"));
  if (sustained_flops <= 0) {
    return Status::InvalidArgument("sustained_flops must be positive");
  }
  GALVATRON_ASSIGN_OR_RETURN(
      const JsonValue* memory,
      GetMember(root, "device_memory_bytes", JsonValue::Kind::kArray));
  if (memory->array.empty()) {
    return Status::InvalidArgument("cluster must have at least one device");
  }
  std::vector<int64_t> memory_bytes;
  memory_bytes.reserve(memory->array.size());
  for (const JsonValue& entry : memory->array) {
    GALVATRON_ASSIGN_OR_RETURN(
        int64_t bytes,
        JsonToInt64(entry, "device_memory_bytes entry", /*min_value=*/1));
    memory_bytes.push_back(bytes);
  }

  GALVATRON_ASSIGN_OR_RETURN(
      const JsonValue* levels_json,
      GetMember(root, "levels", JsonValue::Kind::kArray));
  std::vector<TopologyLevel> levels;
  for (const JsonValue& level_json : levels_json->array) {
    if (level_json.kind != JsonValue::Kind::kObject) {
      return Status::InvalidArgument("topology level must be an object");
    }
    TopologyLevel level;
    GALVATRON_ASSIGN_OR_RETURN(level.span,
                               GetInt(level_json, "span", /*min_value=*/1));
    GALVATRON_ASSIGN_OR_RETURN(
        const JsonValue* link_json,
        GetMember(level_json, "link", JsonValue::Kind::kObject));
    GALVATRON_ASSIGN_OR_RETURN(std::string cls_name,
                               GetString(*link_json, "class"));
    GALVATRON_ASSIGN_OR_RETURN(level.link.cls,
                               LinkClassFromString(cls_name));
    GALVATRON_ASSIGN_OR_RETURN(
        level.link.bandwidth_bytes_per_sec,
        GetDouble(*link_json, "bandwidth_bytes_per_sec"));
    GALVATRON_ASSIGN_OR_RETURN(level.link.latency_sec,
                               GetDouble(*link_json, "latency_sec"));
    if (level.link.latency_sec < 0) {
      return Status::InvalidArgument("link latency_sec must be >= 0");
    }
    levels.push_back(level);
  }

  // Optional mixed-generation fields: per-device throughput and half-life
  // arrays (absent on homogeneous documents).
  const size_t n = memory_bytes.size();
  std::vector<double> device_flops;
  std::vector<double> device_half_life;
  if (const JsonValue* flops_json =
          FindMember(root, "device_sustained_flops")) {
    if (flops_json->kind != JsonValue::Kind::kArray ||
        flops_json->array.size() != n) {
      return Status::InvalidArgument(
          "device_sustained_flops must be an array with one entry per "
          "device");
    }
    device_flops.reserve(n);
    for (const JsonValue& entry : flops_json->array) {
      if (entry.kind != JsonValue::Kind::kNumber || !(entry.number > 0)) {
        return Status::InvalidArgument(
            "device_sustained_flops entries must be positive numbers");
      }
      device_flops.push_back(entry.number);
    }
  }
  if (const JsonValue* half_json =
          FindMember(root, "device_small_batch_half_life")) {
    if (half_json->kind != JsonValue::Kind::kArray ||
        half_json->array.size() != n) {
      return Status::InvalidArgument(
          "device_small_batch_half_life must be an array with one entry "
          "per device");
    }
    device_half_life.reserve(n);
    for (const JsonValue& entry : half_json->array) {
      if (entry.kind != JsonValue::Kind::kNumber || entry.number < 0) {
        return Status::InvalidArgument(
            "device_small_batch_half_life entries must be non-negative "
            "numbers");
      }
      device_half_life.push_back(entry.number);
    }
  }

  // One pass over the per-device tables: budgets, throughput and
  // half-lives land in the device table as the cluster is built.
  GALVATRON_ASSIGN_OR_RETURN(
      ClusterSpec cluster,
      ClusterSpec::CreateWithDevices(std::move(name), memory_bytes,
                                     sustained_flops, device_flops,
                                     device_half_life, std::move(levels)));

  // Optional interconnect graph: link pricing switches to the graph's
  // crossed edges (ClusterSpec::WithTopology validates the device count).
  if (const JsonValue* topology_json = FindMember(root, "topology")) {
    GALVATRON_ASSIGN_OR_RETURN(
        TopologyGraph graph,
        TopologyGraphFromJsonValue(*topology_json,
                                   static_cast<int>(n)));
    GALVATRON_ASSIGN_OR_RETURN(
        cluster, cluster.WithTopology(std::make_shared<const TopologyGraph>(
                     std::move(graph))));
  }

  GALVATRON_ASSIGN_OR_RETURN(
      double launch_overhead,
      GetDouble(root, "kernel_launch_overhead_sec"));
  GALVATRON_ASSIGN_OR_RETURN(double half_life,
                             GetDouble(root, "small_batch_half_life"));
  GALVATRON_ASSIGN_OR_RETURN(double rpc_overhead,
                             GetDouble(root, "pipeline_rpc_overhead_sec"));
  if (launch_overhead < 0 || half_life < 0 || rpc_overhead < 0) {
    return Status::InvalidArgument("cluster overheads must be >= 0");
  }
  cluster.set_kernel_launch_overhead_sec(launch_overhead);
  cluster.set_small_batch_half_life(half_life);
  cluster.set_pipeline_rpc_overhead_sec(rpc_overhead);
  return cluster;
}

Result<ClusterSpec> ParseClusterSpecJson(const std::string& json) {
  GALVATRON_ASSIGN_OR_RETURN(JsonValue root, ParseJson(json));
  return ClusterSpecFromJsonValue(root);
}

Result<ClusterSpec> ParseTopologyClusterJson(const std::string& json) {
  GALVATRON_ASSIGN_OR_RETURN(JsonValue root, ParseJson(json));
  if (root.kind != JsonValue::Kind::kObject) {
    return Status::InvalidArgument("topology file must be a JSON object");
  }
  GALVATRON_ASSIGN_OR_RETURN(std::string name, GetString(root, "name"));
  GALVATRON_ASSIGN_OR_RETURN(
      const JsonValue* topology_json,
      GetMember(root, "topology", JsonValue::Kind::kObject));
  GALVATRON_ASSIGN_OR_RETURN(
      TopologyGraph graph,
      TopologyGraphFromJsonValue(*topology_json, /*num_devices=*/-1));
  GALVATRON_ASSIGN_OR_RETURN(
      ClusterSpec cluster,
      ClusterSpec::CreateFromTopology(
          std::move(name),
          std::make_shared<const TopologyGraph>(std::move(graph))));
  // The calibration overheads are optional in topology files; absent
  // fields keep the ClusterSpec defaults.
  if (FindMember(root, "kernel_launch_overhead_sec") != nullptr) {
    GALVATRON_ASSIGN_OR_RETURN(
        double launch, GetDouble(root, "kernel_launch_overhead_sec"));
    if (launch < 0) {
      return Status::InvalidArgument(
          "kernel_launch_overhead_sec must be >= 0");
    }
    cluster.set_kernel_launch_overhead_sec(launch);
  }
  if (FindMember(root, "small_batch_half_life") != nullptr) {
    GALVATRON_ASSIGN_OR_RETURN(double half_life,
                               GetDouble(root, "small_batch_half_life"));
    if (half_life < 0) {
      return Status::InvalidArgument("small_batch_half_life must be >= 0");
    }
    cluster.set_small_batch_half_life(half_life);
  }
  if (FindMember(root, "pipeline_rpc_overhead_sec") != nullptr) {
    GALVATRON_ASSIGN_OR_RETURN(
        double rpc, GetDouble(root, "pipeline_rpc_overhead_sec"));
    if (rpc < 0) {
      return Status::InvalidArgument(
          "pipeline_rpc_overhead_sec must be >= 0");
    }
    cluster.set_pipeline_rpc_overhead_sec(rpc);
  }
  return cluster;
}

}  // namespace galvatron
