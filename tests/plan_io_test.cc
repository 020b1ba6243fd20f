#include <gtest/gtest.h>

#include "api/galvatron.h"
#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "api/plan_io.h"
#include "api/plan_render.h"
#include "testing/fuzz_generators.h"
#include "trace/export.h"
#include "trace/trace.h"
#include "util/json.h"
#include "util/math_util.h"
#include "util/rng.h"

namespace galvatron {
namespace {

TEST(StrategyParseTest, RoundTripsAllCandidates) {
  for (int g : {1, 2, 4, 8, 16, 64}) {
    auto candidates = EnumerateSingleLayerStrategies(g);
    ASSERT_TRUE(candidates.ok());
    for (const HybridStrategy& s : *candidates) {
      auto parsed = HybridStrategy::Parse(s.ToString());
      ASSERT_TRUE(parsed.ok()) << s.ToString() << ": " << parsed.status();
      EXPECT_EQ(*parsed, s);
    }
  }
}

TEST(StrategyParseTest, RejectsGarbage) {
  EXPECT_FALSE(HybridStrategy::Parse("").ok());
  EXPECT_FALSE(HybridStrategy::Parse("xp4").ok());
  EXPECT_FALSE(HybridStrategy::Parse("dp").ok());
  EXPECT_FALSE(HybridStrategy::Parse("dp4x").ok());
  EXPECT_FALSE(HybridStrategy::Parse("dp2-dp2").ok());  // repeated dim
  EXPECT_FALSE(HybridStrategy::Parse("pp4").ok());      // PP not in trees
  EXPECT_FALSE(HybridStrategy::Parse("dp1").ok());      // degree < 2
}

class PlanIoTest : public ::testing::Test {
 protected:
  PlanIoTest()
      : cluster_(MakeTitanNode8(16 * kGB)),
        model_(BuildModel(ModelId::kBertHuge32)) {}

  ClusterSpec cluster_;
  ModelSpec model_;
};

TEST_F(PlanIoTest, SearchedPlanRoundTrips) {
  OptimizerOptions options;
  options.allow_recompute = true;
  options.schedule = PipelineSchedule::k1F1B;
  auto result = Optimizer(&cluster_, options).Optimize(model_);
  ASSERT_TRUE(result.ok());

  const std::string json = PlanToJson(result->plan);
  auto parsed = ParsePlanJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status();

  EXPECT_EQ(parsed->model_name, result->plan.model_name);
  EXPECT_EQ(parsed->global_batch, result->plan.global_batch);
  EXPECT_EQ(parsed->num_micro_batches, result->plan.num_micro_batches);
  EXPECT_EQ(parsed->schedule, result->plan.schedule);
  ASSERT_EQ(parsed->stages.size(), result->plan.stages.size());
  for (size_t s = 0; s < parsed->stages.size(); ++s) {
    EXPECT_EQ(parsed->stages[s].layer_strategies,
              result->plan.stages[s].layer_strategies);
    for (int i = 0; i < parsed->stages[s].num_layers; ++i) {
      EXPECT_EQ(parsed->stages[s].RecomputeAt(i),
                result->plan.stages[s].RecomputeAt(i));
    }
  }
  // The round-tripped plan still validates and simulates identically.
  EXPECT_TRUE(parsed->Validate(model_, 8).ok());
  auto original = Galvatron::Measure(model_, result->plan, cluster_);
  auto reloaded = Galvatron::Measure(model_, *parsed, cluster_);
  ASSERT_TRUE(original.ok());
  ASSERT_TRUE(reloaded.ok());
  EXPECT_DOUBLE_EQ(original->iteration_seconds, reloaded->iteration_seconds);
}

TEST_F(PlanIoTest, ParserRejectsMalformedInput) {
  EXPECT_FALSE(ParsePlanJson("").ok());
  EXPECT_FALSE(ParsePlanJson("[]").ok());
  EXPECT_FALSE(ParsePlanJson("{").ok());
  EXPECT_FALSE(ParsePlanJson("{\"model\": \"x\"}").ok());  // missing fields
  EXPECT_FALSE(
      ParsePlanJson(
          "{\"model\":\"m\",\"global_batch\":8,\"micro_batches\":1,"
          "\"schedule\":\"warp\",\"stages\":[]}")
          .ok());  // bad schedule
  EXPECT_FALSE(
      ParsePlanJson(
          "{\"model\":\"m\",\"global_batch\":8,\"micro_batches\":1,"
          "\"schedule\":\"gpipe\",\"stages\":[{\"first_device\":0,"
          "\"num_devices\":8,\"first_layer\":0,\"num_layers\":2,"
          "\"layers\":[{\"strategy\":\"dp8\",\"recompute\":false}]}]}")
          .ok());  // layer count mismatch
}

TEST_F(PlanIoTest, ParserHandlesWhitespaceAndEscapes) {
  auto plan = ParsePlanJson(
      "  {\n\"model\": \"my \\\"model\\\"\", \"global_batch\": 8,\n"
      "\"micro_batches\": 1, \"schedule\": \"gpipe\", \"stages\": [\n"
      "{\"first_device\":0,\"num_devices\":8,\"first_layer\":0,"
      "\"num_layers\":1,\"layers\":[{\"strategy\":\"sdp8\","
      "\"recompute\":true}]}]}  ");
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_EQ(plan->model_name, "my \"model\"");
  EXPECT_TRUE(plan->stages[0].RecomputeAt(0));
}

TEST_F(PlanIoTest, ParserRejectsDuplicateKeys) {
  // Pre-fix, the object builder's emplace silently kept the first value.
  EXPECT_FALSE(
      ParsePlanJson(
          "{\"model\":\"a\",\"model\":\"b\",\"global_batch\":8,"
          "\"micro_batches\":1,\"schedule\":\"gpipe\",\"stages\":[{"
          "\"first_device\":0,\"num_devices\":8,\"first_layer\":0,"
          "\"num_layers\":1,\"layers\":[{\"strategy\":\"dp8\","
          "\"recompute\":false}]}]}")
          .ok());
  EXPECT_FALSE(
      ParsePlanJson(
          "{\"model\":\"m\",\"global_batch\":8,\"micro_batches\":1,"
          "\"schedule\":\"gpipe\",\"stages\":[{\"first_device\":0,"
          "\"num_devices\":8,\"num_devices\":4,\"first_layer\":0,"
          "\"num_layers\":1,\"layers\":[{\"strategy\":\"dp8\","
          "\"recompute\":false}]}]}")
          .ok());
}

TEST_F(PlanIoTest, ParserRejectsMalformedNumbers) {
  const auto doc = [](const std::string& batch) {
    return "{\"model\":\"m\",\"global_batch\":" + batch +
           ",\"micro_batches\":1,\"schedule\":\"gpipe\",\"stages\":[{"
           "\"first_device\":0,\"num_devices\":8,\"first_layer\":0,"
           "\"num_layers\":1,\"layers\":[{\"strategy\":\"dp8\","
           "\"recompute\":false}]}]}";
  };
  EXPECT_TRUE(ParsePlanJson(doc("8")).ok());
  EXPECT_FALSE(ParsePlanJson(doc("1e")).ok());    // truncated exponent
  EXPECT_FALSE(ParsePlanJson(doc("2.5")).ok());   // non-integral count
  EXPECT_FALSE(ParsePlanJson(doc("1e99")).ok());  // outside int range
  EXPECT_FALSE(ParsePlanJson(doc("+8")).ok());    // leading plus
  EXPECT_FALSE(ParsePlanJson(doc("08")).ok());    // leading zero
  EXPECT_FALSE(ParsePlanJson(doc("-8")).ok());    // negative count
  EXPECT_FALSE(ParsePlanJson(doc("0")).ok());     // below minimum of 1
  EXPECT_FALSE(ParsePlanJson(doc("\"8\"")).ok()); // string, not number
}

TEST_F(PlanIoTest, ParserRejectsNegativeStageFields) {
  const auto doc = [](const std::string& stage_fields) {
    return "{\"model\":\"m\",\"global_batch\":8,\"micro_batches\":1,"
           "\"schedule\":\"gpipe\",\"stages\":[{" +
           stage_fields +
           "\"layers\":[{\"strategy\":\"dp8\",\"recompute\":false}]}]}";
  };
  EXPECT_FALSE(ParsePlanJson(doc("\"first_device\":-1,\"num_devices\":8,"
                                 "\"first_layer\":0,\"num_layers\":1,"))
                   .ok());
  EXPECT_FALSE(ParsePlanJson(doc("\"first_device\":0,\"num_devices\":-8,"
                                 "\"first_layer\":0,\"num_layers\":1,"))
                   .ok());
  EXPECT_FALSE(ParsePlanJson(doc("\"first_device\":0,\"num_devices\":8,"
                                 "\"first_layer\":-2,\"num_layers\":1,"))
                   .ok());
  EXPECT_FALSE(ParsePlanJson(doc("\"first_device\":0,\"num_devices\":8,"
                                 "\"first_layer\":0,\"num_layers\":0,"))
                   .ok());
}

TEST_F(PlanIoTest, ControlCharacterNamesRoundTrip) {
  // Regression for the escaper emitting control characters raw: every
  // byte below 0x20 must survive serialize -> parse exactly.
  for (int c = 1; c < 0x20; ++c) {
    TrainingPlan plan;
    plan.model_name = std::string("m") + static_cast<char>(c) + "x";
    plan.global_batch = 8;
    plan.num_micro_batches = 1;
    plan.schedule = PipelineSchedule::kGPipe;
    StagePlan stage;
    stage.first_device = 0;
    stage.num_devices = 8;
    stage.first_layer = 0;
    stage.num_layers = 1;
    auto strategy = HybridStrategy::Parse("dp8");
    ASSERT_TRUE(strategy.ok());
    stage.layer_strategies = {*strategy};
    plan.stages = {stage};

    const std::string json = PlanToJson(plan);
    auto parsed = ParsePlanJson(json);
    ASSERT_TRUE(parsed.ok()) << "byte 0x" << std::hex << c << ": "
                             << parsed.status();
    EXPECT_EQ(parsed->model_name, plan.model_name) << "byte " << c;
    EXPECT_EQ(PlanToJson(*parsed), json) << "byte " << c;
  }
}

TEST_F(PlanIoTest, HostileGeneratedNamesRoundTrip) {
  // Property test over the fuzz subsystem's hostile name generator: any
  // name it can produce must survive a serialize -> parse round-trip.
  for (uint64_t seed = 0; seed < 200; ++seed) {
    Rng rng(seed);
    const std::string name = GenerateName(&rng, /*hostile=*/true);
    const std::string json =
        "{\"model\":\"" + EscapeJson(name) +
        "\",\"global_batch\":8,\"micro_batches\":1,"
        "\"schedule\":\"gpipe\",\"stages\":[{\"first_device\":0,"
        "\"num_devices\":8,\"first_layer\":0,\"num_layers\":1,"
        "\"layers\":[{\"strategy\":\"dp8\",\"recompute\":false}]}]}";
    auto parsed = ParsePlanJson(json);
    ASSERT_TRUE(parsed.ok()) << "seed " << seed << ": " << parsed.status();
    EXPECT_EQ(parsed->model_name, name) << "seed " << seed;
  }
}

TEST_F(PlanIoTest, ModelSpecRoundTrips) {
  // The serving wire format ships ModelSpec documents; every zoo model
  // must survive serialize -> parse -> serialize bit-exactly.
  for (ModelId id : AllModelIds()) {
    const ModelSpec model = BuildModel(id);
    const std::string json = ModelSpecToJson(model);
    auto parsed = ParseModelSpecJson(json);
    ASSERT_TRUE(parsed.ok()) << ModelIdToString(id) << ": " << parsed.status();
    EXPECT_EQ(parsed->name(), model.name());
    ASSERT_EQ(parsed->num_layers(), model.num_layers());
    EXPECT_EQ(parsed->TotalParams(), model.TotalParams());
    EXPECT_EQ(ModelSpecToJson(*parsed), json) << ModelIdToString(id);
  }
}

TEST_F(PlanIoTest, ClusterSpecRoundTrips) {
  const std::string json = ClusterSpecToJson(cluster_);
  auto parsed = ParseClusterSpecJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->name(), cluster_.name());
  EXPECT_EQ(parsed->num_devices(), cluster_.num_devices());
  EXPECT_EQ(parsed->device_memory_bytes(), cluster_.device_memory_bytes());
  EXPECT_EQ(parsed->sustained_flops(), cluster_.sustained_flops());
  ASSERT_EQ(parsed->levels().size(), cluster_.levels().size());
  EXPECT_EQ(ClusterSpecToJson(*parsed), json);
}

// The parser builds the device table in one pass. It used to re-apply
// per-device budgets run by run, copying the whole cluster per run, which
// made a document whose budgets alternate device by device quadratic to
// parse (tens of seconds at this size).
TEST_F(PlanIoTest, AlternatingBudgetsOn131072DevicesRoundTrip) {
  constexpr int kDevices = 131072;
  std::vector<int64_t> budgets(kDevices);
  for (int d = 0; d < kDevices; ++d) {
    budgets[static_cast<size_t>(d)] = (d % 2 == 0 ? 16 : 24) * kGB;
  }
  std::vector<TopologyLevel> levels = {
      {8, DefaultLinkSpec(LinkClass::kNvLink)},
      {kDevices, DefaultLinkSpec(LinkClass::kInfiniBand100)}};
  auto cluster = ClusterSpec::CreateWithDevices("alternating", budgets, 17e12,
                                                {}, {}, std::move(levels));
  ASSERT_TRUE(cluster.ok()) << cluster.status();
  const std::string json = ClusterSpecToJson(*cluster);

  auto parsed = ParseClusterSpecJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  ASSERT_EQ(parsed->num_devices(), kDevices);
  EXPECT_EQ(parsed->device(0).memory_bytes, 16 * kGB);
  EXPECT_EQ(parsed->device(kDevices - 1).memory_bytes, 24 * kGB);
  EXPECT_EQ(parsed->MinMemoryInRange(1, 1), 24 * kGB);
  EXPECT_EQ(parsed->MinMemoryInRange(0, kDevices), 16 * kGB);
  EXPECT_TRUE(parsed->HasUniformCompute());
  EXPECT_EQ(ClusterSpecToJson(*parsed), json);
}

TEST_F(PlanIoTest, SpecParsersRejectMalformedInput) {
  EXPECT_FALSE(ParseModelSpecJson("").ok());
  EXPECT_FALSE(ParseModelSpecJson("[]").ok());
  EXPECT_FALSE(ParseModelSpecJson("{\"name\":\"m\"}").ok());
  EXPECT_FALSE(ParseClusterSpecJson("").ok());
  EXPECT_FALSE(ParseClusterSpecJson("42").ok());
  EXPECT_FALSE(ParseClusterSpecJson("{\"name\":\"c\"}").ok());
}

TEST_F(PlanIoTest, HostileGeneratedSpecsRoundTrip) {
  // Property test mirroring the spec-json-roundtrip fuzz check: generator
  // output (hostile names, heterogeneous memory) must round-trip.
  for (uint64_t seed = 300; seed < 350; ++seed) {
    Rng rng(seed);
    const ModelSpec model = GenerateModel(&rng);
    const std::string model_json = ModelSpecToJson(model);
    auto parsed_model = ParseModelSpecJson(model_json);
    ASSERT_TRUE(parsed_model.ok())
        << "seed " << seed << ": " << parsed_model.status();
    EXPECT_EQ(ModelSpecToJson(*parsed_model), model_json) << "seed " << seed;

    const ClusterSpec cluster = GenerateCluster(&rng);
    const std::string cluster_json = ClusterSpecToJson(cluster);
    auto parsed_cluster = ParseClusterSpecJson(cluster_json);
    ASSERT_TRUE(parsed_cluster.ok())
        << "seed " << seed << ": " << parsed_cluster.status();
    EXPECT_EQ(ClusterSpecToJson(*parsed_cluster), cluster_json)
        << "seed " << seed;
  }
}

TEST_F(PlanIoTest, TopologyBackedClusterRoundTripsBitExactly) {
  // A mixed-generation graph-backed cluster: the topology block, the
  // per-device generation arrays, and the heterogeneous budgets must all
  // survive ClusterSpecToJson -> ParseClusterSpecJson -> ClusterSpecToJson
  // unchanged.
  const LinkSpec nv{LinkClass::kNvLink, 150e9, 6e-6};
  const LinkSpec pcie{LinkClass::kPcie3, 5.8e9, 12e-6};
  const LinkSpec ib{LinkClass::kInfiniBand100, 9.5e9, 20e-6};
  std::vector<TopologyNode> nodes(3);
  nodes[0] = {"spine", 0, 16, -1, LinkSpec{}, ib};
  nodes[1] = {"a100-node", 0, 8, 0, pcie, nv};
  nodes[2] = {"titan-node", 8, 8, 0, pcie, pcie};
  std::vector<DeviceIsland> islands(2);
  islands[0] = {"a100", 0, 8, 60e12, 40 * kGB, 0.5};
  islands[1] = {"titan", 8, 8, 14e12, 24 * kGB, 0.0};
  auto graph =
      TopologyGraph::Create(16, std::move(nodes), std::move(islands));
  ASSERT_TRUE(graph.ok()) << graph.status();
  auto cluster = ClusterSpec::CreateFromTopology(
      "mixed-16", std::make_shared<const TopologyGraph>(*std::move(graph)));
  ASSERT_TRUE(cluster.ok()) << cluster.status();

  const std::string json = ClusterSpecToJson(*cluster);
  auto parsed = ParseClusterSpecJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  ASSERT_NE(parsed->topology(), nullptr);
  EXPECT_TRUE(*parsed->topology() == *cluster->topology());
  for (int d = 0; d < 16; ++d) {
    EXPECT_EQ(parsed->device(d).memory_bytes,
              cluster->device(d).memory_bytes);
    EXPECT_EQ(parsed->device(d).sustained_flops,
              cluster->device(d).sustained_flops);
    EXPECT_EQ(parsed->device(d).small_batch_half_life,
              cluster->device(d).small_batch_half_life);
  }
  EXPECT_EQ(ClusterSpecToJson(*parsed), json);
  // Graph pricing survives the round-trip: cross-node rings stay
  // PCIe-bound on the parsed copy too.
  EXPECT_EQ(parsed->LinkBetween(0, 15), cluster->LinkBetween(0, 15));
}

TEST_F(PlanIoTest, LegacyClusterJsonHasNoTopologyFields) {
  // Uniform level-priced clusters must serialize exactly as before the
  // topology subsystem existed: no additive fields appear.
  const std::string json = ClusterSpecToJson(cluster_);
  EXPECT_EQ(json.find("topology"), std::string::npos);
  EXPECT_EQ(json.find("device_sustained_flops"), std::string::npos);
  EXPECT_EQ(json.find("device_small_batch_half_life"), std::string::npos);
  auto parsed = ParseClusterSpecJson(json);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->topology(), nullptr);
}

TEST_F(PlanIoTest, ParsesStandaloneTopologyFile) {
  const std::string json = R"({
    "name": "mixed-pod",
    "pipeline_rpc_overhead_sec": 0.002,
    "topology": {
      "nodes": [
        {"name": "spine", "first_device": 0, "num_devices": 4, "parent": -1,
         "internal": {"class": "IB-100Gb", "bandwidth_bytes_per_sec": 9.5e9,
                      "latency_sec": 2e-5}},
        {"name": "n0", "first_device": 0, "num_devices": 2, "parent": 0,
         "internal": {"class": "NVLink", "bandwidth_bytes_per_sec": 1.5e11,
                      "latency_sec": 6e-6},
         "uplink": {"class": "PCIe3", "bandwidth_bytes_per_sec": 5.8e9,
                    "latency_sec": 1.2e-5}},
        {"name": "n1", "first_device": 2, "num_devices": 2, "parent": 0,
         "internal": {"class": "PCIe3", "bandwidth_bytes_per_sec": 5.8e9,
                      "latency_sec": 1.2e-5},
         "uplink": {"class": "PCIe3", "bandwidth_bytes_per_sec": 5.8e9,
                    "latency_sec": 1.2e-5}}
      ],
      "islands": [
        {"name": "fast", "first_device": 0, "num_devices": 2,
         "sustained_flops": 6e13, "memory_bytes": 40000000000},
        {"name": "slow", "first_device": 2, "num_devices": 2,
         "sustained_flops": 1.4e13, "memory_bytes": 24000000000,
         "small_batch_half_life": 2.0}
      ]
    }
  })";
  auto cluster = ParseTopologyClusterJson(json);
  ASSERT_TRUE(cluster.ok()) << cluster.status();
  EXPECT_EQ(cluster->name(), "mixed-pod");
  EXPECT_EQ(cluster->num_devices(), 4);
  ASSERT_NE(cluster->topology(), nullptr);
  EXPECT_DOUBLE_EQ(cluster->pipeline_rpc_overhead_sec(), 0.002);
  EXPECT_DOUBLE_EQ(cluster->device(0).sustained_flops, 6e13);
  EXPECT_DOUBLE_EQ(cluster->device(3).sustained_flops, 1.4e13);
  EXPECT_EQ(cluster->device(3).memory_bytes, int64_t{24000000000});
  EXPECT_DOUBLE_EQ(cluster->device(3).small_batch_half_life, 2.0);
}

TEST_F(PlanIoTest, RejectsMalformedTopologyDocuments) {
  auto doc = [](const std::string& nodes, const std::string& islands) {
    return std::string("{\"name\": \"t\", \"topology\": {\"nodes\": [") +
           nodes + "], \"islands\": [" + islands + "]}}";
  };
  const std::string root_node =
      "{\"name\": \"r\", \"first_device\": 0, \"num_devices\": 4, "
      "\"parent\": -1, \"internal\": {\"class\": \"IB-100Gb\", "
      "\"bandwidth_bytes_per_sec\": 9.5e9, \"latency_sec\": 2e-5}}";
  const std::string good_islands =
      "{\"name\": \"a\", \"first_device\": 0, \"num_devices\": 4, "
      "\"sustained_flops\": 6e13, \"memory_bytes\": 1000000}";
  ASSERT_TRUE(ParseTopologyClusterJson(doc(root_node, good_islands)).ok());

  // Non-covering islands: a gap at device 3.
  EXPECT_FALSE(
      ParseTopologyClusterJson(
          doc(root_node,
              "{\"name\": \"a\", \"first_device\": 0, \"num_devices\": 3, "
              "\"sustained_flops\": 6e13, \"memory_bytes\": 1000000}"))
          .ok());
  // Cyclic graph: two non-root nodes pointing at each other.
  EXPECT_FALSE(
      ParseTopologyClusterJson(
          doc(root_node +
                  ", {\"name\": \"x\", \"first_device\": 0, "
                  "\"num_devices\": 2, \"parent\": 2, \"internal\": "
                  "{\"class\": \"NVLink\", \"bandwidth_bytes_per_sec\": "
                  "1e11, \"latency_sec\": 0}, \"uplink\": {\"class\": "
                  "\"PCIe3\", \"bandwidth_bytes_per_sec\": 5.8e9, "
                  "\"latency_sec\": 0}}, {\"name\": \"y\", "
                  "\"first_device\": 2, \"num_devices\": 2, \"parent\": 1, "
                  "\"internal\": {\"class\": \"NVLink\", "
                  "\"bandwidth_bytes_per_sec\": 1e11, \"latency_sec\": 0}, "
                  "\"uplink\": {\"class\": \"PCIe3\", "
                  "\"bandwidth_bytes_per_sec\": 5.8e9, \"latency_sec\": 0}}",
              good_islands))
          .ok());
  // Zero-bandwidth uplink.
  EXPECT_FALSE(
      ParseTopologyClusterJson(
          doc(root_node +
                  ", {\"name\": \"x\", \"first_device\": 0, "
                  "\"num_devices\": 2, \"parent\": 0, \"internal\": "
                  "{\"class\": \"NVLink\", \"bandwidth_bytes_per_sec\": "
                  "1e11, \"latency_sec\": 0}, \"uplink\": {\"class\": "
                  "\"PCIe3\", \"bandwidth_bytes_per_sec\": 0, "
                  "\"latency_sec\": 0}}",
              good_islands))
          .ok());
  // Structural rejections: missing topology, missing islands, bad kinds.
  EXPECT_FALSE(ParseTopologyClusterJson("{\"name\": \"t\"}").ok());
  EXPECT_FALSE(ParseTopologyClusterJson(doc(root_node, "")).ok());
  EXPECT_FALSE(
      ParseTopologyClusterJson("{\"name\": \"t\", \"topology\": 42}").ok());
}

TEST_F(PlanIoTest, TraceExportIsWellFormedJson) {
  auto result = Galvatron::Plan(model_, cluster_);
  ASSERT_TRUE(result.ok());
  SimOptions sim_options;
  sim_options.record_trace = true;
  Simulator simulator(&cluster_, sim_options);
  SimTrace sim_trace;
  auto metrics = simulator.Run(model_, result->plan, &sim_trace);
  ASSERT_TRUE(metrics.ok());
  auto exec_trace = trace::RecordTrace(sim_trace);
  ASSERT_TRUE(exec_trace.ok()) << exec_trace.status();
  const std::string chrome = trace::ToChromeTraceJson(*exec_trace);
  auto parsed = ParseJson(chrome);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  auto events = GetMember(*parsed, "traceEvents", JsonValue::Kind::kArray);
  ASSERT_TRUE(events.ok());
  // Slice count is in the ballpark of the task count (multi-stream tasks
  // emit one slice per stream; zero-duration bookkeeping is skipped).
  size_t slices = 0;
  for (const JsonValue& event : (*events)->array) {
    auto ph = GetString(event, "ph");
    ASSERT_TRUE(ph.ok());
    if (*ph == "X") ++slices;
  }
  EXPECT_GE(slices, static_cast<size_t>(metrics->num_tasks) / 2);
}

TEST_F(PlanIoTest, DiagramShowsRunsAndBars) {
  auto result = Galvatron::Plan(model_, cluster_);
  ASSERT_TRUE(result.ok());
  const std::string diagram = RenderPlanDiagram(model_, result->plan);
  // Header, a stage line, bars for parameters and activations.
  EXPECT_NE(diagram.find("plan diagram for BERT-Huge-32"), std::string::npos);
  EXPECT_NE(diagram.find("stage0[gpu0-"), std::string::npos);
  EXPECT_NE(diagram.find(" P|"), std::string::npos);
  EXPECT_NE(diagram.find(" A|"), std::string::npos);
  EXPECT_NE(diagram.find("Encoder"), std::string::npos);
  EXPECT_NE(diagram.find("Embedding"), std::string::npos);
  // Runs compress: far fewer rows than layers.
  EXPECT_LT(std::count(diagram.begin(), diagram.end(), '\n'),
            model_.num_layers());
}

TEST_F(PlanIoTest, DiagramSeparatesDifferentLayerKinds) {
  // Swin's stages have different widths: the diagram must not merge rows
  // across patch-merge boundaries even under one strategy.
  ModelSpec swin = BuildModel(ModelId::kSwinHuge32);
  auto result = Galvatron::Plan(swin, cluster_);
  ASSERT_TRUE(result.ok());
  const std::string diagram = RenderPlanDiagram(swin, result->plan);
  EXPECT_NE(diagram.find("PatchMerge"), std::string::npos);
}

}  // namespace
}  // namespace galvatron
