/// Depth coverage for corners the main suites pass through implicitly:
/// special layer kinds under every strategy family, plan arithmetic,
/// estimator/profile fallbacks, collective edge cases, and printing.

#include <gtest/gtest.h>

#include "api/galvatron.h"
#include "api/plan_io.h"
#include "estimator/profiler.h"
#include "search/dp_search.h"
#include "parallel/decision_tree.h"
#include "ir/transformer_builder.h"
#include "parallel/transformation.h"
#include "util/math_util.h"
#include "workload/workload.h"

namespace galvatron {
namespace {

HybridStrategy Make(std::vector<ParallelComponent> levels) {
  auto r = HybridStrategy::Create(std::move(levels));
  EXPECT_TRUE(r.ok()) << r.status();
  return *std::move(r);
}

// --- Special layer kinds under each strategy family ----------------------

class SpecialLayersTest : public ::testing::Test {
 protected:
  SpecialLayersTest()
      : cluster_(MakeTitanNode8(16 * kGB)), cost_model_(&cluster_) {}

  ClusterSpec cluster_;
  LayerCostModel cost_model_;
};

TEST_F(SpecialLayersTest, VocabParallelEmbeddingShardsUnderTp) {
  LayerSpec embed = BuildTokenEmbeddingLayer("e", 32000, 512, 1024,
                                             /*learned_positions=*/true);
  auto serial = cost_model_.Analyze(embed, HybridStrategy(), 0, 8);
  auto tp = cost_model_.Analyze(embed, Make({{ParallelDim::kTensor, 8}}), 0, 8);
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(tp.ok());
  // Vocabulary matrix shards; positions replicate.
  EXPECT_LT(tp->state_memory_bytes, serial->state_memory_bytes / 4);
  EXPECT_GT(tp->state_memory_bytes, serial->state_memory_bytes / 9);
  // Forward emits the vocab-parallel all-reduce; backward has no input
  // gradient to synchronize.
  ASSERT_EQ(tp->fwd_comms.size(), 1u);
  EXPECT_TRUE(tp->bwd_comms.empty());
}

TEST_F(SpecialLayersTest, PatchMergeAndHeadAnalyzeUnderAllFamilies) {
  LayerSpec merge = BuildPatchMergeLayer("m", 784, 320, 640);
  LayerSpec head = BuildHeadLayer("h", 49, 2560, 1000, false);
  for (const HybridStrategy& s :
       {HybridStrategy(), Make({{ParallelDim::kData, 8}}),
        Make({{ParallelDim::kShardedData, 8}}),
        Make({{ParallelDim::kTensor, 8}}),
        Make({{ParallelDim::kTensor, 2}, {ParallelDim::kData, 4}})}) {
    for (const LayerSpec* layer : {&merge, &head}) {
      auto exec = cost_model_.Analyze(*layer, s, 0, 16);
      ASSERT_TRUE(exec.ok()) << layer->name() << " " << s.ToString();
      EXPECT_GT(exec->fwd_compute_sec, 0);
      EXPECT_GE(exec->state_memory_bytes, 0);
    }
  }
}

TEST_F(SpecialLayersTest, DecoderCarriesEncoderMemoryAcrossBoundary) {
  TransformerBlockDims dims;
  dims.seq = 512;
  dims.hidden = 1024;
  dims.heads = 16;
  dims.intermediate = 4096;
  dims.attend_width = 512;
  LayerSpec enc = BuildEncoderLayer("e", dims);
  LayerSpec dec = BuildDecoderLayer("d", dims, 512);
  // The decoder boundary ships decoder stream + encoder memory.
  EXPECT_EQ(dec.input_bytes(), 2 * enc.input_bytes());
}

// --- Transformation corner cases ------------------------------------------

TEST_F(SpecialLayersTest, EqualBatchSplitDifferentOrderIsFree) {
  // tp2-dp4 and dp4-tp2 both split the batch 4 ways; reordering the levels
  // re-maps devices but each device already holds a valid shard: slicing
  // only.
  TransformerBlockDims dims;
  dims.seq = 128;
  dims.hidden = 512;
  dims.heads = 8;
  dims.intermediate = 2048;
  dims.attend_width = 128;
  LayerSpec layer = BuildEncoderLayer("x", dims);
  auto cost = ComputeTransformationCost(
      layer, layer, Make({{ParallelDim::kTensor, 2}, {ParallelDim::kData, 4}}),
      Make({{ParallelDim::kData, 4}, {ParallelDim::kTensor, 2}}), 0, 16,
      cluster_);
  ASSERT_TRUE(cost.ok());
  EXPECT_DOUBLE_EQ(cost->seconds, 0.0);
  // DP <-> SDP swaps at equal degree are also free (same batch split).
  auto swap = ComputeTransformationCost(
      layer, layer, Make({{ParallelDim::kData, 8}}),
      Make({{ParallelDim::kShardedData, 8}}), 0, 16, cluster_);
  EXPECT_DOUBLE_EQ(swap->seconds, 0.0);
}

// --- Plan arithmetic -------------------------------------------------------

TEST(PlanArithmeticTest, MicroBatchSizeCeils) {
  TrainingPlan plan;
  plan.global_batch = 10;
  plan.num_micro_batches = 4;
  EXPECT_EQ(plan.MicroBatchSize(), 3);
  plan.num_micro_batches = 5;
  EXPECT_EQ(plan.MicroBatchSize(), 2);
}

TEST(PlanArithmeticTest, InFlightForDegreeEdges) {
  const PipelineSchedule one_f_one_b = PipelineSchedule::k1F1B;
  EXPECT_EQ(InFlightMicroBatches(one_f_one_b, 6, 4, 0), 4);
  EXPECT_EQ(InFlightMicroBatches(one_f_one_b, 6, 4, 3), 1);
  EXPECT_EQ(InFlightMicroBatches(one_f_one_b, 6, 8, 0), 6);  // capped by m
  EXPECT_EQ(InFlightMicroBatches(one_f_one_b, 6, 1, 0), 1);
  EXPECT_EQ(InFlightMicroBatches(PipelineSchedule::kGPipe, 6, 4, 0), 6);
}

// --- Estimator / profiler fallbacks ---------------------------------------

TEST(ProfileFallbackTest, UnknownSignatureFallsBackToAnalytic) {
  ClusterSpec cluster = MakeTitanNode8(16 * kGB);
  ModelSpec bert = BuildModel(ModelId::kBertHuge32);
  ProfileTable empty_table;  // no entries at all
  CostEstimator with_profile(&cluster);
  with_profile.set_profile(&empty_table);
  CostEstimator analytic(&cluster);
  auto a = analytic.EstimateLayer(bert.layer(1), HybridStrategy(), 0, 8, 1);
  auto b =
      with_profile.EstimateLayer(bert.layer(1), HybridStrategy(), 0, 8, 1);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_DOUBLE_EQ(a->fwd_mb_sec, b->fwd_mb_sec);
}

// --- Collective edges ------------------------------------------------------

TEST(CollectiveEdgeTest, BroadcastAndSteps) {
  EXPECT_DOUBLE_EQ(RingTrafficFactor(CollectiveKind::kBroadcast, 8), 1.0);
  EXPECT_EQ(RingSteps(CollectiveKind::kBroadcast, 8), 7);
  EXPECT_EQ(RingSteps(CollectiveKind::kAllReduce, 8), 14);
  EXPECT_EQ(RingSteps(CollectiveKind::kPointToPoint, 2), 1);
  EXPECT_EQ(RingSteps(CollectiveKind::kAllGather, 1), 0);
}

// --- Printing --------------------------------------------------------------

TEST(PrintingTest, ClusterToStringMentionsTopology) {
  std::string s = MakeA100Cluster64(32 * kGB).ToString();
  EXPECT_NE(s.find("64 devices"), std::string::npos);
  EXPECT_NE(s.find("NVLink"), std::string::npos);
  EXPECT_NE(s.find("IB-100Gb"), std::string::npos);
}

TEST(PrintingTest, StatusAndStrategyStreaming) {
  std::ostringstream os;
  os << Status::OutOfMemory("x");
  EXPECT_EQ(os.str(), "OutOfMemory: x");
  EXPECT_EQ(Make({{ParallelDim::kTensor, 2},
                  {ParallelDim::kShardedData, 2},
                  {ParallelDim::kData, 2}})
                .ToString(),
            "tp2-sdp2-dp2");
}

TEST(PrintingTest, DimNames) {
  EXPECT_EQ(ParallelDimToString(ParallelDim::kPipeline), "PipelineParallel");
  EXPECT_EQ(ParallelDimToShortString(ParallelDim::kShardedData), "sdp");
  EXPECT_EQ(LayerKindToString(LayerKind::kPatchMerge), "PatchMerge");
  EXPECT_EQ(PartitionPolicyToString(PartitionPolicy::kActivationMemory),
            "activation-memory");
  EXPECT_EQ(LengthPolicyToString(LengthPolicy::kPadToBatchMax),
            "pad-to-batch-max");
}

// --- JSON parser numeric edges ---------------------------------------------

TEST(JsonEdgeTest, AcceptsExponentAndSignedNumbers) {
  // The parser must treat numeric fields liberally (hand-edited plans).
  auto plan = ParsePlanJson(
      "{\"model\":\"m\",\"global_batch\":1.6e1,\"micro_batches\":1,"
      "\"schedule\":\"gpipe\",\"stages\":[{\"first_device\":0,"
      "\"num_devices\":8,\"first_layer\":0,\"num_layers\":1,"
      "\"layers\":[{\"strategy\":\"dp8\",\"recompute\":false}]}]}");
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_EQ(plan->global_batch, 16);
}

TEST(JsonEdgeTest, RejectsTrailingGarbage) {
  EXPECT_FALSE(ParsePlanJson("{\"model\":\"m\"} extra").ok());
}

// --- DP-search granularity sensitivity --------------------------------------

TEST(GranularityTest, CoarserGranularityNeverFindsBetterPlans) {
  // Coarser memory buckets can only shrink the feasible set (rounding is
  // unbiased but the budget is the binding constraint), so the found stage
  // time is monotone non-decreasing in granularity up to bucket noise.
  ClusterSpec cluster = MakeTitanNode8(8 * kGB);
  CostEstimator estimator(&cluster);
  ModelSpec model = BuildModel(ModelId::kBertHuge32);
  auto candidates = EnumerateSingleLayerStrategies(8);
  double fine_time = 0;
  for (int64_t gran_mb : {16, 64, 256}) {
    DpSearchOptions options;
    options.memory_granularity = gran_mb * 1024 * 1024;
    DpSearch search(&estimator, options);
    auto result = search.Run(model, 0, model.num_layers(), *candidates, 0,
                             8, 1, 8 * kGB);
    ASSERT_TRUE(result.ok()) << gran_mb << "MB: " << result.status();
    if (fine_time == 0) fine_time = result->stage_seconds;
    // All granularities land within 10% of the fine solution.
    EXPECT_LT(RelativeError(result->stage_seconds, fine_time), 0.10)
        << gran_mb;
  }
}

// --- Workload edge ---------------------------------------------------------

TEST(WorkloadEdgeTest, LoadTimeScalesWithBatch) {
  auto small = SampleIterations(MakeImageNetWorkload(), 8, 1, 3);
  auto large = SampleIterations(MakeImageNetWorkload(), 64, 1, 3);
  EXPECT_NEAR(large[0].load_sec / small[0].load_sec, 8.0, 1e-9);
}

}  // namespace
}  // namespace galvatron
