#include <gtest/gtest.h>

#include "cluster/cluster.h"
#include "estimator/cost_estimator.h"
#include "ir/model_zoo.h"
#include "parallel/pipeline_partition.h"
#include "parallel/plan.h"
#include "util/math_util.h"

namespace galvatron {
namespace {

HybridStrategy Make(std::vector<ParallelComponent> levels) {
  auto r = HybridStrategy::Create(std::move(levels));
  EXPECT_TRUE(r.ok()) << r.status();
  return *std::move(r);
}

class EstimatorTest : public ::testing::Test {
 protected:
  EstimatorTest()
      : cluster_(MakeTitanNode8(16 * kGB)),
        estimator_(&cluster_),
        bert_(BuildModel(ModelId::kBertHuge32)) {}

  ClusterSpec cluster_;
  CostEstimator estimator_;
  ModelSpec bert_;
};

TEST_F(EstimatorTest, CombineOverlapFormula) {
  // Overlap(a, b) = max + (k-1) * min with k = 1.3.
  EXPECT_NEAR(estimator_.CombineOverlap(1.0, 0.5), 1.15, 1e-12);
  EXPECT_NEAR(estimator_.CombineOverlap(0.5, 1.0), 1.15, 1e-12);
  EXPECT_NEAR(estimator_.CombineOverlap(1.0, 0.0), 1.0, 1e-12);

  CostEstimator naive(&cluster_, {.model_overlap_slowdown = false});
  EXPECT_DOUBLE_EQ(naive.CombineOverlap(1.0, 0.5), 1.0);
}

TEST_F(EstimatorTest, LayerCostPieces) {
  const LayerSpec& layer = bert_.layer(1);  // an encoder block
  auto cost = estimator_.EstimateLayer(layer, Make({{ParallelDim::kData, 8}}),
                                       0, 32, 1);
  ASSERT_TRUE(cost.ok());
  EXPECT_GT(cost->fwd_mb_sec, 0);
  EXPECT_NEAR(cost->bwd_compute_mb_sec, 2 * cost->fwd_mb_sec, 1e-9);
  EXPECT_DOUBLE_EQ(cost->bwd_blocking_mb_sec, 0.0);  // no TP
  EXPECT_DOUBLE_EQ(cost->ovl_mb_sec, 0.0);           // no SDP
  EXPECT_GT(cost->iter_comm_sec, 0.0);               // DP gradient all-reduce
}

TEST_F(EstimatorTest, SlowdownIncreasesBackwardNotForward) {
  const LayerSpec& layer = bert_.layer(1);
  CostEstimator naive(&cluster_, {.model_overlap_slowdown = false});
  HybridStrategy dp = Make({{ParallelDim::kData, 8}});
  auto with = estimator_.EstimateLayer(layer, dp, 0, 32, 1);
  auto without = naive.EstimateLayer(layer, dp, 0, 32, 1);
  ASSERT_TRUE(with.ok());
  ASSERT_TRUE(without.ok());
  EXPECT_DOUBLE_EQ(with->fwd_mb_sec, without->fwd_mb_sec);
  EXPECT_LT(without->IterationSeconds(1, naive.options()),
            with->IterationSeconds(1, estimator_.options()));
}

TEST_F(EstimatorTest, TpHasBlockingCommBothDirections) {
  const LayerSpec& layer = bert_.layer(1);
  auto cost = estimator_.EstimateLayer(layer, Make({{ParallelDim::kTensor, 8}}),
                                       0, 8, 1);
  ASSERT_TRUE(cost.ok());
  EXPECT_GT(cost->bwd_blocking_mb_sec, 0.0);
  EXPECT_DOUBLE_EQ(cost->iter_comm_sec, 0.0);
}

TEST_F(EstimatorTest, MicroBatchValidation) {
  const LayerSpec& layer = bert_.layer(1);
  HybridStrategy dp = Make({{ParallelDim::kData, 8}});
  EXPECT_FALSE(estimator_.EstimateLayer(layer, dp, 0, 8, 0).ok());
  EXPECT_FALSE(estimator_.EstimateLayer(layer, dp, 0, 8, 16).ok());
}

TEST_F(EstimatorTest, StageReportsOomBeyondBudget) {
  // The whole model on a single stage with pure DP at a huge batch.
  const HybridStrategy dp8 = Make({{ParallelDim::kData, 8}});
  auto small_plan =
      MakeUniformPlan(bert_, 8, 1, {bert_.num_layers()}, dp8, 8, 1);
  auto huge_plan =
      MakeUniformPlan(bert_, 8, 1, {bert_.num_layers()}, dp8, 512, 1);
  ASSERT_TRUE(small_plan.ok() && huge_plan.ok());
  auto small = estimator_.EstimatePlan(bert_, *small_plan);
  ASSERT_TRUE(small.ok()) << small.status();
  auto huge = estimator_.EstimatePlan(bert_, *huge_plan);
  ASSERT_FALSE(huge.ok());
  EXPECT_TRUE(huge.status().IsOutOfMemory());
}

TEST_F(EstimatorTest, StageCostGrowsWithBatch) {
  const HybridStrategy sdp8 = Make({{ParallelDim::kShardedData, 8}});
  auto b8_plan = MakeUniformPlan(bert_, 8, 1, {bert_.num_layers()}, sdp8, 8, 1);
  auto b16_plan =
      MakeUniformPlan(bert_, 8, 1, {bert_.num_layers()}, sdp8, 16, 1);
  ASSERT_TRUE(b8_plan.ok() && b16_plan.ok());
  auto b8 = estimator_.EstimatePlan(bert_, *b8_plan);
  auto b16 = estimator_.EstimatePlan(bert_, *b16_plan);
  ASSERT_TRUE(b8.ok());
  ASSERT_TRUE(b16.ok());
  EXPECT_GT(b16->stages[0].seconds, b8->stages[0].seconds);
  // But less than 2x: weight collectives are batch-independent.
  EXPECT_LT(b16->stages[0].seconds, 2 * b8->stages[0].seconds);
}

TEST_F(EstimatorTest, PlanCostMatchesStageAggregation) {
  auto sizes = PartitionPipeline(bert_, 2, PartitionPolicy::kFlops);
  auto plan = MakeUniformPlan(bert_, 8, 2, *sizes,
                              Make({{ParallelDim::kData, 4}}), 16, 4);
  ASSERT_TRUE(plan.ok());
  auto cost = estimator_.EstimatePlan(bert_, *plan);
  ASSERT_TRUE(cost.ok()) << cost.status();
  ASSERT_EQ(cost->stages.size(), 2u);
  // iter = sum u_i + (m-1) max u_i.
  const double u0 = cost->stages[0].seconds / 4;
  const double u1 = cost->stages[1].seconds / 4;
  EXPECT_NEAR(cost->iteration_seconds, u0 + u1 + 3 * std::max(u0, u1), 1e-9);
  EXPECT_NEAR(cost->throughput_samples_per_sec,
              16 / cost->iteration_seconds, 1e-9);
}

TEST_F(EstimatorTest, MicroBatchCountTradesBubblesAgainstEfficiency) {
  // At a large batch, m = 2P beats m = P (bubble amortization dominates);
  // but slicing all the way down to 1-sample micro-batches loses to the
  // small-batch inefficiency and per-micro-batch overheads.
  auto sizes = PartitionPipeline(bert_, 4, PartitionPolicy::kFlops);
  HybridStrategy dp2 = Make({{ParallelDim::kData, 2}});
  const int batch = 128;
  ClusterSpec big = cluster_.WithMemoryBudget(200 * kGB);
  CostEstimator estimator(&big);
  auto at = [&](int micro) {
    auto plan = MakeUniformPlan(bert_, 8, 4, *sizes, dp2, batch, micro);
    auto cost = estimator.EstimatePlan(bert_, *plan);
    EXPECT_TRUE(cost.ok()) << cost.status();
    return cost->iteration_seconds;
  };
  EXPECT_LT(at(8), at(4));
  EXPECT_LT(at(8), at(64));
}

TEST_F(EstimatorTest, CrossIslandDpPaysTheSlowLinkOnNvlinkNodes) {
  // On the A100 cluster, DP inside an NVLink island is far cheaper than DP
  // spanning the InfiniBand boundary (Takeaway #1's premise).
  ClusterSpec wide = MakeA100Cluster64(32 * kGB);
  CostEstimator est(&wide);
  const LayerSpec& layer = bert_.layer(1);
  auto inter =
      est.EstimateLayer(layer, Make({{ParallelDim::kData, 16}}), 0, 32, 1);
  auto intra =
      est.EstimateLayer(layer, Make({{ParallelDim::kData, 8}}), 0, 16, 1);
  ASSERT_TRUE(inter.ok());
  ASSERT_TRUE(intra.ok());
  EXPECT_GT(inter->iter_comm_sec, 5 * intra->iter_comm_sec);
}

}  // namespace
}  // namespace galvatron
