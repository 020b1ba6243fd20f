#include <gtest/gtest.h>

#include <algorithm>

#include "cluster/cluster.h"
#include "estimator/cost_estimator.h"
#include "ir/model_zoo.h"
#include "ir/transformer_builder.h"
#include "parallel/decision_tree.h"
#include "search/dp_search.h"
#include "search/optimizer.h"
#include "util/math_util.h"
#include "util/thread_pool.h"

namespace galvatron {
namespace {

ModelSpec SmallBert(int layers) {
  BertConfig config;
  config.num_layers = layers;
  config.hidden = 1024;
  config.heads = 16;
  return BuildBert("small-bert", config);
}

class DpSearchTest : public ::testing::Test {
 protected:
  DpSearchTest()
      : cluster_(MakeTitanNode8(16 * kGB)),
        estimator_(&cluster_),
        search_(&estimator_) {}

  ClusterSpec cluster_;
  CostEstimator estimator_;
  DpSearch search_;
};

TEST_F(DpSearchTest, SingleLayerPicksCheapestFittingStrategy) {
  ModelSpec model = SmallBert(4);
  auto candidates = EnumerateSingleLayerStrategies(8);
  ASSERT_TRUE(candidates.ok());
  auto result = search_.Run(model, 1, 1, *candidates, 0, 8, 1, 16 * kGB);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->per_layer_option.size(), 1u);
  // Verify it is really the argmin over candidates.
  double best = 1e18;
  for (const HybridStrategy& s : *candidates) {
    auto cost = estimator_.EstimateLayer(model.layer(1), s, 0, 8, 1);
    ASSERT_TRUE(cost.ok());
    best = std::min(best,
                    cost->IterationSeconds(1, estimator_.options()));
  }
  EXPECT_NEAR(result->stage_seconds, best, 1e-9);
}

TEST_F(DpSearchTest, MatchesBruteForceOnSmallInstances) {
  // Property check: the DP must equal exhaustive search for every small
  // (layers, batch, budget) combination.
  ModelSpec model = SmallBert(3);  // 5 layers: embed + 3 enc + head
  auto candidates = EnumerateSingleLayerStrategies(8);
  ASSERT_TRUE(candidates.ok());
  for (int batch : {8, 32}) {
    for (int64_t budget : {6 * kGB, 10 * kGB, 20 * kGB}) {
      auto dp = search_.Run(model, 0, model.num_layers(), *candidates, 0,
                            batch, 1, budget);
      auto bf = BruteForceSearch(estimator_, model, 0, model.num_layers(),
                                 *candidates, 0, batch, 1, budget);
      ASSERT_EQ(dp.ok(), bf.ok())
          << "batch " << batch << " budget " << budget << ": "
          << dp.status() << " vs " << bf.status();
      if (!dp.ok()) continue;
      EXPECT_NEAR(dp->stage_seconds, bf->stage_seconds,
                  1e-9 * std::max(1.0, bf->stage_seconds))
          << "batch " << batch << " budget " << budget;
    }
  }
}

TEST_F(DpSearchTest, BudgetRoundingAgreesWithBruteForceAtGranuleBoundaries) {
  // Regression: BruteForceSearch used to floor the quantized budget while
  // the DP rounded it up with CeilDiv, so the two disagreed — about
  // feasibility itself, or about the optimum — at any budget that is not
  // an exact granule multiple near the feasibility frontier.
  ModelSpec model = SmallBert(2);  // 4 layers: embed + 2 enc + head
  auto candidates = EnumerateSingleLayerStrategies(8);
  ASSERT_TRUE(candidates.ok());
  const int64_t gran = DpSearchOptions{}.memory_granularity;
  auto dp_feasible = [&](int64_t budget) {
    return search_
        .Run(model, 0, model.num_layers(), *candidates, 0, 8, 1, budget)
        .ok();
  };
  // Bracket the DP feasibility frontier.
  int64_t lo = gran;
  int64_t hi = 40 * kGB;
  ASSERT_FALSE(dp_feasible(lo));
  ASSERT_TRUE(dp_feasible(hi));
  while (hi - lo > gran / 8) {
    const int64_t mid = lo + (hi - lo) / 2;
    (dp_feasible(mid) ? hi : lo) = mid;
  }
  // Scan the frontier in quarter-granule steps: these budgets straddle
  // granule boundaries, which is exactly where flooring diverged.
  for (int64_t budget = hi - gran; budget <= hi + gran; budget += gran / 4) {
    auto dp = search_.Run(model, 0, model.num_layers(), *candidates, 0, 8,
                          1, budget);
    auto bf = BruteForceSearch(estimator_, model, 0, model.num_layers(),
                               *candidates, 0, 8, 1, budget);
    ASSERT_EQ(dp.ok(), bf.ok())
        << "budget " << budget << ": " << dp.status() << " vs "
        << bf.status();
    if (!dp.ok()) continue;
    EXPECT_NEAR(dp->stage_seconds, bf->stage_seconds,
                1e-9 * std::max(1.0, bf->stage_seconds))
        << "budget " << budget;
  }
}

TEST_F(DpSearchTest, InfeasibleWhenBudgetTooSmall) {
  ModelSpec model = SmallBert(4);
  auto candidates = EnumerateSingleLayerStrategies(8);
  auto result =
      search_.Run(model, 0, model.num_layers(), *candidates, 0, 8, 1,
                  int64_t{100} * 1024 * 1024);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInfeasible());
}

TEST_F(DpSearchTest, TighterBudgetNeverFaster) {
  ModelSpec model = SmallBert(8);
  auto candidates = EnumerateSingleLayerStrategies(8);
  double prev = 1e18;
  for (int64_t budget :
       {4 * kGB, 6 * kGB, 8 * kGB, 12 * kGB, 20 * kGB}) {
    auto result = search_.Run(model, 0, model.num_layers(), *candidates, 0,
                              32, 1, budget);
    if (!result.ok()) continue;
    EXPECT_LE(result->stage_seconds, prev + 1e-9)
        << "budget " << budget;
    prev = result->stage_seconds;
  }
  EXPECT_LT(prev, 1e18);  // at least one budget was feasible
}

TEST_F(DpSearchTest, MemoryStaysWithinBudget) {
  ModelSpec model = SmallBert(8);
  auto candidates = EnumerateSingleLayerStrategies(8);
  for (int64_t budget : {6 * kGB, 12 * kGB}) {
    auto result = search_.Run(model, 0, model.num_layers(), *candidates, 0,
                              32, 1, budget);
    if (!result.ok()) continue;
    EXPECT_LE(result->resident_memory_bytes,
              budget + DpSearchOptions{}.memory_granularity);
  }
}

TEST_F(DpSearchTest, StatesExploredScalesLinearlyInLayers) {
  // Figure 4(a): search cost is linear in the layer count. The dense
  // reference's cell count is exactly linear in L; DpSearch's breakpoint
  // count grows with frontier size instead, so pin the dense sweep here.
  auto candidates = EnumerateSingleLayerStrategies(8);
  ModelSpec small = SmallBert(8);
  ModelSpec large = SmallBert(16);
  auto a = DenseDpSearch(estimator_, small, 0, small.num_layers(),
                         *candidates, 0, 8, 1, 16 * kGB);
  auto b = DenseDpSearch(estimator_, large, 0, large.num_layers(),
                         *candidates, 0, 8, 1, 16 * kGB);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  const double ratio = static_cast<double>(b->states_explored) /
                       static_cast<double>(a->states_explored);
  const double layer_ratio = static_cast<double>(large.num_layers()) /
                             static_cast<double>(small.num_layers());
  EXPECT_NEAR(ratio, layer_ratio, 0.35 * layer_ratio);
}

/// The budget-units cap is inclusive, and checked before any scratch is
/// sized: at a 1 MiB granularity a budget of exactly kMaxBudgetUnits
/// granules searches, one byte more is refused by every searcher.
TEST_F(DpSearchTest, BudgetUnitsCapIsCheckedBeforeTheSearch) {
  const ModelSpec model = SmallBert(1);
  auto candidates = EnumerateSingleLayerStrategies(8);
  ASSERT_TRUE(candidates.ok());
  DpSearchOptions options;
  options.memory_granularity = int64_t{1} << 20;
  const DpSearch search(&estimator_, options);
  const int64_t at_cap = kMaxBudgetUnits * options.memory_granularity;
  auto fits = search.Run(model, 0, model.num_layers(), *candidates, 0, 8, 1,
                         at_cap);
  EXPECT_TRUE(fits.ok()) << fits.status();
  DpStageFacts facts;
  ASSERT_TRUE(search
                  .StageFacts(model, 0, model.num_layers(), *candidates, 0, 8,
                              1, -1, {}, &facts)
                  .ok());
  EXPECT_TRUE(search.BoundStage(facts, nullptr, at_cap).has_value());

  auto over = search.Run(model, 0, model.num_layers(), *candidates, 0, 8, 1,
                         at_cap + 1);
  EXPECT_TRUE(over.status().IsInvalidArgument()) << over.status();
  // BoundStage takes only budgets the sweep has checked this way.
  EXPECT_TRUE(ValidateBudgetUnits(at_cap + 1, options.memory_granularity)
                  .IsInvalidArgument());
  auto over_dense =
      DenseDpSearch(estimator_, model, 0, model.num_layers(), *candidates, 0,
                    8, 1, at_cap + 1, options);
  EXPECT_TRUE(over_dense.status().IsInvalidArgument())
      << over_dense.status();
}

class OptimizerTest : public ::testing::Test {
 protected:
  OptimizerTest() : cluster_(MakeTitanNode8(16 * kGB)) {}
  ClusterSpec cluster_;
};

TEST_F(OptimizerTest, ProducesValidPlans) {
  ModelSpec model = SmallBert(8);
  Optimizer optimizer(&cluster_);
  auto result = optimizer.Optimize(model);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->plan.Validate(model, 8).ok());
  EXPECT_GT(result->estimated.throughput_samples_per_sec, 0);
  EXPECT_GT(result->stats.configs_explored, 0);
}

TEST_F(OptimizerTest, ThroughputMonotoneInMemoryBudget) {
  // More memory can only help (Table 1's rows are increasing).
  ModelSpec model = BuildModel(ModelId::kBertHuge32);
  double prev = 0;
  for (int64_t budget : {8 * kGB, 12 * kGB, 16 * kGB, 20 * kGB}) {
    ClusterSpec cluster = cluster_.WithMemoryBudget(budget);
    Optimizer optimizer(&cluster);
    auto result = optimizer.Optimize(model);
    ASSERT_TRUE(result.ok()) << budget << ": " << result.status();
    EXPECT_GE(result->estimated.throughput_samples_per_sec, prev - 1e-9);
    prev = result->estimated.throughput_samples_per_sec;
  }
}

TEST_F(OptimizerTest, InfeasibleOnTinyBudget) {
  ModelSpec model = BuildModel(ModelId::kBertHuge48);
  ClusterSpec cluster = cluster_.WithMemoryBudget(1 * kGB);
  Optimizer optimizer(&cluster);
  auto result = optimizer.Optimize(model);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInfeasible());
}

/// A one-byte memory granularity makes a 10 GB budget 10^10 budget
/// units. It used to be narrowed to int unchecked: at 10 GB the kernel
/// sized its merge scratch by it and ran out of memory; at 12 GB it
/// wrapped negative, every stage search answered "memory budget below
/// transient headroom" and the plan silently fell back to uniform
/// strategies. The sweep now refuses it before any stage search runs.
TEST_F(OptimizerTest, RejectsAGranularityTooFineForTheBudget) {
  const ModelSpec model = BuildModel(ModelId::kBertHuge32);
  for (const int64_t budget : {10 * kGB, 12 * kGB}) {
    const ClusterSpec cluster = MakeTitanNode8(budget);
    OptimizerOptions options;
    options.memory_granularity = 1;
    auto result = Optimizer(&cluster, options).Optimize(model);
    ASSERT_FALSE(result.ok()) << "budget " << budget;
    EXPECT_TRUE(result.status().IsInvalidArgument()) << result.status();
  }
}

TEST_F(OptimizerTest, RestrictedModesUseOnlyAllowedDims) {
  ModelSpec model = BuildModel(ModelId::kViTHuge32);
  OptimizerOptions options;
  options.tree.allow_sdp = false;
  options.tree.allow_tp = false;
  options.tree.fixed_order = true;
  Optimizer optimizer(&cluster_, options);
  auto result = optimizer.Optimize(model);
  ASSERT_TRUE(result.ok()) << result.status();
  for (const StagePlan& stage : result->plan.stages) {
    for (const HybridStrategy& s : stage.layer_strategies) {
      EXPECT_FALSE(s.Uses(ParallelDim::kShardedData)) << s.ToString();
      EXPECT_FALSE(s.Uses(ParallelDim::kTensor)) << s.ToString();
    }
  }
}

TEST_F(OptimizerTest, FullSearchAtLeastAsGoodAsRestricted) {
  // The paper's core claim: more dimensions never hurt (Table 1).
  ModelSpec model = BuildModel(ModelId::kViTHuge32);
  Optimizer full(&cluster_);
  auto best = full.Optimize(model);
  ASSERT_TRUE(best.ok());

  for (bool restrict_tp : {false, true}) {
    OptimizerOptions options;
    options.tree.allow_sdp = false;
    if (restrict_tp) {
      options.tree.allow_tp = false;
    } else {
      options.pp_degrees = {1};
    }
    options.tree.fixed_order = true;
    Optimizer restricted(&cluster_, options);
    auto result = restricted.Optimize(model);
    ASSERT_TRUE(result.ok());
    EXPECT_GE(best->estimated.throughput_samples_per_sec,
              result->estimated.throughput_samples_per_sec - 1e-9);
  }
}

TEST_F(OptimizerTest, FixedPipelineDegreeRespected) {
  ModelSpec model = SmallBert(8);
  OptimizerOptions options;
  options.pp_degrees = {2};
  Optimizer optimizer(&cluster_, options);
  auto result = optimizer.Optimize(model);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->plan.pp_degree(), 2);
}

TEST_F(OptimizerTest, SearchStatsPopulated) {
  ModelSpec model = SmallBert(8);
  Optimizer optimizer(&cluster_);
  auto result = optimizer.Optimize(model);
  ASSERT_TRUE(result.ok());
  // 22 candidates across PP degrees on 8 GPUs (Figure 2).
  EXPECT_EQ(result->stats.num_candidate_strategies, 22);
  EXPECT_GT(result->stats.dp_states_explored, 0);
  EXPECT_GE(result->stats.search_seconds, 0.0);
  // The phase timers partition the run; the sweep dominates.
  EXPECT_GE(result->stats.enumerate_seconds, 0.0);
  EXPECT_GT(result->stats.sweep_seconds, 0.0);
  EXPECT_GE(result->stats.co_optimize_seconds, 0.0);
  // An 8-layer BERT repeats one encoder shape and stage blocks repeat
  // across configurations, so cross-Run sharing must produce hits. (The
  // per-Run slots absorb intra-Run repeats before they reach these
  // counters, so misses can still outnumber hits.)
  EXPECT_GT(result->stats.cost_cache_misses, 0);
  EXPECT_GT(result->stats.cost_cache_hits, 0);
  EXPECT_EQ(result->stats.search_threads_used, 1);
}

TEST_F(OptimizerTest, PlanBitStableAcrossThreadCountsAndRuns) {
  // The parallel sweep must be invisible in the output: every thread count
  // and every repetition yields byte-identical plans and bit-identical
  // estimates (deterministic merge + total-order tie-breaking).
  ModelSpec model = SmallBert(8);
  std::string reference_plan;
  double reference_throughput = 0.0;
  size_t reference_alternates = 0;
  for (int threads : {1, 4}) {
    for (int run = 0; run < 3; ++run) {
      OptimizerOptions options;
      options.search_threads = threads;
      Optimizer optimizer(&cluster_, options);
      auto result = optimizer.Optimize(model);
      ASSERT_TRUE(result.ok()) << result.status();
      // The effective pool is capped at the host's core count, so the
      // report is min(requested, hardware) — never the raw request.
      EXPECT_EQ(result->stats.search_threads_used,
                std::min(threads, ThreadPool::HardwareThreads()));
      if (reference_plan.empty()) {
        reference_plan = result->plan.ToString();
        reference_throughput = result->estimated.throughput_samples_per_sec;
        reference_alternates = result->alternates.size();
        continue;
      }
      EXPECT_EQ(result->plan.ToString(), reference_plan)
          << "threads " << threads << " run " << run;
      // Bit-identical, not just close: same estimator calls, same merge.
      EXPECT_EQ(result->estimated.throughput_samples_per_sec,
                reference_throughput)
          << "threads " << threads << " run " << run;
      EXPECT_EQ(result->alternates.size(), reference_alternates);
    }
  }
}

}  // namespace
}  // namespace galvatron
