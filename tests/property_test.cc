/// Randomized property tests: invariants that must hold on arbitrary
/// instances, not just the hand-picked ones. All randomness is seeded
/// through util/rng.h, so failures reproduce deterministically.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "cluster/cluster.h"
#include "estimator/cost_estimator.h"
#include "ir/model_zoo.h"
#include "ir/transformer_builder.h"
#include "parallel/decision_tree.h"
#include "search/dp_search.h"
#include "sim/engine.h"
#include "util/rng.h"

namespace galvatron {
namespace {

/// A small Transformer with randomized dimensions (power-of-two friendly so
/// head counts divide, but otherwise arbitrary).
ModelSpec RandomModel(Rng* rng, int max_layers) {
  const int layers = 1 + static_cast<int>(rng->NextBelow(
                             static_cast<uint64_t>(max_layers)));
  const int64_t hidden = 256 << rng->NextBelow(3);  // 256/512/1024
  const int64_t seq = 128 << rng->NextBelow(3);     // 128/256/512
  BertConfig config;
  config.num_layers = layers;
  config.hidden = hidden;
  config.heads = 8;
  config.seq = seq;
  config.vocab = 8000;
  return BuildBert("random", config);
}

class RandomDpVsBruteForce : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomDpVsBruteForce, DpMatchesExhaustiveSearch) {
  Rng rng(GetParam());
  ClusterSpec cluster = MakeTitanNode8(
      static_cast<int64_t>(rng.NextDouble(4.0, 24.0) * 1e9));
  CostEstimator estimator(&cluster);
  DpSearch search(&estimator);
  ModelSpec model = RandomModel(&rng, /*max_layers=*/4);
  auto candidates = EnumerateSingleLayerStrategies(8);
  ASSERT_TRUE(candidates.ok());
  const int batch =
      8 * (1 + static_cast<int>(rng.NextBelow(6)));  // 8..48
  const int64_t budget = cluster.device_memory_bytes();

  auto dp = search.Run(model, 0, model.num_layers(), *candidates, 0, batch,
                       1, budget);
  auto bf = BruteForceSearch(estimator, model, 0, model.num_layers(),
                             *candidates, 0, batch, 1, budget);
  ASSERT_EQ(dp.ok(), bf.ok()) << dp.status() << " vs " << bf.status();
  if (!dp.ok()) {
    EXPECT_TRUE(dp.status().IsInfeasible());
    return;
  }
  EXPECT_NEAR(dp->stage_seconds, bf->stage_seconds,
              1e-9 * std::max(1.0, bf->stage_seconds));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomDpVsBruteForce,
                         ::testing::Range(uint64_t{1}, uint64_t{13}));

/// The DP must agree with exhaustive search at every memory granularity —
/// both searchers quantize the budget the same way (CeilDiv; the brute
/// force used to floor, diverging at granule-straddling budgets) — and
/// across the doubled option space when recompute is allowed.
class RandomDpVsBruteForceOptions : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(RandomDpVsBruteForceOptions, AgreeAcrossGranularitiesAndRecompute) {
  Rng rng(GetParam() * 104729);
  ClusterSpec cluster = MakeTitanNode8(
      static_cast<int64_t>(rng.NextDouble(4.0, 16.0) * 1e9));
  CostEstimator estimator(&cluster);
  ModelSpec model = RandomModel(&rng, /*max_layers=*/2);
  auto candidates = EnumerateSingleLayerStrategies(8);
  ASSERT_TRUE(candidates.ok());
  const int batch = 8 * (1 + static_cast<int>(rng.NextBelow(4)));  // 8..32
  // Budgets deliberately offset from granule multiples.
  const int64_t budget =
      cluster.device_memory_bytes() - static_cast<int64_t>(rng.NextBelow(
                                          uint64_t{48} * 1024 * 1024));

  for (const int64_t gran_mib : {8, 32, 128}) {
    for (const bool recompute : {false, true}) {
      DpSearchOptions options;
      options.memory_granularity = gran_mib * int64_t{1024} * 1024;
      options.allow_recompute = recompute;
      DpSearch search(&estimator, options);
      auto dp = search.Run(model, 0, model.num_layers(), *candidates, 0,
                           batch, 1, budget);
      auto bf = BruteForceSearch(estimator, model, 0, model.num_layers(),
                                 *candidates, 0, batch, 1, budget, options);
      auto dense = DenseDpSearch(estimator, model, 0, model.num_layers(),
                                 *candidates, 0, batch, 1, budget, options);
      ASSERT_EQ(dp.ok(), bf.ok())
          << "gran " << gran_mib << "MiB recompute " << recompute << ": "
          << dp.status() << " vs " << bf.status();
      ASSERT_EQ(dp.ok(), dense.ok())
          << "gran " << gran_mib << "MiB recompute " << recompute << ": "
          << dp.status() << " vs dense " << dense.status();
      if (!dp.ok()) {
        EXPECT_TRUE(dp.status().IsInfeasible());
        continue;
      }
      // The dense sweep of the same recurrence agrees byte for byte.
      EXPECT_EQ(dp->stage_seconds, dense->stage_seconds);
      EXPECT_EQ(dp->per_layer_option, dense->per_layer_option);
      EXPECT_EQ(dp->per_layer_recompute, dense->per_layer_recompute);
      EXPECT_NEAR(dp->stage_seconds, bf->stage_seconds,
                  1e-9 * std::max(1.0, bf->stage_seconds))
          << "gran " << gran_mib << "MiB recompute " << recompute;
      ASSERT_EQ(dp->per_layer_recompute.size(),
                bf->per_layer_recompute.size());
      if (!recompute) {
        for (uint8_t flag : dp->per_layer_recompute) EXPECT_EQ(flag, 0);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomDpVsBruteForceOptions,
                         ::testing::Range(uint64_t{1}, uint64_t{9}));

/// Random task graphs: the engine must produce a consistent timeline
/// regardless of structure.
class RandomEngineGraphs : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomEngineGraphs, TimelineInvariants) {
  Rng rng(GetParam() * 7919);
  SimEngine engine(1.3, /*jitter=*/0.05, /*seed=*/GetParam());
  const int num_devices = 1 + static_cast<int>(rng.NextBelow(4));
  std::vector<int> compute(static_cast<size_t>(num_devices));
  std::vector<int> comm(static_cast<size_t>(num_devices));
  for (int d = 0; d < num_devices; ++d) {
    compute[static_cast<size_t>(d)] =
        engine.AddStream({d, StreamKind::kCompute});
    comm[static_cast<size_t>(d)] = engine.AddStream({d, StreamKind::kComm});
  }
  const int num_tasks = 20 + static_cast<int>(rng.NextBelow(60));
  for (int t = 0; t < num_tasks; ++t) {
    SimTask task;
    task.label = "t";
    const int device = static_cast<int>(rng.NextBelow(
        static_cast<uint64_t>(num_devices)));
    const bool is_comm = rng.NextDouble() < 0.4;
    task.streams = {is_comm ? comm[static_cast<size_t>(device)]
                            : compute[static_cast<size_t>(device)]};
    if (is_comm && num_devices > 1 && rng.NextDouble() < 0.3) {
      // Collective across a second device.
      const int other = (device + 1) % num_devices;
      task.streams.push_back(comm[static_cast<size_t>(other)]);
    }
    task.work_sec = rng.NextDouble(0.01, 1.0);
    // Random back-edges.
    const int num_deps = static_cast<int>(rng.NextBelow(3));
    for (int d = 0; d < num_deps && t > 0; ++d) {
      task.deps.push_back(static_cast<int>(rng.NextBelow(
          static_cast<uint64_t>(t))));
    }
    ASSERT_TRUE(engine.AddTask(task).ok());
  }

  auto timeline = engine.Run();
  ASSERT_TRUE(timeline.ok()) << timeline.status();

  // (1) Finish >= start; contention can stretch tasks by at most the
  // slowdown factor (plus jitter).
  for (int t = 0; t < engine.num_tasks(); ++t) {
    const TaskTiming& timing = timeline->tasks[static_cast<size_t>(t)];
    const double span = timing.finish - timing.start;
    EXPECT_GE(span, -1e-12);
    EXPECT_LE(span, engine.task(t).work_sec * 1.3 * 1.05 + 1e-9);
    // (2) Dependencies precede dependents.
    for (int dep : engine.task(t).deps) {
      EXPECT_LE(timeline->tasks[static_cast<size_t>(dep)].finish,
                timing.start + 1e-9);
    }
  }
  // (3) Tasks sharing a stream never overlap.
  for (int s = 0; s < engine.num_streams(); ++s) {
    std::vector<std::pair<double, double>> intervals;
    for (int t = 0; t < engine.num_tasks(); ++t) {
      const SimTask& task = engine.task(t);
      if (std::find(task.streams.begin(), task.streams.end(), s) !=
          task.streams.end()) {
        intervals.emplace_back(timeline->tasks[static_cast<size_t>(t)].start,
                               timeline->tasks[static_cast<size_t>(t)].finish);
      }
    }
    std::sort(intervals.begin(), intervals.end());
    for (size_t i = 1; i < intervals.size(); ++i) {
      EXPECT_GE(intervals[i].first, intervals[i - 1].second - 1e-9);
    }
  }
  // (4) Makespan is the last finish.
  double last = 0;
  for (const TaskTiming& timing : timeline->tasks) {
    last = std::max(last, timing.finish);
  }
  EXPECT_DOUBLE_EQ(timeline->makespan, last);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomEngineGraphs,
                         ::testing::Range(uint64_t{1}, uint64_t{17}));

/// Strategy enumeration: structural invariants across group sizes.
class EnumerationProperties : public ::testing::TestWithParam<int> {};

TEST_P(EnumerationProperties, AllStrategiesWellFormed) {
  const int group = GetParam();
  auto candidates = EnumerateSingleLayerStrategies(group);
  ASSERT_TRUE(candidates.ok());
  for (const HybridStrategy& s : *candidates) {
    EXPECT_EQ(s.TotalDegree(), group);
    // Every level degree is >= 2 and their device mapping partitions the
    // group (checked via AllGroups).
    for (const ParallelComponent& level : s.levels()) {
      EXPECT_GE(level.degree, 2);
      auto groups = s.AllGroups(level.dim, 0);
      ASSERT_TRUE(groups.ok());
      int covered = 0;
      for (const auto& g : *groups) covered += static_cast<int>(g.size());
      EXPECT_EQ(covered, group);
    }
    // Round-trips through the textual form.
    auto parsed = HybridStrategy::Parse(s.ToString());
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, s);
  }
}

INSTANTIATE_TEST_SUITE_P(Groups, EnumerationProperties,
                         ::testing::Values(1, 2, 4, 8, 16, 32, 64, 128));

/// Memory model: activation memory is monotone in batch and anti-monotone
/// in TP degree for every zoo model's encoder layers.
TEST(MemoryMonotonicity, AcrossZooModels) {
  ClusterSpec cluster = MakeTitanNode8(100 * kGB);
  LayerCostModel cost_model(&cluster);
  for (ModelId id : AllModelIds()) {
    ModelSpec model = BuildModel(id);
    const LayerSpec& layer = model.layer(1);
    int64_t prev_batch_mem = 0;
    for (int batch : {1, 2, 4, 8, 16}) {
      auto exec = cost_model.Analyze(layer, HybridStrategy(), 0, batch);
      ASSERT_TRUE(exec.ok());
      EXPECT_GE(exec->activation_memory_bytes, prev_batch_mem);
      prev_batch_mem = exec->activation_memory_bytes;
    }
    int64_t prev_tp_mem = prev_batch_mem + 1;
    for (int tp : {2, 4, 8}) {
      auto strategy = HybridStrategy::Create({{ParallelDim::kTensor, tp}});
      auto exec = cost_model.Analyze(layer, *strategy, 0, 16);
      ASSERT_TRUE(exec.ok());
      EXPECT_LT(exec->activation_memory_bytes, prev_tp_mem)
          << ModelIdToString(id) << " tp" << tp;
      prev_tp_mem = exec->activation_memory_bytes;
    }
  }
}

}  // namespace
}  // namespace galvatron
