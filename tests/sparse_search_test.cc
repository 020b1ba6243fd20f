#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "estimator/cost_estimator.h"
#include "ir/model_zoo.h"
#include "ir/transformer_builder.h"
#include "parallel/decision_tree.h"
#include "parallel/transformation.h"
#include "search/cost_cache.h"
#include "search/dp_search.h"
#include "search/frontier_cache.h"
#include "search/optimizer.h"
#include "testing/fuzz_generators.h"
#include "util/alloc_counter.h"
#include "util/math_util.h"
#include "util/rng.h"

namespace galvatron {
namespace {

ModelSpec SmallBert(int layers) {
  BertConfig config;
  config.num_layers = layers;
  config.hidden = 1024;
  config.heads = 16;
  return BuildBert("small-bert", config);
}

/// Requires the two results to be byte-identical: bitwise-equal cost,
/// identical memory accounting, identical per-layer assignments.
void ExpectIdentical(const DpSearchResult& sparse, const DpSearchResult& dense,
                     const std::string& context) {
  EXPECT_EQ(sparse.stage_seconds, dense.stage_seconds) << context;
  EXPECT_EQ(sparse.resident_memory_bytes, dense.resident_memory_bytes)
      << context;
  EXPECT_EQ(sparse.per_layer_option, dense.per_layer_option) << context;
  EXPECT_EQ(sparse.per_layer_recompute, dense.per_layer_recompute) << context;
}

/// Runs DpSearch and the dense reference on one instance; checks agreement
/// on feasibility and, when feasible, byte-identical plans plus the
/// sparse <= dense state-count bound. Returns true when the instance was
/// feasible.
bool CheckInstance(const CostEstimator& estimator, const ModelSpec& model,
                   int first_layer, int num_layers,
                   const std::vector<HybridStrategy>& candidates,
                   int first_device, int batch, int micro_batches,
                   int64_t budget, DpSearchOptions options,
                   const std::string& context) {
  const DpSearch sparse(&estimator, options);
  auto a = sparse.Run(model, first_layer, num_layers, candidates,
                      first_device, batch, micro_batches, budget);
  auto b = DenseDpSearch(estimator, model, first_layer, num_layers, candidates,
                         first_device, batch, micro_batches, budget, options);
  EXPECT_EQ(a.ok(), b.ok()) << context << ": sparse=" << a.status()
                            << " dense=" << b.status();
  if (!a.ok() || !b.ok()) {
    if (!a.ok() && !b.ok()) {
      EXPECT_EQ(a.status().ToString(), b.status().ToString()) << context;
    }
    return false;
  }
  ExpectIdentical(*a, *b, context);
  // The anti-regression bound: every breakpoint is a distinct budget level
  // of one dense column, so DpSearch can never materialize more states
  // than the dense sweep on the same inputs.
  EXPECT_LE(a->states_explored, b->states_explored) << context;
  EXPECT_EQ(b->options_pruned, 0) << context;
  return true;
}

TEST(SparseDpPropertyTest, ByteIdenticalToDenseOnRandomInstances) {
  // >= 200 random draws over models, clusters, stage blocks, batches,
  // granularities and budgets (log-uniform so the feasibility frontier is
  // well sampled). Every feasible draw must produce byte-identical plans.
  GeneratorOptions gen;
  gen.hostile_names = false;
  int feasible = 0;
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    Rng rng(seed * 0x9e3779b97f4a7c15ULL + 1);
    const ModelSpec model = GenerateModel(&rng, gen);
    const ClusterSpec cluster = GenerateCluster(&rng, gen);
    const std::vector<int> widths = PowerOfTwoDivisors(cluster.num_devices());
    const int width = widths[rng.NextBelow(widths.size())];
    const int first_device =
        width * static_cast<int>(rng.NextBelow(
                    static_cast<uint64_t>(cluster.num_devices() / width)));
    auto candidates = EnumerateSingleLayerStrategies(width);
    ASSERT_TRUE(candidates.ok()) << candidates.status();

    const int num_layers =
        1 + static_cast<int>(
                rng.NextBelow(static_cast<uint64_t>(model.num_layers())));
    const int first_layer = static_cast<int>(rng.NextBelow(
        static_cast<uint64_t>(model.num_layers() - num_layers + 1)));
    const int micro_batches = 1 << rng.NextBelow(3);
    const int batch =
        micro_batches * (1 + static_cast<int>(rng.NextBelow(4)));

    DpSearchOptions options;
    static const int64_t kGranularities[] = {
        int64_t{1} << 20, int64_t{32} << 20, int64_t{256} << 20};
    options.memory_granularity = kGranularities[rng.NextBelow(3)];
    options.allow_recompute = rng.NextBelow(2) == 0;
    const double log_budget = rng.NextDouble(std::log(64.0 * (1 << 20)),
                                             std::log(32.0 * 1e9));
    const int64_t budget = static_cast<int64_t>(std::exp(log_budget));

    const CostEstimator estimator(&cluster);
    const std::string context =
        "seed " + std::to_string(seed) + " model " + model.name();
    if (CheckInstance(estimator, model, first_layer, num_layers, *candidates,
                      first_device, batch, micro_batches, budget, options,
                      context)) {
      ++feasible;
    }
  }
  // The draw distribution straddles the frontier; make sure both sides were
  // actually exercised.
  EXPECT_GT(feasible, 20);
  EXPECT_LT(feasible, 200);
}

TEST(SparseDpEdgeCaseTest, GranuleBoundaryBudgets) {
  // Budgets that straddle a granule boundary are where quantization bugs
  // live (PR 1's CeilDiv fix): scan the feasibility frontier in
  // quarter-granule steps and require byte-identical kernels at each.
  const ClusterSpec cluster = MakeTitanNode8(16 * kGB);
  const CostEstimator estimator(&cluster);
  const ModelSpec model = SmallBert(2);  // 4 layers: embed + 2 enc + head
  auto candidates = EnumerateSingleLayerStrategies(8);
  ASSERT_TRUE(candidates.ok());
  const DpSearchOptions options;
  const int64_t gran = options.memory_granularity;

  const DpSearch sparse(&estimator, options);
  auto feasible = [&](int64_t budget) {
    return sparse
        .Run(model, 0, model.num_layers(), *candidates, 0, 8, 1, budget)
        .ok();
  };
  int64_t lo = gran;
  int64_t hi = 40 * kGB;
  ASSERT_FALSE(feasible(lo));
  ASSERT_TRUE(feasible(hi));
  while (hi - lo > gran / 8) {
    const int64_t mid = lo + (hi - lo) / 2;
    (feasible(mid) ? hi : lo) = mid;
  }
  int checked = 0;
  for (int64_t budget = hi - gran; budget <= hi + gran; budget += gran / 4) {
    CheckInstance(estimator, model, 0, model.num_layers(), *candidates, 0, 8,
                  1, budget, options, "budget " + std::to_string(budget));
    ++checked;
  }
  EXPECT_GE(checked, 8);
}

TEST(SparseDpEdgeCaseTest, BudgetAtTransientHeadroom) {
  // When the budget minus the transient headroom lands at (or just below)
  // zero, both kernels must return the same Infeasible verdict rather than
  // diverging or crashing. Find the headroom by bisecting the budget at
  // which the error message flips.
  const ClusterSpec cluster = MakeTitanNode8(16 * kGB);
  const CostEstimator estimator(&cluster);
  const ModelSpec model = SmallBert(4);
  auto candidates = EnumerateSingleLayerStrategies(8);
  ASSERT_TRUE(candidates.ok());
  DpSearchOptions options;

  // Bisect the smallest budget whose failure is NOT "below transient
  // headroom" (i.e. the DP actually ran).
  const DpSearch sparse(&estimator, options);
  auto below_headroom = [&](int64_t budget) {
    auto r = sparse.Run(model, 0, model.num_layers(), *candidates, 0, 8, 1,
                        budget);
    return !r.ok() && r.status().ToString().find("transient headroom") !=
                          std::string::npos;
  };
  ASSERT_TRUE(below_headroom(1));
  int64_t lo = 1;          // below headroom
  int64_t hi = 16 * kGB;   // comfortably above
  ASSERT_FALSE(below_headroom(hi));
  while (hi - lo > 1) {
    const int64_t mid = lo + (hi - lo) / 2;
    (below_headroom(mid) ? lo : hi) = mid;
  }
  // Probe a window around the exact headroom boundary, both sides.
  for (int64_t delta = -2; delta <= 2; ++delta) {
    const int64_t budget = hi + delta;
    if (budget < 1) continue;
    CheckInstance(estimator, model, 0, model.num_layers(), *candidates, 0, 8,
                  1, budget, options,
                  "headroom budget " + std::to_string(budget));
  }
}

TEST(SparseDpFrontierCacheTest, WarmAnswersAreByteIdenticalToColdRuns) {
  // The frontier prefix property: a Pareto column built at budget B and
  // truncated to units <= U is identical to the column built directly at
  // U <= B. So one cached entry at the widest budget seen must answer
  // EVERY smaller budget byte-identically — plans, costs, tie-breaks and
  // infeasible verdicts — without materializing a single new state.
  const ClusterSpec cluster = MakeTitanNode8(16 * kGB);
  const CostEstimator estimator(&cluster);
  const ModelSpec model = SmallBert(4);
  auto candidates = EnumerateSingleLayerStrategies(8);
  ASSERT_TRUE(candidates.ok()) << candidates.status();
  DpSearchOptions options;
  options.allow_recompute = true;
  const DpSearch search(&estimator, options);

  SharedCostCache costs(&estimator, &model);
  DpFrontierCache cache;
  SearchHooks hooks;
  hooks.cost_cache = &costs;
  hooks.frontier_cache = &cache;
  auto prime = search.Run(model, 0, model.num_layers(), *candidates, 0, 8, 1,
                          48 * kGB, -1, hooks);
  ASSERT_TRUE(prime.ok()) << prime.status();
  EXPECT_FALSE(prime->frontier_hit);
  EXPECT_EQ(cache.stats().misses, 1);

  int feasible = 0;
  int infeasible = 0;
  for (int64_t budget = 32 * (int64_t{1} << 20); budget <= 48 * kGB;
       budget *= 2) {
    const std::string context = "budget " + std::to_string(budget);
    auto warm = search.Run(model, 0, model.num_layers(), *candidates, 0, 8, 1,
                           budget, -1, hooks);
    auto cold =
        search.Run(model, 0, model.num_layers(), *candidates, 0, 8, 1, budget);
    ASSERT_EQ(warm.ok(), cold.ok())
        << context << ": warm=" << warm.status() << " cold=" << cold.status();
    if (!warm.ok()) {
      EXPECT_EQ(warm.status().ToString(), cold.status().ToString()) << context;
      ++infeasible;
      continue;
    }
    EXPECT_TRUE(warm->frontier_hit) << context;
    EXPECT_EQ(warm->states_explored, 0) << context;
    ExpectIdentical(*warm, *cold, context);
    ++feasible;
  }
  // The multiplicative scan straddles the feasibility frontier; both sides
  // must have replayed from the cache (only the prime missed).
  EXPECT_GT(feasible, 0);
  EXPECT_GT(infeasible, 0);
  EXPECT_EQ(cache.stats().misses, 1);
  EXPECT_EQ(cache.stats().hits, feasible + infeasible);

  // A budget ABOVE the cached one cannot reuse a truncated frontier: it
  // must fall through to a fresh kernel run and republish wider.
  auto wider = search.Run(model, 0, model.num_layers(), *candidates, 0, 8, 1,
                          96 * kGB, -1, hooks);
  ASSERT_TRUE(wider.ok()) << wider.status();
  EXPECT_FALSE(wider->frontier_hit);
  EXPECT_EQ(cache.stats().misses, 2);
}

TEST(SparseDpFrontierCacheTest, AFullStoreIsClearedWholeAndRefills) {
  // The store holds kMaxStageEntries records; the next new one clears it
  // whole. Lookups then miss, a frontier a reader took before the clear
  // stays readable, and a Run refills its record: a warm Run over it
  // answers exactly as a cold one.
  const ClusterSpec cluster = MakeTitanNode8(16 * kGB);
  const CostEstimator estimator(&cluster);
  const ModelSpec model = SmallBert(4);
  auto candidates = EnumerateSingleLayerStrategies(8);
  ASSERT_TRUE(candidates.ok()) << candidates.status();
  const DpSearch search(&estimator);
  SharedCostCache costs(&estimator, &model);
  DpFrontierCache cache;
  SearchHooks hooks;
  hooks.cost_cache = &costs;
  hooks.frontier_cache = &cache;
  auto run = [&](int64_t budget, const SearchHooks& with) {
    return search.Run(model, 0, model.num_layers(), *candidates, 0, 8, 1,
                      budget, -1, with);
  };
  ASSERT_TRUE(run(16 * kGB, hooks).ok());

  // Synthetic records fill the store: a real key never starts with -1 (its
  // first word is the batch size).
  auto synthetic = [](int i) {
    DpFrontierKey key;
    key.Append(-1);
    key.Append(i);
    key.Finalize();
    return key;
  };
  DpStageFacts facts;
  facts.uniform_seconds = {1.0};
  facts.uniform_peak_bytes = {kGB};
  const int fill = static_cast<int>(DpFrontierCache::kMaxStageEntries) - 1;
  for (int i = 0; i < fill; ++i) {
    auto frontier = std::make_shared<DpFrontierEntry>();
    frontier->budget_units = i;
    frontier->bp_units = {i, i + 1};
    cache.Insert(synthetic(i), facts, std::move(frontier));
  }
  EXPECT_EQ(cache.stats().stage_entries, DpFrontierCache::kMaxStageEntries);
  EXPECT_EQ(cache.stats().size, DpFrontierCache::kMaxStageEntries);
  DpStageFacts found;
  std::shared_ptr<const DpFrontierEntry> held;
  ASSERT_TRUE(cache.Find(synthetic(7), &found, &held));
  ASSERT_NE(held, nullptr);
  EXPECT_EQ(found.uniform_peak_bytes, facts.uniform_peak_bytes);

  cache.Insert(synthetic(fill), facts);
  EXPECT_EQ(cache.stats().stage_entries, 1u);
  EXPECT_EQ(cache.stats().size, 0u);
  EXPECT_FALSE(cache.Find(synthetic(7), &found, nullptr));
  EXPECT_EQ(held->budget_units, 7);
  EXPECT_EQ(held->bp_units, (std::vector<int32_t>{7, 8}));

  // The Run's own record went with the clear: it runs cold, refills it,
  // and warm Runs at smaller budgets answer from the refilled frontier.
  const int64_t misses = cache.stats().misses;
  auto refill = run(16 * kGB, hooks);
  ASSERT_TRUE(refill.ok()) << refill.status();
  EXPECT_FALSE(refill->frontier_hit);
  EXPECT_EQ(cache.stats().misses, misses + 1);
  EXPECT_EQ(cache.stats().stage_entries, 2u);
  EXPECT_EQ(cache.stats().size, 1u);
  for (const int64_t budget : {16 * kGB, 8 * kGB, 4 * kGB}) {
    const std::string context = "budget " + std::to_string(budget);
    auto warm = run(budget, hooks);
    auto cold = run(budget, SearchHooks{});
    ASSERT_TRUE(warm.ok()) << context << ": " << warm.status();
    ASSERT_TRUE(cold.ok()) << context << ": " << cold.status();
    EXPECT_TRUE(warm->frontier_hit) << context;
    ExpectIdentical(*warm, *cold, context);
  }
}

TEST(SparseDpFrontierCacheTest, RequiresTheCostCacheThatInternsItsKeys) {
  // Frontier keys hold layer-signature ids interned by the paired cost
  // cache; without one there is no id space to key by, so the search
  // refuses instead of keying a long-lived cache by per-run ids.
  const ClusterSpec cluster = MakeTitanNode8(16 * kGB);
  const CostEstimator estimator(&cluster);
  const ModelSpec model = SmallBert(2);
  auto candidates = EnumerateSingleLayerStrategies(8);
  ASSERT_TRUE(candidates.ok()) << candidates.status();
  DpFrontierCache cache;
  SearchHooks hooks;
  hooks.frontier_cache = &cache;
  auto result = DpSearch(&estimator).Run(model, 0, model.num_layers(),
                                         *candidates, 0, 8, 1, 16 * kGB, -1,
                                         hooks);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidArgument()) << result.status();
  auto swept = Optimizer(&cluster).Optimize(model, hooks);
  ASSERT_FALSE(swept.ok());
  EXPECT_TRUE(swept.status().IsInvalidArgument()) << swept.status();
  EXPECT_EQ(cache.stats().size, 0u);
}

TEST(SparseDpCancellationTest, CancelCheckStopsTheRun) {
  const ClusterSpec cluster = MakeTitanNode8(16 * kGB);
  const CostEstimator estimator(&cluster);
  const ModelSpec model = SmallBert(4);
  auto candidates = EnumerateSingleLayerStrategies(8);
  ASSERT_TRUE(candidates.ok()) << candidates.status();
  const DpSearch search(&estimator);

  // An immediately-true cancel stops the run before any real work.
  SearchHooks now;
  now.cancel = [] { return true; };
  auto cancelled = search.Run(model, 0, model.num_layers(), *candidates, 0, 8,
                              1, 16 * kGB, -1, now);
  ASSERT_FALSE(cancelled.ok());
  EXPECT_TRUE(cancelled.status().IsCancelled()) << cancelled.status();

  // A cancel that trips after a few polls lands mid-table (between layer
  // columns) and must still surface Cancelled, not a partial answer.
  int polls = 0;
  SearchHooks later;
  later.cancel = [&polls] { return ++polls > 3; };
  auto mid = search.Run(model, 0, model.num_layers(), *candidates, 0, 8, 1,
                        16 * kGB, -1, later);
  ASSERT_FALSE(mid.ok());
  EXPECT_TRUE(mid.status().IsCancelled()) << mid.status();
  EXPECT_GT(polls, 3);

  // A never-true cancel is byte-identical to passing no cancel at all.
  SearchHooks never;
  never.cancel = [] { return false; };
  auto watched = search.Run(model, 0, model.num_layers(), *candidates, 0, 8,
                            1, 16 * kGB, -1, never);
  auto plain =
      search.Run(model, 0, model.num_layers(), *candidates, 0, 8, 1, 16 * kGB);
  ASSERT_TRUE(watched.ok()) << watched.status();
  ASSERT_TRUE(plain.ok()) << plain.status();
  ExpectIdentical(*watched, *plain, "watched");
}

/// A fleet cluster (64 nodes x 8 GPUs) and a BERT whose activations make
/// memory bind on wide stage blocks, where the kernel combines ~8-10
/// transformation classes per layer instead of the ~4 of an 8-GPU node.
struct WideStage {
  ClusterSpec cluster = MakeHomogeneousCluster(
      "fleet-512", /*num_nodes=*/64, /*gpus_per_node=*/8, 16 * kGB,
      /*sustained_flops=*/6.5e12, LinkClass::kPcie3,
      LinkClass::kInfiniBand100);
  ModelSpec model = [] {
    BertConfig config;
    config.num_layers = 4;
    config.hidden = 2560;
    config.heads = 32;
    return BuildBert("wide-bert", config);
  }();
  int batch = 2048;
  int micro_batches = 2;
};

int DistinctTransformClasses(const std::vector<HybridStrategy>& candidates) {
  std::vector<int32_t> classes;
  for (const HybridStrategy& s : candidates) {
    classes.push_back(TransformClassOf(s));
  }
  std::sort(classes.begin(), classes.end());
  return static_cast<int>(
      std::unique(classes.begin(), classes.end()) - classes.begin());
}

/// The smallest budget (to within `tolerance` bytes) at which a cold Run of
/// the whole model on the block is feasible.
int64_t FeasibilityFrontier(const DpSearch& search, const WideStage& stage,
                            const std::vector<HybridStrategy>& candidates,
                            int first_device, int64_t tolerance) {
  auto feasible = [&](int64_t budget) {
    return search
        .Run(stage.model, 0, stage.model.num_layers(), candidates,
             first_device, stage.batch, stage.micro_batches, budget)
        .ok();
  };
  int64_t lo = 1;
  int64_t hi = 256 * kGB;
  EXPECT_TRUE(feasible(hi));
  while (hi - lo > tolerance) {
    const int64_t mid = lo + (hi - lo) / 2;
    (feasible(mid) ? hi : lo) = mid;
  }
  return hi;
}

TEST(SparseDpWideStageTest, KernelsAgreeOnFleetBlocks) {
  // 64-, 128- and 512-device blocks: K = log2(width) + 1 batch-split
  // classes, so the fused combine updates 7, 8 and 10 slots per scanned
  // breakpoint. Budgets straddle each block's feasibility frontier (where
  // the feasibility test and the frontier build must agree) and reach
  // well above it (where most options survive the cut).
  const WideStage stage;
  const CostEstimator estimator(&stage.cluster);
  for (const int width : {64, 128, 512}) {
    auto candidates = EnumerateSingleLayerStrategies(width);
    ASSERT_TRUE(candidates.ok()) << candidates.status();
    EXPECT_EQ(DistinctTransformClasses(*candidates),
              static_cast<int>(std::log2(width)) + 1)
        << "width " << width;
    const int first_device = width == 512 ? 0 : 2 * width;
    for (const bool recompute : {false, true}) {
      DpSearchOptions options;
      options.allow_recompute = recompute;
      const int64_t gran = options.memory_granularity;
      const DpSearch search(&estimator, options);
      const int64_t frontier = FeasibilityFrontier(search, stage, *candidates,
                                                   first_device, gran / 8);
      int feasible = 0;
      int infeasible = 0;
      for (const int64_t budget :
           {frontier - gran, frontier - gran / 4, frontier, frontier + gran,
            frontier + frontier / 2, 3 * frontier}) {
        const std::string context =
            "width " + std::to_string(width) +
            (recompute ? " +recompute" : "") + " budget " +
            std::to_string(budget);
        if (CheckInstance(estimator, stage.model, 0, stage.model.num_layers(),
                          *candidates, first_device, stage.batch,
                          stage.micro_batches, budget, options, context)) {
          ++feasible;
        } else {
          ++infeasible;
        }
      }
      EXPECT_EQ(feasible, 4) << "width " << width;
      EXPECT_EQ(infeasible, 2) << "width " << width;
    }
  }
}

TEST(SparseDpWideStageTest, ClassViewReplaysMatchColdRunsAtTruncatedBudgets) {
  // One entry built at a generous budget on the 512-device block stores
  // class frontiers plus per-option (shift, bias, cut) views; replaying it
  // at every smaller budget must equal a cold Run and the dense reference
  // there — plans, costs, resident bytes and infeasible verdicts alike.
  const WideStage stage;
  const CostEstimator estimator(&stage.cluster);
  auto candidates = EnumerateSingleLayerStrategies(512);
  ASSERT_TRUE(candidates.ok()) << candidates.status();
  for (const bool recompute : {false, true}) {
    DpSearchOptions options;
    options.allow_recompute = recompute;
    const DpSearch search(&estimator, options);
    const int64_t frontier = FeasibilityFrontier(
        search, stage, *candidates, 0, options.memory_granularity / 8);

    SharedCostCache costs(&estimator, &stage.model);
    DpFrontierCache cache;
    SearchHooks hooks;
    hooks.cost_cache = &costs;
    hooks.frontier_cache = &cache;
    auto prime = search.Run(stage.model, 0, stage.model.num_layers(),
                            *candidates, 0, stage.batch, stage.micro_batches,
                            4 * frontier, -1, hooks);
    ASSERT_TRUE(prime.ok()) << prime.status();
    ASSERT_EQ(cache.stats().insertions, 1);

    int feasible = 0;
    int infeasible = 0;
    for (int64_t budget = 4 * frontier; budget > frontier / 2;
         budget = budget * 3 / 4) {
      const std::string context = std::string(recompute ? "+recompute " : "") +
                                  "budget " + std::to_string(budget);
      auto warm = search.Run(stage.model, 0, stage.model.num_layers(),
                             *candidates, 0, stage.batch, stage.micro_batches,
                             budget, -1, hooks);
      auto cold = search.Run(stage.model, 0, stage.model.num_layers(),
                             *candidates, 0, stage.batch, stage.micro_batches,
                             budget);
      auto dense = DenseDpSearch(estimator, stage.model, 0,
                                 stage.model.num_layers(), *candidates, 0,
                                 stage.batch, stage.micro_batches, budget,
                                 options);
      ASSERT_EQ(warm.ok(), cold.ok())
          << context << ": warm=" << warm.status() << " cold=" << cold.status();
      ASSERT_EQ(warm.ok(), dense.ok())
          << context << ": warm=" << warm.status()
          << " dense=" << dense.status();
      if (!warm.ok()) {
        EXPECT_EQ(warm.status().ToString(), cold.status().ToString())
            << context;
        EXPECT_EQ(warm.status().ToString(), dense.status().ToString())
            << context;
        ++infeasible;
        continue;
      }
      EXPECT_TRUE(warm->frontier_hit) << context;
      ExpectIdentical(*warm, *cold, context);
      ExpectIdentical(*warm, *dense, context);
      ++feasible;
    }
    EXPECT_GT(feasible, 3);
    EXPECT_GT(infeasible, 0);
    // Every replay was answered by the one entry.
    EXPECT_EQ(cache.stats().misses, 1);
    EXPECT_EQ(cache.stats().hits, feasible + infeasible);
  }
}

TEST(SparseDpWideStageTest, FeasibilityTestGivesTheBuiltVerdict) {
  // Below the frontier a cold Run returns Infeasible from the feasibility
  // test, before building or publishing anything; a warm replay reaches
  // the same verdict by walking built frontiers, and the dense sweep by
  // filling its table. All three must read alike.
  const WideStage stage;
  const CostEstimator estimator(&stage.cluster);
  auto candidates = EnumerateSingleLayerStrategies(512);
  ASSERT_TRUE(candidates.ok()) << candidates.status();
  const DpSearchOptions options;
  const DpSearch search(&estimator, options);
  const int64_t frontier = FeasibilityFrontier(
      search, stage, *candidates, 0, options.memory_granularity / 8);
  const int64_t below = frontier - options.memory_granularity;

  SharedCostCache costs(&estimator, &stage.model);
  DpFrontierCache cache;
  SearchHooks hooks;
  hooks.cost_cache = &costs;
  hooks.frontier_cache = &cache;
  auto run = [&](int64_t budget) {
    return search.Run(stage.model, 0, stage.model.num_layers(), *candidates,
                      0, stage.batch, stage.micro_batches, budget, -1, hooks);
  };

  // Cold and infeasible: answered by the test, nothing published.
  const int64_t skips_before = CurrentThreadDpInfeasibleSkips();
  auto early = run(below);
  ASSERT_FALSE(early.ok());
  EXPECT_TRUE(early.status().IsInfeasible()) << early.status();
  EXPECT_EQ(CurrentThreadDpInfeasibleSkips() - skips_before, 1);
  EXPECT_EQ(cache.stats().insertions, 0);
  EXPECT_EQ(cache.stats().size, 0u);

  // Built at the frontier, then replayed below it.
  ASSERT_TRUE(run(frontier).ok());
  EXPECT_EQ(cache.stats().insertions, 1);
  auto built = run(below);
  ASSERT_FALSE(built.ok());
  EXPECT_EQ(CurrentThreadDpInfeasibleSkips() - skips_before, 1)
      << "a warm replay must not count as a feasibility-test answer";
  EXPECT_EQ(cache.stats().hits, 1);

  auto dense = DenseDpSearch(estimator, stage.model, 0,
                             stage.model.num_layers(), *candidates, 0,
                             stage.batch, stage.micro_batches, below, options);
  ASSERT_FALSE(dense.ok());
  EXPECT_EQ(early.status().ToString(), built.status().ToString());
  EXPECT_EQ(early.status().ToString(), dense.status().ToString());
}

TEST(SparseDpWideStageTest, BoundsNeverExceedTheKernelsOnFleetBlocks) {
  // DpSearch::BoundStage's LP relaxation on the 64-, 128- and 512-device
  // blocks, at budgets around each block's feasibility frontier (where
  // memory binds hardest) and well above it: the bound never exceeds the
  // stage seconds of the sparse kernel or the dense reference, exists
  // exactly when the stage is feasible, and is strict somewhere memory
  // binds. Reading the facts and bounding publishes no frontier and counts
  // no hit or miss.
  const WideStage stage;
  const CostEstimator estimator(&stage.cluster);
  int strict = 0;
  for (const int width : {64, 128, 512}) {
    auto candidates = EnumerateSingleLayerStrategies(width);
    ASSERT_TRUE(candidates.ok()) << candidates.status();
    const int first_device = width == 512 ? 0 : 2 * width;
    for (const bool recompute : {false, true}) {
      DpSearchOptions options;
      options.allow_recompute = recompute;
      const int64_t gran = options.memory_granularity;
      const DpSearch search(&estimator, options);
      const int64_t frontier = FeasibilityFrontier(search, stage, *candidates,
                                                   first_device, gran / 8);
      SharedCostCache costs(&estimator, &stage.model);
      DpFrontierCache cache;
      SearchHooks hooks;
      hooks.cost_cache = &costs;
      hooks.frontier_cache = &cache;
      for (const int64_t budget :
           {frontier - gran, frontier, frontier + gran / 2, frontier + gran,
            frontier + frontier / 4, 3 * frontier}) {
        const std::string context =
            "width " + std::to_string(width) +
            (recompute ? " +recompute" : "") + " budget " +
            std::to_string(budget);
        DpStageFacts facts;
        std::shared_ptr<const DpFrontierEntry> published;
        ASSERT_TRUE(search
                        .StageFacts(stage.model, 0, stage.model.num_layers(),
                                    *candidates, first_device, stage.batch,
                                    stage.micro_batches, -1, hooks, &facts,
                                    &published)
                        .ok())
            << context;
        EXPECT_EQ(published, nullptr) << context;
        const std::optional<double> bound =
            search.BoundStage(facts, nullptr, budget);
        auto run = search.Run(stage.model, 0, stage.model.num_layers(),
                              *candidates, first_device, stage.batch,
                              stage.micro_batches, budget);
        auto dense = DenseDpSearch(estimator, stage.model, 0,
                                   stage.model.num_layers(), *candidates,
                                   first_device, stage.batch,
                                   stage.micro_batches, budget, options);
        ASSERT_EQ(run.ok(), dense.ok()) << context;
        EXPECT_EQ(bound.has_value(), run.ok()) << context;
        if (!run.ok()) continue;
        // Exact arithmetic gives bound <= optimum; the 1e-12 slack is
        // summation-order rounding only.
        EXPECT_LE(*bound, run->stage_seconds * (1 + 1e-12)) << context;
        EXPECT_LE(*bound, dense->stage_seconds * (1 + 1e-12)) << context;
        EXPECT_GT(*bound, 0.0) << context;
        if (*bound < run->stage_seconds * (1 - 1e-9)) ++strict;
      }
      EXPECT_EQ(cache.stats().insertions, 0);
      EXPECT_EQ(cache.stats().hits + cache.stats().misses, 0);
    }
  }
  EXPECT_GT(strict, 0);
}

TEST(SparseDpWideStageTest, BoundOverPublishedFrontiersIsTheRunsAnswer) {
  // Once a Run has published its frontiers at a generous budget, the
  // bound at any covering budget is the Run's optimum read off those
  // frontiers: bit for bit the cold Run's stage seconds, nullopt exactly
  // where the cold Run is Infeasible, with no hit counted and nothing
  // allocated.
  const WideStage stage;
  const CostEstimator estimator(&stage.cluster);
  auto candidates = EnumerateSingleLayerStrategies(512);
  ASSERT_TRUE(candidates.ok()) << candidates.status();
  const DpSearchOptions options;
  const DpSearch search(&estimator, options);
  const int64_t frontier = FeasibilityFrontier(
      search, stage, *candidates, 0, options.memory_granularity / 8);
  SharedCostCache costs(&estimator, &stage.model);
  DpFrontierCache cache;
  SearchHooks hooks;
  hooks.cost_cache = &costs;
  hooks.frontier_cache = &cache;
  ASSERT_TRUE(search
                  .Run(stage.model, 0, stage.model.num_layers(), *candidates,
                       0, stage.batch, stage.micro_batches, 4 * frontier, -1,
                       hooks)
                  .ok());
  DpStageFacts facts;
  std::shared_ptr<const DpFrontierEntry> published;
  ASSERT_TRUE(search
                  .StageFacts(stage.model, 0, stage.model.num_layers(),
                              *candidates, 0, stage.batch,
                              stage.micro_batches, -1, hooks, &facts,
                              &published)
                  .ok());
  ASSERT_NE(published, nullptr);
  int feasible = 0;
  int infeasible = 0;
  for (int64_t budget = 4 * frontier; budget > frontier / 2;
       budget = budget * 3 / 4) {
    const std::string context = "budget " + std::to_string(budget);
    const int64_t allocs_before = CurrentThreadAllocCount();
    const std::optional<double> bound =
        search.BoundStage(facts, published.get(), budget);
    EXPECT_EQ(CurrentThreadAllocCount(), allocs_before) << context;
    auto cold = search.Run(stage.model, 0, stage.model.num_layers(),
                           *candidates, 0, stage.batch, stage.micro_batches,
                           budget);
    ASSERT_EQ(bound.has_value(), cold.ok()) << context;
    if (!cold.ok()) {
      EXPECT_TRUE(cold.status().IsInfeasible()) << context;
      ++infeasible;
      continue;
    }
    ++feasible;
    EXPECT_EQ(std::memcmp(&*bound, &cold->stage_seconds, sizeof(double)), 0)
        << context << ": " << *bound << " vs " << cold->stage_seconds;
  }
  EXPECT_GT(feasible, 3);
  EXPECT_GT(infeasible, 0);
  EXPECT_EQ(cache.stats().misses, 1);  // the priming Run
  EXPECT_EQ(cache.stats().hits, 0);
  EXPECT_EQ(cache.stats().insertions, 1);
}

TEST(SparseDpGuardTest, RejectsOptionCountsBeyondInt16) {
  // The option cap bounds request work, and the dense reference's int16_t
  // parent table relies on it: an expanded option count above INT16_MAX
  // must be rejected with InvalidArgument by both, not silently truncated.
  const ClusterSpec cluster = MakeTitanNode8(16 * kGB);
  const CostEstimator estimator(&cluster);
  const ModelSpec model = SmallBert(2);
  auto base = EnumerateSingleLayerStrategies(8);
  ASSERT_TRUE(base.ok());
  // 40000 candidates (> INT16_MAX = 32767) by repeating the real list.
  std::vector<HybridStrategy> many;
  while (many.size() < 40000) {
    many.insert(many.end(), base->begin(), base->end());
  }
  many.resize(40000);
  auto sparse = DpSearch(&estimator).Run(model, 0, model.num_layers(), many,
                                         0, 8, 1, 16 * kGB);
  ASSERT_FALSE(sparse.ok());
  EXPECT_TRUE(sparse.status().IsInvalidArgument()) << sparse.status();
  auto dense = DenseDpSearch(estimator, model, 0, model.num_layers(), many, 0,
                             8, 1, 16 * kGB);
  ASSERT_FALSE(dense.ok());
  EXPECT_TRUE(dense.status().IsInvalidArgument()) << dense.status();
  // With recompute doubling the options, half as many candidates must also
  // be rejected.
  std::vector<HybridStrategy> half(many.begin(), many.begin() + 20000);
  DpSearchOptions options;
  options.allow_recompute = true;
  const DpSearch search(&estimator, options);
  auto result =
      search.Run(model, 0, model.num_layers(), half, 0, 8, 1, 16 * kGB);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidArgument());
}

}  // namespace
}  // namespace galvatron
