#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "estimator/cost_estimator.h"
#include "ir/model_zoo.h"
#include "parallel/decision_tree.h"
#include "search/cost_cache.h"
#include "search/dp_search.h"
#include "search/frontier_cache.h"
#include "search/optimizer.h"
#include "sim/simulator.h"
#include "testing/invariant_checks.h"

namespace galvatron {
namespace {

/// Ceilings of SerialSweepWorkStaysUnderItsCeilings,
/// FourThreadSweepStatesStayUnderTheirCeiling and
/// SerialRecomputeSweepRunsFewDps (see there).
constexpr int64_t kMaxDpStates = 690;
constexpr int64_t kMaxSweepAllocations = 3500;
constexpr int64_t kMaxSweepStoreLookups = 810;
constexpr int64_t kMaxDpStatesFourThreads = 2130;
constexpr int64_t kMaxRecomputeDpStates = 2450;
/// Ceiling of WarmReplanReadsTheStageTable (see there).
constexpr int64_t kMaxWarmCostCacheLookups = 1250;

/// Timer-free perf tripwire (runs under the `perf` ctest label): on the
/// per-stage searches of a miniature end-to-end sweep's committed plans,
/// DpSearch must (a) return the exact plan the dense reference returns and
/// (b) materialize no more DP states — each breakpoint is a distinct budget
/// level of one dense column, so sparse > dense means the frontier
/// representation regressed.
TEST(PerfRegressionTest, SparseExploresNoMoreStatesThanDense) {
  BertConfig config;
  config.num_layers = 8;
  config.hidden = 1024;
  config.heads = 16;
  const ModelSpec model = BuildBert("perf-bert", config);
  const ClusterSpec cluster = MakeTitanNode8(12 * kGB);

  auto swept = Optimizer(&cluster).Optimize(model);
  ASSERT_TRUE(swept.ok()) << swept.status();
  std::vector<TrainingPlan> plans = swept->alternates;
  plans.push_back(swept->plan);

  const CostEstimator estimator(&cluster);
  const DpSearch search(&estimator);
  int64_t sparse_states = 0;
  int64_t dense_states = 0;
  for (const TrainingPlan& plan : plans) {
    for (int s = 0; s < plan.pp_degree(); ++s) {
      const StagePlan& stage = plan.stages[static_cast<size_t>(s)];
      const std::string context =
          plan.ToString() + " stage " + std::to_string(s);
      auto candidates = EnumerateSingleLayerStrategies(stage.num_devices);
      ASSERT_TRUE(candidates.ok()) << candidates.status();
      const int64_t budget =
          cluster.MinMemoryInRange(stage.first_device, stage.num_devices);
      const int resident = plan.InFlightMicroBatches(s);
      auto sparse = search.Run(model, stage.first_layer, stage.num_layers,
                               *candidates, stage.first_device,
                               plan.global_batch, plan.num_micro_batches,
                               budget, resident);
      auto dense = DenseDpSearch(
          estimator, model, stage.first_layer, stage.num_layers, *candidates,
          stage.first_device, plan.global_batch, plan.num_micro_batches,
          budget, DpSearchOptions{}, /*shared_cache=*/nullptr, resident);
      ASSERT_EQ(sparse.ok(), dense.ok())
          << context << ": " << sparse.status() << " vs " << dense.status();
      if (!sparse.ok()) continue;

      // Byte-identical stage plans.
      EXPECT_EQ(sparse->stage_seconds, dense->stage_seconds) << context;
      EXPECT_EQ(sparse->per_layer_option, dense->per_layer_option)
          << context;

      // The tripwire. Strict < in practice (the ratio is ~10-100x); <= is
      // the invariant that can never legitimately break.
      EXPECT_LE(sparse->states_explored, dense->states_explored) << context;
      sparse_states += sparse->states_explored;
      dense_states += dense->states_explored;
    }
  }
  EXPECT_GT(sparse_states, 0);
  EXPECT_LE(sparse_states, dense_states);
}

/// Timer-free tracing-off tripwire: with SimOptions::record_trace at its
/// default (off), the simulator must do no tracing work at all — the
/// two-argument Run and a Run handed a trace pointer must produce bitwise-
/// identical metrics, and the capture structures must stay empty (no
/// per-task vectors allocated, no tasks copied out). Any allocation or
/// arithmetic sneaking into the untraced path shows up here as a filled
/// structure or a perturbed double.
TEST(PerfRegressionTest, TracingOffDoesNoRecordingWork) {
  BertConfig config;
  config.num_layers = 8;
  config.hidden = 1024;
  config.heads = 16;
  const ModelSpec model = BuildBert("perf-bert", config);
  const ClusterSpec cluster = MakeTitanNode8(12 * kGB);
  auto plan = Optimizer(&cluster).Optimize(model);
  ASSERT_TRUE(plan.ok()) << plan.status();

  const Simulator sim(&cluster);  // record_trace defaults to off
  auto base = sim.Run(model, plan->plan);
  ASSERT_TRUE(base.ok()) << base.status();

  SimTrace capture;
  auto with_pointer = sim.Run(model, plan->plan, &capture);
  ASSERT_TRUE(with_pointer.ok());

  EXPECT_EQ(base->iteration_seconds, with_pointer->iteration_seconds);
  EXPECT_EQ(base->throughput_samples_per_sec,
            with_pointer->throughput_samples_per_sec);
  EXPECT_EQ(base->compute_busy_sec, with_pointer->compute_busy_sec);
  EXPECT_EQ(base->comm_busy_sec, with_pointer->comm_busy_sec);
  EXPECT_EQ(base->stage_peak_memory_bytes,
            with_pointer->stage_peak_memory_bytes);

  // The capture stayed empty: no task copies, no per-task timing vectors.
  EXPECT_TRUE(capture.tasks.empty());
  EXPECT_TRUE(capture.streams.empty());
  EXPECT_TRUE(capture.timeline.tasks.empty());
  EXPECT_TRUE(capture.timeline.task_work_sec.empty());
  EXPECT_TRUE(capture.timeline.task_lost_sec.empty());
}

/// The parallel-sweep tripwire: asking for 4 threads must never be
/// meaningfully slower than asking for 1. This was a real regression —
/// per-index task dispatch made the 4-thread sweep ~5% SLOWER than
/// serial; the chunked self-scheduler and the core-capped pool fixed it.
/// Interning is not on the hot path: each Run interns its candidates
/// once, and warm stage facts skip the cost table entirely. Wall times are
/// best-of-N on both sides (single shots are noisy), and the threshold
/// leaves generous headroom: the tripwire fires on a structural regression
/// (dispatch overhead scaling with work again), not on scheduler jitter.
/// On a 1-core host the two runs degrade to the same serial execution, so
/// the bound holds there too; on multicore it additionally catches a
/// broken (slower-than-serial) parallel path.
TEST(PerfRegressionTest, FourThreadSweepNotSlowerThanSerial) {
  BertConfig config;
  config.num_layers = 8;
  config.hidden = 1024;
  config.heads = 16;
  const ModelSpec model = BuildBert("perf-bert", config);
  const ClusterSpec cluster = MakeTitanNode8(12 * kGB);

  auto best_of = [&](int threads) {
    OptimizerOptions options;
    options.search_threads = threads;
    const Optimizer optimizer(&cluster, options);
    double best_sec = 0.0;
    for (int rep = 0; rep < 5; ++rep) {
      const auto start = std::chrono::steady_clock::now();
      auto result = optimizer.Optimize(model);
      const double sec =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start)
              .count();
      EXPECT_TRUE(result.ok()) << result.status();
      if (rep == 0 || sec < best_sec) best_sec = sec;
    }
    return best_sec;
  };

  const double serial_sec = best_of(1);
  const double four_sec = best_of(4);
  EXPECT_LT(four_sec, serial_sec * 1.5)
      << "4-thread sweep took " << four_sec << "s vs " << serial_sec
      << "s serial — parallel dispatch overhead has regressed";
}

/// Timer-free allocation tripwire: with a warm cost cache and frontier
/// cache (the serving daemon's steady state), a repeat Optimize replays
/// cached frontiers and prices nothing, so its heap traffic collapses to
/// result assembly — a small fraction of the cold sweep's. A regression
/// that reintroduces per-state or per-lookup allocations (string keys,
/// copied strategy vectors, per-column buffers) breaks the ratio long
/// before it shows up on a wall clock. The warm count must also be exactly
/// reproducible: the warm path is deterministic, so two warm runs that
/// allocate differently mean nondeterministic work crept in. Warm re-plans
/// at smaller budgets over the same caches must return the cold plan at
/// that budget, priced exactly as EstimatePlan prices it.
TEST(PerfRegressionTest, WarmOptimizeAllocationsStayCollapsed) {
  BertConfig config;
  config.num_layers = 8;
  config.hidden = 1024;
  config.heads = 16;
  const ModelSpec model = BuildBert("perf-bert", config);
  const ClusterSpec cluster = MakeTitanNode8(12 * kGB);
  OptimizerOptions options;
  options.search_threads = 1;
  const Optimizer optimizer(&cluster, options);
  const CostEstimator estimator(&cluster);
  SharedCostCache cache(&estimator, &model);
  DpFrontierCache frontier;
  SearchHooks hooks;
  hooks.cost_cache = &cache;
  hooks.frontier_cache = &frontier;

  auto cold = optimizer.Optimize(model, hooks);
  ASSERT_TRUE(cold.ok()) << cold.status();
  auto warm1 = optimizer.Optimize(model, hooks);
  ASSERT_TRUE(warm1.ok()) << warm1.status();
  auto warm2 = optimizer.Optimize(model, hooks);
  ASSERT_TRUE(warm2.ok()) << warm2.status();

  // Warm runs return the cold run's plan and allocate identically.
  EXPECT_EQ(warm1->plan.ToString(), cold->plan.ToString());
  EXPECT_EQ(warm1->stats.dp_allocations, warm2->stats.dp_allocations);
  EXPECT_EQ(warm1->stats.sweep_allocations, warm2->stats.sweep_allocations);

  // The tripwire: currently ~15x under the cold counts; 5x is the slack
  // that survives legitimate bookkeeping drift but not a reintroduced
  // per-state allocation.
  EXPECT_GT(cold->stats.dp_allocations, 0);
  EXPECT_LE(warm1->stats.dp_allocations, cold->stats.dp_allocations / 5);
  EXPECT_LE(warm1->stats.sweep_allocations,
            cold->stats.sweep_allocations / 5);

  for (const int64_t budget : {11 * kGB, 10 * kGB, 9 * kGB}) {
    const ClusterSpec smaller = MakeTitanNode8(budget);
    const Optimizer at_budget(&smaller, options);
    auto warm = at_budget.Optimize(model, hooks);
    ASSERT_TRUE(warm.ok()) << warm.status();
    auto fresh = at_budget.Optimize(model);
    ASSERT_TRUE(fresh.ok()) << fresh.status();
    EXPECT_EQ(warm->plan.ToString(), fresh->plan.ToString())
        << "budget " << budget;
    auto estimated = CostEstimator(&smaller).EstimatePlan(model, warm->plan);
    ASSERT_TRUE(estimated.ok()) << estimated.status();
    EXPECT_TRUE(PlanCostsBitIdentical(warm->estimated, *estimated))
        << "budget " << budget;
  }
}

/// Timer-free heterogeneity tripwire: on a *uniform* cluster the
/// uneven-stage sweep (on by default) must add zero work — the island
/// machinery is gated on mixed compute or an attached topology graph, so
/// homogeneous searches must explore exactly the same configurations,
/// materialize the same DP states, and return the identical plan whether
/// the flag is on or off. A nonzero delta means the heterogeneous
/// candidates leaked into the homogeneous path and its search cost
/// regressed.
TEST(PerfRegressionTest, UnevenStageSweepAddsNoHomogeneousWork) {
  BertConfig config;
  config.num_layers = 8;
  config.hidden = 1024;
  config.heads = 16;
  const ModelSpec model = BuildBert("perf-bert", config);
  const ClusterSpec cluster = MakeTitanCluster16(12 * kGB);

  OptimizerOptions on;
  on.allow_uneven_stages = true;
  OptimizerOptions off = on;
  off.allow_uneven_stages = false;

  auto with_flag = Optimizer(&cluster, on).Optimize(model);
  auto without_flag = Optimizer(&cluster, off).Optimize(model);
  ASSERT_TRUE(with_flag.ok()) << with_flag.status();
  ASSERT_TRUE(without_flag.ok()) << without_flag.status();

  EXPECT_EQ(with_flag->plan.ToString(), without_flag->plan.ToString());
  EXPECT_EQ(with_flag->estimated.throughput_samples_per_sec,
            without_flag->estimated.throughput_samples_per_sec);
  EXPECT_EQ(with_flag->stats.configs_explored,
            without_flag->stats.configs_explored);
  EXPECT_EQ(with_flag->stats.dp_states_explored,
            without_flag->stats.dp_states_explored);
}

/// Timer-free work tripwire on the 8-layer BERT / TITAN-8 sweep at one
/// thread (a fresh process, so the thread-local scratch starts cold and
/// both counters are exact): DP states materialized and heap allocations
/// of the whole sweep. The same-class domination prune and pricing plans
/// from the cost cache (no EstimatePlan, no template copies, no draft
/// materialized per configuration) brought these to 28,664 states and
/// 31,418 allocations, from 40,972 and 41,999; the cross-configuration
/// bound (115 of 218 configurations skip their stage DPs) and
/// allocation-free Run set-up brought them to 15,517 and 15,909, and
/// composing every plan from the cost cache to 15,517 and 6,972. The
/// two-pass sweep — every batch's uniform plans priced before any stage
/// DP, the deferred DPs run best bound first, 175 configurations pruned —
/// and allocation-free pricing of plans that do not fit brought them to
/// 754 and 3,424, and the stage table to 754 and 3,395. One record per
/// stage signature — its facts and frontier found in one probe, bounds
/// composed from what the uniform pass's probe returned — brought the
/// allocations to 3,371 and the stage-store lookups (stage_table_hits +
/// stage_table_misses) from 1,461 (983 + 478) to 774 (296 + 478).
/// Bounding every configuration, not only those with a fitting uniform
/// plan, and settling a stage that cannot fit from the stage table brought
/// the three to 625 states, 3,194 allocations and 734 lookups, from 754,
/// 3,371 and 774. The ceilings sit ~10% above the new counts, below the
/// old ones.
TEST(PerfRegressionTest, SerialSweepWorkStaysUnderItsCeilings) {
  BertConfig config;
  config.num_layers = 8;
  config.hidden = 1024;
  config.heads = 16;
  const ModelSpec model = BuildBert("perf-bert", config);
  const ClusterSpec cluster = MakeTitanNode8(12 * kGB);
  OptimizerOptions options;
  options.search_threads = 1;
  auto result = Optimizer(&cluster, options).Optimize(model);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_LE(result->stats.dp_states_explored, kMaxDpStates)
      << "DP states regressed";
  EXPECT_LE(result->stats.sweep_allocations, kMaxSweepAllocations)
      << "sweep allocations regressed";
  EXPECT_LE(result->stats.stage_table_hits + result->stats.stage_table_misses,
            kMaxSweepStoreLookups)
      << "stage-store lookups regressed";
  // Some of this sweep's stage searches cannot fit 12 GB; the feasibility
  // test must answer those before any frontier is built.
  EXPECT_GT(result->stats.dp_infeasible_skipped, 0)
      << "no infeasible stage search was decided before its build";
  // Most configurations cannot beat their PP degree's incumbent; the
  // throughput bound must skip their stage DPs.
  EXPECT_GT(result->stats.configs_pruned, 0)
      << "no configuration was pruned by the throughput bound";
}

/// Timer-free warm tripwire on the same sweep: a re-plan at the budget an
/// earlier plan over the same caches searched answers its first pass from
/// the stage table — every stage's facts are stored, so it misses none —
/// and its cost-cache lookups (hits + misses) are only those of the DP
/// plans it prices in full. Before the stage table the re-plan made 6,251
/// cost-cache hits, re-pricing every uniform plan and re-bounding every
/// stage; it makes 14 now. The ceiling is a fifth of the old count.
TEST(PerfRegressionTest, WarmReplanReadsTheStageTable) {
  BertConfig config;
  config.num_layers = 8;
  config.hidden = 1024;
  config.heads = 16;
  const ModelSpec model = BuildBert("perf-bert", config);
  const ClusterSpec cluster = MakeTitanNode8(12 * kGB);
  OptimizerOptions options;
  options.search_threads = 1;
  const Optimizer optimizer(&cluster, options);
  const CostEstimator estimator(&cluster);
  SharedCostCache cache(&estimator, &model);
  DpFrontierCache frontier;
  SearchHooks hooks;
  hooks.cost_cache = &cache;
  hooks.frontier_cache = &frontier;

  auto cold = optimizer.Optimize(model, hooks);
  ASSERT_TRUE(cold.ok()) << cold.status();
  EXPECT_GT(cold->stats.stage_table_misses, 0);
  auto warm = optimizer.Optimize(model, hooks);
  ASSERT_TRUE(warm.ok()) << warm.status();
  EXPECT_EQ(warm->plan.ToString(), cold->plan.ToString());
  EXPECT_EQ(warm->stats.stage_table_misses, 0);
  EXPECT_GT(warm->stats.stage_table_hits, 0);
  EXPECT_LE(warm->stats.cost_cache_hits + warm->stats.cost_cache_misses,
            kMaxWarmCostCacheLookups)
      << "warm re-plans re-price what the stage table holds";
}

/// Warm re-plans at smaller budgets over the caches of a 12 GB plan: a
/// stage whose record holds a frontier built at a budget >= the re-plan's
/// is bounded by the frontier's exact optimum, not the looser LP bound, so
/// the re-plans prune exactly as many configurations as when the bound
/// pass replayed the whole stage answer (pinned from that design). At
/// 9.25 GB, after the 9 GB re-plan, the LP bound would prune one fewer
/// (117). The frontier hits the sweep reports are the Runs the store
/// answered: the bound counts none.
TEST(PerfRegressionTest, WarmReplanKeepsExactFrontierBounds) {
  BertConfig config;
  config.num_layers = 8;
  config.hidden = 1024;
  config.heads = 16;
  const ModelSpec model = BuildBert("perf-bert", config);
  const ClusterSpec cluster = MakeTitanNode8(12 * kGB);
  OptimizerOptions options;
  options.search_threads = 1;
  const CostEstimator estimator(&cluster);
  SharedCostCache cache(&estimator, &model);
  DpFrontierCache frontier;
  SearchHooks hooks;
  hooks.cost_cache = &cache;
  hooks.frontier_cache = &frontier;
  ASSERT_TRUE(Optimizer(&cluster, options).Optimize(model, hooks).ok());

  const struct {
    int64_t budget;
    int configs_pruned;
  } replans[] = {{11 * kGB, 149},
                 {10 * kGB, 132},
                 {9 * kGB, 117},
                 {9 * kGB + kGB / 4, 118}};
  for (const auto& replan : replans) {
    const ClusterSpec smaller = MakeTitanNode8(replan.budget);
    const int64_t hits_before = frontier.stats().hits;
    auto warm = Optimizer(&smaller, options).Optimize(model, hooks);
    ASSERT_TRUE(warm.ok()) << warm.status();
    EXPECT_EQ(warm->stats.configs_pruned, replan.configs_pruned)
        << "budget " << replan.budget;
    EXPECT_EQ(warm->stats.dp_frontier_hits,
              frontier.stats().hits - hits_before)
        << "budget " << replan.budget;
  }
}

/// Timer-free work tripwire on the same sweep at 4 threads (fewer on a
/// host with fewer cores). Each wave's configurations are bounded against
/// incumbents snapshotted before the wave run ahead of them merged, so a
/// threaded sweep prunes less than the serial one; the two-pass sweep's
/// incumbents hold every batch's uniform best, which brought its DP states
/// from 18,840 (87 configurations pruned) to 2,064 (173 pruned), and
/// bounding every configuration to 1,935 (in each of 30 runs on a 4-vCPU
/// host). The ceiling sits ~10% above the new count.
TEST(PerfRegressionTest, FourThreadSweepStatesStayUnderTheirCeiling) {
  BertConfig config;
  config.num_layers = 8;
  config.hidden = 1024;
  config.heads = 16;
  const ModelSpec model = BuildBert("perf-bert", config);
  const ClusterSpec cluster = MakeTitanNode8(12 * kGB);
  OptimizerOptions options;
  options.search_threads = 4;
  auto result = Optimizer(&cluster, options).Optimize(model);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_LE(result->stats.dp_states_explored, kMaxDpStatesFourThreads)
      << "DP states regressed at " << result->stats.search_threads_used
      << " threads";
}

/// Timer-free work tripwire on the same sweep with activation checkpointing
/// allowed, at one thread. With recompute the batch loop runs on long after
/// no uniform plan fits; those configurations used to run their stage DPs
/// unbounded (169,105 states, 178 of 3,013 configurations pruned). Bounded
/// like every other configuration, with the exit test running DPs only
/// until one fits, the sweep explores the same configurations and
/// materializes 2,231 states (1,292 pruned). The ceiling sits ~10% above.
TEST(PerfRegressionTest, SerialRecomputeSweepRunsFewDps) {
  BertConfig config;
  config.num_layers = 8;
  config.hidden = 1024;
  config.heads = 16;
  const ModelSpec model = BuildBert("perf-bert", config);
  const ClusterSpec cluster = MakeTitanNode8(12 * kGB);
  OptimizerOptions options;
  options.search_threads = 1;
  options.allow_recompute = true;
  auto result = Optimizer(&cluster, options).Optimize(model);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->stats.configs_explored, 3013);
  EXPECT_LE(result->stats.dp_states_explored, kMaxRecomputeDpStates)
      << "recompute sweeps run stage DPs their bound rules out";
}

/// Determinism tripwire: the sweep's outcome must be bit-identical at
/// every thread count — same serialized plan, same throughput double,
/// same configuration count. The parallel merge is enumeration-ordered
/// with total-order tie-breaking, so any divergence means a
/// first-finished-wins bug crept back in. At every count the winner's
/// cost, composed from the cost cache after the sweep, must also be
/// EstimatePlan's on the materialized plan, bit for bit.
TEST(PerfRegressionTest, PlanBitIdenticalAcrossThreadCounts) {
  BertConfig config;
  config.num_layers = 8;
  config.hidden = 1024;
  config.heads = 16;
  const ModelSpec model = BuildBert("perf-bert", config);
  const ClusterSpec cluster = MakeTitanNode8(12 * kGB);

  // The winner and every per-degree alternate: the throughput bound prunes
  // against a per-degree incumbent snapshotted per wave, which differs by
  // thread count, and must leave all of them unchanged.
  auto plans_of = [](const OptimizationResult& result) {
    std::string text = result.plan.ToString();
    for (const TrainingPlan& alternate : result.alternates) {
      text += "\n" + alternate.ToString();
    }
    return text;
  };
  std::string reference_plan;
  double reference_throughput = 0.0;
  int reference_configs = 0;
  for (const int threads : {1, 2, 4, 8}) {
    OptimizerOptions options;
    options.search_threads = threads;
    auto result = Optimizer(&cluster, options).Optimize(model);
    ASSERT_TRUE(result.ok()) << result.status();
    auto estimated = CostEstimator(&cluster, options.estimator)
                         .EstimatePlan(model, result->plan);
    ASSERT_TRUE(estimated.ok()) << estimated.status();
    EXPECT_TRUE(PlanCostsBitIdentical(result->estimated, *estimated))
        << "threads " << threads;
    if (threads == 1) {
      reference_plan = plans_of(*result);
      reference_throughput = result->estimated.throughput_samples_per_sec;
      reference_configs = result->stats.configs_explored;
      ASSERT_FALSE(result->alternates.empty());
      continue;
    }
    EXPECT_EQ(plans_of(*result), reference_plan) << "threads " << threads;
    EXPECT_EQ(result->estimated.throughput_samples_per_sec,
              reference_throughput)
        << "threads " << threads;
    EXPECT_EQ(result->stats.configs_explored, reference_configs)
        << "threads " << threads;
  }
}

}  // namespace
}  // namespace galvatron
