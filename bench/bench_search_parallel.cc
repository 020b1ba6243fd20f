/// Parallel search-engine benchmark: full Algorithm-1 sweeps on an 8-layer
/// BERT over an 8-GPU node at increasing --search-threads, plus the effect
/// of the sweep-wide shared cost cache. The "speedup" counter is wall time
/// at 1 thread over wall time at N threads; plans are bit-identical at
/// every N.
///
/// The machine-readable output (WriteBenchJson below) additionally covers
/// fleet-size clusters — 64 and 512 GPUs, 104- and 128-layer models — so
/// search time at fleet scale is a tracked number in BENCH_search.json,
/// not an extrapolation. Every wall_ms is best-of-N with an explicit
/// "repetitions" field (bench::BestOfMs), and every thread count's plan is
/// checked bit-identical against the 1-thread plan
/// ("plan_matches_serial"). Three warm re-plan records time the serving
/// daemon's warm-start path: repeat plans over one PlanningContext at
/// budgets below the one it was primed with, at budgets above it, and in
/// shuffled budget orders over the serving benchmark's contexts.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <string>
#include <vector>

#include "api/galvatron.h"
#include "bench_json.h"
#include "cluster/cluster.h"
#include "ir/model_zoo.h"
#include "search/optimizer.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace galvatron {
namespace {

ModelSpec LayeredBert(int layers) {
  BertConfig config;
  config.num_layers = layers;
  config.hidden = 1280;
  config.heads = 16;
  return BuildBert("bert-" + std::to_string(layers), config);
}

ModelSpec EightLayerBert() { return LayeredBert(8); }

/// One full optimizer sweep per iteration at state.range(0) threads.
void BM_OptimizeVsThreads(benchmark::State& state) {
  static double serial_seconds = 0.0;  // filled by the 1-thread run
  const int threads = static_cast<int>(state.range(0));
  ClusterSpec cluster = MakeTitanNode8(16 * kGB);
  OptimizerOptions options;
  options.search_threads = threads;
  Optimizer optimizer(&cluster, options);
  ModelSpec model = EightLayerBert();

  double search_seconds = 0.0;
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
  for (auto _ : state) {
    auto result = optimizer.Optimize(model);
    GALVATRON_CHECK(result.ok());
    benchmark::DoNotOptimize(result);
    search_seconds += result->stats.search_seconds;
    cache_hits = result->stats.cost_cache_hits;
    cache_misses = result->stats.cost_cache_misses;
  }
  const double mean_seconds =
      search_seconds / static_cast<double>(state.iterations());
  if (threads == 1) serial_seconds = mean_seconds;
  state.counters["threads"] = threads;
  state.counters["cache_hits"] = static_cast<double>(cache_hits);
  state.counters["cache_misses"] = static_cast<double>(cache_misses);
  if (threads > 1 && serial_seconds > 0.0) {
    state.counters["speedup"] = serial_seconds / mean_seconds;
  }
}
BENCHMARK(BM_OptimizeVsThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

/// Same sweep on all hardware threads — the CLI's --search-threads 0.
void BM_OptimizeHardwareThreads(benchmark::State& state) {
  ClusterSpec cluster = MakeTitanNode8(16 * kGB);
  OptimizerOptions options;
  options.search_threads = 0;
  Optimizer optimizer(&cluster, options);
  ModelSpec model = EightLayerBert();
  for (auto _ : state) {
    auto result = optimizer.Optimize(model);
    GALVATRON_CHECK(result.ok());
    benchmark::DoNotOptimize(result);
  }
  state.counters["threads"] =
      static_cast<double>(ThreadPool::HardwareThreads());
}
BENCHMARK(BM_OptimizeHardwareThreads)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/// Runs the full sweep of one (cluster, model, options) workload at each
/// thread count and records, per count: best-of-N wall time with the
/// repetition count, threads used, host hardware threads (wall-clock
/// speedup is capacity-bound by the smaller of the two), DP states, cache
/// hit rate, speedup over the 1-thread run, and whether the plan matched
/// the serial plan byte-for-byte.
void RecordThreadSweep(bench::BenchJson* out, const std::string& base_name,
                       const ClusterSpec& cluster, const ModelSpec& model,
                       const OptimizerOptions& base_options,
                       const std::vector<int>& thread_counts,
                       int repetitions) {
  std::string serial_plan;
  double serial_ms = 0.0;
  for (const int threads : thread_counts) {
    OptimizerOptions options = base_options;
    options.search_threads = threads;
    Optimizer optimizer(&cluster, options);
    SearchStats stats;
    std::string plan_text;
    const double best_ms = bench::BestOfMs(repetitions, [&] {
      auto result = optimizer.Optimize(model);
      GALVATRON_CHECK(result.ok());
      stats = result->stats;
      plan_text = result->plan.ToString();
    });
    if (threads == 1) {
      serial_plan = plan_text;
      serial_ms = best_ms;
    }
    const std::string name = base_name + "_t" + std::to_string(threads);
    out->Record(name, "wall_ms", best_ms);
    out->Record(name, "repetitions", repetitions);
    out->Record(name, "threads", stats.search_threads_used);
    out->Record(name, "host_threads", ThreadPool::HardwareThreads());
    out->Record(name, "configs_explored", stats.configs_explored);
    out->Record(name, "configs_pruned", stats.configs_pruned);
    out->Record(name, "dp_drafts_over_budget",
                static_cast<double>(stats.dp_drafts_over_budget));
    out->Record(name, "dp_states_explored",
                static_cast<double>(stats.dp_states_explored));
    out->Record(name, "dp_allocations",
                static_cast<double>(stats.dp_allocations));
    out->Record(name, "sweep_allocations",
                static_cast<double>(stats.sweep_allocations));
    const double lookups =
        static_cast<double>(stats.cost_cache_hits + stats.cost_cache_misses);
    out->Record(name, "cache_hit_rate",
                lookups > 0 ? stats.cost_cache_hits / lookups : 0.0);
    if (threads != 1 && serial_ms > 0.0) {
      out->Record(name, "speedup_over_t1", serial_ms / best_ms);
      out->Record(name, "plan_matches_serial",
                  plan_text == serial_plan ? 1.0 : 0.0);
    }
    std::printf("%-34s %8.2f ms  (threads %d, best of %d)\n", name.c_str(),
                best_ms, stats.search_threads_used, repetitions);
  }
}

/// Records the median, quartiles and interquartile range of one-thread
/// re-plan wall times, with the plan count and host.
void RecordPlanTimes(bench::BenchJson* out, const std::string& name,
                     std::vector<double> plan_ms) {
  std::sort(plan_ms.begin(), plan_ms.end());
  const auto quantile = [&](double q) {
    return plan_ms[static_cast<size_t>(q * (plan_ms.size() - 1) + 0.5)];
  };
  out->Record(name, "plan_ms_p50", quantile(0.5));
  out->Record(name, "plan_ms_p25", quantile(0.25));
  out->Record(name, "plan_ms_p75", quantile(0.75));
  out->Record(name, "plan_ms_iqr", quantile(0.75) - quantile(0.25));
  out->Record(name, "plans", static_cast<double>(plan_ms.size()));
  out->Record(name, "threads", 1);
  out->Record(name, "host_threads", ThreadPool::HardwareThreads());
  std::printf("%-34s %8.3f ms  (p50 of %zu plans, IQR %.3f ms)\n",
              name.c_str(), quantile(0.5), plan_ms.size(),
              quantile(0.75) - quantile(0.25));
}

/// Warm re-plans over one PlanningContext, as the serving daemon runs a
/// request that misses the plan cache but shares a warm context:
/// BERT-Huge-32 on the 8-GPU TITAN node, primed by one plan at 24 GB, then
/// plans at 12.5 to 17.5 GB in 1 GB steps on one sweep thread. One untimed
/// pass over the budgets fills what the primed sweep left cold; each of
/// `passes` timed passes then plans every budget once. Records the
/// per-Plan wall time's median and interquartile range over all timed
/// plans, and the sweep allocations of one pass (exact: the warm path is
/// deterministic).
void RecordWarmReplans(bench::BenchJson* out, const std::string& name,
                       int passes) {
  PlanningContext context(BuildModel(ModelId::kBertHuge32),
                          MakeTitanNode8(24 * kGB));
  OptimizerOptions options;
  options.search_threads = 1;
  SearchHooks hooks;
  hooks.cost_cache = context.cache();
  hooks.frontier_cache = context.frontier_cache();
  std::vector<ClusterSpec> budgets;
  for (int i = 0; i < 6; ++i) {
    budgets.push_back(MakeTitanNode8(12 * kGB + kGB / 2 + i * kGB));
  }
  auto plan = [&](const ClusterSpec& cluster) {
    auto result = Galvatron::Plan(context.model(), cluster, options, hooks);
    GALVATRON_CHECK(result.ok());
    return result->search_stats.sweep_allocations;
  };
  plan(context.cluster());
  for (const ClusterSpec& cluster : budgets) plan(cluster);

  std::vector<double> plan_ms;
  int64_t pass_allocations = 0;
  for (int pass = 0; pass < passes; ++pass) {
    pass_allocations = 0;
    for (const ClusterSpec& cluster : budgets) {
      const auto start = std::chrono::steady_clock::now();
      pass_allocations += plan(cluster);
      plan_ms.push_back(std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - start)
                            .count());
    }
  }
  RecordPlanTimes(out, name, plan_ms);
  out->Record(name, "sweep_allocations",
              static_cast<double>(pass_allocations));
}

/// Grow re-plans over one PlanningContext: BERT-Huge-32 on the 8-GPU
/// TITAN node, primed (untimed) by one plan at 12 GB, then plans at 16, 20
/// and 24 GB, in that order, on one sweep thread. A cached frontier covers
/// only budgets up to the widest one searched, so each re-plan above it
/// runs its own stage DPs. Each of `passes` passes uses a fresh context.
/// Records the per-Plan wall time's median and interquartile range over
/// all timed plans, and each budget's DP states (exact: the serial sweep
/// is deterministic).
void RecordGrowReplans(bench::BenchJson* out, const std::string& name,
                       int passes) {
  OptimizerOptions options;
  options.search_threads = 1;
  const std::vector<int> budgets_gb = {16, 20, 24};
  std::vector<double> plan_ms;
  std::vector<int64_t> states(budgets_gb.size());
  for (int pass = 0; pass < passes; ++pass) {
    PlanningContext context(BuildModel(ModelId::kBertHuge32),
                            MakeTitanNode8(12 * kGB));
    SearchHooks hooks;
    hooks.cost_cache = context.cache();
    hooks.frontier_cache = context.frontier_cache();
    GALVATRON_CHECK(
        Galvatron::Plan(context.model(), context.cluster(), options, hooks)
            .ok());
    for (size_t i = 0; i < budgets_gb.size(); ++i) {
      const ClusterSpec cluster = MakeTitanNode8(budgets_gb[i] * kGB);
      const auto start = std::chrono::steady_clock::now();
      auto result = Galvatron::Plan(context.model(), cluster, options, hooks);
      plan_ms.push_back(std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - start)
                            .count());
      GALVATRON_CHECK(result.ok());
      states[i] = result->search_stats.dp_states_explored;
    }
  }
  RecordPlanTimes(out, name, plan_ms);
  for (size_t i = 0; i < budgets_gb.size(); ++i) {
    out->Record(name,
                "dp_states_explored_" + std::to_string(budgets_gb[i]) + "gb",
                static_cast<double>(states[i]));
  }
}

/// First visits to budgets over a warm PlanningContext, as the serving
/// daemon meets requests at budgets its context has not searched:
/// BERT-Huge-32 on the 8-GPU TITAN node, primed (untimed) by one plan at
/// 24 GB, then plans at 12.5, 13.5, 14.5, 15.5 and 16.5 GB, once each, on
/// one sweep thread. Every budget is new to the context, so each plan
/// reads the stage store its earlier plans filled and runs the DPs no
/// stored frontier answers. Each of `passes` passes uses a fresh context.
/// Records the per-Plan wall time's median and quartiles over all timed
/// plans, and the sweep allocations of one pass (exact: every sweep is
/// serial and deterministic).
void RecordFirstVisitReplans(bench::BenchJson* out, const std::string& name,
                             int passes) {
  OptimizerOptions options;
  options.search_threads = 1;
  std::vector<double> plan_ms;
  int64_t pass_allocations = 0;
  for (int pass = 0; pass < passes; ++pass) {
    PlanningContext context(BuildModel(ModelId::kBertHuge32),
                            MakeTitanNode8(24 * kGB));
    SearchHooks hooks;
    hooks.cost_cache = context.cache();
    hooks.frontier_cache = context.frontier_cache();
    GALVATRON_CHECK(
        Galvatron::Plan(context.model(), context.cluster(), options, hooks)
            .ok());
    pass_allocations = 0;
    for (int i = 0; i < 5; ++i) {
      const ClusterSpec cluster = MakeTitanNode8(12 * kGB + kGB / 2 + i * kGB);
      const auto start = std::chrono::steady_clock::now();
      auto result = Galvatron::Plan(context.model(), cluster, options, hooks);
      plan_ms.push_back(std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - start)
                            .count());
      GALVATRON_CHECK(result.ok());
      pass_allocations += result->search_stats.sweep_allocations;
    }
  }
  RecordPlanTimes(out, name, plan_ms);
  out->Record(name, "sweep_allocations",
              static_cast<double>(pass_allocations));
}

/// Re-plans in shuffled budget orders over the serving benchmark's warm
/// contexts: BERT-Huge-32 and ViT-Huge-32 on the 8-GPU TITAN and A100
/// nodes (the serve_calibrate clusters), one sweep thread. Each of
/// `passes` passes plans every (model, node) at 12, 16, 20 and 24 GB in
/// each of four fixed orders, over a fresh PlanningContext per order, so a
/// context's first plan is cold and its later plans re-plan at budgets
/// both below and above the ones it searched. Records the median and
/// quartiles of the cold first plans and, separately, of the warm ones,
/// and the sweep allocations of one pass (exact: every sweep is serial
/// and deterministic).
void RecordShuffledReplans(bench::BenchJson* out, const std::string& name,
                           int passes) {
  constexpr int kOrders[4][4] = {
      {12, 16, 20, 24}, {24, 20, 16, 12}, {16, 24, 12, 20}, {20, 12, 24, 16}};
  auto node = [](bool a100, int64_t budget) {
    return MakeHomogeneousCluster(
        a100 ? "a100-1x8" : "titan-1x8", /*nodes=*/1, /*gpus_per_node=*/8,
        budget, a100 ? 17e12 : 6.5e12,
        a100 ? LinkClass::kNvLink : LinkClass::kPcie3,
        LinkClass::kInfiniBand100);
  };
  OptimizerOptions options;
  options.search_threads = 1;
  std::vector<double> cold_ms;
  std::vector<double> warm_ms;
  int64_t pass_allocations = 0;
  for (int pass = 0; pass < passes; ++pass) {
    pass_allocations = 0;
    for (const ModelId id : {ModelId::kBertHuge32, ModelId::kViTHuge32}) {
      for (const bool a100 : {false, true}) {
        for (const auto& order : kOrders) {
          PlanningContext context(BuildModel(id), node(a100, 12 * kGB));
          SearchHooks hooks;
          hooks.cost_cache = context.cache();
          hooks.frontier_cache = context.frontier_cache();
          for (int i = 0; i < 4; ++i) {
            const ClusterSpec cluster = node(a100, order[i] * kGB);
            const auto start = std::chrono::steady_clock::now();
            auto result =
                Galvatron::Plan(context.model(), cluster, options, hooks);
            (i == 0 ? cold_ms : warm_ms)
                .push_back(std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - start)
                               .count());
            GALVATRON_CHECK(result.ok());
            pass_allocations += result->search_stats.sweep_allocations;
          }
        }
      }
    }
  }
  const auto quartiles = [&](const std::string& band,
                             std::vector<double> plan_ms) {
    std::sort(plan_ms.begin(), plan_ms.end());
    const auto quantile = [&](double q) {
      return plan_ms[static_cast<size_t>(q * (plan_ms.size() - 1) + 0.5)];
    };
    out->Record(name, band + "_ms_p50", quantile(0.5));
    out->Record(name, band + "_ms_p25", quantile(0.25));
    out->Record(name, band + "_ms_p75", quantile(0.75));
    out->Record(name, band + "_plans", static_cast<double>(plan_ms.size()));
    std::printf("%-40s %s %8.3f ms  (p50 of %zu plans, IQR %.3f ms)\n",
                name.c_str(), band.c_str(), quantile(0.5), plan_ms.size(),
                quantile(0.75) - quantile(0.25));
  };
  quartiles("cold", cold_ms);
  quartiles("warm", warm_ms);
  out->Record(name, "sweep_allocations",
              static_cast<double>(pass_allocations));
  out->Record(name, "threads", 1);
  out->Record(name, "host_threads", ThreadPool::HardwareThreads());
}

/// Machine-readable record of the threaded sweep, merged into
/// BENCH_search.json: the original 8-GPU regression workload at
/// {1, 2, 4, 8} threads, plus two fleet-scale workloads (64 GPUs x 104
/// layers, 512 GPUs x 128 layers). The fleet sweeps bound the batch loop
/// (batch_step/max_batch below) so the bench finishes in seconds while
/// still exercising 100+-layer DP stages on 64-device candidate sets. Then
/// the warm re-plan records (RecordWarmReplans, RecordGrowReplans,
/// RecordShuffledReplans, RecordFirstVisitReplans).
void WriteBenchJson() {
  bench::BenchJson out("BENCH_search.json");

  {
    ClusterSpec cluster = MakeTitanNode8(16 * kGB);
    RecordThreadSweep(&out, "parallel_optimize_bert8", cluster,
                      EightLayerBert(), OptimizerOptions{}, {1, 2, 4, 8},
                      /*repetitions=*/7);
  }

  {
    ClusterSpec cluster = MakeHomogeneousCluster(
        "fleet-64", /*nodes=*/8, /*gpus_per_node=*/8, 16 * kGB,
        /*sustained_flops=*/6.5e12, LinkClass::kPcie3,
        LinkClass::kInfiniBand100);
    OptimizerOptions options;
    options.batch_step = 64;
    options.max_batch = 1024;
    RecordThreadSweep(&out, "fleet_optimize_bert104_gpu64", cluster,
                      LayeredBert(104), options, {1, 4},
                      /*repetitions=*/5);
  }

  {
    ClusterSpec cluster = MakeHomogeneousCluster(
        "fleet-512", /*nodes=*/64, /*gpus_per_node=*/8, 16 * kGB,
        /*sustained_flops=*/6.5e12, LinkClass::kPcie3,
        LinkClass::kInfiniBand100);
    OptimizerOptions options;
    options.batch_step = 256;
    options.max_batch = 1024;
    RecordThreadSweep(&out, "fleet_optimize_bert128_gpu512", cluster,
                      LayeredBert(128), options, {1, 4},
                      /*repetitions=*/3);
  }

  RecordWarmReplans(&out, "warm_replan_bert_huge32_titan8_t1",
                    /*passes=*/20);
  RecordGrowReplans(&out, "warm_replan_grow_bert_huge32_titan8_t1",
                    /*passes=*/10);
  RecordShuffledReplans(&out, "warm_replan_shuffled_titan8_a100_8_t1",
                        /*passes=*/20);
  RecordFirstVisitReplans(&out,
                          "warm_replan_first_visit_bert_huge32_titan8_t1",
                          /*passes=*/20);

  if (out.Save()) std::printf("wrote BENCH_search.json\n");
}

}  // namespace
}  // namespace galvatron

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  galvatron::WriteBenchJson();
  return 0;
}
