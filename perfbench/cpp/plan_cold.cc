/// plan_cold: the galvatron_cli user's path. A seeded stream of independent
/// cold Galvatron::Plan jobs, run one at a time by the generating thread,
/// each with fresh caches and search_threads = min(4, nproc). Why this mix:
/// see ../README.md.

#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "api/plan_io.h"
#include "bench.h"
#include "util/string_util.h"

namespace perfbench {
namespace {

using galvatron::ClusterSpec;
using galvatron::Galvatron;
using galvatron::kGB;
using galvatron::ModelId;
using galvatron::ModelSpec;
using galvatron::OptimizerOptions;
using galvatron::PipelineSchedule;
using galvatron::StrFormat;
using galvatron::TrainedPlan;

constexpr int kSetupRepeats = 11;
constexpr int kRounds = 5;
constexpr int kBlockJobs = 20;
/// At least 100 jobs per run, so plan_ms_p90 has ten samples beyond it.
constexpr int kMinBlocks = 5;

constexpr ModelId kZoo[] = {ModelId::kBertHuge32, ModelId::kBertHuge48,
                            ModelId::kT5Large32,  ModelId::kT5Large48,
                            ModelId::kViTHuge32,  ModelId::kSwinHuge32};
constexpr int kNumZoo = 6;
/// Inputs::models indices of the layered BERTs, after the zoo models.
constexpr int kBert104 = kNumZoo;
constexpr int kBert128 = kNumZoo + 1;

enum class Fabric { kTitan8, kTitan16, kMixed16, kFleet64, kFleet512 };

struct Job {
  int model = 0;
  Fabric fabric = Fabric::kTitan8;
  int64_t budget = 0;  // per-device bytes on the TITAN fabrics
  PipelineSchedule schedule = PipelineSchedule::kGPipe;
  bool recompute = false;
};

struct Inputs {
  std::vector<ModelSpec> models;
  std::vector<ClusterSpec> fixed;  // mixed16, fleet64, fleet512
};

/// One finished job with what the checks after the window need.
struct Completed {
  Job job;
  ClusterSpec cluster;
  OptimizerOptions options;
  std::optional<TrainedPlan> plan;
  std::string error;
  double wall = 0.0;
  double cpu = 0.0;
  bool traced = false;
  /// The plan's simulation, made after its block, outside the block's time.
  galvatron::Result<galvatron::SimMetrics> sim =
      galvatron::Status::Internal("not simulated");
};

ModelSpec LayeredBert(int layers) {
  galvatron::BertConfig config;
  config.num_layers = layers;
  config.hidden = 1280;
  config.heads = 16;
  return galvatron::BuildBert("bert-" + std::to_string(layers), config);
}

ClusterSpec Fleet(const char* name, int nodes) {
  return galvatron::MakeHomogeneousCluster(
      name, nodes, /*gpus_per_node=*/8, 16 * kGB, /*sustained_flops=*/6.5e12,
      galvatron::LinkClass::kPcie3, galvatron::LinkClass::kInfiniBand100);
}

std::unique_ptr<Inputs> BuildInputs() {
  auto inputs = std::make_unique<Inputs>();
  for (ModelId id : kZoo) inputs->models.push_back(galvatron::BuildModel(id));
  inputs->models.push_back(LayeredBert(104));
  inputs->models.push_back(LayeredBert(128));
  inputs->fixed.push_back(MixedA100Titan16());
  inputs->fixed.push_back(Fleet("fleet-64", 8));
  inputs->fixed.push_back(Fleet("fleet-512", 64));
  return inputs;
}

ClusterSpec ClusterFor(const Inputs& inputs, const Job& job) {
  switch (job.fabric) {
    case Fabric::kTitan8:
      return galvatron::MakeTitanNode8(job.budget);
    case Fabric::kTitan16:
      return galvatron::MakeTitanCluster16(job.budget);
    case Fabric::kMixed16:
      return inputs.fixed[0];
    case Fabric::kFleet64:
      return inputs.fixed[1];
    case Fabric::kFleet512:
      break;
  }
  return inputs.fixed[2];
}

OptimizerOptions OptionsFor(const Job& job, int threads) {
  OptimizerOptions options;
  options.search_threads = threads;
  options.schedule = job.schedule;
  options.allow_recompute = job.recompute;
  // The bounded batch loops bench_search_parallel uses at fleet scale.
  if (job.fabric == Fabric::kFleet64) {
    options.batch_step = 64;
    options.max_batch = 1024;
  } else if (job.fabric == Fabric::kFleet512) {
    options.batch_step = 256;
    options.max_batch = 1024;
  }
  return options;
}

/// Block `block` of the job stream. Every block has the same class mix, so
/// percentiles sit at fixed places in it: on the TITAN node each zoo model
/// once plus two rotating picks; on the 2x8 InfiniBand cluster each BERT
/// and T5 once plus two rotating picks, all at a fixed set of 8-24 GB
/// budgets the seed permutes; two BERT/T5 jobs on the mixed A100+TITAN
/// cluster; and the fleet fifth — one BERT-104 on 64 GPUs and three
/// BERT-128 on 512 GPUs. Two seeded BERT/T5 jobs on the node run 1F1B, and
/// BERT-Huge-32 at 16 GB on the node allows recompute. Measured on 4
/// cores, the 512-GPU jobs are the slowest but the recompute one, so
/// plan_ms_p90 sits inside the 512-GPU band and p99 inside the recompute
/// band, not on an edge.
/// ViT and Swin stay on the node: on 16 GPUs, or with 1F1B or recompute,
/// they cost several times a 512-GPU job and would own the tail.
std::vector<Job> MakeBlock(uint64_t seed, int64_t block) {
  const auto draw = [&](uint64_t stream, int i) {
    return UnitDraw(seed, stream,
                    static_cast<uint64_t>(block) * kBlockJobs +
                        static_cast<uint64_t>(i));
  };
  // Per-seed draws, fixed across blocks (`slot` < kBlockJobs).
  const auto fixed_draw = [&](uint64_t stream, int slot) {
    return UnitDraw(seed, stream, static_cast<uint64_t>(slot));
  };
  // A free model pick rotates block by block from a seeded start, so every
  // run covers the models evenly.
  const auto pick = [&](int slot, int models) {
    return (static_cast<int>(fixed_draw(2, slot) * models) +
            static_cast<int>(block % models)) %
           models;
  };
  const auto shuffle = [&](auto& items, uint64_t stream) {
    for (int i = static_cast<int>(items.size()) - 1; i > 0; --i) {
      std::swap(items[static_cast<size_t>(i)],
                items[static_cast<size_t>(draw(stream, i) * (i + 1))]);
    }
  };
  constexpr int kBertT5 = 4;  // kZoo[0..3]

  // Every block uses the same budgets; the seed permutes which job gets
  // which, block by block.
  std::vector<int64_t> node_budgets = {8, 10, 12, 14, 16, 18, 20, 24};
  std::vector<int64_t> cluster_budgets = {8, 10, 12, 16, 20, 24};
  shuffle(node_budgets, 1);
  shuffle(cluster_budgets, 5);

  std::vector<Job> jobs;
  for (int m = 0; m < kNumZoo; ++m) {
    jobs.push_back(
        {m, Fabric::kTitan8, node_budgets[static_cast<size_t>(m)] * kGB});
  }
  jobs.push_back({pick(0, kNumZoo), Fabric::kTitan8, node_budgets[6] * kGB});
  jobs.push_back({pick(1, kBertT5), Fabric::kTitan8, node_budgets[7] * kGB});
  jobs.push_back({0, Fabric::kTitan8, 16 * kGB, PipelineSchedule::kGPipe,
                  /*recompute=*/true});
  // Two of the node's BERT/T5 jobs (kZoo[0..3] at indices 0..3, and the
  // pick at index 7) switch to 1F1B.
  std::vector<int> one_f_one_b = {0, 1, 2, 3, 7};
  shuffle(one_f_one_b, 3);
  for (int i = 0; i < 2; ++i) {
    jobs[static_cast<size_t>(one_f_one_b[static_cast<size_t>(i)])].schedule =
        PipelineSchedule::k1F1B;
  }
  for (int m = 0; m < kBertT5; ++m) {
    jobs.push_back(
        {m, Fabric::kTitan16, cluster_budgets[static_cast<size_t>(m)] * kGB});
  }
  jobs.push_back(
      {pick(3, kBertT5), Fabric::kTitan16, cluster_budgets[4] * kGB});
  jobs.push_back(
      {pick(4, kBertT5), Fabric::kTitan16, cluster_budgets[5] * kGB});
  jobs.push_back({pick(5, kBertT5), Fabric::kMixed16});
  jobs.push_back({pick(6, kBertT5), Fabric::kMixed16});
  jobs.push_back({kBert104, Fabric::kFleet64});
  for (int i = 0; i < 3; ++i) jobs.push_back({kBert128, Fabric::kFleet512});
  shuffle(jobs, 4);
  return jobs;
}

std::string JobText(const Job& job) {
  return StrFormat("%d/%d/%lld/%d/%d;", job.model, static_cast<int>(job.fabric),
                   static_cast<long long>(job.budget),
                   static_cast<int>(job.schedule), job.recompute ? 1 : 0);
}

/// The /v1/plan body asking for the same plan as `job`.
std::string PlanBody(const Inputs& inputs, const Job& job,
                     const ClusterSpec& cluster,
                     const OptimizerOptions& options) {
  const std::string model =
      job.model < kNumZoo
          ? "\"" + std::string(galvatron::ModelIdToString(kZoo[job.model])) +
                "\""
          : galvatron::ModelSpecToJson(
                inputs.models[static_cast<size_t>(job.model)]);
  return StrFormat(
      "{\"model\": %s, \"cluster\": %s, \"options\": {\"schedule\": \"%s\", "
      "\"allow_recompute\": %s, \"search_threads\": %d, \"batch_step\": %d, "
      "\"max_batch\": %d}}",
      model.c_str(), galvatron::ClusterSpecToJson(cluster).c_str(),
      std::string(galvatron::PipelineScheduleToString(options.schedule))
          .c_str(),
      options.allow_recompute ? "true" : "false", options.search_threads,
      options.batch_step, options.max_batch);
}

}  // namespace

RunResult RunPlanCold(const RunConfig& config) {
  RunResult result;
  const int threads =
      config.search_threads > 0 ? config.search_threads : ClientThreads();
  const std::unique_ptr<Inputs> inputs =
      TimedSetup(kSetupRepeats, &result, [threads] {
        std::unique_ptr<Inputs> built = BuildInputs();
        // The first Plan call of a process pays thread start-up and code
        // paging; every galvatron_cli invocation pays it once too.
        OptimizerOptions options;
        options.search_threads = threads;
        auto warm = Galvatron::Plan(built->models[0],
                                    galvatron::MakeTitanNode8(16 * kGB), options);
        GALVATRON_CHECK(warm.ok()) << warm.status().ToString();
        return built;
      });

  std::vector<Completed> done;
  std::vector<double> block_seconds;
  std::vector<int> block_jobs;
  std::vector<bool> block_traced;
  std::vector<double> block_measure_ms;  // mean ms per measure, per block
  double measure_ms_total = 0.0;
  size_t measures_total = 0;
  uint64_t mix = Fnv1a("");
  const double window_start = NowSeconds();
  for (int64_t b = 0;; ++b) {
    const bool finished =
        config.ops > 0
            ? static_cast<int>(done.size()) >= config.ops
            : b >= kMinBlocks && NowSeconds() - window_start >= config.seconds;
    if (finished) break;
    // Traced runs trace every other block, so both halves see the same mix.
    const bool traced = config.trace && b % 2 == 1;
    const double block_start = NowSeconds();
    int jobs = 0;
    for (const Job& job : MakeBlock(config.seed, b)) {
      if (config.ops > 0 && static_cast<int>(done.size()) >= config.ops) break;
      mix = Fnv1a(JobText(job), mix);
      ClusterSpec cluster = ClusterFor(*inputs, job);
      const OptimizerOptions options = OptionsFor(job, threads);
      const double cpu_start = traced ? ProcessCpuSeconds() : 0.0;
      Span span("api.Galvatron::Plan", traced);
      auto plan = Galvatron::Plan(
          inputs->models[static_cast<size_t>(job.model)], cluster, options);
      const double wall = span.Finish();
      Completed completed{job, std::move(cluster), options, std::nullopt, ""};
      completed.wall = wall;
      completed.cpu = traced ? ProcessCpuSeconds() - cpu_start : 0.0;
      completed.traced = traced;
      if (plan.ok()) {
        completed.plan = std::move(plan).value();
      } else {
        completed.error = plan.status().ToString();
      }
      done.push_back(std::move(completed));
      ++jobs;
    }
    block_seconds.push_back(NowSeconds() - block_start);
    block_jobs.push_back(jobs);
    block_traced.push_back(traced);
    // Each plan is measured right after its block, outside the block's
    // time, so the measures spread over the window as the plans do.
    double measure_ms = 0.0;
    int measured = 0;
    for (size_t i = done.size() - static_cast<size_t>(jobs); i < done.size();
         ++i) {
      Completed& c = done[i];
      if (!c.plan) continue;
      measure_ms +=
          MeasureMs({&inputs->models[static_cast<size_t>(c.job.model)],
                     &c.plan->plan, &c.cluster},
                    measures_total, &c.sim);
      ++measured;
      ++measures_total;
    }
    measure_ms_total += measure_ms;
    if (measured > 0) block_measure_ms.push_back(measure_ms / measured);
  }
  result.Set("peak_rss_mb", PeakRssMb(), "MB");
  result.mix_digest = Hex(mix);

  // Throughput over the window's blocks; per round (consecutive blocks
  // grouped into kRounds rounds) for the run record's quartiles.
  std::vector<double> rates;
  const int blocks = static_cast<int>(block_seconds.size());
  result.rounds = std::min(kRounds, blocks);
  for (int r = 0; r < result.rounds; ++r) {
    double jobs = 0.0, seconds = 0.0;
    for (int b = r * blocks / result.rounds;
         b < (r + 1) * blocks / result.rounds; ++b) {
      jobs += block_jobs[static_cast<size_t>(b)];
      seconds += block_seconds[static_cast<size_t>(b)];
    }
    rates.push_back(Ratio(jobs, seconds));
  }

  // Output checks, outside the timed window: every plan validates and
  // simulates without running out of memory.
  std::vector<double> walls_ms, sps;
  std::vector<PlanCall> traced_calls;
  double configs = 0.0, states = 0.0, misses = 0.0;
  for (size_t i = 0; i < done.size(); ++i) {
    const Completed& c = done[i];
    ++result.attempted;
    walls_ms.push_back(1e3 * c.wall);
    if (!c.plan) {
      result.Fail(StrFormat("job %zu: %s", i, c.error.c_str()));
      continue;
    }
    const ModelSpec& model = inputs->models[static_cast<size_t>(c.job.model)];
    const TrainedPlan& trained = *c.plan;
    const galvatron::SearchStats& stats = trained.search_stats;
    configs += stats.configs_explored;
    states += static_cast<double>(stats.dp_states_explored);
    misses += static_cast<double>(stats.cost_cache_misses);
    if (c.traced) traced_calls.push_back({stats, c.wall, c.cpu});
    result.plan_digests.push_back(
        Hex(Fnv1a(galvatron::PlanToJson(trained.plan))));
    const galvatron::Status valid =
        trained.plan.Validate(model, c.cluster.num_devices());
    if (!valid.ok()) {
      result.Fail(StrFormat("job %zu: invalid plan: %s", i,
                            valid.ToString().c_str()));
      continue;
    }
    const galvatron::Result<galvatron::SimMetrics>& metrics = c.sim;
    if (!metrics.ok() || metrics->oom ||
        !(metrics->throughput_samples_per_sec > 0.0)) {
      result.Fail(StrFormat(
          "job %zu: simulation %s", i,
          metrics.ok() ? "out of memory" : metrics.status().ToString().c_str()));
      continue;
    }
    sps.push_back(metrics->throughput_samples_per_sec);
  }
  result.counters["search.configs_explored"] = configs;
  result.counters["search.dp_states"] = states;
  result.counters["estimator.calls"] = misses;

  // Every job is one plan and one request, so the plan_* and req_* views
  // coincide here.
  const double p50 = Percentile(walls_ms, 50.0);
  const double p99 = Percentile(walls_ms, 99.0);
  double all_jobs = 0.0, all_seconds = 0.0;
  for (size_t b = 0; b < block_seconds.size(); ++b) {
    all_jobs += block_jobs[b];
    all_seconds += block_seconds[b];
  }
  result.Set("plans_per_s", Ratio(all_jobs, all_seconds), "1/s", rates);
  result.Set("req_per_s", Ratio(all_jobs, all_seconds), "1/s", rates);
  result.Set("plan_ms_p50", p50, "ms");
  result.Set("plan_ms_p90", Percentile(walls_ms, 90.0), "ms");
  result.Set("req_ms_p50", p50, "ms");
  result.Set("req_ms_p99", p99, "ms");
  result.Set("plan_req_ms_p99", p99, "ms");
  result.Set("plan_sim_sps_geomean", GeoMean(sps), "1/s");
  // No /v1/measure requests here: the mean Measure (with "explain") of the
  // run's plans. A median would flip between the plan sizes of the mix.
  result.Set("measure_req_ms_p50",
             Ratio(measure_ms_total, static_cast<double>(measures_total)), "ms",
             block_measure_ms);

  if (config.trace) {
    std::vector<double> plain, traced;
    for (size_t b = 0; b < block_seconds.size(); ++b) {
      (block_traced[b] ? traced : plain)
          .push_back(Ratio(block_jobs[b], block_seconds[b]));
    }
    result.Set("tracing_overhead_ratio", Ratio(Median(plain), Median(traced)),
               "ratio");
    SetSearchMetrics(traced_calls, &result);
    // Probe inputs: the first block's plans, the whole class mix.
    std::vector<ReferencePlan> refs;
    for (const Completed& c : done) {
      if (refs.size() == kBlockJobs) break;
      if (!c.plan) continue;
      refs.push_back({&inputs->models[static_cast<size_t>(c.job.model)],
                      &c.cluster, c.options, c.plan->plan,
                      PlanBody(*inputs, c.job, c.cluster, c.options)});
    }
    RunLayerProbes(refs, /*fit_calibration=*/true, &result);
    RunServeProbe(refs, &result);
  }
  return result;
}

}  // namespace perfbench
