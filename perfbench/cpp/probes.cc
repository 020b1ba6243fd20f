/// Per-layer probes: the benchmark's own calls into each layer's public
/// entry points on the plans a workload delivered, outside any timed
/// window, each under a span.

#include <algorithm>
#include <unordered_set>

#include "api/plan_io.h"
#include "bench.h"
#include "calibrate/fit.h"
#include "parallel/decision_tree.h"
#include "search/dp_search.h"
#include "trace/analyzer.h"
#include "trace/export.h"
#include "trace/trace.h"
#include "util/json.h"

namespace perfbench {

using galvatron::CostEstimator;
using galvatron::DpSearch;
using galvatron::DpSearchOptions;
using galvatron::Galvatron;
using galvatron::ModelSpec;
using galvatron::OptimizerOptions;
using galvatron::SearchStats;
using galvatron::SimOptions;
using galvatron::Simulator;
using galvatron::StagePlan;
using galvatron::TrainingPlan;

void SetSearchMetrics(const std::vector<PlanCall>& calls, RunResult* result) {
  double configs = 0.0, states = 0.0, misses = 0.0, allocations = 0.0;
  double frontier_hits = 0.0, frontier_lookups = 0.0;
  double cost_hits = 0.0, cost_lookups = 0.0;
  double sweep = 0.0, wall = 0.0, cpu = 0.0, capacity = 0.0;
  std::vector<double> enumerate_ms;
  for (const PlanCall& call : calls) {
    const SearchStats& s = call.stats;
    configs += s.configs_explored;
    states += static_cast<double>(s.dp_states_explored);
    misses += static_cast<double>(s.cost_cache_misses);
    allocations += static_cast<double>(s.sweep_allocations);
    frontier_hits += static_cast<double>(s.dp_frontier_hits);
    frontier_lookups +=
        static_cast<double>(s.dp_frontier_hits + s.dp_frontier_misses);
    cost_hits += static_cast<double>(s.cost_cache_hits);
    cost_lookups += static_cast<double>(s.cost_cache_hits + s.cost_cache_misses);
    sweep += s.sweep_seconds;
    wall += call.wall_seconds;
    cpu += call.cpu_seconds;
    capacity += call.wall_seconds * s.search_threads_used;
    enumerate_ms.push_back(1e3 * s.enumerate_seconds);
  }
  const double plans = std::max<double>(1.0, static_cast<double>(calls.size()));
  result->Set("search.configs_explored", configs / plans, "count");
  result->Set("search.dp_states", states / plans, "count");
  result->Set("search.dp_frontier_hit_ratio",
              Ratio(frontier_hits, frontier_lookups), "ratio");
  result->Set("search.cost_cache_hit_ratio", Ratio(cost_hits, cost_lookups),
              "ratio");
  result->Set("search.enumerate_ms", Median(enumerate_ms), "ms");
  result->Set("search.sweep_ms_share", Ratio(sweep, wall), "ratio");
  result->Set("search.sweep_allocations", allocations / plans, "count");
  result->Set("search.cpu_busy_ratio", Ratio(cpu, capacity), "ratio");
  result->Set("estimator.calls", misses / plans, "count");
}

std::vector<PlanCall> ProbePlanCalls(const std::vector<ReferencePlan>& plans,
                                     RunResult* result) {
  std::vector<PlanCall> calls;
  for (const ReferencePlan& ref : plans) {
    OptimizerOptions options = ref.options;
    options.search_threads = ClientThreads();
    ++result->attempted;
    const double cpu_start = ProcessCpuSeconds();
    Span span("api.Galvatron::Plan", true);
    auto plan = Galvatron::Plan(*ref.model, *ref.cluster, options);
    const double wall = span.Finish();
    if (!plan.ok()) {
      result->Fail("probe Plan: " + plan.status().ToString());
      continue;
    }
    calls.push_back({plan->search_stats, wall, ProcessCpuSeconds() - cpu_start});
  }
  return calls;
}

void RunLayerProbes(const std::vector<ReferencePlan>& plans,
                    bool fit_calibration, RunResult* result) {
  std::vector<double> dp_run_us, layer_us, plan_us, enumerate_us, candidates;
  std::vector<double> cluster_parse_us, to_json_us, sim_ms, sim_tasks;
  std::vector<double> record_ms, attribution_kb, fit_ms, fit_samples;
  double parse_seconds = 0.0, parse_kb = 0.0;
  int fits = 0, applied = 0;
  std::unordered_set<uint64_t> parsed_clusters;
  for (const ReferencePlan& ref : plans) {
    ++result->attempted;
    Span probe("probe.plan", true);
    const int64_t root = probe.id();
    const ModelSpec& model = *ref.model;
    const galvatron::ClusterSpec& cluster = *ref.cluster;
    const TrainingPlan& plan = ref.plan;

    Span parse("util.ParseJson", true, root, root);
    const bool body_ok = galvatron::ParseJson(ref.request_body).ok();
    parse_seconds += parse.Finish();
    parse_kb += static_cast<double>(ref.request_body.size()) / 1024.0;

    const std::string cluster_json = galvatron::ClusterSpecToJson(cluster);
    bool cluster_ok = true;
    if (parsed_clusters.insert(Fnv1a(cluster_json)).second) {
      Span span("cluster.ParseClusterSpecJson", true, root, root);
      cluster_ok = galvatron::ParseClusterSpecJson(cluster_json).ok();
      cluster_parse_us.push_back(1e6 * span.Finish());
    }

    Span to_json("api.PlanToJson", true, root, root);
    const std::string plan_json = galvatron::PlanToJson(plan);
    to_json_us.push_back(1e6 * to_json.Finish());

    CostEstimator estimator(&cluster, ref.options.estimator);
    Span estimate("estimator.EstimatePlan", true, root, root);
    const bool plan_ok = estimator.EstimatePlan(model, plan).ok();
    plan_us.push_back(1e6 * estimate.Finish());

    DpSearchOptions dp_options;
    dp_options.memory_granularity = ref.options.memory_granularity;
    dp_options.allow_recompute = ref.options.allow_recompute;
    const DpSearch search(&estimator, dp_options);
    for (int s = 0; s < plan.pp_degree(); ++s) {
      const StagePlan& stage = plan.stages[static_cast<size_t>(s)];
      Span enumerate("parallel.EnumerateSingleLayerStrategies", true, root,
                     root);
      auto strategies = galvatron::EnumerateSingleLayerStrategies(
          stage.num_devices, ref.options.tree);
      enumerate_us.push_back(1e6 * enumerate.Finish());
      if (!strategies.ok()) continue;
      candidates.push_back(static_cast<double>(strategies->size()));
      for (int l = 0; l < stage.num_layers; ++l) {
        Span layer("estimator.EstimateLayer", true, root, root);
        auto cost = estimator.EstimateLayer(
            model.layer(stage.first_layer + l),
            stage.layer_strategies[static_cast<size_t>(l)], stage.first_device,
            plan.global_batch, plan.num_micro_batches, stage.RecomputeAt(l),
            plan.InFlightMicroBatches(s));
        layer_us.push_back(1e6 * layer.Finish());
      }
      // A cold run of the stage's own DP (no shared caches).
      Span dp("search.DpSearch::Run", true, root, root);
      auto stage_result = search.Run(
          model, stage.first_layer, stage.num_layers, *strategies,
          stage.first_device, plan.global_batch, plan.num_micro_batches,
          cluster.MinMemoryInRange(stage.first_device, stage.num_devices),
          plan.InFlightMicroBatches(s));
      dp_run_us.push_back(1e6 * dp.Finish());
    }

    Simulator simulator(&cluster, SimOptions{});
    Span sim("sim.Simulator::Run", true, root, root);
    auto metrics = simulator.Run(model, plan);
    sim_ms.push_back(1e3 * sim.Finish());
    if (metrics.ok()) sim_tasks.push_back(metrics->num_tasks);

    SimOptions traced_options;
    traced_options.record_trace = true;
    Simulator traced(&cluster, traced_options);
    galvatron::SimTrace sim_trace;
    const bool traced_ok = traced.Run(model, plan, &sim_trace).ok();
    Span record("trace.RecordTrace+Analyze", true, root, root);
    auto execution = galvatron::trace::RecordTrace(sim_trace);
    auto report = execution.ok()
                      ? galvatron::trace::Analyze(*execution)
                      : galvatron::Result<galvatron::trace::AttributionReport>(
                            execution.status());
    record_ms.push_back(1e3 * record.Finish());
    if (!body_ok || !cluster_ok || !plan_ok || !metrics.ok() || !traced_ok ||
        !report.ok()) {
      result->Fail("probe: a layer call failed on " + plan.model_name);
      probe.Finish();
      continue;
    }
    galvatron::trace::AttributionJsonOptions attribution_options;
    attribution_options.max_critical_path_entries = 128;  // as /v1/measure
    attribution_kb.push_back(
        static_cast<double>(galvatron::trace::ToAttributionJson(
                                *execution, *report, attribution_options)
                                .size()) /
        1024.0);

    if (fit_calibration) {
      const auto observations =
          galvatron::calibrate::ExtractObservations(*execution);
      const double overlap =
          galvatron::calibrate::EstimateOverlapSlowdown(*execution);
      Span fit("calibrate.FitCalibrationProfile", true, root, root);
      const bool fitted = galvatron::calibrate::FitCalibrationProfile(
                              observations, overlap)
                              .ok();
      fit_ms.push_back(1e3 * fit.Finish());
      fit_samples.push_back(static_cast<double>(observations.size()));
      ++fits;
      if (fitted) ++applied;
    }
    probe.Finish();
  }

  result->Set("search.dp_run_us", Median(dp_run_us), "us");
  result->Set("estimator.layer_us", Median(layer_us), "us");
  result->Set("estimator.plan_us", Median(plan_us), "us");
  result->Set("parallel.candidates", Mean(candidates), "count");
  result->Set("parallel.enumerate_us", Median(enumerate_us), "us");
  result->Set("util.json_parse_us_per_kb", Ratio(1e6 * parse_seconds, parse_kb),
              "us/KB");
  result->Set("cluster.json_parse_us", Median(cluster_parse_us), "us");
  result->Set("api.plan_to_json_us", Median(to_json_us), "us");
  result->Set("sim.run_ms", Median(sim_ms), "ms");
  result->Set("sim.tasks", Mean(sim_tasks), "count");
  result->Set("trace.record_analyze_ms", Median(record_ms), "ms");
  result->Set("trace.attribution_json_kb", Mean(attribution_kb), "KB");
  if (fit_calibration) {
    result->Set("calibrate.fit_ms", Median(fit_ms), "ms");
    result->Set("calibrate.samples", Mean(fit_samples), "count");
    result->Set("calibrate.applied_ratio", Ratio(applied, fits), "ratio");
  }
}

}  // namespace perfbench
