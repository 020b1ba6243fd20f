#include "testing/invariant_checks.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <utility>

#include "api/plan_io.h"
#include "calibrate/profile.h"
#include "estimator/cost_estimator.h"
#include "parallel/decision_tree.h"
#include "parallel/pipeline_partition.h"
#include "search/cost_cache.h"
#include "search/dp_search.h"
#include "search/frontier_cache.h"
#include "search/optimizer.h"
#include "sim/simulator.h"
#include "trace/analyzer.h"
#include "trace/trace.h"
#include "util/math_util.h"
#include "util/string_util.h"

namespace galvatron {

namespace {

std::string BuildRepro(FuzzCheck check, uint64_t seed,
                       const std::string& detail, const TrainingPlan* plan) {
  std::ostringstream os;
  os << "{\n";
  os << "  \"check\": \"" << FuzzCheckToString(check) << "\",\n";
  os << "  \"seed\": " << seed << ",\n";
  os << "  \"detail\": \"" << EscapeJson(detail) << "\",\n";
  os << "  \"plan\": " << (plan ? PlanToJson(*plan) : std::string("null"))
     << "\n";
  os << "}\n";
  return os.str();
}

CheckFailure MakeFailure(FuzzCheck check, uint64_t seed, std::string detail,
                         const TrainingPlan* plan = nullptr) {
  CheckFailure failure;
  failure.check = check;
  failure.seed = seed;
  failure.repro_json = BuildRepro(check, seed, detail, plan);
  failure.detail = std::move(detail);
  return failure;
}

/// Check (a): the generators only emit plans that Validate against their
/// model/cluster, whose strategies survive a text round-trip, and whose
/// schedule bookkeeping (in-flight micro-batches, micro-batch size) is
/// internally consistent.
std::optional<CheckFailure> CheckPlanValidity(uint64_t seed,
                                              const CheckOptions& options) {
  const FuzzCheck kCheck = FuzzCheck::kPlanValidity;
  Rng rng(seed);
  const ModelSpec model = GenerateModel(&rng, options.generator);
  const ClusterSpec cluster = GenerateCluster(&rng, options.generator);
  Result<TrainingPlan> plan_or = GeneratePlan(&rng, model, cluster);
  if (!plan_or.ok()) {
    return MakeFailure(kCheck, seed,
                       StrFormat("generator emitted an invalid plan: %s",
                                 plan_or.status().ToString().c_str()));
  }
  const TrainingPlan& plan = *plan_or;

  const Status valid = plan.Validate(model, cluster.num_devices());
  if (!valid.ok()) {
    return MakeFailure(kCheck, seed,
                       StrFormat("plan fails Validate: %s",
                                 valid.ToString().c_str()),
                       &plan);
  }
  if (plan.ToString().empty()) {
    return MakeFailure(kCheck, seed, "plan renders to an empty string",
                       &plan);
  }
  const int mb_size = plan.MicroBatchSize();
  if (mb_size < 1 || mb_size * plan.num_micro_batches < plan.global_batch) {
    return MakeFailure(
        kCheck, seed,
        StrFormat("micro-batch size %d x %d does not cover global batch %d",
                  mb_size, plan.num_micro_batches, plan.global_batch),
        &plan);
  }
  for (size_t s = 0; s < plan.stages.size(); ++s) {
    const int in_flight = plan.InFlightMicroBatches(static_cast<int>(s));
    if (in_flight < 1 || in_flight > plan.num_micro_batches) {
      return MakeFailure(
          kCheck, seed,
          StrFormat("stage %d holds %d in-flight micro-batches of %d",
                    static_cast<int>(s), in_flight, plan.num_micro_batches),
          &plan);
    }
    for (const HybridStrategy& strategy : plan.stages[s].layer_strategies) {
      Result<HybridStrategy> reparsed =
          HybridStrategy::Parse(strategy.ToString());
      if (!reparsed.ok() || !(*reparsed == strategy)) {
        return MakeFailure(
            kCheck, seed,
            StrFormat("strategy '%s' does not survive Parse(ToString())",
                      strategy.ToString().c_str()),
            &plan);
      }
    }
  }
  return std::nullopt;
}

/// Check (b): DpSearch agrees with DenseDpSearch byte for byte, and with
/// BruteForceSearch on feasibility and on the optimal stage cost, for small
/// instances. Kept exponential-safe: at most
/// 3 layers and 4 devices regardless of the configured generator sizes.
std::optional<CheckFailure> CheckSearchEquivalence(uint64_t seed,
                                                   const CheckOptions& options) {
  const FuzzCheck kCheck = FuzzCheck::kSearchEquivalence;
  Rng rng(seed);
  GeneratorOptions gen = options.generator;
  gen.max_devices = std::min(gen.max_devices, 4);
  gen.max_layers = 4;
  const ModelSpec model = GenerateModel(&rng, gen);
  const ClusterSpec cluster = GenerateCluster(&rng, gen);

  // A random stage block: power-of-two width, block-aligned first device.
  const std::vector<int> widths = PowerOfTwoDivisors(cluster.num_devices());
  const int width = widths[rng.NextBelow(widths.size())];
  const int first_device =
      width * static_cast<int>(rng.NextBelow(
                  static_cast<uint64_t>(cluster.num_devices() / width)));
  Result<std::vector<HybridStrategy>> candidates_or =
      EnumerateSingleLayerStrategies(width);
  if (!candidates_or.ok()) {
    return MakeFailure(kCheck, seed,
                       StrFormat("strategy enumeration failed: %s",
                                 candidates_or.status().ToString().c_str()));
  }

  // A random layer window of at most 3 layers (brute force is
  // options^layers).
  const int num_layers =
      1 + static_cast<int>(rng.NextBelow(
              static_cast<uint64_t>(std::min(3, model.num_layers()))));
  const int first_layer = static_cast<int>(
      rng.NextBelow(static_cast<uint64_t>(model.num_layers() - num_layers + 1)));

  const int micro_batches = 1 << rng.NextBelow(3);
  const int batch =
      micro_batches * (1 + static_cast<int>(rng.NextBelow(4)));

  DpSearchOptions search_options;
  static const int64_t kGranularities[] = {
      int64_t{1} << 20, int64_t{32} << 20, int64_t{256} << 20};
  search_options.memory_granularity = kGranularities[rng.NextBelow(3)];
  search_options.allow_recompute = rng.NextBelow(2) == 0;

  // Log-uniform budget across [64 MB, 32 GB]: small instances make that
  // range straddle the feasibility frontier, which is where the budget
  // quantization bugs of PR 1 lived.
  const double log_budget = rng.NextDouble(std::log(64.0 * (1 << 20)),
                                           std::log(32.0 * 1e9));
  const int64_t budget = static_cast<int64_t>(std::exp(log_budget));

  const CostEstimator estimator(&cluster);
  const DpSearch dp(&estimator, search_options);
  Result<DpSearchResult> dp_or =
      dp.Run(model, first_layer, num_layers, *candidates_or, first_device,
             batch, micro_batches, budget);
  Result<DpSearchResult> dense_or = DenseDpSearch(
      estimator, model, first_layer, num_layers, *candidates_or, first_device,
      batch, micro_batches, budget, search_options);
  Result<DpSearchResult> bf_or = BruteForceSearch(
      estimator, model, first_layer, num_layers, *candidates_or, first_device,
      batch, micro_batches, budget, search_options);

  const std::string instance = StrFormat(
      "layers [%d,+%d) width %d@%d batch %d/%d budget %lld gran %lld%s",
      first_layer, num_layers, width, first_device, batch, micro_batches,
      static_cast<long long>(budget),
      static_cast<long long>(search_options.memory_granularity),
      search_options.allow_recompute ? " +recompute" : "");

  // DpSearch and the dense reference claim BYTE-identical results, not
  // merely tolerance-equal ones: same feasibility verdict, bitwise-equal
  // stage_seconds, and identical per-layer strategy/recompute index chains.
  if (dp_or.ok() != dense_or.ok()) {
    return MakeFailure(
        kCheck, seed,
        StrFormat("sparse/dense feasibility diverges on %s: sparse=%s "
                  "dense=%s",
                  instance.c_str(),
                  dp_or.ok() ? "ok" : dp_or.status().ToString().c_str(),
                  dense_or.ok() ? "ok"
                                : dense_or.status().ToString().c_str()));
  }
  if (!dp_or.ok() &&
      dp_or.status().ToString() != dense_or.status().ToString()) {
    // A cold DpSearch::Run may decide infeasibility before building any
    // frontier; its verdict must still read exactly like the dense one.
    return MakeFailure(
        kCheck, seed,
        StrFormat("sparse/dense verdicts differ on %s: sparse=%s dense=%s",
                  instance.c_str(), dp_or.status().ToString().c_str(),
                  dense_or.status().ToString().c_str()));
  }
  if (dp_or.ok()) {
    const bool identical =
        dp_or->stage_seconds == dense_or->stage_seconds &&
        dp_or->resident_memory_bytes == dense_or->resident_memory_bytes &&
        dp_or->per_layer_option == dense_or->per_layer_option &&
        dp_or->per_layer_recompute == dense_or->per_layer_recompute;
    if (!identical) {
      return MakeFailure(
          kCheck, seed,
          StrFormat("sparse and dense plans differ on %s: sparse=%.17g "
                    "dense=%.17g",
                    instance.c_str(), dp_or->stage_seconds,
                    dense_or->stage_seconds));
    }
  }
  if (dp_or.ok() != bf_or.ok()) {
    return MakeFailure(
        kCheck, seed,
        StrFormat("feasibility verdicts diverge on %s: dp=%s bf=%s",
                  instance.c_str(),
                  dp_or.ok() ? "ok" : dp_or.status().ToString().c_str(),
                  bf_or.ok() ? "ok" : bf_or.status().ToString().c_str()));
  }
  if (!dp_or.ok()) {
    // Both infeasible is agreement; anything else is a harness bug.
    if (!dp_or.status().IsInfeasible() || !bf_or.status().IsInfeasible()) {
      return MakeFailure(
          kCheck, seed,
          StrFormat("unexpected search error on %s: dp=%s bf=%s",
                    instance.c_str(), dp_or.status().ToString().c_str(),
                    bf_or.status().ToString().c_str()));
    }
    return std::nullopt;
  }
  const double dp_cost = dp_or->stage_seconds;
  const double bf_cost = bf_or->stage_seconds;
  const double tolerance =
      options.cost_rel_tolerance * std::max(1.0, std::abs(bf_cost));
  if (std::abs(dp_cost - bf_cost) > tolerance) {
    return MakeFailure(
        kCheck, seed,
        StrFormat("optimal costs diverge on %s: dp=%.12g bf=%.12g",
                  instance.c_str(), dp_cost, bf_cost));
  }
  return std::nullopt;
}

/// Check (c): the estimator's per-stage peak memory tracks the simulator's
/// stage_peak_memory_bytes, and the two subsystems issue the same OOM
/// verdict whenever the peaks sit clear of the budget line.
///
/// Documented tolerance: per stage,
///   |est_peak - sim_peak| <= memory_rel_tolerance * est_peak
///                            + 2 * max_layer_transient
/// The structural term exists because the estimator reserves the ZeRO-3
/// double-buffered weight gather (2x the largest transient) for every
/// stage unconditionally, while the simulator only charges transients its
/// timeline actually holds live. OOM verdicts may legitimately differ only
/// when a stage's peak (either model's) lands inside that same tolerance
/// band around the stage budget.
std::optional<CheckFailure> CheckMemoryModel(uint64_t seed,
                                             const CheckOptions& options) {
  const FuzzCheck kCheck = FuzzCheck::kMemoryModel;
  Rng rng(seed);
  const ModelSpec model = GenerateModel(&rng, options.generator);
  const ClusterSpec cluster = GenerateCluster(&rng, options.generator);
  Result<TrainingPlan> plan_or = GeneratePlan(&rng, model, cluster);
  if (!plan_or.ok()) {
    return MakeFailure(kCheck, seed,
                       StrFormat("generator emitted an invalid plan: %s",
                                 plan_or.status().ToString().c_str()));
  }
  const TrainingPlan& plan = *plan_or;

  // Lift the budget so both models report peaks even for OOM plans; memory
  // accounting is budget-independent in both subsystems.
  const ClusterSpec big = cluster.WithMemoryBudget(int64_t{1} << 55);
  const CostEstimator estimator(&big);
  Result<PlanCost> cost_or = estimator.EstimatePlan(model, plan);
  if (!cost_or.ok()) {
    return MakeFailure(kCheck, seed,
                       StrFormat("estimator failed under a 32 PiB budget: %s",
                                 cost_or.status().ToString().c_str()),
                       &plan);
  }
  const Simulator simulator(&big);
  Result<SimMetrics> metrics_or = simulator.Run(model, plan);
  if (!metrics_or.ok()) {
    return MakeFailure(kCheck, seed,
                       StrFormat("simulator failed under a 32 PiB budget: %s",
                                 metrics_or.status().ToString().c_str()),
                       &plan);
  }
  if (metrics_or->stage_peak_memory_bytes.size() != plan.stages.size()) {
    return MakeFailure(
        kCheck, seed,
        StrFormat("simulator reported %d stage peaks for %d stages",
                  static_cast<int>(metrics_or->stage_peak_memory_bytes.size()),
                  static_cast<int>(plan.stages.size())),
        &plan);
  }

  bool est_oom = false;
  bool verdict_ambiguous = false;
  const bool is_1f1b = plan.schedule == PipelineSchedule::k1F1B;
  for (size_t s = 0; s < plan.stages.size(); ++s) {
    const StagePlan& stage = plan.stages[s];
    const int64_t est_peak = cost_or->stages[s].peak_memory_bytes;
    const int64_t sim_peak =
        metrics_or->stage_peak_memory_bytes[s];

    // The structural slack: 2x the largest layer transient in the stage.
    // For 1F1B we also price the stage at one resident micro-batch: the
    // estimator charges the schedule's in-flight *bound* (min(m, P-s)
    // micro-batches), but the simulator measures actual holdings, and a
    // stage whose downstream returns backwards quickly may never stack a
    // second micro-batch. The simulated peak must then land in
    // [one-micro-batch floor, in-flight bound]; under GPipe every
    // micro-batch is provably held, so the check stays exactly two-sided.
    int64_t max_transient = 0;
    int64_t floor_resident = 0;
    for (int l = 0; l < stage.num_layers; ++l) {
      Result<LayerCost> layer_or = estimator.EstimateLayer(
          model.layer(stage.first_layer + l),
          stage.layer_strategies[static_cast<size_t>(l)], stage.first_device,
          plan.global_batch, plan.num_micro_batches, stage.RecomputeAt(l),
          plan.InFlightMicroBatches(static_cast<int>(s)));
      if (!layer_or.ok()) {
        return MakeFailure(kCheck, seed,
                           StrFormat("per-layer estimate failed: %s",
                                     layer_or.status().ToString().c_str()),
                           &plan);
      }
      max_transient =
          std::max(max_transient, layer_or->transient_memory_bytes);
      if (is_1f1b) {
        Result<LayerCost> floor_or = estimator.EstimateLayer(
            model.layer(stage.first_layer + l),
            stage.layer_strategies[static_cast<size_t>(l)],
            stage.first_device, plan.global_batch, plan.num_micro_batches,
            stage.RecomputeAt(l), /*in_flight_micro_batches=*/1);
        if (!floor_or.ok()) {
          return MakeFailure(kCheck, seed,
                             StrFormat("per-layer floor estimate failed: %s",
                                       floor_or.status().ToString().c_str()),
                             &plan);
        }
        floor_resident += floor_or->resident_memory_bytes;
      }
    }
    const int64_t tolerance =
        static_cast<int64_t>(options.memory_rel_tolerance *
                             static_cast<double>(est_peak)) +
        2 * max_transient;
    const bool in_1f1b_band = is_1f1b &&
                              sim_peak >= floor_resident - tolerance &&
                              sim_peak <= est_peak + tolerance;
    if (std::llabs(est_peak - sim_peak) > tolerance && !in_1f1b_band) {
      return MakeFailure(
          kCheck, seed,
          StrFormat("stage %d peak diverges: estimator %lld vs simulator "
                    "%lld (tolerance %lld%s)",
                    static_cast<int>(s), static_cast<long long>(est_peak),
                    static_cast<long long>(sim_peak),
                    static_cast<long long>(tolerance),
                    is_1f1b ? ", outside the 1F1B in-flight band" : ""),
          &plan);
    }

    const int64_t budget =
        cluster.MinMemoryInRange(stage.first_device, stage.num_devices);
    if (est_peak > budget) est_oom = true;
    if (std::llabs(est_peak - budget) <= tolerance ||
        std::llabs(sim_peak - budget) <= tolerance ||
        // A budget between the simulator's actual 1F1B peak and the
        // estimator's in-flight bound legitimately splits the verdicts.
        (is_1f1b && budget >= std::min(sim_peak, est_peak) - tolerance &&
         budget <= std::max(sim_peak, est_peak) + tolerance)) {
      verdict_ambiguous = true;
    }
  }

  // Public-API OOM verdicts on the real cluster. The estimator's status
  // must agree exactly with its own peaks (same numbers, same budgets);
  // estimator vs simulator must agree whenever no stage peak lands in the
  // tolerance band around its budget.
  const CostEstimator real_estimator(&cluster);
  Result<PlanCost> real_cost = real_estimator.EstimatePlan(model, plan);
  if (!real_cost.ok() && !real_cost.status().IsOutOfMemory()) {
    return MakeFailure(kCheck, seed,
                       StrFormat("estimator errored on the real cluster: %s",
                                 real_cost.status().ToString().c_str()),
                       &plan);
  }
  const bool est_api_oom = !real_cost.ok();
  if (est_api_oom != est_oom) {
    return MakeFailure(
        kCheck, seed,
        StrFormat("estimator OOM status (%s) contradicts its own stage "
                  "peaks (%s)",
                  est_api_oom ? "oom" : "fits", est_oom ? "oom" : "fits"),
        &plan);
  }
  const Simulator real_simulator(&cluster);
  Result<SimMetrics> real_metrics = real_simulator.Run(model, plan);
  if (!real_metrics.ok()) {
    return MakeFailure(kCheck, seed,
                       StrFormat("simulator errored on the real cluster: %s",
                                 real_metrics.status().ToString().c_str()),
                       &plan);
  }
  if (real_metrics->oom != est_api_oom && !verdict_ambiguous) {
    return MakeFailure(
        kCheck, seed,
        StrFormat("OOM verdicts diverge outside the tolerance band: "
                  "estimator says %s, simulator says %s",
                  est_api_oom ? "oom" : "fits",
                  real_metrics->oom ? "oom" : "fits"),
        &plan);
  }
  return std::nullopt;
}

/// Check (d): PlanToJson -> ParsePlanJson -> PlanToJson is bit-exact, and
/// the parsed plan is field-identical to the original — with generated
/// (often hostile) model names.
std::optional<CheckFailure> CheckJsonRoundTrip(uint64_t seed,
                                               const CheckOptions& options) {
  const FuzzCheck kCheck = FuzzCheck::kJsonRoundTrip;
  Rng rng(seed);
  const ModelSpec model = GenerateModel(&rng, options.generator);
  const ClusterSpec cluster = GenerateCluster(&rng, options.generator);
  Result<TrainingPlan> plan_or = GeneratePlan(&rng, model, cluster);
  if (!plan_or.ok()) {
    return MakeFailure(kCheck, seed,
                       StrFormat("generator emitted an invalid plan: %s",
                                 plan_or.status().ToString().c_str()));
  }
  const TrainingPlan& plan = *plan_or;

  const std::string json = PlanToJson(plan);
  Result<TrainingPlan> parsed_or = ParsePlanJson(json);
  if (!parsed_or.ok()) {
    return MakeFailure(kCheck, seed,
                       StrFormat("serialized plan does not re-parse: %s",
                                 parsed_or.status().ToString().c_str()),
                       &plan);
  }
  const TrainingPlan& parsed = *parsed_or;

  auto mismatch = [&](const std::string& what) {
    return MakeFailure(kCheck, seed,
                       StrFormat("round-trip changed %s", what.c_str()),
                       &plan);
  };
  if (parsed.model_name != plan.model_name) return mismatch("model_name");
  if (parsed.global_batch != plan.global_batch) return mismatch("global_batch");
  if (parsed.num_micro_batches != plan.num_micro_batches) {
    return mismatch("num_micro_batches");
  }
  if (parsed.schedule != plan.schedule) return mismatch("schedule");
  if (parsed.stages.size() != plan.stages.size()) return mismatch("stages");
  for (size_t s = 0; s < plan.stages.size(); ++s) {
    const StagePlan& a = plan.stages[s];
    const StagePlan& b = parsed.stages[s];
    const std::string where = StrFormat("stage %d", static_cast<int>(s));
    if (a.first_device != b.first_device || a.num_devices != b.num_devices ||
        a.first_layer != b.first_layer || a.num_layers != b.num_layers) {
      return mismatch(where + " geometry");
    }
    if (a.layer_strategies != b.layer_strategies) {
      return mismatch(where + " strategies");
    }
    for (int l = 0; l < a.num_layers; ++l) {
      // Recompute compares semantically: an absent vector means all-off.
      if (a.RecomputeAt(l) != b.RecomputeAt(l)) {
        return mismatch(where + " recompute flags");
      }
    }
  }

  const std::string json2 = PlanToJson(parsed);
  if (json2 != json) {
    return MakeFailure(kCheck, seed,
                       "PlanToJson(ParsePlanJson(json)) is not bit-exact",
                       &plan);
  }
  return std::nullopt;
}

/// Check (e): the spec serializers behind the serving wire format are an
/// exact bijection on generator output — hostile names included. Model and
/// cluster specs must re-parse field-identically (the LayerSpec constructor
/// re-derives every aggregate, so derived quantities are compared too) and
/// re-serialize bit-exactly.
std::optional<CheckFailure> CheckSpecJsonRoundTrip(uint64_t seed,
                                                   const CheckOptions& options) {
  const FuzzCheck kCheck = FuzzCheck::kSpecJsonRoundTrip;
  Rng rng(seed);
  const ModelSpec model = GenerateModel(&rng, options.generator);
  const ClusterSpec cluster = GenerateCluster(&rng, options.generator);

  const std::string model_json = ModelSpecToJson(model);
  Result<ModelSpec> model_or = ParseModelSpecJson(model_json);
  if (!model_or.ok()) {
    return MakeFailure(kCheck, seed,
                       StrFormat("serialized model does not re-parse: %s",
                                 model_or.status().ToString().c_str()));
  }
  const ModelSpec& parsed_model = *model_or;
  if (parsed_model.name() != model.name()) {
    return MakeFailure(kCheck, seed, "model round-trip changed the name");
  }
  if (parsed_model.num_layers() != model.num_layers()) {
    return MakeFailure(kCheck, seed,
                       "model round-trip changed the layer count");
  }
  if (parsed_model.TotalParams() != model.TotalParams()) {
    return MakeFailure(
        kCheck, seed,
        StrFormat("model round-trip changed TotalParams: %lld vs %lld",
                  static_cast<long long>(model.TotalParams()),
                  static_cast<long long>(parsed_model.TotalParams())));
  }
  for (int l = 0; l < model.num_layers(); ++l) {
    const LayerSpec& a = model.layer(l);
    const LayerSpec& b = parsed_model.layer(l);
    if (a.name() != b.name() || a.kind() != b.kind() ||
        a.input_bytes() != b.input_bytes() ||
        a.output_bytes() != b.output_bytes() ||
        a.ops().size() != b.ops().size()) {
      return MakeFailure(
          kCheck, seed,
          StrFormat("model round-trip changed layer %d primaries", l));
    }
    for (size_t o = 0; o < a.ops().size(); ++o) {
      const OpSpec& x = a.ops()[o];
      const OpSpec& y = b.ops()[o];
      if (x.name != y.name || x.kind != y.kind ||
          x.tp_pattern != y.tp_pattern || x.param_count != y.param_count ||
          x.fwd_flops != y.fwd_flops ||
          x.saved_activation_bytes != y.saved_activation_bytes ||
          x.output_bytes != y.output_bytes ||
          x.input_bytes != y.input_bytes ||
          x.tp_shards_saved_activation != y.tp_shards_saved_activation) {
        return MakeFailure(
            kCheck, seed,
            StrFormat("model round-trip changed layer %d op %d", l,
                      static_cast<int>(o)));
      }
    }
  }
  if (ModelSpecToJson(parsed_model) != model_json) {
    return MakeFailure(
        kCheck, seed,
        "ModelSpecToJson(ParseModelSpecJson(json)) is not bit-exact");
  }

  const std::string cluster_json = ClusterSpecToJson(cluster);
  Result<ClusterSpec> cluster_or = ParseClusterSpecJson(cluster_json);
  if (!cluster_or.ok()) {
    return MakeFailure(kCheck, seed,
                       StrFormat("serialized cluster does not re-parse: %s",
                                 cluster_or.status().ToString().c_str()));
  }
  const ClusterSpec& parsed_cluster = *cluster_or;
  if (parsed_cluster.name() != cluster.name() ||
      parsed_cluster.num_devices() != cluster.num_devices() ||
      parsed_cluster.kernel_launch_overhead_sec() !=
          cluster.kernel_launch_overhead_sec() ||
      parsed_cluster.small_batch_half_life() !=
          cluster.small_batch_half_life() ||
      parsed_cluster.pipeline_rpc_overhead_sec() !=
          cluster.pipeline_rpc_overhead_sec()) {
    return MakeFailure(kCheck, seed,
                       "cluster round-trip changed a scalar field");
  }
  for (int d = 0; d < cluster.num_devices(); ++d) {
    if (parsed_cluster.device(d).memory_bytes !=
        cluster.device(d).memory_bytes) {
      return MakeFailure(
          kCheck, seed,
          StrFormat("cluster round-trip changed device %d's budget "
                    "(heterogeneous-memory path)",
                    d));
    }
    if (parsed_cluster.device(d).sustained_flops !=
            cluster.device(d).sustained_flops ||
        parsed_cluster.device(d).small_batch_half_life !=
            cluster.device(d).small_batch_half_life) {
      return MakeFailure(
          kCheck, seed,
          StrFormat("cluster round-trip changed device %d's generation "
                    "(mixed-generation path)",
                    d));
    }
  }
  const bool had_graph = cluster.topology() != nullptr;
  const bool got_graph = parsed_cluster.topology() != nullptr;
  if (had_graph != got_graph ||
      (had_graph && !(*parsed_cluster.topology() == *cluster.topology()))) {
    return MakeFailure(kCheck, seed,
                       "cluster round-trip changed the attached topology");
  }
  if (parsed_cluster.levels().size() != cluster.levels().size()) {
    return MakeFailure(kCheck, seed,
                       "cluster round-trip changed the level count");
  }
  for (size_t i = 0; i < cluster.levels().size(); ++i) {
    const TopologyLevel& a = cluster.levels()[i];
    const TopologyLevel& b = parsed_cluster.levels()[i];
    if (a.span != b.span || a.link.cls != b.link.cls ||
        a.link.bandwidth_bytes_per_sec != b.link.bandwidth_bytes_per_sec ||
        a.link.latency_sec != b.link.latency_sec) {
      return MakeFailure(
          kCheck, seed,
          StrFormat("cluster round-trip changed level %d",
                    static_cast<int>(i)));
    }
  }
  if (ClusterSpecToJson(parsed_cluster) != cluster_json) {
    return MakeFailure(
        kCheck, seed,
        "ClusterSpecToJson(ParseClusterSpecJson(json)) is not bit-exact");
  }
  return std::nullopt;
}

/// Check (f): the trace subsystem's time attribution conserves. A traced
/// simulation of a generated plan must satisfy, within 1e-9 x makespan:
/// per stream Σ(elapsed) + idle == makespan; per task work + lost ==
/// elapsed; the engine's integrated busy seconds reconcile with the summed
/// trace events; and the back-chained critical path tiles [0, makespan]
/// exactly. Recording the trace must also leave SimMetrics byte-identical
/// to the untraced run (the capture is pure observation).
std::optional<CheckFailure> CheckTraceConservation(uint64_t seed,
                                                   const CheckOptions& options) {
  const FuzzCheck kCheck = FuzzCheck::kTraceConservation;
  Rng rng(seed);
  const ModelSpec model = GenerateModel(&rng, options.generator);
  const ClusterSpec cluster = GenerateCluster(&rng, options.generator);
  Result<TrainingPlan> plan_or = GeneratePlan(&rng, model, cluster);
  if (!plan_or.ok()) {
    return MakeFailure(kCheck, seed,
                       StrFormat("generator emitted an invalid plan: %s",
                                 plan_or.status().ToString().c_str()));
  }
  const TrainingPlan& plan = *plan_or;

  SimOptions traced_options;
  traced_options.record_trace = true;
  const Simulator traced_sim(&cluster, traced_options);
  SimTrace sim_trace;
  Result<SimMetrics> traced_or = traced_sim.Run(model, plan, &sim_trace);
  if (!traced_or.ok()) {
    return MakeFailure(kCheck, seed,
                       StrFormat("traced simulation failed: %s",
                                 traced_or.status().ToString().c_str()),
                       &plan);
  }
  Result<trace::ExecutionTrace> exec_or = trace::RecordTrace(sim_trace);
  if (!exec_or.ok()) {
    return MakeFailure(kCheck, seed,
                       StrFormat("RecordTrace rejected the capture: %s",
                                 exec_or.status().ToString().c_str()),
                       &plan);
  }
  Result<trace::AttributionReport> report_or = trace::Analyze(*exec_or);
  if (!report_or.ok()) {
    return MakeFailure(kCheck, seed,
                       StrFormat("Analyze failed: %s",
                                 report_or.status().ToString().c_str()),
                       &plan);
  }
  const trace::AttributionReport& report = *report_or;
  const double tolerance = 1e-9 * std::max(exec_or->makespan_sec, 1e-12);
  if (report.max_stream_conservation_error_sec > tolerance) {
    return MakeFailure(
        kCheck, seed,
        StrFormat("stream conservation violated: residual %.17g over "
                  "makespan %.17g",
                  report.max_stream_conservation_error_sec,
                  exec_or->makespan_sec),
        &plan);
  }
  if (report.max_task_decomposition_error_sec > tolerance) {
    return MakeFailure(
        kCheck, seed,
        StrFormat("work + lost != elapsed: residual %.17g over makespan "
                  "%.17g",
                  report.max_task_decomposition_error_sec,
                  exec_or->makespan_sec),
        &plan);
  }
  if (report.max_busy_reconciliation_error_sec > tolerance) {
    return MakeFailure(
        kCheck, seed,
        StrFormat("engine busy seconds disagree with summed trace events: "
                  "residual %.17g over makespan %.17g",
                  report.max_busy_reconciliation_error_sec,
                  exec_or->makespan_sec),
        &plan);
  }
  if (std::abs(report.critical_path_sec - exec_or->makespan_sec) >
      tolerance) {
    return MakeFailure(
        kCheck, seed,
        StrFormat("critical path %.17g does not tile the makespan %.17g",
                  report.critical_path_sec, exec_or->makespan_sec),
        &plan);
  }

  // Pure observation: the untraced run must yield byte-identical metrics.
  const Simulator plain_sim(&cluster);
  Result<SimMetrics> plain_or = plain_sim.Run(model, plan);
  if (!plain_or.ok()) {
    return MakeFailure(kCheck, seed,
                       StrFormat("untraced simulation failed: %s",
                                 plain_or.status().ToString().c_str()),
                       &plan);
  }
  const SimMetrics& a = *traced_or;
  const SimMetrics& b = *plain_or;
  const bool identical =
      a.iteration_seconds == b.iteration_seconds &&
      a.throughput_samples_per_sec == b.throughput_samples_per_sec &&
      a.oom == b.oom &&
      a.stage_peak_memory_bytes == b.stage_peak_memory_bytes &&
      a.max_peak_memory_bytes == b.max_peak_memory_bytes &&
      a.num_tasks == b.num_tasks && a.num_comm_groups == b.num_comm_groups &&
      a.compute_busy_sec == b.compute_busy_sec &&
      a.comm_busy_sec == b.comm_busy_sec &&
      a.stage_compute_busy_sec == b.stage_compute_busy_sec &&
      a.stage_comm_busy_sec == b.stage_comm_busy_sec;
  if (!identical) {
    return MakeFailure(
        kCheck, seed,
        StrFormat("recording the trace perturbed SimMetrics: traced "
                  "iteration %.17g vs untraced %.17g",
                  a.iteration_seconds, b.iteration_seconds),
        &plan);
  }
  return std::nullopt;
}

/// Check (g): the heterogeneous machinery is a strict generalization — on
/// homogeneous inputs it must collapse, bit for bit, to the legacy answers.
/// Four identities:
///   1. On a level-priced cluster, CollectiveLink(first, stride, degree,
///      width) == GroupBottleneckLink(first, first + (degree-1)*stride) for
///      every power-of-two group shape that fits.
///   2. MinSustainedFlopsInRange / SmallBatchHalfLifeInRange match a direct
///      device-table scan on arbitrary ranges, and the whole-cluster
///      sustained_flops() accessor agrees on uniform clusters.
///   3. The mirror TopologyGraph prices every pair and every contiguous
///      group exactly like the levels — whenever the level links are
///      outward-monotone (bandwidth non-increasing, latency non-decreasing;
///      non-monotone hierarchies are exactly where graph pricing is
///      *supposed* to diverge, toward the physically-true bottleneck).
///   4. When additionally no collective shape inside any stage sees uplink
///      contention, a whole-plan estimate on the mirror-backed cluster is
///      byte-identical to the legacy estimate.
std::optional<CheckFailure> CheckTopologyIdentity(uint64_t seed,
                                                  const CheckOptions& options) {
  const FuzzCheck kCheck = FuzzCheck::kTopologyIdentity;
  Rng rng(seed);
  GeneratorOptions gen = options.generator;
  gen.topology_graphs = false;  // this check attaches the mirror itself
  const ModelSpec model = GenerateModel(&rng, gen);
  const ClusterSpec cluster = GenerateCluster(&rng, gen);
  const int n = cluster.num_devices();

  // (1) Collective pricing on level clusters reduces to the old two-endpoint
  // bottleneck.
  for (int stride = 1; stride < n; stride *= 2) {
    for (int degree = 2; stride * degree <= n; degree *= 2) {
      for (int width = stride * degree; width <= n; width *= 2) {
        for (int first = 0; first + width <= n; first += width) {
          const LinkSpec got =
              cluster.CollectiveLink(first, stride, degree, width);
          const LinkSpec want = cluster.GroupBottleneckLink(
              first, first + (degree - 1) * stride);
          if (got != want) {
            return MakeFailure(
                kCheck, seed,
                StrFormat("CollectiveLink(%d, stride %d, degree %d, width "
                          "%d) diverges from the legacy group bottleneck: "
                          "%.17g B/s vs %.17g B/s",
                          first, stride, degree, width,
                          got.bandwidth_bytes_per_sec,
                          want.bandwidth_bytes_per_sec));
          }
        }
      }
    }
  }

  // (2) Range queries against a direct device-table scan.
  for (int trial = 0; trial < 8; ++trial) {
    const int count =
        1 + static_cast<int>(rng.NextBelow(static_cast<uint64_t>(n)));
    const int first = static_cast<int>(
        rng.NextBelow(static_cast<uint64_t>(n - count + 1)));
    double scan_flops = cluster.device(first).sustained_flops;
    double scan_half = 0.0;
    for (int d = first; d < first + count; ++d) {
      scan_flops = std::min(scan_flops, cluster.device(d).sustained_flops);
      const double half = cluster.device(d).small_batch_half_life == 0.0
                              ? cluster.small_batch_half_life()
                              : cluster.device(d).small_batch_half_life;
      scan_half = std::max(scan_half, half);
    }
    if (cluster.MinSustainedFlopsInRange(first, count) != scan_flops) {
      return MakeFailure(
          kCheck, seed,
          StrFormat("MinSustainedFlopsInRange(%d, %d) = %.17g but the "
                    "device table says %.17g",
                    first, count,
                    cluster.MinSustainedFlopsInRange(first, count),
                    scan_flops));
    }
    if (cluster.SmallBatchHalfLifeInRange(first, count) != scan_half) {
      return MakeFailure(
          kCheck, seed,
          StrFormat("SmallBatchHalfLifeInRange(%d, %d) = %.17g but the "
                    "device table says %.17g",
                    first, count,
                    cluster.SmallBatchHalfLifeInRange(first, count),
                    scan_half));
    }
  }
  if (cluster.HasUniformCompute() &&
      cluster.sustained_flops() != cluster.device(0).sustained_flops) {
    return MakeFailure(kCheck, seed,
                       "sustained_flops() diverges from device 0 on a "
                       "uniform cluster");
  }

  // (3) Mirror-graph pricing vs level pricing, gated on outward-monotone
  // levels (equal adjacent links also qualify).
  Result<TopologyGraph> mirror_or = MakeMirrorTopology(cluster);
  if (!mirror_or.ok()) {
    return MakeFailure(kCheck, seed,
                       StrFormat("MakeMirrorTopology failed: %s",
                                 mirror_or.status().ToString().c_str()));
  }
  auto graph = std::make_shared<const TopologyGraph>(*std::move(mirror_or));
  Result<ClusterSpec> mirrored_or = cluster.WithTopology(graph);
  if (!mirrored_or.ok()) {
    return MakeFailure(kCheck, seed,
                       StrFormat("WithTopology rejected the mirror: %s",
                                 mirrored_or.status().ToString().c_str()));
  }
  const ClusterSpec& mirrored = *mirrored_or;
  bool monotone = true;
  for (size_t i = 1; i < cluster.levels().size(); ++i) {
    const LinkSpec& inner = cluster.levels()[i - 1].link;
    const LinkSpec& outer = cluster.levels()[i].link;
    const bool ordered =
        outer.bandwidth_bytes_per_sec < inner.bandwidth_bytes_per_sec &&
        outer.latency_sec >= inner.latency_sec;
    if (!ordered && !(outer == inner)) monotone = false;
  }
  if (monotone) {
    for (int a = 0; a < n; ++a) {
      for (int b = a + 1; b < n; ++b) {
        if (mirrored.LinkBetween(a, b) != cluster.LinkBetween(a, b)) {
          return MakeFailure(
              kCheck, seed,
              StrFormat("mirror graph prices pair (%d, %d) differently on "
                        "a monotone hierarchy",
                        a, b));
        }
        if (mirrored.GroupBottleneckLink(a, b) !=
            cluster.GroupBottleneckLink(a, b)) {
          return MakeFailure(
              kCheck, seed,
              StrFormat("mirror graph prices group [%d, %d] differently on "
                        "a monotone hierarchy",
                        a, b));
        }
      }
    }
  }

  // (4) Whole-plan estimate identity when no collective shape can see
  // contention (checked over every power-of-two shape each stage admits).
  Result<TrainingPlan> plan_or = GeneratePlan(&rng, model, cluster);
  if (!plan_or.ok()) {
    return MakeFailure(kCheck, seed,
                       StrFormat("generator emitted an invalid plan: %s",
                                 plan_or.status().ToString().c_str()));
  }
  const TrainingPlan& plan = *plan_or;
  bool contention_free = monotone;
  for (const StagePlan& stage : plan.stages) {
    for (int stride = 1; contention_free && stride <= stage.num_devices;
         stride *= 2) {
      for (int degree = 2; stride * degree <= stage.num_devices;
           degree *= 2) {
        if (graph->CollectiveContention(stage.first_device, stride, degree,
                                        stage.num_devices) != 1) {
          contention_free = false;
          break;
        }
      }
    }
  }
  if (contention_free) {
    // A 32 PiB budget keeps both sides clear of OOM verdicts; the memory
    // model is identical by construction either way.
    const ClusterSpec big = cluster.WithMemoryBudget(int64_t{1} << 55);
    Result<ClusterSpec> big_mirrored_or = big.WithTopology(graph);
    if (!big_mirrored_or.ok()) {
      return MakeFailure(
          kCheck, seed,
          StrFormat("WithTopology rejected the mirror after a budget "
                    "sweep: %s",
                    big_mirrored_or.status().ToString().c_str()));
    }
    const CostEstimator legacy(&big);
    const CostEstimator graphed(&*big_mirrored_or);
    Result<PlanCost> legacy_cost = legacy.EstimatePlan(model, plan);
    Result<PlanCost> graphed_cost = graphed.EstimatePlan(model, plan);
    if (legacy_cost.ok() != graphed_cost.ok()) {
      return MakeFailure(
          kCheck, seed,
          StrFormat("estimate verdicts diverge legacy-vs-mirror: %s vs %s",
                    legacy_cost.ok()
                        ? "ok"
                        : legacy_cost.status().ToString().c_str(),
                    graphed_cost.ok()
                        ? "ok"
                        : graphed_cost.status().ToString().c_str()),
          &plan);
    }
    if (legacy_cost.ok()) {
      const bool identical =
          legacy_cost->iteration_seconds == graphed_cost->iteration_seconds &&
          legacy_cost->throughput_samples_per_sec ==
              graphed_cost->throughput_samples_per_sec &&
          legacy_cost->peak_memory_bytes == graphed_cost->peak_memory_bytes;
      if (!identical) {
        return MakeFailure(
            kCheck, seed,
            StrFormat("contention-free plan estimates diverge "
                      "legacy-vs-mirror: %.17g s vs %.17g s",
                      legacy_cost->iteration_seconds,
                      graphed_cost->iteration_seconds),
            &plan);
      }
    }
  }
  return std::nullopt;
}

/// True when the two plan costs are byte-identical in every field the
/// estimator reports (summary scalars and per-stage seconds).
bool PlanCostsIdentical(const PlanCost& a, const PlanCost& b) {
  if (a.iteration_seconds != b.iteration_seconds ||
      a.throughput_samples_per_sec != b.throughput_samples_per_sec ||
      a.peak_memory_bytes != b.peak_memory_bytes ||
      a.stages.size() != b.stages.size()) {
    return false;
  }
  for (size_t i = 0; i < a.stages.size(); ++i) {
    if (a.stages[i].seconds != b.stages[i].seconds ||
        a.stages[i].peak_memory_bytes != b.stages[i].peak_memory_bytes) {
      return false;
    }
  }
  return true;
}

/// A random valid CalibrationProfile with hostile coefficients: boundary
/// and full-mantissa scales, subnormal / max-magnitude / negative-zero
/// residuals, boundary overlap slowdowns. Always passes Validate.
calibrate::CalibrationProfile GenerateCalibrationProfile(Rng* rng,
                                                         bool identity) {
  using calibrate::kMaxCalibrationScale;
  using calibrate::kMinCalibrationScale;
  calibrate::CalibrationProfile profile;
  const double hostile_scales[] = {
      kMinCalibrationScale,
      kMaxCalibrationScale,
      std::nextafter(kMinCalibrationScale, 1.0),
      std::nextafter(kMaxCalibrationScale, 1.0),
      1.0,
      std::nextafter(1.0, 2.0),
  };
  const double hostile_residuals[] = {
      0.0,
      -0.0,
      std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::max(),
      std::numeric_limits<double>::min(),
      0.1,
  };
  const int num_groups = 1 + static_cast<int>(rng->NextBelow(6));
  for (int g = 0; g < num_groups; ++g) {
    calibrate::CalibrationGroup group;
    group.link_class = static_cast<LinkClass>(rng->NextBelow(4));
    group.kind = static_cast<CollectiveKind>(rng->NextBelow(5));
    group.bucket = static_cast<int>(rng->NextBelow(63));
    if (identity) {
      group.scale = 1.0;
    } else if (rng->NextBelow(2) == 0) {
      group.scale = hostile_scales[rng->NextBelow(6)];
    } else {
      // Log-uniform with a full random mantissa.
      group.scale = std::exp2(rng->NextDouble(-4.0, 4.0));
    }
    group.sample_count = static_cast<int64_t>(rng->NextBelow(1 << 20));
    group.rel_residual =
        identity ? 0.0 : hostile_residuals[rng->NextBelow(6)];
    // Validate rejects duplicate keys; skip collisions instead.
    bool duplicate = false;
    for (const calibrate::CalibrationGroup& seen : profile.groups) {
      if (seen.link_class == group.link_class && seen.kind == group.kind &&
          seen.bucket == group.bucket) {
        duplicate = true;
        break;
      }
    }
    if (!duplicate) profile.groups.push_back(group);
  }
  profile.fitted_events = static_cast<int64_t>(rng->NextBelow(1 << 24));
  if (identity) {
    profile.overlap_slowdown = 0.0;
  } else {
    const double hostile_overlaps[] = {0.0, 1.0, 8.0,
                                       std::nextafter(1.0, 2.0), 1.3};
    profile.overlap_slowdown = rng->NextBelow(2) == 0
                                   ? hostile_overlaps[rng->NextBelow(5)]
                                   : rng->NextDouble(1.0, 8.0);
  }
  return profile;
}

/// Check (h): the calibration override layer. (1) Estimates are
/// byte-identical with no profile, an empty profile and an all-ones
/// identity profile — the "absent calibration changes nothing" contract the
/// serving swap and the CLI rely on. (2) Random valid profiles with hostile
/// float coefficients round-trip through JSON bit-exactly. (3) On monotone
/// contention-free hierarchies a profile applies identically whether the
/// cluster is level-priced or mirror-graph-priced: CollectiveLink preserves
/// the bottleneck's link class either way, so the fitted scales key
/// identically (the staleness bug class this check pins down).
std::optional<CheckFailure> CheckCalibrationIdentity(
    uint64_t seed, const CheckOptions& options) {
  const FuzzCheck kCheck = FuzzCheck::kCalibrationIdentity;
  Rng rng(seed);
  GeneratorOptions gen = options.generator;
  gen.topology_graphs = false;  // part (3) attaches the mirror itself
  const ModelSpec model = GenerateModel(&rng, gen);
  const ClusterSpec cluster = GenerateCluster(&rng, gen);
  Result<TrainingPlan> plan_or = GeneratePlan(&rng, model, cluster);
  if (!plan_or.ok()) {
    return MakeFailure(kCheck, seed,
                       StrFormat("generator emitted an invalid plan: %s",
                                 plan_or.status().ToString().c_str()));
  }
  const TrainingPlan& plan = *plan_or;

  // (1) No profile vs empty profile vs identity profile: byte-identical.
  // Memory checks off so OOM verdicts don't mask the comparison (the memory
  // model never touches calibration anyway).
  const CostEstimator baseline(&cluster);
  const Result<PlanCost> base_or =
      baseline.EstimatePlan(model, plan, /*check_memory=*/false);
  calibrate::CalibrationProfile empty;
  calibrate::CalibrationProfile identity =
      GenerateCalibrationProfile(&rng, /*identity=*/true);
  const calibrate::CalibrationProfile* variants[] = {&empty, &identity};
  for (const calibrate::CalibrationProfile* profile : variants) {
    EstimatorOptions opts;
    opts.calibration = profile;
    const CostEstimator calibrated(&cluster, opts);
    const Result<PlanCost> got_or =
        calibrated.EstimatePlan(model, plan, /*check_memory=*/false);
    if (base_or.ok() != got_or.ok()) {
      return MakeFailure(
          kCheck, seed,
          StrFormat("estimate verdicts diverge with a %s profile: %s vs %s",
                    profile == &empty ? "empty" : "identity",
                    base_or.ok() ? "ok" : base_or.status().ToString().c_str(),
                    got_or.ok() ? "ok" : got_or.status().ToString().c_str()),
          &plan);
    }
    if (base_or.ok() && !PlanCostsIdentical(*base_or, *got_or)) {
      return MakeFailure(
          kCheck, seed,
          StrFormat("a %s calibration profile changed the estimate: "
                    "%.17g s vs %.17g s",
                    profile == &empty ? "empty" : "identity",
                    base_or->iteration_seconds, got_or->iteration_seconds),
          &plan);
    }
  }

  // (2) Hostile-float JSON round-trip: serialize -> parse -> serialize is
  // bit-exact (string equality implies bit-exact fields: %.17g is injective
  // on finite doubles, including the -0.0 sign).
  calibrate::CalibrationProfile hostile =
      GenerateCalibrationProfile(&rng, /*identity=*/false);
  const Status hostile_valid = hostile.Validate();
  if (!hostile_valid.ok()) {
    return MakeFailure(kCheck, seed,
                       StrFormat("generated profile fails Validate: %s",
                                 hostile_valid.ToString().c_str()));
  }
  const std::string json = calibrate::CalibrationProfileToJson(hostile);
  Result<calibrate::CalibrationProfile> reparsed_or =
      calibrate::ParseCalibrationProfileJson(json);
  if (!reparsed_or.ok()) {
    return MakeFailure(
        kCheck, seed,
        StrFormat("profile JSON does not parse back: %s (json: %s)",
                  reparsed_or.status().ToString().c_str(), json.c_str()));
  }
  const std::string json2 = calibrate::CalibrationProfileToJson(*reparsed_or);
  if (json != json2) {
    return MakeFailure(
        kCheck, seed,
        StrFormat("profile JSON round-trip not bit-exact:\n  %s\nvs\n  %s",
                  json.c_str(), json2.c_str()));
  }
  if (reparsed_or->groups.size() != hostile.groups.size()) {
    return MakeFailure(kCheck, seed,
                       "profile round-trip changed the group count");
  }

  // (3) Profile application is pricing-path independent: on a monotone
  // hierarchy with no collective contention, the mirror-graph cluster and
  // the level-priced cluster resolve every collective to the same LinkSpec
  // (class included), so a calibrated estimate is byte-identical on both.
  bool monotone = true;
  for (size_t i = 1; i < cluster.levels().size(); ++i) {
    const LinkSpec& inner = cluster.levels()[i - 1].link;
    const LinkSpec& outer = cluster.levels()[i].link;
    const bool ordered =
        outer.bandwidth_bytes_per_sec < inner.bandwidth_bytes_per_sec &&
        outer.latency_sec >= inner.latency_sec;
    if (!ordered && !(outer == inner)) monotone = false;
  }
  if (monotone) {
    Result<TopologyGraph> mirror_or = MakeMirrorTopology(cluster);
    if (!mirror_or.ok()) {
      return MakeFailure(kCheck, seed,
                         StrFormat("MakeMirrorTopology failed: %s",
                                   mirror_or.status().ToString().c_str()));
    }
    auto graph =
        std::make_shared<const TopologyGraph>(*std::move(mirror_or));
    bool contention_free = true;
    for (const StagePlan& stage : plan.stages) {
      for (int stride = 1; contention_free && stride <= stage.num_devices;
           stride *= 2) {
        for (int degree = 2; stride * degree <= stage.num_devices;
             degree *= 2) {
          if (graph->CollectiveContention(stage.first_device, stride, degree,
                                          stage.num_devices) != 1) {
            contention_free = false;
            break;
          }
        }
      }
    }
    if (contention_free) {
      const ClusterSpec big = cluster.WithMemoryBudget(int64_t{1} << 55);
      Result<ClusterSpec> big_mirrored_or = big.WithTopology(graph);
      if (!big_mirrored_or.ok()) {
        return MakeFailure(
            kCheck, seed,
            StrFormat("WithTopology rejected the mirror: %s",
                      big_mirrored_or.status().ToString().c_str()));
      }
      EstimatorOptions opts;
      opts.calibration = &hostile;
      const CostEstimator legacy(&big, opts);
      const CostEstimator graphed(&*big_mirrored_or, opts);
      const Result<PlanCost> legacy_or = legacy.EstimatePlan(model, plan);
      const Result<PlanCost> graphed_or = graphed.EstimatePlan(model, plan);
      if (legacy_or.ok() != graphed_or.ok()) {
        return MakeFailure(
            kCheck, seed,
            StrFormat("calibrated verdicts diverge legacy-vs-mirror: %s "
                      "vs %s",
                      legacy_or.ok()
                          ? "ok"
                          : legacy_or.status().ToString().c_str(),
                      graphed_or.ok()
                          ? "ok"
                          : graphed_or.status().ToString().c_str()),
            &plan);
      }
      if (legacy_or.ok() && !PlanCostsIdentical(*legacy_or, *graphed_or)) {
        return MakeFailure(
            kCheck, seed,
            StrFormat("calibrated estimates diverge legacy-vs-mirror: "
                      "%.17g s vs %.17g s",
                      legacy_or->iteration_seconds,
                      graphed_or->iteration_seconds),
            &plan);
      }
    }
  }
  return std::nullopt;
}

/// `plan` as candidate-indexed stages: each stage's candidates are its
/// distinct strategies in first-use order. `storage` owns the vectors the
/// returned stages point into.
struct IndexedPlanStorage {
  std::vector<std::vector<HybridStrategy>> candidates;
  std::vector<CandidateKeys> keys;
  std::vector<std::vector<int32_t>> options;
};
std::vector<IndexedStage> IndexPlan(const TrainingPlan& plan,
                                    SharedCostCache& cache,
                                    IndexedPlanStorage* storage) {
  const size_t n = plan.stages.size();
  storage->candidates.assign(n, {});
  storage->keys.assign(n, {});
  storage->options.assign(n, {});
  std::vector<IndexedStage> stages(n);
  for (size_t s = 0; s < n; ++s) {
    const StagePlan& stage = plan.stages[s];
    std::vector<HybridStrategy>& candidates = storage->candidates[s];
    for (const HybridStrategy& strategy : stage.layer_strategies) {
      auto it = std::find(candidates.begin(), candidates.end(), strategy);
      if (it == candidates.end()) {
        candidates.push_back(strategy);
        it = candidates.end() - 1;
      }
      storage->options[s].push_back(
          static_cast<int32_t>(it - candidates.begin()));
    }
    cache.InternCandidates(candidates, stage.first_device, &storage->keys[s]);
    IndexedStage& indexed = stages[s];
    indexed.first_device = stage.first_device;
    indexed.num_devices = stage.num_devices;
    indexed.first_layer = stage.first_layer;
    indexed.num_layers = stage.num_layers;
    indexed.candidates = &candidates;
    indexed.keys = &storage->keys[s];
    indexed.options = storage->options[s].data();
    indexed.recompute = stage.recompute.empty() ? nullptr
                                                : stage.recompute.data();
  }
  return stages;
}

/// Check (i): the sweep prices plans by composing cost-cache entries
/// (CachedPlanSource into CostEstimator::ComposePlanCost) instead of
/// running EstimatePlan. Run a sweep with a caller-owned cost cache, then
/// price — through that warm cache, whose entries were estimated at other
/// layers and stage positions of equal signature and fingerprint — its
/// winner, its alternates, a uniform plan per PP degree and a random
/// draft (random cut points, per-layer strategies and recompute flags):
/// each must equal EstimatePlan bit for bit with the memory check deferred,
/// and match its verdict and cost with the check applied — also when the
/// verdict comes as the over-budget flag the sweep asks for.
std::optional<CheckFailure> CheckPlanPricingIdentity(
    uint64_t seed, const CheckOptions& options) {
  const FuzzCheck kCheck = FuzzCheck::kPlanPricingIdentity;
  Rng rng(seed);
  const ModelSpec model = GenerateModel(&rng, options.generator);
  const ClusterSpec cluster = GenerateCluster(&rng, options.generator);
  OptimizerOptions sweep;
  sweep.schedule = rng.NextBelow(2) == 0 ? PipelineSchedule::kGPipe
                                         : PipelineSchedule::k1F1B;
  sweep.allow_recompute = rng.NextBelow(3) == 0;
  sweep.batch_step = 4;
  sweep.max_batch = 64;
  const CostEstimator estimator(&cluster, sweep.estimator);
  SharedCostCache cache(&estimator, &model);
  SearchHooks hooks;
  hooks.cost_cache = &cache;
  Result<OptimizationResult> swept =
      Optimizer(&cluster, sweep).Optimize(model, hooks);

  std::vector<TrainingPlan> plans;
  if (swept.ok()) {
    plans.push_back(swept->plan);
    plans.insert(plans.end(), swept->alternates.begin(),
                 swept->alternates.end());
  }
  for (int pp = 1; pp <= cluster.num_devices() && pp <= model.num_layers();
       pp *= 2) {
    auto sizes = PartitionPipeline(model, pp, sweep.partition_policy);
    auto candidates =
        EnumerateSingleLayerStrategies(cluster.num_devices() / pp);
    if (!sizes.ok() || !candidates.ok() || candidates->empty()) continue;
    const int batch = 4 * pp;
    auto uniform = MakeUniformPlan(
        model, cluster.num_devices(), pp, *sizes,
        (*candidates)[rng.NextBelow(candidates->size())], batch, pp);
    if (!uniform.ok()) continue;
    uniform->schedule = sweep.schedule;
    plans.push_back(*std::move(uniform));
  }
  Result<TrainingPlan> draft = GeneratePlan(&rng, model, cluster);
  if (!draft.ok()) {
    return MakeFailure(kCheck, seed,
                       StrFormat("generator emitted an invalid plan: %s",
                                 draft.status().ToString().c_str()));
  }
  plans.push_back(*std::move(draft));

  // One PlanCost composed into over and over, the way the sweep reuses
  // its per-thread scratch across plans of different shapes.
  PlanCost composed_cost;
  PlanCost flagged_cost;
  for (const TrainingPlan& plan : plans) {
    IndexedPlanStorage storage;
    const std::vector<IndexedStage> stages = IndexPlan(plan, cache, &storage);
    for (const bool check_memory : {false, true}) {
      CachedPlanSource source(&cache, &stages, plan.global_batch,
                              plan.num_micro_batches, plan.schedule);
      const Status composed = estimator.ComposePlanCost(
          model, plan.global_batch, plan.num_micro_batches, source,
          check_memory, &composed_cost);
      const Result<PlanCost> estimated =
          estimator.EstimatePlan(model, plan, check_memory);
      if (composed.ok() != estimated.ok() ||
          (!composed.ok() &&
           composed.ToString() != estimated.status().ToString())) {
        return MakeFailure(
            kCheck, seed,
            StrFormat("pricing verdicts diverge (check_memory=%d): "
                      "cached %s vs EstimatePlan %s",
                      check_memory ? 1 : 0,
                      composed.ok() ? "ok" : composed.ToString().c_str(),
                      estimated.ok() ? "ok"
                                     : estimated.status().ToString().c_str()),
            &plan);
      }
      if (composed.ok() && !PlanCostsBitIdentical(composed_cost, *estimated)) {
        return MakeFailure(
            kCheck, seed,
            StrFormat("cache-fed pricing differs from EstimatePlan "
                      "(check_memory=%d): %.17g s vs %.17g s",
                      check_memory ? 1 : 0, composed_cost.iteration_seconds,
                      estimated->iteration_seconds),
            &plan);
      }
      if (!check_memory) continue;
      // The sweep's verdict: the flag is set exactly where the status path
      // returns OutOfMemory, and a plan that fits costs the same.
      bool over_budget = false;
      CachedPlanSource flagged_source(&cache, &stages, plan.global_batch,
                                      plan.num_micro_batches, plan.schedule);
      const Status flagged = estimator.ComposePlanCost(
          model, plan.global_batch, plan.num_micro_batches, flagged_source,
          /*check_memory=*/true, &flagged_cost, &over_budget);
      const bool agree = composed.IsOutOfMemory()
                             ? flagged.ok() && over_budget
                             : !over_budget && flagged.ToString() ==
                                                   composed.ToString();
      if (!agree) {
        return MakeFailure(
            kCheck, seed,
            StrFormat("over-budget flag diverges: %s with the flag %s vs %s",
                      flagged.ToString().c_str(),
                      over_budget ? "set" : "clear",
                      composed.ToString().c_str()),
            &plan);
      }
      if (composed.ok() &&
          !PlanCostsBitIdentical(flagged_cost, composed_cost)) {
        return MakeFailure(kCheck, seed,
                           "pricing with the over-budget flag differs from "
                           "pricing without it",
                           &plan);
      }
    }
  }
  return std::nullopt;
}

/// Check (j): the sweep's cross-configuration bound is sound, so pruning a
/// configuration with it never drops a plan that could have won. On one
/// random batch wave of a small sweep — every (PP degree, micro-batch
/// count) configuration of an equal split — each stage's cold
/// A stage's bound as the sweep takes it (DpSearch::StageFacts, then
/// BoundStage over the facts and frontier that probe returned) is at most
/// the stage seconds of DpSearch::Run and of DenseDpSearch (a feasible
/// stage always gives a bound, an infeasible one never does); after the
/// Run published its frontiers the bound is the Run's stage seconds, bit
/// for bit, and absent exactly when the Run is Infeasible; and
/// ComposePipeline over the stage bounds is at least the EstimatePlan
/// throughput of the configuration's DP plan whenever that plan fits.
///
/// The stage table the sweep's first pass reads is budget-free: filled at
/// the cluster's budget, it must answer at a second budget — a random one,
/// a uniform plan's exact peak and one byte below it — exactly what a
/// fresh-cache bound answers (verdict and bits) and, for every uniform plan
/// priced from its stage facts, what EstimatePlan answers on the
/// materialized plan (fits verdict, throughput bits).
std::optional<CheckFailure> CheckSweepBound(uint64_t seed,
                                            const CheckOptions& options) {
  const FuzzCheck kCheck = FuzzCheck::kSweepBound;
  Rng rng(seed);
  GeneratorOptions gen = options.generator;
  gen.max_devices = std::min(gen.max_devices, 4);
  gen.max_layers = std::min(gen.max_layers, 6);
  const ModelSpec model = GenerateModel(&rng, gen);
  // A log-uniform budget across [64 MB, 32 GB] makes small models straddle
  // the feasibility line, where memory binds and the bound is strict.
  const ClusterSpec cluster = GenerateCluster(&rng, gen).WithMemoryBudget(
      static_cast<int64_t>(std::exp(rng.NextDouble(
          std::log(64.0 * (1 << 20)), std::log(32.0 * 1e9)))));
  const PipelineSchedule schedule = rng.NextBelow(2) == 0
                                        ? PipelineSchedule::kGPipe
                                        : PipelineSchedule::k1F1B;
  DpSearchOptions search_options;
  search_options.allow_recompute = rng.NextBelow(3) == 0;
  const int batch = 4 << rng.NextBelow(4);
  const double slack = 1.0 + options.cost_rel_tolerance;

  const CostEstimator estimator(&cluster);
  const DpSearch search(&estimator, search_options);
  SharedCostCache costs(&estimator, &model);
  DpFrontierCache frontiers;
  SearchHooks warm;
  warm.cost_cache = &costs;
  warm.frontier_cache = &frontiers;
  // A second context whose frontier cache only ever holds stage facts: no
  // Run publishes frontiers to it, so its bounds come from the table.
  SharedCostCache table_costs(&estimator, &model);
  DpFrontierCache table;
  SearchHooks filled;
  filled.cost_cache = &table_costs;
  filled.frontier_cache = &table;
  // The configurations the table holds, for the second budget.
  struct TableConfig {
    int pp = 1;
    int micro = 1;
    std::vector<int> sizes;
    std::vector<HybridStrategy> candidates;
    std::vector<PlanCostSource::Stage> extents;
    std::vector<int> resident;
  };
  std::vector<TableConfig> table_configs;
  const auto same_bits = [](double a, double b) {
    return std::memcmp(&a, &b, sizeof(double)) == 0;
  };
  // The bound of one stage of `searcher` at `budget`, read as the sweep
  // reads it: the stage's facts and frontier from `hooks`, then BoundStage.
  const auto bound_stage =
      [&](const DpSearch& searcher, int first_layer, int layers,
          const std::vector<HybridStrategy>& candidates, int first_device,
          int micro, int64_t budget, int resident,
          const SearchHooks& hooks) -> Result<std::optional<double>> {
    DpStageFacts facts;
    std::shared_ptr<const DpFrontierEntry> frontier;
    GALVATRON_RETURN_IF_ERROR(searcher.StageFacts(
        model, first_layer, layers, candidates, first_device, batch, micro,
        resident, hooks, &facts, &frontier));
    return searcher.BoundStage(facts, frontier.get(), budget);
  };

  for (int pp = 1; pp <= cluster.num_devices() && pp <= model.num_layers();
       pp *= 2) {
    const int span = cluster.num_devices() / pp;
    Result<std::vector<int>> sizes =
        PartitionPipeline(model, pp, PartitionPolicy::kFlops);
    Result<std::vector<HybridStrategy>> candidates =
        EnumerateSingleLayerStrategies(span);
    if (!sizes.ok() || !candidates.ok() || candidates->empty()) continue;
    for (const int multiplier : {1, 2, 4}) {
      const int micro = pp * multiplier;
      if (micro > batch) continue;
      TrainingPlan plan;
      plan.model_name = model.name();
      plan.global_batch = batch;
      plan.num_micro_batches = micro;
      plan.schedule = schedule;
      // The stages' bounds, composed like a plan's stage seconds.
      PlanCost upper_cost;
      bool all_fit = true;
      int first_layer = 0;
      TableConfig& tabled = table_configs.emplace_back();
      tabled.pp = pp;
      tabled.micro = micro;
      tabled.sizes = *sizes;
      tabled.candidates = *candidates;
      for (int s = 0; s < pp; ++s) {
        const int layers = (*sizes)[static_cast<size_t>(s)];
        const int first_device = s * span;
        const int64_t budget = cluster.MinMemoryInRange(first_device, span);
        const int resident = InFlightMicroBatches(schedule, micro, pp, s);
        tabled.extents.push_back(
            PlanCostSource::Stage{first_device, span, first_layer, layers});
        tabled.resident.push_back(resident);
        // Fill the table: the stage's facts.
        DpStageFacts facts;
        if (const Status stored = search.StageFacts(
                model, first_layer, layers, *candidates, first_device, batch,
                micro, resident, filled, &facts);
            !stored.ok()) {
          return MakeFailure(kCheck, seed,
                             StrFormat("stage facts failed: %s",
                                       stored.ToString().c_str()));
        }
        const std::string stage = StrFormat(
            "pp %d micro %d batch %d stage %d (layers [%d,+%d), %d devices "
            "@%d, budget %lld%s%s)",
            pp, micro, batch, s, first_layer, layers, span, first_device,
            static_cast<long long>(budget),
            schedule == PipelineSchedule::k1F1B ? ", 1f1b" : "",
            search_options.allow_recompute ? ", +recompute" : "");
        const Result<std::optional<double>> bound =
            bound_stage(search, first_layer, layers, *candidates,
                        first_device, micro, budget, resident, {});
        const Result<DpSearchResult> run =
            search.Run(model, first_layer, layers, *candidates, first_device,
                       batch, micro, budget, resident);
        const Result<DpSearchResult> dense = DenseDpSearch(
            estimator, model, first_layer, layers, *candidates, first_device,
            batch, micro, budget, search_options, nullptr, resident);
        const bool bounded = bound.ok() && bound->has_value();
        if (run.ok() != dense.ok()) {
          return MakeFailure(
              kCheck, seed,
              StrFormat("sparse/dense feasibility diverges on %s",
                        stage.c_str()));
        }
        if (run.ok() != bounded) {
          return MakeFailure(
              kCheck, seed,
              StrFormat("%s stage %s on %s",
                        run.ok() ? "feasible" : "infeasible",
                        run.ok() ? "gave no bound" : "gave a bound",
                        stage.c_str()));
        }
        if (run.ok() && (**bound > run->stage_seconds * slack ||
                         **bound > dense->stage_seconds * slack)) {
          return MakeFailure(
              kCheck, seed,
              StrFormat("stage bound %.17g exceeds the DP's %.17g (dense "
                        "%.17g) on %s",
                        **bound, run->stage_seconds, dense->stage_seconds,
                        stage.c_str()));
        }

        // Published, the stage's frontiers give the next bound exactly.
        const Result<DpSearchResult> published =
            search.Run(model, first_layer, layers, *candidates, first_device,
                       batch, micro, budget, resident, warm);
        const Result<std::optional<double>> replay =
            bound_stage(search, first_layer, layers, *candidates,
                        first_device, micro, budget, resident, warm);
        const bool exact =
            published.ok()
                ? replay.ok() && replay->has_value() &&
                      same_bits(**replay, published->stage_seconds)
                : !replay.ok() || !replay->has_value();
        if (!exact) {
          return MakeFailure(
              kCheck, seed,
              StrFormat("the bound over published frontiers is not the "
                        "Run's answer on %s",
                        stage.c_str()));
        }

        upper_cost.stages.emplace_back().seconds = bounded ? **bound : 0.0;
        all_fit = all_fit && run.ok();
        if (run.ok()) {
          StagePlan& stage_plan = plan.stages.emplace_back();
          stage_plan.first_device = first_device;
          stage_plan.num_devices = span;
          stage_plan.first_layer = first_layer;
          stage_plan.num_layers = layers;
          for (const int32_t option : run->per_layer_option) {
            stage_plan.layer_strategies.push_back(
                (*candidates)[static_cast<size_t>(option)]);
          }
          stage_plan.recompute = run->per_layer_recompute;
        }
        first_layer += layers;
      }
      if (!all_fit) continue;
      const Result<PlanCost> priced = estimator.EstimatePlan(model, plan);
      if (!priced.ok()) continue;  // over the exact budget, or invalid
      estimator.ComposePipeline(model, batch, micro, tabled.extents,
                                &upper_cost);
      const double upper = upper_cost.throughput_samples_per_sec;
      if (upper * slack < priced->throughput_samples_per_sec) {
        return MakeFailure(
            kCheck, seed,
            StrFormat("configuration bound %.17g samples/s is below the DP "
                      "plan's %.17g (pp %d, micro %d, batch %d)",
                      upper, priced->throughput_samples_per_sec, pp, micro,
                      batch),
            &plan);
      }
    }
  }

  // The table at a second budget. Facts per configuration and stage, read
  // back from the table, and the uniform plans' exact peaks.
  std::vector<std::vector<DpStageFacts>> facts(table_configs.size());
  std::vector<int64_t> plan_peaks;
  for (size_t k = 0; k < table_configs.size(); ++k) {
    const TableConfig& config = table_configs[k];
    facts[k].resize(config.extents.size());
    for (size_t s = 0; s < config.extents.size(); ++s) {
      const PlanCostSource::Stage& stage = config.extents[s];
      const StageTableCounts before = CurrentThreadStageTableCounts();
      const Status read = search.StageFacts(
          model, stage.first_layer, stage.num_layers, config.candidates,
          stage.first_device, batch, config.micro, config.resident[s], filled,
          &facts[k][s]);
      if (!read.ok() ||
          CurrentThreadStageTableCounts().hits != before.hits + 1) {
        return MakeFailure(kCheck, seed,
                           "a filled stage table missed a stored stage");
      }
    }
    for (size_t c = 0; c < config.candidates.size(); ++c) {
      int64_t peak = 0;
      for (const DpStageFacts& stage : facts[k]) {
        peak = std::max(peak, stage.uniform_peak_bytes[c]);
      }
      plan_peaks.push_back(peak);
    }
  }
  std::vector<int64_t> second_budgets = {static_cast<int64_t>(std::exp(
      rng.NextDouble(std::log(64.0 * (1 << 20)), std::log(32.0 * 1e9))))};
  if (!plan_peaks.empty()) {
    const int64_t peak = plan_peaks[rng.NextBelow(plan_peaks.size())];
    second_budgets.push_back(peak);
    second_budgets.push_back(peak - 1);
  }
  for (const int64_t second : second_budgets) {
    const ClusterSpec resized = cluster.WithMemoryBudget(second);
    const CostEstimator fresh_estimator(&resized);
    const DpSearch fresh(&fresh_estimator, search_options);
    for (size_t k = 0; k < table_configs.size(); ++k) {
      const TableConfig& config = table_configs[k];
      const std::string where =
          StrFormat("pp %d micro %d batch %d at budget %lld (table filled at "
                    "%lld)",
                    config.pp, config.micro, batch,
                    static_cast<long long>(second),
                    static_cast<long long>(cluster.device_memory_bytes()));
      std::vector<int64_t> budgets;
      for (size_t s = 0; s < config.extents.size(); ++s) {
        const PlanCostSource::Stage& stage = config.extents[s];
        budgets.push_back(
            resized.MinMemoryInRange(stage.first_device, stage.num_devices));
        const Result<std::optional<double>> want = bound_stage(
            fresh, stage.first_layer, stage.num_layers, config.candidates,
            stage.first_device, config.micro, budgets.back(),
            config.resident[s], {});
        const Result<std::optional<double>> got = bound_stage(
            search, stage.first_layer, stage.num_layers, config.candidates,
            stage.first_device, config.micro, budgets.back(),
            config.resident[s], filled);
        const bool agree =
            want.ok() == got.ok() &&
            (want.ok() ? want->has_value() == got->has_value() &&
                             (!want->has_value() || same_bits(**want, **got))
                       : want.status().ToString() == got.status().ToString());
        if (!agree) {
          const auto describe = [](const Result<std::optional<double>>& b) {
            if (!b.ok()) return b.status().ToString();
            return b->has_value() ? StrFormat("%.17g", **b)
                                  : std::string("no bound");
          };
          return MakeFailure(
              kCheck, seed,
              StrFormat("the stage table's bound differs from a fresh "
                        "bound on stage %zu of %s: %s vs %s",
                        s, where.c_str(), describe(got).c_str(),
                        describe(want).c_str()));
        }
      }
      for (size_t c = 0; c < config.candidates.size(); ++c) {
        // The sweep's uniform pricing: each stage's peak against its
        // budget, then the pipeline half of the composition.
        PlanCost composed;
        composed.stages.resize(config.extents.size());
        bool fits = true;
        for (size_t s = 0; s < config.extents.size(); ++s) {
          fits = fits && facts[k][s].uniform_peak_bytes[c] <= budgets[s];
          composed.stages[s].seconds = facts[k][s].uniform_seconds[c];
          composed.stages[s].peak_memory_bytes =
              facts[k][s].uniform_peak_bytes[c];
        }
        estimator.ComposePipeline(model, batch, config.micro, config.extents,
                                  &composed);
        Result<TrainingPlan> uniform = MakeUniformPlan(
            model, cluster.num_devices(), config.pp, config.sizes,
            config.candidates[c], batch, config.micro);
        if (!uniform.ok()) {
          return MakeFailure(kCheck, seed,
                             StrFormat("uniform plan failed: %s",
                                       uniform.status().ToString().c_str()));
        }
        uniform->schedule = schedule;
        const Result<PlanCost> estimated =
            fresh_estimator.EstimatePlan(model, *uniform);
        if (!estimated.ok() && !estimated.status().IsOutOfMemory()) {
          return MakeFailure(kCheck, seed,
                             StrFormat("uniform plan estimate failed: %s",
                                       estimated.status().ToString().c_str()),
                             &*uniform);
        }
        if (fits != estimated.ok() ||
            (fits && !same_bits(composed.throughput_samples_per_sec,
                                estimated->throughput_samples_per_sec))) {
          return MakeFailure(
              kCheck, seed,
              StrFormat("a uniform plan priced from the stage table differs "
                        "from EstimatePlan on %s: %s %.17g vs %s %.17g",
                        where.c_str(), fits ? "fits" : "over budget",
                        composed.throughput_samples_per_sec,
                        estimated.ok() ? "fits" : "over budget",
                        estimated.ok() ? estimated->throughput_samples_per_sec
                                       : 0.0),
              &*uniform);
        }
      }
    }
  }
  return std::nullopt;
}


}  // namespace

bool PlanCostsBitIdentical(const PlanCost& a, const PlanCost& b) {
  const auto same_bits = [](double x, double y) {
    return std::memcmp(&x, &y, sizeof(double)) == 0;
  };
  if (!same_bits(a.iteration_seconds, b.iteration_seconds) ||
      !same_bits(a.throughput_samples_per_sec, b.throughput_samples_per_sec) ||
      a.peak_memory_bytes != b.peak_memory_bytes ||
      a.stages.size() != b.stages.size()) {
    return false;
  }
  for (size_t i = 0; i < a.stages.size(); ++i) {
    const StageCost& x = a.stages[i];
    const StageCost& y = b.stages[i];
    if (!same_bits(x.seconds, y.seconds) ||
        x.peak_memory_bytes != y.peak_memory_bytes ||
        x.per_layer_seconds.size() != y.per_layer_seconds.size()) {
      return false;
    }
    for (size_t l = 0; l < x.per_layer_seconds.size(); ++l) {
      if (!same_bits(x.per_layer_seconds[l], y.per_layer_seconds[l])) {
        return false;
      }
    }
  }
  return true;
}

std::string_view FuzzCheckToString(FuzzCheck check) {
  switch (check) {
    case FuzzCheck::kPlanValidity:
      return "plan-validity";
    case FuzzCheck::kSearchEquivalence:
      return "search-equivalence";
    case FuzzCheck::kMemoryModel:
      return "memory-model";
    case FuzzCheck::kJsonRoundTrip:
      return "json-roundtrip";
    case FuzzCheck::kSpecJsonRoundTrip:
      return "spec-json-roundtrip";
    case FuzzCheck::kTraceConservation:
      return "trace-conservation";
    case FuzzCheck::kTopologyIdentity:
      return "topology-identity";
    case FuzzCheck::kCalibrationIdentity:
      return "calibration-identity";
    case FuzzCheck::kPlanPricingIdentity:
      return "plan-pricing-identity";
    case FuzzCheck::kSweepBound:
      return "sweep-bound";
  }
  return "unknown";
}

Result<FuzzCheck> FuzzCheckFromString(const std::string& text) {
  if (text == "plan-validity") return FuzzCheck::kPlanValidity;
  if (text == "search-equivalence") return FuzzCheck::kSearchEquivalence;
  if (text == "memory-model") return FuzzCheck::kMemoryModel;
  if (text == "json-roundtrip") return FuzzCheck::kJsonRoundTrip;
  if (text == "spec-json-roundtrip") return FuzzCheck::kSpecJsonRoundTrip;
  if (text == "trace-conservation") return FuzzCheck::kTraceConservation;
  if (text == "topology-identity") return FuzzCheck::kTopologyIdentity;
  if (text == "calibration-identity") return FuzzCheck::kCalibrationIdentity;
  if (text == "plan-pricing-identity") return FuzzCheck::kPlanPricingIdentity;
  if (text == "sweep-bound") return FuzzCheck::kSweepBound;
  return Status::InvalidArgument(
      StrFormat("unknown check '%s' (expected plan-validity, "
                "search-equivalence, memory-model, json-roundtrip, "
                "spec-json-roundtrip, trace-conservation, "
                "topology-identity, calibration-identity, "
                "plan-pricing-identity or sweep-bound)",
                text.c_str()));
}

uint64_t MixSeed(uint64_t base_seed, uint64_t check_index,
                 uint64_t iteration) {
  // Stateless SplitMix64 finalization of the three coordinates, so a
  // reported per-iteration seed replays directly through RunCheck.
  Rng mixer(base_seed + 0x9e3779b97f4a7c15ULL * (check_index + 1) +
            0xbf58476d1ce4e5b9ULL * (iteration + 1));
  return mixer.NextU64();
}

std::optional<CheckFailure> RunCheck(FuzzCheck check, uint64_t seed,
                                     const CheckOptions& options) {
  switch (check) {
    case FuzzCheck::kPlanValidity:
      return CheckPlanValidity(seed, options);
    case FuzzCheck::kSearchEquivalence:
      return CheckSearchEquivalence(seed, options);
    case FuzzCheck::kMemoryModel:
      return CheckMemoryModel(seed, options);
    case FuzzCheck::kJsonRoundTrip:
      return CheckJsonRoundTrip(seed, options);
    case FuzzCheck::kSpecJsonRoundTrip:
      return CheckSpecJsonRoundTrip(seed, options);
    case FuzzCheck::kTraceConservation:
      return CheckTraceConservation(seed, options);
    case FuzzCheck::kTopologyIdentity:
      return CheckTopologyIdentity(seed, options);
    case FuzzCheck::kCalibrationIdentity:
      return CheckCalibrationIdentity(seed, options);
    case FuzzCheck::kPlanPricingIdentity:
      return CheckPlanPricingIdentity(seed, options);
    case FuzzCheck::kSweepBound:
      return CheckSweepBound(seed, options);
  }
  return MakeFailure(check, seed, "unknown check");
}

FuzzReport RunFuzz(const FuzzOptions& options) {
  static const FuzzCheck kAll[] = {
      FuzzCheck::kPlanValidity,      FuzzCheck::kSearchEquivalence,
      FuzzCheck::kMemoryModel,       FuzzCheck::kJsonRoundTrip,
      FuzzCheck::kSpecJsonRoundTrip, FuzzCheck::kTraceConservation,
      FuzzCheck::kTopologyIdentity,   FuzzCheck::kCalibrationIdentity,
      FuzzCheck::kPlanPricingIdentity, FuzzCheck::kSweepBound};
  std::vector<FuzzCheck> checks = options.checks;
  if (checks.empty()) checks.assign(kAll, kAll + kNumFuzzChecks);

  FuzzReport report;
  for (FuzzCheck check : checks) {
    int failures_for_check = 0;
    for (int i = 0; i < options.iterations; ++i) {
      if (failures_for_check >= options.max_failures_per_check) break;
      const uint64_t seed =
          MixSeed(options.seed, static_cast<uint64_t>(check),
                  static_cast<uint64_t>(i));
      std::optional<CheckFailure> failure =
          RunCheck(check, seed, options.check_options);
      ++report.iterations_run;
      if (failure.has_value()) {
        report.failures.push_back(*std::move(failure));
        ++failures_for_check;
      }
    }
  }
  return report;
}

}  // namespace galvatron
