#ifndef GALVATRON_TESTING_INVARIANT_CHECKS_H_
#define GALVATRON_TESTING_INVARIANT_CHECKS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "estimator/cost_estimator.h"
#include "testing/fuzz_generators.h"
#include "util/result.h"

namespace galvatron {

/// The ten differential checks (see docs/fuzzing.md):
///   kPlanValidity      — generated plans Validate, render, and their
///                        strategies parse back (generator + plan layer).
///   kSearchEquivalence — DP search == brute force on small instances:
///                        same feasibility verdict, same optimal cost.
///   kMemoryModel       — estimator per-stage peak memory agrees with the
///                        simulator's stage_peak_memory_bytes within a
///                        documented tolerance, and OOM verdicts match
///                        whenever the peaks sit clear of the budget line.
///   kJsonRoundTrip     — PlanToJson -> ParsePlanJson -> PlanToJson is
///                        bit-exact and field-exact, hostile names included.
///   kSpecJsonRoundTrip — ModelSpecToJson / ClusterSpecToJson ->
///                        Parse*SpecJson -> *ToJson is bit-exact and
///                        field-exact over the hostile generators; the
///                        serving wire format rides on these serializers.
///   kTraceConservation — a traced simulation's time attribution conserves:
///                        per stream, Σ(category busy) + idle == makespan
///                        and work + lost == elapsed per task (within
///                        1e-9 x makespan); the critical path tiles
///                        [0, makespan] exactly; and recording the trace
///                        leaves SimMetrics byte-identical to the untraced
///                        run.
///   kTopologyIdentity  — the heterogeneous machinery collapses exactly on
///                        homogeneous inputs: CollectiveLink equals the old
///                        two-endpoint bottleneck on level-priced clusters,
///                        per-range throughput queries match a device-table
///                        scan, the mirror TopologyGraph prices ranges
///                        identically to the levels whenever bandwidths are
///                        outward non-increasing (and latencies
///                        non-decreasing), and whole-plan estimates are
///                        byte-identical legacy-vs-mirror when no
///                        collective sees uplink contention.
///   kCalibrationIdentity — the calibration layer (src/calibrate/) is
///                        invisible until a profile says otherwise: plan
///                        estimates are byte-identical with no profile, an
///                        empty profile and an all-ones identity profile;
///                        randomly generated valid profiles (hostile-float
///                        coefficients included) survive
///                        CalibrationProfileToJson -> Parse -> ToJson
///                        bit-exactly; and on monotone contention-free
///                        hierarchies a profile applies identically to the
///                        level-priced cluster and its mirror-graph twin.
///   kPlanPricingIdentity — the sweep's plan pricing is EstimatePlan: the
///                        composition fed from the sweep's warm cost cache
///                        (CachedPlanSource) prices the sweep's winner,
///                        alternates, uniform plans and random drafts bit
///                        for bit like EstimatePlan, with the memory check
///                        deferred and applied.
///   kSweepBound        — the sweep's cross-configuration bound is sound:
///                        every stage's DpSearch::BoundStage is at most
///                        the stage seconds of DpSearch::Run and of
///                        DenseDpSearch, exact over published frontiers,
///                        and ComposePipeline over the
///                        stage bounds is at least the EstimatePlan
///                        throughput of every fitting DP plan.
enum class FuzzCheck {
  kPlanValidity,
  kSearchEquivalence,
  kMemoryModel,
  kJsonRoundTrip,
  kSpecJsonRoundTrip,
  kTraceConservation,
  kTopologyIdentity,
  kCalibrationIdentity,
  kPlanPricingIdentity,
  kSweepBound,
};

inline constexpr int kNumFuzzChecks = 10;

std::string_view FuzzCheckToString(FuzzCheck check);
Result<FuzzCheck> FuzzCheckFromString(const std::string& text);

/// Tolerances and generator knobs shared by all checks.
struct CheckOptions {
  GeneratorOptions generator;
  /// DP vs brute force optimal cost: relative (the two searchers sum the
  /// same per-layer terms in different association orders, so they agree
  /// only to floating-point rounding).
  double cost_rel_tolerance = 1e-9;
  /// Estimator vs simulator peak memory: relative slack on top of the
  /// structural slack of 2x the largest layer transient (the estimator
  /// reserves the ZeRO-3 double-buffered gather for every layer; the
  /// simulator charges the transients it actually schedules).
  double memory_rel_tolerance = 0.02;
};

/// One reproducible failure. `seed` replays the exact iteration through
/// RunCheck; `repro_json` is a self-contained dump (check, seed, detail and
/// the offending plan when one exists) suitable for writing to disk.
struct CheckFailure {
  FuzzCheck check = FuzzCheck::kPlanValidity;
  uint64_t seed = 0;
  std::string detail;
  std::string repro_json;
};

/// Field-by-field, bit-for-bit equality of two plan costs, per-layer
/// seconds included. Doubles compare by their bits, so -0.0 and 0.0 (or
/// two NaN payloads) differ where == would not.
bool PlanCostsBitIdentical(const PlanCost& a, const PlanCost& b);

/// The per-iteration seed for (base seed, check, iteration) — a stateless
/// hash, so any reported seed replays its iteration directly via
/// RunCheck(check, seed) without re-running the campaign.
uint64_t MixSeed(uint64_t base_seed, uint64_t check_index, uint64_t iteration);

/// Runs one iteration of `check` with `seed`. Deterministic: same
/// (check, seed, options) always yields the same outcome. Internal errors
/// (a generator or subsystem returning an unexpected Status) are reported
/// as failures, not thrown.
std::optional<CheckFailure> RunCheck(FuzzCheck check, uint64_t seed,
                                     const CheckOptions& options = {});

/// A fuzz campaign: `iterations` per selected check.
struct FuzzOptions {
  uint64_t seed = 1;
  int iterations = 100;
  /// Empty = all ten checks.
  std::vector<FuzzCheck> checks;
  /// Stop collecting per check after this many failures (the campaign
  /// still finishes the other checks).
  int max_failures_per_check = 10;
  CheckOptions check_options;
};

struct FuzzReport {
  int iterations_run = 0;  // total check-iterations executed
  std::vector<CheckFailure> failures;
  bool ok() const { return failures.empty(); }
};

FuzzReport RunFuzz(const FuzzOptions& options);

}  // namespace galvatron

#endif  // GALVATRON_TESTING_INVARIANT_CHECKS_H_
