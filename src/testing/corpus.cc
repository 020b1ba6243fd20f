#include "testing/corpus.h"

#include <string>

#include "api/plan_io.h"
#include "util/string_util.h"

namespace galvatron {

namespace {

/// A minimal well-formed plan document with `fields` spliced into the top
/// level and `stage_fields` into the single stage, used to build focused
/// malformed variants without repeating the whole schema.
std::string PlanDoc(const std::string& fields,
                    const std::string& stage_fields) {
  return std::string("{") + fields +
         "\"schedule\":\"gpipe\",\"stages\":[{" + stage_fields +
         "\"layers\":[{\"strategy\":\"serial\",\"recompute\":false}]}]}";
}

const char kTopFields[] =
    "\"model\":\"m\",\"global_batch\":4,\"micro_batches\":2,";
const char kStageFields[] =
    "\"first_device\":0,\"num_devices\":1,\"first_layer\":0,"
    "\"num_layers\":1,";

}  // namespace

const std::vector<CorpusEntry>& SeedCorpus() {
  // Seeds are per-iteration seeds (see MixSeed): `galvatron_fuzz
  // --repro=<check>:<seed>` replays any entry directly.
  static const std::vector<CorpusEntry>* const kCorpus =
      new std::vector<CorpusEntry>{
          // Simulator divergences found by the initial memory-model
          // campaign: the comm stream front-ran the pipeline and piled up
          // one gathered SDP weight copy per queued micro-batch (sim peak
          // far above the estimate), and GPipe backwards drained before the
          // stage's own forward flush finished, so a stage never held all
          // m activations (sim peak far below the estimate).
          {FuzzCheck::kMemoryModel, 0x2405ad1d01fc4021ULL,
           "1f1b pp=1 sdp4: unbounded fwd SDP gather prefetch"},
          {FuzzCheck::kMemoryModel, 0x1f539d4a52bb4a82ULL,
           "gpipe 2-stage: backward drain started before the flush"},
          {FuzzCheck::kMemoryModel, 0xb5a0c0596417ed4aULL,
           "memory-model divergence, initial campaign"},
          {FuzzCheck::kMemoryModel, 0xbd76ea7fa35e520bULL,
           "memory-model divergence, initial campaign"},
          {FuzzCheck::kMemoryModel, 0x97e27d083d41145cULL,
           "memory-model divergence, initial campaign"},
          {FuzzCheck::kMemoryModel, 0x77d50cb309cf185eULL,
           "memory-model divergence, initial campaign"},
          {FuzzCheck::kMemoryModel, 0xb2083891facd855aULL,
           "memory-model divergence, initial campaign"},
          {FuzzCheck::kMemoryModel, 0xcf0401d7dab35e9eULL,
           "memory-model divergence, initial campaign"},
          // Round-trips whose generated model names carry control
          // characters the old EscapeJson emitted raw (invalid JSON).
          {FuzzCheck::kJsonRoundTrip, 0xa4ac2c9532a00b10ULL,
           "name with 0x01: old escaper emitted it raw"},
          {FuzzCheck::kJsonRoundTrip, 0x9fca48837d3735e2ULL,
           "name with newline: old escaper emitted it raw"},
          {FuzzCheck::kJsonRoundTrip, 0xdff1456e801b7dfeULL,
           "name with 0x1f: old escaper emitted it raw"},
          {FuzzCheck::kJsonRoundTrip, 0x2cbcfc3437f5979dULL,
           "name with 0x0b: old escaper emitted it raw"},
          // Ordinary pinning seeds so every check keeps fixed-seed
          // coverage in tier-1 even when the random campaign shrinks.
          {FuzzCheck::kPlanValidity, 0x11ULL, "pinning seed"},
          {FuzzCheck::kPlanValidity, 0x12ULL, "pinning seed"},
          {FuzzCheck::kSearchEquivalence, 0x21ULL, "pinning seed"},
          {FuzzCheck::kSearchEquivalence, 0x22ULL, "pinning seed"},
          {FuzzCheck::kMemoryModel, 0x31ULL, "pinning seed"},
          {FuzzCheck::kJsonRoundTrip, 0x41ULL, "pinning seed"},
          // Spec round-trip pins: hostile model names through the spec
          // serializers plus heterogeneous-memory clusters, whose budget
          // runs exercise the WithDeviceMemoryRange rebuild on parse.
          {FuzzCheck::kSpecJsonRoundTrip, 0x51ULL, "pinning seed"},
          {FuzzCheck::kSpecJsonRoundTrip, 0x52ULL, "pinning seed"},
          {FuzzCheck::kSpecJsonRoundTrip, 0x53ULL, "pinning seed"},
          // Trace-conservation pins: traced runs over generated plans must
          // keep per-stream attribution, per-task work+lost decomposition
          // and the back-chained critical path conservation-exact, and the
          // capture must not perturb SimMetrics.
          {FuzzCheck::kTraceConservation, 0x61ULL, "pinning seed"},
          {FuzzCheck::kTraceConservation, 0x62ULL, "pinning seed"},
          {FuzzCheck::kTraceConservation, 0x63ULL, "pinning seed"},
          // Heterogeneous pins: seeds verified to generate mixed-generation,
          // graph-backed (and some heterogeneous-memory) clusters, so every
          // check keeps fixed coverage of the topology-aware paths — graph
          // collective pricing, per-range throughput, island-aware caching,
          // and the topology JSON round-trip.
          {FuzzCheck::kPlanValidity, 0x2dd268fb94a4eb2fULL,
           "8 GPUs, mixed generations + mirror graph + squeezed memory"},
          {FuzzCheck::kSearchEquivalence, 0x33bd0e2ce4d7b693ULL,
           "DP == brute force on a mixed-generation graph-backed cluster"},
          {FuzzCheck::kMemoryModel, 0xe71a2d2744572ab0ULL,
           "estimator vs simulator peaks on a mixed-generation cluster"},
          {FuzzCheck::kSpecJsonRoundTrip, 0x5db9df1f42a391e1ULL,
           "topology + device-generation arrays through the serializers"},
          {FuzzCheck::kTraceConservation, 0x697fd7bb73061b98ULL,
           "traced run on a mixed-generation graph-backed cluster"},
          {FuzzCheck::kTopologyIdentity, 0xf1398b8613733828ULL,
           "8-GPU mixed cluster: graph pricing collapses to level pricing"},
          {FuzzCheck::kTopologyIdentity, 0xdf52c8bbc961610aULL,
           "4-GPU mixed cluster with squeezed memory"},
          // Calibration-identity pins: the no-profile/empty/identity
          // byte-identity contract, hostile-float profile round-trips and
          // the mirror-vs-level application identity keep fixed-seed
          // coverage in tier-1.
          {FuzzCheck::kCalibrationIdentity, 0x71ULL, "pinning seed"},
          {FuzzCheck::kCalibrationIdentity, 0x72ULL, "pinning seed"},
          {FuzzCheck::kCalibrationIdentity, 0x73ULL, "pinning seed"},
          // Plan-pricing-identity pins: the sweep's cache-fed plan pricing
          // stays bit-identical to EstimatePlan in tier-1.
          {FuzzCheck::kPlanPricingIdentity, 0x81ULL, "pinning seed"},
          {FuzzCheck::kPlanPricingIdentity, 0x82ULL, "pinning seed"},
          {FuzzCheck::kPlanPricingIdentity, 0x83ULL, "pinning seed"},
          // Sweep-bound pins: seeds verified to bound stages where memory
          // binds (the LP bound strictly below the DP optimum) and a stage
          // no assignment fits (no bound), so the bound's soundness keeps
          // fixed-seed coverage in tier-1.
          {FuzzCheck::kSweepBound, 0x91ULL,
           "3 of 7 stage bounds strictly below the DP optimum"},
          {FuzzCheck::kSweepBound, 0x93ULL,
           "pp 1-4 wave, 6 of 21 stage bounds strict"},
          {FuzzCheck::kSweepBound, 0x9cULL,
           "a stage the feasibility test rejects gives no bound"},
          // Stage-table pin: filled at one budget, the table answers at a
          // uniform plan's exact peak (the plan fits) and a byte below it
          // (it does not) like a fresh Bound and EstimatePlan.
          {FuzzCheck::kSweepBound, 0x9eULL,
           "stage table at a uniform plan's exact peak and peak - 1"},
          // 1F1B in-flight band: interior stages whose downstream returns
          // backwards fast enough that the stage never stacks a second
          // micro-batch — the simulated peak sits at the one-micro-batch
          // floor, below the estimator's min(m, P-s) bound.
          {FuzzCheck::kMemoryModel, 0x503ca367df272103ULL,
           "1F1B stage holding one micro-batch on a graph-backed cluster"},
          {FuzzCheck::kMemoryModel, 0x94ce0def8cfad5e5ULL,
           "1F1B stage holding one micro-batch under the in-flight bound"},
      };
  return *kCorpus;
}

const std::vector<JsonRegression>& JsonCorpus() {
  static const std::vector<JsonRegression>* const kCorpus =
      new std::vector<JsonRegression>{
          {PlanDoc(kTopFields, kStageFields), true, "minimal valid plan"},
          {PlanDoc("\"model\":\"a\",\"model\":\"b\",\"global_batch\":4,"
                   "\"micro_batches\":2,",
                   kStageFields),
           false, "duplicate key at top level (emplace kept the first)"},
          {PlanDoc(kTopFields,
                   "\"first_device\":0,\"num_devices\":1,\"num_devices\":2,"
                   "\"first_layer\":0,\"num_layers\":1,"),
           false, "duplicate key inside a stage"},
          {PlanDoc("\"model\":\"m\",\"global_batch\":1e,"
                   "\"micro_batches\":1,",
                   kStageFields),
           false, "truncated exponent (atof parsed '1e' as 1)"},
          {PlanDoc("\"model\":\"m\",\"global_batch\":2.5,"
                   "\"micro_batches\":1,",
                   kStageFields),
           false, "non-integral count (old GetInt truncated silently)"},
          {PlanDoc("\"model\":\"m\",\"global_batch\":1e99,"
                   "\"micro_batches\":1,",
                   kStageFields),
           false, "count outside int range (old static_cast was UB)"},
          {PlanDoc("\"model\":\"m\",\"global_batch\":+4,"
                   "\"micro_batches\":1,",
                   kStageFields),
           false, "leading plus sign is not valid JSON"},
          {PlanDoc("\"model\":\"m\",\"global_batch\":08,"
                   "\"micro_batches\":1,",
                   kStageFields),
           false, "leading zero is not valid JSON (strtod accepts it)"},
          {PlanDoc(kTopFields,
                   "\"first_device\":0,\"num_devices\":-1,"
                   "\"first_layer\":0,\"num_layers\":1,"),
           false, "negative num_devices accepted before parse-time bounds"},
          {PlanDoc("\"model\":\"m\",\"global_batch\":0,"
                   "\"micro_batches\":1,",
                   kStageFields),
           false, "zero global_batch rejected at parse time"},
          {PlanDoc("\"model\":\"a\nb\",\"global_batch\":4,"
                   "\"micro_batches\":2,",
                   kStageFields),
           false, "raw control character inside a string literal"},
          {PlanDoc("\"model\":\"a\\u0007b\",\"global_batch\":4,"
                   "\"micro_batches\":2,",
                   kStageFields),
           true, "escaped control character is legal and round-trips"},
          {PlanDoc("\"model\":\"a\\ud800b\",\"global_batch\":4,"
                   "\"micro_batches\":2,",
                   kStageFields),
           false, "lone UTF-16 surrogate escape"},
          {PlanDoc("\"model\":\"a\\uZZ12\",\"global_batch\":4,"
                   "\"micro_batches\":2,",
                   kStageFields),
           false, "non-hex \\u escape"},
      };
  return *kCorpus;
}

std::vector<CheckFailure> RunCorpus(const CheckOptions& options) {
  std::vector<CheckFailure> failures;
  for (const CorpusEntry& entry : SeedCorpus()) {
    std::optional<CheckFailure> failure =
        RunCheck(entry.check, entry.seed, options);
    if (failure.has_value()) {
      failure->detail =
          StrFormat("[corpus: %s] %s", entry.note, failure->detail.c_str());
      failures.push_back(*std::move(failure));
    }
  }
  for (const JsonRegression& entry : JsonCorpus()) {
    Result<TrainingPlan> parsed = ParsePlanJson(entry.json);
    if (parsed.ok() != entry.expect_ok) {
      CheckFailure failure;
      failure.check = FuzzCheck::kJsonRoundTrip;
      failure.seed = 0;
      failure.detail = StrFormat(
          "[corpus: %s] ParsePlanJson %s but the corpus expects %s%s%s",
          entry.note, parsed.ok() ? "accepted" : "rejected",
          entry.expect_ok ? "acceptance" : "rejection",
          parsed.ok() ? "" : ": ",
          parsed.ok() ? "" : parsed.status().ToString().c_str());
      failure.repro_json = entry.json;
      failures.push_back(std::move(failure));
      continue;
    }
    if (parsed.ok()) {
      // Accepted documents must re-serialize stably.
      const std::string json1 = PlanToJson(*parsed);
      Result<TrainingPlan> reparsed = ParsePlanJson(json1);
      if (!reparsed.ok() || PlanToJson(*reparsed) != json1) {
        CheckFailure failure;
        failure.check = FuzzCheck::kJsonRoundTrip;
        failure.seed = 0;
        failure.detail = StrFormat(
            "[corpus: %s] accepted document does not round-trip stably",
            entry.note);
        failure.repro_json = json1;
        failures.push_back(std::move(failure));
      }
    }
  }
  return failures;
}

}  // namespace galvatron
