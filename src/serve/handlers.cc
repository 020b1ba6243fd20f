#include "serve/handlers.h"

#include <chrono>
#include <string_view>
#include <vector>

#include "api/plan_io.h"
#include "trace/analyzer.h"
#include "trace/export.h"
#include "trace/trace.h"
#include "util/string_util.h"

namespace galvatron {
namespace serve {

namespace {

/// Strict schemas: a request carrying a key the server does not understand
/// is rejected instead of silently ignored, so a typo'd option ("batchstep")
/// cannot masquerade as a default-valued search.
Status CheckKeys(const JsonValue& object,
                 const std::vector<std::string>& allowed, const char* what) {
  for (const auto& [key, unused] : object.object) {
    bool known = false;
    for (const std::string& candidate : allowed) {
      if (key == candidate) {
        known = true;
        break;
      }
    }
    if (!known) {
      return Status::InvalidArgument(
          StrFormat("unknown key '%s' in %s", key.c_str(), what));
    }
  }
  return Status::OK();
}

/// The prelude every POST handler shares: the body parsed as a JSON
/// object that carries only `allowed` keys. With `blank_is_empty` a body of
/// only whitespace reads as {} — strict JSON parsing would reject "".
Result<JsonValue> ParseRequestObject(const std::string& body,
                                     const std::vector<std::string>& allowed,
                                     bool blank_is_empty = false) {
  JsonValue root;
  root.kind = JsonValue::Kind::kObject;
  const bool blank = body.find_first_not_of(" \t\n\r") == std::string::npos;
  if (!blank_is_empty || !blank) {
    GALVATRON_ASSIGN_OR_RETURN(root, ParseJson(body));
    if (root.kind != JsonValue::Kind::kObject) {
      return Status::InvalidArgument("request body must be a JSON object");
    }
  }
  GALVATRON_RETURN_IF_ERROR(CheckKeys(root, allowed, "the request"));
  return root;
}

constexpr char kBadModelKind[] =
    "'model' must be a zoo model name or a model-spec object";

/// The cache-key form of the "model" member: zoo:<name> for a model-zoo
/// name, the WriteJson normalization of a full spec (so formatting
/// differences don't split cache entries).
Result<std::string> CanonicalModelKey(const JsonValue& value) {
  if (value.kind == JsonValue::Kind::kString) return "zoo:" + value.string;
  if (value.kind == JsonValue::Kind::kObject) return WriteJson(value);
  return Status::InvalidArgument(kBadModelKind);
}

/// Resolves the "model" member: a string is a model-zoo name, an object is a
/// full spec.
Result<ModelSpec> ResolveModel(const JsonValue& value) {
  if (value.kind == JsonValue::Kind::kString) {
    for (ModelId id : AllModelIds()) {
      if (value.string == ModelIdToString(id)) return BuildModel(id);
    }
    std::string known;
    for (ModelId id : AllModelIds()) {
      if (!known.empty()) known += ", ";
      known += ModelIdToString(id);
    }
    return Status::InvalidArgument(StrFormat(
        "unknown zoo model '%s'; known models: %s", value.string.c_str(),
        known.c_str()));
  }
  if (value.kind == JsonValue::Kind::kObject) {
    return ModelSpecFromJsonValue(value);
  }
  return Status::InvalidArgument(kBadModelKind);
}

Status ParseEstimatorOptions(const JsonValue& value,
                             EstimatorOptions* estimator) {
  GALVATRON_RETURN_IF_ERROR(CheckKeys(
      value,
      {"model_overlap_slowdown", "overlap_slowdown", "tp_sequence_parallel"},
      "'options.estimator'"));
  if (FindMember(value, "model_overlap_slowdown") != nullptr) {
    GALVATRON_ASSIGN_OR_RETURN(estimator->model_overlap_slowdown,
                               GetBool(value, "model_overlap_slowdown"));
  }
  if (FindMember(value, "overlap_slowdown") != nullptr) {
    GALVATRON_ASSIGN_OR_RETURN(estimator->overlap_slowdown,
                               GetDouble(value, "overlap_slowdown"));
    if (estimator->overlap_slowdown < 1.0) {
      return Status::InvalidArgument(
          "'options.estimator.overlap_slowdown' must be >= 1.0");
    }
  }
  if (FindMember(value, "tp_sequence_parallel") != nullptr) {
    GALVATRON_ASSIGN_OR_RETURN(estimator->tp_sequence_parallel,
                               GetBool(value, "tp_sequence_parallel"));
  }
  return Status::OK();
}

Result<std::vector<int>> ParseIntArray(const JsonValue& object,
                                       const std::string& key, int min_value) {
  GALVATRON_ASSIGN_OR_RETURN(const JsonValue* member,
                             GetMember(object, key, JsonValue::Kind::kArray));
  std::vector<int> values;
  for (size_t i = 0; i < member->array.size(); ++i) {
    GALVATRON_ASSIGN_OR_RETURN(
        int64_t v, JsonToInt64(member->array[i],
                               StrFormat("'%s[%zu]'", key.c_str(), i),
                               min_value));
    if (v > 1 << 20) {
      return Status::InvalidArgument(
          StrFormat("'%s[%zu]' is implausibly large", key.c_str(), i));
    }
    values.push_back(static_cast<int>(v));
  }
  if (values.empty()) {
    return Status::InvalidArgument(
        StrFormat("'%s' must not be empty", key.c_str()));
  }
  return values;
}

/// Parses the wire-settable subset of OptimizerOptions (absent fields keep
/// their library defaults) and produces the deterministic signature of the
/// RESOLVED values, so `{"batch_step": 8}` and `{}` share one cache entry.
Status ParseOptimizerOptions(const JsonValue* value, OptimizerOptions* options,
                             std::string* signature) {
  if (value != nullptr) {
    if (value->kind != JsonValue::Kind::kObject) {
      return Status::InvalidArgument("'options' must be an object");
    }
    GALVATRON_RETURN_IF_ERROR(CheckKeys(
        *value,
        {"schedule", "allow_recompute", "search_threads", "batch_step",
         "max_batch", "pp_degrees", "micro_batch_multipliers",
         "co_optimize_rounds", "memory_granularity", "estimator"},
        "'options'"));
    if (FindMember(*value, "schedule") != nullptr) {
      GALVATRON_ASSIGN_OR_RETURN(const std::string schedule,
                                 GetString(*value, "schedule"));
      if (schedule == "gpipe") {
        options->schedule = PipelineSchedule::kGPipe;
      } else if (schedule == "1f1b") {
        options->schedule = PipelineSchedule::k1F1B;
      } else {
        return Status::InvalidArgument(StrFormat(
            "'options.schedule' must be \"gpipe\" or \"1f1b\", got \"%s\"",
            schedule.c_str()));
      }
    }
    if (FindMember(*value, "allow_recompute") != nullptr) {
      GALVATRON_ASSIGN_OR_RETURN(options->allow_recompute,
                                 GetBool(*value, "allow_recompute"));
    }
    if (FindMember(*value, "search_threads") != nullptr) {
      GALVATRON_ASSIGN_OR_RETURN(options->search_threads,
                                 GetInt(*value, "search_threads", 0));
    }
    if (FindMember(*value, "batch_step") != nullptr) {
      GALVATRON_ASSIGN_OR_RETURN(options->batch_step,
                                 GetInt(*value, "batch_step", 1));
    }
    if (FindMember(*value, "max_batch") != nullptr) {
      GALVATRON_ASSIGN_OR_RETURN(options->max_batch,
                                 GetInt(*value, "max_batch", 1));
    }
    if (FindMember(*value, "pp_degrees") != nullptr) {
      GALVATRON_ASSIGN_OR_RETURN(options->pp_degrees,
                                 ParseIntArray(*value, "pp_degrees", 1));
    }
    if (FindMember(*value, "micro_batch_multipliers") != nullptr) {
      GALVATRON_ASSIGN_OR_RETURN(
          options->micro_batch_multipliers,
          ParseIntArray(*value, "micro_batch_multipliers", 1));
    }
    if (FindMember(*value, "co_optimize_rounds") != nullptr) {
      GALVATRON_ASSIGN_OR_RETURN(options->co_optimize_rounds,
                                 GetInt(*value, "co_optimize_rounds", 0));
    }
    if (FindMember(*value, "memory_granularity") != nullptr) {
      GALVATRON_ASSIGN_OR_RETURN(options->memory_granularity,
                                 GetInt64(*value, "memory_granularity", 1));
    }
    if (const JsonValue* estimator = FindMember(*value, "estimator")) {
      if (estimator->kind != JsonValue::Kind::kObject) {
        return Status::InvalidArgument("'options.estimator' must be an object");
      }
      GALVATRON_RETURN_IF_ERROR(
          ParseEstimatorOptions(*estimator, &options->estimator));
    }
  }

  std::string degrees;
  for (int d : options->pp_degrees) degrees += StrFormat("%d,", d);
  std::string multipliers;
  for (int m : options->micro_batch_multipliers) {
    multipliers += StrFormat("%d,", m);
  }
  *signature = StrFormat(
      "schedule=%s;recompute=%d;threads=%d;step=%d;max=%d;"
      "pp=[%s];mbm=[%s];coopt=%d;gran=%lld;est=%d:%s:%d",
      std::string(PipelineScheduleToString(options->schedule)).c_str(),
      options->allow_recompute ? 1 : 0, options->search_threads,
      options->batch_step, options->max_batch, degrees.c_str(),
      multipliers.c_str(), options->co_optimize_rounds,
      static_cast<long long>(options->memory_granularity),
      options->estimator.model_overlap_slowdown ? 1 : 0,
      JsonNumber(options->estimator.overlap_slowdown).c_str(),
      options->estimator.tp_sequence_parallel ? 1 : 0);
  return Status::OK();
}

Status ParseSimOptions(const JsonValue* value, SimOptions* sim) {
  if (value == nullptr) return Status::OK();
  if (value->kind != JsonValue::Kind::kObject) {
    return Status::InvalidArgument("'sim' must be an object");
  }
  GALVATRON_RETURN_IF_ERROR(CheckKeys(
      *value,
      {"overlap_slowdown", "compute_jitter", "seed", "check_memory",
       "tp_sequence_parallel", "work_scale"},
      "'sim'"));
  if (FindMember(*value, "overlap_slowdown") != nullptr) {
    GALVATRON_ASSIGN_OR_RETURN(sim->overlap_slowdown,
                               GetDouble(*value, "overlap_slowdown"));
    if (sim->overlap_slowdown < 1.0) {
      return Status::InvalidArgument("'sim.overlap_slowdown' must be >= 1.0");
    }
  }
  if (FindMember(*value, "compute_jitter") != nullptr) {
    GALVATRON_ASSIGN_OR_RETURN(sim->compute_jitter,
                               GetDouble(*value, "compute_jitter"));
    if (sim->compute_jitter < 0.0 || sim->compute_jitter >= 1.0) {
      return Status::InvalidArgument(
          "'sim.compute_jitter' must be in [0, 1)");
    }
  }
  if (FindMember(*value, "seed") != nullptr) {
    GALVATRON_ASSIGN_OR_RETURN(const int64_t seed,
                               GetInt64(*value, "seed", 0));
    sim->seed = static_cast<uint64_t>(seed);
  }
  if (FindMember(*value, "check_memory") != nullptr) {
    GALVATRON_ASSIGN_OR_RETURN(sim->check_memory,
                               GetBool(*value, "check_memory"));
  }
  if (FindMember(*value, "tp_sequence_parallel") != nullptr) {
    GALVATRON_ASSIGN_OR_RETURN(sim->tp_sequence_parallel,
                               GetBool(*value, "tp_sequence_parallel"));
  }
  if (FindMember(*value, "work_scale") != nullptr) {
    GALVATRON_ASSIGN_OR_RETURN(sim->work_scale,
                               GetDouble(*value, "work_scale"));
    if (sim->work_scale <= 0.0) {
      return Status::InvalidArgument("'sim.work_scale' must be > 0");
    }
  }
  return Status::OK();
}

std::string Int64Json(int64_t v) {
  return StrFormat("%lld", static_cast<long long>(v));
}

/// Canonical (WriteJson) form of a plan — the byte layout the serving tests
/// compare against a direct Galvatron::Plan result.
std::string CanonicalPlanJson(const TrainingPlan& plan) {
  Result<JsonValue> parsed = ParseJson(PlanToJson(plan));
  return WriteJson(*parsed);  // our own serializer's output always parses
}

std::string SearchStatsJson(const SearchStats& stats) {
  std::string out = "{";
  out += "\"configs_explored\": " + Int64Json(stats.configs_explored);
  out += ", \"configs_pruned\": " + Int64Json(stats.configs_pruned);
  out += ", \"cost_cache_hits\": " + Int64Json(stats.cost_cache_hits);
  out += ", \"cost_cache_lifetime_hits\": " +
         Int64Json(stats.cost_cache_lifetime_hits);
  out += ", \"cost_cache_lifetime_misses\": " +
         Int64Json(stats.cost_cache_lifetime_misses);
  out += ", \"cost_cache_misses\": " + Int64Json(stats.cost_cache_misses);
  out += ", \"dp_drafts_over_budget\": " +
         Int64Json(stats.dp_drafts_over_budget);
  out += ", \"dp_frontier_hits\": " + Int64Json(stats.dp_frontier_hits);
  out += ", \"dp_frontier_misses\": " + Int64Json(stats.dp_frontier_misses);
  out += ", \"dp_infeasible_skipped\": " +
         Int64Json(stats.dp_infeasible_skipped);
  out += ", \"dp_states_explored\": " + Int64Json(stats.dp_states_explored);
  out += ", \"num_candidate_strategies\": " +
         Int64Json(stats.num_candidate_strategies);
  out += ", \"search_seconds\": " + JsonNumber(stats.search_seconds);
  out += ", \"search_threads_used\": " + Int64Json(stats.search_threads_used);
  out += ", \"stage_table_hits\": " + Int64Json(stats.stage_table_hits);
  out += ", \"stage_table_misses\": " + Int64Json(stats.stage_table_misses);
  out += std::string(", \"used_external_cost_cache\": ") +
         (stats.used_external_cost_cache ? "true" : "false");
  out += "}";
  return out;
}

/// The context key's cluster component with every per-device memory budget
/// zeroed, so requests whose clusters differ ONLY in memory share one
/// PlanningContext — and with it one SharedCostCache and one
/// DpFrontierCache. Per-layer costs never depend on the budget (the caches'
/// documented contract), and feasibility is always re-checked against the
/// request's real cluster, so the sharing is exact. Before this
/// normalization each budget variant got its own cold context and the
/// "warm" LRU bought almost nothing.
std::string NormalizedClusterKey(const JsonValue& cluster_value) {
  JsonValue normalized = cluster_value;
  auto it = normalized.object.find("device_memory_bytes");
  if (it != normalized.object.end() &&
      it->second.kind == JsonValue::Kind::kArray) {
    for (JsonValue& entry : it->second.array) {
      entry.number = 0;
      entry.number_token = "0";
    }
  }
  // Graph-backed clusters carry the budgets a second time, inside the
  // topology's islands — zero those too, or budget variants of a
  // heterogeneous cluster would stop sharing a context.
  auto topology = normalized.object.find("topology");
  if (topology != normalized.object.end() &&
      topology->second.kind == JsonValue::Kind::kObject) {
    auto islands = topology->second.object.find("islands");
    if (islands != topology->second.object.end() &&
        islands->second.kind == JsonValue::Kind::kArray) {
      for (JsonValue& island : islands->second.array) {
        if (island.kind != JsonValue::Kind::kObject) continue;
        auto memory = island.object.find("memory_bytes");
        if (memory != island.object.end() &&
            memory->second.kind == JsonValue::Kind::kNumber) {
          memory->second.number = 0;
          memory->second.number_token = "0";
        }
      }
    }
  }
  return WriteJson(normalized);
}

}  // namespace

PlanService::PlanService(PlanServiceOptions options)
    : options_(options),
      plan_cache_(PlanCacheOptions{options.plan_cache_entries,
                                   options.plan_cache_journal,
                                   options.plan_cache_journal_max_bytes}) {
  if (options_.context_cache_entries == 0) options_.context_cache_entries = 1;
  if (options_.async_workers < 1) options_.async_workers = 1;
  if (options_.async_jobs < 1) options_.async_jobs = 1;
  async_pool_ = std::make_unique<ThreadPool>(options_.async_workers);
}

PlanService::~PlanService() {
  // Drain queued async plans before any member they touch goes away; the
  // plan cache then compacts its journal in its own destructor.
  async_pool_.reset();
}

HttpResponse PlanService::Handle(const HttpRequest& request) {
  std::string route = request.target;
  const size_t query = route.find('?');
  if (query != std::string::npos) route.resize(query);

  // One entry per route: its path (a prefix when it ends in '/', whose
  // rest is the handler's argument), the one method it answers, and the
  // handler.
  struct Route {
    const char* path;
    const char* method;
    HttpResponse (*handle)(PlanService& service, const HttpRequest& request,
                           const std::string& rest);
  };
  static const Route kRoutes[] = {
      {"/healthz", "GET",
       [](PlanService& service, const HttpRequest&, const std::string&) {
         return service.HandleHealthz();
       }},
      {"/metrics", "GET",
       [](PlanService& service, const HttpRequest&, const std::string&) {
         return service.HandleMetrics();
       }},
      {"/v1/plan", "POST",
       [](PlanService& service, const HttpRequest& request,
          const std::string&) { return service.HandlePlan(request); }},
      {"/v1/plan/", "GET",
       [](PlanService& service, const HttpRequest&, const std::string& id) {
         return service.HandlePlanPoll(id);
       }},
      {"/v1/measure", "POST",
       [](PlanService& service, const HttpRequest& request,
          const std::string&) { return service.HandleMeasure(request); }},
      {"/v1/calibrate", "POST",
       [](PlanService& service, const HttpRequest& request,
          const std::string&) { return service.HandleCalibrate(request); }},
  };
  for (const Route& entry : kRoutes) {
    const std::string_view path = entry.path;
    const bool prefix = path.back() == '/';
    if (prefix ? route.compare(0, path.size(), path) != 0 : route != path) {
      continue;
    }
    if (request.method != entry.method) {
      return MakeJsonErrorResponse(
          Status::InvalidArgument(StrFormat("%s%s only answers %s",
                                            entry.path, prefix ? "<id>" : "",
                                            entry.method)),
          405);
    }
    return entry.handle(*this, request,
                        prefix ? route.substr(path.size()) : std::string());
  }
  return MakeJsonErrorResponse(
      Status::NotFound(StrFormat("no route '%s'", route.c_str())));
}

std::shared_ptr<PlanningContext> PlanService::GetOrCreateContext(
    const std::string& key, const ModelSpec& model, const ClusterSpec& cluster,
    const EstimatorOptions& estimator_options,
    std::shared_ptr<const calibrate::CalibrationProfile> calibration,
    bool* created) {
  std::lock_guard<std::mutex> lock(contexts_mu_);
  auto it = contexts_index_.find(key);
  *created = it == contexts_index_.end();
  if (!*created) {
    contexts_.splice(contexts_.begin(), contexts_, it->second);
    return it->second->second.context;
  }
  auto context =
      std::make_shared<PlanningContext>(model, cluster, estimator_options);
  contexts_.emplace_front(key,
                          WarmContext{context, std::move(calibration)});
  contexts_index_[key] = contexts_.begin();
  if (contexts_.size() > options_.context_cache_entries) {
    // Requests running on the evicted context keep it alive via shared_ptr
    // (the WarmContext's profile reference rides along in the same entry,
    // and the caller holds its own snapshot for the request's lifetime).
    contexts_index_.erase(contexts_.back().first);
    contexts_.pop_back();
  }
  return context;
}

std::shared_ptr<const calibrate::CalibrationProfile>
PlanService::ActiveCalibration(int64_t* version) const {
  std::lock_guard<std::mutex> lock(calibration_mu_);
  if (version != nullptr) *version = calibration_version_;
  return calibration_;
}

HttpResponse PlanService::HandlePlan(const HttpRequest& request) {
  Result<JsonValue> root = ParseRequestObject(
      request.body, {"model", "cluster", "options", "deadline_ms", "async"});
  if (!root.ok()) return MakeJsonErrorResponse(root.status());

  if (const JsonValue* async_value = FindMember(*root, "async")) {
    if (async_value->kind != JsonValue::Kind::kBool) {
      return MakeJsonErrorResponse(
          Status::InvalidArgument("'async' must be a boolean"));
    }
    if (async_value->boolean) return SubmitAsyncPlan(*root);
    // "async": false is just the synchronous path, spelled out.
  }

  const JsonValue* model_value = FindMember(*root, "model");
  if (model_value == nullptr) {
    return MakeJsonErrorResponse(
        Status::InvalidArgument("missing required key 'model'"));
  }
  Result<const JsonValue*> cluster_value =
      GetMember(*root, "cluster", JsonValue::Kind::kObject);
  if (!cluster_value.ok()) return MakeJsonErrorResponse(cluster_value.status());

  OptimizerOptions options;
  std::string options_signature;
  Status options_status = ParseOptimizerOptions(
      FindMember(*root, "options"), &options, &options_signature);
  if (!options_status.ok()) return MakeJsonErrorResponse(options_status);

  double deadline_ms = options_.default_deadline_ms;
  if (FindMember(*root, "deadline_ms") != nullptr) {
    Result<double> deadline = GetDouble(*root, "deadline_ms");
    if (!deadline.ok()) return MakeJsonErrorResponse(deadline.status());
    if (*deadline <= 0.0) {
      return MakeJsonErrorResponse(
          Status::InvalidArgument("'deadline_ms' must be > 0"));
    }
    deadline_ms = *deadline;
  }

  // The cache key is built from canonical forms before any heavy work, so a
  // hit never parses specs or touches the optimizer. The deadline is
  // excluded: it changes whether a result arrives, never which result.
  Result<std::string> model_canonical = CanonicalModelKey(*model_value);
  if (!model_canonical.ok()) {
    return MakeJsonErrorResponse(model_canonical.status());
  }
  const std::string cluster_canonical = WriteJson(**cluster_value);
  // The active calibration profile changes which result the search produces,
  // so its version is part of the key: a POST /v1/calibrate swap makes every
  // cached pre-swap answer unreachable instead of stale. The snapshot taken
  // here rides through to ComputePlan so the cached response is priced by
  // exactly the profile its key names, even if a swap lands mid-request.
  int64_t calibration_version = 0;
  std::shared_ptr<const calibrate::CalibrationProfile> calibration =
      ActiveCalibration(&calibration_version);
  const std::string cache_key =
      *model_canonical + "\n" + cluster_canonical + "\n" + options_signature +
      StrFormat("\ncal=%lld", static_cast<long long>(calibration_version));

  const auto wait_deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double, std::milli>(
              deadline_ms > 0.0 ? deadline_ms : 0.0));

  // Singleflight loop. Each pass: serve from the plan cache, else join an
  // identical in-flight search as a follower, else lead one. Followers
  // normally return the leader's response verbatim; they loop again only
  // when the leader timed out against ITS deadline (theirs may be longer).
  for (;;) {
    std::shared_ptr<const std::string> hit;
    std::shared_ptr<InFlight> flight;
    bool leader = false;
    {
      // The cache lookup and the flight lookup are one step under the
      // lock: a leader fills the plan cache before it unpublishes its
      // flight under this lock, so a request sees either the flight or its
      // response, never neither (which would lead a second search).
      std::lock_guard<std::mutex> lock(inflight_mu_);
      hit = plan_cache_.Get(cache_key);
      if (hit == nullptr) {
        auto it = inflight_.find(cache_key);
        if (it != inflight_.end()) {
          flight = it->second;
        } else {
          flight = std::make_shared<InFlight>();
          inflight_[cache_key] = flight;
          leader = true;
        }
      }
    }
    if (hit != nullptr) {
      if (options_.metrics != nullptr) options_.metrics->RecordPlanCache(true);
      HttpResponse response;
      response.body = "{" + *hit + ", \"plan_cache_hit\": true}\n";
      return response;
    }

    if (leader) {
      HttpResponse response =
          ComputePlan(options, *model_value, **cluster_value,
                      *model_canonical, cache_key, deadline_ms, calibration,
                      calibration_version);
      {
        // Unpublish BEFORE waking followers: a new request must either see
        // the plan-cache entry (filled inside ComputePlan on success) or
        // lead a fresh search — never join this finished flight.
        std::lock_guard<std::mutex> lock(inflight_mu_);
        inflight_.erase(cache_key);
      }
      {
        std::lock_guard<std::mutex> lock(flight->mu);
        flight->done = true;
        flight->retry = response.status == 504;
        flight->response = response;
      }
      flight->cv.notify_all();
      return response;
    }

    // Follower: wait for the leader, bounded by our own deadline.
    HttpResponse replay;
    {
      std::unique_lock<std::mutex> lock(flight->mu);
      const auto ready = [&flight] { return flight->done; };
      if (deadline_ms > 0.0) {
        if (!flight->cv.wait_until(lock, wait_deadline, ready)) {
          return MakeJsonErrorResponse(Status::Cancelled(
              "deadline expired while waiting for an identical in-flight "
              "search"));
        }
      } else {
        flight->cv.wait(lock, ready);
      }
      if (flight->retry) continue;
      replay = flight->response;
    }
    if (options_.metrics != nullptr) options_.metrics->RecordCoalesced();
    return replay;
  }
}

HttpResponse PlanService::ComputePlan(
    OptimizerOptions options, const JsonValue& model_value,
    const JsonValue& cluster_value, const std::string& model_canonical,
    const std::string& cache_key, double deadline_ms,
    std::shared_ptr<const calibrate::CalibrationProfile> calibration,
    int64_t calibration_version) {
  Result<ModelSpec> model = ResolveModel(model_value);
  if (!model.ok()) return MakeJsonErrorResponse(model.status());
  Result<ClusterSpec> cluster = ClusterSpecFromJsonValue(cluster_value);
  if (!cluster.ok()) return MakeJsonErrorResponse(cluster.status());

  // The warm context's caches hold calibrated costs, so the profile version
  // joins the estimator-options part of the key: a swap starts a fresh
  // context instead of replaying frontiers priced by the old profile.
  options.estimator.calibration = calibration.get();

  // Budget-normalized context key: budget-only cluster variants share one
  // context (one cost cache + one frontier cache); see NormalizedClusterKey.
  const std::string context_key =
      model_canonical + "\n" + NormalizedClusterKey(cluster_value) + "\n" +
      StrFormat("est=%d:%s:%d:cal=%lld",
                options.estimator.model_overlap_slowdown ? 1 : 0,
                JsonNumber(options.estimator.overlap_slowdown).c_str(),
                options.estimator.tp_sequence_parallel ? 1 : 0,
                static_cast<long long>(calibration_version));
  bool created = false;
  std::shared_ptr<PlanningContext> context =
      GetOrCreateContext(context_key, *model, *cluster, options.estimator,
                         calibration, &created);

  SearchHooks hooks;
  hooks.cost_cache = context->cache();
  hooks.frontier_cache = context->frontier_cache();
  if (deadline_ms > 0.0) {
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double, std::milli>(deadline_ms));
    hooks.cancel = [deadline] {
      return std::chrono::steady_clock::now() >= deadline;
    };
  }

  // Optimize against the REQUEST's cluster (its real memory budgets) while
  // borrowing the context's caches — the warm-start near-miss path.
  Result<TrainedPlan> result =
      Galvatron::Plan(context->model(), *cluster, options, hooks);
  if (!result.ok()) return MakeJsonErrorResponse(result.status());

  if (options_.metrics != nullptr) {
    options_.metrics->RecordPlanCache(false);
    options_.metrics->RecordCostCache(result->search_stats.cost_cache_hits,
                                      result->search_stats.cost_cache_misses);
    // A fresh context's own repeated stages hit frontiers it just built
    // (a cold pipelined search does), so only a context an earlier request
    // created can warm-start a search.
    if (!created && result->search_stats.dp_frontier_hits > 0) {
      options_.metrics->RecordWarmStart();
    }
  }

  std::string core = "\"estimated\": {\"iteration_seconds\": " +
                     JsonNumber(result->estimated.iteration_seconds) +
                     ", \"peak_memory_bytes\": " +
                     Int64Json(result->estimated.peak_memory_bytes) +
                     ", \"throughput_samples_per_sec\": " +
                     JsonNumber(result->estimated.throughput_samples_per_sec) +
                     "}";
  core += ", \"plan\": " + CanonicalPlanJson(result->plan);
  core += ", \"search_stats\": " + SearchStatsJson(result->search_stats);
  plan_cache_.Put(cache_key, core);

  HttpResponse response;
  response.body = "{" + core + ", \"plan_cache_hit\": false}\n";
  return response;
}

HttpResponse PlanService::SubmitAsyncPlan(const JsonValue& root) {
  // The job re-enters HandlePlan with "async" stripped, so its response —
  // and the plan-cache entry it fills — is byte-identical to a synchronous
  // request's.
  JsonValue stripped = root;
  stripped.object.erase("async");
  const std::string body = WriteJson(stripped);

  auto job = std::make_shared<AsyncJob>();
  job->id = StrFormat(
      "plan-%lld",
      static_cast<long long>(
          next_job_id_.fetch_add(1, std::memory_order_relaxed) + 1));
  {
    std::lock_guard<std::mutex> lock(jobs_mu_);
    if (jobs_.size() >= options_.async_jobs) {
      // Evict the oldest COMPLETED job; pending jobs are never dropped
      // (their submitters hold a poll handle that must stay answerable
      // until it resolves).
      bool evicted = false;
      for (auto it = jobs_.rbegin(); it != jobs_.rend(); ++it) {
        if ((*it)->done) {
          jobs_index_.erase((*it)->id);
          jobs_.erase(std::next(it).base());
          evicted = true;
          break;
        }
      }
      if (!evicted) {
        return MakeJsonErrorResponse(
            Status::FailedPrecondition(
                "async job table is full of pending jobs; retry later"),
            429);
      }
    }
    jobs_.push_front(job);
    jobs_index_[job->id] = job;
  }
  if (options_.metrics != nullptr) options_.metrics->RecordAsyncSubmit();

  async_pool_->Submit([this, job, body] {
    HttpRequest inner;
    inner.method = "POST";
    inner.target = "/v1/plan";
    inner.body = body;
    HttpResponse response = HandlePlan(inner);
    std::lock_guard<std::mutex> lock(jobs_mu_);
    job->response = std::move(response);
    job->done = true;
  });

  HttpResponse response;
  response.status = 202;
  response.body = StrFormat(
      "{\"plan_id\": \"%s\", \"poll\": \"/v1/plan/%s\", "
      "\"status\": \"pending\"}\n",
      job->id.c_str(), job->id.c_str());
  return response;
}

HttpResponse PlanService::HandlePlanPoll(const std::string& id) {
  std::lock_guard<std::mutex> lock(jobs_mu_);
  auto it = jobs_index_.find(id);
  if (it == jobs_index_.end()) {
    return MakeJsonErrorResponse(Status::NotFound(
        StrFormat("no async plan job '%s' (unknown or evicted)", id.c_str())));
  }
  if (!it->second->done) {
    HttpResponse response;
    response.status = 202;
    response.body = StrFormat(
        "{\"plan_id\": \"%s\", \"status\": \"pending\"}\n", id.c_str());
    return response;
  }
  return it->second->response;  // verbatim: byte-identical to synchronous
}

HttpResponse PlanService::HandleMeasure(const HttpRequest& request) {
  Result<JsonValue> root = ParseRequestObject(
      request.body, {"model", "cluster", "plan", "sim", "explain"});
  if (!root.ok()) return MakeJsonErrorResponse(root.status());

  bool explain = false;
  if (FindMember(*root, "explain") != nullptr) {
    Result<bool> explain_value = GetBool(*root, "explain");
    if (!explain_value.ok()) {
      return MakeJsonErrorResponse(explain_value.status());
    }
    explain = *explain_value;
  }

  const JsonValue* model_value = FindMember(*root, "model");
  if (model_value == nullptr) {
    return MakeJsonErrorResponse(
        Status::InvalidArgument("missing required key 'model'"));
  }
  Result<ModelSpec> model = ResolveModel(*model_value);
  if (!model.ok()) return MakeJsonErrorResponse(model.status());

  Result<const JsonValue*> cluster_value =
      GetMember(*root, "cluster", JsonValue::Kind::kObject);
  if (!cluster_value.ok()) return MakeJsonErrorResponse(cluster_value.status());
  Result<ClusterSpec> cluster = ClusterSpecFromJsonValue(**cluster_value);
  if (!cluster.ok()) return MakeJsonErrorResponse(cluster.status());

  Result<const JsonValue*> plan_value =
      GetMember(*root, "plan", JsonValue::Kind::kObject);
  if (!plan_value.ok()) return MakeJsonErrorResponse(plan_value.status());
  Result<TrainingPlan> plan = PlanFromJsonValue(**plan_value);
  if (!plan.ok()) return MakeJsonErrorResponse(plan.status());

  SimOptions sim;
  Status sim_status = ParseSimOptions(FindMember(*root, "sim"), &sim);
  if (!sim_status.ok()) return MakeJsonErrorResponse(sim_status);

  sim.record_trace = explain;
  SimTrace sim_trace;
  Result<SimMetrics> metrics =
      Galvatron::Measure(*model, *plan, *cluster, sim,
                         explain ? &sim_trace : nullptr);
  if (!metrics.ok()) return MakeJsonErrorResponse(metrics.status());

  std::string attribution;
  if (explain) {
    Result<trace::ExecutionTrace> exec_trace = trace::RecordTrace(sim_trace);
    if (!exec_trace.ok()) return MakeJsonErrorResponse(exec_trace.status());
    Result<trace::AttributionReport> report = trace::Analyze(*exec_trace);
    if (!report.ok()) return MakeJsonErrorResponse(report.status());
    // Size cap: the critical path of a big plan can run to thousands of
    // tasks; the summary keeps per-category totals exact and truncates the
    // task-by-task chain.
    trace::AttributionJsonOptions attribution_options;
    attribution_options.max_critical_path_entries = 128;
    attribution =
        trace::ToAttributionJson(*exec_trace, *report, attribution_options);
    if (options_.metrics != nullptr) options_.metrics->RecordExplain();

    // Feed the calibration buffer: every traced comm task becomes a
    // (predicted, measured) observation for the next POST /v1/calibrate.
    // Bounded — when full, the oldest observations fall off.
    if (options_.calibration_sample_capacity > 0) {
      std::vector<calibrate::CommObservation> observations =
          calibrate::ExtractObservations(*exec_trace);
      const double overlap = calibrate::EstimateOverlapSlowdown(*exec_trace);
      if (!observations.empty()) {
        std::lock_guard<std::mutex> lock(calibration_mu_);
        calibration_samples_.insert(
            calibration_samples_.end(),
            std::make_move_iterator(observations.begin()),
            std::make_move_iterator(observations.end()));
        if (calibration_samples_.size() >
            options_.calibration_sample_capacity) {
          calibration_samples_.erase(
              calibration_samples_.begin(),
              calibration_samples_.end() -
                  options_.calibration_sample_capacity);
        }
        if (overlap > calibration_overlap_estimate_) {
          calibration_overlap_estimate_ = overlap;
        }
        if (options_.metrics != nullptr) {
          options_.metrics->RecordCalibrationSamples();
        }
      }
    }
  }

  std::string stages;
  for (int64_t bytes : metrics->stage_peak_memory_bytes) {
    if (!stages.empty()) stages += ", ";
    stages += Int64Json(bytes);
  }
  auto double_array = [](const std::vector<double>& values) {
    std::string out;
    for (double value : values) {
      if (!out.empty()) out += ", ";
      out += JsonNumber(value);
    }
    return out;
  };
  HttpResponse response;
  response.body = StrFormat(
      "{\"metrics\": {\"comm_busy_sec\": %s, \"compute_busy_sec\": %s, "
      "\"iteration_seconds\": %s, \"max_peak_memory_bytes\": %s, "
      "\"num_comm_groups\": %d, \"num_tasks\": %d, \"oom\": %s, "
      "\"stage_comm_busy_sec\": [%s], \"stage_compute_busy_sec\": [%s], "
      "\"stage_peak_memory_bytes\": [%s], "
      "\"throughput_samples_per_sec\": %s}",
      JsonNumber(metrics->comm_busy_sec).c_str(),
      JsonNumber(metrics->compute_busy_sec).c_str(),
      JsonNumber(metrics->iteration_seconds).c_str(),
      Int64Json(metrics->max_peak_memory_bytes).c_str(),
      metrics->num_comm_groups, metrics->num_tasks,
      metrics->oom ? "true" : "false",
      double_array(metrics->stage_comm_busy_sec).c_str(),
      double_array(metrics->stage_compute_busy_sec).c_str(), stages.c_str(),
      JsonNumber(metrics->throughput_samples_per_sec).c_str());
  if (!attribution.empty()) {
    response.body += ", \"attribution\": " + attribution;
  }
  response.body += "}\n";
  return response;
}

HttpResponse PlanService::HandleCalibrate(const HttpRequest& request) {
  // An empty body means "fit with defaults".
  Result<JsonValue> parsed =
      ParseRequestObject(request.body, {"min_group_samples", "reset"},
                         /*blank_is_empty=*/true);
  if (!parsed.ok()) return MakeJsonErrorResponse(parsed.status());
  const JsonValue& root = *parsed;

  if (const JsonValue* reset_value = FindMember(root, "reset")) {
    if (reset_value->kind != JsonValue::Kind::kBool) {
      return MakeJsonErrorResponse(
          Status::InvalidArgument("'reset' must be a boolean"));
    }
    if (reset_value->boolean) {
      int64_t version;
      {
        std::lock_guard<std::mutex> lock(calibration_mu_);
        calibration_.reset();
        calibration_samples_.clear();
        calibration_overlap_estimate_ = 0.0;
        // The version still advances: cached plans priced by the dropped
        // profile must not answer post-reset requests.
        version = ++calibration_version_;
      }
      HttpResponse response;
      response.body = StrFormat(
          "{\"applied\": false, \"reset\": true, \"version\": %lld}\n",
          static_cast<long long>(version));
      return response;
    }
    // "reset": false falls through to a normal fit.
  }

  calibrate::FitOptions fit_options;
  if (FindMember(root, "min_group_samples") != nullptr) {
    Result<int64_t> min_samples = GetInt64(root, "min_group_samples", 1);
    if (!min_samples.ok()) return MakeJsonErrorResponse(min_samples.status());
    if (*min_samples > 1 << 20) {
      return MakeJsonErrorResponse(Status::InvalidArgument(
          "'min_group_samples' must be in [1, 1048576]"));
    }
    fit_options.min_group_samples = static_cast<int>(*min_samples);
  }

  if (options_.calibration_sample_capacity == 0) {
    return MakeJsonErrorResponse(Status::FailedPrecondition(
        "calibration sample capture is disabled "
        "(calibration_sample_capacity = 0)"));
  }

  // Fit outside the lock on a copy: a fit over a full buffer is O(n) work
  // that must not stall concurrent /v1/measure capture.
  std::vector<calibrate::CommObservation> observations;
  double overlap_estimate;
  {
    std::lock_guard<std::mutex> lock(calibration_mu_);
    observations = calibration_samples_;
    overlap_estimate = calibration_overlap_estimate_;
  }
  if (observations.empty()) {
    if (options_.metrics != nullptr) {
      options_.metrics->RecordCalibration(false);
    }
    return MakeJsonErrorResponse(Status::FailedPrecondition(
        "no calibration samples: run POST /v1/measure with "
        "\"explain\": true first"));
  }

  Result<calibrate::CalibrationProfile> fitted =
      calibrate::FitCalibrationProfile(observations, overlap_estimate,
                                       fit_options);
  if (!fitted.ok()) {
    if (options_.metrics != nullptr) {
      options_.metrics->RecordCalibration(false);
    }
    return MakeJsonErrorResponse(fitted.status());
  }

  const std::string profile_json = CalibrationProfileToJson(*fitted);
  auto profile = std::make_shared<const calibrate::CalibrationProfile>(
      std::move(*fitted));
  int64_t version;
  {
    std::lock_guard<std::mutex> lock(calibration_mu_);
    calibration_ = profile;
    version = ++calibration_version_;
  }
  if (options_.metrics != nullptr) options_.metrics->RecordCalibration(true);

  HttpResponse response;
  response.body = StrFormat(
      "{\"applied\": true, \"samples\": %lld, \"version\": %lld, "
      "\"profile\": %s}\n",
      static_cast<long long>(observations.size()),
      static_cast<long long>(version), profile_json.c_str());
  return response;
}

HttpResponse PlanService::HandleHealthz() const {
  HttpResponse response;
  response.body = StrFormat("{\"status\": \"ok\", \"version\": \"%s\"}\n",
                            Galvatron::Version().c_str());
  return response;
}

HttpResponse PlanService::HandleMetrics() const {
  HttpResponse response;
  response.content_type = "text/plain; version=0.0.4";
  if (options_.metrics != nullptr) response.body = options_.metrics->Render();
  const PlanCache::Stats stats = plan_cache_.stats();
  response.body += StrFormat(
      "# HELP galvatron_serve_plan_cache_size Entries in the plan cache.\n"
      "# TYPE galvatron_serve_plan_cache_size gauge\n"
      "galvatron_serve_plan_cache_size %lld\n"
      "# HELP galvatron_serve_plan_cache_capacity Plan cache capacity.\n"
      "# TYPE galvatron_serve_plan_cache_capacity gauge\n"
      "galvatron_serve_plan_cache_capacity %lld\n"
      "# HELP galvatron_serve_plan_cache_evictions_total LRU evictions.\n"
      "# TYPE galvatron_serve_plan_cache_evictions_total counter\n"
      "galvatron_serve_plan_cache_evictions_total %lld\n",
      static_cast<long long>(stats.size),
      static_cast<long long>(stats.capacity),
      static_cast<long long>(stats.evictions));
  response.body += StrFormat(
      "# HELP galvatron_serve_plan_cache_persisted_entries Plan-cache "
      "entries durable in the journal (0 when persistence is off or "
      "disabled).\n"
      "# TYPE galvatron_serve_plan_cache_persisted_entries gauge\n"
      "galvatron_serve_plan_cache_persisted_entries %lld\n"
      "# HELP galvatron_serve_plan_cache_journal_restored Entries restored "
      "from the journal at startup.\n"
      "# TYPE galvatron_serve_plan_cache_journal_restored gauge\n"
      "galvatron_serve_plan_cache_journal_restored %lld\n",
      static_cast<long long>(stats.journal_enabled ? stats.size : 0),
      static_cast<long long>(stats.journal_restored));
  response.body += StrFormat(
      "# HELP galvatron_serve_plan_cache_journal_bytes Current size of the "
      "plan-cache journal file.\n"
      "# TYPE galvatron_serve_plan_cache_journal_bytes gauge\n"
      "galvatron_serve_plan_cache_journal_bytes %lld\n"
      "# HELP galvatron_serve_plan_cache_journal_compactions_total "
      "Size-triggered journal compactions.\n"
      "# TYPE galvatron_serve_plan_cache_journal_compactions_total counter\n"
      "galvatron_serve_plan_cache_journal_compactions_total %lld\n",
      static_cast<long long>(stats.journal_bytes),
      static_cast<long long>(stats.journal_compactions));
  return response;
}

}  // namespace serve
}  // namespace galvatron
