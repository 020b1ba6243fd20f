/// galvatron_cli — plan hybrid-parallel Transformer training from the
/// command line.
///
/// Examples:
///   galvatron_cli --model bert-huge-32 --nodes 1 --gpus 8 --memory-gb 16
///   galvatron_cli --model swin-huge-48 --memory-gb 8 --recompute
///       --schedule 1f1b --json-out plan.json --trace-out trace.json
///   galvatron_cli --model vit-huge-32 --mode sdp        # a pure baseline
///   galvatron_cli --list-models

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "api/galvatron.h"
#include "api/plan_io.h"
#include "calibrate/fit.h"
#include "calibrate/profile.h"
#include "serve/http.h"
#include "trace/analyzer.h"
#include "trace/export.h"
#include "trace/trace.h"
#include "util/json.h"
#include "util/string_util.h"

namespace galvatron {
namespace {

struct CliArgs {
  std::string model = "bert-huge-32";
  int nodes = 1;
  int gpus_per_node = 8;
  double memory_gb = 16;
  std::string intra_link = "pcie";
  std::string inter_link = "ib";
  std::string topology_file;  // heterogeneous cluster spec (JSON)
  std::string mode = "galvatron";
  std::string schedule;  // empty: --schedule not given (gpipe)
  bool recompute = false;
  int search_threads = 1;
  std::string json_out;
  std::string trace_out;
  std::string explain_json;  // attribution report as JSON
  bool explain = false;      // print the attribution table
  /// Attribution reports to fit a calibration profile from (--calibrate,
  /// repeatable / comma-separated). Non-empty switches the CLI into
  /// fit-and-exit mode; the profile is written to `calibration_file`.
  std::vector<std::string> calibrate_inputs;
  std::string calibration_file;  // profile to write (fit) or apply (plan)
  std::string server;       // host:port of a galvatron_serve daemon
  double deadline_ms = 0;   // per-request server deadline (0 = none)
  bool async_plan = false;  // submit async, then poll /v1/plan/<id>
  bool list_models = false;
  bool help = false;
};

void PrintUsage() {
  std::printf(R"(galvatron_cli: automatic hybrid-parallel training plans

  --model NAME        model from the zoo (--list-models); default bert-huge-32
  --nodes N           number of nodes (default 1)
  --gpus N            GPUs per node (default 8)
  --memory-gb G       per-GPU memory budget in decimal GB (default 16)
  --intra-link L      pcie | nvlink        (default pcie)
  --inter-link L      ib | ethernet        (default ib)
  --topology FILE     plan on a heterogeneous cluster loaded from a
                      topology JSON file ({"name", "topology": {"nodes",
                      "islands"}}, see docs/topology.md); replaces
                      --nodes/--gpus/--memory-gb/--*-link
  --mode M            galvatron | dp | tp | pp | sdp | 3d | dp+tp | dp+pp
  --schedule S        gpipe | 1f1b         (default gpipe; searched modes)
  --recompute         allow per-layer activation checkpointing (searched
                      modes: galvatron, dp+tp, dp+pp)
  --search-threads N  worker threads for the strategy sweep
                      (default 1 = serial, 0 = all hardware threads;
                      the resulting plan is identical for every N)
  --json-out FILE     write the plan as JSON
  --trace FILE        write a Chrome trace of the simulated iteration
                      (load in https://ui.perfetto.dev; --trace-out is an
                      alias). One track per simulated stream, slices
                      colored by cost category, per-device memory counters
  --explain           print the per-category time-attribution table:
                      critical-path breakdown, busy and contention-lost
                      seconds (rows sum to the iteration time)
  --explain-json FILE write the machine-readable attribution report
                      (--attribution is an alias); includes the
                      comm_samples the calibration fitter ingests
  --calibrate FILES   fit a calibration profile from one or more
                      attribution reports (comma-separated, flag
                      repeatable) and write it to the --calibration path,
                      then exit. See docs/calibration.md
  --calibration FILE  with --calibrate: where to write the fitted profile.
                      Alone: load the profile and apply it to the
                      estimator while planning (absent profile keeps the
                      analytic estimates byte-identical)
  --server HOST:PORT  don't search locally; POST the request to a running
                      galvatron_serve daemon and print its answer
  --deadline-ms X     per-request search deadline in server mode
  --async             server mode: submit with "async": true, then poll
                      GET /v1/plan/<id> until the plan is ready
  --list-models       print zoo models and exit
)");
}

Result<ModelId> FindModel(const std::string& name) {
  for (ModelId id : AllModelIds()) {
    std::string candidate(ModelIdToString(id));
    for (char& c : candidate) c = static_cast<char>(std::tolower(c));
    if (candidate == name) return id;
  }
  return Status::NotFound(StrFormat("unknown model '%s'", name.c_str()));
}

Result<BaselineKind> FindMode(const std::string& mode) {
  static const std::map<std::string, BaselineKind> kModes = {
      {"galvatron", BaselineKind::kGalvatron},
      {"dp", BaselineKind::kPureDp},
      {"tp", BaselineKind::kPureTp},
      {"pp", BaselineKind::kPurePp},
      {"sdp", BaselineKind::kPureSdp},
      {"3d", BaselineKind::kDeepSpeed3d},
      {"dp+tp", BaselineKind::kAutoDpTp},
      {"dp+pp", BaselineKind::kAutoDpPp},
  };
  auto it = kModes.find(mode);
  if (it == kModes.end()) {
    return Status::InvalidArgument(StrFormat("unknown mode '%s'",
                                             mode.c_str()));
  }
  return it->second;
}

Result<CliArgs> ParseArgs(int argc, char** argv) {
  CliArgs args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto next = [&]() -> Result<std::string> {
      if (i + 1 >= argc) {
        return Status::InvalidArgument(flag + " needs a value");
      }
      return std::string(argv[++i]);
    };
    if (flag == "--model") {
      GALVATRON_ASSIGN_OR_RETURN(args.model, next());
    } else if (flag == "--nodes") {
      GALVATRON_ASSIGN_OR_RETURN(std::string v, next());
      args.nodes = std::atoi(v.c_str());
    } else if (flag == "--gpus") {
      GALVATRON_ASSIGN_OR_RETURN(std::string v, next());
      args.gpus_per_node = std::atoi(v.c_str());
    } else if (flag == "--memory-gb") {
      GALVATRON_ASSIGN_OR_RETURN(std::string v, next());
      args.memory_gb = std::atof(v.c_str());
    } else if (flag == "--intra-link") {
      GALVATRON_ASSIGN_OR_RETURN(args.intra_link, next());
    } else if (flag == "--inter-link") {
      GALVATRON_ASSIGN_OR_RETURN(args.inter_link, next());
    } else if (flag == "--topology") {
      GALVATRON_ASSIGN_OR_RETURN(args.topology_file, next());
    } else if (flag == "--mode") {
      GALVATRON_ASSIGN_OR_RETURN(args.mode, next());
    } else if (flag == "--schedule") {
      GALVATRON_ASSIGN_OR_RETURN(args.schedule, next());
    } else if (flag == "--recompute") {
      args.recompute = true;
    } else if (flag == "--search-threads") {
      GALVATRON_ASSIGN_OR_RETURN(std::string v, next());
      // Negative values are rejected by the optimizer's options validation
      // (one authority for every entry point: CLI, API, serve); the
      // InvalidArgument it returns is reported on stderr like any other.
      args.search_threads = std::atoi(v.c_str());
    } else if (flag == "--json-out") {
      GALVATRON_ASSIGN_OR_RETURN(args.json_out, next());
    } else if (flag == "--trace" || flag == "--trace-out") {
      GALVATRON_ASSIGN_OR_RETURN(args.trace_out, next());
    } else if (flag == "--explain") {
      args.explain = true;
    } else if (flag == "--explain-json" || flag == "--attribution") {
      GALVATRON_ASSIGN_OR_RETURN(args.explain_json, next());
    } else if (flag == "--calibrate") {
      GALVATRON_ASSIGN_OR_RETURN(std::string v, next());
      size_t start = 0;
      while (start <= v.size()) {
        const size_t comma = v.find(',', start);
        const std::string part =
            v.substr(start, comma == std::string::npos ? std::string::npos
                                                       : comma - start);
        if (!part.empty()) args.calibrate_inputs.push_back(part);
        if (comma == std::string::npos) break;
        start = comma + 1;
      }
      if (args.calibrate_inputs.empty()) {
        return Status::InvalidArgument(
            "--calibrate needs at least one attribution report");
      }
    } else if (flag == "--calibration") {
      GALVATRON_ASSIGN_OR_RETURN(args.calibration_file, next());
    } else if (flag == "--server") {
      GALVATRON_ASSIGN_OR_RETURN(args.server, next());
    } else if (flag == "--deadline-ms") {
      GALVATRON_ASSIGN_OR_RETURN(std::string v, next());
      args.deadline_ms = std::atof(v.c_str());
      if (args.deadline_ms <= 0) {
        return Status::InvalidArgument("--deadline-ms must be > 0");
      }
    } else if (flag == "--async") {
      args.async_plan = true;
    } else if (flag == "--list-models") {
      args.list_models = true;
    } else if (flag == "--help" || flag == "-h") {
      args.help = true;
    } else {
      return Status::InvalidArgument("unknown flag " + flag);
    }
  }
  return args;
}

ClusterSpec BuildCliCluster(const CliArgs& args) {
  const LinkClass intra = args.intra_link == "nvlink" ? LinkClass::kNvLink
                                                      : LinkClass::kPcie3;
  const LinkClass inter = args.inter_link == "ethernet"
                              ? LinkClass::kEthernet10
                              : LinkClass::kInfiniBand100;
  return MakeHomogeneousCluster(
      "cli-cluster", args.nodes, args.gpus_per_node,
      static_cast<int64_t>(args.memory_gb * 1e9),
      /*sustained_flops=*/args.intra_link == "nvlink" ? 17e12 : 6.5e12, intra,
      inter);
}

/// The planning cluster: a homogeneous one from the shape flags, or a
/// (possibly heterogeneous, graph-priced) one loaded from --topology.
Result<ClusterSpec> LoadCliCluster(const CliArgs& args) {
  if (args.topology_file.empty()) {
    if (args.nodes < 1 || args.gpus_per_node < 1 || args.memory_gb <= 0) {
      return Status::InvalidArgument("bad cluster shape");
    }
    return BuildCliCluster(args);
  }
  std::ifstream in(args.topology_file);
  if (!in) {
    return Status::NotFound("cannot read topology file " +
                            args.topology_file);
  }
  std::string json((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  return ParseTopologyClusterJson(json);
}

/// --calibrate mode: ingest attribution reports (galvatron_cli
/// --attribution, or /v1/measure with "explain"), fit per-(link class,
/// collective kind, size bucket) comm scales plus the overlap slowdown, and
/// write the profile to the --calibration path.
Result<int> RunCalibrate(const CliArgs& args) {
  if (args.calibration_file.empty()) {
    return Status::InvalidArgument(
        "--calibrate needs --calibration FILE naming the output profile");
  }
  std::vector<calibrate::CommObservation> observations;
  double overlap = 0.0;
  for (const std::string& path : args.calibrate_inputs) {
    std::ifstream in(path);
    if (!in) {
      return Status::NotFound("cannot read attribution report " + path);
    }
    std::string json((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    GALVATRON_ASSIGN_OR_RETURN(calibrate::AttributionSamples samples,
                               calibrate::ParseAttributionSamples(json));
    observations.insert(observations.end(), samples.observations.begin(),
                        samples.observations.end());
    overlap = std::max(overlap, samples.overlap_slowdown_estimate);
    std::printf("ingested %s: %d comm samples\n", path.c_str(),
                static_cast<int>(samples.observations.size()));
  }
  GALVATRON_ASSIGN_OR_RETURN(
      calibrate::CalibrationProfile profile,
      calibrate::FitCalibrationProfile(observations, overlap));
  std::ofstream out(args.calibration_file);
  if (!out) return Status::Internal("cannot write " + args.calibration_file);
  out << calibrate::CalibrationProfileToJson(profile) << "\n";
  std::printf(
      "fitted %d calibration groups from %lld samples (overlap slowdown "
      "%s)\nprofile written to %s\n",
      static_cast<int>(profile.groups.size()),
      static_cast<long long>(profile.fitted_events),
      profile.overlap_slowdown > 0.0
          ? StrFormat("%.3f", profile.overlap_slowdown).c_str()
          : "unset",
      args.calibration_file.c_str());
  return 0;
}

/// --calibration (planning mode): load and validate a fitted profile.
Result<calibrate::CalibrationProfile> LoadCalibration(
    const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot read calibration profile " + path);
  std::string json((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  return calibrate::ParseCalibrationProfileJson(json);
}

/// --server mode: ship the same planning request to a galvatron_serve
/// daemon over HTTP and render its answer like a local run would be.
Result<int> RunRemote(const CliArgs& args) {
  if (args.mode != "galvatron") {
    return Status::InvalidArgument(
        "--mode baselines run locally; the server always answers with the "
        "full Galvatron search");
  }
  if (!args.trace_out.empty() || args.explain || !args.explain_json.empty()) {
    return Status::InvalidArgument(
        "--trace/--explain are local-only (POST /v1/measure with "
        "\"explain\": true for a served attribution summary)");
  }
  if (!args.calibration_file.empty()) {
    return Status::InvalidArgument(
        "--calibration is local-only (POST /v1/calibrate fits and applies "
        "a profile on the daemon)");
  }
  const size_t colon = args.server.rfind(':');
  if (colon == std::string::npos) {
    return Status::InvalidArgument("--server expects HOST:PORT");
  }
  const std::string host = args.server.substr(0, colon);
  const int port = std::atoi(args.server.c_str() + colon + 1);
  if (port <= 0 || port > 65535) {
    return Status::InvalidArgument("--server expects HOST:PORT");
  }

  GALVATRON_ASSIGN_OR_RETURN(ModelId model_id, FindModel(args.model));
  GALVATRON_ASSIGN_OR_RETURN(const ClusterSpec cluster,
                             LoadCliCluster(args));

  std::string body = StrFormat(
      "{\"model\": \"%s\", \"cluster\": %s, \"options\": "
      "{\"schedule\": \"%s\", \"allow_recompute\": %s, "
      "\"search_threads\": %d}",
      std::string(ModelIdToString(model_id)).c_str(),
      ClusterSpecToJson(cluster).c_str(),
      args.schedule == "1f1b" ? "1f1b" : "gpipe",
      args.recompute ? "true" : "false", args.search_threads);
  if (args.deadline_ms > 0) {
    body += StrFormat(", \"deadline_ms\": %s",
                      JsonNumber(args.deadline_ms).c_str());
  }
  if (args.async_plan) body += ", \"async\": true";
  body += "}";

  GALVATRON_ASSIGN_OR_RETURN(
      serve::HttpResponse response,
      serve::HttpFetch(host, port, "POST", "/v1/plan", body));
  if (args.async_plan) {
    if (response.status != 202) {
      std::fprintf(stderr, "server answered HTTP %d: %s\n", response.status,
                   response.body.c_str());
      return 1;
    }
    GALVATRON_ASSIGN_OR_RETURN(JsonValue accepted, ParseJson(response.body));
    GALVATRON_ASSIGN_OR_RETURN(const std::string poll,
                               GetString(accepted, "poll"));
    std::printf("accepted: polling %s\n", poll.c_str());
    // Poll until the job resolves. The terminal response is byte-identical
    // to what the synchronous request would have returned.
    for (;;) {
      GALVATRON_ASSIGN_OR_RETURN(response,
                                 serve::HttpFetch(host, port, "GET", poll, ""));
      if (response.status != 202) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  }
  if (response.status != 200) {
    std::fprintf(stderr, "server answered HTTP %d: %s\n", response.status,
                 response.body.c_str());
    return 1;
  }
  GALVATRON_ASSIGN_OR_RETURN(JsonValue root, ParseJson(response.body));
  GALVATRON_ASSIGN_OR_RETURN(
      const JsonValue* plan_value,
      GetMember(root, "plan", JsonValue::Kind::kObject));
  GALVATRON_ASSIGN_OR_RETURN(TrainingPlan plan,
                             PlanFromJsonValue(*plan_value));
  GALVATRON_ASSIGN_OR_RETURN(bool cache_hit, GetBool(root, "plan_cache_hit"));

  std::printf("%s\n", plan.ToString().c_str());
  if (const JsonValue* stats = FindMember(root, "search_stats")) {
    GALVATRON_ASSIGN_OR_RETURN(int configs,
                               GetInt(*stats, "configs_explored", 0));
    GALVATRON_ASSIGN_OR_RETURN(int64_t hits,
                               GetInt64(*stats, "cost_cache_hits", 0));
    GALVATRON_ASSIGN_OR_RETURN(int64_t misses,
                               GetInt64(*stats, "cost_cache_misses", 0));
    std::printf("server search: %d configs; cost cache %lld hits, %lld "
                "misses%s\n",
                configs, static_cast<long long>(hits),
                static_cast<long long>(misses),
                cache_hit ? "  [served from plan cache]" : "");
  }
  if (const JsonValue* estimated = FindMember(root, "estimated")) {
    GALVATRON_ASSIGN_OR_RETURN(
        double throughput,
        GetDouble(*estimated, "throughput_samples_per_sec"));
    std::printf("estimated: %.2f samples/s\n", throughput);
  }
  if (!args.json_out.empty()) {
    std::ofstream out(args.json_out);
    if (!out) return Status::Internal("cannot write " + args.json_out);
    out << PlanToJson(plan);
    std::printf("plan written to %s\n", args.json_out.c_str());
  }
  return 0;
}

Result<int> RunCli(const CliArgs& args) {
  if (args.list_models) {
    for (ModelId id : AllModelIds()) {
      std::string name(ModelIdToString(id));
      for (char& c : name) c = static_cast<char>(std::tolower(c));
      ModelStatistics stats = ComputeStatistics(BuildModel(id));
      std::printf("%-14s %6.0fM params, %8.1f MB activations/sample\n",
                  name.c_str(), stats.param_count / 1e6,
                  stats.activation_bytes_per_sample / 1048576.0);
    }
    return 0;
  }

  if (!args.calibrate_inputs.empty()) {
    if (!args.server.empty()) {
      return Status::InvalidArgument(
          "--calibrate runs locally (POST /v1/calibrate fits on the "
          "daemon)");
    }
    return RunCalibrate(args);
  }
  if (!args.server.empty()) return RunRemote(args);

  GALVATRON_ASSIGN_OR_RETURN(ModelId model_id, FindModel(args.model));
  GALVATRON_ASSIGN_OR_RETURN(BaselineKind mode, FindMode(args.mode));
  // Recompute and the schedule are knobs of the searched modes; a
  // fixed-strategy baseline would plan without them.
  if (mode != BaselineKind::kGalvatron && mode != BaselineKind::kAutoDpTp &&
      mode != BaselineKind::kAutoDpPp &&
      (args.recompute || !args.schedule.empty())) {
    return Status::InvalidArgument(StrFormat(
        "%s needs a searched --mode (galvatron, dp+tp or dp+pp), not '%s'",
        args.recompute ? "--recompute" : "--schedule", args.mode.c_str()));
  }

  GALVATRON_ASSIGN_OR_RETURN(ClusterSpec cluster, LoadCliCluster(args));

  // Loaded up front so the profile outlives every estimator built below.
  calibrate::CalibrationProfile calibration;
  bool have_calibration = false;
  if (!args.calibration_file.empty()) {
    GALVATRON_ASSIGN_OR_RETURN(calibration,
                               LoadCalibration(args.calibration_file));
    have_calibration = true;
  }

  ModelSpec model = BuildModel(model_id);
  std::printf("model:   %s (%.0fM params)\n", model.name().c_str(),
              model.TotalParams() / 1e6);
  std::printf("cluster: %s\n", cluster.ToString().c_str());
  if (have_calibration) {
    std::printf("calibration: %d groups from %lld samples (%s)\n",
                static_cast<int>(calibration.groups.size()),
                static_cast<long long>(calibration.fitted_events),
                args.calibration_file.c_str());
  }
  std::printf("\n");

  OptimizerOptions options;
  options.search_threads = args.search_threads;
  if (have_calibration) options.estimator.calibration = &calibration;
  options.allow_recompute = args.recompute;
  options.schedule = args.schedule == "1f1b" ? PipelineSchedule::k1F1B
                                             : PipelineSchedule::kGPipe;
  auto result = RunBaseline(mode, model, cluster, options);
  if (!result.ok()) {
    if (result.status().IsInfeasible()) {
      std::printf("OOM: %s\n", result.status().message().c_str());
      return 2;
    }
    return result.status();
  }

  std::printf("%s\n", result->plan.ToString().c_str());
  if (result->stats.configs_explored > 0) {
    const SearchStats& sstats = result->stats;
    std::printf(
        "search: %.3fs on %d threads (%d configs, %d pruned by bound, "
        "%lld DP drafts over budget; cost cache %lld hits, %lld misses)\n",
        sstats.search_seconds, sstats.search_threads_used,
        sstats.configs_explored, sstats.configs_pruned,
        static_cast<long long>(sstats.dp_drafts_over_budget),
        static_cast<long long>(sstats.cost_cache_hits),
        static_cast<long long>(sstats.cost_cache_misses));
  }

  const bool want_trace =
      !args.trace_out.empty() || args.explain || !args.explain_json.empty();
  SimOptions sim_options;
  sim_options.record_trace = want_trace;
  Simulator simulator(&cluster, sim_options);
  SimTrace sim_trace;
  GALVATRON_ASSIGN_OR_RETURN(
      SimMetrics metrics,
      want_trace ? simulator.Run(model, result->plan, &sim_trace)
                 : simulator.Run(model, result->plan));
  std::printf("estimated: %.2f samples/s\n",
              result->estimated.throughput_samples_per_sec);
  std::printf("simulated: %.2f samples/s, iteration %.3fs, peak %s%s\n",
              metrics.throughput_samples_per_sec, metrics.iteration_seconds,
              HumanBytes(static_cast<double>(metrics.max_peak_memory_bytes))
                  .c_str(),
              metrics.oom ? "  ** EXCEEDS BUDGET **" : "");

  if (!args.json_out.empty()) {
    std::ofstream out(args.json_out);
    if (!out) return Status::Internal("cannot write " + args.json_out);
    out << PlanToJson(result->plan);
    std::printf("plan written to %s\n", args.json_out.c_str());
  }
  if (want_trace) {
    GALVATRON_ASSIGN_OR_RETURN(trace::ExecutionTrace exec_trace,
                               trace::RecordTrace(sim_trace));
    GALVATRON_ASSIGN_OR_RETURN(trace::AttributionReport report,
                               trace::Analyze(exec_trace));
    if (args.explain) {
      std::printf("\n%s",
                  trace::RenderAttributionTable(exec_trace, report).c_str());
    }
    if (!args.trace_out.empty()) {
      std::ofstream out(args.trace_out);
      if (!out) return Status::Internal("cannot write " + args.trace_out);
      out << trace::ToChromeTraceJson(exec_trace) << "\n";
      std::printf("trace written to %s (open in https://ui.perfetto.dev)\n",
                  args.trace_out.c_str());
    }
    if (!args.explain_json.empty()) {
      std::ofstream out(args.explain_json);
      if (!out) return Status::Internal("cannot write " + args.explain_json);
      out << trace::ToAttributionJson(exec_trace, report) << "\n";
      std::printf("attribution written to %s\n", args.explain_json.c_str());
    }
  }
  return metrics.oom ? 2 : 0;
}

}  // namespace
}  // namespace galvatron

int main(int argc, char** argv) {
  auto args = galvatron::ParseArgs(argc, argv);
  if (!args.ok()) {
    std::fprintf(stderr, "%s\n", args.status().ToString().c_str());
    galvatron::PrintUsage();
    return 1;
  }
  if (args->help) {
    galvatron::PrintUsage();
    return 0;
  }
  auto exit_code = galvatron::RunCli(*args);
  if (!exit_code.ok()) {
    std::fprintf(stderr, "%s\n", exit_code.status().ToString().c_str());
    return 1;
  }
  return *exit_code;
}
