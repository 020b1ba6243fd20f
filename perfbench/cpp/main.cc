/// perfbench: driver of the benchmark of record (see ../README.md).
///
///   perfbench --workload plan_cold|serve_zipf|serve_calibrate --seed N
///             --seconds S --trace 0|1 [--ops N] [--search-threads N]
///             [--out-dir DIR] [--git-revision REV]
///
/// Runs one workload and prints, last on stdout,
///   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
/// with every end-to-end metric (--trace 0) or every per-layer metric
/// (--trace 1) that BENCHMARK.json declares. The line before it is the run
/// record ("perfbench-record {...}"), also written under --out-dir.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <system_error>
#include <vector>

#include "bench.h"
#include "util/json.h"
#include "util/string_util.h"

namespace perfbench {
namespace {

using galvatron::JsonEscape;
using galvatron::JsonNumber;
using galvatron::StrFormat;

/// The metrics BENCHMARK.json declares; every run prints one list in full.
const std::vector<std::string> kEndToEnd = {
    "setup_s",         "peak_rss_mb",          "plans_per_s",
    "plan_ms_p50",     "plan_ms_p90",          "plan_sim_sps_geomean",
    "req_per_s",       "req_ms_p50",           "req_ms_p99",
    "plan_req_ms_p99", "measure_req_ms_p50"};
const std::vector<std::string> kPerLayer = {
    "search.configs_explored",   "search.dp_states",
    "search.dp_frontier_hit_ratio", "search.cost_cache_hit_ratio",
    "search.enumerate_ms",       "search.sweep_ms_share",
    "search.sweep_allocations",  "search.cpu_busy_ratio",
    "search.dp_run_us",          "estimator.calls",
    "estimator.layer_us",        "estimator.plan_us",
    "parallel.candidates",       "parallel.enumerate_us",
    "serve.handler_ms_p50",      "serve.handler_ms_p99",
    "serve.wire_ms_p50",         "serve.plan_cache_hit_ratio",
    "serve.warm_start_ratio",    "serve.coalesced_ratio",
    "serve.cold_ratio",          "serve.search_ms_share",
    "serve.rejected",            "util.json_parse_us_per_kb",
    "cluster.json_parse_us",     "api.plan_to_json_us",
    "sim.run_ms",                "sim.tasks",
    "trace.record_analyze_ms",   "trace.attribution_json_kb",
    "calibrate.fit_ms",          "calibrate.samples",
    "calibrate.applied_ratio",   "tracing_overhead_ratio"};

struct Args {
  RunConfig config;
  std::string revision = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  RunConfig& config = args->config;
  if (argc % 2 != 1) return false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::atof(value);
    } else if (flag == "--trace") {
      config.trace = std::atoi(value) != 0;
    } else if (flag == "--ops") {
      config.ops = std::atoi(value);
    } else if (flag == "--search-threads") {
      config.search_threads = std::atoi(value);
    } else if (flag == "--out-dir") {
      config.out_dir = value;
    } else if (flag == "--git-revision") {
      args->revision = value;
    } else {
      return false;
    }
  }
  return !config.workload.empty() && config.seconds > 0.0 && config.ops >= 0 &&
         config.search_threads >= 0;
}

std::string RunRecord(const Args& args, const RunResult& result,
                      const std::vector<std::string>& names) {
  const RunConfig& config = args.config;
  std::string record = StrFormat(
      "{\"host\": {\"nproc\": %d, \"search_threads\": %d, "
      "\"serve_clients\": %d, \"build_type\": \"%s\", \"compiler\": "
      "\"%s\", \"git_revision\": \"%s\"}",
      HostCpus(),
      config.search_threads > 0 ? config.search_threads : ClientThreads(),
      kServeClients, PERFBENCH_BUILD_TYPE,
      JsonEscape(__VERSION__).c_str(), JsonEscape(args.revision).c_str());
  record += StrFormat(
      ", \"run\": {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %s, "
      "\"trace\": %d, \"ops\": %d, \"rounds\": %d, \"attempted\": %lld, "
      "\"failed\": %lld, \"fail_ratio\": %s, \"mix_digest\": \"%s\"}",
      JsonEscape(config.workload).c_str(),
      static_cast<unsigned long long>(config.seed),
      JsonNumber(config.seconds).c_str(), config.trace ? 1 : 0, config.ops,
      result.rounds, static_cast<long long>(result.attempted),
      static_cast<long long>(result.failed),
      JsonNumber(Ratio(static_cast<double>(result.failed),
                       static_cast<double>(result.attempted)))
          .c_str(),
      result.mix_digest.c_str());
  record += ", \"metrics\": {";
  for (size_t i = 0; i < names.size(); ++i) {
    const Metric& metric = result.metrics.at(names[i]);
    const std::vector<double> values =
        metric.rounds.empty() ? std::vector<double>{metric.value}
                              : metric.rounds;
    record += StrFormat(
        "%s\"%s\": {\"value\": %s, \"unit\": \"%s\", \"median\": %s, "
        "\"q1\": %s, \"q3\": %s, \"n\": %zu}",
        i == 0 ? "" : ", ", names[i].c_str(), JsonNumber(metric.value).c_str(),
        metric.unit.c_str(), JsonNumber(Median(values)).c_str(),
        JsonNumber(Percentile(values, 25.0)).c_str(),
        JsonNumber(Percentile(values, 75.0)).c_str(), values.size());
  }
  record += "}, \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : result.counters) {
    record += StrFormat("%s\"%s\": %s", first ? "" : ", ", name.c_str(),
                        JsonNumber(value).c_str());
    first = false;
  }
  record += "}, \"plan_digests\": [";
  for (size_t i = 0; i < result.plan_digests.size(); ++i) {
    record += StrFormat("%s\"%s\"", i == 0 ? "" : ", ",
                        result.plan_digests[i].c_str());
  }
  return record + "]}";
}

std::string ResultLine(const RunResult& result,
                       const std::vector<std::string>& names) {
  std::string line = StrFormat(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
      "\"metrics\": {",
      result.failed == 0 ? "true" : "false",
      static_cast<long long>(result.attempted),
      static_cast<long long>(result.failed));
  for (size_t i = 0; i < names.size(); ++i) {
    const Metric& metric = result.metrics.at(names[i]);
    line += StrFormat("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                      i == 0 ? "" : ", ", names[i].c_str(),
                      JsonNumber(metric.value).c_str(), metric.unit.c_str());
  }
  return line + "}}";
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload plan_cold|serve_zipf|"
                 "serve_calibrate --seed N --seconds S --trace 0|1 [--ops N] "
                 "[--search-threads N] [--out-dir DIR] [--git-revision REV]\n");
    return 2;
  }
  RunConfig& config = args.config;
  HostCpus();  // records the CPUs the process may use before any pinning
  if (config.out_dir.empty()) config.out_dir = ".bench_build/perfbench-results";

  RunResult result;
  if (config.workload == "plan_cold") {
    result = RunPlanCold(config);
  } else if (config.workload == "serve_zipf") {
    result = RunServeZipf(config);
  } else if (config.workload == "serve_calibrate") {
    result = RunServeCalibrate(config);
  } else {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 config.workload.c_str());
    return 2;
  }

  const std::vector<std::string>& names = config.trace ? kPerLayer : kEndToEnd;
  for (const std::string& name : names) {
    if (result.metrics.count(name) == 0) {
      std::fprintf(stderr, "perfbench: %s did not report %s\n",
                   config.workload.c_str(), name.c_str());
      return 3;
    }
  }
  const std::string tag =
      StrFormat("%s-s%llu-trace%d", config.workload.c_str(),
                static_cast<unsigned long long>(config.seed),
                config.trace ? 1 : 0);
  const std::string record = RunRecord(args, result, names);
  std::error_code error;
  std::filesystem::create_directories(config.out_dir, error);
  std::ofstream(config.out_dir + "/" + tag + ".record.json") << record << "\n";
  if (config.trace) {
    std::fprintf(stderr, "%s",
                 Tracer::Global().WriteFiles(config.out_dir, tag).c_str());
  }
  for (const std::string& note : result.failure_notes) {
    std::fprintf(stderr, "perfbench: failed: %s\n", note.c_str());
  }
  std::printf("perfbench-record %s\n%s\n", record.c_str(),
              ResultLine(result, names).c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
