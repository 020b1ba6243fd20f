/// Shared declarations of the perfbench driver (see ../README.md): run
/// settings, statistics helpers, the span tracer, the per-layer probes and
/// the three workloads.

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "api/galvatron.h"

namespace perfbench {

/// Settings of one run, parsed from the command line by main.cc.
struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// > 0: run exactly this many timed operations instead of a time window,
  /// so two runs can be compared op for op (selftest.py).
  int ops = 0;
  /// search_threads of plan_cold's Plan calls; 0 means ClientThreads().
  int search_threads = 0;
  /// Directory for the trace, the self-time table and the run record.
  std::string out_dir;
};

/// CPUs this process may run on (what `nproc` prints), as found at start.
int HostCpus();
/// Pins every thread of the process, and so the threads they start, to the
/// `slot % nproc`-th CPU it may run on; a negative slot gives them all
/// back every CPU.
void PinProcess(int slot);
/// Sweep threads of plan_cold and of the probes' Plan calls: min(4, nproc).
int ClientThreads();
/// Closed-loop connections of the serve workloads (see ../README.md for
/// why one).
constexpr int kServeClients = 1;

double NowSeconds();
/// CPU seconds consumed by the whole process so far.
double ProcessCpuSeconds();
/// Peak resident set size of this process, in MB.
double PeakRssMb();

/// Linear-interpolated percentile, p in [0, 100]; 0 for no samples.
double Percentile(std::vector<double> values, double p);
double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);
double GeoMean(const std::vector<double>& values);
/// num / den, or 0 when den is 0.
double Ratio(double num, double den);
uint64_t Fnv1a(const std::string& text,
               uint64_t hash = 14695981039346656037ull);
std::string Hex(uint64_t value);

/// Uniform double in [0, 1) as a pure function of (seed, stream, index):
/// op i of a stream is drawn without generating ops 0..i-1, so the ops a
/// run issues do not depend on how far a time-bounded run gets.
double UnitDraw(uint64_t seed, uint64_t stream, uint64_t index);

/// One plan to measure, with the inputs that produced it.
struct MeasureInput {
  const galvatron::ModelSpec* model = nullptr;
  const galvatron::TrainingPlan* plan = nullptr;
  const galvatron::ClusterSpec* cluster = nullptr;
};

/// Measures `input` the way /v1/measure with "explain" does — a traced
/// simulation, RecordTrace, Analyze and the attribution JSON — and returns
/// the wall time in ms; `metrics` receives the simulation result. The call
/// runs pinned to the `index % nproc`-th CPU the process may use, so a
/// caller that numbers its measures spreads them over every CPU: on a
/// shared host single CPUs turn slower and faster for seconds at a time,
/// and measures that all ran on one of them would time that CPU.
double MeasureMs(const MeasureInput& input, size_t index,
                 galvatron::Result<galvatron::SimMetrics>* metrics);

/// The mixed A100 + TITAN 16-GPU cluster of
/// examples/mixed_a100_titan_16.json.
galvatron::ClusterSpec MixedA100Titan16();

struct Metric {
  double value = 0.0;
  std::string unit;
  /// Per-round or per-repeat values behind `value`; the run record reports
  /// their median and quartiles. Empty for metrics pooled over the run.
  std::vector<double> rounds;
};

/// Everything one run reports.
struct RunResult {
  int64_t attempted = 0;
  /// Failed calls, non-200 responses and output-check mismatches.
  int64_t failed = 0;
  std::vector<std::string> failure_notes;  // the first few, for stderr
  std::map<std::string, Metric> metrics;
  int rounds = 0;
  /// Determinism fingerprints compared by selftest.py.
  std::string mix_digest;
  std::vector<std::string> plan_digests;
  std::map<std::string, double> counters;

  void Fail(const std::string& note, int64_t count = 1);
  void Set(const std::string& name, double value, const std::string& unit,
           std::vector<double> rounds = {});
};

/// Runs `setup` `repeats` times, sets setup_s to the median wall time and
/// returns the last result. Earlier results are destroyed outside the
/// timed region.
template <typename Fn>
auto TimedSetup(int repeats, RunResult* result, Fn&& setup) {
  std::vector<double> seconds;
  decltype(setup()) kept;
  for (int i = 0; i < repeats; ++i) {
    const double start = NowSeconds();
    auto fresh = setup();
    seconds.push_back(NowSeconds() - start);
    kept = std::move(fresh);
  }
  result->Set("setup_s", Median(seconds), "s", seconds);
  return kept;
}

// ---- Tracing ---------------------------------------------------------------

/// One recorded span; times are steady-clock seconds.
struct SpanRecord {
  const char* name = "";
  double start = 0.0;
  double end = 0.0;
  int64_t id = 0;
  int64_t parent = 0;   // 0: a root span
  int64_t request = 0;  // the job or request the span belongs to
  int thread = 0;
};

/// Process-wide in-memory span store, written out once the run ends.
class Tracer {
 public:
  static Tracer& Global();
  int64_t NextId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }
  void Add(const SpanRecord& span);
  std::vector<SpanRecord> Spans() const;
  /// Writes <dir>/<tag>.trace.json (Chrome trace events; opens in
  /// ui.perfetto.dev) and <dir>/<tag>.selftime.txt, the per-span-name table
  /// of total and self time, and returns the table. A span's self time is
  /// its duration minus the part of it that its child spans cover.
  std::string WriteFiles(const std::string& dir, const std::string& tag) const;

 private:
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
  std::atomic<int64_t> next_id_{1};
};

/// Times one call into a layer and, when `record`, adds it to the tracer.
/// A recorded span without a `request` is the root of its own request.
class Span {
 public:
  Span(const char* name, bool record, int64_t parent = 0,
       int64_t request = 0);
  /// Stops the clock, records the span if asked, and returns its seconds.
  double Finish();
  int64_t id() const { return id_; }
  double start() const { return start_; }

 private:
  const char* name_;
  bool record_;
  int64_t id_ = 0;
  int64_t parent_;
  int64_t request_;
  double start_;
};

// ---- Per-layer measurement -------------------------------------------------

/// A plan a workload delivered, with the inputs that produced it. The
/// pointers refer to workload-owned specs that outlive the probes.
struct ReferencePlan {
  const galvatron::ModelSpec* model = nullptr;
  const galvatron::ClusterSpec* cluster = nullptr;
  galvatron::OptimizerOptions options;
  galvatron::TrainingPlan plan;
  /// The request body that asks for (or measures) this plan.
  std::string request_body;
};

/// One Galvatron::Plan call the benchmark made.
struct PlanCall {
  galvatron::SearchStats stats;
  double wall_seconds = 0.0;
  double cpu_seconds = 0.0;
};

/// Sets search.* and estimator.calls from Plan calls the benchmark made.
void SetSearchMetrics(const std::vector<PlanCall>& calls, RunResult* result);

/// Cold, sequential Plan calls with ClientThreads() sweep threads on each
/// of `plans`' inputs: the search.* source for workloads whose own
/// searches run inside the server.
std::vector<PlanCall> ProbePlanCalls(const std::vector<ReferencePlan>& plans,
                                     RunResult* result);

/// Calls each layer's public entry points on `plans` under spans, outside
/// any timed window, and sets the per-layer metrics they feed:
/// search.dp_run_us, estimator.layer_us/plan_us, parallel.*, the util,
/// cluster and api decode/encode times, sim.*, trace.*, and — when
/// `fit_calibration` — calibrate.* from one fit per probe trace.
void RunLayerProbes(const std::vector<ReferencePlan>& plans,
                    bool fit_calibration, RunResult* result);

/// serve.* for a workload without a server of its own: replays `plans`'
/// request bodies, each twice (a cold search, then a plan-cache hit),
/// through an in-process daemon.
void RunServeProbe(const std::vector<ReferencePlan>& plans,
                   RunResult* result);

RunResult RunPlanCold(const RunConfig& config);
RunResult RunServeZipf(const RunConfig& config);
RunResult RunServeCalibrate(const RunConfig& config);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
