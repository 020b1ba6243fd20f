/// Statistics helpers, the span tracer and run bookkeeping shared by the
/// workloads.

#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cstdlib>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <map>
#include <system_error>

#include "api/plan_io.h"
#include "trace/analyzer.h"
#include "trace/export.h"
#include "trace/trace.h"
#include "bench.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace perfbench {

namespace {

/// A copy of examples/mixed_a100_titan_16.json, so the benchmark's inputs
/// change only when the benchmark does.
constexpr char kMixedTopologyJson[] = R"json({
  "name": "mixed-a100-titan-16",
  "topology": {
    "nodes": [
      {"name": "spine", "first_device": 0, "num_devices": 16, "parent": -1,
       "internal": {"class": "IB-100Gb", "bandwidth_bytes_per_sec": 9.5e9,
                    "latency_sec": 2e-05}},
      {"name": "a100-node", "first_device": 0, "num_devices": 8, "parent": 0,
       "internal": {"class": "NVLink", "bandwidth_bytes_per_sec": 1.5e11,
                    "latency_sec": 6e-06},
       "uplink": {"class": "PCIe3", "bandwidth_bytes_per_sec": 5.8e9,
                  "latency_sec": 1.2e-05}},
      {"name": "titan-node", "first_device": 8, "num_devices": 8, "parent": 0,
       "internal": {"class": "PCIe3", "bandwidth_bytes_per_sec": 5.8e9,
                    "latency_sec": 1.2e-05},
       "uplink": {"class": "PCIe3", "bandwidth_bytes_per_sec": 5.8e9,
                  "latency_sec": 1.2e-05}}
    ],
    "islands": [
      {"name": "a100", "first_device": 0, "num_devices": 8,
       "sustained_flops": 6e13, "memory_bytes": 42949672960,
       "small_batch_half_life": 0.5},
      {"name": "titan", "first_device": 8, "num_devices": 8,
       "sustained_flops": 1.4e13, "memory_bytes": 12884901888,
       "small_batch_half_life": 0.0}
    ]
  },
  "pipeline_rpc_overhead_sec": 0.002
})json";

int ThreadIndex() {
  static std::atomic<int> next{1};
  thread_local const int index = next.fetch_add(1);
  return index;
}

/// The CPUs the process may run on, as the first call found them; empty
/// when the process cannot read its affinity.
const cpu_set_t& AllowedCpus() {
  static const cpu_set_t allowed = [] {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0) CPU_ZERO(&set);
    return set;
  }();
  return allowed;
}

/// The `slot % nproc`-th allowed CPU alone, or every allowed CPU for a
/// negative slot.
cpu_set_t CpuSlot(int slot) {
  const cpu_set_t& allowed = AllowedCpus();
  if (slot < 0 || CPU_COUNT(&allowed) == 0) return allowed;
  int skip = slot % CPU_COUNT(&allowed);
  cpu_set_t one;
  CPU_ZERO(&one);
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed) && skip-- == 0) {
      CPU_SET(cpu, &one);
      break;
    }
  }
  return one;
}

}  // namespace

int HostCpus() {
  const int count = CPU_COUNT(&AllowedCpus());
  return count > 0 ? count : galvatron::ThreadPool::HardwareThreads();
}

void PinProcess(int slot) {
  if (CPU_COUNT(&AllowedCpus()) == 0) return;
  const cpu_set_t set = CpuSlot(slot);
  std::error_code error;
  for (const auto& task :
       std::filesystem::directory_iterator("/proc/self/task", error)) {
    const pid_t tid = static_cast<pid_t>(
        std::atoi(task.path().filename().string().c_str()));
    if (tid > 0) sched_setaffinity(tid, sizeof(set), &set);
  }
}

int ClientThreads() { return std::min(4, HostCpus()); }

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double fraction = rank - static_cast<double>(lo);
  if (fraction == 0.0) return values[lo];
  return values[lo] + fraction * (values[hi] - values[lo]);
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 50.0);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double value : values) sum += value;
  return sum / static_cast<double>(values.size());
}

double GeoMean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (double value : values) log_sum += std::log(value);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

double Ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

uint64_t Fnv1a(const std::string& text, uint64_t hash) {
  for (unsigned char c : text) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
  return hash;
}

std::string Hex(uint64_t value) {
  return galvatron::StrFormat("%016llx",
                              static_cast<unsigned long long>(value));
}

double UnitDraw(uint64_t seed, uint64_t stream, uint64_t index) {
  galvatron::Rng rng(seed);
  rng = galvatron::Rng(rng.NextU64() ^ (stream * 0xd1b54a32d192ed03ull));
  rng = galvatron::Rng(rng.NextU64() ^ index);
  return rng.NextDouble();
}

double MeasureMs(const MeasureInput& input, size_t index,
                 galvatron::Result<galvatron::SimMetrics>* metrics) {
  cpu_set_t before;
  const bool pin = CPU_COUNT(&AllowedCpus()) > 0 &&
                   sched_getaffinity(0, sizeof(before), &before) == 0;
  if (pin) {
    const cpu_set_t one = CpuSlot(static_cast<int>(
        index % static_cast<size_t>(CPU_COUNT(&AllowedCpus()))));
    sched_setaffinity(0, sizeof(one), &one);
  }
  galvatron::SimOptions options;
  options.record_trace = true;
  galvatron::trace::AttributionJsonOptions attribution_options;
  attribution_options.max_critical_path_entries = 128;  // as /v1/measure
  const double start = NowSeconds();
  galvatron::SimTrace sim_trace;
  *metrics = galvatron::Galvatron::Measure(*input.model, *input.plan,
                                           *input.cluster, options, &sim_trace);
  if (metrics->ok()) {
    auto execution = galvatron::trace::RecordTrace(sim_trace);
    if (!execution.ok()) {
      *metrics = execution.status();
    } else if (auto report = galvatron::trace::Analyze(*execution);
               !report.ok()) {
      *metrics = report.status();
    } else {
      galvatron::trace::ToAttributionJson(*execution, *report,
                                          attribution_options);
    }
  }
  const double ms = 1e3 * (NowSeconds() - start);
  if (pin) sched_setaffinity(0, sizeof(before), &before);
  return ms;
}

galvatron::ClusterSpec MixedA100Titan16() {
  auto cluster = galvatron::ParseTopologyClusterJson(kMixedTopologyJson);
  GALVATRON_CHECK(cluster.ok()) << cluster.status().ToString();
  return std::move(cluster).value();
}

void RunResult::Fail(const std::string& note, int64_t count) {
  failed += count;
  if (failure_notes.size() < 10) failure_notes.push_back(note);
}

void RunResult::Set(const std::string& name, double value,
                    const std::string& unit, std::vector<double> rounds) {
  metrics[name] = Metric{value, unit, std::move(rounds)};
}

Tracer& Tracer::Global() {
  static Tracer tracer;
  return tracer;
}

void Tracer::Add(const SpanRecord& span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
}

std::vector<SpanRecord> Tracer::Spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::string Tracer::WriteFiles(const std::string& dir,
                               const std::string& tag) const {
  using galvatron::JsonEscape;
  using galvatron::StrFormat;
  const std::vector<SpanRecord> spans = Spans();
  std::map<int64_t, std::vector<std::pair<double, double>>> children;
  double origin = spans.empty() ? 0.0 : spans.front().start;
  for (const SpanRecord& span : spans) {
    if (span.parent != 0) children[span.parent].emplace_back(span.start, span.end);
    origin = std::min(origin, span.start);
  }

  struct Row {
    int64_t count = 0;
    double total = 0.0;
    double self = 0.0;
  };
  std::map<std::string, Row> rows;
  for (const SpanRecord& span : spans) {
    // The union of the children's intervals, clipped to this span.
    double covered = 0.0;
    auto it = children.find(span.id);
    if (it != children.end()) {
      std::vector<std::pair<double, double>> intervals = it->second;
      std::sort(intervals.begin(), intervals.end());
      double cursor = span.start;
      for (const auto& [begin, end] : intervals) {
        const double from = std::max(begin, cursor);
        const double to = std::min(end, span.end);
        if (to > from) covered += to - from;
        cursor = std::max(cursor, to);
      }
    }
    Row& row = rows[span.name];
    ++row.count;
    row.total += span.end - span.start;
    row.self += span.end - span.start - covered;
  }
  std::string table = StrFormat("%-36s %8s %12s %12s\n", "span", "count",
                                "total_ms", "self_ms");
  for (const auto& [name, row] : rows) {
    table += StrFormat("%-36s %8lld %12.3f %12.3f\n", name.c_str(),
                       static_cast<long long>(row.count), 1e3 * row.total,
                       1e3 * row.self);
  }

  std::string json = "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& span = spans[i];
    const std::string name = span.name;
    json += StrFormat(
        "%s\n{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
        "\"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, \"args\": {\"span_id\": "
        "%lld, \"parent\": %lld, \"request_id\": %lld}}",
        i == 0 ? "" : ",", JsonEscape(name).c_str(),
        JsonEscape(name.substr(0, name.find('.'))).c_str(), span.thread,
        1e6 * (span.start - origin), 1e6 * (span.end - span.start),
        static_cast<long long>(span.id), static_cast<long long>(span.parent),
        static_cast<long long>(span.request));
  }
  json += "\n]}\n";

  std::error_code error;
  std::filesystem::create_directories(dir, error);
  std::ofstream(dir + "/" + tag + ".trace.json") << json;
  std::ofstream(dir + "/" + tag + ".selftime.txt") << table;
  return table;
}

Span::Span(const char* name, bool record, int64_t parent, int64_t request)
    : name_(name),
      record_(record),
      parent_(parent),
      request_(request),
      start_(NowSeconds()) {
  if (record_) {
    id_ = Tracer::Global().NextId();
    if (request_ == 0) request_ = id_;
  }
}

double Span::Finish() {
  const double end = NowSeconds();
  if (record_) {
    Tracer::Global().Add(
        SpanRecord{name_, start_, end, id_, parent_, request_, ThreadIndex()});
  }
  return end - start_;
}

}  // namespace perfbench
