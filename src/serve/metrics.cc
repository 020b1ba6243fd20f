#include "serve/metrics.h"

#include "util/string_util.h"

namespace galvatron {
namespace serve {

namespace {

/// Upper bounds of the latency histogram. Chosen around the planner's
/// working range: a plan-cache hit is O(100us), a warm search O(1-10ms), a
/// cold 64-GPU search O(100ms+).
constexpr double kLatencyBounds[] = {0.0001, 0.00025, 0.0005, 0.001, 0.0025,
                                     0.005,  0.01,    0.025,  0.05,  0.1,
                                     0.25,   0.5,     1.0,    2.5,   10.0};
constexpr size_t kNumBounds = sizeof(kLatencyBounds) / sizeof(double);

}  // namespace

void ServeMetrics::RecordRequest(const std::string& endpoint, int http_status,
                                 double latency_seconds) {
  std::lock_guard<std::mutex> lock(mu_);
  ++requests_[{endpoint, http_status}];
  Histogram& h = latency_[endpoint];
  if (h.buckets.empty()) h.buckets.assign(kNumBounds + 1, 0);
  size_t b = 0;
  while (b < kNumBounds && latency_seconds > kLatencyBounds[b]) ++b;
  ++h.buckets[b];
  h.sum += latency_seconds;
  ++h.count;
}

void ServeMetrics::RecordPlanCache(bool hit) {
  std::lock_guard<std::mutex> lock(mu_);
  if (hit) {
    ++plan_cache_hits_;
  } else {
    ++plan_cache_misses_;
  }
}

void ServeMetrics::RecordCostCache(int64_t delta_hits, int64_t delta_misses) {
  std::lock_guard<std::mutex> lock(mu_);
  cost_cache_hits_ += delta_hits;
  cost_cache_misses_ += delta_misses;
}

int64_t ServeMetrics::plan_cache_hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return plan_cache_hits_;
}

std::string ServeMetrics::Render() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  out +=
      "# HELP galvatron_serve_requests_total Completed requests by endpoint "
      "and HTTP status.\n"
      "# TYPE galvatron_serve_requests_total counter\n";
  for (const auto& [key, count] : requests_) {
    out += StrFormat(
        "galvatron_serve_requests_total{endpoint=\"%s\",status=\"%d\"} "
        "%lld\n",
        key.first.c_str(), key.second, static_cast<long long>(count));
  }
  out +=
      "# HELP galvatron_serve_request_latency_seconds Request handling "
      "latency.\n"
      "# TYPE galvatron_serve_request_latency_seconds histogram\n";
  for (const auto& [endpoint, h] : latency_) {
    int64_t cumulative = 0;
    for (size_t b = 0; b < kNumBounds; ++b) {
      cumulative += h.buckets[b];
      out += StrFormat(
          "galvatron_serve_request_latency_seconds_bucket{endpoint=\"%s\","
          "le=\"%g\"} %lld\n",
          endpoint.c_str(), kLatencyBounds[b],
          static_cast<long long>(cumulative));
    }
    cumulative += h.buckets[kNumBounds];
    out += StrFormat(
        "galvatron_serve_request_latency_seconds_bucket{endpoint=\"%s\","
        "le=\"+Inf\"} %lld\n",
        endpoint.c_str(), static_cast<long long>(cumulative));
    out += StrFormat(
        "galvatron_serve_request_latency_seconds_sum{endpoint=\"%s\"} %.9g\n",
        endpoint.c_str(), h.sum);
    out += StrFormat(
        "galvatron_serve_request_latency_seconds_count{endpoint=\"%s\"} "
        "%lld\n",
        endpoint.c_str(), static_cast<long long>(h.count));
  }
  out += StrFormat(
      "# HELP galvatron_serve_plan_cache_hits_total /v1/plan requests "
      "answered from the plan cache.\n"
      "# TYPE galvatron_serve_plan_cache_hits_total counter\n"
      "galvatron_serve_plan_cache_hits_total %lld\n"
      "# HELP galvatron_serve_plan_cache_misses_total /v1/plan requests "
      "that ran the search.\n"
      "# TYPE galvatron_serve_plan_cache_misses_total counter\n"
      "galvatron_serve_plan_cache_misses_total %lld\n",
      static_cast<long long>(plan_cache_hits_),
      static_cast<long long>(plan_cache_misses_));
  out += StrFormat(
      "# HELP galvatron_serve_cost_cache_hits_total Cumulative shared "
      "cost-cache hits across requests.\n"
      "# TYPE galvatron_serve_cost_cache_hits_total counter\n"
      "galvatron_serve_cost_cache_hits_total %lld\n"
      "# HELP galvatron_serve_cost_cache_misses_total Cumulative shared "
      "cost-cache misses (estimator invocations).\n"
      "# TYPE galvatron_serve_cost_cache_misses_total counter\n"
      "galvatron_serve_cost_cache_misses_total %lld\n",
      static_cast<long long>(cost_cache_hits_),
      static_cast<long long>(cost_cache_misses_));
  out += StrFormat(
      "# HELP galvatron_serve_in_flight Requests currently queued or "
      "executing.\n"
      "# TYPE galvatron_serve_in_flight gauge\n"
      "galvatron_serve_in_flight %lld\n"
      "# HELP galvatron_serve_rejected_total Connections dropped by "
      "admission control (HTTP 429).\n"
      "# TYPE galvatron_serve_rejected_total counter\n"
      "galvatron_serve_rejected_total %lld\n",
      static_cast<long long>(in_flight_.load(std::memory_order_relaxed)),
      static_cast<long long>(rejected_.load(std::memory_order_relaxed)));
  out += StrFormat(
      "# HELP galvatron_serve_measure_explain_total /v1/measure requests "
      "that returned the traced attribution summary.\n"
      "# TYPE galvatron_serve_measure_explain_total counter\n"
      "galvatron_serve_measure_explain_total %lld\n",
      static_cast<long long>(explain_.load(std::memory_order_relaxed)));
  out += StrFormat(
      "# HELP galvatron_serve_coalesced_total /v1/plan requests that "
      "joined an identical in-flight search and replayed its response.\n"
      "# TYPE galvatron_serve_coalesced_total counter\n"
      "galvatron_serve_coalesced_total %lld\n"
      "# HELP galvatron_serve_warm_start_total /v1/plan searches on a "
      "context an earlier request created that replayed cached DP "
      "frontiers.\n"
      "# TYPE galvatron_serve_warm_start_total counter\n"
      "galvatron_serve_warm_start_total %lld\n"
      "# HELP galvatron_serve_async_submitted_total Async /v1/plan "
      "submissions accepted (HTTP 202).\n"
      "# TYPE galvatron_serve_async_submitted_total counter\n"
      "galvatron_serve_async_submitted_total %lld\n",
      static_cast<long long>(coalesced_.load(std::memory_order_relaxed)),
      static_cast<long long>(warm_start_.load(std::memory_order_relaxed)),
      static_cast<long long>(
          async_submitted_.load(std::memory_order_relaxed)));
  out += StrFormat(
      "# HELP galvatron_serve_calibration_applied_total Calibration "
      "profiles fitted by POST /v1/calibrate and swapped in.\n"
      "# TYPE galvatron_serve_calibration_applied_total counter\n"
      "galvatron_serve_calibration_applied_total %lld\n"
      "# HELP galvatron_serve_calibration_rejected_total POST /v1/calibrate "
      "requests whose fit failed validation or had no samples.\n"
      "# TYPE galvatron_serve_calibration_rejected_total counter\n"
      "galvatron_serve_calibration_rejected_total %lld\n"
      "# HELP galvatron_serve_calibration_staleness_measures Traced "
      "/v1/measure runs captured since the active profile was fitted.\n"
      "# TYPE galvatron_serve_calibration_staleness_measures gauge\n"
      "galvatron_serve_calibration_staleness_measures %lld\n",
      static_cast<long long>(
          calibration_applied_.load(std::memory_order_relaxed)),
      static_cast<long long>(
          calibration_rejected_.load(std::memory_order_relaxed)),
      static_cast<long long>(
          measures_since_calibration_.load(std::memory_order_relaxed)));
  return out;
}

}  // namespace serve
}  // namespace galvatron
